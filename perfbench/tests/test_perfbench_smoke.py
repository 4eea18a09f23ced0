"""Smoke test of the benchmark itself, at tiny sizes and without timing asserts.

    python3 -m pytest -q perfbench/tests

It checks that the metric names the benchmark computes are the ones
BENCHMARK.json declares, that its oracles agree with the library, and that
the tracing wrappers change no output bit.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

TOOL_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(TOOL_DIR)
sys.path[:0] = [TOOL_DIR, os.path.join(ROOT, "src")]

import diffworld as dw  # noqa: E402
from diffworld import cli  # noqa: E402

import inputs  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _tiny_features(seed: int, n_frames: int = 12):
    return inputs.make_features(np.random.default_rng(seed), n_frames, 1.2)


# ---------------------------------------------------------------------------
# BENCHMARK.json and metric names
# ---------------------------------------------------------------------------

def test_benchmark_json_shape(bench):
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in bench["workloads"])
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in bench["end_to_end"] + bench["per_layer"])
    assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in bench["end_to_end"])
    assert 1 <= len(bench["per_layer"]) <= 128


def test_per_layer_names_match(bench):
    declared = [(m["name"], m["unit"]) for m in bench["per_layer"]]
    computed = [(n, tracing.unit_of(n)) for n in tracing.per_layer_metrics()]
    assert declared == computed


def test_end_to_end_names_match(bench):
    result = {"ops": [{"s": 1.0 + 0.1 * k, "traced": False, "errors": [],
                       "msl_reduction": 0.9} for k in range(5)],
              "steps_per_op": 100, "audio_s_per_op": 1.0, "maxrss_kib": 2048}
    metrics, extras = run.end_to_end("fit", [0.5, 0.6, 0.7], result)
    assert set(metrics) == {m["name"] for m in bench["end_to_end"]}
    assert all(v > 0 for v in metrics.values())
    assert extras["fail_ratio"] == 0 and extras["op_s_p90"] is None


def test_per_layer_reports_every_name(bench):
    names = [m["name"] for m in bench["per_layer"]]
    result = {"layers": {"tensor.rfft": {"calls": 2.0, "ms": 1.0, "self_ms": 1.0, "mib": 0.0}},
              "ops": [{"s": 1.0, "traced": False}, {"s": 1.1, "traced": True}],
              "fit_setup_ms": [], "fit_peak_mib": [],
              "import_ms": [{"diffworld": 300.0, "scipy.io": 200.0}]}
    metrics = run.per_layer(names, result, "")
    assert list(metrics) == names
    assert metrics["tensor.rfft.calls"] == 2.0
    assert metrics["cli.import_scipy_io_ms"] == 200.0
    assert metrics["trace.overhead_pct"] == pytest.approx(10.0)


# ---------------------------------------------------------------------------
# inputs and oracles
# ---------------------------------------------------------------------------

def test_inputs_are_seeded_and_in_range(tmp_path):
    clips = [inputs.generate("coldstart", 7, str(tmp_path / d)) for d in "ab"]
    for key in ("raw", "comp", "a", "b"):
        with open(clips[0][0][key], "rb") as fa, open(clips[1][0][key], "rb") as fb:
            assert fa.read() == fb.read()
    raw = oracles.read_wfeat(clips[0][0]["raw"])
    voiced = raw["f0"] > 0
    assert np.all((raw["f0"][voiced] >= 80) & (raw["f0"][voiced] <= 350))
    assert 0 < voiced.sum() < raw["frames"]
    assert np.all(raw["ap"][~voiced] == 1.0)


def test_naive_msl_matches_library():
    rng = np.random.default_rng(3)
    x, y = rng.standard_normal(3000), rng.standard_normal(3000)
    assert oracles.naive_msl(x, y) == pytest.approx(dw.msl(x, y).item(), rel=1e-12)


def test_readers_match_library(tmp_path):
    raw, _ = _tiny_features(1)
    dw.write_features(tmp_path / "raw.wfeat", raw)
    got = oracles.read_wfeat(str(tmp_path / "raw.wfeat"))
    assert np.array_equal(got["env"], raw.sp) and got["kind"] == 0
    audio = dw.synthesize(raw).data
    dw.write_wav(tmp_path / "a.wav", dw.Waveform(audio, raw.sample_rate))
    rate, samples = oracles.read_wav(str(tmp_path / "a.wav"))
    assert rate == raw.sample_rate
    assert np.array_equal(samples, dw.read_wav(tmp_path / "a.wav").samples)


def test_fit_oracle_rejects_poor_convergence():
    trace = np.linspace(1.0, 0.5, 100)
    errors = oracles.check_fit(trace, np.zeros((4, 80)), np.zeros((4, 16)), 4, 100)
    assert any("msl_reduction" in e for e in errors)
    trace[-1] = 0.1
    assert oracles.check_fit(trace, np.zeros((4, 80)), np.zeros((4, 16)), 4, 100) == []


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------

def test_self_time_subtracts_union_of_children():
    spans = [(0, "p", 0.0, 10.0, None, 0, 1, 0),
             (1, "a", 1.0, 4.0, 0, 0, 1, 0),
             (2, "b", 3.0, 6.0, 0, 0, 2, 0),     # overlaps a: another thread
             (3, "c", 1.5, 2.0, 1, 0, 1, 0)]
    selfs = tracing.self_times(spans)
    assert selfs[0] == pytest.approx(5.0)
    assert selfs[1] == pytest.approx(2.5)


def test_wrappers_cover_name_imported_aliases_and_are_removed():
    from diffworld import excite, features, losses, synth, tensor
    from diffworld import fit as fitmod

    originals = (fitmod.stft, cli.read_wav, tensor.backward)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        patched = tracer.patched_names()
    finally:
        tracer.remove()
    for alias in ("stft", "istft", "pulse_train", "noise_excitation",
                  "interpolate_f0", "msl", "mse_features"):
        assert f"diffworld.fit.{alias}" in patched
    assert {"diffworld.excite.stft", "diffworld.excite.istft",
            "diffworld.losses.stft"} <= patched
    for alias in ("read_features", "read_wav", "write_features", "write_wav"):
        assert f"diffworld.cli.{alias}" in patched
    assert (fitmod.stft, cli.read_wav, tensor.backward) == originals
    assert synth.stft is fitmod.stft and features.read_wav is cli.read_wav
    assert losses.stft is excite.stft


def _fit_once(raw, target):
    fitted, trace = dw.fit.fit(target, raw.f0, cfg=dw.FitConfig(steps=3, learning_rate=0.03),
                               synth_cfg=dw.SynthConfig.for_features(raw))
    return trace.tobytes() + fitted.log_mel.tobytes() + fitted.coded_ap.tobytes()


def _render_once(d, raw_path, tgt_path):
    argvs = [["compress", raw_path, "-o", str(d / "c.wfeat")],
             ["synth", str(d / "c.wfeat"), "-o", str(d / "s.wav")],
             ["excite-transform", str(d / "s.wav"), "--src-env", raw_path,
              "--tgt-env", tgt_path, "-o", str(d / "x.wav")],
             ["loss", str(d / "s.wav"), str(d / "x.wav")]]
    return [cli.main(argv) for argv in argvs], [
        (d / name).read_bytes() for name in ("c.wfeat", "s.wav", "x.wav")]


def test_tracing_changes_no_output_bit(tmp_path, monkeypatch, capsys):
    raw, shifted = _tiny_features(5)
    target = dw.synthesize(dw.compress(raw)).data
    raw_path, tgt_path = str(tmp_path / "raw.wfeat"), str(tmp_path / "tgt.wfeat")
    dw.write_features(raw_path, raw)
    dw.write_features(tgt_path, shifted)
    monkeypatch.setenv("DIFFWORLD_THREADS", "2")

    plain_fit = _fit_once(raw, target)
    plain_render = _render_once(tmp_path, raw_path, tgt_path)
    plain_loss = capsys.readouterr().out
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced_fit = tracer.call("op", _fit_once, (raw, target))
        traced_render = tracer.call("op", _render_once, (tmp_path, raw_path, tgt_path))
    finally:
        tracer.remove()
    assert traced_fit == plain_fit
    assert traced_render == plain_render and plain_render[0] == [0, 0, 0, 0]
    assert capsys.readouterr().out == plain_loss

    stats = tracing.layer_stats(tracer.spans, 1)
    assert stats["tensor.backward"]["calls"] == 3
    assert stats["fit.adam_step"]["calls"] == 3
    assert {f"losses.scale_loss.w{w}" for w in tracing.MSL_WINDOWS} <= set(stats)
    assert {"cli.main.compress", "cli.main.excite-transform", "cli.main.loss",
            "features.write_wav", "synth.pulse_train"} <= set(stats)
    # scale losses of the loss subcommand run on pool threads, yet nest under it
    by_id = {s[0]: s for s in tracer.spans}
    loss_span = next(s for s in tracer.spans if s[1] == "cli.main.loss")
    pool = [s for s in tracer.spans if s[1].startswith("losses.scale_loss")
            and by_id[s[4]][1] == "cli.main.loss"]
    assert len(pool) == 6 and all(loss_span[2] <= s[2] <= loss_span[3] for s in pool)
    assert len(tracing.fit_setup_ms(tracer.spans)) == 1


# ---------------------------------------------------------------------------
# the command itself
# ---------------------------------------------------------------------------

def test_command_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(TOOL_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".runs", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "fit",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
