"""Child process of the benchmark: set up one workload, then probe or measure.

    python perfbench/worker.py probe SPEC.json   # set-up only, prints READY <t>
    python perfbench/worker.py ops SPEC.json     # timed closed loop

``SPEC.json`` is written by ``run.py``.  ``ops`` runs ops back to back, one
at a time, until their summed wall time reaches the run length, checks each
op's output outside the timed region, and writes a JSON result.  With
tracing on, ops alternate untraced and traced on the same clip, and each
pair's outputs must be bit-identical.
"""

import sys
import time

# diffworld is the first import that pulls in numpy and scipy, so that an
# ``-X importtime`` report charges their cost to diffworld
import diffworld  # noqa: E402

import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import tracemalloc  # noqa: E402

from diffworld import cli  # noqa: E402
from diffworld import fit as fitmod  # noqa: E402

import inputs  # noqa: E402
import oracles  # noqa: E402
import tracing  # noqa: E402

FIT_CONFIG = fitmod.FitConfig(steps=100, learning_rate=0.03)
FIT_WARMUP_STEPS = 2


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else str(part).encode())
    return h.hexdigest()


def _file_bytes(*paths) -> list[bytes]:
    out = []
    for path in paths:
        with open(path, "rb") as fh:
            out.append(fh.read())
    return out


class Fit:
    """One ``diffworld.fit.fit`` call: 100 Adam steps on a 1 s clip."""

    steps_per_op = FIT_CONFIG.steps

    def __init__(self, spec: dict):
        self.clips = []
        for clip in spec["clips"]:
            raw = diffworld.read_features(clip["raw"])
            target = diffworld.read_wav(clip["target"], raw.sample_rate).samples
            self.clips.append((clip, raw.f0, target,
                               diffworld.SynthConfig.for_features(raw)))

    def warmup(self):
        _, f0, target, synth_cfg = self.clips[0]
        fitmod.fit(target, f0, synth_cfg=synth_cfg,
                   cfg=dataclasses.replace(FIT_CONFIG, steps=FIT_WARMUP_STEPS))

    def op(self, i: int, tracer=None):
        _, f0, target, synth_cfg = self.clips[i % len(self.clips)]
        return fitmod.fit(target, f0, cfg=FIT_CONFIG, synth_cfg=synth_cfg)

    def check(self, i: int, out) -> tuple[list[str], str, dict]:
        fitted, trace = out
        clip = self.clips[i % len(self.clips)][0]
        errors = oracles.check_fit(trace, fitted.log_mel, fitted.coded_ap,
                                   clip["frames"], FIT_CONFIG.steps)
        digest = _digest(trace.tobytes(), fitted.log_mel.tobytes(),
                         fitted.coded_ap.tobytes())
        return errors, digest, {"msl_reduction": float(1.0 - trace[-1] / trace[0])}


class Render:
    """compress, synth, excite-transform and loss on a 10 s clip, in-process."""

    steps_per_op = 4

    def __init__(self, spec: dict):
        self.clips = spec["clips"]
        for clip in self.clips:
            d = clip["dir"]
            clip["comp_out"] = os.path.join(d, "comp.wfeat")
            clip["synth_out"] = os.path.join(d, "synth.wav")
            clip["xform_out"] = os.path.join(d, "xform.wav")

    @staticmethod
    def _argvs(clip: dict) -> list[list[str]]:
        return [
            ["compress", clip["raw"], "-o", clip["comp_out"]],
            ["synth", clip["comp_out"], "-o", clip["synth_out"]],
            ["excite-transform", clip["synth_out"], "--src-env", clip["raw"],
             "--tgt-env", clip["tgt"], "-o", clip["xform_out"]],
            ["loss", clip["synth_out"], clip["xform_out"]],
        ]

    def warmup(self):
        self.op(0)

    def op(self, i: int, tracer=None):
        clip = self.clips[i % len(self.clips)]
        codes, buf = [], io.StringIO()
        with contextlib.redirect_stdout(buf):
            for argv in self._argvs(clip):
                codes.append(cli.main(argv))
        return codes, buf.getvalue()

    def check(self, i: int, out) -> tuple[list[str], str, dict]:
        codes, stdout = out
        clip = self.clips[i % len(self.clips)]
        errors = oracles.check_render(clip, codes, stdout)
        outputs = _file_bytes(clip["comp_out"], clip["synth_out"], clip["xform_out"])
        return errors, _digest(*outputs, stdout), {}


class Coldstart:
    """One fresh ``python -m diffworld.cli`` process per op."""

    steps_per_op = 1
    COMMANDS = ("compress", "decompress", "synth", "loss", "spectrogram")

    def __init__(self, spec: dict):
        self.clip = spec["clips"][0]
        self.python = sys.executable
        self.tool_dir = os.path.dirname(os.path.abspath(__file__))
        self.env = {k: v for k, v in os.environ.items() if k != "DIFFWORLD_THREADS"}
        self.rss_kib: list[int] = []
        self.import_ms: list[dict] = []

    def _command(self, i: int) -> tuple[str, list[str], str | None]:
        c, name = self.clip, self.COMMANDS[i % len(self.COMMANDS)]
        if name == "loss":
            return name, ["loss", c["a"], c["b"]], None
        src, out = {"compress": (c["raw"], "out.wfeat"),
                    "decompress": (c["comp"], "out_raw.wfeat"),
                    "synth": (c["comp"], "out.wav"),
                    "spectrogram": (c["a"], "out.csv")}[name]
        out = os.path.join(c["dir"], out)
        return name, [name, src, "-o", out], out

    def warmup(self):
        # a set-up probe's warm-up: one subcommand in-process, right after import
        _, argv, _ = self._command(0)
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(argv)

    def op(self, i: int, tracer=None):
        _, argv, _ = self._command(i)
        d = self.clip["dir"]
        if tracer is None:
            cmd = [self.python, "-m", "diffworld.cli", *argv]
        else:
            cmd = [self.python, "-X", "importtime",
                   os.path.join(self.tool_dir, "traced_cli.py"),
                   os.path.join(d, "spans.json"), *argv]
        with open(os.path.join(d, "stdout"), "wb") as out, \
                open(os.path.join(d, "stderr"), "wb") as err:
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env)
            _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.rss_kib.append(usage.ru_maxrss)
        return proc.returncode, tracer

    def _collect_trace(self, tracer) -> None:
        d = self.clip["dir"]
        with open(os.path.join(d, "stderr")) as fh:
            self.import_ms.append(tracing.import_times_ms(fh.read()))
        with open(os.path.join(d, "spans.json")) as fh:
            spans = json.load(fh)["spans"]
        # the child numbered its spans from 0; shift them past ours
        offset = len(tracer.spans)
        for sid, name, start, end, parent, _, thread, size in spans:
            tracer.spans.append((sid + offset, name, start, end,
                                 None if parent is None else parent + offset,
                                 tracer.op, thread, size))

    def check(self, i: int, out) -> tuple[list[str], str, dict]:
        code, tracer = out
        name, _, out_path = self._command(i)
        d = self.clip["dir"]
        if tracer is not None and code == 0:
            self._collect_trace(tracer)
        with open(os.path.join(d, "stdout")) as fh:
            stdout = fh.read()
        errors = oracles.check_coldstart(name, out_path, stdout, code, self.clip)
        outputs = _file_bytes(out_path) if out_path and not errors else []
        return errors, _digest(*outputs, stdout), {}


WORKLOADS = {"fit": Fit, "render": Render, "coldstart": Coldstart}


def _timed_op(work, i: int, tracer):
    """Run op ``i``; returns (seconds, output, error message or None)."""
    in_process = tracer is not None and not isinstance(work, Coldstart)
    if in_process:
        tracer.install()
    t0 = time.perf_counter()
    try:
        if in_process:
            out = tracer.call("op", work.op, (i, tracer))
        else:
            out = work.op(i, tracer)
        return time.perf_counter() - t0, out, None
    except Exception as err:  # an op that raises is a failed op, not a crash
        return time.perf_counter() - t0, None, f"{type(err).__name__}: {err}"
    finally:
        if in_process:
            tracer.remove()


def fit_peak_mib(work: Fit) -> float:
    """tracemalloc peak of one untimed fit op.

    Kept apart from the traced ops because tracemalloc slows every
    allocation, which would distort their spans.
    """
    tracemalloc.start()
    try:
        work.op(0)
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def run_ops(work, spec: dict) -> dict:
    seconds, traced_run = spec["seconds"], spec["trace"]
    tracer = tracing.Tracer() if traced_run else None
    records, measured, i = [], 0.0, 0
    while measured < seconds:
        # a traced run measures each clip untraced, then traced
        for traced in ((False, True) if traced_run else (False,)):
            if traced:
                tracer.op = len(records)
            elapsed, out, error = _timed_op(work, i, tracer if traced else None)
            measured += elapsed
            record = {"s": elapsed, "traced": traced, "errors": [error] if error else []}
            if error is None:
                errors, record["digest"], extra = work.check(i, out)
                record["errors"] += errors
                record.update(extra)
            records.append(record)
        if traced_run and records[-1].get("digest") != records[-2].get("digest"):
            records[-1]["errors"].append("traced output differs from untraced output")
        i += 1

    result = {"ops": records, "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if isinstance(work, Coldstart):
        result["maxrss_kib"] = max(work.rss_kib)
        result["import_ms"] = work.import_ms
    if traced_run:
        n_traced = sum(1 for r in records if r["traced"])
        result["layers"] = tracing.layer_stats(tracer.spans, n_traced)
        result["fit_setup_ms"] = tracing.fit_setup_ms(tracer.spans)
        result["fit_peak_mib"] = [fit_peak_mib(work)] if isinstance(work, Fit) else []
        tracer.dump(spec["spans_out"])
    return result


def main(argv: list[str]) -> int:
    role, spec_path = argv
    with open(spec_path) as fh:
        spec = json.load(fh)
    work = WORKLOADS[spec["workload"]](spec)
    if role == "probe":
        work.warmup()
        print(f"READY {time.perf_counter():.9f}", flush=True)
        return 0
    if not isinstance(work, Coldstart):
        work.warmup()
    else:
        work.op(0)          # one untimed process start warms the file cache
        work.rss_kib.clear()
    result = run_ops(work, spec)
    result["steps_per_op"] = work.steps_per_op
    result["audio_s_per_op"] = inputs.clip_seconds(spec["clips"][0]["frames"])
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
