"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
measurements; plain ``pytest`` reports one PASSED/FAILED line per criterion.
"""

import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
from scipy.signal.windows import blackmanharris

from diffworld import excite as ex
from diffworld import fit as fi
from diffworld import losses as ls
from diffworld import melcodec as mc
from diffworld import synth as sy
from diffworld import tensor as dt
from diffworld.features import Waveform, WorldFeatures, write_features, write_wav
from helpers import (central_diff, naive_msl, rel_grad_err, rel_l2,
                     two_formant_envelope)

FULL = sy.SynthConfig()                      # 22050 / 1024 / 256
DESK = sy.SynthConfig(sample_rate=8000, fft_size=64)


def random_features(cfg, seconds, rng, f0_base=170.0, unvoiced_every=0):
    n_frames = int(seconds * cfg.sample_rate) // cfg.hop
    bins = cfg.fft_size // 2 + 1
    centers = (rng.uniform(400, 900), rng.uniform(1600, 3000))
    env = two_formant_envelope(bins, cfg.sample_rate, centers=centers, floor=1e-3)
    sp = np.tile(env, (n_frames, 1)) * rng.uniform(0.7, 1.3, size=(n_frames, 1))
    f = np.linspace(0, cfg.sample_rate / 2, bins)
    ap = np.tile(0.1 + 0.4 * f / f[-1], (n_frames, 1))
    f0 = f0_base + 30.0 * np.sin(2 * np.pi * np.arange(n_frames) / n_frames)
    if unvoiced_every:
        f0[::unvoiced_every] = 0.0
        ap[f0 == 0, :] = 1.0
    return WorldFeatures(f0=f0, sp=sp, ap=ap, sample_rate=cfg.sample_rate,
                         hop=cfg.hop, fft_size=cfg.fft_size)


def test_criterion_1_excitation_identity():
    """transform_formants(x, sp, sp) reproduces x on interior samples."""
    rng = np.random.default_rng(101)
    t0 = time.time()
    worst = 0.0
    n = FULL.fft_size
    for _ in range(10):
        feats = random_features(FULL, 1.0, rng)
        x = sy.synthesize(feats, sy.SynthConfig.for_features(feats)).data
        y = ex.transform_formants(x, feats.sp, feats.sp, FULL).data
        worst = max(worst, rel_l2(y[n:-n], x[n:-n]))
    elapsed = time.time() - t0
    assert worst <= 1e-6
    assert elapsed < 5.0
    print(f"criterion 1 PASS: excitation identity, worst interior rel L2 "
          f"{worst:.2e} <= 1e-6 over 10 clips in {elapsed:.1f}s")


def test_criterion_2_gradient_correctness():
    """Analytic gradients of the fit objective match central differences."""
    t0 = time.time()
    n_frames, n_mels, ap_bands = 8, 16, 4
    bins = DESK.fft_size // 2 + 1
    basis = mc.MelBasis.build(DESK.sample_rate, DESK.fft_size, n_mels)
    rng = np.random.default_rng(202)
    f0 = np.full(n_frames, 200.0)
    f0[5] = 0.0
    env = two_formant_envelope(bins, DESK.sample_rate, centers=(500, 1700))
    s0 = mc.compress_sp(np.tile(env, (n_frames, 1)), basis).data \
        + rng.normal(scale=0.1, size=(n_frames, n_mels))
    a0 = rng.uniform(0.2, 0.8, size=(n_frames, ap_bands))
    target = 0.1 * rng.normal(size=n_frames * DESK.hop)
    msl_cfg = ls.MslConfig()

    def objective(s, a):
        s_t = dt.Tensor(s, requires_grad=True)
        a_t = dt.Tensor(a, requires_grad=True)
        sp = mc.decompress_sp(s_t, basis)
        ap = mc.decompress_ap(a_t, bins)
        y = sy.synthesize_components(f0, sp, ap, DESK)
        return ls.msl(target, y, msl_cfg), s_t, a_t

    loss, s_t, a_t = objective(s0, a0)
    grads = dt.backward(loss)
    fd_s = central_diff(lambda s: objective(s, a0)[0].item(), s0)
    fd_a = central_diff(lambda a: objective(s0, a)[0].item(), a0)
    err_s = rel_grad_err(grads[s_t], fd_s)
    err_a = rel_grad_err(grads[a_t], fd_a)
    elapsed = time.time() - t0
    assert err_s < 1e-4 and err_a < 1e-4
    assert elapsed < 60.0
    print(f"criterion 2 PASS: gradient check rel err s={err_s:.2e}, "
          f"a={err_a:.2e} < 1e-4 (T=8, N=64, M=16, A=4) in {elapsed:.1f}s")


def test_criterion_3_harmonic_masking():
    """No aliased harmonic energy across a 71..5000 Hz fundamental sweep.

    Each fundamental synthesizes a constant-pitch pulse train; energy outside
    narrow bands around the true (un-aliased) harmonics is measured with a
    Blackman-Harris window, whose own skirt sits below -90 dB.
    """
    n = 8192
    window = blackmanharris(n)
    hz = np.fft.rfftfreq(n, 1.0 / FULL.sample_rate)
    bin_width = hz[1] - hz[0]
    worst = 0.0
    for f0_hz in np.geomspace(71.0, 5000.0, 40):
        e = sy.pulse_train(np.full(n, f0_hz), np.ones(n), FULL)
        power = np.abs(np.fft.rfft(e * window)) ** 2
        keep = np.zeros(len(hz), dtype=bool)
        k = 1
        while k * f0_hz < FULL.sample_rate / 2.0:
            keep |= np.abs(hz - k * f0_hz) <= 8.0 * bin_width
            k += 1
        worst = max(worst, power[~keep].sum() / power.sum())
    worst_db = 10.0 * np.log10(worst)
    assert worst_db < -80.0
    print(f"criterion 3 PASS: swept-f0 off-harmonic energy {worst_db:.1f} dB "
          "< -80 dB")


def test_criterion_4_unvoiced_contract():
    """Frames with f0 = 0 contribute exactly zero harmonic energy."""
    rng = np.random.default_rng(404)
    # fully unvoiced clip: harmonic-only synthesis is identically zero
    silent = random_features(FULL, 0.5, rng)
    silent = WorldFeatures(f0=np.zeros_like(silent.f0), sp=silent.sp,
                           ap=np.ones_like(silent.ap),
                           sample_rate=silent.sample_rate, hop=silent.hop,
                           fft_size=silent.fft_size)
    y = sy.synthesize(silent, sy.SynthConfig.for_features(silent, gain_noise=0.0))
    assert np.all(y.data == 0.0)

    # mixed voicing with a long unvoiced stretch: beyond the reach of any
    # voiced analysis window the harmonic component is bitwise zero
    feats = random_features(FULL, 0.5, rng)
    f0 = feats.f0.copy()
    f0[15:30] = 0.0
    ap = feats.ap.copy()
    ap[f0 == 0, :] = 1.0
    feats = WorldFeatures(f0=f0, sp=feats.sp, ap=ap,
                          sample_rate=feats.sample_rate, hop=feats.hop,
                          fft_size=feats.fft_size)
    # the harmonic branch alone: render with the noise gain at 0
    spec_h, spec_n = sy.excitation_spectra(feats.f0, FULL)
    h = sy.render(spec_h, spec_n, feats.sp, feats.ap, replace(FULL, gain_noise=0.0)).data
    voiced_centers = np.flatnonzero(feats.f0 > 0) * FULL.hop
    samples = np.arange(len(h))
    distance = np.min(np.abs(samples[:, None] - voiced_centers[None, :]), axis=1)
    far = distance > FULL.fft_size // 2
    assert far.any()
    assert np.all(h[far] == 0.0)
    print("criterion 4 PASS: unvoiced frames carry exactly zero harmonic "
          f"energy ({int(far.sum())} far-field samples bitwise zero)")


def test_criterion_5_codec_fidelity():
    """Roundtripped features synthesize close to raw-feature synthesis."""
    rng = np.random.default_rng(505)
    feats = random_features(FULL, 1.0, rng)
    y_raw = sy.synthesize(feats, sy.SynthConfig.for_features(feats)).data
    roundtrip = mc.decompress(mc.compress(feats))
    y_codec = sy.synthesize(roundtrip, sy.SynthConfig.for_features(feats)).data
    pair = ls.msl(y_raw, y_codec).item()
    against_silence = ls.msl(y_raw, np.zeros_like(y_raw)).item()
    ratio = pair / against_silence
    assert ratio <= 0.15
    print(f"criterion 5 PASS: codec MSL ratio {ratio:.4f} <= 0.15 "
          f"(pair {pair:.3f} vs silence {against_silence:.3f})")


def test_criterion_6_self_consistency_fit():
    """fit recovers >= 90% of the loss against its own synthesis manifold."""
    t0 = time.time()
    rng = np.random.default_rng(606)
    feats = random_features(FULL, 1.0, rng)
    comp = mc.compress(feats)
    target = sy.synthesize(comp, sy.SynthConfig.for_features(comp)).data
    cfg = fi.FitConfig(steps=500, learning_rate=0.03)
    fitted, trace = fi.fit(target, feats.f0, cfg=cfg, synth_cfg=FULL)
    elapsed = time.time() - t0
    reduction = 1.0 - trace[-1] / trace[0]
    assert reduction >= 0.90
    assert elapsed < 300.0
    assert fitted.log_mel.shape == comp.log_mel.shape
    print(f"criterion 6 PASS: MSL reduced {100 * reduction:.1f}% >= 90% in "
          f"{cfg.steps} steps ({elapsed:.0f}s); {trace[0]:.2f} -> {trace[-1]:.2f}")


def test_criterion_7_loss_algebra_oracles():
    """Every loss matches an independent naive-summation reimplementation."""
    rng = np.random.default_rng(707)
    x = rng.normal(size=(5, 9))
    y = rng.normal(size=(5, 9))
    naive_mse = sum((x[i, j] - y[i, j]) ** 2 for i in range(5)
                    for j in range(9)) / 45.0
    assert abs(ls.mse_features(x, y).item() - naive_mse) <= 1e-12

    a = rng.normal(size=300)
    b = rng.normal(size=300)
    got = ls.msl(a, b, ls.MslConfig(scales=1)).item()
    assert abs(got - naive_msl(a, b, 1)) <= 1e-12

    scores = [rng.normal(size=(2, 7)) for _ in range(3)]
    naive_g = sum(np.mean(-s) for s in scores)
    assert abs(ls.hinge_generator(scores).item() - naive_g) <= 1e-12

    real = [[rng.normal(size=(3, 6)), rng.normal(size=(2, 4))] for _ in range(2)]
    fake = [[rng.normal(size=(3, 6)), rng.normal(size=(2, 4))] for _ in range(2)]
    naive_fm = sum(np.mean(np.abs(real[k][i] - fake[k][i])) / real[k][i].shape[0]
                   for k in range(2) for i in range(2))
    assert abs(ls.feature_matching(real, fake).item() - naive_fm) <= 1e-12

    rs = [rng.normal(size=8) for _ in range(3)]
    fs = [rng.normal(size=8) for _ in range(3)]
    naive_d = sum(np.mean(np.minimum(0.0, 1.0 - r))
                  + np.mean(np.minimum(0.0, 1.0 + f)) for r, f in zip(rs, fs))
    assert abs(ls.hinge_discriminator(rs, fs).item() - naive_d) <= 1e-12
    print("criterion 7 PASS: mse/msl/hinge/feature-matching/discriminator all "
          "match naive oracles to 1e-12")


def _run_cli(args):
    proc = subprocess.run([sys.executable, "-m", "diffworld.cli", *args],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_criterion_8_cli_determinism(tmp_path):
    """Every subcommand is bit-identical across two identical runs."""
    rng = np.random.default_rng(808)
    feats = random_features(DESK, 0.4, rng)
    raw = tmp_path / "raw.wfeat"
    write_features(raw, feats)
    wav = tmp_path / "x.wav"
    write_wav(wav, Waveform(0.1 * rng.normal(size=len(feats.f0) * DESK.hop),
                            DESK.sample_rate))

    def twice(args, outputs):
        blobs = []
        for round_dir in ("r1", "r2"):
            base = tmp_path / round_dir
            base.mkdir(exist_ok=True)
            stdout = _run_cli([a.format(out=base) for a in args])
            blobs.append((stdout, [(base / o).read_bytes() for o in outputs]))
        assert blobs[0] == blobs[1], f"non-deterministic: {args[0]}"

    twice(["synth", str(raw), "-o", "{out}/y.wav", "--seed", "7"], ["y.wav"])
    twice(["compress", str(raw), "-o", "{out}/c.wfeat", "--mels", "16",
           "--ap-bands", "4"], ["c.wfeat"])
    comp = tmp_path / "r1" / "c.wfeat"
    twice(["decompress", str(comp), "-o", "{out}/d.wfeat"], ["d.wfeat"])
    twice(["synth", str(comp), "-o", "{out}/yc.wav", "--seed", "7"], ["yc.wav"])
    twice(["excite-transform", str(wav), "--src-env", str(raw), "--tgt-env",
           str(raw), "-o", "{out}/t.wav"], ["t.wav"])
    twice(["fit", str(wav), "--f0", str(raw), "-o", "{out}/fit.wfeat",
           "--steps", "8", "--lr", "0.02", "--seed", "3", "--mels", "16",
           "--ap-bands", "4", "--trace", "{out}/trace.csv"],
          ["fit.wfeat", "trace.csv"])
    twice(["loss", str(wav), str(wav), "--scales", "3"], [])
    twice(["spectrogram", str(wav), "-o", "{out}/s.csv", "--mels", "16",
           "--fft-size", "64"], ["s.csv"])
    print("criterion 8 PASS: all 8 CLI invocations bit-identical across reruns")


def test_criterion_9_stft_roundtrip():
    """istft(stft(x)) is the identity on interior samples at 1024/256."""
    rng = np.random.default_rng(909)
    x = rng.normal(size=3 * FULL.sample_rate)
    back = sy.istft(sy.stft(x, 1024, 256), 1024, 256, len(x)).data
    err = rel_l2(back[1024:-1024], x[1024:-1024])
    assert err < 1e-10
    print(f"criterion 9 PASS: STFT roundtrip interior rel L2 {err:.2e} < 1e-10")
