"""Seeded input generator for the benchmark workloads.

Every input is a ``WorldFeatures`` clip at 22.05 kHz (fft 1024, hop 256)
with

- an f0 contour that sweeps geometrically between two pitches inside
  80-350 Hz, with a light vibrato on top,
- unvoiced stretches (f0 = 0) whose aperiodicity is forced to one,
- a spectral envelope with two formants whose centres, widths and gains are
  drawn per clip and drift slowly within it.

Files are written with the library's own WFEAT and WAV writers, so the
program under test only ever sees these files (or, for ``fit``, the arrays
read back from them).  Generation runs before any timing starts.
"""

from __future__ import annotations

import os

import numpy as np

SAMPLE_RATE = 22050
FFT_SIZE = 1024
HOP = 256
N_BINS = FFT_SIZE // 2 + 1
N_MELS, AP_BANDS = 80, 16   # the library's default codec sizes

# frames per clip: 1 s for fit, 10 s for render, 0.5 s for coldstart
FIT_FRAMES = 86
RENDER_FRAMES = 861
COLDSTART_FRAMES = 43

FIT_CLIPS = 4      # more than the ops one run holds, so every op gets a new clip
RENDER_CLIPS = 3

F0_MIN, F0_MAX = 80.0, 350.0


def clip_seconds(n_frames: int) -> float:
    return n_frames * HOP / SAMPLE_RATE


def _f0_contour(rng: np.random.Generator, n_frames: int) -> np.ndarray:
    lo = rng.uniform(F0_MIN, 160.0)
    hi = rng.uniform(220.0, F0_MAX)
    start, end = (lo, hi) if rng.random() < 0.5 else (hi, lo)
    pos = np.linspace(0.0, 1.0, n_frames)
    f0 = start * (end / start) ** pos
    seconds = np.arange(n_frames) * HOP / SAMPLE_RATE
    f0 *= 1.0 + 0.02 * np.sin(2.0 * np.pi * rng.uniform(4.5, 6.5) * seconds)
    f0 = np.clip(f0, F0_MIN, F0_MAX)
    # one unvoiced stretch per ~2 s (at least one), each 4-12 % of the clip
    for _ in range(1 + n_frames // 172):
        length = max(2, int(n_frames * rng.uniform(0.04, 0.12)))
        first = int(rng.integers(1, max(2, n_frames - length)))
        f0[first:first + length] = 0.0
    return f0


def _formants(rng: np.random.Generator) -> dict:
    return {
        "centres": (rng.uniform(350.0, 800.0), rng.uniform(1000.0, 2500.0)),
        "widths": (rng.uniform(0.2, 0.35), rng.uniform(0.15, 0.3)),
        "gains": (1.0, rng.uniform(0.2, 0.6)),
        "drift_hz": rng.uniform(0.2, 0.8),
        "drift_phase": rng.uniform(0.0, 2.0 * np.pi),
    }


def _envelope(formants: dict, n_frames: int, shift: float = 1.0) -> np.ndarray:
    """Power envelope ``(T, bins)``: two log-frequency Gaussians over a tilt.

    ``shift`` scales both formant centres, which is the formant-shifted
    target envelope the ``render`` workload transforms towards.
    """
    freqs = np.linspace(0.0, SAMPLE_RATE / 2.0, N_BINS)
    log_f = np.log(np.maximum(freqs, 20.0))
    seconds = np.arange(n_frames) * HOP / SAMPLE_RATE
    drift = 1.0 + 0.08 * np.sin(2.0 * np.pi * formants["drift_hz"] * seconds
                                + formants["drift_phase"])
    tilt = (1.0 + freqs / 400.0) ** -1.2
    env = np.full((n_frames, N_BINS), 1e-4)
    for centre, width, gain in zip(formants["centres"], formants["widths"],
                                   formants["gains"]):
        log_c = np.log(centre * shift * drift)[:, None]
        env += gain * np.exp(-0.5 * ((log_f[None, :] - log_c) / width) ** 2)
    return env * (0.3 + tilt)[None, :]


def _aperiodicity(rng: np.random.Generator, f0: np.ndarray) -> np.ndarray:
    rel = np.linspace(0.0, 1.0, N_BINS)
    ap = np.clip(rng.uniform(0.01, 0.08) + rng.uniform(0.4, 0.8) * rel ** 1.5,
                 0.0, 1.0)
    ap = np.tile(ap, (f0.shape[0], 1))
    ap[f0 == 0.0, :] = 1.0
    return ap


def make_features(rng: np.random.Generator, n_frames: int, shift: float = 1.0):
    """A raw clip plus the same clip with its formants scaled by ``shift``."""
    import diffworld as dw

    f0 = _f0_contour(rng, n_frames)
    formants = _formants(rng)
    ap = _aperiodicity(rng, f0)

    def build(s: float):
        return dw.WorldFeatures(f0=f0, sp=_envelope(formants, n_frames, s), ap=ap,
                                sample_rate=SAMPLE_RATE, hop=HOP, fft_size=FFT_SIZE)

    return build(1.0), build(shift)


def generate(workload: str, seed: int, work_dir: str) -> list[dict]:
    """Write the inputs of ``workload`` under ``work_dir``; return its clips.

    Each clip is a dict of file paths plus its frame count.  The same seed
    always gives byte-identical files.
    """
    import diffworld as dw

    rng = np.random.default_rng([seed, {"fit": 1, "render": 2, "coldstart": 3}[workload]])
    clips = []
    if workload == "fit":
        for i in range(FIT_CLIPS):
            d = os.path.join(work_dir, f"clip{i}")
            os.makedirs(d)
            raw, _ = make_features(rng, FIT_FRAMES)
            target = dw.synthesize(dw.compress(raw)).data
            clip = {"dir": d, "frames": FIT_FRAMES,
                    "raw": os.path.join(d, "raw.wfeat"),
                    "target": os.path.join(d, "target.wav")}
            dw.write_features(clip["raw"], raw)
            dw.write_wav(clip["target"], dw.Waveform(target, SAMPLE_RATE))
            clips.append(clip)
    elif workload == "render":
        for i in range(RENDER_CLIPS):
            d = os.path.join(work_dir, f"clip{i}")
            os.makedirs(d)
            raw, shifted = make_features(rng, RENDER_FRAMES, rng.uniform(1.1, 1.25))
            clip = {"dir": d, "frames": RENDER_FRAMES,
                    "raw": os.path.join(d, "raw.wfeat"),
                    "tgt": os.path.join(d, "tgt.wfeat")}
            dw.write_features(clip["raw"], raw)
            dw.write_features(clip["tgt"], shifted)
            clips.append(clip)
    elif workload == "coldstart":
        d = os.path.join(work_dir, "clip0")
        os.makedirs(d)
        raw, _ = make_features(rng, COLDSTART_FRAMES)
        comp = dw.compress(raw)
        clip = {"dir": d, "frames": COLDSTART_FRAMES,
                "raw": os.path.join(d, "raw.wfeat"),
                "comp": os.path.join(d, "comp.wfeat"),
                "a": os.path.join(d, "a.wav"), "b": os.path.join(d, "b.wav")}
        dw.write_features(clip["raw"], raw)
        dw.write_features(clip["comp"], comp)
        dw.write_wav(clip["a"], dw.Waveform(dw.synthesize(raw).data, SAMPLE_RATE))
        dw.write_wav(clip["b"], dw.Waveform(dw.synthesize(comp).data, SAMPLE_RATE))
        clips.append(clip)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return clips
