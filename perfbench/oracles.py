"""Output checks for the benchmark, written in plain numpy.

Nothing here calls into ``diffworld``: files are parsed by the readers
below and the loss is recomputed by a naive implementation of the
multi-resolution spectral loss, so a defect in the program cannot hide
behind the same defect in its check.  Checks use tolerances, never exact
audio hashes, so a rounding-level change in the program is not a failure.

Each ``check_*`` function returns a list of failure messages; an empty list
means the op passed.
"""

from __future__ import annotations

import struct

import numpy as np

from inputs import AP_BANDS, HOP, N_BINS, N_MELS, SAMPLE_RATE

MSL_REDUCTION_MIN = 0.8   # fit: 1 - trace[-1] / trace[0] after 100 steps
MIN_RMS = 1e-6            # a rendered clip must not be silent


def read_wav(path: str) -> tuple[int, np.ndarray]:
    """Mono 16-bit PCM or 32-bit float WAV -> (rate, float64 samples)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != b"RIFF" or blob[8:12] != b"WAVE":
        raise ValueError(f"{path}: not a RIFF/WAVE file")
    pos, fmt, data = 12, None, None
    while pos + 8 <= len(blob):
        tag, size = blob[pos:pos + 4], struct.unpack_from("<I", blob, pos + 4)[0]
        body = blob[pos + 8:pos + 8 + size]
        if tag == b"fmt ":
            fmt = struct.unpack_from("<HHIIHH", body)
        elif tag == b"data":
            data = body
        pos += 8 + size + (size & 1)
    if fmt is None or data is None:
        raise ValueError(f"{path}: missing fmt or data chunk")
    code, channels, rate, _, _, bits = fmt
    if channels != 1:
        raise ValueError(f"{path}: {channels} channels")
    if code == 3 and bits == 32:
        samples = np.frombuffer(data, dtype="<f4").astype(np.float64)
    elif code == 1 and bits == 16:
        samples = np.frombuffer(data, dtype="<i2") / 32768.0
    else:
        raise ValueError(f"{path}: unsupported codec {code}/{bits} bit")
    return rate, samples


def read_wfeat(path: str) -> dict:
    """WFEAT file -> header fields plus its three payload arrays.

    ``env`` is ``sp`` for raw files and ``log_mel`` for compressed ones;
    ``ap`` is ``ap`` or ``coded_ap``.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    header = struct.Struct("<4s8I")
    magic, version, rate, hop, fft, frames, kind, width, bands = header.unpack_from(blob)
    if magic != b"WFEA" or version != 1:
        raise ValueError(f"{path}: bad WFEAT header")
    second = width if kind == 1 else fft // 2 + 1
    third = bands if kind == 1 else fft // 2 + 1
    sizes = (frames, frames * second, frames * third)
    if len(blob) != header.size + 8 * sum(sizes):
        raise ValueError(f"{path}: payload size disagrees with the header")
    flat = np.frombuffer(blob, dtype="<f8", offset=header.size)
    f0 = flat[:sizes[0]]
    env = flat[sizes[0]:sizes[0] + sizes[1]].reshape(frames, second)
    ap = flat[sizes[0] + sizes[1]:].reshape(frames, third)
    return {"rate": rate, "hop": hop, "fft": fft, "frames": frames,
            "kind": kind, "f0": f0, "env": env, "ap": ap}


def naive_msl(x: np.ndarray, y: np.ndarray, scales: int = 6, kappa: float = 1.0,
              log_floor: float = 1e-7) -> float:
    """Sum over windows 64..2048 of L1 magnitude + kappa * L1 log-magnitude.

    Periodic Hann windows, hop = window / 4, frames centred on ``t * hop``
    with zeros outside the signal and ``ceil(n / hop)`` frames.
    """
    n = x.shape[0]
    total = 0.0
    for s in range(1, scales + 1):
        win = 2 ** (5 + s)
        hop = win // 4
        n_frames = -(-n // hop)
        hann = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(win) / win)
        idx = np.arange(n_frames)[:, None] * hop + np.arange(win)[None, :]
        mags = []
        for sig in (x, y):
            padded = np.zeros((n_frames - 1) * hop + win)
            padded[win // 2:win // 2 + n] = sig[:padded.shape[0] - win // 2]
            mags.append(np.abs(np.fft.rfft(padded[idx] * hann, axis=-1)))
        mx, my = mags
        total += np.mean(np.abs(mx - my))
        total += kappa * np.mean(np.abs(np.log(np.maximum(mx, log_floor))
                                        - np.log(np.maximum(my, log_floor))))
    return float(total)


def _check_wav(path: str, n_samples: int) -> list[str]:
    try:
        got_rate, samples = read_wav(path)
    except (OSError, ValueError) as err:
        return [f"unreadable WAV: {err}"]
    errors = []
    if got_rate != SAMPLE_RATE:
        errors.append(f"{path}: rate {got_rate}, expected {SAMPLE_RATE}")
    if samples.shape[0] != n_samples:
        errors.append(f"{path}: {samples.shape[0]} samples, expected {n_samples}")
    if not np.all(np.isfinite(samples)):
        errors.append(f"{path}: non-finite samples")
    elif np.sqrt(np.mean(samples ** 2)) < MIN_RMS:
        errors.append(f"{path}: silent output")
    return errors


def _check_wfeat(path: str, kind: int, frames: int, widths: tuple[int, int]) -> list[str]:
    try:
        feats = read_wfeat(path)
    except (OSError, ValueError) as err:
        return [f"unreadable WFEAT: {err}"]
    errors = []
    if feats["kind"] != kind or feats["frames"] != frames:
        errors.append(f"{path}: kind {feats['kind']}, {feats['frames']} frames; "
                      f"expected kind {kind}, {frames} frames")
    if (feats["env"].shape[1], feats["ap"].shape[1]) != widths:
        errors.append(f"{path}: widths {feats['env'].shape[1]}, {feats['ap'].shape[1]}; "
                      f"expected {widths}")
    for name in ("f0", "env", "ap"):
        if not np.all(np.isfinite(feats[name])):
            errors.append(f"{path}: non-finite {name}")
    if not np.all((feats["ap"] >= 0.0) & (feats["ap"] <= 1.0)):
        errors.append(f"{path}: aperiodicity outside [0, 1]")
    return errors


def check_printed_loss(stdout: str, a_path: str, b_path: str) -> list[str]:
    """The ``loss`` subcommand's output must match :func:`naive_msl`."""
    try:
        printed = float(stdout.strip())
    except ValueError:
        return [f"loss printed {stdout.strip()!r}, not a number"]
    _, a = read_wav(a_path)
    _, b = read_wav(b_path)
    expected = naive_msl(a, b)
    # printed with 6 decimals: allow the last digit to round either way
    if not abs(printed - expected) <= 1e-6 + 1e-9 * abs(expected):
        return [f"loss printed {printed}, naive MSL gives {expected:.9f}"]
    return []


def check_fit(trace: np.ndarray, log_mel: np.ndarray, coded_ap: np.ndarray,
              frames: int, steps: int) -> list[str]:
    errors = []
    if trace.shape != (steps,) or not np.all(np.isfinite(trace)):
        return [f"trace has shape {trace.shape} or non-finite values"]
    if log_mel.shape != (frames, N_MELS) or coded_ap.shape != (frames, AP_BANDS):
        errors.append(f"fitted shapes {log_mel.shape}, {coded_ap.shape}")
    if not (np.all(np.isfinite(log_mel)) and np.all(np.isfinite(coded_ap))):
        errors.append("fitted features are not finite")
    if not np.all((coded_ap >= 0.0) & (coded_ap <= 1.0)):
        errors.append("fitted aperiodicity outside [0, 1]")
    reduction = 1.0 - trace[-1] / trace[0]
    if not reduction >= MSL_REDUCTION_MIN:
        errors.append(f"msl_reduction {reduction:.4f} < {MSL_REDUCTION_MIN}")
    return errors


def check_render(clip: dict, codes: list[int], loss_stdout: str) -> list[str]:
    if any(codes):
        return [f"exit codes {codes}"]
    n_samples = clip["frames"] * HOP
    errors = _check_wfeat(clip["comp_out"], 1, clip["frames"], (N_MELS, AP_BANDS))
    errors += _check_wav(clip["synth_out"], n_samples)
    errors += _check_wav(clip["xform_out"], n_samples)
    if not errors:
        errors += check_printed_loss(loss_stdout, clip["synth_out"], clip["xform_out"])
    return errors


def check_coldstart(command: str, out_path: str | None, stdout: str, code: int,
                    clip: dict) -> list[str]:
    if code != 0:
        return [f"{command}: exit code {code}"]
    frames = clip["frames"]
    if command == "compress":
        return _check_wfeat(out_path, 1, frames, (N_MELS, AP_BANDS))
    if command == "decompress":
        return _check_wfeat(out_path, 0, frames, (N_BINS, N_BINS))
    if command == "synth":
        return _check_wav(out_path, frames * HOP)
    if command == "loss":
        return check_printed_loss(stdout, clip["a"], clip["b"])
    if command == "spectrogram":
        try:
            rows = np.loadtxt(out_path, delimiter=",", ndmin=2)
        except (OSError, ValueError) as err:
            return [f"unreadable spectrogram CSV: {err}"]
        if rows.shape != (frames, N_MELS) or not np.all(np.isfinite(rows)):
            return [f"spectrogram CSV has shape {rows.shape} or non-finite values"]
        return []
    return [f"no check for {command}"]
