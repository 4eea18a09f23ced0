"""Shared oracles for the test suite: finite differences and synthetic data."""

import struct

import numpy as np

from diffworld import synth as sy
from diffworld import tensor as dt


def central_diff(f, x, step=1e-5):
    """Central finite-difference gradient of scalar ``f`` w.r.t. array ``x``."""
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    flat = grad.reshape(-1)
    xflat = x.reshape(-1)
    for i in range(x.size):
        orig = xflat[i]
        xflat[i] = orig + step
        hi = f(x)
        xflat[i] = orig - step
        lo = f(x)
        xflat[i] = orig
        flat[i] = (hi - lo) / (2.0 * step)
    return grad


def rel_grad_err(analytic, fd):
    """Max abs deviation normalized by the finite-difference gradient scale."""
    analytic = np.asarray(analytic, dtype=float)
    fd = np.asarray(fd, dtype=float)
    scale = max(np.max(np.abs(fd)), 1e-12)
    return np.max(np.abs(analytic - fd)) / scale


def rel_l2(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    denom = max(np.linalg.norm(b), 1e-300)
    return np.linalg.norm(a - b) / denom


def two_formant_envelope(n_bins, sample_rate, centers=(700.0, 2400.0),
                         widths=(0.35, 0.25), gains=(1.0, 0.4), floor=1e-4):
    """Smooth synthetic power envelope: two Gaussians in log frequency."""
    freqs = np.linspace(0.0, sample_rate / 2.0, n_bins)
    logf = np.log(np.maximum(freqs, 20.0))
    env = np.full(n_bins, floor)
    for c, w, g in zip(centers, widths, gains):
        env = env + g * np.exp(-0.5 * ((logf - np.log(c)) / w) ** 2)
    return env


def smoothed_trace(trace, window=20):
    """Moving-average view of a loss trace (for monotonicity checks)."""
    trace = np.asarray(trace, dtype=np.float64)
    if trace.size < window:
        return trace.copy()
    kernel = np.ones(window) / window
    return np.convolve(trace, kernel, mode="valid")


def naive_magnitude_spectrogram(x, window):
    """Independent reimplementation: explicit frame loop, numpy FFT."""
    hop = window // 4
    n_frames = -(-len(x) // hop)
    win = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(window) / window)
    pad = np.concatenate([np.zeros(window // 2), x,
                          np.zeros((n_frames - 1) * hop + window)])
    mags = np.empty((n_frames, window // 2 + 1))
    for t in range(n_frames):
        seg = pad[t * hop: t * hop + window] * win
        mags[t] = np.abs(np.fft.rfft(seg))
    return mags


def naive_msl(x, y, scales, kappa=1.0, floor=1e-7):
    total = 0.0
    for s in range(1, scales + 1):
        window = 2 ** (5 + s)
        mx = naive_magnitude_spectrogram(x, window)
        my = naive_magnitude_spectrogram(y, window)
        total += np.mean(np.abs(mx - my))
        total += kappa * np.mean(np.abs(np.log(np.maximum(mx, floor))
                                        - np.log(np.maximum(my, floor))))
    return total


def direct_pulse_train(f0_audio, mask, sample_rate, harmonic_cap):
    """Reference pulse train: the harmonic sum taken term by term.

    ``sum_k sin(k * phase) * [k <= K(t)]`` with ``phase = 2 pi cumsum(f0) /
    fs`` and ``K(t)`` the harmonics strictly below Nyquist, at most
    ``harmonic_cap``, times the unit-energy amplitude
    ``sqrt(2 f0 / (K fs))`` and the mask.  Costs O(K * samples).
    """
    f0_audio = np.asarray(f0_audio, dtype=float)
    fs = float(sample_rate)
    phase = 2.0 * np.pi * np.cumsum(f0_audio) / fs
    voiced = f0_audio > 0
    k_max = np.zeros_like(f0_audio)
    k_max[voiced] = np.minimum(np.ceil(fs / 2.0 / f0_audio[voiced]) - 1.0, harmonic_cap)
    total = np.zeros_like(f0_audio)
    for k in range(1, int(k_max.max(initial=0.0)) + 1):
        total += np.where(k <= k_max, np.sin(k * phase), 0.0)
    amp = np.zeros_like(f0_audio)
    on = k_max > 0
    amp[on] = np.sqrt(2.0 * f0_audio[on] / (k_max[on] * fs))
    return total * amp * np.asarray(mask, dtype=float)


def composed_scale_loss(x, y, window, floor=1e-7):
    """Reference scale term of the spectral loss as a graph of tensor ops.

    The form the library's one-node term replaced: per side ``frame``,
    window ``mul``, ``rfft`` and ``complex_abs``, then ``sub``/``abs``/
    ``mean`` on the magnitudes and on their ``clamp_min``/``log``, and an
    ``add``.  Its value and its gradient are the bits the fused term must
    reproduce.
    """
    hop = window // 4
    hann = dt.Tensor(0.5 - 0.5 * np.cos(2 * np.pi * np.arange(window) / window))

    def magnitude(s):
        s = dt.as_tensor(s)
        frames = dt.frame(s, window, hop, -(-s.shape[0] // hop), window // 2)
        return dt.complex_abs(dt.rfft(dt.mul(frames, hann), window))

    def floored_log(mag):
        return dt.log(dt.clamp_min(mag, floor))

    mag_x, mag_y = magnitude(x), magnitude(y)
    linear = dt.mean(dt.abs(dt.sub(mag_x, mag_y)))
    logterm = dt.mean(dt.abs(dt.sub(floored_log(mag_x), floored_log(mag_y))))
    return dt.add(linear, logterm)


def composed_istft(spec, fft_size, hop, length):
    """Reference inverse STFT as a graph of tensor ops: ``irfft``, window
    ``mul``, ``overlap_add`` and a ``mul`` by the inverse window norm."""
    hann = dt.Tensor(0.5 - 0.5 * np.cos(2 * np.pi * np.arange(fft_size) / fft_size))
    spec = dt.as_tensor(spec)
    summed = dt.overlap_add(dt.mul(dt.irfft(spec, fft_size), hann), hop, length,
                            fft_size // 2)
    norm = sy._window_norm(fft_size, hop, spec.shape[0], length)
    return dt.mul(summed, dt.Tensor(1.0 / norm))


def composed_spectral_shape(spec, gain):
    """Scale ``(T, 2, B)`` real/imag planes by a per-frame, per-bin real gain."""
    gain = dt.as_tensor(gain)
    t, bins = gain.shape
    return dt.mul(spec, dt.reshape(gain, (t, 1, bins)))


def composed_render(spec_h, spec_n, sp, ap, cfg):
    """Reference ``render`` as a graph of tensor ops.

    The form the library's one-node shaped inverse replaced: ``sqrt``/
    ``sub``/``mul`` gains, each complex spectrum shaped as planes, an
    ``add`` and :func:`composed_istft`.  Its output and its ``sp``/``ap``
    gradients are the bits the fused node must reproduce.
    """
    root = dt.sqrt(sp)
    gain_h = dt.mul(cfg.gain_harmonic, dt.mul(dt.sub(1.0, ap), root))
    gain_n = dt.mul(cfg.gain_noise, dt.mul(ap, root))
    mix = dt.add(composed_spectral_shape(dt.Tensor(dt._to_planes(spec_h)), gain_h),
                 composed_spectral_shape(dt.Tensor(dt._to_planes(spec_n)), gain_n))
    return composed_istft(mix, cfg.fft_size, cfg.hop, spec_h.shape[0] * cfg.hop)


def composed_transform(x, sp_src, sp_tgt, cfg, floor=1e-10, lo=1e-6, hi=1e6):
    """Reference ``transform_formants`` as a graph of tensor ops: the clipped
    envelope ratio's ``sqrt`` shapes ``stft(x)``, then :func:`composed_istft`."""
    ratio = dt.clamp(dt.div(dt.clamp_min(sp_tgt, floor), dt.clamp_min(sp_src, floor)),
                     lo, hi)
    shaped = composed_spectral_shape(sy.stft(x, cfg.fft_size, cfg.hop), dt.sqrt(ratio))
    return composed_istft(shaped, cfg.fft_size, cfg.hop, len(x))


# KSDATAFORMAT_SUBTYPE_PCM / _IEEE_FLOAT after the format code (RFC 2361)
WAV_GUID_TAIL = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"


def wav_chunk(tag: bytes, body: bytes) -> bytes:
    """One RIFF chunk; an odd-sized body gets its pad byte."""
    return tag + struct.pack("<I", len(body)) + body + b"\x00" * (len(body) & 1)


def wav_fmt(code, bits, rate=8000, channels=1, extensible_code=None) -> bytes:
    """A ``fmt `` chunk body: 16 bytes, or 40 for WAVE_FORMAT_EXTENSIBLE."""
    block = channels * bits // 8
    body = struct.pack("<HHIIHH", code, channels, rate, rate * block, block, bits)
    if extensible_code is not None:
        body += struct.pack("<HHI", 22, bits, 0x4) + \
            struct.pack("<I", extensible_code) + WAV_GUID_TAIL
    return body


def wav_file(*chunks: bytes, riff_size=None) -> bytes:
    """RIFF/WAVE around the given chunks; ``riff_size`` overrides the size field."""
    body = b"WAVE" + b"".join(chunks)
    return b"RIFF" + struct.pack("<I", len(body) if riff_size is None else riff_size) + body
