"""Shared oracles for the test suite: finite differences and synthetic data."""

import hashlib
import math
import struct

import numpy as np

from diffworld import fit as fi
from diffworld import melcodec as mc
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


def scalar_noise(n_samples, seed):
    """Reference noise, one sample at a time in Python integers and ``math``:
    the key is SplitMix64's mix of the seed, pair ``k`` the mix of ``key + (k +
    1) * golden`` modulo 2**64, and Box-Muller makes samples ``2k`` and ``2k +
    1`` from its high and low 32 bits."""
    golden, wrap = 0x9E3779B97F4A7C15, (1 << 64) - 1

    def mix(z):
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & wrap
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB & wrap
        return z ^ (z >> 31)

    key, out = mix(seed), []
    for k in range((n_samples + 1) // 2):
        bits = mix((key + (k + 1) * golden) & wrap)
        radius = math.sqrt(-2.0 * math.log1p(-(bits >> 32) * 2.0 ** -32))
        angle = (bits & 0xFFFFFFFF) * (2.0 * math.pi * 2.0 ** -32)
        out += [radius * math.cos(angle), radius * math.sin(angle)]
    return np.array(out[:n_samples])


def indexed_interpolate_f0(f0, hop):
    """Reference ``interpolate_f0``: every sample gathers its two frames
    through whole-clip index arrays, as the library did before it built the
    contour on a ``(frames, hop)`` grid.  Its bits are the ones to match."""
    f0 = np.asarray(f0, dtype=np.float64)
    n_frames = f0.shape[0]
    t = np.arange(n_frames * hop)
    left = np.minimum(t // hop, n_frames - 1)
    right = np.minimum(left + 1, n_frames - 1)
    frac = np.where(right > left, (t - left * hop) / hop, 0.0)
    f_left, f_right = f0[left], f0[right]
    v_left, v_right = f_left > 0, f_right > 0
    freq = np.where(v_left & v_right, (1.0 - frac) * f_left + frac * f_right,
                    np.where(v_left, f_left, f_right))
    mask = np.where(v_left & v_right, 1.0,
                    np.where(v_left, 1.0 - frac,
                             np.where(v_right, frac, 0.0)))
    return freq, mask


def whole_clip_pulse_train(f0_audio, mask, cfg):
    """Reference ``pulse_train``: the closed form over the whole clip at once,
    as the library computed it before it worked in chunks of samples.  Its
    bits are the ones to match."""
    f0_audio = np.asarray(f0_audio, dtype=np.float64)
    mask = np.asarray(mask, dtype=np.float64)
    fs = float(cfg.sample_rate)
    cycles = np.cumsum(f0_audio) / fs
    phi = 2.0 * np.pi * (cycles - np.floor(cycles + 0.5))
    k = np.where(f0_audio > 0, np.ceil(fs / 2.0 / np.maximum(f0_audio, 1e-12)) - 1.0, 0.0)
    k = np.clip(k, 0, cfg.harmonic_count)
    amp = np.where(k > 0, np.sqrt(2.0 * f0_audio / (np.maximum(k, 1.0) * fs)), 0.0) * mask
    half = np.sin(0.5 * phi)
    singular = np.abs(half) < 1e-150
    dirichlet = (np.sin(0.5 * k * phi) * np.sin(0.5 * (k + 1.0) * phi)
                 / np.where(singular, 1.0, half))
    return np.where(singular, 0.5 * k * (k + 1.0) * phi, dirichlet) * amp


def padded_spectrum(x, fft_size, hop, first, stop):
    """Reference ``synth._spectrum`` of frames ``first..stop``: the frames are
    copied into one zero-padded buffer, then windowed and transformed, as the
    library did for every block before it read interior frames in place."""
    total = (stop - first - 1) * hop + fft_size
    start = first * hop - fft_size // 2
    lo, hi = max(0, -start), max(0, min(total, len(x) - start))
    padded = np.zeros(total)
    padded[lo:hi] = x[start + lo: start + hi]
    frames = np.lib.stride_tricks.sliding_window_view(padded, fft_size)[::hop]
    return np.fft.rfft(frames[:stop - first] * sy.hann_window(fft_size), axis=-1)


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


def per_frame_scale_value(x, y, window, floor=1e-7):
    """Reference value of a scale term in plain numpy, over every frame at
    once: ``|d|`` of each frame summed along its bins, then the per-frame
    sums of each L1 term summed, each divided by the element count.  These
    are the sums the library makes, and their bits are the ones to match."""
    hop = window // 4
    n_frames = -(-len(y) // hop)

    def magnitude(s):
        spec = padded_spectrum(np.asarray(s, dtype=float), window, hop, 0, n_frames)
        return np.sqrt(spec.real * spec.real + spec.imag * spec.imag)

    mag_x, mag_y = magnitude(x), magnitude(y)
    n = float(mag_x.size)
    log_x = np.log(np.maximum(mag_x, floor))
    log_y = np.log(np.maximum(mag_y, floor))
    linear = np.sum(np.abs(mag_x - mag_y).sum(axis=1))
    logterm = np.sum(np.abs(log_x - log_y).sum(axis=1))
    return linear / n + logterm / n


def per_frame_msl_value(x, y, scales):
    """Reference spectral loss value: :func:`per_frame_scale_value` at every
    scale, added in scale order from 0, as :func:`losses.msl` adds them."""
    total = 0.0
    for s in range(1, scales + 1):
        total = total + per_frame_scale_value(x, y, 2 ** (5 + s))
    return total


def composed_msl(x, y, scales):
    """Reference spectral loss: :func:`composed_scale_loss` at every scale,
    summed by ``add`` in scale order, so that ``backward`` sums the scales'
    gradients from the last to the first."""
    total = dt.Tensor(0.0)
    for s in range(1, scales + 1):
        total = dt.add(total, composed_scale_loss(x, y, 2 ** (5 + s)))
    return total


def fit_digest(problem, steps, learning_rate=0.03, **options):
    """SHA-256 of a fit's loss trace and fitted ``log_mel`` and ``coded_ap``.

    ``problem`` is ``(target, f0, synth_cfg)``; ``options`` go to ``fit``
    (``n_mels``, ``ap_bands``, ...).  Two fits with the same digest did the
    same arithmetic bit for bit, so a change that must not move a fit's bits
    compares digests before and after.  They do not depend on OpenBLAS's
    thread count: every product runs in tiles that stay on one thread.
    """
    target, f0, synth_cfg = problem
    fitted, trace = fi.fit(target, f0, synth_cfg=synth_cfg, **options,
                           cfg=fi.FitConfig(steps=steps, learning_rate=learning_rate))
    return hashlib.sha256(trace.tobytes() + fitted.log_mel.tobytes()
                          + fitted.coded_ap.tobytes()).hexdigest()


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


def composed_decode(f0, log_mel, coded_ap, basis):
    """Reference ``melcodec.decode`` as a graph of tensor ops.

    The form the library's two decode nodes replaced: ``pow``, ``sub``,
    ``matmul``, ``clamp_min`` and ``mul`` make ``sp``; ``matmul``, ``clamp``,
    ``mul`` by the voiced mask and ``add`` make ``ap``.  Its outputs and its
    ``log_mel``/``coded_ap`` gradients are the bits the fused nodes must
    reproduce.
    """
    amplitude = dt.sub(dt.pow(10.0, log_mel), basis.epsilon)
    root = dt.clamp_min(dt.matmul(amplitude, dt.Tensor(basis.pinv.T)), 0.0)
    coded_ap = dt.as_tensor(coded_ap)
    resample = mc._resample_matrix(coded_ap.shape[-1], basis.n_bins)
    ap = dt.clamp(dt.matmul(coded_ap, dt.Tensor(resample.T)), 0.0, 1.0)
    voiced = (np.asarray(f0) > 0).astype(np.float64)[:, None]
    return dt.mul(root, root), dt.add(dt.mul(ap, voiced), 1.0 - voiced)


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


def overlap_sum_window_norm(fft_size, hop, n_frames, length):
    """The inverse's window norm as one overlap-sum over every frame: the
    reference that ``synth._window_norm``'s edges-and-period form must match."""
    win_sq = np.broadcast_to(sy.hann_window(fft_size) ** 2, (n_frames, fft_size))
    buf, norm = sy._overlap_buffer(fft_size, hop, n_frames, length)
    dt._overlap_into(buf, win_sq, hop)
    return np.where(norm > 1e-12, norm, 1.0)
