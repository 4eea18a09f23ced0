"""Differentiable harmonic-plus-noise synthesizer over WORLD-style features.

The harmonic branch drives a band-limited pulse train, a Dirichlet-kernel
closed form that costs O(samples) (:func:`pulse_train`), through a per-frame
spectral gain ``(1 - ap) * sqrt(sp)`` in the STFT domain; the noise branch
shapes seeded white Gaussian noise (:func:`noise_excitation`) by ``ap *
sqrt(sp)``.  Gradients flow into ``sp`` and ``ap`` (and through the feature
codec into their compressed forms); the pitch contour is a deterministic
input and carries no gradient.

Synthesis is one pass over blocks of frames (:func:`_shaped_inverse`).
Each block takes the spectra of its frames from each excitation, scales
them by the gains ``g_h * (1 - ap) * sqrt(sp)`` and ``g_n * ap * sqrt(sp)``,
sums them, inverts them with ``irfft`` and overlap-adds the windowed frames
into the output; the inverse is linear, so this equals the sum of two
separately inverted branches up to rounding.  A block's spectra come from a
complex spectrum computed once, or from the excitation signal itself, whose
frames are read in place.
:func:`excitation_spectra` computes the complex STFTs of the pulse train and
of the noise, which depend only on the pitch contour and the seed, so a
caller that re-renders the same contour (``fit``, once per step) computes
them once and passes them to :func:`render`.  :func:`synthesize` passes the
signals.  Every block makes its own rows of the gains from rows of ``sp``
and ``ap``, so a synthesis holds no spectrum and no gain of the whole clip.
A tracked one is one graph node on ``sp`` and ``ap``, which holds nothing
else: its backward pass runs over the same blocks and makes each block's
gains again from their rows.  Nor do the excitations make whole-clip
temporaries: the pitch contour is built on a ``(frames, hop)`` grid, and the
pulse train and the noise in chunks of samples.  What is left at the peak is
the two excitations and the inverse's buffers.

Two optional stages refine the raw output ``y``: a pluggable residual
post-processor, ``y + postnet(y)``, and then a trainable causal FIR with a
zero leading tap, ``gain_dry * y + gain_fir * fir(y)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from . import melcodec
from . import tensor as dt
from .errors import (DomainError, ShapeError, ValidationError, check_framing, check_integer,
                     check_real, first_index, real_array)
from .features import (CompressedFeatures, check_f0, _check_finite, _check_sp, _check_unit,
                       validate_features)

F_MIN = 71.0  # Hz, the lowest fundamental whose harmonics must reach Nyquist
# samples of frames per block of every block loop, tracked or not (the loss's
# value and gradient, the shaped inverse and its adjoint; see _blocks),
# and samples per chunk of the pulse train: cli loss runs scale terms on
# worker threads, and glibc keeps whatever a thread's heap grew to below its
# trim threshold, so the blocks stay small
_VALUE_BLOCK = 1 << 15


def _check_seed(seed, where: str) -> None:
    """Raise unless ``seed`` is an integer in [0, 2**64), the noise's seeds."""
    check_integer(seed, where, 0)
    if seed >= 2 ** 64:
        raise ValidationError(f"{where} must be below 2**64, got {seed}")


@dataclass(frozen=True)
class SynthConfig:
    """Clock, stage gains and noise seed; defaults target 22.05 kHz speech/singing."""

    sample_rate: int = 22050
    fft_size: int = 1024
    hop: int | None = None            # defaults to fft_size // 4
    gain_harmonic: float = 1.0
    gain_noise: float = 1.0
    gain_dry: float = 1.0             # dry path around the FIR
    gain_fir: float = 1.0             # FIR output
    noise_seed: int = 0

    def __post_init__(self):
        check_framing("SynthConfig.", sample_rate=self.sample_rate)
        check_framing(fft_size=self.fft_size)
        if self.hop is None:
            object.__setattr__(self, "hop", self.fft_size // 4)
        check_framing(hop=self.hop)
        if self.fft_size % self.hop != 0:
            raise ValidationError(f"hop {self.hop} must divide fft_size {self.fft_size}")
        for name in ("gain_harmonic", "gain_noise", "gain_dry", "gain_fir"):
            check_real(getattr(self, name), f"SynthConfig.{name}")
        _check_seed(self.noise_seed, "SynthConfig.noise_seed")

    @property
    def harmonic_count(self) -> int:
        """Cap on the per-sample harmonic count K(t): ``floor(nyquist / F_MIN)``."""
        return int(self.sample_rate / 2.0 / F_MIN)

    @classmethod
    def for_features(cls, feats, **overrides) -> "SynthConfig":
        return cls(sample_rate=feats.sample_rate, fft_size=feats.fft_size,
                   hop=feats.hop, **overrides)


class FirPostFilter:
    """Trainable causal FIR taps with the leading tap structurally zero.

    Only ``taps[1:]`` are free parameters; index 0 does not exist as a degree
    of freedom, so the filter can never leak an identity path.
    """

    def __init__(self, taps: np.ndarray):
        taps = real_array(taps, "taps")
        if taps.ndim != 1 or taps.shape[0] < 2:
            raise ValidationError("FIR taps must be 1-D with length >= 2")
        if taps[0] != 0.0:
            raise ValidationError("FIR tap 0 must be exactly 0 (causal, "
                                  "no instantaneous path)")
        if not np.all(np.isfinite(taps)):
            raise ValidationError(
                f"FIR tap {first_index(~np.isfinite(taps))[0]} is not finite")
        self.free = taps[1:].copy()

    @property
    def taps(self) -> np.ndarray:
        return np.concatenate(([0.0], self.free))

    def apply(self, y, cfg: SynthConfig, free_taps=None) -> dt.Tensor:
        """The FIR stage, ``gain_dry * y + gain_fir * causal_fir(y, free taps)``.

        Differentiable in ``y`` and in ``free_taps``, which stands in for
        ``self.free`` (a tracked tensor when the taps are being fitted).
        """
        taps = self.free if free_taps is None else free_taps
        dry = dt.mul(cfg.gain_dry, y)
        return dt.add(dry, dt.mul(cfg.gain_fir, dt.causal_fir(y, taps)))


def check_clock(name: str, feats, cfg: SynthConfig) -> None:
    """Raise unless ``feats`` runs on ``cfg``'s sample rate, fft size and hop."""
    got, want = ((x.sample_rate, x.fft_size, x.hop) for x in (feats, cfg))
    if got != want:
        raise ValidationError(f"{name} metadata (rate/fft/hop) {got} does not match "
                              f"the synth config's {want}; resampling is out of scope")


# ---------------------------------------------------------------------------
# pitch contour and excitation
# ---------------------------------------------------------------------------

def interpolate_f0(f0: np.ndarray, hop: int) -> tuple[np.ndarray, np.ndarray]:
    """Frame-rate f0 -> ``T * hop``-sample contour plus voicing mask.

    Frame ``t`` is centered on sample ``t * hop``.  Between two voiced frames
    the frequency is interpolated linearly; across a voiced/unvoiced boundary
    it is held from the voiced side while the mask ramps linearly over the
    hop, reaching zero at the unvoiced frame's center.  The mask is binary
    away from boundaries, and the last frame holds its own value.  (The
    one-hop amplitude ramp is an anti-click measure, not part of the
    synthesis contract.)

    Both are built on a ``(T, hop)`` grid, row ``t`` being the hop that
    starts at frame ``t``'s center: each row is its frame's case written
    over the hop's fractions ``s / hop``, so no per-sample index exists.
    """
    check_framing("interpolate_f0: ", hop=hop)
    f0 = real_array(f0, "f0")
    if f0.ndim != 1 or f0.shape[0] == 0:
        raise ValidationError("f0 must be 1-D with at least one frame")
    check_f0(f0)
    frac = np.arange(hop) / hop
    f_left, f_right = f0[:, None], np.append(f0[1:], f0[-1])[:, None]
    v_left, v_right = f_left > 0, f_right > 0
    both = v_left & v_right

    freq = np.empty((f0.shape[0], hop))
    mask = np.empty_like(freq)
    # between voiced frames, (1 - frac) * f_left + frac * f_right; the mask
    # holds the second term until it is overwritten below
    np.multiply(1.0 - frac, f_left, out=freq)
    freq += np.multiply(frac, f_right, out=mask)
    np.copyto(freq, np.where(v_left, f_left, f_right), where=~both)
    freq[-1] = f0[-1]
    np.copyto(mask, 1.0, where=both)
    np.copyto(mask, 1.0 - frac, where=v_left & ~v_right)
    np.copyto(mask, frac, where=v_right & ~v_left)
    np.copyto(mask, 0.0, where=~(v_left | v_right))
    return freq.reshape(-1), mask.reshape(-1)


def pulse_train(f0_audio: np.ndarray, mask: np.ndarray, cfg: SynthConfig) -> np.ndarray:
    """Alias-free pulse train: a band-limited impulse train (BLIT).

    Sample ``t`` is ``amp(t) * sum_{k=1..K(t)} sin(k phi)``, where ``phi``
    is the fundamental's cumulative phase wrapped into ``[-pi, pi)`` and
    ``K(t)`` counts the harmonics strictly below Nyquist, at most
    ``cfg.harmonic_count``.  The sum takes the Dirichlet closed form
    ``sin(K phi / 2) sin((K + 1) phi / 2) / sin(phi / 2)`` (Stilson & Smith,
    ICMC 1996), so the cost is O(samples) whatever ``K``.  Where
    ``|sin(phi / 2)| < 1e-150``, at the removable singularity ``phi = 0``,
    it takes the limit ``K (K + 1) / 2 * phi``; above that bound the
    numerator stays in the normal float range.  ``amp`` normalizes each
    pulse period to unit energy (K sinusoids of amplitude A have mean power
    K * A^2 / 2 over the fs / f0 samples of one period).  Deterministic;
    carries no gradient.

    The phase is one ``cumsum`` over the whole contour, since every sample's
    phase sums all the samples before it.  The rest is per sample, so it
    runs in chunks of ``_VALUE_BLOCK`` samples, each written over its own
    span of the ``cumsum``'s buffer, which becomes the output: only a
    chunk's temporaries exist besides it.
    """
    f0_audio, mask = real_array(f0_audio, "f0_audio"), real_array(mask, "mask")
    if f0_audio.ndim != 1 or mask.shape != f0_audio.shape:
        raise ShapeError(f"pulse_train: f0_audio {f0_audio.shape} and mask {mask.shape} "
                         "must be 1-D and of one length")
    fs = float(cfg.sample_rate)
    out = np.cumsum(f0_audio)
    for lo in range(0, out.shape[0], _VALUE_BLOCK):
        span = slice(lo, lo + _VALUE_BLOCK)
        f0_span = f0_audio[span]
        cycles = out[span] / fs
        phi = 2.0 * np.pi * (cycles - np.floor(cycles + 0.5))

        # harmonics below Nyquist at this instant (strict: k * f0 >= nyquist is out)
        k = np.where(f0_span > 0, np.ceil(fs / 2.0 / np.maximum(f0_span, 1e-12)) - 1.0, 0.0)
        k = np.clip(k, 0, cfg.harmonic_count)
        amp = np.where(k > 0, np.sqrt(2.0 * f0_span / (np.maximum(k, 1.0) * fs)),
                       0.0) * mask[span]

        half = np.sin(0.5 * phi)
        singular = np.abs(half) < 1e-150
        dirichlet = (np.sin(0.5 * k * phi) * np.sin(0.5 * (k + 1.0) * phi)
                     / np.where(singular, 1.0, half))
        np.multiply(np.where(singular, 0.5 * k * (k + 1.0) * phi, dirichlet), amp,
                    out=out[span])
    return out


# SplitMix64 (Steele, Lea & Flood, OOPSLA 2014): the Weyl increment of its
# counter; _splitmix holds the multipliers of its output mix
_GOLDEN = 0x9E3779B97F4A7C15


def _splitmix(z: np.ndarray) -> np.ndarray:
    """SplitMix64's output mix of a ``uint64`` array, in place, modulo 2**64."""
    z ^= z >> 30
    z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27
    z *= 0x94D049BB133111EB
    z ^= z >> 31
    return z


def _noise_key(seed: int) -> np.ndarray:
    """The key of ``seed``'s noise: a one-element array, never a scalar, since
    numpy warns when a ``uint64`` scalar wraps and not when an array does."""
    return _splitmix(np.array([seed], dtype=np.uint64))


def _noise_span(key: np.ndarray, lo: int, out: np.ndarray) -> None:
    """Samples ``lo..lo + len(out)`` of the noise of ``key``, written to ``out``.

    Pair ``k`` is the mix of the counter ``key + (k + 1) * _GOLDEN``.  Box-Muller
    makes its samples ``2k`` and ``2k + 1``, ``r cos(theta)`` and ``r
    sin(theta)``: the high 32 bits give ``u`` in [0, 1) and the radius ``r =
    sqrt(-2 log1p(-u))``, at most 6.7, and the low 32 bits the angle ``theta``
    in [0, 2 pi).  A span that starts or ends inside a pair draws that pair
    whole, in a buffer of its own.
    """
    n = out.shape[0]
    first, stop = lo // 2, (lo + n + 1) // 2
    aligned = lo % 2 == 0 and n % 2 == 0
    pairs = out.reshape(-1, 2) if aligned else np.empty((stop - first, 2))
    bits = np.arange(first + 1, stop + 1, dtype=np.uint64)
    bits *= _GOLDEN
    bits += key
    _splitmix(bits)
    radius = (bits >> 32).astype(np.float64)
    radius *= -(2.0 ** -32)
    np.log1p(radius, out=radius)
    radius *= -2.0
    np.sqrt(radius, out=radius)
    bits &= 0xFFFFFFFF
    angle = bits.astype(np.float64)
    angle *= 2.0 * math.pi * 2.0 ** -32
    np.cos(angle, out=pairs[:, 0])
    np.sin(angle, out=pairs[:, 1])
    pairs *= radius[:, None]
    if not aligned:
        out[:] = pairs.reshape(-1)[lo % 2: lo % 2 + n]


def noise_excitation(n_samples: int, seed: int) -> np.ndarray:
    """Standard-normal excitation of ``n_samples`` samples from ``seed``.

    A counter-based generator, numpy alone: sample ``i`` is a function of
    ``seed`` and ``i`` only (:func:`_noise_span`), so a shorter call gives a
    prefix of a longer one and any span can be drawn on its own.  It runs in
    chunks of ``_VALUE_BLOCK`` samples, so only a chunk's temporaries exist
    besides the output.  The bits are fixed for a given numpy and CPU:
    ``log1p``, ``sin`` and ``cos`` may be dispatched differently elsewhere.
    ``seed`` is an integer in [0, 2**64).
    """
    check_integer(n_samples, "noise_excitation: n_samples", 0)
    _check_seed(seed, "noise_excitation: seed")
    key = _noise_key(seed)
    out = np.empty(n_samples)
    for lo in range(0, n_samples, _VALUE_BLOCK):
        _noise_span(key, lo, out[lo: lo + _VALUE_BLOCK])
    return out


# ---------------------------------------------------------------------------
# STFT / filtering
# ---------------------------------------------------------------------------

_HANN: dict[int, np.ndarray] = {}


def hann_window(n: int) -> np.ndarray:
    """Periodic Hann window of ``n`` samples, cached per size and read-only."""
    win = _HANN.get(n)
    if win is None:
        win = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)
        win.flags.writeable = False
        _HANN[n] = win
    return win


def n_frames_for(n_samples: int, hop: int) -> int:
    """The one framing rule: ``n`` samples span ``ceil(n / hop)`` frames."""
    return -(-n_samples // hop)


def _block_frames(fft_size: int) -> int:
    """Frames per block of a block loop at ``fft_size``: ``_VALUE_BLOCK //
    fft_size``, and at least one."""
    return max(1, _VALUE_BLOCK // fft_size)


def _blocks(n_frames: int, fft_size: int) -> Iterator[tuple[int, int]]:
    """The one block loop: ``(first, stop)`` of each block of ``n_frames``
    frames at ``fft_size``, :func:`_block_frames` frames to a block."""
    per = _block_frames(fft_size)
    for first in range(0, n_frames, per):
        yield first, min(n_frames, first + per)


def _frame_span(length: int, fft_size: int, hop: int, first: int,
                stop: int) -> tuple[int, int, int, int]:
    """Frames ``first..stop`` of a ``length``-sample signal, padded: their
    length ``total``, the sample ``start`` that index 0 holds, and the span
    ``[lo, hi)`` that the signal fills."""
    total = (stop - first - 1) * hop + fft_size
    start = first * hop - fft_size // 2
    return total, start, max(0, -start), max(0, min(total, length - start))


def _check_signal(x: np.ndarray, fft_size: int, hop: int, name: str = "x") -> None:
    """Raise unless the signal ``name`` is 1-D and not empty, and the framing fits."""
    check_framing("stft: ", fft_size=fft_size, hop=hop, transform=True)
    if x.ndim != 1:
        raise ShapeError(f"stft: expected a 1-D signal {name}, got shape {x.shape}")
    if x.size == 0:
        raise ValidationError(f"stft: the signal is empty; {name} needs at least one "
                              "sample for a spectrum")


def _spectrum(x: np.ndarray, fft_size: int, hop: int, first: int, stop: int,
              out: np.ndarray | None = None) -> np.ndarray:
    """The one STFT kernel: the complex spectra of frames ``first..stop``.

    Frame ``t`` covers samples ``[t * hop - fft_size // 2, t * hop + fft_size
    // 2)`` of ``x``, reading zeros outside it, and is Hann-windowed and
    transformed.  ``x`` has ``n_frames_for(len(x), hop)`` frames, and
    :func:`_spectrogram` takes them all.  Frames that lie inside ``x`` are
    read in place, through a read-only strided view; only a run of frames
    that reaches past either end is copied, into a zero-padded buffer.  Only
    the ``(stop - first, fft_size // 2 + 1)`` spectrum outlives the call,
    written into ``out`` when one is given.  The caller checks ``x`` once.
    """
    # a cache entry: made before the buffers, so that a worker thread's heap
    # keeps no long-lived block above them
    window = hann_window(fft_size)
    total, start, lo, hi = _frame_span(x.shape[0], fft_size, hop, first, stop)
    if lo == 0 and hi == total:
        samples = x[start: start + total]
    else:
        # not np.zeros: calloc hands out fresh pages, which fault on every call
        samples = np.empty(total)
        samples[:lo] = 0.0
        samples[lo:hi] = x[start + lo: start + hi]
        samples[hi:] = 0.0
    frames = dt._frames_view(samples, fft_size, hop, stop - first) * window
    del samples  # a padded copy goes before the transform allocates
    return np.fft.rfft(frames, axis=-1, out=out)


def _spectrogram(x: np.ndarray, fft_size: int, hop: int,
                 each: Callable[[np.ndarray, np.ndarray], object] | None = None
                 ) -> np.ndarray:
    """:func:`_spectrum` of every frame of ``x``, made :func:`_block_frames`
    at a time into one array, so that no frames of the whole signal exist.
    ``rfft`` transforms each frame on its own, so the bits are those of one
    call over every frame.  Given ``each``, the array is real and
    ``each(spectrum, rows)`` writes each block's spectrum into its rows."""
    _check_signal(x, fft_size, hop)
    n_frames = n_frames_for(x.shape[0], hop)
    whole = np.empty((n_frames, fft_size // 2 + 1), complex if each is None else float)
    for first, stop in _blocks(n_frames, fft_size):
        if each is None:
            _spectrum(x, fft_size, hop, first, stop, out=whole[first:stop])
        else:
            each(_spectrum(x, fft_size, hop, first, stop), whole[first:stop])
    return whole


def _overlap_buffer(fft_size: int, hop: int, n_frames: int,
                    length: int) -> tuple[np.ndarray, np.ndarray]:
    """The zeroed buffer that ``n_frames`` frames overlap-add into, index 0
    being sample ``-fft_size // 2``, and its view of samples ``0..length``.

    It spans every frame and the ``length`` samples, whichever reach
    further.  An inverse adds its frames into the buffer and reads its output
    from the view; its adjoint writes into the view and reads frames from the
    buffer, and :func:`_spectrum_adjoint`'s frames leave a gradient there.
    """
    buf = np.zeros(max((n_frames - 1) * hop + -(-fft_size // hop) * hop,
                       fft_size // 2 + length))
    return buf, buf[fft_size // 2: fft_size // 2 + length]


def _spectrum_adjoint(grad_spec: np.ndarray, fft_size: int, hop: int, buf: np.ndarray,
                      first: int = 0) -> None:
    """Adjoint of :func:`_spectrum` on frames ``first..first + len(grad_spec)``.

    Maps the gradient of their spectra, whose interior bins the caller has
    already halved, to the gradient of the samples they read: the
    half-spectrum ``irfft``, the window, and the frames overlap-added into
    ``buf`` where they were read, index 0 being sample ``-fft_size // 2``.
    ``irfft`` counts each interior bin twice and ``rfft``'s adjoint once;
    the halving is left to the caller so that it can fold it into the pass
    that makes ``grad_spec``.  Blocks added in frame order give each sample
    its terms in the order that one pass over all frames would.  For a
    ``length``-sample signal, ``buf`` is :func:`_overlap_buffer`'s, whose
    view ends as the signal's gradient.
    """
    frames = np.fft.irfft(grad_spec, n=fft_size, axis=-1, norm="forward")
    frames *= hann_window(fft_size)
    dt._overlap_into(buf, frames, hop, first)


def stft(x, fft_size: int, hop: int) -> dt.Tensor:
    """Hann-windowed STFT, frames centered at ``t * hop``.

    Returns a ``(T, 2, fft_size // 2 + 1)`` tensor of real/imag planes with
    ``T = n_frames_for(len(x), hop)``; one graph node when ``x`` is tracked.
    """
    x = dt.as_tensor(x, "x")
    out = dt.Tensor(dt._to_planes(_spectrogram(x.data, fft_size, hop)))
    length = x.shape[0]

    def bwd(g):
        grad_spec = dt._to_complex(g)
        grad_spec[:, 1:-1] *= 0.5
        buf, grad = _overlap_buffer(fft_size, hop, g.shape[0], length)
        _spectrum_adjoint(grad_spec, fft_size, hop, buf)
        return (grad.copy(),)

    return dt._record((x,), out, bwd)


def _window_norm(fft_size: int, hop: int, n_frames: int, length: int) -> np.ndarray:
    """The overlap of the squared windows on the ``length`` output samples of
    an inverse, 1 where it vanishes.

    In blocks of ``hop`` samples, with ``k = ceil(fft_size / hop)``: block
    ``b`` sums the terms of frames ``b - k + 1..b`` in frame order, so every
    block from ``k - 1`` to ``n_frames - 1`` sums the same ``k`` terms in the
    same order.  Only ``min(n_frames, k)`` frames are overlap-summed, which
    gives both edges and one interior block; that block is tiled in between.
    """
    k = -(-fft_size // hop)
    summed = min(n_frames, k)
    win_sq = np.broadcast_to(hann_window(fft_size) ** 2, (summed, fft_size))
    head = dt._overlap_sum(win_sq, hop, (summed + k - 1) * hop)
    head = np.where(head > 1e-12, head, 1.0).reshape(summed + k - 1, hop)
    # the blocks that output samples [fft_size // 2, fft_size // 2 + length) lie in
    first, stop = fft_size // 2 // hop, -(-(fft_size // 2 + length) // hop)
    norm = np.ones((stop - first, hop))

    def put(block: int, rows: np.ndarray) -> None:
        lo, hi = max(block, first), min(block + rows.shape[0], stop)
        if lo < hi:
            norm[lo - first: hi - first] = rows[lo - block: hi - block]

    if n_frames > k:
        put(0, head[:k - 1])
        put(k - 1, np.broadcast_to(head[k - 1], (n_frames - k + 1, hop)))
        put(n_frames, head[k:])
    else:
        put(0, head)
    offset = fft_size // 2 - first * hop
    return norm.reshape(-1)[offset: offset + length]


def _inverse(rows: Callable[[int, int], np.ndarray], n_frames: int, fft_size: int,
             hop: int, length: int) -> np.ndarray:
    """The one inverse STFT kernel: windowed ``irfft`` frames, overlap-added
    and divided by the overlap of the squared windows.

    ``rows(first, stop)`` gives the complex spectra of frames ``first..stop``.
    They are inverted :func:`_block_frames` at a time and added, in frame
    order, into one buffer, so each sample sums its terms as one pass over
    all frames would.  Returns ``length`` fresh samples; frame ``t`` is centered on
    sample ``t * hop``.
    """
    window = hann_window(fft_size)
    buf, samples = _overlap_buffer(fft_size, hop, n_frames, length)
    for first, stop in _blocks(n_frames, fft_size):
        frames = np.fft.irfft(rows(first, stop), n=fft_size, axis=-1)
        frames *= window
        dt._overlap_into(buf, frames, hop, first)
    # the norm's buffer takes its reciprocal and then the output
    out = _window_norm(fft_size, hop, n_frames, length)
    np.divide(1.0, out, out=out)
    return np.multiply(samples, out, out=out)


def _inverse_adjoint(grad: np.ndarray, n_frames: int, fft_size: int, hop: int,
                     length: int) -> Iterator[tuple[int, int, np.ndarray]]:
    """Adjoint of :func:`_inverse`, a block of frames at a time: yields
    ``(first, stop, G)``, ``G`` being the gradient of the complex spectra of
    frames ``first..stop`` for the output gradient ``grad``.

    The normalization, once, then per block the frames that the overlap-add
    wrote, the window and ``irfft``'s adjoint.  Blocks are the forward
    pass's.
    """
    padded, samples = _overlap_buffer(fft_size, hop, n_frames, length)
    np.multiply(grad, 1.0 / _window_norm(fft_size, hop, n_frames, length), out=samples)
    window = hann_window(fft_size)
    for first, stop in _blocks(n_frames, fft_size):
        frames = dt._frames_view(padded[first * hop:], fft_size, hop, stop - first)
        yield first, stop, dt._irfft_adjoint(frames * window, fft_size)


def istft(spec, fft_size: int, hop: int, length: int) -> dt.Tensor:
    """Overlap-add inverse with window-squared normalization.

    Takes :func:`stft`'s ``(T, 2, fft_size // 2 + 1)`` planes; one graph node
    when ``spec`` is tracked.  Exact inverse of :func:`stft` (to rounding)
    wherever the squared windows overlap, which at 75% overlap is every
    output sample.
    """
    spec = dt.as_tensor(spec, "spec")
    check_framing("istft: ", fft_size=fft_size, hop=hop, length=length, transform=True)
    if spec.ndim != 3 or spec.shape[1:] != (2, fft_size // 2 + 1):
        raise ShapeError(f"istft: spec must be (T, 2, {fft_size // 2 + 1}) planes, "
                         f"got {spec.shape}")
    rows = dt._to_complex(spec.data)
    n_frames = rows.shape[0]
    out = dt.Tensor(_inverse(lambda first, stop: rows[first:stop], n_frames,
                             fft_size, hop, length))

    def bwd(g):
        planes = np.empty(spec.shape)
        for first, stop, grad in _inverse_adjoint(g, n_frames, fft_size, hop, length):
            planes[first:stop, 0] = grad.real
            planes[first:stop, 1] = grad.imag
        return (planes,)

    return dt._record((spec,), out, bwd)


def _shaped_inverse(sources, value: Callable[..., tuple[np.ndarray, ...]],
                    adjoint: Callable[..., tuple[np.ndarray, ...]], inputs,
                    fft_size: int, hop: int, length: int) -> dt.Tensor:
    """``istft(sum_i S_i * g_i)`` in one pass over blocks of frames.

    The real gains are a pair of numpy row functions of the inputs, each a
    ``(T, fft_size // 2 + 1)`` tensor keyed by the name of its argument:
    ``value(*rows)`` gives one block of gains per source from the same block
    of rows of every input, and ``adjoint(dgs, *rows)`` maps the gradients
    ``dgs`` of those gains to one gradient block per input.  Both are
    elementwise, so any run of rows of the inputs gives the same run of rows
    of their results.  Each source ``S_i`` is a complex spectrum of ``T``
    frames, or a signal of ``T`` frames whose rows :func:`_spectrum` computes
    as a block needs them; the caller has checked a signal.

    Every pass takes :func:`_block_frames` frames per block, tracked or not,
    and makes its gains per block, so no spectrum, frame or gain of the whole
    signal exists at once.  Tracked inputs make the result one graph node on
    the inputs, which holds nothing but them.  Its backward pass runs the
    adjoint of the inverse block by block: each block's spectrum gradient
    ``G`` gives that block's ``dg_i = Re(G) Re(S_i) + Im(G) Im(S_i)``, with a
    signal's spectra computed again and each ``Im(G) Im(S_i)`` made in one
    buffer per call.  ``G`` is freed before ``adjoint`` maps the ``dg_i``,
    which it owns and may overwrite, to the block's rows of the input
    gradients.  Each product and sum is the one that the
    gains' tensor ops, shaping, mixing and :func:`istft` as separate ops
    would make, and no sum crosses a block, so the bits match theirs.
    """
    names, inputs = list(inputs), [dt.as_tensor(x, name) for name, x in inputs.items()]
    n_frames, bins = inputs[0].shape[0], fft_size // 2 + 1
    for name, x in zip(names, inputs):
        if x.shape != (n_frames, bins):
            raise ShapeError(f"spectral gains must be ({n_frames}, {bins}), one row per "
                             f"frame and one column per bin, and so must their "
                             f"inputs; got {x.shape} for {name}")

    def source_rows(src: np.ndarray, first: int, stop: int) -> np.ndarray:
        return (src[first:stop] if np.iscomplexobj(src)
                else _spectrum(src, fft_size, hop, first, stop))

    def input_rows(first: int, stop: int) -> list[np.ndarray]:
        return [x.data[first:stop] for x in inputs]

    def rows(first: int, stop: int) -> np.ndarray:
        mix = np.empty((stop - first, bins), complex)
        part = np.empty((stop - first, bins))
        for i, (src, gain) in enumerate(zip(sources, value(*input_rows(first, stop)))):
            spec = source_rows(src, first, stop)
            for mixed, plane in ((mix.real, spec.real), (mix.imag, spec.imag)):
                if i == 0:
                    np.multiply(plane, gain, out=mixed)
                else:
                    mixed += np.multiply(plane, gain, out=part)
        return mix

    out = dt.Tensor(_inverse(rows, n_frames, fft_size, hop, length))

    def bwd(g):
        grads = [np.empty((n_frames, bins)) if x._tracked else None for x in inputs]
        part = np.empty((min(n_frames, _block_frames(fft_size)), bins))
        for first, stop, grad in _inverse_adjoint(g, n_frames, fft_size, hop, length):
            dgs = []
            for src in sources:
                spec = source_rows(src, first, stop)
                dg = grad.real * spec.real
                dg += np.multiply(grad.imag, spec.imag, out=part[:stop - first])
                dgs.append(dg)
            del grad, spec  # before adjoint makes its blocks
            for whole, block in zip(grads, adjoint(dgs, *input_rows(first, stop))):
                if whole is not None:
                    whole[first:stop] = block
        return tuple(grads)

    return dt._record(inputs, out, bwd)


def _check_feature_frames(name: str, arr, n_samples: int, hop: int) -> None:
    n_frames = n_frames_for(n_samples, hop)
    if arr.shape[0] != n_frames:
        raise ValidationError(
            f"{name} has {arr.shape[0]} frames but a {n_samples}-sample signal "
            f"at hop {hop} has {n_frames} (ceil(n / hop))")


# ---------------------------------------------------------------------------
# full synthesis
# ---------------------------------------------------------------------------

def _pulses(f0: np.ndarray, cfg: SynthConfig) -> np.ndarray:
    """The pulse train for a frame-rate f0 contour, ``T * hop`` samples; the
    contour is freed on return."""
    return pulse_train(*interpolate_f0(f0, cfg.hop), cfg)


def excitation_spectra(f0: np.ndarray, cfg: SynthConfig) -> tuple[np.ndarray, np.ndarray]:
    """STFTs of the pulse train and of the noise for a frame-rate f0 contour.

    Both are constants of the contour and ``cfg.noise_seed``, returned as
    complex ``(T, fft_size // 2 + 1)`` arrays for :func:`render`, each made a
    block of frames at a time (:func:`_spectrogram`).  The excitations span
    ``T * hop`` samples, and the pulse train is freed before the noise is
    drawn.
    """
    spec_h = _spectrogram(_pulses(f0, cfg), cfg.fft_size, cfg.hop)
    noise = noise_excitation(spec_h.shape[0] * cfg.hop, cfg.noise_seed)
    return spec_h, _spectrogram(noise, cfg.fft_size, cfg.hop)


def render(spec_h: np.ndarray, spec_n: np.ndarray, sp, ap, cfg: SynthConfig) -> dt.Tensor:
    """Shape both excitation spectra, mix them and invert them.

    Computes ``istft(g_h * (1 - ap) * sqrt(sp) * E_h + g_n * ap * sqrt(sp) *
    E_n)`` from :func:`excitation_spectra`'s complex ``(T, fft_size // 2 +
    1)`` arrays, ``T`` being ``sp``'s frame count; differentiable in ``sp``
    and ``ap``.  ``sp`` must be non-negative and ``ap`` must lie in [0, 1]
    (:func:`~diffworld.features.validate_features`).  Output length is ``T * hop``.
    """
    sp = dt.as_tensor(sp, "sp")
    want = (sp.shape[0], cfg.fft_size // 2 + 1)
    for arg, name, spec in (("spec_h", "pulse-train", spec_h), ("spec_n", "noise", spec_n)):
        if not (isinstance(spec, np.ndarray) and np.iscomplexobj(spec)
                and spec.shape == want):
            kind = spec.dtype if isinstance(spec, np.ndarray) else type(spec).__name__
            raise ValidationError(
                f"render: the {name} spectrum must be a complex {want} array, one "
                f"row per frame of sp; got {kind} of shape {np.shape(spec)} in {arg}")
    return _render((spec_h, spec_n), sp.shape[0], sp, ap, cfg)


def _render(sources, n_frames: int, sp, ap, cfg: SynthConfig) -> dt.Tensor:
    """:func:`render` from excitation spectra or signals of ``n_frames`` frames."""
    sp, ap = dt.as_tensor(sp, "sp"), dt.as_tensor(ap, "ap")
    n_samples = n_frames * cfg.hop
    _check_feature_frames("sp", sp, n_samples, cfg.hop)
    _check_feature_frames("ap", ap, n_samples, cfg.hop)
    _check_unit(ap.data, "ap", "bin")
    # checked here on the whole clip: the gains are made a block at a time
    _check_sp(sp.data, DomainError)

    gain_h, gain_n = cfg.gain_harmonic, cfg.gain_noise

    def value(sp, ap):
        root = np.sqrt(sp)
        return gain_h * ((1.0 - ap) * root), gain_n * (ap * root)

    def adjoint(dgs, sp, ap):
        # the composed graph's backward ops in its order: the two scalar gains,
        # ap * root, (1 - ap) * root, 1 - ap, and sqrt's subgradient; each
        # product and sum is theirs, made in place in the blocks it owns
        d_h, d_n = dgs
        d_h *= gain_h
        d_n *= gain_n
        root = np.sqrt(sp)
        d_ap = np.multiply(d_h, root)
        np.negative(d_ap, out=d_ap)
        d_root = np.multiply(d_n, root)
        d_ap += d_root  # d_n * root + (-(d_h * root))
        np.multiply(d_n, ap, out=d_root)
        d_h *= np.subtract(1.0, ap, out=d_n)  # d_n is spent
        d_root += d_h
        # d_root / (2 root) where root > 0, and 0 elsewhere; root is the denom
        positive = root > 0
        root *= 2.0
        np.divide(d_root, root, out=d_root, where=positive)
        np.copyto(d_root, 0.0, where=np.logical_not(positive, out=positive))
        return d_root, d_ap

    return _shaped_inverse(sources, value, adjoint, {"sp": sp, "ap": ap}, cfg.fft_size,
                           cfg.hop, n_samples)


def synthesize_components(f0: np.ndarray, sp, ap, cfg: SynthConfig) -> dt.Tensor:
    """Harmonic-plus-noise synthesis from frame-rate tensors.

    ``sp`` and ``ap`` may be tensors with gradients attached; ``f0`` is a
    plain contour.  ``sp`` must be finite, by the rule that
    :func:`~diffworld.features.validate_features` applies.  Output length is
    ``n_frames * hop``.
    """
    sp = dt.as_tensor(sp, "sp")
    _check_finite("sp", sp.data)
    e_h = _pulses(f0, cfg)
    _check_signal(e_h, cfg.fft_size, cfg.hop)  # a config's fft_size may not be a power of 2
    e_n = noise_excitation(e_h.shape[0], cfg.noise_seed)
    return _render((e_h, e_n), e_h.shape[0] // cfg.hop, sp, ap, cfg)


def synthesize(feats, cfg: SynthConfig | None = None,
               fir: FirPostFilter | None = None,
               postnet: Callable[[dt.Tensor], dt.Tensor] | None = None) -> dt.Tensor:
    """Synthesize audio from raw or compressed features.

    Both kinds pass through :func:`~diffworld.features.validate_features`
    first, as features read from a file do, so unvoiced frames of raw
    features get ``ap`` forced to 1; compressed inputs are then
    decompressed through the mel/aperiodicity codec.  ``postnet`` is an
    audio-in/audio-out processor built from tensor ops (gradients pass
    through) whose output, of its input's shape, is added to its input,
    ``y + postnet(y)``;
    ``fir`` then appends the trainable causal filter stage
    (:meth:`FirPostFilter.apply`).  Each post stage engages only when
    supplied.
    """
    feats = validate_features(feats)
    if cfg is None:
        cfg = SynthConfig.for_features(feats)
    check_clock("feats", feats, cfg)
    if isinstance(feats, CompressedFeatures):
        feats = melcodec.decompress(feats)

    y = synthesize_components(feats.f0, feats.sp, feats.ap, cfg)
    if postnet is not None:
        residual = dt.as_tensor(postnet(y))
        if residual.shape != y.shape:
            raise ShapeError(f"synthesize: the postnet returned shape {residual.shape} for "
                             f"audio of shape {y.shape}; its output is added to its input")
        y = dt.add(y, residual)
    if fir is not None:
        y = fir.apply(y, cfg)
    return y
