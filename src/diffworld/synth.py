"""Differentiable harmonic-plus-noise synthesizer over WORLD-style features.

The harmonic branch drives a band-limited pulse train, a Dirichlet-kernel
closed form that costs O(samples) (:func:`pulse_train`), through a per-frame
spectral gain ``(1 - ap) * sqrt(sp)`` in the STFT domain; the noise branch
shapes seeded white noise by ``ap * sqrt(sp)``.  Gradients flow into ``sp``
and ``ap`` (and through the feature codec into their compressed forms); the
pitch contour is a deterministic input and carries no gradient.

Synthesis runs in two parts.  :func:`excitation_spectra` computes the STFTs
of the pulse train and of the noise, which depend only on the pitch contour
and the seed, so a caller that re-renders the same contour (``fit``, once
per step) computes them once.  :func:`render` mixes the two shaped spectra,
``g_h * (1 - ap) * sqrt(sp) * E_h + g_n * ap * sqrt(sp) * E_n``, in the STFT
domain and runs a single inverse STFT; the inverse is linear, so this equals
the sum of two separately inverted branches up to rounding.

Two optional stages refine the raw output ``y``: a pluggable residual
post-processor, ``y + postnet(y)``, and then a trainable causal FIR with a
zero leading tap, ``gain_dry * y + gain_fir * fir(y)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import melcodec
from . import tensor as dt
from .errors import ShapeError, ValidationError, first_index
from .features import (CompressedFeatures, check_ap, check_f0, check_framing,
                       check_sample_rate, validate_features)

F_MIN = 71.0  # Hz, the lowest fundamental whose harmonics must reach Nyquist


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
        if self.hop is None:
            object.__setattr__(self, "hop", self.fft_size // 4)
        check_sample_rate(self.sample_rate, "SynthConfig.sample_rate")
        check_framing(self.hop, self.fft_size)
        if self.fft_size % self.hop != 0:
            raise ValidationError(
                f"hop {self.hop} must divide fft_size {self.fft_size}")

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
        taps = np.asarray(taps, dtype=np.float64)
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
    away from boundaries.  (The one-hop amplitude ramp is an anti-click
    measure, not part of the synthesis contract.)
    """
    f0 = np.asarray(f0, dtype=np.float64)
    if f0.ndim != 1 or f0.shape[0] == 0:
        raise ValidationError("f0 must be 1-D with at least one frame")
    check_f0(f0)
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
    """
    f0_audio = np.asarray(f0_audio, dtype=np.float64)
    mask = np.asarray(mask, dtype=np.float64)
    fs = float(cfg.sample_rate)
    cycles = np.cumsum(f0_audio) / fs
    phi = 2.0 * np.pi * (cycles - np.floor(cycles + 0.5))

    # harmonics below Nyquist at this instant (strict: k * f0 >= nyquist is out)
    k = np.where(f0_audio > 0, np.ceil(fs / 2.0 / np.maximum(f0_audio, 1e-12)) - 1.0, 0.0)
    k = np.clip(k, 0, cfg.harmonic_count)
    amp = np.where(k > 0, np.sqrt(2.0 * f0_audio / (np.maximum(k, 1.0) * fs)), 0.0) * mask

    half = np.sin(0.5 * phi)
    singular = np.abs(half) < 1e-150
    dirichlet = (np.sin(0.5 * k * phi) * np.sin(0.5 * (k + 1.0) * phi)
                 / np.where(singular, 1.0, half))
    return np.where(singular, 0.5 * k * (k + 1.0) * phi, dirichlet) * amp


def noise_excitation(n_samples: int, seed: int) -> np.ndarray:
    """Standard-normal excitation from a seeded generator (bit-reproducible)."""
    return np.random.default_rng(seed).standard_normal(n_samples)


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


def _frame_span(length: int, fft_size: int, hop: int, first: int,
                stop: int) -> tuple[int, int, int, int]:
    """Frames ``first..stop`` of a ``length``-sample signal, padded: their
    length ``total``, the sample ``start`` that index 0 holds, and the span
    ``[lo, hi)`` that the signal fills."""
    total = (stop - first - 1) * hop + fft_size
    start = first * hop - fft_size // 2
    return total, start, max(0, -start), max(0, min(total, length - start))


def _check_signal(x: np.ndarray, fft_size: int, hop: int) -> None:
    """Raise unless ``x`` is a non-empty 1-D signal with an STFT geometry."""
    if x.ndim != 1:
        raise ShapeError(f"stft: expected a 1-D signal, got shape {x.shape}")
    if x.size == 0:
        raise ValidationError("stft: the signal is empty; a spectrum needs at "
                              "least one sample")
    dt._require_hop(hop, "stft")
    dt._require_pow2(fft_size, "stft")


def _spectrum(x: np.ndarray, fft_size: int, hop: int,
              ws: dt.Workspace | None = None, first: int = 0,
              stop: int | None = None) -> np.ndarray:
    """The one STFT kernel: the complex spectra of frames ``first..stop``.

    Frame ``t`` covers samples ``[t * hop - fft_size // 2, t * hop + fft_size
    // 2)`` of ``x``, reading zeros outside it, and is Hann-windowed and
    transformed.  ``x`` has ``n_frames_for(len(x), hop)`` frames; ``stop``
    defaults to that.  Only the ``(stop - first, fft_size // 2 + 1)``
    spectrum outlives the call, and it is a view of ``ws`` when one is given.
    """
    _check_signal(x, fft_size, hop)
    # a cache entry: made before the buffers, so that a worker thread's heap
    # keeps no long-lived block above them
    window = hann_window(fft_size)
    if stop is None:
        stop = n_frames_for(x.shape[0], hop)
    total, start, lo, hi = _frame_span(x.shape[0], fft_size, hop, first, stop)
    padded = dt._scratch(ws, "padded", (total,))
    padded[:lo] = 0.0
    padded[lo:hi] = x[start + lo: start + hi]
    padded[hi:] = 0.0
    frames = dt._scratch(ws, "frames", (stop - first, fft_size))
    np.multiply(dt._frames_view(padded, fft_size, hop, stop - first), window, out=frames)
    del padded  # freed before the transform allocates, unless ws owns it
    spec = dt._scratch(ws, "spectrum", (stop - first, fft_size // 2 + 1), complex)
    return np.fft.rfft(frames, axis=-1, out=spec)


def _spectrum_adjoint(grad_spec: np.ndarray, fft_size: int, hop: int,
                      length: int, ws: dt.Workspace | None = None) -> np.ndarray:
    """Adjoint of :func:`_spectrum` over all frames of a ``length``-sample signal.

    Maps the gradient of the spectrum, which it overwrites, to a fresh
    gradient of the signal: the half-spectrum ``rfft`` adjoint, the window,
    then the frames overlap-added back where they were read.
    """
    n_frames = grad_spec.shape[0]
    frames = dt._rfft_adjoint(grad_spec, fft_size,
                              out=dt._scratch(ws, "frames", (n_frames, fft_size)))
    np.multiply(frames, hann_window(fft_size), out=frames)
    total, start, lo, hi = _frame_span(length, fft_size, hop, 0, n_frames)
    summed = dt._overlap_sum(frames, hop, total, ws)
    grad = np.zeros(length)
    grad[start + lo: start + hi] = summed[lo:hi]
    return grad


def stft(x, fft_size: int, hop: int) -> dt.Tensor:
    """Hann-windowed STFT, frames centered at ``t * hop``.

    Returns a ``(T, 2, fft_size // 2 + 1)`` tensor of real/imag planes with
    ``T = n_frames_for(len(x), hop)``; one graph node when ``x`` is tracked.
    """
    x = dt.as_tensor(x)
    out = dt.Tensor(dt._to_planes(_spectrum(x.data, fft_size, hop)))
    length = x.shape[0]
    return dt._record((x,), out, lambda g: (
        _spectrum_adjoint(dt._to_complex(g), fft_size, hop, length),))


def _window_norm(fft_size: int, hop: int, n_frames: int, length: int) -> np.ndarray:
    win_sq = np.broadcast_to(hann_window(fft_size) ** 2, (n_frames, fft_size))
    total = max((n_frames - 1) * hop + fft_size, fft_size // 2 + length)
    norm = dt._overlap_sum(win_sq, hop, total)[fft_size // 2: fft_size // 2 + length]
    return np.where(norm > 1e-12, norm, 1.0)


def istft(spec, fft_size: int, hop: int, length: int) -> dt.Tensor:
    """Overlap-add inverse with window-squared normalization.

    Exact inverse of :func:`stft` (to rounding) wherever the squared windows
    overlap, which at 75% overlap is every output sample.
    """
    spec = dt.as_tensor(spec)
    n_frames = spec.shape[0]
    frames = dt.irfft(spec, fft_size)
    windowed = dt.mul(frames, dt.Tensor(hann_window(fft_size)))
    summed = dt.overlap_add(windowed, hop, length, fft_size // 2)
    return dt.mul(summed, dt.Tensor(1.0 / _window_norm(fft_size, hop, n_frames, length)))


def _check_feature_frames(name: str, arr, n_samples: int, hop: int) -> None:
    n_frames = n_frames_for(n_samples, hop)
    if arr.shape[0] != n_frames:
        raise ValidationError(
            f"{name} has {arr.shape[0]} frames but a {n_samples}-sample signal "
            f"at hop {hop} has {n_frames} (ceil(n / hop))")


def _spectral_shape(spec: dt.Tensor, gain) -> dt.Tensor:
    """Scale complex frames by a per-frame, per-bin real gain."""
    gain = dt.as_tensor(gain)
    t, bins = gain.shape
    return dt.mul(spec, dt.reshape(gain, (t, 1, bins)))


# ---------------------------------------------------------------------------
# full synthesis
# ---------------------------------------------------------------------------

def excitation_spectra(f0: np.ndarray, cfg: SynthConfig) -> tuple[dt.Tensor, dt.Tensor]:
    """STFTs of the pulse train and of the noise for a frame-rate f0 contour.

    Both are constants of the contour and ``cfg.noise_seed``, returned as
    untracked ``(T, 2, fft_size // 2 + 1)`` tensors for :func:`render`.  The
    excitations span ``T * hop`` samples.
    """
    freq, mask = interpolate_f0(f0, cfg.hop)
    e_h = pulse_train(freq, mask, cfg)
    e_n = noise_excitation(freq.shape[0], cfg.noise_seed)
    return stft(e_h, cfg.fft_size, cfg.hop), stft(e_n, cfg.fft_size, cfg.hop)


def render(spec_h, spec_n, sp, ap, cfg: SynthConfig) -> dt.Tensor:
    """Shape both excitation spectra, mix them and invert once.

    Computes ``istft(g_h * (1 - ap) * sqrt(sp) * E_h + g_n * ap * sqrt(sp) *
    E_n)``, differentiable in ``sp`` and ``ap``; ``ap`` must lie in [0, 1]
    (:func:`~diffworld.features.check_ap`).  Output length is ``T * hop``.
    """
    spec_h, spec_n = dt.as_tensor(spec_h), dt.as_tensor(spec_n)
    sp, ap = dt.as_tensor(sp), dt.as_tensor(ap)
    if spec_n.shape != spec_h.shape:
        raise ValidationError(
            f"noise STFT shape {spec_n.shape} differs from the pulse-train "
            f"STFT shape {spec_h.shape}")
    n_samples = spec_h.shape[0] * cfg.hop
    _check_feature_frames("sp", sp, n_samples, cfg.hop)
    _check_feature_frames("ap", ap, n_samples, cfg.hop)
    check_ap(ap.data)
    return istft(_mix(spec_h, spec_n, sp, ap, cfg), cfg.fft_size, cfg.hop, n_samples)


def _mix(spec_h, spec_n, sp, ap, cfg: SynthConfig) -> dt.Tensor:
    # a function of its own so that, untracked, the gains are freed before
    # the inverse STFT allocates its frames
    root = dt.sqrt(sp)
    gain_h = dt.mul(cfg.gain_harmonic, dt.mul(dt.sub(1.0, ap), root))
    gain_n = dt.mul(cfg.gain_noise, dt.mul(ap, root))
    return dt.add(_spectral_shape(spec_h, gain_h), _spectral_shape(spec_n, gain_n))


def synthesize_components(f0: np.ndarray, sp, ap, cfg: SynthConfig) -> dt.Tensor:
    """Harmonic-plus-noise synthesis from frame-rate tensors.

    ``sp`` and ``ap`` may be tensors with gradients attached; ``f0`` is a
    plain contour.  Output length is ``n_frames * hop``.
    """
    spec_h, spec_n = excitation_spectra(f0, cfg)
    return render(spec_h, spec_n, sp, ap, cfg)


def synthesize(feats, cfg: SynthConfig | None = None,
               fir: FirPostFilter | None = None,
               postnet: Callable[[dt.Tensor], dt.Tensor] | None = None) -> dt.Tensor:
    """Synthesize audio from raw or compressed features.

    Both kinds pass through :func:`~diffworld.features.validate_features`
    first, as features read from a file do, so unvoiced frames of raw
    features get ``ap`` forced to 1; compressed inputs are then
    decompressed through the mel/aperiodicity codec.  ``postnet`` is an
    audio-in/audio-out processor built from tensor ops (gradients pass
    through) whose output is added to its input, ``y + postnet(y)``;
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
        y = dt.add(y, postnet(y))
    if fir is not None:
        y = fir.apply(y, cfg)
    return y
