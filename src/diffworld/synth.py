"""Differentiable harmonic-plus-noise synthesizer over WORLD-style features.

The harmonic branch drives a bank of phase-locked sinusoids (an alias-free
pulse train) through a per-frame spectral gain ``(1 - ap) * sqrt(sp)`` in the
STFT domain; the noise branch shapes seeded white noise by ``ap * sqrt(sp)``.
Gradients flow into ``sp`` and ``ap`` (and through the feature codec into
their compressed forms); the pitch contour is a deterministic input and
carries no gradient.

Synthesis runs in two parts.  :func:`excitation_spectra` computes the STFTs
of the pulse train and of the noise, which depend only on the pitch contour
and the seed, so a caller that re-renders the same contour (``fit``, once
per step) computes them once.  :func:`render` mixes the two shaped spectra,
``g_h * (1 - ap) * sqrt(sp) * E_h + g_n * ap * sqrt(sp) * E_n``, in the STFT
domain and runs a single inverse STFT; the inverse is linear, so this equals
the sum of two separately inverted branches up to rounding.

An optional trainable causal FIR (zero leading tap) and a pluggable residual
post-processor can refine the raw output; gains for every stage are
user-settable and default to one.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import melcodec
from . import tensor as dt
from .errors import ValidationError
from .features import CompressedFeatures, Waveform, WorldFeatures

_OSC_BLOCK = 1 << 20  # cap the (harmonics x samples) workspace per block


@dataclass(frozen=True)
class SynthConfig:
    """Synthesizer constants; defaults target 22.05 kHz speech/singing."""

    sample_rate: int = 22050
    fft_size: int = 1024
    hop: int | None = None            # defaults to fft_size // 4
    f_min: float = 71.0               # lowest fundamental the bank must span
    harmonic_count: int | None = None  # defaults to floor(nyquist / f_min)
    gain_harmonic: float = 1.0
    gain_noise: float = 1.0
    gain_post_dry: float = 1.0        # dry path into the residual post stage
    gain_post_wet: float = 1.0        # residual post-processor output
    gain_dry: float = 1.0             # dry path around the FIR
    gain_fir: float = 1.0             # FIR output
    noise_seed: int = 0
    pulse_norm: str = "unit-pulse-energy"  # or "unit-amplitude"

    def __post_init__(self):
        if self.hop is None:
            object.__setattr__(self, "hop", self.fft_size // 4)
        if self.hop < 1:
            raise ValidationError(f"hop must be >= 1, got {self.hop}")
        if self.fft_size % self.hop != 0:
            raise ValidationError(
                f"hop {self.hop} must divide fft_size {self.fft_size}")
        if self.harmonic_count is None:
            object.__setattr__(self, "harmonic_count",
                               int((self.sample_rate / 2.0) / self.f_min))
        if self.pulse_norm not in ("unit-pulse-energy", "unit-amplitude"):
            raise ValidationError(f"unknown pulse_norm {self.pulse_norm!r}")

    @classmethod
    def for_features(cls, feats, **overrides) -> "SynthConfig":
        return cls(sample_rate=feats.sample_rate, fft_size=feats.fft_size,
                   hop=feats.hop, **overrides)


class FirPostFilter:
    """Trainable causal FIR taps with the leading tap structurally zero.

    Only ``taps[1:]`` are free parameters; index 0 does not exist as a degree
    of freedom, so the filter can never leak an identity path.
    """

    def __init__(self, taps: np.ndarray | None = None, length: int = 1024):
        if taps is not None:
            taps = np.asarray(taps, dtype=np.float64)
            if taps.ndim != 1 or taps.shape[0] < 2:
                raise ValidationError("FIR taps must be 1-D with length >= 2")
            if taps[0] != 0.0:
                raise ValidationError("FIR tap 0 must be exactly 0 (causal, "
                                      "no instantaneous path)")
            self.free = taps[1:].copy()
        else:
            self.free = np.zeros(int(length) - 1)

    @property
    def length(self) -> int:
        return self.free.shape[0] + 1

    @property
    def taps(self) -> np.ndarray:
        return np.concatenate(([0.0], self.free))

    def apply(self, signal, free_taps=None) -> dt.Tensor:
        """Convolve ``signal`` with the taps; differentiable in both."""
        taps = dt.as_tensor(self.free if free_taps is None else free_taps)
        return dt.causal_fir(dt.delay(dt.as_tensor(signal), 1), taps)


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
    if np.any(f0 < 0):
        raise ValidationError("f0 must be non-negative")
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
    """Alias-free pulse train: phase-locked harmonics of the running phase.

    Harmonic ``k`` contributes ``sin(k * phi)`` with ``phi`` the cumulative
    phase of the fundamental, masked per sample wherever ``k * f0`` reaches
    the Nyquist rate.  Amplitudes normalize each pulse period to unit energy
    (a sum of K sinusoids of amplitude A has mean power K * A^2 / 2 over the
    fs / f0 samples of one period).  Deterministic; carries no gradient.
    """
    f0_audio = np.asarray(f0_audio, dtype=np.float64)
    mask = np.asarray(mask, dtype=np.float64)
    fs = float(cfg.sample_rate)
    nyquist = fs / 2.0
    n = f0_audio.shape[0]
    phase = 2.0 * np.pi * np.cumsum(f0_audio) / fs
    harmonics = np.arange(1, cfg.harmonic_count + 1)

    # harmonics below Nyquist at this instant (strict: k * f0 >= nyquist is out)
    with np.errstate(divide="ignore"):
        k_active = np.where(f0_audio > 0,
                            np.ceil(nyquist / np.maximum(f0_audio, 1e-12)) - 1.0,
                            0.0)
    k_active = np.clip(k_active, 0, cfg.harmonic_count)
    if cfg.pulse_norm == "unit-pulse-energy":
        amp = np.where(k_active > 0,
                       np.sqrt(2.0 * f0_audio / (np.maximum(k_active, 1.0) * fs)),
                       0.0)
    else:
        amp = (k_active > 0).astype(np.float64)
    amp = amp * mask

    out = np.zeros(n)
    for start in range(0, n, max(_OSC_BLOCK // max(cfg.harmonic_count, 1), 1)):
        stop = min(start + max(_OSC_BLOCK // max(cfg.harmonic_count, 1), 1), n)
        block_phase = phase[start:stop]
        active = harmonics[:, None] <= k_active[None, start:stop]
        out[start:stop] = np.einsum(
            "kt,kt->t", np.sin(harmonics[:, None] * block_phase[None, :]),
            active.astype(np.float64))
    return out * amp


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


def stft(x, fft_size: int, hop: int) -> dt.Tensor:
    """Hann-windowed STFT, frames centered at ``t * hop``.

    Returns a ``(T, 2, fft_size // 2 + 1)`` tensor of real/imag planes with
    ``T = n_frames_for(len(x), hop)``.
    """
    x = dt.as_tensor(x)
    frames = dt.frame(x, fft_size, hop, n_frames_for(x.shape[0], hop), fft_size // 2)
    windowed = dt.mul(frames, dt.Tensor(hann_window(fft_size)))
    return dt.rfft(windowed, fft_size)


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


def synth_harmonic(e_h, sp, ap, cfg: SynthConfig) -> dt.Tensor:
    """Filter the pulse train by ``(1 - ap) * sqrt(sp)`` in the STFT domain."""
    e_h = dt.as_tensor(e_h)
    sp, ap = dt.as_tensor(sp), dt.as_tensor(ap)
    _check_feature_frames("sp", sp, e_h.shape[0], cfg.hop)
    _check_feature_frames("ap", ap, e_h.shape[0], cfg.hop)
    gain = dt.mul(dt.sub(1.0, ap), dt.sqrt(sp))
    spec = _spectral_shape(stft(e_h, cfg.fft_size, cfg.hop), gain)
    return istft(spec, cfg.fft_size, cfg.hop, e_h.shape[0])


def synth_noise(sp, ap, cfg: SynthConfig) -> dt.Tensor:
    """Shape ``cfg.noise_seed``'s white noise by ``ap * sqrt(sp)`` in the STFT domain."""
    sp, ap = dt.as_tensor(sp), dt.as_tensor(ap)
    n_samples = sp.shape[0] * cfg.hop
    _check_feature_frames("ap", ap, n_samples, cfg.hop)
    e_n = noise_excitation(n_samples, cfg.noise_seed)
    gain = dt.mul(ap, dt.sqrt(sp))
    spec = _spectral_shape(stft(e_n, cfg.fft_size, cfg.hop), gain)
    return istft(spec, cfg.fft_size, cfg.hop, n_samples)


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
    E_n)``, differentiable in ``sp`` and ``ap``.  Output length is
    ``T * hop``.
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

    Compressed inputs are decompressed through the mel/aperiodicity codec
    first.  ``postnet`` is an audio-in/audio-out residual processor built
    from tensor ops (gradients pass through); ``fir`` appends the trainable
    causal filter stage.  Each post stage engages only when supplied.
    """
    if cfg is None:
        cfg = SynthConfig.for_features(feats)
    elif (cfg.sample_rate, cfg.fft_size, cfg.hop) != \
            (feats.sample_rate, feats.fft_size, feats.hop):
        raise ValidationError(
            "feature metadata (rate/fft/hop) does not match the synth config; "
            "resampling features is out of scope")
    if isinstance(feats, CompressedFeatures):
        feats = melcodec.decompress(feats)
    elif not isinstance(feats, WorldFeatures):
        raise TypeError(f"cannot synthesize from {type(feats).__name__}")

    y = synthesize_components(feats.f0, feats.sp, feats.ap, cfg)
    if postnet is not None:
        y = dt.add(dt.mul(cfg.gain_post_dry, y),
                   dt.mul(cfg.gain_post_wet, postnet(y)))
    if fir is not None:
        y = dt.add(dt.mul(cfg.gain_dry, y), dt.mul(cfg.gain_fir, fir.apply(y)))
    return y


def oracle_target(feats: WorldFeatures, cfg: SynthConfig | None = None) -> Waveform:
    """Deterministic baseline synthesis used as a training target.

    Unit gains, fixed seed, no post stages: the output lives on the manifold
    of signals the baseline synthesizer can produce.
    """
    if not isinstance(feats, WorldFeatures):
        raise TypeError("oracle targets are synthesized from raw features")
    if cfg is None:
        cfg = SynthConfig.for_features(feats)
    cfg = replace(cfg, gain_harmonic=1.0, gain_noise=1.0)
    y = synthesize(feats, cfg)
    return Waveform(samples=y.data, sample_rate=cfg.sample_rate)
