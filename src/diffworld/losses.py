"""Reconstruction and adversarial loss algebra as pure differentiable functions.

The multi-spectrogram loss compares Hann magnitude spectrograms at a ladder
of resolutions (window ``2 ** (5 + s)`` for scale ``s``, 75% overlap), with an
L1 term on magnitudes and an L1 term on floored log magnitudes.  When one
side is a constant that is compared many times (the target of a fit), its
magnitudes and floored logs can be computed once with :func:`msl_target` and
passed in its place; the loss value is bit-identical.  The adversarial
pieces operate on caller-supplied discriminator scores and feature maps; no
discriminator network ships here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from . import tensor as dt
from .errors import ValidationError
from .features import MAX_FFT_SIZE
from .synth import stft

MAX_SCALES = MAX_FFT_SIZE.bit_length() - 6  # the largest window 2**(5 + s) fits


@dataclass(frozen=True)
class MslConfig:
    scales: int = 6
    kappa: float = 1.0
    log_floor: float = 1e-7

    def __post_init__(self):
        if not 1 <= self.scales <= MAX_SCALES:
            raise ValidationError(f"scales must be in [1, {MAX_SCALES}] (window "
                                  f"2**(5 + scales) <= {MAX_FFT_SIZE}), got {self.scales}")
        if not self.log_floor > 0:
            raise ValidationError(f"MslConfig.log_floor must be > 0, got {self.log_floor}")

    @property
    def window_sizes(self) -> tuple[int, ...]:
        return tuple(2 ** (5 + s) for s in range(1, self.scales + 1))


def mse_features(x, y) -> dt.Tensor:
    """Mean over all elements of the squared feature difference."""
    x, y = dt.as_tensor(x), dt.as_tensor(y)
    if x.shape != y.shape:
        raise ValidationError(f"feature shapes differ: {x.shape} vs {y.shape}")
    diff = dt.sub(x, y)
    return dt.mean(dt.mul(diff, diff))


def spectrogram_magnitude(x, window: int) -> dt.Tensor:
    """Hann magnitude spectrogram at 75% overlap for one loss scale."""
    return dt.complex_abs(stft(x, window, window // 4))


def _floored_log(mag: dt.Tensor, log_floor: float) -> dt.Tensor:
    return dt.log(dt.clamp_min(mag, log_floor))


class ScaleTarget(NamedTuple):
    """One side of a scale term, computed once: magnitudes and floored logs."""

    window: int
    log_floor: float
    mag: dt.Tensor
    log_mag: dt.Tensor


def scale_target(x, window: int, log_floor: float = 1e-7) -> ScaleTarget:
    """Magnitude spectrogram of ``x`` and its floored log at one scale."""
    mag = spectrogram_magnitude(x, window)
    return ScaleTarget(window, log_floor, mag, _floored_log(mag, log_floor))


def scale_loss(x, y, window: int, kappa: float = 1.0,
               log_floor: float = 1e-7) -> dt.Tensor:
    """Single-resolution term: L1 on magnitudes plus L1 on floored logs.

    ``x`` is a signal or its :class:`ScaleTarget` at the same window and
    floor.
    """
    if isinstance(x, ScaleTarget):
        if (x.window, x.log_floor) != (window, log_floor):
            raise ValidationError(
                f"target computed at window {x.window}, floor {x.log_floor} "
                f"but the loss asks for window {window}, floor {log_floor}")
        mag_x, log_x = x.mag, x.log_mag
    else:
        mag_x, log_x = spectrogram_magnitude(x, window), None
    mag_y = spectrogram_magnitude(y, window)
    linear = dt.mean(dt.abs(dt.sub(mag_x, mag_y)))
    if log_x is None:  # after mag_y: one spectrogram's workspace at a time
        log_x = _floored_log(mag_x, log_floor)
    logterm = dt.mean(dt.abs(dt.sub(log_x, _floored_log(mag_y, log_floor))))
    return dt.add(linear, dt.mul(kappa, logterm))


class MslTarget(NamedTuple):
    """A constant signal's shape and its :class:`ScaleTarget` per scale."""

    shape: tuple[int, ...]
    scales: tuple[ScaleTarget, ...]


def msl_target(x, cfg: MslConfig = MslConfig()) -> MslTarget:
    """Spectrograms of ``x`` for :func:`msl`, to reuse across many calls."""
    x = dt.as_tensor(x)
    return MslTarget(x.shape, tuple(scale_target(x, window, cfg.log_floor)
                                    for window in cfg.window_sizes))


def msl(x, y, cfg: MslConfig = MslConfig()) -> dt.Tensor:
    """Multi-resolution spectrogram loss between two equal-length signals.

    Differentiable with respect to ``y`` (and ``x``, if it is tracked).  ``x``
    may instead be an :class:`MslTarget` built with the same scales and
    floor; :func:`scale_loss` checks each scale's window and floor.
    """
    y = dt.as_tensor(y)
    if isinstance(x, MslTarget):
        if len(x.scales) != cfg.scales:
            raise ValidationError(f"target has {len(x.scales)} scales, "
                                  f"loss uses {cfg.scales}")
        x_shape, sides = x.shape, x.scales
    else:
        x = dt.as_tensor(x)
        x_shape, sides = x.shape, (x,) * cfg.scales
    if x_shape != y.shape:
        raise ValidationError(f"signal lengths differ: {x_shape} vs {y.shape}")
    total = dt.Tensor(0.0)
    for side, window in zip(sides, cfg.window_sizes):
        total = dt.add(total, scale_loss(side, y, window, cfg.kappa, cfg.log_floor))
    return total


def nll_loss(feats_x, feats_y, audio_x, audio_y, alpha: float = 1.0,
             beta: float = 1.0, cfg: MslConfig = MslConfig()) -> dt.Tensor:
    """Weighted sum of the feature MSE and the multi-spectrogram loss."""
    return dt.add(dt.mul(alpha, mse_features(feats_x, feats_y)),
                  dt.mul(beta, msl(audio_x, audio_y, cfg)))


# ---------------------------------------------------------------------------
# adversarial loss algebra (scores and feature maps supplied by the caller)
# ---------------------------------------------------------------------------

def hinge_generator(scores, mu: float = 1.0) -> dt.Tensor:
    """Generator hinge: ``mu * sum_k mean(-scores_k)``."""
    total = dt.Tensor(0.0)
    for s in scores:
        total = dt.add(total, dt.mean(dt.neg(dt.as_tensor(s))))
    return dt.mul(mu, total)


def feature_matching(real_maps, fake_maps, lam: float = 1.0) -> dt.Tensor:
    """L1 distance between discriminator feature maps, layer-normalized.

    ``real_maps[k][i]`` and ``fake_maps[k][i]`` are the layer-``i`` maps of
    discriminator ``k``; the leading axis of each map tensor counts the maps
    in that layer, and each layer term is divided by that count.
    """
    if len(real_maps) != len(fake_maps):
        raise ValidationError("discriminator counts differ between map lists")
    total = dt.Tensor(0.0)
    for real_layers, fake_layers in zip(real_maps, fake_maps):
        if len(real_layers) != len(fake_layers):
            raise ValidationError("layer counts differ between map lists")
        for real, fake in zip(real_layers, fake_layers):
            real, fake = dt.as_tensor(real), dt.as_tensor(fake)
            if real.shape != fake.shape:
                raise ValidationError(
                    f"feature map shapes differ: {real.shape} vs {fake.shape}")
            n_maps = real.shape[0] if real.ndim > 0 else 1
            term = dt.mean(dt.abs(dt.sub(real, fake)))
            total = dt.add(total, dt.div(term, float(n_maps)))
    return dt.mul(lam, total)


def hinge_discriminator(real_scores, fake_scores, mu: float = 1.0,
                        printed_sign: bool = True) -> dt.Tensor:
    """Discriminator hinge over per-network score tensors.

    ``printed_sign=True`` computes ``sum_k mean(min(0, 1 - D(x))) +
    mean(min(0, 1 + D(x_hat)))`` exactly as stated; the conventional variant
    (``max`` in place of ``min``) is available behind the flag because the
    stated form is non-positive and saturates at zero.
    """
    if len(real_scores) != len(fake_scores):
        raise ValidationError("discriminator counts differ between score lists")
    total = dt.Tensor(0.0)
    for real, fake in zip(real_scores, fake_scores):
        real_margin = dt.sub(1.0, dt.as_tensor(real))
        fake_margin = dt.add(1.0, dt.as_tensor(fake))
        if printed_sign:
            term = dt.add(dt.mean(dt.minimum_with_zero(real_margin)),
                          dt.mean(dt.minimum_with_zero(fake_margin)))
        else:
            term = dt.add(dt.mean(dt.clamp_min(real_margin, 0.0)),
                          dt.mean(dt.clamp_min(fake_margin, 0.0)))
        total = dt.add(total, term)
    return dt.mul(mu, total)


def downsample_audio(x, factor: int) -> dt.Tensor:
    """Average-pool a signal by a power-of-two factor (kernel 4, stride 2).

    Utility for feeding multi-scale discriminator stacks; differentiable.
    Padding samples count toward the average (kernel is always 4).
    """
    x = dt.as_tensor(x)
    if factor < 1 or factor & (factor - 1):
        raise ValidationError(f"downsample factor {factor} is not a power of two")
    while factor > 1:
        n_out = (x.shape[0] + 2 - 4) // 2 + 1
        frames = dt.frame(x, 4, 2, n_out, 1)
        x = dt.mean(frames, axis=1)
        factor //= 2
    return x
