"""Reconstruction and adversarial loss algebra as pure differentiable functions.

The multi-spectrogram loss compares Hann magnitude spectrograms at a ladder
of resolutions (window ``2 ** (5 + s)`` for scale ``s``, 75% overlap), with an
L1 term on magnitudes and an L1 term on floored log magnitudes.  It is
differentiable in the rendered signal ``y`` only: the reference ``x`` must
be untracked, and a tracked ``x`` raises instead of losing its gradient.
Each scale term is one graph node, whose forward pass is one numpy loop over
blocks of frames.  An untracked ``y`` gets blocks of ``2**15`` samples of
frames, so no spectrum of the whole signal exists at once; the sums add up
block by block, which can move the value's last bits.  A tracked ``y`` is one
block, and after it the pass computes the whole gradient ``dL_s/dy`` and keeps
only that; its backward pass scales it.  That arithmetic follows the order
the composed tensor ops would use, so value and gradient keep their bits.
When ``x`` is a constant compared many times (the target of a fit), its
magnitudes and floored logs can be computed once with :func:`msl_target` and
passed in its place.  The adversarial pieces operate on caller-supplied
discriminator scores and feature maps; no discriminator network ships here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import tensor as dt
from .errors import ValidationError
from .features import MAX_FFT_SIZE
from .synth import (_VALUE_BLOCK, _check_signal, _spectrum, _spectrum_adjoint,
                    n_frames_for)
# no longer called here; perfbench's tracer and its smoke test expect to
# find it bound in this module
from .synth import stft  # noqa: F401

MAX_SCALES = MAX_FFT_SIZE.bit_length() - 6  # the largest window 2**(5 + s) fits
LOG_FLOOR = 1e-7  # magnitudes are clamped here before the log term


@dataclass(frozen=True)
class MslConfig:
    scales: int = 6

    def __post_init__(self):
        if isinstance(self.scales, bool) or not isinstance(self.scales, (int, np.integer)):
            raise ValidationError(
                f"MslConfig.scales must be an integer, got {self.scales!r}")
        if not 1 <= self.scales <= MAX_SCALES:
            raise ValidationError(f"scales must be in [1, {MAX_SCALES}] (window "
                                  f"2**(5 + scales) <= {MAX_FFT_SIZE}), got {self.scales}")

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


def _reference(x, where: str) -> np.ndarray:
    """The samples of a reference signal, which must not be tracked."""
    if isinstance(x, dt.Tensor):
        if x._tracked:
            raise ValidationError(
                f"{where}: the reference signal x is tracked, but the loss is "
                "differentiable in y only; pass x untracked")
        return x.data
    return np.asarray(x, dtype=np.float64)


def _magnitude(spec: np.ndarray, ws: dt.Workspace | None = None) -> np.ndarray:
    """``|Z|`` as ``re * re + im * im``, then ``sqrt``, as ``complex_abs`` does."""
    mag = np.multiply(spec.real, spec.real, out=dt._scratch(ws, "magnitude", spec.shape))
    mag += np.multiply(spec.imag, spec.imag, out=dt._scratch(ws, "square", spec.shape))
    return np.sqrt(mag, out=mag)


def _floored_log(mag: np.ndarray) -> np.ndarray:
    floored = np.maximum(mag, LOG_FLOOR)
    return np.log(floored, out=floored)


class ScaleTarget(NamedTuple):
    """One side of a scale term, computed once: magnitudes and floored logs."""

    window: int
    mag: np.ndarray
    log_mag: np.ndarray


def _reference_rows(x, window: int, first: int = 0,
                    stop: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Magnitudes and floored logs of frames ``first..stop`` of a reference
    ``x``: its :class:`ScaleTarget`, or its untracked samples."""
    if isinstance(x, ScaleTarget):
        return x.mag[first:stop], x.log_mag[first:stop]
    mag = _magnitude(_spectrum(x, window, window // 4, first=first, stop=stop))
    return mag, _floored_log(mag)


def scale_target(x, window: int) -> ScaleTarget:
    """Magnitude spectrogram of an untracked ``x`` and its floored log."""
    return ScaleTarget(window, *_reference_rows(_reference(x, "scale_target"), window))


def _l1_grad(diff: np.ndarray, inv_n: float) -> np.ndarray:
    """``d mean|a - b| / db = -(1/N) sign(a - b)``, in place in ``diff``."""
    np.sign(diff, out=diff)
    diff *= inv_n
    return np.negative(diff, out=diff)


def _zero_unless(arr: np.ndarray, keep: np.ndarray) -> None:
    """Zero ``arr`` wherever ``keep`` is false; ``keep`` is overwritten."""
    np.copyto(arr, 0.0, where=np.logical_not(keep, out=keep))


def scale_loss(x, y, window: int, workspace: dt.Workspace | None = None) -> dt.Tensor:
    """Single-resolution term: L1 on magnitudes plus L1 on floored logs.

    ``x`` is an untracked signal as long as ``y``, or its
    :class:`ScaleTarget` at the same window.  The term is one graph node on
    ``y``.  ``workspace`` holds the scratch buffers of a caller that
    evaluates a tracked term again and again (``fit``); without one, each
    call allocates its own.  The gradient never lives in the workspace.
    """
    y = dt.as_tensor(y)
    hop = window // 4
    _check_signal(y.data, window, hop)
    n_frames = n_frames_for(y.shape[0], hop)
    if isinstance(x, ScaleTarget):
        if x.window != window:
            raise ValidationError(f"target computed at window {x.window} but the "
                                  f"loss asks for window {window}")
        if x.mag.shape[0] != n_frames:
            raise ValidationError(f"target has {x.mag.shape[0]} frames at window "
                                  f"{window}, a {y.shape[0]}-sample y has {n_frames}")
    else:
        x = _reference(x, "scale_loss")
        if x.shape != y.shape:
            raise ValidationError(f"signal lengths differ: {x.shape} vs {y.shape}")

    def scratch(name, dtype=np.float64):
        return dt._scratch(workspace, name, shape, dtype)

    # a tracked term is one block: its gradient needs the whole spectrum, and
    # blocks would regroup the additions of its sums
    per = n_frames if y._tracked else max(1, _VALUE_BLOCK // window)
    linear = logterm = 0.0
    for first in range(0, n_frames, per):
        stop = min(n_frames, first + per)
        shape = (stop - first, window // 2 + 1)
        mag_x, log_x = _reference_rows(x, window, first, stop)
        spec = _spectrum(y.data, window, hop, workspace, first=first, stop=stop)
        mag_y = _magnitude(spec, workspace)
        d_lin = np.subtract(mag_x, mag_y, out=scratch("d_lin"))
        del mag_x  # each array goes once used, to keep a block's peak low
        linear += np.sum(np.abs(d_lin, out=scratch("square")))
        floored = np.maximum(mag_y, LOG_FLOOR, out=scratch("floored"))
        d_log = np.log(floored, out=scratch("d_log"))
        np.subtract(log_x, d_log, out=d_log)
        del log_x
        logterm += np.sum(np.abs(d_log, out=scratch("square")))
        if not y._tracked:  # free the block before the next one is made
            del spec, mag_y, d_lin, floored, d_log
    n = float(n_frames * (window // 2 + 1))
    value = dt.Tensor(linear / n + logterm / n)
    if not y._tracked:
        return value
    # dL/d|Z|: the log term's share comes first, through the log and the
    # clamp, which passes where |Z| >= LOG_FLOOR; then the linear term's.
    # Each step is the one the composed ops' backward passes would take, in
    # their order, so the bits match theirs.
    inv_n = 1.0 / n
    keep = scratch("mask", bool)
    g_mag = _l1_grad(d_log, inv_n)
    g_mag /= floored
    _zero_unless(g_mag, np.greater_equal(mag_y, LOG_FLOOR, out=keep))
    g_mag += _l1_grad(d_lin, inv_n)
    # dL/dZ = Z dL/d|Z| / |Z|, and 0 where |Z| = 0, as complex_abs has it
    np.divide(g_mag, mag_y, out=g_mag, where=np.greater(mag_y, 0.0, out=keep))
    _zero_unless(g_mag, keep)
    np.multiply(spec.real, g_mag, out=spec.real)
    np.multiply(spec.imag, g_mag, out=spec.imag)
    del mag_y, d_lin, floored, d_log
    grad = _spectrum_adjoint(spec, window, hop, y.shape[0], workspace)
    return dt._record((y,), value, lambda g: (g * grad,))


class MslTarget(NamedTuple):
    """A constant signal's shape and its :class:`ScaleTarget` per scale."""

    shape: tuple[int, ...]
    scales: tuple[ScaleTarget, ...]


def msl_target(x, cfg: MslConfig = MslConfig()) -> MslTarget:
    """Spectrograms of an untracked ``x`` for :func:`msl`, to reuse across calls."""
    x = _reference(x, "msl_target")
    return MslTarget(x.shape, tuple(scale_target(x, window)
                                    for window in cfg.window_sizes))


def msl(x, y, cfg: MslConfig = MslConfig(),
        workspace: dt.Workspace | None = None) -> dt.Tensor:
    """Multi-resolution spectrogram loss between two equal-length signals.

    Differentiable with respect to ``y``; ``x`` must be untracked, or an
    :class:`MslTarget` built with the same scales (:func:`scale_loss` checks
    each scale's window).  ``workspace`` is passed to every scale term.
    """
    y = dt.as_tensor(y)
    if isinstance(x, MslTarget):
        if len(x.scales) != cfg.scales:
            raise ValidationError(f"target has {len(x.scales)} scales, "
                                  f"loss uses {cfg.scales}")
        x_shape, sides = x.shape, x.scales
    else:
        x = _reference(x, "msl")
        x_shape, sides = x.shape, (x,) * cfg.scales
    if x_shape != y.shape:
        raise ValidationError(f"signal lengths differ: {x_shape} vs {y.shape}")
    total = dt.Tensor(0.0)
    for side, window in zip(sides, cfg.window_sizes):
        total = dt.add(total, scale_loss(side, y, window, workspace))
    return total


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
