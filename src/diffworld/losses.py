"""Reconstruction and adversarial loss algebra as pure differentiable functions.

The multi-spectrogram loss compares Hann magnitude spectrograms at a ladder
of resolutions (window ``2 ** (5 + s)`` for scale ``s``, 75% overlap), with an
L1 term on magnitudes and an L1 term on floored log magnitudes.  It is
differentiable in the rendered signal ``y`` only: the reference ``x`` must
be untracked, and a tracked ``x`` raises instead of losing its gradient.
Each scale term is a numpy loop over blocks of frames, ``2**15`` samples of
frames to a block whether ``y`` is tracked or not, so no spectrum of the
whole signal exists at once.  Each block sums ``|d|`` of its frames along
their bins, into one ``(frames,)`` vector per L1 term, and each vector is
summed once at the end, so the value does not depend on the block size and
is the same, bit for bit, tracked or not.  The sums take ``|d|`` in place,
after a tracked ``y``'s gradient tail has read the signs of both
differences.  That tail then scales the block's spectrum, every other array
of the block is freed, and the adjoint of the spectrum overlap-adds its
frames into one padded buffer, which then holds ``dL_s/dy`` and is the
term's graph node.  A block whose magnitudes all clear the log floor builds
no mask, as both would pass every bin.  That arithmetic follows the order
the composed tensor ops would use, and none of its sums crosses a block, so
the gradient keeps their bits.  :func:`msl` adds its scales' gradients into
one ``y``-sized buffer, from the last scale to the first, which is the order
``backward`` would sum them in, and records one node.
When ``x`` is a constant compared many times (the target of a fit), its
magnitudes can be computed once with :func:`msl_target`, a block of frames
at a time into one array per scale, and passed in its place; each block
makes its floored logs from them again, which costs less than holding a
second spectrogram per scale.  The adversarial pieces operate on
caller-supplied discriminator scores and feature maps; no discriminator
network ships here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import tensor as dt
from .errors import (MAX_FFT_SIZE, ValidationError, check_framing, check_integer,
                     check_real, real_array)
from .synth import (_blocks, _check_signal, _overlap_buffer, _spectrogram, _spectrum,
                    _spectrum_adjoint, n_frames_for)
# no longer called here; perfbench's tracer and its smoke test expect to
# find it bound in this module
from .synth import stft  # noqa: F401

MAX_SCALES = MAX_FFT_SIZE.bit_length() - 6  # the largest window 2**(5 + s) fits
LOG_FLOOR = 1e-7  # magnitudes are clamped here before the log term


@dataclass(frozen=True)
class MslConfig:
    scales: int = 6

    def __post_init__(self):
        check_integer(self.scales, "MslConfig.scales")
        if not 1 <= self.scales <= MAX_SCALES:
            raise ValidationError(f"scales must be in [1, {MAX_SCALES}] (window "
                                  f"2**(5 + scales) <= {MAX_FFT_SIZE}), got {self.scales}")

    @property
    def window_sizes(self) -> tuple[int, ...]:
        return tuple(2 ** (5 + s) for s in range(1, self.scales + 1))


def mse_features(x, y) -> dt.Tensor:
    """Mean over all elements of the squared feature difference."""
    x, y = dt.as_tensor(x, "x"), dt.as_tensor(y, "y")
    if x.shape != y.shape:
        raise ValidationError(f"feature shapes differ: x {x.shape} vs y {y.shape}")
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
    return real_array(x, "x")


def _magnitude(spec: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``|Z|`` as ``re * re + im * im``, then ``sqrt``, as ``complex_abs`` does;
    into ``out`` when one is given."""
    mag = np.multiply(spec.real, spec.real, out=out)
    mag += spec.imag * spec.imag
    return np.sqrt(mag, out=mag)


def _floored_log(mag: np.ndarray) -> np.ndarray:
    floored = np.maximum(mag, LOG_FLOOR)
    return np.log(floored, out=floored)


class ScaleTarget(NamedTuple):
    """One side of a scale term, computed once: its magnitudes."""

    window: int
    mag: np.ndarray


def _reference_rows(x, window: int, first: int,
                    stop: int) -> tuple[np.ndarray, np.ndarray]:
    """Magnitudes and floored logs of frames ``first..stop`` of a reference
    ``x``: its :class:`ScaleTarget`, or its untracked samples.  The logs are
    made per block, from the magnitudes, in either case."""
    if isinstance(x, ScaleTarget):
        mag = x.mag[first:stop]
    else:
        mag = _magnitude(_spectrum(x, window, window // 4, first, stop))
    return mag, _floored_log(mag)


def scale_target(x, window: int) -> ScaleTarget:
    """Magnitude spectrogram of an untracked ``x``, made a block of frames
    at a time into one array."""
    check_framing("scale_target: ", window=window, transform=True)
    x = _reference(x, "scale_target")
    return ScaleTarget(window, _spectrogram(x, window, window // 4, _magnitude))


def _l1_grad(diff: np.ndarray, neg_inv_n: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``d mean|a - b| / db = -(1/N) sign(a - b)`` into ``out``, not ``diff``:
    numpy's ``sign`` runs several times slower in place.

    ``neg_inv_n`` is the row of ``-1/N`` per column (bin); the spectrum
    adjoint's halving of the interior bins is folded into it.
    """
    np.sign(diff, out=out)
    return np.multiply(out, neg_inv_n, out=out)


def _zero_unless(arr: np.ndarray, keep: np.ndarray) -> None:
    """Zero ``arr`` wherever ``keep`` is false; ``keep`` is overwritten."""
    np.copyto(arr, 0.0, where=np.logical_not(keep, out=keep))


def scale_loss(x, y, window: int, *, _into: np.ndarray | None = None) -> dt.Tensor:
    """Single-resolution term: L1 on magnitudes plus L1 on floored logs.

    ``x`` is an untracked signal as long as ``y``, or its
    :class:`ScaleTarget` at the same window.  A tracked term is one graph
    node on ``y``; given ``_into``, a ``y``-sized buffer that :func:`msl`
    passes, it adds its gradient there instead and returns its value
    untracked.
    """
    check_framing("scale_loss: ", window=window, transform=True)
    y = dt.as_tensor(y, "y")
    hop = window // 4
    _check_signal(y.data, window, hop, "y")
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
            raise ValidationError(f"signal lengths differ: x {x.shape} vs y {y.shape}")

    bins = window // 2 + 1
    n = float(n_frames * bins)
    tracked = y._tracked
    if tracked:
        # -1/N per bin, halved on the interior bins for the spectrum adjoint
        neg_inv_n = np.full(bins, -0.5 / n)
        neg_inv_n[[0, -1]] = -1.0 / n
        buf, grad_y = _overlap_buffer(window, hop, n_frames, y.shape[0])
    # sum|d| of every frame, per L1 term; summed once, whatever the blocks
    rows_lin, rows_log = np.empty(n_frames), np.empty(n_frames)
    for first, stop in _blocks(n_frames, window):
        mag_x, log_x = _reference_rows(x, window, first, stop)
        spec = _spectrum(y.data, window, hop, first, stop)
        mag_y = _magnitude(spec)
        d_lin = mag_x - mag_y
        del mag_x  # each array goes once used, to keep a block's peak low
        # when every |Z| clears the floor, the clamp and both masks below
        # pass every bin: the clamp is |Z| itself and no mask is built
        above = mag_y.min() >= LOG_FLOOR
        floored = mag_y if above else np.maximum(mag_y, LOG_FLOOR)
        d_log = np.log(floored)
        np.subtract(log_x, d_log, out=d_log)
        del log_x
        if tracked:
            # dL/d|Z|: the log term's share comes first, through the log and
            # the clamp, which passes where |Z| >= LOG_FLOOR; then the linear
            # term's.  Each step is the one the composed ops' backward passes
            # would take, in their order, so the bits match theirs.  Each
            # sign is read before the sum below takes |d| in place
            g_mag = _l1_grad(d_log, neg_inv_n, np.empty_like(d_log))
            g_mag /= floored
            if not above:
                _zero_unless(g_mag, mag_y >= LOG_FLOOR)
        np.add.reduce(np.abs(d_log, out=d_log), axis=1, out=rows_log[first:stop])
        if tracked:
            g_mag += _l1_grad(d_lin, neg_inv_n, d_log)  # d_log is spent
        np.add.reduce(np.abs(d_lin, out=d_lin), axis=1, out=rows_lin[first:stop])
        del d_lin, d_log, floored
        if not tracked:  # free the block before the next one is made
            del spec, mag_y
            continue
        # dL/dZ = Z dL/d|Z| / |Z|, and 0 where |Z| = 0, as complex_abs has it
        if above:
            g_mag /= mag_y
        else:
            keep = mag_y > 0.0
            np.divide(g_mag, mag_y, out=g_mag, where=keep)
            _zero_unless(g_mag, keep)
            del keep
        del mag_y
        np.multiply(spec.real, g_mag, out=spec.real)
        np.multiply(spec.imag, g_mag, out=spec.imag)
        del g_mag  # only the spectrum is left when irfft makes its frames
        _spectrum_adjoint(spec, window, hop, buf, first)
    linear, logterm = np.sum(rows_lin), np.sum(rows_log)
    value = dt.Tensor(linear / n + logterm / n)
    if not tracked:
        return value
    grad = np.zeros(y.shape) if _into is None else _into
    grad += grad_y
    if _into is not None:
        return value
    return dt._record((y,), value, lambda g: (np.multiply(g, grad, out=grad),))


class MslTarget(NamedTuple):
    """A constant signal's shape and its :class:`ScaleTarget` per scale."""

    shape: tuple[int, ...]
    scales: tuple[ScaleTarget, ...]


def msl_target(x, cfg: MslConfig = MslConfig()) -> MslTarget:
    """Spectrograms of an untracked ``x`` for :func:`msl`, to reuse across calls."""
    x = _reference(x, "msl_target")
    return MslTarget(x.shape, tuple(scale_target(x, window)
                                    for window in cfg.window_sizes))


def msl(x, y, cfg: MslConfig = MslConfig()) -> dt.Tensor:
    """Multi-resolution spectrogram loss between two equal-length signals.

    Differentiable with respect to ``y``; ``x`` must be untracked, or an
    :class:`MslTarget` built with the same scales (:func:`scale_loss` checks
    each scale's window).  A tracked ``y`` gets one graph node, its gradient
    the sum of the scales'.
    """
    y = dt.as_tensor(y, "y")
    if isinstance(x, MslTarget):
        if len(x.scales) != cfg.scales:
            raise ValidationError(f"target has {len(x.scales)} scales, "
                                  f"loss uses {cfg.scales}")
        x_shape, sides = x.shape, x.scales
    else:
        x = _reference(x, "msl")
        x_shape, sides = x.shape, (x,) * cfg.scales
    if x_shape != y.shape:
        raise ValidationError(f"signal lengths differ: x {x_shape} vs y {y.shape}")
    # one gradient buffer for every scale, filled from the last scale to the
    # first: the order in which backward would sum the terms' own gradients
    grad = np.zeros(y.shape) if y._tracked else None
    terms = [scale_loss(side, y, window, _into=grad)
             for side, window in reversed(tuple(zip(sides, cfg.window_sizes)))]
    total = dt.Tensor(0.0)
    for term in reversed(terms):
        total = dt.add(total, term)
    if grad is None:
        return total
    return dt._record((y,), total, lambda g: (np.multiply(g, grad, out=grad),))


# ---------------------------------------------------------------------------
# adversarial loss algebra (scores and feature maps supplied by the caller)
# ---------------------------------------------------------------------------

def hinge_generator(scores, mu: float = 1.0) -> dt.Tensor:
    """Generator hinge: ``mu * sum_k mean(-scores_k)``."""
    check_real(mu, "mu")
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
    check_real(lam, "lam")
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
    check_real(mu, "mu")
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
