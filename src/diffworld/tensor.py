"""Dense real tensors with reverse-mode differentiation.

Every differentiable operation in the package records its graph node here,
through ``_record``: the primitives defined in this module (broadcast
pointwise arithmetic, matrix products, real-input FFTs, framing/overlap-add
and a strictly causal FIR) and the fused nodes of the other modules (the
codec's decode, the shaped inverse STFT, each loss scale), whose forward and
backward passes are numpy.  Operations execute eagerly on numpy arrays and,
whenever an input is being tracked, store their inputs and backward function
on the output tensor, so each graph is owned by its tensors and is freed
with them.  ``backward`` collects the nodes that the loss reaches and visits
them in reverse creation order: a node's inputs are always created before
it, so this is a reverse topological order.  It consumes the graph as it
goes; a second ``backward`` that reaches a consumed node raises instead of
treating it as a constant.

Tensor data is immutable after creation and graphs share no state but a
creation counter, so independent pipelines (per clip, per spectrogram
scale) may run on separate threads without locking.  One order rule holds
for a tensor that several nodes read: ``backward`` sums the gradients it
receives in reverse node-creation order.  Nodes that share an input and are
created on different threads therefore give that input gradient bits that
depend on thread timing; create them in a fixed order (compute on the
threads, record on one) when the bits must not vary.

The framing ops are vectorised.  :func:`frame` gathers through a strided
view, and the scatter-add shared by :func:`overlap_add` and by ``frame``'s
adjoint cuts each frame into hop-long chunks and adds them with
``ceil(frame_len / hop)`` strided slice-adds, whatever the number of frames;
a hop that does not divide the frame length zero-pads the last chunk.  The
adjoint of :func:`rfft` is
a half-spectrum inverse FFT, and a binary op's backward pass skips the
gradient of an operand that is not tracked.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Sequence

import numpy as np

from .errors import (DomainError, ShapeError, ValidationError, check_framing, first_index,
                     real_array)

_LN10 = math.log(10.0)

_SEQ = itertools.count()

# stands in for a node's (inputs, backward_fn) once backward has visited it
_CONSUMED = object()


class Tensor:
    """Dense real n-dimensional array, always float64.

    A tensor participates in the computation graph only if it was created
    with ``requires_grad=True`` or produced by an operation on a tracked
    tensor; untracked tensors are plain array wrappers and own no graph.
    """

    __slots__ = ("data", "requires_grad", "_tracked", "_node")

    def __init__(self, data, requires_grad: bool = False):
        # an op's result, or an array that as_tensor has checked, is kept as it is
        self.data = (data if type(data) is np.ndarray and data.dtype == np.float64
                     else real_array(data, "Tensor data"))
        self.requires_grad = bool(requires_grad)
        self._tracked = self.requires_grad
        # (creation sequence number, inputs, backward_fn) of the op that
        # produced this tensor, or _CONSUMED after backward visited it
        self._node = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({self.data!r}{flag})"


def as_tensor(x, name: str = "Tensor data") -> Tensor:
    """Wrap array-likes as constant tensors (``name`` in an error); pass tensors through."""
    return x if isinstance(x, Tensor) else Tensor(real_array(x, name))


def _record(inputs: Sequence[Tensor], out: Tensor, backward_fn: Callable) -> Tensor:
    """Make ``out`` own its graph node if any input is tracked.

    ``backward_fn`` must capture arrays, not ``out`` itself, so that a graph
    that never reaches ``backward`` holds no reference cycle.
    """
    if any(t._tracked for t in inputs):
        out._tracked = True
        out._node = (next(_SEQ), tuple(inputs), backward_fn)
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` by summing broadcast axes."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _check_broadcast(a: Tensor, b: Tensor, op: str) -> None:
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError as err:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} do not broadcast") from err


# ---------------------------------------------------------------------------
# pointwise primitives
# ---------------------------------------------------------------------------

def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _check_broadcast(a, b, "add")
    out = Tensor(a.data + b.data)

    def bwd(g):
        return (_unbroadcast(g, a.shape) if a._tracked else None,
                _unbroadcast(g, b.shape) if b._tracked else None)

    return _record((a, b), out, bwd)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _check_broadcast(a, b, "sub")
    out = Tensor(a.data - b.data)

    def bwd(g):
        return (_unbroadcast(g, a.shape) if a._tracked else None,
                _unbroadcast(-g, b.shape) if b._tracked else None)

    return _record((a, b), out, bwd)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _check_broadcast(a, b, "mul")
    out = Tensor(a.data * b.data)

    def bwd(g):
        return (_unbroadcast(g * b.data, a.shape) if a._tracked else None,
                _unbroadcast(g * a.data, b.shape) if b._tracked else None)

    return _record((a, b), out, bwd)


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _check_broadcast(a, b, "div")
    out = Tensor(a.data / b.data)
    y = out.data

    def bwd(g):
        return (_unbroadcast(g / b.data, a.shape) if a._tracked else None,
                _unbroadcast(-g * y / b.data, b.shape) if b._tracked else None)

    return _record((a, b), out, bwd)


def pow(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _check_broadcast(a, b, "pow")
    if b._tracked and np.any(a.data <= 0):
        raise DomainError(
            f"pow: non-positive base at index {first_index(a.data <= 0)} "
            "with differentiable exponent")
    out = Tensor(a.data ** b.data)
    y = out.data

    def bwd(g):
        ga = gb = None
        if a._tracked:
            ga = _unbroadcast(g * b.data * a.data ** (b.data - 1.0), a.shape)
        if b._tracked:
            gb = _unbroadcast(g * y * np.log(a.data), b.shape)
        return ga, gb

    return _record((a, b), out, bwd)


def neg(a) -> Tensor:
    a = as_tensor(a)
    out = Tensor(-a.data)
    return _record((a,), out, lambda g: (-g,))


def exp(a) -> Tensor:
    a = as_tensor(a)
    out = Tensor(np.exp(a.data))
    y = out.data
    return _record((a,), out, lambda g: (g * y,))


def log(a) -> Tensor:
    a = as_tensor(a)
    if np.any(a.data <= 0):
        raise DomainError(
            f"log: non-positive value at index {first_index(a.data <= 0)}")
    out = Tensor(np.log(a.data))
    return _record((a,), out, lambda g: (g / a.data,))


def log10(a) -> Tensor:
    a = as_tensor(a)
    if np.any(a.data <= 0):
        raise DomainError(
            f"log10: non-positive value at index {first_index(a.data <= 0)}")
    out = Tensor(np.log10(a.data))
    return _record((a,), out, lambda g: (g / (a.data * _LN10),))


def sqrt(a) -> Tensor:
    a = as_tensor(a)
    if np.any(a.data < 0):
        raise DomainError(f"sqrt: negative value at index {first_index(a.data < 0)}")
    out = Tensor(np.sqrt(a.data))
    y = out.data

    def bwd(g):
        # subgradient 0 at the origin keeps silent signals NaN-free
        denom = np.where(y > 0, 2.0 * y, 1.0)
        return (np.where(y > 0, g / denom, 0.0),)

    return _record((a,), out, bwd)


def abs(a) -> Tensor:  # noqa: A001
    a = as_tensor(a)
    out = Tensor(np.abs(a.data))
    return _record((a,), out, lambda g: (g * np.sign(a.data),))


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    x = a.data
    # e = exp(-|x|) never overflows: 1 / (1 + e) for x >= 0, e / (1 + e) below
    e = np.exp(-np.abs(x))
    out = Tensor(np.where(x >= 0, 1.0, e) / (1.0 + e))
    y = out.data
    return _record((a,), out, lambda g: (g * y * (1.0 - y),))


def clamp_min(a, floor: float) -> Tensor:
    a = as_tensor(a)
    floor = float(floor)
    out = Tensor(np.maximum(a.data, floor))
    # gradient passes on the closed side (a >= floor)
    return _record((a,), out, lambda g: (np.where(a.data >= floor, g, 0.0),))


def clamp(a, lo: float, hi: float) -> Tensor:
    a = as_tensor(a)
    lo, hi = float(lo), float(hi)
    out = Tensor(np.clip(a.data, lo, hi))

    def bwd(g):
        keep = (a.data >= lo) & (a.data <= hi)
        return (np.where(keep, g, 0.0),)

    return _record((a,), out, bwd)


def minimum_with_zero(a) -> Tensor:
    """min(0, a), differentiable; used by the hinge losses."""
    return neg(clamp_min(neg(a), 0.0))


# ---------------------------------------------------------------------------
# reductions and shape ops
# ---------------------------------------------------------------------------

def sum(a, axis=None, keepdims=False) -> Tensor:  # noqa: A001
    a = as_tensor(a)
    out = Tensor(np.sum(a.data, axis=axis, keepdims=keepdims))

    def bwd(g):
        g = np.asarray(g)
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.shape).copy(),)

    return _record((a,), out, bwd)


def mean(a, axis=None, keepdims=False) -> Tensor:
    a = as_tensor(a)
    if axis is None:
        count = a.size
    else:
        axes = (axis,) if isinstance(axis, int) else tuple(axis)
        count = 1
        for ax in axes:
            count *= a.shape[ax]
    return div(sum(a, axis=axis, keepdims=keepdims), float(count))


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    out = Tensor(a.data.reshape(shape))
    return _record((a,), out, lambda g: (g.reshape(a.shape),))


# OpenBLAS gives a GEMM of s = m * k * n multiply-adds one thread when s is at
# most SMP_THRESHOLD_MIN * GEMM_MULTITHREAD_THRESHOLD = 65536 * 4, and
# s // (65536 * 4) threads (at most its pool's size) above that
# (interface/gemm.c), so a product under twice the bound stays on one thread
# whatever OPENBLAS_NUM_THREADS is.  numpy hands a product of one row or one
# column to GEMV, which OpenBLAS keeps on one thread below 115200 * 4
# (interface/gemv.c), and one row by one column to DOT, which it threads
# above 10000 terms.  How a pool splits a product changes its rounding.
_ONE_THREAD_MULADDS = 65536 * 4
_ONE_THREAD_DOT = 10000


def _spans(size: int, per: int) -> list[slice]:
    """``range(size)`` in slices of ``per``; when ``per > 1`` a one-line tail
    joins the slice before it, so no slice has one line unless ``size`` is 1."""
    cuts = list(range(0, size, per))
    if per > 1 and len(cuts) > 1 and size - cuts[-1] == 1:
        cuts.pop()
    return [slice(lo, hi) for lo, hi in zip(cuts, cuts[1:] + [size])]


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` of 2-D float64 arrays, in tiles that OpenBLAS runs on one
    thread, so that the bits do not depend on ``OPENBLAS_NUM_THREADS``.

    Every matrix product of the package is made here.  Row blocks have at
    least two rows (unless ``a`` has one), and each is cut into column blocks
    so that a tile has at most ``_ONE_THREAD_MULADDS`` multiply-adds; only a
    one-column tail that joins the block before it makes a tile larger, by at
    most half.  An inner dimension deeper than ``_ONE_THREAD_MULADDS // 2``
    (``_ONE_THREAD_DOT`` for one row by one column) is cut into spans of that
    depth, whose partial products each tile adds in span order; a one-row or
    one-column tile is then small enough for GEMV, and a one-by-one tile for
    DOT.  The tiling depends on the shapes alone.  ``b`` is made C-contiguous
    once, which costs less than reading a transposed view in every tile.
    """
    b = np.ascontiguousarray(b)
    (m, k), n = a.shape, b.shape[1]
    deep = _ONE_THREAD_DOT if m == n == 1 else _ONE_THREAD_MULADDS // 2
    first, *rest = [slice(lo, lo + deep) for lo in range(0, max(k, 1), deep)]
    depth = min(k, deep)
    out = np.empty((m, n))
    for rows in _spans(m, max(2, _ONE_THREAD_MULADDS // max(1, depth * n))):
        height = rows.stop - rows.start
        for cols in _spans(n, max(1, _ONE_THREAD_MULADDS // max(1, depth * height))):
            tile = out[rows, cols]
            np.matmul(a[rows, first], b[first, cols], out=tile)
            for span in rest:
                tile += np.matmul(a[rows, span], b[span, cols])
    return out


def matmul(a, b) -> Tensor:
    """Matrix product with the usual 1-D promotion rules."""
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim == 1 and b.ndim == 1:
        return sum(mul(a, b))
    if a.ndim == 1:
        return reshape(matmul(reshape(a, (1, -1)), b), (-1,))
    if b.ndim == 1:
        return reshape(matmul(a, reshape(b, (-1, 1))), (-1,))
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul: expected 1-D or 2-D operands, got {a.shape} @ {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dimensions differ, {a.shape} @ {b.shape}")
    out = Tensor(_product(a.data, b.data))

    def bwd(g):
        return (_product(g, b.data.T) if a._tracked else None,
                _product(a.data.T, g) if b._tracked else None)

    return _record((a, b), out, bwd)


# ---------------------------------------------------------------------------
# spectral primitives (complex values as trailing real/imag planes)
# ---------------------------------------------------------------------------

def _to_complex(planes: np.ndarray) -> np.ndarray:
    """``(..., 2, B)`` real/imag planes -> a new ``(..., B)`` complex array."""
    out = np.empty(planes.shape[:-2] + planes.shape[-1:], dtype=complex)
    out.real = planes[..., 0, :]
    out.imag = planes[..., 1, :]
    return out


def _to_planes(spec: np.ndarray) -> np.ndarray:
    """``(..., B)`` complex -> a new ``(..., 2, B)`` array of real/imag planes."""
    planes = np.empty(spec.shape[:-1] + (2, spec.shape[-1]), dtype=spec.real.dtype)
    planes[..., 0, :] = spec.real
    planes[..., 1, :] = spec.imag
    return planes


def _rfft_adjoint(spec: np.ndarray, n: int) -> np.ndarray:
    """Adjoint of the size-``n`` half-spectrum DFT along the last axis.

    It is an unnormalized inverse of the full spectrum with the mirrored
    half left out; ``irfft`` counts each interior bin twice, so those are
    halved going in, in place in ``spec``.
    """
    spec[..., 1:-1] *= 0.5
    return np.fft.irfft(spec, n=n, axis=-1, norm="forward")


def _irfft_adjoint(grad: np.ndarray, n: int) -> np.ndarray:
    """Adjoint of the size-``n`` inverse real FFT along the last axis.

    A complex half spectrum: the ``rfft`` of ``grad`` with every bin divided
    by ``n`` and the interior ones, which ``irfft`` counts twice, doubled.
    """
    spec = np.fft.rfft(grad, n=n, axis=-1)
    scale = np.full(n // 2 + 1, 2.0 / n)
    scale[0] = 1.0 / n
    scale[-1] = 1.0 / n
    np.multiply(spec.real, scale, out=spec.real)
    np.multiply(spec.imag, scale, out=spec.imag)
    return spec


def rfft(a, n: int) -> Tensor:
    """Real-input FFT along the last axis, zero-padded to ``n``.

    Returns a tensor of shape ``(..., 2, n // 2 + 1)`` holding the real and
    imaginary planes.  The backward pass is the exact adjoint transform.
    """
    a = as_tensor(a)
    check_framing("rfft: ", n=n, transform=True, error=ShapeError)
    length = a.shape[-1]
    if length > n:
        raise ShapeError(f"rfft: input length {length} exceeds transform size {n}")
    out = Tensor(_to_planes(np.fft.rfft(a.data, n=n, axis=-1)))

    def bwd(g):
        return (_rfft_adjoint(_to_complex(g), n)[..., :length],)

    return _record((a,), out, bwd)


def irfft(z, n: int) -> Tensor:
    """Inverse real FFT of a ``(..., 2, n // 2 + 1)`` spectrum tensor."""
    z = as_tensor(z)
    check_framing("irfft: ", n=n, transform=True, error=ShapeError)
    if z.shape[-2] != 2 or z.shape[-1] != n // 2 + 1:
        raise ShapeError(f"irfft: expected (..., 2, {n // 2 + 1}) planes, got {z.shape}")
    out = Tensor(np.fft.irfft(_to_complex(z.data), n=n, axis=-1))
    return _record((z,), out, lambda g: (_to_planes(_irfft_adjoint(g, n)),))


def complex_abs(z) -> Tensor:
    """Magnitude of a spectrum tensor: ``(..., 2, B) -> (..., B)``.

    The subgradient at exact zeros is zero, which keeps fully silent frames
    from poisoning a backward pass with NaNs.
    """
    z = as_tensor(z)
    if z.ndim < 2 or z.shape[-2] != 2:
        raise ShapeError(f"complex_abs: expected (..., 2, B) planes, got {z.shape}")
    re, im = z.data[..., 0, :], z.data[..., 1, :]
    mag = re * re
    mag += im * im
    np.sqrt(mag, out=mag)
    out = Tensor(mag)

    def bwd(g):
        scale = np.divide(g, mag, out=np.zeros_like(mag), where=mag > 0)
        return (z.data * scale[..., None, :],)

    return _record((z,), out, bwd)


# ---------------------------------------------------------------------------
# framing, overlap-add, strictly causal FIR
# ---------------------------------------------------------------------------

def _overlap_into(buf: np.ndarray, frames: np.ndarray, hop: int, first: int = 0) -> None:
    """Add ``(T, frame_len)`` frames into ``buf``, frame ``t`` at ``(first + t) * hop``.

    Each frame is cut into ``k = ceil(frame_len / hop)`` hop-long chunks (the
    last one zero-padded), so chunk ``j`` of every frame lands on block
    ``t + j`` of a ``(T + k - 1, hop)`` view: ``k`` strided slice-adds
    instead of a loop over frames.  Chunks go in from the last to the first,
    which gives every sample its terms in frame order, as a frame loop would;
    so do calls for consecutive runs of frames made in frame order.  ``buf``
    must hold ``(first + T + k - 1) * hop`` samples.
    """
    n_frames, frame_len = frames.shape
    k = -(-frame_len // hop)
    if k * hop != frame_len:
        frames = np.pad(frames, ((0, 0), (0, k * hop - frame_len)))
    n_blocks = n_frames + k - 1
    blocks = buf[first * hop: (first + n_blocks) * hop].reshape(n_blocks, hop)
    chunks = frames.reshape(n_frames, k, hop)
    for j in reversed(range(k)):
        blocks[j: j + n_frames] += chunks[:, j]


def _overlap_sum(frames: np.ndarray, hop: int, total: int) -> np.ndarray:
    """Sum ``(T, frame_len)`` frames placed at ``t * hop`` into ``total`` samples
    (:func:`_overlap_into` on zeros)."""
    n_frames, frame_len = frames.shape
    n_blocks = n_frames + -(-frame_len // hop) - 1
    buf = np.zeros(max(total, n_blocks * hop), frames.dtype)
    _overlap_into(buf, frames, hop)
    return buf[:total]


def _frames_view(signal: np.ndarray, frame_len: int, hop: int,
                 n_frames: int) -> np.ndarray:
    """Read-only ``(n_frames, frame_len)`` view of a 1-D signal, frame ``t``
    at sample ``t * hop``: one strided view of a contiguous signal, no copy.

    The view is built on the signal's buffer, in about a third of the time
    that ``as_strided`` takes; a buffer must be contiguous, so a strided
    signal is copied first.  Raises ``ShapeError`` unless the signal holds
    every sample of every frame.
    """
    need = (n_frames - 1) * hop + frame_len
    if n_frames > 0 and need > signal.shape[0]:
        raise ShapeError(f"frames: {n_frames} frames of {frame_len} samples at hop "
                         f"{hop} need {need} samples, the signal has {signal.shape[0]}")
    signal = np.ascontiguousarray(signal)
    step = signal.itemsize
    view = np.ndarray((n_frames, frame_len), signal.dtype, signal,
                      strides=(hop * step, step))
    view.flags.writeable = False
    return view


def frame(a, frame_len: int, hop: int, n_frames: int, pad_left: int) -> Tensor:
    """Gather ``n_frames`` windows of ``frame_len`` samples at ``hop`` spacing.

    Frame ``t`` covers input samples ``[t*hop - pad_left, t*hop - pad_left +
    frame_len)``; out-of-range samples read as zero.  The adjoint scatters
    gradients back with the same geometry.
    """
    a = as_tensor(a)
    if a.ndim != 1:
        raise ShapeError(f"frame: expected a 1-D signal, got shape {a.shape}")
    check_framing("frame: ", hop=hop, error=ShapeError)
    length = a.shape[0]
    total = (n_frames - 1) * hop + frame_len
    padded = np.zeros(total, dtype=a.data.dtype)
    lo = pad_left
    hi = min(total, pad_left + length)
    if hi > lo:
        padded[lo:hi] = a.data[: hi - lo]
    view = _frames_view(padded, frame_len, hop, n_frames)
    out = Tensor(view.copy())

    def bwd(g):
        buf = _overlap_sum(g, hop, total)
        grad = np.zeros(length)
        if hi > lo:
            grad[: hi - lo] = buf[lo:hi]
        return (grad,)

    return _record((a,), out, bwd)


def overlap_add(frames_t, hop: int, out_len: int, pad_left: int) -> Tensor:
    """Scatter-add ``(T, frame_len)`` frames into a signal of ``out_len``.

    Exact adjoint of :func:`frame` with matching geometry.
    """
    frames_t = as_tensor(frames_t)
    if frames_t.ndim != 2:
        raise ShapeError(f"overlap_add: expected (T, frame_len), got {frames_t.shape}")
    check_framing("overlap_add: ", hop=hop, error=ShapeError)
    n_frames, frame_len = frames_t.shape
    total = max((n_frames - 1) * hop + frame_len, pad_left + out_len)
    buf = _overlap_sum(frames_t.data, hop, total)
    out = Tensor(buf[pad_left: pad_left + out_len])

    def bwd(g):
        gpad = np.zeros(total)
        gpad[pad_left: pad_left + out_len] = g
        view = _frames_view(gpad, frame_len, hop, n_frames)
        return (view.copy(),)

    return _record((frames_t,), out, bwd)


def _convolve(x: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Full linear convolution of non-empty 1-D ``x`` and ``h`` by real FFT,
    zero-padded to a power of two: other lengths can be many times slower."""
    n = len(x) + len(h) - 1
    size = 1 << (n - 1).bit_length()
    return np.fft.irfft(np.fft.rfft(x, size) * np.fft.rfft(h, size), size)[:n]


def causal_fir(a, taps) -> Tensor:
    """Strictly causal FIR: ``y[t] = sum_l taps[l] * a[t - 1 - l]``, ``a``'s length.

    No tap reaches the current sample, so ``y[0] = 0``.  Differentiable in
    both the signal and the taps, which may outnumber the samples.
    """
    a, taps = as_tensor(a), as_tensor(taps)
    if a.ndim != 1 or taps.ndim != 1 or 0 in (a.size, taps.size):
        raise ShapeError("causal_fir: signal and taps must be non-empty and 1-D")
    length = a.shape[0]
    n_taps = taps.shape[0]
    out = Tensor(np.append(0.0, _convolve(a.data, taps.data)[: length - 1]))

    def bwd(g):
        # ga[s] = sum_l g[s + 1 + l] taps[l], gw[l] = sum_t g[t] a[t - 1 - l]
        ga = np.append(_convolve(g, taps.data[::-1])[n_taps:], 0.0)
        gw = _convolve(g, a.data[::-1])[length: length + n_taps]
        return ga, np.pad(gw, (0, n_taps - gw.size))

    return _record((a, taps), out, bwd)


# ---------------------------------------------------------------------------
# backward
# ---------------------------------------------------------------------------

def _graph_nodes(loss: Tensor) -> list[Tensor]:
    """The op outputs that ``loss`` reaches, oldest first."""
    nodes: list[Tensor] = []
    seen: set[Tensor] = set()
    stack = [loss]
    while stack:
        t = stack.pop()
        if t._node is None or t in seen:
            continue
        if t._node is _CONSUMED:
            raise ValidationError(
                f"backward: reached a node of shape {t.shape} whose graph an "
                "earlier backward already consumed; run the forward pass again")
        seen.add(t)
        nodes.append(t)
        stack.extend(t._node[1])
    nodes.sort(key=lambda t: t._node[0])
    return nodes


def backward(loss: Tensor) -> dict[Tensor, np.ndarray]:
    """Propagate gradients from a scalar loss back through its graph.

    Visits the nodes the loss reaches in reverse creation order, so every
    node's gradient is complete when it is visited, and consumes them: each
    node drops its inputs and backward function, which frees the graph's
    intermediates.  Returns a map from every gradient-requiring tensor
    reached to its gradient, the one place a gradient is read; tensors that
    never joined the graph do not appear in the map.  Raises
    ``ValidationError`` if the loss reaches a node that an earlier
    ``backward`` consumed.
    """
    if not isinstance(loss, Tensor):
        raise TypeError("backward expects a Tensor loss")
    if loss.size != 1:
        raise ShapeError(f"backward: loss must be a scalar, got shape {loss.shape}")
    nodes = _graph_nodes(loss)
    grads: dict[Tensor, np.ndarray] = {loss: np.ones_like(loss.data)}
    leaves = [loss] if loss.requires_grad else []
    while nodes:
        node = nodes.pop()
        _, inputs, bwd = node._node
        node._node = _CONSUMED
        g = grads.pop(node, None)
        if g is None:
            continue
        for tensor, grad in zip(inputs, bwd(g)):
            if grad is None or not tensor._tracked:
                continue
            if tensor in grads:
                grads[tensor] = grads[tensor] + grad
            else:
                grads[tensor] = grad
                if tensor.requires_grad:
                    leaves.append(tensor)
    return {tensor: np.asarray(grads[tensor], dtype=tensor.data.dtype).reshape(tensor.shape)
            for tensor in leaves}
