"""Differentiable feature compression: mel log envelope and coarse aperiodicity.

The spectral envelope is compressed to ``log10(M @ sqrt(sp) + eps)`` with a
triangular mel filterbank ``M`` and decompressed through the clamped
pseudo-inverse ``max(pinv(M), 0)``; the decompressed envelope is the square
of a non-negative quantity, so taking its square root downstream is exact and
differentiable.  Aperiodicity is resampled between the full bin grid and a
coarse grid of regularly spaced points by linear interpolation, which keeps
values inside [0, 1] because every output is a convex combination of inputs.

:func:`decode` is the one decoder of compressed features: ``synthesize``
(through :func:`decompress`) and ``fit`` render exactly what it returns.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import tensor as dt
from .errors import (DomainError, ShapeError, ValidationError, check_framing, check_integer,
                     check_real, real_array)
from .features import CompressedFeatures, WorldFeatures, _check_sp, validate_features

DEFAULT_EPSILON = 1e-5
DEFAULT_N_MELS = 80
DEFAULT_AP_BANDS = 16

_PINV_RCOND = 1e-10


def hz_to_mel(freq):
    return 2595.0 * np.log10(1.0 + np.asarray(freq, dtype=np.float64) / 700.0)


def mel_to_hz(mel):
    return 700.0 * (10.0 ** (np.asarray(mel, dtype=np.float64) / 2595.0) - 1.0)


@dataclass(frozen=True)
class MelBasis:
    """Mel filterbank, its clamped pseudo-inverse, and codec constants."""

    weights: np.ndarray       # (n_mels, n_bins), rows sum to 1
    pinv: np.ndarray          # (n_bins, n_mels), = max(pinv(weights), 0)
    epsilon: float

    @property
    def n_mels(self) -> int:
        return self.weights.shape[0]

    @property
    def n_bins(self) -> int:
        return self.weights.shape[1]

    @classmethod
    def build(cls, sample_rate: int, fft_size: int, n_mels: int = DEFAULT_N_MELS,
              epsilon: float = DEFAULT_EPSILON) -> "MelBasis":
        """Triangular bands on an HTK mel grid from 0 Hz to Nyquist.

        The arguments are checked before the cache sees them: an argument of
        the wrong type would otherwise fail inside it, or share the entry of
        the integer it equals (``80.0``, ``True``).
        """
        check_framing("MelBasis.build: ", sample_rate=sample_rate, fft_size=fft_size,
                      n_mels=n_mels)
        check_real(epsilon, "MelBasis.build: epsilon", 0, "a finite number >= 0")
        return cls._build(int(sample_rate), int(fft_size), int(n_mels), float(epsilon))

    @classmethod
    @functools.lru_cache(maxsize=32)
    def _build(cls, sample_rate: int, fft_size: int, n_mels: int,
               epsilon: float) -> "MelBasis":
        n_bins = fft_size // 2 + 1
        unresolved = (f"{n_mels} bands cannot be resolved by {n_bins} bins at "
                      f"sample rate {sample_rate}")
        # each bin lies inside at most two triangles: fail before allocating
        if n_mels > 2 * n_bins:
            raise ValidationError(f"mel bands have no support: {unresolved} "
                                  f"(at most {2 * n_bins})")
        nyquist = sample_rate / 2.0
        edges_hz = mel_to_hz(np.linspace(hz_to_mel(0.0), hz_to_mel(nyquist), n_mels + 2))
        bin_hz = np.linspace(0.0, nyquist, n_bins)
        weights = np.zeros((n_mels, n_bins))
        for m in range(n_mels):
            lo, mid, hi = edges_hz[m], edges_hz[m + 1], edges_hz[m + 2]
            rising = (bin_hz - lo) / max(mid - lo, 1e-12)
            falling = (hi - bin_hz) / max(hi - mid, 1e-12)
            weights[m] = np.clip(np.minimum(rising, falling), 0.0, None)
        row_sums = weights.sum(axis=1)
        empty = np.flatnonzero(row_sums == 0)
        if empty.size:
            raise ValidationError(f"mel band {empty[0]} has no support: {unresolved}")
        weights /= row_sums[:, None]
        pinv = np.linalg.pinv(weights, rcond=_PINV_RCOND)
        np.clip(pinv, 0.0, None, out=pinv)
        # clamping discards the pseudo-inverse's negative mass, which inflates
        # reconstructions by ~1.5x across the board; rescale each bin so a
        # flat envelope maps back to itself.  Weakly covered edge bins are
        # floored rather than amplified.
        flat_gain = dt._product(pinv, dt._product(weights, np.ones((n_bins, 1))))
        pinv /= np.maximum(flat_gain, 0.5)
        return cls(weights=weights, pinv=pinv, epsilon=epsilon)


def _rows(x, where: str, name: str, width: int | None = None) -> dt.Tensor:
    """``x`` as a tensor of one or ``(T, width)`` rows, by default at least 2 wide."""
    x = dt.as_tensor(x, name)
    if x.ndim not in (1, 2) or (x.shape[-1] != width if width else x.shape[-1] < 2):
        raise ShapeError(f"{where}: {name} must be (T, {width or 'points >= 2'}), "
                         f"got shape {x.shape}")
    return x


def compress_sp(sp, basis: MelBasis) -> dt.Tensor:
    """Envelope (T, n_bins) -> log mel (T, n_mels), differentiable."""
    sp = _rows(sp, "compress_sp", "sp", basis.n_bins)
    _check_sp(sp.data, DomainError)
    banded = dt.matmul(dt.sqrt(sp), dt.Tensor(basis.weights.T))
    return dt.log10(dt.add(banded, basis.epsilon))


def decompress_sp(s, basis: MelBasis) -> dt.Tensor:
    """Log mel (T, n_mels) -> approximate envelope (T, n_bins), >= 0.

    ``sp = R * R`` with the clamped root ``R = max((10**s - eps) @ pinv.T,
    0)``, one graph node on a tracked ``s``.  The node holds ``R`` and the
    mask of the bins where the clamp passes the gradient, but not the (T,
    n_bins) product that ``R`` clamps; the small (T, n_mels) power ``10**s``
    is made again.  Its backward pass takes the composed ops' backward steps
    in their order (``R * R``'s two terms, the clamp, the product, the
    power), so the bits match theirs.
    """
    s = _rows(s, "decompress_sp", "s", basis.n_mels)
    amplitude = np.power(10.0, s.data) - basis.epsilon
    root = dt._product(amplitude.reshape(-1, basis.n_mels), basis.pinv.T).reshape(
        s.shape[:-1] + (basis.n_bins,))
    passes = root >= 0.0 if s._tracked else None
    root = np.maximum(root, 0.0)
    out = dt.Tensor(root * root)
    if not s._tracked:
        return out

    def bwd(g):
        grad = g * root
        grad += grad
        np.copyto(grad, 0.0, where=~passes)
        grad = dt._product(grad.reshape(-1, basis.n_bins), basis.pinv).reshape(s.shape)
        grad *= np.power(10.0, s.data)  # made again from the input the node holds
        grad *= dt._LN10
        return (grad,)

    return dt._record((s,), out, bwd)


@functools.lru_cache(maxsize=32)
def _resample_matrix(n_src: int, n_dst: int) -> np.ndarray:
    """(n_dst, n_src) linear-interpolation weights between regular grids.

    Both grids span the same interval with endpoints included, so the weights
    depend only on the point counts; every row is a convex combination.
    """
    pos = np.linspace(0.0, n_src - 1.0, n_dst)
    lo = np.minimum(pos.astype(int), n_src - 2)
    frac = pos - lo
    mat = np.zeros((n_dst, n_src))
    rows = np.arange(n_dst)
    mat[rows, lo] = 1.0 - frac
    mat[rows, lo + 1] += frac
    return mat


def compress_ap(ap, n_bands: int = DEFAULT_AP_BANDS) -> dt.Tensor:
    """Aperiodicity (T, n_bins) -> (T, n_bands) on a coarse regular grid."""
    check_integer(n_bands, "compress_ap: n_bands", 2)  # a grid's two ends
    ap = _rows(ap, "compress_ap", "ap")
    return dt.matmul(ap, dt.Tensor(_resample_matrix(ap.shape[-1], n_bands).T))


def decompress_ap(a, n_bins: int) -> dt.Tensor:
    """Coarse aperiodicity (T, n_bands) -> (T, n_bins); stays in [0, 1]."""
    check_integer(n_bins, "decompress_ap: n_bins", 2)
    a = _rows(a, "decompress_ap", "a")
    return dt.matmul(a, dt.Tensor(_resample_matrix(a.shape[-1], n_bins).T))


def decode(f0: np.ndarray, log_mel, coded_ap,
           basis: MelBasis) -> tuple[dt.Tensor, dt.Tensor]:
    """Compressed features -> ``(sp, ap)``, differentiable in both inputs.

    ``log_mel`` and ``coded_ap`` must be 2-D, one row per frame of ``f0``,
    or ``ShapeError`` is raised.  ``sp`` is :func:`decompress_sp`'s.  ``ap``
    is :func:`decompress_ap`'s, clamped to [0, 1] (rounding crumbs at the
    ends) and exactly 1 on unvoiced frames: ``ap * v + (1 - v)`` with the
    voiced mask ``v``.  Each is one graph node on its tracked input; ``ap``'s
    holds only the mask of the bins that the clamp passes, and its backward
    pass is the composed ops' (the mask ``v``, the clamp, the resampling's
    adjoint) in their order.  Both codec functions are called by their
    module names, so a wrapper installed there sees every decode.
    """
    f0 = real_array(f0, "f0")
    if f0.ndim != 1:
        raise ShapeError(f"decode: f0 must be 1-D, got shape {f0.shape}")
    log_mel, coded_ap = dt.as_tensor(log_mel, "log_mel"), dt.as_tensor(coded_ap, "coded_ap")
    for name, x, columns in (("log_mel", log_mel, "mels"), ("coded_ap", coded_ap, "bands")):
        if x.ndim != 2 or x.shape[0] != len(f0):
            raise ShapeError(f"decode: {name} must be ({len(f0)}, {columns}), one row "
                             f"per frame of f0; got {x.shape}")
    sp = decompress_sp(log_mel, basis)
    voiced = (f0 > 0).astype(np.float64)[:, None]
    ap = decompress_ap(coded_ap.data, basis.n_bins).data
    passes = (ap >= 0.0) & (ap <= 1.0) if coded_ap._tracked else None
    ap = np.clip(ap, 0.0, 1.0)
    ap = dt.Tensor(ap * voiced + (1.0 - voiced))
    if not coded_ap._tracked:
        return sp, ap
    resample = _resample_matrix(coded_ap.shape[-1], basis.n_bins)

    def bwd(g):
        return (dt._product(np.where(passes, g * voiced, 0.0), resample),)

    return sp, dt._record((coded_ap,), ap, bwd)


# ---------------------------------------------------------------------------
# container-level conveniences
# ---------------------------------------------------------------------------

def compress(feats: WorldFeatures, n_mels: int = DEFAULT_N_MELS,
             ap_bands: int = DEFAULT_AP_BANDS) -> CompressedFeatures:
    check_integer(ap_bands, "ap_bands", 2)
    feats = validate_features(feats)
    basis = MelBasis.build(feats.sample_rate, feats.fft_size, n_mels)
    return CompressedFeatures(
        f0=feats.f0,
        log_mel=compress_sp(feats.sp, basis).data,
        coded_ap=compress_ap(feats.ap, ap_bands).data,
        sample_rate=feats.sample_rate, hop=feats.hop, fft_size=feats.fft_size)


def decompress(feats: CompressedFeatures) -> WorldFeatures:
    feats = validate_features(feats)
    basis = MelBasis.build(feats.sample_rate, feats.fft_size, feats.n_mels)
    sp, ap = decode(feats.f0, feats.log_mel, feats.coded_ap, basis)
    return WorldFeatures(
        f0=feats.f0, sp=sp.data, ap=ap.data,
        sample_rate=feats.sample_rate, hop=feats.hop, fft_size=feats.fft_size)
