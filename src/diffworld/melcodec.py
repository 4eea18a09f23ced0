"""Differentiable feature compression: mel log envelope and coarse aperiodicity.

The spectral envelope is compressed to ``log10(M @ sqrt(sp) + eps)`` with a
triangular mel filterbank ``M`` and decompressed through the clamped
pseudo-inverse ``max(pinv(M), 0)``; the decompressed envelope is the square
of a non-negative quantity, so taking its square root downstream is exact and
differentiable.  Aperiodicity is resampled between the full bin grid and a
coarse grid of regularly spaced points by linear interpolation, which keeps
values inside [0, 1] because every output is a convex combination of inputs.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import tensor as dt
from .errors import DomainError, ValidationError
from .features import CompressedFeatures, WorldFeatures, validate_features

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
    band_edges_hz: np.ndarray  # (n_mels + 2,)
    sample_rate: int
    fft_size: int

    @property
    def n_mels(self) -> int:
        return self.weights.shape[0]

    @property
    def n_bins(self) -> int:
        return self.weights.shape[1]

    @classmethod
    @functools.lru_cache(maxsize=32)
    def build(cls, sample_rate: int, fft_size: int, n_mels: int = DEFAULT_N_MELS,
              epsilon: float = DEFAULT_EPSILON) -> "MelBasis":
        """Triangular bands on an HTK mel grid from 0 Hz to Nyquist."""
        n_bins = fft_size // 2 + 1
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
            raise ValidationError(
                f"mel band {empty[0]} has no support: {n_mels} bands cannot be "
                f"resolved by {n_bins} bins at sample rate {sample_rate}")
        weights /= row_sums[:, None]
        pinv = np.linalg.pinv(weights, rcond=_PINV_RCOND)
        np.clip(pinv, 0.0, None, out=pinv)
        # clamping discards the pseudo-inverse's negative mass, which inflates
        # reconstructions by ~1.5x across the board; rescale each bin so a
        # flat envelope maps back to itself.  Weakly covered edge bins are
        # floored rather than amplified.
        flat_gain = pinv @ (weights @ np.ones(n_bins))
        pinv /= np.maximum(flat_gain, 0.5)[:, None]
        return cls(weights=weights, pinv=pinv, epsilon=float(epsilon),
                   band_edges_hz=edges_hz, sample_rate=sample_rate, fft_size=fft_size)


def compress_sp(sp, basis: MelBasis) -> dt.Tensor:
    """Envelope (T, n_bins) -> log mel (T, n_mels), differentiable."""
    sp = dt.as_tensor(sp)
    if np.any(sp.data < 0):
        frame, bin_ = (int(i) for i in np.argwhere(sp.data < 0)[0])
        raise DomainError(f"sp is negative at frame {frame}, bin {bin_}")
    if sp.shape[-1] != basis.n_bins:
        raise ValidationError(f"expected {basis.n_bins} bins, got {sp.shape[-1]}")
    banded = dt.matmul(dt.sqrt(sp), dt.Tensor(basis.weights.T))
    return dt.log10(dt.add(banded, basis.epsilon))


def decompress_sp(s, basis: MelBasis) -> dt.Tensor:
    """Log mel (T, n_mels) -> approximate envelope (T, n_bins), >= 0."""
    s = dt.as_tensor(s)
    if s.shape[-1] != basis.n_mels:
        raise ValidationError(f"expected {basis.n_mels} mel bands, got {s.shape[-1]}")
    amplitude = dt.sub(dt.pow(10.0, s), basis.epsilon)
    root = dt.clamp_min(dt.matmul(amplitude, dt.Tensor(basis.pinv.T)), 0.0)
    return dt.mul(root, root)


@functools.lru_cache(maxsize=32)
def _resample_matrix(n_src: int, n_dst: int) -> np.ndarray:
    """(n_dst, n_src) linear-interpolation weights between regular grids.

    Both grids span the same interval with endpoints included, so the weights
    depend only on the point counts; every row is a convex combination.
    """
    if n_src < 2 or n_dst < 2:
        raise ValidationError("resampling grids need at least two points")
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
    ap = dt.as_tensor(ap)
    return dt.matmul(ap, dt.Tensor(_resample_matrix(ap.shape[-1], n_bands).T))


def decompress_ap(a, n_bins: int) -> dt.Tensor:
    """Coarse aperiodicity (T, n_bands) -> (T, n_bins); stays in [0, 1]."""
    a = dt.as_tensor(a)
    return dt.matmul(a, dt.Tensor(_resample_matrix(a.shape[-1], n_bins).T))


# ---------------------------------------------------------------------------
# container-level conveniences
# ---------------------------------------------------------------------------

def compress(feats: WorldFeatures, n_mels: int = DEFAULT_N_MELS,
             ap_bands: int = DEFAULT_AP_BANDS) -> CompressedFeatures:
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
    ap = decompress_ap(feats.coded_ap, feats.fft_size // 2 + 1).data
    ap = np.clip(ap, 0.0, 1.0)  # guard float crumbs at the 0/1 endpoints
    ap[feats.f0 == 0, :] = 1.0
    return WorldFeatures(
        f0=feats.f0, sp=decompress_sp(feats.log_mel, basis).data, ap=ap,
        sample_rate=feats.sample_rate, hop=feats.hop, fft_size=feats.fft_size)
