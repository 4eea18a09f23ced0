"""Formant transforms in the excitation (STFT) domain.

The excitation spectrum of a recording is its STFT divided by the square
root of its spectral envelope; imposing a different envelope on the way back
moves formants while leaving the source (pitch, phase) untouched.
:func:`transform_formants` applies both steps as one gain,
``sqrt(sp_tgt / sp_src)``, so no excitation signal is ever synthesized.
The gain, the STFT and the inverse run as one pass over blocks of frames
(:func:`synth._shaped_inverse`): each block computes the gain and the
spectra of its own frames of ``x``, so neither a gain nor a spectrum of the
whole recording exists, tracked or not.  With identical envelopes the
transform is an identity, which the synthesis branch cannot offer.

Envelopes are floored and the envelope ratio is clipped before the square
root: near-silent analysis frames would otherwise blow the division up.
"""

from __future__ import annotations

import numpy as np

from . import melcodec
from . import tensor as dt
from .errors import ValidationError
from .synth import SynthConfig, _check_feature_frames, _shaped_inverse
# no longer called here; perfbench's tracer and its smoke test expect to
# find them bound in this module
from .synth import istft, stft  # noqa: F401

ENVELOPE_FLOOR = 1e-10
RATIO_LO = 1e-6
RATIO_HI = 1e6


def transform_formants(x, sp_src, sp_tgt, cfg: SynthConfig,
                       use_decompressed: bool = False) -> dt.Tensor:
    """Replace the envelope of ``x``: ``istft(sqrt(sp_tgt / sp_src) * stft(x))``.

    Differentiable with respect to ``sp_tgt`` (pass it as a tensor, e.g. a
    decompressed log-mel representation) and ``sp_src``; ``x`` must be
    untracked, and a tracked ``x`` raises instead of losing its gradient.
    ``use_decompressed`` routes both envelopes through the mel codec
    (``DEFAULT_N_MELS`` bands) first, trading exactness for the
    compressed-domain behavior.
    """
    if isinstance(x, dt.Tensor):
        if x._tracked:
            raise ValidationError(
                "transform_formants: the signal x is tracked, but the transform is "
                "differentiable in the envelopes only; pass x untracked")
        x = x.data
    x = np.asarray(x, dtype=np.float64)
    if use_decompressed:
        basis = melcodec.MelBasis.build(cfg.sample_rate, cfg.fft_size)
        sp_src = melcodec.decompress_sp(
            melcodec.compress_sp(dt.as_tensor(sp_src), basis), basis)
        sp_tgt = melcodec.decompress_sp(
            melcodec.compress_sp(dt.as_tensor(sp_tgt), basis), basis)
    sp_src = dt.as_tensor(sp_src)
    sp_tgt = dt.as_tensor(sp_tgt)
    _check_feature_frames("sp_src", sp_src, x.shape[0], cfg.hop)
    _check_feature_frames("sp_tgt", sp_tgt, x.shape[0], cfg.hop)

    def ratio(sp_src, sp_tgt):
        src = np.maximum(sp_src, ENVELOPE_FLOOR)
        return src, np.maximum(sp_tgt, ENVELOPE_FLOOR) / src

    def value(sp_src, sp_tgt):
        return (np.sqrt(np.clip(ratio(sp_src, sp_tgt)[1], RATIO_LO, RATIO_HI)),)

    def adjoint(dgs, sp_src, sp_tgt):
        # the composed graph's backward ops in its order: sqrt's subgradient,
        # the clip, the division and each envelope's floor
        src, q = ratio(sp_src, sp_tgt)
        root = np.sqrt(np.clip(q, RATIO_LO, RATIO_HI))
        positive = root > 0
        denom = np.where(positive, 2.0 * root, 1.0)
        d_q = np.where((q >= RATIO_LO) & (q <= RATIO_HI),
                       np.where(positive, dgs[0] / denom, 0.0), 0.0)
        return (np.where(sp_src >= ENVELOPE_FLOOR, -d_q * q / src, 0.0),
                np.where(sp_tgt >= ENVELOPE_FLOOR, d_q / src, 0.0))

    return _shaped_inverse((x,), value, adjoint, (sp_src, sp_tgt), cfg.fft_size,
                           cfg.hop, x.shape[0])
