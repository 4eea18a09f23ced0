"""Formant transforms in the excitation (STFT) domain.

The excitation spectrum of a recording is its STFT divided by the square
root of its spectral envelope; imposing a different envelope on the way back
moves formants while leaving the source (pitch, phase) untouched.
:func:`transform_formants` applies both steps as one gain,
``sqrt(sp_tgt / sp_src)``, so no excitation signal is ever synthesized.
With identical envelopes the transform is an identity, which the synthesis
branch cannot offer.

Envelopes are floored and the envelope ratio is clipped before the square
root: near-silent analysis frames would otherwise blow the division up.
"""

from __future__ import annotations

from . import melcodec
from . import tensor as dt
from .synth import SynthConfig, _check_feature_frames, _spectral_shape, istft, stft

ENVELOPE_FLOOR = 1e-10
RATIO_LO = 1e-6
RATIO_HI = 1e6


def transform_formants(x, sp_src, sp_tgt, cfg: SynthConfig,
                       use_decompressed: bool = False) -> dt.Tensor:
    """Replace the envelope of ``x``: ``istft(sqrt(sp_tgt / sp_src) * stft(x))``.

    Differentiable with respect to ``sp_tgt`` (pass it as a tensor, e.g. a
    decompressed log-mel representation).  ``use_decompressed`` routes both
    envelopes through the mel codec (``DEFAULT_N_MELS`` bands) first, trading
    exactness for the compressed-domain behavior.
    """
    x = dt.as_tensor(x)
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
    ratio = dt.clamp(dt.div(dt.clamp_min(sp_tgt, ENVELOPE_FLOOR),
                            dt.clamp_min(sp_src, ENVELOPE_FLOOR)),
                     RATIO_LO, RATIO_HI)
    shaped = _spectral_shape(stft(x, cfg.fft_size, cfg.hop), dt.sqrt(ratio))
    return istft(shaped, cfg.fft_size, cfg.hop, x.shape[0])
