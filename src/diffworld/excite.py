"""Source-excitation manipulation without synthesizing an excitation signal.

The excitation spectrum of a recording is obtained by dividing its STFT by
the square root of a spectral envelope; imposing a different envelope on the
way back moves formants while leaving the source (pitch, phase) untouched.
With identical envelopes the roundtrip is an identity, which the synthesis
branch cannot offer.  The excitation only ever exists in the STFT domain.

Envelopes are floored and the envelope ratio is clipped before the square
root: near-silent analysis frames would otherwise blow the division up.
"""

from __future__ import annotations

from . import melcodec
from . import tensor as dt
from .synth import SynthConfig, _check_feature_frames, istft, stft

ENVELOPE_FLOOR = 1e-10
RATIO_LO = 1e-6
RATIO_HI = 1e6


def extract_excitation(x, sp, cfg: SynthConfig) -> dt.Tensor:
    """Excitation spectrum of ``x`` given its envelope: ``stft(x) / sqrt(sp)``.

    Returns ``(T, 2, n_bins)`` real/imag planes; no time-domain excitation is
    materialized.
    """
    x = dt.as_tensor(x)
    sp = dt.as_tensor(sp)
    _check_feature_frames("sp", sp, x.shape[0], cfg.hop)
    inv_root = dt.div(1.0, dt.sqrt(dt.clamp_min(sp, ENVELOPE_FLOOR)))
    spec = stft(x, cfg.fft_size, cfg.hop)
    return dt.mul(spec, dt.reshape(inv_root, (sp.shape[0], 1, sp.shape[1])))


def reconstruct(excitation, sp, cfg: SynthConfig, length: int) -> dt.Tensor:
    """Impose an envelope on an excitation spectrum: ``istft(sqrt(sp) * E)``."""
    excitation = dt.as_tensor(excitation)
    sp = dt.as_tensor(sp)
    _check_feature_frames("sp", sp, excitation.shape[0] * cfg.hop, cfg.hop)
    root = dt.sqrt(dt.clamp_min(sp, 0.0))
    shaped = dt.mul(excitation, dt.reshape(root, (sp.shape[0], 1, sp.shape[1])))
    return istft(shaped, cfg.fft_size, cfg.hop, length)


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
    gain = dt.sqrt(ratio)
    spec = stft(x, cfg.fft_size, cfg.hop)
    shaped = dt.mul(spec, dt.reshape(gain, (sp_src.shape[0], 1, sp_src.shape[1])))
    return istft(shaped, cfg.fft_size, cfg.hop, x.shape[0])
