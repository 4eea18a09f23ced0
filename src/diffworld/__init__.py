"""Differentiable WORLD-style vocoder toolkit.

Synthesis from (compressed) acoustic features, excitation-domain formant
transforms, spectral reconstruction losses, and gradient-based recovery of
compressed features, all running on a small reverse-mode tensor engine.
"""

from .errors import (DiffworldError, DomainError, FormatError, ShapeError,
                     ValidationError)
from .features import (CompressedFeatures, Waveform, WorldFeatures,
                       read_features, read_wav, validate_features,
                       write_features, write_wav)
from .fit import AdamState, FitConfig, FitDivergence, adam_step
from .losses import (MslConfig, feature_matching, hinge_discriminator,
                     hinge_generator, mse_features, msl, msl_target)
from .melcodec import (MelBasis, compress, compress_ap, compress_sp, decode,
                       decompress, decompress_ap, decompress_sp)
from .synth import (FirPostFilter, SynthConfig, excitation_spectra,
                    interpolate_f0, istft, pulse_train, render, stft,
                    synthesize, synthesize_components)
from .excite import transform_formants
from .tensor import Tensor, backward

__version__ = "0.1.0"

__all__ = [
    "AdamState", "CompressedFeatures", "DiffworldError", "DomainError",
    "FirPostFilter", "FitConfig", "FitDivergence", "FormatError",
    "MelBasis", "MslConfig", "ShapeError", "SynthConfig", "Tensor",
    "ValidationError", "Waveform", "WorldFeatures", "adam_step", "backward",
    "compress", "compress_ap", "compress_sp", "decode", "decompress",
    "decompress_ap", "decompress_sp", "excitation_spectra",
    "feature_matching", "hinge_discriminator", "hinge_generator",
    "interpolate_f0", "istft", "mse_features", "msl", "msl_target",
    "pulse_train", "read_features", "read_wav", "render", "stft",
    "synthesize", "synthesize_components", "transform_formants",
    "validate_features", "write_features", "write_wav",
]
