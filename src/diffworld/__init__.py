"""Differentiable WORLD-style vocoder toolkit.

Synthesis from (compressed) acoustic features, excitation-domain formant
transforms, spectral reconstruction losses, and gradient-based recovery of
compressed features, all running on a small reverse-mode tensor engine.
"""

from .errors import (DiffworldError, DomainError, FormatError, ShapeError,
                     ValidationError)
from .features import (CompressedFeatures, Waveform, WorldFeatures,
                       frames_for_samples, read_features, read_wav,
                       validate_features, write_features, write_wav)
from .fit import (AdamState, FitConfig, FitDivergence, adam_step,
                  smoothed_trace)
from .losses import (MslConfig, downsample_audio, feature_matching,
                     hinge_discriminator, hinge_generator, mse_features, msl,
                     msl_target, nll_loss)
from .melcodec import (MelBasis, compress, compress_ap, compress_sp,
                       decompress, decompress_ap, decompress_sp)
from .synth import (FirPostFilter, SynthConfig, excitation_spectra,
                    interpolate_f0, istft, oracle_target, pulse_train, render,
                    stft, synth_harmonic, synth_noise, synthesize,
                    synthesize_components)
from .excite import extract_excitation, reconstruct, transform_formants
from .tensor import Tensor, backward

__version__ = "0.1.0"

__all__ = [
    "AdamState", "CompressedFeatures", "DiffworldError", "DomainError",
    "FirPostFilter", "FitConfig", "FitDivergence", "FormatError",
    "MelBasis", "MslConfig", "ShapeError", "SynthConfig", "Tensor",
    "ValidationError", "Waveform", "WorldFeatures", "adam_step", "backward",
    "compress", "compress_ap", "compress_sp", "decompress",
    "decompress_ap", "decompress_sp", "downsample_audio",
    "excitation_spectra", "extract_excitation", "feature_matching",
    "frames_for_samples", "hinge_discriminator", "hinge_generator",
    "interpolate_f0", "istft", "mse_features", "msl", "msl_target", "nll_loss",
    "oracle_target", "pulse_train", "read_features", "read_wav", "reconstruct",
    "render", "smoothed_trace", "stft", "synth_harmonic", "synth_noise",
    "synthesize", "synthesize_components", "transform_formants",
    "validate_features", "write_features", "write_wav",
]
