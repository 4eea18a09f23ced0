"""Argument sweep: a bad scalar or array argument to a public callable raises
a DiffworldError that names the argument.

Each row of ``CASES`` runs one callable of ``diffworld.__all__`` (a feature
container through ``validate_features``, a ``Waveform`` through
``write_wav``), or ``noise_excitation`` or ``scale_loss``, on small valid
inputs with one argument replaced.  Integers and framing arguments get a
bool, a float integer, a numpy float, a negative, NaN and inf; reals get a
bool, NaN and inf, and a negative where they have a lower bound; arrays get
the wrong ``ndim``, a complex array (a real one where a complex spectrum is
due) and an empty one.  None may end in a bare ``TypeError``, a numpy error
or warning, or a result.  Valid values of another type (a numpy integer for
an integer, a numpy float for a real, an empty waveform) must still pass.
"""

import re
import warnings

import numpy as np
import pytest

import diffworld as dw
from diffworld import DiffworldError
from diffworld import losses as ls
from diffworld import synth as sy

SR, FFT, HOP, T, MELS, BANDS = 8000, 64, 16, 8, 16, 4
BINS = FFT // 2 + 1
RS = np.random.default_rng(26)
CFG = dw.SynthConfig(sample_rate=SR, fft_size=FFT)
BASIS = dw.MelBasis.build(SR, FFT, MELS)
F0 = np.full(T, 150.0)
SP, AP = RS.uniform(0.5, 1.5, (T, BINS)), np.full((T, BINS), 0.3)
LOG_MEL, CODED_AP = np.full((T, MELS), -1.0), np.full((T, BANDS), 0.3)
X = 0.1 * RS.normal(size=T * HOP)
SPEC = sy.excitation_spectra(F0, CFG)
PLANES = dw.stft(X, FFT, HOP).data
CLOCK = dict(sample_rate=SR, hop=HOP, fft_size=FFT)


def validated(container):
    return lambda **fields: dw.validate_features(container(**fields))


def write_wav(path, **fields):
    dw.write_wav(path / "x.wav", dw.Waveform(**fields))


def read_wav(path, **kwargs):
    dw.write_wav(path / "x.wav", dw.Waveform(X, SR))
    return dw.read_wav(path / "x.wav", **kwargs)


# label: (callable, valid keyword arguments, [(argument, kind)]).  A kind is
# ("integer", lower bound), ("framing", lower bound), ("real", lower bound or
# None), or (form, ndim) of an array: "array", "spectrum" (complex), "audio"
# (which may be empty) and "data" (any shape).  The callables that write or
# read a file take the test's directory first.
CASES = {
    "AdamState": (dw.AdamState, dict(step=0, m={}, v={}), [("step", ("integer", 0))]),
    "CompressedFeatures": (
        validated(dw.CompressedFeatures),
        dict(f0=F0, log_mel=LOG_MEL, coded_ap=CODED_AP, **CLOCK),
        [("sample_rate", ("integer", 1)), ("hop", ("framing", 1)),
         ("fft_size", ("framing", 1)), ("f0", ("array", 1)), ("log_mel", ("array", 2)),
         ("coded_ap", ("array", 2))]),
    "FirPostFilter": (dw.FirPostFilter, dict(taps=np.r_[0.0, 0.5, 0.25]),
                      [("taps", ("array", 1))]),
    "FitConfig": (dw.FitConfig, dict(steps=10, learning_rate=0.01, alpha=0.5), [
        ("steps", ("integer", 1)), ("learning_rate", ("real", 0)),
        ("alpha", ("real", None))]),
    "MelBasis": (dw.MelBasis.build,
                 dict(sample_rate=SR, fft_size=FFT, n_mels=MELS, epsilon=1e-5), [
                     ("sample_rate", ("integer", 1)), ("fft_size", ("framing", 1)),
                     ("n_mels", ("integer", 1)), ("epsilon", ("real", 0))]),
    "MslConfig": (dw.MslConfig, dict(scales=2), [("scales", ("integer", 1))]),
    "SynthConfig": (
        dw.SynthConfig,
        dict(sample_rate=SR, fft_size=FFT, hop=HOP, gain_harmonic=1.0, gain_noise=1.0,
             gain_dry=1.0, gain_fir=1.0, noise_seed=0),
        [("sample_rate", ("integer", 1)), ("fft_size", ("framing", 1)),
         ("hop", ("framing", 1)), ("gain_harmonic", ("real", None)),
         ("gain_noise", ("real", None)), ("gain_dry", ("real", None)),
         ("gain_fir", ("real", None)), ("noise_seed", ("integer", 0))]),
    "Tensor": (dw.Tensor, dict(data=SP), [("data", ("data", 2))]),
    "WorldFeatures": (
        validated(dw.WorldFeatures), dict(f0=F0, sp=SP, ap=AP, **CLOCK),
        [("sample_rate", ("integer", 1)), ("hop", ("framing", 1)),
         ("fft_size", ("framing", 1)), ("f0", ("array", 1)), ("sp", ("array", 2)),
         ("ap", ("array", 2))]),
    "compress": (dw.compress, dict(feats=dw.validate_features(dw.WorldFeatures(
        f0=F0, sp=SP, ap=AP, **CLOCK)), n_mels=MELS, ap_bands=BANDS), [
        ("n_mels", ("integer", 1)), ("ap_bands", ("integer", 2))]),
    "compress_ap": (dw.compress_ap, dict(ap=AP, n_bands=BANDS), [
        ("ap", ("array", 2)), ("n_bands", ("integer", 2))]),
    "compress_sp": (dw.compress_sp, dict(sp=SP, basis=BASIS), [("sp", ("array", 2))]),
    "decode": (dw.decode, dict(f0=F0, log_mel=LOG_MEL, coded_ap=CODED_AP, basis=BASIS), [
        ("f0", ("array", 1)), ("log_mel", ("array", 2)), ("coded_ap", ("array", 2))]),
    "decompress_ap": (dw.decompress_ap, dict(a=CODED_AP, n_bins=BINS), [
        ("a", ("array", 2)), ("n_bins", ("integer", 2))]),
    "decompress_sp": (dw.decompress_sp, dict(s=LOG_MEL, basis=BASIS),
                      [("s", ("array", 2))]),
    "excitation_spectra": (dw.excitation_spectra, dict(f0=F0, cfg=CFG),
                           [("f0", ("array", 1))]),
    "feature_matching": (dw.feature_matching, dict(real_maps=[[X]], fake_maps=[[X]],
                                                   lam=1.0), [("lam", ("real", None))]),
    "hinge_discriminator": (dw.hinge_discriminator,
                            dict(real_scores=[X], fake_scores=[X], mu=1.0),
                            [("mu", ("real", None))]),
    "hinge_generator": (dw.hinge_generator, dict(scores=[X], mu=1.0),
                        [("mu", ("real", None))]),
    "interpolate_f0": (dw.interpolate_f0, dict(f0=F0, hop=HOP), [
        ("f0", ("array", 1)), ("hop", ("framing", 1))]),
    "istft": (dw.istft, dict(spec=PLANES, fft_size=FFT, hop=HOP, length=len(X)), [
        ("spec", ("array", 3)), ("fft_size", ("framing", 2)), ("hop", ("framing", 1)),
        ("length", ("framing", 1))]),
    "mse_features": (dw.mse_features, dict(x=SP, y=SP), [
        ("x", ("array", 2)), ("y", ("array", 2))]),
    "msl": (dw.msl, dict(x=X, y=X, cfg=dw.MslConfig(scales=2)), [
        ("x", ("array", 1)), ("y", ("array", 1))]),
    "msl_target": (dw.msl_target, dict(x=X), [("x", ("array", 1))]),
    "noise_excitation": (sy.noise_excitation, dict(n_samples=10, seed=0), [
        ("n_samples", ("integer", 0)), ("seed", ("integer", 0))]),
    "pulse_train": (dw.pulse_train, dict(f0_audio=np.full(T * HOP, 150.0),
                                         mask=np.ones(T * HOP), cfg=CFG), [
        ("f0_audio", ("array", 1)), ("mask", ("array", 1))]),
    "read_wav": (read_wav, dict(expect_sample_rate=SR),
                 [("expect_sample_rate", ("integer", 1))]),
    "render": (dw.render, dict(spec_h=SPEC[0], spec_n=SPEC[1], sp=SP, ap=AP, cfg=CFG), [
        ("spec_h", ("spectrum", 2)), ("spec_n", ("spectrum", 2)), ("sp", ("array", 2)),
        ("ap", ("array", 2))]),
    "scale_loss": (ls.scale_loss, dict(x=X, y=X, window=FFT), [
        ("x", ("array", 1)), ("y", ("array", 1)), ("window", ("framing", 2))]),
    "stft": (dw.stft, dict(x=X, fft_size=FFT, hop=HOP), [
        ("x", ("array", 1)), ("fft_size", ("framing", 2)), ("hop", ("framing", 1))]),
    "synthesize_components": (dw.synthesize_components,
                              dict(f0=F0, sp=SP, ap=AP, cfg=CFG), [
        ("f0", ("array", 1)), ("sp", ("array", 2)), ("ap", ("array", 2))]),
    "transform_formants": (dw.transform_formants,
                           dict(x=X, sp_src=SP, sp_tgt=SP, cfg=CFG), [
        ("x", ("array", 1)), ("sp_src", ("array", 2)), ("sp_tgt", ("array", 2))]),
    "write_wav": (write_wav, dict(samples=X, sample_rate=SR), [
        ("sample_rate", ("integer", 1)), ("samples", ("audio", 1))]),
}
ON_FILES = ("read_wav", "write_wav")
# public callables whose arguments are none of the kinds above: feature
# containers, configs, paths, dicts of parameters and callables
NO_SUCH_ARGUMENT = {"adam_step", "backward", "decompress", "read_features", "synthesize",
                    "validate_features", "write_features", "Waveform"}
ARGUMENTS = [(label, name, kind) for label, (_, _, args) in CASES.items()
             for name, kind in args]


def bad_values(kind, valid):
    """(label, value) of each bad value of an argument of ``kind``."""
    form, bound = kind
    if form in ("integer", "framing"):
        return [("bool", True), ("float integer", 16.0), ("numpy float", np.float64(16)),
                ("negative", min(bound, 0) - 1), ("nan", np.nan), ("inf", np.inf)]
    if form == "real":
        bad = [("bool", True), ("nan", np.nan), ("inf", np.inf), ("-inf", -np.inf)]
        return bad + ([("negative", bound - 1e-3)] if bound is not None else [])
    valid = np.asarray(valid)
    if form == "spectrum":
        return [("ndim", valid[..., None]), ("real", valid.real),
                ("empty", np.zeros((0,) * bound, complex))]
    bad = [("complex", valid + 1j)]
    if form == "data":
        return bad
    bad.append(("ndim", valid[..., None]))
    return bad + ([] if form == "audio" else [("empty", np.zeros((0,) * bound))])


def valid_values(kind, valid):
    """Valid values of another type, which must pass: the numpy scalar of
    the same value, an empty waveform, and tensor data of any shape."""
    form, _ = kind
    if form in ("integer", "framing"):
        return [np.int64(valid)]
    if form == "real":
        return [np.float64(valid), float(valid)]
    return {"audio": [np.zeros(0)], "data": [np.zeros(0), np.zeros((2, 3))]}.get(form, [])


def run(label, tmp_path, **over):
    call, valid, _ = CASES[label]
    kwargs = {**valid, **over}
    return call(tmp_path, **kwargs) if label in ON_FILES else call(**kwargs)


def test_every_public_callable_is_swept():
    errors = {name for name in dw.__all__ if isinstance(getattr(dw, name), type)
              and issubclass(getattr(dw, name), Exception)}
    assert set(dw.__all__) - errors - NO_SUCH_ARGUMENT <= set(CASES)


@pytest.mark.parametrize("label, name, kind", ARGUMENTS,
                         ids=[f"{label}-{name}" for label, name, _ in ARGUMENTS])
def test_bad_argument_named(label, name, kind, tmp_path):
    valid = CASES[label][1][name]
    for what, value in bad_values(kind, valid):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                result = run(label, tmp_path, **{name: value})
            except DiffworldError as err:
                assert re.search(rf"\b{name}\b", str(err)), (what, str(err))
                continue
            except Exception as err:
                raise AssertionError(f"{what}: {type(err).__name__}: {err}") from err
        raise AssertionError(f"{what} {value!r} gave a result: {type(result).__name__}")
    for value in valid_values(kind, valid):
        run(label, tmp_path, **{name: value})
