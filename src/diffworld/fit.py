"""Analysis-by-synthesis: recover compressed features from a target waveform.

The compressed envelope is optimized directly; aperiodicity is parameterized
through a sigmoid so its decompressed form stays inside [0, 1].  Both are
decoded by :func:`melcodec.decode`, as in ``synthesize``, so the loss of the
returned features is the loss of what ``synthesize`` renders.  The noise
excitation is drawn once from the synth config's ``noise_seed`` by
``synthesize``'s counter-based generator (:func:`synth.noise_excitation`)
and held fixed across steps, which makes the objective deterministic and
lets a fit with a matched seed drive the loss to the noise-realization floor.

Everything that does not depend on the parameters is computed once per fit:
the excitation spectra of the fixed pitch contour and noise
(:func:`synth.excitation_spectra`) and the target's magnitude spectrograms
at every loss scale (:func:`losses.msl_target`), whose floored logs each
loss block makes again from its rows.
A step decodes the features, shapes and mixes the two spectra with one
inverse STFT (:func:`synth.render`), evaluates the loss against the cached
target, and back-propagates.
A non-finite loss or gradient stops the fit with :class:`FitDivergence`,
which names the step, and for a gradient the parameter and the first
non-finite index.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import melcodec
from . import tensor as dt
from .errors import (DiffworldError, ValidationError, check_integer, check_real,
                     first_index, real_array)
from .features import CompressedFeatures, Waveform
from .losses import MslConfig, mse_features, msl, msl_target
from .synth import (FirPostFilter, SynthConfig, check_clock, excitation_spectra,
                    n_frames_for, render)
# stages that excitation_spectra and render run for fit (stft and istft no
# longer); perfbench's tracer and its smoke test expect to find them bound in
# this module too
from .synth import interpolate_f0, istft, noise_excitation, pulse_train, stft  # noqa: F401


BETA1, BETA2, ADAM_EPSILON = 0.9, 0.999, 1e-8  # Adam's moment decays and guard


class FitDivergence(DiffworldError):
    """The optimization produced a non-finite loss or gradient."""


@dataclass(frozen=True)
class FitConfig:
    steps: int = 1000
    learning_rate: float = 1e-3
    alpha: float = 0.0          # weight of the feature loss against a reference
    msl: MslConfig = field(default_factory=MslConfig)

    def __post_init__(self):
        check_integer(self.steps, "steps", 1)
        check_real(self.learning_rate, "learning_rate", 0)
        check_real(self.alpha, "alpha")
        if not isinstance(self.msl, MslConfig):
            raise ValidationError(f"msl must be an MslConfig, got {self.msl!r}")


@dataclass(frozen=True)
class AdamState:
    step: int
    m: dict
    v: dict

    def __post_init__(self):
        check_integer(self.step, "AdamState.step", 0)

    @classmethod
    def fresh(cls) -> "AdamState":
        return cls(step=0, m={}, v={})


def adam_step(params: dict, grads: dict, state: AdamState,
              cfg: FitConfig) -> tuple[dict, AdamState]:
    """One bias-corrected Adam update; returns new params and state."""
    t = state.step + 1
    bc1 = 1.0 - BETA1 ** t
    bc2 = 1.0 - BETA2 ** t
    new_params, new_m, new_v = {}, {}, {}
    for key, value in params.items():
        g = grads[key]
        m = BETA1 * state.m.get(key, 0.0) + (1.0 - BETA1) * g
        v = BETA2 * state.v.get(key, 0.0) + (1.0 - BETA2) * (g * g)
        update = (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPSILON)
        new_params[key] = value - cfg.learning_rate * update
        new_m[key], new_v[key] = m, v
    return new_params, AdamState(step=t, m=new_m, v=new_v)


def _default_init(n_frames: int, n_mels: int, ap_bands: int,
                  epsilon: float) -> tuple[np.ndarray, np.ndarray]:
    # log10(eps) exactly would decompress to an all-zero envelope, whose
    # magnitude kink at the origin has zero subgradient everywhere; one
    # decade up keeps the start silent-sounding but alive.
    s0 = np.full((n_frames, n_mels), np.log10(epsilon) + 1.0)
    a0 = np.full((n_frames, ap_bands), 0.5)
    return s0, a0


def _check_finite(loss: float, grads: dict, step: int) -> None:
    """Raise :class:`FitDivergence` naming the step, and the first parameter
    whose gradient is non-finite with the index where it is."""
    problems = [] if np.isfinite(loss) else ["non-finite loss"]
    for key, grad in grads.items():
        bad = ~np.isfinite(grad)
        if bad.any():
            problems.append(f"non-finite gradient of {key} at index {first_index(bad)}")
            break
    if problems:
        raise FitDivergence(f"at step {step}: {'; '.join(problems)}")


def _logit(a: np.ndarray) -> np.ndarray:
    a = np.clip(a, 1e-6, 1.0 - 1e-6)
    return np.log(a / (1.0 - a))


def fit(target, f0: np.ndarray, init: CompressedFeatures | None = None,
        cfg: FitConfig = FitConfig(), synth_cfg: SynthConfig | None = None,
        n_mels: int = melcodec.DEFAULT_N_MELS,
        ap_bands: int = melcodec.DEFAULT_AP_BANDS,
        fir: FirPostFilter | None = None,
        reference: CompressedFeatures | None = None,
        ) -> tuple[CompressedFeatures, np.ndarray]:
    """Gradient-descent recovery of compressed features from ``target``.

    ``f0`` is the oracle pitch contour, one value per frame of the target
    (``n_frames_for(len(target), hop)``).  Returns the fitted features and
    the per-step loss trace.  ``trace[i]`` scores the parameters before update
    ``i``, so ``trace[-1]`` is one update behind the returned features; to score
    them, fit again with ``init=fitted`` and ``FitConfig(steps=1,
    learning_rate=0)``.  If ``fir`` is given its free taps are
    optimized jointly and updated in place.  ``init`` and ``reference``
    must share the synth config's clock and ``f0``'s frame count.
    """
    check_integer(ap_bands, "ap_bands", 2)
    if isinstance(target, Waveform):
        if synth_cfg is None:
            synth_cfg = SynthConfig(sample_rate=target.sample_rate)
        elif synth_cfg.sample_rate != target.sample_rate:
            raise ValidationError(
                f"target rate {target.sample_rate} != config rate "
                f"{synth_cfg.sample_rate}")
        target = target.samples
    target = real_array(target, "target")
    if target.size == 0:
        raise ValidationError("target waveform is empty")
    if synth_cfg is None:
        synth_cfg = SynthConfig()
    f0 = real_array(f0, "f0")
    n_frames = f0.shape[0]
    hop = synth_cfg.hop
    n_samples = n_frames * hop
    if n_frames_for(target.shape[0], hop) != n_frames:
        raise ValidationError(
            f"target length {target.shape[0]} does not match {n_frames} frames "
            f"at hop {hop} (expected ({n_frames - 1} * hop, {n_frames} * hop])")
    if target.shape[0] < n_samples:
        target = np.concatenate([target, np.zeros(n_samples - target.shape[0])])
    for name, feats in (("init", init), ("reference", reference)):
        if feats is not None:
            check_clock(name, feats, synth_cfg)
            if feats.n_frames != n_frames:
                raise ValidationError(
                    f"{name} has {feats.n_frames} frames but f0 has {n_frames}")

    if init is not None:
        n_mels, ap_bands = init.n_mels, init.ap_bands
    basis = melcodec.MelBasis.build(synth_cfg.sample_rate, synth_cfg.fft_size, n_mels)
    if init is not None:
        s0, a0 = init.log_mel.copy(), init.coded_ap.copy()
    else:
        s0, a0 = _default_init(n_frames, n_mels, ap_bands, melcodec.DEFAULT_EPSILON)

    # constant across steps: computed once
    spec_h, spec_n = excitation_spectra(f0, synth_cfg)
    target_spec = msl_target(target, cfg.msl)

    params = {"log_mel": s0, "ap_logit": _logit(a0)}
    if fir is not None:
        params["fir_free"] = fir.free.copy()
    state = AdamState.fresh()
    trace = np.empty(cfg.steps)

    for step in range(cfg.steps):
        leaves = {key: dt.Tensor(value, requires_grad=True)
                  for key, value in params.items()}
        s_t, a_t = leaves["log_mel"], dt.sigmoid(leaves["ap_logit"])
        sp, ap = melcodec.decode(f0, s_t, a_t, basis)
        y = render(spec_h, spec_n, sp, ap, synth_cfg)
        if fir is not None:
            y = fir.apply(y, synth_cfg, leaves["fir_free"])
        loss = msl(target_spec, y, cfg.msl)
        if reference is not None and cfg.alpha != 0.0:
            feat_loss = dt.add(mse_features(reference.log_mel, s_t),
                               mse_features(reference.coded_ap, a_t))
            loss = dt.add(loss, dt.mul(cfg.alpha, feat_loss))
        value = loss.item()
        grad_map = dt.backward(loss)
        grads = {key: grad_map.get(leaf, np.zeros_like(params[key]))
                 for key, leaf in leaves.items()}
        _check_finite(value, grads, step)
        trace[step] = value
        params, state = adam_step(params, grads, state, cfg)

    if fir is not None:
        fir.free[:] = params["fir_free"]
    fitted = CompressedFeatures(
        f0=f0, log_mel=params["log_mel"],
        coded_ap=dt.sigmoid(params["ap_logit"]).data,
        sample_rate=synth_cfg.sample_rate, hop=hop, fft_size=synth_cfg.fft_size)
    return fitted, trace
