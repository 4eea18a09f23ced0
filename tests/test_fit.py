from dataclasses import replace

import numpy as np
import pytest

from diffworld import fit as fi
from diffworld import losses as ls
from diffworld import melcodec as mc
from diffworld import synth as sy
from diffworld import tensor as dt
from diffworld.errors import ValidationError
from diffworld.features import CompressedFeatures, WorldFeatures
from diffworld.losses import MslConfig
from helpers import two_formant_envelope

DESK = sy.SynthConfig(sample_rate=8000, fft_size=64)


def desk_problem(t=250, seed=0, unvoiced=slice(0)):
    """Synthetic target on the synthesizer's own manifold (matched seed);
    the frames ``unvoiced`` selects get f0 = 0."""
    rs = np.random.default_rng(seed)
    bins = DESK.fft_size // 2 + 1
    env = two_formant_envelope(bins, DESK.sample_rate, centers=(500, 1700))
    sp = np.tile(env, (t, 1)) * rs.uniform(0.7, 1.3, size=(t, 1))
    ap = np.tile(np.linspace(0.1, 0.6, bins), (t, 1))
    f0 = 150.0 + 30.0 * np.sin(2 * np.pi * np.arange(t) / t)
    f0[unvoiced] = 0.0
    feats = WorldFeatures(f0=f0, sp=sp, ap=ap, sample_rate=DESK.sample_rate,
                          hop=DESK.hop, fft_size=DESK.fft_size)
    comp = mc.compress(feats, n_mels=16, ap_bands=4)
    target = sy.synthesize(comp, sy.SynthConfig.for_features(comp)).data
    return target, f0


class TestAdamStep:
    def test_zero_gradient_leaves_params(self):
        params = {"w": np.array([1.0, -2.0])}
        grads = {"w": np.zeros(2)}
        cfg = fi.FitConfig(learning_rate=0.1)
        out, state = fi.adam_step(params, grads, fi.AdamState.fresh(), cfg)
        np.testing.assert_array_equal(out["w"], params["w"])
        assert state.step == 1

    def test_first_step_moves_by_learning_rate(self):
        # with fresh state the bias-corrected update is g / (|g| + eps)
        g = np.array([3.0, -0.5, 10.0])
        cfg = fi.FitConfig(learning_rate=0.01)
        out, _ = fi.adam_step({"w": np.zeros(3)}, {"w": g},
                              fi.AdamState.fresh(), cfg)
        np.testing.assert_allclose(out["w"], -0.01 * np.sign(g), rtol=1e-6)

    def test_two_steps_match_naive_reimplementation(self):
        rs = np.random.default_rng(1)
        w = rs.normal(size=5)
        g1, g2 = rs.normal(size=5), rs.normal(size=5)
        cfg = fi.FitConfig(learning_rate=0.07)

        params, state = fi.adam_step({"w": w.copy()}, {"w": g1},
                                     fi.AdamState.fresh(), cfg)
        params, state = fi.adam_step(params, {"w": g2}, state, cfg)

        # naive double-loop oracle
        m = np.zeros(5)
        v = np.zeros(5)
        w_ref = w.copy()
        for t, g in ((1, g1), (2, g2)):
            for i in range(5):
                m[i] = 0.9 * m[i] + 0.1 * g[i]
                v[i] = 0.999 * v[i] + 0.001 * g[i] * g[i]
                m_hat = m[i] / (1 - 0.9 ** t)
                v_hat = v[i] / (1 - 0.999 ** t)
                w_ref[i] -= 0.07 * m_hat / (np.sqrt(v_hat) + 1e-8)
        np.testing.assert_allclose(params["w"], w_ref, rtol=1e-12)

    def test_state_is_not_mutated(self):
        state = fi.AdamState.fresh()
        fi.adam_step({"w": np.ones(2)}, {"w": np.ones(2)}, state,
                     fi.FitConfig())
        assert state.step == 0 and not state.m


class TestFitConfig:
    @pytest.mark.parametrize("steps", [0, 2.5, "3", True])
    def test_steps_must_be_a_positive_integer(self, steps):
        with pytest.raises(ValidationError, match="steps must be an integer >= 1"):
            fi.FitConfig(steps=steps)

    @pytest.mark.parametrize("rate", [float("nan"), float("inf"), -1e-3])
    def test_learning_rate_must_be_finite_and_non_negative(self, rate):
        with pytest.raises(ValidationError,
                           match="learning_rate must be finite and >= 0, got"):
            fi.FitConfig(learning_rate=rate)

    @pytest.mark.parametrize("alpha", [float("nan"), float("-inf")])
    def test_alpha_must_be_finite(self, alpha):
        with pytest.raises(ValidationError, match="alpha must be finite, got"):
            fi.FitConfig(alpha=alpha)

    def test_integer_types_accepted(self):
        assert fi.FitConfig(steps=np.int64(3), learning_rate=0).steps == 3


class TestFit:
    def test_empty_target_rejected(self):
        with pytest.raises(ValidationError, match="empty"):
            fi.fit(np.array([]), np.full(4, 100.0), synth_cfg=DESK)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="length"):
            fi.fit(np.zeros(10 * DESK.hop), np.full(4, 100.0), synth_cfg=DESK)

    def test_zero_learning_rate_is_identity(self):
        target, f0 = desk_problem(t=40)
        cfg = fi.FitConfig(steps=5, learning_rate=0.0, msl=MslConfig(scales=2))
        fitted, trace = fi.fit(target, f0, cfg=cfg, synth_cfg=DESK,
                               n_mels=16, ap_bands=4)
        s0, a0 = fi._default_init(40, 16, 4, mc.DEFAULT_EPSILON)
        np.testing.assert_array_equal(fitted.log_mel, s0)
        np.testing.assert_allclose(fitted.coded_ap, a0, rtol=1e-12)
        assert np.all(trace == trace[0])

    def test_deterministic(self):
        target, f0 = desk_problem(t=40)
        cfg = fi.FitConfig(steps=8, learning_rate=0.02, msl=MslConfig(scales=2))
        a = fi.fit(target, f0, cfg=cfg, synth_cfg=DESK, n_mels=16, ap_bands=4)
        b = fi.fit(target, f0, cfg=cfg, synth_cfg=DESK, n_mels=16, ap_bands=4)
        np.testing.assert_array_equal(a[0].log_mel, b[0].log_mel)
        np.testing.assert_array_equal(a[0].coded_ap, b[0].coded_ap)
        np.testing.assert_array_equal(a[1], b[1])

    def test_self_consistency_reduces_loss(self):
        target, f0 = desk_problem()
        cfg = fi.FitConfig(steps=120, learning_rate=0.03, msl=MslConfig(scales=3))
        fitted, trace = fi.fit(target, f0, cfg=cfg, synth_cfg=DESK,
                               n_mels=16, ap_bands=4)
        assert trace[-1] < 0.25 * trace[0]
        assert fitted.n_frames == f0.shape[0]
        assert np.all(fitted.coded_ap >= 0.0) and np.all(fitted.coded_ap <= 1.0)

    def test_smoothed_trace_non_increasing(self):
        target, f0 = desk_problem()
        cfg = fi.FitConfig(steps=120, learning_rate=0.03, msl=MslConfig(scales=3))
        _, trace = fi.fit(target, f0, cfg=cfg, synth_cfg=DESK,
                          n_mels=16, ap_bands=4)
        smooth = fi.smoothed_trace(trace, window=20)
        assert np.all(np.diff(smooth) <= 1e-9)

    def test_warm_start_from_init(self):
        target, f0 = desk_problem(t=40)
        cfg = fi.FitConfig(steps=6, learning_rate=0.02, msl=MslConfig(scales=2))
        first, _ = fi.fit(target, f0, cfg=cfg, synth_cfg=DESK,
                          n_mels=16, ap_bands=4)
        _, trace = fi.fit(target, f0, init=first, cfg=cfg, synth_cfg=DESK)
        fresh = fi.fit(target, f0, cfg=cfg, synth_cfg=DESK,
                       n_mels=16, ap_bands=4)[1]
        assert trace[0] < fresh[0]

    def test_joint_fir_fit_runs_and_updates_taps(self):
        target, f0 = desk_problem(t=60)
        fir = sy.FirPostFilter(np.zeros(32))
        cfg = fi.FitConfig(steps=15, learning_rate=0.02, msl=MslConfig(scales=2))
        _, trace = fi.fit(target, f0, cfg=cfg, synth_cfg=DESK,
                          n_mels=16, ap_bands=4, fir=fir)
        assert trace[-1] < trace[0]
        assert np.any(fir.free != 0.0)
        assert fir.taps[0] == 0.0

    def test_fir_with_more_taps_than_samples_fits(self):
        # 64 taps against a 2-frame (32-sample) target: the taps gradient
        # must keep the taps' length, not the signal's
        target, f0 = desk_problem(t=2)
        fir = sy.FirPostFilter(np.zeros(64))
        cfg = fi.FitConfig(steps=2, learning_rate=0.02, msl=MslConfig(scales=2))
        _, trace = fi.fit(target, f0, cfg=cfg, synth_cfg=DESK,
                          n_mels=16, ap_bands=4, fir=fir)
        assert np.all(np.isfinite(trace)) and fir.free.shape == (63,)
        assert np.any(fir.free[:31] != 0.0) and np.all(fir.free[31:] == 0.0)

    def test_feature_loss_pulls_toward_reference(self):
        target, f0 = desk_problem(t=40)
        reference = mc.compress(mc.decompress(fi.fit(
            target, f0, cfg=fi.FitConfig(steps=1, learning_rate=0.0,
                                         msl=MslConfig(scales=1)),
            synth_cfg=DESK, n_mels=16, ap_bands=4)[0]), n_mels=16, ap_bands=4)

        def feature_mse(alpha):
            cfg = fi.FitConfig(steps=10, learning_rate=0.02, alpha=alpha,
                               msl=MslConfig(scales=2))
            fitted, trace = fi.fit(target, f0, cfg=cfg, synth_cfg=DESK,
                                   n_mels=16, ap_bands=4, reference=reference)
            assert np.all(np.isfinite(trace))
            return (ls.mse_features(reference.log_mel, fitted.log_mel).item()
                    + ls.mse_features(reference.coded_ap, fitted.coded_ap).item())

        assert feature_mse(5.0) < feature_mse(0.0)

    def test_waveform_input_checks_sample_rate(self):
        from diffworld.features import Waveform
        target, f0 = desk_problem(t=40)
        wave = Waveform(target, 22050)  # wrong rate for the 8 kHz config
        with pytest.raises(ValidationError, match="rate"):
            fi.fit(wave, f0, cfg=fi.FitConfig(steps=1, msl=MslConfig(scales=1)),
                   synth_cfg=DESK)

    def test_waveform_input_supplies_config(self):
        from diffworld.features import Waveform
        target, f0 = desk_problem(t=40)
        wave = Waveform(target, DESK.sample_rate)
        cfg = fi.FitConfig(steps=2, learning_rate=0.01, msl=MslConfig(scales=1))
        fitted, trace = fi.fit(wave, f0, cfg=cfg, synth_cfg=DESK,
                               n_mels=16, ap_bands=4)
        assert fitted.sample_rate == DESK.sample_rate
        assert trace.shape == (2,)

    @pytest.mark.parametrize("name", ["init", "reference"])
    def test_features_on_another_clock_rejected(self, name):
        target, f0 = desk_problem(t=40)
        cfg = fi.FitConfig(steps=1, msl=MslConfig(scales=1))
        feats = CompressedFeatures(f0=f0, log_mel=np.zeros((40, 16)),
                                   coded_ap=np.full((40, 4), 0.5),
                                   sample_rate=DESK.sample_rate, hop=DESK.hop,
                                   fft_size=DESK.fft_size)
        other = replace(feats, sample_rate=16000, hop=8, fft_size=32)
        with pytest.raises(ValidationError, match=f"{name} metadata"):
            fi.fit(target, f0, cfg=cfg, synth_cfg=DESK, **{name: other})
        short = replace(feats, f0=f0[:39], log_mel=feats.log_mel[:39],
                        coded_ap=feats.coded_ap[:39])
        with pytest.raises(ValidationError, match=f"{name} has 39 frames but f0 has 40"):
            fi.fit(target, f0, cfg=cfg, synth_cfg=DESK, **{name: short})

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_f0_rejected_naming_the_frame(self, bad):
        target, f0 = desk_problem(t=40)
        f0 = f0.copy()
        f0[2] = bad
        with pytest.raises(ValidationError, match="f0 is not finite at frame 2"):
            fi.fit(target, f0, cfg=fi.FitConfig(steps=1, msl=MslConfig(scales=1)),
                   synth_cfg=DESK, n_mels=16, ap_bands=4)

    def test_divergence_aborts_with_step_index(self):
        target, f0 = desk_problem(t=40)
        cfg = fi.FitConfig(steps=30, learning_rate=1e5, msl=MslConfig(scales=2))
        with np.errstate(all="ignore"):
            with pytest.raises(fi.FitDivergence,
                               match=r"step \d+: .*gradient of (log_mel|ap_logit) "
                                     r"at index \(\d+, \d+\)"):
                fi.fit(target, f0, cfg=cfg, synth_cfg=DESK, n_mels=16, ap_bands=4)

    @pytest.mark.parametrize("name,shape,index", [
        ("log_mel", (40, 16), (2, 7)),
        ("ap_logit", (40, 4), (5, 1)),
        ("fir_free", (31,), (9,)),
    ])
    def test_non_finite_gradient_with_finite_loss_aborts(self, monkeypatch, name,
                                                         shape, index):
        # the loss stays finite; only one gradient entry is poisoned, and the
        # fit must stop at that step instead of handing NaN to Adam
        real_backward = fi.dt.backward

        def poisoned(loss):
            grads = real_backward(loss)
            for tensor, grad in grads.items():
                if tensor.shape == shape:
                    grad[index] = np.nan
            return grads

        monkeypatch.setattr(fi.dt, "backward", poisoned)
        target, f0 = desk_problem(t=40)
        cfg = fi.FitConfig(steps=3, learning_rate=0.01, msl=MslConfig(scales=2))
        fir = sy.FirPostFilter(np.zeros(32))
        pattern = rf"at step 0: non-finite gradient of {name} at index \({index[0]},"
        with pytest.raises(fi.FitDivergence, match=pattern) as err:
            fi.fit(target, f0, cfg=cfg, synth_cfg=DESK, n_mels=16, ap_bands=4,
                   fir=fir)
        assert "loss" not in str(err.value)

    def test_target_spectrograms_are_computed_once(self, monkeypatch):
        calls = []
        real = ls._spectrum

        def counting(x, fft_size, hop, ws=None):
            calls.append(fft_size)
            return real(x, fft_size, hop, ws)

        monkeypatch.setattr(ls, "_spectrum", counting)
        target, f0 = desk_problem(t=40)
        scales = 3
        cfg = fi.FitConfig(steps=3, learning_rate=0.01, msl=MslConfig(scales=scales))
        fi.fit(target, f0, cfg=cfg, synth_cfg=DESK, n_mels=16, ap_bands=4)
        assert len(calls) == scales + 3 * scales

    def test_first_loss_equals_msl_of_initial_synthesis(self):
        # the noise comes from synth_cfg.noise_seed, so the seed changes the trace
        target, f0 = desk_problem(t=40)
        cfg = fi.FitConfig(steps=3, learning_rate=0.01, msl=MslConfig(scales=4))
        s0, a0 = fi._default_init(40, 16, 4, mc.DEFAULT_EPSILON)
        basis = mc.MelBasis.build(DESK.sample_rate, DESK.fft_size, 16)
        sp = mc.decompress_sp(s0, basis)
        ap = mc.decompress_ap(dt.sigmoid(fi._logit(a0)), DESK.fft_size // 2 + 1)
        traces = {}
        for seed in (0, 5):
            synth_cfg = replace(DESK, noise_seed=seed)
            _, traces[seed] = fi.fit(target, f0, cfg=cfg, synth_cfg=synth_cfg,
                                     n_mels=16, ap_bands=4)
            y0 = sy.synthesize_components(f0, sp, ap, synth_cfg)
            expected = ls.msl(target, y0, cfg.msl).item()
            assert abs(traces[seed][0] - expected) <= 1e-12 * abs(expected)
        assert np.all(traces[0] != traces[5])


    def test_objective_at_fitted_features_is_msl_of_their_synthesis(self):
        # fit decodes through melcodec.decode, as synthesize does, so on a
        # contour with unvoiced frames (ap = 1 there) the fit objective at the
        # returned features is the loss of what synthesize renders from them
        target, f0 = desk_problem(t=60, unvoiced=slice(20, 30))
        fitted, _ = fi.fit(target, f0, cfg=fi.FitConfig(steps=40, learning_rate=0.03),
                           synth_cfg=DESK, n_mels=16, ap_bands=4)
        _, trace = fi.fit(target, f0, init=fitted,
                          cfg=fi.FitConfig(steps=1, learning_rate=0.0), synth_cfg=DESK)
        expected = ls.msl(target, sy.synthesize(fitted)).item()
        assert abs(trace[0] - expected) <= 1e-12 * expected


class TestSmoothedTrace:
    def test_short_trace_passthrough(self):
        np.testing.assert_array_equal(fi.smoothed_trace([3.0, 2.0], 20), [3.0, 2.0])

    def test_window_average(self):
        out = fi.smoothed_trace([1.0, 2.0, 3.0, 4.0], 2)
        np.testing.assert_allclose(out, [1.5, 2.5, 3.5])
