from dataclasses import replace

import numpy as np
import pytest

from diffworld import synth as sy
from diffworld import tensor as dt
from diffworld.errors import ValidationError
from diffworld.features import WorldFeatures
from helpers import rel_l2, two_formant_envelope

CFG = sy.SynthConfig()                      # 22050 / 1024 / 256
DESK = sy.SynthConfig(sample_rate=8000, fft_size=64)  # hop 16


class TestConfig:
    def test_default_harmonic_count(self):
        assert CFG.harmonic_count == 155
        assert CFG.hop == 256

    def test_hop_must_divide_fft_size(self):
        with pytest.raises(ValidationError):
            sy.SynthConfig(fft_size=1024, hop=300)

    @pytest.mark.parametrize("hop", [0, -4])
    def test_hop_below_one_rejected(self, hop):
        with pytest.raises(ValidationError, match="hop must be >= 1"):
            sy.SynthConfig(fft_size=1024, hop=hop)

    @pytest.mark.parametrize("fft_size", [0, 1 << 17])
    def test_fft_size_out_of_range_rejected(self, fft_size):
        with pytest.raises(ValidationError, match=r"fft_size must be in \[1, 65536\]"):
            sy.SynthConfig(fft_size=fft_size)


class TestInterpolateF0:
    def test_empty_contour_rejected(self):
        with pytest.raises(ValidationError, match="at least one frame"):
            sy.interpolate_f0(np.zeros(0), 16)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_f0_rejected_naming_the_frame(self, bad):
        feats = desk_features()
        f0 = feats.f0.copy()
        f0[2] = bad
        f0[5] = -bad  # a later, negative value must not mask the first frame
        with pytest.raises(ValidationError, match="f0 is not finite at frame 2"):
            sy.synthesize_components(f0, feats.sp, feats.ap, DESK)

    def test_constant_voiced(self):
        freq, mask = sy.interpolate_f0(np.full(5, 220.0), 16)
        np.testing.assert_array_equal(freq, 220.0)
        np.testing.assert_array_equal(mask, 1.0)
        assert freq.shape == (80,)

    def test_all_unvoiced(self):
        freq, mask = sy.interpolate_f0(np.zeros(4), 16)
        np.testing.assert_array_equal(mask, 0.0)
        np.testing.assert_array_equal(freq, 0.0)

    def test_linear_span_between_frame_centers(self):
        freq, _ = sy.interpolate_f0(np.array([200.0, 300.0]), 256)
        s = np.arange(256)
        np.testing.assert_allclose(freq[:256], 200.0 + 100.0 * s / 256.0)
        np.testing.assert_array_equal(freq[256:], 300.0)  # held past last center

    def test_voiced_to_unvoiced_holds_frequency_and_ramps_mask(self):
        freq, mask = sy.interpolate_f0(np.array([200.0, 0.0]), 16)
        np.testing.assert_array_equal(freq[:16], 200.0)
        np.testing.assert_allclose(mask[:16], 1.0 - np.arange(16) / 16.0)
        np.testing.assert_array_equal(mask[16:], 0.0)

    def test_unvoiced_to_voiced_ramp(self):
        freq, mask = sy.interpolate_f0(np.array([0.0, 250.0]), 16)
        np.testing.assert_array_equal(freq[:16], 250.0)
        np.testing.assert_allclose(mask[:16], np.arange(16) / 16.0)
        np.testing.assert_array_equal(mask[16:], 1.0)


class TestPulseTrain:
    def test_silent_for_zero_f0(self):
        freq = np.zeros(1024)
        out = sy.pulse_train(freq, np.zeros(1024), CFG)
        np.testing.assert_array_equal(out, 0.0)

    def test_silent_at_nyquist(self):
        freq = np.full(1024, CFG.sample_rate / 2.0)
        out = sy.pulse_train(freq, np.ones(1024), CFG)
        np.testing.assert_array_equal(out, 0.0)

    def test_masked_samples_are_exactly_zero(self):
        freq, mask = sy.interpolate_f0(np.array([220.0, 0.0, 0.0, 220.0]), 256)
        out = sy.pulse_train(freq, mask, CFG)
        np.testing.assert_array_equal(out[mask == 0.0], 0.0)

    def test_spectrum_peaks_at_harmonics_only(self):
        f0 = 220.5
        freq = np.full(44100, f0)
        out = sy.pulse_train(freq, np.ones(44100), CFG)
        n = 32768
        seg = out[4096: 4096 + n]
        mag = np.abs(np.fft.rfft(seg * np.hanning(n)))
        floor = mag.max() * 10 ** (-40 / 20)
        peaks = [i for i in range(2, len(mag) - 2)
                 if mag[i] > floor and mag[i] >= mag[i - 1] and mag[i] >= mag[i + 1]]
        bin_hz = CFG.sample_rate / n
        for i in peaks:
            ratio = (i * bin_hz) / f0
            assert abs(ratio - round(ratio)) < 0.02
            assert round(ratio) * f0 < CFG.sample_rate / 2.0

    def test_energy_per_period_is_unity(self):
        f0 = 220.5  # exactly 100 samples per period at 22050 Hz
        freq = np.full(22050, f0)
        out = sy.pulse_train(freq, np.ones(22050), CFG)
        period = 100
        for start in (1000, 5000, 11000):
            energy = float(np.sum(out[start: start + period] ** 2))
            assert abs(energy - 1.0) < 0.02


class TestStft:
    def test_zeros(self):
        spec = sy.stft(np.zeros(4096), 1024, 256)
        assert spec.shape == (16, 2, 513)
        np.testing.assert_array_equal(spec.data, 0.0)

    def test_frame_count_contract(self):
        assert sy.n_frames_for(66150, 256) == 259
        assert sy.n_frames_for(16 * 256, 256) == 16

    def test_roundtrip_identity_interior(self):
        rs = np.random.default_rng(0)
        x = rs.normal(size=22050)
        back = sy.istft(sy.stft(x, 1024, 256), 1024, 256, len(x)).data
        n = 1024
        assert rel_l2(back[n:-n], x[n:-n]) < 1e-10

    def test_hann_window_is_cached_and_read_only(self):
        win = sy.hann_window(64)
        assert sy.hann_window(64) is win
        assert not win.flags.writeable
        with pytest.raises(ValueError):
            win[0] = 1.0
        np.testing.assert_array_equal(
            win, 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(64) / 64))

    def test_window_norm_matches_frame_loop(self):
        for fft_size, hop, n_frames, length in ((1024, 256, 20, 5000),
                                                (64, 16, 9, 100), (16, 5, 7, 30)):
            buf = np.zeros((n_frames - 1) * hop + fft_size + length)
            for t in range(n_frames):
                buf[t * hop: t * hop + fft_size] += sy.hann_window(fft_size) ** 2
            norm = buf[fft_size // 2: fft_size // 2 + length]
            want = np.where(norm > 1e-12, norm, 1.0)
            np.testing.assert_array_equal(
                sy._window_norm(fft_size, hop, n_frames, length), want)

    def test_sine_concentrates_with_hann_leakage(self):
        n = 1024
        k0 = 100
        frame = np.sin(2 * np.pi * k0 * np.arange(n) / n) * sy.hann_window(n)
        over = 64
        mag = np.abs(np.fft.rfft(frame, n * over))
        peak = mag[k0 * over]
        # main lobe holds nearly all energy
        lobe = slice((k0 - 2) * over, (k0 + 2) * over)
        assert np.sum(mag[lobe] ** 2) / np.sum(mag ** 2) > 0.999
        # first sidelobe of the Hann kernel sits 2-3 bins out at ~ -31.5 dB
        side = mag[(k0 + 2) * over: (k0 + 3) * over].max()
        side_db = 20 * np.log10(side / peak)
        assert -32.5 < side_db < -30.5


def desk_features(t=8, voiced=True, seed=0):
    rs = np.random.default_rng(seed)
    bins = DESK.fft_size // 2 + 1
    f0 = np.full(t, 200.0) if voiced else np.zeros(t)
    sp = np.tile(two_formant_envelope(bins, DESK.sample_rate, centers=(500, 1700)), (t, 1))
    sp = sp * rs.uniform(0.8, 1.2, size=(t, 1))
    ap = np.tile(np.linspace(0.1, 0.6, bins), (t, 1))
    if not voiced:
        ap = np.ones((t, bins))
    return WorldFeatures(f0=f0, sp=sp, ap=ap, sample_rate=DESK.sample_rate,
                         hop=DESK.hop, fft_size=DESK.fft_size)


class TestHarmonicNoise:
    def test_unit_aperiodicity_silences_harmonics(self):
        e_h = np.random.default_rng(1).normal(size=16 * 256)
        sp = np.ones((16, 513))
        h = sy.synth_harmonic(e_h, sp, np.ones((16, 513)), CFG)
        np.testing.assert_array_equal(h.data, 0.0)

    def test_allpass_returns_excitation(self):
        rs = np.random.default_rng(2)
        e_h = rs.normal(size=32 * 256)
        h = sy.synth_harmonic(e_h, np.ones((32, 513)), np.zeros((32, 513)), CFG).data
        n = 1024
        assert rel_l2(h[n:-n], e_h[n:-n]) < 1e-10

    def test_one_bin_bandpass_is_narrowband(self):
        t = 32
        j = 120
        sp = np.zeros((t, 513))
        sp[:, j] = 1.0
        freq, mask = sy.interpolate_f0(np.full(t, 100.0), CFG.hop)
        e_h = sy.pulse_train(freq, mask, CFG)
        h = sy.synth_harmonic(e_h, sp, np.zeros((t, 513)), CFG).data
        mag2 = np.abs(np.fft.rfft(h)) ** 2
        f = np.fft.rfftfreq(len(h), 1.0 / CFG.sample_rate)
        center = j * CFG.sample_rate / CFG.fft_size
        width = 4 * CFG.sample_rate / CFG.fft_size
        inside = np.sum(mag2[np.abs(f - center) <= width])
        assert inside / np.sum(mag2) > 0.9

    def test_zero_aperiodicity_silences_noise(self):
        n = sy.synth_noise(np.ones((16, 513)), np.zeros((16, 513)), CFG)
        np.testing.assert_array_equal(n.data, 0.0)

    def test_noise_variance_near_unity(self):
        t = 87  # ~1 s
        n = sy.synth_noise(np.ones((t, 513)), np.ones((t, 513)),
                           replace(CFG, noise_seed=3)).data
        interior = n[1024:-1024]
        assert abs(np.var(interior) - 1.0) < 0.1

    def test_same_seed_bit_identical(self):
        sp = np.ones((8, 513))
        ap = np.full((8, 513), 0.7)
        a = sy.synth_noise(sp, ap, replace(CFG, noise_seed=9)).data
        b = sy.synth_noise(sp, ap, replace(CFG, noise_seed=9)).data
        np.testing.assert_array_equal(a, b)
        c = sy.synth_noise(sp, ap, replace(CFG, noise_seed=10)).data
        assert np.any(c != a)

    def test_frame_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="frames"):
            sy.synth_harmonic(np.zeros(16 * 256), np.ones((15, 513)),
                              np.ones((15, 513)), CFG)


class TestSynthesize:
    def test_output_length_contract(self):
        feats = desk_features(t=10)
        y = sy.synthesize(feats)
        assert y.shape == (10 * DESK.hop,)

    def test_no_post_stage_is_plain_mix(self):
        feats = desk_features()
        cfg = sy.SynthConfig.for_features(feats)
        y = sy.synthesize(feats, cfg)
        # no post stage touches the mix
        np.testing.assert_array_equal(
            y.data, sy.synthesize_components(feats.f0, feats.sp, feats.ap, cfg).data)
        # one inverse STFT of the mixed spectra equals the sum of the two
        # separately inverted branches up to rounding
        h = sy.synth_harmonic(sy.pulse_train(*sy.interpolate_f0(feats.f0, cfg.hop), cfg),
                              feats.sp, feats.ap, cfg)
        n = sy.synth_noise(feats.sp, feats.ap, cfg)
        assert rel_l2(y.data, h.data + n.data) <= 1e-12

    @pytest.mark.parametrize("cfg", [
        sy.SynthConfig(sample_rate=8000, fft_size=64),
        sy.SynthConfig(sample_rate=8000, fft_size=64, gain_harmonic=0.7,
                       gain_noise=1.9),
        sy.SynthConfig(),
    ])
    def test_single_istft_matches_two_istft_sum(self, cfg):
        rs = np.random.default_rng(12)
        t, bins = 40, cfg.fft_size // 2 + 1
        f0 = 150.0 + 40.0 * rs.uniform(size=t)
        f0[10:14] = 0.0
        sp = rs.uniform(0.01, 2.0, size=(t, bins))
        ap = rs.uniform(0.0, 1.0, size=(t, bins))
        y = sy.synthesize_components(f0, sp, ap, replace(cfg, noise_seed=5)).data

        # reference: each branch shaped and inverted on its own
        n_samples = t * cfg.hop
        e_h = sy.pulse_train(*sy.interpolate_f0(f0, cfg.hop), cfg)
        e_n = sy.noise_excitation(n_samples, 5)
        branches = []
        for excitation, gain in ((e_h, cfg.gain_harmonic * (1.0 - ap) * np.sqrt(sp)),
                                 (e_n, cfg.gain_noise * ap * np.sqrt(sp))):
            spec = sy.stft(excitation, cfg.fft_size, cfg.hop).data
            branches.append(sy.istft(spec * gain[:, None, :], cfg.fft_size,
                                     cfg.hop, n_samples).data)
        assert rel_l2(y, branches[0] + branches[1]) <= 1e-12

    def test_render_rejects_mismatched_spectra(self):
        feats = desk_features(t=10)
        spec_h, spec_n = sy.excitation_spectra(feats.f0, DESK)
        with pytest.raises(ValidationError, match="noise STFT"):
            sy.render(spec_h, spec_n.data[:9], feats.sp, feats.ap, DESK)
        with pytest.raises(ValidationError, match="ap has 9 frames"):
            sy.render(spec_h, spec_n, feats.sp, feats.ap[:9], DESK)

    def test_excitation_spectra_are_constants(self):
        feats = desk_features(t=10)
        spec_h, spec_n = sy.excitation_spectra(feats.f0, replace(DESK, noise_seed=2))
        assert spec_h.shape == spec_n.shape == (10, 2, DESK.fft_size // 2 + 1)
        # no gradient reaches a parameter from either spectrum
        assert dt.backward(dt.sum(spec_h)) == {}
        assert dt.backward(dt.sum(spec_n)) == {}
        again = sy.excitation_spectra(feats.f0, replace(DESK, noise_seed=2))
        np.testing.assert_array_equal(again[1].data, spec_n.data)
        other = sy.excitation_spectra(feats.f0, replace(DESK, noise_seed=3))
        assert np.any(other[1].data != spec_n.data)

    def test_gain_routing_noise_off(self):
        feats = desk_features()
        cfg = sy.SynthConfig.for_features(feats, gain_noise=0.0)
        y = sy.synthesize(feats, cfg)
        h = sy.synth_harmonic(sy.pulse_train(*sy.interpolate_f0(feats.f0, cfg.hop), cfg),
                              feats.sp, feats.ap, cfg)
        np.testing.assert_allclose(y.data, h.data, atol=1e-15)

    def test_unvoiced_frames_have_zero_harmonic_energy(self):
        feats = desk_features(voiced=False)
        cfg = sy.SynthConfig.for_features(feats, gain_noise=0.0)
        y = sy.synthesize(feats, cfg)
        np.testing.assert_array_equal(y.data, 0.0)

    def test_fir_unit_impulse_is_pure_delay(self):
        feats = desk_features()
        d = 5
        taps = np.zeros(16)
        taps[d] = 1.0
        fir = sy.FirPostFilter(taps=taps)
        cfg = sy.SynthConfig.for_features(feats, gain_dry=0.0, gain_fir=1.0)
        y_d = sy.synthesize(feats, sy.SynthConfig.for_features(feats)).data
        y = sy.synthesize(feats, cfg, fir=fir).data
        np.testing.assert_allclose(y[d:], y_d[:-d], atol=1e-12)
        np.testing.assert_allclose(y[:d], 0.0, atol=1e-12)

    def test_fir_zero_tap_enforced(self):
        bad = np.ones(8)
        with pytest.raises(ValidationError, match="tap 0"):
            sy.FirPostFilter(taps=bad)

    def test_postnet_residual_mixing_and_gradient_passthrough(self):
        feats = desk_features()
        cfg = sy.SynthConfig.for_features(feats)
        sp_t = dt.Tensor(feats.sp, requires_grad=True)

        y0 = sy.synthesize_components(feats.f0, sp_t, feats.ap, cfg)
        y = dt.add(y0, dt.mul(0.5, y0))
        grads = dt.backward(dt.sum(dt.mul(y, y)))
        assert np.any(grads[sp_t] != 0.0)

        base = sy.synthesize(feats, cfg).data
        mixed = sy.synthesize(feats, cfg, postnet=lambda t: dt.mul(0.5, t)).data
        np.testing.assert_allclose(mixed, 1.5 * base, rtol=1e-12)

    def test_metadata_mismatch_rejected(self):
        feats = desk_features()
        with pytest.raises(ValidationError, match="metadata"):
            sy.synthesize(feats, sy.SynthConfig())  # 22050-Hz config vs 8 kHz feats

    def test_postnet_and_fir_stages_compose(self):
        feats = desk_features()
        d = 2
        taps = np.zeros(8)
        taps[d] = 1.0
        cfg = sy.SynthConfig.for_features(feats, gain_dry=1.0, gain_fir=0.25)
        y0 = sy.synthesize(feats, sy.SynthConfig.for_features(feats)).data
        y = sy.synthesize(feats, cfg, fir=sy.FirPostFilter(taps=taps),
                          postnet=lambda t: dt.mul(0.5, t)).data
        y_d = y0 + 0.5 * y0                        # post stage
        expect = y_d.copy()                        # FIR stage: dry + delayed
        expect[d:] += 0.25 * y_d[:-d]
        np.testing.assert_allclose(y, expect, atol=1e-12)

    def test_compressed_features_are_decompressed(self):
        from diffworld import melcodec as mc
        feats = desk_features()
        comp = mc.compress(feats, n_mels=16, ap_bands=4)
        y = sy.synthesize(comp)
        assert y.shape == (feats.n_frames * DESK.hop,)
        ref = sy.synthesize(mc.decompress(comp))
        np.testing.assert_array_equal(y.data, ref.data)


class TestOracleTarget:
    def test_matches_synthesize_with_same_seed(self):
        feats = desk_features()
        target = sy.oracle_target(feats)
        direct = sy.synthesize(feats, sy.SynthConfig.for_features(feats))
        np.testing.assert_array_equal(target.samples, direct.data)
        assert target.sample_rate == DESK.sample_rate

    def test_sensitive_to_envelope(self):
        feats = desk_features()
        bumped = WorldFeatures(f0=feats.f0, sp=feats.sp * 2.0, ap=feats.ap,
                               sample_rate=feats.sample_rate, hop=feats.hop,
                               fft_size=feats.fft_size)
        assert np.any(sy.oracle_target(feats).samples
                      != sy.oracle_target(bumped).samples)

    def test_deterministic(self):
        feats = desk_features()
        a = sy.oracle_target(feats).samples
        b = sy.oracle_target(feats).samples
        np.testing.assert_array_equal(a, b)

    def test_zero_spectral_loss_against_same_seed_synthesis(self):
        from diffworld.losses import MslConfig, msl
        feats = desk_features()
        target = sy.oracle_target(feats).samples
        again = sy.synthesize(feats, sy.SynthConfig.for_features(feats)).data
        assert msl(target, again, MslConfig(scales=3)).item() == 0.0


class TestPitchPreservation:
    def test_strongest_peak_at_fundamental(self):
        t = 87
        bins = 513
        freqs = np.linspace(0, CFG.sample_rate / 2, bins)
        sp = np.tile(np.exp(-freqs / 400.0), (t, 1))  # lowpass timbre
        feats = WorldFeatures(f0=np.full(t, 220.0), sp=sp, ap=np.zeros((t, bins)),
                              sample_rate=22050, hop=256, fft_size=1024)
        cfg = sy.SynthConfig.for_features(feats, gain_noise=0.0)
        y = sy.synthesize(feats, cfg).data
        n = 16384
        seg = y[2048: 2048 + n] * np.hanning(n)
        mag = np.abs(np.fft.rfft(seg))
        peak_hz = np.argmax(mag) * CFG.sample_rate / n
        assert abs(peak_hz - 220.0) <= CFG.sample_rate / n  # within one DFT bin
