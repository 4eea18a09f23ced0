import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from diffworld import synth as sy
from diffworld import tensor as dt
from diffworld.errors import ShapeError, ValidationError
from diffworld.features import WorldFeatures, read_features, write_features
from helpers import composed_render, direct_pulse_train, rel_l2, two_formant_envelope

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

    @pytest.mark.parametrize("rate", [0, -8000])
    def test_sample_rate_below_one_rejected(self, rate):
        # it used to render NaN audio, with only a RuntimeWarning
        with pytest.raises(ValidationError,
                           match=f"SynthConfig.sample_rate must be >= 1, got {rate}"):
            replace(DESK, sample_rate=rate)


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

    def test_negative_f0_rejected_naming_the_frame(self):
        feats = desk_features()
        f0 = feats.f0.copy()
        f0[3] = -1.0
        with pytest.raises(ValidationError, match=r"f0 is negative at frame 3: -1\.0"):
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


def swept_contour(n_frames, cfg):
    """Frame-rate f0 shaped like the benchmark's clips.

    A geometric sweep from 90 to 340 Hz with a 2% vibrato at 5.5 Hz, and
    one unvoiced stretch of a tenth of the clip starting a third of the way in.
    """
    f0 = 90.0 * (340.0 / 90.0) ** np.linspace(0.0, 1.0, n_frames)
    seconds = np.arange(n_frames) * cfg.hop / cfg.sample_rate
    f0 *= 1.0 + 0.02 * np.sin(2.0 * np.pi * 5.5 * seconds)
    f0[n_frames // 3: n_frames // 3 + n_frames // 10] = 0.0
    return f0


class TestPulseTrainClosedForm:
    """The closed form against the harmonic sum taken term by term."""

    def check_oracle(self, freq, mask, cfg):
        out = sy.pulse_train(freq, mask, cfg)
        want = direct_pulse_train(freq, mask, cfg.sample_rate, cfg.harmonic_count)
        assert rel_l2(out, want) <= 1e-9

    @pytest.mark.parametrize("cfg,seconds", [(CFG, 5.0), (DESK, 3.0)])
    def test_swept_contour_matches_direct_sum(self, cfg, seconds):
        f0 = swept_contour(int(seconds * cfg.sample_rate / cfg.hop), cfg)
        self.check_oracle(*sy.interpolate_f0(f0, cfg.hop), cfg)

    @pytest.mark.parametrize("f0", [71.0, 220.5, 1000.0, 5000.0])
    def test_constant_f0_matches_direct_sum(self, f0):
        self.check_oracle(np.full(22050, f0), np.ones(22050), CFG)

    def test_voicing_ramps_match_direct_sum(self):
        f0 = np.array([0.0, 180.0, 190.0, 0.0, 0.0, 210.0, 0.0, 240.0, 250.0, 0.0])
        freq, mask = sy.interpolate_f0(f0, CFG.hop)
        assert np.any((mask > 0.0) & (mask < 1.0))
        self.check_oracle(freq, mask, CFG)

    def test_phase_at_multiples_of_two_pi(self):
        # 220.5 Hz is 100 samples a period at 22.05 kHz, with K = 49.  Sample
        # 99 ends the first period exactly; two nudges of f0 put sample 199
        # 1e-9 rad past a period's end and sample 299 1e-9 rad short of one.
        nudge = 1e-9 / (2.0 * np.pi) * CFG.sample_rate
        freq = np.full(400, 220.5)
        freq[100] += nudge
        freq[200] -= 2.0 * nudge
        at = np.array([99, 199, 299])
        phase = 2.0 * np.pi * np.cumsum(freq) / CFG.sample_rate
        wrapped = np.angle(np.exp(1j * phase[at]))
        assert np.all(np.abs(wrapped) <= 1.01e-9)
        assert wrapped[1] > 0.0 > wrapped[2]

        out = sy.pulse_train(freq, np.ones(400), CFG)
        want = direct_pulse_train(freq, np.ones(400), CFG.sample_rate, CFG.harmonic_count)
        np.testing.assert_allclose(out[at], want[at], rtol=0.0, atol=1e-12)
        # a hard zero near the singularity would miss by far more than 1e-12
        assert np.all(np.abs(want[at[1:]]) > 1e-9)

    def test_huge_sample_rate_costs_o_samples(self):
        # a rate just under the float32 WAV limit puts the harmonic cap in the
        # millions, so any work per harmonic shows in the memory peak
        cfg = sy.SynthConfig(sample_rate=2**30 - 1, fft_size=16, hop=4)
        assert cfg.harmonic_count == 7_561_562
        tracemalloc.start()
        try:
            out = sy.pulse_train(np.full(12, 200.0), np.ones(12), cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert np.all(np.isfinite(out))


class TestStft:
    def test_zeros(self):
        spec = sy.stft(np.zeros(4096), 1024, 256)
        assert spec.shape == (16, 2, 513)
        np.testing.assert_array_equal(spec.data, 0.0)

    @pytest.mark.parametrize("n, fft_size, hop", [(300, 64, 16), (50, 64, 16),
                                                  (200, 32, 24)])
    def test_one_node_matches_frame_window_rfft_graph(self, n, fft_size, hop):
        # 50 samples: frames run past the end; hop 24 does not divide 32
        rs = np.random.default_rng(30)
        x0 = rs.normal(size=n)
        g = rs.normal(size=(sy.n_frames_for(n, hop), 2, fft_size // 2 + 1))
        x = dt.Tensor(x0, requires_grad=True)
        frames = dt.frame(x, fft_size, hop, sy.n_frames_for(n, hop), fft_size // 2)
        ref = dt.rfft(dt.mul(frames, dt.Tensor(sy.hann_window(fft_size))), fft_size)
        ref_grad = dt.backward(dt.sum(dt.mul(ref, dt.Tensor(g))))[x]
        x = dt.Tensor(x0, requires_grad=True)
        spec = sy.stft(x, fft_size, hop)
        np.testing.assert_array_equal(spec.data, ref.data)
        np.testing.assert_array_equal(
            dt.backward(dt.sum(dt.mul(spec, dt.Tensor(g))))[x], ref_grad)

    @pytest.mark.parametrize("bad, error, message", [
        (np.zeros(0), ValidationError, "signal is empty"),
        (np.zeros((2, 64)), ShapeError, "expected a 1-D signal"),
    ])
    def test_bad_signals_rejected(self, bad, error, message):
        with pytest.raises(error, match=message):
            sy.stft(bad, 64, 16)

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


def harmonic_branch(e_h, sp, ap, cfg):
    """``render``'s harmonic branch alone: excitation ``e_h``, noise gain 0."""
    spec_h = sy._spectrum(e_h, cfg.fft_size, cfg.hop)
    return sy.render(spec_h, spec_h, sp, ap, replace(cfg, gain_noise=0.0))


def noise_branch(sp, ap, cfg):
    """``render``'s noise branch alone: ``cfg.noise_seed``'s noise, harmonic gain 0."""
    spec_h, spec_n = sy.excitation_spectra(np.zeros(sp.shape[0]), cfg)
    return sy.render(spec_h, spec_n, sp, ap, replace(cfg, gain_harmonic=0.0))


class TestHarmonicNoise:
    def test_unit_aperiodicity_silences_harmonics(self):
        e_h = np.random.default_rng(1).normal(size=16 * 256)
        sp = np.ones((16, 513))
        h = harmonic_branch(e_h, sp, np.ones((16, 513)), CFG)
        np.testing.assert_array_equal(h.data, 0.0)

    def test_allpass_returns_excitation(self):
        rs = np.random.default_rng(2)
        e_h = rs.normal(size=32 * 256)
        h = harmonic_branch(e_h, np.ones((32, 513)), np.zeros((32, 513)), CFG).data
        n = 1024
        assert rel_l2(h[n:-n], e_h[n:-n]) < 1e-10

    def test_one_bin_bandpass_is_narrowband(self):
        t = 32
        j = 120
        sp = np.zeros((t, 513))
        sp[:, j] = 1.0
        freq, mask = sy.interpolate_f0(np.full(t, 100.0), CFG.hop)
        e_h = sy.pulse_train(freq, mask, CFG)
        h = harmonic_branch(e_h, sp, np.zeros((t, 513)), CFG).data
        mag2 = np.abs(np.fft.rfft(h)) ** 2
        f = np.fft.rfftfreq(len(h), 1.0 / CFG.sample_rate)
        center = j * CFG.sample_rate / CFG.fft_size
        width = 4 * CFG.sample_rate / CFG.fft_size
        inside = np.sum(mag2[np.abs(f - center) <= width])
        assert inside / np.sum(mag2) > 0.9

    def test_zero_aperiodicity_silences_noise(self):
        n = noise_branch(np.ones((16, 513)), np.zeros((16, 513)), CFG)
        np.testing.assert_array_equal(n.data, 0.0)

    def test_noise_variance_near_unity(self):
        t = 87  # ~1 s
        n = noise_branch(np.ones((t, 513)), np.ones((t, 513)),
                         replace(CFG, noise_seed=3)).data
        interior = n[1024:-1024]
        assert abs(np.var(interior) - 1.0) < 0.1

    def test_same_seed_bit_identical(self):
        sp = np.ones((8, 513))
        ap = np.full((8, 513), 0.7)
        a = noise_branch(sp, ap, replace(CFG, noise_seed=9)).data
        b = noise_branch(sp, ap, replace(CFG, noise_seed=9)).data
        np.testing.assert_array_equal(a, b)
        c = noise_branch(sp, ap, replace(CFG, noise_seed=10)).data
        assert np.any(c != a)


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
        h = harmonic_branch(sy.pulse_train(*sy.interpolate_f0(feats.f0, cfg.hop), cfg),
                            feats.sp, feats.ap, cfg)
        n = noise_branch(feats.sp, feats.ap, cfg)
        assert rel_l2(y.data, h.data + n.data) <= 1e-12

    def test_out_of_range_ap_rejected_naming_frame_and_bin(self):
        # one range rule for feature containers and for the tensor-level
        # synthesis entries; NaN is out of range
        feats = desk_features()
        cfg = sy.SynthConfig.for_features(feats)
        spec_h, spec_n = sy.excitation_spectra(feats.f0, cfg)
        for value, shown in ((1.7, r"1\.7"), (-0.25, r"-0\.25"), (np.nan, "nan")):
            ap = feats.ap.copy()
            ap[2, 5] = value
            for call in (lambda: sy.synthesize(replace(feats, ap=ap)),
                         lambda: sy.synthesize_components(feats.f0, feats.sp, ap, cfg),
                         lambda: sy.render(spec_h, spec_n, feats.sp, ap, cfg),
                         lambda: sy.render(spec_h, spec_n, feats.sp,
                                           dt.Tensor(ap, requires_grad=True), cfg)):
                with pytest.raises(ValidationError,
                                   match=rf"ap out of \[0, 1\] at frame 2, bin 5: {shown}"):
                    call()

    def test_raw_features_synthesize_as_their_file_round_trip(self, tmp_path):
        # unvoiced frames get ap forced to 1 by reading the file back;
        # synthesizing the features directly must apply the same rule
        feats = desk_features(t=40)
        f0 = feats.f0.copy()
        f0[12:20] = 0.0
        ap = feats.ap.copy()
        ap[f0 == 0] = 0.2
        feats = replace(feats, f0=f0, ap=ap)
        path = tmp_path / "raw.wfeat"
        write_features(path, feats)
        np.testing.assert_array_equal(sy.synthesize(feats).data,
                                      sy.synthesize(read_features(path)).data)

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
        want = r"spectrum must be a complex \(10, 33\) array, one row per frame of sp; got "
        planes = sy.stft(np.zeros(10 * DESK.hop), DESK.fft_size, DESK.hop)
        for bad_h, bad_n, message in (
                (spec_h, spec_n[:9], "noise " + want + r"complex128 of shape \(9, 33\)"),
                (spec_h.real, spec_n, "pulse-train " + want + r"float64 of shape \(10, 33\)"),
                # stft's planes tensor is not a spectrum here
                (planes, spec_n, "pulse-train " + want + r"Tensor of shape \(10, 2, 33\)")):
            with pytest.raises(ValidationError, match="render: the " + message):
                sy.render(bad_h, bad_n, feats.sp, feats.ap, DESK)
        with pytest.raises(ValidationError, match="ap has 9 frames"):
            sy.render(spec_h, spec_n, feats.sp, feats.ap[:9], DESK)

    def test_excitation_spectra_are_constants(self):
        feats = desk_features(t=10)
        spec_h, spec_n = sy.excitation_spectra(feats.f0, replace(DESK, noise_seed=2))
        # plain complex arrays: no graph node, so no gradient reaches them
        for spec in (spec_h, spec_n):
            assert type(spec) is np.ndarray and spec.dtype == np.complex128
            assert spec.shape == (10, DESK.fft_size // 2 + 1)
        again = sy.excitation_spectra(feats.f0, replace(DESK, noise_seed=2))
        np.testing.assert_array_equal(again[1], spec_n)
        other = sy.excitation_spectra(feats.f0, replace(DESK, noise_seed=3))
        assert np.any(other[1] != spec_n)

    def test_gain_routing_noise_off(self):
        feats = desk_features()
        cfg = sy.SynthConfig.for_features(feats, gain_noise=0.0)
        y = sy.synthesize(feats, cfg)
        h = harmonic_branch(sy.pulse_train(*sy.interpolate_f0(feats.f0, cfg.hop), cfg),
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_fir_non_finite_tap_named(self, bad):
        taps = np.zeros(8)
        taps[3] = bad
        with pytest.raises(ValidationError, match="FIR tap 3 is not finite"):
            sy.FirPostFilter(taps)

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


def shaped_problem(cfg, t, seed):
    """``t`` frames of f0 with an unvoiced run, ``sp`` and ``ap`` in range."""
    rs = np.random.default_rng(seed)
    bins = cfg.fft_size // 2 + 1
    f0 = 120.0 + 80.0 * rs.uniform(size=t)
    f0[t // 5: t // 5 + 7] = 0.0
    return f0, rs.uniform(0.01, 2.0, size=(t, bins)), rs.uniform(0.0, 1.0, size=(t, bins))


# an untracked inverse takes 32768 // fft_size frames per block, and at least
# one: 32 at fft 1024, 512 at fft 64 and 1 at fft 65536.  So these run several
# blocks with a partial last one (861, 1100), one partial block (40), one full
# block (512) and one block per frame (fft 65536)
SHAPED_CASES = [(CFG, 861), (DESK, 40), (DESK, 512),
                (replace(DESK, gain_harmonic=0.7, gain_noise=1.9), 1100),
                (replace(DESK, fft_size=1 << 16, hop=1 << 14), 12)]
SHAPED_IDS = ["fft1024-861", "fft64-40", "fft64-512", "fft64-1100-gains", "fft65536-12"]


class TestShapedInverse:
    """``render`` is one node that reproduces the composed graph's bits."""

    @pytest.mark.parametrize("cfg, t", SHAPED_CASES, ids=SHAPED_IDS)
    def test_render_matches_composed_graph(self, cfg, t):
        f0, sp, ap = shaped_problem(cfg, t, t)
        spec_h, spec_n = sy.excitation_spectra(f0, cfg)
        want = composed_render(spec_h, spec_n, sp, ap, cfg).data
        np.testing.assert_array_equal(sy.render(spec_h, spec_n, sp, ap, cfg).data, want)
        # the excitation signals as sources, a block of spectra at a time
        np.testing.assert_array_equal(sy.synthesize_components(f0, sp, ap, cfg).data, want)

    @pytest.mark.parametrize("cfg, t", SHAPED_CASES, ids=SHAPED_IDS)
    def test_render_gradients_match_composed_graph(self, cfg, t):
        f0, sp, ap = shaped_problem(cfg, t, t)
        spec_h, spec_n = sy.excitation_spectra(f0, cfg)
        weights = dt.Tensor(np.random.default_rng(t).normal(size=t * cfg.hop))
        runs = []
        for render in (sy.render, composed_render):
            sp_t = dt.Tensor(sp, requires_grad=True)
            ap_t = dt.Tensor(ap, requires_grad=True)
            y = render(spec_h, spec_n, sp_t, ap_t, cfg)
            grads = dt.backward(dt.sum(dt.mul(y, weights)))
            runs.append((y.data, grads[sp_t], grads[ap_t]))
        for got, want in zip(*runs):
            np.testing.assert_array_equal(got, want)

    def test_workspace_changes_no_bit_and_owns_no_result(self):
        f0, sp, ap = shaped_problem(DESK, 40, 3)
        spec_h, spec_n = sy.excitation_spectra(f0, DESK)
        ws = dt.Workspace()
        runs = []
        for workspace in (None, ws, ws):  # the last run reuses the buffers
            sp_t = dt.Tensor(sp, requires_grad=True)
            ap_t = dt.Tensor(ap, requires_grad=True)
            y = sy.render(spec_h, spec_n, sp_t, ap_t, DESK, workspace)
            grads = dt.backward(dt.sum(dt.mul(y, y)))
            runs.append((y.data, grads[sp_t], grads[ap_t]))
        for run in runs[1:]:
            for got, want in zip(run, runs[0]):
                np.testing.assert_array_equal(got, want)
        buffers = list(ws._flat.values())
        assert buffers
        assert not any(np.shares_memory(arr, buf)
                       for arr in runs[1] + runs[2] for buf in buffers)

    def test_gains_of_another_shape_rejected(self):
        f0, sp, ap = shaped_problem(DESK, 10, 4)
        with pytest.raises(ShapeError, match=r"spectral gains must be \(10, 33\).* "
                                             r"got \(10, 1\)"):
            sy.synthesize_components(f0, sp[:, :1], ap[:, :1], DESK)

    def test_ten_second_peak_memory_is_pinned(self):
        # untracked, a block of frames at a time: no spectrum of the whole clip
        # exists, and the pulse train's own temporaries set the peak.  At most
        # 2% above the measured peak; the composed graph's was 47.18 MiB
        f0, sp, ap = shaped_problem(CFG, 861, 7)
        ap[f0 == 0] = 1.0
        feats = WorldFeatures(f0=f0, sp=sp, ap=ap, sample_rate=CFG.sample_rate,
                              hop=CFG.hop, fft_size=CFG.fft_size)
        sy.synthesize(feats)  # fills the window cache first
        tracemalloc.start()
        try:
            sy.synthesize(feats)
            peak = tracemalloc.get_traced_memory()[1] / 2.0 ** 20
        finally:
            tracemalloc.stop()
        assert peak <= 1.02 * 20.82, peak


class TestOracleTarget:
    """``synthesize`` with the default config is the target a fit recovers."""

    def test_sensitive_to_envelope(self):
        feats = desk_features()
        bumped = WorldFeatures(f0=feats.f0, sp=feats.sp * 2.0, ap=feats.ap,
                               sample_rate=feats.sample_rate, hop=feats.hop,
                               fft_size=feats.fft_size)
        assert np.any(sy.synthesize(feats).data != sy.synthesize(bumped).data)

    def test_deterministic(self):
        feats = desk_features()
        a = sy.synthesize(feats).data
        b = sy.synthesize(feats).data
        np.testing.assert_array_equal(a, b)

    def test_zero_spectral_loss_against_same_seed_synthesis(self):
        from diffworld.losses import MslConfig, msl
        feats = desk_features()
        target = sy.synthesize(feats).data
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
