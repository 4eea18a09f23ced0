import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from diffworld import losses as ls
from diffworld import melcodec as mc
from diffworld import synth as sy
from diffworld import tensor as dt
from diffworld.errors import DomainError, ShapeError, ValidationError
from diffworld.features import WorldFeatures, read_features, write_features
from helpers import (composed_render, direct_pulse_train, indexed_interpolate_f0,
                     overlap_sum_window_norm, padded_spectrum, rel_l2, scalar_noise,
                     two_formant_envelope, whole_clip_pulse_train)

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

    @pytest.mark.parametrize("field, value", [
        ("fft_size", 64.0), ("fft_size", True), ("hop", 16.0), ("hop", True)])
    def test_framing_must_be_integers(self, field, value):
        # fft_size 64.0 used to make a config that synthesize failed on with a
        # bare TypeError, and hop True one that framed by 1
        with pytest.raises(ValidationError,
                           match=f"^{field} must be an integer, got {value!r}$"):
            sy.SynthConfig(**{"fft_size": 64, field: value})

    @pytest.mark.parametrize("rate", [0, -8000])
    def test_sample_rate_below_one_rejected(self, rate):
        # it used to render NaN audio, with only a RuntimeWarning
        with pytest.raises(ValidationError,
                           match=f"SynthConfig.sample_rate must be >= 1, got {rate}"):
            replace(DESK, sample_rate=rate)

    @pytest.mark.parametrize("rate", [22050.5, 22050.0, True])
    def test_sample_rate_must_be_an_integer(self, rate):
        # 22050.5 used to render, with no error until a writer packed the header
        with pytest.raises(ValidationError, match=r"SynthConfig.sample_rate must be an "
                                                  r"integer, got " + repr(rate)):
            replace(DESK, sample_rate=rate)

    @pytest.mark.parametrize("seed", [-1, True, 1.5, "3", None])
    def test_noise_seed_must_be_an_integer_at_least_zero(self, seed):
        # a negative seed used to fail inside numpy's generator, far from the field
        with pytest.raises(ValidationError, match=r"SynthConfig.noise_seed must be an "
                                                  r"integer >= 0, got " + repr(seed)):
            replace(DESK, noise_seed=seed)
        assert replace(DESK, noise_seed=np.int64(3)).noise_seed == 3

    @pytest.mark.parametrize("name", ["gain_harmonic", "gain_noise", "gain_dry", "gain_fir"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_gain_rejected_naming_it(self, name, bad):
        # gain_noise=inf used to render NaN audio, with only a RuntimeWarning
        feats = desk_features()
        with pytest.raises(ValidationError, match=f"SynthConfig.{name} must be finite, "
                                                  f"got {bad}"):
            sy.synthesize(feats, sy.SynthConfig.for_features(feats, **{name: bad}))

    def test_bool_gain_rejected(self):
        # True used to be taken as a gain of 1
        with pytest.raises(ValidationError,
                           match="^SynthConfig.gain_harmonic must be finite, got True$"):
            replace(DESK, gain_harmonic=True)
        assert replace(DESK, gain_harmonic=np.float64(0.5)).gain_harmonic == 0.5


class TestArgumentRules:
    X = np.random.default_rng(26).normal(size=500)

    @pytest.mark.parametrize("call, message", [
        # a hop of True used to frame by 1: 500 frames of a 500-sample signal
        (lambda x: sy.stft(x, 64, True), "stft: hop must be an integer, got True"),
        # a length of True used to give 1 sample, and -1 to give none
        (lambda x: sy.istft(sy.stft(x, 64, 16), 64, 16, True),
         "istft: length must be an integer, got True"),
        (lambda x: sy.istft(sy.stft(x, 64, 16), 64, 16, -1),
         "istft: length must be >= 1, got -1"),
        # each of these used to end in a bare TypeError
        (lambda x: sy.stft(x, 64, 16.0), "stft: hop must be an integer, got 16.0"),
        (lambda x: sy.stft(x, 64.0, 16), "stft: fft_size must be an integer, got 64.0"),
        (lambda x: sy.noise_excitation(10.0, 0),
         "noise_excitation: n_samples must be an integer >= 0, got 10.0"),
        (lambda x: sy.interpolate_f0(np.full(4, 100.0), 2.0),
         "interpolate_f0: hop must be an integer, got 2.0"),
    ])
    def test_argument_named(self, call, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            call(self.X)

    @pytest.mark.parametrize("fft_size", [48, 1, 0])
    def test_transform_size_must_be_a_power_of_two(self, fft_size):
        with pytest.raises(ValidationError, match=r"^stft: fft_size must be a power of two "
                                                  rf">= 2, got {fft_size}$"):
            sy.stft(self.X, fft_size, 16)

    def test_transform_size_has_no_upper_bound(self):
        # only a config's or a header's fft_size is bounded (MAX_FFT_SIZE)
        spec = sy.stft(self.X, 1 << 17, 1 << 15)
        assert spec.shape == (1, 2, (1 << 16) + 1)
        np.testing.assert_allclose(sy.istft(spec, 1 << 17, 1 << 15, 500).data, self.X,
                                   rtol=0, atol=1e-12)

    def test_signal_checked_once_per_call(self, monkeypatch):
        # _spectrum used to check its signal again on each of a call's blocks
        calls, check = [], sy._check_signal
        for module in (sy, ls):
            monkeypatch.setattr(module, "_check_signal", lambda *a: calls.append(a[1:3])
                                or check(*a))
        x = np.random.default_rng(3).normal(size=1 << 17)  # 16 blocks at window 64
        sy.stft(x, 64, 16)
        ls.scale_loss(x, dt.Tensor(x, requires_grad=True), 64)
        assert calls == [(64, 16), (64, 16)]

    def test_numpy_integers_accepted(self):
        spec = sy.stft(self.X, np.int64(64), np.int32(16))
        np.testing.assert_array_equal(spec.data, sy.stft(self.X, 64, 16).data)
        back = sy.istft(spec, np.int64(64), np.int64(16), np.int64(500)).data
        np.testing.assert_array_equal(back, sy.istft(spec, 64, 16, 500).data)


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


def sweep_contour(rs, n_frames):
    """A random contour whose unvoiced runs include both ends, single
    unvoiced and voiced frames and a frame of -0.0."""
    f0 = rs.uniform(60.0, 400.0, size=n_frames)
    f0[rs.uniform(size=n_frames) < 0.15] = 0.0
    f0[: max(1, n_frames // 10)] = 0.0
    f0[-max(1, n_frames // 10):] = 0.0
    f0[n_frames // 2] = -0.0
    return f0


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


class TestExcitationBits:
    """The grid contour and the chunked pulse train against the whole-clip
    index-array forms they replaced, bit for bit."""

    @pytest.mark.parametrize("hop", [1, 2, 3, 16, 256])
    @pytest.mark.parametrize("rate", [8000, 16000, 22050, 44100, 48000])
    def test_contour_and_pulses_match_whole_clip_forms(self, hop, rate):
        rs = np.random.default_rng(hop * 100_000 + rate)
        cfg = sy.SynthConfig(sample_rate=rate, fft_size=4 * hop, hop=hop)
        # three chunks and a part: two chunk boundaries and a partial last chunk
        n_frames = (3 * sy._VALUE_BLOCK + sy._VALUE_BLOCK // 3) // hop
        for f0 in (sweep_contour(rs, n_frames), sweep_contour(rs, 1 + int(rs.integers(9)))):
            freq, mask = sy.interpolate_f0(f0, hop)
            want_freq, want_mask = indexed_interpolate_f0(f0, hop)
            assert_same_bits(freq, want_freq)
            assert_same_bits(mask, want_mask)
            assert_same_bits(sy.pulse_train(freq, mask, cfg),
                             whole_clip_pulse_train(freq, mask, cfg))

    def test_chunk_boundary_inside_a_pulse(self):
        # a steady 220.5 Hz at 22.05 kHz puts a pulse every 100 samples; the
        # chunk boundary, 32768, falls 68 samples into one
        n_frames = 2 * sy._VALUE_BLOCK // CFG.hop
        freq, mask = sy.interpolate_f0(np.full(n_frames, 220.5), CFG.hop)
        assert sy._VALUE_BLOCK % 100 == 68
        out = sy.pulse_train(freq, mask, CFG)
        assert_same_bits(out, whole_clip_pulse_train(freq, mask, CFG))


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

    @pytest.mark.parametrize("fft_size", [4, 16, 64, 256, 1024, 4096, 65536])
    def test_blocks_match_the_padded_copy_bit_for_bit(self, fft_size):
        # interior blocks read their frames in place, edge blocks from a padded
        # copy; every block must equal the copy path.  The frame counts are 1
        # (a signal shorter than one frame), one block, one block and a frame,
        # and several blocks with interior ones and a partial last one; one hop
        # does not divide the frame
        rs = np.random.default_rng(fft_size)
        per = max(1, sy._VALUE_BLOCK // fft_size)
        for hop in (max(1, fft_size // 4), 3 * fft_size // 4):
            for n_frames in (1, per, per + 1, 3 * per + per // 2 + 1):
                n = n_frames * hop - int(rs.integers(hop))
                x = rs.normal(size=n)
                assert sy.n_frames_for(n, hop) == n_frames
                for first in range(0, n_frames, per):
                    stop = min(n_frames, first + per)
                    np.testing.assert_array_equal(
                        sy._spectrum(x, fft_size, hop, first, stop),
                        padded_spectrum(x, fft_size, hop, first, stop))

    @pytest.mark.parametrize("fft_size", [64, 1024, 65536])
    def test_spectrogram_blocks_match_one_call_over_every_frame(self, fft_size):
        # rfft transforms each frame on its own, so blocks written into one
        # array keep the bits of one call over every frame: one frame, one
        # block, one block and a frame, and several with a partial last one
        rs = np.random.default_rng(fft_size + 1)
        per, hop = max(1, sy._VALUE_BLOCK // fft_size), fft_size // 4
        for n_frames in (1, per, per + 1, 3 * per + per // 2 + 1):
            x = rs.normal(size=n_frames * hop - 1)
            np.testing.assert_array_equal(sy._spectrogram(x, fft_size, hop),
                                          sy._spectrum(x, fft_size, hop, 0, n_frames))

    def test_interior_frames_are_not_copied(self, monkeypatch):
        x = np.random.default_rng(5).normal(size=4096)
        in_place = []
        real = dt._frames_view

        def recording(signal, *args):
            in_place.append(np.shares_memory(signal, x))
            return real(signal, *args)

        monkeypatch.setattr(dt, "_frames_view", recording)
        sy._spectrum(x, 64, 16, first=10, stop=200)
        sy._spectrum(x, 64, 16, first=200, stop=256)  # reaches past the end
        assert in_place == [True, False]

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

    @pytest.mark.parametrize("fft_size", [4, 16, 64, 256, 1024, 4096])
    def test_window_norm_from_edges_and_period_is_bit_identical(self, fft_size):
        # against one overlap-sum over every frame; frame counts below, at and
        # above k = ceil(fft_size / hop), lengths short of, at and past the
        # last frame, and hops that do not divide the frame (istft allows them)
        hops = {1, 3, fft_size // 4, fft_size // 2 + 1, fft_size - 1, fft_size}
        for hop in sorted(h for h in hops if 1 <= h <= fft_size and fft_size // h <= 256):
            k = -(-fft_size // hop)
            for n_frames in sorted({0, 1, 2, k - 1, k, k + 1, 2 * k, 2 * k + 3, 100}):
                for length in sorted({0, 1, max(0, n_frames * hop - 1), n_frames * hop,
                                      n_frames * hop + fft_size + 7}):
                    got = sy._window_norm(fft_size, hop, n_frames, length)
                    want = overlap_sum_window_norm(fft_size, hop, n_frames, length)
                    assert got.shape == want.shape, (hop, n_frames, length)
                    assert got.tobytes() == want.tobytes(), (hop, n_frames, length)

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
    spec_h = sy._spectrogram(e_h, cfg.fft_size, cfg.hop)
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


class TestNoiseExcitation:
    def test_splitmix_gives_its_published_outputs(self):
        # the first three outputs of SplitMix64 seeded with 0
        counters = np.arange(1, 4, dtype=np.uint64) * np.uint64(sy._GOLDEN)
        np.testing.assert_array_equal(
            sy._splitmix(counters),
            np.array([0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F],
                     dtype=np.uint64))

    @pytest.mark.parametrize("seed", [0, 7, 2 ** 64 - 1])
    def test_matches_the_scalar_reference(self, seed):
        # the same integers; log1p, cos and sin may round differently in numpy
        np.testing.assert_allclose(sy.noise_excitation(1001, seed), scalar_noise(1001, seed),
                                   rtol=1e-14, atol=1e-15)

    @pytest.mark.parametrize("seed", [0, 1, 2 ** 64 - 1])
    def test_a_million_samples_look_standard_normal(self, seed):
        stats = pytest.importorskip("scipy.stats")
        n = 2 ** 20
        x = sy.noise_excitation(n, seed)
        bound = 5.0 / np.sqrt(n)  # five standard errors
        assert abs(np.mean(x)) < bound
        assert abs(np.var(x) - 1.0) < bound * np.sqrt(2.0)
        for lag in (1, 2):  # within a Box-Muller pair, and across pairs
            assert abs(np.corrcoef(x[:-lag], x[lag:])[0, 1]) < bound
        assert stats.kstest(x, "norm").pvalue > 1e-3
        # the next seed's noise is another stream, not a shifted copy
        other = sy.noise_excitation(n, (seed + 1) % 2 ** 64)
        assert abs(np.corrcoef(x, other)[0, 1]) < bound

    def test_same_seed_same_bits_and_other_seeds_other_noise(self):
        a = sy.noise_excitation(5000, 9)
        np.testing.assert_array_equal(a, sy.noise_excitation(5000, 9))
        np.testing.assert_array_equal(a, sy.noise_excitation(5000, np.uint64(9)))
        for seed in (8, 10, 2 ** 32 + 9, 2 ** 63 + 9):
            assert np.count_nonzero(sy.noise_excitation(5000, seed) == a) == 0

    @pytest.mark.parametrize("m", [0, 1, 2, 777, sy._VALUE_BLOCK - 1, sy._VALUE_BLOCK + 1])
    def test_a_shorter_draw_is_a_prefix_of_a_longer_one(self, m):
        np.testing.assert_array_equal(sy.noise_excitation(2 * sy._VALUE_BLOCK + 3, 4)[:m],
                                      sy.noise_excitation(m, 4))

    @pytest.mark.parametrize("lo, hi", [(7, 12), (0, 5), (3, 3), (6, 6 + sy._VALUE_BLOCK),
                                        (sy._VALUE_BLOCK - 1, sy._VALUE_BLOCK + 2)])
    def test_a_span_is_drawn_on_its_own(self, lo, hi):
        out = np.full(hi - lo, np.nan)
        sy._noise_span(sy._noise_key(11), lo, out)
        np.testing.assert_array_equal(out, sy.noise_excitation(hi, 11)[lo:])

    @pytest.mark.parametrize("block", [7, 64])
    def test_the_chunk_size_does_not_move_the_bits(self, monkeypatch, block):
        want = sy.noise_excitation(1001, 2)
        monkeypatch.setattr(sy, "_VALUE_BLOCK", block)
        np.testing.assert_array_equal(sy.noise_excitation(1001, 2), want)

    def test_no_whole_clip_temporaries(self):
        n = 8 * sy._VALUE_BLOCK
        tracemalloc.start()
        try:
            sy.noise_excitation(n, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the output and a chunk's temporaries, under two chunks of samples;
        # one whole-clip uint64 array of the pairs would be half the output
        assert peak < 8 * n + 3 * 8 * sy._VALUE_BLOCK

    @pytest.mark.parametrize("seed", [2 ** 64, 2 ** 70])
    def test_seeds_of_2_to_the_64_or_more_rejected(self, seed):
        # numpy's generator used to take them; the key is 64 bits
        with pytest.raises(ValidationError, match=r"SynthConfig.noise_seed must be "
                                                  rf"below 2\*\*64, got {seed}"):
            replace(DESK, noise_seed=seed)
        with pytest.raises(ValidationError, match=r"noise_excitation: seed must be below"):
            sy.noise_excitation(4, seed)

    def test_the_largest_seed_draws_without_a_warning(self):
        # numpy warns when a uint64 scalar wraps, and pytest makes that an error
        assert replace(DESK, noise_seed=2 ** 64 - 1).noise_seed == 2 ** 64 - 1
        assert np.all(np.isfinite(sy.noise_excitation(9, 2 ** 64 - 1)))


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

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_sp_rejected_naming_frame_and_bin(self, value):
        # the finite rule of validate_features; it used to give NaN audio
        feats = desk_features()
        sp = feats.sp.copy()
        sp[5, 3] = value
        with pytest.raises(ValidationError,
                           match=r"^sp contains a non-finite value at \(5, 3\)$"):
            sy.synthesize_components(feats.f0, sp, feats.ap, DESK)
        with pytest.raises(ValidationError,
                           match=r"^sp contains a non-finite value at \(5, 3\)$"):
            sy.synthesize_components(feats.f0, dt.Tensor(sp, requires_grad=True),
                                     feats.ap, DESK)

    def test_render_names_a_negative_sp_beside_a_nan(self):
        # render does not check finiteness (fit names a divergent step itself),
        # so a NaN minimum must not hide a negative value from the sp rule
        feats = desk_features()
        spec_h, spec_n = sy.excitation_spectra(feats.f0, DESK)
        sp = feats.sp.copy()
        sp[0, 0], sp[7, 32] = np.nan, -0.5
        with pytest.raises(DomainError, match=r"^sp is negative at frame 7, bin 32$"):
            sy.render(spec_h, spec_n, sp, feats.ap, DESK)
        sp[7, 32] = 0.5
        assert np.isnan(sy.render(spec_h, spec_n, sp, feats.ap, DESK).data).any()

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

    @pytest.mark.parametrize("postnet, shape", [
        (lambda t: dt.sum(t), r"\(\)"),
        (lambda t: dt.Tensor(np.ones((3, 1))), r"\(3, 1\)"),
        (lambda t: dt.Tensor(np.zeros(t.shape[0] - 1)), r"\(639,\)"),
    ], ids=["scalar", "broadcasts", "length"])
    def test_postnet_output_of_another_shape_rejected(self, postnet, shape):
        # a scalar used to be added to every sample, a (3, 1) output made the
        # audio (3, 640), and a wrong length failed inside add
        feats = desk_features(t=40)
        with pytest.raises(ShapeError, match=rf"synthesize: the postnet returned shape "
                                             rf"{shape} for audio of shape \(640,\)"):
            sy.synthesize(feats, postnet=postnet)

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


# an inverse, tracked or not, takes 32768 // fft_size frames per block, and at
# least one: 32 at fft 1024, 512 at fft 64 and 1 at fft 65536.  So these run
# several blocks with a partial last one (861, 1100), one partial block (40,
# and 1 frame), one full block (512), a frame short of two blocks, two
# blocks and a frame past them (63, 64, 65), and one block per frame (fft
# 65536).  The gains cases mix unit and other gains.
SHAPED_CASES = [(CFG, 861), (DESK, 40), (DESK, 512),
                (replace(DESK, gain_harmonic=0.7, gain_noise=1.9), 1100),
                (replace(CFG, gain_harmonic=0.7, gain_noise=1.3), 70),
                (replace(CFG, gain_noise=0.7), 70), (replace(CFG, gain_harmonic=1.3), 70),
                (CFG, 1), (CFG, 63), (CFG, 64), (CFG, 65),
                (replace(DESK, fft_size=1 << 16, hop=1 << 14), 12)]
SHAPED_IDS = ["fft1024-861", "fft64-40", "fft64-512", "fft64-1100-gains",
              "fft1024-70-gains", "fft1024-70-noise-gain", "fft1024-70-harmonic-gain",
              "fft1024-1", "fft1024-63", "fft1024-64", "fft1024-65", "fft65536-12"]


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
        # the excitation signals as sources: their spectra are made again per
        # block in the backward pass
        for render in (sy.render, composed_render,
                       lambda spec_h, spec_n, sp, ap, cfg:
                       sy.synthesize_components(f0, sp, ap, cfg)):
            sp_t = dt.Tensor(sp, requires_grad=True)
            ap_t = dt.Tensor(ap, requires_grad=True)
            y = render(spec_h, spec_n, sp_t, ap_t, cfg)
            grads = dt.backward(dt.sum(dt.mul(y, weights)))
            runs.append((y.data, grads[sp_t], grads[ap_t]))
        for run in (runs[0], runs[2]):
            for got, want in zip(run, runs[1]):
                np.testing.assert_array_equal(got, want)

    def test_gains_of_another_shape_rejected(self):
        f0, sp, ap = shaped_problem(DESK, 10, 4)
        with pytest.raises(ShapeError, match=r"spectral gains must be \(10, 33\).* "
                                             r"got \(10, 1\)"):
            sy.synthesize_components(f0, sp[:, :1], ap[:, :1], DESK)

    def test_negative_sp_past_the_first_block_names_its_frame(self):
        # untracked gains are made a block of 32 frames at a time, so the rule
        # runs on the whole clip first
        f0, sp, ap = shaped_problem(CFG, 861, 8)
        sp[700, 5] = -1e-3
        spec_h, spec_n = sy.excitation_spectra(f0, CFG)
        for call in (lambda: sy.synthesize_components(f0, sp, ap, CFG),
                     lambda: sy.render(spec_h, spec_n, sp, ap, CFG),
                     lambda: sy.render(spec_h, spec_n, dt.Tensor(sp, requires_grad=True),
                                       ap, CFG)):
            with pytest.raises(DomainError, match="sp is negative at frame 700, bin 5"):
                call()

    def test_gains_are_made_a_block_at_a_time(self):
        # 100 frames at fft 1024 are blocks of 32, 32, 32 and 4 rows: the
        # forward pass makes the gains per block, tracked or not, and the
        # backward pass maps their gradients to the input rows per block
        rs = np.random.default_rng(9)
        x = rs.normal(size=100 * CFG.hop)
        env = rs.uniform(0.5, 2.0, size=(100, 513))
        blocks = [32, 32, 32, 4]
        for tracked in (False, True):
            values, adjoints = [], []

            def value(e):
                values.append(e.shape[0])
                return (np.sqrt(e),)

            def adjoint(dgs, e):
                adjoints.append((dgs[0].shape, e.shape))
                return (dgs[0] / (2.0 * np.sqrt(e)),)

            e_t = dt.Tensor(env, requires_grad=tracked)
            y = sy._shaped_inverse((x,), value, adjoint, {"e": e_t}, CFG.fft_size, CFG.hop,
                                   len(x))
            assert values == blocks
            assert y._tracked == tracked
            if tracked:
                assert dt.backward(dt.sum(dt.mul(y, y)))[e_t].shape == env.shape
            assert adjoints == ([((n, 513), (n, 513)) for n in blocks] if tracked else [])

    def test_decode_and_tracked_render_hold_four_arrays(self):
        # what a fit step holds between its forward and backward passes: sp
        # and ap, decompress_sp's clamped root and mask, the clamp's mask
        # and the output, about 3.75 arrays of (861, 513) float64 (3.37 MiB
        # each).  At most 2% above the measured 12.64 MiB; the composed
        # graphs held 46.56
        f0, _, _ = shaped_problem(CFG, 861, 7)
        basis = mc.MelBasis.build(CFG.sample_rate, CFG.fft_size)
        rs = np.random.default_rng(14)
        log_mel = rs.normal(-2.0, 0.5, size=(861, basis.n_mels))
        coded_ap = rs.uniform(0.1, 0.9, size=(861, 16))
        spec_h, spec_n = sy.excitation_spectra(f0, CFG)
        for _ in range(2):  # the first pass fills the window and resampling caches
            s_t = dt.Tensor(log_mel, requires_grad=True)
            a_t = dt.Tensor(coded_ap, requires_grad=True)
            tracemalloc.start()
            try:
                sp, ap = mc.decode(f0, s_t, a_t, basis)
                y = sy.render(spec_h, spec_n, sp, ap, CFG)
                held = tracemalloc.get_traced_memory()[0] / 2.0 ** 20
            finally:
                tracemalloc.stop()
            del sp, ap, y
        assert held <= 1.02 * 12.64, held

    @pytest.mark.parametrize("n_frames, pinned", [(861, 7.329), (5168, 40.54)],
                             ids=["10s", "60s"])
    def test_untracked_synthesis_peak_memory_is_pinned(self, n_frames, pinned):
        # the contour on a (frames, hop) grid, the pulse train in chunks, the
        # gains per block and the window norm from its edges and one period
        # leave the excitations and the inverse's buffers: about 4.4 and 4.0
        # times the output (1.68 MiB at 10 s); the whole-clip temporaries
        # reached 17.45 and 104.7 MiB, and the whole-clip norm 8.88 and 51.9.
        # At most 2% above the measured peak
        f0, sp, ap = shaped_problem(CFG, n_frames, 7)
        sy.synthesize_components(f0[:8], sp[:8], ap[:8], CFG)  # fills the window cache
        tracemalloc.start()
        try:
            sy.synthesize_components(f0, sp, ap, CFG)
            peak = tracemalloc.get_traced_memory()[1] / 2.0 ** 20
        finally:
            tracemalloc.stop()
        assert peak <= 1.02 * pinned, peak

    def test_ten_second_peak_memory_is_pinned(self):
        # untracked, a block of frames at a time: no spectrum of the whole clip
        # exists, and ap is not copied, since its unvoiced rows are already 1.
        # At most 2% above the measured peak; the composed graph's was 47.18
        # MiB, and 12.24 with ap copied and the whole-clip window norm
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
        assert peak <= 1.02 * 7.329, peak


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
