import numpy as np
import pytest

from diffworld import losses as ls
from diffworld import melcodec as mc
from diffworld import synth as sy
from diffworld import tensor as dt
from diffworld.errors import DomainError, ShapeError, ValidationError
from helpers import (central_diff, composed_decode, rel_grad_err, rel_l2,
                     two_formant_envelope)

BASIS = mc.MelBasis.build(8000, 64, n_mels=16)
FULL = mc.MelBasis.build(22050, 1024, n_mels=80)


class TestBasis:
    def test_everything_nonnegative(self):
        assert np.all(BASIS.weights >= 0)
        assert np.all(BASIS.pinv >= 0)

    def test_no_empty_band(self):
        assert np.all(BASIS.weights.sum(axis=1) > 0)

    def test_unresolvable_band_count_rejected(self):
        with pytest.raises(ValidationError, match="no support"):
            mc.MelBasis.build(22050, 64, n_mels=16)

    def test_full_scale_shapes(self):
        assert FULL.weights.shape == (80, 513)
        assert FULL.pinv.shape == (513, 80)

    @pytest.mark.parametrize("n_mels", [16.5, 16.0, True, "16"])
    def test_band_count_that_is_not_an_integer_rejected(self, n_mels):
        # 16.0 and True would otherwise share the cache entries of 16 and 1
        mc.MelBasis.build(8000, 64, 1)
        with pytest.raises(ValidationError, match=r"n_mels must be an integer, got "):
            mc.MelBasis.build(8000, 64, n_mels)

    @pytest.mark.parametrize("args, name", [
        ((8000, 64.0, 16), "fft_size"),     # a bare TypeError
        ((8000, 64, [16]), "n_mels"),       # "unhashable type", from the cache
        ((8000.5, 64, 16), "sample_rate"),  # built a basis
        ((True, 64, 16), "sample_rate"),    # built a basis at 1 Hz
    ])
    def test_arguments_checked_before_the_cache(self, args, name):
        with pytest.raises(ValidationError,
                           match=rf"MelBasis.build: {name} must be an integer, got "):
            mc.MelBasis.build(*args)

    @pytest.mark.parametrize("args, message", [
        ((0, 64, 16), r"sample_rate must be >= 1, got 0"),
        ((8000, 0, 16), r"fft_size must be in \[1, 65536\], got 0"),
        ((8000, 1 << 17, 16), r"fft_size must be in \[1, 65536\], got 131072"),
        ((8000, 64, 16, [1e-5]), r"epsilon must be a finite number >= 0, got \[1e-05\]"),
        ((8000, 64, 16, -1e-5), r"epsilon must be a finite number >= 0, got -1e-05"),
        ((8000, 64, 16, np.nan), r"epsilon must be a finite number >= 0, got nan"),
    ])
    def test_out_of_range_arguments_named(self, args, message):
        with pytest.raises(ValidationError, match=r"MelBasis.build: " + message):
            mc.MelBasis.build(*args)

    def test_equal_arguments_share_one_basis(self):
        assert mc.MelBasis.build(8000, np.int64(64), np.int32(16), 1e-5) is BASIS

    def test_numpy_integer_band_count_accepted(self):
        basis = mc.MelBasis.build(8000, 64, np.int64(16))
        np.testing.assert_array_equal(basis.pinv, BASIS.pinv)


class TestSpCodec:
    def test_zero_envelope_maps_to_log_epsilon(self):
        s = mc.compress_sp(np.zeros((3, BASIS.n_bins)), BASIS)
        np.testing.assert_allclose(s.data, np.log10(BASIS.epsilon))

    def test_flat_envelope_matches_row_sum_oracle(self):
        s = mc.compress_sp(np.ones((2, BASIS.n_bins)), BASIS)
        expected = np.log10(BASIS.weights.sum(axis=1) + BASIS.epsilon)
        np.testing.assert_allclose(s.data, np.tile(expected, (2, 1)))

    def test_full_scale_compresses_513_bins_to_80_bands(self):
        sp = np.tile(two_formant_envelope(513, 22050), (4, 1))
        s = mc.compress_sp(sp, FULL)
        assert s.shape == (4, 80)
        assert mc.decompress_sp(s, FULL).shape == (4, 513)

    def test_negative_envelope_rejected(self):
        bad = np.zeros((2, BASIS.n_bins))
        bad[1, 3] = -1e-3
        with pytest.raises(DomainError, match="frame 1, bin 3"):
            mc.compress_sp(bad, BASIS)

    def test_log_epsilon_decompresses_to_zero(self):
        s = np.full((3, BASIS.n_mels), np.log10(BASIS.epsilon))
        sp = mc.decompress_sp(s, BASIS)
        np.testing.assert_allclose(sp.data, 0.0, atol=1e-30)

    def test_two_formant_roundtrip_error(self):
        sp = np.tile(two_formant_envelope(513, 22050), (5, 1))
        back = mc.decompress_sp(mc.compress_sp(sp, FULL), FULL)
        assert rel_l2(back.data, sp) <= 0.05

    def test_scaling_shifts_log_mel_by_half_log_c(self):
        # exact with epsilon = 0, which the op admits for this property
        basis = mc.MelBasis.build(8000, 64, n_mels=16, epsilon=0.0)
        rs = np.random.default_rng(2)
        sp = rs.uniform(0.1, 2.0, size=(4, basis.n_bins))
        for c in (0.25, 4.0, 9.0):
            lhs = mc.compress_sp(c * sp, basis).data
            rhs = mc.compress_sp(sp, basis).data + 0.5 * np.log10(c)
            np.testing.assert_allclose(lhs, rhs, rtol=1e-12)

    def test_gradients_match_finite_differences(self):
        rs = np.random.default_rng(3)
        sp0 = rs.uniform(0.2, 2.0, size=(3, BASIS.n_bins))
        w_s = rs.normal(size=(3, BASIS.n_mels))

        def f_compress(sp):
            t = dt.Tensor(sp, requires_grad=True)
            return dt.sum(dt.mul(mc.compress_sp(t, BASIS), dt.Tensor(w_s))).item()

        t = dt.Tensor(sp0, requires_grad=True)
        grads = dt.backward(dt.sum(dt.mul(mc.compress_sp(t, BASIS), dt.Tensor(w_s))))
        assert rel_grad_err(grads[t], central_diff(f_compress, sp0)) < 1e-4

        s0 = rs.uniform(-2.0, 0.5, size=(3, BASIS.n_mels))
        w_sp = rs.normal(size=(3, BASIS.n_bins))

        def f_decompress(s):
            t = dt.Tensor(s, requires_grad=True)
            return dt.sum(dt.mul(mc.decompress_sp(t, BASIS), dt.Tensor(w_sp))).item()

        t2 = dt.Tensor(s0, requires_grad=True)
        grads2 = dt.backward(dt.sum(dt.mul(mc.decompress_sp(t2, BASIS), dt.Tensor(w_sp))))
        assert rel_grad_err(grads2[t2], central_diff(f_decompress, s0)) < 1e-4


class TestApCodec:
    def test_constant_roundtrips_exactly(self):
        for c in (0.0, 0.3, 1.0):
            ap = np.full((4, 33), c)
            a = mc.compress_ap(ap, 16)
            np.testing.assert_array_equal(a.data, c)
            back = mc.decompress_ap(a, 33)
            np.testing.assert_array_equal(back.data, c)

    def test_unvoiced_unity_roundtrips_to_exactly_one(self):
        ap = np.ones((3, 513))
        back = mc.decompress_ap(mc.compress_ap(ap, 16), 513)
        assert np.all(back.data == 1.0)

    def test_affine_ramp_roundtrips_exactly(self):
        ramp = np.linspace(0.0, 1.0, 33)
        back = mc.decompress_ap(mc.compress_ap(ramp[None, :], 17), 33)
        np.testing.assert_allclose(back.data[0], ramp, atol=1e-12)

    def test_roundtrip_stays_in_unit_interval(self):
        rs = np.random.default_rng(9)
        for _ in range(20):
            ap = rs.uniform(0.0, 1.0, size=(3, 33))
            back = mc.decompress_ap(mc.compress_ap(ap, 16), 33)
            assert np.all(back.data >= 0.0)
            assert np.all(back.data <= 1.0)

    def test_gradients_flow_through_codec(self):
        rs = np.random.default_rng(4)
        ap0 = rs.uniform(0.1, 0.9, size=(2, 33))
        w = rs.normal(size=(2, 33))

        def f(ap):
            t = dt.Tensor(ap, requires_grad=True)
            out = mc.decompress_ap(mc.compress_ap(t, 8), 33)
            return dt.sum(dt.mul(out, dt.Tensor(w))).item()

        t = dt.Tensor(ap0, requires_grad=True)
        out = mc.decompress_ap(mc.compress_ap(t, 8), 33)
        grads = dt.backward(dt.sum(dt.mul(out, dt.Tensor(w))))
        assert rel_grad_err(grads[t], central_diff(f, ap0)) < 1e-6


    def test_float_bin_count_named(self):
        # it used to end in a bare TypeError from np.linspace
        with pytest.raises(ValidationError,
                           match="^decompress_ap: n_bins must be an integer >= 2, got 9.0$"):
            mc.decompress_ap(np.full((2, 4), 0.5), 9.0)


class TestDecode:
    DESK = sy.SynthConfig(sample_rate=8000, fft_size=64)

    def test_voiced_rows_are_decompress_ap_and_unvoiced_rows_one(self):
        rs = np.random.default_rng(21)
        f0 = np.full(12, 140.0)
        f0[[0, 4, 5, 11]] = 0.0
        log_mel = rs.normal(size=(12, 16))
        coded_ap = rs.uniform(0.0, 1.0, size=(12, 4))
        sp, ap = mc.decode(f0, log_mel, coded_ap, BASIS)
        np.testing.assert_array_equal(sp.data, mc.decompress_sp(log_mel, BASIS).data)
        voiced = f0 > 0
        np.testing.assert_array_equal(ap.data[voiced],
                                      mc.decompress_ap(coded_ap, 33).data[voiced])
        assert np.all(ap.data[~voiced] == 1.0)

    def test_gradients_match_finite_differences(self):
        # built like acceptance criterion 2, with decode in place of the two
        # decompress calls; the unvoiced frame's coded_ap gets no gradient
        cfg, n_frames = self.DESK, 8
        rng = np.random.default_rng(202)
        f0 = np.full(n_frames, 200.0)
        f0[5] = 0.0
        env = two_formant_envelope(33, cfg.sample_rate, centers=(500, 1700))
        s0 = mc.compress_sp(np.tile(env, (n_frames, 1)), BASIS).data \
            + rng.normal(scale=0.1, size=(n_frames, 16))
        a0 = rng.uniform(0.2, 0.8, size=(n_frames, 4))
        target = 0.1 * rng.normal(size=n_frames * cfg.hop)

        def objective(s, a):
            s_t = dt.Tensor(s, requires_grad=True)
            a_t = dt.Tensor(a, requires_grad=True)
            sp, ap = mc.decode(f0, s_t, a_t, BASIS)
            return ls.msl(target, sy.synthesize_components(f0, sp, ap, cfg)), s_t, a_t

        loss, s_t, a_t = objective(s0, a0)
        grads = dt.backward(loss)
        fd_s = central_diff(lambda s: objective(s, a0)[0].item(), s0)
        fd_a = central_diff(lambda a: objective(s0, a)[0].item(), a0)
        assert rel_grad_err(grads[s_t], fd_s) < 1e-4
        assert rel_grad_err(grads[a_t], fd_a) < 1e-4
        assert np.all(grads[a_t][5] == 0.0)
        assert np.any(grads[a_t][4] != 0.0)


def assert_same_bits(got, want):
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


# 10**-5 as numpy computes it: a log mel of exactly -5 then decodes an
# amplitude of exactly 0, so every bin of its row has M == 0
ZERO_EPS_BASIS = mc.MelBasis.build(8000, 64, n_mels=16,
                                   epsilon=float(np.power(10.0, -5.0)))


def decode_problem(basis, seed, n_frames=40):
    """A log mel with amplitudes of both signs and one row of zeros, and a
    coded aperiodicity that decodes outside [0, 1] and at both ends."""
    rs = np.random.default_rng(seed)
    f0 = np.full(n_frames, 150.0)
    f0[[0, 7, 8, 9, n_frames - 1]] = 0.0
    log_mel = np.log10(basis.epsilon) + rs.normal(scale=0.5, size=(n_frames, basis.n_mels))
    log_mel[3] = -5.0
    coded_ap = rs.uniform(-0.3, 1.3, size=(n_frames, 4))
    coded_ap[5, :2] = (0.0, 1.0)
    return f0, log_mel, coded_ap


class TestDecodeNodes:
    """``decode`` is two nodes that reproduce the composed graph's bits."""

    @pytest.mark.parametrize("basis", [ZERO_EPS_BASIS, FULL], ids=["fft64", "fft1024"])
    @pytest.mark.parametrize("tracked", [(True, True), (True, False), (False, True)],
                             ids=["both", "log_mel", "coded_ap"])
    def test_values_and_gradients_match_composed_graph(self, basis, tracked):
        f0, log_mel, coded_ap = decode_problem(basis, basis.n_bins)
        amplitude = np.power(10.0, log_mel) - basis.epsilon
        product = amplitude @ basis.pinv.T
        assert (product < 0).any() and (product > 0).any()
        if basis is ZERO_EPS_BASIS:
            assert np.all(product[3] == 0.0)
        resampled = mc.decompress_ap(coded_ap, basis.n_bins).data
        assert (resampled < 0).any() and (resampled > 1).any()
        rs = np.random.default_rng(7)
        weights = [dt.Tensor(rs.normal(size=(len(f0), basis.n_bins))) for _ in range(2)]
        runs = []
        for decode in (mc.decode, composed_decode):
            s_t = dt.Tensor(log_mel, requires_grad=tracked[0])
            a_t = dt.Tensor(coded_ap, requires_grad=tracked[1])
            sp, ap = decode(f0, s_t, a_t, basis)
            grads = dt.backward(dt.add(dt.sum(dt.mul(sp, weights[0])),
                                       dt.sum(dt.mul(ap, weights[1]))))
            runs.append([sp.data, ap.data] + [grads[t] for t in (s_t, a_t)
                                              if t.requires_grad])
        for got, want in zip(*runs):
            assert_same_bits(got, want)
        untracked = mc.decode(f0, log_mel, coded_ap, basis)
        for got, want in zip(untracked, runs[1][:2]):
            assert_same_bits(got.data, want)

    def test_single_frame_log_mel_matches_composed_graph(self):
        # a 1-D log mel goes through the same (1, n_mels) product as matmul's
        s = np.log10(BASIS.epsilon) + np.random.default_rng(8).normal(size=16)
        w = dt.Tensor(np.random.default_rng(9).normal(size=33))
        runs = []
        for decompress in (mc.decompress_sp,
                           lambda s, basis: composed_decode([1.0], s, np.zeros((1, 4)),
                                                            basis)[0]):
            s_t = dt.Tensor(s, requires_grad=True)
            sp = decompress(s_t, BASIS)
            runs.append((sp.data, dt.backward(dt.sum(dt.mul(sp, w)))[s_t]))
        for got, want in zip(*runs):
            assert_same_bits(got, want)

    @pytest.mark.parametrize("f0, log_mel", [(np.full(10, 100.0), np.zeros((7, 16))),
                                             (np.full(1, 100.0), np.zeros(16))],
                             ids=["frames", "1-D"])
    def test_log_mel_of_another_shape_rejected(self, f0, log_mel):
        # it used to decode an sp of 7 frames beside an ap of 10, or a 1-D sp
        want = rf"decode: log_mel must be \({len(f0)}, mels\), one row per frame of f0"
        with pytest.raises(ShapeError, match=want):
            mc.decode(f0, log_mel, np.zeros((len(f0), 4)), BASIS)

    def test_coded_ap_of_another_frame_count_rejected(self):
        with pytest.raises(ShapeError, match=r"decode: coded_ap must be \(6, bands\)"):
            mc.decode(np.full(6, 100.0), np.zeros((6, 16)), np.zeros((5, 4)), BASIS)


class TestContainers:
    def test_compress_then_decompress_restores_shapes(self):
        from diffworld.features import WorldFeatures
        t, bins = 6, 513
        feats = WorldFeatures(
            f0=np.full(t, 150.0),
            sp=np.tile(two_formant_envelope(bins, 22050), (t, 1)),
            ap=np.full((t, bins), 0.2),
            sample_rate=22050, hop=256, fft_size=1024)
        comp = mc.compress(feats)
        assert comp.log_mel.shape == (t, 80)
        assert comp.coded_ap.shape == (t, 16)
        back = mc.decompress(comp)
        assert back.sp.shape == (t, 513)
        assert back.ap.shape == (t, 513)
        np.testing.assert_array_equal(back.f0, feats.f0)

    def test_compress_rejects_a_band_count_that_is_not_an_integer(self):
        from diffworld.features import WorldFeatures
        feats = WorldFeatures(f0=np.full(4, 120.0), sp=np.ones((4, 33)),
                              ap=np.full((4, 33), 0.4), sample_rate=8000, hop=16,
                              fft_size=64)
        with pytest.raises(ValidationError, match="n_mels must be an integer, got 16.5"):
            mc.compress(feats, n_mels=16.5, ap_bands=4)

    def test_decompress_coerces_unvoiced_ap(self):
        from diffworld.features import WorldFeatures
        t, bins = 4, 33
        f0 = np.array([120.0, 0.0, 130.0, 0.0])
        feats = WorldFeatures(
            f0=f0, sp=np.ones((t, bins)), ap=np.full((t, bins), 0.4),
            sample_rate=8000, hop=16, fft_size=64)
        back = mc.decompress(mc.compress(feats, n_mels=16, ap_bands=4))
        np.testing.assert_array_equal(back.ap[f0 == 0], 1.0)
