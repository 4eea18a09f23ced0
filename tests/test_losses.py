import tracemalloc

import numpy as np
import pytest

from diffworld import losses as ls
from diffworld import synth as sy
from diffworld import tensor as dt
from diffworld.errors import ValidationError
from helpers import (central_diff, composed_msl, composed_scale_loss, naive_msl,
                     per_frame_msl_value, per_frame_scale_value, rel_grad_err)


# (n, window) with 1, 2 per - 1, 2 per and 2 per + 1 frames, per = 32768 //
# window being the frames of a block; at window 65536 every frame is a block
BOUNDARY_CASES = [(n, window) for window in (64, 256, 2048)
                  for n in [5] + [frames * (window // 4) - 3 for frames in
                                  (2 * 32768 // window - 1, 2 * 32768 // window,
                                   2 * 32768 // window + 1)]]
BOUNDARY_CASES.append((12 * (1 << 14) - 5, 1 << 16))
FLOOR = "floor"  # in place of n: the blocks of floor_signals


def floor_signals(rs):
    """``(x, y)`` of three blocks of frames at every window, each block being
    8192 samples of hops: ``y`` is exact zeros in the first, 1e-12 noise in
    the second (``|Z|`` > 0, below the log floor) and unit noise in the third
    (every ``|Z|`` above it), so a block's masks pass no bin, some or all."""
    x, y = rs.normal(size=3 * 8192), rs.normal(size=3 * 8192)
    y[:8192] = 0.0
    y[8192:16384] = 1e-12 * rs.normal(size=8192)
    for window in ls.MslConfig().window_sizes:
        per, hop = 32768 // window, window // 4
        low = [ls._magnitude(sy._spectrum(y, window, hop, first, first + per)).min()
               for first in (0, per, 2 * per)]
        assert low[0] == 0.0 and 0.0 < low[1] < ls.LOG_FLOOR <= low[2], window
    return x, y


def signals(n, seed):
    """``(x, y)`` of ``n`` samples of noise, with ``y``'s first third silent
    (``|Z|`` = 0 and the log floor), or :func:`floor_signals` for ``FLOOR``."""
    rs = np.random.default_rng(seed)
    if n == FLOOR:
        return floor_signals(rs)
    x, y = rs.normal(size=n), rs.normal(size=n)
    y[: n // 3] = 0.0
    return x, y


class TestMseFeatures:
    def test_identical_is_zero(self):
        x = np.random.default_rng(0).normal(size=(4, 5))
        assert ls.mse_features(x, x).item() == 0.0

    def test_definition(self):
        assert ls.mse_features(np.array([0.0]), np.array([2.0])).item() == 4.0

    def test_matches_naive_loop(self):
        rs = np.random.default_rng(1)
        x = rs.normal(size=(6, 7))
        y = rs.normal(size=(6, 7))
        naive = sum((x[i, j] - y[i, j]) ** 2 for i in range(6) for j in range(7)) / 42.0
        assert abs(ls.mse_features(x, y).item() - naive) < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            ls.mse_features(np.zeros((2, 3)), np.zeros((3, 2)))


class TestMsl:
    def test_identical_signals_zero(self):
        x = np.random.default_rng(2).normal(size=512)
        assert ls.msl(x, x, ls.MslConfig(scales=3)).item() == 0.0

    def test_positive_against_silence(self):
        x = np.sin(2 * np.pi * 440 * np.arange(2048) / 22050.0)
        assert ls.msl(x, np.zeros(2048), ls.MslConfig(scales=2)).item() > 0.0

    def test_window_ladder(self):
        assert ls.MslConfig().window_sizes == (64, 128, 256, 512, 1024, 2048)
        assert ls.MslConfig(scales=2).window_sizes == (64, 128)
        assert ls.MslConfig(scales=11).window_sizes[-1] == 65536
        assert ls.MslConfig(scales=np.int64(2)).window_sizes == (64, 128)

    @pytest.mark.parametrize("scales", [0, 12])
    def test_scales_outside_transform_range_rejected(self, scales):
        with pytest.raises(ValidationError, match=r"scales must be in \[1, 11\]"):
            ls.MslConfig(scales=scales)

    @pytest.mark.parametrize("scales", [2.5, True, "3"])
    def test_scales_must_be_an_integer(self, scales):
        with pytest.raises(ValidationError, match="MslConfig.scales must be an integer, got"):
            ls.MslConfig(scales=scales)

    def test_single_scale_matches_hand_computation(self):
        x = np.sin(2 * np.pi * 1000 * np.arange(256) / 8000.0)
        got = ls.msl(x, np.zeros(256), ls.MslConfig(scales=1)).item()
        assert abs(got - naive_msl(x, np.zeros(256), 1)) < 1e-12

    def test_multi_scale_matches_naive(self):
        rs = np.random.default_rng(3)
        x = rs.normal(size=700)
        y = rs.normal(size=700)
        got = ls.msl(x, y, ls.MslConfig(scales=3)).item()
        assert abs(got - naive_msl(x, y, 3)) < 1e-12

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            ls.msl(np.zeros(100), np.zeros(101))

    def test_gradient_matches_finite_differences(self):
        rs = np.random.default_rng(4)
        x = rs.normal(size=256)
        y0 = rs.normal(size=256)
        cfg = ls.MslConfig(scales=2)

        def f(y):
            return ls.msl(x, dt.Tensor(y, requires_grad=True), cfg).item()

        t = dt.Tensor(y0, requires_grad=True)
        grads = dt.backward(ls.msl(x, t, cfg))
        assert rel_grad_err(grads[t], central_diff(f, y0)) < 1e-4


class TestFusedScaleTerm:
    """One scale term is one graph node whose forward pass computes dL/dy."""

    @pytest.mark.parametrize("n, window", [(1200, 1024), (100, 256)])
    def test_gradient_matches_finite_differences(self, n, window):
        # 100 samples at window 256 (hop 64): both frames run past the end
        rs = np.random.default_rng(20)
        x, y0 = rs.normal(size=n), rs.normal(size=n)

        def f(y):
            return ls.scale_loss(x, y, window).item()

        t = dt.Tensor(y0, requires_grad=True)
        term = ls.scale_loss(x, t, window)
        assert term.item() == f(y0)
        assert rel_grad_err(dt.backward(term)[t], central_diff(f, y0)) < 1e-4

    def test_gradient_is_zero_where_the_spectrum_is(self):
        x = np.random.default_rng(21).normal(size=700)
        t = dt.Tensor(np.zeros(700), requires_grad=True)
        grad = dt.backward(ls.scale_loss(x, t, 128))[t]
        np.testing.assert_array_equal(grad, np.zeros(700))

    @pytest.mark.parametrize("n, window", [(700, 64), (700, 2048), (100, 256),
                                           (4096, 1024)] + BOUNDARY_CASES
                             + [(FLOOR, 64), (FLOOR, 256), (FLOOR, 2048)])
    def test_bit_identical_to_composed_graph(self, n, window):
        # the gradient keeps the composed graph's bits; the value sums each
        # frame first, so its bits are the per-frame reference's
        x, y0 = signals(n, 22)
        ref_y = dt.Tensor(y0, requires_grad=True)
        ref = composed_scale_loss(x, ref_y, window)
        ref_grad = dt.backward(ref)[ref_y]
        value = per_frame_scale_value(x, y0, window)
        assert value == pytest.approx(ref.item(), rel=1e-14)
        for side in (x, ls.scale_target(x, window)):
            t = dt.Tensor(y0, requires_grad=True)
            term = ls.scale_loss(side, t, window)
            assert term.item() == value
            assert ls.scale_loss(side, y0, window).item() == value
            np.testing.assert_array_equal(dt.backward(term)[t], ref_grad)

    @pytest.mark.parametrize("n", [1, 16383, 16384, 16385, 15872, 4700, FLOOR])
    def test_msl_bit_identical_to_composed_graph(self, n):
        # 16384 samples are two blocks at every window, and a sample more or
        # less puts a frame on either side; 15872 samples are a frame short of
        # two blocks at window 2048.  The scales' gradients share one buffer
        x, y0 = signals(n, 27)
        cfg = ls.MslConfig()
        ref_y = dt.Tensor(y0, requires_grad=True)
        ref = composed_msl(x, ref_y, cfg.scales)
        ref_grad = dt.backward(ref)[ref_y]
        value = per_frame_msl_value(x, y0, cfg.scales)
        assert value == pytest.approx(ref.item(), rel=1e-14)
        for side in (x, ls.msl_target(x, cfg)):
            t = dt.Tensor(y0, requires_grad=True)
            loss = ls.msl(side, t, cfg)
            assert loss.item() == value
            np.testing.assert_array_equal(dt.backward(loss)[t], ref_grad)

    @pytest.mark.parametrize("n, window", [(700, 64), (100, 256), (30000, 64),
                                           (30000, 2048)])
    def test_value_only_path_matches_tracked_value(self, n, window):
        # blocks of frames: 30000 samples at window 64 make four blocks, at
        # 2048 four more, and the last ones are partial
        rs = np.random.default_rng(26)
        x, y0 = rs.normal(size=n), rs.normal(size=n)
        y0[: n // 3] = 0.0
        tracked = ls.scale_loss(x, dt.Tensor(y0, requires_grad=True), window).item()
        for side in (x, ls.scale_target(x, window)):
            assert ls.scale_loss(side, y0, window).item() == tracked

    @pytest.mark.parametrize("block", [448, 1000, 64])
    def test_value_does_not_depend_on_the_block_size(self, monkeypatch, block):
        # 448 samples of frames are blocks of 7 frames at window 64 and one
        # frame from window 256 up; 64 makes a block of every frame
        rs = np.random.default_rng(28)
        x, y0 = rs.normal(size=5000), rs.normal(size=5000)
        y0[:1500] = 0.0

        def values():
            out = []
            for window in (64, 256, 2048):
                for side in (x, ls.scale_target(x, window)):
                    out += [ls.scale_loss(side, y0, window).item(),
                            ls.scale_loss(side, dt.Tensor(y0, requires_grad=True),
                                          window).item()]
            return out

        want = values()
        monkeypatch.setattr(sy, "_VALUE_BLOCK", block)
        assert values() == want

    def test_a_gradient_survives_the_next_call(self):
        rs = np.random.default_rng(23)
        x = rs.normal(size=900)
        cfg = ls.MslConfig(scales=4)
        target = ls.msl_target(x, cfg)
        ys = (rs.normal(size=900), rs.normal(size=900))
        grads = []
        for y0 in ys:
            t = dt.Tensor(y0, requires_grad=True)
            grads.append(dt.backward(ls.msl(target, t, cfg))[t])
        for y0, got in zip(ys, grads):  # the first gradient survived the second call
            t = dt.Tensor(y0, requires_grad=True)
            np.testing.assert_array_equal(got, dt.backward(ls.msl(target, t, cfg))[t])

    @pytest.mark.parametrize("call", [
        lambda x, y: ls.msl(x, y, ls.MslConfig(scales=2)),
        lambda x, y: ls.scale_loss(x, y, 64),
        lambda x, y: ls.msl_target(x, ls.MslConfig(scales=2)),
    ], ids=["msl", "scale_loss", "msl_target"])
    def test_tracked_reference_is_rejected(self, call, request):
        x = dt.Tensor(np.random.default_rng(24).normal(size=300), requires_grad=True)
        name = request.node.callspec.id
        with pytest.raises(ValidationError,
                           match=f"{name}: the reference signal x is tracked"):
            call(x, dt.Tensor(np.zeros(300), requires_grad=True))

    def test_empty_signals_rejected(self):
        with pytest.raises(ValidationError, match="signal is empty"):
            ls.msl(np.zeros(0), np.zeros(0))

    def test_peak_memory_on_ten_seconds(self):
        rs = np.random.default_rng(25)
        x, y0 = rs.normal(size=220500), rs.normal(size=220500)
        mib = 2.0 ** 20
        tracemalloc.start()
        try:
            # value only: the frames and the spectrum go before the arithmetic
            ls.scale_loss(x, y0, 64)
            value_peak = tracemalloc.get_traced_memory()[1] / mib
            tracemalloc.reset_peak()
            t = dt.Tensor(y0, requires_grad=True)
            dt.backward(ls.msl(x, t))
            grad_peak = tracemalloc.get_traced_memory()[1] / mib
        finally:
            tracemalloc.stop()
        assert value_peak < 24.0
        assert grad_peak < 64.0

    def test_value_only_peak_memory_is_pinned(self):
        # at most 2% above the peaks of the earlier value-only loop; each block
        # now frees its arrays before the next is made, and a loop that kept
        # one more array per block read 1.15 MiB at window 256
        rs = np.random.default_rng(25)
        x, y0 = rs.normal(size=220500), rs.normal(size=220500)
        for window, pinned in ((64, 1.161), (256, 1.016), (2048, 1.006)):
            ls.scale_loss(x[:4096], y0[:4096], window)  # caches its window
            tracemalloc.start()
            try:
                ls.scale_loss(x, y0, window)
                peak = tracemalloc.get_traced_memory()[1] / 2.0 ** 20
            finally:
                tracemalloc.stop()
            assert peak <= 1.02 * pinned, (window, peak)

    def test_tracked_peak_memory_is_pinned(self):
        # one tracked 10 s term at window 64, with its own gradient: at most
        # 2% above the measured peak, 2.3 times the 1.68 MiB signal.  It was
        # 4.42 MiB while each block made |d| in two temporaries and held its
        # arrays until the spectrum adjoint had made its frames
        rs = np.random.default_rng(25)
        x, y0 = rs.normal(size=220500), rs.normal(size=220500)
        ls.scale_loss(x[:4096], dt.Tensor(y0[:4096], requires_grad=True), 64)
        t = dt.Tensor(y0, requires_grad=True)
        tracemalloc.start()
        try:
            dt.backward(ls.scale_loss(x, t, 64))
            peak = tracemalloc.get_traced_memory()[1] / 2.0 ** 20
        finally:
            tracemalloc.stop()
        assert peak <= 1.02 * 3.814, peak


class TestScaleLossWindow:
    def test_float_window_named(self):
        # it used to end in a bare TypeError ("unsupported operand type(s) for &")
        x = np.zeros(300)
        with pytest.raises(ValidationError,
                           match="^scale_loss: window must be an integer, got 64.0$"):
            ls.scale_loss(x, x, 64.0)


class TestMslTarget:
    def test_cached_target_is_bit_identical(self):
        rs = np.random.default_rng(14)
        x, y0 = rs.normal(size=700), rs.normal(size=700)
        cfg = ls.MslConfig()
        target = ls.msl_target(x, cfg)
        for _ in range(2):  # the target is reusable
            yt = dt.Tensor(y0, requires_grad=True)
            cached = ls.msl(target, yt, cfg)
            g_cached = dt.backward(cached)[yt]
            yr = dt.Tensor(y0, requires_grad=True)
            direct = ls.msl(x, yr, cfg)
            assert cached.item() == direct.item()
            np.testing.assert_array_equal(g_cached, dt.backward(direct)[yr])

    @pytest.mark.parametrize("n, window", BOUNDARY_CASES)
    def test_blocks_match_one_spectrum_of_every_frame(self, n, window):
        x = np.random.default_rng(17).normal(size=n)
        hop = window // 4
        whole = ls._magnitude(sy._spectrum(x, window, hop, 0, sy.n_frames_for(n, hop)))
        np.testing.assert_array_equal(ls.scale_target(x, window).mag, whole)

    def test_config_mismatch_rejected(self):
        x = np.random.default_rng(15).normal(size=300)
        target = ls.msl_target(x, ls.MslConfig(scales=2))
        with pytest.raises(ValidationError, match="target has 2 scales, loss uses 3"):
            ls.msl(target, x, ls.MslConfig(scales=3))

    def test_length_mismatch_rejected(self):
        target = ls.msl_target(np.zeros(300), ls.MslConfig(scales=1))
        with pytest.raises(ValidationError, match="lengths"):
            ls.msl(target, np.zeros(301), ls.MslConfig(scales=1))

    def test_scale_target_window_mismatch_rejected(self):
        x = np.random.default_rng(16).normal(size=300)
        with pytest.raises(ValidationError, match="window 64"):
            ls.scale_loss(ls.scale_target(x, 64), x, 128)


class TestHingeGenerator:
    def test_zero_scores(self):
        assert ls.hinge_generator([np.zeros(8), np.zeros(8)]).item() == 0.0

    def test_constant_scores(self):
        c = 0.37
        got = ls.hinge_generator([np.full(5, c)] * 3, mu=2.0).item()
        assert abs(got - (-3 * 2.0 * c)) < 1e-12

    def test_matches_naive(self):
        rs = np.random.default_rng(6)
        scores = [rs.normal(size=(2, 9)) for _ in range(3)]
        naive = sum(np.mean(-s) for s in scores)
        assert abs(ls.hinge_generator(scores).item() - naive) < 1e-12

    def test_linear_in_mu(self):
        rs = np.random.default_rng(7)
        scores = [rs.normal(size=11)]
        base = ls.hinge_generator(scores, mu=1.0).item()
        assert abs(ls.hinge_generator(scores, mu=3.5).item() - 3.5 * base) < 1e-12


class TestFeatureMatching:
    def test_identical_maps_zero(self):
        maps = [[np.ones((2, 6))], [np.ones((3, 4))]]
        assert ls.feature_matching(maps, maps).item() == 0.0

    def test_single_map_unit_difference(self):
        real = [[np.zeros((1, 5))]]
        fake = [[np.ones((1, 5))]]
        lam = 2.5
        assert abs(ls.feature_matching(real, fake, lam).item() - lam) < 1e-12

    def test_matches_naive(self):
        rs = np.random.default_rng(8)
        real = [[rs.normal(size=(3, 7)), rs.normal(size=(2, 5))] for _ in range(2)]
        fake = [[rs.normal(size=(3, 7)), rs.normal(size=(2, 5))] for _ in range(2)]
        naive = 0.0
        for k in range(2):
            for i in range(2):
                n_i = real[k][i].shape[0]
                naive += np.mean(np.abs(real[k][i] - fake[k][i])) / n_i
        assert abs(ls.feature_matching(real, fake).item() - naive) < 1e-12

    def test_linear_in_lambda(self):
        real = [[np.zeros((2, 3))]]
        fake = [[np.ones((2, 3))]]
        base = ls.feature_matching(real, fake, 1.0).item()
        assert abs(ls.feature_matching(real, fake, 7.0).item() - 7.0 * base) < 1e-12


class TestHingeDiscriminator:
    def test_saturated_is_zero(self):
        real = [np.ones(6)]
        fake = [-np.ones(6)]
        assert ls.hinge_discriminator(real, fake).item() == 0.0
        assert ls.hinge_discriminator(real, fake, printed_sign=False).item() == 0.0

    def test_zero_scores_printed_form(self):
        real = [np.zeros(4)]
        fake = [np.zeros(4)]
        assert ls.hinge_discriminator(real, fake).item() == 0.0
        # the conventional variant differs here: max(0, 1) + max(0, 1) = 2
        got = ls.hinge_discriminator(real, fake, printed_sign=False).item()
        assert abs(got - 2.0) < 1e-12

    def test_matches_naive(self):
        rs = np.random.default_rng(9)
        real = [rs.normal(size=10) for _ in range(3)]
        fake = [rs.normal(size=10) for _ in range(3)]
        naive = sum(np.mean(np.minimum(0.0, 1.0 - r)) + np.mean(np.minimum(0.0, 1.0 + f))
                    for r, f in zip(real, fake))
        assert abs(ls.hinge_discriminator(real, fake).item() - naive) < 1e-12

    def test_linear_in_mu(self):
        rs = np.random.default_rng(10)
        real = [rs.normal(size=10)]
        fake = [rs.normal(size=10)]
        base = ls.hinge_discriminator(real, fake, mu=1.0).item()
        assert abs(ls.hinge_discriminator(real, fake, mu=4.0).item() - 4.0 * base) < 1e-12

