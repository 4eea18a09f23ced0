import gc
import threading
import weakref

import numpy as np
import pytest

from diffworld import tensor as dt
from diffworld.errors import DomainError, ShapeError, ValidationError
from helpers import central_diff, rel_grad_err, rel_l2


def scalar_fn(op):
    """Lift a Tensor op to an ndarray -> float function for FD checks."""

    def run(x):
        t = dt.Tensor(x, requires_grad=True)
        return dt.sum(op(t)).item()

    return run


def analytic_grad(op, x):
    t = dt.Tensor(x, requires_grad=True)
    grads = dt.backward(dt.sum(op(t)))
    return grads[t]


class TestElementwise:
    def test_mul_values(self):
        out = dt.mul(dt.Tensor([1.0, 2.0]), dt.Tensor([3.0, 4.0]))
        np.testing.assert_array_equal(out.data, [3.0, 8.0])

    def test_clamp_min_matches_max(self):
        x = np.array([-2.0, -0.5, 0.0, 0.7, 3.0])
        out = dt.clamp_min(dt.Tensor(x), 0.0)
        np.testing.assert_array_equal(out.data, np.maximum(x, 0.0))

    def test_log10_derivative_at_ten(self):
        x = np.array([10.0])
        fd = central_diff(scalar_fn(dt.log10), x, step=1e-6)
        got = analytic_grad(dt.log10, x)
        assert abs(fd[0] - 1.0 / (10.0 * np.log(10.0))) < 1e-8
        assert rel_grad_err(got, fd) < 1e-6

    def test_broadcast_mismatch_raises(self):
        with pytest.raises(ShapeError):
            dt.add(dt.Tensor(np.zeros(3)), dt.Tensor(np.zeros(4)))

    def test_log_of_negative_reports_index(self):
        with pytest.raises(DomainError, match=r"\(1,\)"):
            dt.log(dt.Tensor([1.0, -1.0]))

    def test_sqrt_of_negative_reports_index(self):
        with pytest.raises(DomainError, match=r"\(0, 2\)"):
            dt.sqrt(dt.Tensor([[1.0, 1.0, -3.0]]))

    @pytest.mark.parametrize("op", [dt.log, dt.log10])
    def test_log_of_zero_reports_index(self, op):
        # checked before np.log runs, so no -inf value or gradient escapes
        with pytest.raises(DomainError, match=r"non-positive value at index \(1,\)"):
            op(dt.Tensor([2.0, 0.0, -1.0]))


UNARY_CASES = [
    (dt.exp, (-1.0, 1.0)),
    (dt.log, (0.2, 3.0)),
    (dt.log10, (0.2, 3.0)),
    (dt.sqrt, (0.2, 3.0)),
    (dt.sigmoid, (-3.0, 3.0)),
    (dt.abs, (0.2, 3.0)),
    (dt.neg, (-1.0, 1.0)),
    (lambda t: dt.clamp_min(t, 0.5), (0.6, 3.0)),
    (lambda t: dt.clamp(t, 0.1, 10.0), (0.3, 3.0)),
    (lambda t: dt.pow(t, 3.0), (0.3, 2.0)),
    (lambda t: dt.pow(2.0, t), (0.3, 2.0)),
    (lambda t: dt.mean(t, axis=0), (-1.0, 1.0)),
    (lambda t: dt.sum(t, axis=1, keepdims=True), (-1.0, 1.0)),
    (lambda t: dt.reshape(t, (-1,)), (-1.0, 1.0)),
]


@pytest.mark.parametrize("op,rng", UNARY_CASES)
def test_unary_gradients_match_finite_differences(op, rng):
    rs = np.random.default_rng(7)
    x = rs.uniform(rng[0], rng[1], size=(3, 4))
    fd = central_diff(scalar_fn(op), x)
    got = analytic_grad(op, x)
    assert rel_grad_err(got, fd) < 1e-6


def test_binary_gradients_match_finite_differences():
    rs = np.random.default_rng(11)
    a0 = rs.uniform(0.5, 2.0, size=(3, 4))
    b0 = rs.uniform(0.5, 2.0, size=(4,))  # exercises broadcasting
    for op in (dt.add, dt.sub, dt.mul, dt.div, dt.pow):
        def f_a(x, op=op):
            return dt.sum(op(dt.Tensor(x, requires_grad=True), dt.Tensor(b0))).item()

        def f_b(x, op=op):
            return dt.sum(op(dt.Tensor(a0), dt.Tensor(x, requires_grad=True))).item()

        ta = dt.Tensor(a0, requires_grad=True)
        tb = dt.Tensor(b0, requires_grad=True)
        grads = dt.backward(dt.sum(op(ta, tb)))
        assert rel_grad_err(grads[ta], central_diff(f_a, a0)) < 1e-6
        assert rel_grad_err(grads[tb], central_diff(f_b, b0)) < 1e-6


class TestMatmul:
    def test_identity(self):
        v = np.array([1.5, -2.0, 0.25])
        out = dt.matmul(dt.Tensor(np.eye(3)), dt.Tensor(v))
        np.testing.assert_allclose(out.data, v)

    def test_shapes(self):
        a = dt.Tensor(np.zeros((80, 513)))
        b = dt.Tensor(np.zeros((513, 7)))
        assert dt.matmul(a, b).shape == (80, 7)
        with pytest.raises(ShapeError):
            dt.matmul(a, dt.Tensor(np.zeros((5, 7))))

    def test_dot_gradient_is_other_operand(self):
        rs = np.random.default_rng(3)
        a = dt.Tensor(rs.normal(size=6), requires_grad=True)
        b = rs.normal(size=6)
        grads = dt.backward(dt.matmul(a, dt.Tensor(b)))
        np.testing.assert_allclose(grads[a], b)

    def test_gradients_match_finite_differences(self):
        rs = np.random.default_rng(5)
        a0 = rs.normal(size=(3, 4))
        b0 = rs.normal(size=(4, 2))
        w = rs.normal(size=(3, 2))

        def f_a(x):
            return dt.sum(dt.mul(dt.matmul(dt.Tensor(x, requires_grad=True),
                                           dt.Tensor(b0)), dt.Tensor(w))).item()

        def f_b(x):
            return dt.sum(dt.mul(dt.matmul(dt.Tensor(a0),
                                           dt.Tensor(x, requires_grad=True)),
                                 dt.Tensor(w))).item()

        ta = dt.Tensor(a0, requires_grad=True)
        tb = dt.Tensor(b0, requires_grad=True)
        grads = dt.backward(dt.sum(dt.mul(dt.matmul(ta, tb), dt.Tensor(w))))
        assert rel_grad_err(grads[ta], central_diff(f_a, a0)) < 1e-6
        assert rel_grad_err(grads[tb], central_diff(f_b, b0)) < 1e-6


class TestRfft:
    def test_zeros(self):
        out = dt.rfft(dt.Tensor(np.zeros(16)), 16)
        assert out.shape == (2, 9)
        np.testing.assert_array_equal(out.data, 0.0)

    def test_unit_impulse(self):
        x = np.zeros(8)
        x[0] = 1.0
        out = dt.rfft(dt.Tensor(x), 8)
        np.testing.assert_allclose(out.data[0], np.ones(5), atol=1e-15)
        np.testing.assert_allclose(out.data[1], np.zeros(5), atol=1e-15)

    def test_parseval_against_direct_sum(self):
        rs = np.random.default_rng(17)
        x = rs.normal(size=64)
        spec = dt.rfft(dt.Tensor(x), 64).data
        power = spec[0] ** 2 + spec[1] ** 2
        rhs = (power[0] + 2.0 * np.sum(power[1:-1]) + power[-1]) / 64.0
        lhs = float(np.sum(x * x))  # direct summation oracle
        assert abs(lhs - rhs) < 1e-10 * max(lhs, 1.0)

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ShapeError):
            dt.rfft(dt.Tensor(np.zeros(12)), 12)
        with pytest.raises(ShapeError):
            dt.irfft(dt.Tensor(np.zeros((2, 7))), 12)

    def test_roundtrip_identity(self):
        rs = np.random.default_rng(23)
        for n in (8, 64, 256, 1024):
            x = rs.normal(size=n)
            back = dt.irfft(dt.rfft(dt.Tensor(x), n), n)
            assert rel_l2(back.data, x) < 1e-12

    def test_rfft_adjoint_matches_finite_differences(self):
        rs = np.random.default_rng(29)
        x0 = rs.normal(size=24)  # shorter than n: exercises zero-padding
        w = rs.normal(size=(2, 17))

        def f(x):
            t = dt.Tensor(x, requires_grad=True)
            return dt.sum(dt.mul(dt.rfft(t, 32), dt.Tensor(w))).item()

        t = dt.Tensor(x0, requires_grad=True)
        grads = dt.backward(dt.sum(dt.mul(dt.rfft(t, 32), dt.Tensor(w))))
        assert rel_grad_err(grads[t], central_diff(f, x0)) < 1e-6

    def test_irfft_adjoint_matches_finite_differences(self):
        rs = np.random.default_rng(31)
        z0 = rs.normal(size=(2, 9))
        w = rs.normal(size=16)

        def f(z):
            t = dt.Tensor(z, requires_grad=True)
            return dt.sum(dt.mul(dt.irfft(t, 16), dt.Tensor(w))).item()

        t = dt.Tensor(z0, requires_grad=True)
        grads = dt.backward(dt.sum(dt.mul(dt.irfft(t, 16), dt.Tensor(w))))
        assert rel_grad_err(grads[t], central_diff(f, z0)) < 1e-6

    def test_complex_abs_gradient(self):
        rs = np.random.default_rng(37)
        z0 = rs.normal(size=(3, 2, 5)) + 0.5

        def f(z):
            t = dt.Tensor(z, requires_grad=True)
            return dt.sum(dt.complex_abs(t)).item()

        t = dt.Tensor(z0, requires_grad=True)
        grads = dt.backward(dt.sum(dt.complex_abs(t)))
        assert rel_grad_err(grads[t], central_diff(f, z0)) < 1e-6

    def test_complex_abs_zero_is_nan_free(self):
        t = dt.Tensor(np.zeros((2, 2, 4)), requires_grad=True)
        grads = dt.backward(dt.sum(dt.complex_abs(t)))
        assert np.all(np.isfinite(grads[t]))


class TestFramingOps:
    def test_frame_overlap_add_are_adjoint(self):
        rs = np.random.default_rng(41)
        x0 = rs.normal(size=50)
        g = rs.normal(size=(6, 16))

        def f(x):
            t = dt.Tensor(x, requires_grad=True)
            return dt.sum(dt.mul(dt.frame(t, 16, 8, 6, 8), dt.Tensor(g))).item()

        t = dt.Tensor(x0, requires_grad=True)
        grads = dt.backward(dt.sum(dt.mul(dt.frame(t, 16, 8, 6, 8), dt.Tensor(g))))
        assert rel_grad_err(grads[t], central_diff(f, x0)) < 1e-6

        fr0 = rs.normal(size=(6, 16))
        w = rs.normal(size=48)

        def f2(fr):
            t = dt.Tensor(fr, requires_grad=True)
            return dt.sum(dt.mul(dt.overlap_add(t, 8, 48, 8), dt.Tensor(w))).item()

        t2 = dt.Tensor(fr0, requires_grad=True)
        grads2 = dt.backward(dt.sum(dt.mul(dt.overlap_add(t2, 8, 48, 8), dt.Tensor(w))))
        assert rel_grad_err(grads2[t2], central_diff(f2, fr0)) < 1e-6

    def test_delay_shifts_and_backpropagates(self):
        x = np.arange(6.0)
        out = dt.delay(dt.Tensor(x), 2)
        np.testing.assert_array_equal(out.data, [0, 0, 0, 1, 2, 3])
        t = dt.Tensor(x, requires_grad=True)
        g = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        grads = dt.backward(dt.sum(dt.mul(dt.delay(t, 2), dt.Tensor(g))))
        np.testing.assert_array_equal(grads[t], [3, 4, 5, 6, 0, 0])

    def test_causal_fir_matches_brute_force(self):
        rs = np.random.default_rng(43)
        x = rs.normal(size=30)
        w = rs.normal(size=5)
        out = dt.causal_fir(dt.Tensor(x), dt.Tensor(w)).data
        ref = np.array([sum(w[l] * x[t - l] for l in range(5) if 0 <= t - l < 30)
                        for t in range(30)])
        np.testing.assert_allclose(out, ref, atol=1e-12)

    def test_causal_fir_gradients(self):
        rs = np.random.default_rng(47)
        x0 = rs.normal(size=20)
        w0 = rs.normal(size=4)
        weight = rs.normal(size=20)

        tx = dt.Tensor(x0, requires_grad=True)
        tw = dt.Tensor(w0, requires_grad=True)
        grads = dt.backward(dt.sum(dt.mul(dt.causal_fir(tx, tw), dt.Tensor(weight))))

        def f_x(x):
            return dt.sum(dt.mul(dt.causal_fir(dt.Tensor(x, requires_grad=True),
                                               dt.Tensor(w0)), dt.Tensor(weight))).item()

        def f_w(w):
            return dt.sum(dt.mul(dt.causal_fir(dt.Tensor(x0),
                                               dt.Tensor(w, requires_grad=True)),
                                 dt.Tensor(weight))).item()

        assert rel_grad_err(grads[tx], central_diff(f_x, x0)) < 1e-6
        assert rel_grad_err(grads[tw], central_diff(f_w, w0)) < 1e-6


class TestBackward:
    def test_sum_gives_ones(self):
        x = dt.Tensor(np.zeros((2, 3)), requires_grad=True)
        grads = dt.backward(dt.sum(x))
        np.testing.assert_array_equal(grads[x], np.ones((2, 3)))

    def test_sum_of_squares(self):
        x = dt.Tensor([1.0, 2.0], requires_grad=True)
        grads = dt.backward(dt.sum(dt.mul(x, x)))
        np.testing.assert_allclose(grads[x], [2.0, 4.0])

    def test_non_scalar_loss_rejected(self):
        x = dt.Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ShapeError):
            dt.backward(dt.mul(x, x))

    def test_linearity_of_adjoint(self):
        rs = np.random.default_rng(53)
        x0 = rs.normal(size=5)

        def losses(t):
            l1 = dt.sum(dt.mul(t, t))
            l2 = dt.sum(dt.exp(t))
            return l1, l2

        xa = dt.Tensor(x0, requires_grad=True)
        l1, l2 = losses(xa)
        g_sum = dt.backward(dt.add(l1, l2))[xa]

        xb = dt.Tensor(x0, requires_grad=True)
        g1 = dt.backward(losses(xb)[0])[xb]
        xc = dt.Tensor(x0, requires_grad=True)
        g2 = dt.backward(losses(xc)[1])[xc]
        np.testing.assert_allclose(g_sum, g1 + g2, rtol=1e-12)

    def test_unattached_tensor_yields_no_gradient(self):
        bystander = dt.Tensor([1.0], requires_grad=True)
        x = dt.Tensor([2.0], requires_grad=True)
        grads = dt.backward(dt.sum(dt.mul(x, x)))
        assert bystander not in grads
        assert bystander.grad is None

    def test_constant_math_owns_no_graph(self):
        a = dt.Tensor([1.0, 2.0])
        loss = dt.sum(dt.exp(dt.mul(a, a)))
        assert dt.backward(loss) == {}
        assert a.grad is None

    def test_diamond_graph_gets_exact_gradients(self):
        # y reaches the loss twice; it must be visited once, after both paths
        x0 = np.array([0.3, -1.2])
        x = dt.Tensor(x0, requires_grad=True)
        y = dt.mul(x, x)
        loss = dt.sum(dt.add(y, dt.exp(y)))
        grads = dt.backward(loss)
        g_y = 1.0 + np.exp(x0 * x0)
        np.testing.assert_allclose(grads[x], 2.0 * g_y * x0, rtol=1e-15)

    def test_reused_node_accumulates_before_visit(self):
        # y feeds two consumers; its gradient must be complete when popped
        x = dt.Tensor([0.7], requires_grad=True)
        y = dt.mul(x, x)
        loss = dt.sum(dt.add(dt.mul(y, y), y))
        grads = dt.backward(loss)
        # d/dx (x^4 + x^2) = 4x^3 + 2x
        np.testing.assert_allclose(grads[x], [4 * 0.7 ** 3 + 2 * 0.7], rtol=1e-12)

    def test_threads_build_independent_graphs(self):
        results = {}

        def work(name, value):
            x = dt.Tensor([value], requires_grad=True)
            for _ in range(50):
                loss = dt.sum(dt.mul(x, x))
                results[name] = dt.backward(loss)[x]

        threads = [threading.Thread(target=work, args=(i, float(i + 1))) for i in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        for i in range(4):
            np.testing.assert_allclose(results[i], [2.0 * (i + 1)])

    def test_grad_accumulates_across_backward_calls(self):
        x = dt.Tensor([3.0], requires_grad=True)
        dt.backward(dt.sum(dt.mul(x, x)))
        dt.backward(dt.sum(dt.mul(x, x)))
        np.testing.assert_allclose(x.grad, [12.0])


class TestGraphOwnership:
    def test_interleaved_forwards_backward_independently(self):
        x0 = np.array([0.5, -1.5])
        x = dt.Tensor(x0, requires_grad=True)
        la = dt.sum(dt.mul(x, x))
        lb = dt.sum(dt.exp(x))
        ga = dt.backward(la)
        gb = dt.backward(lb)
        np.testing.assert_allclose(ga[x], 2.0 * x0, rtol=1e-15)
        np.testing.assert_allclose(gb[x], np.exp(x0), rtol=1e-15)
        np.testing.assert_allclose(x.grad, 2.0 * x0 + np.exp(x0), rtol=1e-15)

    def test_second_backward_on_same_loss_raises(self):
        x = dt.Tensor([1.0, 2.0], requires_grad=True)
        loss = dt.sum(dt.mul(x, x))
        dt.backward(loss)
        with pytest.raises(ValidationError, match=r"backward: .* shape \(\)"):
            dt.backward(loss)
        np.testing.assert_allclose(x.grad, [2.0, 4.0])

    def test_loss_from_consumed_intermediate_raises(self):
        x = dt.Tensor([1.0, 2.0], requires_grad=True)
        h = dt.exp(x)
        dt.backward(dt.sum(h))
        with pytest.raises(ValidationError, match=r"backward: .* shape \(2,\)"):
            dt.backward(dt.sum(dt.mul(h, h)))
        np.testing.assert_allclose(x.grad, np.exp([1.0, 2.0]))

    def test_graph_without_backward_is_freed(self, refcount_only):
        x = dt.Tensor(np.ones(3), requires_grad=True)
        h = dt.exp(x)
        loss = dt.sum(dt.mul(h, h))
        ref = weakref.ref(h.data)
        del h, loss
        assert ref() is None

    def test_forward_stopped_by_domain_error_is_freed(self, refcount_only):
        x = dt.Tensor(np.ones(3), requires_grad=True)
        h = dt.neg(dt.exp(x))
        ref = weakref.ref(h.data)
        try:
            dt.log(h)
        except DomainError:
            pass
        else:
            pytest.fail("log of a negative tensor did not raise")
        del h
        assert ref() is None


@pytest.fixture
def refcount_only():
    """Turn the cycle collector off, so only refcounting can free a graph."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def test_float32_optin_preserved():
    x = dt.Tensor(np.ones(4, dtype=np.float32))
    assert dt.exp(x).data.dtype == np.float32
    assert dt.Tensor([1.0, 2.0]).data.dtype == np.float64
