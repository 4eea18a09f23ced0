"""Adjoint checks for the framing and spectral primitives.

Each linear primitive ``A`` must satisfy ``<A x, g> == <x, A^T g>``, where
``A^T g`` is what ``backward`` produces for the loss ``sum(A(x) * g)``; the
finite-difference checks confirm the same adjoint from the forward side.
The geometries cover the STFT (1024/256), ``downsample_audio`` (4/2), a hop
that does not divide the frame length (16/5), a hop longer than the frame,
``pad_left`` of zero and above, and frames that run past the signal's end.
"""

import numpy as np
import pytest

from diffworld import tensor as dt
from diffworld.errors import ShapeError
from helpers import central_diff, rel_grad_err

# (frame_len, hop, n_frames, pad_left, length)
GEOMETRIES = [
    (1024, 256, 4, 0, 1400),   # frames stop before the signal's end
    (1024, 256, 4, 512, 1000),  # centered STFT framing, runs past the end
    (4, 2, 4, 1, 9),            # downsample_audio
    (4, 2, 5, 0, 8),
    (16, 5, 6, 0, 40),          # hop does not divide frame_len
    (16, 5, 6, 7, 20),
    (16, 5, 3, 3, 60),
    (4, 6, 3, 1, 15),           # hop longer than the frame: gaps
]
GEOMETRY_IDS = ["-".join(map(str, g)) for g in GEOMETRIES]


def frame_adjoint(g, frame_len, hop, n_frames, pad_left, length):
    x = dt.Tensor(np.zeros(length), requires_grad=True)
    loss = dt.sum(dt.mul(dt.frame(x, frame_len, hop, n_frames, pad_left),
                         dt.Tensor(g)))
    return dt.backward(loss)[x]


def overlap_add_adjoint(w, n_frames, frame_len, hop, out_len, pad_left):
    f = dt.Tensor(np.zeros((n_frames, frame_len)), requires_grad=True)
    loss = dt.sum(dt.mul(dt.overlap_add(f, hop, out_len, pad_left), dt.Tensor(w)))
    return dt.backward(loss)[f]


def naive_frame(x, frame_len, hop, n_frames, pad_left):
    out = np.zeros((n_frames, frame_len))
    for t in range(n_frames):
        for i in range(frame_len):
            m = t * hop + i - pad_left
            if 0 <= m < len(x):
                out[t, i] = x[m]
    return out


def naive_overlap_add(frames, hop, out_len, pad_left):
    """Frame-by-frame scatter-add, the loop the vectorised version replaced."""
    n_frames, frame_len = frames.shape
    buf = np.zeros(max((n_frames - 1) * hop + frame_len, pad_left + out_len))
    for t in range(n_frames):
        buf[t * hop: t * hop + frame_len] += frames[t]
    return buf[pad_left: pad_left + out_len]


def close(a, b):
    return abs(a - b) <= 1e-12 * max(abs(a), abs(b), 1.0)


@pytest.mark.parametrize("geometry", GEOMETRIES, ids=GEOMETRY_IDS)
class TestFramingAdjoints:
    def test_frame_matches_naive_gather(self, geometry):
        frame_len, hop, n_frames, pad_left, length = geometry
        x = np.random.default_rng(1).normal(size=length)
        out = dt.frame(dt.Tensor(x), frame_len, hop, n_frames, pad_left).data
        np.testing.assert_array_equal(out, naive_frame(x, frame_len, hop,
                                                       n_frames, pad_left))

    def test_overlap_add_and_frame_adjoint_match_naive_loop(self, geometry):
        # same additions in the same order as the loop: bit-identical
        frame_len, hop, n_frames, pad_left, length = geometry
        g = np.random.default_rng(11).normal(size=(n_frames, frame_len))
        want = naive_overlap_add(g, hop, length, pad_left)
        got = dt.overlap_add(dt.Tensor(g), hop, length, pad_left).data
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(frame_adjoint(g, *geometry), want)

    def test_frame_dot_product(self, geometry):
        frame_len, hop, n_frames, pad_left, length = geometry
        rs = np.random.default_rng(2)
        x = rs.normal(size=length)
        g = rs.normal(size=(n_frames, frame_len))
        lhs = np.sum(dt.frame(dt.Tensor(x), frame_len, hop, n_frames, pad_left).data * g)
        rhs = np.sum(x * frame_adjoint(g, *geometry))
        assert close(lhs, rhs)

    def test_overlap_add_dot_product(self, geometry):
        frame_len, hop, n_frames, pad_left, length = geometry
        rs = np.random.default_rng(3)
        f = rs.normal(size=(n_frames, frame_len))
        w = rs.normal(size=length)
        lhs = np.sum(dt.overlap_add(dt.Tensor(f), hop, length, pad_left).data * w)
        rhs = np.sum(f * overlap_add_adjoint(w, n_frames, frame_len, hop,
                                             length, pad_left))
        assert close(lhs, rhs)

    def test_overlap_add_is_adjoint_of_frame(self, geometry):
        frame_len, hop, n_frames, pad_left, length = geometry
        rs = np.random.default_rng(4)
        x = rs.normal(size=length)
        f = rs.normal(size=(n_frames, frame_len))
        lhs = np.sum(dt.frame(dt.Tensor(x), frame_len, hop, n_frames, pad_left).data * f)
        rhs = np.sum(x * dt.overlap_add(dt.Tensor(f), hop, length, pad_left).data)
        assert close(lhs, rhs)

    def test_frame_finite_differences(self, geometry):
        frame_len, hop, n_frames, pad_left, length = geometry
        rs = np.random.default_rng(5)
        x0 = rs.normal(size=length)
        g = rs.normal(size=(n_frames, frame_len))

        def f(x):
            return float(np.sum(dt.frame(dt.Tensor(x), frame_len, hop, n_frames,
                                         pad_left).data * g))

        assert rel_grad_err(frame_adjoint(g, *geometry), central_diff(f, x0)) < 1e-6

    def test_overlap_add_finite_differences(self, geometry):
        frame_len, hop, n_frames, pad_left, length = geometry
        rs = np.random.default_rng(6)
        f0 = rs.normal(size=(n_frames, frame_len))
        w = rs.normal(size=length)

        def f(frames):
            return float(np.sum(dt.overlap_add(dt.Tensor(frames), hop, length,
                                               pad_left).data * w))

        got = overlap_add_adjoint(w, n_frames, frame_len, hop, length, pad_left)
        assert rel_grad_err(got, central_diff(f, f0)) < 1e-6


@pytest.mark.parametrize("hop", [0, -2])
def test_non_positive_hop_rejected(hop):
    with pytest.raises(ShapeError, match="frame: hop"):
        dt.frame(dt.Tensor(np.zeros(8)), 4, hop, 2, 0)
    with pytest.raises(ShapeError, match="overlap_add: hop"):
        dt.overlap_add(dt.Tensor(np.zeros((2, 4))), hop, 8, 0)


# (batch shape, input length, transform size)
RFFT_CASES = [((), 24, 32), ((3,), 32, 32), ((2,), 5, 8), ((), 1, 2), ((4,), 2, 2)]


def dft_planes(length, n):
    """Real and imaginary DFT matrices, (n // 2 + 1, length) each."""
    k = np.arange(n // 2 + 1)[:, None]
    m = np.arange(length)[None, :]
    angle = 2.0 * np.pi * k * m / n
    return np.cos(angle), -np.sin(angle)


@pytest.mark.parametrize("batch,length,n", RFFT_CASES,
                         ids=[f"{b}-{l}-{n}" for b, l, n in RFFT_CASES])
class TestRfftAdjoint:
    def test_adjoint_matches_dft_matrix(self, batch, length, n):
        rs = np.random.default_rng(7)
        g = rs.normal(size=batch + (2, n // 2 + 1))
        x = dt.Tensor(np.zeros(batch + (length,)), requires_grad=True)
        got = dt.backward(dt.sum(dt.mul(dt.rfft(x, n), dt.Tensor(g))))[x]
        re, im = dft_planes(length, n)
        want = g[..., 0, :] @ re + g[..., 1, :] @ im
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * n)

    def test_dot_product(self, batch, length, n):
        rs = np.random.default_rng(8)
        x = rs.normal(size=batch + (length,))
        g = rs.normal(size=batch + (2, n // 2 + 1))
        xt = dt.Tensor(np.zeros_like(x), requires_grad=True)
        adj = dt.backward(dt.sum(dt.mul(dt.rfft(xt, n), dt.Tensor(g))))[xt]
        lhs = np.sum(dt.rfft(dt.Tensor(x), n).data * g)
        assert close(lhs, np.sum(x * adj))

    def test_finite_differences(self, batch, length, n):
        rs = np.random.default_rng(9)
        x0 = rs.normal(size=batch + (length,))
        g = rs.normal(size=batch + (2, n // 2 + 1))

        def f(x):
            return float(np.sum(dt.rfft(dt.Tensor(x), n).data * g))

        xt = dt.Tensor(x0, requires_grad=True)
        got = dt.backward(dt.sum(dt.mul(dt.rfft(xt, n), dt.Tensor(g))))[xt]
        assert rel_grad_err(got, central_diff(f, x0)) < 1e-6


class TestComplexAbsAtZeros:
    Z = np.array([[[0.0, 3.0, 0.0, -1.5, 0.0],
                   [0.0, 4.0, -2.0, 0.0, 0.0]],
                  [[0.0, 0.0, 1.0, 0.6, -0.8],
                   [0.0, 0.0, 1.0, -0.8, 0.6]]])

    def test_forward_is_exact(self):
        mag = dt.complex_abs(dt.Tensor(self.Z)).data
        np.testing.assert_array_equal(
            mag, [[0.0, 5.0, 2.0, 1.5, 0.0], [0.0, 0.0, np.sqrt(2.0), 1.0, 1.0]])

    def test_matches_hypot_to_rounding(self):
        rs = np.random.default_rng(17)
        z = rs.normal(size=(40, 2, 33)) * 10.0 ** rs.uniform(-3, 3, size=(40, 1, 1))
        mag = dt.complex_abs(dt.Tensor(z)).data
        np.testing.assert_allclose(mag, np.hypot(z[:, 0], z[:, 1]),
                                   rtol=2 * np.finfo(float).eps, atol=0)

    def test_gradient_is_unit_phasor_and_zero_at_origin(self):
        rs = np.random.default_rng(10)
        g = rs.normal(size=(2, 5))
        z = dt.Tensor(self.Z, requires_grad=True)
        got = dt.backward(dt.sum(dt.mul(dt.complex_abs(z), dt.Tensor(g))))[z]
        mag = np.sqrt(self.Z[:, 0] ** 2 + self.Z[:, 1] ** 2)
        safe = np.where(mag > 0, mag, 1.0)
        want = np.where(mag > 0, g / safe, 0.0)[:, None, :] * self.Z
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0)
        assert np.all(got[0, :, 0] == 0.0) and np.all(got[1, :, :2] == 0.0)

    def test_finite_differences_away_from_origin(self):
        rs = np.random.default_rng(11)
        z0 = self.Z + 0.0
        g = rs.normal(size=(2, 5))
        live = np.sqrt(z0[:, 0] ** 2 + z0[:, 1] ** 2) > 0

        def f(z):
            return float(np.sum(dt.complex_abs(dt.Tensor(z)).data * g))

        z = dt.Tensor(z0, requires_grad=True)
        got = dt.backward(dt.sum(dt.mul(dt.complex_abs(z), dt.Tensor(g))))[z]
        fd = central_diff(f, z0, step=1e-7)
        mask = np.broadcast_to(live[:, None, :], z0.shape)
        assert rel_grad_err(got[mask], fd[mask]) < 1e-6
