import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from diffworld import excite as ex
from diffworld import losses as ls
from diffworld import melcodec as mc
from diffworld import synth as sy
from diffworld import tensor as dt
from diffworld.errors import ValidationError
from diffworld.features import WorldFeatures
from helpers import (central_diff, composed_transform, rel_grad_err, rel_l2,
                     two_formant_envelope)

CFG = sy.SynthConfig()
DESK = sy.SynthConfig(sample_rate=8000, fft_size=64)


def smooth_envelope(n_frames, cfg, centers=(600.0, 2000.0), floor=1e-3):
    bins = cfg.fft_size // 2 + 1
    env = two_formant_envelope(bins, cfg.sample_rate, centers=centers, floor=floor)
    return np.tile(env, (n_frames, 1))


def harmonic_clip(cfg, seconds=1.0, f0=150.0, centers=(600.0, 2000.0)):
    n_frames = int(seconds * cfg.sample_rate) // cfg.hop
    sp = smooth_envelope(n_frames, cfg, centers=centers)
    feats = WorldFeatures(f0=np.full(n_frames, f0), sp=sp,
                          ap=np.zeros((n_frames, cfg.fft_size // 2 + 1)),
                          sample_rate=cfg.sample_rate, hop=cfg.hop,
                          fft_size=cfg.fft_size)
    y = sy.synthesize(feats, sy.SynthConfig.for_features(feats, gain_noise=0.0))
    return y.data, sp


class TestTransformFormants:
    @pytest.mark.parametrize("mismatched", ["sp_src", "sp_tgt"])
    def test_frame_mismatch_states_the_framing_rule(self, mismatched):
        bins = CFG.fft_size // 2 + 1
        envs = {"sp_src": np.ones((100, bins)), "sp_tgt": np.ones((100, bins))}
        envs[mismatched] = np.ones((101, bins))
        with pytest.raises(ValidationError) as err:
            ex.transform_formants(np.zeros(25600), envs["sp_src"], envs["sp_tgt"], CFG)
        assert str(err.value) == (f"{mismatched} has 101 frames but a 25600-sample "
                                  "signal at hop 256 has 100 (ceil(n / hop))")

    def test_identity_envelopes(self):
        x, sp = harmonic_clip(CFG)
        y = ex.transform_formants(x, sp, sp, CFG).data
        n = CFG.fft_size
        assert rel_l2(y[n:-n], x[n:-n]) < 1e-8

    def test_scaled_envelope_scales_output(self):
        x, sp = harmonic_clip(CFG)
        y = ex.transform_formants(x, sp, 4.0 * sp, CFG).data
        n = CFG.fft_size
        assert rel_l2(y[n:-n], 2.0 * x[n:-n]) < 1e-10

    def test_composition(self):
        # An intermediate return to the time domain reprojects the modified
        # spectrogram onto the consistent subspace, so chaining two transforms
        # matches the direct one only to the reprojection error (~2e-4 for
        # formant-scale ratios), not exactly.
        x, _ = harmonic_clip(CFG)
        n_frames = sy.n_frames_for(len(x), CFG.hop)
        a = smooth_envelope(n_frames, CFG, centers=(500.0, 1800.0), floor=0.05)
        b = smooth_envelope(n_frames, CFG, centers=(700.0, 2300.0), floor=0.05)
        c = smooth_envelope(n_frames, CFG, centers=(900.0, 2800.0), floor=0.05)
        two_hop = ex.transform_formants(
            ex.transform_formants(x, a, b, CFG).data, b, c, CFG).data
        direct = ex.transform_formants(x, a, c, CFG).data
        n = CFG.fft_size
        assert rel_l2(two_hop[n:-n], direct[n:-n]) < 1e-3

    def test_formant_shift_moves_peaks_not_pitch(self):
        f0 = 20.0  # dense comb so the envelope peak is finely sampled
        bins = CFG.fft_size // 2 + 1
        freqs = np.linspace(0.0, CFG.sample_rate / 2.0, bins)
        env = (1e-3 + np.exp(-0.5 * ((freqs - 600.0) / 150.0) ** 2)
               + 0.4 * np.exp(-0.5 * ((freqs - 2000.0) / 300.0) ** 2))
        n_frames = int(2.0 * CFG.sample_rate) // CFG.hop
        sp = np.tile(env, (n_frames, 1))
        feats = WorldFeatures(f0=np.full(n_frames, f0), sp=sp,
                              ap=np.zeros((n_frames, bins)),
                              sample_rate=CFG.sample_rate, hop=CFG.hop,
                              fft_size=CFG.fft_size)
        x = sy.synthesize(feats, sy.SynthConfig.for_features(feats,
                                                             gain_noise=0.0)).data
        shifted = np.interp(freqs / 1.1, freqs, env)  # envelope moved up 10%
        sp_tgt = np.tile(shifted, (n_frames, 1))
        y = ex.transform_formants(x, sp, sp_tgt, CFG).data

        def formant_peak(signal, lo, hi):
            mag = np.abs(np.fft.rfft(signal))
            hz = np.fft.rfftfreq(len(signal), 1.0 / CFG.sample_rate)
            width = int(2.5 * f0 / (hz[1] - hz[0]))
            smooth = np.convolve(mag ** 2, np.ones(width) / width, mode="same")
            band = (hz > lo) & (hz < hi)
            return hz[band][np.argmax(smooth[band])]

        for lo, hi in ((350.0, 1100.0), (1400.0, 2900.0)):
            ratio = formant_peak(y, lo, hi) / formant_peak(x, lo, hi)
            assert 1.05 < ratio < 1.16

        # pitch peaks stay on the harmonic comb
        mag = np.abs(np.fft.rfft(y))
        hz = np.fft.rfftfreq(len(y), 1.0 / CFG.sample_rate)
        band = (hz > 100) & (hz < 3000)
        idx = np.argsort(mag[band])[-5:]
        for peak_hz in hz[band][idx]:
            assert abs(peak_hz / f0 - round(peak_hz / f0)) < 0.05

    def test_use_decompressed_stays_close(self):
        x, sp = harmonic_clip(CFG)
        y = ex.transform_formants(x, sp, sp, CFG, use_decompressed=True).data
        n = CFG.fft_size
        # codec roundtrip on both sides still cancels to a near-identity
        assert rel_l2(y[n:-n], x[n:-n]) < 1e-6

    def test_gradient_through_compressed_target(self):
        rs = np.random.default_rng(4)
        t_frames = 8
        basis = mc.MelBasis.build(DESK.sample_rate, DESK.fft_size, n_mels=16)
        x = rs.normal(size=t_frames * DESK.hop)
        target = rs.normal(size=t_frames * DESK.hop)
        sp_src = smooth_envelope(t_frames, DESK, centers=(500.0, 1700.0), floor=0.05)
        s0 = mc.compress_sp(sp_src, basis).data + rs.normal(scale=0.05,
                                                            size=(t_frames, 16))
        cfg = ls.MslConfig(scales=2)

        def loss_of(s):
            s_t = dt.Tensor(s, requires_grad=True)
            y = ex.transform_formants(x, sp_src, mc.decompress_sp(s_t, basis), DESK)
            return ls.msl(target, y, cfg), s_t

        loss, s_t = loss_of(s0)
        grads = dt.backward(loss)
        fd = central_diff(lambda s: loss_of(s)[0].item(), s0)
        assert rel_grad_err(grads[s_t], fd) < 1e-4

    @pytest.mark.parametrize("cfg, n", [(CFG, 220500), (DESK, 40 * 16 - 3),
                                        (DESK, 512 * 16), (DESK, 1100 * 16 + 5),
                                        (replace(DESK, fft_size=1 << 16, hop=1 << 14),
                                         12 * (1 << 14) - 5)],
                             ids=["fft1024-10s", "fft64-40", "fft64-512", "fft64-1101",
                                  "fft65536-12"])
    def test_matches_composed_graph(self, cfg, n):
        # an untracked transform takes 32768 // fft_size frames per block, and at
        # least one: 32 at fft 1024, 512 at fft 64 and 1 at fft 65536, so these
        # run one block, one full block, several blocks with a partial last one
        # and one block per frame
        rs = np.random.default_rng(n)
        x = rs.normal(size=n)
        n_frames = sy.n_frames_for(n, cfg.hop)
        bins = cfg.fft_size // 2 + 1
        sp_src = rs.uniform(0.01, 2.0, size=(n_frames, bins))
        sp_tgt = rs.uniform(0.01, 2.0, size=(n_frames, bins))
        want = composed_transform(x, sp_src, sp_tgt, cfg).data
        np.testing.assert_array_equal(ex.transform_formants(x, sp_src, sp_tgt, cfg).data,
                                      want)
        weights = dt.Tensor(rs.normal(size=n))
        runs = []
        for transform in (ex.transform_formants, composed_transform):
            tgt = dt.Tensor(sp_tgt, requires_grad=True)
            y = transform(x, sp_src, tgt, cfg)
            runs.append((y.data, dt.backward(dt.sum(dt.mul(y, weights)))[tgt]))
        for got, expected in zip(*runs):
            np.testing.assert_array_equal(got, expected)

    def test_tracked_signal_rejected(self):
        x = dt.Tensor(np.zeros(8 * DESK.hop), requires_grad=True)
        sp = np.ones((8, DESK.fft_size // 2 + 1))
        with pytest.raises(ValidationError,
                           match="transform_formants: the signal x is tracked"):
            ex.transform_formants(x, sp, sp, DESK)

    def test_ten_second_peak_memory_is_pinned(self):
        # untracked, a block of frames at a time: no spectrum of the whole
        # recording exists.  At most 2% above the measured peak; the composed
        # graph's was 28.84 MiB
        rs = np.random.default_rng(26)
        x = rs.normal(size=861 * CFG.hop)
        sp_src = smooth_envelope(861, CFG, centers=(500.0, 1800.0))
        sp_tgt = smooth_envelope(861, CFG, centers=(600.0, 2100.0))
        ex.transform_formants(x, sp_src, sp_tgt, CFG)  # fills the window cache first
        tracemalloc.start()
        try:
            ex.transform_formants(x, sp_src, sp_tgt, CFG)
            peak = tracemalloc.get_traced_memory()[1] / 2.0 ** 20
        finally:
            tracemalloc.stop()
        assert peak <= 1.02 * 10.11, peak
