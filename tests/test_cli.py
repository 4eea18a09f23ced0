from dataclasses import replace

import numpy as np
import pytest

from diffworld import cli
from diffworld import losses as ls
from diffworld import melcodec as mc
from diffworld import synth as sy
from diffworld.features import (CompressedFeatures, Waveform, WorldFeatures,
                                read_features, read_wav, write_features, write_wav)
from helpers import two_formant_envelope

SR, FFT, HOP = 8000, 64, 16


def make_raw_file(path, t=40, voiced=True, seed=0):
    rs = np.random.default_rng(seed)
    bins = FFT // 2 + 1
    env = two_formant_envelope(bins, SR, centers=(500, 1700))
    sp = np.tile(env, (t, 1)) * rs.uniform(0.7, 1.3, size=(t, 1))
    ap = np.tile(np.linspace(0.1, 0.6, bins), (t, 1))
    f0 = np.full(t, 160.0) if voiced else np.zeros(t)
    feats = WorldFeatures(f0=f0, sp=sp, ap=ap, sample_rate=SR, hop=HOP,
                          fft_size=FFT)
    write_features(path, feats)
    return feats


class TestSynth:
    def test_raw_features_produce_full_length_wav(self, tmp_path):
        feat_path = tmp_path / "f.wfeat"
        feats = make_raw_file(feat_path, t=40)
        out = tmp_path / "y.wav"
        assert cli.main(["synth", str(feat_path), "-o", str(out)]) == 0
        wave = read_wav(out)
        assert len(wave) == feats.n_frames * HOP
        assert wave.sample_rate == SR

    def test_compressed_features_auto_decompressed(self, tmp_path):
        feat_path = tmp_path / "f.wfeat"
        make_raw_file(feat_path, t=30)
        comp_path = tmp_path / "c.wfeat"
        assert cli.main(["compress", str(feat_path), "-o", str(comp_path),
                         "--mels", "16", "--ap-bands", "4"]) == 0
        out = tmp_path / "y.wav"
        assert cli.main(["synth", str(comp_path), "-o", str(out)]) == 0
        assert len(read_wav(out)) == 30 * HOP

    def test_noise_gain_zero_on_unvoiced_input_is_silent(self, tmp_path):
        feat_path = tmp_path / "f.wfeat"
        make_raw_file(feat_path, t=20, voiced=False)  # ap forced to 1
        out = tmp_path / "y.wav"
        assert cli.main(["synth", str(feat_path), "-o", str(out),
                         "--gain-noise", "0"]) == 0
        np.testing.assert_array_equal(read_wav(out).samples, 0.0)

    def test_fir_taps_applied(self, tmp_path):
        feat_path = tmp_path / "f.wfeat"
        make_raw_file(feat_path, t=20)
        plain = tmp_path / "plain.wav"
        delayed = tmp_path / "delayed.wav"
        taps = np.zeros(8)
        taps[3] = 1.0
        taps_path = tmp_path / "taps.f64"
        taps.astype("<f8").tofile(taps_path)
        assert cli.main(["synth", str(feat_path), "-o", str(plain)]) == 0
        assert cli.main(["synth", str(feat_path), "-o", str(delayed),
                         "--fir", str(taps_path), "--gain-dry", "0"]) == 0
        a = read_wav(plain).samples
        b = read_wav(delayed).samples
        np.testing.assert_allclose(b[3:], a[:-3], atol=1e-6)

    def test_bad_fir_taps_rejected(self, tmp_path):
        feat_path = tmp_path / "f.wfeat"
        make_raw_file(feat_path, t=10)
        taps_path = tmp_path / "taps.f64"
        np.ones(8).astype("<f8").tofile(taps_path)  # tap 0 nonzero
        code = cli.main(["synth", str(feat_path), "-o", str(tmp_path / "y.wav"),
                         "--fir", str(taps_path)])
        assert code == cli.EXIT_VALIDATION

    @pytest.mark.parametrize("payload, code, message", [
        (np.array([0.0, 0.5], "<f8").tobytes() + b"xyz", cli.EXIT_FORMAT,
         "19 bytes is not a multiple of 8"),
        (np.zeros(1, "<f8").tobytes(), cli.EXIT_VALIDATION, "length >= 2"),
        (np.array([0.0, 0.5, np.nan], "<f8").tobytes(), cli.EXIT_VALIDATION,
         "FIR tap 2 is not finite"),
        (np.array([0.0, np.inf, 0.5], "<f8").tobytes(), cli.EXIT_VALIDATION,
         "FIR tap 1 is not finite"),
    ], ids=["partial-tap", "one-tap", "nan", "inf"])
    def test_fir_taps_file_rules(self, tmp_path, capsys, payload, code, message):
        feat_path = tmp_path / "f.wfeat"
        make_raw_file(feat_path, t=10)
        taps_path = tmp_path / "taps.f64"
        taps_path.write_bytes(payload)
        assert cli.main(["synth", str(feat_path), "-o", str(tmp_path / "y.wav"),
                         "--fir", str(taps_path)]) == code
        assert message in capsys.readouterr().err

    def test_missing_file_is_format_error(self, tmp_path):
        code = cli.main(["synth", str(tmp_path / "nope.wfeat"),
                         "-o", str(tmp_path / "y.wav")])
        assert code == cli.EXIT_FORMAT


class TestCompressDecompress:
    def test_roundtrip_restores_bin_count(self, tmp_path):
        feat_path = tmp_path / "f.wfeat"
        make_raw_file(feat_path, t=25)
        comp = tmp_path / "c.wfeat"
        back = tmp_path / "b.wfeat"
        assert cli.main(["compress", str(feat_path), "-o", str(comp),
                         "--mels", "16", "--ap-bands", "4"]) == 0
        loaded = read_features(comp)
        assert loaded.log_mel.shape == (25, 16)
        assert loaded.coded_ap.shape == (25, 4)
        assert cli.main(["decompress", str(comp), "-o", str(back)]) == 0
        raw = read_features(back)
        assert raw.sp.shape == (25, FFT // 2 + 1)
        assert raw.ap.shape == (25, FFT // 2 + 1)

    def test_double_compress_rejected(self, tmp_path):
        feat_path = tmp_path / "f.wfeat"
        make_raw_file(feat_path)
        comp = tmp_path / "c.wfeat"
        cli.main(["compress", str(feat_path), "-o", str(comp),
                  "--mels", "16", "--ap-bands", "4"])
        code = cli.main(["compress", str(comp), "-o", str(tmp_path / "cc.wfeat")])
        assert code == cli.EXIT_VALIDATION

    @pytest.mark.parametrize("mels", ["0", "-1"])
    def test_mel_band_count_below_one_rejected(self, tmp_path, capsys, mels):
        # --mels 0 used to exit 0, and --mels -1 with an internal error
        feat_path, wav = tmp_path / "f.wfeat", tmp_path / "x.wav"
        make_raw_file(feat_path, t=10)
        write_wav(wav, Waveform(np.zeros(10 * HOP), SR))
        for argv in (["compress", str(feat_path), "-o", str(tmp_path / "c.wfeat")],
                     ["spectrogram", str(wav), "-o", str(tmp_path / "s.csv")],
                     ["fit", str(wav), "--f0", str(feat_path), "-o",
                      str(tmp_path / "fit.wfeat"), "--steps", "1"]):
            assert cli.main(argv + ["--mels", mels]) == cli.EXIT_VALIDATION
        assert capsys.readouterr().err.count(f"n_mels must be >= 1, got {mels}") == 3

    @pytest.mark.parametrize("bands", ["-1", "0", "1"])
    def test_ap_band_count_below_two_rejected(self, tmp_path, capsys, bands):
        # the errors used to name neither the option nor its rule, and fit
        # --ap-bands -1 exited with an internal error
        feat_path, wav = tmp_path / "f.wfeat", tmp_path / "x.wav"
        make_raw_file(feat_path, t=10)
        write_wav(wav, Waveform(np.zeros(10 * HOP), SR))
        for argv in (["compress", str(feat_path), "-o", str(tmp_path / "c.wfeat")],
                     ["fit", str(wav), "--f0", str(feat_path), "-o",
                      str(tmp_path / "fit.wfeat"), "--steps", "1"]):
            assert cli.main(argv + ["--ap-bands", bands]) == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.count(f"ap_bands must be an integer >= 2, got {bands}") == 2

    def test_band_count_beyond_two_per_bin_rejected_before_allocating(
            self, tmp_path, capsys):
        # a 0-frame file whose header claims 2**32 - 1 bands: decompress used
        # to exit with "Unable to allocate 32.0 GiB"
        comp = tmp_path / "c.wfeat"
        write_features(comp, CompressedFeatures(
            f0=np.zeros(0), log_mel=np.zeros((0, 2 ** 32 - 1)),
            coded_ap=np.zeros((0, 4)), sample_rate=SR, hop=HOP, fft_size=FFT))
        code = cli.main(["decompress", str(comp), "-o", str(tmp_path / "d.wfeat")])
        assert code == cli.EXIT_VALIDATION
        assert "mel bands have no support" in capsys.readouterr().err

    def test_double_decompress_rejected(self, tmp_path):
        feat_path = tmp_path / "f.wfeat"
        make_raw_file(feat_path)
        code = cli.main(["decompress", str(feat_path),
                         "-o", str(tmp_path / "d.wfeat")])
        assert code == cli.EXIT_VALIDATION


class TestExciteTransform:
    def _envelope_file(self, path, t, centers, scale=1.0):
        bins = FFT // 2 + 1
        env = two_formant_envelope(bins, SR, centers=centers) * scale
        feats = WorldFeatures(f0=np.full(t, 120.0), sp=np.tile(env, (t, 1)),
                              ap=np.zeros((t, bins)), sample_rate=SR, hop=HOP,
                              fft_size=FFT)
        write_features(path, feats)
        return feats

    def test_identical_envelopes_identity(self, tmp_path):
        t = 50
        env_path = tmp_path / "env.wfeat"
        self._envelope_file(env_path, t, (500, 1700))
        rs = np.random.default_rng(3)
        x = 0.1 * rs.normal(size=t * HOP)
        wav_in = tmp_path / "x.wav"
        write_wav(wav_in, Waveform(x, SR))
        out = tmp_path / "y.wav"
        assert cli.main(["excite-transform", str(wav_in), "--src-env",
                         str(env_path), "--tgt-env", str(env_path),
                         "-o", str(out)]) == 0
        y = read_wav(out).samples
        n = FFT
        err = np.linalg.norm(y[n:-n] - x[n:-n]) / np.linalg.norm(x[n:-n])
        assert err < 1e-6  # float32 WAV quantization bounds this

    def test_scaled_envelope_scales_output(self, tmp_path):
        t = 50
        src = tmp_path / "src.wfeat"
        tgt = tmp_path / "tgt.wfeat"
        self._envelope_file(src, t, (500, 1700))
        self._envelope_file(tgt, t, (500, 1700), scale=4.0)
        rs = np.random.default_rng(4)
        x = 0.05 * rs.normal(size=t * HOP)
        wav_in = tmp_path / "x.wav"
        write_wav(wav_in, Waveform(x, SR))
        out = tmp_path / "y.wav"
        assert cli.main(["excite-transform", str(wav_in), "--src-env", str(src),
                         "--tgt-env", str(tgt), "-o", str(out)]) == 0
        y = read_wav(out).samples
        n = FFT
        err = np.linalg.norm(y[n:-n] - 2 * x[n:-n]) / np.linalg.norm(2 * x[n:-n])
        assert err < 1e-6

    def test_missing_target_env_is_usage_error(self, tmp_path):
        code = cli.main(["excite-transform", "x.wav", "--src-env", "s.wfeat",
                         "-o", "y.wav"])
        assert code == cli.EXIT_FORMAT

    def test_wav_env_frame_mismatch_is_validation_error(self, tmp_path):
        env_path = tmp_path / "env.wfeat"
        self._envelope_file(env_path, 50, (500, 1700))
        wav_in = tmp_path / "x.wav"
        write_wav(wav_in, Waveform(np.zeros(10 * HOP), SR))
        code = cli.main(["excite-transform", str(wav_in), "--src-env",
                         str(env_path), "--tgt-env", str(env_path),
                         "-o", str(tmp_path / "y.wav")])
        assert code == cli.EXIT_VALIDATION

    def test_target_envelope_on_another_clock_or_length_rejected(self, tmp_path, capsys):
        src, tgt = tmp_path / "src.wfeat", tmp_path / "tgt.wfeat"
        feats = self._envelope_file(src, 50, (500, 1700))
        wav_in = tmp_path / "x.wav"
        write_wav(wav_in, Waveform(np.zeros(50 * HOP), SR))
        argv = ["excite-transform", str(wav_in), "--src-env", str(src),
                "--tgt-env", str(tgt), "-o", str(tmp_path / "y.wav")]
        write_features(tgt, replace(feats, hop=2 * HOP))
        assert cli.main(argv) == cli.EXIT_VALIDATION
        assert f"{tgt} metadata (rate/fft/hop)" in capsys.readouterr().err
        self._envelope_file(tgt, 51, (500, 1700))
        assert cli.main(argv) == cli.EXIT_VALIDATION
        assert "sp_tgt has 51 frames" in capsys.readouterr().err

    def test_use_decompressed_flag(self, tmp_path):
        # full-scale geometry: the default 80-band basis needs 513 bins
        t, sr, fft, hop = 30, 22050, 1024, 256
        bins = fft // 2 + 1
        env = two_formant_envelope(bins, sr, floor=1e-3)
        feats = WorldFeatures(f0=np.full(t, 150.0), sp=np.tile(env, (t, 1)),
                              ap=np.zeros((t, bins)), sample_rate=sr, hop=hop,
                              fft_size=fft)
        env_path = tmp_path / "env.wfeat"
        write_features(env_path, feats)
        rs = np.random.default_rng(11)
        x = 0.1 * rs.normal(size=t * hop)
        wav_in = tmp_path / "x.wav"
        write_wav(wav_in, Waveform(x, sr))
        out = tmp_path / "y.wav"
        assert cli.main(["excite-transform", str(wav_in), "--src-env",
                         str(env_path), "--tgt-env", str(env_path),
                         "-o", str(out), "--use-decompressed"]) == 0
        y = read_wav(out).samples
        # identical envelopes cancel even after the codec roundtrip
        err = np.linalg.norm(y[fft:-fft] - x[fft:-fft]) / np.linalg.norm(x[fft:-fft])
        assert err < 1e-6


class TestFit:
    def test_fit_writes_features_and_trace(self, tmp_path):
        feat_path = tmp_path / "f.wfeat"
        feats = make_raw_file(feat_path, t=40)
        comp = mc.compress(feats, n_mels=16, ap_bands=4)
        target = sy.synthesize(comp).data
        wav_path = tmp_path / "target.wav"
        write_wav(wav_path, Waveform(target, SR))
        out = tmp_path / "fitted.wfeat"
        trace_path = tmp_path / "trace.csv"
        code = cli.main(["fit", str(wav_path), "--f0", str(feat_path),
                         "-o", str(out), "--steps", "12", "--lr", "0.02",
                         "--mels", "16", "--ap-bands", "4",
                         "--trace", str(trace_path)])
        assert code == 0
        fitted = read_features(out)
        assert fitted.log_mel.shape == (40, 16)
        lines = trace_path.read_text().strip().split("\n")
        assert lines[0] == "step,msl"
        assert len(lines) == 13
        assert lines[1].startswith("0,")

    def test_bad_f0_length_is_validation_error(self, tmp_path):
        feat_path = tmp_path / "f.wfeat"
        make_raw_file(feat_path, t=40)
        wav_path = tmp_path / "short.wav"
        write_wav(wav_path, Waveform(np.zeros(5 * HOP), SR))
        code = cli.main(["fit", str(wav_path), "--f0", str(feat_path),
                         "-o", str(tmp_path / "o.wfeat"), "--steps", "2"])
        assert code == cli.EXIT_VALIDATION


    def test_non_finite_learning_rate_is_validation_error(self, tmp_path, capsys):
        feat_path = tmp_path / "f.wfeat"
        make_raw_file(feat_path, t=8)
        wav_path = tmp_path / "t.wav"
        write_wav(wav_path, Waveform(np.zeros(8 * HOP), SR))
        code = cli.main(["fit", str(wav_path), "--f0", str(feat_path),
                         "-o", str(tmp_path / "o.wfeat"), "--steps", "2",
                         "--lr", "nan"])
        assert code == cli.EXIT_VALIDATION
        assert "learning_rate must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("n", [12 * HOP - 1, 12 * HOP, 12 * HOP + 1])
class TestBoundaryLengths:
    """Every subcommand that reads audio frames ``n`` samples into
    ``n_frames_for(n)`` frames and keeps ``n`` samples."""

    def _wav(self, path, n, seed=0):
        write_wav(path, Waveform(0.1 * np.random.default_rng(seed).normal(size=n), SR))
        return read_wav(path).samples

    def test_excite_transform_keeps_length(self, tmp_path, n):
        t = sy.n_frames_for(n, HOP)
        wav, env, out = tmp_path / "x.wav", tmp_path / "env.wfeat", tmp_path / "y.wav"
        x = self._wav(wav, n)
        argv = ["excite-transform", str(wav), "--src-env", str(env),
                "--tgt-env", str(env), "-o", str(out)]
        make_raw_file(env, t=t)
        assert cli.main(argv) == 0
        y = read_wav(out).samples
        assert len(y) == n
        err = np.linalg.norm(y[FFT:-FFT] - x[FFT:-FFT]) / np.linalg.norm(x[FFT:-FFT])
        assert err < 1e-6
        for wrong in (t - 1, t + 1):
            make_raw_file(env, t=wrong)
            assert cli.main(argv) == cli.EXIT_VALIDATION

    def test_loss_compares_every_sample(self, tmp_path, capsys, n):
        pa, pb = tmp_path / "a.wav", tmp_path / "b.wav"
        a, b = self._wav(pa, n, seed=1), self._wav(pb, n, seed=2)
        assert cli.main(["loss", str(pa), str(pb), "--scales", "3"]) == 0
        cfg = ls.MslConfig(scales=3)
        expected = sum(ls.scale_loss(a, b, w).item() for w in cfg.window_sizes)
        assert capsys.readouterr().out.strip() == f"{expected:.6f}"

    def test_spectrogram_has_one_row_per_frame(self, tmp_path, n):
        wav, out = tmp_path / "x.wav", tmp_path / "s.csv"
        self._wav(wav, n)
        assert cli.main(["spectrogram", str(wav), "-o", str(out), "--mels", "16",
                         "--fft-size", str(FFT)]) == 0
        rows = out.read_text().strip().split("\n")
        assert len(rows) == sy.n_frames_for(n, HOP)

    def test_fit_accepts_exactly_the_matching_frame_count(self, tmp_path, n):
        t = sy.n_frames_for(n, HOP)
        wav, f0_path = tmp_path / "x.wav", tmp_path / "f0.wfeat"
        self._wav(wav, n)
        for frames, code in ((t - 1, cli.EXIT_VALIDATION), (t, cli.EXIT_OK),
                             (t + 1, cli.EXIT_VALIDATION)):
            make_raw_file(f0_path, t=frames)
            assert cli.main(["fit", str(wav), "--f0", str(f0_path),
                             "-o", str(tmp_path / "o.wfeat"), "--steps", "1",
                             "--mels", "16", "--ap-bands", "4"]) == code, frames


class TestLossAndSpectrogram:
    def test_loss_of_identical_files_prints_zero(self, tmp_path, capsys):
        x = 0.3 * np.sin(2 * np.pi * 440 * np.arange(8000) / SR)
        p = tmp_path / "x.wav"
        write_wav(p, Waveform(x, SR))
        assert cli.main(["loss", str(p), str(p), "--scales", "3"]) == 0
        assert capsys.readouterr().out.strip() == "0.000000"

    def test_loss_is_symmetric(self, tmp_path, capsys):
        rs = np.random.default_rng(5)
        pa, pb = tmp_path / "a.wav", tmp_path / "b.wav"
        write_wav(pa, Waveform(0.2 * rs.normal(size=6000), SR))
        write_wav(pb, Waveform(0.2 * rs.normal(size=6000), SR))
        cli.main(["loss", str(pa), str(pb), "--scales", "3"])
        ab = capsys.readouterr().out.strip()
        cli.main(["loss", str(pb), str(pa), "--scales", "3"])
        ba = capsys.readouterr().out.strip()
        assert ab == ba

    def test_loss_respects_thread_cap(self, tmp_path, capsys, monkeypatch):
        rs = np.random.default_rng(6)
        pa, pb = tmp_path / "a.wav", tmp_path / "b.wav"
        write_wav(pa, Waveform(0.2 * rs.normal(size=6000), SR))
        write_wav(pb, Waveform(0.2 * rs.normal(size=6000), SR))
        cli.main(["loss", str(pa), str(pb), "--scales", "3"])
        serial = capsys.readouterr().out.strip()
        monkeypatch.setenv("DIFFWORLD_THREADS", "3")
        cli.main(["loss", str(pa), str(pb), "--scales", "3"])
        parallel = capsys.readouterr().out.strip()
        assert serial == parallel

    @pytest.mark.parametrize("threads", ["0", "-3", "two"])
    def test_thread_cap_must_be_an_integer_at_least_one(self, tmp_path, capsys,
                                                         monkeypatch, threads):
        p = tmp_path / "x.wav"
        write_wav(p, Waveform(np.zeros(SR // 2), SR))
        monkeypatch.setenv("DIFFWORLD_THREADS", threads)
        assert cli.main(["loss", str(p), str(p), "--scales", "3"]) == cli.EXIT_VALIDATION
        assert (f"DIFFWORLD_THREADS={threads!r} is not an integer >= 1"
                in capsys.readouterr().err)

    def test_length_mismatch_is_validation_error(self, tmp_path):
        pa, pb = tmp_path / "a.wav", tmp_path / "b.wav"
        write_wav(pa, Waveform(np.zeros(4000), SR))
        write_wav(pb, Waveform(np.zeros(4001), SR))
        assert cli.main(["loss", str(pa), str(pb)]) == cli.EXIT_VALIDATION

    def test_empty_signals_are_validation_error(self, tmp_path, capsys):
        p = tmp_path / "e.wav"
        write_wav(p, Waveform(np.zeros(0), SR))
        assert cli.main(["loss", str(p), str(p)]) == cli.EXIT_VALIDATION
        assert "signal is empty" in capsys.readouterr().err

    def test_wav_cut_in_its_header_is_format_error(self, tmp_path, capsys):
        # a header cut mid-chunk is a format problem, never an internal error
        p = tmp_path / "x.wav"
        write_wav(p, Waveform(np.zeros(SR // 2), SR))
        p.write_bytes(p.read_bytes()[:30])
        assert cli.main(["loss", str(p), str(p)]) == cli.EXIT_FORMAT
        assert cli.main(["spectrogram", str(p), "-o", str(tmp_path / "s.csv")]) == \
            cli.EXIT_FORMAT
        err = capsys.readouterr().err
        assert "internal error" not in err
        assert err.count("x.wav: truncated 'fmt ' chunk") == 2

    def test_wav_sample_rate_zero_is_format_error(self, tmp_path, capsys):
        # loss used to print 0.000000, and spectrogram to blame the mel codec
        p = tmp_path / "r.wav"
        write_wav(p, Waveform(np.zeros(SR // 2), SR))
        blob = bytearray(p.read_bytes())
        blob[24:28] = bytes(4)  # the fmt chunk's sample rate
        p.write_bytes(bytes(blob))
        assert cli.main(["loss", str(p), str(p)]) == cli.EXIT_FORMAT
        assert cli.main(["spectrogram", str(p), "-o", str(tmp_path / "s.csv")]) == \
            cli.EXIT_FORMAT
        assert capsys.readouterr().err.count("r.wav: sample rate must be >= 1, got 0") == 2

    def test_loss_scales_beyond_largest_transform_rejected(self, tmp_path, capsys):
        p = tmp_path / "x.wav"
        write_wav(p, Waveform(np.zeros(SR // 2), SR))
        assert cli.main(["loss", str(p), str(p), "--scales", "12"]) == cli.EXIT_VALIDATION
        assert "scales must be in [1, 11]" in capsys.readouterr().err

    def test_spectrogram_fft_size_beyond_largest_transform_rejected(self, tmp_path):
        p = tmp_path / "x.wav"
        write_wav(p, Waveform(np.zeros(SR // 2), SR))
        assert cli.main(["spectrogram", str(p), "-o", str(tmp_path / "s.csv"),
                         "--fft-size", str(1 << 17)]) == cli.EXIT_VALIDATION

    def test_spectrogram_csv_dimensions(self, tmp_path):
        x = 0.3 * np.sin(2 * np.pi * 700 * np.arange(2 * SR) / SR)
        p = tmp_path / "x.wav"
        write_wav(p, Waveform(x, SR))
        out = tmp_path / "spec.csv"
        assert cli.main(["spectrogram", str(p), "-o", str(out),
                         "--mels", "16", "--fft-size", "64"]) == 0
        rows = out.read_text().strip().split("\n")
        assert len(rows) == sy.n_frames_for(2 * SR, 16)
        assert all(len(row.split(",")) == 16 for row in rows)
