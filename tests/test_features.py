from dataclasses import replace

import numpy as np
import pytest

from diffworld import features as ft
from diffworld.errors import FormatError, ValidationError


def make_raw(t=12, fft_size=64, sample_rate=8000, hop=16, seed=0):
    rs = np.random.default_rng(seed)
    bins = fft_size // 2 + 1
    f0 = rs.uniform(80.0, 300.0, size=t)
    f0[::4] = 0.0
    sp = rs.uniform(0.0, 2.0, size=(t, bins))
    ap = rs.uniform(0.0, 1.0, size=(t, bins))
    return ft.WorldFeatures(f0=f0, sp=sp, ap=ap, sample_rate=sample_rate,
                            hop=hop, fft_size=fft_size)


def make_compressed(t=9, n_mels=16, a_bands=4, seed=1):
    rs = np.random.default_rng(seed)
    return ft.CompressedFeatures(
        f0=rs.uniform(0.0, 300.0, size=t),
        log_mel=rs.normal(size=(t, n_mels)),
        coded_ap=rs.uniform(0.0, 1.0, size=(t, a_bands)),
        sample_rate=8000, hop=16, fft_size=64)


class TestWfeat:
    def test_raw_roundtrip_bit_identical(self, tmp_path):
        feats = ft.validate_features(make_raw())
        path = tmp_path / "raw.wfeat"
        ft.write_features(path, feats)
        first = path.read_bytes()
        back = ft.read_features(path)
        assert isinstance(back, ft.WorldFeatures)
        ft.write_features(path, back)
        assert path.read_bytes() == first
        np.testing.assert_array_equal(back.f0, feats.f0)
        np.testing.assert_array_equal(back.sp, feats.sp)
        np.testing.assert_array_equal(back.ap, feats.ap)

    def test_compressed_roundtrip(self, tmp_path):
        feats = make_compressed()
        path = tmp_path / "comp.wfeat"
        ft.write_features(path, feats)
        back = ft.read_features(path)
        assert isinstance(back, ft.CompressedFeatures)
        np.testing.assert_array_equal(back.log_mel, feats.log_mel)
        np.testing.assert_array_equal(back.coded_ap, feats.coded_ap)
        assert (back.sample_rate, back.hop, back.fft_size) == (8000, 16, 64)

    def test_unvoiced_frames_get_unity_ap(self, tmp_path):
        feats = make_raw()
        path = tmp_path / "raw.wfeat"
        ft.write_features(path, feats)
        back = ft.read_features(path)
        unvoiced = back.f0 == 0
        assert unvoiced.any()
        np.testing.assert_array_equal(back.ap[unvoiced], 1.0)

    def test_ap_out_of_range_names_the_bin(self, tmp_path):
        feats = make_raw()
        feats.ap[3, 7] = 1.5
        with pytest.raises(ValidationError, match=r"frame 3, bin 7"):
            ft.write_features(tmp_path / "bad.wfeat", feats)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.wfeat"
        path.write_bytes(b"NOPE" + bytes(64))
        with pytest.raises(FormatError, match="magic"):
            ft.read_features(path)

    def test_truncated_payload(self, tmp_path):
        feats = make_raw()
        path = tmp_path / "trunc.wfeat"
        ft.write_features(path, feats)
        blob = path.read_bytes()
        path.write_bytes(blob[:-16])
        with pytest.raises(FormatError, match="truncated"):
            ft.read_features(path)

    def test_payload_longer_than_header_rejected(self, tmp_path):
        # one frame fewer in the header (bytes 20:24) would misalign every
        # array after f0
        for feats in (make_raw(), make_compressed()):
            path = tmp_path / "long.wfeat"
            ft.write_features(path, feats)
            blob = path.read_bytes()
            for data in (blob + bytes(8),
                         blob[:20] + (feats.n_frames - 1).to_bytes(4, "little")
                         + blob[24:]):
                path.write_bytes(data)
                with pytest.raises(FormatError, match="overlong payload"):
                    ft.read_features(path)

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "v9.wfeat"
        ft.write_features(path, make_raw())
        blob = bytearray(path.read_bytes())
        blob[4:8] = (9).to_bytes(4, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="version"):
            ft.read_features(path)

    def test_unknown_kind(self, tmp_path):
        path = tmp_path / "k7.wfeat"
        ft.write_features(path, make_raw())
        blob = bytearray(path.read_bytes())
        blob[24:28] = (7).to_bytes(4, "little")  # kind field
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="kind"):
            ft.read_features(path)

    @pytest.mark.parametrize("value, message", [
        (-1.0, r"f0 is negative at frame 3: -1\.0"),
        (np.nan, r"f0 is not finite at frame 3: nan"),
    ])
    def test_f0_rule_shared_by_both_kinds(self, value, message):
        for feats in (make_raw(), make_compressed()):
            f0 = feats.f0.copy()
            f0[3] = value
            with pytest.raises(ValidationError, match=message):
                ft.validate_features(replace(feats, f0=f0))

    @pytest.mark.parametrize("value, shown", [(1.5, r"1\.5"), (-0.5, r"-0\.5"),
                                              (np.nan, "nan"), (np.inf, "inf")])
    def test_unit_range_rules_name_frame_and_column(self, value, shown):
        # ap and coded_ap must lie in [0, 1]; a non-finite value is out of range
        for feats, name, column in ((make_raw(), "ap", "bin"),
                                    (make_compressed(), "coded_ap", "band")):
            arr = getattr(feats, name).copy()
            arr[3, 2] = value
            with pytest.raises(ValidationError, match=rf"^{name} out of \[0, 1\] at "
                                                      rf"frame 3, {column} 2: {shown}$"):
                ft.validate_features(replace(feats, **{name: arr}))

    def test_negative_sp_rejected(self, tmp_path):
        feats = make_raw()
        feats.sp[0, 0] = -0.1
        with pytest.raises(ValidationError, match="sp is negative"):
            ft.write_features(tmp_path / "bad.wfeat", feats)

    @pytest.mark.parametrize("field, value, message", [
        ("hop", 0, "hop must be >= 1"),
        ("fft_size", 0, "fft_size must be in"),
        ("fft_size", ft.MAX_FFT_SIZE + 2, "fft_size must be in"),
    ])
    def test_clock_fields_out_of_range_rejected(self, field, value, message):
        for feats in (make_raw(), make_compressed()):
            with pytest.raises(ValidationError, match=message):
                ft.validate_features(replace(feats, **{field: value}))

    def test_loaded_features_are_finite(self, tmp_path):
        path = tmp_path / "raw.wfeat"
        ft.write_features(path, make_raw())
        back = ft.read_features(path)
        for arr in (back.f0, back.sp, back.ap):
            assert np.all(np.isfinite(arr))


class TestWav:
    def test_pcm16_roundtrip_within_quantum(self, tmp_path):
        from scipy.io import wavfile
        rs = np.random.default_rng(5)
        samples = rs.uniform(-0.9, 0.9, size=4000)
        path = tmp_path / "x.wav"
        wavfile.write(path, 8000, np.round(samples * 32768.0).astype(np.int16))
        back = ft.read_wav(path)
        assert back.sample_rate == 8000
        assert np.max(np.abs(back.samples - samples)) <= 1.0 / 32768.0

    def test_float32_roundtrip_exact(self, tmp_path):
        samples = np.random.default_rng(6).normal(size=2000).astype(np.float32)
        path = tmp_path / "x.wav"
        ft.write_wav(path, ft.Waveform(samples.astype(np.float64), 22050))
        back = ft.read_wav(path)
        np.testing.assert_array_equal(back.samples, samples.astype(np.float64))

    def test_stereo_rejected(self, tmp_path):
        from scipy.io import wavfile
        path = tmp_path / "stereo.wav"
        wavfile.write(path, 8000, np.zeros((100, 2), dtype=np.int16))
        with pytest.raises(ValidationError, match="mono required"):
            ft.read_wav(path)

    def test_unsupported_codec_rejected(self, tmp_path):
        from scipy.io import wavfile
        path = tmp_path / "x.wav"
        wavfile.write(path, 8000, np.zeros(100, dtype=np.int32))
        with pytest.raises(FormatError, match="codec"):
            ft.read_wav(path)

    def test_rate_beyond_header_byte_rate_rejected(self, tmp_path):
        # the header's byte rate, rate * 4 bytes of float32, is a u32
        path = tmp_path / "x.wav"
        max_rate = 2 ** 30 - 1
        for rate in (0, max_rate + 1, 2 ** 32):
            with pytest.raises(ValidationError, match=f"sample rate {rate} cannot"):
                ft.write_wav(path, ft.Waveform(np.zeros(8), rate))
        assert not path.exists()
        ft.write_wav(path, ft.Waveform(np.zeros(8), max_rate))
        assert ft.read_wav(path).sample_rate == max_rate

    def test_sample_rate_expectation(self, tmp_path):
        path = tmp_path / "x.wav"
        ft.write_wav(path, ft.Waveform(np.zeros(64), 8000))
        with pytest.raises(ValidationError, match="sample rate"):
            ft.read_wav(path, expect_sample_rate=22050)
