import re
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from diffworld import features as ft
from diffworld.errors import MAX_FFT_SIZE, FormatError, ValidationError
from helpers import wav_chunk, wav_file, wav_fmt


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
        ("fft_size", MAX_FFT_SIZE + 2, "fft_size must be in"),
        ("sample_rate", 0, "^sample_rate must be >= 1, got 0$"),
        ("sample_rate", -8000, "^sample_rate must be >= 1, got -8000$"),
    ])
    def test_clock_fields_out_of_range_rejected(self, field, value, message):
        for feats in (make_raw(), make_compressed()):
            with pytest.raises(ValidationError, match=message):
                ft.validate_features(replace(feats, **{field: value}))

    @pytest.mark.parametrize("feats", [3, None, {"f0": np.zeros(4)}])
    def test_argument_that_is_no_container_named(self, feats, tmp_path):
        # it used to raise a bare TypeError, which no DiffworldError handler sees
        message = "^feats is not a feature container: "
        with pytest.raises(ValidationError, match=message):
            ft.validate_features(feats)
        with pytest.raises(ValidationError, match=message):
            ft.write_features(tmp_path / "x.wfeat", feats)

    @pytest.mark.parametrize("rate", [8000.5, 8000.0, True, "8000", None])
    def test_sample_rate_must_be_an_integer(self, rate, tmp_path):
        # 8000.5 used to validate and render, then fail in write_features with
        # a bare struct.error ("required argument is not an integer")
        for feats in (make_raw(), make_compressed()):
            with pytest.raises(ValidationError,
                               match=f"^sample_rate must be an integer, got {re.escape(repr(rate))}$"):
                ft.validate_features(replace(feats, sample_rate=rate))
            with pytest.raises(ValidationError, match="sample_rate must be an integer"):
                ft.write_features(tmp_path / "x.wfeat", replace(feats, sample_rate=rate))

    @pytest.mark.parametrize("field, value", [
        ("hop", 16.0), ("hop", True), ("hop", "16"),
        ("fft_size", 64.0), ("fft_size", np.float64(64)), ("fft_size", True),
    ])
    def test_framing_must_be_integers(self, field, value, tmp_path):
        # hop 16.0 used to validate, then fail in synthesize with a TypeError
        # and in write_features with a bare struct.error; hop True framed by 1
        message = f"^{field} must be an integer, got {re.escape(repr(value))}$"
        for feats in (make_raw(), make_compressed()):
            bad = replace(feats, **{field: value})
            with pytest.raises(ValidationError, match=message):
                ft.validate_features(bad)
            with pytest.raises(ValidationError, match=message):
                ft.write_features(tmp_path / "x.wfeat", bad)

    def test_numpy_integer_sample_rate_accepted(self, tmp_path):
        # and numpy integer framing, which the integer rule also accepts
        feats = replace(make_raw(), sample_rate=np.int64(8000), hop=np.int64(16),
                        fft_size=np.int32(64))
        ft.write_features(tmp_path / "x.wfeat", feats)
        back = ft.read_features(tmp_path / "x.wfeat")
        assert (back.sample_rate, back.hop, back.fft_size) == (8000, 16, 64)

    def test_loaded_features_are_finite(self, tmp_path):
        path = tmp_path / "raw.wfeat"
        ft.write_features(path, make_raw())
        back = ft.read_features(path)
        for arr in (back.f0, back.sp, back.ap):
            assert np.all(np.isfinite(arr))


class TestReadInPlace:
    """WFEAT arrays are read straight into, and written straight from, their
    own buffers, and the range rules decide by reductions, making a mask only
    to name an offender."""

    def test_ten_second_read_peak_memory_is_pinned(self, tmp_path):
        # the three arrays (6.75 MiB) and nothing else: no file-sized blob, no
        # second copy, and no copy of ap, whose unvoiced rows are already 1.
        # At most 2% above the measured peak; reading a blob and copying each
        # array out of it peaked at 16.87 MiB
        feats = make_raw(t=861, fft_size=1024, sample_rate=22050, hop=256, seed=4)
        feats.ap[feats.f0 == 0] = 1.0
        path = tmp_path / "raw.wfeat"
        ft.write_features(path, feats)
        ft.read_features(path)
        tracemalloc.start()
        try:
            back = ft.read_features(path)
            peak = tracemalloc.get_traced_memory()[1] / 2.0 ** 20
        finally:
            tracemalloc.stop()
        assert peak <= 1.02 * 6.757, peak
        for name in ("f0", "sp", "ap"):  # each array owns its buffer
            assert getattr(back, name).base is None, name
            np.testing.assert_array_equal(getattr(back, name), getattr(feats, name))

    def test_ten_second_write_copies_no_array(self, tmp_path):
        # float64 arrays in C order are written from their own buffers: the
        # peak was 0.01 MiB, and copying each array to bytes first took the
        # 3.37 MiB of sp
        feats = make_raw(t=861, fft_size=1024, sample_rate=22050, hop=256, seed=4)
        feats.ap[feats.f0 == 0] = 1.0
        path = tmp_path / "raw.wfeat"
        ft.write_features(path, feats)
        tracemalloc.start()
        try:
            ft.write_features(path, feats)
            peak = tracemalloc.get_traced_memory()[1] / 2.0 ** 20
        finally:
            tracemalloc.stop()
        assert peak < 0.1, peak
        payload = b"".join(a.astype("<f8").tobytes() for a in (feats.f0, feats.sp, feats.ap))
        assert path.read_bytes()[ft._HEADER.size:] == payload
        # an array in Fortran order is copied into C order first: the same bytes
        ft.write_features(path, replace(feats, sp=np.asfortranarray(feats.sp)))
        assert path.read_bytes()[ft._HEADER.size:] == payload

    def test_header_claiming_two_to_the_31_frames_rejected_before_allocating(
            self, tmp_path):
        path = tmp_path / "huge.wfeat"
        path.write_bytes(ft._HEADER.pack(ft.WFEAT_MAGIC, ft.WFEAT_VERSION, 22050, 256,
                                         1024, 2 ** 31, ft.KIND_RAW, 513, 0))
        assert path.stat().st_size == 36
        tracemalloc.start()
        try:
            with pytest.raises(FormatError, match=r"truncated payload \(header "
                                                  r"describes 17643725651968 bytes, have 0\)"):
                ft.read_features(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak

    def test_unvoiced_rows_already_one_are_not_copied(self):
        feats = make_raw()
        ap = feats.ap.copy()
        ap[feats.f0 == 0] = 1.0
        assert ft.validate_features(replace(feats, ap=ap)).ap is ap
        # otherwise the caller's array is left as it was
        back = ft.validate_features(feats)
        assert back.ap is not feats.ap
        assert np.all(feats.ap[feats.f0 == 0] < 1.0)
        np.testing.assert_array_equal(back.ap[feats.f0 == 0], 1.0)

    @pytest.mark.parametrize("value, shown", [
        (np.nan, "nan"), (np.inf, "inf"), (-np.inf, "-inf"),
        (-0.5, r"-0\.5"), (1.5, r"1\.5")])
    @pytest.mark.parametrize("position", ["first", "last"])
    @pytest.mark.parametrize("target", ["sp", "ap", "coded_ap", "wav read",
                                        "wav write"])
    def test_offender_named_as_by_a_mask(self, tmp_path, target, position, value,
                                         shown):
        # the reductions only pass or fail an array; the mask that names the
        # first offender must agree with them on every value, first or last
        if target in ("sp", "ap", "coded_ap"):
            feats = make_compressed() if target == "coded_ap" else make_raw()
            arr = getattr(feats, target).copy()
            frame, col = (0, 0) if position == "first" else (arr.shape[0] - 1,
                                                             arr.shape[1] - 1)
            arr[frame, col] = value
            call = lambda: ft.validate_features(replace(feats, **{target: arr}))
            if target != "sp":
                column = "band" if target == "coded_ap" else "bin"
                message = (rf"^{target} out of \[0, 1\] at frame {frame}, "
                           rf"{column} {col}: {shown}$")
            elif not np.isfinite(value):
                message = rf"^sp contains a non-finite value at \({frame}, {col}\)$"
            else:
                message = rf"^sp is negative at frame {frame}, bin {col}$" if value < 0 else None
        else:
            samples = np.linspace(-0.9, 0.9, 50)
            index = 0 if position == "first" else samples.size - 1
            samples[index] = value
            path = tmp_path / "x.wav"
            if target == "wav read":
                path.write_bytes(wav_file(wav_chunk(b"fmt ", wav_fmt(3, 32)), wav_chunk(
                    b"data", samples.astype("<f4").tobytes())))
                call, prefix = (lambda: ft.read_wav(path)), re.escape(f"{path}: ")
            else:
                call, prefix = (lambda: ft.write_wav(path, ft.Waveform(samples, 8000))), ""
            message = (None if np.isfinite(value)
                       else rf"^{prefix}non-finite sample at index {index}$")
        if message is None:
            call()
        else:
            with pytest.raises(ValidationError, match=message):
                call()


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


def scipy_wav(path):
    """What the scipy-based reader returned: int16 / 32768, or float32, as float64."""
    from scipy.io import wavfile
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", wavfile.WavFileWarning)
        rate, data = wavfile.read(path)
    assert data.dtype in (np.int16, np.float32) and data.ndim == 1
    scale = 32768.0 if data.dtype == np.int16 else 1.0
    return rate, data.astype(np.float64) / scale


def scipy_layouts() -> dict:
    """Named WAV files that scipy.io.wavfile reads as 301 mono samples at 8 kHz."""
    rs = np.random.default_rng(13)
    pcm = rs.integers(-32768, 32768, size=301).astype("<i2").tobytes()
    flt = rs.normal(size=301).astype("<f4").tobytes()
    listing = wav_chunk(b"LIST", b"INFOabc")  # 7 bytes, then a pad byte
    return {
        "pcm16": wav_file(wav_chunk(b"fmt ", wav_fmt(1, 16)), wav_chunk(b"data", pcm)),
        "float32 with fact": wav_file(wav_chunk(b"fmt ", wav_fmt(3, 32) + b"\0\0"),
                                      wav_chunk(b"fact", b"\x2d\x01\0\0"),
                                      wav_chunk(b"data", flt)),
        "extensible pcm16": wav_file(
            wav_chunk(b"fmt ", wav_fmt(0xFFFE, 16, extensible_code=1)),
            wav_chunk(b"data", pcm)),
        "extensible float32": wav_file(
            wav_chunk(b"fmt ", wav_fmt(0xFFFE, 32, extensible_code=3)),
            wav_chunk(b"data", flt)),
        "odd LIST before data": wav_file(wav_chunk(b"fmt ", wav_fmt(1, 16)), listing,
                                         wav_chunk(b"data", pcm)),
        "RIFF size too large": wav_file(wav_chunk(b"fmt ", wav_fmt(3, 32)),
                                        wav_chunk(b"data", flt), riff_size=2 ** 32 - 1),
        "RIFF size too small": wav_file(wav_chunk(b"fmt ", wav_fmt(1, 16)),
                                        wav_chunk(b"data", pcm), riff_size=40),
        "JUNK and trailing chunk": wav_file(
            wav_chunk(b"JUNK", bytes(5)), wav_chunk(b"fmt ", wav_fmt(3, 32)),
            wav_chunk(b"data", flt), listing),
    }


class TestWavCodec:
    """The numpy WAV codec against scipy.io.wavfile, the reference it replaced."""

    @pytest.mark.parametrize("n", [0, 1, 2, 12345])
    @pytest.mark.parametrize("rate", [8000, 22050, 2 ** 30 - 1])
    def test_writer_is_byte_identical_to_scipy(self, tmp_path, n, rate):
        from scipy.io import wavfile
        x = np.random.default_rng(n).normal(size=n)
        ft.write_wav(tmp_path / "ours.wav", ft.Waveform(x, rate))
        wavfile.write(tmp_path / "scipy.wav", rate, x.astype(np.float32))
        assert (tmp_path / "ours.wav").read_bytes() == (tmp_path / "scipy.wav").read_bytes()

    @pytest.mark.parametrize("name", list(scipy_layouts()))
    def test_reader_matches_scipy_on_what_scipy_accepts(self, tmp_path, name):
        path = tmp_path / "x.wav"
        path.write_bytes(scipy_layouts()[name])
        rate, samples = scipy_wav(path)
        back = ft.read_wav(path)
        assert back.sample_rate == rate == 8000
        assert samples.size == 301
        np.testing.assert_array_equal(back.samples, samples)

    def test_data_cut_short_is_format_error(self, tmp_path):
        # the header promises 11008 samples and 10758 are left: no partial load
        path = tmp_path / "a.wav"
        ft.write_wav(path, ft.Waveform(np.zeros(11008), 22050))
        path.write_bytes(path.read_bytes()[:-1000])
        with pytest.raises(FormatError, match=r"a\.wav: truncated 'data' chunk "
                           r"\(header describes 44032 bytes, have 43032\)"):
            ft.read_wav(path)

    @pytest.mark.parametrize("blob, error, message", [
        (b"RIFX" + bytes(4) + b"WAVE", FormatError, "not a little-endian RIFF/WAVE"),
        (b"RIFF", FormatError, "not a little-endian RIFF/WAVE"),
        (wav_file(wav_chunk(b"fmt ", wav_fmt(1, 16))), FormatError, "no data chunk"),
        (wav_file(), FormatError, "no fmt chunk"),
        (wav_file(wav_chunk(b"data", bytes(4)), wav_chunk(b"fmt ", wav_fmt(1, 16))),
         FormatError, "data chunk before the fmt chunk"),
        (wav_file(wav_chunk(b"fmt ", wav_fmt(1, 16)[:14])), FormatError,
         "14-byte fmt chunk"),
        (wav_file(wav_chunk(b"fmt ", wav_fmt(1, 16)), wav_chunk(b"data", bytes(5))),
         FormatError, "5-byte data chunk is not a whole number of 2-byte samples"),
        (wav_file(wav_chunk(b"fmt ", wav_fmt(0xFFFE, 16, extensible_code=2)),
                  wav_chunk(b"data", bytes(4))), FormatError, "format 0x2, 16-bit"),
        (wav_file(wav_chunk(b"fmt ", wav_fmt(1, 16, channels=0)),
                  wav_chunk(b"data", bytes(4))), ValidationError,
         "0-channel audio; mono required"),
        (wav_file(wav_chunk(b"fmt ", wav_fmt(3, 32, rate=0)),
                  wav_chunk(b"data", bytes(8))), FormatError,
         r"x\.wav: sample rate must be >= 1, got 0"),
    ], ids=["RIFX", "cut in RIFF header", "no data", "no chunks", "data first",
            "short fmt", "odd PCM16 data", "unknown subformat", "no channels",
            "rate 0"])
    def test_malformed_layouts_rejected(self, tmp_path, blob, error, message):
        path = tmp_path / "x.wav"
        path.write_bytes(blob)
        with pytest.raises(error, match=message):
            ft.read_wav(path)

    def test_waveform_beyond_riff_size_rejected_before_any_copy(self, tmp_path):
        # a broadcast view: the check must come before the float32 copy
        samples = np.broadcast_to(np.float64(0.0), (ft.MAX_WAV_SAMPLES + 1,))
        with pytest.raises(ValidationError, match="cannot be written as float32 WAV"):
            ft.write_wav(tmp_path / "x.wav", ft.Waveform(samples, 8000))
        assert not (tmp_path / "x.wav").exists()
