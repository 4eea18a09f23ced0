"""Acoustic feature containers and their binary file formats.

Frame-rate features follow the WORLD convention: per-frame fundamental
frequency ``f0`` (Hz, 0 marks an unvoiced frame), power-spectrum spectral
envelope ``sp`` and aperiodicity ratio ``ap`` over ``fft_size // 2 + 1``
linear-frequency bins.  Compressed features hold the log mel form of the
envelope plus a coarse aperiodicity, together with the same clock metadata.

Framing convention (one rule, :func:`diffworld.synth.n_frames_for`): frame
``t`` is centered on sample ``t * hop``, and a clip of ``n`` samples spans
``ceil(n / hop)`` frames.  ``T`` frames synthesize to ``T * hop`` samples;
``excite-transform``, ``loss`` and ``spectrogram`` keep their input's length.
Files carry ``hop`` explicitly so any analyzer setting is honored.  A WFEAT
reader checks the payload's size against the file's before it allocates
anything that the header sizes, then reads each array in place, straight
into a buffer of its own.  Range checks (finite, non-negative, in [0, 1])
are ``min``/``max`` reductions; a mask is built only to name the first
offender, so a valid array costs no temporary of its own size.

Audio is mono WAV, read and written by a small RIFF/WAVE codec on ``struct``
and numpy, so the runtime needs numpy only.  It reads 16-bit integer or
32-bit float PCM, plain or ``WAVE_FORMAT_EXTENSIBLE``, skipping chunks it does
not use; it writes 32-bit float in ``scipy.io.wavfile.write``'s exact layout.
A truncated or malformed file raises :class:`FormatError`.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import (DiffworldError, FormatError, ValidationError, check_framing,
                     check_integer, first_index, real_array)

WFEAT_MAGIC = b"WFEA"
WFEAT_VERSION = 1
KIND_RAW = 0
KIND_COMPRESSED = 1

_HEADER = struct.Struct("<4sIIIIIIII")


@dataclass(frozen=True)
class Waveform:
    """Mono audio buffer at a fixed sample rate."""

    samples: np.ndarray
    sample_rate: int

    def __len__(self) -> int:
        return len(self.samples)


@dataclass(frozen=True)
class WorldFeatures:
    """Raw frame-rate acoustic features (f0, sp, ap) with clock metadata."""

    f0: np.ndarray        # (T,) Hz, 0 = unvoiced
    sp: np.ndarray        # (T, fft_size // 2 + 1) power spectrum, >= 0
    ap: np.ndarray        # (T, fft_size // 2 + 1) in [0, 1]
    sample_rate: int
    hop: int
    fft_size: int

    @property
    def n_frames(self) -> int:
        return self.f0.shape[0]

    @property
    def n_bins(self) -> int:
        return self.fft_size // 2 + 1


@dataclass(frozen=True)
class CompressedFeatures:
    """Log mel envelope plus coarse aperiodicity, with the raw-side metadata.

    ``f0`` rides along uncompressed: synthesis needs a pitch contour and the
    contour is passed through deterministically rather than modeled.
    """

    f0: np.ndarray        # (T,) Hz, 0 = unvoiced
    log_mel: np.ndarray   # (T, n_mels)
    coded_ap: np.ndarray  # (T, ap_bands) in [0, 1]
    sample_rate: int
    hop: int
    fft_size: int

    @property
    def n_frames(self) -> int:
        return self.f0.shape[0]

    @property
    def n_mels(self) -> int:
        return self.log_mel.shape[1]

    @property
    def ap_bands(self) -> int:
        return self.coded_ap.shape[1]


def check_f0(f0: np.ndarray) -> None:
    """Raise unless a 1-D f0 contour is finite and non-negative, naming the
    first bad frame; a non-finite value is reported before a negative one."""
    bad = np.flatnonzero(~np.isfinite(f0))
    if bad.size:
        raise ValidationError(f"f0 is not finite at frame {bad[0]}: {f0[bad[0]]}")
    bad = np.flatnonzero(f0 < 0)
    if bad.size:
        raise ValidationError(f"f0 is negative at frame {bad[0]}: {f0[bad[0]]}")


def _nonfinite_at(x: np.ndarray) -> tuple | None:
    """Index of the first non-finite entry of ``x``, or None.  Two reductions
    decide; the mask that finds the entry is made only when there is one."""
    if x.size == 0 or (np.isfinite(x.min()) and np.isfinite(x.max())):
        return None
    return first_index(~np.isfinite(x))


def _check_finite(name: str, x: np.ndarray) -> None:
    """Raise unless every entry of ``x`` is finite, naming the first that is not."""
    where = _nonfinite_at(x)
    if where is not None:
        raise ValidationError(f"{name} contains a non-finite value at {where}")


def _check_unit(x: np.ndarray, name: str, column: str) -> None:
    """Raise unless the (T, width) ``x`` is in [0, 1] (NaN is not), naming the
    frame and column; a mask is made only when the reductions fail."""
    if x.size == 0 or (x.min() >= 0 and x.max() <= 1):
        return
    frame, col = first_index(~((x >= 0) & (x <= 1)))
    raise ValidationError(
        f"{name} out of [0, 1] at frame {frame}, {column} {col}: {x[frame, col]}")


def _check_sp(sp: np.ndarray, error: type[DiffworldError] = ValidationError) -> None:
    """Raise ``error`` unless ``sp`` is non-negative, naming the frame and bin;
    a NaN is not negative, so a NaN minimum falls back to the mask."""
    if sp.size == 0 or sp.min() >= 0:
        return
    bad = sp < 0
    if np.any(bad):
        frame, bin_ = first_index(bad)
        raise error(f"sp is negative at frame {frame}, bin {bin_}")


def _frame_arrays(feats, first: str, second: str) -> tuple[np.ndarray, ...]:
    """Contiguous float64 f0 and (T, width) arrays; checks shapes, f0, finite ``first``."""
    f0, x, y = (np.ascontiguousarray(real_array(getattr(feats, name), name))
                for name in ("f0", first, second))
    if f0.ndim != 1 or x.ndim != 2 or y.ndim != 2:
        raise ValidationError(f"features must be f0 (T,), {first} (T, width), "
                              f"{second} (T, width)")
    t = f0.shape[0]
    if x.shape[0] != t or y.shape[0] != t:
        raise ValidationError(f"frame counts differ: f0 has {t}, {first} has "
                              f"{x.shape[0]}, {second} has {y.shape[0]}")
    check_f0(f0)
    _check_finite(first, x)
    return f0, x, y


def _validated_raw(feats: WorldFeatures) -> WorldFeatures:
    f0, sp, ap = _frame_arrays(feats, "sp", "ap")
    bins = feats.fft_size // 2 + 1
    if sp.shape[1] != bins or ap.shape[1] != bins:
        raise ValidationError(
            f"expected {bins} bins for fft_size {feats.fft_size}, "
            f"got sp {sp.shape[1]}, ap {ap.shape[1]}")
    _check_sp(sp)
    _check_unit(ap, "ap", "bin")
    # unvoiced frames are pure noise by convention; ap is copied only to set them
    unvoiced = f0 == 0
    if ap.min(where=unvoiced[:, None], initial=1.0) < 1.0:
        ap = ap.copy()
        ap[unvoiced, :] = 1.0
    return replace(feats, f0=f0, sp=sp, ap=ap)


def _validated_compressed(feats: CompressedFeatures) -> CompressedFeatures:
    f0, s, a = _frame_arrays(feats, "log_mel", "coded_ap")
    _check_unit(a, "coded_ap", "band")
    return replace(feats, f0=f0, log_mel=s, coded_ap=a)


def validate_features(feats):
    """Enforce the type invariants (including unvoiced ap coercion for raw)."""
    if not isinstance(feats, (WorldFeatures, CompressedFeatures)):
        raise ValidationError(f"feats is not a feature container: {type(feats).__name__}")
    check_framing(sample_rate=feats.sample_rate, fft_size=feats.fft_size, hop=feats.hop)
    if isinstance(feats, WorldFeatures):
        return _validated_raw(feats)
    return _validated_compressed(feats)


# ---------------------------------------------------------------------------
# WFEAT binary format
# ---------------------------------------------------------------------------

def write_features(path, feats) -> None:
    """Write features to a WFEAT file (validating them first)."""
    feats = validate_features(feats)
    if isinstance(feats, WorldFeatures):
        kind, m_or_bins, a_bands = KIND_RAW, feats.n_bins, 0
        arrays = (feats.f0, feats.sp, feats.ap)
    else:
        kind, m_or_bins, a_bands = KIND_COMPRESSED, feats.n_mels, feats.ap_bands
        arrays = (feats.f0, feats.log_mel, feats.coded_ap)
    header = _HEADER.pack(WFEAT_MAGIC, WFEAT_VERSION, feats.sample_rate, feats.hop,
                          feats.fft_size, feats.n_frames, kind, m_or_bins, a_bands)
    with open(path, "wb") as fh:
        fh.write(header)
        for arr in arrays:  # the array's own buffer when it is already <f8 in C order
            fh.write(np.ascontiguousarray(arr, dtype="<f8"))


def read_features(path):
    """Read a WFEAT file, returning validated raw or compressed features.

    The payload's size is checked against the file's before anything that
    the header sizes is allocated; then ``f0`` and the two ``(T, width)``
    arrays are each read straight into a buffer of their own.
    """
    path = Path(path)
    try:
        with open(path, "rb") as fh:
            feats = _read_wfeat(fh, path)
    except OSError as err:
        raise FormatError(f"cannot read {path}: {err}") from err
    return validate_features(feats)


def _read_wfeat(fh, path):
    """The unvalidated container that an open WFEAT file holds."""
    head = fh.read(_HEADER.size)
    if len(head) < _HEADER.size:
        raise FormatError(f"{path}: truncated header")
    magic, version, sample_rate, hop, fft_size, t, kind, m_or_bins, a_bands = \
        _HEADER.unpack(head)
    if magic != WFEAT_MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}")
    if version != WFEAT_VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    if kind == KIND_RAW:
        bins = fft_size // 2 + 1
        if m_or_bins != bins:
            raise FormatError(f"{path}: bin count {m_or_bins} disagrees with "
                              f"fft_size {fft_size}")
        container, widths = WorldFeatures, (bins, bins)
    elif kind == KIND_COMPRESSED:
        container, widths = CompressedFeatures, (m_or_bins, a_bands)
    else:
        raise FormatError(f"{path}: unknown feature kind {kind}")
    # f0, then two (t, width) arrays, as float64; no byte more or less
    need = 8 * t * (1 + sum(widths))
    have = os.fstat(fh.fileno()).st_size - _HEADER.size
    if have != need:
        raise FormatError(f"{path}: {'truncated' if have < need else 'overlong'} "
                          f"payload (header describes {need} bytes, have {have})")
    arrays = tuple(np.empty(shape, "<f8")
                   for shape in ((t,), (t, widths[0]), (t, widths[1])))
    for arr in arrays:
        if fh.readinto(arr) != arr.nbytes:
            raise FormatError(f"{path}: truncated payload (the file shrank while "
                              "it was read)")
    return container(*arrays, sample_rate=sample_rate, hop=hop, fft_size=fft_size)


# ---------------------------------------------------------------------------
# WAV I/O: a RIFF/WAVE codec on struct and numpy.  Reads mono 16-bit integer
# or 32-bit float PCM, plain or WAVE_FORMAT_EXTENSIBLE; skips other chunks;
# ignores the RIFF size field.  Writes 32-bit float as scipy.io.wavfile does.
# ---------------------------------------------------------------------------

_CHUNK = struct.Struct("<4sI")
_FMT = struct.Struct("<HHIIHH")  # format, channels, rate, byte rate, block, bits
_WAV_HEADER = struct.Struct("<4sI4s" "4sIHHIIHHH" "4sII" "4sI")  # RIFF, fmt, fact, data
_FORMAT_EXTENSIBLE = 0xFFFE
# a KSDATAFORMAT_SUBTYPE GUID after its leading u32 format code (RFC 2361)
_SUBTYPE_GUID_TAIL = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"
# (format code, bits per sample, block size) -> sample dtype
_WAV_CODECS = {(1, 16, 2): "<i2", (3, 32, 4): "<f4"}
MAX_WAV_SAMPLES = (0xFFFFFFFF - (_WAV_HEADER.size - 8)) // 4  # RIFF size is a u32


def _wav_format(path, body: bytes) -> tuple[int, str]:
    """(sample rate, sample dtype) from a ``fmt `` chunk body."""
    if len(body) < _FMT.size:
        raise FormatError(f"{path}: {len(body)}-byte fmt chunk (need {_FMT.size})")
    code, channels, rate, _, block, bits = _FMT.unpack_from(body)
    if code == _FORMAT_EXTENSIBLE and len(body) >= 40 and body[28:40] == _SUBTYPE_GUID_TAIL:
        code = struct.unpack_from("<I", body, 24)[0]
    if channels != 1:
        raise ValidationError(f"{path}: {channels}-channel audio; mono required "
                              "(downmix externally before loading)")
    if rate < 1:  # an unpacked u32
        raise FormatError(f"{path}: sample rate must be >= 1, got {rate}")
    if (code, bits, block) not in _WAV_CODECS:
        raise FormatError(f"{path}: unsupported sample codec (format {code:#x}, "
                          f"{bits}-bit, {block}-byte blocks); "
                          "use 16-bit integer or 32-bit float PCM")
    return rate, _WAV_CODECS[code, bits, block]


def read_wav(path, expect_sample_rate: int | None = None) -> Waveform:
    if expect_sample_rate is not None:
        check_framing("read_wav: ", expect_sample_rate=expect_sample_rate)
    try:
        blob = Path(path).read_bytes()
    except OSError as err:
        raise FormatError(f"cannot read {path}: {err}") from err
    if blob[:4] != b"RIFF" or blob[8:12] != b"WAVE":
        raise FormatError(f"{path}: not a little-endian RIFF/WAVE file")
    pos, fmt = 12, None
    while True:  # walk the chunks up to the first data chunk
        if pos + _CHUNK.size > len(blob):
            raise FormatError(f"{path}: no {'data' if fmt else 'fmt'} chunk")
        tag, size = _CHUNK.unpack_from(blob, pos)
        start, pos = pos + _CHUNK.size, pos + _CHUNK.size + size
        if pos > len(blob):
            raise FormatError(f"{path}: truncated {tag.decode('latin-1')!r} chunk "
                              f"(header describes {size} bytes, have {len(blob) - start})")
        if tag == b"fmt ":
            fmt = _wav_format(path, blob[start:pos])
        elif tag == b"data":
            break
        pos += size & 1  # an odd-sized chunk is followed by a pad byte
    if fmt is None:
        raise FormatError(f"{path}: data chunk before the fmt chunk")
    rate, dtype = fmt
    width = np.dtype(dtype).itemsize
    if size % width:
        raise FormatError(f"{path}: {size}-byte data chunk is not a whole number "
                          f"of {width}-byte samples")
    samples = np.frombuffer(blob, dtype, size // width, start).astype(np.float64)
    if dtype == "<i2":
        samples /= 32768.0
    bad = _nonfinite_at(samples)
    if bad is not None:
        raise ValidationError(f"{path}: non-finite sample at index {bad[0]}")
    if expect_sample_rate is not None and rate != expect_sample_rate:
        raise ValidationError(f"{path}: sample rate {rate} does not match "
                              f"expected {expect_sample_rate}")
    return Waveform(samples=samples, sample_rate=int(rate))


def check_wav_rate(sample_rate: int) -> None:
    """Reject a rate whose float32 byte rate, ``rate * 4``, overflows a WAV header's u32."""
    check_integer(sample_rate, "sample_rate")
    max_rate = 0xFFFFFFFF // 4
    if not 1 <= sample_rate <= max_rate:
        raise ValidationError(f"sample rate {sample_rate} cannot be written as "
                              f"float32 WAV (sample_rate must be in [1, {max_rate}])")


def write_wav(path, wave: Waveform) -> None:
    samples = real_array(wave.samples, "samples")
    if samples.ndim != 1:
        raise ValidationError(f"mono required: samples must be 1-D, not {samples.shape}")
    if samples.size > MAX_WAV_SAMPLES:
        raise ValidationError(f"{samples.size} samples cannot be written as float32 "
                              f"WAV (at most {MAX_WAV_SAMPLES})")
    bad = _nonfinite_at(samples)
    if bad is not None:
        raise ValidationError(f"non-finite sample at index {bad[0]}")
    check_wav_rate(wave.sample_rate)
    data = samples.astype("<f4")
    rate = wave.sample_rate
    # scipy.io.wavfile's float layout: an 18-byte fmt chunk (cbSize 0), a fact chunk
    header = _WAV_HEADER.pack(b"RIFF", _WAV_HEADER.size - 8 + data.nbytes, b"WAVE",
                              b"fmt ", 18, 3, 1, rate, 4 * rate, 4, 32, 0,
                              b"fact", 4, data.size, b"data", data.nbytes)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(data)
