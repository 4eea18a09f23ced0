"""WAV fuzz: corrupted audio files exit with 2 or 3, never 1.

A valid mono PCM16 file and a valid float32 file (the library's own writer
output) are cut at every length, have one chunk size field set to a boundary
value (0, 1, its own value +- 1, the u32 maximum), get another format code
and bit depth or another channel count, or gain an odd-length ``LIST`` chunk
before ``data``.  Each result goes through ``loss``, ``spectrogram``, ``fit``
and ``excite-transform``.  The clips hold 64 samples and the header checks
come before any allocation, so no case allocates more than a few KiB.
"""

import contextlib
import io
import struct

import numpy as np
import pytest

from diffworld import cli
from diffworld import features as ft
from helpers import wav_chunk, wav_file, wav_fmt

SR, FFT, HOP, N = 8000, 64, 16, 64
FMT_AT = 20  # the fmt chunk body follows the RIFF header and its own chunk header


def _valid_blob(tmp_path, kind: str) -> bytes:
    x = 0.5 * np.random.default_rng({"pcm16": 501, "float32": 502}[kind]).uniform(
        -1.0, 1.0, size=N)
    if kind == "pcm16":
        return wav_file(wav_chunk(b"fmt ", wav_fmt(1, 16, rate=SR)),
                        wav_chunk(b"data", np.round(x * 32767).astype("<i2").tobytes()))
    path = tmp_path / "valid.wav"
    ft.write_wav(path, ft.Waveform(x, SR))
    return path.read_bytes()


def _size_fields(blob: bytes):
    """(tag, offset, value) of the RIFF size field and of every chunk's size field."""
    yield b"RIFF", 4, struct.unpack_from("<I", blob, 4)[0]
    pos = 12
    while pos < len(blob):
        tag, size = struct.unpack_from("<4sI", blob, pos)
        yield tag, pos + 4, size
        pos += 8 + size + (size & 1)


def _mutations(blob: bytes):
    """(label, bytes) pairs covering truncation, sizes, codecs, channels, chunks."""
    for cut in range(len(blob)):
        yield f"truncated to {cut}", blob[:cut]
    for tag, offset, own in _size_fields(blob):
        for value in sorted({0, 1, max(own - 1, 0), own + 1, 2 ** 32 - 1}):
            yield (f"{tag!r} size={value}",
                   blob[:offset] + struct.pack("<I", value) + blob[offset + 4:])
    _, channels, rate, _, _, _ = struct.unpack_from("<HHIIHH", blob, FMT_AT)
    for code in (1, 3, 0xFFFE, 2, 6):
        for bits in (8, 16, 24, 32, 64):
            fmt = struct.pack("<HHIIHH", code, channels, rate, rate * bits // 8,
                              bits // 8, bits)
            yield f"format {code:#x}/{bits}-bit", blob[:FMT_AT] + fmt + blob[FMT_AT + 16:]
    for count in (0, 1, 2):
        yield (f"{count} channels",
               blob[:FMT_AT + 2] + struct.pack("<H", count) + blob[FMT_AT + 4:])
    data_at = blob.index(b"data")
    yield "odd LIST before data", (blob[:data_at] + wav_chunk(b"LIST", b"INFOabc")
                                   + blob[data_at:])


def _run(argv) -> tuple[int, str]:
    err, out = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, err.getvalue().strip()


@pytest.mark.parametrize("kind", ["pcm16", "float32"])
def test_corrupted_wavs_never_exit_internal(tmp_path, kind):
    path, env = tmp_path / "fuzzed.wav", tmp_path / "env.wfeat"
    bins = FFT // 2 + 1
    ft.write_features(env, ft.WorldFeatures(
        f0=np.array([150.0, 0.0, 180.0, 200.0]), sp=np.ones((N // HOP, bins)),
        ap=np.full((N // HOP, bins), 0.3), sample_rate=SR, hop=HOP, fft_size=FFT))
    commands = (["loss", str(path), str(path)],
                ["spectrogram", str(path), "-o", str(tmp_path / "s.csv"),
                 "--mels", "16", "--fft-size", "64"],
                ["fit", str(path), "--f0", str(env), "-o", str(tmp_path / "f.wfeat"),
                 "--steps", "2", "--mels", "16", "--ap-bands", "4"],
                ["excite-transform", str(path), "--src-env", str(env),
                 "--tgt-env", str(env), "-o", str(tmp_path / "y.wav")])
    failures, codes = [], set()
    for label, data in _mutations(_valid_blob(tmp_path, kind)):
        path.write_bytes(data)
        for argv in commands:
            code, message = _run(argv)
            codes.add(code)
            if code not in (cli.EXIT_OK, cli.EXIT_FORMAT, cli.EXIT_VALIDATION):
                failures.append(f"{label}: {argv[0]} exited {code}: {message}")
    assert not failures, "\n".join(failures)
    # the fuzz reaches both rejection paths and, for harmless edits, success
    assert codes == {cli.EXIT_OK, cli.EXIT_FORMAT, cli.EXIT_VALIDATION}
