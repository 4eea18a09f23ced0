"""WFEAT fuzz: corrupted feature files exit with 2 or 3, never 1.

A valid raw and a valid compressed file are cut at random lengths, or have
one header field replaced, and each result goes through ``compress``,
``decompress`` and ``synth``.  Header values are boundary values (0, 1, 2,
the u32 extremes, the field's own value +- 1) plus small random integers, so
that every case stays small in time and memory.
"""

import contextlib
import io

import numpy as np
import pytest

from diffworld import cli
from diffworld import features as ft
from diffworld import melcodec as mc

SR, FFT, HOP, FRAMES = 8000, 64, 16, 4
FIELDS = ("version", "sample_rate", "hop", "fft_size", "n_frames", "kind",
          "m_or_bins", "a_bands")


def _valid_blob(tmp_path, kind: str) -> bytes:
    rs = np.random.default_rng(0)
    bins = FFT // 2 + 1
    feats = ft.WorldFeatures(f0=np.array([150.0, 0.0, 180.0, 200.0]),
                             sp=rs.uniform(0.1, 2.0, (FRAMES, bins)),
                             ap=rs.uniform(0.0, 1.0, (FRAMES, bins)),
                             sample_rate=SR, hop=HOP, fft_size=FFT)
    if kind == "compressed":
        feats = mc.compress(ft.validate_features(feats), n_mels=16, ap_bands=4)
    path = tmp_path / f"{kind}.wfeat"
    ft.write_features(path, feats)
    return path.read_bytes()


def _mutations(blob: bytes, rs):
    """(label, bytes) pairs: random truncations and one-field header edits."""
    cuts = {0, ft._HEADER.size - 1, ft._HEADER.size, len(blob) - 1}
    cuts |= {int(c) for c in rs.integers(0, len(blob), size=12)}
    for cut in sorted(cuts):
        yield f"truncated to {cut}", blob[:cut]
    header = list(ft._HEADER.unpack_from(blob))
    yield "bad magic", ft._HEADER.pack(b"WFEB", *header[1:]) + blob[ft._HEADER.size:]
    for index, name in enumerate(FIELDS, start=1):
        own = header[index]
        values = {0, 1, 2, 2 ** 31, 2 ** 32 - 1, own + 1, max(own - 1, 0)}
        values |= {int(v) for v in rs.integers(0, 1 << 17, size=4)}
        for value in sorted(values):
            edited = list(header)
            edited[index] = value
            yield f"{name}={value}", ft._HEADER.pack(*edited) + blob[ft._HEADER.size:]


def _run(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue().strip()


@pytest.mark.parametrize("kind", ["raw", "compressed"])
def test_corrupted_files_never_exit_internal(tmp_path, kind):
    rs = np.random.default_rng({"raw": 401, "compressed": 402}[kind])
    path = tmp_path / "fuzzed.wfeat"
    commands = (["compress", str(path), "-o", str(tmp_path / "c.wfeat"),
                 "--mels", "16", "--ap-bands", "4"],
                ["decompress", str(path), "-o", str(tmp_path / "d.wfeat")],
                ["synth", str(path), "-o", str(tmp_path / "y.wav")])
    failures, codes = [], set()
    for label, data in _mutations(_valid_blob(tmp_path, kind), rs):
        path.write_bytes(data)
        for argv in commands:
            code, message = _run(argv)
            codes.add(code)
            if code not in (cli.EXIT_OK, cli.EXIT_FORMAT, cli.EXIT_VALIDATION):
                failures.append(f"{label}: {argv[0]} exited {code}: {message}")
    assert not failures, "\n".join(failures)
    # the fuzz reaches both rejection paths and, for harmless edits, success
    assert codes == {cli.EXIT_OK, cli.EXIT_FORMAT, cli.EXIT_VALIDATION}


@pytest.mark.parametrize("field, value, payload, message", [
    ("hop", 0, True, "hop must be >= 1"),
    ("sample_rate", 2 ** 31, True, "sample rate 2147483648 cannot be written"),
    ("n_frames", 0, False, "at least one frame"),
])
def test_synth_of_bad_header_is_validation_error(tmp_path, field, value, payload,
                                                 message):
    blob = _valid_blob(tmp_path, "raw")
    header = list(ft._HEADER.unpack_from(blob))
    header[1 + FIELDS.index(field)] = value
    path = tmp_path / "bad.wfeat"
    path.write_bytes(ft._HEADER.pack(*header)
                     + (blob[ft._HEADER.size:] if payload else b""))
    code, stderr = _run(["synth", str(path), "-o", str(tmp_path / "y.wav")])
    assert code == cli.EXIT_VALIDATION
    assert message in stderr
