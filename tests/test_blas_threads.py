"""Every matrix product runs in tiles that OpenBLAS keeps on one thread.

How OpenBLAS's pool splits a product changes its rounding, so products that
woke the pool wrote different bits under ``OPENBLAS_NUM_THREADS=1`` and
``2``.  ``tensor._product`` is the one place that makes a product; these
tests check its tiling, its bits, and that the CLI's outputs no longer
depend on the pool's size.  A second source scan keeps the loop over blocks
of frames in one place, ``synth._blocks``, as the first keeps products in
``tensor._product``.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import diffworld
from diffworld import synth as sy
from diffworld import tensor as dt
from diffworld.features import Waveform, WorldFeatures, write_features, write_wav
from helpers import two_formant_envelope

BOUND = dt._ONE_THREAD_MULADDS

# products whose whole form OpenBLAS splits over threads; the first two are
# the decode product and its adjoint at fft_size 8192, the others at 65536,
# where one row of the product is already above the bound
WIDE = {"fwd8192": (12, 80, 4097), "adj8192": (12, 4097, 80),
        "fwd65536": (12, 80, 32769), "adj65536": (12, 32769, 80)}
# one-row products whose inner dimension alone OpenBLAS splits over threads:
# a DOT and a GEMV
DEEP = {"dot200000": (1, 200000, 1), "gemv300000": (1, 300000, 4)}

# runs in a fresh process: OpenBLAS reads its thread count once, at load
SCRIPT = """
import sys
import numpy as np
from diffworld import cli
from diffworld import tensor as dt
inputs, out = sys.argv[1:3]
for argv in (["compress", f"{inputs}/raw.wfeat", "-o", f"{out}/comp.wfeat"],
             ["decompress", f"{out}/comp.wfeat", "-o", f"{out}/decomp.wfeat"],
             ["spectrogram", f"{inputs}/target.wav", "-o", f"{out}/spec.csv"],
             ["fit", f"{inputs}/target.wav", "--f0", f"{inputs}/raw.wfeat",
              "-o", f"{out}/fit.wfeat", "--steps", "3", "--lr", "0.03",
              "--trace", f"{out}/trace.csv"]):
    assert cli.main(argv) == 0, argv
for i, (name, m, k, n) in enumerate(zip(sys.argv[3::4], *(map(int, sys.argv[j::4])
                                                        for j in (4, 5, 6)))):
    rs = np.random.default_rng(i)
    product = dt._product(rs.normal(size=(m, k)), rs.normal(size=(k, n)))
    with open(f"{out}/{name}.bin", "wb") as fh:
        fh.write(product.tobytes())
"""

OUTPUTS = ["comp.wfeat", "decomp.wfeat", "spec.csv", "fit.wfeat", "trace.csv",
           *(f"{name}.bin" for name in {**WIDE, **DEEP})]


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Output directory per ``OPENBLAS_NUM_THREADS``, from one process each."""
    inputs = tmp_path_factory.mktemp("inputs")
    cfg = sy.SynthConfig()  # 22050 Hz, fft 1024, hop 256
    t = 86                  # 1 s: the codec's (86, 513) @ (513, 80) woke the pool
    f0 = 120.0 + 30.0 * np.sin(np.arange(t) / 9.0)
    f0[::11] = 0.0
    env = two_formant_envelope(cfg.fft_size // 2 + 1, cfg.sample_rate)
    feats = WorldFeatures(f0=f0, sp=np.outer(1.0 + 0.5 * np.cos(np.arange(t) / 7.0), env),
                          ap=np.full((t, cfg.fft_size // 2 + 1), 0.2),
                          sample_rate=cfg.sample_rate, hop=cfg.hop, fft_size=cfg.fft_size)
    write_features(inputs / "raw.wfeat", feats)
    write_wav(inputs / "target.wav", Waveform(sy.synthesize(feats, cfg).data, cfg.sample_rate))
    shapes = [str(x) for name, shape in {**WIDE, **DEEP}.items() for x in (name, *shape)]
    package = str(Path(diffworld.__file__).parents[1])
    dirs = {}
    for threads in ("1", "2"):
        out = dirs[threads] = tmp_path_factory.mktemp(f"threads{threads}")
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([package, os.environ.get("PYTHONPATH", "")]))
        subprocess.run([sys.executable, "-c", SCRIPT, str(inputs), str(out), *shapes],
                       env=env, check=True, capture_output=True)
    return dirs


@pytest.mark.parametrize("name", OUTPUTS)
def test_outputs_do_not_depend_on_openblas_threads(runs, name):
    # compress, decompress and fit used to write other bits under 2 threads
    assert (runs["1"] / name).read_bytes() == (runs["2"] / name).read_bytes()


def tiles_of(monkeypatch, a, b):
    """``_product(a, b)`` and the ``(rows, cols, depth)`` spans of its tiles'
    products, in call order, for C-contiguous ``a`` and ``b``, whose tiles
    are views into them."""
    tiles, matmul = [], np.matmul

    def record(x, y, out=None):
        tiles.append((x, y))
        return matmul(x, y, out=out)

    with monkeypatch.context() as patch:
        patch.setattr(np, "matmul", record)
        product = dt._product(a, b)
    spans = []
    for x, y in tiles:
        r0, k0 = divmod(x.ctypes.data - a.ctypes.data, a.strides[0])
        c0 = (y.ctypes.data - b.ctypes.data) % b.strides[0] // b.itemsize
        k0 //= a.itemsize
        spans.append(((r0, r0 + x.shape[0]), (c0, c0 + y.shape[1]), (k0, k0 + x.shape[1])))
    return product, spans


def operands(m, k, n, seed=0):
    rs = np.random.default_rng(seed)
    return rs.normal(size=(m, k)), rs.normal(size=(k, n))


@pytest.mark.parametrize("m, k, n, want", [
    (1, 80, 513, [((0, 1), (0, 513))]),
    (2, 80, 513, [((0, 2), (0, 513))]),
    # 6 rows of 80 * 513 multiply-adds fit the bound
    (12, 80, 513, [((0, 6), (0, 513)), ((6, 12), (0, 513))]),
    # a one-row tail joins the block before it, which splits its columns
    (13, 80, 513, [((0, 6), (0, 513)), ((6, 13), (0, 468)), ((6, 13), (468, 513))]),
    # one row is above the bound: blocks of two rows, cut into columns
    (5, 80, 4097, [((0, 2), (0, 1638)), ((0, 2), (1638, 3276)), ((0, 2), (3276, 4097)),
                   ((2, 5), (0, 1092)), ((2, 5), (1092, 2184)), ((2, 5), (2184, 3276)),
                   ((2, 5), (3276, 4097))]),
])
def test_tiles(monkeypatch, m, k, n, want):
    a, b = operands(m, k, n)
    product, spans = tiles_of(monkeypatch, a, b)
    assert spans == [(*tile, (0, k)) for tile in want]
    for (r0, r1), (c0, c1), _ in spans:
        # each tile is below the bound, so this reference runs on one thread
        assert np.array_equal(product[r0:r1, c0:c1], a[r0:r1] @ b[:, c0:c1])


@pytest.mark.parametrize("m, k, n, tiles, depths", [
    # one row: GEMV tiles of two columns, 2**17 deep
    (1, 300000, 4, [((0, 1), (0, 2)), ((0, 1), (2, 4))],
     [(0, 131072), (131072, 262144), (262144, 300000)]),
    # one row by one column: DOT tiles of 10000 terms
    (1, 25000, 1, [((0, 1), (0, 1))], [(0, 10000), (10000, 20000), (20000, 25000)]),
])
def test_deep_tiles_add_their_spans_in_order(monkeypatch, m, k, n, tiles, depths):
    a, b = operands(m, k, n)
    product, spans = tiles_of(monkeypatch, a, b)
    assert spans == [(*tile, depth) for tile in tiles for depth in depths]
    for (r0, r1), (c0, c1) in tiles:
        want = a[r0:r1, :depths[0][1]] @ b[:depths[0][1], c0:c1]
        for lo, hi in depths[1:]:
            want += a[r0:r1, lo:hi] @ b[lo:hi, c0:c1]
        assert np.array_equal(product[r0:r1, c0:c1], want)


@pytest.mark.parametrize("m, k, n", [(861, 80, 513), (861, 513, 80), (861, 513, 16),
                                     (7, 80, 4097), (7, 4097, 80), (3, 80, 32769),
                                     (3, 32769, 80), (9, 40, 1), (1, 600, 513),
                                     (1, 80, 32769), (4, 0, 3), (0, 5, 3),
                                     (1, 200000, 1), (1, 300000, 4), (2, 300000, 1),
                                     (3, 300000, 2), (1, 25000, 1), (5, 140000, 7)])
def test_every_tile_stays_on_one_thread(monkeypatch, m, k, n):
    a, b = operands(m, k, n)
    if k == 0 or m == 0:
        assert np.array_equal(dt._product(a, b), np.zeros((m, n)))
        return
    product, spans = tiles_of(monkeypatch, a, b)
    covered = np.zeros((m, n), int)
    rebuilt = np.zeros((m, n))
    for (r0, r1), (c0, c1), (k0, k1) in spans:
        height, width, depth = r1 - r0, c1 - c0, k1 - k0
        covered[r0:r1, c0:c1] += k0 == 0
        if depth == k:  # an undivided inner dimension keeps lines together
            assert height >= min(m, 2) and width >= min(n, 2)
        if height == width == 1:
            assert depth <= dt._ONE_THREAD_DOT
        elif 1 in (height, width):
            assert height * depth * width < 115200 * 4  # GEMV
        # a one-column tail that joins its neighbour adds at most half a tile
        assert height * depth * width <= BOUND * 3 // 2
        rebuilt[r0:r1, c0:c1] += a[r0:r1, k0:k1] @ b[k0:k1, c0:c1]
    assert np.all(covered == 1)
    assert np.array_equal(product, rebuilt)


def test_wide_products_split_their_columns(monkeypatch):
    for m, k, n in WIDE.values():
        _, spans = tiles_of(monkeypatch, *operands(m, k, n))
        assert len({cols for _, cols, _ in spans}) > 1


# numpy's product functions; ``dt.matmul`` is the differentiable op that
# calls the helper
PRODUCTS = {"dot", "matmul", "inner", "einsum", "tensordot", "vdot", "multi_dot"}


def numpy_product(node) -> bool:
    """Whether ``node`` names one of numpy's products (``np.dot``,
    ``np.linalg.multi_dot``, ``x.dot``)."""
    if not isinstance(node, ast.Attribute) or node.attr not in PRODUCTS:
        return False
    root = node.value
    while isinstance(root, ast.Attribute):
        root = root.value
    return node.attr == "dot" or isinstance(root, ast.Name) and root.id in ("np", "numpy")


def test_every_product_goes_through_the_helper():
    found = []
    for path in sorted(Path(diffworld.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        allowed = set()
        if path.name == "tensor.py":
            helper, = (node for node in tree.body
                       if isinstance(node, ast.FunctionDef) and node.name == "_product")
            allowed = {id(node) for node in ast.walk(helper)}
        for node in ast.walk(tree):
            if id(node) in allowed:
                continue
            if (isinstance(node, (ast.BinOp, ast.AugAssign))
                    and isinstance(node.op, ast.MatMult)):
                found.append(f"{path.name}:{node.lineno} @")
            elif numpy_product(node):
                found.append(f"{path.name}:{node.lineno} .{node.attr}")
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
                found += [f"{path.name}:{node.lineno} import {alias.name}"
                          for alias in node.names if alias.name in PRODUCTS]
    assert not found


def block_loops(package: Path) -> list[str]:
    """``file:line`` of each loop over blocks of frames outside
    ``synth._blocks``: a ``range`` over ``n_frames``, or any ``range`` in a
    function that sizes blocks with ``_block_frames``."""
    found = set()
    for path in sorted(package.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text())):
            if not isinstance(func, ast.FunctionDef) or func.name == "_blocks":
                continue
            sizes_blocks = "_block_frames" in names_in(func)
            for node in ast.walk(func):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                        and node.func.id == "range"
                        and (sizes_blocks or any("n_frames" in names_in(arg)
                                                 for arg in node.args))):
                    found.add(f"{path.name}:{node.lineno}")
    return sorted(found)


def names_in(node) -> set[str]:
    return {name.id for name in ast.walk(node) if isinstance(name, ast.Name)}


def test_every_block_loop_goes_through_the_helper():
    # one block rule in one place: every pass that monkeypatching
    # synth._VALUE_BLOCK must reach takes its blocks from synth._blocks
    assert block_loops(Path(diffworld.__file__).parent) == []
