"""The public surface, checked with the standard library's ``ast``.

``diffworld.__all__`` names only what resolves, once each; names that
restated another path stay deleted; and no library module keeps an import
it never uses (a line marked ``# noqa: F401`` is exempt).
"""

import ast
import dataclasses
import inspect
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import diffworld
from diffworld import excite, features, fit, losses, melcodec, synth, tensor

PACKAGE = Path(diffworld.__file__).parent


def exported_names() -> list[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("diffworld/__init__.py defines no __all__")


def unused_imports(path: Path) -> list[str]:
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if "# noqa: F401" in lines[node.end_lineno - 1]:
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            bound[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line}: {name}" for name, line in sorted(bound.items())
            if name not in used]


def test_every_export_resolves_once():
    names = exported_names()
    assert len(names) == len(set(names)), sorted(n for n in names if names.count(n) > 1)
    assert [n for n in names if not hasattr(diffworld, n)] == []


@pytest.mark.parametrize("module, name", [
    (synth, "synth_harmonic"), (synth, "synth_noise"), (synth, "oracle_target"),
    (losses, "nll_loss"), (tensor, "delay"), (losses, "downsample_audio"),
    (excite, "extract_excitation"), (excite, "reconstruct"), (fit, "smoothed_trace"),
])
def test_deleted_names_stay_deleted(module, name):
    assert not hasattr(module, name)
    assert name not in diffworld.__all__


def test_one_way_to_read_a_gradient_and_no_unread_fields():
    assert "grad" not in tensor.Tensor.__slots__
    assert [f.name for f in dataclasses.fields(melcodec.MelBasis)] == \
        ["weights", "pinv", "epsilon"]
    assert list(inspect.signature(features.read_features).parameters) == ["path"]


def test_single_valued_settings_stay_constants():
    assert [f.name for f in dataclasses.fields(losses.MslConfig)] == ["scales"]
    assert list(inspect.signature(synth.FirPostFilter.__init__).parameters) == \
        ["self", "taps"]


def test_fir_stage_runs_without_scipy_signal():
    script = (
        "import sys\n"
        "import numpy as np\n"
        "import diffworld as dw\n"
        "from diffworld import tensor as dt\n"
        "t, bins = 8, 33\n"
        "feats = dw.WorldFeatures(f0=np.full(t, 150.0), sp=np.ones((t, bins)),\n"
        "                         ap=np.full((t, bins), 0.3), sample_rate=8000,\n"
        "                         hop=16, fft_size=64)\n"
        "y = dw.synthesize(feats, fir=dw.FirPostFilter(np.r_[0.0, 0.5, 0.25]))\n"
        "taps = dt.Tensor(np.ones(4), requires_grad=True)\n"
        "dt.backward(dt.sum(dt.causal_fir(y, taps)))\n"
        "print('scipy.signal' in sys.modules)\n")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, check=True)
    assert done.stdout.strip() == "False"


def test_cli_loss_runs_without_scipy(tmp_path):
    script = (
        "import sys\n"
        "import numpy as np\n"
        "from diffworld import cli\n"
        "from diffworld.features import Waveform, write_wav\n"
        "a, b = sys.argv[1:]\n"
        "rs = np.random.default_rng(0)\n"
        "write_wav(a, Waveform(rs.normal(size=800), 8000))\n"
        "write_wav(b, Waveform(rs.normal(size=800), 8000))\n"
        "assert cli.main(['loss', a, b]) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    done = subprocess.run([sys.executable, "-c", script, str(tmp_path / "a.wav"),
                           str(tmp_path / "b.wav")], capture_output=True, text=True,
                          check=True)
    assert done.stdout.strip().splitlines()[-1] == "[]"


def test_cli_synth_and_fit_run_without_numpy_random(tmp_path):
    # the noise excitation used to import numpy.random, 5.4 MiB of
    # extension modules in every synth and fit process
    rs = np.random.default_rng(0)
    t, bins = 12, 33
    feats = features.WorldFeatures(f0=np.full(t, 150.0), sp=rs.uniform(0.5, 1.5, (t, bins)),
                                   ap=np.full((t, bins), 0.3), sample_rate=8000, hop=16,
                                   fft_size=64)
    feat_path, wav_path = tmp_path / "f.wfeat", tmp_path / "t.wav"
    features.write_features(feat_path, feats)
    features.write_wav(wav_path, features.Waveform(0.1 * rs.normal(size=t * 16), 8000))
    script = (
        "import sys\n"
        "from diffworld import cli\n"
        "assert cli.main(sys.argv[1:]) == 0\n"
        "print(sorted(m for m in sys.modules if m.startswith('numpy.random')))\n")
    for argv in (["synth", str(feat_path), "-o", str(tmp_path / "y.wav")],
                 ["fit", str(wav_path), "--f0", str(feat_path), "-o",
                  str(tmp_path / "o.wfeat"), "--steps", "2", "--mels", "16",
                  "--ap-bands", "4"]):
        done = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True,
                              text=True, check=True)
        assert done.stdout.strip().splitlines()[-1] == "[]", argv[0]


def test_library_never_imports_numpy_random():
    package = Path(diffworld.__file__).parent
    for path in sorted(package.glob("*.py")):
        source = path.read_text()
        assert "np.random" not in source and "numpy.random" not in source, path.name


def test_runtime_depends_on_numpy_only():
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    with open(Path(__file__).parents[1] / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project["dependencies"] == ["numpy>=2.0"]
    assert any(req.startswith("scipy") for req in project["optional-dependencies"]["test"])


def test_wav_writer_has_no_codec_option():
    assert list(inspect.signature(features.write_wav).parameters) == ["path", "wave"]
    assert list(inspect.signature(features.check_wav_rate).parameters) == ["sample_rate"]


def test_fit_decodes_through_the_one_decoder():
    assert "decode" in diffworld.__all__
    tree = ast.parse((PACKAGE / "fit.py").read_text())
    called = {node.func.attr if isinstance(node.func, ast.Attribute) else
              getattr(node.func, "id", None)
              for node in ast.walk(tree) if isinstance(node, ast.Call)}
    assert "decode" in called
    assert called.isdisjoint({"decompress_sp", "decompress_ap"})


def test_decode_and_fit_reach_the_codec_functions_by_module_name(monkeypatch):
    # perfbench's tracer wraps melcodec.decompress_sp and decompress_ap where
    # they are bound, and its fit.setup_ms looks for the first decompress_sp
    # inside a fit: decode must call both through the module
    calls = []
    for name in ("decompress_sp", "decompress_ap"):
        def counted(*args, _inner=getattr(melcodec, name), _name=name):
            calls.append(_name)
            return _inner(*args)
        monkeypatch.setattr(melcodec, name, counted)
    basis = melcodec.MelBasis.build(8000, 64, n_mels=16)
    f0 = np.full(8, 150.0)
    for tracked in (False, True):
        calls.clear()
        log_mel = tensor.Tensor(np.full((8, 16), -2.0), requires_grad=tracked)
        coded_ap = tensor.Tensor(np.full((8, 4), 0.5), requires_grad=tracked)
        melcodec.decode(f0, log_mel, coded_ap, basis)
        assert calls == ["decompress_sp", "decompress_ap"]
    calls.clear()
    cfg = synth.SynthConfig(sample_rate=8000, fft_size=64)
    fit.fit(np.zeros(8 * cfg.hop), f0, cfg=fit.FitConfig(steps=2), synth_cfg=cfg,
            n_mels=16, ap_bands=4)
    assert calls == ["decompress_sp", "decompress_ap"] * 2


@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.glob("*.py")
                                        if p.name != "__init__.py"),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path) == []
