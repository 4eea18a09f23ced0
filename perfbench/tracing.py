"""Span tracing around the public functions of each ``diffworld`` module.

The tracer wraps the functions listed in :data:`TARGETS` from outside the
program: it replaces each function object wherever a ``diffworld`` module
holds it, including names imported with ``from .x import y`` (``fit``
binds ``stft``, ``istft``, ``pulse_train`` and ``msl`` that way, ``excite``
and ``losses`` bind ``stft``, and ``cli`` binds the feature readers and
writers).  Patching only the defining module would leave those call sites
unmeasured.  :meth:`Tracer.remove` puts every original back.

A span is ``(id, name, start, end, parent, op, thread, out_bytes)``.  Spans
stay in memory until :meth:`Tracer.dump`.  A span's parent is the innermost
open span on its thread; a span opened on a worker thread with nothing open
there (the ``loss`` subcommand's scale pool) takes the innermost open span
of the main thread instead.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
import threading
import time

import numpy as np

# module -> functions wrapped in it
TARGETS = {
    "tensor": ("backward", "frame", "overlap_add", "rfft", "irfft", "complex_abs"),
    "synth": ("interpolate_f0", "pulse_train", "noise_excitation", "stft", "istft",
              "synthesize"),
    "melcodec": ("compress_sp", "compress_ap", "decompress_sp", "decompress_ap"),
    "losses": ("msl", "scale_loss", "mse_features"),
    "excite": ("transform_formants",),
    "features": ("read_features", "write_features", "read_wav", "write_wav"),
    "fit": ("fit", "adam_step"),
    "cli": ("main",),
}

MSL_WINDOWS = (64, 128, 256, 512, 1024, 2048)
CLI_COMMANDS = ("compress", "decompress", "synth", "excite-transform", "loss",
                "spectrogram")

UNITS = {"calls": "count", "ms": "ms", "self_ms": "ms", "out_mib": "MiB",
         "file_mib": "MiB", "setup_ms": "ms", "peak_mib": "MiB",
         "import_ms": "ms", "import_scipy_io_ms": "ms", "overhead_pct": "%",
         "op_s_p50": "s"}


def per_layer_metrics() -> list[str]:
    """Every per-layer metric name, ``<span name>.<stat>``, at most 128.

    ``out_mib`` is left out for the tensor primitives to stay under the
    limit; ``features`` reports the file size moved per call as ``file_mib``.
    ``losses.mse_features`` is wrapped but not reported: no workload calls it.
    """
    names = []

    def add(span: str, stats: tuple[str, ...]) -> None:
        names.extend(f"{span}.{stat}" for stat in stats)

    timing = ("calls", "ms", "self_ms")
    for func in TARGETS["tensor"]:
        add(f"tensor.{func}", timing)
    for module in ("synth", "melcodec", "excite"):
        for func in TARGETS[module]:
            add(f"{module}.{func}", timing + ("out_mib",))
    add("losses.msl", timing)
    for window in MSL_WINDOWS:
        add(f"losses.scale_loss.w{window}", timing)
    for func in TARGETS["features"]:
        add(f"features.{func}", ("calls", "ms", "file_mib"))
    for func in TARGETS["fit"]:
        add(f"fit.{func}", timing)
    names += ["fit.setup_ms", "fit.peak_mib"]
    for command in CLI_COMMANDS:
        add(f"cli.main.{command}", timing)
    names += ["cli.import_ms", "cli.import_scipy_io_ms",
              "trace.overhead_pct", "trace.op_s_p50"]
    return names


def unit_of(metric: str) -> str:
    return UNITS[metric.rsplit(".", 1)[1]]


def _label(module: str, func: str, args: tuple, kwargs: dict) -> str:
    """Span name; ``scale_loss`` and ``cli.main`` are split by argument."""
    if func == "scale_loss":
        window = args[2] if len(args) > 2 else kwargs["window"]
        return f"losses.scale_loss.w{window}"
    if module == "cli":
        argv = args[0] if args else kwargs.get("argv")
        return f"cli.main.{argv[0]}" if argv else "cli.main"
    return f"{module}.{func}"


def out_bytes(value) -> int:
    """Bytes of the arrays a call returned (tensors, arrays, tuples of them)."""
    if value is None:
        return 0
    if isinstance(value, np.ndarray):
        return value.nbytes
    data = getattr(value, "data", None)
    if isinstance(data, np.ndarray):          # Tensor
        return data.nbytes
    if isinstance(value, (tuple, list)):
        return sum(out_bytes(v) for v in value)
    return 0


class Tracer:
    """Install with :meth:`install`, take spans, then :meth:`remove`."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.op = None
        self._ids = itertools.count()
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.main_thread().ident
        self._patched: list[tuple] = []

    # -- spans ---------------------------------------------------------------

    def _parent(self, stack: list[int]):
        if stack:
            return stack[-1]
        main = self._stacks.get(self._main)
        return main[-1] if main else None

    def call(self, name: str, fn, args: tuple = (), kwargs: dict | None = None,
             size_of=lambda args, result: 0):
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``."""
        stack = self._stacks.setdefault(threading.get_ident(), [])
        sid, parent = next(self._ids), self._parent(stack)
        stack.append(sid)
        start = time.perf_counter()
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            end = time.perf_counter()
            stack.pop()
        # sizes are taken after the span closed, so they cost it nothing
        self.spans.append((sid, name, start, end, parent, self.op,
                           threading.get_ident(), size_of(args, result)))
        return result

    def _wrap(self, module: str, func: str, fn):
        if module == "features":
            def size_of(args, result):
                return os.path.getsize(args[0])
        else:
            def size_of(args, result):
                return out_bytes(result)

        def traced(*args, **kwargs):
            return self.call(_label(module, func, args, kwargs), fn, args, kwargs, size_of)

        traced.__wrapped__ = fn
        return traced

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        import diffworld  # noqa: F401 - loads every submodule

        modules = [m for name, m in list(sys.modules.items())
                   if name == "diffworld" or name.startswith("diffworld.")]
        for module, funcs in TARGETS.items():
            home = sys.modules[f"diffworld.{module}"]
            for func in funcs:
                original = getattr(home, func)
                wrapper = self._wrap(module, func, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, original))

    def remove(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def patched_names(self) -> set[str]:
        return {f"{mod.__name__}.{attr}" for mod, attr, _ in self._patched}

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "name", "start", "end", "parent", "op",
                                  "thread", "out_bytes"],
                       "spans": self.spans}, fh)


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------

def self_times(spans: list) -> dict[int, float]:
    """Span id -> duration minus the part covered by its child spans."""
    children: dict[int, list] = {}
    for span in spans:
        if span[4] is not None:
            children.setdefault(span[4], []).append((span[2], span[3]))
    out = {}
    for sid, _, start, end, *_ in spans:
        covered, cursor = 0.0, start
        for lo, hi in sorted(children.get(sid, ())):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[sid] = (end - start) - covered
    return out


def layer_stats(spans: list, n_ops: int) -> dict[str, dict[str, float]]:
    """Per span name: calls, ms, self_ms and MiB returned or moved, per op."""
    selfs = self_times(spans)
    stats: dict[str, dict[str, float]] = {}
    for sid, name, start, end, _, _, _, size in spans:
        s = stats.setdefault(name, {"calls": 0.0, "ms": 0.0, "self_ms": 0.0,
                                    "mib": 0.0})
        s["calls"] += 1
        s["ms"] += (end - start) * 1e3
        s["self_ms"] += selfs[sid] * 1e3
        s["mib"] += size / 2 ** 20
    for s in stats.values():
        for key in s:
            s[key] /= max(n_ops, 1)
    return stats


def fit_setup_ms(spans: list) -> list[float]:
    """Per ``fit.fit`` span: ms from its entry to its first ``decompress_sp``.

    That stretch is fit's excitation precompute (pulse train, noise and
    their STFTs) plus the mel basis and aperiodicity set-up.
    """
    parents = {span[0]: span[4] for span in spans}
    fits = {span[0]: span[2] for span in spans if span[1] == "fit.fit"}
    first: dict[int, float] = {}
    for sid, name, start, *_ in spans:
        if name != "melcodec.decompress_sp":
            continue
        node = parents[sid]
        while node is not None and node not in fits:
            node = parents.get(node)
        if node is not None:
            first[node] = min(first.get(node, start), start)
    return [(first[f] - fits[f]) * 1e3 for f in fits if f in first]


IMPORT_LINE = "import time:"


def import_times_ms(stderr_text: str) -> dict[str, float]:
    """Cumulative import time of ``diffworld`` and ``scipy.io`` (ms).

    Parses the ``-X importtime`` report; a module imported before
    ``diffworld`` (numpy, say) is not part of its cumulative time.
    """
    out = {}
    for line in stderr_text.splitlines():
        if not line.startswith(IMPORT_LINE):
            continue
        fields = line[len(IMPORT_LINE):].split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue
        name = fields[2].strip()
        if name in ("diffworld", "scipy.io"):
            out[name] = int(fields[1]) / 1e3
    return out
