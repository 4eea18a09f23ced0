"""diffworld benchmark: run one workload once and print its metrics.

    python3 perfbench/run.py --workload fit|render|coldstart --seed N \\
        --seconds S --trace 0|1

Run it from the root of a diffworld checkout; it imports the library from
``src/``.  It generates the workload's inputs from ``--seed``, measures
set-up in fresh processes, runs ops in a closed loop (one caller, one op at
a time) for ``--seconds`` of measured time, checks every op's output, and
prints a row with every figure, an environment stamp, and as its last line
a JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json;
with ``--trace 1`` they are the per-layer ones, from a run whose ops
alternate untraced and traced.  It exits 1 when any check fails and 2 when
it cannot run at all.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

import inputs
import tracing

TOOL_DIR = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(TOOL_DIR, "worker.py")
RUNS_DIR = os.path.join(TOOL_DIR, ".runs")

PROBES = 5              # fresh processes timed for setup_s; the median is reported
DEADLINE_S = 170.0      # the whole run must end well inside 180 s
WORKLOADS = ("fit", "render", "coldstart")
# DIFFWORLD_THREADS seen by the processes that run ops (None: unset)
THREADS = {"fit": None, "render": "2", "coldstart": None}

CAVEAT = ("Shared, loaded machine: one-off timings of the same stage have "
          "differed by up to 8x between repeats, and single 1 s calls spread "
          "about 15% between quartiles. Compare medians of many runs, never "
          "single figures.")


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


# ---------------------------------------------------------------------------
# environment stamp
# ---------------------------------------------------------------------------

def _git_sha(root: str) -> str:
    """HEAD commit from ``.git`` files; 'unknown' outside a git checkout."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _blas() -> tuple[str, int | str]:
    import numpy as np

    try:
        name = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        name = "unknown"
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "blas" in line.lower()}
    except OSError:
        libs = set()
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                return name, int(getattr(handle, symbol)())
    return name, "unknown"


def env_stamp(root: str, workload: str, seed: int) -> dict:
    import numpy
    import scipy

    blas, blas_threads = _blas()
    return {"git_sha": _git_sha(root), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": blas, "blas_threads": blas_threads, "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "DIFFWORLD_THREADS": THREADS[workload] or "unset", "seed": seed,
            "caveat": CAVEAT}


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

def _remaining(deadline: float) -> float:
    left = deadline - time.perf_counter()
    if left <= 0:
        raise BenchError(f"run exceeded {DEADLINE_S:.0f} s")
    return left


def probe_setup(spec_path: str, env: dict, deadline: float) -> float:
    """Seconds from spawning a fresh process to its first op being ready."""
    t0 = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, WORKER, "probe", spec_path], env=env,
                              capture_output=True, text=True,
                              timeout=_remaining(deadline))
    except subprocess.TimeoutExpired:
        raise BenchError("set-up probe timed out") from None
    lines = [ln for ln in proc.stdout.splitlines() if ln.startswith("READY ")]
    if proc.returncode != 0 or not lines:
        raise BenchError(f"set-up probe failed ({proc.returncode}): {proc.stderr[-2000:]}")
    return float(lines[-1].split()[1]) - t0


def run_worker(spec: dict, spec_path: str, env: dict, deadline: float) -> tuple[dict, str]:
    """Run the timed loop in a fresh process; returns its result and stderr."""
    cmd = [sys.executable]
    if spec["trace"]:
        cmd += ["-X", "importtime"]
    cmd += [WORKER, "ops", spec_path]
    err_path = os.path.join(spec["work_dir"], "worker.stderr")
    with open(err_path, "w") as err:
        proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL, stderr=err,
                                start_new_session=True)
        try:
            proc.wait(timeout=_remaining(deadline))
        except (subprocess.TimeoutExpired, BenchError):
            os.killpg(proc.pid, signal.SIGKILL)   # the worker and its CLI children
            proc.wait()
            raise BenchError("worker timed out") from None
    with open(err_path) as fh:
        stderr = fh.read()
    if proc.returncode != 0:
        raise BenchError(f"worker failed ({proc.returncode}): {stderr[-2000:]}")
    with open(spec["result"]) as fh:
        return json.load(fh), stderr


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def end_to_end(workload: str, setups: list[float], result: dict) -> tuple[dict, dict]:
    """The gated metrics, plus figures printed but not gated."""
    ops = [r for r in result["ops"] if not r["traced"]]
    times = sorted(r["s"] for r in ops)
    p50 = statistics.median(times)
    metrics = {
        "setup_s": statistics.median(setups),
        "op_s_p50": p50,
        "steps_per_s": result["steps_per_op"] / p50,
        "audio_s_per_s": result["audio_s_per_op"] / p50,
        "peak_rss_mib": result["maxrss_kib"] / 1024.0,
    }
    failed = sum(1 for r in ops if r["errors"])
    extras = {"ops": len(times), "fail_ratio": failed / len(times),
              "op_s_p90": (statistics.quantiles(times, n=10)[-1]
                           if len(times) >= 100 else None),
              "setup_samples_s": setups}
    reductions = [r["msl_reduction"] for r in ops if "msl_reduction" in r]
    if reductions:
        extras["msl_reduction"] = statistics.fmean(reductions)
    return metrics, extras


def per_layer(names: list[str], result: dict, worker_stderr: str) -> dict:
    layers = result["layers"]
    if "import_ms" in result:       # coldstart: one report per traced CLI process
        imports = result["import_ms"]
    else:                           # fit, render: the worker's own report
        imports = [tracing.import_times_ms(worker_stderr)]
    untraced = [r["s"] for r in result["ops"] if not r["traced"]]
    traced = [r["s"] for r in result["ops"] if r["traced"]]
    specials = {
        "fit.setup_ms": result["fit_setup_ms"],
        "fit.peak_mib": result["fit_peak_mib"],
        "cli.import_ms": [i.get("diffworld", 0.0) for i in imports],
        "cli.import_scipy_io_ms": [i.get("scipy.io", 0.0) for i in imports],
        "trace.op_s_p50": traced,
    }
    stat_key = {"calls": "calls", "ms": "ms", "self_ms": "self_ms",
                "out_mib": "mib", "file_mib": "mib"}
    out = {}
    for name in names:
        if name == "trace.overhead_pct":
            value = 100.0 * (statistics.median(traced) / statistics.median(untraced) - 1.0)
        elif name in specials:
            value = statistics.median(specials[name]) if specials[name] else 0.0
        else:
            span, stat = name.rsplit(".", 1)
            value = layers.get(span, {}).get(stat_key[stat], 0.0)
        out[name] = value
    return out


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def child_env(root: str, workload: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("DIFFWORLD_THREADS", None)
    if THREADS[workload] is not None:
        env["DIFFWORLD_THREADS"] = THREADS[workload]
    return env


def row(workload: str, metrics: dict, units: dict, extras: dict, trace: bool) -> str:
    """The human-readable line: every metric by name, with its unit."""
    if trace:
        metrics = {k: metrics[k] for k in ("trace.op_s_p50", "trace.overhead_pct")}
    cells = [f"{name}={value:.6g} {units[name]}" for name, value in metrics.items()]
    if not trace:
        cells.append(f"fail_ratio={extras['fail_ratio']:.6g} ({extras['ops']} ops)")
        p90 = extras["op_s_p90"]
        cells.append(f"op_s_p90={p90:.6g} s" if p90 is not None
                     else f"op_s_p90=n/a (needs 100 ops, had {extras['ops']})")
        if "msl_reduction" in extras:
            cells.append(f"msl_reduction={extras['msl_reduction']:.4f}")
    return f"[{workload}] " + "  ".join(cells)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as fh:
            bench = json.load(fh)
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(src, "diffworld", "__init__.py")):
        print("error: src/diffworld not found; run from the root of a diffworld "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, src)           # inputs.generate imports diffworld
    deadline = time.perf_counter() + DEADLINE_S
    os.makedirs(RUNS_DIR, exist_ok=True)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    work_dir = os.path.join(RUNS_DIR, f"work-{tag}-{os.getpid()}")
    os.makedirs(work_dir)
    try:
        spec = {"workload": args.workload, "seconds": args.seconds,
                "trace": bool(args.trace), "work_dir": work_dir,
                "clips": inputs.generate(args.workload, args.seed, work_dir),
                "result": os.path.join(work_dir, "result.json"),
                "spans_out": os.path.join(RUNS_DIR, f"spans-{tag}.json")}
        spec_path = os.path.join(work_dir, "spec.json")
        with open(spec_path, "w") as fh:
            json.dump(spec, fh)
        env = child_env(root, args.workload)
        setups = [probe_setup(spec_path, env, deadline) for _ in range(PROBES)]
        result, worker_stderr = run_worker(spec, spec_path, env, deadline)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in bench[kind]}
    e2e, extras = end_to_end(args.workload, setups, result)
    if args.trace:
        metrics = per_layer(list(units), result, worker_stderr)
    else:
        metrics = {name: e2e[name] for name in units}
    failures = [f"op {n}: {e}" for n, r in enumerate(result["ops"]) for e in r["errors"]]
    failed = sum(1 for r in result["ops"] if r["errors"])
    stamp = env_stamp(root, args.workload, args.seed)

    print(row(args.workload, metrics, units, extras, bool(args.trace)))
    print("env " + json.dumps(stamp))
    for line in failures:
        print(f"FAILED {line}", file=sys.stderr)
    with open(os.path.join(RUNS_DIR, f"result-{tag}.json"), "w") as fh:
        json.dump({"env": stamp, "metrics": metrics, "end_to_end": e2e,
                   "extras": extras, "ops": result["ops"]}, fh, indent=1)
    print(json.dumps({"correct": failed == 0, "attempted": len(result["ops"]),
                      "failed": failed,
                      "metrics": {name: {"value": value, "unit": units[name]}
                                  for name, value in metrics.items()}}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
