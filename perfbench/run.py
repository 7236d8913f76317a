"""Benchmark of qwalksim: one workload per run, closed loop, one client.

    python3 perfbench/run.py --workload ensemble --seed 1 --seconds 20 --trace 0

Run it inside a checkout that holds ``src/qwalksim`` and ``BENCHMARK.json``.
``--trace 0`` measures with no instrumentation and prints every end-to-end
metric of BENCHMARK.json; ``--trace 1`` spends half its time untraced and
half with per-module spans installed, and prints every per-layer metric.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a readable report and a ``detail`` JSON line (environment, output
digests, failures). NOTES.md next to this file explains the workloads and
the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import LAYERS, Tracer

ROOT = Path(__file__).resolve().parent.parent

THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "QWALKSIM_THREADS")

# set-up is timed this many times, each in a fresh process (this one included)
SETUP_REPEATS = 3
# fewest passes timed per phase, whatever --seconds says
MIN_PASSES = 3
MIN_TRACE_PASSES = 2
# failure messages kept for the report per phase
KEPT_FAILURES = 5


def configure_environment() -> dict:
    """Pin BLAS to at most two threads and sweeps to one; return what was found.

    Runs before numpy is imported, in this process and in child set-ups.
    """
    found = {name: os.environ.get(name) for name in THREAD_VARIABLES}
    blas_threads = str(min(2, len(os.sched_getaffinity(0))))
    for name in THREAD_VARIABLES[:-1]:
        os.environ[name] = blas_threads
    os.environ.pop("QWALKSIM_THREADS", None)
    return found


def timed_setup(workload: str, seed: int, workdir: Path):
    """Import the program, build inputs and oracles, warm up.

    Returns the workload and the set-up time as measured and scaled to
    reference speed. Imports dominate set-up on every workload, so it is
    scaled by the interpreter kernel.
    """
    started = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import qwalksim
    if Path(qwalksim.__file__).resolve().parent != ROOT / "src" / "qwalksim":
        raise RuntimeError(f"imported qwalksim from {qwalksim.__file__}, not this checkout")
    import workloads
    wl = workloads.WORKLOADS[workload](seed, workdir)
    with contextlib.redirect_stdout(io.StringIO()):
        wl.setup()
    elapsed = time.perf_counter() - started
    from speed import SpeedProbe
    probe = SpeedProbe("interpreter")
    return wl, elapsed, elapsed * probe.scale(probe.kernel_s())


def child_setup(workload: str, seed: int) -> tuple[float, float]:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=150, cwd=ROOT, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result["measured_s"], result["setup_s"]


class Passes:
    """Timings and outcomes of the passes of one phase."""

    def __init__(self):
        self.op_s: list[float] = []
        self.pass_s: list[float] = []
        # per pass: nominal kernel time / kernel time around the pass
        self.scale: list[float] = []
        self.work: dict[str, float] = {}
        self.work_s: dict[str, float] = {}
        self.attempted = self.failed = self.wrong = 0
        self.failures: list[str] = []

    def note(self, message: str) -> None:
        if len(self.failures) < KEPT_FAILURES:
            self.failures.append(message)

    def scaled(self, times: list[float]) -> list[float]:
        return [t * s for t, s in zip(times, self.scale)]


def run_pass(wl, index: int, passes: Passes) -> None:
    """One op: each part timed on its own and its failure caught, then checked."""
    from workloads import CheckFailed
    pass_started = time.perf_counter()
    op_s = 0.0
    for part in wl.parts:
        passes.attempted += 1
        started = time.perf_counter()
        try:
            result = part.run(index)
        except Exception as exc:
            op_s += time.perf_counter() - started
            passes.failed += 1
            passes.note(f"pass {index} {part.name}: raised {type(exc).__name__}: {exc}")
            continue
        elapsed = time.perf_counter() - started
        op_s += elapsed
        try:
            part.check(index, result)
        except Exception as exc:
            passes.failed += 1
            passes.wrong += 1
            kind = "" if isinstance(exc, CheckFailed) else f"{type(exc).__name__}: "
            passes.note(f"pass {index} {part.name}: wrong output: {kind}{exc}")
            continue
        for name, amount in part.work(result).items():
            passes.work[name] = passes.work.get(name, 0) + amount
            passes.work_s[name] = passes.work_s.get(name, 0.0) + elapsed
    passes.op_s.append(op_s)
    passes.pass_s.append(time.perf_counter() - pass_started)


def run_phase(wl, probe, first_index: int, seconds: float, min_passes: int) -> Passes:
    """Closed loop: start another pass while the median pass still fits.

    The speed kernel runs before the first pass and after every pass, so
    each pass is scaled by the mean of the kernel times on either side.
    """
    passes = Passes()
    started = time.perf_counter()
    before = probe.kernel_s()
    with contextlib.redirect_stdout(io.StringIO()):
        while True:
            run_pass(wl, first_index + len(passes.op_s), passes)
            after = probe.kernel_s()
            passes.scale.append(probe.scale((before + after) / 2))
            before = after
            elapsed = time.perf_counter() - started
            if (len(passes.op_s) >= min_passes
                    and elapsed + statistics.median(passes.pass_s) > seconds):
                return passes


def tail(samples: list[float]):
    """Highest percentile with at least ten samples beyond it, as (value, percentile)."""
    n = len(samples)
    if n < 11:
        return None
    return sorted(samples)[n - 11], 100.0 * (n - 10) / n


def environment(found_threads: dict) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "thread_env_found": found_threads,
        "thread_env_used": {name: os.environ.get(name) for name in THREAD_VARIABLES},
    }


def end_to_end(passes: Passes, setups: list[tuple[float, float]]) -> dict:
    """Every end-to-end number by name, as (value, unit, note).

    Times are at reference speed (see speed.py); the note gives the time
    as measured.
    """
    n = len(passes.op_s)
    op_ms = [1e3 * t for t in passes.scaled(passes.op_s)]
    out = {
        "setup_s": (statistics.median(s for _, s in setups), "s",
                    f"median of {len(setups)} fresh set-ups; measured "
                    + ", ".join(f"{m:.3f}" for m, _ in setups) + " s"),
        "wall_s": (statistics.median(passes.scaled(passes.pass_s)), "s",
                   f"median pass (op and its checks), n={n}; measured "
                   f"{statistics.median(passes.pass_s):.4g} s"),
        "op_p50_ms": (statistics.median(op_ms), "ms",
                      f"n={n}; measured {1e3 * statistics.median(passes.op_s):.4g} ms"),
    }
    tail_value = tail(op_ms)
    if tail_value is None:
        out["op_tail_ms"] = (None, "ms", f"n/a: needs at least 11 ops, have {n}")
    else:
        out["op_tail_ms"] = (tail_value[0], "ms",
                             f"p{tail_value[1]:.1f}, n={n}, 10 beyond; measured "
                             f"{1e3 * tail(passes.op_s)[0]:.4g} ms")
    out["failed_frac"] = (passes.failed / passes.attempted, "ratio",
                          f"{passes.failed} of {passes.attempted} calls")
    out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB",
                          "this process")
    for name in ("trajectory_steps", "walk_steps", "density_steps", "cli_runs",
                 "mixing_steps"):
        if name in passes.work:
            out[f"{name}_per_s"] = (passes.work[name] / passes.work_s[name], "1/s",
                                    f"measured, {passes.work[name]:.0f} in "
                                    f"{passes.work_s[name]:.3f} s")
    out["speed_scale"] = (statistics.median(passes.scale), "ratio",
                          "median nominal/kernel time; below 1 means a slow machine")
    return out


def traced_metrics(wl, probe, seconds: float, untraced: Passes) -> tuple[dict, Passes]:
    """Install spans, re-run set-up and then the passes, and derive layer metrics."""
    tracer = Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            wl.setup()
        setup_graphs = (tracer.self_s("graphs"), tracer.calls("graphs"))
        tracer.begin()
        traced = run_phase(wl, probe, len(untraced.op_s), seconds, MIN_TRACE_PASSES)
    finally:
        tracer.uninstall()
    tracer.ops = len(traced.op_s)
    scale = statistics.median(traced.scale)
    metrics = {name: value * scale if name.endswith("_s") else value
               for name, value in tracer.layer_metrics().items()}
    metrics["graphs.setup_self_s"] = setup_graphs[0] * scale
    metrics["graphs.setup_calls"] = setup_graphs[1]
    traced_ref = statistics.median(traced.scaled(traced.op_s))
    metrics["trace_overhead_frac"] = (
        traced_ref / statistics.median(untraced.scaled(untraced.op_s)) - 1.0)
    layer_self = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
    metrics["trace.unattributed_frac"] = 1.0 - layer_self / (scale * statistics.mean(traced.op_s))
    metrics["trace.op_p50_ms"] = 1e3 * traced_ref
    return metrics, traced


def unit_of(name: str) -> str:
    """Unit of a per-layer metric; layer numbers are per traced op."""
    if ".setup_" in name:
        return "s" if name.endswith("_s") else "count"
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s/op"
    if name.endswith("bytes_written"):
        return "B/op"
    return "count/op"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up and print it (for the set-up median)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qwalksim" / "__init__.py").is_file():
        print(f"error: no qwalksim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"error: workload must be one of {names}", file=sys.stderr)
        return 2
    found_threads = configure_environment()

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        wl, measured, scaled = timed_setup(args.workload, args.seed, workdir)
        if args.setup_only:
            print(json.dumps({"measured_s": measured, "setup_s": scaled}))
            return 0
        setups = [(measured, scaled)]
        if not args.trace:
            setups += [child_setup(args.workload, args.seed)
                       for _ in range(SETUP_REPEATS - 1)]
        from speed import SpeedProbe
        probe = SpeedProbe(wl.speed_kernel)
        budget = args.seconds / 2 if args.trace else args.seconds
        untraced = run_phase(wl, probe, 0, budget,
                             MIN_TRACE_PASSES if args.trace else MIN_PASSES)
        phases = [untraced]
        if args.trace:
            layer, traced = traced_metrics(wl, probe, budget, untraced)
            phases.append(traced)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    e2e = end_to_end(untraced, setups)
    print(f"workload {args.workload} seed {args.seed}: closed loop, 1 client, 1 process, "
          f"BLAS threads {os.environ['OPENBLAS_NUM_THREADS']}, "
          f"{'traced' if args.trace else 'untraced'}; times at reference speed "
          f"({wl.speed_kernel} kernel)")
    for name, (value, unit, note) in e2e.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<24} {shown:>12} {unit:<6} {note}")
    if args.trace:
        print("  per traced op:")
        for name, value in layer.items():
            print(f"  {name:<32} {value:>14.6g} {unit_of(name)}")
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    wrong = sum(p.wrong for p in phases)
    detail = {"environment": environment(found_threads), "output_sha256": wl.digests,
              "failures": [m for p in phases for m in p.failures]}
    print("detail " + json.dumps(detail, sort_keys=True))

    if args.trace:
        wanted, values = spec["per_layer"], layer
    else:
        wanted = spec["end_to_end"]
        values = {name: value for name, (value, _, _) in e2e.items()}
    metrics = {}
    for entry in wanted:
        if values.get(entry["name"]) is None:
            print(f"error: metric {entry['name']} was not measured", file=sys.stderr)
            return 1
        metrics[entry["name"]] = {"value": float(values[entry["name"]]), "unit": entry["unit"]}
    print(json.dumps({"correct": wrong == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
