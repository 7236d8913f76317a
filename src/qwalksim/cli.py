"""Command-line front end: single runs, parameter sweeps, amplitude traces,
and canned figure-data scripts.

Distribution files are deterministic for a fixed configuration (byte
identical on re-run); volatile information such as wall time and the
library versions goes to a sibling ``<output>.meta.json`` record that also
echoes the full configuration, so any output can be regenerated from its
metadata alone.
Files are written atomically (temp file then rename).

``walk`` and ``sweep`` read a ``--config`` JSON object of ``WalkConfig``
fields as ``--field=value`` flags ahead of the command line's, through the
same parser, so explicit flags win. ``WalkConfig.validate`` keeps only what a
parser cannot state: ranges, required fields and cross-field rules.

Exit codes: 0 success, 2 invalid configuration (the message names the
offending field), 3 numeric invariant failure during the run.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import platform
import sys
import tempfile
import time

import numpy as np
import scipy

from . import __version__, classical, coined, continuous, decoherence, stats
from .errors import BoundaryOverflowError, ConfigError, InvariantViolationError
from .graphs import (GLUE_MODES, Graph, GlueSpec, build_cycle, build_glued_trees,
                     build_hypercube, build_line, check_line_headroom)

WALK_KINDS = ("coined", "continuous", "classical")
GRAPH_KINDS = ("line", "cycle", "hypercube", "glued-trees")
OUTPUT_FORMATS = ("csv", "json")
SWEEPABLE_AXES = ("p", "steps", "num-positions", "n", "depth", "dimension", "gamma")

FIG_DECOHERENCE_SWEEP = (0.0, 0.003, 0.01, 0.03, 0.1)
GLUED_TREES_ENTRANCE = 0  # the vertex build_glued_trees gives the entrance root
# A graph of more half-edges is refused before it is built. The limit admits
# hypercube(17) and glued trees of depth 18; a 1-step walk on a line at the
# limit peaks at 395 MB (classical) and 718 MB (coined), one BLAS thread.
MAX_HALF_EDGES = 1 << 22


@dataclasses.dataclass
class WalkConfig:
    """Everything one run needs; validation happens before any computation."""

    walk: str = "coined"
    graph: str = "line"
    num_positions: int | None = None
    n: int | None = None
    dimension: int | None = None
    depth: int | None = None
    glue_mode: str = "symmetric"
    glue_seed: int | None = None
    start: int | None = None
    steps: int | None = None
    time: float | None = None
    coin: str = "default"
    initial: str = "basis0"
    p: float = 0.0
    target: str = "both"
    trajectories: int | None = None
    gamma: float = 1.0
    convention: str = "laplacian"
    seed: int | None = None
    output: str | None = None
    format: str = "csv"
    exit_series: str | None = None

    def validate(self) -> None:
        """Ranges, required fields and cross-field rules; the parser checks choices."""
        for field, seed in (("seed", self.seed), ("glue-seed", self.glue_seed)):
            if seed is not None and seed < 0:
                raise ConfigError(field, f"must be a non-negative integer, got {seed}")
        # each graph's size field and half-edge count; exponents stop at 64,
        # far past the limit, so a huge dimension or depth makes no huge int
        if self.graph == "line":
            npos = self._line_size()
            if npos is None or npos < 1 or npos % 2 == 0:
                raise ConfigError("num-positions", "line needs a positive odd size")
            field = "steps" if self.num_positions is None else "num-positions"
            half_edges = 2 * npos - 2
        elif self.graph == "cycle":
            if self.n is None or self.n < 3:
                raise ConfigError("n", "cycle needs n >= 3")
            field, half_edges = "n", 2 * self.n
        elif self.graph == "hypercube":
            if self.dimension is None or self.dimension < 1:
                raise ConfigError("dimension", "hypercube needs dimension >= 1")
            field, half_edges = "dimension", self.dimension << min(self.dimension, 64)
        else:
            if self.depth is None or self.depth < 1:
                raise ConfigError("depth", "glued-trees needs depth >= 1")
            if self.glue_mode == "random-cycle" and self.glue_seed is None:
                raise ConfigError("glue-seed", "random-cycle glue requires a seed")
            # two trees of 2 * leaves - 2 edges, and one or two glue edges a leaf
            leaves = 1 << min(self.depth, 64)
            glue = leaves if self.glue_mode == "symmetric" else 2 * leaves
            field, half_edges = "depth", 2 * (4 * leaves - 4 + glue)
        if half_edges > MAX_HALF_EDGES:
            raise ConfigError(field, f"the {self.graph} graph would have {half_edges} "
                                     f"half-edges, above the limit {MAX_HALF_EDGES}")

        if self.walk == "continuous":
            if self.time is None or not (math.isfinite(self.time) and self.time >= 0):
                raise ConfigError("time", "continuous walk needs a finite time >= 0")
            if not (math.isfinite(self.gamma) and self.gamma > 0):
                raise ConfigError("gamma", "hopping rate must be finite and > 0")
        else:
            if self.steps is None or self.steps < 0:
                raise ConfigError("steps", f"{self.walk} walk needs steps >= 0")
            if self.graph == "line":
                start = self.start_vertex(npos)
                try:
                    check_line_headroom("line", npos, [start], self.steps)
                except BoundaryOverflowError as exc:
                    raise ConfigError("num-positions", str(exc)) from None

        if self.walk == "coined":
            if not 0.0 <= self.p <= 1.0:
                raise ConfigError("p", "measurement probability must be in [0, 1]")
            if self.trajectories is not None:
                if self.trajectories < 1:
                    raise ConfigError("trajectories", "must be >= 1")
                if self.seed is None:
                    raise ConfigError("seed", "trajectory mode requires a seed")
            parse_initial_coin(self.initial)
        # only a coined walk reads them: refuse them elsewhere rather than echo
        # them into the metadata of a run they never touched
        elif self.trajectories is not None:
            raise ConfigError("trajectories", f"a {self.walk} walk never reads trajectories")
        elif self.p != 0.0:
            raise ConfigError("p", f"a {self.walk} walk never reads p")
        if self.exit_series is not None and not (
                self.walk == "continuous" and self.graph == "glued-trees"
                and self.start in (None, GLUED_TREES_ENTRANCE)):
            raise ConfigError("exit-series", "only for the continuous glued-trees walk "
                              f"from the entrance, vertex {GLUED_TREES_ENTRANCE}")

    def _line_size(self) -> int | None:
        """Positions of the line; a stepped walk defaults to 2*max(steps, 1)+1,
        so even a zero-step walk starts at a vertex with two neighbors."""
        if self.num_positions is None and self.walk != "continuous":
            return 2 * max(self.steps or 0, 1) + 1
        return self.num_positions

    def build_graph(self) -> Graph:
        if self.graph == "line":
            return build_line(self._line_size())
        if self.graph == "cycle":
            return build_cycle(self.n)
        if self.graph == "hypercube":
            return build_hypercube(self.dimension)
        return build_glued_trees(self.depth, GlueSpec(self.glue_mode, self.glue_seed))

    def start_vertex(self, num_vertices: int) -> int:
        """``--start``, or a line's origin and vertex 0 elsewhere; a refusal names ``start``."""
        if self.start is None:
            return (num_vertices - 1) // 2 if self.graph == "line" else 0
        if not 0 <= self.start < num_vertices:
            raise ConfigError("start", f"vertex {self.start} out of range [0, {num_vertices})")
        return self.start


def parse_initial_coin(text: str) -> str | list[complex]:
    """An ``--initial`` value parsed for ``coined.initial_state``: a preset
    name or comma-separated complex amplitudes."""
    if text in coined.INITIAL_COIN_PRESETS:
        return text
    try:
        return [complex(part) for part in text.split(",")]
    except ValueError:
        raise ConfigError(
            "initial",
            f"must be a preset {coined.INITIAL_COIN_PRESETS} or "
            "comma-separated complex amplitudes") from None


def start_state(graph: Graph, start: int, text: str) -> coined.PureState:
    """``coined.initial_state`` from an ``--initial`` value; a refusal names ``initial``."""
    coin = parse_initial_coin(text)
    try:
        return coined.initial_state(graph, start, coin)
    except ValueError as exc:
        raise ConfigError("initial", str(exc)) from None


def run_walk(cfg: WalkConfig) -> tuple[stats.Distribution, dict]:
    """Execute one configured walk; returns the distribution and a summary."""
    graph = cfg.build_graph()
    start = cfg.start_vertex(graph.num_vertices)
    summary: dict = {}

    if cfg.walk == "classical":
        dist = stats.position_distribution(
            classical.evolve_classical_exact(graph, start, cfg.steps))
    elif cfg.walk == "continuous":
        probs, summary["continuous_check"], chain = continuous.walk_distribution(
            graph, start, cfg.time, cfg.gamma, cfg.convention)
        dist = stats.Distribution(probs, graph.coordinates)
        if chain is not None:  # from the glued-trees entrance: the exit column's series
            exit_column = chain.dimension - 1
            summary["exit_peak_time"], summary["exit_peak_height"] = \
                continuous.first_peak_time(*continuous.transfer_series(
                    chain, 0, exit_column, max(cfg.time, 4.0 * cfg.depth)))
            if cfg.exit_series is not None:  # its last row is the exit vertex's probability
                atomic_write(cfg.exit_series, continuous.exit_series_csv(
                    *continuous.transfer_series(chain, 0, exit_column, cfg.time)))
    else:
        state = start_state(graph, start, cfg.initial)
        if cfg.p == 0.0:
            final = coined.CoinedWalk(graph, cfg.coin).evolve(state, cfg.steps)
            summary["pure_check"] = {"norm_deviation": abs(final.norm() - 1.0)}
            dist = stats.position_distribution(final)
        elif cfg.trajectories is not None:
            spec = decoherence.DecoherenceSpec(cfg.p, cfg.target)
            mean, stderr = decoherence.run_ensemble(
                state, spec, cfg.steps, cfg.trajectories, cfg.seed, cfg.coin)
            dist = stats.Distribution(mean, graph.coordinates)
            summary["ensemble_max_stderr"] = float(stderr.max())
        else:
            spec = decoherence.DecoherenceSpec(cfg.p, cfg.target)
            rho = decoherence.evolve_density(
                decoherence.to_density(state), spec, cfg.steps, cfg.coin)
            summary["density_check"] = rho.check()
            dist = stats.position_distribution(rho)

    summary["probability_sum"] = float(dist.probabilities.sum())
    summary["tv_to_uniform"] = stats.total_variation(
        dist.probabilities, np.full(len(dist), 1.0 / len(dist)))
    # moments and windows need coordinates, not the vertex numbering
    if dist.coordinates is not None:
        summary["std_dev"] = stats.std_dev(dist)
        summary["flatness_tv"] = stats.flatness_tv(dist)
    return dist, summary


def format_distribution_csv(dist: stats.Distribution) -> str:
    """Shared CSV schema: x,probability with coordinates, vertex,probability else.

    One row per support point, 15 significant digits.
    """
    support = np.flatnonzero(dist.probabilities > 0.0)
    if dist.coordinates is not None:
        header = "x,probability\n"
        labels = [f"{x:.15g}" for x in dist.coordinates[support].tolist()]
    else:
        header, labels = "vertex,probability\n", support.tolist()
    rows = (f"{label},{p:.15g}\n"
            for label, p in zip(labels, dist.probabilities[support].tolist()))
    return "".join([header, *rows])


def format_distribution_json(dist: stats.Distribution, metadata: dict) -> str:
    positional = dist.coordinates is not None
    key = "x" if positional else "vertex"
    support = np.flatnonzero(dist.probabilities > 0.0)
    points = [
        {key: float(dist.coordinates[i]) if positional else int(i),
         "probability": float(f"{dist.probabilities[i]:.15g}")}
        for i in support
    ]
    return json.dumps({"metadata": metadata, "points": points}, indent=2,
                      sort_keys=True) + "\n"


def atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".qwalksim-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def config_metadata(cfg: WalkConfig) -> dict:
    """Deterministic configuration echo sufficient to re-run the computation."""
    fields = dataclasses.asdict(cfg)
    fields.pop("output")
    fields.pop("exit_series")
    return {"config": fields, "version": __version__}


def environment_metadata() -> dict:
    """The interpreter, numpy and scipy versions, the BLAS library and its
    threads, and the SIMD targets of numpy's complex loops.

    Stream bits follow numpy's ``SeedSequence`` and PCG64 algorithms, which
    ``streams`` reproduces, and the BLAS library, its threading and numpy's
    SIMD dispatch can move float bits, so a run records them all. The BLAS
    name and version come from ``numpy.__config__.CONFIG``, null where numpy
    does not give them.
    """
    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    env = {"python": platform.python_version(), "numpy": np.__version__,
           "scipy": scipy.__version__, "blas": blas.get("name"),
           "blas_version": blas.get("version"), "numpy_dispatch": numpy_dispatch()}
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = os.environ.get(name)
    return env


@functools.cache
def numpy_dispatch() -> dict | None:
    """The SIMD target numpy runs its complex128 ``multiply`` and ``absolute``
    loops on, null before numpy 2.0; looked up once a process (about 0.4 ms)."""
    try:
        from numpy.lib.introspect import opt_func_info
    except ImportError:
        return None
    loops = opt_func_info("^(multiply|absolute)$", "^complex128$")
    return {name: next(iter(sigs.values()))["current"] for name, sigs in loops.items()}


def write_outputs(cfg: WalkConfig, dist: stats.Distribution, summary: dict,
                  wall_time: float) -> None:
    metadata = config_metadata(cfg)
    if cfg.format == "csv":
        text = format_distribution_csv(dist)
    else:
        text = format_distribution_json(dist, metadata)
    atomic_write(cfg.output, text)
    meta = dict(metadata)
    meta["summary"] = summary
    meta["environment"] = environment_metadata()
    meta["wall_time_seconds"] = wall_time
    atomic_write(cfg.output + ".meta.json", json.dumps(meta, indent=2, sort_keys=True) + "\n")


def timed_run(cfg: WalkConfig) -> tuple[stats.Distribution, dict, float]:
    """``run_walk`` of one validated configuration, and its wall time."""
    started = time.perf_counter()
    dist, summary = run_walk(cfg)
    return dist, summary, time.perf_counter() - started


def run_and_write(cfg: WalkConfig) -> dict:
    """Run one validated configuration, write its files and return its summary."""
    dist, summary, wall_time = timed_run(cfg)
    write_outputs(cfg, dist, summary, wall_time)
    return summary


CONFIG_FIELD_NAMES = {f.name for f in dataclasses.fields(WalkConfig)}


def config_file_flags(path: str, args: argparse.Namespace) -> list[str]:
    """The ``--field=value`` flags of a ``--config`` JSON object: each key a
    ``WalkConfig`` field with a flag under ``args.command``; null means unset."""
    try:
        with open(path) as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ConfigError("config", f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError("config", f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config", f"{path} must hold a JSON object")
    flags = []
    for key, value in data.items():
        if key not in CONFIG_FIELD_NAMES or not hasattr(args, key):
            raise ConfigError("config", f"unknown key {key!r} for {args.command} in {path}")
        if isinstance(value, (bool, list, dict)):
            raise ConfigError("config", f"{key!r} in {path} must be a string or a number")
        if value is not None:
            flags.append(f"--{key.replace('_', '-')}={value}")
    return flags


def add_walk_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="FILE",
                        help="JSON object of WalkConfig fields, read as flags; flags win")
    parser.add_argument("--walk", choices=WALK_KINDS, help="walk family")
    parser.add_argument("--graph", choices=GRAPH_KINDS, help="position space")
    parser.add_argument("--num-positions", type=int, dest="num_positions",
                        help="line size (odd; default 2*steps+1)")
    parser.add_argument("--n", type=int, help="cycle size")
    parser.add_argument("--dimension", type=int, help="hypercube dimension")
    parser.add_argument("--depth", type=int, help="glued-trees depth")
    parser.add_argument("--glue-mode", dest="glue_mode", choices=GLUE_MODES,
                        help="how glued-trees leaf layers are joined")
    parser.add_argument("--glue-seed", type=int, dest="glue_seed",
                        help="seed for the random-cycle glue")
    parser.add_argument("--start", type=int, help="start vertex (default: line origin)")
    parser.add_argument("--steps", type=int, help="number of discrete steps")
    parser.add_argument("--time", type=float, help="continuous evolution time")
    parser.add_argument("--coin", choices=coined.COIN_FAMILIES, help="coin family")
    parser.add_argument("--initial",
                        help="initial coin: preset basis0/symmetric/uniform or "
                             "comma-separated complex amplitudes")
    parser.add_argument("--p", type=float, help="measurement probability per step")
    parser.add_argument("--target", choices=decoherence.MEASUREMENT_TARGETS,
                        help="which register the measurement hits")
    parser.add_argument("--trajectories", type=int,
                        help="sample this many Monte-Carlo trajectories instead "
                             "of exact density evolution")
    parser.add_argument("--gamma", type=float, help="continuous hopping rate")
    parser.add_argument("--convention", choices=continuous.HAMILTONIAN_CONVENTIONS,
                        help="continuous Hamiltonian convention")
    parser.add_argument("--seed", type=int, help="base random seed")
    parser.add_argument("--format", choices=OUTPUT_FORMATS, help="output format")
    parser.add_argument("--exit-series", dest="exit_series", metavar="FILE",
                        help="also write time,exit_probability CSV "
                             "(continuous glued-trees walk from the entrance only)")


def config_from_args(args: argparse.Namespace) -> WalkConfig:
    return WalkConfig(**{name: getattr(args, name) for name in CONFIG_FIELD_NAMES
                         if getattr(args, name, None) is not None})


def cmd_walk(args: argparse.Namespace) -> int:
    cfg = config_from_args(args)
    if cfg.output is None:
        raise ConfigError("output", "an output path is required")
    cfg.validate()
    summary = run_and_write(cfg)
    print(f"wrote {cfg.output} " + " ".join(
        f"{k}={v:.6g}" for k, v in sorted(summary.items()) if isinstance(v, float)))
    return 0


def parse_sweep_values(axis: str, raw: str) -> list:
    parts = [part.strip() for part in raw.split(",") if part.strip()]
    if not parts:
        raise ConfigError("values", "sweep needs at least one value")
    caster = float if axis in ("p", "gamma") else int
    try:
        return [caster(part) for part in parts]
    except ValueError as exc:
        raise ConfigError("values", f"cannot parse {axis} value: {exc}") from exc


def apply_axis(cfg: WalkConfig, axis: str, value, index: int) -> WalkConfig:
    field = axis.replace("-", "_")
    derived = dict(seed=cfg.seed + index if cfg.seed is not None else None)
    return dataclasses.replace(cfg, **{field: value}, **derived)


def run_sweep(base: WalkConfig, axis: str, values: list, outdir: str, prefix: str) -> None:
    """Run ``base`` once per value of ``axis`` and write every run plus a summary
    table; refuse an axis the walk never reads, or two values of one label.

    Every run finishes before any file is written, so a sweep that is
    refused or fails partway writes nothing.
    """
    if base.exit_series is not None:
        raise ConfigError("exit-series", "every run of a sweep would write the one file")
    if not {"p": base.walk == "coined", "steps": base.walk != "continuous",
            "gamma": base.walk == "continuous", "num-positions": base.graph == "line",
            "n": base.graph == "cycle", "dimension": base.graph == "hypercube",
            "depth": base.graph == "glued-trees"}[axis]:
        raise ConfigError("axis", f"a {base.walk} walk on the {base.graph} never reads {axis}")
    labels = [f"{value:g}" for value in values]  # they name the files and summary rows
    repeated = sorted({label for label in labels if labels.count(label) > 1})
    if repeated:
        raise ConfigError("values", f"{', '.join(repeated)} would label more than one run")
    runs: list[WalkConfig] = []
    for i, (value, label) in enumerate(zip(values, labels)):
        cfg = apply_axis(base, axis, value, i)
        cfg.output = os.path.join(outdir, f"{prefix}{axis}={label}.{cfg.format}")
        cfg.validate()
        runs.append(cfg)

    started = time.perf_counter()
    results = [timed_run(cfg) for cfg in runs]
    for cfg, result in zip(runs, results):
        write_outputs(cfg, *result)
    summaries = [summary for _, summary, _ in results]

    known_columns = ["std_dev", "tv_to_uniform", "flatness_tv", "exit_peak_time",
                     "exit_peak_height"]
    columns = [c for c in known_columns if any(c in s for s in summaries)]
    lines = [",".join([axis] + columns)]
    for label, summary in zip(labels, summaries):
        cells = [label]
        cells += [f"{summary[c]:.15g}" if c in summary else "" for c in columns]
        lines.append(",".join(cells))
    summary_path = os.path.join(outdir, f"{prefix}summary.csv")
    atomic_write(summary_path, "\n".join(lines) + "\n")
    meta = config_metadata(base)
    meta["axis"] = axis
    meta["values"] = values
    meta["environment"] = environment_metadata()
    meta["wall_time_seconds"] = time.perf_counter() - started
    atomic_write(summary_path + ".meta.json",
                 json.dumps(meta, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(runs)} runs and {summary_path}")


def cmd_sweep(args: argparse.Namespace) -> int:
    base = config_from_args(args)
    values = parse_sweep_values(args.axis, args.values)
    run_sweep(base, args.axis, values, args.output_dir, args.prefix)
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    steps = args.steps
    # one vertex of padding keeps the outermost reached sites interior, so
    # every row carries the two-direction coin labels
    graph = build_line(2 * max(steps, 1) + 3)
    origin = graph.params["origin"]
    state = start_state(graph, origin, args.initial)
    walk = coined.CoinedWalk(graph, args.coin)
    lines = ["step,x,coin,amplitude_re,amplitude_im"]

    def emit(step_index: int, s: coined.PureState) -> None:
        for k in np.flatnonzero(np.abs(s.amplitudes) > 1e-14):
            v = int(graph.half_edge_vertex[k])
            c = k - graph.offsets[v]
            x = int(graph.coordinates[v])
            a = s.amplitudes[k]
            lines.append(f"{step_index},{x},{c},{a.real:.15g},{a.imag:.15g}")

    emit(0, state)
    for t, s in enumerate(walk.iter_steps(state, steps), start=1):
        emit(t, s)
    text = "\n".join(lines) + "\n"
    if args.output:
        atomic_write(args.output, text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_figures(args: argparse.Namespace) -> int:
    outdir = args.outdir
    steps = 100
    made = []

    # spreading profiles on the line after 100 steps: both coin presets,
    # plus the classical binomial for contrast
    profile_configs = [
        WalkConfig(walk="coined", graph="line", steps=steps, initial=preset,
                   output=os.path.join(outdir, f"line_t{steps}_{preset}.csv"))
        for preset in ("basis0", "symmetric")
    ]
    profile_configs.append(
        WalkConfig(walk="classical", graph="line", steps=steps,
                   output=os.path.join(outdir, f"line_t{steps}_classical.csv")))
    for cfg in profile_configs:
        cfg.validate()
        run_and_write(cfg)
        made.append(cfg.output)

    # decoherence sweep at t=100: the flatness minimum sits at intermediate p
    base = WalkConfig(walk="coined", graph="line", steps=steps, initial="symmetric",
                      target="both")
    run_sweep(base, "p", list(FIG_DECOHERENCE_SWEEP), outdir, "decoherence_")
    made.append(os.path.join(outdir, "decoherence_summary.csv"))

    print("\n".join(made))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qwalksim",
        description="Quantum and classical walk simulator: coined walks with "
                    "tunable decoherence, continuous-time walks, and exact "
                    "classical baselines.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    walk = sub.add_parser("walk", help="run one walk and write its distribution")
    add_walk_arguments(walk)
    walk.add_argument("--output", "-o", help="distribution file path")
    walk.set_defaults(handler=cmd_walk)

    sweep = sub.add_parser("sweep", help="run one walk per value of a swept parameter")
    add_walk_arguments(sweep)
    sweep.add_argument("--axis", required=True, choices=SWEEPABLE_AXES,
                       help="parameter to sweep")
    sweep.add_argument("--values", required=True,
                       help="comma-separated values for the axis")
    sweep.add_argument("--output-dir", dest="output_dir", default=".",
                       help="directory for per-value files and the summary")
    sweep.add_argument("--prefix", default="sweep_", help="output file name prefix")
    sweep.set_defaults(handler=cmd_sweep)

    trace = sub.add_parser(
        "trace", help="print the step-by-step amplitude table of a short line walk")
    trace.add_argument("--steps", type=int, default=3, help="steps to trace")
    trace.add_argument("--coin", choices=coined.COIN_FAMILIES, default="default")
    trace.add_argument("--initial", default="basis0")
    trace.add_argument("--output", "-o", help="write the table here instead of stdout")
    trace.set_defaults(handler=cmd_trace)

    figures = sub.add_parser(
        "figures", help="emit the canned figure datasets (line profiles at "
                        "t=100 and the decoherence flatness sweep)")
    figures.add_argument("--outdir", default="figures_data")
    figures.set_defaults(handler=cmd_figures)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "config", None):
            # the file's flags go right after the subcommand, so explicit flags win
            at = argv.index(args.command) + 1
            args = parser.parse_args(
                argv[:at] + config_file_flags(args.config, args) + argv[at:])
        return args.handler(args)
    except ValueError as exc:
        print(f"error: invalid configuration: {exc}", file=sys.stderr)
        return 2
    except (InvariantViolationError, BoundaryOverflowError, ArithmeticError) as exc:
        print(f"error: numeric invariant failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
