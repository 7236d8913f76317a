"""Command-line front end: single runs, parameter sweeps, amplitude traces,
and canned figure-data scripts.

Distribution files are deterministic for a fixed configuration (byte
identical on re-run); volatile information such as wall time goes to a
sibling ``<output>.meta.json`` record that also echoes the full
configuration, so any output can be regenerated from its metadata alone.
Files are written atomically (temp file then rename).

Exit codes: 0 success, 2 invalid configuration (the message names the
offending field), 3 numeric invariant failure during the run.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import dataclasses
import json
import os
import sys
import tempfile
import time

import numpy as np

from . import __version__, classical, coined, continuous, decoherence, stats
from .errors import (BoundaryOverflowError, ConfigError, InvariantViolationError,
                     MissingSeedError)
from .graphs import (Graph, GlueSpec, build_cycle, build_glued_trees, build_hypercube,
                     build_line, check_line_headroom)

THREADS_ENV_VAR = "QWALKSIM_THREADS"

WALK_KINDS = ("coined", "continuous", "classical")
GRAPH_KINDS = ("line", "cycle", "hypercube", "glued-trees")
OUTPUT_FORMATS = ("csv", "json")
SWEEPABLE_AXES = ("p", "steps", "num-positions", "n", "depth", "dimension", "gamma")

FIG_DECOHERENCE_SWEEP = (0.0, 0.003, 0.01, 0.03, 0.1)


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
        if self.walk not in WALK_KINDS:
            raise ConfigError("walk", f"must be one of {WALK_KINDS}, got {self.walk!r}")
        if self.graph not in GRAPH_KINDS:
            raise ConfigError("graph", f"must be one of {GRAPH_KINDS}, got {self.graph!r}")
        if self.format not in OUTPUT_FORMATS:
            raise ConfigError("format", f"must be one of {OUTPUT_FORMATS}")

        if self.graph == "line":
            npos = self._line_size()
            if npos is None or npos < 1 or npos % 2 == 0:
                raise ConfigError("num-positions", "line needs a positive odd size")
        elif self.graph == "cycle":
            if self.n is None or self.n < 3:
                raise ConfigError("n", "cycle needs n >= 3")
        elif self.graph == "hypercube":
            if self.dimension is None or self.dimension < 1:
                raise ConfigError("dimension", "hypercube needs dimension >= 1")
        else:
            if self.depth is None or self.depth < 1:
                raise ConfigError("depth", "glued-trees needs depth >= 1")
            if self.glue_mode not in ("symmetric", "random-cycle"):
                raise ConfigError("glue-mode", "must be symmetric or random-cycle")
            if self.glue_mode == "random-cycle" and self.glue_seed is None:
                raise ConfigError("glue-seed", "random-cycle glue requires a seed")

        if self.walk == "continuous":
            if self.time is None or self.time < 0:
                raise ConfigError("time", "continuous walk needs time >= 0")
            if self.gamma <= 0:
                raise ConfigError("gamma", "hopping rate must be > 0")
            if self.convention not in ("laplacian", "adjacency"):
                raise ConfigError("convention", "must be laplacian or adjacency")
        else:
            if self.steps is None or self.steps < 0:
                raise ConfigError("steps", f"{self.walk} walk needs steps >= 0")
            if self.graph == "line":
                start = self.start if self.start is not None else (npos - 1) // 2
                if not 0 <= start < npos:
                    raise ConfigError(
                        "start", f"vertex {start} out of range for {npos} positions")
                try:
                    check_line_headroom("line", npos, [start], self.steps)
                except BoundaryOverflowError as exc:
                    raise ConfigError("num-positions", str(exc)) from None

        if self.walk == "coined":
            if self.coin not in coined.COIN_FAMILIES:
                raise ConfigError("coin", f"must be one of {coined.COIN_FAMILIES}")
            if not 0.0 <= self.p <= 1.0:
                raise ConfigError("p", "measurement probability must be in [0, 1]")
            if self.target not in decoherence.MEASUREMENT_TARGETS:
                raise ConfigError(
                    "target", f"must be one of {decoherence.MEASUREMENT_TARGETS}")
            if self.trajectories is not None:
                if self.trajectories < 1:
                    raise ConfigError("trajectories", "must be >= 1")
                if self.seed is None:
                    raise ConfigError("seed", "trajectory mode requires a seed")
            if (not self.initial.replace("-", "").isalnum()
                    and "," not in self.initial
                    and self.initial not in coined.INITIAL_COIN_PRESETS):
                raise ConfigError("initial", "unknown coin preset")
        if self.exit_series is not None and not (
                self.walk == "continuous" and self.graph == "glued-trees"):
            raise ConfigError(
                "exit-series", "only available for the continuous glued-trees walk")

    def _line_size(self) -> int | None:
        """Positions of the line; a stepped walk defaults to 2*steps+1."""
        if self.num_positions is None and self.walk != "continuous":
            return 2 * (self.steps or 0) + 1
        return self.num_positions

    def build_graph(self) -> Graph:
        if self.graph == "line":
            return build_line(self._line_size())
        if self.graph == "cycle":
            return build_cycle(self.n)
        if self.graph == "hypercube":
            return build_hypercube(self.dimension)
        return build_glued_trees(self.depth, GlueSpec(self.glue_mode, self.glue_seed))

    def start_vertex(self, graph: Graph) -> int:
        if self.start is not None:
            if not 0 <= self.start < graph.num_vertices:
                raise ConfigError("start", f"vertex {self.start} out of range")
            return self.start
        if graph.kind == "line":
            return graph.params["origin"]
        return 0

    def initial_coin(self, graph: Graph, start: int):
        if self.initial in coined.INITIAL_COIN_PRESETS:
            return self.initial
        try:
            parts = [complex(part) for part in self.initial.split(",")]
        except ValueError:
            raise ConfigError(
                "initial",
                f"must be a preset {coined.INITIAL_COIN_PRESETS} or "
                "comma-separated complex amplitudes") from None
        vec = np.array(parts, dtype=np.complex128)
        if vec.shape != (graph.degree(start),):
            raise ConfigError(
                "initial",
                f"needs {graph.degree(start)} amplitudes at vertex {start}, "
                f"got {len(vec)}")
        if not np.isclose(np.linalg.norm(vec), 1.0):
            raise ConfigError("initial", "amplitudes must form a unit vector")
        return vec


def run_walk(cfg: WalkConfig) -> tuple[stats.Distribution, dict]:
    """Execute one configured walk; returns the distribution and a summary."""
    graph = cfg.build_graph()
    start = cfg.start_vertex(graph)
    summary: dict = {}

    if cfg.walk == "classical":
        dist = stats.position_distribution(
            classical.evolve_classical_exact(graph, start, cfg.steps))
    elif cfg.walk == "continuous":
        h = continuous.hamiltonian(graph, cfg.gamma, cfg.convention)
        initial = np.zeros(graph.num_vertices, dtype=np.complex128)
        initial[start] = 1.0
        amps = continuous.evolve_ct(h, initial, cfg.time)
        dist = stats.Distribution(np.abs(amps) ** 2, graph.coordinates)
        if cfg.exit_series is not None:
            times, values = continuous.exit_signal(
                cfg.depth, GlueSpec(cfg.glue_mode, cfg.glue_seed), cfg.gamma,
                t_max=cfg.time, convention=cfg.convention)
            atomic_write(cfg.exit_series, continuous.exit_series_csv(times, values))
    else:
        state = coined.initial_state(graph, start, cfg.initial_coin(graph, start))
        if cfg.p == 0.0:
            final = coined.CoinedWalk(graph, cfg.coin).evolve(state, cfg.steps)
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
            rho.check()
            dist = stats.position_distribution(rho)

    summary["probability_sum"] = float(dist.probabilities.sum())
    if dist.coordinates is not None:
        summary["std_dev"] = stats.std_dev(dist)
    summary["tv_to_uniform"] = stats.total_variation(
        dist.probabilities, np.full(len(dist), 1.0 / len(dist)))
    occupied = stats.occupied_sites(dist)
    if occupied.size:
        summary["flatness_ratio"] = stats.flatness_ratio(dist)
        summary["flatness_tv"] = stats.flatness_tv(dist)
    if cfg.walk == "continuous" and cfg.graph == "glued-trees":
        times, values = continuous.exit_signal(
            cfg.depth, GlueSpec(cfg.glue_mode, cfg.glue_seed), cfg.gamma,
            t_max=max(cfg.time, 4.0 * cfg.depth), convention=cfg.convention)
        peak_time, peak_height = continuous.first_peak_time(times, values)
        summary["exit_peak_time"] = peak_time
        summary["exit_peak_height"] = peak_height
    return dist, summary


def format_distribution_csv(dist: stats.Distribution, graph_kind: str) -> str:
    """Shared CSV schema: x,probability on line/cycle, vertex,probability else.

    One row per support point, 15 significant digits.
    """
    positional = graph_kind in ("line", "cycle") and dist.coordinates is not None
    lines = ["x,probability" if positional else "vertex,probability"]
    for idx in np.flatnonzero(dist.probabilities > 0.0):
        label = f"{dist.coordinates[idx]:.15g}" if positional else str(int(idx))
        lines.append(f"{label},{dist.probabilities[idx]:.15g}")
    return "\n".join(lines) + "\n"


def format_distribution_json(dist: stats.Distribution, graph_kind: str,
                             metadata: dict) -> str:
    positional = graph_kind in ("line", "cycle") and dist.coordinates is not None
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


def write_outputs(cfg: WalkConfig, dist: stats.Distribution, summary: dict,
                  wall_time: float) -> None:
    metadata = config_metadata(cfg)
    if cfg.format == "csv":
        text = format_distribution_csv(dist, cfg.graph)
    else:
        text = format_distribution_json(dist, cfg.graph, metadata)
    atomic_write(cfg.output, text)
    meta = dict(metadata)
    meta["summary"] = summary
    meta["wall_time_seconds"] = wall_time
    atomic_write(cfg.output + ".meta.json", json.dumps(meta, indent=2, sort_keys=True) + "\n")


def run_and_write(cfg: WalkConfig) -> dict:
    """Run one validated configuration, write its files and return its summary."""
    started = time.perf_counter()
    dist, summary = run_walk(cfg)
    write_outputs(cfg, dist, summary, time.perf_counter() - started)
    return summary


CONFIG_FIELD_NAMES = {f.name for f in dataclasses.fields(WalkConfig)}


def load_config_file(path: str) -> dict:
    try:
        with open(path) as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ConfigError("config", f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError("config", f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config", f"{path} must hold a JSON object")
    for key in data:
        if key not in CONFIG_FIELD_NAMES:
            raise ConfigError("config", f"unknown key {key!r} in {path}")
    return data


def add_walk_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="FILE",
                        help="JSON file with config defaults; flags override it")
    parser.add_argument("--walk", choices=WALK_KINDS, help="walk family")
    parser.add_argument("--graph", choices=GRAPH_KINDS, help="position space")
    parser.add_argument("--num-positions", type=int, dest="num_positions",
                        help="line size (odd; default 2*steps+1)")
    parser.add_argument("--n", type=int, help="cycle size")
    parser.add_argument("--dimension", type=int, help="hypercube dimension")
    parser.add_argument("--depth", type=int, help="glued-trees depth")
    parser.add_argument("--glue-mode", dest="glue_mode",
                        choices=("symmetric", "random-cycle"),
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
    parser.add_argument("--convention", choices=("laplacian", "adjacency"),
                        help="continuous Hamiltonian convention")
    parser.add_argument("--seed", type=int, help="base random seed")
    parser.add_argument("--format", choices=OUTPUT_FORMATS, help="output format")
    parser.add_argument("--exit-series", dest="exit_series", metavar="FILE",
                        help="also write time,exit_probability CSV "
                             "(continuous glued-trees only)")


def config_from_args(args: argparse.Namespace) -> WalkConfig:
    defaults = WalkConfig()
    values = {}
    if getattr(args, "config", None):
        values.update(load_config_file(args.config))
    for name in CONFIG_FIELD_NAMES:
        flag_value = getattr(args, name, None)
        if flag_value is not None:
            values[name] = flag_value
    cfg = dataclasses.replace(defaults, **values)
    return cfg


def cmd_walk(args: argparse.Namespace) -> int:
    cfg = config_from_args(args)
    if args.output is not None:
        cfg.output = args.output
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


def sweep_thread_count(args: argparse.Namespace) -> int:
    if getattr(args, "threads", None):
        return max(1, args.threads)
    env = os.environ.get(THREADS_ENV_VAR)
    if env:
        try:
            return max(1, int(env))
        except ValueError as exc:
            raise ConfigError("threads", f"bad {THREADS_ENV_VAR}: {env!r}") from exc
    return 1


def run_sweep(base: WalkConfig, axis: str, values: list, outdir: str, prefix: str,
              threads: int) -> None:
    """Run ``base`` once per value of ``axis`` and write every run plus a summary table."""
    runs: list[WalkConfig] = []
    for i, value in enumerate(values):
        cfg = apply_axis(base, axis, value, i)
        cfg.output = os.path.join(outdir, f"{prefix}{axis}={value:g}.{cfg.format}")
        cfg.validate()
        runs.append(cfg)

    started = time.perf_counter()
    if threads == 1:
        summaries = [run_and_write(cfg) for cfg in runs]
    else:
        with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as pool:
            summaries = list(pool.map(run_and_write, runs))

    known_columns = ["std_dev", "tv_to_uniform", "flatness_ratio", "flatness_tv",
                     "exit_peak_time", "exit_peak_height"]
    columns = [c for c in known_columns if any(c in s for s in summaries)]
    lines = [",".join([axis] + columns)]
    for value, summary in zip(values, summaries):
        cells = [f"{value:g}"]
        cells += [f"{summary[c]:.15g}" if c in summary else "" for c in columns]
        lines.append(",".join(cells))
    summary_path = os.path.join(outdir, f"{prefix}summary.csv")
    atomic_write(summary_path, "\n".join(lines) + "\n")
    meta = config_metadata(base)
    meta["axis"] = axis
    meta["values"] = values
    meta["wall_time_seconds"] = time.perf_counter() - started
    atomic_write(summary_path + ".meta.json",
                 json.dumps(meta, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(runs)} runs and {summary_path}")


def cmd_sweep(args: argparse.Namespace) -> int:
    base = config_from_args(args)
    if args.axis not in SWEEPABLE_AXES:
        raise ConfigError("axis", f"must be one of {SWEEPABLE_AXES}, got {args.axis!r}")
    values = parse_sweep_values(args.axis, args.values)
    run_sweep(base, args.axis, values, args.output_dir, args.prefix, sweep_thread_count(args))
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    steps = args.steps
    if steps < 0:
        raise ConfigError("steps", "must be >= 0")
    # one vertex of padding keeps the outermost reached sites interior, so
    # every row carries the two-direction coin labels
    graph = build_line(2 * max(steps, 1) + 3)
    origin = graph.params["origin"]
    state = coined.initial_state(graph, origin, args.initial)
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
    run_sweep(base, "p", list(FIG_DECOHERENCE_SWEEP), outdir, "decoherence_",
              sweep_thread_count(args))
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
    sweep.add_argument("--axis", required=True,
                       help=f"parameter to sweep, one of {SWEEPABLE_AXES}")
    sweep.add_argument("--values", required=True,
                       help="comma-separated values for the axis")
    sweep.add_argument("--output-dir", dest="output_dir", default=".",
                       help="directory for per-value files and the summary")
    sweep.add_argument("--prefix", default="sweep_", help="output file name prefix")
    sweep.add_argument("--threads", type=int,
                       help=f"concurrent runs (default ${THREADS_ENV_VAR} or 1)")
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
    figures.add_argument("--threads", type=int)
    figures.set_defaults(handler=cmd_figures)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"error: invalid configuration: {exc}", file=sys.stderr)
        return 2
    except MissingSeedError as exc:
        print(f"error: invalid configuration: seed: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: invalid configuration: {exc}", file=sys.stderr)
        return 2
    except (InvariantViolationError, BoundaryOverflowError, ArithmeticError) as exc:
        print(f"error: numeric invariant failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
