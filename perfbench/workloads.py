"""The four benchmark workloads: inputs, oracles, warm-up, timed calls and checks.

Every workload draws its inputs from the ``--seed`` it is given. ``setup``
builds the inputs, computes every oracle the checks need and runs a
warm-up op, all outside the timed region. One op is a fixed list of calls
(``parts``); the runner times each call, catches its failure, and then runs
the call's check, which compares the output with an independent route.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
import scipy.stats

from qwalksim import classical, cli, coined, continuous, decoherence, graphs, stats

# Statistical checks take their bounds from each call's own sample size,
# set so that a correct program essentially never fails them over all the
# passes of many runs. A trajectory-ensemble bin may sit this many standard
# errors from the density oracle (the error is bounded as in criterion 7a).
MAX_STANDARD_ERRORS = 5.0
# A mean of 100 hitting times is right-skewed (a tail like a sum of
# exponentials), so it gets a wider band: a Gamma(100) sum passes 7
# standard errors with probability about 2e-9.
MAX_HITTING_STANDARD_ERRORS = 7.0
# An endpoint-histogram bin fails when its count is this improbable under
# the exact binomial law; a normal bound misjudges bins of probability 2^-20.
MIN_BINOMIAL_TAIL = 1e-9


class CheckFailed(Exception):
    """An output disagreed with its oracle."""


@dataclass
class Part:
    """One timed call of an op: ``run(index)`` then ``check(index, result)``."""

    name: str
    run: Callable
    check: Callable
    work: Callable = lambda result: {}


@dataclass
class Workload:
    seed: int
    workdir: Path
    parts: list = field(default_factory=list)
    # sha256 of each output file written by the first pass, by file name
    digests: dict = field(default_factory=dict)

    # the speed.SpeedProbe kernel whose slowdowns track this workload's own
    speed_kernel = "interpreter"

    def __post_init__(self):
        self.workdir.mkdir(parents=True, exist_ok=True)
        self._first_bytes: dict = {}

    def same_bytes_as_first_pass(self, paths) -> None:
        """Record the first pass's output bytes; later passes must match them."""
        for path in paths:
            data = Path(path).read_bytes()
            first = self._first_bytes.setdefault(path.name, data)
            if first is data:
                self.digests[path.name] = hashlib.sha256(data).hexdigest()
            elif data != first:
                raise CheckFailed(f"{path.name} differs from the first pass's bytes")


class CliFailed(Exception):
    """The command line exited with a non-zero code."""


def run_cli(argv) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([str(a) for a in argv])
    if code != 0:
        raise CliFailed(f"qwalksim {argv[0]} exited with {code}")


def unit_coin(rng) -> np.ndarray:
    """Seeded degree-2 unit coin vector (cos t, e^{i f} sin t)."""
    theta, phi = rng.uniform(0.0, np.pi / 2), rng.uniform(0.0, 2 * np.pi)
    return np.array([np.cos(theta), np.exp(1j * phi) * np.sin(theta)])


def coin_argument(vec) -> str:
    return ",".join(f"{float(z.real)!r}{float(z.imag):+}j" for z in vec)


def read_csv(path) -> tuple[list[str], np.ndarray]:
    header, *rows = Path(path).read_text().strip().split("\n")
    return header.split(","), np.array([[float(c) for c in r.split(",")] for r in rows])


def seed_base(rng) -> int:
    return int(rng.integers(0, 2 ** 31))


def adjacency(g) -> np.ndarray:
    """Dense adjacency matrix built from the edge list."""
    a = np.zeros((g.num_vertices, g.num_vertices))
    for u, v in g.edges:
        a[u, v] = a[v, u] = 1.0
    return a


class Ensemble(Workload):
    """Monte-Carlo engines: trajectories, sampled walks, sampled hitting times."""

    steps, trajectories = 50, 200
    walk_steps, walks = 20, 2000
    hitting_walks = 100

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.line = graphs.build_line(101)
        self.state = coined.initial_state(self.line, self.line.params["origin"], unit_coin(rng))
        self.spec = decoherence.DecoherenceSpec(0.1, "both")
        self.density = decoherence.evolve_density(
            decoherence.to_density(self.state), self.spec, self.steps).position_distribution()

        self.line41 = graphs.build_line(41)
        self.origin41 = self.line41.params["origin"]
        self.endpoints = classical.evolve_classical_exact(
            self.line41, self.origin41, self.walk_steps).probabilities

        self.trees = graphs.build_glued_trees(4, graphs.GlueSpec("symmetric"))
        self.entrance, self.exit = graphs.glued_trees_entrance_exit(self.trees)
        self.tau = classical.hitting_time_exact(self.trees, self.entrance, self.exit)
        self.tau_var = hitting_time_variance(self.trees, self.entrance, self.exit)

        self.seeds = [seed_base(rng) for _ in range(3)]
        self.parts = [
            Part("run_ensemble", self.run_ensemble, self.check_ensemble,
                 lambda r: {"trajectory_steps": self.trajectories * self.steps}),
            Part("sample_endpoint_histogram", self.run_histogram, self.check_histogram,
                 lambda r: {"walk_steps": self.walks * self.walk_steps}),
            Part("hitting_time", self.run_hitting, self.check_hitting,
                 lambda r: {"walk_steps": round(r.mean * r.completed)}),
        ]
        # warm-up: the same calls at a few samples each
        decoherence.run_ensemble(self.state, self.spec, self.steps, 4, self.seeds[0])
        classical.sample_endpoint_histogram(self.line41, self.origin41, self.walk_steps, 50,
                                            self.seeds[1])
        classical.hitting_time(self.trees, self.entrance, self.exit, self.seeds[2], 5)

    def run_ensemble(self, i):
        return decoherence.run_ensemble(self.state, self.spec, self.steps, self.trajectories,
                                        self.seeds[0] + i * self.trajectories)

    def check_ensemble(self, i, result):
        mean, stderr = result
        if abs(mean.sum() - 1.0) > 1e-9:
            raise CheckFailed(f"ensemble mean sums to {mean.sum()!r}")
        # per-trajectory bin values lie in [0, 1], so q(1-q)/M bounds the
        # variance of a bin; the floor covers bins the sample never visited
        exact = self.density
        floor = np.sqrt(exact * (1.0 - exact) / self.trajectories)
        se = np.maximum(stderr, floor) + 1e-12
        worst = float(np.max(np.abs(mean - exact) / se))
        if worst > MAX_STANDARD_ERRORS:
            raise CheckFailed(f"ensemble bin {worst:.2f} standard errors from the density oracle")

    def run_histogram(self, i):
        return classical.sample_endpoint_histogram(
            self.line41, self.origin41, self.walk_steps, self.walks,
            self.seeds[1] + i * self.walks)

    def check_histogram(self, i, hist):
        counts = np.rint(hist * self.walks)
        exact = np.clip(self.endpoints, 0.0, 1.0)
        below = scipy.stats.binom.cdf(counts, self.walks, exact)
        above = scipy.stats.binom.sf(counts - 1, self.walks, exact)
        tail = np.minimum(below, above)
        if tail.min() < MIN_BINOMIAL_TAIL:
            k = int(np.argmin(tail))
            raise CheckFailed(f"endpoint bin {k}: {counts[k]:.0f} of {self.walks} walks, "
                              f"exact probability {exact[k]:.3g}")

    def run_hitting(self, i):
        return classical.hitting_time(self.trees, self.entrance, self.exit,
                                      self.seeds[2] + i * self.hitting_walks, self.hitting_walks)

    def check_hitting(self, i, result):
        if result.completed != self.hitting_walks or result.censored:
            raise CheckFailed(f"hitting time: {result.censored} censored walks")
        bound = MAX_HITTING_STANDARD_ERRORS * np.sqrt(self.tau_var / self.hitting_walks)
        if abs(result.mean - self.tau) > bound:
            raise CheckFailed(f"hitting time {result.mean} vs exact {self.tau:.3f}")


def hitting_time_variance(g, start, target) -> float:
    """Variance of the first-passage time, from the absorbing chain's fundamental matrix."""
    a = adjacency(g)
    t = a / a.sum(axis=1, keepdims=True)
    keep = np.array([v for v in range(g.num_vertices) if v != target])
    fundamental = np.linalg.inv(np.eye(len(keep)) - t[np.ix_(keep, keep)])
    tau = fundamental.sum(axis=1)
    var = (2.0 * fundamental - np.eye(len(keep))) @ tau - tau ** 2
    return float(var[int(np.searchsorted(keep, start))])


class Sweep(Workload):
    """The decoherence sweep of the paper's figure, through the CLI."""

    speed_kernel = "blas"

    steps = 100
    values = (0.0, 0.003, 0.01, 0.03, 0.1)

    def setup(self) -> None:
        coin = unit_coin(np.random.default_rng(self.seed))
        self.outdir = self.workdir / "sweep"
        self.argv = ["sweep", "--graph", "line", "--steps", self.steps, "--axis", "p",
                     "--values", ",".join(f"{p:g}" for p in self.values),
                     f"--initial={coin_argument(coin)}", "--output-dir", self.outdir]
        # p = 0 oracle: the sparse step operator applied to the amplitude
        # vector, a different route from the coin/shift maps the CLI uses
        g = graphs.build_line(2 * self.steps + 1)
        amps = coined.initial_state(g, g.params["origin"], coin).amplitudes
        u = coined.CoinedWalk(g).step_matrix()
        for _ in range(self.steps):
            amps = u @ amps
        self.pure = np.bincount(g.half_edge_vertex, weights=np.abs(amps) ** 2,
                                minlength=g.num_vertices)
        self.coordinates = g.coordinates
        self.parts = [Part("sweep", self.run_sweep, self.check_sweep,
                           lambda r: {"density_steps": self.steps * sum(p > 0 for p in self.values),
                                      "cli_runs": len(self.values)})]
        # warm-up: the same command at three steps, which still runs the
        # density engine on a 400 half-edge matrix
        run_cli(["sweep", "--graph", "line", "--num-positions", 2 * self.steps + 1,
                 "--steps", 3, "--axis", "p", "--values", "0,0.1",
                 f"--initial={coin_argument(coin)}", "--output-dir", self.workdir / "warmup"])

    def run_sweep(self, i):
        return run_cli(self.argv)

    def check_sweep(self, i, _):
        columns, table = read_csv(self.outdir / "sweep_summary.csv")
        col = {name: table[:, k] for k, name in enumerate(columns)}
        if list(col["p"]) != list(self.values):
            raise CheckFailed(f"summary rows {list(col['p'])}")
        best = self.values[int(np.argmin(col["flatness_tv"]))]
        if not 0.01 <= best <= 0.1:
            raise CheckFailed(f"flatness optimum at p={best}, not intermediate")
        sigma = col["std_dev"]
        if not np.all(sigma[:-1] > sigma[1:]):
            raise CheckFailed(f"std_dev not monotone: {sigma}")
        files = [self.outdir / f"sweep_p={p:g}.csv" for p in self.values]
        for path in files:
            _, rows = read_csv(path)
            if abs(rows[:, 1].sum() - 1.0) > 1e-12:
                raise CheckFailed(f"{path.name} sums to {rows[:, 1].sum()!r}")
        _, rows = read_csv(files[0])
        got = np.zeros_like(self.pure)
        got[np.searchsorted(self.coordinates, rows[:, 0])] = rows[:, 1]
        if not np.allclose(got, self.pure, rtol=0, atol=1e-12):
            raise CheckFailed("p=0 distribution differs from the step-operator oracle")
        self.same_bytes_as_first_pass(files + [self.outdir / "sweep_summary.csv"])


def glued_chain(depth: int) -> np.ndarray:
    """Column-chain Laplacian of random-cycle glued trees, from column sizes alone.

    Each child has one parent, so adjacent tree columns couple by
    -2^(c+1)/sqrt(2^c 2^(c+1)) = -sqrt(2); the cycle gives every leaf two
    glue edges, so the leaf columns couple by -2 and every vertex but the
    roots has degree 3.
    """
    n = 2 * depth + 2
    h = np.diag(np.full(n, 3.0))
    h[0, 0] = h[-1, -1] = 2.0
    for c in range(n - 1):
        h[c, c + 1] = h[c + 1, c] = -np.sqrt(2.0)
    h[depth, depth + 1] = h[depth + 1, depth] = -2.0
    return h


def chain_amplitudes(h: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Rows of exp(-i h t) e_0 for each time."""
    vals, vecs = np.linalg.eigh(h)
    return (np.exp(-1j * np.outer(times, vals)) * vecs[0]) @ vecs.T


class GluedTrees(Workload):
    """Continuous-time glued-trees traversal through the CLI plus a deep chain."""

    depth, time, exit_times = 7, 14.0, 2001
    deep = 40

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        glue_seed, deep_seed = seed_base(rng), seed_base(rng)
        glue = graphs.GlueSpec("random-cycle", glue_seed)
        self.walk_out = self.workdir / "walk.csv"
        self.exit_out = self.workdir / "exit.csv"
        self.argv = ["walk", "--walk", "continuous", "--graph", "glued-trees",
                     "--depth", self.depth, "--glue-mode", "random-cycle",
                     "--glue-seed", glue_seed, "--time", self.time,
                     "--exit-series", self.exit_out, "-o", self.walk_out]
        self.deep_glue = graphs.GlueSpec("random-cycle", deep_seed)

        # certify the analytic chain against the full graph's Laplacian
        # projected on column-uniform states
        g = graphs.build_glued_trees(self.depth, glue)
        column = np.array([g.labels[v] for v in range(g.num_vertices)])
        sizes = np.bincount(column)
        a = adjacency(g)
        lap = np.diag(a.sum(axis=1)) - a
        basis = np.zeros((g.num_vertices, len(sizes)))
        basis[np.arange(g.num_vertices), column] = 1.0 / np.sqrt(sizes[column])
        chain = glued_chain(self.depth)
        if not np.allclose(basis.T @ lap @ basis, chain, rtol=0, atol=1e-12):
            raise RuntimeError("analytic column chain disagrees with the projected graph")

        at_time = chain_amplitudes(chain, np.array([self.time]))[0]
        self.vertex_probs = np.abs(at_time[column]) ** 2 / sizes[column]
        self.times = np.linspace(0.0, self.time, self.exit_times)
        self.exit_probs = np.abs(chain_amplitudes(chain, self.times)[:, -1]) ** 2
        self.deep_times = np.linspace(0.0, 4.0 * self.deep, self.exit_times)
        self.deep_probs = np.abs(chain_amplitudes(
            glued_chain(self.deep), self.deep_times)[:, -1]) ** 2

        self.parts = [
            Part("walk", self.run_walk, self.check_walk, lambda r: {"cli_runs": 1}),
            Part("exit_signal_depth40", self.run_deep, self.check_deep),
        ]
        # warm-up: the same command on depth-5 trees
        run_cli(["walk", "--walk", "continuous", "--graph", "glued-trees", "--depth", 5,
                 "--glue-mode", "random-cycle", "--glue-seed", glue_seed, "--time", 10,
                 "--exit-series", self.workdir / "warm_exit.csv",
                 "-o", self.workdir / "warm_walk.csv"])

    def run_walk(self, i):
        return run_cli(self.argv)

    def check_walk(self, i, _):
        _, rows = read_csv(self.walk_out)
        got = np.zeros_like(self.vertex_probs)
        got[rows[:, 0].astype(int)] = rows[:, 1]
        worst = float(np.max(np.abs(got - self.vertex_probs)))
        if worst > 1e-9:
            raise CheckFailed(f"vertex probability off the column chain by {worst:.2e}")
        _, series = read_csv(self.exit_out)
        if not (np.allclose(series[:, 0], self.times, rtol=0, atol=1e-12)
                and np.allclose(series[:, 1], self.exit_probs, rtol=0, atol=1e-9)):
            raise CheckFailed("exit series differs from the column chain")
        self.same_bytes_as_first_pass([self.walk_out, self.exit_out])

    def run_deep(self, i):
        return continuous.exit_signal(self.deep, self.deep_glue)

    def check_deep(self, i, result):
        times, values = result
        if not (np.allclose(times, self.deep_times, rtol=0, atol=1e-12)
                and np.allclose(values, self.deep_probs, rtol=0, atol=1e-9)):
            raise CheckFailed("depth-40 exit signal differs from the analytic chain")


class SeriesTooShort(Exception):
    """A reference series ended before the mixing time was decided."""


def reference_mixing_time(series: np.ndarray, target: np.ndarray, epsilon: float,
                          t_max: int, finite: bool, windows: int = 10) -> int | None:
    """The mixing-time definition of ``stats.mixing_time``, vectorized over a
    precomputed series P(., 1..L); ``finite`` says the series ends at L."""
    length = len(series)
    running = np.cumsum(series, axis=0) / np.arange(1, length + 1)[:, None]
    tv = 0.5 * np.abs(running - target).sum(axis=1)
    for t in np.flatnonzero(tv <= epsilon) + 1:
        if t > t_max:
            break
        end = min(2 * t, t_max)
        if end > length:
            if finite:
                return None
            raise SeriesTooShort
        checks = np.unique(np.linspace(t + 1, end, windows).astype(int))
        checks = checks[(checks > t) & (checks <= end)]
        if np.all(tv[checks - 1] <= epsilon):
            return int(t)
    if not finite and length < t_max:
        raise SeriesTooShort
    return None


class Mixing(Workload):
    """Criterion-5 mixing times: many steps on 30- and 32-half-edge walks."""

    epsilon, t_max = 0.01, 10 ** 5
    reference_steps = 4000
    weak_p = 0.01

    def setup(self) -> None:
        self.p16 = float(np.random.default_rng(self.seed).uniform(0.01, 0.1))
        c15, c16 = graphs.build_cycle(15), graphs.build_cycle(16)
        # name: (graph, engine, p)
        self.cases = {
            "cycle15_pure": (c15, "pure", 0.0),
            "cycle15_density": (c15, "density", self.weak_p),
            "cycle15_classical": (c15, "classical", 0.0),
            "cycle16_pure": (c16, "pure", 0.0),
            "cycle16_measured": (c16, "density", self.p16),
        }
        self.accepted = {name: self.reference(*case) for name, case in self.cases.items()}
        ref = {name: answers[1] for name, answers in self.accepted.items()}
        if not (ref["cycle15_pure"] < ref["cycle15_classical"]
                and ref["cycle15_density"] <= ref["cycle15_pure"]
                and ref["cycle16_pure"] is None and ref["cycle16_measured"] is not None):
            raise RuntimeError(f"reference mixing times break criterion 5: {ref}")
        self.parts = [Part(name, self.runner(name), self.checker(name),
                           lambda r: {"mixing_steps": r[1]}) for name in self.cases]
        # warm-up: each engine's iterator through mixing_time on cycle(15)
        for name in ("cycle15_pure", "cycle15_density", "cycle15_classical"):
            self.runner(name)(0)

    def reference(self, g, engine, p):
        """Mixing times accepted for one case: the reference at epsilon and at
        epsilon moved by one part in 10^9, so rounding at the threshold cannot
        fail a correct program."""
        target = np.full(g.num_vertices, 1.0 / g.num_vertices)

        def answers(length, finite):
            series = reference_series(g, engine, p, length)
            return tuple(reference_mixing_time(series, target, self.epsilon * scale,
                                               self.t_max, finite)
                         for scale in (1 - 1e-9, 1.0, 1 + 1e-9))
        try:
            return answers(self.reference_steps, finite=False)
        except SeriesTooShort:
            if engine != "pure":
                raise
            # the pure walk's iterator ends at t_max: decide on all of it
            return answers(self.t_max, finite=True)

    def runner(self, name):
        g, engine, p = self.cases[name]
        target = np.full(g.num_vertices, 1.0 / g.num_vertices)

        def run(i):
            consumed = [0]
            result = stats.mixing_time(engine_steps(g, engine, p, self.t_max, consumed),
                                       target, self.epsilon, self.t_max)
            return result, consumed[0]
        return run

    def checker(self, name):
        def check(i, result):
            if result[0] not in self.accepted[name]:
                raise CheckFailed(f"{name}: mixing time {result[0]}, reference "
                                  f"{self.accepted[name][1]}")
        return check


def engine_steps(g, engine, p, t_max, consumed):
    """P(., t) for t = 1, 2, ... from the engine under test, counting steps."""
    if engine == "classical":
        source = classical.iter_classical_distributions(g, 0)
    else:
        state = coined.initial_state(g, 0, "symmetric")
        if engine == "pure":
            source = (s.position_distribution()
                      for s in coined.CoinedWalk(g).iter_steps(state, t_max))
        else:
            source = (rho.position_distribution() for rho in decoherence.iter_density_steps(
                decoherence.to_density(state), decoherence.DecoherenceSpec(p, "both")))
    for item in source:
        consumed[0] += 1
        yield item


def reference_series(g, engine, p, length) -> np.ndarray:
    """P(., 1..length) from the dense step operator or transition matrix."""
    n = g.num_vertices
    out = np.empty((length, n))
    if engine == "classical":
        a = adjacency(g)
        t = a / a.sum(axis=1, keepdims=True)
        prob = np.zeros(n)
        prob[0] = 1.0
        for k in range(length):
            prob = prob @ t
            out[k] = prob
        return out
    u = coined.CoinedWalk(g).step_matrix().toarray()
    amps = coined.initial_state(g, 0, "symmetric").amplitudes
    owner = g.half_edge_vertex
    if engine == "pure":
        for k in range(length):
            amps = u @ amps
            out[k] = np.bincount(owner, weights=np.abs(amps) ** 2, minlength=n)
        return out
    keep = np.where(np.eye(len(amps), dtype=bool), 1.0, 1.0 - p)
    rho = np.outer(amps, amps.conj())
    for k in range(length):
        rho = (u @ rho @ u.conj().T) * keep
        out[k] = np.bincount(owner, weights=np.diag(rho).real, minlength=n)
    return out


WORKLOADS = {"ensemble": Ensemble, "sweep": Sweep, "glued-trees": GluedTrees,
             "mixing": Mixing}
