"""Per-module timing spans installed from outside the program.

``Tracer.install`` replaces every public function and method of the seven
qwalksim modules (plus each class's ``__init__``) with a timing wrapper, at
the module or class attribute, and also rebinds every copy of a wrapped
function that another qwalksim module imported by name. Calls made by
``cli`` and by one module into another are therefore caught. Generator
functions get one span per resume, so lazily consumed iterators are timed
where their work happens. ``uninstall`` puts the originals back.

A span's self time is its duration minus the durations of the spans it
encloses. Spans are aggregated in memory by (module, family, function),
where a *family* groups a root function with the same-module helpers it
calls (for example ``CoinedWalk.step_amplitudes`` with the ``coin_toss`` and
``shift`` it runs), so that layer metrics can name the work they measure.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

LAYERS = ("graphs", "coined", "decoherence", "continuous", "classical", "stats", "cli")

# root functions of each family; a non-root span joins the family of the
# nearest open span of the same module, or forms a family of its own
FAMILY_ROOTS = {
    "coined": {
        "CoinedWalk.__init__": "compile",
        "CoinedWalk.step_amplitudes": "step",
        "CoinedWalk.inverse_step_amplitudes": "step",
        "CoinedWalk.step_matrix": "step_matrix",
        "CoinedWalk.evolve": "evolve",
        "CoinedWalk.iter_steps": "evolve",
    },
    "decoherence": {
        "evolve_density": "density",
        "iter_density_steps": "density",
        "apply_channel": "density",
        "DensityState.check": "check",
        "run_ensemble": "ensemble",
        "evolve_trajectory": "ensemble",
    },
    "continuous": {
        "hamiltonian": "hamiltonian",
        "evolve_ct": "evolve",
        "exit_signal": "chain",
        "reduce_columns": "chain",
    },
    "classical": {
        "sample_walk": "sample",
        "sample_endpoint_histogram": "sample",
        "hitting_time": "sample",
        "evolve_classical_exact": "exact",
        "iter_classical_distributions": "exact",
        "hitting_time_exact": "exact",
    },
    "stats": {
        "flatness_tv": "flatness",
        "mixing_time": "mixing",
        "position_distribution": "position",
    },
    "cli": {
        "run_walk": "run_walk",
        "write_outputs": "write",
        "atomic_write": "write",
    },
}


def _arg(args, kwargs, index, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if index < len(args) else default


def _hitting_counts(args, kwargs, result):
    walked = round((result.mean or 0.0) * result.completed) + result.censored * result.cap
    return {"walk_steps": walked, "walks": result.completed + result.censored,
            "censored": result.censored}


def _flatness_counts(args, kwargs, result):
    import numpy as np
    d = _arg(args, kwargs, 0, "d")
    probs = np.asarray(getattr(d, "probabilities", d), dtype=float)
    return {"flatness_sites": int((probs > _arg(args, kwargs, 1, "tol", 1e-12)).sum())}


# work counted per call, read from the arguments and result after the span ends
COUNTERS = {
    ("decoherence", "evolve_density"):
        lambda a, k, r: {"density_steps": _arg(a, k, 2, "steps")},
    ("decoherence", "iter_density_steps"): lambda a, k, r: {"density_steps": 1},
    ("decoherence", "evolve_trajectory"):
        lambda a, k, r: {"trajectory_steps": _arg(a, k, 2, "steps")},
    ("classical", "sample_endpoint_histogram"):
        lambda a, k, r: {"walk_steps": _arg(a, k, 2, "steps") * _arg(a, k, 3, "num_samples"),
                         "walks": _arg(a, k, 3, "num_samples")},
    ("classical", "hitting_time"): _hitting_counts,
    ("continuous", "evolve_ct"): lambda a, k, r: {"dimension": _arg(a, k, 0, "h").dimension},
    ("stats", "flatness_tv"): _flatness_counts,
    ("cli", "atomic_write"):
        lambda a, k, r: {"bytes_written": len(_arg(a, k, 1, "text").encode())},
}


class Tracer:
    """Aggregated spans for one phase at a time (``begin`` starts a phase)."""

    def __init__(self):
        self._stack: list = []
        self._patched: list = []
        self.begin()

    def begin(self) -> None:
        """Start a fresh phase: clear the aggregates and counters."""
        # (module, family, function) -> [calls, self seconds, total seconds, failed]
        self.spans: dict = {}
        self.counts: dict = {}
        self.ops = 0

    # -- installation -------------------------------------------------

    def install(self) -> None:
        modules = {name: importlib.import_module(f"qwalksim.{name}") for name in LAYERS}
        package = importlib.import_module("qwalksim")
        replaced = {}
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ \
                        and not name.startswith("_"):
                    replaced[obj] = self._wrap(layer, name, obj)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for attr, fn in list(vars(obj).items()):
                        if (inspect.isfunction(fn)
                                and (attr == "__init__" or not attr.startswith("_"))
                                and fn.__code__.co_filename == mod.__file__):
                            wrapper = self._wrap(layer, f"{obj.__name__}.{attr}", fn)
                            self._patched.append((obj, attr, fn))
                            setattr(obj, attr, wrapper)
        # rebind every module attribute that holds a wrapped function,
        # including names one module imported from another
        for mod in (*modules.values(), package):
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    self._patched.append((mod, name, obj))
                    setattr(mod, name, replaced[obj])

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    def _wrap(self, layer: str, qualname: str, fn):
        roots = FAMILY_ROOTS.get(layer, {})
        root_family = roots.get(qualname)
        counter = COUNTERS.get((layer, qualname))
        stack = self._stack
        clock = time.perf_counter

        def enter():
            family = root_family
            if family is None:
                for frame in reversed(stack):
                    if frame[0] == layer:
                        family = frame[1]
                        break
                else:
                    family = qualname
            frame = [layer, family, 0.0]
            stack.append(frame)
            return frame

        def leave(frame, started, failed):
            duration = clock() - started
            stack.pop()
            if stack:
                stack[-1][2] += duration
            key = (layer, frame[1], qualname)
            rec = self.spans.get(key)
            if rec is None:
                rec = self.spans[key] = [0, 0.0, 0.0, 0]
            rec[0] += 1
            rec[1] += duration - frame[2]
            rec[2] += duration
            rec[3] += failed

        def count(args, kwargs, result):
            for name, value in counter(args, kwargs, result).items():
                self.counts[(layer, name)] = self.counts.get((layer, name), 0) + value

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    frame = enter()
                    started = clock()
                    try:
                        item = next(inner)
                    except StopIteration:
                        leave(frame, started, False)
                        return
                    except BaseException:
                        leave(frame, started, True)
                        raise
                    leave(frame, started, False)
                    if counter is not None:
                        count(args, kwargs, item)
                    yield item
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                frame = enter()
                started = clock()
                try:
                    result = fn(*args, **kwargs)
                except BaseException:
                    leave(frame, started, True)
                    raise
                leave(frame, started, False)
                if counter is not None:
                    count(args, kwargs, result)
                return result
        return wrapper

    # -- aggregation --------------------------------------------------

    def _sum(self, field: int, layer: str, family: str | None = None,
             function: str | None = None) -> float:
        return sum(rec[field] for (lay, fam, fn), rec in self.spans.items()
                   if lay == layer and (family is None or fam == family)
                   and (function is None or fn == function))

    def self_s(self, layer, family=None):
        return self._sum(1, layer, family)

    def calls(self, layer, function=None, family=None):
        return self._sum(0, layer, family, function)

    def failed(self, layer, function):
        return self._sum(3, layer, None, function)

    def count(self, layer, name):
        return self.counts.get((layer, name), 0)

    def layer_metrics(self) -> dict:
        """Per-layer numbers of the current phase, each divided by ``self.ops``."""
        walks = self.count("classical", "walks")
        raw = {
            "graphs.self_s": self.self_s("graphs"),
            "graphs.calls": self.calls("graphs"),
            "coined.self_s": self.self_s("coined"),
            "coined.compile_calls": self.calls("coined", "CoinedWalk.__init__"),
            "coined.compile_self_s": self.self_s("coined", "compile"),
            "coined.compile_total_s": self._sum(2, "coined", None, "CoinedWalk.__init__"),
            "coined.step_calls": self.calls("coined", "CoinedWalk.step_amplitudes"),
            "coined.step_self_s": self.self_s("coined", "step"),
            "coined.step_matrix_self_s": self.self_s("coined", "step_matrix"),
            "decoherence.self_s": self.self_s("decoherence"),
            "decoherence.density_self_s": self.self_s("decoherence", "density"),
            "decoherence.density_steps": self.count("decoherence", "density_steps"),
            "decoherence.check_self_s": self.self_s("decoherence", "check"),
            "decoherence.ensemble_self_s": self.self_s("decoherence", "ensemble"),
            "decoherence.trajectories": self.calls("decoherence", "evolve_trajectory"),
            "decoherence.trajectory_steps": self.count("decoherence", "trajectory_steps"),
            "continuous.self_s": self.self_s("continuous"),
            "continuous.hamiltonian_self_s": self.self_s("continuous", "hamiltonian"),
            "continuous.evolve_self_s": self.self_s("continuous", "evolve"),
            "continuous.dimension": self.count("continuous", "dimension"),
            "continuous.chain_calls": self.calls("continuous", "exit_signal"),
            "continuous.chain_self_s": self.self_s("continuous", "chain"),
            "continuous.chain_failed": self.failed("continuous", "exit_signal"),
            "classical.self_s": self.self_s("classical"),
            "classical.sample_self_s": self.self_s("classical", "sample"),
            "classical.walk_steps": self.count("classical", "walk_steps"),
            "classical.exact_self_s": self.self_s("classical", "exact"),
            "stats.self_s": self.self_s("stats"),
            "stats.flatness_self_s": self.self_s("stats", "flatness"),
            "stats.flatness_calls": self.calls("stats", "flatness_tv"),
            "stats.flatness_sites": self.count("stats", "flatness_sites"),
            "stats.mixing_self_s": self.self_s("stats", "mixing"),
            "stats.mixing_steps": self.calls("stats", "total_variation", family="mixing"),
            "stats.position_self_s": self.self_s("stats", "position"),
            "cli.self_s": self.self_s("cli"),
            "cli.run_walk_self_s": self.self_s("cli", "run_walk"),
            "cli.write_self_s": self.self_s("cli", "write"),
            "cli.bytes_written": self.count("cli", "bytes_written"),
            "cli.runs": self.calls("cli", "run_walk"),
        }
        per_op = {name: value / max(self.ops, 1) for name, value in raw.items()}
        # a ratio over the whole phase, not a per-op amount
        per_op["classical.censored_frac"] = (
            self.count("classical", "censored") / walks if walks else 0.0)
        return per_op
