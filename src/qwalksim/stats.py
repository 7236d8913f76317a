"""Measurement-law analytics shared by every walk engine.

Position distributions with their coordinates, moments about the origin,
total-variation distance, the running time average P_bar(x,T) =
(1/T) sum_{t=1..T} P(x,t), mixing-time estimation against a target
distribution, and flatness metrics for spotting the near-uniform profile
that intermediate decoherence produces.
"""

from __future__ import annotations

import logging
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

import numpy as np

from .errors import InvariantViolationError

logger = logging.getLogger(__name__)

# entries in [-NEGATIVE_CLAMP_TOL, 0) are rounding debris: clamp and warn;
# anything more negative is a real invariant failure
NEGATIVE_CLAMP_TOL = 1e-12

NORMALIZATION_TOL = 1e-10

DEFAULT_EPSILON = 0.01
DEFAULT_T_MAX = 10 ** 5
MIXING_WINDOW_SAMPLES = 10


@dataclass
class Distribution:
    """Probabilities over positions, with coordinates when they are numeric."""

    probabilities: np.ndarray
    coordinates: np.ndarray | None = None
    metadata: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.probabilities)


def _as_probs(d) -> np.ndarray:
    if isinstance(d, Distribution):
        return d.probabilities
    return np.asarray(d, dtype=float)


def _clamped(probs: np.ndarray) -> np.ndarray:
    worst = float(probs.min()) if probs.size else 0.0
    if worst < -NEGATIVE_CLAMP_TOL:
        raise InvariantViolationError(
            f"probability {worst:.3e} below the -{NEGATIVE_CLAMP_TOL:g} clamp tolerance")
    if worst < 0.0:
        logger.warning("clamped %d negative probabilities (worst %.3e) to 0",
                       int(np.sum(probs < 0)), worst)
        probs = np.clip(probs, 0.0, None)
    return probs


def position_distribution(state, **metadata) -> Distribution:
    """Distribution of the walker position, coin or column traced out.

    Accepts any state exposing ``position_distribution()`` plus a graph
    (pure and density states) or a classical distribution.
    """
    if hasattr(state, "position_distribution"):
        probs = state.position_distribution()
        graph = state.graph
    elif hasattr(state, "probabilities"):
        probs = np.asarray(state.probabilities, dtype=float)
        graph = state.graph
    else:
        raise TypeError(f"cannot extract a distribution from {type(state).__name__}")
    probs = _clamped(probs)
    total = float(probs.sum())
    if abs(total - 1.0) > NORMALIZATION_TOL:
        raise InvariantViolationError(f"probabilities sum to {total}, not 1")
    coords = None if graph.coordinates is None else graph.coordinates
    return Distribution(probs, coords, dict(metadata))


def std_dev(d: Distribution) -> float:
    """Root second moment about the origin, sqrt(sum P(x) x^2)."""
    if d.coordinates is None:
        raise ValueError("position space has no numeric coordinates")
    return float(np.sqrt(np.sum(d.probabilities * d.coordinates ** 2)))


def central_std_dev(d: Distribution) -> float:
    """Standard deviation about the mean position."""
    if d.coordinates is None:
        raise ValueError("position space has no numeric coordinates")
    mean = float(np.sum(d.probabilities * d.coordinates))
    return float(np.sqrt(np.sum(d.probabilities * (d.coordinates - mean) ** 2)))


def total_variation(a, b) -> float:
    """Half the L1 distance between two distributions on the same space."""
    pa, pb = _as_probs(a), _as_probs(b)
    if pa.shape != pb.shape:
        raise ValueError(f"mismatched position spaces: {pa.shape} vs {pb.shape}")
    if (isinstance(a, Distribution) and isinstance(b, Distribution)
            and a.coordinates is not None and b.coordinates is not None
            and not np.array_equal(a.coordinates, b.coordinates)):
        raise ValueError("mismatched position coordinates")
    return 0.5 * float(np.sum(np.abs(pa - pb)))


def uniform_distribution(n: int, coordinates=None) -> Distribution:
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return Distribution(np.full(n, 1.0 / n), coordinates)


def time_averaged(series) -> Distribution:
    """Average of per-step distributions: measuring at a random step <= T."""
    dists = list(series)
    if not dists:
        raise ValueError("cannot average an empty series")
    stack = np.stack([_as_probs(d) for d in dists])
    coords = next((d.coordinates for d in dists
                   if isinstance(d, Distribution) and d.coordinates is not None), None)
    return Distribution(stack.mean(axis=0), coords,
                        {"averaged_over": len(dists)})


def mixing_time(step_distributions: Iterable, target, epsilon: float = DEFAULT_EPSILON,
                t_max: int = DEFAULT_T_MAX,
                window_samples: int = MIXING_WINDOW_SAMPLES) -> int | None:
    """Smallest T whose running time average stays within epsilon of target.

    ``step_distributions`` yields P(.,t) for t = 1, 2, ...; the candidate T
    must satisfy TV <= epsilon itself and at ``window_samples`` check
    points spanning (T, min(2T, t_max)], which guards against transient
    dips. Returns None when no T <= t_max qualifies (including when the
    iterator runs out first).
    """
    if epsilon <= 0:
        raise ValueError(f"epsilon must be > 0, got {epsilon}")
    if t_max < 1:
        raise ValueError(f"t_max must be >= 1, got {t_max}")
    target_probs = _as_probs(target)
    it: Iterator = iter(step_distributions)
    tv: list[float] = []
    running = np.zeros_like(target_probs)
    exhausted = False

    def extend_to(t: int) -> None:
        nonlocal exhausted, running
        while not exhausted and len(tv) < t:
            try:
                probs = _as_probs(next(it))
            except StopIteration:
                exhausted = True
                return
            running = running + probs
            tv.append(total_variation(running / (len(tv) + 1), target_probs))

    candidate = 1
    while candidate <= t_max:
        extend_to(candidate)
        if len(tv) < candidate:
            return None
        if tv[candidate - 1] <= epsilon:
            window_end = min(2 * candidate, t_max)
            extend_to(window_end)
            if len(tv) < window_end:
                # the series ended inside the look-ahead window, so neither
                # this candidate nor any later one can be confirmed
                return None
            checks = np.unique(np.linspace(candidate + 1, window_end,
                                           window_samples).astype(int))
            checks = checks[(checks > candidate) & (checks <= window_end)]
            if all(tv[t - 1] <= epsilon for t in checks):
                return candidate
        candidate += 1
    return None


def occupied_sites(d, tol: float = 1e-12) -> np.ndarray:
    """Indices carrying more than ``tol`` probability."""
    return np.flatnonzero(_as_probs(d) > tol)


def flatness_ratio(d, tol: float = 1e-12) -> float:
    """Max/min probability ratio over occupied sites; 1 means perfectly flat."""
    p = _as_probs(d)[occupied_sites(d, tol)]
    if p.size == 0:
        raise ValueError("distribution has no occupied sites")
    return float(p.max() / p.min())


def flatness_tv(d, tol: float = 1e-12) -> float:
    """Distance from uniformity: min TV to a uniform block of occupied sites.

    Scans every contiguous window of the occupied-site sequence (parity
    gaps skipped by construction) and compares against the uniform
    distribution on that window; the minimum says how close the
    distribution is to some top-hat profile. Each width takes all its
    windows at once from running sums: O(m^2) work in O(m) array calls on
    m occupied sites, rounding differently from summing each window alone
    (by about one ulp of the running sum).
    """
    p = _as_probs(d)
    occ = occupied_sites(p, tol)
    if occ.size == 0:
        raise ValueError("distribution has no occupied sites")
    q = p[occ]
    total = float(p.sum())
    prefix = np.concatenate(([0.0], np.cumsum(q)))
    best = np.inf
    m = len(q)
    for width in range(1, m + 1):
        # every window of this width at once: window sums of |q - 1/width|
        # and of q as differences of running sums
        deviation = np.concatenate(([0.0], np.cumsum(np.abs(q - 1.0 / width))))
        inside = deviation[width:] - deviation[:-width]
        mass = prefix[width:] - prefix[:-width]
        best = min(best, float(np.min(0.5 * (inside + total - mass))))
    return float(best)
