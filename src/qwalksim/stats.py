"""Measurement-law analytics shared by every walk engine.

Position distributions with their coordinates, moments about the origin,
total-variation distance, the running time average P_bar(x,T) =
(1/T) sum_{t=1..T} P(x,t), mixing-time estimation against a target
distribution, and a flatness metric for spotting the near-uniform profile
that intermediate decoherence produces on the line and the cycle.

A ``Distribution`` is checked when it is built, whichever engine made it:
entries in [-NEGATIVE_CLAMP_TOL, 0) are rounding debris, clamped to 0 with
a warning; anything more negative, a NaN or infinite entry, or a sum
further than ``NORMALIZATION_TOL`` from 1, raises
``InvariantViolationError``.

``mixing_time`` reads its series in blocks of at most 256 items and 64 KiB
(one item, if an item is larger). It reads no item that a loop taking one
item at a time would not read: not past the last item its answer depends
on, nor past ``t_max``. Each block is gathered into a fresh (items, V)
float array by one ``np.array`` call over the items read; besides that
block it keeps one scratch block of the same size and 8 bytes of TV
history per item read. Its values are bit-identical to a loop that keeps
one running sum and calls ``total_variation`` per item.
"""

from __future__ import annotations

import itertools
import logging
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

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
# a block of series items (a mixing-time read, a run of coined steps): at
# most this many items and bytes (or one item)
_MIXING_BLOCK_ROWS = 256
_MIXING_BLOCK_BYTES = 64 * 1024


def _block_rows(row_bytes: int) -> int:
    """Items in one block of items of ``row_bytes`` each."""
    return max(1, min(_MIXING_BLOCK_ROWS, _MIXING_BLOCK_BYTES // max(row_bytes, 1)))


@dataclass
class Distribution:
    """Probabilities over positions, with coordinates when they are numeric;
    checked when built (see the module docstring)."""

    probabilities: np.ndarray
    coordinates: np.ndarray | None = None

    def __post_init__(self):
        probs = np.asarray(self.probabilities, dtype=float)
        worst = float(probs.min()) if probs.size else 0.0
        if not worst >= -NEGATIVE_CLAMP_TOL:  # NaN fails every comparison
            raise InvariantViolationError(
                f"probability {worst:.3e} is NaN or below the -{NEGATIVE_CLAMP_TOL:g} "
                "clamp tolerance")
        if worst < 0.0:
            logger.warning("clamped %d negative probabilities (worst %.3e) to 0",
                           int(np.sum(probs < 0)), worst)
            probs = np.clip(probs, 0.0, None)
        total = float(probs.sum())
        if not abs(total - 1.0) <= NORMALIZATION_TOL:  # a NaN sum fails too
            raise InvariantViolationError(f"probabilities sum to {total}, not 1")
        self.probabilities = probs

    def __len__(self) -> int:
        return len(self.probabilities)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        """The probabilities, so that ``np.array`` stacks distributions as
        rows (``mixing_time`` gathers a block of its series that way)."""
        return np.array(self.probabilities, dtype=dtype, copy=copy)


def _as_probs(d) -> np.ndarray:
    if isinstance(d, Distribution):
        return d.probabilities
    return np.asarray(d, dtype=float)


def position_distribution(state) -> Distribution:
    """Distribution of the walker position, coin or column traced out.

    Accepts a ``Distribution``, returned as it is, or any state exposing
    ``position_distribution()`` plus a graph (pure and density states).
    """
    if isinstance(state, Distribution):
        return state
    if not hasattr(state, "position_distribution"):
        raise TypeError(f"cannot extract a distribution from {type(state).__name__}")
    return Distribution(state.position_distribution(), state.graph.coordinates)


def std_dev(d: Distribution) -> float:
    """Root second moment about the origin, sqrt(sum P(x) x^2)."""
    if d.coordinates is None:
        raise ValueError("position space has no numeric coordinates")
    return float(np.sqrt(np.sum(d.probabilities * d.coordinates ** 2)))


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


def mixing_time(step_distributions: Iterable, target, epsilon: float = DEFAULT_EPSILON,
                t_max: int = DEFAULT_T_MAX,
                window_samples: int = MIXING_WINDOW_SAMPLES) -> int | None:
    """Smallest T whose running time average stays within epsilon of target.

    ``step_distributions`` yields P(.,t) for t = 1, 2, ...; the candidate T
    must satisfy TV <= epsilon itself and at ``window_samples`` check
    points spanning (T, min(2T, t_max)], which guards against transient
    dips. Returns None when no T <= t_max qualifies (including when the
    iterator runs out first).

    The series is read in blocks (see the module docstring), and no
    further than a loop reading one item at a time would read. An item
    whose shape differs from the target's raises ValueError once the rest
    of its block is read.
    """
    if epsilon <= 0:
        raise ValueError(f"epsilon must be > 0, got {epsilon}")
    if t_max < 1:
        raise ValueError(f"t_max must be >= 1, got {t_max}")
    if window_samples < 1:
        raise ValueError(f"window_samples must be >= 1, got {window_samples}")
    series = _RunningTV(step_distributions, _as_probs(target))
    ruled_out = 0  # no T <= ruled_out qualifies
    while ruled_out < t_max:
        # any candidate among the next ruled_out + 1 items needs a window
        # reaching past them, so reading them all reads nothing unneeded
        series.extend_to(min(2 * ruled_out + 1, t_max))
        known = series.count
        if known == ruled_out:
            return None
        hits = np.flatnonzero(series.tv[ruled_out:known] <= epsilon) + ruled_out + 1
        for candidate in hits.tolist():
            window_end = min(2 * candidate, t_max)
            if not series.extend_to(window_end):
                # the series ended inside the look-ahead window, so neither
                # this candidate nor any later one can be confirmed
                return None
            checks = np.unique(np.linspace(candidate + 1, window_end,
                                           window_samples).astype(int))
            checks = checks[(checks > candidate) & (checks <= window_end)]
            if np.all(series.tv[checks - 1] <= epsilon):
                return candidate
        ruled_out = known
    return None


class _RunningTV:
    """TV distance of the running time average to a target, read in blocks.

    ``tv[t - 1]`` is TV((1/t) sum_{s<=t} P(., s), target), bit-identical to
    ``total_variation(running / t, target)`` with ``running`` summed one
    item at a time: a block of items is added to the running sum by one
    ``cumsum`` down its rows (the same additions in the same order), and
    each row is reduced as a 1-D sum. A block holds at most
    ``_MIXING_BLOCK_ROWS`` items and ``_MIXING_BLOCK_BYTES`` (or one item,
    if an item is larger). Each read takes its items with one ``islice``
    and stacks them with one ``np.array`` call into a fresh block, whose
    shape is checked once; a ragged block is searched item by item only to
    name the first wrong shape. Besides each fresh block, one scratch
    block of the same size and the TV history, 8 bytes per item read, are
    the only allocations.
    """

    def __init__(self, items: Iterable, target: np.ndarray):
        self._items: Iterator = iter(items)
        self._target = target
        rows = _block_rows(8 * target.size)
        self._scratch = np.empty((rows,) + target.shape)
        self._running = np.zeros(target.shape)
        self._tv = np.empty(rows)
        self._exhausted = False
        self.count = 0

    @property
    def tv(self) -> np.ndarray:
        return self._tv[:self.count]

    def extend_to(self, t: int) -> bool:
        """Read exactly up to item ``t``; False if the series ends first."""
        while self.count < t and not self._exhausted:
            self._read_block(min(len(self._scratch), t - self.count))
        return self.count >= t

    def _read_block(self, want: int) -> None:
        target = self._target
        items = list(itertools.islice(self._items, want))
        read = len(items)
        self._exhausted = read < want
        if read == 0:
            return
        try:
            rows = np.array(items, dtype=float)
        except ValueError:  # numpy's own error for a ragged block
            _check_shapes(items, target.shape)
            raise
        if rows.shape[1:] != target.shape:
            _check_shapes(items, target.shape)
        scratch = self._scratch[:read]
        rows[0] += self._running
        np.cumsum(rows, axis=0, out=rows)
        self._running[...] = rows[-1]
        steps = np.arange(self.count + 1, self.count + read + 1, dtype=float)
        np.divide(rows, steps.reshape((read,) + (1,) * target.ndim), out=scratch)
        np.subtract(scratch, target, out=scratch)
        np.abs(scratch, out=scratch)
        tv = 0.5 * scratch.sum(axis=tuple(range(1, scratch.ndim)))
        if self.count + read > len(self._tv):
            grown = np.empty(max(2 * len(self._tv), self.count + read))
            grown[:self.count] = self.tv
            self._tv = grown
        self._tv[self.count:self.count + read] = tv
        self.count += read


def _check_shapes(items: list, shape: tuple) -> None:
    """Raise for the first item whose shape is not ``shape``, as a loop
    checking one item at a time would."""
    for item in items:
        probs = _as_probs(item)
        if probs.shape != shape:
            raise ValueError(f"mismatched position spaces: {probs.shape} vs {shape}")


def occupied_sites(d, tol: float = 1e-12) -> np.ndarray:
    """Indices carrying more than ``tol`` probability."""
    return np.flatnonzero(_as_probs(d) > tol)


def flatness_tv(d, tol: float = 1e-12) -> float:
    """Distance from uniformity: min TV to a uniform block of occupied sites.

    Scans every contiguous window of the occupied-site sequence (parity
    gaps skipped by construction) and compares against the uniform
    distribution on that window; the minimum says how close the
    distribution is to some top-hat profile. Windows follow the index
    order, so the value means something only where that order is a
    coordinate (the line, the cycle). Each width takes all its windows at
    once from running sums: O(m^2) work in O(m) array calls on m occupied
    sites, rounding differently from summing each window alone (by about
    one ulp of the running sum).
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
