"""Seeded generators for benchmark lists and targets.

Lists are built the same way throughout: endpoints pinned at 0 and 1 with
n - 1 interior keys drawn i.i.d. from the chosen distribution.  ``fill_list``
draws a list in draw order; ``sample_list`` sorts it, and ``search_block``
takes such drawn rows as they are (its docstring says how it reads them).
Draws that would leave [0, 1] are rejected and redrawn (never clamped,
which would pile duplicates onto the endpoints).

Reproducibility contract: the generator is numpy's PCG64.  A master seed
plus trial index derives an independent child stream via
``SeedSequence(master_seed, spawn_key=(trial_index,))``, so trial t sees the
same draws no matter how many trials run or in what order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .search import SortedList

__all__ = [
    "Uniform",
    "Gaussian",
    "Exponential",
    "Triangular",
    "Step",
    "DistributionSpec",
    "trial_rng",
    "sample_list",
    "fill_list",
    "sample_target",
]


# Values per draw call.  Rejection batches and Step's position pass are drawn
# this many at a time (Step's side pass is one call, as it makes no
# temporary): numpy's normal, exponential and random take the bit stream
# draw by draw, so split calls return the same floats as one call.
# A fill's temporaries then take at most 25 bytes per CHUNK value (a chunk
# of draws, its keep mask, and compress's int64 index and kept copy), plus
# Step's n-byte side mask, instead of 21-33 bytes per key: traced at
# n = 2e5, Exponential and Step fills peak at 0.32 and 0.60 MB.  In a sweep at
# n = 2e5 (BENCH_25.json), 2**14 drew as fast as 2**15 and 2**16 (0.87-0.95x
# the whole-array time) at half the peak of 2**15; 2**12 gained little
# (0.96-1.01x).
CHUNK = 2**14


def _fill_accepted(out: np.ndarray, draw, keep) -> None:
    """Fill ``out`` with accepted draws.  Batch sizes depend only on the
    remaining need, so the stream consumption is reproducible; each batch is
    drawn and filtered ``CHUNK`` values at a time, and drawn to its end even
    once ``out`` is full, so the stream ends where one whole-batch draw
    would leave it.  A chunk with a rejected draw is compacted with
    ``compress``, whose time does not depend on the acceptance rate, unlike
    a boolean-mask index, which branches on every draw; a chunk with none is
    used as drawn."""
    got = 0
    while got < out.size:
        want = out.size - got
        batch = max(64, want + want // 2)
        for start in range(0, batch, CHUNK):
            chunk = draw(min(CHUNK, batch - start))
            kept = keep(chunk)
            if not kept.all():
                chunk = chunk.compress(kept)
            take = min(out.size - got, chunk.size)
            out[got : got + take] = chunk[:take]
            got += take


@dataclass(frozen=True)
class Uniform:
    """Flat density on [0, 1]."""

    def fill(self, out: np.ndarray, rng: np.random.Generator) -> None:
        rng.random(out=out)


@dataclass(frozen=True)
class Gaussian:
    """Normal around a fresh per-list mean mu ~ U[0, 1], truncated to [0, 1]."""

    sigma: float = 0.01

    def __post_init__(self) -> None:
        if not 0 < self.sigma < math.inf:
            raise ValueError(f"sigma must be finite and positive, got {self.sigma}")

    def fill(self, out: np.ndarray, rng: np.random.Generator) -> None:
        mu = rng.random()  # fresh location per list
        _fill_accepted(
            out, lambda m: rng.normal(mu, self.sigma, m), lambda x: (x >= 0.0) & (x <= 1.0)
        )


@dataclass(frozen=True)
class Exponential:
    """Exponential with the given rate, truncated to [0, 1]."""

    rate: float = 1.0

    def __post_init__(self) -> None:
        if not 0 < self.rate < math.inf:
            raise ValueError(f"rate must be finite and positive, got {self.rate}")

    def fill(self, out: np.ndarray, rng: np.random.Generator) -> None:
        _fill_accepted(out, lambda m: rng.exponential(1.0 / self.rate, m), lambda x: x <= 1.0)


@dataclass(frozen=True)
class Triangular:
    """Density 2x on [0, 1]: the square root of a uniform draw."""

    def fill(self, out: np.ndarray, rng: np.random.Generator) -> None:
        rng.random(out=out)
        np.sqrt(out, out=out)


@dataclass(frozen=True)
class Step:
    """Uniform on [0, split) with probability left_mass, else on [split, 1)."""

    split: float = 0.75
    left_mass: float = 0.5

    def __post_init__(self) -> None:
        if not 0 < self.split < 1:
            raise ValueError(f"split must be in (0, 1), got {self.split}")
        if not 0 < self.left_mass < 1:
            raise ValueError(f"left_mass must be in (0, 1), got {self.left_mass}")

    def fill(self, out: np.ndarray, rng: np.random.Generator) -> None:
        """Draw every side (left with probability left_mass) in one call, its
        draws landing in ``out`` and the sides in one bool array, then every
        position within its side ``CHUNK`` values at a time."""
        left = np.less(rng.random(out=out), self.left_mass)
        for start in range(0, out.size, CHUNK):
            u = rng.random(out=out[start : start + CHUNK])
            side = left[start : start + CHUNK]
            u[:] = np.where(side, self.split * u, self.split + (1.0 - self.split) * u)


# each spec's fill(out, rng) writes out.size i.i.d. draws in [0, 1] into out
DistributionSpec = Uniform | Gaussian | Exponential | Triangular | Step


def trial_rng(master_seed: int, trial_index: int) -> np.random.Generator:
    """Child stream for one trial, derived from the master seed."""
    ss = np.random.SeedSequence(master_seed, spawn_key=(trial_index,))
    return np.random.Generator(np.random.PCG64(ss))


def sample_list(spec: DistributionSpec, n: int, seed) -> SortedList:
    """Draw a benchmark list of n + 1 keys: 0, n - 1 sorted interior draws, 1.

    ``seed`` is an integer or an already-positioned Generator (a trial
    stream); an integer gets its own fresh stream.  The list is
    ``fill_list``'s draw with its interior sorted; the sort draws nothing.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    values = np.empty(n + 1)
    fill_list(spec, values, np.random.default_rng(seed))
    values[1:-1].sort()
    return SortedList(values)


def fill_list(spec: DistributionSpec, values: np.ndarray, rng: np.random.Generator) -> None:
    """Draw a benchmark list into ``values`` (n + 1 >= 2 slots) from ``rng``:
    the ends pinned at 0 and 1, the interior in draw order, not sorted.  The
    ends are then the row's smallest and largest keys, as ``search_block``'s
    drawn rows need."""
    values[0] = 0.0
    values[-1] = 1.0
    spec.fill(values[1:-1], rng)


def sample_target(lo: float, hi: float, seed) -> float:
    """Uniform draw strictly inside (lo, hi); endpoint hits are redrawn.

    The ends and their distance ``hi - lo`` must be finite in float64, and
    ValueError is raised when no float lies strictly inside.
    """
    try:
        span = float(hi) - float(lo)
    except OverflowError:  # an integer end beyond float64's range
        span = math.inf
    if not 0 < span < math.inf:  # for floats, lo < hi and hi - lo < inf
        raise ValueError(f"need finite lo < hi and hi - lo, got [{lo}, {hi}]")
    if math.nextafter(lo, hi) == hi:
        raise ValueError(f"no float lies strictly inside ({lo}, {hi})")
    rng = np.random.default_rng(seed)
    while True:
        z = lo + (hi - lo) * rng.random()
        if lo < z < hi:
            return z
