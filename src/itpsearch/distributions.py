"""Seeded generators for benchmark lists and targets.

Lists are built the same way throughout: endpoints pinned at 0 and 1 with
n - 1 interior keys drawn i.i.d. from the chosen distribution and sorted.
Draws that would leave [0, 1] are rejected and redrawn (never clamped, which
would pile duplicates onto the endpoints).

Reproducibility contract: the generator is numpy's PCG64.  A master seed
plus trial index derives an independent child stream via
``SeedSequence(master_seed, spawn_key=(trial_index,))``, so trial t sees the
same draws no matter how many trials run or in what order.
"""

from __future__ import annotations

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
    "as_rng",
    "trial_rng",
    "sample_list",
    "fill_list",
    "sample_target",
]


def _fill_accepted(out: np.ndarray, draw, keep) -> None:
    """Fill ``out`` with accepted draws; batch sizes depend only on the
    remaining need, so the stream consumption is reproducible."""
    got = 0
    while got < out.size:
        want = out.size - got
        batch = draw(max(64, want + want // 2))
        batch = batch[keep(batch)]
        take = min(want, batch.size)
        out[got : got + take] = batch[:take]
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
        if self.sigma <= 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")

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
        if self.rate <= 0:
            raise ValueError(f"rate must be positive, got {self.rate}")

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
        left = rng.random(out.size) < self.left_mass
        u = rng.random(out.size)
        out[:] = np.where(left, self.split * u, self.split + (1.0 - self.split) * u)


# each spec's fill(out, rng) writes out.size i.i.d. draws in [0, 1] into out
DistributionSpec = Uniform | Gaussian | Exponential | Triangular | Step


def as_rng(seed) -> np.random.Generator:
    """Accept an integer seed or a ready Generator and return a Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


def trial_rng(master_seed: int, trial_index: int) -> np.random.Generator:
    """Child stream for one trial, derived from the master seed."""
    ss = np.random.SeedSequence(master_seed, spawn_key=(trial_index,))
    return np.random.Generator(np.random.PCG64(ss))


def sample_list(spec: DistributionSpec, n: int, seed) -> SortedList:
    """Draw a benchmark list of n + 1 keys: 0, n - 1 sorted interior draws, 1.

    ``seed`` is an integer or an already-positioned Generator (a trial
    stream); an integer gets its own fresh stream.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    values = np.empty(n + 1)
    fill_list(spec, values, as_rng(seed))
    return SortedList(values, validate=False)


def fill_list(spec: DistributionSpec, values: np.ndarray, rng: np.random.Generator) -> None:
    """Draw a benchmark list into ``values`` (n + 1 >= 2 slots) from ``rng``:
    the ends pinned at 0 and 1, the interior drawn and then sorted in place."""
    values[0] = 0.0
    values[-1] = 1.0
    spec.fill(values[1:-1], rng)
    values[1:-1].sort()


def sample_target(lo: float, hi: float, seed) -> float:
    """Uniform draw strictly inside (lo, hi); endpoint hits are redrawn."""
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    rng = as_rng(seed)
    while True:
        z = lo + (hi - lo) * rng.random()
        if lo < z < hi:
            return z
