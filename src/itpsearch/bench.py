"""Monte Carlo benchmark harness with deterministic seeding and CSV output.

Every strategy in a run sees the identical (list, z) pair per trial; the
per-trial generator derives from the master seed and the trial index alone,
so results do not depend on strategy order or execution interleaving.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, fields
from typing import Optional, Sequence, Union

import numpy as np

from .datasets import Dataset
from .distributions import DistributionSpec, Uniform, fill_list, sample_target, trial_rng
from .search import (
    DEFAULT_CAP,
    SCALAR_FINISH,
    SearchConfig,
    SortedList,
    Strategy,
    Strict,
    search_block,
)

__all__ = [
    "TrialStats",
    "run_trials",
    "sweep_kappa",
    "sweep_n",
    "write_csv",
    "CSV_HEADER",
    "TABLE1_KAPPA1",
    "TABLE1_KAPPA2",
]

# kappa grid of the published average-case table
TABLE1_KAPPA1 = (0.01, 0.12, 0.23, 0.34, 0.45, 0.56, 0.67, 0.78)
TABLE1_KAPPA2 = (0.51, 0.56, 0.62, 0.67, 0.72, 0.78, 0.83, 0.88, 0.94, 0.99)

Source = Union[DistributionSpec, Dataset, SortedList]

# Distribution trials are drawn into a key block of at most this many bytes
# (at least one list): 3 lists of 2e5 keys, hundreds of lists up to 1e4 keys.
# A block of more than SCALAR_FINISH lanes (configs x lists), which
# search_block sorts and searches in its lockstep loop, may take twice this:
# the loop's cost is in its numpy calls more than in its lanes, so the
# 80-config kappa sweep at n = 2e5 runs one loop over 6 lists, not two over 3.
# In perfbench mc-kappa (6 trials a unit) that took a unit from 13.0 to 11.95
# ms, and peak RSS from 48.8 to 53.5 MB (+9.5%, the 4.8 MB of three more
# lists; BENCH_32.json).  A block read on demand keeps its size, so no run
# moves from one path to the other.
BLOCK_BYTES = 5 << 20


@dataclass(frozen=True)
class TrialStats:
    """Aggregate query counts for one strategy over a batch of trials."""

    strategy: str
    n: int
    trials: int
    mean: float
    median: float
    max: int
    cap_hits: int
    seed: int
    variant: str = ""
    kappa1: Optional[float] = None
    kappa2: Optional[float] = None


CSV_HEADER = tuple(f.name for f in fields(TrialStats))


def _labels(config: SearchConfig):
    if config.strategy is Strategy.ITP:
        return "itp", config.variant.label, config.kappa1, config.kappa2
    return config.strategy.value, "", None, None


def run_trials(
    source: Source,
    strategies: Sequence[SearchConfig],
    trials: int,
    master_seed: int,
    *,
    n: Optional[int] = None,
) -> list[TrialStats]:
    """Run `trials` searches per strategy over shared (list, z) draws.

    Distribution sources draw a fresh list and target each trial; dataset
    and plain-list sources keep the list fixed and draw only the target.
    Every search runs through one ``search_block`` call, whose outcomes
    equal ``search``'s: a fixed list is one row carrying every trial's
    target, and distribution lists are drawn unsorted into blocks of
    ``BLOCK_BYTES``, one row and one target per trial, which
    ``search_block`` takes as drawn rows (it sorts them or reads them on
    demand); a block it will sort, of more than ``SCALAR_FINISH`` lanes,
    holds twice the lists.  Capped runs count at the cap value and increment
    cap_hits.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    configs = list(strategies)
    if not configs:
        raise ValueError("need at least one strategy")
    if isinstance(source, Dataset):
        source = source.list
    if isinstance(source, SortedList):
        if n is not None and n != source.n:
            raise ValueError(f"n={n} contradicts the fixed list's n={source.n}")
        n = source.n
        lo, hi = source[0], source[n]
        zs = [sample_target(lo, hi, trial_rng(master_seed, t)) for t in range(trials)]
        _, queries, capped = search_block(source.values[np.newaxis], [zs], configs)
        queries, capped = queries[:, 0], capped[:, 0]
    else:
        if n is None:
            raise ValueError("n is required when sampling lists from a distribution")
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        block_rows = min(trials, max(1, BLOCK_BYTES // (8 * (n + 1))))
        if len(configs) * block_rows > SCALAR_FINISH:  # sorted: the lockstep loop runs
            block_rows = min(trials, max(1, 2 * BLOCK_BYTES // (8 * (n + 1))))
        block = np.empty((block_rows, n + 1))
        zs = np.empty((block_rows, 1))
        queries = np.empty((len(configs), trials), dtype=np.int64)
        capped = np.empty((len(configs), trials), dtype=bool)
        for first in range(0, trials, block_rows):
            chunk = range(first, min(first + block_rows, trials))
            for r, t in enumerate(chunk):
                rng = trial_rng(master_seed, t)
                fill_list(source, block[r], rng)
                zs[r, 0] = sample_target(float(block[r, 0]), float(block[r, n]), rng)
            _, chunk_queries, chunk_capped = search_block(
                block[: len(chunk)], zs[: len(chunk)], configs, drawn=True
            )
            queries[:, first : chunk.stop] = chunk_queries[:, :, 0]
            capped[:, first : chunk.stop] = chunk_capped[:, :, 0]
    # exact on integer counts below 2**53; tolist gives Python ints and floats
    means = (queries.sum(axis=1) / trials).tolist()
    ranked = np.sort(queries, axis=1)
    medians = ((ranked[:, (trials - 1) // 2] + ranked[:, trials // 2]) / 2).tolist()
    maxima = ranked[:, -1].tolist()
    cap_hits = capped.sum(axis=1).tolist()
    rows = zip(map(_labels, configs), means, medians, maxima, cap_hits)
    return [
        TrialStats(strategy, n, trials, mean, median, top, hits, master_seed, variant, kappa1, kappa2)
        for (strategy, variant, kappa1, kappa2), mean, median, top, hits in rows
    ]


def sweep_kappa(
    kappa1_grid: Sequence[float],
    kappa2_grid: Sequence[float],
    n: int,
    trials: int,
    seed: int,
    *,
    variant=Strict(),
    cap: int = DEFAULT_CAP,
    spec: DistributionSpec = Uniform(),
) -> list[TrialStats]:
    """One row per (kappa1, kappa2) cell, sharing (list, z) draws across cells."""
    if not kappa1_grid or not kappa2_grid:
        raise ValueError("kappa grids must be non-empty")
    configs = [
        SearchConfig.itp(variant=variant, kappa1=k1, kappa2=k2, cap=cap)
        for k2 in kappa2_grid
        for k1 in kappa1_grid
    ]
    return run_trials(spec, configs, trials, seed, n=n)


def sweep_n(
    n_grid: Sequence[int],
    spec: DistributionSpec,
    strategies: Sequence[SearchConfig],
    trials: int,
    seed: int,
) -> list[TrialStats]:
    """TrialStats rows for each strategy at each list size in the grid."""
    if not n_grid:
        raise ValueError("n grid must be non-empty")
    rows = []
    for n in n_grid:
        rows.extend(run_trials(spec, strategies, trials, seed, n=n))
    return rows


def _format_kappa(value: Optional[float]) -> str:
    return "" if value is None else format(value, "g")


def write_csv(rows: Sequence[TrialStats], fh) -> None:
    # fixed formatting keeps equal runs byte-identical across platforms
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for r in rows:
        writer.writerow(
            [
                r.strategy,
                r.n,
                r.trials,
                format(r.mean, ".6f"),
                format(r.median, ".1f"),
                r.max,
                r.cap_hits,
                r.seed,
                r.variant,
                _format_kappa(r.kappa1),
                _format_kappa(r.kappa2),
            ]
        )
