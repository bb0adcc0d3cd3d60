"""Monte Carlo benchmark harness with deterministic seeding and CSV output.

Every strategy in a run sees the identical (list, z) pair per trial; the
per-trial generator derives from the master seed and the trial index alone,
so results do not depend on strategy order or execution interleaving.
"""

from __future__ import annotations

import csv
import statistics
from dataclasses import dataclass, fields
from typing import Optional, Sequence, Union

import numpy as np

from .datasets import Dataset
from .distributions import DistributionSpec, Uniform, fill_list, sample_target, trial_rng
from .search import DEFAULT_CAP, SearchConfig, SortedList, Strategy, Strict, search_block

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


def _fixed_list(source: Source) -> Optional[SortedList]:
    if isinstance(source, Dataset):
        return source.list
    if isinstance(source, SortedList):
        return source
    return None


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
    Every strategy's searches run in lockstep lanes through ``search_block``,
    whose outcomes equal ``search``'s: a fixed list is one row carrying every
    trial's target, and distribution lists are drawn into blocks of
    ``BLOCK_BYTES``, one row and one target per trial.  Capped runs count at
    the cap value and increment cap_hits.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    configs = list(strategies)
    if not configs:
        raise ValueError("need at least one strategy")
    fixed = _fixed_list(source)
    if fixed is None and n is None:
        raise ValueError("n is required when sampling lists from a distribution")
    if fixed is not None and n is not None and n != fixed.n:
        raise ValueError(f"n={n} contradicts the fixed list's n={fixed.n}")

    if fixed is not None:
        n = fixed.n
        lo, hi = fixed[0], fixed[n]
        zs = [sample_target(lo, hi, trial_rng(master_seed, t)) for t in range(trials)]
        _, queries, capped = search_block(fixed.values[np.newaxis], [zs], configs)
        queries, capped = queries[:, 0], capped[:, 0]
    else:
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        block_rows = min(trials, max(1, BLOCK_BYTES // (8 * (n + 1))))
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
                block[: len(chunk)], zs[: len(chunk)], configs
            )
            queries[:, first : chunk.stop] = chunk_queries[:, :, 0]
            capped[:, first : chunk.stop] = chunk_capped[:, :, 0]
    counts = queries.tolist()
    cap_hits = capped.sum(axis=1).tolist()

    rows = []
    for i, config in enumerate(configs):
        batch = counts[i]
        strategy, variant, kappa1, kappa2 = _labels(config)
        rows.append(
            TrialStats(
                strategy=strategy,
                n=n,
                trials=trials,
                mean=sum(batch) / trials,
                median=float(statistics.median(batch)),
                max=max(batch),
                cap_hits=cap_hits[i],
                seed=master_seed,
                variant=variant,
                kappa1=kappa1,
                kappa2=kappa2,
            )
        )
    return rows


def sweep_kappa(
    kappa1_grid: Sequence[float],
    kappa2_grid: Sequence[float],
    n: int,
    trials: int,
    seed: int,
    *,
    variant=None,
    cap: int = DEFAULT_CAP,
    spec: Optional[DistributionSpec] = None,
) -> list[TrialStats]:
    """One row per (kappa1, kappa2) cell, sharing (list, z) draws across cells."""
    if not kappa1_grid or not kappa2_grid:
        raise ValueError("kappa grids must be non-empty")
    if variant is None:
        variant = Strict()
    if spec is None:
        spec = Uniform()
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
