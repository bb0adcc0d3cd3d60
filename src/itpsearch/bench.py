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

from .datasets import Dataset
from .distributions import DistributionSpec, Uniform, sample_list, sample_target, trial_rng
from .search import DEFAULT_CAP, SearchConfig, SortedList, Strategy, Strict, search, search_many

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
    On a fixed list every target is drawn first and each strategy searches
    them all in one ``search_many`` call, whose outcomes equal ``search``'s.
    Capped runs count at the cap value and increment cap_hits.
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
        counts, cap_hits = [], []
        for config in configs:
            _, queries, capped = search_many(fixed, zs, config)
            counts.append(queries.tolist())
            cap_hits.append(int(capped.sum()))
    else:
        counts = [[0] * trials for _ in configs]
        cap_hits = [0] * len(configs)
        for t in range(trials):
            rng = trial_rng(master_seed, t)
            lst = sample_list(source, n, rng)
            z = sample_target(lst[0], lst[n], rng)
            for i, config in enumerate(configs):
                outcome = search(lst, z, config)
                counts[i][t] = outcome.queries
                if outcome.capped:
                    cap_hits[i] += 1

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
