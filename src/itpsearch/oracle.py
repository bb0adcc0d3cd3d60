"""Independent ground-truth engines for the search library.

Everything here is finite enumeration: a full linear scan for the located
cell, an exhaustive recursion over bracket splits for the minmax depth, an
adversarial game tree over probe outcomes for a concrete probe rule, and an
exact average over equality outcomes of binary search, which runs ``search``
itself.  ``average_depth_c2`` stays independent of the search code: it is the
closed form of binary search's average depth.  These engines are desk-scale by
design and refuse inputs beyond their enumeration budgets.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .search import ProbeRule, SearchConfig, SortedList, minmax_bound, search

__all__ = [
    "DepthProfile",
    "linear_scan",
    "minimax_depth",
    "strategy_worst_depth",
    "average_depth_c2",
    "binary_equality_profile",
    "sequential_rule",
]

MINIMAX_DEPTH_BUDGET = 4096
WORST_DEPTH_BUDGET = 1024


@dataclass(frozen=True)
class DepthProfile:
    """Worst and exact-average query depth over an enumerated outcome set."""

    max_depth: int
    avg_depth: Fraction


def linear_scan(lst: SortedList, z: float) -> int:
    """Largest k with values[k] <= z, found by scanning every entry."""
    v = lst.values
    if not v[0] <= z <= v[-1]:
        raise ValueError(f"target {z} outside key range [{v[0]}, {v[-1]}]")
    return int(np.count_nonzero(v <= z)) - 1


_depth_memo: list[int] = [0, 0]  # depth of a bracket of width d; width 1 is terminal


def minimax_depth(n: int) -> int:
    """Minimum worst-case probe count for a bracket of width n, by exhaustion.

    Recurrence over the bracket width d: probing any interior split leaves
    widths s and d - s, the adversary keeps the deeper side, and the best
    rule minimizes over splits.  Exact-hit outcomes terminate at the probe
    and never bind the maximum.
    """
    if not 1 <= n <= MINIMAX_DEPTH_BUDGET:
        raise ValueError(f"n must be in 1..{MINIMAX_DEPTH_BUDGET}, got {n}")
    while len(_depth_memo) <= n:
        d = len(_depth_memo)
        best = d - 1  # probing adjacent to an end
        for s in range(1, d // 2 + 1):
            worst = max(_depth_memo[s], _depth_memo[d - s])
            if worst < best:
                best = worst
        _depth_memo.append(1 + best)
    return _depth_memo[n]


def _synthetic_value(i: int, n: int) -> float:
    # Convex ramp: keeps interpolation probes away from the midpoint so the
    # truncation/projection path of a rule is actually exercised.
    return (i / n) ** 2


def strategy_worst_depth(rule: ProbeRule, n: int) -> int:
    """Worst-case probe count of a concrete rule over all comparison outcomes.

    Plays the rule against an adversary that picks the comparison result of
    every probe (exact hits terminate immediately and never dominate).  The
    rule sees synthetic keys from a fixed convex ramp and a target mid-way
    between the bracket's end values, so every enumerated path is realizable
    by some sorted list.  Raises if the rule ever probes outside (a, b).
    """
    if not 2 <= n <= WORST_DEPTH_BUDGET:
        raise ValueError(f"n must be in 2..{WORST_DEPTH_BUDGET}, got {n}")
    memo: dict[tuple[int, int, int], int] = {}

    def depth(a: int, b: int, j: int) -> int:
        if b - a == 1:
            return 0
        key = (a, b, j)
        hit = memo.get(key)
        if hit is not None:
            return hit
        va = _synthetic_value(a, n)
        vb = _synthetic_value(b, n)
        k = rule(a, b, j, va, vb, (va + vb) / 2)
        if not a < k < b:
            raise ValueError(f"rule probed {k} outside bracket ({a}, {b})")
        result = 1 + max(depth(a, k, j + 1), depth(k, b, j + 1))
        memo[key] = result
        return result

    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, n + 1000))
    try:
        return depth(0, n, 0)
    finally:
        sys.setrecursionlimit(limit)


def sequential_rule(a: int, b: int, j: int, va: float, vb: float, z: float) -> int:
    """Deliberately non-minmax rule (always probe a + 1), for converse tests."""
    return a + 1


def average_depth_c2(n: int) -> float:
    """Closed-form average binary-search depth when the target hits a key
    uniformly at random.

    Decomposes n = 2**(N - 1) + q with N = ceil(log2 n) and evaluates
    N - 1 - (n - N - 2q) / (n - 1).
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    n_half = minmax_bound(n)
    q = n - 2 ** (n_half - 1)
    delta = (n - n_half - 2 * q) / (n - 1)
    return n_half - 1 - delta


def binary_equality_profile(n: int) -> DepthProfile:
    """Exact depth statistics of binary search over the n equality outcomes.

    Runs ``search`` with the binary rule once per target position k* in 1..n
    on the ramp 0, 1, ..., n, so the target equals the k*-th key.  The average
    is the exact rational over all n outcomes; it is the enumeration companion
    to ``average_depth_c2`` and the two use different depth conventions, so
    they differ by a fraction of an iteration at small n.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    lst = SortedList(np.arange(n + 1.0))
    config = SearchConfig.binary()
    depths = [search(lst, float(k_star), config).queries for k_star in range(1, n + 1)]
    return DepthProfile(max_depth=max(depths), avg_depth=Fraction(sum(depths), n))
