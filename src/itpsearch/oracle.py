"""Independent ground-truth engines for the search library.

Everything here is finite enumeration: a full linear scan for the located
cell, an exhaustive recurrence over bracket splits for the minmax depth
(each width's splits taken as one numpy array, every split still scored), an
adversarial game tree over probe outcomes for a concrete probe rule, and an
exact average over equality outcomes of binary search, which runs ``search``
itself.  ``average_depth_c2`` stays independent of the search code: it is the
closed form of binary search's average depth.  These engines are desk-scale by
design and refuse inputs beyond their enumeration budgets.
"""

from __future__ import annotations

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


# _depths[d] is the minimax depth of a bracket of width d, filled for the
# widths below _depths_known; widths 0 and 1 are terminal
_depths = np.zeros(MINIMAX_DEPTH_BUDGET + 1, dtype=np.int64)
_depths_known = 2


def minimax_depth(n: int) -> int:
    """Minimum worst-case probe count for a bracket of width n, by exhaustion.

    Recurrence over the bracket width d: probing any interior split leaves
    widths s and d - s, the adversary keeps the deeper side, and the best
    rule minimizes over splits.  Each width takes max(D[s], D[d - s]) over
    every split s = 1..d // 2 as one array and its minimum, the same
    exhaustive enumeration as a loop over the splits.  Exact-hit outcomes
    terminate at the probe and never bind the maximum.
    """
    global _depths_known
    if not 1 <= n <= MINIMAX_DEPTH_BUDGET:
        raise ValueError(f"n must be in 1..{MINIMAX_DEPTH_BUDGET}, got {n}")
    for d in range(_depths_known, n + 1):
        half = d // 2  # splits s = 1..half, against d - s = d - 1..d - half
        worst = np.maximum(_depths[1 : half + 1], _depths[d - 1 : d - half - 1 : -1])
        _depths[d] = 1 + worst.min()
    _depths_known = max(_depths_known, n + 1)
    return int(_depths[n])


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
    # Convex ramp: keeps interpolation probes away from the midpoint so the
    # truncation/projection path of a rule is actually exercised.
    ramp = [(i / n) ** 2 for i in range(n + 1)]
    # The open brackets of iteration j, each of width >= 2: a width-1 child
    # is a leaf and takes no probe.  Brackets nest, so each one is reached by
    # one path only and the rule runs n - 1 times in all: nothing to memoize.
    # The worst path probes once per iteration until no bracket is left.
    brackets = [(0, n)]
    j = 0
    while brackets:
        children = []
        for a, b in brackets:
            va = ramp[a]
            vb = ramp[b]
            k = rule(a, b, j, va, vb, (va + vb) / 2)
            if not a < k < b:
                raise ValueError(f"rule probed {k} outside bracket ({a}, {b})")
            if k - a > 1:
                children.append((a, k))
            if b - k > 1:
                children.append((k, b))
        brackets = children
        j += 1
    return j


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
