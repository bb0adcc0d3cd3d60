"""Search over sorted lists by shrinking a bracket.

The searcher maintains a bracket a < b with values[a] <= z <= values[b] and
shrinks it by probing one interior index per iteration until b - a == 1 (or
an exact hit collapses the bracket).  Three probe rules are provided:

* binary      -- probe the midpoint (floor rounding), worst case ceil(log2 n);
* interpolation -- probe the linear interpolation between the bracket ends,
  fast on near-uniform keys but worst case n;
* itp         -- interpolate, truncate the estimate toward the midpoint, then
  project it into a minmax-safe interval around the midpoint.  Keeps the
  binary worst-case bound while probing (almost) like interpolation.

Each rule is defined once, by ``make_probe_fn``; ``search`` and the oracles
both drive it.  Where the minmax radius is 0, projection puts any point on
the midpoint, so the itp rule returns the midpoint without interpolating.
``search_block`` searches lanes of (list, target, config) in lockstep with
numpy, and ``search_many`` is its one-list, one-config case; its docstring
says how one array formula gives every rule's probes, and how it reads
drawn rows, whose interiors are unsorted.
Endpoint values are cached with the bracket, so a search is charged one
query per interior probe only.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from math import floor
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Strategy",
    "Strict",
    "Relaxed",
    "Local",
    "SortedList",
    "SearchConfig",
    "SearchOutcome",
    "ProbeRule",
    "minmax_bound",
    "interpolation_point",
    "truncate",
    "minmax_radius",
    "project",
    "round_toward_midpoint",
    "make_probe_fn",
    "search",
    "search_many",
    "search_block",
]

DEFAULT_KAPPA1 = 0.01
DEFAULT_KAPPA2 = 0.83
DEFAULT_NMAX_EXTRA = 0.99
DEFAULT_CAP = 1000

# One probe rule: (a, b, j, va, vb, z) -> interior index k, a < k < b, for the
# bracket (a, b) with end values (va, vb) at iteration j.  Its domain: integers
# with 0 <= a and b - a >= 2, a + b < 2**52, and va < z <= vb.  Every bracket of
# search, search_block and strategy_worst_depth meets it (a list of 2**51
# float64 keys would take 16 PiB).
ProbeRule = Callable[[int, int, int, float, float, float], int]


class Strategy(Enum):
    BINARY = "binary"
    INTERPOLATION = "interpolation"
    ITP = "itp"


# make_probe_fn runs once per search, and on CPython 3.11 each attribute
# lookup on an Enum class such as ``Strategy.BINARY`` costs about 0.15 us
_BINARY, _INTERPOLATION = Strategy.BINARY, Strategy.INTERPOLATION


@dataclass(frozen=True)
class Strict:
    """Minmax radius anchored to ceil(log2 n) of the searched list."""

    label = "strict"

    def n_ref(self, n: int) -> float:
        return float(minmax_bound(n))


@dataclass(frozen=True)
class Relaxed:
    """Minmax radius anchored to the budget n_max = ceil(log2 n) + extra.

    The slack ``extra`` is finite, >= 0 and at most 961: above it the
    half-width 2 ** (n_max - 1) overflows float64 on some list of n < 2**63
    keys, where ceil(log2 n) reaches 63.  A non-integer budget is allowed;
    the worst case is then ceil(n_max).
    """

    label = "relaxed"
    extra: float = DEFAULT_NMAX_EXTRA

    def __post_init__(self) -> None:
        if not 0 <= self.extra < math.inf:
            raise ValueError(f"extra must be finite and >= 0, got {self.extra}")
        if self.extra > 961:
            raise ValueError(f"extra must be at most 961, got {self.extra}")

    def n_ref(self, n: int) -> float:
        return minmax_bound(n) + self.extra


@dataclass(frozen=True)
class Local:
    """Minmax radius anchored to ceil(log2 delta) of the current bracket."""

    label = "local"

    def n_ref(self, n: int) -> None:
        return None


Variant = Strict | Relaxed | Local


def _float64(values) -> np.ndarray:
    """``np.asarray(values, dtype=np.float64)``, except that a number beyond
    float64's range, such as the integer 10**400, becomes the infinity of its
    sign, as IEEE rounding makes it, where numpy raises OverflowError; the
    caller then rejects it with its own ValueError."""
    try:
        return np.asarray(values, dtype=np.float64)
    except OverflowError:
        objects = np.asarray(values, dtype=object)
        return np.array([_float_or_inf(x) for x in objects.flat]).reshape(objects.shape)


def _float_or_inf(x) -> float:
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


class SortedList:
    """A non-decreasing vector of finite keys, length n + 1, indexed 0..n.

    Every list is checked, by one ordered pass and a test of its two ends: a
    NaN fails every comparison, and an ordered list holds its infinities and
    its largest magnitude at its ends.  NaN, infinities, decreasing keys and
    integer keys that float64 cannot hold exactly (such as 2**53 + 1, or
    10**400, which counts as an infinity) raise ValueError, and so do keys
    whose largest magnitude, times n, reaches 2**1020: below that bound no
    interpolation line between two keys overflows float64.  ``values`` is a
    read-only view, so a checked list stays checked (the array passed in
    stays writable).
    """

    __slots__ = ("values", "n")

    def __init__(self, values):
        arr = _float64(values)
        if arr.ndim != 1:
            raise ValueError("values must be one-dimensional")
        if arr.size < 2:
            raise ValueError(f"need at least 2 values, got {arr.size}")
        lo, hi = arr.item(0), arr.item(-1)
        if not ((arr[:-1] <= arr[1:]).all() and -math.inf < lo and hi < math.inf):
            if not np.isfinite(arr).all():
                raise ValueError("values must be finite (no NaN or inf)")
            raise ValueError("values must be non-decreasing")
        if (arr.size - 1) * max(-lo, hi) >= 2.0**1020:
            raise ValueError(f"n * max|key| must be below 2**1020, got {arr.size - 1} * {max(-lo, hi)}")
        if max(-lo, hi) >= 2.0**53 and arr is not values:
            # an integer key of magnitude >= 2**53 may have rounded to a neighbour
            # (a float64 array, which asarray passes through, holds no integer key)
            big = np.abs(arr) >= 2.0**53
            keys = np.asarray(values, dtype=object)[big]
            for key, cast in zip(keys, arr[big].tolist()):
                if isinstance(key, (int, np.integer)) and int(key) != int(cast):
                    raise ValueError(f"integer key {int(key)} is not exact in float64")
        self.values = arr.view()
        self.values.flags.writeable = False
        self.n = arr.size - 1

    def __len__(self) -> int:
        return self.values.size

    def __getitem__(self, k: int) -> float:
        return float(self.values[k])

    def __repr__(self) -> str:
        return f"SortedList(n={self.n}, range=[{self.values[0]}, {self.values[-1]}])"


@dataclass(frozen=True)
class SearchConfig:
    """Probe-rule selection plus the itp tuning constants."""

    strategy: Strategy = Strategy.ITP
    kappa1: float = DEFAULT_KAPPA1
    kappa2: float = DEFAULT_KAPPA2
    variant: Variant = Relaxed()
    cap: int = DEFAULT_CAP

    def __post_init__(self) -> None:
        if not isinstance(self.strategy, Strategy):
            raise ValueError(f"strategy must be a Strategy, got {self.strategy!r}")
        if not isinstance(self.variant, Variant):
            raise ValueError(f"variant must be Strict, Relaxed or Local, got {self.variant!r}")
        if not 0 < self.kappa1 < math.inf:
            raise ValueError(f"kappa1 must be finite and positive, got {self.kappa1}")
        if not 0.5 < self.kappa2 < 1.0:
            raise ValueError(f"kappa2 must be in (1/2, 1), got {self.kappa2}")
        if not (isinstance(self.cap, (int, np.integer)) and self.cap >= 1):
            raise ValueError(f"cap must be a positive integer, got {self.cap}")

    @classmethod
    def binary(cls, cap: int = DEFAULT_CAP) -> "SearchConfig":
        return cls(strategy=Strategy.BINARY, cap=cap)

    @classmethod
    def interpolation(cls, cap: int = DEFAULT_CAP) -> "SearchConfig":
        return cls(strategy=Strategy.INTERPOLATION, cap=cap)

    @classmethod
    def itp(
        cls,
        variant: Variant = Relaxed(),
        kappa1: float = DEFAULT_KAPPA1,
        kappa2: float = DEFAULT_KAPPA2,
        cap: int = DEFAULT_CAP,
    ) -> "SearchConfig":
        return cls(
            strategy=Strategy.ITP,
            kappa1=kappa1,
            kappa2=kappa2,
            variant=variant,
            cap=cap,
        )


@dataclass(frozen=True, init=False)
class SearchOutcome:
    """Result of one search: located cell, probe count and trace."""

    k_star: int
    queries: int
    trace: tuple[int, ...]
    capped: bool = False

    def __init__(self, k_star: int, queries: int, trace: tuple[int, ...], capped: bool = False):
        # writes the instance dict: the generated frozen __init__ makes one
        # object.__setattr__ call per field, and took 1.2 us a construction
        # against 0.4 us for this on CPython 3.11
        fields = self.__dict__
        fields["k_star"] = k_star
        fields["queries"] = queries
        fields["trace"] = trace
        fields["capped"] = capped


def minmax_bound(n: int) -> int:
    """Worst-case query count of any minmax-optimal rule: ceil(log2 n)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return (n - 1).bit_length()


def interpolation_point(a: int, b: int, va: float, vb: float, z: float) -> float:
    """Linear interpolation of z between (a, va) and (b, vb).

    Takes a bracket of the probe rules' domain (``ProbeRule``), whose end
    values differ, so the line is defined; on keys that a ``SortedList``
    admits it is finite.  The result is clamped into [a, b] to shed float
    round-off.
    """
    x = (b * (va - z) - a * (vb - z)) / (va - vb)
    # min(max(x, a), b), without the cost of two builtin calls: an end that
    # clamps comes back as the int, and x on an end stays the float
    if x < a:
        x = a
    if x > b:
        x = b
    return x


def truncate(
    x_f: float, x_half: float, delta: int, kappa1: float, kappa2: float
) -> tuple[float, int]:
    """Nudge the interpolation point toward the midpoint by kappa1*delta**kappa2.

    Returns ``(x_t, sigma)`` where sigma is the direction sign from x_f toward
    x_half (0 when they coincide).  If the nudge would overshoot the midpoint,
    x_t is the midpoint itself.  For x_f in [a, b] and x_half = (a + b) / 2 of
    a bracket of the probe rules' domain (``ProbeRule``), x_t lies between x_f
    and x_half, by the proof below.
    """
    gap = x_half - x_f
    sigma = (gap > 0) - (gap < 0)
    step = kappa1 * delta**kappa2
    # A step within the rounded |gap| never rounds past x_half.  Take sigma =
    # +1.  Then g = x_half - x_f lies in (0, x_half], so the rounded |gap|
    # exceeds g by at most half an ulp of x_half, and x_f + step lies at most
    # that far above x_half.  x_half is a multiple of 1/2 below 2**51, so its
    # last significand bit is 0, and round-to-nearest-even resolves that tie
    # to x_half.  sigma = -1 is the mirror case.  At a power-of-two x_half the
    # float spacing below it halves; there g < x_half holds, so g's own
    # rounding is within half that spacing, or g = x_half exactly with no
    # rounding, and the same tie argument applies.  So x_t never passes
    # x_half, and a step equal to |gap| gives x_half itself.
    if step <= abs(gap):
        return x_f + sigma * step, sigma
    return x_half, sigma


def minmax_radius(j: int, delta: int, n_ref: float | None) -> float:
    """Half-width of the probe interval around the midpoint at iteration j.

    ``n_ref`` is the variant's radius anchor (``variant.n_ref(n)``).  Strict
    and Relaxed budget 2**(n_ref - j - 1) cells per side and subtract the
    half-bracket; negative values (exhausted budget, float drift) clamp to 0,
    which forces a plain midpoint step.  Local (``n_ref`` None) re-anchors to
    the current bracket width and is non-negative by construction.
    """
    if n_ref is None:
        exp = (delta - 1).bit_length() - 1
        return 2.0**exp - delta / 2
    r = 2.0 ** (n_ref - j - 1) - delta / 2
    return r if r > 0 else 0.0


def project(x_t: float, x_half: float, r: float, sigma: int) -> float:
    """Clamp x_t into [x_half - r, x_half + r], pulling back toward x_half."""
    if abs(x_t - x_half) <= r:
        return x_t
    return x_half - sigma * r


def round_toward_midpoint(x: float, x_half: float, a: int, b: int) -> int:
    """Nearest integer to x on its midpoint side, clamped into (a, b).

    Non-integer x rounds up when left of the midpoint and down when right of
    it; a non-integer x sitting exactly on the midpoint rounds down (fixed
    tie rule).  Callers guarantee b - a >= 2, so the interior is non-empty.
    """
    f = floor(x)
    if f == x:
        k = f
    elif x < x_half:
        k = f + 1
    else:
        k = f
    if k <= a:
        return a + 1
    if k >= b:
        return b - 1
    return k


def make_probe_fn(config: SearchConfig, n: int) -> ProbeRule:
    """The configured probe rule, bound to a list of size n.

    This is the one definition of each rule: ``search`` drives it over a real
    list, and the oracles drive it over synthetic brackets.
    """
    strategy = config.strategy
    if strategy is _BINARY:
        def binary(a: int, b: int, j: int, va: float, vb: float, z: float) -> int:
            return (a + b) // 2

        return binary

    if strategy is _INTERPOLATION:
        def interpolation(a: int, b: int, j: int, va: float, vb: float, z: float) -> int:
            x_f = interpolation_point(a, b, va, vb, z)
            return round_toward_midpoint(x_f, (a + b) / 2, a, b)

        return interpolation

    kappa1, kappa2 = config.kappa1, config.kappa2
    n_ref = config.variant.n_ref(n)

    def itp(a: int, b: int, j: int, va: float, vb: float, z: float) -> int:
        delta = b - a
        r = minmax_radius(j, delta, n_ref)
        if not r:  # project puts any x_t on x_half, which rounds down
            return (a + b) // 2
        x_half = (a + b) / 2
        x_f = interpolation_point(a, b, va, vb, z)
        x_t, sigma = truncate(x_f, x_half, delta, kappa1, kappa2)
        return round_toward_midpoint(project(x_t, x_half, r, sigma), x_half, a, b)

    return itp


def _descend(v, z, probe, cap, a, b, j, va, vb, trace):
    """The search loop, from bracket (a, b) with end values (va, vb) at
    iteration j; each probe is appended to ``trace``.

    Returns ``(k_star, queries, capped)``.  ``search`` runs it from the start,
    and ``search_block`` runs it to finish the lanes its lockstep loop leaves.
    ``v`` is a float64 array, so ``v.item(k)`` is the Python float
    ``float(v[k])``, read without making a numpy scalar, or, for
    ``search_block``'s drawn rows, an ``_OrderStatistics`` over an unsorted
    row, which reads the floats a sort would put there.
    """
    key = v.item
    append = trace.append
    while b - a > 1:
        if j >= cap:
            return a, j, True
        k = probe(a, b, j, va, vb, z)
        v_k = key(k)
        append(k)
        j += 1
        if v_k > z:
            b, vb = k, v_k
        elif v_k < z:
            a, va = k, v_k
        else:  # exact hit: the cell (k, k+1) holds z
            a, b = k, k + 1
    return a, j, False


class _OrderStatistics:
    """A key source for ``_descend`` over an unsorted row whose two ends hold
    its smallest and largest keys: ``item(k)`` is the row's k-th order
    statistic, the value ``np.sort`` would put at k.  ``search_block`` reads
    its drawn rows through one of these per row, shared by the row's lanes,
    when its scalar loop finishes every lane.

    A search reads a few dozen keys of a row, so sorting all of it is mostly
    wasted.  The ends count as resolved from the start.  A read of an
    unresolved k partitions only the segment between its nearest resolved
    neighbours, which puts the k-th smallest key at k with smaller keys
    before it and larger after (Hoare's selection, ``ndarray.partition``),
    and records k as resolved.  A read order that keeps partitioning long
    segments, such as one creeping in from an end, would cost more than a
    sort: once the partitioned keys reach 4 n, the row is sorted and every
    index counts as resolved.  The row is reordered in place.  The rows of
    ``sweep_n`` at n = 2e5 with four rules partition a median 2.3-2.8 n;
    without the bound, one 568-probe interpolation search of a Gaussian row
    partitioned 300 n keys in 118 ms, and with it 6 ms.
    """

    # no bound method is stored: that cycle would keep the row alive until
    # the cyclic collector ran
    __slots__ = ("_row", "_resolved", "_budget")

    def __init__(self, row: np.ndarray):
        self._row = row
        self._resolved = [0, row.size - 1]  # ascending
        self._budget = 4 * (row.size - 1)

    def item(self, k: int) -> float:
        resolved = self._resolved
        i = bisect_left(resolved, k)
        if resolved[i] != k:
            lo, hi = resolved[i - 1], resolved[i]
            segment = self._row[lo + 1 : hi]
            segment.partition(k - lo - 1)
            resolved.insert(i, k)
            self._budget -= segment.size
            if self._budget <= 0:
                self._row.sort()
                self._resolved = range(self._row.size)
        return self._row.item(k)


def search(lst: SortedList, z: float, config: SearchConfig) -> SearchOutcome:
    """Locate k with values[k] <= z <= values[k+1] and count the probes.

    Requires values[0] <= z <= values[n].  On distinct keys the result k*
    satisfies values[k*] <= z < values[k*+1], except z == values[n] which
    settles on n - 1 (the largest cell).  z == values[0] is answered from
    the cached endpoint with zero queries.  If the probe budget ``config.cap``
    runs out first, the outcome carries the current lower index and
    ``capped=True``.
    """
    v = lst.values
    n = lst.n
    v0 = v.item(0)
    vn = v.item(n)
    if not v0 <= z <= vn:
        raise ValueError(f"target {z} outside key range [{v0}, {vn}]")
    if z == v0:
        return SearchOutcome(0, 0, ())
    z = float(z)  # a numpy scalar would turn truncate's sign into numpy booleans
    trace: list[int] = []
    k_star, queries, capped = _descend(
        v, z, make_probe_fn(config, n), config.cap, 0, n, 0, v0, vn, trace
    )
    # positional: a keyword call costs about 0.35 us more
    return SearchOutcome(k_star, queries, tuple(trace), capped)


# search_block's lockstep loop stops once this few lanes are open, and the
# scalar loop finishes them; a block of no more lanes never enters the loop.
# With 48 lanes on 2e5 uniform keys, one lockstep iteration costs 47-81 us for
# binary, 56-102 us for interpolation and 65-104 us for ITP, the call's set-up
# shared in, against 0.4-0.8 us a scalar probe for binary, 1.2-2.3 us for
# interpolation and 1.9-3.6 us for ITP (2-vCPU VM whose speed swings, two
# runs).  Interpolation's slowest targets take ten times its median probe
# count, so its tail is cheaper in the scalar loop.  Measured per call, in 200
# interleaved rounds, on 200-target four-rule searches of 2e5 text keys and on
# 80-config ITP-Strict blocks of three 2e5-key lists: against 48, 32 took
# 1.022 and 0.994 of the time, 64 took 0.997 and 1.048, and 96 took 0.996 and
# 1.161, so 48 stays.  On the six-list blocks such a sweep now runs (bench's
# BLOCK_BYTES), in 10 interleaved rounds on an idle CPU, 24 took 0.988 of the
# time (faster in 6 rounds), 32 0.976 (8), 64 1.031 (2) and 96 1.111 (1); on a
# loaded one 32 took 0.980 (6).  No value won 9 of 10, so 48 still stays.
SCALAR_FINISH = 48

# search_block drops its closed lanes from the lane arrays once this share of
# them has closed; until then a closed lane rides along as a fixed point of
# the step.  On the same two blocks, in two runs, against 1/4, compacting at
# 1/8 took 1.012-1.015 and 1.035-1.039 of the time, at 3/8 0.986-0.987 and
# 0.980-0.981, and at 1/2 0.995-0.997 and 0.975-0.978.  On six-list kappa
# blocks, against 3/8 in 10 interleaved rounds, 1/4 took 1.025 (faster in 4
# rounds) and 1/2 0.972 (8), and on a loaded CPU 1.019 (1) and 0.990 (7):
# neither won 9 of 10, so 3/8 stays.
COMPACT = 0.375


def search_many(lst: SortedList, zs, config: SearchConfig):
    """``search`` for every target in ``zs`` at once, without traces.

    Returns ``(k_star, queries, capped)`` arrays that equal, lane by lane, the
    fields of ``search(lst, z, config)``, and raises the same ValueError for
    the first target outside the key range.  It is ``search_block`` with one
    row, the checked keys of ``lst``, and one config.
    """
    zs = _float64(zs)
    if zs.ndim != 1:
        raise ValueError("targets must be one-dimensional")
    k_star, queries, capped = search_block(lst.values[np.newaxis], zs[np.newaxis], [config])
    return k_star[0, 0], queries[0, 0], capped[0, 0]


def search_block(block, zs, configs: Sequence[SearchConfig], *, drawn: bool = False):
    """``search`` for every (config, row, target) lane at once, without traces.

    ``block`` is an ``(R, n + 1)`` array whose rows are sorted key lists, and
    row r of the ``(R, T)`` array ``zs`` holds the targets to search on row r.
    Returns ``(k_star, queries, capped)`` arrays of shape ``(C, R, T)``: entry
    ``[c, r, t]`` equals the field of ``search(SortedList(block[r]), zs[r, t],
    configs[c])``.  The first target (row by row) outside its row's key range
    raises search's ValueError.  The rows themselves are not checked: each
    must hold what a ``SortedList`` holds, finite non-decreasing keys within
    its magnitude bound, and a row with a NaN, out of order or beyond the
    bound is searched without a word.

    With ``drawn=True`` the rows are drawn, not sorted: each row's two ends
    hold its smallest and largest keys and its interior may be in any order,
    and the outcomes are those of the sorted rows.  The rows may be reordered
    in place.  The lockstep loop, which gathers keys by index, sorts the
    interiors before it starts; lanes that never enter it (no more than
    ``SCALAR_FINISH`` lanes searched) read each row through one
    ``_OrderStatistics``, shared by its lanes, which partitions only what the
    searches read, and a row that no lane reads stays as drawn.  Rows that
    are already sorted need the default, which never reorders them; a
    ``SortedList``'s read-only keys refuse ``drawn=True``.

    Each config gives its lanes one row (kappa1, kappa2, n_ref): an ITP
    config its kappas and radius anchor ``variant.n_ref(n)`` (NaN for
    Local), binary (0, 0, -inf) and interpolation (0, 0, +inf).  Every open
    bracket advances one probe per iteration of one numpy loop.  Each
    iteration evaluates the itp step once over all lanes: the truncation step
    is kappa1 * delta**kappa2, which is 0 * 1 = 0 where kappa2 is 0, and the
    half-width of the minmax radius is 2**(n_ref - j - 1), 0 for binary and
    unbounded for interpolation, or on a Local lane the bit-length width of
    its bracket.  Both powers are taken by ``np.float_power``, which calls C
    pow as ``**`` does (``np.power`` can differ in the last bit), so binary
    and interpolation come out bit for bit.  On every lane va < z <= vb, so
    within the magnitude bound x_f is finite.  A step of 0 leaves x_t = x_f:
    where sigma is 0, x_t is x_half, which equals x_f.  An unbounded radius
    keeps x_t, and a radius of 0 gives x_half - sigma * 0 = x_half, which
    rounds to (a + b) // 2: the probe the scalar rule returns there at once,
    while this loop evaluates the whole step on the lane.  The loop's cost is
    in its numpy calls more than in its lanes, so the brackets are float64,
    which holds every index below 2**53 exactly and needs no casts between
    the integer and float arithmetic.  A closed bracket is a fixed point of the step (its probe
    clamps to a, which moves nothing, and an exact hit hits again), so closed
    lanes stay in the arrays, their probe counts frozen, until ``COMPACT`` of
    the lanes has closed.  The loop runs while more than ``SCALAR_FINISH``
    lanes are open and stops at the smallest cap.  The scalar loop finishes
    every lane that is left, from that lane's own probe count, so ``search``'s
    loop is the only code that spends a cap.  A cap below the search depth,
    shared or not, is searched more slowly for it, since its lanes pass
    through the scalar loop one by one (``BENCH_18.json`` ``library_cases``
    has the figures).
    """
    block = np.asarray(block, dtype=np.float64)
    zs = _float64(zs)
    if block.ndim != 2 or block.shape[1] < 2:
        raise ValueError("keys must be a 2-D block of rows of at least 2 values")
    rows, size = block.shape
    n = size - 1
    if zs.ndim != 2 or zs.shape[0] != rows:
        raise ValueError("targets must be a 2-D array with one row per key row")
    v0 = block[:, :1]
    vn = block[:, n:]
    outside = ~((v0 <= zs) & (zs <= vn))
    if outside.any():
        r, t = np.unravel_index(np.argmax(outside), zs.shape)
        raise ValueError(
            f"target {zs[r, t].item()} outside key range [{v0[r, 0].item()}, {vn[r, 0].item()}]"
        )
    shape = (len(configs), rows, zs.shape[1])
    k_star = np.zeros(shape, dtype=np.int64)
    queries = np.zeros(shape, dtype=np.int64)
    capped = np.zeros(shape, dtype=bool)
    if n == 1 or not configs:  # every bracket starts closed, or there are no lanes
        return k_star, queries, capped

    searched = np.flatnonzero(zs != v0)  # z == values[0] costs no query
    # Lane i searches z[i] with configs[c[i]] on the keys flat[base[i] :
    # base[i] + n + 1] and writes its outcome at index lane[i] of the flattened
    # outputs, which is its (config, row, target).  The brackets a and b are
    # float64, q counts each lane's probes, and live marks the lanes still open.
    flat = np.ascontiguousarray(block).reshape(-1)
    k_out, q_out, capped_out = k_star.reshape(-1), queries.reshape(-1), capped.reshape(-1)
    c = np.repeat(np.arange(len(configs)), searched.size)
    lane = c * zs.size + np.concatenate((searched,) * len(configs))
    base = np.concatenate((searched // zs.shape[1] * size,) * len(configs))
    z = np.concatenate((zs.reshape(-1)[searched],) * len(configs))
    a = np.zeros(lane.size)
    b = np.full(lane.size, float(n))
    va, vb = flat[base], flat[base + n]
    q = np.zeros(lane.size, dtype=np.int64)
    live_count = lane.size
    j = 0
    if live_count > SCALAR_FINISH:
        if drawn:  # the loop gathers keys by index, so it reads sorted interiors
            flat.reshape(rows, size)[:, 1:-1].sort(axis=1)
        # each config's row (kappa1, kappa2, n_ref); Local's None becomes NaN
        kappa1s, kappa2s, anchors = np.array([
            (0.0, 0.0, -math.inf) if config.strategy is Strategy.BINARY
            else (0.0, 0.0, math.inf) if config.strategy is Strategy.INTERPOLATION
            else (config.kappa1, config.kappa2, config.variant.n_ref(n))
            for config in configs
        ], dtype=np.float64).T  # fmt: skip
        local = np.isnan(anchors).any()
        first_cap = min(config.cap for config in configs)
        live = np.ones(lane.size, dtype=bool)
        delta = b - a
        # a huge kappa1 overflows the step to inf, as it does in truncate, and an
        # interpolation lane with sigma 0 projects to x_half - 0 * inf, a NaN that
        # the projection discards (its x_t is x_half, inside the unbounded radius)
        with np.errstate(over="ignore", invalid="ignore"):
            while live_count > SCALAR_FINISH and j < first_cap:
                x_half = (a + b) / 2
                # interpolation_point
                d = va - vb
                x_f = (b * (va - z) - a * (vb - z)) / d
                x_f = np.minimum(np.maximum(x_f, a), b)
                # truncate, each operation the scalar rule's IEEE operation (np.power
                # differs from C pow in the last bit for about 5% of deltas); by the
                # proof at truncate, a step within |gap| does not pass x_half
                gap = x_half - x_f
                sigma = np.sign(gap)
                step = kappa1s[c] * np.float_power(delta, kappa2s[c])
                x_t = x_f + sigma * step
                np.putmask(x_t, ~(step <= np.abs(gap)), x_half)
                # minmax_radius, from each lane's half-width 2 ** (n_ref - j - 1)
                width = np.float_power(2.0, anchors - j - 1)[c]
                if local:  # Local: 2 ** (bit_length(delta - 1) - 1), on NaN widths
                    unset = np.isnan(width)
                    width[unset] = np.ldexp(1.0, np.frexp(delta[unset] - 1)[1] - 1)
                r = np.maximum(width - delta / 2, 0.0)
                # project
                np.putmask(x_t, np.abs(x_t - x_half) > r, x_half - sigma * r)
                # round_toward_midpoint, then into (a, b)
                f = np.floor(x_t)
                k = f + ((f != x_t) & (x_t < x_half))
                k = np.minimum(np.maximum(k, a + 1), b - 1)
                v_k = flat[base + k.astype(np.int64)]
                above = v_k > z
                below = v_k < z
                # the bracket arrays are this loop's own copies: update them in place
                # (a takes k where v_k < z, and on an exact hit)
                np.putmask(b, above, k)
                np.putmask(vb, above, v_k)
                np.putmask(a, below, k)
                np.putmask(va, below, v_k)
                hit = v_k == z
                if hit.any():  # exact hit: the cell (k, k+1)
                    np.putmask(a, hit, k)
                    np.putmask(b, hit, k + 1)
                q += live
                j += 1
                delta = b - a
                live = delta > 1
                live_count = np.count_nonzero(live)
                if lane.size - live_count >= COMPACT * lane.size:  # drop the closed lanes
                    stop = ~live
                    done = lane[stop]
                    k_out[done] = a[stop]
                    q_out[done] = q[stop]
                    lane, c, base, z, q = lane[live], c[live], base[live], z[live], q[live]
                    a, b, va, vb, delta = a[live], b[live], va[live], vb[live], delta[live]
                    live = live[live]
    probes = {ci: make_probe_fn(configs[ci], n) for ci in set(c.tolist())}
    # each row's keys, shared by its lanes: a drawn row that the loop never
    # sorted is read on demand, any other row as it is
    source = _OrderStatistics if drawn and not j else np.asarray
    rows_at = {start: source(flat[start : start + size]) for start in set(base.tolist())}
    lanes = zip(
        lane.tolist(), c.tolist(), base.tolist(), z.tolist(), q.tolist(),
        a.astype(np.int64).tolist(), b.astype(np.int64).tolist(), va.tolist(), vb.tolist(),
    )  # fmt: skip
    for i, ci, start, zi, qi, ai, bi, vai, vbi in lanes:
        k_out[i], q_out[i], capped_out[i] = _descend(
            rows_at[start], zi, probes[ci], configs[ci].cap, ai, bi, qi, vai, vbi, []
        )
    return k_star, queries, capped
