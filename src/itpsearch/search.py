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
both drive it.  ``search_block`` searches lanes of (list, target, config) in
lockstep with numpy, in one loop where each rule runs on its own lanes, and
``search_many`` is its one-list, one-config case; its array form of each
rule repeats the scalar arithmetic operation by operation, and differential
tests hold the two equal.  Endpoint values are cached with the bracket, so a
search is charged one query per interior probe only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
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
# bracket (a, b) with end values (va, vb) at iteration j.
ProbeRule = Callable[[int, int, int, float, float, float], int]


class Strategy(Enum):
    BINARY = "binary"
    INTERPOLATION = "interpolation"
    ITP = "itp"


@dataclass(frozen=True)
class Strict:
    """Minmax radius anchored to ceil(log2 n) of the searched list."""

    label = "strict"

    def n_ref(self, n: int) -> float:
        return float(minmax_bound(n))


@dataclass(frozen=True)
class Relaxed:
    """Minmax radius anchored to the budget n_max = ceil(log2 n) + extra.

    The slack ``extra`` is finite and >= 0.  A non-integer budget is allowed;
    the worst case is then ceil(n_max).
    """

    label = "relaxed"
    extra: float = DEFAULT_NMAX_EXTRA

    def __post_init__(self) -> None:
        if not 0 <= self.extra < math.inf:
            raise ValueError(f"extra must be finite and >= 0, got {self.extra}")

    def n_ref(self, n: int) -> float:
        return minmax_bound(n) + self.extra


@dataclass(frozen=True)
class Local:
    """Minmax radius anchored to ceil(log2 delta) of the current bracket."""

    label = "local"

    def n_ref(self, n: int) -> None:
        return None


Variant = Strict | Relaxed | Local


class SortedList:
    """A non-decreasing vector of finite keys, length n + 1, indexed 0..n.

    ``validate`` rejects NaN, infinities, decreasing keys and integer keys
    that float64 cannot hold exactly (such as 2**53 + 1).
    """

    __slots__ = ("values", "n")

    def __init__(self, values, validate: bool = True):
        arr = np.asarray(values, dtype=np.float64)
        if arr.ndim != 1:
            raise ValueError("values must be one-dimensional")
        if arr.size < 2:
            raise ValueError(f"need at least 2 values, got {arr.size}")
        if validate:
            if not np.isfinite(arr).all():
                raise ValueError("values must be finite (no NaN or inf)")
            if np.any(arr[1:] < arr[:-1]):
                raise ValueError("values must be non-decreasing")
            # an integer key of magnitude >= 2**53 may have rounded to a neighbour
            big = np.abs(arr) >= 2.0**53
            if big.any():
                keys = np.asarray(values, dtype=object)[big]
                for key, cast in zip(keys, arr[big].tolist()):
                    if isinstance(key, (int, np.integer)) and int(key) != int(cast):
                        raise ValueError(f"integer key {int(key)} is not exact in float64")
        self.values = arr
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
    variant: Variant = field(default_factory=Relaxed)
    cap: int = DEFAULT_CAP

    def __post_init__(self) -> None:
        if not 0 < self.kappa1 < math.inf:
            raise ValueError(f"kappa1 must be finite and positive, got {self.kappa1}")
        if not 0.5 < self.kappa2 < 1.0:
            raise ValueError(f"kappa2 must be in (1/2, 1), got {self.kappa2}")
        if self.cap < 1:
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
        variant: Variant | None = None,
        kappa1: float = DEFAULT_KAPPA1,
        kappa2: float = DEFAULT_KAPPA2,
        cap: int = DEFAULT_CAP,
    ) -> "SearchConfig":
        return cls(
            strategy=Strategy.ITP,
            kappa1=kappa1,
            kappa2=kappa2,
            variant=Relaxed() if variant is None else variant,
            cap=cap,
        )


@dataclass(frozen=True)
class SearchOutcome:
    """Result of one search: located cell, probe count and trace."""

    k_star: int
    queries: int
    trace: tuple[int, ...]
    capped: bool = False


def minmax_bound(n: int) -> int:
    """Worst-case query count of any minmax-optimal rule: ceil(log2 n)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return (n - 1).bit_length()


def interpolation_point(a: int, b: int, va: float, vb: float, z: float) -> float:
    """Linear interpolation of z between (a, va) and (b, vb).

    Falls back to the midpoint when va == vb (flat bracket, e.g. duplicate
    keys), where the interpolation line is undefined.  When the arithmetic
    overflows float64 (keys near +-1.7e308, where va - vb can be -inf), the
    point is recomputed from halved keys, whose differences cannot overflow.
    The result is clamped into [a, b] to shed float round-off.
    """
    if va == vb:
        return (a + b) / 2
    d = va - vb
    x = (b * (va - z) - a * (vb - z)) / d
    if not (math.isfinite(x) and math.isfinite(d)):
        x = a + (b - a) * ((z / 2 - va / 2) / (vb / 2 - va / 2))
    return min(max(x, a), b)


def truncate(
    x_f: float, x_half: float, delta: int, kappa1: float, kappa2: float
) -> tuple[float, int]:
    """Nudge the interpolation point toward the midpoint by kappa1*delta**kappa2.

    Returns ``(x_t, sigma)`` where sigma is the direction sign from x_f toward
    x_half (0 when they coincide).  If the nudge would overshoot the midpoint,
    x_t is the midpoint itself, so |x_t - x_half| <= |x_f - x_half| always.
    The overshoot test is made on the rounded x_t as well as on the step:
    ``x_f + sigma * step`` can round onto the far side of x_half even when
    step <= |gap| (e.g. x_f=0.75, x_half=5e-324, step=0.75 gives 0.0).
    """
    gap = x_half - x_f
    sigma = (gap > 0) - (gap < 0)
    step = kappa1 * delta**kappa2
    if step <= abs(gap):
        x_t = x_f + sigma * step
        if (x_t < x_half) if sigma > 0 else (x_t > x_half):
            return x_t, sigma
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
    f = math.floor(x)
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
    if config.strategy is Strategy.BINARY:
        def binary(a: int, b: int, j: int, va: float, vb: float, z: float) -> int:
            return (a + b) // 2

        return binary

    if config.strategy is Strategy.INTERPOLATION:
        def interpolation(a: int, b: int, j: int, va: float, vb: float, z: float) -> int:
            x_f = interpolation_point(a, b, va, vb, z)
            return round_toward_midpoint(x_f, (a + b) / 2, a, b)

        return interpolation

    kappa1, kappa2 = config.kappa1, config.kappa2
    n_ref = config.variant.n_ref(n)

    def itp(a: int, b: int, j: int, va: float, vb: float, z: float) -> int:
        x_half = (a + b) / 2
        delta = b - a
        x_f = interpolation_point(a, b, va, vb, z)
        x_t, sigma = truncate(x_f, x_half, delta, kappa1, kappa2)
        x_itp = project(x_t, x_half, minmax_radius(j, delta, n_ref), sigma)
        return round_toward_midpoint(x_itp, x_half, a, b)

    return itp


def _descend(v, z, probe, cap, a, b, j, va, vb, trace):
    """The search loop, from bracket (a, b) with end values (va, vb) at
    iteration j; each probe is appended to ``trace``.

    Returns ``(k_star, queries, capped)``.  ``search`` runs it from the start,
    and ``search_block`` runs it to finish the lanes its lockstep loop leaves.
    """
    while b - a > 1:
        if j >= cap:
            return a, j, True
        k = probe(a, b, j, va, vb, z)
        v_k = float(v[k])
        trace.append(k)
        j += 1
        if v_k > z:
            b, vb = k, v_k
        elif v_k < z:
            a, va = k, v_k
        else:  # exact hit: the cell (k, k+1) holds z
            a, b = k, k + 1
    return a, j, False


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
    v0 = float(v[0])
    vn = float(v[n])
    if not v0 <= z <= vn:
        raise ValueError(f"target {z} outside key range [{v0}, {vn}]")
    if z == v0:
        return SearchOutcome(k_star=0, queries=0, trace=())
    z = float(z)  # a numpy scalar would turn truncate's sign into numpy booleans
    trace: list[int] = []
    k_star, queries, capped = _descend(
        v, z, make_probe_fn(config, n), config.cap, 0, n, 0, v0, vn, trace
    )
    return SearchOutcome(k_star=k_star, queries=queries, trace=tuple(trace), capped=capped)


# search_block's lockstep loop stops once this few lanes are live, and the
# scalar loop finishes them; a block of no more lanes never enters the loop.
# With few lanes live, one lockstep iteration costs as much as 20 to 40 scalar
# probes of the same rule (2-vCPU VM: binary 15-30 us against 0.4-0.8 us a
# probe, interpolation 45-75 us against 2.2-2.5 us, ITP 65-95 us against
# 2.7-3.6 us), and interpolation's slowest targets take ten times its median
# probe count, so its tail is cheaper in the scalar loop.
SCALAR_FINISH = 24


def search_many(lst: SortedList, zs, config: SearchConfig):
    """``search`` for every target in ``zs`` at once, without traces.

    Returns ``(k_star, queries, capped)`` arrays that equal, lane by lane, the
    fields of ``search(lst, z, config)``, and raises the same ValueError for
    the first target outside the key range.  It is ``search_block`` with one
    row and one config.
    """
    zs = np.asarray(zs, dtype=np.float64)
    if zs.ndim != 1:
        raise ValueError("targets must be one-dimensional")
    k_star, queries, capped = search_block(lst.values[np.newaxis], zs[np.newaxis], [config])
    return k_star[0, 0], queries[0, 0], capped[0, 0]


def search_block(block, zs, configs: Sequence[SearchConfig]):
    """``search`` for every (config, row, target) lane at once, without traces.

    ``block`` is an ``(R, n + 1)`` array whose rows are sorted key lists, and
    row r of the ``(R, T)`` array ``zs`` holds the targets to search on row r.
    Returns ``(k_star, queries, capped)`` arrays of shape ``(C, R, T)``: entry
    ``[c, r, t]`` equals the field of ``search(SortedList(block[r]), zs[r, t],
    configs[c])``.  The first target (row by row) outside its row's key range
    raises search's ValueError.

    The configs are grouped by probe rule (strategy, and variant for ITP), so
    a group's lanes share the radius anchor while their kappas and caps may
    differ.  Every live bracket advances one probe per iteration of one numpy
    loop, in which each group's rule runs on its own lanes, and retires as it
    closes or reaches its cap.  The loop runs while more than ``SCALAR_FINISH``
    lanes are live, and the scalar loop finishes the rest.
    """
    block = np.asarray(block, dtype=np.float64)
    zs = np.asarray(zs, dtype=np.float64)
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
    groups: dict = {}
    for i, config in enumerate(configs):
        variant = config.variant if config.strategy is Strategy.ITP else None
        groups.setdefault((config.strategy, variant), []).append(i)
    members = [i for group in groups.values() for i in group]
    # Lane i searches z[i] with configs[c[i]] on the keys flat[base[i] :
    # base[i] + n + 1] and writes its outcome at index lane[i] of the flattened
    # outputs, which is its (config, row, target).  The lanes are ordered by
    # probe rule: group g holds the lanes edges[g]:edges[g + 1] and runs
    # rules[g].  Retirement keeps the order, so each group stays one slice.
    rules = [_lockstep_rule(configs, group[0], n) for group in groups.values()]
    edges = [0, *np.cumsum([len(group) * searched.size for group in groups.values()]).tolist()]
    spans = list(zip(rules, edges, edges[1:]))  # the groups with lanes left
    flat = np.ascontiguousarray(block).reshape(-1)
    k_out, q_out, capped_out = k_star.reshape(-1), queries.reshape(-1), capped.reshape(-1)
    c = np.repeat(members, searched.size)
    lane = c * zs.size + np.concatenate((searched,) * len(members))
    base = np.concatenate((searched // zs.shape[1] * size,) * len(members))
    z = np.concatenate((zs.reshape(-1)[searched],) * len(members))
    caps = np.array([config.cap for config in configs])
    first_cap = int(caps.min())
    a = np.zeros(lane.size, dtype=np.int64)
    b = np.full(lane.size, n, dtype=np.int64)
    va, vb = flat[base], flat[base + n]
    j = 0
    # the interpolation line overflows on keys near +-1.7e308, and its redo
    # branch handles those lanes
    with np.errstate(over="ignore", invalid="ignore"):
        while lane.size > SCALAR_FINISH:
            k = np.concatenate([
                rule(a[lo:hi], b[lo:hi], j, va[lo:hi], vb[lo:hi], z[lo:hi], c[lo:hi])
                for rule, lo, hi in spans
            ])  # fmt: skip
            v_k = flat[base + k]
            above = v_k > z
            below = v_k < z
            # the bracket arrays are this loop's own copies: update them in place
            np.putmask(b, above, k)
            np.putmask(vb, above, v_k)
            np.putmask(a, ~above, k)
            np.putmask(va, below, v_k)
            np.putmask(b, v_k == z, k + 1)  # exact hit: the cell (k, k+1)
            j += 1
            # retire closed brackets, then open ones whose cap is spent, as _descend does
            stop = b - a <= 1
            if j >= first_cap:
                spent = ~stop & (caps[c] <= j)
                capped_out[lane[spent]] = True
                stop |= spent
            if stop.any():
                done = lane[stop]
                k_out[done] = a[stop]
                q_out[done] = j
                # each edge moves back by the lanes retired before it
                edges = (edges - np.searchsorted(np.flatnonzero(stop), edges)).tolist()
                spans = [span for span in zip(rules, edges, edges[1:]) if span[1] < span[2]]
                keep = ~stop
                lane, c, base, z = lane[keep], c[keep], base[keep], z[keep]
                a, b, va, vb = a[keep], b[keep], va[keep], vb[keep]
    probes = {ci: make_probe_fn(configs[ci], n) for ci in set(c.tolist())}
    lanes = zip(
        lane.tolist(), c.tolist(), base.tolist(), z.tolist(),
        a.tolist(), b.tolist(), va.tolist(), vb.tolist(),
    )  # fmt: skip
    for i, ci, start, zi, ai, bi, vai, vbi in lanes:
        k_out[i], q_out[i], capped_out[i] = _descend(
            flat[start : start + n + 1], zi, probes[ci], configs[ci].cap, ai, bi, j, vai, vbi, []
        )
    return k_star, queries, capped


def _lockstep_rule(configs: Sequence[SearchConfig], i: int, n: int):
    """``make_probe_fn``'s rule for the strategy and variant of ``configs[i]``,
    over arrays of brackets sharing iteration j; lane by lane, ``c`` picks
    the config whose kappas apply.

    Each step is the same IEEE operation as in the scalar rule.  The one
    exception numpy cannot match is ``delta ** kappa2``: ``np.power`` differs
    from C ``pow`` in the last bit for about 5% of deltas, so that power is
    taken with Python's ``pow``, lane by lane (the product with kappa1 is one
    IEEE multiply in numpy as in Python).
    """
    config = configs[i]
    if config.strategy is Strategy.BINARY:
        return lambda a, b, j, va, vb, z, c: (a + b) // 2

    if config.strategy is Strategy.INTERPOLATION:
        def interpolation(a, b, j, va, vb, z, c):
            x_f = _interpolation_points(a, b, va, vb, z)
            return _round_toward_midpoints(x_f, (a + b) / 2, a, b)

        return interpolation

    n_ref = config.variant.n_ref(n)
    kappa1s = np.array([config.kappa1 for config in configs])
    kappa2s = np.array([config.kappa2 for config in configs])

    def itp(a, b, j, va, vb, z, c):
        x_half = (a + b) / 2
        delta = b - a
        x_f = _interpolation_points(a, b, va, vb, z)
        # truncate
        gap = x_half - x_f
        sigma = np.sign(gap)
        powers = map(pow, delta.tolist(), kappa2s[c].tolist())
        step = kappa1s[c] * np.fromiter(powers, np.float64, delta.size)
        x_t = x_f + sigma * step
        short = np.where(sigma > 0, x_t < x_half, x_t > x_half)
        x_t = np.where((step <= np.abs(gap)) & short, x_t, x_half)
        # minmax_radius
        if n_ref is None:
            exp = np.frexp((delta - 1).astype(np.float64))[1] - 1  # bit_length - 1
            r = np.ldexp(1.0, exp) - delta / 2
        else:
            r = 2.0 ** (n_ref - j - 1) - delta / 2
            r = np.where(r > 0, r, 0.0)
        # project
        x_itp = np.where(np.abs(x_t - x_half) <= r, x_t, x_half - sigma * r)
        return _round_toward_midpoints(x_itp, x_half, a, b)

    return itp


def _interpolation_points(a, b, va, vb, z):
    """``interpolation_point`` over arrays of live brackets.

    A live lane has va < z <= vb (va only ever takes a key below z), so the
    flat-bracket midpoint never applies.  The caller ignores numpy's overflow
    and invalid warnings (``np.errstate``): lanes whose line overflows are
    redone from halved keys.
    """
    d = va - vb
    x = (b * (va - z) - a * (vb - z)) / d
    redo = ~(np.isfinite(x) & np.isfinite(d))
    if redo.any():
        ar, br, var, vbr, zr = a[redo], b[redo], va[redo], vb[redo], z[redo]
        x[redo] = ar + (br - ar) * ((zr / 2 - var / 2) / (vbr / 2 - var / 2))
    return np.minimum(np.maximum(x, a), b)


def _round_toward_midpoints(x, x_half, a, b):
    """``round_toward_midpoint`` over arrays, as int64 indices."""
    f = np.floor(x)
    k = np.where((f != x) & (x < x_half), f + 1, f).astype(np.int64)
    return np.minimum(np.maximum(k, a + 1), b - 1)
