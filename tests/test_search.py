"""Core search: operation examples, invariants, and property tests."""

import dataclasses
import hashlib
import importlib
import itertools
import math
import pickle
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from itpsearch import cli, oracle
from itpsearch.bench import TABLE1_KAPPA1, TABLE1_KAPPA2
from itpsearch.distributions import (
    Exponential,
    Gaussian,
    Step,
    Triangular,
    Uniform,
    sample_list,
    sample_target,
)
from itpsearch.keycodec import encode_base27
from itpsearch.oracle import linear_scan
from itpsearch.search import (
    DEFAULT_CAP,
    DEFAULT_KAPPA2,
    Local,
    Relaxed,
    SearchConfig,
    SearchOutcome,
    SortedList,
    Strategy,
    Strict,
    interpolation_point,
    make_probe_fn,
    minmax_bound,
    minmax_radius,
    project,
    round_toward_midpoint,
    search,
    search_block,
    search_many,
    truncate,
)

# the module, not the function the package re-exports under the same name
search_module = importlib.import_module("itpsearch.search")

RAMP_1024 = SortedList(np.arange(1025) / 1024)


def _edge(n):
    """The largest key magnitude a SortedList of n + 1 keys admits: the M
    with n * M < 2**1020 <= n * nextafter(M, inf)."""
    m = 2.0**1020 / n
    while n * m >= 2.0**1020:
        m = math.nextafter(m, 0)
    while n * math.nextafter(m, math.inf) < 2.0**1020:
        m = math.nextafter(m, math.inf)
    return m


EDGE_4 = _edge(4)


def _shrink(a, b, k, lst, z):
    """The bracket left after probing k, by the update rule search applies."""
    v_k = lst[k]
    if v_k > z:
        return a, k
    if v_k < z:
        return k, b
    return k, k + 1


def test_minmax_bound_examples():
    assert minmax_bound(17) == 5
    assert minmax_bound(2) == 1
    assert minmax_bound(200_000) == 18
    assert minmax_bound(1) == 0
    with pytest.raises(ValueError):
        minmax_bound(0)


def test_interpolation_point_examples():
    assert interpolation_point(0, 10, 0.0, 1.0, 0.3) == 3.0
    assert interpolation_point(2, 6, 0.2, 0.6, 0.5) == pytest.approx(5.0)
    # keys at the largest magnitude a SortedList of 5 keys admits: no term of
    # the line overflows, over the whole span or over half of it
    assert interpolation_point(0, 4, -EDGE_4, EDGE_4, 0.0) == 2.0
    assert interpolation_point(0, 4, -EDGE_4, EDGE_4, 0.5 * EDGE_4) == pytest.approx(3.0)
    assert interpolation_point(2, 4, 0.0, EDGE_4, 0.75 * EDGE_4) == pytest.approx(3.5)


@pytest.mark.parametrize(
    "z, expected",
    [
        (0.0, 2),  # the line lies below a: clamped to the int end
        (6.0, 6),  # above b: clamped to the int end
        (1.0, 2.0),  # exactly on a: the float is kept
        (5.0, 6.0),  # exactly on b
        (3.0, 4.0),  # inside
    ],
)
def test_interpolation_point_clamp_edges(z, expected):
    # the line through (2, 1.0) and (6, 5.0) is x = z + 1, exact in float64
    x = interpolation_point(2, 6, 1.0, 5.0, z)
    assert x == expected
    assert type(x) is type(expected)


def test_interpolation_point_keeps_negative_zero():
    # the line meets a = 0 as -0.0 (0.0 / -4.0), which the clamp keeps
    x = interpolation_point(0, 4, 1.0, 5.0, 1.0)
    assert type(x) is float
    assert math.copysign(1.0, x) == -1.0


def test_truncate_examples():
    x_t, sigma = truncate(3.0, 8.0, 16, 0.01, 0.83)
    assert sigma == 1
    assert x_t == pytest.approx(3.099866443912129, abs=1e-12)

    x_t, sigma = truncate(7.9, 8.0, 16, 0.5, 0.83)
    assert (x_t, sigma) == (8.0, 1)

    x_t, sigma = truncate(8.0, 8.0, 16, 0.01, 0.83)
    assert (x_t, sigma) == (8.0, 0)

    # a step of exactly |gap| lands on the midpoint: 16**0.75 is 8.0
    assert truncate(3.0, 8.0, 16, 0.625, 0.75) == (8.0, 1)
    assert truncate(13.0, 8.0, 16, 0.625, 0.75) == (8.0, -1)

    # ties: on the bracket (0, 3 * 2**46), x_half = 3 * 2**45 has ulp 2**-6, so
    # the gap from x_f = 2**-7 rounds (to even) up to x_half, and x_f plus that
    # step lies half an ulp above x_half, which again rounds to x_half
    delta = 3 * 2**46
    x_half = delta / 2
    assert x_half - 2.0**-7 == x_half and 2.0**-7 + x_half == x_half
    kappa1 = _kappa1_for(x_half, delta, 0.99)
    assert truncate(2.0**-7, x_half, delta, kappa1, 0.99) == (x_half, 1)
    # the same at the largest x_half of the domain, 2**51 - 1, with ulp 2**-2
    delta = 2**52 - 2
    x_half = delta / 2
    assert x_half - 2.0**-3 == x_half and 2.0**-3 + x_half == x_half
    kappa1 = _kappa1_for(x_half, delta, 0.83)
    assert truncate(2.0**-3, x_half, delta, kappa1, 0.83) == (x_half, 1)


def test_minmax_radius_examples():
    # n=17: budget 2^4 cells per side minus half of a 17-wide bracket
    assert Strict().n_ref(17) == 5.0
    assert minmax_radius(0, 17, Strict().n_ref(17)) == 7.5
    # power-of-two n: zero slack at every level
    assert minmax_radius(0, 16, Strict().n_ref(16)) == 0.0
    # one extra relaxed iteration opens the whole bracket
    assert minmax_radius(0, 16, Relaxed(extra=1.0).n_ref(16)) == 8.0
    # local rule (no anchor) with delta an exact power of two
    assert Local().n_ref(16) is None
    assert minmax_radius(3, 16, None) == 0.0
    assert minmax_radius(0, 17, None) == 7.5
    # exhausted budget clamps instead of going negative
    assert minmax_radius(10, 8, 3.0) == 0.0


def test_project_examples():
    assert project(7.5, 8.0, 2.0, 1) == 7.5
    assert project(3.1, 8.0, 2.0, 1) == 6.0
    assert project(8.0, 8.0, 0.0, 0) == 8.0


def test_round_toward_midpoint_examples():
    assert round_toward_midpoint(3.2, 8.0, 0, 16) == 4
    assert round_toward_midpoint(3.2, 2.0, 1, 5) == 3
    assert round_toward_midpoint(0.4, 8.0, 0, 16) == 1
    # integer x is returned as-is (subject to interior clamping)
    assert round_toward_midpoint(5.0, 8.0, 0, 16) == 5
    # non-integer x exactly on the midpoint takes the floor
    assert round_toward_midpoint(2.5, 2.5, 0, 5) == 2
    # clamping pulls endpoint-adjacent probes inside
    assert round_toward_midpoint(16.0, 8.0, 0, 16) == 15
    assert round_toward_midpoint(0.0, 8.0, 0, 16) == 1


def test_bracket_shrink_examples():
    lst = SortedList(np.arange(11) / 10)
    assert _shrink(0, 10, 4, lst, 0.5) == (4, 10)  # v_k < z raises a
    assert _shrink(0, 10, 7, lst, 0.5) == (0, 7)  # v_k > z lowers b
    assert _shrink(0, 10, 5, lst, 0.5) == (5, 6)  # an exact hit collapses
    # binary probes (a + b) // 2, so its trace shows search's own updates:
    # 0.5 < 0.75 raises a to 5, 0.7 < 0.75 raises a to 7, 0.8 > 0.75 lowers b
    out = search(lst, 0.75, SearchConfig.binary())
    assert (out.trace, out.k_star) == ((5, 7, 8), 7)
    # probing a key equal to z ends the search in the cell (k, k+1)
    out = search(lst, 0.5, SearchConfig.binary())
    assert (out.trace, out.k_star) == ((5,), 5)


def test_sorted_list_validation():
    with pytest.raises(ValueError):
        SortedList([1.0])
    with pytest.raises(ValueError):
        SortedList([[0.0, 1.0]])
    # the only decrease may be anywhere, the last pair included
    for bad in ([0.0, 2.0, 1.0], [0.0, 1.0, 2.0, 1.5]):
        with pytest.raises(ValueError, match="non-decreasing"):
            SortedList(bad)
    # a NaN fails the order test wherever it sits; an infinity passes it only
    # at an end, where the end tests catch it
    for bad in (
        [0.0, math.nan, 1.0],
        [0.0, 1.0, math.nan],
        [0.0, 1.0, math.inf],
        [-math.inf, 0.0, 1.0],
        [-math.inf, 0.0, 1.0, math.inf],
    ):
        with pytest.raises(ValueError, match="finite"):
            SortedList(bad)
    # integers above 2**53 would collapse onto float64 neighbours; the last
    # list is ordered only after the cast to float
    below = np.array([-(2**53) - 1, 0], dtype=np.int64)
    for bad in ([0, 2**53, 2**53 + 1, 2**53 + 3], below, [2**53 + 1, 2**53]):
        with pytest.raises(ValueError, match="not exact"):
            SortedList(bad)
    assert SortedList([0, 2**53]).values.tolist() == [0.0, 2.0**53]
    assert SortedList(np.array([0, 2**53 + 2, 2**62], dtype=np.int64)).n == 2
    assert SortedList([0.0, 2.0**60]).n == 1
    assert SortedList([0.0, -0.0]).n == SortedList([-0.0, 0.0]).n == 1  # equal keys
    lst = SortedList([0.0, 1.0, 1.0, 2.0])  # non-decreasing is allowed
    assert lst.n == 3
    assert len(lst) == 4
    assert lst[2] == 1.0
    assert repr(lst) == "SortedList(n=3, range=[0.0, 2.0])"


@given(
    st.lists(
        st.sampled_from([math.nan, math.inf, -math.inf, -1.0, -0.0, 0.0, 1.0, 2.0])
        | st.floats(allow_nan=False),
        min_size=2,
        max_size=8,
    )
)
@settings(max_examples=300)
def test_sorted_list_accepts_exactly_finite_non_decreasing(values):
    a = np.array(values)
    with np.errstate(over="ignore"):  # the gap between two finite keys may overflow to inf
        accepted = bool(np.isfinite(a).all() and (np.diff(a) >= 0).all())
    # and n times the largest magnitude stays below the bound
    accepted = accepted and (a.size - 1) * max(-values[0], values[-1]) < 2.0**1020
    try:
        SortedList(values)
    except ValueError:
        assert not accepted
    else:
        assert accepted


def test_search_config_validation():
    for kappa1 in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="kappa1 must be finite and positive"):
            SearchConfig(kappa1=kappa1)
    with pytest.raises(ValueError):
        SearchConfig(kappa2=0.5)
    with pytest.raises(ValueError):
        SearchConfig(kappa2=1.0)
    # a strategy's name is not a Strategy, and a variant must be one of the three
    for strategy in ("binary", "itp", None):
        with pytest.raises(ValueError, match="strategy must be a Strategy"):
            SearchConfig(strategy=strategy)
    for variant in (None, "strict", Strict):
        with pytest.raises(ValueError, match="variant must be Strict, Relaxed or Local"):
            SearchConfig(variant=variant)
        with pytest.raises(ValueError, match="variant must be Strict, Relaxed or Local"):
            SearchConfig.itp(variant=variant)
    # inf and NaN pass a bare cap < 1 test, and 2.5 is not a probe count
    for cap in (0, math.inf, math.nan, 2.5):
        with pytest.raises(ValueError, match="cap must be a positive integer"):
            SearchConfig.binary(cap=cap)
    # NaN would turn ITP into binary search, inf into unbounded interpolation
    for extra in (-0.1, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="extra must be finite and >= 0"):
            Relaxed(extra=extra)
    # the largest extra keeps the half-width finite at the largest n < 2**63;
    # one more and it overflows
    assert minmax_radius(0, 2, Relaxed(extra=961).n_ref(2**63 - 1)) == 2.0**1023
    with pytest.raises(OverflowError):
        minmax_radius(0, 2, 962 + minmax_bound(2**63 - 1))
    for extra in (961.5, 1100):
        with pytest.raises(ValueError, match="extra must be at most 961"):
            Relaxed(extra=extra)
    assert Relaxed(extra=0.0).n_ref(100) == 7.0
    assert Relaxed(extra=0.99).n_ref(100) == 7.99
    assert (Strict().label, Relaxed().label, Local().label) == ("strict", "relaxed", "local")


def test_search_single_interior_probe():
    lst = SortedList([0.0, 0.4, 1.0])
    for config in (
        SearchConfig.binary(),
        SearchConfig.interpolation(),
        SearchConfig.itp(Strict()),
        SearchConfig.itp(Local()),
        SearchConfig.itp(Relaxed()),
    ):
        out = search(lst, 0.7, config)
        assert out.k_star == 1
        assert out.queries == 1
        assert out.trace == (1,)


def test_search_outcome_is_a_frozen_value():
    # SearchOutcome writes its instance dict itself; it must still behave as
    # the frozen dataclass it is declared to be
    out = SearchOutcome(3, 2, (5, 3))
    assert out == SearchOutcome(k_star=3, queries=2, trace=(5, 3), capped=False)
    assert out != SearchOutcome(3, 2, (5, 3), True)
    assert hash(out) == hash(SearchOutcome(3, 2, (5, 3), False))
    assert repr(out) == "SearchOutcome(k_star=3, queries=2, trace=(5, 3), capped=False)"
    assert dataclasses.astuple(out) == (3, 2, (5, 3), False)
    assert pickle.loads(pickle.dumps(out)) == out
    assert dataclasses.replace(out, capped=True) == SearchOutcome(3, 2, (5, 3), True)
    for name in ("k_star", "queries", "trace", "capped", "other"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(out, name, 0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        del out.k_star
    assert out == SearchOutcome(3, 2, (5, 3))


def test_search_strict_bound_n17():
    rng = np.random.default_rng(11)
    config = SearchConfig.itp(Strict())
    for _ in range(200):
        interior = np.sort(rng.random(16))
        lst = SortedList(np.concatenate(([0.0], interior, [1.0])))
        z = rng.uniform(1e-9, 1 - 1e-9)
        out = search(lst, z, config)
        assert out.queries <= 5
        assert out.k_star == linear_scan(lst, z)


def test_search_interpolation_trace_on_ramp():
    # frozen from a linear-scan oracle plus a one-step hand simulation:
    # x_f = 522.24 rounds down (right of the midpoint), probes 522 then 523
    out = search(RAMP_1024, 0.51, SearchConfig.interpolation())
    assert out.k_star == 522 == linear_scan(RAMP_1024, 0.51)
    assert out.trace == (522, 523)
    assert out.queries == 2
    # when x_f lands exactly on an integer whose key equals z, one query ends it
    out = search(RAMP_1024, 0.5, SearchConfig.interpolation())
    assert out.k_star == 512
    assert out.trace == (512,)
    assert out.queries == 1


def test_search_domain_and_endpoints():
    lst = SortedList([0.1, 0.2, 0.3, 0.4])
    with pytest.raises(ValueError):
        search(lst, 0.05, SearchConfig.binary())
    with pytest.raises(ValueError):
        search(lst, 0.45, SearchConfig.binary())
    # a numpy scalar target searches like the same Python float
    for config in (SearchConfig.binary(), SearchConfig.interpolation(), SearchConfig.itp()):
        assert search(lst, np.float64(0.25), config) == search(lst, 0.25, config)
    # left endpoint answered from the cache, no probes
    out = search(lst, 0.1, SearchConfig.itp())
    assert (out.k_star, out.queries, out.trace) == (0, 0, ())
    # right endpoint resolves to the last cell through the normal loop
    for config in (SearchConfig.binary(), SearchConfig.interpolation(), SearchConfig.itp()):
        out = search(lst, 0.4, config)
        assert out.k_star == 2
        assert not out.capped


def test_search_cap():
    lst = SortedList(np.arange(101) / 100)
    out = search(lst, 0.515, SearchConfig.binary(cap=2))
    assert out.capped
    assert out.queries == 2
    assert len(out.trace) == 2
    # the capped answer is the bracket's lower index, still a valid lower bound
    assert lst[out.k_star] <= 0.515
    full = search(lst, 0.515, SearchConfig.binary())
    assert not full.capped
    assert full.k_star == 51


def test_search_duplicate_keys_weak_contract():
    lst = SortedList([0.0, 0.5, 0.5, 0.5, 1.0])
    for config in (SearchConfig.binary(), SearchConfig.interpolation(), SearchConfig.itp()):
        out = search(lst, 0.5, config)
        assert lst[out.k_star] <= 0.5 <= lst[out.k_star + 1]


def test_binary_tie_rule_floors_midpoint():
    # bracket (0, 5): midpoint 2.5 must round to 2, not 3
    lst = SortedList([0.0, 0.1, 0.2, 0.3, 0.4, 1.0])
    out = search(lst, 0.35, SearchConfig.binary())
    assert out.trace[0] == 2


def _unsorted_rows():
    """Rows with their smallest and largest keys at the ends and the interior
    in draw order: distinct keys, heavy ties, and an all-equal interior."""
    rng = np.random.default_rng(5)
    for n in (1, 2, 3, 17, 1000):
        interiors = {
            "distinct": rng.random(n - 1),
            "ties": rng.choice([0.0, 0.25, 0.5, 1.0], n - 1),
            "equal": np.full(n - 1, 0.5),
        }
        for name, interior in interiors.items():
            yield pytest.param(np.concatenate(([0.0], interior, [1.0])), id=f"{name}-{n}")


@pytest.mark.parametrize("row", _unsorted_rows())
def test_order_statistics_read_as_sorted(row):
    n = row.size - 1
    expected = np.sort(row)
    rng = np.random.default_rng(n)
    orders = {
        "permutation": rng.permutation(n + 1),
        "repeats": rng.integers(0, n + 1, 3 * (n + 1)),
        # each read partitions all but the keys above it: past 4 n partitioned
        # keys the row is sorted, and the later reads read it directly
        "creeping": np.arange(n, -1, -1),
    }
    for name, order in orders.items():
        keys = row.copy()
        source = search_module._OrderStatistics(keys)
        for k in order.tolist():
            assert source.item(k) == expected[k], (name, k)
        assert np.array_equal(np.sort(keys), expected)  # reordered, never changed
        if name == "creeping" and n >= 17:
            assert np.array_equal(keys, expected), "the fallback sorts the row"


def _drawn_block(n, ties, rng):
    """Three drawn rows of n + 1 keys: 0 and 1 at the ends and the interior
    in draw order, with distinct keys or heavy ties; and four targets a row:
    its smallest key, one of its keys, a float inside and its largest key."""
    shape = (3, n - 1)
    interior = rng.choice([0.0, 0.25, 0.5, 1.0], shape) if ties else rng.random(shape)
    block = np.hstack((np.zeros((3, 1)), interior, np.ones((3, 1))))
    picks = block[np.arange(3), rng.integers(0, n + 1, 3)]
    zs = np.column_stack((block[:, 0], picks, rng.random(3), block[:, -1]))
    return block, zs


@pytest.mark.parametrize("cap", [2, DEFAULT_CAP])
@pytest.mark.parametrize("ties", [False, True], ids=["distinct", "ties"])
@pytest.mark.parametrize("n", [1, 2, 17, 1000])
def test_drawn_rows_search_as_sorted(n, ties, cap):
    block, zs = _drawn_block(n, ties, np.random.default_rng(n))
    configs = [
        SearchConfig.binary(cap=cap),
        SearchConfig.interpolation(cap=cap),
        SearchConfig.itp(Strict(), cap=cap),
        SearchConfig.itp(Relaxed(), cap=cap),
        SearchConfig.itp(Local(), cap=cap),
    ]
    ordered = np.sort(block, axis=1)  # the ends are each row's smallest and largest keys
    want = [f.tolist() for f in search_block(ordered, zs, configs)]
    lanes = len(configs) * np.count_nonzero(zs != block[:, :1])
    # every lane to the lockstep loop, then every lane to the scalar loop
    for finish in (0, lanes):
        drawn = block.copy()
        with mock.patch.object(search_module, "SCALAR_FINISH", finish):
            assert [f.tolist() for f in search_block(drawn, zs, configs, drawn=True)] == want
        assert np.array_equal(np.sort(drawn, axis=1), ordered), "the same keys, reordered"
        if finish == 0:
            assert np.array_equal(drawn, ordered), "a lockstep call sorts the rows"


@pytest.mark.parametrize("rows, config_count, made", [(12, 4, 12), (7, 7, 0)])
def test_drawn_rows_read_on_demand_up_to_scalar_finish(rows, config_count, made):
    # 12 x 4 = 48 lanes are all finished by the scalar loop, one key source a
    # row shared by its configs; 7 x 7 = 49 lanes enter the lockstep loop
    assert search_module.SCALAR_FINISH == 48
    rng = np.random.default_rng(rows)
    block = np.hstack((np.zeros((rows, 1)), rng.random((rows, 999)), np.ones((rows, 1))))
    zs = rng.random((rows, 1))
    configs = [SearchConfig.itp(Strict(), kappa1=0.1 * (i + 1)) for i in range(config_count)]
    want = search_block(np.sort(block, axis=1), zs, configs)
    wrapped = mock.patch.object(
        search_module, "_OrderStatistics", wraps=search_module._OrderStatistics
    )
    with wrapped as source:
        got = search_block(block, zs, configs, drawn=True)
    assert source.call_count == made
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


# ---------------------------------------------------------------------------
# property tests

_kappa1 = st.floats(0.001, 2.0, allow_nan=False)
_kappa2 = st.floats(0.51, 0.99, allow_nan=False)


def _kappa1_for(step, delta, kappa2):
    """A kappa1 with kappa1 * delta**kappa2 == step exactly."""
    k = step / delta**kappa2
    for kappa1 in (k, math.nextafter(k, 0), math.nextafter(k, math.inf)):
        if kappa1 * delta**kappa2 == step:
            return kappa1
    raise AssertionError(f"no kappa1 gives the step {step} at delta={delta}, kappa2={kappa2}")


@st.composite
def _truncation(draw):
    """``truncate``'s arguments on a bracket (a, b) of the probe rules' domain:
    a + b from small up to 2**52 - 2, x_f in [a, b] (often within 1 of an end,
    where a small end gives it fine low bits), and a kappa1 drawn freely or
    putting the step on |x_half - x_f| or on one of its float neighbours."""
    total = draw(st.one_of(st.integers(2, 1000), st.integers(2, 2**52 - 2)))
    a = draw(st.integers(0, total // 2 - 1))
    b = total - a
    x_f = draw(
        st.one_of(
            st.floats(a, b),
            st.floats(a, min(a + 1, b)),
            st.floats(max(b - 1, a), b),
            st.sampled_from((a, b, -0.0 if a == 0 else float(a))),
        )
    )
    kappa2 = draw(_kappa2)
    on_gap = abs(total / 2 - x_f) / (b - a) ** kappa2
    kappa1 = draw(
        st.one_of(
            _kappa1,
            st.sampled_from(
                (on_gap, math.nextafter(on_gap, 0), math.nextafter(on_gap, math.inf))
            ).filter(lambda kappa1: kappa1 > 0),
        )
    )
    return x_f, total / 2, b - a, kappa1, kappa2


def _on_gap(a, b, x_f, kappa2):
    """The truncation on (a, b) from x_f whose step is exactly |x_half - x_f|."""
    x_half = (a + b) / 2
    return x_f, x_half, b - a, _kappa1_for(abs(x_half - x_f), b - a, kappa2), kappa2


def _truncation_edges(test):
    """The proof's edge cases as examples: a power-of-two x_half with x_f on
    either side of it, the largest bracket sum 2**52 - 2, and a tie."""
    for case in (
        _on_gap(0, 2**48, 2.0**-30, 0.99),  # the gap and the step round onto x_half = 2**47
        _on_gap(0, 2**48, 2.0**48 - 2.0**-5, 0.99),  # the spacing below 2**47 is 2**-6
        _on_gap(0, 2**52 - 2, 2.0**-3, 0.83),  # ulp(2**51 - 1) is 2**-2: a tie
        _on_gap(0, 2**52 - 2, 2.0**52 - 2.5, 0.83),  # sigma = -1 at the largest sum
        _on_gap(0, 3 * 2**46, 2.0**-7, 0.99),  # a tie below a non-power-of-two x_half
    ):
        test = example(case=case)(test)
    return test


def _guarded_truncate(x_f, x_half, delta, kappa1, kappa2):
    """``truncate`` with a second overshoot test, on the rounded x_t: the
    reference that shows that test changes no result on the domain."""
    gap = x_half - x_f
    sigma = (gap > 0) - (gap < 0)
    step = kappa1 * delta**kappa2
    if step <= abs(gap):
        x_t = x_f + sigma * step
        if (x_t < x_half) if sigma > 0 else (x_t > x_half):
            return x_t, sigma
    return x_half, sigma


@given(case=_truncation())
@_truncation_edges
def test_truncate_never_overshoots(case):
    x_f, x_half = case[:2]
    x_t, sigma = truncate(*case)
    assert abs(x_t - x_half) <= abs(x_f - x_half)
    assert sigma == (x_half > x_f) - (x_half < x_f)
    # x_t stays on x_f's side of the midpoint
    if x_f != x_half:
        assert (x_t - x_half) * (x_f - x_half) >= 0


@given(case=_truncation())
@_truncation_edges
def test_truncate_matches_the_guarded_reference(case):
    # bit for bit, so a -0.0 or the type of x_t would show too
    (got, sigma), (want, want_sigma) = truncate(*case), _guarded_truncate(*case)
    assert (type(got), got.hex(), sigma) == (type(want), want.hex(), want_sigma)


@given(
    a=st.integers(0, 1000),
    width=st.integers(2, 1000),
    x=st.floats(0.0, 1.0),
)
def test_round_toward_midpoint_stays_interior(a, width, x):
    b = a + width
    point = a + x * width
    k = round_toward_midpoint(point, (a + b) / 2, a, b)
    assert isinstance(k, int)
    assert a < k < b


@st.composite
def _list_and_target(draw):
    steps = draw(st.lists(st.integers(1, 9), min_size=2, max_size=60))
    values = list(itertools.accumulate(steps, initial=0))
    cell = draw(st.integers(0, len(values) - 2))
    frac = draw(st.floats(0.001, 0.999))
    z = values[cell] + frac * (values[cell + 1] - values[cell])
    return SortedList(np.asarray(values, dtype=float)), z, cell


_configs = st.one_of(
    st.just(SearchConfig.binary()),
    st.just(SearchConfig.interpolation()),
    st.builds(
        SearchConfig.itp,
        variant=st.one_of(
            st.just(Strict()),
            st.just(Local()),
            st.builds(Relaxed, extra=st.sampled_from([0.0, 0.5, 0.99, 1.0, 2.0])),
        ),
        kappa1=_kappa1,
        kappa2=_kappa2,
    ),
)


@given(case=_list_and_target(), config=_configs)
@settings(max_examples=300)
def test_search_matches_linear_scan(case, config):
    lst, z, cell = case
    out = search(lst, z, config)
    assert out.k_star == cell == linear_scan(lst, z)
    assert out.queries == len(out.trace)
    assert not out.capped


@given(case=_list_and_target(), config=_configs)
def test_search_is_deterministic(case, config):
    lst, z, _ = case
    assert search(lst, z, config) == search(lst, z, config)


@given(case=_list_and_target(), config=_configs)
@settings(max_examples=300)
def test_bracket_evolution_invariants(case, config):
    """Replay the trace: probes interior, bracket shrinking, va <= z < vb."""
    lst, z, _ = case
    out = search(lst, z, config)
    a, b = 0, lst.n
    for k in out.trace:
        assert a < k < b
        assert lst[a] <= z < lst[b]
        a_next, b_next = _shrink(a, b, k, lst, z)
        assert b_next - a_next < b - a
        a, b = a_next, b_next
    assert b - a == 1
    assert a == out.k_star


def _containment_radius(variant, n, j, delta):
    """Radius the probe must respect at this bracket, per variant.

    Strict, Local and integer-budget Relaxed guarantee an in-interval integer
    exactly.  A fractional relaxed budget can leave the interval between grid
    points, but never beyond the rounded-up budget's interval.
    """
    n_ref = variant.n_ref(n)
    if n_ref is not None and n_ref != int(n_ref):
        n_ref = math.ceil(n_ref)
    return minmax_radius(j, delta, n_ref)


@given(
    case=_list_and_target(),
    variant=st.one_of(
        st.just(Strict()),
        st.just(Local()),
        st.builds(Relaxed, extra=st.sampled_from([0.0, 0.5, 0.99, 1.0, 2.0])),
    ),
    kappa1=_kappa1,
    kappa2=_kappa2,
)
@settings(max_examples=300)
def test_itp_probe_containment(case, variant, kappa1, kappa2):
    lst, z, _ = case
    config = SearchConfig.itp(variant, kappa1=kappa1, kappa2=kappa2)
    out = search(lst, z, config)
    a, b = 0, lst.n
    for j, k in enumerate(out.trace):
        r = _containment_radius(variant, lst.n, j, b - a)
        assert abs(k - (a + b) / 2) <= r + 1e-9
        a, b = _shrink(a, b, k, lst, z)


@given(case=_list_and_target())
def test_equality_target_collapses(case):
    lst, _, _ = case
    k = lst.n // 2
    if k == 0:
        return
    z = lst[k]
    for config in (SearchConfig.binary(), SearchConfig.itp(Strict())):
        out = search(lst, z, config)
        assert lst[out.k_star] <= z
        if out.k_star < lst.n:
            assert z <= lst[out.k_star + 1]
        # whatever index was probed last either hit z or closed the bracket
        assert out.queries <= minmax_bound(lst.n)


_powers_of_two = st.integers(1, 12).map(lambda m: 2**m)


@given(
    a=st.integers(0, 50),
    width=st.one_of(_powers_of_two, st.integers(2, 100)),
    n=st.one_of(_powers_of_two, st.integers(2, 5000)),
    j=st.integers(0, 14),
    z_frac=st.floats(0.01, 0.99),
    power=st.floats(1.0, 3.0),
    config=_configs,
)
# the radius is 0 in each: Strict's and Relaxed(0)'s budgets spent at an odd
# width (x_half off the grid), Strict at n = 2**6 from the first step, and
# Local at a power-of-two width
@example(a=10, width=3, n=100, j=6, z_frac=0.9, power=2.0, config=SearchConfig.itp(Strict()))
@example(a=0, width=64, n=64, j=0, z_frac=0.1, power=3.0, config=SearchConfig.itp(Strict()))
@example(
    a=7, width=5, n=1000, j=9, z_frac=0.2, power=2.0, config=SearchConfig.itp(Relaxed(0.0))
)
@example(a=3, width=16, n=300, j=0, z_frac=0.95, power=2.0, config=SearchConfig.itp(Local()))
def test_probe_rule_interior(a, width, n, j, z_frac, power, config):
    b = a + width
    va, vb = float(a) ** power, float(b) ** power
    z = va + z_frac * (vb - va)
    k = make_probe_fn(config, n)(a, b, j, va, vb, z)
    assert a < k < b
    if config.strategy is Strategy.ITP:
        # the rule is its five steps composed, a radius of 0 included
        x_half = (a + b) / 2
        x_f = interpolation_point(a, b, va, vb, z)
        x_t, sigma = truncate(x_f, x_half, width, config.kappa1, config.kappa2)
        r = minmax_radius(j, width, config.variant.n_ref(n))
        assert k == round_toward_midpoint(project(x_t, x_half, r, sigma), x_half, a, b)


@st.composite
def _adversarial_values(draw, size=st.integers(2, 41)):
    """Sorted keys that stress the rules' arithmetic; ``size`` draws how many.

    Integer grids with zero steps give plateaus and all-equal runs, a scale
    of 5e-324 makes every step subnormal, and floats drawn up to the largest
    magnitude a SortedList of their size admits give the widest key spans.
    """
    count = draw(size)
    edge = _edge(count - 1)
    if draw(st.booleans()):
        steps = draw(st.lists(st.integers(0, 3), min_size=count - 1, max_size=count - 1))
        scale = draw(st.sampled_from((5e-324, 1.0, 1e300)))
        base = draw(st.sampled_from((0.0, -1.0, edge / 2, -edge)))
        return [base + scale * i for i in itertools.accumulate(steps, initial=0)]
    values = draw(st.lists(st.floats(-edge, edge), min_size=count, max_size=count))
    if count >= 4 and draw(st.booleans()):
        values[:2] = [-edge, edge]
    return sorted(v + 0.0 for v in values)  # -0.0 + 0.0 is 0.0


@st.composite
def _adversarial_case(draw):
    """Adversarial keys and a target in range: a key (possibly a duplicated
    one) or any float in the key range."""
    values = draw(_adversarial_values())
    z = draw(st.one_of(st.sampled_from(values), st.floats(values[0], values[-1])))
    return values, z


@given(case=_adversarial_case(), config=_configs)
@example(
    case=([-EDGE_4, -1e306, 0.0, 1e306, EDGE_4], 2e306),
    config=SearchConfig.interpolation(),
)
@settings(max_examples=500)
def test_search_matches_linear_scan_adversarial(case, config):
    values, z = case
    lst = SortedList(values)
    out = search(lst, z, config)
    assert not out.capped
    if values.count(z) > 1:
        # a duplicated key only promises the weak contract
        assert lst[out.k_star] <= z <= lst[out.k_star + 1]
    else:
        # z == values[n] settles on the last cell, n - 1
        assert out.k_star == min(linear_scan(lst, z), lst.n - 1)
    if config.strategy is Strategy.ITP:
        n_ref = config.variant.n_ref(lst.n)
        if n_ref is not None:
            assert out.queries <= math.ceil(n_ref)


# ---------------------------------------------------------------------------
# search_many against search, lane by lane


def _result_or_error(run):
    try:
        return run()
    except ValueError as exc:
        return f"ValueError: {exc}"


def _assert_batch_matches(lst, zs, config):
    """search_many gives search's (k*, queries, capped) on every lane, or its
    error, both in lockstep to the end and with the scalar finish."""

    def scalar():
        return [(o.k_star, o.queries, o.capped) for o in (search(lst, z, config) for z in zs)]

    def batch():
        k_star, queries, capped = search_many(lst, zs, config)
        return list(zip(k_star.tolist(), queries.tolist(), capped.tolist()))

    want = _result_or_error(scalar)
    for finish in (0, search_module.SCALAR_FINISH):
        with mock.patch.object(search_module, "SCALAR_FINISH", finish):
            assert _result_or_error(batch) == want


# every probe rule and variant, with small caps
_batch_configs = st.builds(
    dataclasses.replace, _configs, cap=st.sampled_from((1, 2, 3, DEFAULT_CAP))
)


@st.composite
def _adversarial_batch(draw):
    """Adversarial keys, with every key (both ends, duplicates) and up to 30
    floats in the key range as targets."""
    values = draw(_adversarial_values())
    spread = draw(st.lists(st.floats(values[0], values[-1]), max_size=30))
    return values, values + spread


@given(case=_adversarial_batch(), config=_batch_configs)
@example(
    case=([-EDGE_4, -1e306, 0.0, 1e306, EDGE_4], [2e306] * 10),
    config=SearchConfig.interpolation(),
)
@settings(max_examples=300)
def test_search_many_matches_search_adversarial(case, config):
    values, zs = case
    _assert_batch_matches(SortedList(values), zs, config)


@given(case=_adversarial_case(), config=_batch_configs)
@example(case=([0.0, 1.0, 1.0, 1.0, 1.0, 2.0], 1.0), config=SearchConfig.itp(Strict()))
@settings(max_examples=200)
def test_probe_rules_see_their_domain(case, config):
    # every call of a rule that search, search_block's scalar finish and
    # strategy_worst_depth make is on a bracket of the domain ProbeRule states,
    # on plateaus, with z on a duplicated key and with z = values[n]
    values, z = case

    def checked(config, n):
        rule = make_probe_fn(config, n)  # the module's own, which the patch leaves

        def probe(a, b, j, va, vb, z):
            assert type(a) is int and type(b) is int
            assert 0 <= a and b - a >= 2 and a + b < 2**52
            assert va < z <= vb
            return rule(a, b, j, va, vb, z)

        return probe

    lst = SortedList(values)
    zs = [z, *values]
    with mock.patch.object(search_module, "make_probe_fn", checked):
        for target in zs:
            search(lst, target, config)
        for finish in (2, search_module.SCALAR_FINISH):
            with mock.patch.object(search_module, "SCALAR_FINISH", finish):
                search_many(lst, zs, config)
    if lst.n >= 2:
        oracle.strategy_worst_depth(checked(config, lst.n), lst.n)


def _text_keys(count, seed):
    """Sorted base-27 codes of random words whose letters follow a Zipf law,
    so that the codes cluster like real text keys."""
    rng = np.random.default_rng(seed)
    alphabet = np.array(list("etaoinshrdlcumwfgypbvkjxqz"))
    p = 1.0 / np.arange(1, alphabet.size + 1)
    letters = alphabet[rng.choice(alphabet.size, size=(count, 11), p=p / p.sum())]
    lengths = rng.integers(4, 12, count)
    words = ["".join(row[:length]) for row, length in zip(letters.tolist(), lengths.tolist())]
    return SortedList(np.unique([encode_base27(w) for w in words]))


def test_search_many_matches_search_on_text_keys():
    lst = _text_keys(200_000, 5)
    assert 180_000 < lst.n < 200_000  # codec merges take about 5%
    rng = np.random.default_rng(6)
    v = lst.values
    zs = (v[0] + (v[-1] - v[0]) * rng.random(150)).tolist()
    zs += v[rng.integers(0, lst.n + 1, 40)].tolist() + [v[0], v[-1]]
    configs = [
        SearchConfig.binary(),
        SearchConfig.interpolation(),
        SearchConfig.interpolation(cap=3),
        SearchConfig.itp(Relaxed(extra=1.37), cap=2),
    ]
    configs += [
        SearchConfig.itp(variant, kappa1=k1, kappa2=k2)
        for variant in (Strict(), Relaxed(), Local())
        for k1 in TABLE1_KAPPA1
        for k2 in TABLE1_KAPPA2
    ]
    for config in configs:
        _assert_batch_matches(lst, zs, config)


def test_search_many_edges():
    lst = SortedList([0.1, 0.2, 0.2, 0.2, 0.3, 0.4, 0.7, 0.9, 0.95, 1.0, 1.5])
    keys = lst.values.tolist()
    configs = (
        SearchConfig.binary(),
        SearchConfig.interpolation(),
        SearchConfig.itp(Strict()),
        SearchConfig.itp(Local(), cap=1),
    )
    for config in configs:
        # every key, the ends and the plateau included, twice over
        _assert_batch_matches(lst, keys + keys, config)
        k_star, queries, capped = search_many(lst, [], config)
        assert k_star.size == queries.size == capped.size == 0
    # values[0] costs no query, as in search
    assert search_many(lst, [0.1] * 12, SearchConfig.itp())[1].tolist() == [0] * 12
    with pytest.raises(ValueError, match="one-dimensional"):
        search_many(lst, [[0.2, 0.3]], SearchConfig.binary())
    # the first target outside the range is reported, as search reports it
    for bad in (0.05, 1.6, math.nan):
        with pytest.raises(ValueError, match=f"target {bad} outside key range"):
            search_many(lst, keys + [bad, 0.01], SearchConfig.binary())


def _midpoint_tie(n, kappa2):
    """A list of odd size n, an ITP-Strict config and a target whose first
    truncation step reaches the midpoint exactly (step == x_half - x_f), or
    None where no float target gives that x_f.

    The probe is then x_half itself, which the tie rule rounds down; a step
    one ulp shorter leaves x_t just left of x_half, which rounds up.  So the
    first probe shows the last bit of kappa1 * n**kappa2, and the keys put z
    between the two candidates: cap=1 reports the probe as k* when it is
    (n - 1) / 2 and 0 otherwise.
    """
    kappa1 = (n / 2 - 0.5) / n**kappa2
    x_f = n / 2 - kappa1 * n**kappa2  # exact: the step is within [n/4, n/2]
    for z in (x_f / n, math.nextafter(x_f / n, 0), math.nextafter(x_f / n, 1)):
        if interpolation_point(0, n, 0.0, 1.0, z) == x_f:
            break
    else:
        return None
    i = np.arange(n + 1)
    values = np.where(i <= n // 2, z * i / n, 0.5 + 0.5 * i / n)
    config = SearchConfig.itp(Strict(), kappa1=kappa1, kappa2=kappa2, cap=1)
    return SortedList(values), z, config


def test_search_many_midpoint_ties():
    cases = [_midpoint_tie(n, k2) for n in range(1001, 1201, 2) for k2 in TABLE1_KAPPA2]
    cases = [case for case in cases if case is not None]
    assert len(cases) > 900
    for lst, z, config in cases:
        assert search(lst, z, config).k_star == lst.n // 2
        _assert_batch_matches(lst, [z] * (search_module.SCALAR_FINISH + 1), config)


# ---------------------------------------------------------------------------
# search_block against search: lanes over several lists and configs


def _assert_block_matches(block, zs, configs):
    """search_block gives search's (k*, queries, capped) on every (config,
    row, target) lane, or its error: in lockstep to the end, with the scalar
    finish, with every lane in the scalar loop, and with no compaction, so
    that every lane, closed or open, leaves the loop through the scalar
    finish from its own probe count."""
    lists = [SortedList(row) for row in block]

    def scalar():
        return [
            [[(o.k_star, o.queries, o.capped) for o in (search(lst, z, c) for z in row_zs)]
             for lst, row_zs in zip(lists, zs)]
            for c in configs
        ]  # fmt: skip

    def batch():
        fields = [f.tolist() for f in search_block(block, zs, configs)]
        return [
            [list(zip(*(f[i][r] for f in fields))) for r in range(len(lists))]
            for i in range(len(configs))
        ]

    want = _result_or_error(scalar)
    for finish in (0, search_module.SCALAR_FINISH, np.size(zs) * len(configs)):
        with mock.patch.object(search_module, "SCALAR_FINISH", finish):
            assert _result_or_error(batch) == want
    with mock.patch.multiple(search_module, SCALAR_FINISH=0, COMPACT=2):
        assert _result_or_error(batch) == want


@st.composite
def _adversarial_block(draw):
    """2 to 4 adversarial key lists of one size, each searched for all of its
    keys and for the same number of floats in its own key range."""
    size = draw(st.integers(2, 41))
    rows = [draw(_adversarial_values(st.just(size))) for _ in range(draw(st.integers(2, 4)))]
    spread = draw(st.integers(0, 12))
    zs = [
        row + draw(st.lists(st.floats(row[0], row[-1]), min_size=spread, max_size=spread))
        for row in rows
    ]
    return np.array(rows), np.array(zs)


@given(case=_adversarial_block(), configs=st.lists(_batch_configs, min_size=1, max_size=6))
@example(
    # rows out to the largest magnitude a SortedList admits, searched in lockstep
    case=(
        np.array([[-EDGE_4, -1e306, 0.0, 1e306, EDGE_4], [-EDGE_4, -1.0, 0.0, 1.0, EDGE_4]]),
        np.array([[2e306, -2e306, 1e306, 0.5, EDGE_4], [2e306, -2e306, -1.0, 0.5, 1.0]]),
    ),
    configs=[SearchConfig.binary(), SearchConfig.itp(Local()), SearchConfig.itp(Strict())],
)
@example(
    # keys 0..n for odd n and z = n/2: x_f equals x_half, so sigma is 0 on every lane
    case=(np.array([np.arange(10.0)] * 2), np.full((2, 3), 4.5)),
    configs=[
        SearchConfig.binary(),
        SearchConfig.interpolation(),
        SearchConfig.itp(Strict()),
        SearchConfig.itp(Relaxed()),
    ],
)
@settings(max_examples=200, deadline=None)  # up to 1272 lanes, each searched ten times
def test_search_block_matches_search_adversarial(case, configs):
    # the loop stops at the smallest cap, so the configs run once more, all
    # uncapped, in lockstep to the end
    block, zs = case
    _assert_block_matches(block, zs, configs)
    _assert_block_matches(block, zs, [dataclasses.replace(c, cap=DEFAULT_CAP) for c in configs])


def test_search_block_mixed_lanes():
    # rows of one n drawn from different shapes; the lanes of each rule have
    # different kappas and caps, Relaxed(extra=0.0) shares Strict's anchor,
    # Relaxed(extra=961.0) has the largest anchor a config can hold, and the
    # last config repeats the first ITP one.  The loop stops at the
    # smallest cap, so the configs run once more, all uncapped, in lockstep
    n = 3000
    specs = (Uniform(), Gaussian(), Exponential(rate=math.log(n)), Step())
    block = np.array([sample_list(spec, n, 40 + i).values for i, spec in enumerate(specs)])
    rng = np.random.default_rng(41)
    zs = np.hstack([
        rng.random((len(specs), 60)),  # each row spans [0, 1]
        block[:, rng.integers(0, n + 1, 10)],
        block[:, [0, n]],
    ])  # fmt: skip
    caps = (1, 2, 3, DEFAULT_CAP)
    configs = [SearchConfig.binary(cap) for cap in caps]
    configs += [SearchConfig.interpolation(cap) for cap in caps]
    configs += [
        SearchConfig.itp(variant, kappa1=k1, kappa2=k2, cap=cap)
        for variant in (Strict(), Relaxed(), Relaxed(extra=0.5), Local())
        for k1, k2, cap in zip(TABLE1_KAPPA1, TABLE1_KAPPA2, caps + caps)
    ]
    configs += [
        SearchConfig.itp(Relaxed(extra=0.0)),
        SearchConfig.itp(Relaxed(extra=961.0)),
        configs[len(caps) * 2],
    ]
    _assert_block_matches(block, zs, configs)
    _assert_block_matches(block, zs, [dataclasses.replace(c, cap=DEFAULT_CAP) for c in configs])


def test_search_block_edges():
    block = np.array([[0.0, 0.2, 0.2, 0.5, 1.0], [-3.0, -1.0, 0.0, 0.0, 2.0]])
    configs = [SearchConfig.binary(), SearchConfig.itp(Local(), cap=1)]
    # every key of each row, both ends and the plateaus included
    _assert_block_matches(block, block, configs)
    # no targets, and a row's own values[0], which costs no query
    assert search_block(block, np.empty((2, 0)), configs)[0].shape == (2, 2, 0)
    queries = search_block(block, [[0.0, 0.0], [-3.0, -3.0]], configs)[1]
    assert queries.tolist() == [[[0, 0], [0, 0]]] * 2
    # no configs: no lanes
    assert [f.shape for f in search_block(block, block, [])] == [(0, 2, 5)] * 3
    # n == 1 closes every bracket at once, even under a cap of 1
    k_star, queries, capped = search_block([[0.0, 1.0]] * 3, [[0.5]] * 3, configs)
    assert k_star.tolist() == queries.tolist() == [[[0]] * 3] * 2
    assert capped.tolist() == [[[False]] * 3] * 2
    # a huge kappa1 overflows the step to inf, as in truncate, without a warning
    keys = np.linspace(0.0, 1.0, 2001)[np.newaxis]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _assert_block_matches(
            keys, np.random.default_rng(3).random((1, 60)),
            [SearchConfig.itp(kappa1=1e308), SearchConfig.interpolation()],
        )  # fmt: skip
    with pytest.raises(ValueError, match="2-D block"):
        search_block(block[0], [[0.1]], configs)
    with pytest.raises(ValueError, match="one row per key row"):
        search_block(block, [0.1, 0.2], configs)
    with pytest.raises(ValueError, match="one row per key row"):
        search_block(block, [[0.1]] * 3, configs)
    # the first target outside its row's range, row by row, as search reports it
    with pytest.raises(ValueError, match=r"target -1\.0 outside key range \[0\.0, 1\.0\]"):
        search_block(block, [[0.1, -1.0], [5.0, 0.0]], configs)
    with pytest.raises(ValueError, match=r"target 5\.0 outside key range \[-3\.0, 2\.0\]"):
        search_block(block, [[0.1, 0.5], [5.0, 0.0]], configs)


def test_search_block_midpoint_ties():
    # one block per n: row r holds the tie case of kappa2 = TABLE1_KAPPA2[r]
    # and config r is its kappa pair, so the lanes' kappas differ per config;
    # the lanes (r, r) probe the midpoint only if the step has C pow's last bit
    blocks = 0
    for n in range(1001, 1201, 2):
        cases = [_midpoint_tie(n, k2) for k2 in TABLE1_KAPPA2]
        cases = [case for case in cases if case is not None]
        if len(cases) < 2:
            continue
        blocks += 1
        block = np.array([lst.values for lst, _, _ in cases])
        zs = np.array([[z] for _, z, _ in cases])
        configs = [config for _, _, config in cases]
        k_star = search_block(block, zs, configs)[0]
        assert k_star[range(len(cases)), range(len(cases)), 0].tolist() == [n // 2] * len(cases)
        _assert_block_matches(block, zs, configs)
    assert blocks > 90


def test_search_block_half_width_last_bit():
    # Relaxed anchors 10 + extra at n = 1000 whose first half-width
    # 2 ** (9 + extra) lies within two ulps of an integer m in (512, 990).
    # The keys put x_f near n, which the radius m - 500 projects to
    # x_half + r = 2 ** (9 + extra): the probe is m where the power reaches
    # m and m - 1 where it falls short, and z sits between keys m - 1 and m,
    # so cap=1 reports k* = 0 or m - 1 on the power's last bit (np.power
    # falls short of C pow on some of these exponents)
    n = 1000
    i = np.arange(n + 1)
    values = np.where(i == 0, 0.0, 1.0 - (n - i) * 1e-6)
    configs, zs = [], []
    for m in range(513, 990):
        zs.append((values[m - 1] + values[m]) / 2)
        x = math.log2(m)
        for _ in range(8):
            x = math.nextafter(x, 0)
        for _ in range(17):
            if abs(2.0**x - m) <= 2 * math.ulp(m):
                configs.append(SearchConfig.itp(Relaxed(extra=x - 9), cap=1))
            x = math.nextafter(x, math.inf)
    assert len(configs) > 100
    _assert_block_matches(values[np.newaxis], np.array([zs]), configs)


def test_float_power_is_c_pow():
    # search_block takes its truncation powers and its half-widths with
    # np.float_power, whose float64 loop calls C pow as ``**`` on floats does;
    # np.power may take a SIMD pow that differs in the last bit.  Should a
    # numpy release vectorise float_power too, this test names the cause,
    # where the midpoint-tie and golden-output tests would show only its effect.
    rng = np.random.default_rng(19)
    deltas = np.concatenate(
        (np.arange(1.0, 2**17 + 1), np.floor(rng.random(10_000) * 2.0**52) + 1)
    )
    listed = deltas.tolist()
    kappa2s = {*TABLE1_KAPPA2, DEFAULT_KAPPA2, math.nextafter(0.5, 1), math.nextafter(1.0, 0)}
    for kappa2 in sorted(kappa2s):
        got = np.float_power(deltas, np.full(deltas.size, kappa2))
        want = np.fromiter(map(float.__pow__, listed, itertools.repeat(kappa2)), np.float64)
        differ = np.flatnonzero(got.view(np.int64) != want.view(np.int64))
        assert differ.size == 0, (kappa2, deltas[differ[:5]].tolist())
    # the half-widths 2 ** (n_ref - j - 1) of Relaxed anchors (Strict's are
    # Relaxed(0.0)'s), for ceil(log2 n) in 1..63 and j up to past the budget,
    # with binary's -inf, interpolation's +inf and Local's NaN
    exponents = [-math.inf, math.inf, math.nan]
    for extra in (0.0, 0.25, 0.5, 0.99, 1.37, 961.0):
        for bound in range(1, 64):
            n_ref = bound + extra
            exponents += [n_ref - j - 1 for j in range(math.ceil(n_ref) + 2)]
    got = np.float_power(2.0, np.array(exponents))
    want = np.array([2.0**x for x in exponents])
    differ = np.flatnonzero(got.view(np.int64) != want.view(np.int64))
    assert differ.size == 0, [exponents[i] for i in differ[:5]]


def test_search_block_interleaved_groups():
    # the lanes run in config order, and no lane's outcome may depend on that
    # order: listed in any order, the configs give the same outputs, permuted
    n = 3000
    specs = (Uniform(), Gaussian(), Step())
    block = np.array([sample_list(spec, n, 50 + i).values for i, spec in enumerate(specs)])
    zs = np.hstack([np.random.default_rng(51).random((len(specs), 40)), block[:, [0, 7, n]]])
    configs = [
        SearchConfig.binary(),
        SearchConfig.itp(Local(), cap=1),
        SearchConfig.interpolation(),
        SearchConfig.binary(cap=5),
        SearchConfig.itp(Strict()),
        SearchConfig.itp(Relaxed()),
    ]
    order = [5, 2, 0, 4, 1, 3]
    permuted = [configs[i] for i in order]
    _assert_block_matches(block, zs, configs)
    _assert_block_matches(block, zs, permuted)
    back = np.argsort(order)
    for want, got in zip(search_block(block, zs, configs), search_block(block, zs, permuted)):
        assert np.array_equal(got[back], want)


def test_search_block_one_group_runs_long():
    # interpolation crawls one key at a time up a geometric row, long after
    # binary is done.  The middle config (ITP-Strict, capped at 2) stops the
    # loop after two probes and leaves every lane to the scalar loop, so the
    # block runs once more without it, where the crawl runs in lockstep
    n = 600
    block = np.array([np.geomspace(1e-300, 1.0, n + 1), np.linspace(0.0, 1.0, n + 1)])
    zs = np.hstack([block[:, 1 : n : 23], (block[:, 1 : n : 41] + block[:, 2 : n + 1 : 41]) / 2])
    configs = [SearchConfig.binary(), SearchConfig.itp(Strict(), cap=2), SearchConfig.interpolation()]
    _assert_block_matches(block, zs, configs)
    _assert_block_matches(block, zs, configs[::2])
    queries = search_block(block, zs, configs)[1]
    assert queries[0].max() <= minmax_bound(n)
    assert queries[1].max() == 2
    assert queries[2, 0].max() > 300


def test_strict_is_binary_at_powers_of_two():
    # at n = 2**m Strict's radius 2**(m - j - 1) - delta/2 is 0 at every step
    # (delta = 2**(m - j) along the binary path), so every probe is the midpoint
    binary, strict = SearchConfig.binary(), SearchConfig.itp(Strict())
    for m in (4, 10, 14):
        n = 2**m
        for i, spec in enumerate((Uniform(), Gaussian(), Step())):
            rng = np.random.default_rng([m, i])
            lst = sample_list(spec, n, rng)
            zs = [sample_target(lst[0], lst[n], rng) for _ in range(30)]
            zs += lst.values[rng.integers(0, n + 1, 10)].tolist()
            outcomes = [search(lst, z, strict) for z in zs]
            assert outcomes == [search(lst, z, binary) for z in zs]
            k_star, queries, capped = search_block(lst.values[np.newaxis], [zs], [binary, strict])
            assert np.array_equal(k_star[0], k_star[1])
            assert np.array_equal(queries[0], queries[1])
            assert queries[1, 0].tolist() == [o.queries for o in outcomes]
            assert queries.max() <= m


def test_zero_radius_step_skips_interpolation(monkeypatch):
    # at n = 2**m Strict's radius is 0 at every step, so the rule returns the
    # midpoint without interpolating or truncating
    def unreachable(*args):
        raise AssertionError("a step of radius 0 interpolated or truncated")

    rng = np.random.default_rng(20)
    lst = sample_list(Gaussian(), 2**10, rng)
    zs = [sample_target(lst[0], lst[lst.n], rng) for _ in range(30)]
    zs += lst.values[rng.integers(1, lst.n + 1, 10)].tolist()
    binary = [search(lst, z, SearchConfig.binary()) for z in zs]
    monkeypatch.setattr(search_module, "interpolation_point", unreachable)
    monkeypatch.setattr(search_module, "truncate", unreachable)
    assert [search(lst, z, SearchConfig.itp(Strict())) for z in zs] == binary


def test_search_block_overflow_bound_edge():
    # SortedList admits keys while n times their largest magnitude is below
    # 2**1020, and on those no interpolation line overflows: skewed rows that
    # end at the largest such magnitude are searched through the lockstep loop
    # as search searches them.  Rows one float beyond it, and rows out to
    # 2**1015, where the line would overflow (n * 2M is inf), are rejected.
    n = 1000
    inside = _edge(n)
    outside = math.nextafter(inside, math.inf)
    assert n * inside < 2.0**1020 <= n * outside
    overflow = 2.0**1015
    assert n * (2 * overflow) == math.inf
    even = np.linspace(-1.0, 1.0, n + 1)
    block = np.array([inside * even**3, inside * np.cbrt(even)])
    assert (block[:, 0] == -inside).all() and (block[:, n] == inside).all()
    rng = np.random.default_rng(17)
    zs = np.hstack([inside * (2 * rng.random((2, 20)) - 1), block[:, 1:n:97]])
    configs = [
        SearchConfig.binary(),
        SearchConfig.interpolation(),
        SearchConfig.itp(Strict()),
        SearchConfig.itp(Relaxed()),
        SearchConfig.itp(Local()),
    ]
    _assert_block_matches(block, zs, configs)
    for end in (outside, overflow):
        for row in (end * even**3, end * np.cbrt(even)):
            with pytest.raises(ValueError, match=r"n \* max\|key\| must be below 2\*\*1020"):
                SortedList(row)


# sha256 of _scalar_traces(), pinned with numpy 2.4.6 (PCG64 streams draw the
# seeded lists and targets)
SCALAR_TRACES_SHA256 = "0908336658f5e03f63379d09ba8617e2a96f9ea86f4727620657aa1ec17cebc2"


def _scalar_traces():
    """(k_star, queries, trace, capped) of every search check_minmax_exhaustive(64)
    makes, of seeded searches with each of the five rules (and a capped one) on
    each distribution at n <= 4096, and of searches on keys out to the largest
    magnitude a SortedList of 9 keys admits, one line each."""
    outcomes = []
    real = cli.search

    def record(lst, z, config):
        outcomes.append(real(lst, z, config))
        return outcomes[-1]

    with mock.patch.object(cli, "search", record):
        assert cli.check_minmax_exhaustive(64) is None
    configs = [
        SearchConfig.binary(),
        SearchConfig.interpolation(),
        SearchConfig.itp(Strict()),
        SearchConfig.itp(Relaxed()),
        SearchConfig.itp(Local()),
        SearchConfig.interpolation(cap=3),  # capped traces
    ]
    for i, spec in enumerate((Uniform(), Gaussian(), Exponential(), Triangular(), Step())):
        for n in (2, 3, 17, 1000, 4096):
            rng = np.random.default_rng([i, n])
            lst = sample_list(spec, n, rng)
            zs = [sample_target(lst[0], lst[n], rng) for _ in range(20)]
            zs += [lst[0], lst[n // 2], lst[n]]
            outcomes += [search(lst, z, config) for z in zs for config in configs]
    m = _edge(8)
    edge = SortedList([-m, -1e306, -1e300, -1.0, 0.0, 1.0, 1e300, 1e306, m])
    for z in (-m, -1.2e306, -1e305, -0.5, 0.0, 0.5, 1e305, 1e306, 1.2e306, m):
        outcomes += [search(edge, z, config) for config in configs]
    lines = [repr((o.k_star, o.queries, o.trace, o.capped)) for o in outcomes]
    return "\n".join(lines).encode()


def test_scalar_traces_golden():
    # every scalar probe sequence, not only the aggregates test_golden_csv_bytes pins
    digest = hashlib.sha256(_scalar_traces()).hexdigest()
    assert digest == SCALAR_TRACES_SHA256, (
        f"scalar traces changed: sha256 {digest} under numpy {np.__version__}; "
        f"the pinned hash was computed with numpy 2.4.6"
    )
