"""Core search: operation examples, invariants, and property tests."""

import dataclasses
import importlib
import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from itpsearch.bench import TABLE1_KAPPA1, TABLE1_KAPPA2
from itpsearch.distributions import Exponential, Gaussian, Step, Uniform, sample_list
from itpsearch.keycodec import encode_base27
from itpsearch.oracle import linear_scan
from itpsearch.search import (
    DEFAULT_CAP,
    Local,
    Relaxed,
    SearchConfig,
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

RAMP_1024 = SortedList(np.arange(1025) / 1024, validate=False)
HUGE = 1.7e308


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


def test_midpoint_examples():
    # a flat bracket (va == vb) has no interpolation line: the exact midpoint
    assert interpolation_point(0, 16, 1.0, 1.0, 1.0) == 8.0
    assert interpolation_point(3, 4, 0.3, 0.3, 0.3) == 3.5
    assert interpolation_point(0, 17, 0.0, 0.0, 0.0) == 8.5
    assert interpolation_point(4, 9, 0.5, 0.5, 0.5) == 6.5


def test_interpolation_point_examples():
    assert interpolation_point(0, 10, 0.0, 1.0, 0.3) == 3.0
    assert interpolation_point(2, 6, 0.2, 0.6, 0.5) == pytest.approx(5.0)
    # the key span overflows float64 (va - vb == -inf): halved keys are used
    assert interpolation_point(0, 4, -HUGE, HUGE, 0.0) == 2.0
    assert interpolation_point(0, 4, -HUGE, HUGE, 1.5e308) == pytest.approx(4 * 1.6 / 1.7)
    # a finite span whose numerator overflows takes the same path
    assert interpolation_point(2, 4, 0.0, HUGE, 1.5e308) == pytest.approx(2 + 2 * 1.5 / 1.7)


def test_truncate_examples():
    x_t, sigma = truncate(3.0, 8.0, 16, 0.01, 0.83)
    assert sigma == 1
    assert x_t == pytest.approx(3.099866443912129, abs=1e-12)

    x_t, sigma = truncate(7.9, 8.0, 16, 0.5, 0.83)
    assert (x_t, sigma) == (8.0, 1)

    x_t, sigma = truncate(8.0, 8.0, 16, 0.01, 0.83)
    assert (x_t, sigma) == (8.0, 0)

    # the rounded step lands past the midpoint (0.75 - 0.75 = 0.0 < 5e-324):
    # the midpoint is returned instead of a point on its far side
    x_t, sigma = truncate(0.75, 5e-324, 1, 0.75, 0.75)
    assert (x_t, sigma) == (5e-324, -1)


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
    with pytest.raises(ValueError):
        SortedList([0.0, 2.0, 1.0])
    # non-finite keys defeat the order check and the interpolation arithmetic
    for bad in ([0.0, math.nan, 1.0], [0.0, 1.0, math.inf], [-math.inf, 0.0, 1.0]):
        with pytest.raises(ValueError, match="finite"):
            SortedList(bad)
    # integers above 2**53 would collapse onto float64 neighbours
    below = np.array([-(2**53) - 1, 0], dtype=np.int64)
    for bad in ([0, 2**53, 2**53 + 1, 2**53 + 3], below):
        with pytest.raises(ValueError, match="not exact"):
            SortedList(bad)
    assert SortedList([0, 2**53]).values.tolist() == [0.0, 2.0**53]
    assert SortedList(np.array([0, 2**53 + 2, 2**62], dtype=np.int64)).n == 2
    assert SortedList([0.0, 2.0**60]).n == 1
    lst = SortedList([0.0, 1.0, 1.0, 2.0])  # non-decreasing is allowed
    assert lst.n == 3
    assert len(lst) == 4
    assert lst[2] == 1.0


def test_search_config_validation():
    for kappa1 in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="kappa1 must be finite and positive"):
            SearchConfig(kappa1=kappa1)
    with pytest.raises(ValueError):
        SearchConfig(kappa2=0.5)
    with pytest.raises(ValueError):
        SearchConfig(kappa2=1.0)
    with pytest.raises(ValueError):
        SearchConfig(cap=0)
    # NaN would turn ITP into binary search, inf into unbounded interpolation
    for extra in (-0.1, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="extra must be finite and >= 0"):
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


def test_search_strict_bound_n17():
    rng = np.random.default_rng(11)
    config = SearchConfig.itp(Strict())
    for _ in range(200):
        interior = np.sort(rng.random(16))
        lst = SortedList(np.concatenate(([0.0], interior, [1.0])), validate=False)
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
    lst = SortedList(np.arange(101) / 100, validate=False)
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


# ---------------------------------------------------------------------------
# property tests

_kappa1 = st.floats(0.001, 2.0, allow_nan=False)
_kappa2 = st.floats(0.51, 0.99, allow_nan=False)


@given(
    x_f=st.floats(0.0, 100.0),
    x_half=st.floats(0.0, 100.0),
    delta=st.integers(1, 10**6),
    kappa1=_kappa1,
    kappa2=_kappa2,
)
@example(x_f=0.75, x_half=5e-324, delta=1, kappa1=0.75, kappa2=0.75)
def test_truncate_never_overshoots(x_f, x_half, delta, kappa1, kappa2):
    x_t, sigma = truncate(x_f, x_half, delta, kappa1, kappa2)
    assert abs(x_t - x_half) <= abs(x_f - x_half)
    assert sigma == (x_half > x_f) - (x_half < x_f)
    # x_t stays on x_f's side of the midpoint
    if x_f != x_half:
        assert (x_t - x_half) * (x_f - x_half) >= 0


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
    return SortedList(np.asarray(values, dtype=float), validate=False), z, cell


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


@given(
    a=st.integers(0, 50),
    width=st.integers(2, 100),
    z_frac=st.floats(0.01, 0.99),
    config=_configs,
)
def test_probe_rule_interior(a, width, z_frac, config):
    b = a + width
    va, vb = float(a), float(b)
    z = va + z_frac * (vb - va)
    k = make_probe_fn(config, width)(a, b, 0, va, vb, z)
    assert a < k < b


@st.composite
def _adversarial_values(draw, size=st.integers(2, 41)):
    """Sorted keys that stress the rules' arithmetic; ``size`` draws how many.

    Integer grids with zero steps give plateaus and all-equal runs, a scale
    of 5e-324 makes every step subnormal, and floats drawn up to +-1.7e308
    give key spans that overflow float64 differences.
    """
    count = draw(size)
    if draw(st.booleans()):
        steps = draw(st.lists(st.integers(0, 3), min_size=count - 1, max_size=count - 1))
        scale = draw(st.sampled_from((5e-324, 1.0, 1e300)))
        base = draw(st.sampled_from((0.0, -1.0, 1e308, -HUGE)))
        return [base + scale * i for i in itertools.accumulate(steps, initial=0)]
    values = draw(st.lists(st.floats(-HUGE, HUGE), min_size=count, max_size=count))
    if count >= 4 and draw(st.booleans()):
        values[:2] = [-HUGE, HUGE]
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
    case=([-HUGE, -1e308, 0.0, 1e308, HUGE], 1.5e308),
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
    case=([-HUGE, -1e308, 0.0, 1e308, HUGE], [1.5e308] * 10),
    config=SearchConfig.interpolation(),
)
@settings(max_examples=300)
def test_search_many_matches_search_adversarial(case, config):
    values, zs = case
    _assert_batch_matches(SortedList(values), zs, config)


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
    finish, and with every lane in the scalar loop."""
    lists = [SortedList(row, validate=False) for row in block]

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
@settings(max_examples=200, deadline=None)  # up to 1272 lanes, each searched four times
def test_search_block_matches_search_adversarial(case, configs):
    block, zs = case
    _assert_block_matches(block, zs, configs)


def test_search_block_mixed_lanes():
    # rows of one n drawn from different shapes; every variant's group holds
    # lanes with different kappas and caps
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
    _assert_block_matches(block, zs, configs)


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
    # and config r is its kappa pair, so the group's kappas differ per lane;
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


def test_search_block_interleaved_groups():
    # the lanes run ordered by probe rule, not by config: outputs must come
    # back in config order, whatever order the rules are listed in
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
    # binary is done; the middle group (ITP-Strict, capped at 2) empties first
    n = 600
    block = np.array([np.geomspace(1e-300, 1.0, n + 1), np.linspace(0.0, 1.0, n + 1)])
    zs = np.hstack([block[:, 1 : n : 23], (block[:, 1 : n : 41] + block[:, 2 : n + 1 : 41]) / 2])
    configs = [SearchConfig.binary(), SearchConfig.itp(Strict(), cap=2), SearchConfig.interpolation()]
    _assert_block_matches(block, zs, configs)
    queries = search_block(block, zs, configs)[1]
    assert queries[0].max() <= minmax_bound(n)
    assert queries[1].max() == 2
    assert queries[2, 0].max() > 300
