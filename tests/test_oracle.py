"""Ground-truth engines: linear scan, exhaustive trees, closed forms."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from itpsearch.oracle import (
    average_depth_c2,
    binary_equality_profile,
    linear_scan,
    minimax_depth,
    sequential_rule,
    strategy_worst_depth,
)
from itpsearch.search import (
    SearchConfig,
    SortedList,
    Strict,
    make_probe_fn,
    minmax_bound,
    search,
)


def test_linear_scan_examples():
    lst = SortedList([0.0, 0.2, 0.5, 1.0])
    assert linear_scan(lst, 0.3) == 1
    assert linear_scan(lst, 0.5) == 2
    assert linear_scan(SortedList([0.0, 1.0]), 0.7) == 0


def test_linear_scan_domain():
    lst = SortedList([0.1, 0.9])
    with pytest.raises(ValueError):
        linear_scan(lst, 0.0)
    with pytest.raises(ValueError):
        linear_scan(lst, 1.0)
    assert linear_scan(lst, 0.9) == 1  # right endpoint: largest k with v_k <= z


@given(
    values=st.lists(st.integers(0, 100), min_size=2, max_size=30, unique=True),
    frac=st.floats(0.0, 0.999),
    scale=st.floats(0.01, 100.0),
    shift=st.floats(-50.0, 50.0),
)
def test_linear_scan_affine_invariance(values, frac, scale, shift):
    base = np.sort(np.asarray(values, dtype=float))
    z = base[0] + frac * (base[-1] - base[0])
    k = linear_scan(SortedList(base), z)
    k2 = linear_scan(SortedList(base * scale + shift), z * scale + shift)
    assert k == k2


def test_minimax_depth_examples():
    assert minimax_depth(17) == 5
    assert minimax_depth(2) == 1
    assert minimax_depth(100) == 7


def test_minimax_depth_equals_bound_small():
    for n in range(2, 513):
        assert minimax_depth(n) == minmax_bound(n)


def test_minimax_depth_budget():
    with pytest.raises(ValueError):
        minimax_depth(4097)


def test_strategy_worst_depth_examples():
    itp_rule = make_probe_fn(SearchConfig.itp(Strict()), 17)
    assert strategy_worst_depth(itp_rule, 17) == 5
    binary_rule = make_probe_fn(SearchConfig.binary(), 17)
    assert strategy_worst_depth(binary_rule, 17) == 5
    assert strategy_worst_depth(sequential_rule, 17) == 16


@pytest.mark.parametrize("n", [2, 3, 17, 64, 100, 256])
def test_strategy_worst_depth_calls_rule_once_per_bracket(n):
    # a probe tree over n + 1 keys has n width-1 leaves and n - 1 brackets
    # that probe, each reached by one path: the enumeration needs no memo
    binary, itp = (make_probe_fn(config, n) for config in (SearchConfig.binary(), SearchConfig.itp(Strict())))
    for rule in (binary, itp, sequential_rule):
        seen = []

        def counted(a, b, j, va, vb, z, rule=rule):
            seen.append((a, b, j))
            return rule(a, b, j, va, vb, z)

        strategy_worst_depth(counted, n)
        assert len(seen) == n - 1
        assert len(set(seen)) == n - 1


def test_strategy_worst_depth_budget():
    with pytest.raises(ValueError):
        strategy_worst_depth(sequential_rule, 1025)


def test_strategy_worst_depth_rejects_exterior_probes():
    def out_of_bracket(a, b, j, va, vb, z):
        return a
    with pytest.raises(ValueError):
        strategy_worst_depth(out_of_bracket, 8)


def test_average_depth_c2_examples():
    # n=32: N_1/2=5, q=16, delta=(32-5-32)/31
    assert average_depth_c2(32) == pytest.approx(4 + 5 / 31)
    # n=2: N_1/2=1, q=1, delta=-1
    assert average_depth_c2(2) == pytest.approx(1.0)
    n = 2**17 + 1
    assert average_depth_c2(n) >= minmax_bound(n) - 2
    with pytest.raises(ValueError, match="n must be >= 2, got 1"):
        average_depth_c2(1)


def test_average_depth_c2_band():
    for n in range(2, 1025):
        half = minmax_bound(n)
        assert half - 2 <= average_depth_c2(n) <= half


def test_binary_equality_profile_small_cases():
    # n=2: either outcome resolves after the single forced probe
    p = binary_equality_profile(2)
    assert (p.max_depth, p.avg_depth) == (1, Fraction(1))
    # n=3: k*=1 hits in 1; k*=2 and k*=3 take 2 probes each
    p = binary_equality_profile(3)
    assert (p.max_depth, p.avg_depth) == (2, Fraction(5, 3))
    with pytest.raises(ValueError, match="n must be >= 1, got 0"):
        binary_equality_profile(0)


def test_binary_equality_profile_bounds():
    for n in range(2, 257):
        p = binary_equality_profile(n)
        assert p.avg_depth <= p.max_depth
        assert p.max_depth <= minmax_bound(n)
        # equality-protocol average respects the analytic lower bound
        assert p.avg_depth >= minmax_bound(n) - 2


def test_profile_agrees_with_instrumented_search():
    # cross-check the enumeration against real searches on an integer ramp
    for n in (7, 19, 64):
        lst = SortedList(np.arange(n + 1, dtype=float))
        total = 0
        deepest = 0
        for k_star in range(1, n + 1):
            out = search(lst, float(k_star), SearchConfig.binary())
            total += out.queries
            deepest = max(deepest, out.queries)
        p = binary_equality_profile(n)
        assert p.max_depth == deepest
        assert p.avg_depth == Fraction(total, n)
