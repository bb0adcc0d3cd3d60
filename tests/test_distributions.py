"""Seeded generators: structure, determinism, and distribution shape."""

import math

import numpy as np
import pytest

from itpsearch.distributions import (
    Exponential,
    Gaussian,
    Step,
    Triangular,
    Uniform,
    as_rng,
    fill_list,
    sample_list,
    sample_target,
    trial_rng,
)

ALL_SPECS = (Uniform(), Gaussian(), Exponential(), Triangular(), Step())


def ks_statistic(samples, cdf):
    """Two-sided Kolmogorov-Smirnov distance against an analytic CDF."""
    x = np.sort(np.asarray(samples))
    m = x.size
    f = cdf(x)
    upper = np.max(np.arange(1, m + 1) / m - f)
    lower = np.max(f - np.arange(0, m) / m)
    return max(upper, lower)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: type(s).__name__)
def test_sample_list_structure(spec):
    lst = sample_list(spec, 40, seed=7)
    v = lst.values
    assert v.size == 41
    assert v[0] == 0.0
    assert v[-1] == 1.0
    assert np.all(np.diff(v) >= 0)
    assert np.all((v[1:-1] > 0.0) & (v[1:-1] < 1.0))


@pytest.mark.parametrize(
    "spec, n",
    [pytest.param(spec, n, id=f"{type(spec).__name__}-{n}")
     for spec in ALL_SPECS for n in (1, 2, 17, 1000)]
    + [pytest.param(Exponential(rate=math.log(n)), n, id=f"ExpLnN-{n}") for n in (2, 17, 1000)],
)  # fmt: skip
def test_fill_list_row_equals_sample_list(spec, n):
    # a row of a block in use, drawn on a trial stream, gets sample_list's
    # keys and leaves the stream where sample_list leaves it
    block = np.full((3, n + 1), np.nan)
    rng = trial_rng(21, 4)
    fill_list(spec, block[1], rng)
    ref_rng = trial_rng(21, 4)
    lst = sample_list(spec, n, ref_rng)
    assert block[1].tolist() == lst.values.tolist()
    assert np.isnan(block[[0, 2]]).all()
    assert rng.random() == ref_rng.random()


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: type(s).__name__)
def test_sample_list_n1_has_no_interior(spec):
    lst = sample_list(spec, 1, seed=3)
    assert lst.values.tolist() == [0.0, 1.0]


def test_sample_list_deterministic():
    a = sample_list(Uniform(), 100, seed=42)
    b = sample_list(Uniform(), 100, seed=42)
    assert np.array_equal(a.values, b.values)
    c = sample_list(Uniform(), 100, seed=43)
    assert not np.array_equal(a.values, c.values)


def test_trial_streams_independent_of_order():
    # stream t must not depend on whether earlier streams were consumed
    direct = trial_rng(9, 5).random(4)
    _ = trial_rng(9, 0).random(1000)
    again = trial_rng(9, 5).random(4)
    assert np.array_equal(direct, again)
    assert not np.array_equal(direct, trial_rng(9, 6).random(4))
    assert not np.array_equal(direct, trial_rng(10, 5).random(4))


def test_as_rng_passthrough():
    gen = as_rng(1)
    assert as_rng(gen) is gen


def test_distinct_keys_in_practice():
    for spec in ALL_SPECS:
        v = sample_list(spec, 2000, seed=5).values
        assert np.unique(v).size == v.size


def test_uniform_shape():
    interior = sample_list(Uniform(), 10_001, seed=1).values[1:-1]
    assert ks_statistic(interior, lambda x: x) < 0.02


def test_triangular_shape():
    # sqrt of a uniform draw has CDF x^2 on [0, 1]
    interior = sample_list(Triangular(), 10_001, seed=2).values[1:-1]
    assert ks_statistic(interior, lambda x: x**2) < 0.02


def test_step_shape():
    split, left_mass = 0.75, 0.5
    interior = sample_list(Step(split, left_mass), 10_001, seed=3).values[1:-1]

    def cdf(x):
        left = left_mass * np.minimum(x / split, 1.0)
        right = (1 - left_mass) * np.clip((x - split) / (1 - split), 0.0, 1.0)
        return left + right

    assert ks_statistic(interior, cdf) < 0.02
    # mass split across the two plateaus matches left_mass
    frac_left = np.mean(interior < split)
    assert abs(frac_left - left_mass) < 0.02


def test_exponential_shape():
    # rejection onto [0, 1] leaves a truncated exponential; rate 1 is the
    # default (nearly flat), rate ln(2^16) the concentrated list of test_05
    for rate in (1.0, math.log(2**16)):
        interior = sample_list(Exponential(rate=rate), 10_001, seed=4).values[1:-1]
        norm = 1.0 - math.exp(-rate)
        assert ks_statistic(interior, lambda x: (1.0 - np.exp(-rate * x)) / norm) < 0.02


def test_gaussian_concentrates_near_its_mean():
    # sigma=0.01 packs nearly everything within 4 sigma of the drawn mean
    interior = sample_list(Gaussian(sigma=0.01), 5_001, seed=6).values[1:-1]
    center = np.median(interior)
    assert np.mean(np.abs(interior - center) < 0.04) > 0.99


def test_sample_target_range_and_mean():
    rng = as_rng(8)
    draws = np.array([sample_target(0.25, 0.75, rng) for _ in range(100_000)])
    assert np.all((draws > 0.25) & (draws < 0.75))
    assert abs(draws.mean() - 0.5) < 0.01


def test_sample_target_validation():
    with pytest.raises(ValueError):
        sample_target(1.0, 1.0, 0)
    with pytest.raises(ValueError):
        sample_target(2.0, 1.0, 0)


def test_spec_validation():
    with pytest.raises(ValueError):
        Gaussian(sigma=0.0)
    with pytest.raises(ValueError):
        Exponential(rate=0.0)
    with pytest.raises(ValueError):
        Step(split=0.0)
    with pytest.raises(ValueError):
        Step(split=0.75, left_mass=1.0)
    with pytest.raises(ValueError):
        sample_list(Uniform(), 0, seed=1)
