"""Seeded generators: structure, determinism, and distribution shape."""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from itpsearch import distributions
from itpsearch.distributions import (
    Exponential,
    Gaussian,
    Step,
    Triangular,
    Uniform,
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
    # keys, its interior in draw order, and leaves the stream where
    # sample_list leaves it
    block = np.full((3, n + 1), np.nan)
    rng = trial_rng(21, 4)
    fill_list(spec, block[1], rng)
    ref_rng = trial_rng(21, 4)
    lst = sample_list(spec, n, ref_rng)
    row = block[1].copy()
    row[1:-1].sort()
    assert row.tolist() == lst.values.tolist()
    assert np.isnan(block[[0, 2]]).all()
    assert rng.random() == ref_rng.random()


WHOLE = 2**20  # a CHUNK above any batch: the first is max(64, 1.5 * 2e5) = 300,000 draws


def _fill_bits(spec, n, trial, chunk):
    """fill_list's key bits and the stream's next draw, at the given CHUNK."""
    values = np.empty(n + 1)
    rng = trial_rng(21, trial)
    with mock.patch.object(distributions, "CHUNK", chunk):
        fill_list(spec, values, rng)
    return values.tobytes(), rng.random()


# the first trials of master seed 21 whose Gaussian mean (the stream's first
# draw) lies within 0.003 of an end: a sigma = 0.01 fill there rejects about
# 4 draws in 10 and takes 3-5 batches at n = 1000 and 5000
EDGE_TRIALS = (443, 1339, 1388, 1451)


@pytest.mark.parametrize(
    "spec, n",
    [pytest.param(spec, n, id=f"{spec}-{n}")
     for n in (1, 2, 17, 1000, 5000)
     for spec in (Gaussian(), Gaussian(0.3), Exponential(), Exponential(rate=math.log(max(n, 2))),
                  Step(), Step(0.1, 0.9))],
)  # fmt: skip
def test_chunked_fill_equals_whole_batch_fill(spec, n):
    # drawing each batch (and each of Step's passes) a chunk at a time gives
    # the keys and the stream position of one draw call per batch, also when
    # a chunk ends mid-batch, when out fills mid-batch, and past the last chunk
    assert all(abs(trial_rng(21, t).random() - 0.5) > 0.497 for t in EDGE_TRIALS)
    trials = (0, 1, *EDGE_TRIALS) if spec == Gaussian() else (0, 1)
    for trial in trials:
        whole = _fill_bits(spec, n, trial, WHOLE)
        for chunk in (1, 7, 64):
            assert _fill_bits(spec, n, trial, chunk) == whole, (trial, chunk)


@pytest.mark.parametrize(
    "spec",
    (Gaussian(), Gaussian(0.3), Exponential(), Exponential(rate=math.log(200_000)), Step(), Step(0.1, 0.9)),
    ids=str,
)
def test_default_chunk_fill_equals_whole_batch_fill(spec):
    # at n = 2e5 the first batch and both Step passes span several chunks
    n = 200_000
    assert _fill_bits(spec, n, 3, distributions.CHUNK) == _fill_bits(spec, n, 3, WHOLE)


def _chunked_step_fill(self, out, rng):
    """Step.fill as it was when its side pass, too, went CHUNK values at a time."""
    chunk = distributions.CHUNK
    left = np.empty(out.size, dtype=bool)
    for start in range(0, out.size, chunk):
        u = rng.random(out=out[start : start + chunk])
        np.less(u, self.left_mass, out=left[start : start + chunk])
    for start in range(0, out.size, chunk):
        u = rng.random(out=out[start : start + chunk])
        side = left[start : start + chunk]
        u[:] = np.where(side, self.split * u, self.split + (1.0 - self.split) * u)


@pytest.mark.parametrize("spec", (Step(), Step(0.1, 0.9)), ids=str)
@pytest.mark.parametrize(
    "interior", (1, distributions.CHUNK - 1, distributions.CHUNK, distributions.CHUNK + 1, 200_000)
)
def test_step_side_pass_equals_chunked_side_pass(spec, interior):
    # one draw call for every side gives the sides, the positions and the
    # stream position of the chunked side pass, on both sides of a chunk edge
    with mock.patch.object(Step, "fill", _chunked_step_fill):
        reference = _fill_bits(spec, interior + 1, 3, distributions.CHUNK)
    assert _fill_bits(spec, interior + 1, 3, distributions.CHUNK) == reference


def _mask_filter_fill_accepted(out, draw, keep):
    """The rejection fill as it was before compaction used compress: every
    chunk, all kept or not, filtered by boolean-mask indexing."""
    got = 0
    while got < out.size:
        want = out.size - got
        batch = max(64, want + want // 2)
        for start in range(0, batch, distributions.CHUNK):
            chunk = draw(min(distributions.CHUNK, batch - start))
            chunk = chunk[keep(chunk)]
            take = min(out.size - got, chunk.size)
            out[got : got + take] = chunk[:take]
            got += take


MID_TRIAL = 3  # master seed 21's Gaussian mean is 0.317 here: no draw is rejected


@pytest.mark.parametrize(
    "spec, n, trials",
    [pytest.param(Exponential(rate=0.001), n, (0, 1), id=f"Exp0.001-{n}") for n in (2, 5)]
    + [pytest.param(spec, n, (0, 1), id=f"{spec}-{n}")
       for n in (17, 1000) for spec in (Exponential(), Exponential(rate=math.log(n)))]
    + [pytest.param(Gaussian(), 1000, (MID_TRIAL, *EDGE_TRIALS), id="Gaussian-1000")],
)  # fmt: skip
def test_compress_fill_equals_mask_filter_fill(spec, n, trials):
    # acceptance rates from 0.1% (whole chunks rejected) through 63% and the
    # edge means' ~60% to 100% (chunks used as drawn): compress keeps the
    # draws, their order and the stream position of the mask filter
    assert 0.25 < trial_rng(21, MID_TRIAL).random() < 0.75
    for trial in trials:
        for chunk in (1, 7, 64, distributions.CHUNK):
            with mock.patch.object(distributions, "_fill_accepted", _mask_filter_fill_accepted):
                reference = _fill_bits(spec, n, trial, chunk)
            assert _fill_bits(spec, n, trial, chunk) == reference, (trial, chunk)


@pytest.mark.parametrize("spec", (Gaussian(), Exponential(), Step()), ids=lambda s: type(s).__name__)
def test_fill_list_temporaries_fit_in_chunks(spec):
    # beyond its row a fill holds Step's n-byte side mask and a few chunks,
    # not batch-sized arrays (those took 4.2-6.6 MB at n = 2e5)
    n = 200_000
    values = np.empty(n + 1)
    rng = trial_rng(21, 0)
    tracemalloc.start()
    try:
        fill_list(spec, values, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n + 32 * distributions.CHUNK


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
    rng = np.random.default_rng(8)
    draws = np.array([sample_target(0.25, 0.75, rng) for _ in range(100_000)])
    assert np.all((draws > 0.25) & (draws < 0.75))
    assert abs(draws.mean() - 0.5) < 0.01


def test_sample_target_validation():
    with pytest.raises(ValueError):
        sample_target(1.0, 1.0, 0)
    with pytest.raises(ValueError):
        sample_target(2.0, 1.0, 0)
    # integer ends that round to one float64 leave nothing to draw: the loop
    # would never stop
    for lo, hi in ((0.0, math.inf), (-math.inf, 0.0), (math.nan, 1.0), (2**60, 2**60 + 1)):
        with pytest.raises(ValueError, match="need finite lo < hi"):
            sample_target(lo, hi, 0)


def test_sample_target_needs_a_float_inside():
    # every draw would land on an end, so the loop could never stop
    for lo in (1.0, -0.0, -1.7e308):
        with pytest.raises(ValueError, match="no float lies strictly inside"):
            sample_target(lo, math.nextafter(lo, math.inf), 0)
    one_up = math.nextafter(1.0, math.inf)
    assert sample_target(1.0, math.nextafter(one_up, math.inf), 0) == one_up


def test_sample_target_overflowing_span():
    # hi - lo is inf: every draw would be inf or NaN, so the loop could never stop;
    # an integer end beyond float64's range counts as an infinity
    for lo, hi in (
        (-1.7e308, 1.7e308),
        (-1.7e308, math.nextafter(math.inf, 0)),
        (0, 10**400),
        (-(10**400), 0),
    ):
        with pytest.raises(ValueError, match="need finite lo < hi"):
            sample_target(lo, hi, 0)


class _StubGenerator(np.random.Generator):
    """A Generator whose random() returns the given draws in order."""

    def __init__(self, draws):
        super().__init__(np.random.PCG64(0))
        self.draws = list(draws)

    def random(self):
        return self.draws.pop(0)


def test_sample_target_redraws_an_endpoint_hit():
    # a draw of 0.0 lands on lo (probability 2**-53, so no seeded stream
    # reaches it) and must be redrawn
    stub = _StubGenerator([0.0, 0.5])
    z = sample_target(0.25, 0.75, stub)
    assert 0.25 < z < 0.75
    assert z == sample_target(0.25, 0.75, _StubGenerator([0.5]))
    assert stub.draws == []


def test_spec_validation():
    # a NaN or infinite sigma or rate used to pass: sample_list then never
    # returned (no draw is accepted) or, for rate=inf, drew only zeros; these
    # are checked at construction only, so no test runs the hanging draw
    for bad in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="sigma must be finite and positive"):
            Gaussian(sigma=bad)
        with pytest.raises(ValueError, match="rate must be finite and positive"):
            Exponential(rate=bad)
    with pytest.raises(ValueError):
        Step(split=0.0)
    with pytest.raises(ValueError):
        Step(split=0.75, left_mass=1.0)
    with pytest.raises(ValueError):
        sample_list(Uniform(), 0, seed=1)
