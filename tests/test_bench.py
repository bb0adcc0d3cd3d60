"""Benchmark harness: fairness, determinism, aggregation, CSV output."""

import hashlib
import importlib
import io
import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from itpsearch import bench
from itpsearch.bench import (
    CSV_HEADER,
    TABLE1_KAPPA1,
    TABLE1_KAPPA2,
    run_trials,
    sweep_kappa,
    sweep_n,
    write_csv,
)
from itpsearch.datasets import generate, load_numeric, load_text
from itpsearch.distributions import (
    Exponential,
    Gaussian,
    Step,
    Triangular,
    Uniform,
    sample_list,
    sample_target,
    trial_rng,
)
from itpsearch.search import (
    Local,
    Relaxed,
    SearchConfig,
    SortedList,
    Strict,
    minmax_bound,
    search,
    search_many,
)

# the module, not the function the package re-exports under the same name
search_module = importlib.import_module("itpsearch.search")

DATA = Path(__file__).resolve().parent.parent / "data"

FIVE_KINDS = (
    SearchConfig.binary(),
    SearchConfig.interpolation(),
    SearchConfig.itp(Strict()),
    SearchConfig.itp(Relaxed()),
    SearchConfig.itp(Local(), kappa1=0.2, kappa2=0.6),
)


def test_n2_forces_single_probe():
    rows = run_trials(Uniform(), [SearchConfig.binary()], 100, 0, n=2)
    (row,) = rows
    assert row.mean == 1.0
    assert row.max == 1
    assert row.median == 1.0
    assert row.cap_hits == 0
    assert row.n == 2
    assert row.trials == 100
    assert row.strategy == "binary"
    assert row.variant == "" and row.kappa1 is None


def test_rows_independent_of_strategy_set():
    # per-trial draws derive from the seed alone, so a strategy's row does
    # not change when other strategies run alongside it
    alone = run_trials(Uniform(), [SearchConfig.binary()], 50, 3, n=64)[0]
    paired = run_trials(
        Uniform(),
        [SearchConfig.interpolation(), SearchConfig.binary()],
        50,
        3,
        n=64,
    )
    assert paired[1] == alone


def test_run_trials_reproducible():
    configs = [SearchConfig.itp(Strict()), SearchConfig.interpolation()]
    a = run_trials(Uniform(), configs, 40, 9, n=100)
    b = run_trials(Uniform(), configs, 40, 9, n=100)
    assert a == b


def test_trial_stats_fields_are_python_numbers():
    # the aggregates are taken in numpy; a numpy scalar left in a row would
    # compare equal but repr differently (np.float64(2.5) under numpy 2)
    configs = [SearchConfig.binary(), SearchConfig.interpolation(cap=2), SearchConfig.itp(Local())]
    rows = run_trials(Uniform(), configs, 8, 3, n=50) + run_trials(generate("primes", 80), configs, 7, 3)
    for row in rows:
        for name in ("n", "trials", "max", "cap_hits", "seed"):
            assert type(getattr(row, name)) is int, (name, row)
        for name in ("mean", "median"):
            assert type(getattr(row, name)) is float, (name, row)
        for name in ("kappa1", "kappa2"):
            assert getattr(row, name) is None or type(getattr(row, name)) is float, (name, row)


def test_dataset_source_fixes_list_and_draws_z():
    ds = generate("primes", 500)
    rows = run_trials(ds, [SearchConfig.binary(), SearchConfig.itp()], 60, 2)
    assert all(r.n == 500 for r in rows)
    assert all(r.mean <= r.max for r in rows)
    assert all(r.median <= r.max for r in rows)
    # a second run with another seed must differ somewhere
    other = run_trials(ds, [SearchConfig.binary(), SearchConfig.itp()], 60, 5)
    assert rows != other


def test_cap_hits_recorded_at_cap():
    # interpolation on Fibonacci keys creeps one index per probe; a small
    # cap is guaranteed to fire
    ds = generate("fibonacci", 60)
    (row,) = run_trials(ds, [SearchConfig.interpolation(cap=3)], 30, 1)
    assert row.cap_hits > 0
    assert row.max == 3
    assert row.cap_hits <= row.trials


def test_relaxed_max_bound_holds():
    n = 300
    (row,) = run_trials(
        Uniform(),
        [SearchConfig.itp(Relaxed(extra=1.0))],
        300,
        4,
        n=n,
    )
    assert row.max <= minmax_bound(n) + 1
    assert row.strategy == "itp"
    assert row.variant == "relaxed"
    assert (row.kappa1, row.kappa2) == (0.01, 0.83)


def test_run_trials_validation():
    with pytest.raises(ValueError):
        run_trials(Uniform(), [SearchConfig.binary()], 0, 0, n=4)
    with pytest.raises(ValueError):
        run_trials(Uniform(), [], 5, 0, n=4)
    with pytest.raises(ValueError, match="n is required"):
        run_trials(Uniform(), [SearchConfig.binary()], 5, 0)
    with pytest.raises(ValueError, match="n must be >= 1"):
        run_trials(Uniform(), [SearchConfig.binary()], 5, 0, n=0)
    # a fixed source has its own n; a different one is a caller's mistake
    with pytest.raises(ValueError, match="n=7 contradicts"):
        run_trials(generate("primes", 100), [SearchConfig.binary()], 5, 0, n=7)
    (row,) = run_trials(generate("primes", 100), [SearchConfig.binary()], 5, 0, n=100)
    assert row.n == 100


def test_single_cell_sweep_equals_run_trials():
    cell = sweep_kappa([0.01], [0.83], 100, 25, 5)
    direct = run_trials(
        Uniform(), [SearchConfig.itp(Strict(), kappa1=0.01, kappa2=0.83)], 25, 5, n=100
    )
    assert cell == direct


def test_sweep_kappa_grid_shape():
    rows = sweep_kappa([0.01, 0.5], [0.6, 0.7, 0.8], 64, 10, 1)
    assert len(rows) == 6
    assert {(r.kappa1, r.kappa2) for r in rows} == {
        (k1, k2) for k1 in (0.01, 0.5) for k2 in (0.6, 0.7, 0.8)
    }
    assert all(r.variant == "strict" for r in rows)
    with pytest.raises(ValueError):
        sweep_kappa([], [0.83], 64, 10, 1)
    with pytest.raises(ValueError, match="variant must be Strict, Relaxed or Local"):
        sweep_kappa([0.01], [0.83], 64, 10, 1, variant=None)


def test_table1_grid_constants():
    assert len(TABLE1_KAPPA1) == 8
    assert len(TABLE1_KAPPA2) == 10
    assert TABLE1_KAPPA1[0] == 0.01 and TABLE1_KAPPA1[-1] == 0.78
    assert TABLE1_KAPPA2[0] == 0.51 and TABLE1_KAPPA2[-1] == 0.99


def test_sweep_n_rows_and_n1():
    strategies = [SearchConfig.binary(), SearchConfig.interpolation(), SearchConfig.itp()]
    rows = sweep_n([1, 2, 16], Uniform(), strategies, 20, 0)
    assert len(rows) == 9
    for row in rows:
        if row.n == 1:
            # bracket starts terminal: zero queries for every strategy
            assert row.mean == 0.0 and row.max == 0
    with pytest.raises(ValueError):
        sweep_n([], Uniform(), strategies, 20, 0)


def test_plain_sorted_list_source():
    lst = SortedList(np.linspace(0.0, 1.0, 9))
    (row,) = run_trials(lst, [SearchConfig.binary()], 30, 7)
    assert row.n == 8
    assert row.max <= minmax_bound(8)


def test_csv_format_and_reproducibility():
    rows = run_trials(
        Uniform(),
        [SearchConfig.binary(), SearchConfig.itp(Strict(), kappa1=0.01, kappa2=0.83)],
        30,
        11,
        n=50,
    )
    buf = io.StringIO()
    write_csv(rows, buf)
    text = buf.getvalue()
    lines = text.splitlines()
    assert lines[0] == ",".join(CSV_HEADER)
    assert len(lines) == 3
    binary_line, itp_line = lines[1], lines[2]
    assert binary_line.startswith("binary,50,30,")
    assert binary_line.endswith(",11,,,")  # seed then blank variant/kappas
    assert ",strict,0.01,0.83" in itp_line

    again = io.StringIO()
    write_csv(run_trials(
        Uniform(),
        [SearchConfig.binary(), SearchConfig.itp(Strict(), kappa1=0.01, kappa2=0.83)],
        30,
        11,
        n=50,
    ), again)
    assert again.getvalue() == text


def _summary(n, outcomes):
    """(n, trials, mean, median, max, cap_hits) of one config's outcomes."""
    queries = [o.queries for o in outcomes]
    return (
        n,
        len(outcomes),
        sum(queries) / len(outcomes),
        float(np.median(queries)),
        max(queries),
        sum(o.capped for o in outcomes),
    )


def _scalar_stats(lst, configs, trials, seed):
    """Per config (n, trials, mean, median, max, cap_hits) from one scalar
    search per trial: the reference for run_trials on a fixed list."""
    zs = [sample_target(lst[0], lst[lst.n], trial_rng(seed, t)) for t in range(trials)]
    return [_summary(lst.n, [search(lst, z, config) for z in zs]) for config in configs]


def _scalar_sampled_stats(spec, n, configs, trials, seed):
    """The same from a fresh list and target per trial, drawn on the trial's
    stream: the reference for run_trials on a distribution."""
    outcomes = [[] for _ in configs]
    for t in range(trials):
        rng = trial_rng(seed, t)
        lst = sample_list(spec, n, rng)
        z = sample_target(lst[0], lst[n], rng)
        for out, config in zip(outcomes, configs):
            out.append(search(lst, z, config))
    return [_summary(n, out) for out in outcomes]


def _stats(rows):
    return [(r.n, r.trials, r.mean, r.median, r.max, r.cap_hits) for r in rows]


@pytest.mark.parametrize(
    "make_source",
    [
        lambda: generate("harmonic", 3000),
        lambda: load_text(DATA / "surnames.txt"),
        lambda: load_numeric(DATA / "readings.csv", column=2),
        lambda: sample_list(Gaussian(), 5000, 3),  # a plain SortedList, heavy interpolation tail
    ],
    ids=["harmonic", "surnames", "readings", "gaussian-list"],
)
def test_fixed_list_rows_equal_scalar_reference(make_source):
    source = make_source()
    lst = source if isinstance(source, SortedList) else source.list
    rows = run_trials(source, FIVE_KINDS, 300, 12)
    assert _stats(rows) == _scalar_stats(lst, FIVE_KINDS, 300, 12)


def test_fixed_list_cap_hits_equal_scalar_reference():
    ds = generate("fibonacci", 60)
    configs = [SearchConfig.interpolation(cap=3), SearchConfig.binary(cap=3)]
    rows = run_trials(ds, configs, 200, 4)
    assert rows[0].cap_hits > 0
    assert _stats(rows) == _scalar_stats(ds.list, configs, 200, 4)


SAMPLED_CONFIGS = FIVE_KINDS + (
    SearchConfig.binary(cap=3),
    SearchConfig.interpolation(cap=2),
    SearchConfig.itp(Strict(), kappa1=0.5, kappa2=0.9, cap=4),
)


# the five specs, and the concentrated Exponential(rate=ln n) for n >= 2
SAMPLED_CASES = [
    pytest.param(spec, n, id=f"{type(spec).__name__}-{n}")
    for spec in (Uniform(), Gaussian(), Exponential(), Triangular(), Step())
    for n in (1, 2, 17, 1000)
] + [pytest.param(Exponential(rate=math.log(n)), n, id=f"ExpLnN-{n}") for n in (2, 17, 1000)]


@pytest.mark.parametrize("rows", [1, 2, 7])
@pytest.mark.parametrize("spec, n", SAMPLED_CASES)
def test_sampled_rows_equal_scalar_reference(spec, n, rows):
    # blocks of `rows` lists; at 7, whose 56 lanes pass SCALAR_FINISH, sorted
    # blocks hold 14, so 16 trials end in 2 lists read on demand and 23 in 9
    # sorted ones, while 5 trials are one block of 5 read on demand
    with mock.patch.object(bench, "BLOCK_BYTES", rows * 8 * (n + 1)):
        for trials in (5, 16, 23):
            got = run_trials(spec, SAMPLED_CONFIGS, trials, 13, n=n)
            assert _stats(got) == _scalar_sampled_stats(spec, n, SAMPLED_CONFIGS, trials, 13)


def _perfbench_configs(cap):
    return [
        SearchConfig.binary(cap=cap),
        SearchConfig.interpolation(cap=cap),
        SearchConfig.itp(Strict(), cap=cap),
        SearchConfig.itp(Relaxed(0.99), cap=cap),
    ]


@pytest.mark.parametrize("cap", [12, 1000])
@pytest.mark.parametrize(
    "spec", [Uniform(), Gaussian(), Exponential(), Triangular(), Step()], ids=lambda spec: type(spec).__name__
)
def test_sampled_rows_equal_scalar_reference_at_paper_scale(spec, cap):
    # 2 trials of 4 configs: 8 lanes, whose unsorted rows are read on demand
    configs = _perfbench_configs(cap)
    got = run_trials(spec, configs, 2, 13, n=200_000)
    assert _stats(got) == _scalar_sampled_stats(spec, 200_000, configs, 2, 13)


def test_only_scalar_finished_blocks_read_order_statistics():
    with mock.patch.object(
        search_module, "_OrderStatistics", wraps=search_module._OrderStatistics
    ) as made:
        run_trials(Uniform(), _perfbench_configs(1000), 2, 1, n=200_000)  # 2 rows x 4 configs
        assert made.call_count == 2
        made.reset_mock()
        sweep_kappa(TABLE1_KAPPA1, TABLE1_KAPPA2, 200_000, 3, 1)  # 3 rows x 80 configs
        assert made.call_count == 0


def _block_rows(calls):
    """The list count of each search_block call that a mock wraps."""
    return [call.args[0].shape[0] for call in calls.call_args_list]


def test_lockstep_blocks_hold_twice_the_lists():
    # room for 3 lists, whose 240 lanes run the lockstep loop: blocks of 6
    n = 1000
    with mock.patch.object(bench, "BLOCK_BYTES", 3 * 8 * (n + 1)), mock.patch.object(
        bench, "search_block", wraps=bench.search_block
    ) as calls:
        got = sweep_kappa(TABLE1_KAPPA1, TABLE1_KAPPA2, n, 7, 13)
    assert _block_rows(calls) == [6, 1]
    configs = [
        SearchConfig.itp(Strict(), kappa1=k1, kappa2=k2) for k2 in TABLE1_KAPPA2 for k1 in TABLE1_KAPPA1
    ]
    assert _stats(got) == _scalar_sampled_stats(Uniform(), n, configs, 7, 13)


@pytest.mark.parametrize(
    "configs, lists, lanes_past, blocks, made",
    [
        (_perfbench_configs(1000), 12, 0, [12, 12], 24),  # each row read on demand
        (SAMPLED_CONFIGS[:7], 7, 1, [14], 0),  # twice the lists, sorted
    ],
    ids=["at-scalar-finish", "one-lane-more"],
)
def test_only_sorted_blocks_hold_twice_the_lists(configs, lists, lanes_past, blocks, made):
    # `lists` fit in BLOCK_BYTES, giving SCALAR_FINISH + lanes_past lanes
    assert len(configs) * lists == search_module.SCALAR_FINISH + lanes_past
    n, trials = 1000, sum(blocks)
    with mock.patch.object(bench, "BLOCK_BYTES", lists * 8 * (n + 1)), mock.patch.object(
        bench, "search_block", wraps=bench.search_block
    ) as calls, mock.patch.object(
        search_module, "_OrderStatistics", wraps=search_module._OrderStatistics
    ) as order_statistics:
        got = run_trials(Uniform(), configs, trials, 5, n=n)
    assert _block_rows(calls) == blocks
    assert order_statistics.call_count == made
    assert _stats(got) == _scalar_sampled_stats(Uniform(), n, configs, trials, 5)


def test_sorted_rows_are_never_reordered():
    # a SortedList's keys are read as they are, even where search_block's
    # scalar loop finishes every lane: only drawn rows are reordered
    lst = sample_list(Uniform(), 200_000, 3)
    before = lst.values.tobytes()
    search_many(lst, [0.25, 0.5, 0.75], SearchConfig.itp())
    assert lst.values.tobytes() == before
    run_trials(lst, _perfbench_configs(1000), 12, 1)  # 4 configs x 12 targets: 48 lanes
    assert lst.values.tobytes() == before


# sha256 of _golden_csv(), pinned with numpy 2.4.6 (PCG64 streams and the
# float arithmetic of every rule feed it)
GOLDEN_SHA256 = "d69daa78ab583a3487a6ce38a7dd242720bc5fa8ef43bf25f3d476ff5878f9ee"


def _golden_csv():
    """CSV bytes of every row shape the library writes: sweep_n over each
    distribution (n = 1, 2, 1000, 4097), a kappa sweep, and fixed lists."""
    configs = [
        SearchConfig.binary(),
        SearchConfig.interpolation(cap=5),
        SearchConfig.itp(Strict()),
        SearchConfig.itp(Relaxed()),
        SearchConfig.itp(Local()),
    ]
    grid = [1, 2, 1000, 4097]
    rows = []
    for spec in (Uniform(), Gaussian(), Exponential(), Triangular(), Step()):
        rows += sweep_n(grid, spec, configs, 40, 31)
    for n in grid[1:]:  # rate ln n needs n >= 2
        rows += sweep_n([n], Exponential(rate=math.log(n)), configs, 40, 32)
    rows += sweep_kappa([0.01, 0.34, 0.78], [0.51, 0.83, 0.99], 20_000, 40, 33)
    rows += run_trials(generate("primes", 5000), configs, 40, 34)
    rows += run_trials(load_text(DATA / "surnames.txt"), configs, 40, 35)
    buf = io.StringIO()
    write_csv(rows, buf)
    return buf.getvalue().encode()


def test_golden_csv_bytes():
    digest = hashlib.sha256(_golden_csv()).hexdigest()
    assert digest == GOLDEN_SHA256, (
        f"CSV bytes changed: sha256 {digest} under numpy {np.__version__}; "
        f"the pinned hash was computed with numpy 2.4.6"
    )
