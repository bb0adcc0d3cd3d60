"""End-to-end acceptance checks for the library's headline guarantees.

One test per guarantee, each printing PASS/FAIL lines with the measured
numbers or the first problem found (visible with `pytest -v -s`, or on
failure).  Tolerances on published average-case figures are wide enough to
absorb rounding-rule and z-stream differences; the worst-case bounds are
exact.  Tests 01, 07, 08 and 10 call the checks behind `itpsearch verify`
(``itpsearch.cli.check_*``) at larger sizes, so each check has one
implementation.
"""

import io
import math
import time

import numpy as np
import pytest

from itpsearch.bench import TABLE1_KAPPA1, TABLE1_KAPPA2, run_trials, sweep_kappa, write_csv
from itpsearch.cli import (
    check_codec,
    check_equivalence,
    check_minimax_oracle,
    check_minmax_exhaustive,
    check_worst_depth,
)
from itpsearch.datasets import generate
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
from itpsearch.search import Relaxed, SearchConfig, SortedList, Strict, minmax_bound, search

SEED = 20260814


def report(ok, label, detail):
    print(f"{'PASS' if ok else 'FAIL'} {label}: {detail}")
    assert ok, f"{label}: {detail}"


def report_check(label, problem, detail):
    """Report a check from itpsearch.cli: its first problem, or detail if none."""
    report(problem is None, label, problem or detail)


def test_01_minmax_bound_strict():
    """ITP-Strict never exceeds ceil(log2 n): exhaustively small, randomized large."""
    t0 = time.time()
    report_check("01 minmax bound, exhaustive n=2..256", check_minmax_exhaustive(256), "ok")

    config = SearchConfig.itp(Strict())
    violations = 0
    checked = 0
    for n, lists, draws in ((1_000, 10_000, 1), (100_000, 10_000, 1), (2**20, 250, 40)):
        bound = minmax_bound(n)
        for i in range(lists):
            rng = trial_rng(SEED, i)
            lst = sample_list(Uniform(), n, rng)
            for _ in range(draws):
                z = sample_target(0.0, 1.0, rng)
                checked += 1
                if search(lst, z, config).queries > bound:
                    violations += 1

    report(
        violations == 0,
        "01 minmax bound, randomized",
        f"{checked} searches, {violations} violations, {time.time() - t0:.1f}s",
    )


# (kappa1, kappa2, published mean) of the three sweet-spot cells
SWEET_SPOT = [(0.01, 0.83, 6.87), (0.01, 0.99, 7.51), (0.78, 0.99, 17.69)]


def _sweet_spot_run():
    configs = [SearchConfig.itp(Strict(), kappa1=k1, kappa2=k2) for k1, k2, _ in SWEET_SPOT]
    return run_trials(Uniform(), configs, 10_000, SEED + 2, n=200_000)


@pytest.fixture(scope="module")
def sweet_spot_rows():
    """One sweet-spot run (10k lists of 2e5 keys), shared by tests 02 and 11."""
    return _sweet_spot_run()


def test_02_sweet_spot_means(sweet_spot_rows):
    """Mean queries at n=2e5 for three (kappa1, kappa2) cells, within 0.5."""
    cells = list(zip(sweet_spot_rows, SWEET_SPOT))
    deltas = [abs(row.mean - want) for row, (_, _, want) in cells]
    detail = ", ".join(
        f"k=({k1},{k2}) mean={row.mean:.3f} (want {want}+-0.5)" for row, (k1, k2, want) in cells
    )
    report(max(deltas) <= 0.5, "02 sweet spot", detail)


def test_03_kappa_grid_shape():
    """Full 8x10 grid: all means <= 18 and the minimum sits in the 0.01 column."""
    t0 = time.time()
    rows = sweep_kappa(TABLE1_KAPPA1, TABLE1_KAPPA2, 200_000, 1_000, SEED + 3)
    worst = max(row.mean for row in rows)
    best = min(rows, key=lambda row: row.mean)
    ok = worst <= 18.0 and best.kappa1 == 0.01
    report(
        ok,
        "03 kappa grid",
        f"max mean {worst:.2f} <= 18, min {best.mean:.2f} at "
        f"kappa=({best.kappa1},{best.kappa2}), {time.time() - t0:.1f}s",
    )


def test_04_relaxed_tracks_interpolation():
    """ITP-Relaxed(N_1/2+1) stays within 1.5 mean queries of interpolation."""
    details = []
    ok = True
    for n in (2**10, 2**14, 2**18):
        rows = run_trials(
            Uniform(),
            [SearchConfig.interpolation(), SearchConfig.itp(Relaxed(extra=1.0))],
            500,
            SEED + 4,
            n=n,
        )
        interp, itp = rows
        gap = itp.mean - interp.mean
        ok &= gap <= 1.5 and itp.max <= minmax_bound(n) + 1
        details.append(f"n=2^{n.bit_length() - 1} gap={gap:.2f} max={itp.max}")
    report(ok, "04 relaxed vs interpolation", "; ".join(details))


def test_05_distribution_robustness():
    """Non-uniform lists at n=2^16: relaxed ITP mean <= log2 n + 1 on every
    shape, and interpolation's worst case above log2 n on the two
    concentrated ones (gaussian, concentrated exponential).

    The concentrated exponential has rate ln n (~11.09 at n=2^16): an
    untruncated Exp(1) sample of n draws spans about ln n, and rescaling
    that span onto [0, 1] gives this density.  The default
    ``Exponential(rate=1.0)`` is exp(1) rejected into [0, 1], a nearly flat
    density (endpoint ratio e), so it stays in the mean clause only; on it
    interpolation's 500-trial maximum was 12..16 over 20 seeds
    (SEED + 5 + 1000*s), never above 16.  On the concentrated list, at
    SEED + 5: interpolation max 90 (mean 39.3), relaxed ITP mean 14.67 and
    max 17; over the same 20 seeds interpolation's max was 89..94 and the
    largest ITP mean 15.0.
    """
    n = 2**16
    specs = {
        "gaussian": Gaussian(sigma=0.01),
        "exponential": Exponential(rate=1.0),
        "exponential-concentrated": Exponential(rate=math.log(n)),
        "triangular": Triangular(),
        "step": Step(0.75, 0.5),
    }
    mean_ok = True
    details = []
    interp_max = {}
    for name, spec in specs.items():
        rows = run_trials(
            spec,
            [SearchConfig.itp(Relaxed()), SearchConfig.interpolation()],
            500,
            SEED + 5,
            n=n,
        )
        itp, interp = rows
        mean_ok &= itp.mean <= 17.0
        interp_max[name] = interp.max
        details.append(f"{name}: itp mean {itp.mean:.2f}, interp max {interp.max}")
    tail_ok = interp_max["gaussian"] > 16 and interp_max["exponential-concentrated"] > 16
    details.append(f"itp means <= 17: {'yes' if mean_ok else 'NO'}")
    details.append(
        f"interp max > 16 on gaussian/exponential-concentrated: {'yes' if tail_ok else 'NO'}"
    )
    report(mean_ok and tail_ok, "05 distribution robustness", "; ".join(details))


def test_06_binary_lower_bounds():
    """Binary search averages: >= N_1/2 - 1 missing the keys, >= N_1/2 - 2 hitting them."""
    ok = True
    details = []
    for n in (100, 1_000, 100_000):
        half = minmax_bound(n)
        (row,) = run_trials(Uniform(), [SearchConfig.binary()], 10_000, SEED + 6, n=n)
        ok &= row.mean >= half - 1
        details.append(f"n={n} miss-mean={row.mean:.3f}>={half - 1}")

        # equality protocol: k* uniform over the cells, z = values[k*];
        # binary probes depend on indices only, so one ramp list suffices
        lst = SortedList(np.arange(n + 1, dtype=float))
        rng = np.random.default_rng(SEED + 7)
        hits = rng.integers(1, n + 1, size=10_000)
        total = sum(search(lst, float(k), SearchConfig.binary()).queries for k in hits)
        eq_mean = total / hits.size
        ok &= eq_mean >= half - 2
        details.append(f"hit-mean={eq_mean:.3f}>={half - 2}")
    report(ok, "06 binary lower bounds", "; ".join(details))


def test_07_oracle_equivalence():
    """All three strategies return the linear-scan answer on 1e5 random instances."""
    t0 = time.time()
    report_check(
        "07 oracle equivalence",
        check_equivalence(100_000, SEED + 8),
        f"100000 instances x 3 strategies, {time.time() - t0:.1f}s",
    )


def test_08_minimax_oracles():
    """Exhaustive trees: optimal depth is ceil(log2 n); ITP-Strict achieves it."""
    t0 = time.time()
    report_check("08 minimax depth, n=2..4096", check_minimax_oracle(4096), "ok")
    report_check(
        "08 adversarial depth, n=2..1024",
        check_worst_depth(1024),
        f"{time.time() - t0:.1f}s",
    )


def test_09_self_generated_lists():
    """Fibonacci/harmonic/prime keys: relaxed ITP beats interpolation and
    keeps its worst case."""
    t0 = time.time()
    strategies = [SearchConfig.itp(Relaxed()), SearchConfig.interpolation()]
    ok = True
    details = []

    for kind, n in (("fibonacci", 700), ("harmonic", 10_000_000)):
        ds = generate(kind, n)
        half = minmax_bound(ds.list.n)
        itp, interp = run_trials(ds, strategies, 1_000, SEED + 9)
        ok &= interp.mean >= 2 * itp.mean and itp.max <= half + 1
        details.append(
            f"{kind} n={ds.list.n}: itp {itp.mean:.2f} vs interp {interp.mean:.2f}, "
            f"itp max {itp.max}<={half + 1}"
        )

    primes = generate("primes", 664_579)
    half = minmax_bound(primes.list.n)
    itp, interp = run_trials(primes, strategies, 1_000, SEED + 9)
    ok &= itp.mean < half and interp.mean < half and itp.max <= half + 1
    details.append(
        f"primes n={primes.list.n}: itp {itp.mean:.2f}, interp {interp.mean:.2f} < {half}"
    )
    report(ok, "09 self-generated lists", "; ".join(details) + f", {time.time() - t0:.1f}s")


def test_10_codec_order():
    """Base-27 encoding orders 1e5 random string pairs like their normalized keys."""
    report_check("10 codec order", check_codec(100_000, SEED + 10), "100000 pairs")


def test_11_csv_determinism(sweet_spot_rows):
    """The sweet-spot run twice with one seed yields byte-identical CSV."""
    t0 = time.time()
    outputs = []
    for rows in (sweet_spot_rows, _sweet_spot_run()):
        buf = io.StringIO()
        write_csv(rows, buf)
        outputs.append(buf.getvalue().encode())
    report(
        outputs[0] == outputs[1],
        "11 csv determinism",
        f"{len(outputs[0])} bytes x 2 runs, {time.time() - t0:.1f}s",
    )
