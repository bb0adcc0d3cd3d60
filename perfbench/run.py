"""itpsearch benchmark: closed-loop workloads timed from outside the package.

Run from the repository root.  One workload, with its result as a JSON object
on the last line of standard output:

    python3 perfbench/run.py --workload lookup-text --seed 1 --seconds 15 --trace 0

Every workload, each in its own process, with a table of every metric:

    python3 perfbench/run.py --all --seed 1 --seconds 15

A run has one caller and no threads: it starts the next unit (one call into a
public entry point) only after the previous one returns.  Unit u derives its
master seed from the workload seed.  With ``--trace 0`` the run reports the
end-to-end metrics; with ``--trace 1`` it runs half its time untraced and half
with every layer boundary wrapped in spans, and reports per-layer metrics.
Outputs are checked outside the timed phase.  Reports, provenance and spans
go to ./.perfbench/.
"""

import ctypes
import os

# One core's worth of work per process: numpy's thread pools stay at one.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

# Fixed glibc malloc thresholds, here and in child processes.  With the
# default dynamic ones, a process settles at random either into reusing freed
# 1.6 MB key arrays or into mapping them afresh (page faults on every list),
# which moved mc-lists' median unit time by 14-57% from one run to the next.
MALLOC_MMAP_THRESHOLD = 32 << 20
MALLOC_TRIM_THRESHOLD = 128 << 20
os.environ["MALLOC_MMAP_THRESHOLD_"] = str(MALLOC_MMAP_THRESHOLD)
os.environ["MALLOC_TRIM_THRESHOLD_"] = str(MALLOC_TRIM_THRESHOLD)
try:
    _libc = ctypes.CDLL("libc.so.6")
    _libc.mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    _libc.mallopt.restype = ctypes.c_int
    _libc.mallopt(-3, MALLOC_MMAP_THRESHOLD)  # M_MMAP_THRESHOLD
    _libc.mallopt(-1, MALLOC_TRIM_THRESHOLD)  # M_TRIM_THRESHOLD
except (OSError, AttributeError):
    pass  # not glibc: its allocator keeps its own policy

import argparse  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from contextlib import redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402
from typing import NamedTuple  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
CHILD_ENV = dict(os.environ, PYTHONPATH=str(SRC))

WORKLOADS = ("lookup-text", "mc-lists", "mc-kappa", "verify")

N_LIST = 200_000  # off a power of two: at 2**20 ITP-Strict has no slack
N_KEYS = 200_000
SETUP_REPEATS = 5
TAIL_SAMPLES = 10  # a tail percentile needs this many samples beyond it
UNIT_TIMEOUT_S = 120
RELAXED_EXTRA = 0.99


if not (SRC / "itpsearch" / "__init__.py").is_file():
    print(f"error: no itpsearch package under {SRC}; run from the repository root", file=sys.stderr)
    sys.exit(2)
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import itpsearch  # noqa: E402
from itpsearch import bench, cli, datasets  # noqa: E402
from itpsearch.distributions import (  # noqa: E402
    Exponential,
    Gaussian,
    Step,
    Triangular,
    Uniform,
    sample_list,
    sample_target,
    trial_rng,
)
from itpsearch.search import Relaxed, SearchConfig, Strict, minmax_bound, search  # noqa: E402
from spans import SEARCH_LABELS, Tracer, config_label, summarize  # noqa: E402

CONFIGS = (
    SearchConfig.binary(),
    SearchConfig.interpolation(),
    SearchConfig.itp(variant=Strict()),
    SearchConfig.itp(variant=Relaxed(extra=RELAXED_EXTRA)),
)
SPECS = (Uniform(), Gaussian(), Exponential(), Triangular(), Step())


def unit_seed(seed: int, u: int) -> int:
    return seed * 1_000_000 + u


def query_bound(label: str, n: int):
    """Worst-case query count the library guarantees, or None if unbounded."""
    if label == "itp-strict":
        return minmax_bound(n)
    if label == "itp-relaxed":
        # Relaxed anchors its budget at ceil(log2 n) + extra (Relaxed.resolve)
        return math.ceil(minmax_bound(n) + RELAXED_EXTRA)
    return None


# ---------------------------------------------------------------------------
# lookup-text keys


# English letter frequencies (per cent).  The repository's surname list has
# 15 keys and no corpus can be fetched, so the keys are synthetic.  Drawing
# letters by frequency clusters the base-27 codes the way real words do, which
# is what separates the probe rules on text (interpolation needs tens of probes
# on some targets).  Lengths 4-11 straddle the codec's 10-letter limit, so
# keys that share a 10-letter prefix merge, as they do in real text files.
LETTER_FREQ = {
    "a": 8.167, "b": 1.492, "c": 2.782, "d": 4.253, "e": 12.702, "f": 2.228,
    "g": 2.015, "h": 6.094, "i": 6.966, "j": 0.153, "k": 0.772, "l": 4.025,
    "m": 2.406, "n": 6.749, "o": 7.507, "p": 1.929, "q": 0.095, "r": 5.987,
    "s": 6.327, "t": 9.056, "u": 2.758, "v": 0.978, "w": 2.360, "x": 0.150,
    "y": 1.974, "z": 0.074,
}  # fmt: skip
KEY_LENGTHS = (4, 11)


def write_text_keys(path: Path, count: int, seed: int) -> None:
    rng = np.random.default_rng([seed, 27])
    alphabet = np.frombuffer("".join(LETTER_FREQ).encode(), dtype=np.uint8)
    p = np.array(list(LETTER_FREQ.values()))
    lo, hi = KEY_LENGTHS
    lengths = rng.integers(lo, hi + 1, count).tolist()
    letters = alphabet[rng.choice(alphabet.size, size=(count, hi), p=p / p.sum())].tobytes()
    with open(path, "w") as fh:
        for i, length in enumerate(lengths):
            fh.write(letters[i * hi : i * hi + length].decode())
            fh.write("\n")


# ---------------------------------------------------------------------------
# workloads


class Record(NamedTuple):
    """One unit: its index and master seed, what it returned, the searches it
    ran (None where only the check can count them) and its output bytes."""

    u: int
    seed: int
    result: object  # TrialStats rows, or the CLI's exit code
    searches: object
    output: bytes


def row_label(row) -> str:
    return "itp-" + row.variant if row.variant else row.strategy


class QueryTally:
    """Per label: total queries, searches, and each unit's largest count."""

    def __init__(self) -> None:
        self.total = dict.fromkeys(SEARCH_LABELS, 0)
        self.count = dict.fromkeys(SEARCH_LABELS, 0)
        self.unit_max: dict = {label: [] for label in SEARCH_LABELS}

    def add_unit(self, searches) -> None:
        """Add one unit's (label, searches, total queries, max queries) groups."""
        largest: dict = {}
        for label, count, total, most in searches:
            self.total[label] += total
            self.count[label] += count
            largest[label] = max(largest.get(label, 0), most)
        for label, most in largest.items():
            self.unit_max[label].append(most)

    def add_rows(self, rows) -> None:
        self.add_unit((row_label(r), r.trials, round(r.mean * r.trials), r.max) for r in rows)


def check_search(failures, u, lst, z, config, row=None) -> None:
    """k* against numpy's searchsorted, and the query count against its bound.

    Problems go to ``failures`` (unit -> its first problem).  A capped
    interpolation search is the documented outcome, not a failure.
    """
    out = search(lst, z, config)
    label = config_label(config)
    expected = int(np.searchsorted(lst.values, z, "right")) - 1
    if out.k_star != expected and not out.capped:
        failures.setdefault(u, f"{label} z={z!r}: k*={out.k_star}, searchsorted gives {expected}")
    bound = query_bound(label, lst.n)
    if bound is not None and out.queries > bound:
        failures.setdefault(u, f"{label} z={z!r}: {out.queries} queries > {bound}")
    if row is not None and out.queries > row.max:
        failures.setdefault(u, f"{label} z={z!r}: {out.queries} queries > row max {row.max}")


class Workload:
    """Query metrics come from the first ``query_units`` units of a run, and a
    run has at least ``min_units`` units."""

    query_units: int
    list_share = 0.0  # share of a unit's time in sample_list; see HostSpeed

    @property
    def min_units(self) -> int:
        return self.query_units

    def prepare(self, seed: int) -> None:
        """Make the benchmark's inputs; nothing the package's users would pay."""

    def build(self) -> None:
        """The package's own set-up, done once in this process."""

    def setup_args(self) -> list:
        """Arguments for setup_child.py, which times the set-up."""
        return []


class BenchWorkload(Workload):
    """A workload whose unit is one call into itpsearch.bench plus write_csv."""

    trials: int

    def rows(self, seed_u: int) -> list:
        raise NotImplementedError

    def unit(self, seed_u: int):
        rows = self.rows(seed_u)
        buf = io.StringIO()
        bench.write_csv(rows, buf)
        return rows, sum(r.trials for r in rows), buf.getvalue().encode()

    def check(self, records, failures) -> QueryTally:
        tally = QueryTally()
        for u, seed_u, rows, _, _ in records:
            for row in rows:
                bound = query_bound(row_label(row), row.n)
                if bound is not None and row.max > bound:
                    failures.setdefault(u, f"{row_label(row)} row max {row.max} > {bound}")
            self.check_pairs(u, seed_u, rows, failures)
            if u < self.query_units:
                tally.add_rows(rows)
        return tally

    def check_pairs(self, u, seed_u, rows, failures) -> None:
        raise NotImplementedError


class LookupText(BenchWorkload):
    """bench-file --text on a fixed list of skewed keys: search-bound."""

    trials = 200
    query_units = 100
    checked_trials = 8

    def prepare(self, seed: int) -> None:
        self.keys_path = OUT / "keys-lookup-text.txt"
        write_text_keys(self.keys_path, N_KEYS, seed)

    def build(self) -> None:
        self.dataset = datasets.load_text(self.keys_path)

    def setup_args(self) -> list:
        return [str(self.keys_path)]

    def rows(self, seed_u: int) -> list:
        return bench.run_trials(self.dataset, CONFIGS, self.trials, seed_u)

    def check_pairs(self, u, seed_u, rows, failures) -> None:
        lst = self.dataset.list
        for t in range(0, self.trials, self.trials // self.checked_trials):
            z = sample_target(lst[0], lst[lst.n], trial_rng(seed_u, t))
            for config, row in zip(CONFIGS, rows):
                check_search(failures, u, lst, z, config, row)


class McLists(BenchWorkload):
    """sweep-n over the five distributions: bound by sample_list's sort."""

    trials = 2
    # 600 lists per distribution: interpolation's mean on Gaussian lists is
    # heavy-tailed (up to the 1000-query cap), so it needs many lists
    query_units = 300
    list_share = 1.0

    def rows(self, seed_u: int) -> list:
        rows = []
        for spec in SPECS:
            rows += bench.sweep_n([N_LIST], spec, CONFIGS, self.trials, seed_u)
        return rows

    def check_pairs(self, u, seed_u, rows, failures) -> None:
        # one (list, z) pair per unit, rotating over distributions and trials
        d = u % len(SPECS)
        rng = trial_rng(seed_u, (u // len(SPECS)) % self.trials)
        lst = sample_list(SPECS[d], N_LIST, rng)
        z = sample_target(lst[0], lst[N_LIST], rng)
        for i, config in enumerate(CONFIGS):
            check_search(failures, u, lst, z, config, rows[d * len(CONFIGS) + i])


class McKappa(BenchWorkload):
    """sweep-kappa on the 8x10 grid: 80 ITP-Strict configs share each (list, z)."""

    trials = 6
    query_units = 120
    list_share = 0.4

    def __init__(self) -> None:
        self.configs = [
            SearchConfig.itp(variant=Strict(), kappa1=k1, kappa2=k2)
            for k2 in bench.TABLE1_KAPPA2
            for k1 in bench.TABLE1_KAPPA1
        ]

    def rows(self, seed_u: int) -> list:
        return bench.sweep_kappa(
            bench.TABLE1_KAPPA1, bench.TABLE1_KAPPA2, N_LIST, self.trials, seed_u
        )

    def check_pairs(self, u, seed_u, rows, failures) -> None:
        rng = trial_rng(seed_u, u % self.trials)
        lst = sample_list(Uniform(), N_LIST, rng)
        z = sample_target(lst[0], lst[N_LIST], rng)
        for config, row in zip(self.configs, rows):
            check_search(failures, u, lst, z, config, row)

    def check(self, records, failures) -> QueryTally:
        # The sweep runs only ITP-Strict; the other labels search the same
        # (list, z) pairs through a direct run_trials call.
        tally = super().check(records, failures)
        others = [c for c in CONFIGS if config_label(c) != "itp-strict"]
        for record in records[: self.query_units]:
            tally.add_rows(bench.run_trials(Uniform(), others, self.trials, record.seed, n=N_LIST))
        return tally


class Verify(Workload):
    """itpsearch verify in a fresh interpreter per unit, as a CLI user runs it."""

    query_units = 2
    min_units = 20  # so that unit_s_tail is a percentile, not a maximum

    def command(self, seed_u: int) -> list:
        return ["verify", "--seed", str(seed_u)]

    def unit(self, seed_u: int, spans_path=None):
        """One CLI run; traced through cli_child.py when spans_path is given."""
        if spans_path is None:
            program = ["-m", "itpsearch.cli"]
        else:
            program = [str(HERE / "cli_child.py"), str(spans_path)]
        proc = subprocess.run(
            [sys.executable, *program, *self.command(seed_u)],
            env=CHILD_ENV,
            cwd=ROOT,
            capture_output=True,
            timeout=UNIT_TIMEOUT_S,
        )
        return proc.returncode, None, proc.stdout

    def check(self, records, failures) -> QueryTally:
        for record in records:
            problem = output_problem(record.result, record.output.decode())
            if problem:
                failures.setdefault(record.u, problem)
        # Re-run the first units in this process to see every search they make.
        tally = QueryTally()
        self.searches_per_unit = []
        original = cli.search
        for record in records[: self.query_units]:
            seen = []

            def capture(lst, z, config):
                out = original(lst, z, config)
                seen.append((lst, z, config, out.queries))
                return out

            cli.search = capture
            buf = io.StringIO()
            try:
                with redirect_stdout(buf):
                    code = cli.main(self.command(record.seed))
            finally:
                cli.search = original
            problem = output_problem(code, buf.getvalue())
            if problem:
                failures.setdefault(record.u, problem)
            for lst, z, config, _ in seen:
                check_search(failures, record.u, lst, z, config)
            tally.add_unit((config_label(c), 1, q, q) for _, _, c, q in seen)
            self.searches_per_unit.append(len(seen))
        return tally


def output_problem(code: int, text: str):
    fails = [line for line in text.splitlines() if line.startswith("FAIL")]
    if code != 0 or fails:
        return f"exit code {code}, {len(fails)} FAIL lines: {fails[:1]}"
    return None


WORKLOAD_CLASSES = {
    "lookup-text": LookupText,
    "mc-lists": McLists,
    "mc-kappa": McKappa,
    "verify": Verify,
}


# ---------------------------------------------------------------------------
# measurement


class HostSpeed:
    """Host speed factor from fixed reference kernels.

    The benchmark runs on shared virtual machines whose speed swings by up to
    2x for seconds at a time as neighbours load the same cores and caches.
    The kernels' inputs never change, so their times track the host alone.
    They run between consecutive timed calls, and each call's wall time is
    multiplied by the factor ``REF_S / kernel time`` averaged over the kernels
    on either side: seconds at the speed where the kernels take REF_S, which
    is close to raw seconds on an idle host.

    The host's swings differ by kind of work, so there are two kernels that
    each do what one layer does: "lists" draws, sorts and copies 200k
    uniforms into fresh arrays, as ``sample_list`` does, and "bisect" runs a
    pure-Python bisection over a numpy array, as the scalar search loops do.
    The factor is their geometric mix, weighted by the share of the unit's
    time spent making lists (from the traced run).  Measured over 45 s of
    swings, unit time over the matched kernel's time stayed within 6% while
    raw unit time moved up to 2x.
    """

    REF_S = {"lists": 0.0023, "bisect": 0.0011}

    def __init__(self, list_share: float) -> None:
        rng = np.random.default_rng(0)
        self._sorted = np.sort(rng.random(200_000))
        self._targets = rng.random(400).tolist()
        self._weights = {"lists": list_share, "bisect": 1.0 - list_share}
        self._last = self.factor_now()

    @staticmethod
    def _lists() -> None:
        interior = np.sort(np.random.default_rng(0).random(199_999))
        values = np.empty(200_001)
        values[1:200_000] = interior

    def _bisect(self) -> None:
        keys = self._sorted
        for z in self._targets:
            lo, hi = 0, keys.size - 1
            while hi - lo > 1:
                mid = (lo + hi) // 2
                if float(keys[mid]) > z:
                    hi = mid
                else:
                    lo = mid

    def factor_now(self) -> float:
        factor = 1.0
        for kind, kernel in (("lists", self._lists), ("bisect", self._bisect)):
            weight = self._weights[kind]
            if weight:
                start = perf_counter()
                kernel()
                factor *= (self.REF_S[kind] / (perf_counter() - start)) ** weight
        return factor

    def factor(self) -> float:
        """Factor for the call that just ended: the mean of the factor
        measured before it and now."""
        before, self._last = self._last, self.factor_now()
        return (before + self._last) / 2


class Timings:
    """Unit times: as measured, and scaled to reference host speed."""

    def __init__(self) -> None:
        self.raw: list = []
        self.factors: list = []
        self.peak_rss_mb = 0.0

    def add(self, raw: float, factor: float) -> None:
        self.raw.append(raw)
        self.factors.append(factor)

    @property
    def scaled(self) -> list:
        return [t * f for t, f in zip(self.raw, self.factors)]


def time_setup(workload, host) -> Timings:
    """Set-up seconds from SETUP_REPEATS fresh interpreters."""
    timings = Timings()
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_child.py"), *workload.setup_args()],
            env=CHILD_ENV,
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=UNIT_TIMEOUT_S,
            check=True,
        )
        timings.add(float(proc.stdout.strip()), host.factor())
    return timings


def run_units(workload, host, seed, first, seconds, min_units, tracer=None):
    """Closed loop: run units from index ``first`` until ``seconds`` have passed
    and at least ``min_units`` have run.  Returns (records, Timings); the
    Timings also hold the peak RSS once ``min_units`` units had run, so that
    the benchmark's own growing record of units is not counted."""
    records, timings = [], Timings()
    traced_cli = tracer is not None and isinstance(workload, Verify)
    spans_path = OUT / "cli-spans.json"
    deadline = perf_counter() + seconds
    u = first
    while len(records) < min_units or perf_counter() < deadline:
        seed_u = unit_seed(seed, u)
        if tracer is not None:
            tracer.unit_id = u + 1
        start = perf_counter()
        result = workload.unit(seed_u, spans_path) if traced_cli else workload.unit(seed_u)
        timings.add(perf_counter() - start, host.factor())
        if traced_cli:
            with open(spans_path) as fh:
                tracer.absorb(json.load(fh), u + 1)
        records.append(Record(u, seed_u, *result))
        if len(records) == min_units:
            timings.peak_rss_mb = peak_rss_mb()
        u += 1
    return records, timings


def percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered)) - 1)]


def tail_of(times):
    """(label, value) of the highest percentile up to p90 with TAIL_SAMPLES
    samples beyond it; a run too short for one reports its maximum."""
    n = len(times)
    p = min(0.9, 1 - TAIL_SAMPLES / n)
    if p < 0.5:
        return "max", max(times)
    return f"p{100 * p:g}", percentile(times, p)


def peak_rss_mb() -> float:
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak_kb / 1024


def provenance(args, output_hash: str) -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(
                ["git", f"--git-dir={ROOT / '.git'}", "rev-parse", "HEAD"],
                capture_output=True,
                text=True,
                timeout=30,
            )
        except OSError:
            proc = None
        if proc is not None and proc.returncode == 0:
            commit = proc.stdout.strip()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "argv": sys.argv,
        "git_commit": commit,
        "itpsearch": itpsearch.__version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "output_sha256": output_hash,
    }


def end_to_end(records, timings, searches_total, setup, tally, failures) -> dict:
    """name -> (value, unit, sample count, note)."""
    times = timings.scaled
    tail_label, tail = tail_of(times)
    attempted = len(records)
    metrics = {
        "searches_per_s": (searches_total / sum(times), "1/s", searches_total, ""),
        "unit_s_p50": (percentile(times, 0.5), "s", len(times), "median"),
        "unit_s_tail": (tail, "s", len(times), tail_label),
        "setup_s": (statistics.median(setup.scaled), "s", len(setup.raw), "median"),
        "peak_rss_mb": (timings.peak_rss_mb, "MB", 1, "this process or a child"),
        "correct_share": (1 - len(failures) / attempted, "share", attempted, "units"),
    }
    for label in SEARCH_LABELS:
        metrics[f"mean_queries.{label}"] = (
            tally.total[label] / tally.count[label],
            "queries",
            tally.count[label],
            "searches",
        )
    for label in ("itp-strict", "itp-relaxed"):
        maxima = tally.unit_max[label]
        metrics[f"max_queries.{label}"] = (
            statistics.mean(maxima),
            "queries",
            len(maxima),
            "mean of each unit's maximum",
        )
    return metrics


def per_layer(tracer, traced, untraced):
    """(metrics, self seconds per unit, calls per unit), the last two by span
    name; metrics map name -> (value, unit).  Times are scaled to reference
    host speed with the traced phase's median factor."""
    factor = statistics.median(traced.factors)
    units = len(traced.raw)
    empty = {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "probes": 0, "capped": 0}
    stats = summarize(s for s in tracer.spans if s[2] > 0)

    def busy(name):
        return stats.get(name, empty)["busy_s"] * factor

    def self_s(name):
        return stats.get(name, empty)["self_s"] * factor

    def per_call(name, scale, table=stats):
        s = table.get(name, empty)
        return s["busy_s"] * factor / s["calls"] * scale if s["calls"] else 0.0

    searches = [stats.get("search." + label, empty) for label in SEARCH_LABELS]
    probes = sum(s["probes"] for s in searches)
    search_busy = sum(s["busy_s"] for s in searches) * factor
    metrics = {
        f"search.us_per_call.{label}": (per_call("search." + label, 1e6), "us")
        for label in SEARCH_LABELS
    }
    metrics["search.us_per_probe"] = (search_busy / probes * 1e6 if probes else 0.0, "us")
    metrics["search.calls"] = (sum(s["calls"] for s in searches) / units, "count/unit")
    metrics["search.probes"] = (probes / units, "count/unit")
    metrics["search.capped"] = (sum(s["capped"] for s in searches) / units, "count/unit")
    metrics["search.self_s"] = (
        sum(self_s("search." + label) for label in SEARCH_LABELS) / units,
        "s/unit",
    )
    metrics["search.probe_rule.us_per_call"] = (per_call("search.probe_rule", 1e6), "us")
    metrics["distributions.sample_list.ms_per_call"] = (
        per_call("distributions.sample_list", 1e3),
        "ms",
    )
    metrics["distributions.sample_list.self_s"] = (
        self_s("distributions.sample_list") / units,
        "s/unit",
    )
    for name in ("distributions.trial_rng", "distributions.sample_target"):
        metrics[f"{name}.us_per_call"] = (per_call(name, 1e6), "us")

    # set-up layers, traced once in this process's build (unit id 0); the
    # codec also runs in verify's units
    whole = summarize(tracer.spans)
    load = [s for s in tracer.spans if s[3] == "datasets.load_text"]
    kept, merged = load[0][7] if load else (0, 0)
    metrics["datasets.load_text.busy_s"] = (per_call("datasets.load_text", 1, whole), "s")
    metrics["datasets.kept_share"] = (kept / (kept + merged) if load else 0.0, "share")
    metrics["keycodec.encode_base27.us_per_call"] = (
        per_call("keycodec.encode_base27", 1e6, whole),
        "us",
    )

    for name in ("strategy_worst_depth", "minimax_depth", "linear_scan"):
        metrics[f"oracle.{name}.busy_s"] = (busy("oracle." + name) / units, "s/unit")
    metrics["bench.run_trials.self_s"] = (self_s("bench.run_trials") / units, "s/unit")
    metrics["bench.write_csv.busy_s"] = (busy("bench.write_csv") / units, "s/unit")
    metrics["cli.self_s"] = (self_s("cli") / units, "s/unit")
    metrics["trace.overhead_s_p50"] = (
        percentile(traced.scaled, 0.5) - percentile(untraced.scaled, 0.5),
        "s",
    )
    self_table = {name: self_s(name) / units for name in stats}
    return metrics, self_table, {name: s["calls"] / units for name, s in stats.items()}


def run_workload(args) -> int:
    OUT.mkdir(exist_ok=True)
    # One core: the speed kernels then measure the core that runs the units,
    # and child processes (verify's CLI runs) inherit it.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workload = WORKLOAD_CLASSES[args.workload]()
    workload.prepare(args.seed)
    setup = time_setup(workload, HostSpeed(list_share=0.0))  # imports and codec: Python-bound
    host = HostSpeed(workload.list_share)

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    try:
        workload.build()
    finally:
        if tracer:
            tracer.uninstall()
    host.factor()  # the first unit's factor starts after the build

    min_units = workload.min_units
    seconds = args.seconds / 2 if tracer else args.seconds
    records, timings = run_units(workload, host, args.seed, 0, seconds, min_units)
    if tracer:
        tracer.install()
        try:
            traced_records, traced = run_units(
                workload, host, args.seed, len(records), seconds, 1, tracer
            )
        finally:
            tracer.uninstall()
        records = records + traced_records

    failures: dict = {}  # unit -> its first problem
    tally = workload.check(records, failures)
    digest = hashlib.sha256()
    for record in records[: workload.query_units]:
        digest.update(record.output)
    prov = provenance(args, digest.hexdigest())
    prov["host_speed_factor_p50"] = statistics.median(timings.factors)
    print("provenance " + json.dumps(prov))
    report = {"provenance": prov, "failures": failures}

    if tracer:
        metrics, self_table, calls = per_layer(tracer, traced, timings)
        tracer.write(OUT / f"spans-{args.workload}.csv")
        print(f"self time per unit over {len(traced.raw)} traced units (reference speed):")
        for name, value in sorted(self_table.items(), key=lambda kv: -kv[1]):
            print(f"  {name:36s} {value * 1e3:10.3f} ms  calls/unit {calls[name]:10.1f}")
        report["self_s_per_unit"] = self_table
        shown = {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()}
        for name, (v, unit) in metrics.items():
            print(f"  {name:40s} {v:.6g} {unit}")
    else:
        if isinstance(workload, Verify):
            searches_total = round(statistics.mean(workload.searches_per_unit) * len(records))
        else:
            searches_total = sum(record.searches for record in records)
        metrics = end_to_end(records, timings, searches_total, setup, tally, failures)
        shown = {name: {"value": m[0], "unit": m[1]} for name, m in metrics.items()}
        report["samples"] = {name: m[2] for name, m in metrics.items()}
        report["notes"] = {name: m[3] for name, m in metrics.items()}
        print(f"raw wall time: unit p50 {statistics.median(timings.raw):.6g} s, "
              f"set-up p50 {statistics.median(setup.raw):.6g} s")
        for name, (v, unit, n, note) in metrics.items():
            print(f"  {name:40s} {v:.6g} {unit}  (n={n}, {note})" if note else f"  {name:40s} {v:.6g} {unit}  (n={n})")
    for u, problem in sorted(failures.items())[:5]:
        print(f"FAILED unit {u}: {problem}")

    result = {
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": shown,
    }
    report["result"] = result
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(report, fh, indent=1)
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name]
        cmd += ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}\n{proc.stderr}")
            status = 1
            continue
        result = json.loads(lines[-1])
        with open(OUT / f"{name}-seed{args.seed}-trace{args.trace}.json") as fh:
            report = json.load(fh)
        samples, notes = report.get("samples", {}), report.get("notes", {})
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
        for metric, m in result["metrics"].items():
            line = f"  {metric:40s} {m['value']:14.6g} {m['unit']:10s}"
            if metric in samples:
                line += f" n={samples[metric]} {notes.get(metric, '')}"
            print(line)
        if not result["correct"]:
            status = 1
    print("no workload dropped")
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--workload", choices=WORKLOADS)
    target.add_argument("--all", action="store_true", help="run every workload, one process each")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return run_all(args) if args.all else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
