"""A standing mutation suite: plant one known fault at a time, run the tests.

Each mutant is (name, file, old, new, tests): ``old`` is text that occurs
exactly once in ``file`` (``tests/test_mutants.py`` checks this, so code that
moves must take its mutants along), and ``new`` is the fault put in its
place.  The runner copies the working tree once, at the start, so one run
tests one tree however the working tree changes meanwhile.  For each mutant
it copies that snapshot to a fresh directory, applies the mutant there, runs
``pytest -x`` on the mutant's test files with a fixed Hypothesis seed, and
prints ``killed`` with the first failing test, or ``survived``.  A mutant
whose tests run past ``TIMEOUT_S`` (a loop that never ends) is killed with its
whole process group and counts as ``killed``.  A SIGTERM (or Ctrl-C) to the
runner kills the running mutant's process group as well, and removes the
snapshot and mutant directories.  The working tree is never touched.

Usage (from the repository root; stdlib only, besides pytest and hypothesis)::

    python mutants/run.py            # every mutant
    python mutants/run.py NAME ...   # the named mutants

The exit status is 1 unless every mutant is killed.  A survivor is answered
by a new test; a mutant equivalent to the code, which no test can kill, is
left out, with the reason given where it would stand below.
"""

from __future__ import annotations

import contextlib
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SEARCH = "src/itpsearch/search.py"
DISTRIBUTIONS = "src/itpsearch/distributions.py"
BENCH = "src/itpsearch/bench.py"
ORACLE = "src/itpsearch/oracle.py"
KEYCODEC = "src/itpsearch/keycodec.py"
DATASETS = "src/itpsearch/datasets.py"
TESTS = (
    "tests/test_search.py",
    "tests/test_bench.py",
    "tests/test_oracle.py",
    "tests/test_distributions.py",
    "tests/test_cli.py",
)
LOADING_TESTS = ("tests/test_keycodec.py", "tests/test_datasets.py")
# well above the ~21 s the TESTS set takes, so only a hang reaches it
TIMEOUT_S = 300


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    tests: tuple[str, ...] = TESTS


MUTANTS = [
    # SortedList's checks and SearchConfig's type checks
    Mutant(
        "sorted-list-no-end-tests", SEARCH,
        "(arr[:-1] <= arr[1:]).all() and -math.inf < lo and hi < math.inf",
        "(arr[:-1] <= arr[1:]).all()",
    ),
    Mutant("sorted-list-strict-order", SEARCH, "(arr[:-1] <= arr[1:]).all()", "(arr[:-1] < arr[1:]).all()"),
    Mutant(
        "sorted-list-bound-1021", SEARCH,
        "if (arr.size - 1) * max(-lo, hi) >= 2.0**1020:",
        "if (arr.size - 1) * max(-lo, hi) >= 2.0**1021:",
    ),
    Mutant("sorted-list-no-2to53-scan", SEARCH, "if max(-lo, hi) >= 2.0**53 and arr is not values:", "if False:"),
    Mutant("config-no-strategy-check", SEARCH, "if not isinstance(self.strategy, Strategy):", "if False:"),
    Mutant("config-no-variant-check", SEARCH, "if not isinstance(self.variant, Variant):", "if False:"),
    # the scalar rules and loop
    # ``if step <= abs(gap):`` -> ``if step < abs(gap):`` is not here: by the
    # proof at ``truncate`` in search.py, a step equal to |gap| gives
    # x_f + sigma * step == x_half, which that mutant returns directly
    Mutant("radius-no-clamp", SEARCH, "return r if r > 0 else 0.0", "return r"),
    Mutant("scalar-tie-rule", SEARCH, "elif x < x_half:", "elif x <= x_half:"),
    Mutant("scalar-cap-off-by-one", SEARCH, "if j >= cap:", "if j > cap:"),
    # ``if not r:`` -> ``if False:`` is not here: with r = 0 the full step
    # gives the same midpoint, so that mutant is equivalent by construction
    Mutant(
        "itp-zero-radius-midpoint-up", SEARCH,
        "if not r:  # project puts any x_t on x_half, which rounds down\n            return (a + b) // 2",
        "if not r:  # project puts any x_t on x_half, which rounds down\n            return (a + b + 1) // 2",
    ),
    # search_block's lockstep loop
    Mutant(
        "block-power-numpy", SEARCH,
        "np.float_power(delta, kappa2s[c])",
        "np.power(delta, kappa2s[c])",
    ),
    Mutant(
        "block-binary-anchor-strict", SEARCH,
        "(0.0, 0.0, -math.inf) if config.strategy is Strategy.BINARY",
        "(0.0, 0.0, float(minmax_bound(n))) if config.strategy is Strategy.BINARY",
    ),
    Mutant(
        "block-binary-anchor-inf", SEARCH,
        "(0.0, 0.0, -math.inf) if config.strategy is Strategy.BINARY",
        "(0.0, 0.0, math.inf) if config.strategy is Strategy.BINARY",
    ),
    Mutant(
        "block-interpolation-anchor-finite", SEARCH,
        "else (0.0, 0.0, math.inf) if config.strategy is Strategy.INTERPOLATION",
        "else (0.0, 0.0, float(minmax_bound(n))) if config.strategy is Strategy.INTERPOLATION",
    ),
    Mutant(
        "block-interpolation-truncates", SEARCH,
        "else (0.0, 0.0, math.inf) if config.strategy is Strategy.INTERPOLATION",
        "else (config.kappa1, config.kappa2, math.inf) if config.strategy is Strategy.INTERPOLATION",
    ),
    Mutant(
        "block-width-numpy-power", SEARCH,
        "np.float_power(2.0, anchors - j - 1)",
        "np.power(2.0, anchors - j - 1)",
    ),
    Mutant(
        "block-first-config-anchor", SEARCH,
        "np.float_power(2.0, anchors - j - 1)[c]",
        "np.float_power(2.0, anchors - j - 1)[c * 0]",
    ),
    Mutant("block-no-local-width", SEARCH, "if local:", "if False:"),
    # without the mask a step longer than |gap| carries x_t past x_half
    Mutant("block-no-step-mask", SEARCH, "np.putmask(x_t, ~(step <= np.abs(gap)), x_half)", "None"),
    Mutant("block-tie-rule", SEARCH, "(f != x_t) & (x_t < x_half)", "(f != x_t) & (x_t <= x_half)"),
    Mutant(
        "block-no-step", SEARCH,
        "step = kappa1s[c] * np.float_power(delta, kappa2s[c])",
        "step = np.zeros_like(delta)",
    ),
    Mutant("block-no-exact-hit", SEARCH, "np.putmask(b, hit, k + 1)", "None"),
    Mutant("block-no-probe-count", SEARCH, "q += live", "q += 0"),
    Mutant(
        "block-cap-off-by-one", SEARCH,
        "while live_count > SCALAR_FINISH and j < first_cap:",
        "while live_count > SCALAR_FINISH and j <= first_cap:",
    ),
    Mutant(
        "block-step-overflow-warns", SEARCH,
        'np.errstate(over="ignore", invalid="ignore")', 'np.errstate(invalid="ignore")',
    ),
    Mutant(
        "block-row-zero-keys", SEARCH,
        "base = np.concatenate((searched // zs.shape[1] * size,) * len(configs))",
        "base = np.concatenate((searched * 0,) * len(configs))",
    ),
    Mutant(
        "block-finish-from-zero", SEARCH,
        "configs[ci].cap, ai, bi, qi, vai, vbi, []",
        "configs[ci].cap, ai, bi, 0, vai, vbi, []",
    ),
    Mutant(
        "block-finish-from-j", SEARCH,
        "configs[ci].cap, ai, bi, qi, vai, vbi, []",
        "configs[ci].cap, ai, bi, j, vai, vbi, []",
    ),
    # search_block's drawn rows: sorted for the lockstep loop, or read on
    # demand, through _OrderStatistics, when the scalar loop finishes every lane
    Mutant("block-drawn-rows-unsorted", SEARCH, "block[:, 1:-1].sort(axis=1)", "pass"),
    Mutant(
        "block-sorted-rows-on-demand", SEARCH,
        "on_demand = drawn and len(configs) * searched.size <= SCALAR_FINISH",
        "on_demand = len(configs) * searched.size <= SCALAR_FINISH",
    ),
    Mutant(
        "block-on-demand-boundary", SEARCH,
        "on_demand = drawn and len(configs) * searched.size <= SCALAR_FINISH",
        "on_demand = drawn and len(configs) * searched.size < SCALAR_FINISH",
    ),
    Mutant("order-statistic-offset", SEARCH, "segment.partition(k - lo - 1)", "segment.partition(k - lo)"),
    Mutant("order-statistic-fallback-unsorted", SEARCH, "self._row.sort()", "pass"),
    # the oracles
    Mutant(
        "minimax-drop-last-split", ORACLE,
        "_depths[1 : half + 1], _depths[d - 1 : d - half - 1 : -1]",
        "_depths[1:half], _depths[d - 1 : d - half : -1]",
    ),
    Mutant("worst-depth-leaf-one", ORACLE, "    return j\n", "    return j + 1\n"),
    # distributions and the trial runner
    Mutant("sample-target-closed-lo", DISTRIBUTIONS, "if lo < z < hi:", "if lo <= z < hi:"),
    Mutant("sample-list-unsorted", DISTRIBUTIONS, "values[1:-1].sort()", "pass"),
    Mutant(
        "fill-stops-at-full", DISTRIBUTIONS,
        "            got += take\n",
        "            got += take\n            if got == out.size:\n                break\n",
    ),
    Mutant("fill-compaction-skipped", DISTRIBUTIONS, "if not kept.all():", "if kept.all():"),
    Mutant("step-first-chunk-side", DISTRIBUTIONS, "side = left[start : start + CHUNK]", "side = left[: u.size]"),
    Mutant(
        "trial-stream-shifted", DISTRIBUTIONS,
        "ss = np.random.SeedSequence(master_seed, spawn_key=(trial_index,))",
        "ss = np.random.SeedSequence(master_seed, spawn_key=(trial_index + 1,))",
    ),
    Mutant(
        "block-doubled-at-scalar-finish", BENCH,
        "if len(configs) * block_rows > SCALAR_FINISH:", "if len(configs) * block_rows >= SCALAR_FINISH:",
    ),
    Mutant("cap-hits-dropped", BENCH, "cap_hits = capped.sum(axis=1).tolist()", "cap_hits = [0] * len(configs)"),
    # the key codec, the loaders' line rule and names, and their dedupe
    Mutant("codec-never-lowered", KEYCODEC, "text = text.lower()", "pass", LOADING_TESTS),
    Mutant("codec-crlf-kept", KEYCODEC, 'if "\\r" in text:', "if False:", LOADING_TESTS),
    Mutant(
        "codec-trailing-cr-no-end", KEYCODEC,
        "if text and text[-1] not in _BREAKS:", 'if text and text[-1] != "\\n":', LOADING_TESTS,
    ),
    Mutant(
        "utf8-line-lf-only", DATASETS,
        "lineno = len(data[: exc.start + 1].splitlines())",
        'lineno = data.count(b"\\n", 0, exc.start) + 1', LOADING_TESTS,
    ),
    Mutant("csv-line-by-record", DATASETS, "lineno = rows.line_num", "pass", LOADING_TESTS),
    Mutant(
        "key-error-by-stem", DATASETS,
        "return _finish(str(path), encode_lines(text))", "return _finish(path.stem, encode_lines(text))",
        LOADING_TESTS,
    ),
    Mutant(
        "dedup-keep-all", DATASETS,
        "np.not_equal(values[1:], values[:-1], out=keep[1:])", "keep[1:] = True", LOADING_TESTS,
    ),
    Mutant("dedup-first-key-dropped", DATASETS, "keep[:1] = True", "keep[:1] = False", LOADING_TESTS),
]  # fmt: skip


def _ignore(directory, names):
    skip = {".git", ".hypothesis", ".pytest_cache", ".perfbench", "__pycache__"}
    return [name for name in names if name in skip]


def run(mutant: Mutant, snapshot: Path) -> tuple[str, str]:
    """Apply ``mutant`` to a fresh copy of ``snapshot`` and run its tests;
    returns (verdict, first failing test or the tail of pytest's output)."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(snapshot, tree)
        path = tree / mutant.file
        text = path.read_text()
        if text.count(mutant.old) != 1:
            return "stale", f"old text occurs {text.count(mutant.old)} times in {mutant.file}"
        path.write_text(text.replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
        cmd = [
            sys.executable, "-m", "pytest", "-x", "-q", "-rf", "-p", "no:cacheprovider",
            "--hypothesis-seed=0", *mutant.tests,
        ]  # fmt: skip
        # its own session, so a timeout can kill pytest and every CLI child it started
        proc = subprocess.Popen(
            cmd, cwd=tree, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            start_new_session=True,
        )  # fmt: skip
        try:
            stdout, stderr = proc.communicate(timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            return "killed", f"timed out after {TIMEOUT_S} s"
        except BaseException:  # SIGTERM's SystemExit, or Ctrl-C, which its session misses
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
    if proc.returncode == 0:
        return "survived", ""
    failed = [line for line in stdout.splitlines() if line.startswith(("FAILED", "ERROR"))]
    if proc.returncode == 1 and failed:
        return "killed", failed[0].split(" - ")[0].split(" ", 1)[1]
    return "error", stdout.strip().splitlines()[-1] if stdout.strip() else stderr


def main(argv: list[str]) -> int:
    known = {mutant.name: mutant for mutant in MUTANTS}
    unknown = [name for name in argv if name not in known]
    if unknown:
        print(f"unknown mutants: {', '.join(unknown)}", file=sys.stderr)
        return 2
    chosen = [known[name] for name in argv] if argv else MUTANTS
    # exit through the with blocks, which remove the snapshot and mutant directories
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    verdicts = []
    with tempfile.TemporaryDirectory(prefix="mutants-snapshot-") as tmp:
        snapshot = Path(tmp) / "tree"
        shutil.copytree(ROOT, snapshot, ignore=_ignore)
        for mutant in chosen:
            start = time.perf_counter()
            verdict, detail = run(mutant, snapshot)
            verdicts.append(verdict)
            print(f"{verdict:9} {mutant.name:36} {time.perf_counter() - start:5.1f}s  {detail}", flush=True)
    counts = {verdict: verdicts.count(verdict) for verdict in dict.fromkeys(verdicts)}
    print(", ".join(f"{count} {verdict}" for verdict, count in counts.items()))
    return 0 if verdicts.count("killed") == len(verdicts) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
