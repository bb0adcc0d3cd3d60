"""Command-line front end: verification suites, sweeps, and file benchmarks.

Defaults follow the recommended operating point (kappa1=0.01, kappa2=0.83,
relaxed radius with N_max = N_1/2 + 0.99); the strict minmax variant must be
requested explicitly except in sweep-kappa, whose table is defined against
the strict rule.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import bench, datasets, oracle
from .distributions import (
    Exponential,
    Gaussian,
    Step,
    Triangular,
    Uniform,
    as_rng,
    sample_list,
    sample_target,
)
from .keycodec import MAX_DIGITS, encode_base27, normalize
from .search import (
    DEFAULT_CAP,
    DEFAULT_KAPPA1,
    DEFAULT_KAPPA2,
    DEFAULT_NMAX_EXTRA,
    Local,
    Relaxed,
    SearchConfig,
    SortedList,
    Strict,
    make_probe_fn,
    minmax_bound,
    search,
)

DISTRIBUTIONS = {
    "uniform": Uniform,
    "gaussian": Gaussian,
    "exponential": Exponential,
    "triangular": Triangular,
    "step": Step,
}


def _comma_list(cast):
    """An argparse type: a non-empty comma-separated list of ``cast`` values."""

    def parse(text: str) -> list:
        values = [cast(part) for part in text.split(",") if part.strip()]
        if not values:
            raise argparse.ArgumentTypeError(f"empty list: {text!r}")
        return values

    parse.__name__ = f"{cast.__name__} list"  # argparse names it in its errors
    return parse


def _variant(args):
    relaxed = Relaxed(extra=args.nmax_extra)  # checks --nmax-extra under every variant
    if args.variant == "strict":
        return Strict()
    if args.variant == "local":
        return Local()
    return relaxed


def _strategies(args) -> list[SearchConfig]:
    """The rows of sweep-n and bench-file: binary, interpolation and the ITP rule."""
    return [
        SearchConfig.binary(cap=args.cap),
        SearchConfig.interpolation(cap=args.cap),
        SearchConfig.itp(
            variant=_variant(args), kappa1=args.kappa1, kappa2=args.kappa2, cap=args.cap
        ),
    ]


def _emit(rows, output: str) -> None:
    if output == "-":
        bench.write_csv(rows, sys.stdout)
    else:
        with open(output, "w", newline="") as fh:
            bench.write_csv(rows, fh)


def _add_run_flags(parser) -> None:
    parser.add_argument("--trials", type=int, default=500, help="Monte Carlo trials per row")
    parser.add_argument("--seed", type=int, default=0, help="master seed; trials derive from it")
    parser.add_argument("--cap", type=int, default=DEFAULT_CAP, help="query cap per search")
    parser.add_argument("--output", default="-", help="CSV path, or - for stdout")


def _add_variant_flags(parser, *, default: str) -> None:
    parser.add_argument(
        "--variant",
        choices=("strict", "relaxed", "local"),
        default=default,
        help="minmax radius rule for the ITP strategy",
    )
    parser.add_argument(
        "--nmax-extra",
        type=float,
        default=DEFAULT_NMAX_EXTRA,
        help="relaxed budget above ceil(log2 n)",
    )


# ---------------------------------------------------------------------------
# verify and oracle-check: each check returns None or its first problem.
# tests/test_acceptance.py runs the same checks at larger sizes.


def check_minmax_exhaustive(max_n: int):
    """ITP-Strict and binary stay within ceil(log2 n) on every cell and key, n=2..max_n."""
    configs = (SearchConfig.itp(variant=Strict()), SearchConfig.binary())
    for n in range(2, max_n + 1):
        lst = SortedList([(i / n) ** 2 for i in range(n + 1)], validate=False)
        bound = minmax_bound(n)
        targets = [(lst[k] + lst[k + 1]) / 2 for k in range(n)]
        targets += [lst[k] for k in range(1, n)]
        for z in targets:
            for config in configs:
                outcome = search(lst, z, config)
                if outcome.queries > bound:
                    return f"n={n} z={z!r}: {outcome.queries} queries > {bound}"
    return None


def check_minimax_oracle(max_n: int):
    """The exhaustive minimax depth equals ceil(log2 n), n=2..max_n."""
    for n in range(2, max_n + 1):
        if oracle.minimax_depth(n) != minmax_bound(n):
            return f"minimax_depth({n}) = {oracle.minimax_depth(n)} != {minmax_bound(n)}"
    return None


def check_worst_depth(max_n: int):
    """The adversary forces ITP-Strict no deeper than ceil(log2 n), n=2..max_n."""
    config = SearchConfig.itp(variant=Strict())
    for n in range(2, max_n + 1):
        depth = oracle.strategy_worst_depth(make_probe_fn(config, n), n)
        if depth > minmax_bound(n):
            return f"ITP-Strict worst depth {depth} > {minmax_bound(n)} at n={n}"
    # the enumerator must expose a deliberately bad rule
    if oracle.strategy_worst_depth(oracle.sequential_rule, 17) != 16:
        return "adversary failed to force n-1 probes from the sequential rule"
    return None


def check_binary_depth_band(max_n: int):
    """Binary's mean hit depth is >= ceil(log2 n) - 2; its closed form is also <= ceil(log2 n)."""
    for n in range(2, max_n + 1):
        half = minmax_bound(n)
        profile = oracle.binary_equality_profile(n)
        closed = oracle.average_depth_c2(n)
        if profile.avg_depth < half - 2 or not (half - 2 <= closed <= half):
            return f"n={n}: equality avg {float(profile.avg_depth):.4f}, closed form {closed:.4f}"
    return None


def check_equivalence(trials: int, seed: int):
    """Every strategy finds the linear-scan cell on `trials` random lists of n=2..512."""
    specs = (Uniform(), Gaussian(), Exponential(), Triangular(), Step())
    configs = (
        SearchConfig.binary(),
        SearchConfig.interpolation(),
        SearchConfig.itp(variant=Relaxed()),
    )
    rng = as_rng(seed)
    for t in range(trials):
        n = int(rng.integers(2, 513))
        lst = sample_list(specs[t % len(specs)], n, rng)
        z = sample_target(lst[0], lst[n], rng)
        expected = oracle.linear_scan(lst, z)
        for config in configs:
            got = search(lst, z, config).k_star
            if got != expected:
                return f"trial {t}: {config.strategy.name} found {got}, scan found {expected}"
    return None


def check_codec(pairs: int, seed: int):
    """The base-27 codes of `pairs` random strings order like their normalized keys."""
    rng = as_rng(seed)
    alphabet = "abcdefghijklmnopqrstuvwxyzABCDWXYZ .',-!;*0123456789"
    lengths = rng.integers(0, 15, size=2 * pairs)
    chars = rng.integers(0, len(alphabet), size=int(lengths.sum()))
    words = np.split(chars, lengths.cumsum()[:-1])
    strings = ["".join(alphabet[c] for c in word) for word in words]
    for s, t in zip(strings[::2], strings[1::2]):
        ks, kt = normalize(s)[:MAX_DIGITS], normalize(t)[:MAX_DIGITS]
        es, et = encode_base27(s), encode_base27(t)
        if (ks < kt) != (es < et) or (ks == kt) != (es == et):
            return f"order broken for {s!r} vs {t!r}"
    return None


def _run_checks(checks) -> int:
    """Print PASS or FAIL (with the first problem) per (name, thunk); 1 if any failed."""
    failed = 0
    for name, run in checks:
        problem = run()
        if problem is None:
            print(f"PASS {name}")
        else:
            print(f"FAIL {name}: {problem}")
            failed += 1
    return 1 if failed else 0


def _require(flag: str, value: int, low: int) -> None:
    """Reject a size below its minimum, where the check would pass vacuously."""
    if value < low:
        raise ValueError(f"{flag} must be >= {low}, got {value}")


def _cmd_verify(args) -> int:
    _require("--max-n", args.max_n, 2)
    _require("--trials", args.trials, 1)
    return _run_checks([
        (
            f"minmax bound exhaustive, n=2..{args.max_n}",
            lambda: check_minmax_exhaustive(args.max_n),
        ),
        ("minimax oracle equals ceil(log2 n), n=2..512", lambda: check_minimax_oracle(512)),
        ("ITP-Strict adversarial depth <= bound, n=2..256", lambda: check_worst_depth(256)),
        (
            f"strategies agree with linear scan, {args.trials} random instances",
            lambda: check_equivalence(args.trials, args.seed),
        ),
        ("base-27 codec preserves key order, 5000 pairs", lambda: check_codec(5000, args.seed)),
    ])


def _cmd_oracle_check(args) -> int:
    _require("--max-n", args.max_n, 2)
    return _run_checks([
        (
            f"minimax_depth equals ceil(log2 n), n=2..{args.max_n}",
            lambda: check_minimax_oracle(args.max_n),
        ),
        ("adversarial depth enumeration, n=2..128", lambda: check_worst_depth(128)),
        (
            "binary average depth within lower-bound band, n=2..256",
            lambda: check_binary_depth_band(256),
        ),
    ])


# ---------------------------------------------------------------------------
# benchmark verbs


def _cmd_sweep_kappa(args) -> int:
    rows = bench.sweep_kappa(
        args.kappa1,
        args.kappa2,
        args.n,
        args.trials,
        args.seed,
        variant=_variant(args),
        cap=args.cap,
        spec=DISTRIBUTIONS[args.distribution](),
    )
    _emit(rows, args.output)
    return 0


def _cmd_sweep_n(args) -> int:
    rows = bench.sweep_n(
        args.n, DISTRIBUTIONS[args.distribution](), _strategies(args), args.trials, args.seed
    )
    _emit(rows, args.output)
    return 0


def _cmd_bench_file(args) -> int:
    if args.text and args.column is not None:
        raise ValueError("--column applies to numeric input only, not --text")
    if args.text:
        dataset = datasets.load_text(args.input)
    else:
        dataset = datasets.load_numeric(args.input, column=args.column)
    rows = bench.run_trials(dataset, _strategies(args), args.trials, args.seed)
    _emit(rows, args.output)
    return 0


def _cmd_generate(args) -> int:
    dataset = datasets.generate(args.kind, args.n)
    lines = "".join(f"{value!r}\n" for value in dataset.list.values.tolist())
    if args.output == "-":
        sys.stdout.write(lines)
    else:
        with open(args.output, "w") as fh:
            fh.write(lines)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="itpsearch",
        description="Sorted-list searching with interpolation, truncation and projection.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("verify", help="run the desk-scale invariant and oracle suites")
    p.add_argument("--max-n", type=int, default=128, help="exhaustive minmax check up to this n")
    p.add_argument("--trials", type=int, default=2000, help="random equivalence instances")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("sweep-kappa", help="mean queries over a (kappa1, kappa2) grid")
    p.add_argument("--n", type=int, default=200_000, help="list size")
    p.add_argument("--kappa1", type=_comma_list(float), default=list(bench.TABLE1_KAPPA1))
    p.add_argument("--kappa2", type=_comma_list(float), default=list(bench.TABLE1_KAPPA2))
    _add_variant_flags(p, default="strict")  # the sweep table is defined against strict
    p.add_argument(
        "--distribution", choices=sorted(DISTRIBUTIONS), default="uniform"
    )
    _add_run_flags(p)
    p.set_defaults(func=_cmd_sweep_kappa)

    p = sub.add_parser("sweep-n", help="per-strategy stats across list sizes")
    p.add_argument("--n", type=_comma_list(int), required=True, help="comma-separated list sizes")
    _add_variant_flags(p, default="relaxed")
    p.add_argument("--kappa1", type=float, default=DEFAULT_KAPPA1)
    p.add_argument("--kappa2", type=float, default=DEFAULT_KAPPA2)
    p.add_argument(
        "--distribution", choices=sorted(DISTRIBUTIONS), default="uniform"
    )
    _add_run_flags(p)
    p.set_defaults(func=_cmd_sweep_n)

    p = sub.add_parser("bench-file", help="benchmark all strategies against a file's keys")
    p.add_argument("--input", required=True, help="file of values or text keys")
    p.add_argument("--text", action="store_true", help="treat lines as text keys")
    p.add_argument("--column", type=int, default=None, help="1-based CSV column")
    _add_variant_flags(p, default="relaxed")
    p.add_argument("--kappa1", type=float, default=DEFAULT_KAPPA1)
    p.add_argument("--kappa2", type=float, default=DEFAULT_KAPPA2)
    _add_run_flags(p)
    p.set_defaults(func=_cmd_bench_file)

    p = sub.add_parser("oracle-check", help="cross-check the analytic and enumerated oracles")
    p.add_argument("--max-n", type=int, default=1024)
    p.set_defaults(func=_cmd_oracle_check)

    p = sub.add_parser("generate", help="emit a self-generated value list")
    p.add_argument("--kind", choices=datasets.GENERATOR_KINDS, required=True)
    p.add_argument("--n", type=int, required=True, help="problem size; emits n+1 values")
    p.add_argument("--output", default="-", help="path, or - for stdout")
    p.set_defaults(func=_cmd_generate)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
