"""Command-line front end: verbs, flags, defaults, and output files."""

import csv
import dataclasses
import io
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from itpsearch import bench, cli, oracle
from itpsearch.cli import _build_parser, main
from itpsearch.datasets import generate, load_numeric
from itpsearch.distributions import Uniform
from itpsearch.search import Local, Relaxed, SearchConfig

SRC = Path(__file__).resolve().parent.parent / "src"
DATA = Path(__file__).resolve().parent.parent / "data"


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_verify_passes(capsys):
    assert main(["verify", "--max-n", "24", "--trials", "60"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "PASS minmax bound exhaustive, n=2..24",
        "PASS minimax oracle equals ceil(log2 n), n=2..512",
        "PASS ITP-Strict adversarial depth <= bound, n=2..256",
        "PASS strategies agree with linear scan, 60 random instances",
        "PASS base-27 codec preserves key order, 5000 pairs",
    ]


def test_oracle_check_passes(capsys):
    assert main(["oracle-check", "--max-n", "64"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "PASS minimax_depth equals ceil(log2 n), n=2..64",
        "PASS adversarial depth enumeration, n=2..128",
        "PASS binary average depth within lower-bound band, n=2..256",
    ]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "--max-n", "1"], "--max-n must be >= 2, got 1"),
        (["verify", "--trials", "0"], "--trials must be >= 1, got 0"),
        (["verify", "--trials", "-5", "--max-n", "1"], "--max-n must be >= 2, got 1"),
        (["oracle-check", "--max-n", "0"], "--max-n must be >= 2, got 0"),
        (["oracle-check", "--max-n", "1"], "--max-n must be >= 2, got 1"),
    ],
)
def test_checks_refuse_vacuous_sizes(argv, message, capsys):
    # a check over no sizes or no instances would print PASS without checking
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_verify_fails_through_cli_search(monkeypatch, capsys):
    # the checks must search through itpsearch.cli.search, and report its faults
    real = cli.search

    def off_by_one(lst, z, config):
        out = real(lst, z, config)
        return dataclasses.replace(out, k_star=out.k_star + 1)

    monkeypatch.setattr(cli, "search", off_by_one)
    assert main(["verify", "--max-n", "8", "--trials", "20"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[3].startswith("FAIL strategies agree with linear scan, 20 random instances: ")
    assert [line[:4] for line in lines] == ["PASS", "PASS", "PASS", "FAIL", "PASS"]


def test_verify_calls_cli_search_once_per_search(monkeypatch):
    # perfbench tallies verify's searches by wrapping cli.search: the exhaustive
    # check makes 2 * (8**2 - 1) calls over n=2..8, and the equivalence check
    # 3 * 20, so batching or bypassing either would change that tally
    real = cli.search
    rules = []

    def counting(lst, z, config):
        variant = type(config.variant).__name__ if config.strategy.value == "itp" else ""
        rules.append((config.strategy.value, variant))
        return real(lst, z, config)

    monkeypatch.setattr(cli, "search", counting)
    assert main(["verify", "--max-n", "8", "--trials", "20"]) == 0
    assert len(rules) == 2 * (8**2 - 1) + 3 * 20 == 186
    assert Counter(rules) == {
        ("binary", ""): 63 + 20,
        ("itp", "Strict"): 63,
        ("interpolation", ""): 20,
        ("itp", "Relaxed"): 20,
    }


def test_verify_module_run_at_default_sizes():
    # the command the verify benchmark times, in a fresh interpreter
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "itpsearch.cli", "verify"],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "PASS minmax bound exhaustive, n=2..128",
        "PASS minimax oracle equals ceil(log2 n), n=2..512",
        "PASS ITP-Strict adversarial depth <= bound, n=2..256",
        "PASS strategies agree with linear scan, 2000 random instances",
        "PASS base-27 codec preserves key order, 5000 pairs",
    ]


def test_oracle_check_fails_through_oracle(monkeypatch, capsys):
    real = oracle.minimax_depth
    monkeypatch.setattr(oracle, "minimax_depth", lambda n: real(n) + (n == 40))
    assert main(["oracle-check", "--max-n", "64"]) == 1
    assert capsys.readouterr().out.splitlines()[0] == (
        "FAIL minimax_depth equals ceil(log2 n), n=2..64: minimax_depth(40) = 7 != 6"
    )


def test_minmax_check_reports_excess_queries(monkeypatch):
    real = cli.search

    def one_more(lst, z, config):
        out = real(lst, z, config)
        return dataclasses.replace(out, queries=out.queries + 1)

    monkeypatch.setattr(cli, "search", one_more)
    assert cli.check_minmax_exhaustive(8) == "n=2 z=0.125: 2 queries > 1"


def test_worst_depth_check_reports_deep_rule(monkeypatch):
    monkeypatch.setattr(cli, "make_probe_fn", lambda config, n: oracle.sequential_rule)
    assert cli.check_worst_depth(8) == "ITP-Strict worst depth 3 > 2 at n=4"


def test_worst_depth_check_reports_blind_adversary(monkeypatch):
    # the converse: a midpoint rule passed off as the sequential one is not
    # forced to n - 1 probes
    monkeypatch.setattr(oracle, "sequential_rule", lambda a, b, j, va, vb, z: (a + b) // 2)
    assert cli.check_worst_depth(8) == (
        "adversary failed to force n-1 probes from the sequential rule"
    )


def test_binary_band_check_reports_closed_form(monkeypatch):
    real = oracle.average_depth_c2
    monkeypatch.setattr(oracle, "average_depth_c2", lambda n: real(n) + 3)
    assert cli.check_binary_depth_band(8) == "n=2: equality avg 1.0000, closed form 4.0000"


def test_codec_check_reports_broken_order(monkeypatch):
    real = cli.encode_lines
    monkeypatch.setattr(cli, "encode_lines", lambda text: -real(text))
    assert cli.check_codec(50, 0) == "order broken for 'u;qm*3ed rDh' vs \"2x4*'l!cD\""


def test_sweep_kappa_csv(tmp_path):
    out = tmp_path / "grid.csv"
    argv = [
        "sweep-kappa",
        "--n", "128",
        "--trials", "20",
        "--seed", "6",
        "--kappa1", "0.01,0.3",
        "--kappa2", "0.6,0.83",
        "--output", str(out),
    ]
    assert main(argv) == 0
    rows = read_csv(out)
    assert len(rows) == 4
    assert all(row["strategy"] == "itp" and row["variant"] == "strict" for row in rows)

    # identical argv and seed give byte-identical output
    first = out.read_bytes()
    assert main(argv) == 0
    assert out.read_bytes() == first


def test_sweep_n_csv(tmp_path):
    out = tmp_path / "curve.csv"
    assert main([
        "sweep-n", "--n", "1,16,64", "--trials", "15", "--seed", "2",
        "--output", str(out),
    ]) == 0
    rows = read_csv(out)
    assert len(rows) == 9
    assert {row["strategy"] for row in rows} == {"binary", "interpolation", "itp"}
    assert {row["n"] for row in rows} == {"1", "16", "64"}


def test_sweep_n_local_matches_direct_run(tmp_path):
    out = tmp_path / "local.csv"
    assert main([
        "sweep-n", "--n", "16,300", "--variant", "local", "--trials", "25", "--seed", "3",
        "--output", str(out),
    ]) == 0
    direct = io.StringIO()
    configs = [SearchConfig.binary(), SearchConfig.interpolation(), SearchConfig.itp(Local())]
    bench.write_csv(bench.sweep_n([16, 300], Uniform(), configs, 25, 3), direct)
    assert out.read_text() == direct.getvalue()
    assert {row["variant"] for row in read_csv(out)} == {"", "local"}


@pytest.mark.parametrize(
    "argv, message",
    [
        (["sweep-n", "--kappa1", "nan"], "kappa1 must be finite and positive, got nan"),
        (["sweep-n", "--kappa1", "inf"], "kappa1 must be finite and positive, got inf"),
        (["sweep-n", "--nmax-extra", "nan"], "extra must be finite and >= 0, got nan"),
        (["sweep-n", "--nmax-extra", "inf"], "extra must be finite and >= 0, got inf"),
        (["sweep-kappa", "--kappa1", "0.1,nan"], "kappa1 must be finite and positive, got nan"),
        (
            ["sweep-kappa", "--variant", "relaxed", "--nmax-extra", "inf"],
            "extra must be finite and >= 0, got inf",
        ),
        (["sweep-kappa", "--nmax-extra", "nan"], "extra must be finite and >= 0, got nan"),
        (
            ["sweep-n", "--variant", "local", "--nmax-extra", "-5"],
            "extra must be finite and >= 0, got -5.0",
        ),
    ],
)
def test_non_finite_tuning_rejected(argv, message, capsys):
    # NaN used to turn ITP into binary search, and an infinite budget into
    # unbounded interpolation, with exit code 0; --nmax-extra is checked
    # under every variant, not only the relaxed one that uses it
    assert main(argv + ["--n", "64", "--trials", "5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_sweep_n_requires_grid(capsys):
    with pytest.raises(SystemExit):
        main(["sweep-n"])
    assert "--n" in capsys.readouterr().err
    # "," splits into blanks only, which argparse reports as a usage error
    with pytest.raises(SystemExit) as exc:
        main(["sweep-n", "--n", ","])
    assert exc.value.code == 2
    assert "empty list: ','" in capsys.readouterr().err


def test_bench_file_matches_direct_run(tmp_path):
    data = tmp_path / "vals.txt"
    data.write_text("".join(f"{x}\n" for x in range(200, 0, -1)))
    out = tmp_path / "stats.csv"
    assert main([
        "bench-file", "--input", str(data), "--trials", "40", "--seed", "9",
        "--output", str(out),
    ]) == 0
    rows = read_csv(out)
    assert [row["strategy"] for row in rows] == ["binary", "interpolation", "itp"]

    # re-run the harness directly with the CLI's default strategy set
    direct = bench.run_trials(
        load_numeric(data),
        [
            SearchConfig.binary(),
            SearchConfig.interpolation(),
            SearchConfig.itp(Relaxed(extra=0.99)),
        ],
        40,
        9,
    )
    for row, stat in zip(rows, direct):
        assert float(row["mean"]) == pytest.approx(stat.mean, abs=5e-7)
        assert int(row["max"]) == stat.max


def test_bench_file_local_matches_direct_run(tmp_path):
    data = tmp_path / "vals.txt"
    data.write_text("".join(f"{x * x}\n" for x in range(150)))
    out = tmp_path / "stats.csv"
    assert main([
        "bench-file", "--input", str(data), "--variant", "local", "--trials", "30",
        "--seed", "4", "--output", str(out),
    ]) == 0
    direct = io.StringIO()
    configs = [SearchConfig.binary(), SearchConfig.interpolation(), SearchConfig.itp(Local())]
    bench.write_csv(bench.run_trials(load_numeric(data), configs, 30, 4), direct)
    assert out.read_text() == direct.getvalue()
    assert read_csv(out)[2]["variant"] == "local"


def test_bench_file_text_mode(tmp_path):
    data = tmp_path / "names.txt"
    data.write_text("Smith\nJones\nAdams\nBrown\n")
    out = tmp_path / "stats.csv"
    assert main([
        "bench-file", "--input", str(data), "--text", "--trials", "10",
        "--seed", "1", "--output", str(out),
    ]) == 0
    rows = read_csv(out)
    assert all(row["n"] == "3" for row in rows)


def test_bench_file_narrow_and_overflowing_key_ranges(tmp_path, capsys):
    # no float lies strictly between the keys: no target can be drawn
    data = tmp_path / "f.txt"
    data.write_text("1.0\n1.0000000000000002\n")
    assert main(["bench-file", "--input", str(data), "--trials", "5"]) == 1
    assert "error: no float lies strictly inside" in capsys.readouterr().err
    # keys beyond SortedList's magnitude bound are rejected when loaded
    data.write_text("-1.7e308\n0.5\n1.7e308\n")
    assert main(["bench-file", "--input", str(data), "--trials", "50"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: {data}: n * max|key| must be below 2**1020, got 2 * 1.7e+308" in captured.err


def test_bench_file_flag_conflict(tmp_path, capsys):
    data = tmp_path / "x.txt"
    data.write_text("a\nb\n")
    code = main(["bench-file", "--input", str(data), "--text", "--column", "1"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_bench_file_rejects_overflowing_nmax_extra(capsys):
    # 2 ** (n_max - 1) overflowed inside the search, and the OverflowError
    # escaped main as a traceback
    argv = ["bench-file", "--input", str(DATA / "readings.csv"), "--column", "2"]
    assert main(argv + ["--nmax-extra", "1100"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: extra must be at most 961, got 1100.0\n"


def test_bench_file_missing_input(capsys):
    assert main(["bench-file", "--input", "/nonexistent/file.txt"]) == 1
    assert "error:" in capsys.readouterr().err


def test_generate_roundtrip(tmp_path):
    out = tmp_path / "fib.txt"
    assert main(["generate", "--kind", "fibonacci", "--n", "30", "--output", str(out)]) == 0
    ds = load_numeric(out)
    assert ds.list.values.tolist() == generate("fibonacci", 30).list.values.tolist()


def test_generate_stdout(capsys):
    assert main(["generate", "--kind", "primes", "--n", "4"]) == 0
    assert capsys.readouterr().out.split() == ["2.0", "3.0", "5.0", "7.0", "11.0"]


def test_generate_fibonacci_beyond_the_bound(capsys):
    # at n = 1455 the largest key, times the list's n, reaches SortedList's bound
    assert main(["generate", "--kind", "fibonacci", "--n", "1455"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "magnitude bound beyond n=1454" in captured.err


def test_generate_bad_kind(capsys):
    with pytest.raises(SystemExit):
        main(["generate", "--kind", "squares", "--n", "4"])
    assert "invalid choice" in capsys.readouterr().err


def test_unknown_flag_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["sweep-kappa", "--bogus", "1"])
    assert "unrecognized" in capsys.readouterr().err


def test_defaults_follow_recommendation():
    args = _build_parser().parse_args(["sweep-n", "--n", "4"])
    assert args.kappa1 == 0.01
    assert args.kappa2 == 0.83
    assert args.variant == "relaxed"
    assert args.nmax_extra == 0.99
    assert args.cap == 1000
    assert args.distribution == "uniform"
    assert args.seed == 0

    kappa_args = _build_parser().parse_args(["sweep-kappa"])
    assert kappa_args.n == 200_000
    assert list(kappa_args.kappa1) == list(bench.TABLE1_KAPPA1)
    assert list(kappa_args.kappa2) == list(bench.TABLE1_KAPPA2)
    assert kappa_args.variant == "strict"


def test_help_documents_flags(capsys):
    for verb, flags in [
        ("sweep-n", ["--n", "--trials", "--seed", "--kappa1", "--kappa2",
                     "--variant", "--nmax-extra", "--distribution", "--cap", "--output"]),
        ("bench-file", ["--input", "--text", "--column"]),
    ]:
        with pytest.raises(SystemExit):
            main([verb, "--help"])
        text = capsys.readouterr().out
        for flag in flags:
            assert flag in text
