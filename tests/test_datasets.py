"""File ingestion and self-generated lists."""

import hashlib
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from itpsearch.cli import main
from itpsearch.datasets import MAX_FIBONACCI_N, generate, load_numeric, load_text
from itpsearch.keycodec import encode_base27

# sha256 of load_text("data/surnames.txt").list.values, as the per-line
# scalar encoding gave it
SURNAMES_SHA256 = "cda9af8ff54d5b0fcba0c4dba503b66cf8402400e61ea8f5e46bbbef2d91c065"


def test_load_numeric_sorts(tmp_path):
    path = tmp_path / "nums.txt"
    path.write_text("3\n1\n2\n")
    ds = load_numeric(path)
    assert ds.list.values.tolist() == [1.0, 2.0, 3.0]
    assert ds.list.n == 2
    assert ds.dedup_count == 0


def test_load_numeric_dedup(tmp_path):
    path = tmp_path / "dups.txt"
    path.write_text("1\n1\n2\n")
    ds = load_numeric(path)
    assert ds.list.values.tolist() == [1.0, 2.0]
    assert ds.dedup_count == 1
    # float() parsing merges integers that float64 cannot tell apart
    path.write_text("0\n9007199254740992\n9007199254740993\n")
    ds = load_numeric(path)
    assert ds.list.values.tolist() == [0.0, 2.0**53]
    assert ds.dedup_count == 1


def test_dedup_equals_np_unique(tmp_path):
    # the loader sorts and drops adjacent duplicates; np.unique is the oracle
    path = tmp_path / "dups.txt"
    for seed in range(20):
        rng = np.random.default_rng(seed)
        scaled = rng.normal(size=rng.integers(1, 40)) * 10.0 ** rng.integers(-300, 300)
        pool = np.concatenate((scaled, np.arange(-3.0, 4.0)))  # small integers and 0.0
        raw = rng.choice(pool, size=rng.integers(2, 400))  # many duplicates
        want = np.unique(raw)
        if want.size < 2:
            continue
        path.write_text("".join(f"{x!r}\n" for x in raw.tolist()))
        ds = load_numeric(path)
        assert np.array_equal(ds.list.values.view(np.int64), want.view(np.int64))
        assert ds.dedup_count == raw.size - want.size


def test_signed_zeros_merge(tmp_path):
    path = tmp_path / "zeros.txt"
    path.write_text("0\n-0\n1\n0.0\n")
    ds = load_numeric(path)
    # either sign of zero may stay, as with np.unique: the first it meets
    assert ds.list.values.tolist() == [0.0, 1.0]
    assert ds.dedup_count == 2


def test_loading_keeps_numpy_ma_unimported(tmp_path):
    # numpy 2.4's np.unique imports numpy.ma at its first call, a cost that
    # every fresh interpreter pays; the loaders dedupe without it
    (tmp_path / "keys.txt").write_text("Smith\njones\r\nsmith\n")
    (tmp_path / "nums.txt").write_text("3\n1\n1\n2.5\n")
    code = (
        "import sys, itpsearch\n"
        "itpsearch.datasets.load_text('keys.txt')\n"
        "itpsearch.datasets.load_numeric('nums.txt')\n"
        "assert 'numpy.ma' not in sys.modules, 'numpy.ma imported'\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_load_numeric_blank_lines_and_floats(tmp_path):
    path = tmp_path / "vals.txt"
    path.write_text("0.5\n\n  \n-1.25e2\n7\n")
    ds = load_numeric(path)
    assert ds.list.values.tolist() == [-125.0, 0.5, 7.0]
    # CSV mode skips the same lines; a line with a delimiter is not blank
    assert load_numeric(path, column=1).list.values.tolist() == [-125.0, 0.5, 7.0]
    table = tmp_path / "ws.csv"
    table.write_text("a,3\n \t\n\r\nb,1\n")
    assert load_numeric(table, column=2).list.values.tolist() == [1.0, 3.0]
    table.write_text("a,3\n , \nb,1\n")
    with pytest.raises(ValueError, match=r"ws.csv:2: not a number: ''"):
        load_numeric(table, column=2)


def test_load_numeric_csv_column(tmp_path):
    path = tmp_path / "table.csv"
    path.write_text("name,value\nalpha,3\nbeta,1\ngamma,2\n")
    with pytest.raises(ValueError, match="table.csv:1"):
        load_numeric(path, column=2)  # header row is not a number
    path.write_text("alpha,3\nbeta,1\ngamma,2\n")
    ds = load_numeric(path, column=2)
    assert ds.list.values.tolist() == [1.0, 2.0, 3.0]
    with pytest.raises(ValueError, match="no column 5"):
        load_numeric(path, column=5)
    with pytest.raises(ValueError, match="1-based"):
        load_numeric(path, column=0)


def test_load_numeric_checks_column_before_reading(tmp_path):
    # a bad column is reported as such, not as the missing file it names
    with pytest.raises(ValueError, match="column is 1-based, got 0"):
        load_numeric(tmp_path / "missing.txt", column=0)


def test_load_numeric_errors(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("1\nnope\n3\n")
    with pytest.raises(ValueError, match=r"bad.txt:2: not a number: 'nope'"):
        load_numeric(bad)
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    with pytest.raises(ValueError, match="no values"):
        load_numeric(empty)
    single = tmp_path / "single.txt"
    single.write_text("5\n")
    with pytest.raises(ValueError, match="at least 2"):
        load_numeric(single)
    # float() parses these rows, but no strategy can search such keys
    odd = tmp_path / "odd.txt"
    for row in ("inf", "-inf", "nan"):
        odd.write_text(f"1\n{row}\n3\n")
        with pytest.raises(ValueError, match=r"odd\.txt: values must be finite \(no NaN or inf\)"):
            load_numeric(odd)
    odd.write_text("a,1\nb,inf\nc,3\n")
    with pytest.raises(ValueError, match="finite"):
        load_numeric(odd, column=2)
    assert main(["bench-file", "--input", str(odd), "--column", "2"]) == 1
    assert "error:" in capsys.readouterr().err


def test_key_errors_name_the_path(tmp_path):
    # two files of one name in different directories: the errors tell them apart
    for load, body in ((load_numeric, "1\nnan\n"), (load_text, "smith\n")):
        messages = set()
        for directory in ("one", "two"):
            path = tmp_path / directory / "odd.txt"
            path.parent.mkdir(exist_ok=True)
            path.write_text(body)
            with pytest.raises(ValueError) as info:
                load(path)
            assert str(info.value).startswith(f"{path}: ")
            messages.add(str(info.value))
        assert len(messages) == 2


def test_csv_errors_give_the_line(tmp_path):
    path = tmp_path / "table.csv"
    # a quoted field spans lines 1 and 2, so 'oops' is on line 4, record 3
    path.write_text('"multi\nline",1\nx,2\ny,oops\n')
    with pytest.raises(ValueError, match=r"table\.csv:4: not a number: 'oops'"):
        load_numeric(path, column=2)


def test_loaders_split_lines_alike(tmp_path):
    # only "\n", "\r\n" and "\r" end a line; a form feed or U+2028 is part of it
    layout = "{}\f\r{}\u2028\r\n{}\n{}\r"
    nums, keys = tmp_path / "nums.txt", tmp_path / "keys.txt"
    nums.write_bytes(layout.format(4, 2, 3, 1).encode())
    keys.write_bytes(layout.format("d", "b", "c", "a").encode())
    assert load_numeric(nums).list.values.tolist() == [1.0, 2.0, 3.0, 4.0]
    ds = load_text(keys)
    assert ds.list.values.tolist() == [encode_base27(key) for key in "abcd"]
    assert ds.dedup_count == 0


def test_load_text_sorts_and_dedups(tmp_path):
    path = tmp_path / "keys.txt"
    path.write_text("b\na\n")
    ds = load_text(path)
    assert ds.list.values.tolist() == [encode_base27("a"), encode_base27("b")]
    # case-folded duplicates merge; a third key keeps the list two-sized
    path.write_text("Smith\nsmith\nJones\n")
    ds = load_text(path)
    assert ds.list.n == 1
    assert ds.dedup_count == 1
    assert ds.list.values.tolist() == [encode_base27("jones"), encode_base27("smith")]


def test_load_text_empty_lines_encode_zero(tmp_path):
    path = tmp_path / "keys.txt"
    path.write_text("a\n\nb\n\n")
    ds = load_text(path)
    assert ds.dedup_count == 1
    assert ds.list.values.tolist() == [0.0, encode_base27("a"), encode_base27("b")]


def test_load_text_empty_file(tmp_path):
    path = tmp_path / "none.txt"
    path.write_text("")
    with pytest.raises(ValueError, match="no keys"):
        load_text(path)
    # one empty line is one key, encoded 0
    path.write_text("\n")
    with pytest.raises(ValueError, match="at least 2 distinct"):
        load_text(path)


def test_load_text_crlf_equals_lf(tmp_path):
    crlf = tmp_path / "crlf.txt"
    lf = tmp_path / "lf.txt"
    crlf.write_bytes(b"Smith\r\njones\r\n\r\nsmith\r\nBrown")
    lf.write_bytes(b"Smith\njones\n\nsmith\nBrown")
    a, b = load_text(crlf), load_text(lf)
    assert a.list.values.tolist() == b.list.values.tolist()
    assert a.dedup_count == b.dedup_count == 1


def test_key_files_are_utf8(tmp_path, capsys):
    path = tmp_path / "keys.txt"
    # KELVIN SIGN and DOTTED CAPITAL I lower-case to a..z letters
    path.write_bytes("\u212aelvin\nİstanbul\n".encode("utf-8"))
    ds = load_text(path)
    assert ds.list.values.tolist() == [encode_base27("istanbul"), encode_base27("kelvin")]
    path.write_bytes(b"smith\n\xff\xfejones\n")
    assert main(["bench-file", "--input", str(path), "--text"]) == 1
    assert "error:" in capsys.readouterr().err


def test_invalid_utf8_names_file_and_line(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"smith\n\xff\xfejones\n")
    for load in (load_text, load_numeric, lambda p: load_numeric(p, column=1)):
        with pytest.raises(ValueError, match=r"bad\.txt:2: not UTF-8"):
            load(path)
    for argv in (["--text"], []):
        assert main(["bench-file", "--input", str(path), *argv]) == 1
        assert "bad.txt:2: not UTF-8" in capsys.readouterr().err


def test_invalid_utf8_line_counts_every_break(tmp_path):
    path = tmp_path / "bad.txt"
    # "\r" ends a line as "\n" and "\r\n" do, as in a parse error's line number
    for data in (b"1\r2\r\xff3\r", b"1\r\n2\n\xff3\n", b"1\r2\r\n\xff"):
        path.write_bytes(data)
        for load in (load_text, load_numeric):
            with pytest.raises(ValueError, match=r"bad\.txt:3: not UTF-8"):
                load(path)
    path.write_bytes(b"1\r2\rx3\r")
    with pytest.raises(ValueError, match=r"bad\.txt:3: not a number: 'x3'"):
        load_numeric(path)


def test_byte_order_mark_is_dropped(tmp_path, capsys):
    plain, marked = tmp_path / "plain.txt", tmp_path / "bom.txt"
    for body, loads in (
        (b"smith\njones\n", (load_text,)),
        (b"1.0\n2.0\n3.5\n", (load_numeric, lambda p: load_numeric(p, column=1))),
    ):
        plain.write_bytes(body)
        marked.write_bytes(b"\xef\xbb\xbf" + body)
        for load in loads:
            assert load(marked).list.values.tolist() == load(plain).list.values.tolist()
    for argv in ([], ["--column", "1"]):
        assert main(["bench-file", "--input", str(marked), "--trials", "3", *argv]) == 0
    assert capsys.readouterr().err == ""
    # the mark is not counted into the offset of a bad byte: still line 2
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xef\xbb\xbfab\n\xff")
    for load in (load_text, load_numeric):
        with pytest.raises(ValueError, match=r"bad\.txt:2: not UTF-8"):
            load(bad)


def test_generate_primes():
    ds = generate("primes", 4)
    assert ds.list.values.tolist() == [2.0, 3.0, 5.0, 7.0, 11.0]
    # n+1 values, all strictly increasing
    big = generate("primes", 10_000)
    assert big.list.n == 10_000
    assert np.all(np.diff(big.list.values) > 0)


def test_generate_fibonacci():
    ds = generate("fibonacci", 4)
    # F_1..F_5 = 1,1,2,3,5; the duplicate 1 merges
    assert ds.list.values.tolist() == [1.0, 2.0, 3.0, 5.0]
    assert ds.dedup_count == 1
    with pytest.raises(ValueError, match="magnitude bound"):
        generate("fibonacci", MAX_FIBONACCI_N + 1)
    assert np.isfinite(generate("fibonacci", MAX_FIBONACCI_N).list.values).all()


def test_generate_harmonic():
    ds = generate("harmonic", 3)
    expected = [Fraction(1), Fraction(3, 2), Fraction(11, 6), Fraction(25, 12)]
    assert ds.list.values.tolist() == pytest.approx([float(x) for x in expected], rel=1e-12)


def test_generate_deterministic():
    a = generate("harmonic", 50)
    b = generate("harmonic", 50)
    assert np.array_equal(a.list.values, b.list.values)


def test_generate_validation():
    with pytest.raises(ValueError, match="unknown kind"):
        generate("squares", 4)
    with pytest.raises(ValueError, match="n must be"):
        generate("primes", 0)


def test_dataset_is_frozen():
    ds = generate("primes", 2)
    with pytest.raises(AttributeError):
        ds.dedup_count = 5


def test_shipped_sample_files_load():
    data = Path(__file__).resolve().parent.parent / "data"
    names = load_text(data / "surnames.txt")
    assert names.list.n == 14  # 15 distinct keys
    lines = (data / "surnames.txt").read_text(encoding="utf-8").splitlines()
    scalar = np.unique([encode_base27(line) for line in lines])
    assert np.array_equal(names.list.values.view(np.int64), scalar.view(np.int64))
    assert hashlib.sha256(names.list.values.tobytes()).hexdigest() == SURNAMES_SHA256
    readings = load_numeric(data / "readings.csv", column=2)
    assert readings.list.n == 14
    assert 0.0 < readings.list[0] and readings.list[14] < 1.0
