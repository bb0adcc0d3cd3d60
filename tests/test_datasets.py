"""File ingestion and self-generated lists."""

import hashlib
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


def test_load_numeric_blank_lines_and_floats(tmp_path):
    path = tmp_path / "vals.txt"
    path.write_text("0.5\n\n  \n-1.25e2\n7\n")
    ds = load_numeric(path)
    assert ds.list.values.tolist() == [-125.0, 0.5, 7.0]


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
        with pytest.raises(ValueError, match="odd: keys must be finite"):
            load_numeric(odd)
    odd.write_text("a,1\nb,inf\nc,3\n")
    with pytest.raises(ValueError, match="finite"):
        load_numeric(odd, column=2)
    assert main(["bench-file", "--input", str(odd), "--column", "2"]) == 1
    assert "error:" in capsys.readouterr().err


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
    with pytest.raises(ValueError, match="overflows"):
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
