"""Base-27 key encoding: examples and order-preservation properties."""

import io
import sys
from fractions import Fraction

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from itpsearch.keycodec import MAX_DIGITS, encode_base27, encode_lines, normalize

LETTERS = "abcdefghijklmnopqrstuvwxyz"


def test_normalize():
    assert normalize("Smith") == "smith"
    assert normalize("O'Brien, Jr.") == "obrienjr"
    assert normalize("van der Berg 3rd") == "vanderbergrd"
    assert normalize("...!;*") == ""
    assert normalize("") == ""
    # str.lower, not str.casefold: these letters have no a..z lower case
    assert normalize("Straße") == "strae"
    assert normalize("ſun") == "un"


def test_encode_examples():
    assert encode_base27("") == 0.0
    # exact-rational oracle: single digit 'a' is 1/27
    assert encode_base27("a") == float(Fraction(1, 27))
    assert encode_base27("ab") < encode_base27("b")
    assert encode_base27("z") == float(Fraction(26, 27))


def test_precision_cap_value():
    # largest digit count whose place value still exceeds float precision
    assert MAX_DIGITS == 10
    assert 27.0 ** -(MAX_DIGITS) > sys.float_info.epsilon >= 27.0 ** -(MAX_DIGITS + 1)


def test_encode_range():
    assert 0.0 <= encode_base27("z" * 30) < 1.0
    assert encode_base27("a") > 0.0


def test_digits_beyond_cap_are_dropped():
    base = "abcdefghij"  # exactly MAX_DIGITS letters
    assert encode_base27(base) == encode_base27(base + "zzz")


@given(st.text())
def test_normalization_idempotent(s):
    assert encode_base27(s) == encode_base27(normalize(s))


@given(st.text(alphabet=LETTERS, max_size=MAX_DIGITS - 1), st.sampled_from(LETTERS))
def test_prefix_rule_below_cap(s, c):
    assert encode_base27(s) < encode_base27(s + c)


@given(st.text(), st.text())
def test_order_matches_truncated_lexicographic(s, t):
    ks = normalize(s)[:MAX_DIGITS]
    kt = normalize(t)[:MAX_DIGITS]
    es = encode_base27(s)
    et = encode_base27(t)
    if ks == kt:
        assert es == et
    elif ks < kt:
        assert es < et
    else:
        assert es > et


@given(st.text())
# every line break str.splitlines() knows: only "\n", "\r\n" and "\r" split
@example("a\rb\r\nc\vd\fe\x1cf\x1dg\x1eh\x85i\u2028j\u2029k\nl")
@example("\r\r\n\n\r")
@example("x\ré\ny")  # "\r" and "\n" apart once the "é" is dropped
@example("smith\n")  # a trailing break ends the last line, adds no empty one
@example("\n\nsmith\n\njones")  # empty lines encode 0
@example("")
@example("123 !?")  # no letter at all: no digit bytes
@example("é\n\u00a0")
@example("abcdefghijklmnopq\nZYXWVUTSRQPONM\nabcdefghij")  # beyond MAX_DIGITS
@example("\ufeffsmith\njones")  # a byte order mark
@example("\u212aelvin\nİstanbul\nſun\nStraße\nΟΔΟΣ")  # K sign, dotted I, long s, final sigma
def test_encode_lines_equals_scalar(text):
    got = encode_lines(text)
    lines = io.StringIO(text, newline="")
    want = np.asarray([encode_base27(line) for line in lines], dtype=np.float64)
    assert got.dtype == np.float64
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
