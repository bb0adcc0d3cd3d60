"""Loading and generating key lists for the benchmark harness.

File inputs are one value per line, or CSV with a 1-based column pick for
numeric data; text files are one key per line, encoded through the base-27
codec.  Self-generated lists (primes, Fibonacci, harmonic partial sums)
cover the benchmark rows that need no external data.
"""

from __future__ import annotations

import codecs
import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .keycodec import encode_lines
from .search import SortedList

__all__ = ["Dataset", "load_numeric", "load_text", "generate", "GENERATOR_KINDS"]

GENERATOR_KINDS = ("primes", "fibonacci", "harmonic")

# float64 overflows at Fibonacci index ~1477; stay clear of the edge
MAX_FIBONACCI_N = 1470


@dataclass(frozen=True)
class Dataset:
    list: SortedList
    dedup_count: int = 0


def _finish(name: str, raw: np.ndarray) -> Dataset:
    if not np.isfinite(raw).all():
        raise ValueError(f"{name}: keys must be finite (no NaN or inf)")
    values = np.unique(raw)  # sorts and drops duplicates
    if values.size < 2:
        raise ValueError(f"{name}: need at least 2 distinct values, got {values.size}")
    return Dataset(list=SortedList(values, validate=False), dedup_count=raw.size - values.size)


def _read_utf8(path: Path) -> str:
    """The file's text, without a leading byte order mark; a byte sequence
    that is not UTF-8 raises ValueError naming the file and line."""
    data = path.read_bytes()
    if data.startswith(codecs.BOM_UTF8):  # utf-8-sig would offset exc.start past it
        data = data[len(codecs.BOM_UTF8) :]
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"{path}:{lineno}: not UTF-8: {exc.reason}") from None


def load_numeric(path, column: int | None = None) -> Dataset:
    """Parse one decimal number per row (or per row of a CSV column)."""
    path = Path(path)
    raw: list[float] = []
    # lines split as open() splits them, with newline=""
    with io.StringIO(_read_utf8(path), newline="") as fh:
        if column is not None and column < 1:
            raise ValueError(f"column is 1-based, got {column}")
        for lineno, row in enumerate(fh if column is None else csv.reader(fh), start=1):
            if not row or (column is None and row.isspace()):
                continue
            if column is not None and column > len(row):
                raise ValueError(f"{path}:{lineno}: no column {column}")
            text = row.strip() if column is None else row[column - 1].strip()
            try:
                raw.append(float(text))
            except ValueError:
                raise ValueError(f"{path}:{lineno}: not a number: {text!r}") from None
    if not raw:
        raise ValueError(f"{path}: no values")
    return _finish(path.stem, np.asarray(raw))


def load_text(path) -> Dataset:
    """Encode one key per line via base-27; codec collisions merge."""
    path = Path(path)
    text = _read_utf8(path)  # encode_lines splits lines as open() does
    if not text:
        raise ValueError(f"{path}: no keys")
    return _finish(path.stem, encode_lines(text))


def _first_primes(count: int) -> np.ndarray:
    # Rosser's bound p_k < k (ln k + ln ln k) holds for k >= 6
    k = max(count, 6)
    bound = int(k * (math.log(k) + math.log(math.log(k)))) + 10
    sieve = np.ones(bound + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(bound) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    primes = np.flatnonzero(sieve)
    if primes.size < count:
        raise ValueError(f"sieve bound {bound} too small for {count} primes")
    return primes[:count].astype(np.float64)


def _fibonacci(count: int) -> np.ndarray:
    a, b = 1, 1
    out = []
    for _ in range(count):
        out.append(a)
        a, b = b, a + b
    return np.asarray([float(x) for x in out])


def generate(kind: str, n: int) -> Dataset:
    """Emit n + 1 values of a self-generated sequence as a Dataset.

    The Fibonacci prefix contains 1 twice, so its deduplicated list is one
    entry shorter than requested; primes and harmonic sums are strictly
    increasing and keep all n + 1 entries.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if kind == "primes":
        raw = _first_primes(n + 1)
    elif kind == "fibonacci":
        if n > MAX_FIBONACCI_N:
            raise ValueError(f"fibonacci overflows float64 beyond n={MAX_FIBONACCI_N}")
        raw = _fibonacci(n + 1)
    elif kind == "harmonic":
        raw = np.cumsum(1.0 / np.arange(1, n + 2))
    else:
        raise ValueError(f"unknown kind {kind!r}, expected one of {GENERATOR_KINDS}")
    return _finish(kind, raw)
