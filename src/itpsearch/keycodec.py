"""Order-preserving text keys: letters to a base-27 fraction in [0, 1).

Keys are normalized to bare lowercase letters (lowered with ``str.lower``,
everything else dropped), then read as base-27 digits with 'a'..'z' mapping
to 1..26 and the empty string to 0.  Lexicographic order of normalized keys
matches numeric order of the encodings as long as the keys differ within the
first ``MAX_DIGITS`` letters; beyond that the encodings collide and the keys
are treated as equal.

``encode_base27`` encodes one key and is the reference; ``encode_lines``
encodes every line of a text at once with numpy, bit-identically.
"""

from __future__ import annotations

import numpy as np

__all__ = ["MAX_DIGITS", "normalize", "encode_base27", "encode_lines"]

# The deepest digit whose weight still exceeds one double ulp at 1.0, as
# 27**-10 > 2**-52 >= 27**-11; deeper digits could not change the encoded
# value reliably.
MAX_DIGITS = 10

_DENOM = 27**MAX_DIGITS

# The line breaks of open(), by the rule datasets._read_utf8 states.
_BREAKS = "\n\r"
# bytes.translate: a..z and A..Z become digits 1..26 and a line break
# becomes 0; every other byte is deleted.
_LETTERS = b"abcdefghijklmnopqrstuvwxyz"
_KEPT = _LETTERS + _LETTERS.upper() + _BREAKS.encode()
_TO_DIGITS = bytes.maketrans(_KEPT, bytes(range(1, 27)) * 2 + bytes(len(_BREAKS)))
_NOT_DIGITS = bytes(b for b in range(256) if b not in _KEPT)


def normalize(text: str) -> str:
    """Lower-case with ``str.lower`` and keep only a..z; punctuation, digits,
    spaces and every other character drop.

    This is not ``str.casefold``: ``normalize("Straße") == "strae"`` and
    ``normalize("ſun") == "un"``, where case folding would give "strasse"
    and "sun".
    """
    return "".join(c for c in text.lower() if "a" <= c <= "z")


def encode_base27(text: str) -> float:
    """Encode a key as sum of digit_i * 27**-(i+1) over its first
    MAX_DIGITS normalized letters.

    The digit sum is accumulated in exact integer arithmetic and divided
    once, so equal-prefix keys encode bit-identically.
    """
    digits = normalize(text)[:MAX_DIGITS]
    num = 0
    for c in digits:
        num = num * 27 + (ord(c) - 96)
    num *= 27 ** (MAX_DIGITS - len(digits))
    return num / _DENOM


def encode_lines(text: str) -> np.ndarray:
    """Encode each line of `text`, split as ``open()`` splits it (the rule
    ``datasets._read_utf8`` states).

    Returns one float64 per line, bit-identical to
    ``[encode_base27(line) for line in io.StringIO(text, newline="")]``.
    Text with a character beyond ASCII is lowered once; on ASCII text
    ``str.lower`` maps only A..Z, which the digit table reads as a..z.  The
    letters become digit bytes and each line ends in a 0 byte; the digit
    sums are then built one letter column at a time in exact int64 and
    divided once, as ``encode_base27`` does.
    """
    if not text.isascii():
        text = text.lower()
    if "\r" in text:
        text = text.replace("\r\n", "\n")
    digits = text.encode("ascii", "ignore").translate(_TO_DIGITS, _NOT_DIGITS)
    if text and text[-1] not in _BREAKS:
        digits += b"\0"  # the last line has no break of its own
    buf = np.frombuffer(digits, dtype=np.uint8)
    ends = np.flatnonzero(buf == 0)
    at = np.empty_like(ends)
    at[:1] = 0
    at[1:] = ends[:-1] + 1
    num = np.zeros(ends.size, dtype=np.int64)
    for _ in range(MAX_DIGITS):
        num *= 27
        # past its last letter a line reads its own 0 byte: a missing digit
        num += buf[np.minimum(at, ends)]
        at += 1
    return num / _DENOM
