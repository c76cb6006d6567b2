"""CSV rows of an integer index and float64 fields, encoded in numpy.

The bytes are those `csv.writer` writes for the same rows: fields joined
by commas, rows ended by CRLF, the index as `str`, a float as its `repr`
and a missing field as an empty one.  `repr` is the shortest decimal
that reads back as the same double (of those, the closest), 0.d1d2...
10^decpt, written positionally when -4 < decpt <= 16 and as `d.ddde+XX`
(`d.ddde-XX`) otherwise.

The shortest digits come from Schubfach (R. Giulietti, "The Schubfach
way to render doubles", 2020).  For v = c 2^q, with k = floor(log10 2^q)
(of 3/4 2^q when the lower neighbour is the closer), v and the bounds of
its rounding interval, scaled by 4 10^-k, are g cp, g (cp - 2^(h+1-i))
and g (cp + 2^(h+1)), each rounded to odd, where g is a 128-bit upper
approximation of 10^-k, cp = 4c 2^h, and i is 1 for the closer lower
neighbour.  Rounding X to odd is floor(X / 2^128), its lowest bit set
when bits 64 .. 127 of X exceed 1; it reads only the exact 192-bit X.
The two bounds' products differ from P = g cp by g 2^(h+1-i) and
g 2^(h+1), which are g shifted, so `shortest` forms the one product P
and gets the others by exact 192-bit subtraction and addition: the same
bits as three products.  The shortest decimal in the interval is then
s 10^k or (s + 1) 10^k with s = floor(v 10^-k), or the same with one
digit fewer.  The 64 x 64-bit products are formed from 32-bit halves
over uint64 arrays.  Zero is laid out as 1.0 with its digit set to 0;
subnormals, inf and nan take `repr` one value at a time; a blank field
takes no float work.

Rows go out in blocks of `BLOCK_ROWS` = 1024.  A block is laid out in
32-byte slots, one per field, of four little-endian words: the "," that
comes before the field, the sign and "0." with its zeros right-aligned
in the first, then the 17 digits with the point put among them and the
exponent.  A mask, one table row per form, digit count and sign, keeps
the characters of the field's actual form, so a positional field with
its "," is one run of bytes, and one boolean index turns the block into
its bytes.
"""

from __future__ import annotations

import functools
from typing import BinaryIO, NamedTuple, Sequence

import numpy as np

BLOCK_ROWS = 1024  # rows per block: a 7-field block's text and mask are 0.45 MiB
_DIGITS = 17  # a double needs at most 17 significant digits; an index as many

# One field's slot is four words: its leading ",", the sign and "0." with
# its zeros, right-aligned in the first; from byte _TEXT the 17 digits
# with the point among them, "e", the exponent's sign and three digits,
# and at _SEP the "," of a blank field.  The index slot holds the CRLF
# that ends the row before and its 17 zero-padded digits.
_TEXT = 8
_EXP = _TEXT + _DIGITS + 1
_SEP = _EXP + 5
_SLOT = 32
_POW10 = 10 ** np.arange(_DIGITS + 1, dtype=np.uint64)  # 10^0 .. 10^17
_ALIGN = _POW10[2::-1].copy()  # 15-, 16- and 17-digit d times these have 17
_M32 = np.uint64(0xFFFFFFFF)
_U32 = np.uint64(32)
_U1 = np.uint64(1)
_U2 = np.uint64(2)
_U3 = np.uint64(3)
_U64 = np.uint64(64)
# decimal exponents of doubles: floor(log10 2^q) for q = -1074 .. 971 is
# -324 .. 292, and the decpt of a normal double is -307 .. 309
_K_MAX = 292
_DECPT_MIN = -307
# mask table rows: a float's at 36 form + 2 shown + negative, then the
# blank field's, then the index's at _INDEX_ROW + its digit count
_BLANK_ROW = 22 * 36
_INDEX_ROW = _BLANK_ROW + 1
# the index's digits in ASCII
_INDEX_FILL = np.array([[0x3030303030303030], [0x3030303030303030], [0x30]], dtype=np.uint64)


@functools.cache
def _pow10_table() -> tuple[np.ndarray, np.ndarray]:
    """The high and low 64-bit words of
    g(e) = floor(10^e 2^(127 - floor(log2 10^e))) + 1, each g in (2^127, 2^128].

    Entry e + 292 is for e = -292 .. 324, the -k of every double's k.
    """
    rows = []
    for e in range(-_K_MAX, 325):
        if e >= 0:
            shift = 127 - ((10**e).bit_length() - 1)
            g = 10**e << shift if shift >= 0 else 10**e >> -shift
        else:
            g = (1 << (127 + (10**-e).bit_length())) // 10**-e
        rows.append([(g + 1) >> 64, (g + 1) & (2**64 - 1)])
    return tuple(np.array(rows, dtype=np.uint64).T.copy())


def _mul_wide(a, a1, a0, b):
    """The high and low 64-bit words of a b, for a = a1 2^32 + a0 < 2^59."""
    b1 = b >> _U32
    b0 = b & _M32
    mid = a0 * b1
    high = mid >> _U32
    mid &= _M32
    mid += (a0 * b0) >> _U32
    b0 *= a1  # below 2^59, so the middle column cannot overflow
    mid += b0
    b1 *= a1
    high += b1
    mid >>= _U32
    high += mid
    return high, a * b


def _round_to_odd_sum(w2, w1, w0, g1, g0, shift, subtract):
    """Round to odd of P - g 2^shift (subtract) or P + g 2^shift.

    P = w2 2^128 + w1 2^64 + w0, g = g1 2^64 + g0, and 1 <= shift <= 5.
    """
    back = _U64 - shift
    d2 = g1 >> back
    d1 = g0 >> back
    del back
    d1 |= g1 << shift
    d0 = g0 << shift
    if subtract:
        carry = w0 < d0
        del d0
        out = w1 < d1
        np.subtract(w1, d1, out=d1)
        out |= carry & (d1 == 0)
        d1 -= carry
        np.subtract(w2, d2, out=d2)
        d2 -= out
    else:
        d0 += w0
        carry = d0 < w0
        del d0
        d1 += w1
        out = d1 < w1
        d1 += carry
        out |= carry & (d1 == 0)
        d2 += w2
        d2 += out
    d2 |= d1 > _U1
    return d2


def shortest(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(d, e) with d 10^e the shortest decimal that reads back as x.

    For positive normal x.  Of the decimals with the fewest digits in the
    rounding interval (closed when the significand is even), d 10^e is
    the closest, a tie going to even d; d may end in zeros and has 15,
    16 or 17 digits.
    """
    bits = x.view(np.uint64)
    c = bits & np.uint64((1 << 52) - 1)
    q = (bits >> np.uint64(52)).view(np.int64)
    irregular = (c == 0) & (q > 1)
    c |= np.uint64(1 << 52)
    odd = (c & _U1).astype(bool)
    q -= 1075
    # floor(log10 2^q), or floor(log10 3/4 2^q), and h = q + floor(log2 10^-k) + 1
    k = q * 1262611
    k -= irregular * 524031
    k >>= 22
    h = k * -1741647
    h >>= 19
    h += q
    del q
    h += 1  # 1 .. 4
    h = h.view(np.uint64)
    at = _K_MAX - k
    g1, g0 = (table[at] for table in _pow10_table())
    del at
    cp = c << (h + _U2)  # 4c 2^h, below 2^59
    del c
    a1 = cp >> _U32
    a0 = cp & _M32
    # P = g cp = w2 2^128 + w1 2^64 + w0
    w1, w0 = _mul_wide(cp, a1, a0, g0)
    w2, low = _mul_wide(cp, a1, a0, g1)
    del a1, a0, cp
    w1 += low
    w2 += w1 < low
    del low
    vb = w2 | (w1 > _U1)
    h += _U1
    upper = _round_to_odd_sum(w2, w1, w0, g1, g0, h, subtract=False)
    upper -= odd
    h -= irregular
    lower = _round_to_odd_sum(w2, w1, w0, g1, g0, h, subtract=True)
    lower += odd
    del w2, w1, w0, g1, g0, h, odd
    s = vb >> _U2  # at least c >= 2^52
    # one digit fewer: at most one of s' 10^(k+1), (s' + 1) 10^(k+1) is inside
    sp = s // np.uint64(10)
    sp40 = sp * np.uint64(40)
    sp_in = lower <= sp40
    sp40 += np.uint64(40)
    tp_in = sp40 <= upper
    del sp40
    fewer = sp_in != tp_in
    sp += tp_in
    s4 = vb & ~_U3
    s_in = lower <= s4
    s4 += np.uint64(4)
    t_in = s4 <= upper
    del s4, lower, upper
    # one of s, s + 1 inside: that one; else the nearer, a tie to even
    vb &= _U3
    vb += s & _U1
    s += (t_in & ~s_in) | ((vb > _U2) & (s_in == t_in))
    k += fewer
    return np.where(fewer, sp, s), k


def _decimal_words(n: np.ndarray) -> np.ndarray:
    """The 17 zero-padded digits of each n < 10^17 as three words, digit j
    of a word in its bits 8j .. 8j + 7: digits 1-8, 9-16, and the 17th.

    Each of the first two words, eight digits below 10^8, is taken apart
    in parallel lanes: by 10^4 into two 32-bit lanes, by 100 into four of
    16 bits, by 10 into eight bytes.  A step by b sends each lane x to its
    quotient q with the remainder x - b q above it, (x << w) + q (1 - b 2^w)
    modulo 2^64; below 10^4 (below 100) q by 100 (by 10) is (10486 x) >> 20
    ((103 x) >> 10).
    """
    words = np.empty((3,) + n.shape, dtype=np.uint64)
    np.floor_divide(n, _POW10[9], out=words[0])
    low = n - words[0] * _POW10[9]
    np.floor_divide(low, _POW10[1], out=words[1])
    np.subtract(low, words[1] * _POW10[1], out=words[2])
    del low
    eight = words[:2]
    quotient = eight // _POW10[4]
    for base, width, multiplier, shift, lanes in (
        (10**4, 32, None, None, None),
        (100, 16, 10486, 20, 0x0000007F0000007F),
        (10, 8, 103, 10, 0x000F000F000F000F),
    ):
        if multiplier is not None:
            np.multiply(eight, np.uint64(multiplier), out=quotient)
            quotient >>= np.uint64(shift)
            quotient &= np.uint64(lanes)
        eight <<= np.uint64(width)
        quotient *= np.uint64((1 - (base << width)) % 2**64)
        eight += quotient
    return words


class _Tables(NamedTuple):
    """The slot mask of each table row and, by decpt - decpt_min, a float's
    first table row; its prefix word at twice that index, plus 1 when
    negative; and, one row per word, the masks of the digit bytes before
    the point and after it, and the words that fill in the ASCII "0" bits,
    the point, the exponent and the ","."""

    masks: np.ndarray
    form_row: np.ndarray
    prefix: np.ndarray
    keep: np.ndarray
    move: np.ndarray
    fill: np.ndarray


def _le_words(text: bytes) -> np.ndarray:
    return np.frombuffer(text, dtype="<u8")


@functools.cache
def _layout_tables() -> _Tables:
    """Forms 0 .. 19 are positional with decpt = form - 3; form 20 is the
    exponent form with two exponent digits, 21 with three.  The point goes
    after digit decpt of a positional form with decpt >= 1, after the
    first digit of an exponent form, and past the 17 digits otherwise.
    """
    masks = np.zeros((_INDEX_ROW + _DIGITS + 1, _SLOT), dtype=bool)
    for form in range(22):
        decpt = form - 3
        for shown in range(1, _DIGITS + 1):
            for negative in (0, 1):
                slot = masks[form * 36 + 2 * shown + negative]
                start = _TEXT - 1 - negative  # the "," and the sign
                if form >= 20:
                    slot[start : _TEXT + shown + (shown > 1)] = True
                    slot[_EXP:_SEP] = True
                    slot[_EXP + 2] = form == 21
                elif decpt <= 0:  # "0." and -decpt zeros
                    slot[start - 2 + decpt : _TEXT + shown] = True
                else:
                    slot[start : _TEXT + max(shown, decpt + 1) + 1] = True
    masks[_BLANK_ROW, _SEP] = True
    for count in range(_DIGITS + 1):  # 0 has one digit
        row = masks[_INDEX_ROW + count]
        row[_TEXT - 2 : _TEXT] = True  # the CRLF of the row before
        row[_TEXT + _DIGITS - max(count, 1) : _TEXT + _DIGITS] = True
    form_row, prefix, keep, move, fill = [], [], [], [], []
    for decpt in range(_DECPT_MIN, -_DECPT_MIN + 3):
        if -4 < decpt <= 16:
            form, point = decpt + 3, decpt if decpt > 0 else _DIGITS
        else:
            form, point = (20 if abs(decpt - 1) < 100 else 21), 1
        form_row.append(form * 36)
        lead = b"0." + b"0" * -decpt if decpt <= 0 and form < 20 else b""
        prefix += [_le_words(sign.rjust(8, b"\0"))[0] for sign in (b"," + lead, b",-" + lead)]
        keep.append(_le_words(b"\xff" * point + b"\0" * (24 - point)))
        move.append(_le_words(b"\0" * (point + 1) + b"\xff" * (23 - point)))
        text = bytearray(b"0" * 24)  # a digit's byte is its value OR "0"
        text[point] = ord(".")
        # the "," at _SEP stays for a column that a later write leaves blank
        text[_EXP - _TEXT :] = b"e%+04d," % (decpt - 1)
        fill.append(_le_words(bytes(text)))
    words = (np.array(t, dtype=np.uint64).T.copy() for t in (keep, move, fill))
    return _Tables(masks, np.array(form_row), np.array(prefix, dtype=np.uint64), *words)


def _encode_floats(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The four slot words of each x[i, j] (text[:, i, j]), its mask table
    row, and the flat indices of the values that `repr` lays out itself.
    """
    magnitude = np.abs(x)
    biased = magnitude.view(np.uint64) >> np.uint64(52)
    odd = (biased == 0) | (biased == 0x7FF)  # zero, subnormal, inf, nan
    del biased
    magnitude[odd] = 1.0
    zero = x == 0.0
    special = np.flatnonzero(odd & ~zero)
    d, e = shortest(magnitude)
    del magnitude
    more = (d >= _POW10[15]).view(np.uint8) + (d >= _POW10[16]).view(np.uint8)
    d *= _ALIGN.take(more)
    e += more
    e += 15 - _DECPT_MIN  # decpt - decpt_min: the table index
    words = _decimal_words(d)
    del d
    # the last digit shown is the top nonzero byte of the last nonzero
    # word: the exponent of that word as a float, over 8
    later = words[1] != 0
    shown = np.where(later, words[1], words[0]).astype(np.float64).view(np.int64)
    shown += 1 << 52
    shown >>= 55
    shown += 8 * later - 127
    shown = np.where(words[2] != 0, _DIGITS, shown)
    words[0] -= zero  # a zero is laid out as 1.0 with its digit 0
    # the point: digits before it stay, the others move up one byte
    tables = _layout_tables()
    moved = words << np.uint64(8)
    moved[1:] |= words[:2] >> np.uint64(56)
    words &= np.take(tables.keep, e, axis=1)
    moved &= np.take(tables.move, e, axis=1)
    text = np.empty((4,) + x.shape, dtype=np.uint64)
    np.bitwise_or(words, moved, out=text[1:])
    del words, moved
    text[1:] |= np.take(tables.fill, e, axis=1)
    negative = (x.view(np.uint64) >> np.uint64(63)).view(np.int64)
    row = tables.form_row[e]
    row += 2 * shown
    row += negative
    e *= 2
    e += negative
    np.take(tables.prefix, e, out=text[0])
    return text, row, special


class RowWriter:
    """Writes the header and then rows `index, field, ...` to a binary file."""

    def __init__(self, fh: BinaryIO, header: Sequence[str]):
        self._fh = fh
        # one row past the block holds the block's last CRLF
        self._text = np.zeros((BLOCK_ROWS + 1, len(header), _SLOT), dtype=np.uint8)
        self._text[:, 0, _TEXT - 2 : _TEXT] = np.frombuffer(b"\r\n", dtype=np.uint8)
        self._text[:, 1:, _SEP] = ord(",")
        self._words = self._text.view("<u8")
        self._mask = np.zeros(self._text.shape, dtype=bool)
        self._mask[:, 0, _TEXT - 2 : _TEXT] = True
        self._row = np.zeros(self._text.shape[:2], dtype=np.intp)
        fh.write((",".join(header) + "\r\n").encode())

    def write(self, start: int, columns: Sequence[np.ndarray | None]) -> None:
        """Rows start, start + 1, ...: the index, then one field per column.

        A column of None leaves its field empty.  There must be one column
        per header field after the index, at least one not None, and those
        of equal length.
        """
        fields = self._text.shape[1] - 1
        if len(columns) != fields:
            raise ValueError(f"expected {fields} columns, one per field after the index, "
                             f"got {len(columns)}")
        present = [f for f, column in enumerate(columns, 1) if column is not None]
        if not present:
            raise ValueError("at least one column must be present, got only None")
        rows = len(columns[present[0] - 1])
        if any(len(columns[f - 1]) != rows for f in present):
            raise ValueError("the columns must have equal lengths")
        if start < 0 or start + rows > 10**_DIGITS:
            raise ValueError(f"row indices must lie in [0, 10^{_DIGITS})")
        self._row[:, 1:] = _BLANK_ROW
        for first in range(0, rows, BLOCK_ROWS):
            block = np.stack(
                [columns[f - 1][first : first + BLOCK_ROWS] for f in present],
                axis=-1, dtype=np.float64,
            )
            self._encode(start + first, block, present)

    def _encode(self, start: int, values: np.ndarray, present: list[int]) -> None:
        rows = values.shape[0]
        text, mask, row = self._text[:rows], self._mask[:rows], self._row[:rows]
        # the index right-aligned before its ","
        index = np.arange(start, start + rows, dtype=np.uint64)
        words = _decimal_words(index)
        words |= _INDEX_FILL
        self._words[:rows, 0, 1:] = words.T
        row[:, 0] = np.searchsorted(_POW10, index, side="right")
        row[:, 0] += _INDEX_ROW
        words, row[:, present], special = _encode_floats(values)
        self._words[:rows, present] = words.transpose(1, 2, 0)
        del words
        np.take(_layout_tables().masks, row.ravel(), axis=0,
                out=mask.reshape(-1, _SLOT), mode="clip")
        for i, j in (divmod(at, len(present)) for at in special):
            field = np.frombuffer(b"," + repr(float(values[i, j])).encode(), dtype=np.uint8)
            text[i, present[j], : len(field)] = field
            mask[i, present[j]] = False
            mask[i, present[j], : len(field)] = True
        # from the first row's index to the CRLF after the last row
        end = rows * text[0].size + _TEXT
        self._fh.write(self._text.ravel()[_TEXT:end][self._mask.ravel()[_TEXT:end]])
