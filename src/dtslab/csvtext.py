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
its rounding interval, scaled by 4 10^-k, are products of 4c 2^h with a
128-bit upper approximation g of 10^-k, rounded to odd; the shortest
decimal in the interval is then s 10^k or (s + 1) 10^k with
s = floor(v 10^-k), or the same with one digit fewer.  The 64 x 64-bit
products are formed from 32-bit halves over uint64 arrays.  Zero,
subnormals, inf and nan take `repr` one value at a time.

A block of rows is laid out in fixed slots, one per field, that hold, in
order, every character some form of the field can use; a mask keeps the
characters of the field's actual form, and one `np.compress` turns the
block into its bytes.
"""

from __future__ import annotations

import functools
from typing import BinaryIO, Sequence

import numpy as np

BLOCK_ROWS = 512  # rows per block: a block's text and mask buffers are 0.3 MiB
_DIGITS = 17  # a double needs at most 17 significant digits; an index as many

# One field's slot: '-', the "0.000" of a positional form below 1, digit j
# at _DIG + 2j with a '.' after it, "e", the exponent's sign and three
# exponent digits, then two separator bytes ("," or CRLF).
_DIG = 6
_EXP = _DIG + 2 * _DIGITS
_SEP = _EXP + 5
_SLOT = _SEP + 2
_PLACES = np.arange(_DIGITS)
_POW10 = 10 ** np.arange(_DIGITS, dtype=np.uint64)  # 10^0 .. 10^16
_POW10_32 = _POW10[:9].astype(np.uint32)
_M32 = np.uint64(0xFFFFFFFF)
_U32 = np.uint64(32)
_U1 = np.uint64(1)
_U2 = np.uint64(2)
# decimal exponents of doubles: floor(log10 2^q) for q = -1074 .. 971 is
# -324 .. 292, and the decpt of a normal double is -307 .. 309
_K_MIN, _K_MAX = -324, 292
_DECPT_MIN = -307


@functools.cache
def _pow10_table() -> tuple[np.ndarray, ...]:
    """The high 64-bit word and the 32-bit quarters, high first, of
    g(e) = floor(10^e 2^(127 - floor(log2 10^e))) + 1, each g in (2^127, 2^128].

    Entry e + 292 is for e = -292 .. 324, the -k of every double's k.
    """
    rows = []
    for e in range(-_K_MAX, -_K_MIN + 1):
        if e >= 0:
            shift = 127 - ((10**e).bit_length() - 1)
            g = 10**e << shift if shift >= 0 else 10**e >> -shift
        else:
            g = (1 << (127 + (10**-e).bit_length())) // 10**-e
        rows.append([(g + 1) >> 64] + [(g + 1) >> (32 * i) & 0xFFFFFFFF for i in (3, 2, 1, 0)])
    return tuple(np.array(rows, dtype=np.uint64).T.copy())


def _mul_high(a1, a0, b1, b0):
    """The high 64-bit word of a b, for a = a1 2^32 + a0, b = b1 2^32 + b0."""
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> _U32) + (p01 & _M32) + (p10 & _M32)
    return a1 * b1 + (p01 >> _U32) + (p10 >> _U32) + (mid >> _U32)


def _round_to_odd(g, cp):
    """floor(cp g / 2^128), its lowest bit set when bits 64 .. 127 exceed 1."""
    g_high, g3, g2, g1, g0 = g
    cp1, cp0 = cp >> _U32, cp & _M32
    x_high = _mul_high(g1, g0, cp1, cp0)
    z = g_high * cp + x_high  # bits 64 .. 127, modulo 2^64
    return (_mul_high(g3, g2, cp1, cp0) + (z < x_high)) | (z > _U1)


def shortest(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(d, e) with d 10^e the shortest decimal that reads back as x.

    For positive normal x.  Of the decimals with the fewest digits in the
    rounding interval (closed when the significand is even), d 10^e is
    the closest, a tie going to even d; d may end in zeros.
    """
    bits = x.view(np.uint64)
    biased = bits >> np.uint64(52)
    fraction = bits & np.uint64((1 << 52) - 1)
    c = fraction | np.uint64(1 << 52)
    q = biased.astype(np.int64) - 1075
    irregular = (fraction == 0) & (biased > 1)
    # floor(log10 2^q), or floor(log10 3/4 2^q), and h = q + floor(log2 10^-k) + 1
    k = (q * 1262611 - irregular * 524031) >> 22
    h = (q + ((-k * 1741647) >> 19) + 1).astype(np.uint64)  # 1 .. 4
    g = [quarter[_K_MAX - k] for quarter in _pow10_table()]
    cb = c << _U2
    vb = _round_to_odd(g, cb << h)
    odd = c & _U1
    lower = _round_to_odd(g, (cb - _U2 + irregular) << h) + odd
    upper = _round_to_odd(g, (cb + _U2) << h) - odd
    s = vb >> _U2  # at least c >= 2^52
    # one digit fewer: at most one of s' 10^(k+1), (s' + 1) 10^(k+1) is inside
    sp = s // np.uint64(10)
    sp_in = lower <= sp * np.uint64(40)
    tp_in = sp * np.uint64(40) + np.uint64(40) <= upper
    fewer = sp_in != tp_in
    s4 = s << _U2
    s_in = lower <= s4
    t_in = s4 + np.uint64(4) <= upper
    nearer_t = (vb > s4 + _U2) | ((vb == s4 + _U2) & (s & _U1 == 1))
    d = np.where(fewer, sp + tp_in, s + np.where(s_in != t_in, t_in, nearer_t))
    return d, k + fewer


def _digits(d: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 17 left-aligned ASCII digits of each 1 <= d < 10^17, the number
    of its digits and the number up to its last nonzero one.

    The aligned digits are split into halves below 10^9 (8 and 9 digits),
    each taken apart in 32-bit arithmetic.
    """
    count = np.searchsorted(_POW10, d, side="right")
    aligned = d * _POW10[_DIGITS - count]
    high = aligned // _POW10[9]
    rest = np.stack((high, aligned - high * _POW10[9]), axis=-1).astype(np.uint32)
    low_nonzero = rest[..., 1] != 0
    digits = np.empty(rest.shape + (9,), dtype=np.uint8)
    last = np.zeros(rest.shape, dtype=np.int64)  # the last nonzero digit of a half
    for j in range(9):
        place = _POW10_32[8 - j]
        digit = rest // place
        rest -= digit * place
        digits[..., j] = digit
        last += rest != 0
    digits += ord("0")
    # the high half is 0 and 8 digits, so its last nonzero digit j is the
    # j-th shown, and the low half's j is the (9 + j)-th
    shown = np.where(low_nonzero, 9 + last[..., 1], last[..., 0])
    return digits.reshape(d.shape + (18,))[..., 1:], count, shown


@functools.cache
def _layout_tables() -> tuple[np.ndarray, np.ndarray]:
    """Slot masks past the sign, by form and digits shown; exponent text by decpt.

    Forms 0 .. 19 are positional with decpt = form - 3; form 20 is the
    exponent form with two exponent digits, 21 with three.
    """
    masks = np.zeros((22, _DIGITS + 1, _SEP), dtype=bool)
    for form in range(22):
        decpt = form - 3
        for shown in range(1, _DIGITS + 1):
            slot = masks[form, shown]
            if form >= 20:
                slot[_DIG : _DIG + 2 * shown : 2] = True
                slot[_DIG + 1] = shown > 1
                slot[_EXP:_SEP] = True
                slot[_EXP + 2] = form == 21
            elif decpt <= 0:
                slot[1 : 3 - decpt] = True  # "0." and -decpt zeros
                slot[_DIG : _DIG + 2 * shown : 2] = True
            else:
                slot[_DIG : _DIG + 2 * max(shown, decpt + 1) : 2] = True
                slot[_DIG + 2 * decpt - 1] = True
    exponent = np.arange(_DECPT_MIN - 1, -_DECPT_MIN + 2)
    size = np.abs(exponent)
    tails = np.stack(
        (np.where(exponent < 0, ord("-"), ord("+")), size // 100, size // 10 % 10, size % 10),
        axis=-1,
    )
    tails[:, 1:] += ord("0")
    return masks[..., 1:], tails.astype(np.uint8)


class RowWriter:
    """Writes the header and then rows `index, field, ...` to a binary file."""

    def __init__(self, fh: BinaryIO, header: Sequence[str]):
        self._fh = fh
        slot = np.zeros(_SLOT, dtype=np.uint8)
        slot[:6] = np.frombuffer(b"-0.000", dtype=np.uint8)
        slot[_DIG + 1 : _EXP : 2] = ord(".")
        slot[_EXP] = ord("e")
        slot[_SEP] = ord(",")
        self._slot = slot
        # the fixed characters are written once: each block writes the digits
        # and exponents, and restores the slots that took a repr
        self._text = np.tile(slot, (BLOCK_ROWS, len(header), 1))
        self._text[:, -1, _SEP:] = np.frombuffer(b"\r\n", dtype=np.uint8)
        # every block sets the mask of each float slot; the index slot uses
        # its first 17 bytes only
        self._mask = np.zeros(self._text.shape, dtype=bool)
        self._mask[..., _SEP] = True
        self._mask[:, -1, _SEP + 1] = True
        fh.write((",".join(header) + "\r\n").encode())

    def write(self, start: int, columns: Sequence[np.ndarray | None]) -> None:
        """Rows start, start + 1, ...: the index, then one field per column.

        A column of None leaves its field empty.
        """
        rows = next(len(column) for column in columns if column is not None)
        if start < 0 or start + rows > 10**_DIGITS:
            raise ValueError(f"row indices must lie in [0, 10^{_DIGITS})")
        blank = [f for f, column in enumerate(columns, 1) if column is None]
        columns = [np.ones(rows) if column is None else column for column in columns]
        for first in range(0, rows, BLOCK_ROWS):
            block = np.stack([column[first : first + BLOCK_ROWS] for column in columns], axis=-1)
            self._encode(start + first, block, blank)

    def _encode(self, start: int, values: np.ndarray, blank: list[int]) -> None:
        rows = values.shape[0]
        text, mask = self._text[:rows], self._mask[:rows]
        # the index right-aligned in the first n bytes of its slot
        index = np.arange(start, start + rows, dtype=np.uint64)
        n = len(str(start + rows - 1))
        rest = index
        for j in range(n):
            digit = rest // _POW10[n - 1 - j]
            rest = rest - digit * _POW10[n - 1 - j]
            text[:, 0, j] = digit
        text[:, 0, :n] += ord("0")
        leading = n - np.maximum(np.searchsorted(_POW10, index, side="right"), 1)
        mask[:, 0, :_DIGITS] = (_PLACES >= leading[:, None]) & (_PLACES < n)
        special = _encode_floats(values, text[:, 1:], mask[:, 1:])
        mask[:, blank, :_SEP] = False
        self._fh.write(np.compress(mask.ravel(), text.ravel()))
        text[:, 1:, :_SEP][special] = self._slot[:_SEP]


def _encode_floats(x: np.ndarray, text: np.ndarray, mask: np.ndarray) -> tuple[np.ndarray, ...]:
    """Lay out the repr of each x[i, j] in text[i, j] and mask[i, j].

    Returns the indices of the values laid out by `repr` itself.
    """
    magnitude = np.abs(x)
    biased = magnitude.view(np.uint64) >> np.uint64(52)
    special = np.nonzero((biased == 0) | (biased == 0x7FF))  # zero, subnormal, inf, nan
    magnitude[special] = 1.0
    d, e = shortest(magnitude)
    digits, count, shown = _digits(d)
    decpt = count + e
    positional = (decpt > -4) & (decpt <= 16)
    form = np.where(positional, decpt + 3, np.where(np.abs(decpt - 1) < 100, 20, 21))
    masks, tails = _layout_tables()
    mask[..., 0] = np.signbit(x)
    mask[..., 1:_SEP] = masks[form, shown]
    text[..., _DIG:_EXP:2] = digits
    exponent_form = np.nonzero(~positional)  # the other slots mask their exponent out
    text[..., _EXP + 1 : _SEP][exponent_form] = tails[decpt[exponent_form] - _DECPT_MIN]
    for at in zip(*special):
        field = np.frombuffer(repr(float(x[at])).encode(), dtype=np.uint8)
        text[at][: len(field)] = field
        mask[at][:_SEP] = False
        mask[at][: len(field)] = True
    return special
