"""CSV artifacts whose numbers are ``'%.17g' % v``, formatted a block at a time.

`write_csv` writes the bytes ``np.savetxt(path, np.column_stack(columns),
fmt="%.17g", delimiter=",", header=",".join(header), comments="")`` writes,
without the Python ``%`` per value that `np.savetxt` makes.  A block of
about `_BLOCK` values is converted in numpy: ``|v|`` times a correctly
rounded 10**s held as a double-double pair (Dekker's exact product plus
the pair's low word) gives the 17-digit integer D = round(|v|·10**s) with
an error below 2**-40, a table of four-digit groups gives its digits, and
C's ``%g`` rules place them: fixed notation for a decimal exponent
-4 <= X <= 16, scientific with at least two exponent digits otherwise,
trailing zeros and a bare point dropped.  NaN, infinities, zeros, |v|
outside ``[1e-290, 1e290)`` and values within 2**-30 of a rounding tie go
through Python's ``'%.17g' % v``, one at a time.

Ref: Adams, *Ryū revisited: printf floating point conversion*, OOPSLA 2019.
"""
from __future__ import annotations

import functools

import numpy as np

_BLOCK = 4096          # values formatted at a time
_LOW, _HIGH = 1e-290, 1e290   # |v| converted in numpy, so that 10**s stays in the table
_S_MIN, _S_MAX = -280, 308    # 10**s tabulated for _S_MIN <= s <= _S_MAX
_TIE = 2.0 ** -30      # a fraction this close to 1/2 is left to Python's exact rounding
_SPLIT = 134217729.0   # 2**27 + 1, Veltkamp's splitting constant

# A value's text is the masked bytes of a row of 13 little-endian words:
#   "?-0." "000d" dddd*4 "???." dddd*4 "??e+" "xxxs"
# byte 1 the sign, bytes 2-6 "0.000" before a fixed value below 1 (its
# zeros are those of "000d", the word of the first digit), bytes 7-23 the
# 17 digits of D, byte 27 the point, bytes 28-43 the last 16 digits of D
# again, of which those after the point show (from byte 27 + the count of
# digits before it), bytes 46-50 the exponent and byte 51 the separator (s).
# Which bytes show depends on the layout and the sign only, so a row of
# `_masks()` holds them.
_WIDTH = 52
_WORD = np.dtype("<u4")
_X_MIN, _X_MAX = -4, 16   # decimal exponents written in fixed notation
_LAYOUTS = _X_MAX - _X_MIN + 3   # each fixed exponent, then scientific with 2 or 3 exponent digits


def _split(v):
    """Veltkamp's split of ``v`` into a high part of 26 bits and the rest."""
    big = v * _SPLIT
    high = big - (big - v)
    return high, v - high


def _word(text: bytes):
    return np.frombuffer(text, _WORD)[0]


def _masks():
    """The bytes that show, per (layout, count of significant digits, sign)."""
    layout, count, neg = (k.ravel() for k in np.meshgrid(
        np.arange(_LAYOUTS), np.arange(1, 18), np.arange(2), indexing="ij"))
    x = layout + _X_MIN
    fixed = x <= _X_MAX
    lead = np.where(fixed & (x < 0), 1 - x, 0)                 # "0." and the zeros
    whole = np.where(fixed & (x >= 0), x + 1, np.where(fixed, count, 1))
    after = np.where(fixed & (x < 0), 0, count - whole).clip(0)   # digits after the point
    power = np.where(fixed, 0, layout - _LAYOUTS + 4)          # 0, or 2 or 3 digits
    byte = np.arange(_WIDTH)
    show = (byte == 1) & (neg[:, None] == 1)
    show |= (byte >= 2) & (byte < 2 + lead[:, None])
    show |= (byte >= 7) & (byte < 7 + whole[:, None])
    show |= (byte == 27) & (after[:, None] > 0)
    show |= (byte >= 27 + whole[:, None]) & (byte < 27 + (whole + after)[:, None])
    show |= ((byte == 46) | (byte == 47)) & (power[:, None] > 0)
    show |= (byte >= 51 - power[:, None]) & (byte < 51)
    show |= byte == 51
    return show


@functools.cache
def _tables():
    """10**s as the double-double ``(hi, lo)`` with ``hi`` split, for s in
    [_S_MIN, _S_MAX]; the four-digit groups 0000..9999 as ASCII words, the
    number of trailing zeros of each group, and `_masks`.  Built on first
    use, so that importing the package does not pay for them."""
    hi, lo = np.empty(_S_MAX - _S_MIN + 1), np.empty(_S_MAX - _S_MIN + 1)
    for k, s in enumerate(range(_S_MIN, _S_MAX + 1)):
        num, den = (10 ** s, 1) if s >= 0 else (1, 10 ** -s)
        hi[k] = num / den                  # integer true division rounds correctly
        h_num, h_den = hi[k].as_integer_ratio()
        lo[k] = (num * h_den - h_num * den) / (den * h_den)
    scale = np.where(hi > 1.0, 2.0 ** -64, 1.0)   # keeps hi * _SPLIT finite
    hi_hi, hi_lo = _split(hi * scale)
    group = np.arange(10000, dtype=np.uint32)
    ascii4 = np.zeros(10000, _WORD)
    for k in range(4):   # digit 10**k goes to byte 3 - k of the word
        ascii4 |= (48 + group // 10 ** k % 10) << np.uint32(8 * (3 - k))
    zeros4 = sum((group % 10 ** k == 0).astype(np.uint8) for k in range(1, 5))
    tables = hi, hi_hi / scale, hi_lo / scale, lo, ascii4, zeros4, _masks()
    for table in tables:
        table.setflags(write=False)
    return tables


def _rounded(a, s):
    """round(a * 10**s) as int64; whether the product is so close to a tie
    that the rounding is left to Python; and the change of s that brings
    the product into [1e16, 1e17): +1 below, -1 above, 0 inside."""
    hi, hi_hi, hi_lo, lo = (table[s - _S_MIN] for table in _tables()[:4])
    a_hi, a_lo = _split(a)
    p = a * hi
    err = ((a_hi * hi_hi - p) + a_hi * hi_lo + a_lo * hi_hi) + a_lo * hi_lo
    rest = err + a * lo                 # a * 10**s = p + rest to about 2**-100 relative
    near = np.rint(rest)                # ties, which rint would round to even, go to Python
    digits = p.astype(np.int64) + near.astype(np.int64)
    below = (p < 1e16) | ((p == 1e16) & (rest < 0))
    above = (p > 1e17) | ((p == 1e17) & (rest >= 0))
    return digits, np.abs(np.abs(rest - near) - 0.5) < _TIE, below.astype(np.int64) - above


def _groups(number):
    """The four-digit groups of an integer below 10**16, most significant first."""
    groups = []
    for _ in range(3):
        rest = number // 10 ** 4
        groups.append(number - rest * 10 ** 4)
        number = rest
    return [number] + groups[::-1]


def _format(values, seps):
    """The bytes of ``'%.17g' % v`` followed by its separator, for every value."""
    ascii4, zeros4, masks = _tables()[4:]
    n = values.size
    a = np.abs(values)
    fast = (a >= _LOW) & (a < _HIGH)          # False for NaN
    a = np.where(fast, a, 1.0)
    s = 16 - np.floor(np.log10(a)).astype(np.int64)
    digits, tie, shift = _rounded(a, s)
    off = shift != 0      # log10 may miss the exponent by one next to a power of ten
    if off.any():
        s[off] += shift[off]
        digits[off], tie[off], shift[off] = _rounded(a[off], s[off])
    fast &= ~tie & (shift == 0)
    top = digits == 10 ** 17                  # rounded up to the next power of ten
    digits[top] = 10 ** 16
    x = 16 - s + top                          # decimal exponent of the first digit

    fixed = (_X_MIN <= x) & (x <= _X_MAX)
    first = digits // 10 ** 16
    rest = digits - first * 10 ** 16
    groups = _groups(rest)
    zeros = zeros4[groups[3]] + (groups[3] == 0) * (zeros4[groups[2]] + (groups[2] == 0) * (
        zeros4[groups[1]] + (groups[1] == 0) * zeros4[groups[0]]))
    power = np.abs(x)
    layout = np.where(fixed, x - _X_MIN, _LAYOUTS - 2 + (power >= 100))
    key = (layout * 17 + 16 - zeros) * 2 + (values < 0)

    tmpl = np.empty((n, _WIDTH), np.uint8)
    words = tmpl.view(_WORD)
    words[:, 0] = _word(b"?-0.")
    words[:, 1] = ascii4[first]
    for k in range(4):
        words[:, 2 + k] = words[:, 7 + k] = ascii4[groups[k]]
    words[:, 6] = _word(b"???.")
    words[:, 11] = np.where(x < 0, _word(b"??e-"), _word(b"??e+"))
    words[:, 12] = ascii4[power] >> 8 | seps.astype(np.uint32) << 24
    mask = masks.take(key, axis=0)

    for i in np.flatnonzero(~fast):
        text = b"%.17g" % values[i]
        tmpl[i, :len(text)] = np.frombuffer(text, np.uint8)
        tmpl[i, len(text)] = seps[i]
        mask[i] = np.arange(_WIDTH) <= len(text)
    return tmpl[mask]


def write_csv(path: str, header: list[str], columns) -> None:
    """Write ``header`` and the rows of ``columns`` side by side, the bytes of
    ``np.savetxt(path, np.column_stack(columns), fmt="%.17g", delimiter=",",
    header=",".join(header), comments="")``.

    ``columns`` are arrays with the same number of rows, each one column
    (1-D) or several (2-D).  They are read a block of rows at a time and
    never stacked whole, and a row wider than a block is formatted in parts.
    """
    rows = len(columns[0])
    parts = [c[:, None] if np.ndim(c) == 1 else c for c in columns]
    width = sum(p.shape[1] for p in parts)
    step = max(1, _BLOCK // width)
    ends = np.full(width * step, ord(","), np.uint8)
    ends[width - 1::width] = ord("\n")
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode("latin-1"))
        for start in range(0, rows, step):
            block = np.concatenate([p[start:start + step] for p in parts], axis=1,
                                   dtype=np.float64).ravel()
            for i in range(0, block.size, _BLOCK):
                chunk = block[i:i + _BLOCK]
                fh.write(_format(chunk, ends[i:i + chunk.size]))
