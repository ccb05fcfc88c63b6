"""Rows of text for the writers: floats as repr() prints them, ints as %d does.

Normal doubles go through Schubfach (R. Giulietti 2020, Java's
Double.toString) on uint64 arrays: the shortest decimal that rounds back to
x, nearest x on ties, as repr() prints it.  Zeros, NaN and the infinities
are fixed strings; subnormals go through repr() itself.  Every field owns a
fixed-width uint8 slot where byte 0 means "no byte": a chunk of rows is one
matrix, and its text is the matrix's bytes with the zeros deleted.  Values
that repeat (grid lines, vertex numbers) are printed once into a table of
slots, and the rows gather their bytes from it by index.
"""

from __future__ import annotations

import numpy as np

CHUNK = 8192        # floats per write: the temporaries stay in cache
WIDTH = 30          # float slot: sign, "0.000", 17 digits and a dot, "e",
                    # the exponent's sign and 3 digits, the separator

_U = np.uint64
_S32, _M32, _M63 = _U(32), _U(0xFFFFFFFF), _U((1 << 63) - 1)
_COLS = np.arange(19, dtype=np.int8)[:, None]


def _flog2pow10(e):
    """floor(e log2(10)) for |e| <= 1233, on ints or int64 arrays."""
    return (e * 913124641741) >> 38


def _g(k):
    """Schubfach's g(k) = floor(10^-k 2^(125 - floor(-k log2 10))) + 1, 126 bits."""
    shift = 125 - _flog2pow10(-k)
    return (10 ** max(-k, 0) << max(shift, 0)) // (10 ** max(k, 0) << max(-shift, 0)) + 1


# the words (g1, g0) of g(k) = g1 2^63 + g0 for k in [-324, 292]
_G = np.array([divmod(_g(k), 1 << 63) for k in range(-324, 293)], dtype=np.uint64).T.copy()


_CONSTANTS = np.array([list(t.ljust(WIDTH - 1, b"\0"))
                       for t in (b"0.0", b"-0.0", b"nan", b"inf", b"-inf")], dtype=np.uint8)


def _mul128(a, bh, bl):
    """High and low words of a (bh 2^32 + bl), for bh, bl < 2^32."""
    ah, al = a >> _S32, a & _M32
    lo, lh, hl = al * bl, al * bh, ah * bl
    mid = (lo >> _S32) + (lh & _M32) + (hl & _M32)
    return ah * bh + (lh >> _S32) + (hl >> _S32) + (mid >> _S32), (mid << _S32) | (lo & _M32)


def _add128(hi, lo, g, shift, sign):
    """The words of (hi 2^64 + lo) + sign (g << shift), for 0 < shift < 64."""
    ghi, glo = g >> (_U(64) - shift), g << shift
    out = lo + glo if sign > 0 else lo - glo
    return (hi + ghi + (out < lo), out) if sign > 0 else (hi - ghi - (out > lo), out)


def _rop(x1, y1, y0):
    """Schubfach's rop: g cp / 2^127 rounded to odd, from the high word x1 of
    g0 cp and the words y1, y0 of g1 cp, where g = g1 2^63 + g0."""
    z = (y0 >> _U(1)) + x1
    return (y1 + (z >> _U(63))) | (((z & _M63) + _M63) >> _U(63))


def _shortest(bits, bq):
    """(f, k) with |x| = f 10^k the shortest nearest decimal, f of 16-17 digits;
    exact for normal doubles, garbage for the other exponents."""
    t = bits & _U((1 << 52) - 1)
    c = t | _U(1 << 52)
    q = bq - 1075
    irregular = (t == 0) & (bq > 1)     # c is 2^52: the gap below x is half
    k = (q * 661971961083 - irregular * 274743187321) >> 41
    h = (q + _flog2pow10(-k) + 2).astype(np.uint64)
    g1, g0 = (word.take(k + 324) for word in _G)
    cp = c << (h + _U(2))
    x1, x0 = _mul128(g0, cp >> _S32, cp & _M32)
    y1, y0 = _mul128(g1, cp >> _S32, cp & _M32)
    vb = _rop(x1, y1, y0)
    # the rounding interval's ends: cp -/+ 2^(h+1), or cp - 2^h below a power of 2
    down, up = h + _U(1) - irregular, h + _U(1)
    lo = _rop(_add128(x1, x0, g0, down, -1)[0], *_add128(y1, y0, g1, down, -1)) + (c & _U(1))
    hi = _rop(_add128(x1, x0, g0, up, 1)[0], *_add128(y1, y0, g1, up, 1)) - (c & _U(1))
    s = vb >> _U(2)
    sp10 = s // _U(10) * _U(10)
    upin, wpin = lo <= sp10 << _U(2), (sp10 + _U(10)) << _U(2) <= hi
    uin, win = lo <= s << _U(2), (s + _U(1)) << _U(2) <= hi
    mid = (s << _U(2)) + _U(2)
    nearer_t = (vb > mid) | ((vb == mid) & ((s & _U(1)) == _U(1)))
    one = uin ^ win                 # exactly one of s, s + 1 lies in the interval
    f = s + ((one & win) | (~one & nearer_t))
    return np.where(upin ^ wpin, sp10 + _U(10) * wpin, f), k


def _float_slots(x, sep):
    """The slots of float64 x, one row each: the repr() bytes, then sep.  Byte 0 is
    the sign, 1-5 "0.000", 6-23 the digits and dot, 24-28 the exponent, 29 sep."""
    bits = x.reshape(-1).view(np.uint64)
    bq = ((bits >> _U(52)) & _U(0x7FF)).astype(np.int64)
    neg = (bits >> _U(63)).astype(bool)
    f, k = _shortest(bits, bq)
    long = f >= _U(10 ** 16)
    f *= _U(10) - _U(9) * long                   # now exactly 17 digits
    decpt = k + 16 + long                         # |x| = 0.d1 d2 ... d17 10^decpt
    expo = (decpt <= -4) | (decpt > 16)
    lead = ~expo & (decpt <= 0)                   # 0.000ddd
    chars = np.zeros((19, len(f)), dtype=np.uint8)    # chars[1:18]: the digits
    hi = f // _U(10 ** 9)
    half = np.stack([hi, f - hi * _U(10 ** 9)]).astype(np.uint32)
    for i in range(8, -1, -1):
        q = half // np.uint32(10)
        np.subtract(half, q * np.uint32(10), out=chars[:18].reshape(2, 9, -1)[:, i],
                    casting="unsafe")
        half = q
    shown = chars != 0                            # shown[j]: digit j or a later one is
    for j in range(16, 0, -1):                    # nonzero, or (below) j <= decpt + 1
        shown[j] |= shown[j + 1]
    dot = np.where(expo, np.where(shown[2], 1, 18), np.where(lead, 18, decpt)).astype(np.int8)
    shown |= _COLS <= np.where(expo | lead, 0, decpt + 1).astype(np.int8)
    chars += np.uint8(48)
    chars *= shown
    slot = np.empty((WIDTH, len(f)), dtype=np.uint8)  # one column per value
    digits = slot[6:24]                           # chars[1:dot + 1], ".", chars[dot + 1:]
    np.multiply(chars[1:], (_COLS[:18] < dot).view(np.uint8), out=digits)
    digits += chars[:18] * (_COLS[:18] > dot).view(np.uint8)
    digits += (_COLS[:18] == dot).view(np.uint8) * np.uint8(46)
    slot[0] = neg * np.uint8(45)
    slot[1:3] = np.array([[48], [46]], dtype=np.uint8) * lead
    slot[3:6] = (_COLS[:3] < np.where(lead, -decpt, 0).astype(np.int8)) * np.uint8(48)
    e = np.abs(decpt - 1)
    slot[24] = expo * np.uint8(101)
    slot[25] = np.where(decpt > 0, 43, 45) * expo
    slot[26] = (e // 100 + 48) * (expo & (e >= 100))
    slot[27] = (e // 10 - e // 100 * 10 + 48) * expo
    slot[28] = (e - e // 10 * 10 + 48) * expo
    slot[29] = ord(sep)
    odd = (bq == 0) | (bq == 2047)
    if odd.any():
        zero_or_inf = (bits & _U((1 << 52) - 1)) == _U(0)
        kind = np.where(bq == 0, neg, np.where(zero_or_inf, 3 + neg, 2))
        slot[:-1, odd] = _CONSTANTS[kind[odd]].T
        for i in np.flatnonzero(odd & (bq == 0) & ~zero_or_inf):
            slot[:-1, i] = list(repr(float(x.flat[i])).encode().ljust(WIDTH - 1, b"\0"))
    return slot.T


def table(values, sep):
    """The slots of 1-D values, one row each: repr() bytes for floats, %d bytes
    (right-aligned) for ints, then sep.  write_rows gathers fields from it by index."""
    v = np.asarray(values)
    if v.dtype.kind == "f":
        return np.ascontiguousarray(_float_slots(v, sep))
    a, neg = np.abs(v), v < 0
    width = len(str(int(a.max(initial=0)))) + int(neg.any())
    slot = np.empty((width + 1, len(a)), dtype=np.uint8)  # one column per value
    slot[0] = neg * np.uint8(45)
    for i in range(width - int(neg.any())):
        q = a // 10
        slot[width - 1 - i] = (a - q * 10 + 48) * ((a > 0) | (i == 0))
        a = q
    slot[width] = ord(sep)
    return slot.T.copy()


def _columns(a):
    return a[:, None] if a.ndim == 1 else a


def write_rows(fh, lead, sep, *cols):
    """Write n rows to fh, CHUNK floats (or rows) at a time: lead, then the fields of
    each column in turn, newline-ended.  A column is an (n,) or (n, k) float array,
    printed as repr() with sep after each field, or a pair (slots, index) of a table
    and an (n,) or (n, k) int array, whose fields are the table rows at index.  A
    float column given twice (the same array) is printed once and its bytes copied.
    """
    n = len(cols[0][1] if isinstance(cols[0], tuple) else cols[0])
    floats = {}                     # the distinct float columns: (first float field, values)
    spans, at = [], len(lead)       # per column: (first byte, fields, width, source)
    for col in cols:
        if isinstance(col, tuple):
            source = (col[0], _columns(np.asarray(col[1])))
            k, width = source[1].shape[1], col[0].shape[1]
        else:
            if id(col) not in floats:
                values = _columns(np.asarray(col, dtype=np.float64))
                floats[id(col)] = (sum(v.shape[1] for _f, v in floats.values()), values)
            source, values = floats[id(col)]
            k, width = values.shape[1], WIDTH
        spans.append((at, k, width, source))
        at += k * width
    values = [v for _f, v in floats.values()]
    nf = sum(v.shape[1] for v in values)
    step = max(1, CHUNK // max(nf, 1))
    for r in range(0, n, step):
        block = np.empty((min(step, n - r), at), dtype=np.uint8)
        block[:, :len(lead)] = list(lead)
        if nf:
            printed = _float_slots(np.concatenate([v[r:r + step] for v in values], axis=1),
                                   sep).reshape(len(block), nf, WIDTH)
        for start, k, width, source in spans:
            out = block[:, start:start + k * width].reshape(len(block), k, width)
            if isinstance(source, tuple):
                out[...] = source[0].take(source[1][r:r + step], axis=0)
            else:
                out[...] = printed[:, source:source + k]
        block[:, -1] = ord("\n")
        fh.write(block.tobytes().translate(None, b"\0"))
