"""Rows of text for the writers: floats as repr() prints them, ints as %d does.

Normal doubles go through Schubfach (R. Giulietti 2020, Java's
Double.toString) on uint64 arrays: the shortest decimal that rounds back to
x, nearest x on ties, as repr() prints it.  Zeros, NaN and the infinities
are fixed strings; subnormals go through repr() itself.  Every field owns a
fixed-width uint8 slot where byte 0 means "no byte": a chunk of rows is one
matrix, and its text is the matrix's bytes with the zeros deleted.
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


def _floats_into(out, x, sep):
    """Write the repr() bytes of float64 x, then sep, into slots out[..., WIDTH]: byte 0
    sign, 1-5 "0.000", 6-23 digits and dot, 24-28 exponent, 29 sep (one row each)."""
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
    out[...] = slot.T.reshape(out.shape)


def _ints_into(out, v, sep):
    """Write the %d bytes of the ints v, right-aligned, then sep, into slots out."""
    a = np.abs(v.reshape(-1))
    width = out.shape[-1] - 1
    slot = np.empty((width + 1, len(a)), dtype=np.uint8)  # one column per value
    slot[0] = (v.reshape(-1) < 0) * np.uint8(45)
    for i in range(width - int((v < 0).any())):
        q = a // 10
        slot[width - 1 - i] = (a - q * 10 + 48) * ((a > 0) | (i == 0))
        a = q
    slot[width] = ord(sep)
    out[...] = slot.T.reshape(out.shape)


def write_rows(fh, lead, sep, ints=None, floats=None, int_offset=0):
    """Write (rows, fields) arrays to fh as rows, CHUNK floats (or rows) at a time:
    lead, then the ints plus int_offset as %d and the floats as repr, sep-joined,
    newline-ended.  The offset is added a chunk at a time."""
    n = len(ints if ints is not None else floats)
    ints = np.zeros((n, 0), dtype=np.int64) if ints is None else np.asarray(ints)
    floats = np.ascontiguousarray(np.zeros((n, 0)) if floats is None else floats,
                                  dtype=np.float64)
    ni, nf = ints.shape[1], floats.shape[1]
    lo, hi = (int(ints.min()) + int_offset, int(ints.max()) + int_offset) if ints.size else (0, 0)
    iw = len(str(max(-lo, hi))) + (lo < 0) + 1     # digits, a sign, the separator
    start = len(lead) + ni * iw
    step = max(1, CHUNK // max(nf, 1))
    for r in range(0, n, step):
        block = np.zeros((min(step, n - r), start + nf * WIDTH), dtype=np.uint8)
        block[:, :len(lead)] = list(lead)
        if ni:
            _ints_into(block[:, len(lead):start].reshape(len(block), ni, iw),
                       ints[r:r + step] + int_offset, sep)
        if nf:
            _floats_into(block[:, start:].reshape(len(block), nf, WIDTH), floats[r:r + step], sep)
        block[:, -1] = ord("\n")
        fh.write(block.tobytes().translate(None, b"\0"))
