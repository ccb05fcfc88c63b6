"""The text kernel against its oracles: repr() for floats, %d for ints."""

import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from minksurf import textfmt
from minksurf.textfmt import table, write_rows


def _text(lead, sep, *cols):
    out = io.BytesIO()
    write_rows(out, lead, sep, *cols)
    return out.getvalue()


def _lines(*cols):
    return _text(b"", b",", *cols).split(b"\n")[:-1]


def _assert_repr(x):
    x = np.asarray(x, dtype=float)
    got = _lines(x[:, None])
    bad = [(v, g) for v, g in zip(x.tolist(), got) if g != repr(v).encode()]
    assert len(got) == len(x) and bad == []


# 4,096 values per example: 20 examples locally, 200 under the ci profile
@settings(max_examples=settings.default.max_examples // 5, deadline=None, database=None)
@given(st.integers(0, 2 ** 64 - 1))
def test_random_bit_patterns_print_as_repr(seed):
    bits = np.random.default_rng(seed).integers(0, 2 ** 64, 4096, dtype=np.uint64)
    _assert_repr(bits.view(np.float64))


def test_powers_of_two_and_ten_and_their_neighbours_print_as_repr():
    x = np.array([math.ldexp(1.0, e) for e in range(-1074, 1024)]
                 + [float(f"1e{e}") for e in range(-323, 309)])
    x = np.concatenate([x, np.nextafter(x, 0.0), np.nextafter(x, np.inf)])
    _assert_repr(np.concatenate([x, -x]))


SPECIAL_BITS = [0x7FF8000000000000 | 1 << 63, 0x7FF0000000000001, 0xFFF4000000000123]
SPECIAL = [
    0.0, -0.0, math.inf, -math.inf,
    5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308, 1.7976931348623157e308,
    1e15, 1e16, 9999999999999998.0, 1e-4, 1e-5, 1e22, 1e23, 123456789012345680.0,
    0.1, 0.3, 2.0 ** 53 - 1, 2.0 ** 53 + 1, 2.0 ** 53 + 2, 1.5, 100.0, 1e100, 12.5e-300,
]


def test_special_values_print_as_repr():
    nans = np.array(SPECIAL_BITS, dtype=np.uint64).view(np.float64)
    assert _lines(nans[:, None]) == [b"nan"] * len(nans)
    _assert_repr(SPECIAL + [-v for v in SPECIAL])
    x = np.array(SPECIAL + [-v for v in SPECIAL])
    assert _lines((table(x, b","), np.arange(len(x)))) == [repr(v).encode() for v in x.tolist()]


INTS = [0] + [s * (10 ** k + d) for k in range(19) for d in (-1, 0, 1) for s in (1, -1)]


def test_ints_print_as_percent_d():
    v = np.array(INTS, dtype=np.int64)
    assert _lines((table(v, b","), np.arange(len(v)))) == [b"%d" % i for i in INTS]


@pytest.mark.parametrize("chunk", [1, 5, textfmt.CHUNK])
def test_rows_match_the_percent_format(monkeypatch, chunk):
    monkeypatch.setattr(textfmt, "CHUNK", chunk)
    rng = np.random.default_rng(3)
    floats = rng.standard_normal((23, 3)) * 10.0 ** rng.integers(-20, 20, (23, 3))
    floats[[2, 5, 7], [0, 2, 1]] = [np.nan, -0.0, 5e-324]
    ints = rng.integers(-5, 12345, (23, 2))
    want = "".join("%d %d %r %r %r\n" % (*i, *f) for i, f in zip(ints.tolist(), floats.tolist()))
    at = np.arange(ints.size).reshape(ints.shape)
    assert _text(b"", b" ", (table(ints.ravel(), b" "), at), floats) == want.encode()
    want = "".join("v %r %r %r\n" % tuple(f) for f in floats.tolist())
    assert _text(b"v ", b" ", floats) == want.encode()


@pytest.mark.parametrize("chunk", [1, 5, textfmt.CHUNK])
def test_table_columns_print_their_rows_at_the_index(monkeypatch, chunk):
    monkeypatch.setattr(textfmt, "CHUNK", chunk)
    rng = np.random.default_rng(4)
    numbers = np.arange(-12345, 100000)         # the sign and the digit count vary
    at = rng.integers(0, len(numbers), (23, 3))
    grid = rng.standard_normal(11) * 10.0 ** rng.integers(-20, 20, 11)
    line = rng.integers(0, len(grid), 23)
    floats = rng.standard_normal(23)
    want = "".join("f %d %d %d %r %r\n" % (*numbers[i], grid.tolist()[j], f)
                   for i, j, f in zip(at.tolist(), line.tolist(), floats.tolist()))
    got = _text(b"f ", b" ", (table(numbers, b" "), at), (table(grid, b" "), line), floats)
    assert got == want.encode()


@pytest.mark.parametrize("chunk", [1, 5, textfmt.CHUNK])
def test_a_float_column_given_twice_prints_once(monkeypatch, chunk):
    monkeypatch.setattr(textfmt, "CHUNK", chunk)
    printed = []
    float_slots = textfmt._float_slots
    monkeypatch.setattr(textfmt, "_float_slots", lambda x, sep: (printed.append(x.size),
                                                                  float_slots(x, sep))[1])
    rng = np.random.default_rng(5)
    h, k = rng.standard_normal(23), rng.standard_normal((23, 2))
    h[[3, 9]] = [np.nan, -np.inf]
    want = "".join("%r,%r,%r,%r,%r\n" % (a, *b, a, a) for a, b in zip(h.tolist(), k.tolist()))
    assert _text(b"", b",", h, k, h, h).decode() == want
    assert sum(printed) == 3 * 23
    assert _text(b"", b",", h, k, h.copy(), h) == want.encode()


def test_table_columns_gather_a_chunk_at_a_time():
    # OBJ faces: the vertex numbers print once, and no whole-array copy of the indices
    class Tail:
        def write(self, data):
            self.last = data

    tris = np.arange(600_000, dtype=np.int64).reshape(-1, 3)
    numbers = table(np.arange(1, 600_001), b" ")
    sink = Tail()
    tracemalloc.start()
    try:
        write_rows(sink, b"f ", b" ", (numbers, tris))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.last.endswith(b"f 599998 599999 600000\n")
    assert peak < tris.nbytes / 2
