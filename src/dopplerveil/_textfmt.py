"""Vectorised `%.9e` text formatting for the CSV artifact writers.

`_put_e9` renders float64 values byte for byte as `'%.9e' % v` does,
without one Python string per value, straight into the 17-byte field slots
of a row buffer.  `_join_rows` lays one block of rows out in a zeroed
`bytearray`, renders its float columns in place and drops the NUL padding
with one `bytearray.translate`, the only copy between formatter and file.

Exactness: the ten significant digits come from rounding
y = |x| * 10**(9 - e) to an integer, with y in [1e9, 1e10).  The computed y
is within a few ulps (< 1e-5) of the exact decimal scaling, so rint(y) is
the correctly rounded digit string unless y lies within 1e-4 of a rounding
boundary.  Those values, and zeros, non-finite values and exponents with
|e| >= 99, go through Python's own formatter instead.  On the CSV files of
2 s runs that is 2 to 3 in 10**4 of the CFR and spectrogram power values,
but 40 to 45 in 100 of the spectrogram frequency column (its bins are
multiples of 2**-k Hz, many an exact tie at the eleventh digit) and 56 in
10**4 of the track values (zeros and round times): 52 in 10**4 of all
values written.

Rendering: a vectorised field "sd.ddddddddde+XX" fills the first 16 bytes
of its slot, two little-endian 8-byte words.  The ten digits d0..d9 split
into the groups d0-d3, d4-d5 and d6-d9; each group, the sign and the
exponent index a small word table (built on first use) whose entries hold
their ASCII bytes, and the '.' and 'e', at their byte positions:

    word 0:  sign d0 '.' d1 d2 d3 d4 d5    = hi[d0-d3] | mid[d4-d5, sign]
    word 1:  d6 d7 d8 d9 'e' sign X X      = lo[d6-d9] | exp[e]

so a field costs four table lookups, two ORs and two word stores.

The helpers keep a leading underscore although the writers in other modules
call them: perfbench's tracer wraps every public dopplerveil function, and a
writer call should stay one span, not one per block.
"""
from __future__ import annotations

import functools

import numpy as np

BLOCK_VALUES = 1 << 16  # floats formatted per write; bounds peak memory
FIELD_WIDTH = 17  # "-d.ddddddddde+XXX", the widest `%.9e` output of a float
_MARGIN = 1e-4  # distance from a rounding boundary that forces the fallback
_E_MAX = 99  # vectorised exponents satisfy |e| < _E_MAX
_WORD = np.dtype("<u8")  # byte i of a field word is bits 8i..8i+7


def _ascii_digits(n, positions) -> np.ndarray:
    """Words holding the decimal digits of n (most significant first) in
    ASCII at the given byte positions, zero elsewhere."""
    word = np.zeros(n.shape, dtype=_WORD)
    for i, pos in enumerate(reversed(positions)):
        word |= (n // 10 ** i % 10 + ord("0")).astype(_WORD) << 8 * pos
    return word


@functools.cache
def _tables():
    """(powers of ten by 9 - e, hi, mid, lo and exp word tables)."""
    # pow10[i] = 10**(9 - e) for e = _E_MAX - i, correctly rounded.
    pow10 = np.array([float(f"1e{9 - _E_MAX + i}")
                      for i in range(2 * _E_MAX + 1)])
    n = np.arange(10 ** 4)
    hi = _ascii_digits(n, (1, 3, 4, 5)) | _WORD.type(ord(".")) << 16
    # mid[100 * negative + n]: digits d4 d5, and the field's sign byte.
    mid = _ascii_digits(n[:200] % 100, (6, 7))
    mid[100:] |= ord("-")
    lo = _ascii_digits(n, (0, 1, 2, 3))
    e = np.arange(-_E_MAX, _E_MAX + 1)
    exp = (_ascii_digits(np.abs(e), (6, 7))
           | np.where(e < 0, ord("-"), ord("+")).astype(_WORD) << 40
           | _WORD.type(ord("e")) << 32)
    return pow10, hi, mid, lo, exp


def _put_e9(slots: np.ndarray, x) -> None:
    """Write `'%.9e' % v` of every value of x into its NUL-padded slot.

    slots is a uint8 array of shape x.shape + (FIELD_WIDTH,), usually a view
    into a row buffer; its last axis must be contiguous and its last byte
    NUL.
    """
    pow10, hi_w, mid_w, lo_w, exp_w = _tables()
    x = np.asarray(x, dtype=np.float64)
    a = np.abs(x)
    normal = np.isfinite(a) & (a > 0)
    a = np.where(normal, a, 1.0)
    # log10 can land one decade off next to a power of ten; y then falls
    # outside [1e9, 1e10) and the value takes the exact path.
    e = np.clip(np.floor(np.log10(a)), -_E_MAX, _E_MAX).astype(np.int64)
    y = a * pow10[_E_MAX - e]
    frac = y - np.floor(y)
    exact = (~normal | (np.abs(e) >= _E_MAX)
             | (np.abs(frac - 0.5) <= _MARGIN)
             | (y < 1e9 + _MARGIN) | (y > 1e10 - 0.5 - _MARGIN))
    d = np.where(exact, 1e9, np.rint(y)).astype(np.int64)
    e = np.where(exact, 0, e)
    # Freed before the render allocates, this lowers a writer's peak.
    del a, normal, y, frac
    words = slots[..., :16].view(_WORD)
    # g takes d0-d3, then d4-d5 and the sign; d keeps d6-d9.
    g = d // 10 ** 6
    d -= g * 10 ** 6
    w = hi_w.take(g)
    np.floor_divide(d, 10 ** 4, out=g)
    d -= g * 10 ** 4
    g += np.signbit(x) * 100
    w |= mid_w.take(g)
    words[..., 0] = w
    lo_w.take(d, out=w)
    e += _E_MAX
    w |= exp_w.take(e)
    words[..., 1] = w
    idx = np.flatnonzero(exact)
    if idx.size:
        idx = np.unravel_index(idx, exact.shape)
        text = [b"%.9e" % v for v in x[idx].tolist()]
        slots[idx] = np.array(text, dtype=f"S{FIELD_WIDTH}").view(
            np.uint8).reshape(-1, FIELD_WIDTH)


def _format_e9(x) -> np.ndarray:
    """`'%.9e' % v` of every value of x (flattened) as NUL-padded uint8 rows.

    Returns shape (x.size, FIELD_WIDTH).
    """
    x = np.asarray(x, dtype=np.float64).ravel()
    out = np.zeros((x.size, FIELD_WIDTH), dtype=np.uint8)
    _put_e9(out, x)
    return out


def _join_rows(*columns) -> bytearray:
    """Lay columns out row by row and drop the NUL padding.

    Each column is one of:
    - a float array of shape (rows,): one field per row;
    - a float array of shape (rows, cols): `,v0,v1,...` per row;
    - a uint8 array of shape (rows, width): text, NUL-padded;
    - a bytes constant repeated on every row.
    All arrays have the same number of rows.
    """
    rows = next(len(c) for c in columns if isinstance(c, np.ndarray))
    widths = [len(c) if isinstance(c, bytes)
              else c.shape[1] if c.dtype == np.uint8
              else FIELD_WIDTH if c.ndim == 1
              else (FIELD_WIDTH + 1) * c.shape[1] for c in columns]
    buf = bytearray(rows * sum(widths))
    out = np.frombuffer(buf, dtype=np.uint8).reshape(rows, sum(widths))
    pos = 0
    for col, width in zip(columns, widths):
        span = out[:, pos:pos + width]
        pos += width
        if isinstance(col, bytes):
            span[:] = np.frombuffer(col, dtype=np.uint8)
        elif col.dtype == np.uint8:
            span[:] = col
        elif col.ndim == 1:
            _put_e9(span, col)
        else:
            # Splits only the contiguous last axis: a view, not a copy.
            cells = span.reshape(rows, col.shape[1], FIELD_WIDTH + 1)
            cells[:, :, 0] = ord(",")
            _put_e9(cells[:, :, 1:], col)
    return buf.translate(None, b"\0")
