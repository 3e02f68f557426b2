"""Vectorised `%.9e` text formatting for the CSV artifact writers.

`_format_e9` renders float64 values byte for byte as `'%.9e' % v` does,
without one Python string per value.  Each value becomes a 17-byte field
padded with NUL bytes; `_join_rows` lays fields and separators out row by
row and drops the padding.

Exactness: the ten significant digits come from rounding
y = |x| * 10**(9 - e) to an integer, with y in [1e9, 1e10).  The computed y
is within a few ulps (< 1e-5) of the exact decimal scaling, so rint(y) is
the correctly rounded digit string unless y lies within 1e-4 of a rounding
boundary.  Those values, and zeros, non-finite values and exponents with
|e| >= 99, go through Python's own formatter instead (about 2 in 10**4).

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


@functools.cache
def _tables():
    """(powers of ten by 9 - e, 5-digit ASCII table, exponent suffix table)."""
    # pow10[i] = 10**(9 - e) for e = _E_MAX - i, correctly rounded.
    pow10 = np.array([float(f"1e{9 - _E_MAX + i}")
                      for i in range(2 * _E_MAX + 1)])
    # Row n holds the five ASCII digits of n.
    digits5 = np.ascontiguousarray(
        np.indices((10,) * 5, dtype=np.uint8).reshape(5, -1).T + ord("0"))
    e = np.arange(-_E_MAX, _E_MAX + 1)
    a = np.abs(e)
    exp4 = np.stack([np.full_like(e, ord("e")),
                     np.where(e < 0, ord("-"), ord("+")),
                     a // 10 + ord("0"), a % 10 + ord("0")],
                    axis=1).astype(np.uint8)
    return pow10, digits5, exp4


def _format_e9(x) -> np.ndarray:
    """`'%.9e' % v` of every value of x (flattened) as NUL-padded uint8 rows.

    Returns shape (x.size, FIELD_WIDTH).
    """
    pow10, digits5, exp4 = _tables()
    x = np.asarray(x, dtype=np.float64).ravel()
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
    hi = digits5[d // 100000]
    out = np.empty((x.size, FIELD_WIDTH), dtype=np.uint8)
    out[:, 0] = np.where(np.signbit(x), ord("-"), 0)
    out[:, 1] = hi[:, 0]
    out[:, 2] = ord(".")
    out[:, 3:7] = hi[:, 1:]
    out[:, 7:12] = digits5[d % 100000]
    out[:, 12:16] = exp4[e + _E_MAX]
    out[:, 16] = 0
    idx = np.flatnonzero(exact)
    if idx.size:
        text = [b"%.9e" % v for v in x[idx].tolist()]
        out[idx] = np.array(text, dtype=f"S{FIELD_WIDTH}").view(
            np.uint8).reshape(-1, FIELD_WIDTH)
    return out


def _format_e9_cells(x) -> np.ndarray:
    """Each row of a 2-D x as `,v0,v1,...`: uint8 of shape (rows, 18 * cols)."""
    x = np.asarray(x, dtype=np.float64)
    rows, cols = x.shape
    cells = np.empty((rows, cols, FIELD_WIDTH + 1), dtype=np.uint8)
    cells[:, :, 0] = ord(",")
    cells[:, :, 1:] = _format_e9(x).reshape(rows, cols, FIELD_WIDTH)
    return cells.reshape(rows, cols * (FIELD_WIDTH + 1))


def _join_rows(*columns) -> bytes:
    """Concatenate columns row by row and drop the NUL padding.

    Each column is a uint8 array of shape (rows, width), or a bytes constant
    repeated on every row.  All arrays have the same number of rows.
    """
    rows = next(c.shape[0] for c in columns if isinstance(c, np.ndarray))
    parts = [c if isinstance(c, np.ndarray) else np.frombuffer(c, np.uint8)
             for c in columns]
    widths = [p.shape[-1] for p in parts]
    out = np.empty((rows, sum(widths)), dtype=np.uint8)
    pos = 0
    for part, width in zip(parts, widths):
        out[:, pos:pos + width] = part
        pos += width
    return out.tobytes().replace(b"\0", b"")
