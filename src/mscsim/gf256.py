"""GF(2^8) arithmetic.

Field elements are integers in [0, 255]. Multiplication is carried out
with log/antilog tables built for the reduction polynomial
x^8 + x^4 + x^3 + x^2 + 1 (0x11D), for which 2 is a primitive element.

Besides the scalar operations, the module exposes numpy-based helpers
on uint8 arrays. Products with many factors go through one row kernel,
``mul_rows``, in one of two forms. Both gather from the 256x256
product table; neither uses a two-dimensional fancy index such as
``MUL_TABLE[f[:, None], rows]``, which broadcasts two index arrays at
several times the cost.

- Scaling one row by r factors (back-substitution) is a region multiply
  in the manner of GF-Complete (Plank, Greenan & Miller, FAST 2013):
  gather the r table rows the factors name, an (r, 256) copy, then
  gather the row's n columns from each. The two index arrays hold r
  and n entries, where the other form builds and converts r * n.
- Scaling r rows by one factor each (encode, recode and elimination)
  gathers from the raveled table at the uint16 index
  ``factor << 8 | element``. The high byte ``factor << 8`` is itself a
  gather, from a 256-entry table, and the whole (r, n) index goes to
  one ``take``.

``vec_scale``, the one-factor case, gathers from a single table row.
"""

from __future__ import annotations

import numpy as np

REDUCTION_POLY = 0x11D

# exp table is doubled so log-domain sums never need an explicit modulo
# when used through _EXP directly.
_EXP = np.zeros(510, dtype=np.uint8)
_LOG = np.zeros(256, dtype=np.int32)


def _build_tables() -> None:
    x = 1
    for i in range(255):
        _EXP[i] = x
        _LOG[x] = i
        x <<= 1
        if x & 0x100:
            x ^= REDUCTION_POLY
    for i in range(255, 510):
        _EXP[i] = _EXP[i - 255]


_build_tables()

# Full 256x256 product table (64 KiB): the workhorse for vectorized row
# operations. MUL_TABLE[a, b] == gf_mul(a, b).
_la = _LOG[:, None] + _LOG[None, :]
MUL_TABLE = _EXP[_la % 255].copy()
MUL_TABLE[0, :] = 0
MUL_TABLE[:, 0] = 0
del _la
# Row-major view of MUL_TABLE: entry (a << 8) | b is gf_mul(a, b).
_MUL_FLAT = MUL_TABLE.ravel()
# _HIGH[a] == a << 8, the start of row a in _MUL_FLAT.
_HIGH = np.arange(256, dtype=np.uint16) << 8

# INV_TABLE[a] == gf_inv(a) for a != 0; entry 0 is unused (left as 0).
INV_TABLE = np.zeros(256, dtype=np.uint8)
for _a in range(1, 256):
    INV_TABLE[_a] = _EXP[255 - _LOG[_a]]
del _a


def gf_mul(a: int, b: int) -> int:
    """Field multiplication modulo the reduction polynomial."""
    if a == 0 or b == 0:
        return 0
    return int(_EXP[int(_LOG[a]) + int(_LOG[b])])


def gf_inv(a: int) -> int:
    """Multiplicative inverse of a nonzero element.

    Raises:
        ZeroDivisionError: zero has no inverse.
    """
    if a == 0:
        raise ZeroDivisionError("0 has no multiplicative inverse in GF(2^8)")
    return int(INV_TABLE[a])


def vec_scale(a: int, v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Scalar times vector, element-wise over the field.

    The one-factor case of ``mul_rows``: a gather from row ``a`` of the
    product table. ``out`` may be ``v`` itself, which scales in place.
    """
    if out is None:
        return MUL_TABLE[a].take(v)
    # uint8 indices never leave the 256-entry row, and unlike the default
    # "raise", "clip" lets take write into out without a buffer
    return MUL_TABLE[a].take(v, out=out, mode="clip")


def mul_rows(factors: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Row-wise scaling: ``out[..., i, :] = factors[..., i] * rows[..., i, :]``.

    ``factors`` (uint8, shape (..., r)) gains a trailing axis and is
    broadcast against ``rows`` (uint8, shape (..., r, n), or (n,) to
    scale one row by every factor). Equal to
    ``MUL_TABLE[factors[..., None], rows]``.

    One row (``rows.ndim == 1``) is an outer product: the table rows of
    the factors are gathered first, then the row's n columns from each,
    so the gathers index with r and n entries instead of r * n. Otherwise
    the row starts ``factors << 8``, read from a table, are or-ed with
    the elements into one uint16 index into the raveled table.
    """
    if rows.ndim == 1:
        return MUL_TABLE.take(factors, axis=0).take(rows, axis=-1)
    return _MUL_FLAT.take(_HIGH.take(factors)[..., None] | rows)
