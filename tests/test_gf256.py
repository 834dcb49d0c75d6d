"""Field arithmetic tests.

The reference oracles here are deliberately independent of the table
implementation: shift-and-reduce (peasant) multiplication and extended
Euclid over GF(2)[x].
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mscsim import gf256
from mscsim.gf256 import gf_inv, gf_mul, mul_rows, vec_scale
from reference import matmul


def peasant_mul(a: int, b: int, poly: int = 0x11D) -> int:
    """Bitwise shift-and-reduce multiplication oracle."""
    result = 0
    while b:
        if b & 1:
            result ^= a
        b >>= 1
        a <<= 1
        if a & 0x100:
            a ^= poly
    return result


def _poly_divmod(a: int, b: int):
    """Division with remainder in GF(2)[x] (carry-less)."""
    q = 0
    db = b.bit_length()
    while a.bit_length() >= db:
        shift = a.bit_length() - db
        q ^= 1 << shift
        a ^= b << shift
    return q, a


def euclid_inv(a: int, poly: int = 0x11D) -> int:
    """Extended Euclid inverse oracle over GF(2)[x] mod poly."""
    # Invariants: r0 = t0*a mod poly, r1 = t1*a mod poly
    r0, r1 = poly, a
    t0, t1 = 0, 1
    while r1 != 1:
        q, r = _poly_divmod(r0, r1)
        r0, r1 = r1, r
        # t0 - q*t1 with carry-less product
        prod = 0
        qq, tt = q, t1
        while qq:
            if qq & 1:
                prod ^= tt
            qq >>= 1
            tt <<= 1
        t0, t1 = t1, t0 ^ prod
    _, rem = _poly_divmod(t1, poly)
    return rem


def test_add_examples():
    # field addition is XOR (characteristic 2), and multiplication
    # distributes over it
    assert 0x57 ^ 0x83 == 0xD4
    for a in range(256):
        assert gf_mul(a, 0x57 ^ 0x83) == gf_mul(a, 0x57) ^ gf_mul(a, 0x83)


def test_mul_examples():
    for a in range(256):
        assert gf_mul(0x00, a) == 0
        assert gf_mul(0x01, a) == a
    assert gf_mul(0x02, 0x80) == 0x1D


def test_mul_matches_peasant_oracle_exhaustive_row():
    # full 256x256 would be 65k peasant calls; a seeded 4096-pair sample
    # plus the structured rows above is plenty.
    rng = random.Random(1)
    for _ in range(4096):
        a = rng.randrange(256)
        b = rng.randrange(256)
        assert gf_mul(a, b) == peasant_mul(a, b)


def test_inv_examples():
    assert gf_inv(0x01) == 0x01
    assert gf_inv(0x02) == 0x8E
    assert gf_inv(0x02) == euclid_inv(0x02)


def test_inv_exhaustive():
    for a in range(1, 256):
        inv = gf_inv(a)
        assert gf_mul(a, inv) == 1
        assert inv == euclid_inv(a)


def test_inv_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        gf_inv(0)


def test_div():
    rng = random.Random(2)
    for _ in range(1000):
        a = rng.randrange(256)
        b = rng.randrange(1, 256)
        assert gf_mul(gf_mul(a, gf_inv(b)), b) == a


def test_field_axioms_sampled():
    rng = random.Random(3)
    for _ in range(10_000):
        a = rng.randrange(256)
        b = rng.randrange(256)
        c = rng.randrange(256)
        assert gf_mul(a, b) == gf_mul(b, a)
        assert gf_mul(gf_mul(a, b), c) == gf_mul(a, gf_mul(b, c))
        assert gf_mul(a, b ^ c) == gf_mul(a, b) ^ gf_mul(a, c)


def test_mul_table_consistent_with_scalar():
    idx = np.indices((256, 256))
    table = gf256.MUL_TABLE
    rng = random.Random(4)
    for _ in range(2000):
        a = rng.randrange(256)
        b = rng.randrange(256)
        assert int(table[a, b]) == gf_mul(a, b)
    assert table.shape == (256, 256)
    assert idx.shape == (2, 256, 256)


def test_vec_scale():
    v = np.array([0, 1, 2, 0x80, 0xFF], dtype=np.uint8)
    out = vec_scale(0x02, v)
    assert [int(x) for x in out] == [gf_mul(0x02, int(x)) for x in v]


@st.composite
def factors_and_rows(draw):
    r = draw(st.integers(0, 40))
    n = draw(st.integers(1, 40))
    return draw(hnp.arrays(np.uint8, r)), draw(hnp.arrays(np.uint8, (r, n)))


@settings(max_examples=150)
@given(factors_and_rows())
def test_mul_rows_matches_two_array_table_index(case):
    factors, rows = case
    scaled = mul_rows(factors, rows)
    assert scaled.dtype == np.uint8
    assert np.array_equal(scaled, gf256.MUL_TABLE[factors[:, None], rows])


@st.composite
def factors_and_row(draw):
    """Factors of 0-3 dimensions and one row of length 0, 1 or n, either
    contiguous or strided views into a larger buffer."""
    n = draw(st.sampled_from([0, 1]) | st.integers(2, 40))
    layout = draw(st.sampled_from(["contiguous", "ingest", "stepped"]))
    if layout == "ingest":
        # back-substitution scales a row by a column of the held rows:
        # factors buf[:r, c] and row buf[r, c + 1:] share one buffer
        r = draw(st.integers(0, 40))
        c = draw(st.integers(0, 3))
        buf = draw(hnp.arrays(np.uint8, (r + 1, c + 1 + n)))
        return buf[:r, c], buf[r, c + 1:]
    shape = draw(hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=5))
    if layout == "contiguous":
        return draw(hnp.arrays(np.uint8, shape)), draw(hnp.arrays(np.uint8, n))
    # every other element along every axis
    big = draw(hnp.arrays(np.uint8, tuple(2 * s for s in shape)))
    factors = big[tuple(slice(None, None, 2) for _ in shape)] if shape else big
    return factors, draw(hnp.arrays(np.uint8, 3 * n))[1::3]


@settings(max_examples=150)
@given(factors_and_row())
def test_mul_rows_one_row_matches_two_array_table_index(case):
    # one row scaled by every factor, the outer-product form
    factors, row = case
    before = factors.copy(), row.copy()
    scaled = mul_rows(factors, row)
    assert scaled.dtype == np.uint8
    assert scaled.shape == factors.shape + row.shape
    assert np.array_equal(scaled, gf256.MUL_TABLE[factors[..., None], row])
    assert np.array_equal(factors, before[0]) and np.array_equal(row, before[1])


def test_matmul_against_scalar_loops():
    rng = np.random.default_rng(5)
    a = rng.integers(0, 256, size=(5, 7), dtype=np.uint8)
    b = rng.integers(0, 256, size=(7, 3), dtype=np.uint8)
    c = matmul(a, b)
    for i in range(5):
        for j in range(3):
            acc = 0
            for k in range(7):
                acc ^= gf_mul(int(a[i, k]), int(b[k, j]))
            assert acc == int(c[i, j])


def test_matmul_shape_check():
    with pytest.raises(ValueError):
        matmul(np.zeros((2, 3), dtype=np.uint8), np.zeros((2, 3), dtype=np.uint8))
