"""Test-side references: code the tests use as oracles or generators.

No simulation run calls any of this, so it lives with the tests:

- ``matmul``, a GF(2^8) matrix product built on ``gf256.mul_rows``;
- ``reconstruct``, the Shamir master key from t shares;
- ``generate_group``, a fresh Schnorr group of any size, for property
  tests that need groups other than the built-in ones;
- ``received_power_dbm``, the log-distance path loss that the handover
  layer's distance rule stands for, so that tests can decide in dB.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from mscsim.gf256 import mul_rows
from mscsim.handover import SLOPE_DB
from mscsim.keymgmt.groups import GroupError, GroupParams, is_probable_prime, rand_range
from mscsim.keymgmt.shamir import KeyShare, lagrange_at


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """GF(2^8) matrix product of uint8 arrays a (m, k) and b (k, n).

    Scales row j of b by a[i, j] for every i with ``mul_rows`` and
    XOR-reduces over j.
    """
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"incompatible shapes {a.shape} x {b.shape}")
    return np.bitwise_xor.reduce(mul_rows(a, b), axis=1)


def reconstruct(shares: Sequence[KeyShare], q: int) -> int:
    """Master private key from any t shares (caller supplies enough)."""
    return lagrange_at([(s.index, s.value) for s in shares], 0, q)


# Cofactor draws per bit of p before generate_group gives up on its q.
# A prime p turns up about once in ln(2**p_bits) / 2 even cofactors, so
# the bound is rarely reached except by a q for which no cofactor works
# (a q near the bottom of its range when p - q leaves only a few bits).
_COFACTOR_DRAWS_PER_BIT = 4


def generate_group(p_bits: int, q_bits: int, rng) -> GroupParams:
    """Fresh Schnorr group: prime q of q_bits, p = q*c + 1 of p_bits.

    q is redrawn when a bounded number of even cofactors c gives no
    prime p. With fewer than 3 bits between p and q no q can work: the
    only even c of 1 or 2 bits, 0 and 2, leave p short of p_bits.
    """
    if q_bits >= p_bits:
        raise GroupError("q must be smaller than p")
    if q_bits < 2:
        raise GroupError("q needs at least 2 bits to be an odd prime")
    c_bits = p_bits - q_bits
    if c_bits < 3:
        raise GroupError(
            f"p has only {c_bits} bits more than q, too few for an even "
            f"cofactor c with q*c + 1 of {p_bits} bits; need at least 3")
    p = None
    while p is None:
        while True:
            q = rand_range(rng, 1 << (q_bits - 1), 1 << q_bits) | 1
            if is_probable_prime(q, rng):
                break
        for _ in range(_COFACTOR_DRAWS_PER_BIT * p_bits):
            c = rand_range(rng, 1 << (c_bits - 1), 1 << c_bits) & ~1  # even keeps p odd
            candidate = q * c + 1
            if candidate.bit_length() == p_bits and is_probable_prime(candidate, rng):
                p = candidate
                break
    while True:
        h = rand_range(rng, 2, p - 1)
        g = pow(h, (p - 1) // q, p)
        if g != 1:
            return GroupParams(p, q, g)


# Log-distance path loss, PL(d) = PL0_DB + SLOPE_DB * log10(d / REF_DISTANCE)
# with d held at REF_DISTANCE or above: 40 dB at 1 m, exponent 3.5. A
# device transmits at DEVICE_TX_POWER_DBM.
PL0_DB = 40.0
REF_DISTANCE = 1.0
DEVICE_TX_POWER_DBM = 23.0


def received_power_dbm(tx_power_dbm: float, distance: float) -> float:
    d = max(distance, REF_DISTANCE)
    return tx_power_dbm - (PL0_DB + SLOPE_DB * math.log10(d / REF_DISTANCE))
