"""Threshold sharing of the master private key over Z_q.

The dealer role exists only inside setup(): it draws the sharing
polynomial, hands out evaluations, and returns. Nothing retains the
polynomial or the master private key afterwards; the shares are the
only place the key lives, which is the whole point of the service.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .groups import GroupParams, KeyPair, rand_below


class ShareError(Exception):
    pass


class InsufficientSharesError(ShareError):
    pass


@dataclass(frozen=True)
class KMConfig:
    n: int
    t: int

    def __post_init__(self):
        if not 1 <= self.t <= self.n:
            raise ShareError(f"threshold {self.t} not in [1, {self.n}]")


@dataclass(frozen=True)
class KeyShare:
    index: int   # nonzero evaluation point x_i
    value: int   # f(x_i) mod q

    def __post_init__(self):
        if self.index == 0:
            raise ShareError("share index 0 would expose the master key")


def poly_eval(coeffs: Sequence[int], x: int, q: int) -> int:
    """Horner evaluation of c0 + c1*x + ... mod q."""
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % q
    return acc


def share_polynomial(secret: int, t: int, q: int, rng) -> list[int]:
    """Degree t-1 polynomial with constant term = secret."""
    return [secret % q] + [rand_below(rng, q) for _ in range(t - 1)]


def lagrange_weight(indices: Sequence[int], i: int, x0: int, q: int) -> int:
    """Weight of point i when interpolating at x0 over the given set."""
    num, den = 1, 1
    for j in indices:
        if j == i:
            continue
        num = num * ((x0 - j) % q) % q
        den = den * ((i - j) % q) % q
    return num * pow(den, -1, q) % q


def lagrange_at(points: Sequence[tuple[int, int]], x0: int, q: int) -> int:
    """Interpolate the unique low-degree polynomial through the points."""
    indices = [x for x, _ in points]
    if len(set(indices)) != len(indices):
        raise ShareError(f"duplicate evaluation points: {sorted(indices)}")
    acc = 0
    for x, y in points:
        acc = (acc + y * lagrange_weight(indices, x, x0, q)) % q
    return acc


def setup(config: KMConfig, params: GroupParams, rng) -> tuple[KeyPair, list[KeyShare]]:
    """Deal n shares of a fresh master key with threshold t, at indices
    1..n.

    The returned private key is for the caller to discard (or to keep in
    a test as the reconstruction oracle); no module state retains it.
    """
    if config.n >= params.q:
        raise ShareError("index q (0 mod q) would expose the master key")
    secret = params.random_scalar(rng)
    coeffs = share_polynomial(secret, config.t, params.q, rng)
    shares = [KeyShare(x, poly_eval(coeffs, x, params.q))
              for x in range(1, config.n + 1)]
    return KeyPair(secret, params.exp(secret)), shares
