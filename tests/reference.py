"""Test-side references: code the tests use as oracles or generators.

No simulation run calls any of this, so it lives with the tests:

- ``matmul``, a GF(2^8) matrix product built on ``gf256.mul_rows``;
- ``reconstruct``, the Shamir master key from t shares;
- ``generate_group``, a fresh Schnorr group of any size, for property
  tests that need groups other than the built-in ones;
- ``received_power_dbm``, the log-distance path loss that the handover
  layer's distance rule stands for, so that tests can decide in dB;
- ``decide``, ``ul_rs_handover`` and ``baseline_handover``, the handover
  layer's passes as plain loops over epochs and stations, and ``moves``,
  the mask of moves of ``handover.decide`` from the loop's targets;
- ``step_mobility``, a random-waypoint step of every device, one epoch
  per call, with no walk limit and no running ahead;
- ``pcg64_words``, the raw words of ``PCG64(SeedSequence(entropy))`` in
  plain Python, so that the stream's words have an oracle other than
  numpy, and ``StreamReference``, every draw ``engine.Stream`` makes
  from them, after the papers its transforms come from.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator, Optional, Sequence

import numpy as np

from mscsim.gf256 import mul_rows
from mscsim.handover import HO_RX_ENERGY, HO_TX_ENERGY, SLOPE_DB
from mscsim.keymgmt.groups import GroupError, GroupParams, is_probable_prime, rand_range
from mscsim.keymgmt.shamir import KeyShare, lagrange_at
from mscsim.topology import Node, NodeKind


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


def decide(xs: Sequence[float], ys: Sequence[float], stations: Sequence[Node],
           max_range: float, serving: Optional[int],
           ratio: float) -> tuple[list[int], list[Optional[int]]]:
    """`handover.decide` one epoch at a time and one station at a time:
    the count of stations in range and the target, the station serving
    after the epoch, which is None while `serving` is None and no station
    has been in range."""
    sites = sorted((s.id, *s.position) for s in stations)
    in_range, targets = [], []
    for x, y in zip(xs, ys):
        count = 0
        best_id = kept = None
        for bs_id, sx, sy in sites:
            distance = math.hypot(x - sx, y - sy)
            if distance <= max_range:
                if distance < 1.0:
                    distance = 1.0
                count += 1
                if best_id is None or distance < best:
                    best_id, best = bs_id, distance
                if bs_id == serving:
                    kept = distance
        if count and (kept is None or kept > best * ratio):
            serving = best_id
        in_range.append(count)
        targets.append(serving)
    return in_range, targets


def moves(serving: Optional[int], targets: Sequence[Optional[int]]) -> list[bool]:
    """Per epoch, whether the target differs from the station that served
    the epoch: `handover.decide`'s mask of moves, from the targets of
    `decide` above."""
    out = []
    for target in targets:
        out.append(target != serving)
        serving = target
    return out


def ul_rs_handover(serving: int, in_range: Sequence[int],
                   targets: Sequence[int]) -> dict:
    """`handover.ul_rs_handover` as a running total over the epochs."""
    tx = rx = network = executed = 0
    energy = 0.0
    for count, target in zip(in_range, targets):
        if not count:
            continue
        moved = 1 if target != serving else 0
        serving = target
        tx += 1
        rx += moved
        network += count
        executed += moved
        energy += 1 * HO_TX_ENERGY + moved * HO_RX_ENERGY
    return {"ue_tx": tx, "ue_rx": rx, "network": network, "energy": energy,
            "executed": executed}


def baseline_handover(serving: int, in_range: Sequence[int],
                      targets: Sequence[int]) -> dict:
    """`handover.baseline_handover` as a running total over the epochs."""
    tx = rx = network = executed = 0
    energy = 0.0
    for count, target in zip(in_range, targets):
        if not count:
            continue
        moved = 1 if target != serving else 0
        serving = target
        tx += 1 + moved
        rx += count + moved
        network += 1 + moved
        executed += moved
        energy += (1 + moved) * HO_TX_ENERGY + (count + moved) * HO_RX_ENERGY
    return {"ue_tx": tx, "ue_rx": rx, "network": network, "energy": energy,
            "executed": executed}


def step_mobility(nodes: Sequence[Node], dt: float, rng,
                  arena: tuple[float, float],
                  speed_range: tuple[float, float]) -> None:
    """One random-waypoint step of every device, one node attribute at a
    time: walk speed * dt toward the waypoint, drawing a fresh waypoint
    and then a fresh speed on each arrival. Nothing bounds the number of
    hops."""
    width, height = arena
    for node in nodes:
        if node.kind is NodeKind.BASE_STATION:
            continue
        remaining = node.speed * dt
        while remaining > 1e-12:
            if node.waypoint is None:
                node.waypoint = (float(rng.uniform(0, width)),
                                 float(rng.uniform(0, height)))
                if node.speed <= 0:
                    break
            dx = node.waypoint[0] - node.position[0]
            dy = node.waypoint[1] - node.position[1]
            dist = math.hypot(dx, dy)
            if dist <= remaining:
                node.position = node.waypoint
                node.waypoint = None
                remaining -= dist
                node.speed = float(rng.uniform(*speed_range))
            else:
                frac = remaining / dist
                node.position = (node.position[0] + dx * frac,
                                 node.position[1] + dy * frac)
                remaining = 0.0


# numpy's SeedSequence (O'Neill's seed_seq hash mixing, a pool of four
# 32-bit words) and PCG64 (O'Neill, HMC-CS-2014-0905: a 128-bit LCG with
# XSL-RR output). Constants as numpy uses them.
_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _entropy_words(entropy) -> list[int]:
    """An int as its little-endian 32-bit words (0 as one word); a tuple
    as the words of its ints, concatenated."""
    if isinstance(entropy, tuple):
        return [w for part in entropy for w in _entropy_words(part)]
    words = [entropy & _M32]
    while entropy >> 32:
        entropy >>= 32
        words.append(entropy & _M32)
    return words


def _seed_sequence_state(entropy, n_words: int) -> list[int]:
    """`SeedSequence(entropy).generate_state(n_words, np.uint32)`."""
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _M32
        value = value * hash_const & _M32
        return value ^ value >> _XSHIFT

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _M32
        return result ^ result >> _XSHIFT

    words = _entropy_words(entropy)
    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    out, hash_const = [], _INIT_B
    for i in range(n_words):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * _MULT_B & _M32
        value = value * hash_const & _M32
        out.append(value ^ value >> _XSHIFT)
    return out


def pcg64_words(entropy, n: int) -> list[int]:
    """The first n words of `PCG64(SeedSequence(entropy)).random_raw()`."""
    return list(itertools.islice(_pcg64(entropy), n))


def _pcg64(entropy) -> Iterator[int]:
    """The words of `PCG64(SeedSequence(entropy)).random_raw()`, one by one.

    Seeding: the 64-bit words v0..v3 of `generate_state(4, np.uint64)`
    give the state v0 << 64 | v1 and the sequence v2 << 64 | v3; the
    increment is sequence << 1 | 1, and from state 0 the generator steps,
    adds the state and steps again. Each word steps first, then rotates
    the xor of the state's halves right by its top 6 bits.
    """
    halves = _seed_sequence_state(entropy, 8)
    v = [halves[2 * i] | halves[2 * i + 1] << 32 for i in range(4)]
    inc = ((v[2] << 64 | v[3]) << 1 | 1) & _M128
    state = ((inc + (v[0] << 64 | v[1])) * _PCG_MULT + inc) & _M128
    while True:
        state = (state * _PCG_MULT + inc) & _M128
        xored, rot = (state >> 64 ^ state) & _M64, state >> 122
        yield (xored >> rot | xored << (64 - rot)) & _M64


class StreamReference:
    """The draws of `engine.Stream(entropy)` in plain Python, over the
    words of `pcg64_words`. As for a `Stream`, one instance serves one
    family: 64-bit draws take the next word each, and 32-bit draws the
    next 32-bit halves of the words, low half first, each draw starting
    on a fresh half. `words` counts the words read so far."""

    def __init__(self, entropy):
        self.words = 0
        self._words = self._counted(_pcg64(entropy))
        self._halves = (h for w in self._words for h in (w & _M32, w >> 32))

    def _counted(self, words: Iterator[int]) -> Iterator[int]:
        for word in words:
            self.words += 1
            yield word

    def random(self) -> float:
        """The top 53 bits of the next word, as a fraction of 2**53."""
        return (next(self._words) >> 11) / 2 ** 53

    def floats(self, k: int) -> list[float]:
        return [self.random() for _ in range(k)]

    def uniform(self, low: float, high: float) -> float:
        return low + (high - low) * self.random()

    def integers(self, high: int, n: int) -> list[int]:
        """`integers(0, high, n, dtype)`: at `high` 2**32 the next n
        halves; at 256 the first n bytes of the next ceil(n / 4) halves,
        each half's bytes low first."""
        if high == 1 << 32:
            return [next(self._halves) for _ in range(n)]
        halves = [next(self._halves) for _ in range((n + 3) // 4)]
        return [h >> shift & 0xFF for h in halves for shift in (0, 8, 16, 24)][:n]

    def below(self, s: int) -> int:
        """A draw in [0, s), by Lemire's nearly divisionless method (Lemire,
        "Fast Random Integer Generation in an Interval", ACM TOMACS 2019,
        algorithm 5) on 32-bit halves. As in numpy, s = 1 draws nothing."""
        if s == 1:
            return 0
        m = next(self._halves) * s
        if m & _M32 < s:
            t = ((1 << 32) - s) % s
            while m & _M32 < t:
                m = next(self._halves) * s
        return m >> 32

    def choice(self, n: int, k: int) -> list[int]:
        """k of range(n) without replacement: Floyd's sample (Bentley &
        Floyd, "A Sample of Brilliance", CACM 1987) in the order drawn,
        then a Fisher-Yates shuffle from the last place down."""
        sample = []
        for j in range(n - k, n):
            t = self.below(j + 1)
            sample.append(j if t in sample else t)
        for i in range(k - 1, 0, -1):
            j = self.below(i + 1)
            sample[i], sample[j] = sample[j], sample[i]
        return sample
