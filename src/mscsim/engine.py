"""Slot clock, seeded streams, links and energy accounting.

Everything a run observes flows through here so that a run is
reproducible from (seed, config) alone: random streams are derived per
subsystem from one 64-bit seed, the clock moves forward one slot
duration at a time, and every transmission is charged to its link's
energy total.
The per-slot trace is the session layer's (`ncc.SlotRecord`).

The energy totals are two plain floats, one per `LinkKind`. Each grows
by the transmit charge and then by one receive charge per delivered
receiver, in receiver order, and `total_energy` adds the cellular total
and then the short-range total. Float addition is not associative, so
the output's energy bytes depend on exactly this order.

`transmit` decides range as `np.hypot(dx, dy) > range_m`, except that
co-located endpoints (dx == dy == 0, every session endpoint today) skip
the call: their distance is 0 and range_m is positive, so they are in
range. (`math.hypot` is not a substitute for `np.hypot`: it differs in
the last bit on some inputs.)

The runner reads both per-packet streams ahead, because a numpy draw
costs several microseconds of argument handling however little it
draws. `ReadAheadFloats` serves the channel stream's scalar `random()`
calls from one `random(n)` block; a block of n doubles is the n scalar
draws in order. `ReadAheadBytes` serves the coding stream's
`integers(0, 256, size, np.uint8)` calls from one block of whole 32-bit
words. numpy fills a uint8 draw from ceil(size / 4) fresh 32-bit words,
low byte first, and drops the rest of its last word; so the words of one
block draw hold every later draw back to back, each starting on a word
boundary. Neither changes a drawn byte. What they read past the last
draw is never used, because the runner's session phase makes both
streams for itself alone.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, NamedTuple

import numpy as np


class SimulationError(Exception):
    pass


class LinkKind(Enum):
    CELLULAR = "cellular"
    SHORT_RANGE = "short_range"


class DeliveryStatus(Enum):
    DELIVERED = "delivered"
    ERASED = "erased"
    OUT_OF_RANGE = "out_of_range"


@dataclass(frozen=True)
class LinkModel:
    """Rate, loss, energy and reach of one link technology."""

    kind: LinkKind
    rate: float            # packets per slot
    p_loss: float          # independent per-receiver erasure probability
    tx_energy: float       # per transmitted packet, charged once per broadcast
    range_m: float

    def __post_init__(self):
        if not 0.0 <= self.p_loss < 1.0:
            raise ValueError(f"p_loss must be in [0, 1), got {self.p_loss}")
        # written so that NaN fails every comparison and is rejected
        if not (self.rate > 0 and self.tx_energy >= 0 and self.range_m > 0):
            raise ValueError("rate and range must be positive, energy nonnegative")

    @property
    def slot_duration(self) -> float:
        """Slot-time consumed by one packet on this link."""
        return 1.0 / self.rate


# Receive cost as a fraction of the link's transmit cost.
RX_ENERGY_FRACTION = 0.1

# Default link constants. Only the orderings are load-bearing (short
# range is faster and cheaper than cellular); the values are recorded in
# every output header and overridable from config.
DEFAULT_CELLULAR = LinkModel(LinkKind.CELLULAR, rate=1.0, p_loss=0.0, tx_energy=1.0, range_m=1000.0)
DEFAULT_SHORT_RANGE = LinkModel(LinkKind.SHORT_RANGE, rate=4.0, p_loss=0.0, tx_energy=0.2, range_m=50.0)


# The stream id of each subsystem's generator.
MOBILITY_STREAM, CHANNEL_STREAM, CODING_STREAM, CRYPTO_STREAM = range(4)


@dataclass(frozen=True)
class RunSeed:
    """One master seed, split into a generator per stream id.

    Distinct stream ids give independent deterministic generators, so
    e.g. drawing from another crypto stream id cannot disturb the
    mobility or channel draws.
    """

    seed: int

    def stream(self, stream_id: int) -> np.random.Generator:
        return np.random.default_rng(np.random.SeedSequence((self.seed, stream_id)))

    def mobility(self) -> np.random.Generator:
        return self.stream(MOBILITY_STREAM)

    def channel(self) -> np.random.Generator:
        return self.stream(CHANNEL_STREAM)

    def coding(self) -> np.random.Generator:
        return self.stream(CODING_STREAM)

    def crypto(self) -> np.random.Generator:
        return self.stream(CRYPTO_STREAM)


# Read-ahead block sizes: whole 32-bit words of the coding stream, and
# doubles of the channel stream.
_BYTE_BLOCK = 32 * 1024
_FLOAT_BLOCK = 1024


class ReadAheadBytes:
    """A generator's ``integers(0, 256, size, np.uint8)`` draws, read ahead.

    Returns the bytes the generator itself would return for the same
    sequence of calls, as views into one block; no two draws share a
    byte, so writing into one changes no other. ``size`` is an int or a
    tuple of ints; any other bounds, dtype or size raises, and so does
    any other method.
    """

    __slots__ = ("_rng", "_block", "_pos")

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        self._block = np.empty(0, dtype=np.uint8)
        self._pos = 0          # always on a word boundary

    def integers(self, low, high, size, dtype) -> np.ndarray:
        if low != 0 or high != 256 or dtype is not np.uint8:
            raise ValueError("only integers(0, 256, size, np.uint8) is read ahead")
        if type(size) is tuple:
            shape = tuple(map(operator.index, size))
            n = math.prod(shape) if min(shape, default=0) >= 0 else -1
        else:
            shape, n = None, operator.index(size)
        if n < 0:
            raise ValueError(f"negative dimensions are not allowed: {size}")
        pos = self._pos
        end = pos + n
        if end > len(self._block):
            self._refill(n)
            pos, end = 0, n
        # the draw's last word is spent even where it ends early
        self._pos = (end + 3) & ~3
        out = self._block[pos:end]
        return out if shape is None else out.reshape(shape)

    def _refill(self, n: int) -> None:
        rest = self._block[self._pos:]
        # whole words, so that every later draw starts on a word boundary
        need = max(_BYTE_BLOCK, (n - len(rest) + 3) & ~3)
        fresh = self._rng.integers(0, 256, size=need, dtype=np.uint8)
        self._block = np.concatenate((rest, fresh)) if len(rest) else fresh
        self._pos = 0


class ReadAheadFloats:
    """A generator's scalar ``random()`` draws, read ahead as Python floats."""

    __slots__ = ("_rng", "_ahead")

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        self._ahead: list[float] = []   # next draw last

    def random(self) -> float:
        ahead = self._ahead
        if not ahead:
            ahead = self._ahead = self._rng.random(_FLOAT_BLOCK)[::-1].tolist()
        return ahead.pop()


class Delivery(NamedTuple):
    receiver: int
    status: DeliveryStatus


# Reading an Enum member through its class costs ~0.1 us on Python 3.11,
# a tenth of a one-receiver transmit; the per-receiver and per-slot paths
# (here and in `ncc`) use these aliases.
_CELLULAR = LinkKind.CELLULAR
_DELIVERED = DeliveryStatus.DELIVERED
_ERASED = DeliveryStatus.ERASED
_OUT_OF_RANGE = DeliveryStatus.OUT_OF_RANGE


class Simulator:
    """Slot clock plus per-link energy accounting for one session."""

    def __init__(self):
        self._now = 0.0
        self._cellular_energy = 0.0
        self._short_range_energy = 0.0

    def now(self) -> float:
        return self._now

    def advance(self, dt: float) -> None:
        """Move the clock forward by one slot's duration."""
        if dt < 0:
            raise SimulationError("cannot advance backwards")
        self._now += dt

    def transmit(self, link: LinkModel, sender, receivers: Iterable, rng) -> list[Delivery]:
        """Broadcast one packet; returns per-receiver outcomes.

        The sender is charged one packet energy regardless of outcomes;
        each delivered receiver is charged the receive fraction.
        Receivers beyond the link range are undeliverable, which is
        distinct from a channel erasure.
        """
        cellular = link.kind is _CELLULAR
        energy = self._cellular_energy if cellular else self._short_range_energy
        energy += link.tx_energy
        rx_energy = link.tx_energy * RX_ENERGY_FRACTION
        p_loss = link.p_loss
        sx, sy = sender.position
        deliveries = []
        for recv in receivers:
            px, py = recv.position
            dx = sx - px
            dy = sy - py
            beyond = False if dx == 0 and dy == 0 else np.hypot(dx, dy) > link.range_m
            if beyond:
                status = _OUT_OF_RANGE
            elif p_loss > 0.0 and rng.random() < p_loss:
                status = _ERASED
            else:
                energy += rx_energy
                status = _DELIVERED
            deliveries.append(Delivery(recv.id, status))
        if cellular:
            self._cellular_energy = energy
        else:
            self._short_range_energy = energy
        return deliveries

    def total_energy(self) -> float:
        # LinkKind order; the output's float bytes depend on it
        return self._cellular_energy + self._short_range_energy
