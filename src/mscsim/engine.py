"""Seeded streams, links and energy accounting.

Everything a run observes flows through here so that a run is
reproducible from (seed, config) alone: random streams are derived per
subsystem from one 64-bit seed, and every transmission is charged to its
link's energy total. A session's `Simulator` holds each link's transmit
energy, and each `Simulator.transmit` names its `LinkKind` and the
session's erasure probability. Receivers are ids: a session is one
mobile small cell and its gateway station, all within reach, so a
transmission has no geometry and no range test. Time is counted in slots, which have no
duration: the per-slot trace is the session layer's (`ncc.SlotRecord`).

The energy totals are two plain floats, one per `LinkKind`. Each grows
by the transmit charge and then by one receive charge per delivered
receiver, in receiver order, and `total_energy` adds the cellular total
and then the short-range total. Float addition is not associative, so
the output's energy bytes depend on exactly this order.

Every draw of a run comes from a `Stream` over the raw words w of
`PCG64(SeedSequence(entropy))`, which NEP 19 keeps stable, with its own
transforms in place of numpy's `Generator` methods (equal to numpy 2's):
`random()` is `(w >> 11) * 2**-53` and `floats(k)` the next k of those
as one array, `uniform(a, b)` is `a + (b - a) * random()`, and the
32-bit draws (`integers`, and `choice` by Floyd's sample and a shuffle,
Lemire-bounded) read each word's bytes in explicit `'<u8'` order as two
`'<u4'` halves, low half first. A stream serves one family, 64-bit or
32-bit draws: its first draw fixes it and a draw from the other raises,
so PCG64's spare half, which numpy shares between the two, needs no
model. Any call form the library does not make raises too.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, NamedTuple

import numpy as np


class LinkKind(Enum):
    CELLULAR = "cellular"
    SHORT_RANGE = "short_range"


class DeliveryStatus(Enum):
    DELIVERED = "delivered"
    ERASED = "erased"


# Receive cost as a fraction of the link's transmit cost.
RX_ENERGY_FRACTION = 0.1

# Default transmit energy per packet of each link. Only the ordering is
# load-bearing (short range is cheaper than cellular); the values are
# recorded in each run's header record and overridable from config.
CELLULAR_TX_ENERGY = 1.0
SHORT_RANGE_TX_ENERGY = 0.2


# The stream id of each subsystem's stream.
MOBILITY_STREAM, CHANNEL_STREAM, CODING_STREAM, CRYPTO_STREAM = range(4)


# Words a stream reads ahead at a time.
_BLOCK_WORDS = 4096

# Above this population numpy's choice may take a tail shuffle instead.
CHOICE_MAX = 10_000


def _count(size) -> int:
    dims = [operator.index(d) for d in (size if type(size) is tuple else (size,))]
    if min(dims, default=0) < 0:
        raise ValueError(f"negative dimensions are not allowed: {size}")
    return math.prod(dims)


class Stream:
    """Raw words read ahead in blocks; nothing else reads the bit
    generator, so what is read ahead is never seen."""

    __slots__ = ("_bitgen", "_family", "_ahead", "_block", "_pos")

    def __init__(self, entropy):
        self._bitgen = np.random.PCG64(np.random.SeedSequence(entropy))
        self._family = None
        self._ahead: list[float] = []                 # next float last
        self._block = np.empty(0, dtype=np.uint8)     # bytes of halves
        self._pos = 0                                 # on a half boundary

    def _claim(self, family: str) -> None:
        if self._family not in (None, family):
            raise ValueError(f"this stream serves {self._family} draws")
        self._family = family

    def random(self) -> float:
        """`(w >> 11) * 2**-53` for the next word w."""
        ahead = self._ahead
        if not ahead:
            self._claim("64-bit")
            words = self._bitgen.random_raw(_BLOCK_WORDS)
            ahead = self._ahead = ((words >> 11) * 2.0 ** -53)[::-1].tolist()
        return ahead.pop()

    def floats(self, k: int) -> np.ndarray:
        """The next k `random()` draws as one float64 array."""
        out = np.empty(operator.index(k))   # k < 0 raises, drawing nothing
        self._claim("64-bit")
        ahead = self._ahead
        if k > len(ahead):
            words = self._bitgen.random_raw(max(_BLOCK_WORDS, k - len(ahead)))
            ahead[:0] = ((words >> 11) * 2.0 ** -53)[::-1].tolist()
        out[:] = ahead[:-k - 1:-1]
        del ahead[len(ahead) - k:]
        return out

    def uniform(self, low, high) -> float:
        """`low + (high - low) * random()`, with numpy's range checks."""
        low, high = float(low), float(high)
        span = high - low
        if not math.isfinite(span):
            raise OverflowError("high - low range exceeds valid bounds")
        if span < 0:
            raise ValueError("high - low < 0")
        return low + span * self.random()

    def _take(self, nbytes: int) -> np.ndarray:
        """The next `nbytes` bytes; the draw after starts on a fresh half."""
        if self._family != "32-bit":
            self._claim("32-bit")
        pos, end = self._pos, self._pos + nbytes
        if end > len(self._block):
            rest = self._block[pos:]
            words = max(_BLOCK_WORDS, (nbytes - len(rest) + 7) // 8)
            fresh = self._bitgen.random_raw(words).astype("<u8", copy=False)
            self._block = np.concatenate((rest, fresh.view(np.uint8)))
            pos, end = 0, nbytes
        self._pos = (end + 3) & ~3
        return self._block[pos:end]

    def integers(self, low, high, size, dtype) -> np.ndarray:
        """`(0, 2**32, n, np.uint64)` is the next n halves; `(0, 256, n,
        np.uint8)` the first n bytes of the next ceil(n / 4) halves, as a
        view into the block (no two draws share a byte)."""
        n = size if type(size) is int and size >= 0 else _count(size)
        if low == 0 and high == 256 and dtype is np.uint8:
            out = self._take(n)
        elif low == 0 and high == 1 << 32 and dtype is np.uint64:
            out = self._take(4 * n).view("<u4").astype(np.uint64)
        else:
            raise ValueError("only integers(0, 256, size, np.uint8) and "
                             "integers(0, 2**32, size, np.uint64) are served")
        return out.reshape(size) if type(size) is tuple else out

    def _below(self, bound: int) -> int:
        """Lemire's draw in [0, bound); bound 1 draws nothing."""
        if bound == 1:
            return 0
        threshold = (1 << 32) % bound   # the low products that would bias
        while True:
            m = int.from_bytes(self._take(4), "little") * bound
            if m & 0xFFFFFFFF >= threshold:
                return m >> 32

    def choice(self, a, size, replace=True) -> np.ndarray:
        """`choice(a, k, replace=False)`. Floyd: for j from a - k to a - 1,
        take a draw in [0, j], or j if it is taken already; then for i
        from k - 1 down to 1, swap i with a draw in [0, i]."""
        k, pop = operator.index(size), operator.index(a)
        if replace or not 0 <= k <= pop <= CHOICE_MAX:
            raise ValueError("only choice(a, k, replace=False) with "
                             f"0 <= k <= a <= {CHOICE_MAX} is served")
        self._claim("32-bit")
        picked = {}                     # an insertion-ordered set
        for j in range(pop - k, pop):
            v = self._below(j + 1)
            picked[j if v in picked else v] = None
        out = list(picked)
        for i in range(k - 1, 0, -1):
            j = self._below(i + 1)
            out[i], out[j] = out[j], out[i]
        return np.array(out, dtype=np.int64)


@dataclass(frozen=True)
class RunSeed:
    """One master seed, split into an independent stream per stream id,
    so that e.g. another crypto stream id cannot disturb the mobility or
    channel draws."""

    seed: int

    def stream(self, stream_id: int) -> Stream:
        return Stream((self.seed, stream_id))

    def mobility(self) -> Stream:
        return self.stream(MOBILITY_STREAM)

    def channel(self) -> Stream:
        return self.stream(CHANNEL_STREAM)

    def coding(self) -> Stream:
        return self.stream(CODING_STREAM)

    def crypto(self) -> Stream:
        return self.stream(CRYPTO_STREAM)


class Delivery(NamedTuple):
    receiver: int
    status: DeliveryStatus


# `tuple.__new__(Delivery, (receiver, status))` builds the same tuple as
# `Delivery(receiver, status)` at about half the cost, but checks no
# field count; `tests/test_ncc.py` pins the arity.
_new_tuple = tuple.__new__


# Reading an Enum member through its class costs ~0.1 us on Python 3.11,
# a tenth of a one-receiver transmit; the per-receiver and per-slot paths
# (here and in `ncc`) use these aliases.
_CELLULAR = LinkKind.CELLULAR
_SHORT_RANGE = LinkKind.SHORT_RANGE
_DELIVERED = DeliveryStatus.DELIVERED
_ERASED = DeliveryStatus.ERASED


def fold(terms: np.ndarray) -> float:
    """The float sum of `terms` added one by one in order, as the energy
    totals are: accumulate, unlike sum, never pairs them. It overwrites
    `terms`."""
    if not len(terms):
        return 0.0
    return float(np.add.accumulate(terms, out=terms)[-1])


class Simulator:
    """Per-link energy accounting for one session."""

    def __init__(self, cellular_tx: float, short_range_tx: float):
        self._cellular_tx = cellular_tx
        self._short_range_tx = short_range_tx
        self._cellular_energy = 0.0
        self._short_range_energy = 0.0

    def transmit(self, link: LinkKind, p_loss: float,
                 receivers: Iterable[int], rng) -> list[Delivery]:
        """Broadcast one packet to the receiver ids; returns their
        outcomes, in receiver order.

        The sender is charged one packet energy regardless of outcomes;
        each delivered receiver is charged the receive fraction. Each
        receiver's erasure is one `rng.random() < p_loss`, in receiver
        order; at `p_loss` 0 nothing is drawn.
        """
        cellular = link is _CELLULAR
        tx = self._cellular_tx if cellular else self._short_range_tx
        energy = self._cellular_energy if cellular else self._short_range_energy
        energy += tx
        rx_energy = tx * RX_ENERGY_FRACTION
        deliveries = []
        for recv in receivers:
            if p_loss > 0.0 and rng.random() < p_loss:
                status = _ERASED
            else:
                energy += rx_energy
                status = _DELIVERED
            deliveries.append(_new_tuple(Delivery, (recv, status)))
        if cellular:
            self._cellular_energy = energy
        else:
            self._short_range_energy = energy
        return deliveries

    def total_energy(self) -> float:
        # LinkKind order; the output's float bytes depend on it
        return self._cellular_energy + self._short_range_energy
