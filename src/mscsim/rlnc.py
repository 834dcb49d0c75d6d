"""Random linear network coding over GF(2^8).

A generation is a fixed block of g source packets of equal length L.
Coded packets carry a g-element coefficient vector plus the combined
payload. The decoder keeps its received rows in reduced echelon form so
rank queries and final decoding are immediate; recoding draws a fresh
random combination of whatever a node currently holds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gf256 import INV_TABLE, mul_rows, vec_scale


class CodingError(Exception):
    """Raised on contract violations in the coding layer."""


class NotDecodableError(CodingError):
    """Decode requested before the generation reached full rank."""


@dataclass(frozen=True)
class SourcePacket:
    index: int
    payload: np.ndarray  # uint8, length L

    def __post_init__(self):
        object.__setattr__(self, "payload", np.asarray(self.payload, dtype=np.uint8))


@dataclass
class Generation:
    """g source packets coded together, indexed 0..g-1."""

    id: int
    packets: list[SourcePacket]

    def __post_init__(self):
        if not self.packets:
            raise CodingError("generation must contain at least one packet")
        if [p.index for p in self.packets] != list(range(len(self.packets))):
            raise CodingError("packets must be indexed 0..g-1 without gaps")
        lengths = {len(p.payload) for p in self.packets}
        if len(lengths) != 1:
            raise CodingError("all packets in a generation share one length")

    @property
    def size(self) -> int:
        return len(self.packets)

    @property
    def payload_len(self) -> int:
        return len(self.packets[0].payload)

    def payload_matrix(self) -> np.ndarray:
        cached = getattr(self, "_matrix", None)
        if cached is None:
            cached = np.stack([p.payload for p in self.packets])
            self._matrix = cached
        return cached

    @classmethod
    def random(cls, gen_id: int, size: int, payload_len: int, rng) -> "Generation":
        data = rng.integers(0, 256, size=(size, payload_len), dtype=np.uint8)
        return cls(gen_id, [SourcePacket(i, data[i]) for i in range(size)])


@dataclass(frozen=True)
class CodedPacket:
    generation_id: int
    coeffs: np.ndarray   # uint8, length g
    payload: np.ndarray  # uint8, length L

    def __post_init__(self):
        object.__setattr__(self, "coeffs", np.asarray(self.coeffs, dtype=np.uint8))
        object.__setattr__(self, "payload", np.asarray(self.payload, dtype=np.uint8))


def draw_coeffs(rng, g: int) -> np.ndarray:
    """g independent uniform coefficient draws (the zero vector is allowed)."""
    return rng.integers(0, 256, size=g, dtype=np.uint8)


def encode(gen: Generation, coeffs: np.ndarray) -> CodedPacket:
    """Coefficient-weighted combination of the generation's source payloads."""
    coeffs = np.asarray(coeffs, dtype=np.uint8)
    if coeffs.shape != (gen.size,):
        raise CodingError(f"need {gen.size} coefficients, got {coeffs.shape}")
    payload = np.bitwise_xor.reduce(mul_rows(coeffs, gen.payload_matrix()), axis=0)
    return CodedPacket(gen.id, coeffs, payload)


def _combine(rows: np.ndarray, g: int, rng) -> np.ndarray:
    """Random combination of rows, redrawn while the coefficient part is zero.

    A dead (all-zero) packet wastes a transmission slot, so weights are
    redrawn a few times; if the rows themselves span nothing the zero row
    comes back unchanged.
    """
    for _ in range(16):
        weights = rng.integers(0, 256, size=rows.shape[0], dtype=np.uint8)
        out = np.bitwise_xor.reduce(mul_rows(weights, rows), axis=0)
        if out[:g].any():
            return out
    return out


def recode(received: list[CodedPacket], rng) -> CodedPacket:
    """Random GF-linear combination of already-coded packets.

    All inputs must belong to one generation; the output lies in their
    span, so it can never be innovative to a decoder that holds them all.
    """
    if not received:
        raise CodingError("cannot recode an empty packet list")
    gen_ids = {p.generation_id for p in received}
    if len(gen_ids) != 1:
        raise CodingError(f"mixed generations in recode: {sorted(gen_ids)}")
    g = len(received[0].coeffs)
    rows = np.stack([np.concatenate([p.coeffs, p.payload]) for p in received])
    out = _combine(rows, g, rng)
    return CodedPacket(received[0].generation_id, out[:g], out[g:])


class DecoderState:
    """Per-generation decoder: progressive Gauss-Jordan elimination.

    Rows (coefficients | payload) are kept in reduced echelon form,
    sorted by pivot, with pivots restricted to the coefficient columns.
    An incoming packet therefore needs two passes of the GF(2^8) row
    kernel ``mul_rows``, each a single batched gather rather than a
    sequential sweep: elimination scales every held row by the packet's
    entry in that row's pivot column and XORs the sum into the packet;
    back-substitution scales the normalized packet by each held row's
    entry in the new pivot column and XORs it into those rows. A pass
    whose factors are all zero is skipped, which is the common case for
    unit-vector packets.
    """

    def __init__(self, generation_id: int, size: int, payload_len: int):
        self.generation_id = generation_id
        self.size = size
        self.payload_len = payload_len
        # rank can never exceed g, so rows live in a preallocated buffer
        self._buf = np.zeros((size, size + payload_len), dtype=np.uint8)
        self._piv = np.zeros(size, dtype=np.int64)
        self._rank = 0

    @property
    def rank(self) -> int:
        return self._rank

    @property
    def decodable(self) -> bool:
        return self._rank == self.size

    def coefficient_matrix(self) -> np.ndarray:
        return self._buf[: self._rank, : self.size].copy()

    def ingest(self, pkt: CodedPacket) -> bool:
        """Absorb a coded packet; True iff it increased the rank."""
        if pkt.generation_id != self.generation_id:
            raise CodingError(
                f"generation mismatch: decoder {self.generation_id}, packet {pkt.generation_id}"
            )
        r = self._rank
        if r == self.size:
            return False
        row = np.concatenate([pkt.coeffs, pkt.payload])
        held = self._buf[:r]
        if r:
            # Existing rows are reduced, so their pivot columns are zero in
            # every other row; one pass eliminates all of them at once.
            factors = row[self._piv[:r]]
            if factors.any():
                row ^= np.bitwise_xor.reduce(mul_rows(factors, held), axis=0)
        pivot = int((row[: self.size] != 0).argmax())
        lead = row[pivot]
        if lead == 0:
            return False
        if lead != 1:
            row = vec_scale(INV_TABLE[lead], row)
        if r:
            col = held[:, pivot]
            if col.any():
                held ^= mul_rows(col, row)
        pos = int(np.searchsorted(self._piv[:r], pivot))
        if pos < r:
            # overlapping slice assignment is safe: numpy buffers it
            self._buf[pos + 1 : r + 1] = self._buf[pos:r]
            self._piv[pos + 1 : r + 1] = self._piv[pos:r]
        self._buf[pos] = row
        self._piv[pos] = pivot
        self._rank = r + 1
        return True

    def recode(self, rng) -> CodedPacket:
        """Random combination of everything held (span-equivalent to
        recoding the raw received packets)."""
        if self._rank == 0:
            raise CodingError("nothing held, cannot recode")
        out = _combine(self._buf[: self._rank], self.size, rng)
        return CodedPacket(self.generation_id, out[: self.size], out[self.size:])

    def decode(self) -> list[SourcePacket]:
        """Return the original source packets; requires full rank."""
        if self._rank < self.size:
            raise NotDecodableError(f"rank {self._rank} of {self.size}")
        # Full-rank reduced form is the identity, so payload rows are the
        # source payloads in index order.
        return [SourcePacket(i, self._buf[i, self.size:].copy()) for i in range(self.size)]
