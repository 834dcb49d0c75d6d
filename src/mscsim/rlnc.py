"""Random linear network coding over GF(2^8).

A generation is a fixed block of g source packets of equal length L.
Coded packets carry a g-element coefficient vector plus the combined
payload. Recoding draws a fresh random combination of whatever a node
currently holds.

The decoder keeps its rows in reduced row echelon form (RREF), so rank
queries and final decoding are immediate. Restricted to its pivot
columns, an RREF is the identity, and multiplying by it is wasted work.
The decoder therefore stores its coefficient columns permuted, pivot
columns first, and runs elimination, back-substitution and recoding
only over the columns after that identity block: r * (g + L - r)
products per pass at rank r instead of r * (g + L). The other columns
keep their original order, so the pivot found for each packet, the
RREF, the recode weights (drawn for the rows in pivot order) and every
output byte are the same as for a decoder that stores the RREF as is.
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


class DecoderState:
    """Per-generation decoder: progressive Gauss-Jordan elimination.

    The held rows (coefficients | payload) span the same space as the
    reduced row echelon form over the coefficient columns, but their
    coefficient columns are kept permuted so that the pivot columns come
    first: ``_buf[:r, :r]`` is the identity and buffer column j holds
    original column ``_perm[j]``. Buffer row i is the row whose pivot is
    ``_perm[i]``, in the order the pivots were found. The non-pivot
    columns ``_perm[r:g]`` stay in ascending original order, and payload
    columns never move.

    An incoming packet is permuted the same way. Its entries in the first
    r columns are then exactly the elimination factors, and one pass of
    the GF(2^8) row kernel ``mul_rows`` over ``_buf[:r, r:]`` clears them
    (the identity block is never multiplied). Because the remaining
    columns are in original order, the first nonzero among them is the
    same pivot a sorted RREF decoder would choose. Back-substitution
    likewise touches only ``_buf[:r, r:]``, and the new pivot column is
    rotated into position r.

    Buffer rows at and after the rank are scratch. An incoming packet is
    written into the free row r, from column r on, and reduced and scaled
    there, so an innovative packet is already in place; a non-innovative
    one leaves bytes that the next packet overwrites. No write ever
    reaches the columns of row i before column i, so they stay zero.

    ``coefficient_matrix`` and ``decode`` undo the permutation, and
    ``recode`` draws its weights for the rows in pivot order, so every
    result and every random draw is the same as for a decoder that keeps
    the sorted RREF rows explicitly.
    """

    def __init__(self, generation_id: int, size: int, payload_len: int):
        self.generation_id = generation_id
        self.size = size
        self.payload_len = payload_len
        # rank can never exceed g, so rows live in a preallocated buffer
        self._buf = np.zeros((size, size + payload_len), dtype=np.uint8)
        self._perm = np.arange(size)
        # while no pivot column has been rotated, _perm is the identity
        # and incoming packets need no permutation
        self._permuted = False
        self._rank = 0

    @property
    def rank(self) -> int:
        return self._rank

    @property
    def decodable(self) -> bool:
        return self._rank == self.size

    def _pivot_order(self) -> np.ndarray:
        """Buffer row indices sorted by their pivot's original column."""
        return np.argsort(self._perm[: self._rank])

    def coefficient_matrix(self) -> np.ndarray:
        """The held coefficient rows as a pivot-sorted RREF."""
        r, g = self._rank, self.size
        out = np.empty((r, g), dtype=np.uint8)
        out[:, self._perm] = self._buf[:r, :g]
        return out[self._pivot_order()]

    def ingest(self, pkt: CodedPacket) -> bool:
        """Absorb a coded packet; True iff it increased the rank."""
        if pkt.generation_id != self.generation_id:
            raise CodingError(
                f"generation mismatch: decoder {self.generation_id}, packet {pkt.generation_id}"
            )
        r, g = self._rank, self.size
        if pkt.coeffs.shape != (g,) or pkt.payload.shape != (self.payload_len,):
            raise CodingError(f"packet shape {pkt.coeffs.shape} + {pkt.payload.shape}, "
                              f"decoder expects ({g},) + ({self.payload_len},)")
        if r == g:
            return False
        coeffs = pkt.coeffs.take(self._perm) if self._permuted else pkt.coeffs
        # the packet without its first r (pivot) columns, in buffer layout,
        # goes straight into the free row r
        buf = self._buf
        row = buf[r]
        row[r:g] = coeffs[r:]
        row[g:] = pkt.payload
        tail = row[r:]
        held = buf[:r]
        if r:
            # Held rows are the identity on the pivot columns, so the
            # packet's entries there are the elimination factors and one
            # pass over the other columns clears all of them.
            tail ^= np.bitwise_xor.reduce(mul_rows(coeffs[:r], held[:, r:]), axis=0)
        nonzero = tail[: g - r].nonzero()[0]
        if not len(nonzero):
            return False
        off = int(nonzero[0])
        c = r + off
        # entries before the pivot are zero, so only the pivot (scaled
        # to 1) and what follows it are back-substituted
        rest = row[c:]
        lead = rest[0]
        if lead != 1:
            vec_scale(INV_TABLE[lead], rest, out=rest)
        if r:
            right = held[:, c:]
            np.bitwise_xor(right, mul_rows(held[:, c], rest), out=right)
            if off:
                # rotate the pivot column, zero in every held row now,
                # to position r
                held[:, r + 1: c + 1] = held[:, r:c]
                held[:, r] = 0
        if off:
            row[c] = 0
            row[r] = 1
            perm = self._perm
            pivot = perm[c]
            perm[r + 1: c + 1] = perm[r:c]
            perm[r] = pivot
            self._permuted = True
        self._rank = r + 1
        return True

    def recode(self, rng) -> CodedPacket:
        """Random combination of everything held (span-equivalent to
        recoding the raw received packets).

        Draws one weight per held row, the rows taken in pivot order, and
        redraws while every weight is zero, at most 16 draws in all; after
        16 zero draws it returns the zero packet. The rows are independent,
        so the combination is zero only when every weight is; its
        coefficients on the pivot columns are the weights themselves and
        need no multiplication.
        """
        r, g = self._rank, self.size
        if r == 0:
            raise CodingError("nothing held, cannot recode")
        for _ in range(16):
            weights = rng.integers(0, 256, size=r, dtype=np.uint8)
            if np.count_nonzero(weights):
                break
        else:
            return CodedPacket(self.generation_id, np.zeros(g, dtype=np.uint8),
                               np.zeros(self.payload_len, dtype=np.uint8))
        # weights[k] belongs to the row with the k-th smallest pivot:
        # place each on its pivot column, then read them back in buffer
        # row order
        perm = self._perm
        coeffs = np.empty(g, dtype=np.uint8)
        coeffs[np.sort(perm[:r])] = weights
        weights = coeffs.take(perm[:r])
        tail = np.bitwise_xor.reduce(mul_rows(weights, self._buf[:r, r:]), axis=0)
        coeffs[perm[r:]] = tail[: g - r]
        return CodedPacket(self.generation_id, coeffs, tail[g - r:])

    def decode(self) -> list[SourcePacket]:
        """Return the original source packets; requires full rank."""
        g = self.size
        if self._rank < g:
            raise NotDecodableError(f"rank {self._rank} of {g}")
        # At full rank the held coefficients are the identity, so buffer
        # row i carries source packet _perm[i].
        return [SourcePacket(i, self._buf[j, g:].copy())
                for i, j in enumerate(self._pivot_order())]
