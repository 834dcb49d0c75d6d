"""t-of-n Schnorr signing over a shared master key.

The quorum's nonce is itself additively shared: every participant
contributes a random degree-(t-1) polynomial, and the joint nonce point
is the product of their constant terms' points, G**(k_1 + ... + k_t).
One constructor draws every participant's polynomial, so no round
announces a participant's point and none is computed: the joint point
is one power of G. A participant that biases the aggregate after
seeing the others' points is not modelled. Each partial signature is
then an evaluation of (joint nonce polynomial + c * sharing polynomial)
at the signer's index, so ANY t partials interpolate at zero to the
same full signature, and fewer than t constrain nothing.

A verifier sees an ordinary Schnorr signature under the master public
key; nothing reveals that a quorum produced it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .groups import Comb, GroupParams
from .shamir import (
    InsufficientSharesError,
    KeyShare,
    ShareError,
    lagrange_at,
    poly_eval,
    share_polynomial,
)


class SigningError(Exception):
    pass


class NonceReuseError(SigningError):
    pass


@dataclass(frozen=True)
class Signature:
    c: int
    z: int


@dataclass(frozen=True)
class PartialSignature:
    session_id: bytes
    index: int
    c: int
    z: int


def _hash_scalar(q: int, *parts: bytes) -> int:
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(4, "big"))
        h.update(part)
    return int.from_bytes(h.digest(), "big") % q


def challenge(params: GroupParams, R: int, Y: int, message: bytes) -> int:
    return _hash_scalar(params.q, params.element_bytes(R),
                        params.element_bytes(Y), message)


def sign_single(params: GroupParams, private: int, public: int, message: bytes,
                rng) -> Signature:
    """Ordinary one-key Schnorr signature (certificate subjects use this).
    `public` must be G**private, or `verify` rejects the signature."""
    k = params.random_scalar(rng)
    c = challenge(params, params.exp(k), public, message)
    return Signature(c, (k + c * private) % params.q)


def verify(params: GroupParams, public: int | Comb, message: bytes,
           sig: Signature) -> bool:
    """Accept iff the commitment R = G**z * y**(-c mod q) recovered from
    (c, z) rehashes to c, for a key 1 < y < p.

    `public` is the key y as an int, or a comb built from it by
    params.key_table; both give the same answer. With an int, R is a
    power of G times a pow(). With a comb, R is one squaring chain, the
    comb's, into which the generator's columns are folded.
    A key outside 1 < y < p is refused, so neither 1 (whose signatures
    anyone can make) nor y + p (a second encoding of y) passes. Whether
    y lies in the order-q subgroup is not checked.
    """
    y = public.y if isinstance(public, Comb) else public
    if not (1 < y < params.p and 0 <= sig.c < params.q and 0 <= sig.z < params.q):
        return False
    e = (params.q - sig.c) % params.q
    if isinstance(public, Comb):
        R = params.exp_times(sig.z, public, e)
    else:
        R = params.mul(params.exp(sig.z), pow(public, e, params.p))
    return challenge(params, R, y, message) == sig.c


class SigningSession:
    """One quorum, one message, one joint nonce.

    Construction draws every participant's nonce polynomial; partial_sign
    hands out each participant's contribution; combine_partials (module
    level) interpolates any t of them into the final signature.
    """

    def __init__(self, params: GroupParams, master_public: int, message: bytes,
                 quorum: Sequence[KeyShare], threshold: int, rng):
        if threshold < 1:
            raise SigningError("threshold must be at least 1")
        if len(quorum) < threshold:
            raise InsufficientSharesError(
                f"quorum of {len(quorum)} below threshold {threshold}")
        indices = [s.index for s in quorum]
        if len(set(indices)) != len(indices):
            raise ShareError("duplicate share indices in quorum")
        self.params = params
        self.message = bytes(message)
        self._shares = {s.index: s for s in quorum}

        # every participant shares its own nonce polynomial
        q = params.q
        self._nonce_polys = {
            s.index: share_polynomial(params.random_scalar(rng), threshold, q, rng)
            for s in quorum
        }
        # G has order q, so the product of the points G**k_i is one power
        R = params.exp(sum(poly[0] for poly in self._nonce_polys.values()))
        self.c = challenge(params, R, master_public, self.message)
        self.session_id = hashlib.sha256(
            params.element_bytes(R) + params.element_bytes(master_public)
            + self.message).digest()

    def _nonce_eval(self, index: int) -> int:
        return sum(poly_eval(poly, index, self.params.q)
                   for poly in self._nonce_polys.values()) % self.params.q

    def partial_sign(self, share: KeyShare,
                     message: Optional[bytes] = None) -> PartialSignature:
        """Participant's contribution; refuses any message other than the
        session's (same-nonce signing of two messages leaks the share)."""
        if message is not None and bytes(message) != self.message:
            raise NonceReuseError(
                f"session nonce is bound to another message (index {share.index})")
        known = self._shares.get(share.index)
        if known is None:
            raise SigningError(f"index {share.index} is not in this quorum")
        if known.value != share.value:
            raise SigningError(f"share value mismatch for index {share.index}")
        z = (self._nonce_eval(share.index) + self.c * share.value) % self.params.q
        return PartialSignature(self.session_id, share.index, self.c, z)

    def partials(self) -> list[PartialSignature]:
        return [self.partial_sign(s) for s in self._shares.values()]


def combine_partials(partials: Sequence[PartialSignature], threshold: int,
                     params: GroupParams) -> Signature:
    """Lagrange-interpolate partials at zero into the full signature.

    Any t-subset of a session's partials yields the same (c, z): the
    partials are evaluations of one degree-(t-1) polynomial.
    """
    if not partials:
        raise InsufficientSharesError("no partial signatures given")
    sessions = {p.session_id for p in partials}
    if len(sessions) != 1:
        raise SigningError("partials from mixed signing sessions")
    indices = [p.index for p in partials]
    if len(set(indices)) < threshold:
        raise InsufficientSharesError(
            f"{len(set(indices))} distinct partials below threshold {threshold}")
    c = partials[0].c
    z = lagrange_at([(p.index, p.z) for p in partials], 0, params.q)
    return Signature(c, z)
