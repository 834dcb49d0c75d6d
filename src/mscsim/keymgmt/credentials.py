"""Proxy credentials and self-generated certificates.

A quorum of shareholders threshold-signs a credential binding a node's
identity to its long-term public key and a warrant. From then on the
node mints its own certificates locally (zero network traffic) by
signing fresh certificate keys with the credentialed key, and any peer
verifies the whole chain knowing only the master public key.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Union

from .groups import Comb, GroupParams, KeyPair
from .threshold import Signature, sign_single, verify


class CredentialError(Exception):
    pass


Identity = Union[int, str]


def is_identity(value) -> bool:
    """A str or an int >= 0 (not a bool): an id that `pack` can encode."""
    return isinstance(value, str) or (type(value) is int and value >= 0)


def pack(*items) -> bytes:
    """Canonical tagged, length-prefixed encoding of the signed fields."""
    out = bytearray()
    for item in items:
        if isinstance(item, bool):
            raise TypeError("ambiguous bool in signed body")
        if isinstance(item, int):
            raw = item.to_bytes((item.bit_length() + 7) // 8, "big")
            tag = b"i"
        elif isinstance(item, float):
            raw = struct.pack(">d", item)
            tag = b"f"
        elif isinstance(item, str):
            raw = item.encode()
            tag = b"s"
        elif isinstance(item, bytes):
            raw = item
            tag = b"b"
        elif isinstance(item, (tuple, list)):
            raw = pack(*item)
            tag = b"t"
        else:
            raise TypeError(f"cannot pack {type(item).__name__}")
        out += tag + len(raw).to_bytes(4, "big") + raw
    return bytes(out)


def generate_keypair(params: GroupParams, rng) -> KeyPair:
    x = params.random_scalar(rng)
    return KeyPair(x, params.exp(x))


@dataclass(frozen=True)
class Warrant:
    valid_from: float
    valid_to: float
    permissions: tuple[str, ...] = ("sign-certificates",)

    def __post_init__(self):
        if self.valid_to < self.valid_from:
            raise CredentialError("warrant expires before it begins")
        object.__setattr__(self, "permissions", tuple(self.permissions))


def credential_body(holder_id: Identity, holder_public: int, warrant: Warrant) -> bytes:
    return pack("proxy-credential", holder_id, holder_public,
                warrant.valid_from, warrant.valid_to, warrant.permissions)


@dataclass(frozen=True)
class ProxyCredential:
    holder_id: Identity
    holder_public: int
    warrant: Warrant
    signature: Signature

    def body(self) -> bytes:
        return credential_body(self.holder_id, self.holder_public, self.warrant)


def verify_credential(cred: ProxyCredential, master_public: int | Comb,
                      params: GroupParams) -> bool:
    """Refuses what no service certifies and `pack` may not encode: a
    holder key outside 1 < y < p, or a holder id that is no identity."""
    if not (is_identity(cred.holder_id) and 1 < cred.holder_public < params.p):
        return False
    return verify(params, master_public, cred.body(), cred.signature)


@dataclass(frozen=True)
class Certificate:
    subject_id: Identity
    subject_public: int        # per-certificate key, fresh at each mint
    issued_at: float
    expires_at: float
    credential: ProxyCredential

    signature: Signature       # by the credentialed holder key

    def body(self) -> bytes:
        return pack("certificate", self.subject_id, self.subject_public,
                    self.issued_at, self.expires_at, self.credential.body(),
                    self.credential.signature.c, self.credential.signature.z)


def self_generate_certificate(credential: ProxyCredential, holder_keys: KeyPair,
                              subject_keys: KeyPair, issued_at: float,
                              expires_at: float, params: GroupParams,
                              rng) -> Certificate:
    """Mint a certificate locally; no server involvement at all."""
    if expires_at < issued_at:
        raise CredentialError("certificate expiry before issue time")
    if holder_keys.public != credential.holder_public:
        raise CredentialError("holder key does not match the credential")
    if not is_identity(credential.holder_id):
        raise CredentialError(f"holder id {credential.holder_id!r} is no "
                              f"identity")
    if not credential.warrant.valid_from <= issued_at <= credential.warrant.valid_to:
        raise CredentialError("credential expired (or not yet valid)")
    draft = Certificate(credential.holder_id, subject_keys.public, issued_at,
                        expires_at, credential,
                        signature=Signature(0, 0))
    sig = sign_single(params, holder_keys.private, holder_keys.public,
                      draft.body(), rng)
    return Certificate(draft.subject_id, draft.subject_public, draft.issued_at,
                       draft.expires_at, draft.credential, sig)


def verify_certificate(cert: Certificate, master_public: int | Comb, now: float,
                       params: GroupParams) -> tuple[bool, str]:
    """Both signature layers plus freshness; reason names the first failure.
    `master_public` is an int or its key table, as for threshold.verify."""
    if not verify_credential(cert.credential, master_public, params):
        return False, "bad-credential"
    if not (is_identity(cert.subject_id) and 1 < cert.subject_public < params.p):
        return False, "bad-subject-signature"
    if not verify(params, cert.credential.holder_public, cert.body(), cert.signature):
        return False, "bad-subject-signature"
    if not cert.issued_at <= now <= cert.expires_at:
        return False, "expired"
    return True, "ok"
