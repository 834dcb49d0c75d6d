"""Fully-distributed threshold key management.

Submodules: groups (Schnorr-group algebra, built-in groups, key pairs),
shamir (threshold sharing), threshold (quorum signatures), credentials
(proxy credentials and self-generated certificates), service (roster,
quorum selection, share issuance, service counts, fairness audit).
"""

from .credentials import (
    Certificate,
    CredentialError,
    ProxyCredential,
    Warrant,
    generate_keypair,
    self_generate_certificate,
    verify_certificate,
    verify_credential,
)
from .groups import (
    DEMO_GROUP,
    TOY_GROUP,
    GroupError,
    GroupParams,
    KeyPair,
    group_2048,
    is_probable_prime,
)
from .service import (
    KMService,
    RosterError,
    Shareholder,
)
from .shamir import (
    InsufficientSharesError,
    KeyShare,
    KMConfig,
    ShareError,
    lagrange_at,
    poly_eval,
    setup,
    share_polynomial,
)
from .threshold import (
    NonceReuseError,
    PartialSignature,
    Signature,
    SigningError,
    SigningSession,
    challenge,
    combine_partials,
    sign_single,
    verify,
)

__all__ = [name for name in dir() if not name.startswith("_")]
