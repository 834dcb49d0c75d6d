"""Distributed trusted-third-party service over the shareholder roster.

Every operation that needs the master key runs as a t-of-n quorum:
credential requests are threshold-signed, and share issuance for a
joining node is computed as a blinded sum of Lagrange-weighted share
contributions, so the joining node learns exactly f(x_new) and nothing
about any server's own share. The roster is the single replicated
record of who holds which index; joining nodes are appended to it, so
the shareholder set grows with the network. The service keeps no blind,
and of each quorum only a count per member (`served`).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from .credentials import (
    CredentialError,
    ProxyCredential,
    Warrant,
    credential_body,
    verify_credential,
)
from .groups import GroupParams, rand_below
from .shamir import KMConfig, KeyShare, lagrange_weight, setup
from .threshold import SigningSession, combine_partials, verify


class RosterError(Exception):
    pass


@dataclass
class Shareholder:
    node_id: int
    share: KeyShare


class KMService:
    """Shared-roster view of the distributed authority.

    Holds only the master PUBLIC key; the private key exists nowhere
    after bootstrap, it is implied by the shares in the roster. Every
    credential is checked against that key, so the service builds its
    key table (`master_key`) once, here.
    """

    def __init__(self, params: GroupParams, master_public: int, threshold: int, rng):
        self.params = params
        self.master_public = master_public
        self.master_key = params.key_table(master_public)
        self.threshold = threshold
        self.rng = rng
        self.roster: dict[int, Shareholder] = {}
        # node id -> successful credentials and share issues it served in
        self.served: Counter[int] = Counter()
        self._next_index = 1

    @classmethod
    def bootstrap(cls, config: KMConfig, params: GroupParams, rng,
                  node_ids: Sequence[int]) -> "KMService":
        """Initial dealing; the dealt private key goes out of scope here."""
        node_ids = list(node_ids)
        if len(node_ids) != config.n:
            raise RosterError(f"need {config.n} node ids, got {len(node_ids)}")
        if len(set(node_ids)) != len(node_ids):
            raise RosterError("duplicate node ids")
        master, shares = setup(config, params, rng)
        service = cls(params, master.public, config.t, rng)
        for node_id, share in zip(node_ids, shares):
            service.roster[node_id] = Shareholder(node_id, share)
        service._next_index = config.n + 1
        return service

    # --- roster ------------------------------------------------------

    def _quorum(self) -> list[Shareholder]:
        """Uniformly random t-subset of the roster, in node id order."""
        servers = [h for _, h in sorted(self.roster.items())]
        picks = self.rng.choice(len(servers), size=self.threshold, replace=False)
        return [servers[i] for i in sorted(picks)]

    # --- credential issuance ------------------------------------------

    def request_credential(self, requester_id, requester_public: int,
                           warrant: Warrant) -> ProxyCredential:
        """Threshold-sign a credential for the requester's key, which must
        lie in 1 < y < p (whether it is in the subgroup is not checked)."""
        if not 1 < requester_public < self.params.p:
            raise CredentialError("requester key outside 1 < y < p")
        quorum = self._quorum()
        body = credential_body(requester_id, requester_public, warrant)
        session = SigningSession(self.params, self.master_public, body,
                                 [h.share for h in quorum], self.threshold, self.rng)
        sig = combine_partials(session.partials(), self.threshold, self.params)
        cred = ProxyCredential(requester_id, requester_public, warrant, sig)
        if not verify(self.params, self.master_key, body, sig):
            raise CredentialError("quorum produced an invalid signature")
        self.served.update(h.node_id for h in quorum)
        return cred

    # --- share issuance -------------------------------------------------

    def issue_share(self, joining_id: int, credential: ProxyCredential) -> KeyShare:
        """Blinded quorum evaluation of the sharing polynomial at a fresh
        index; the joining node becomes a shareholder."""
        if joining_id in self.roster:
            raise RosterError(f"node {joining_id} already holds a share")
        if credential.holder_id != joining_id:
            raise RosterError("credential names a different node")
        if not verify_credential(credential, self.master_key, self.params):
            raise RosterError("invalid credential")
        x_new = self._next_index
        if x_new >= self.params.q:
            raise RosterError("share index space exhausted for this group")
        quorum = self._quorum()

        q = self.params.q
        indices = [h.share.index for h in quorum]
        # each server's Lagrange term, masked by one zero-sum blind per
        # pair (a adds r, b subtracts r); no blind is kept
        masked = {h.node_id: lagrange_weight(indices, h.share.index, x_new, q)
                  * h.share.value % q for h in quorum}
        ids = [h.node_id for h in quorum]
        for i, a in enumerate(ids):
            for b in ids[i + 1:]:
                r = rand_below(self.rng, q)
                masked[a] = (masked[a] + r) % q
                masked[b] = (masked[b] - r) % q
        value = sum(masked.values()) % q

        share = KeyShare(x_new, value)
        self.roster[joining_id] = Shareholder(joining_id, share)
        self._next_index += 1
        self.served.update(ids)
        return share

    # --- audit ---------------------------------------------------------

    def fairness_audit(self) -> dict:
        """Service counts per shareholder plus a dispersion statistic."""
        counts = {node_id: self.served[node_id] for node_id in self.roster}
        values = list(counts.values())
        mean = sum(values) / len(values) if values else 0.0
        ratio = max(values) / mean if mean > 0 else 1.0
        return {
            "counts": counts,
            "mean": mean,
            "max_mean_ratio": ratio,
            "never_served": sorted(n for n, c in counts.items() if c == 0),
        }
