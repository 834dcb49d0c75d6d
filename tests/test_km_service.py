"""Distributed authority end to end: credentials, certificates, share
issuance, fairness.

Scale checks (thirteen shareholders, threshold three) run on the 512-bit
demo group; hand-computed value checks use the toy group, whose sharing
field Z_11 is small enough to evaluate by hand.
"""

import dataclasses
from dataclasses import replace

import numpy as np
import pytest

from mscsim.config import parse_config
from mscsim.keymgmt import (
    CredentialError,
    DEMO_GROUP,
    KMConfig,
    KMService,
    KeyShare,
    RosterError,
    SigningSession,
    TOY_GROUP,
    Warrant,
    combine_partials,
    generate_keypair,
    self_generate_certificate,
    verify_certificate,
    verify_credential,
)
from mscsim.keymgmt import service, threshold
from mscsim.keymgmt.credentials import Certificate, credential_body
from mscsim.keymgmt.groups import Comb, GroupParams
from mscsim.keymgmt.service import Shareholder
from mscsim.runner import run
from reference import reconstruct
from test_golden import HO_2048

WARRANT = Warrant(0.0, 1000.0)


def reachable_ints(root):
    """Every int reachable from root through dicts, lists, tuples, sets
    and dataclass fields."""
    found, seen, stack = set(), set(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, int):
            found.add(obj)
        elif isinstance(obj, dict):
            stack += [*obj.keys(), *obj.values()]
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack += obj
        elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
            stack += [getattr(obj, f.name) for f in dataclasses.fields(obj)]
    return found


def demo_service(seed=11, n=13, t=3):
    rng = np.random.default_rng(seed)
    svc = KMService.bootstrap(KMConfig(n, t), DEMO_GROUP, rng,
                              node_ids=range(100, 100 + n))
    return svc, rng


def enroll(svc, node_id, rng):
    """Credential request followed by a locally minted certificate."""
    holder = generate_keypair(svc.params, rng)
    cred = svc.request_credential(node_id, holder.public, WARRANT)
    subject = generate_keypair(svc.params, rng)
    cert = self_generate_certificate(cred, holder, subject, issued_at=1.0,
                                     expires_at=500.0, params=svc.params, rng=rng)
    return holder, cred, subject, cert


class TestCredentialIssuance:
    def test_quorum_signs_a_verifying_credential(self):
        svc, rng = demo_service()
        keys = generate_keypair(DEMO_GROUP, rng)
        cred = svc.request_credential(7, keys.public, WARRANT)
        assert verify_credential(cred, svc.master_public, DEMO_GROUP)
        # one count for each of the three quorum members
        assert len(svc.served) == 3
        assert set(svc.served.values()) == {1}
        assert all(n in svc.roster for n in svc.served)

    def test_three_requesters_served_by_thirteen_shareholders(self):
        svc, rng = demo_service()
        for node in (1, 2, 3):
            _, cred, _, cert = enroll(svc, node, rng)
            assert verify_credential(cred, svc.master_public, DEMO_GROUP)
            assert verify_certificate(cert, svc.master_public, 10.0,
                                      DEMO_GROUP) == (True, "ok")

    def test_credential_bound_to_one_authority(self):
        svc_a, rng = demo_service(seed=21)
        svc_b, _ = demo_service(seed=22)
        keys = generate_keypair(DEMO_GROUP, rng)
        cred = svc_a.request_credential(5, keys.public, WARRANT)
        assert verify_credential(cred, svc_a.master_public, DEMO_GROUP)
        assert not verify_credential(cred, svc_b.master_public, DEMO_GROUP)

    @pytest.mark.parametrize("key", ["0", "1", "p", "g + p", "-g"])
    def test_a_key_outside_one_and_p_gets_no_credential(self, key):
        svc, _ = demo_service()
        p, g = DEMO_GROUP.p, DEMO_GROUP.g
        public = {"0": 0, "1": 1, "p": p, "g + p": g + p, "-g": -g}[key]
        with pytest.raises(CredentialError, match="outside 1 < y < p"):
            svc.request_credential(7, public, WARRANT)
        assert not svc.served       # refused before any quorum is drawn

    @pytest.mark.parametrize("requester", [-7, -1, True, False, 7.0, b"7",
                                           None], ids=repr)
    def test_an_id_that_is_no_identity_gets_no_credential(self, requester):
        """An identity is a str or an int >= 0: `pack` has no encoding for
        a negative int and refuses a bool."""
        svc, rng = demo_service()
        keys = generate_keypair(DEMO_GROUP, rng)
        with pytest.raises(CredentialError, match="is no identity"):
            svc.request_credential(requester, keys.public, WARRANT)
        assert not svc.served

    @pytest.mark.parametrize("requester", [0, "ue-7"])
    def test_a_str_or_an_int_from_zero_is_an_identity(self, requester):
        svc, rng = demo_service()
        _, cred, _, cert = enroll(svc, requester, rng)
        assert cred.holder_id == cert.subject_id == requester
        assert verify_certificate(cert, svc.master_public, 10.0,
                                  DEMO_GROUP) == (True, "ok")


class TestCertificates:
    def test_minting_is_local(self):
        # no service count moves: the authority never hears about it
        svc, rng = demo_service()
        holder = generate_keypair(DEMO_GROUP, rng)
        cred = svc.request_credential(9, holder.public, WARRANT)
        before = dict(svc.served)
        for _ in range(5):
            subject = generate_keypair(DEMO_GROUP, rng)
            cert = self_generate_certificate(cred, holder, subject, 1.0, 500.0,
                                             DEMO_GROUP, rng)
            assert verify_certificate(cert, svc.master_public, 2.0,
                                      DEMO_GROUP) == (True, "ok")
        assert svc.served == before

    def test_each_certificate_uses_a_fresh_subject_key(self):
        svc, rng = demo_service()
        holder = generate_keypair(DEMO_GROUP, rng)
        cred = svc.request_credential(9, holder.public, WARRANT)
        subjects = set()
        for _ in range(4):
            subject = generate_keypair(DEMO_GROUP, rng)
            cert = self_generate_certificate(cred, holder, subject, 1.0, 500.0,
                                             DEMO_GROUP, rng)
            subjects.add(cert.subject_public)
            assert cert.subject_public != holder.public
        assert len(subjects) == 4

    def test_mint_rejects_bad_windows_and_wrong_keys(self):
        svc, rng = demo_service()
        holder = generate_keypair(DEMO_GROUP, rng)
        cred = svc.request_credential(9, holder.public, WARRANT)
        subject = generate_keypair(DEMO_GROUP, rng)
        with pytest.raises(CredentialError, match="expiry before issue"):
            self_generate_certificate(cred, holder, subject, 10.0, 5.0,
                                      DEMO_GROUP, rng)
        with pytest.raises(CredentialError, match="expired"):
            self_generate_certificate(cred, holder, subject, 2000.0, 3000.0,
                                      DEMO_GROUP, rng)
        other = generate_keypair(DEMO_GROUP, rng)
        with pytest.raises(CredentialError, match="does not match"):
            self_generate_certificate(cred, other, subject, 1.0, 500.0,
                                      DEMO_GROUP, rng)

    def test_verification_reasons(self):
        svc, rng = demo_service()
        _, cred, _, cert = enroll(svc, 9, rng)
        assert verify_certificate(cert, svc.master_public, 600.0,
                                  DEMO_GROUP) == (False, "expired")
        assert verify_certificate(cert, svc.master_public, 0.5,
                                  DEMO_GROUP) == (False, "expired")

        # body altered after signing: the holder signature no longer covers it
        stretched = Certificate(cert.subject_id, cert.subject_public,
                                cert.issued_at, cert.expires_at + 100.0,
                                cert.credential, cert.signature)
        assert verify_certificate(stretched, svc.master_public, 10.0,
                                  DEMO_GROUP) == (False, "bad-subject-signature")

        # certificate chained to a different authority's credential
        other_svc, other_rng = demo_service(seed=33)
        _, _, _, foreign = enroll(other_svc, 9, other_rng)
        assert verify_certificate(foreign, svc.master_public, 10.0,
                                  DEMO_GROUP) == (False, "bad-credential")

    @pytest.mark.parametrize("subject_id, issued_at, permissions, reason", [
        (7, 5.0, ("sign-certificates",), "ok"),
        (99, 5.0, ("sign-certificates",), "subject-not-holder"),
        (7, 500.0, ("sign-certificates",), "issued-outside-warrant"),
        (7, -1.0, ("sign-certificates",), "issued-outside-warrant"),
        (7, 5.0, (), "not-permitted"),
        (99, 500.0, (), "subject-not-holder"),
    ], ids=["inside", "another-subject", "issued-after", "issued-before",
            "no-permission", "all-three"])
    def test_a_certificate_verifies_only_inside_its_warrant(
            self, subject_id, issued_at, permissions, reason):
        """A holder that signs a certificate itself, with `sign_single`,
        gets none past the rules `self_generate_certificate` applies."""
        svc, rng = demo_service()
        holder = generate_keypair(DEMO_GROUP, rng)
        cred = svc.request_credential(7, holder.public,
                                      Warrant(0.0, 10.0, permissions))
        subject = generate_keypair(DEMO_GROUP, rng)
        draft = Certificate(subject_id, subject.public, issued_at,
                            issued_at + 100.0, cred, threshold.Signature(0, 0))
        cert = replace(draft, signature=threshold.sign_single(
            DEMO_GROUP, holder.private, holder.public, draft.body(), rng))
        for master in (svc.master_public, svc.master_key):
            assert verify_certificate(cert, master, issued_at + 50.0,
                                      DEMO_GROUP) == (reason == "ok", reason)

    def test_no_certificate_is_minted_under_a_warrant_without_the_permission(
            self):
        svc, rng = demo_service()
        holder = generate_keypair(DEMO_GROUP, rng)
        cred = svc.request_credential(7, holder.public,
                                      Warrant(0.0, 10.0, ("read",)))
        subject = generate_keypair(DEMO_GROUP, rng)
        state = rng.bit_generator.state
        with pytest.raises(CredentialError, match="does not permit"):
            self_generate_certificate(cred, holder, subject, 1.0, 5.0,
                                      DEMO_GROUP, rng)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("key", ["0", "1", "p", "g + p", "-g"])
    def test_a_forged_key_outside_one_and_p_is_refused(self, key):
        """A peer's certificate whose holder or subject key lies outside
        1 < y < p is refused with a reason; a negative key, which has no
        encoding, raises nothing."""
        svc, rng = demo_service()
        _, cred, _, cert = enroll(svc, 9, rng)
        p, g = DEMO_GROUP.p, DEMO_GROUP.g
        public = {"0": 0, "1": 1, "p": p, "g + p": g + p, "-g": -g}[key]
        forged = replace(cert, credential=replace(cred, holder_public=public))
        for master in (svc.master_public, svc.master_key):
            assert not verify_credential(forged.credential, master, DEMO_GROUP)
            assert verify_certificate(forged, master, 10.0, DEMO_GROUP) == \
                (False, "bad-credential")
            assert verify_certificate(replace(cert, subject_public=public),
                                      master, 10.0, DEMO_GROUP) == \
                (False, "bad-subject-signature")

    @pytest.mark.parametrize("forged_id", [-9, True, 9.0], ids=repr)
    def test_a_forged_id_that_is_no_identity_is_refused(self, forged_id):
        """A peer's certificate whose holder or subject id is no identity
        is refused with a reason; a negative id, which has no encoding,
        and a bool, which `pack` refuses, raise nothing."""
        svc, rng = demo_service()
        _, cred, _, cert = enroll(svc, 9, rng)
        forged = replace(cert, credential=replace(cred, holder_id=forged_id))
        for master in (svc.master_public, svc.master_key):
            assert not verify_credential(forged.credential, master, DEMO_GROUP)
            assert verify_certificate(forged, master, 10.0, DEMO_GROUP) == \
                (False, "bad-credential")
            assert verify_certificate(replace(cert, subject_id=forged_id),
                                      master, 10.0, DEMO_GROUP) == \
                (False, "bad-subject-signature")

    @pytest.mark.parametrize("holder_id", [-9, True, 9.0], ids=repr)
    def test_no_certificate_is_minted_for_an_id_that_is_no_identity(
            self, holder_id):
        """A holder that edits its own credential's id gets a refusal, not
        an error from encoding the body, and draws nothing."""
        svc, rng = demo_service()
        holder, cred, subject, _ = enroll(svc, 9, rng)
        state = rng.bit_generator.state
        with pytest.raises(CredentialError, match="is no identity"):
            self_generate_certificate(replace(cred, holder_id=holder_id),
                                      holder, subject, 1.0, 500.0,
                                      DEMO_GROUP, rng)
        assert rng.bit_generator.state == state


class TestShareIssuance:
    def toy_service(self, seed=5):
        # sharing polynomial fixed by hand: f(x) = 7 + 3x + 2x^2 over Z_11,
        # so f(0)=7, f(1)=1, f(2)=10, f(3)=1, f(4)=7 and Y = 2^7 mod 23 = 13
        svc = KMService(TOY_GROUP, master_public=13, threshold=3,
                        rng=np.random.default_rng(seed))
        for node_id, (x, fx) in zip((70, 71, 72), {1: 1, 2: 10, 3: 1}.items()):
            svc.roster[node_id] = Shareholder(node_id, KeyShare(x, fx))
        svc._next_index = 4
        return svc

    def test_blinded_evaluation_matches_hand_computed_share(self):
        svc = self.toy_service()
        rng = np.random.default_rng(6)
        keys = generate_keypair(TOY_GROUP, rng)
        cred = svc.request_credential(40, keys.public, WARRANT)
        share = svc.issue_share(40, cred)
        assert share == KeyShare(4, 7)
        assert 40 in svc.roster

    def test_requires_a_valid_credential_for_the_joining_node(self):
        svc = self.toy_service()
        rng = np.random.default_rng(6)
        keys = generate_keypair(TOY_GROUP, rng)
        cred = svc.request_credential(40, keys.public, WARRANT)
        with pytest.raises(RosterError, match="different node"):
            svc.issue_share(41, cred)
        bad = replace(cred, holder_public=TOY_GROUP.mul(cred.holder_public,
                                                        TOY_GROUP.g))
        with pytest.raises(RosterError, match="invalid credential"):
            svc.issue_share(40, bad)

    def test_existing_shareholders_cannot_rejoin(self):
        svc, rng = demo_service()
        keys = generate_keypair(DEMO_GROUP, rng)
        node = next(iter(svc.roster))
        cred = svc.request_credential(node, keys.public, WARRANT)
        with pytest.raises(RosterError, match="already holds"):
            svc.issue_share(node, cred)

    def test_new_share_lies_on_the_original_polynomial(self):
        svc, rng = demo_service(seed=17, n=5, t=3)
        keys = generate_keypair(DEMO_GROUP, rng)
        cred = svc.request_credential(300, keys.public, WARRANT)
        new = svc.issue_share(300, cred)
        olds = [h.share for h in svc.roster.values() if h.node_id != 300]
        base = reconstruct(olds[:3], DEMO_GROUP.q)
        assert DEMO_GROUP.exp(base) == svc.master_public
        # any mix of old and new shares reconstructs the same secret
        assert reconstruct([new, olds[0], olds[1]], DEMO_GROUP.q) == base
        assert reconstruct([new, olds[3], olds[4]], DEMO_GROUP.q) == base

    def test_issuance_keeps_no_blind(self, monkeypatch):
        # a kept blind lets its reader strip the masks off the quorum's
        # contributions and recover t shares, hence the master key
        svc, rng = demo_service(seed=17, n=5, t=3)
        keys = generate_keypair(DEMO_GROUP, rng)
        cred = svc.request_credential(300, keys.public, WARRANT)
        blinds, draw = [], service.rand_below

        def recording(rng, bound):
            blinds.append(draw(rng, bound))
            return blinds[-1]

        monkeypatch.setattr(service, "rand_below", recording)
        svc.issue_share(300, cred)
        assert len(blinds) == 3          # one per pair of the quorum
        assert not set(blinds) & reachable_ints(vars(svc))

    def test_roster_growth_keeps_the_service_alive(self):
        svc, rng = demo_service(seed=17, n=5, t=3)
        joiners = []
        for node in (300, 301, 302, 303):
            keys = generate_keypair(DEMO_GROUP, rng)
            cred = svc.request_credential(node, keys.public, WARRANT)
            joiners.append(svc.issue_share(node, cred))
        assert len(svc.roster) == 9
        # the joiners' shares alone, without an original, sign for the
        # master key
        body = credential_body(400, keys.public, WARRANT)
        session = SigningSession(DEMO_GROUP, svc.master_public, body,
                                 joiners[1:], 3, rng)
        sig = combine_partials(session.partials(), 3, DEMO_GROUP)
        assert threshold.verify(DEMO_GROUP, svc.master_public, body, sig)

    def test_share_indices_are_sequential(self):
        svc, rng = demo_service(seed=17, n=5, t=3)
        got = []
        for node in (300, 301):
            keys = generate_keypair(DEMO_GROUP, rng)
            cred = svc.request_credential(node, keys.public, WARRANT)
            got.append(svc.issue_share(node, cred).index)
        assert got == [6, 7]


class TestFairness:
    def test_single_shareholder_ratio_is_one(self):
        rng = np.random.default_rng(2)
        svc = KMService.bootstrap(KMConfig(1, 1), TOY_GROUP, rng, node_ids=[5])
        keys = generate_keypair(TOY_GROUP, rng)
        for _ in range(50):
            svc.request_credential(9, keys.public, WARRANT)
        audit = svc.fairness_audit()
        assert audit["max_mean_ratio"] == 1.0
        assert audit["counts"] == {5: 50}
        assert audit["never_served"] == []

    def test_uniform_selection_across_ten_shareholders(self):
        rng = np.random.default_rng(3)
        svc = KMService.bootstrap(KMConfig(10, 3), TOY_GROUP, rng,
                                  node_ids=range(10))
        keys = generate_keypair(TOY_GROUP, rng)
        requests = 10_000
        for i in range(requests):
            svc.request_credential(1000 + i % 7, keys.public, WARRANT)
        audit = svc.fairness_audit()
        assert audit["mean"] == pytest.approx(requests * 3 / 10)
        assert audit["max_mean_ratio"] < 1.15
        # every count within 4 sigma of the multinomial expectation
        expect = requests * 0.3
        sigma = np.sqrt(requests * 0.3 * 0.7)
        for count in audit["counts"].values():
            assert abs(count - expect) < 4 * sigma
        assert audit["never_served"] == []

    def test_quorum_sequence_is_seed_deterministic(self):
        def participants(seed):
            rng = np.random.default_rng(seed)
            svc = KMService.bootstrap(KMConfig(7, 3), TOY_GROUP, rng,
                                      node_ids=range(7))
            keys = generate_keypair(TOY_GROUP, rng)
            quorums = []

            def recording():
                quorum = pick()
                quorums.append([h.node_id for h in quorum])
                return quorum

            pick, svc._quorum = svc._quorum, recording
            for _ in range(20):
                svc.request_credential(9, keys.public, WARRANT)
            return quorums

        assert participants(8) == participants(8)
        assert participants(8) != participants(9)

    def test_each_operation_counts_its_t_servers(self):
        svc, rng = demo_service(seed=17, n=5, t=3)
        credentials = issuances = 0
        for node in (300, 301, 302):
            keys = generate_keypair(DEMO_GROUP, rng)
            cred = svc.request_credential(node, keys.public, WARRANT)
            credentials += 1
            if node != 301:
                svc.issue_share(node, cred)
                issuances += 1
        # a refused issuance serves no one
        with pytest.raises(RosterError):
            svc.issue_share(300, cred)
        assert sum(svc.served.values()) == svc.threshold * (credentials + issuances)
        assert svc.fairness_audit()["counts"] == {n: svc.served[n] for n in svc.roster}


class TestRefusals:
    @pytest.mark.parametrize("args, match", [
        ((5.0, 4.0), "expires before it begins"),
        ((0.0, 1.0, "sign-certificates"), "not one str"),
    ], ids=["expires-first", "bare-str"])
    def test_a_malformed_warrant_is_refused(self, args, match):
        with pytest.raises(CredentialError, match=match):
            Warrant(*args)

    def test_no_share_is_issued_past_the_groups_indices(self):
        # the toy group's sharing field is Z_11: ten shareholders hold
        # indices 1..10, and index 11 is 0 mod q
        rng = np.random.default_rng(3)
        svc = KMService.bootstrap(KMConfig(10, 3), TOY_GROUP, rng,
                                  node_ids=range(70, 80))
        holder = generate_keypair(TOY_GROUP, rng)
        cred = svc.request_credential(90, holder.public, WARRANT)
        with pytest.raises(RosterError, match="index space exhausted"):
            svc.issue_share(90, cred)
        assert 90 not in svc.roster

    def test_a_corrupted_share_yields_no_credential(self):
        # with n = t every request's quorum is the whole roster, so it
        # always includes the corrupted share
        svc, rng = demo_service(n=3, t=3)
        node_id, holder = next(iter(svc.roster.items()))
        share = holder.share
        svc.roster[node_id] = Shareholder(
            node_id, KeyShare(share.index, (share.value + 1) % DEMO_GROUP.q))
        served = dict(svc.served)
        with pytest.raises(CredentialError, match="invalid signature"):
            svc.request_credential(9, generate_keypair(DEMO_GROUP, rng).public,
                                   WARRANT)
        assert dict(svc.served) == served


class TestBootstrap:
    def test_roster_matches_the_configuration(self):
        svc, _ = demo_service()
        assert len(svc.roster) == 13
        indices = sorted(h.share.index for h in svc.roster.values())
        assert indices == list(range(1, 14))

    def test_node_id_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(RosterError):
            KMService.bootstrap(KMConfig(3, 2), TOY_GROUP, rng, node_ids=[1, 2])
        with pytest.raises(RosterError):
            KMService.bootstrap(KMConfig(3, 2), TOY_GROUP, rng,
                                node_ids=[1, 2, 2])

    def test_master_private_key_is_not_retained(self):
        svc, _ = demo_service()
        assert not hasattr(svc, "master_private")
        blobs = [getattr(svc, name) for name in vars(svc)]
        assert all(not isinstance(b, tuple) or "private" not in str(b)
                   for b in blobs)


class TestBigIntegerWork:
    def test_a_2048_bit_run_raises_only_the_holder_keys_with_pow(
            self, monkeypatch, tmp_path):
        """Counts, not times, so a slower path fails on any host: the
        master key goes through one table per service, pow() serves only
        the holder keys, one certificate check each, and the generator's
        comb makes the master key, then 7 powers per requester: its two
        key pairs, the quorum's joint nonce, the subject's signature and
        three checks (the quorum's signature, then the credential and the
        subject's signature in the certificate). The two checks under the
        master key fold their power of G into the key table's chain."""
        powers, tables, services, bases, folded = [], [], [], [], []

        def counting_pow(base, exponent, modulus=None):
            if modulus is not None and modulus.bit_length() == 2048:
                powers.append(base)
            return pow(base, exponent, modulus)

        key_table = GroupParams.key_table
        service_init = KMService.__init__

        def counting_key_table(group, y):
            tables.append(y)
            return key_table(group, y)

        def counting_init(service, *args, **kwargs):
            services.append(service)
            service_init(service, *args, **kwargs)

        comb_power = Comb.power

        def counting_power(comb, e, fold=None, f=0):
            bases.append(comb.y)
            if fold is not None:
                folded.append((comb.y, fold.y))
            return comb_power(comb, e, fold, f)

        monkeypatch.setattr(threshold, "pow", counting_pow, raising=False)
        monkeypatch.setattr(GroupParams, "key_table", counting_key_table)
        monkeypatch.setattr(KMService, "__init__", counting_init)
        monkeypatch.setattr(Comb, "power", counting_power)
        scenario = parse_config(HO_2048, seed=1)
        result = run(scenario, str(tmp_path / "r.jsonl"))
        assert result.exit_code == 0
        (service,) = services
        assert len(powers) == 2
        assert service.master_public not in powers
        assert tables == [service.master_public]
        # the quorum's joint nonce is one power, whatever the threshold
        assert scenario.km_threshold == 3
        g, requesters = service.params.g, scenario.km_requesters
        assert bases.count(g) + len(folded) == 1 + 7 * requesters
        assert folded == [(service.master_public, g)] * (2 * requesters)
        assert bases.count(service.master_public) == 2 * requesters
