"""Group algebra, secret sharing, and threshold signing.

The toy group (p=23, q=11) carries the exhaustive and hand-computed
algebra checks. Anything asserting that a forgery FAILS runs on the
512-bit demo group: with an 11-element challenge space a tampered
message collides with the honest challenge one time in eleven, so
negative results are only meaningful in the larger group.
"""

import contextlib
import hashlib
import itertools
import math
import os
import signal
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mscsim.keymgmt import groups
from mscsim.keymgmt.credentials import pack
from mscsim.keymgmt.groups import (
    DEMO_GROUP,
    G_TEETH,
    KEY_TEETH,
    TABLES,
    TOY_GROUP,
    Comb,
    GroupError,
    GroupParams,
    group_2048,
    is_probable_prime,
    rand_below,
)
from mscsim.keymgmt.shamir import (
    InsufficientSharesError,
    KeyShare,
    KMConfig,
    ShareError,
    lagrange_at,
    poly_eval,
    setup,
    share_polynomial,
)
from mscsim.keymgmt.threshold import (
    NonceReuseError,
    SigningError,
    SigningSession,
    Signature,
    challenge,
    combine_partials,
    sign_single,
    verify,
)
from reference import generate_group, reconstruct

# hand-checkable sharing polynomial over Z_11: f(x) = 7 + 3x + 2x^2
TOY_POLY = [7, 3, 2]
TOY_POINTS = {1: 1, 2: 10, 3: 1, 4: 7}


@contextlib.contextmanager
def _time_limit(seconds):
    """Fail with TimeoutError, instead of hanging, past `seconds`."""
    def timed_out(signum, frame):
        raise TimeoutError(f"did not return within {seconds} s")

    previous = signal.signal(signal.SIGALRM, timed_out)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestGroups:
    def test_toy_group_structure(self):
        assert pow(TOY_GROUP.g, TOY_GROUP.q, TOY_GROUP.p) == 1
        subgroup = {pow(TOY_GROUP.g, k, TOY_GROUP.p) for k in range(TOY_GROUP.q)}
        assert len(subgroup) == TOY_GROUP.q

    def test_invalid_params_rejected(self):
        with pytest.raises(GroupError):
            GroupParams(22, 11, 2)      # composite modulus
        with pytest.raises(GroupError):
            GroupParams(23, 7, 2)       # q does not divide p-1
        with pytest.raises(GroupError):
            GroupParams(23, 11, 5)      # 5 has order 22, not 11
        with pytest.raises(GroupError):
            GroupParams(23, 11, 1)

    def test_primality_against_trial_division(self):
        def naive(n):
            if n < 2:
                return False
            return all(n % d for d in range(2, int(n ** 0.5) + 1))

        for n in range(3000):
            assert is_probable_prime(n) == naive(n), n

    def test_primality_rejects_carmichael_numbers(self):
        for n in (561, 1105, 1729, 41041, 825265):
            assert not is_probable_prime(n)
        assert is_probable_prime(2 ** 31 - 1)
        assert is_probable_prime(2 ** 127 - 1)

    def test_primality_needs_at_least_one_round(self):
        # with no witness drawn above the deterministic limit, all([])
        # would call this product of two Mersenne primes prime
        composite = (2 ** 1279 - 1) * (2 ** 607 - 1)
        assert not is_probable_prime(composite, rounds=1)
        for n in (composite, 7):
            for rounds in (0, -1):
                with pytest.raises(ValueError, match="rounds"):
                    is_probable_prime(n, rounds=rounds)

    def test_generate_group_small(self):
        grp = generate_group(64, 32, np.random.default_rng(1))
        assert grp.p.bit_length() == 64
        assert grp.q.bit_length() == 32
        assert (grp.p - 1) % grp.q == 0
        # the group this seed gave before q could be redrawn
        assert grp == GroupParams(p=11018933715363177739, q=2766644471,
                                  g=7221488245205999840)

    def test_generate_group_redraws_a_q_no_cofactor_fits(self):
        # q = 197 from this seed leaves no even 4-bit c with q*c + 1 a
        # 12-bit prime, so keeping the first q would loop forever
        with _time_limit(5):
            grp = generate_group(12, 8, np.random.default_rng(0))
        assert grp.p.bit_length() == 12
        assert grp.q.bit_length() == 8
        assert (grp.p - 1) % grp.q == 0

    @pytest.mark.parametrize("p_bits, q_bits", [(3, 2), (4, 2), (10, 8), (10, 9), (10, 1)])
    def test_generate_group_rejects_sizes_no_group_fits(self, p_bits, q_bits):
        with _time_limit(5), pytest.raises(GroupError):
            generate_group(p_bits, q_bits, np.random.default_rng(0))

    def test_demo_group_shape(self):
        assert DEMO_GROUP.p.bit_length() == 512
        assert DEMO_GROUP.q.bit_length() == 160

    def test_rebuilt_builtin_groups_keep_equality_and_hash(self):
        # the fixed-base table is no field: equality and hash ignore it
        for group in (TOY_GROUP, DEMO_GROUP, group_2048()):
            rebuilt = GroupParams(group.p, group.q, group.g)
            assert rebuilt == group
            assert hash(rebuilt) == hash(group)
            assert repr(rebuilt) == repr(group)
            assert rebuilt.exp(group.q - 1) == pow(group.g, group.q - 1, group.p)

    def test_rand_below_uniform_and_bounded(self):
        rng = np.random.default_rng(3)
        draws = [rand_below(rng, 7) for _ in range(14000)]
        assert set(draws) <= set(range(7))
        counts = np.bincount(draws, minlength=7)
        # each bucket within 4 sigma of 2000
        sigma = np.sqrt(14000 * (1 / 7) * (6 / 7))
        assert np.all(np.abs(counts - 2000) < 4 * sigma)
        big = rand_below(np.random.default_rng(4), DEMO_GROUP.q)
        assert 0 <= big < DEMO_GROUP.q

    def test_rand_below_deterministic(self):
        a = [rand_below(np.random.default_rng(9), 10 ** 30) for _ in range(3)]
        b = [rand_below(np.random.default_rng(9), 10 ** 30) for _ in range(3)]
        assert a == b


# sha256 of the hex form of each built-in (p, q, g) whose p and q skip
# the Miller-Rabin rounds at construction. Editing a value fails the pin
# test below until its primes have been checked again and its digest
# here updated.
PINNED = {
    "_DEMO": "ad9c83673324f31cdb5988a07c507631f4f6e44a0ec682b66e7fe30b61ed20cd",
    "_GROUP_2048": "199cbc771e69c16231667d25941f1cabf9938b811ff2462ff80ed503a12cd936",
}


@pytest.fixture
def prime_tests(monkeypatch):
    """Every n that GroupParams hands to is_probable_prime, in order."""
    seen = []
    real = groups.is_probable_prime

    def counting(n, *args, **kwargs):
        seen.append(n)
        return real(n, *args, **kwargs)

    monkeypatch.setattr(groups, "is_probable_prime", counting)
    return seen


def _composite_modulus_with_an_order_q_element(q):
    """A 512-bit composite p = r*s with q | r-1 and q | s-1, and g = 1 mod
    s of order q mod r: (p, q, g) passes every structural check."""
    def prime_from(a):
        while not is_probable_prime(q * a + 1):
            a += 2
        return a

    a = prime_from(1 << 96)
    b = prime_from(a + 2)
    r, s = q * a + 1, q * b + 1
    g_r = pow(2, a, r)
    g = 1 + s * ((g_r - 1) * pow(s, -1, r) % r)
    return r * s, g


class TestPinnedGroups:
    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_pinned_group_is_unchanged_and_its_p_and_q_are_prime(self, name):
        values = getattr(groups, name)
        hex_form = " ".join(map(hex, values))
        assert hashlib.sha256(hex_form.encode()).hexdigest() == PINNED[name]
        p, q, _ = values
        assert is_probable_prime(p, rounds=40)
        assert is_probable_prime(q, rounds=40)

    def test_only_the_checked_groups_are_pinned(self):
        assert groups._PINNED == {getattr(groups, name) for name in PINNED}

    def test_building_a_builtin_group_runs_no_primality_rounds(
            self, prime_tests, monkeypatch):
        monkeypatch.setattr(groups, "_group_2048_cache", None)
        groups.group_2048()
        GroupParams(*groups._DEMO)
        GroupParams(DEMO_GROUP.p, DEMO_GROUP.q, DEMO_GROUP.g)
        assert prime_tests == []

    def test_a_pinned_p_and_q_with_another_generator_get_the_full_check(
            self, prime_tests):
        p, q, g = DEMO_GROUP.p, DEMO_GROUP.q, DEMO_GROUP.g
        squared = GroupParams(p, q, g * g % p)
        assert prime_tests == [p, q]
        e = q // 3
        assert squared.exp(e) == pow(g, 2 * e, p)

    def test_a_composite_p_or_q_is_rejected_even_beside_a_pinned_one(
            self, prime_tests):
        p, q, g = DEMO_GROUP.p, DEMO_GROUP.q, DEMO_GROUP.g
        # 2q divides p - 1 and g**(2q) = 1: only primality rules it out
        assert (p - 1) % (2 * q) == 0 and pow(g, 2 * q, p) == 1
        with pytest.raises(GroupError, match="q is not prime"):
            GroupParams(p, 2 * q, g)
        assert prime_tests == [p, 2 * q]

        composite, g = _composite_modulus_with_an_order_q_element(q)
        assert composite.bit_length() == 512
        assert (composite - 1) % q == 0 and 1 < g < composite
        assert pow(g, q, composite) == 1
        with pytest.raises(GroupError, match="p is not prime"):
            GroupParams(composite, q, g)


class TestShamir:
    def test_toy_polynomial_evaluations(self):
        for x, fx in TOY_POINTS.items():
            assert poly_eval(TOY_POLY, x, 11) == fx

    def test_toy_lagrange_recovers_constant_term(self):
        points = list(TOY_POINTS.items())
        for sub in itertools.combinations(points, 3):
            assert lagrange_at(list(sub), 0, 11) == 7

    def test_lagrange_rejects_duplicate_points(self):
        with pytest.raises(ShareError):
            lagrange_at([(1, 1), (1, 2), (3, 1)], 0, 11)

    def test_setup_threshold_one_gives_constant_shares(self):
        master, shares = setup(KMConfig(4, 1), TOY_GROUP, np.random.default_rng(0))
        assert {s.value for s in shares} == {master.private % 11}

    def test_setup_reconstruction(self):
        master, shares = setup(KMConfig(5, 3), DEMO_GROUP, np.random.default_rng(2))
        for sub in itertools.combinations(shares, 3):
            assert reconstruct(list(sub), DEMO_GROUP.q) == master.private
        assert DEMO_GROUP.exp(master.private) == master.public

    def test_setup_rejects_index_zero(self):
        # shares sit at 1..n, so n >= q would put one at q, which is 0 mod q
        _, shares = setup(KMConfig(10, 2), TOY_GROUP, np.random.default_rng(0))
        assert [s.index for s in shares] == list(range(1, 11))
        for n in (11, 12):
            with pytest.raises(ShareError):
                setup(KMConfig(n, 2), TOY_GROUP, np.random.default_rng(0))
        with pytest.raises(ShareError):
            KeyShare(0, 5)

    def test_config_validation(self):
        with pytest.raises(ShareError):
            KMConfig(3, 4)
        with pytest.raises(ShareError):
            KMConfig(3, 0)

    def test_below_threshold_shares_leak_nothing(self):
        # with t-1 points fixed, the share seen at x=1 stays uniform over
        # Z_11 as the remaining polynomial randomness varies
        rng = np.random.default_rng(7)
        counts = np.zeros(11, dtype=int)
        for _ in range(5500):
            coeffs = share_polynomial(5, 3, 11, rng)
            counts[poly_eval(coeffs, 1, 11)] += 1
        sigma = np.sqrt(5500 * (1 / 11) * (10 / 11))
        assert np.all(np.abs(counts - 500) < 4.5 * sigma)


class TestThresholdSigning:
    def _session(self, group, n=5, t=3, quorum=None, seed=5,
                 message=b"credential body"):
        rng = np.random.default_rng(seed)
        master, shares = setup(KMConfig(n, t), group, rng)
        use = shares if quorum is None else [shares[i] for i in quorum]
        return master, shares, SigningSession(group, master.public, message,
                                              use, t, rng), rng

    @pytest.mark.parametrize("seed", [5, 6, 7])
    @pytest.mark.parametrize("group", ["toy", "demo"])
    def test_the_joint_nonce_point_is_the_product_of_the_points(self, group,
                                                                 seed):
        # R, computed here as the product of every participant's G**k_i,
        # is what the session hashes and what the signature commits to
        group = GROUPS[group]()
        message = b"credential body"
        master, _, sess, _ = self._session(group, seed=seed, message=message)
        R = 1
        for poly in sess._nonce_polys.values():
            R = R * pow(group.g, poly[0], group.p) % group.p
        assert sess.session_id == hashlib.sha256(
            group.element_bytes(R) + group.element_bytes(master.public)
            + message).digest()
        assert sess.c == challenge(group, R, master.public, message)
        sig = combine_partials(sess.partials(), 3, group)
        assert pow(group.g, sig.z, group.p) * pow(
            master.public, group.q - sig.c, group.p) % group.p == R

    def test_all_t_subsets_verify_identically(self):
        # n=5, t=3: every 3-subset of partials combines to the same
        # verifying signature; every 2-subset is refused
        master, _, sess, _ = self._session(TOY_GROUP)
        parts = sess.partials()
        sigs = set()
        for sub in itertools.combinations(parts, 3):
            sig = combine_partials(list(sub), 3, TOY_GROUP)
            assert verify(TOY_GROUP, master.public, b"credential body", sig)
            sigs.add((sig.c, sig.z))
        assert len(sigs) == 1
        for sub in itertools.combinations(parts, 2):
            with pytest.raises(InsufficientSharesError):
                combine_partials(list(sub), 3, TOY_GROUP)

    def test_forced_below_threshold_interpolation_fails(self):
        # interpolating from only t-1 partials lands on the wrong value
        master, _, sess, _ = self._session(DEMO_GROUP)
        parts = sess.partials()
        good = combine_partials(parts, 3, DEMO_GROUP)
        for sub in itertools.combinations(parts, 2):
            z = lagrange_at([(p.index, p.z) for p in sub], 0, DEMO_GROUP.q)
            forged = Signature(good.c, z)
            assert not verify(DEMO_GROUP, master.public, b"credential body", forged)

    @settings(max_examples=60)
    @given(seed=st.integers(0, 2 ** 32 - 1), group=st.sampled_from(["toy", "demo"]),
           data=st.data())
    def test_any_t_partials_combine_to_one_signature(self, seed, group, data):
        group = GROUPS[group]()
        n = data.draw(st.integers(1, 7))
        t = data.draw(st.integers(1, n))
        master, _, sess, _ = self._session(group, n=n, t=t, seed=seed)
        parts = sess.partials()
        full = combine_partials(parts, t, group)
        assert verify(group, master.public, b"credential body", full)
        for sub in itertools.combinations(parts, t):
            assert combine_partials(list(sub), t, group) == full

    def test_surplus_partials_equal_any_subset(self):
        master, _, sess, _ = self._session(DEMO_GROUP, n=6, t=3)
        parts = sess.partials()
        full = combine_partials(parts, 3, DEMO_GROUP)
        for sub in itertools.combinations(parts, 3):
            assert combine_partials(list(sub), 3, DEMO_GROUP) == full
        assert verify(DEMO_GROUP, master.public, b"credential body", full)

    def test_threshold_one_partial_is_complete_signature(self):
        master, _, sess, _ = self._session(TOY_GROUP, n=1, t=1)
        [part] = sess.partials()
        sig = combine_partials([part], 1, TOY_GROUP)
        assert (sig.c, sig.z) == (part.c, part.z)
        assert verify(TOY_GROUP, master.public, b"credential body", sig)

    def test_tampered_message_rejected(self):
        master, _, sess, _ = self._session(DEMO_GROUP)
        sig = combine_partials(sess.partials(), 3, DEMO_GROUP)
        assert verify(DEMO_GROUP, master.public, b"credential body", sig)
        assert not verify(DEMO_GROUP, master.public, b"credential bodY", sig)

    def test_quorum_below_threshold_rejected(self):
        rng = np.random.default_rng(5)
        master, shares = setup(KMConfig(5, 3), TOY_GROUP, rng)
        with pytest.raises(InsufficientSharesError):
            SigningSession(TOY_GROUP, master.public, b"m", shares[:2], 3, rng)

    def test_duplicate_quorum_indices_rejected(self):
        rng = np.random.default_rng(5)
        master, shares = setup(KMConfig(5, 3), TOY_GROUP, rng)
        with pytest.raises(ShareError):
            SigningSession(TOY_GROUP, master.public, b"m",
                           [shares[0], shares[0], shares[1]], 3, rng)

    def test_outsider_and_corrupt_share_rejected(self):
        master, shares, sess, _ = self._session(TOY_GROUP, quorum=[0, 1, 2])
        with pytest.raises(SigningError):
            sess.partial_sign(shares[4])
        with pytest.raises(SigningError):
            sess.partial_sign(KeyShare(shares[0].index, (shares[0].value + 1) % 11))

    def test_nonce_reuse_rejected_and_recorded(self):
        _, shares, sess, _ = self._session(TOY_GROUP)
        with pytest.raises(NonceReuseError):
            sess.partial_sign(shares[0], message=b"a different message")
        # the honest message still signs fine afterwards
        sess.partial_sign(shares[0], message=b"credential body")

    def test_mixed_sessions_rejected(self):
        _, shares, sess_a, rng = self._session(DEMO_GROUP)
        master, _, sess_b, _ = self._session(DEMO_GROUP, seed=6)
        mixed = sess_a.partials()[:2] + sess_b.partials()[:1]
        with pytest.raises(SigningError):
            combine_partials(mixed, 3, DEMO_GROUP)

    def test_single_key_schnorr_round_trip(self):
        rng = np.random.default_rng(10)
        key = DEMO_GROUP.random_scalar(rng)
        sig = sign_single(DEMO_GROUP, key, DEMO_GROUP.exp(key), b"hello", rng)
        assert verify(DEMO_GROUP, DEMO_GROUP.exp(key), b"hello", sig)
        assert not verify(DEMO_GROUP, DEMO_GROUP.exp(key), b"hellO", sig)
        assert not verify(DEMO_GROUP, DEMO_GROUP.exp(key + 1), b"hello", sig)

    @pytest.mark.parametrize("group", [TOY_GROUP, DEMO_GROUP], ids=["toy", "demo"])
    def test_sign_single_matches_the_form_that_recomputes_the_key(self, group):
        for seed in range(5):
            key = group.random_scalar(np.random.default_rng(seed))
            rng, ref_rng = (np.random.default_rng(100 + seed) for _ in range(2))
            sig = sign_single(group, key, group.exp(key), b"cert body", rng)
            # reference: challenge(G**k, G**x, m) with both powers by pow()
            k = group.random_scalar(ref_rng)
            c = challenge(group, pow(group.g, k, group.p),
                          pow(group.g, key, group.p), b"cert body")
            assert sig == Signature(c, (k + c * key) % group.q)
            assert rng.integers(2 ** 63) == ref_rng.integers(2 ** 63)

    def test_sign_single_under_a_wrong_public_key_is_rejected(self):
        rng = np.random.default_rng(11)
        key = DEMO_GROUP.random_scalar(rng)
        public, wrong = DEMO_GROUP.exp(key), DEMO_GROUP.exp(key + 1)
        sig = sign_single(DEMO_GROUP, key, wrong, b"hello", rng)
        assert not verify(DEMO_GROUP, public, b"hello", sig)
        assert not verify(DEMO_GROUP, wrong, b"hello", sig)

    def test_deterministic_given_seed(self):
        m1, _, s1, _ = self._session(DEMO_GROUP, seed=12)
        m2, _, s2, _ = self._session(DEMO_GROUP, seed=12)
        assert combine_partials(s1.partials(), 3, DEMO_GROUP) == \
            combine_partials(s2.partials(), 3, DEMO_GROUP)


def test_importing_the_runner_builds_no_2048_bit_table():
    """The 2048-bit comb takes milliseconds to build, so only a run that
    asks for the group may build it; a fresh interpreter shows whether
    the import alone did."""
    # the child does not inherit pytest's `pythonpath`, so it is given
    # the src directory this package was imported from
    src = str(Path(groups.__file__).resolve().parents[2])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c",
         "import mscsim.runner\n"
         "from mscsim.keymgmt import groups\n"
         "print(groups._group_2048_cache is None)"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True"]


GROUPS = {"toy": lambda: TOY_GROUP, "demo": lambda: DEMO_GROUP,
          "2048": group_2048}


# the teeth of the generator's comb and of a key table
LAYOUTS = {"generator": G_TEETH, "key": KEY_TEETH}


def _edge_exponents(q, teeth):
    """Exponents at the edges of a comb's layout: the ends of the range,
    every block boundary (its last bit set, and the bit above), and
    every column of the teeth, with only its top bit set and with all
    its bits set (the last entry of its table)."""
    b = -(-q.bit_length() // (teeth * TABLES))
    a = b * TABLES                              # bits in a tooth
    exponents = [0, 1, q - 1, q, q + 1, -1, -q, 2 * q, -2 * q]
    for m in range(1, teeth * TABLES + 1):      # the last bit of block m
        exponents += [(1 << (m * b)) - 1, 1 << (m * b)]
    for c in range(a):
        exponents += [1 << (c + (teeth - 1) * a),
                      sum(1 << (c + s * a) for s in range(teeth))]
    return exponents


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_fixed_base_exp_at_the_edges_of_the_exponent_range(name):
    group = GROUPS[name]()
    q = group.q
    for e in _edge_exponents(q, LAYOUTS["generator"]):
        assert group.exp(e) == pow(group.g, e % q, group.p), e


@pytest.mark.parametrize("name", sorted(GROUPS))
@settings(max_examples=100)
@given(data=st.data())
def test_fixed_base_exp_equals_pow(name, data):
    group = GROUPS[name]()
    e = data.draw(st.integers(-2 * group.q, 2 * group.q))
    assert group.exp(e) == pow(group.g, e % group.q, group.p)


def _bases(group, rng):
    """The edge bases 1, g and p - 1 (order 2, outside the subgroup),
    then random subgroup elements."""
    return [1, group.g, group.p - 1] + [group.exp(group.random_scalar(rng))
                                        for _ in range(3)]


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_key_table_power_at_the_edges_and_column_boundaries(name):
    """Both layouts, on the edge bases and random subgroup elements."""
    group = GROUPS[name]()
    p, q = group.p, group.q
    bases = _bases(group, np.random.default_rng(5))
    for layout, teeth in LAYOUTS.items():
        for y in bases:
            comb = (group.key_table(y) if layout == "key"
                    else Comb(p, q, y, teeth))
            assert comb.y == y
            for e in _edge_exponents(q, teeth):
                assert comb.power(e) == pow(y, e % q, p), (layout, y, e)


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_a_key_table_folds_the_generator_into_its_chain(name):
    """G**z * y**e from the key table's one squaring chain, with every
    edge exponent of each layout met by one of the other's."""
    group = GROUPS[name]()
    p, q, g = group.p, group.q, group.g
    es = _edge_exponents(q, LAYOUTS["key"])
    zs = _edge_exponents(q, LAYOUTS["generator"])
    pairs = [(es[i % len(es)], zs[-1 - i % len(zs)])
             for i in range(max(len(es), len(zs)))]
    g_z = {z: pow(g, z % q, p) for z in zs}
    for y in (1, g, p - 1):
        table = group.key_table(y)
        for e, z in pairs:
            assert group.exp_times(z, table, e) == \
                pow(y, e % q, p) * g_z[z] % p, (y, e, z)


@pytest.mark.parametrize("name", sorted(GROUPS))
@settings(max_examples=100)
@given(seed=st.integers(0, 2 ** 32 - 1), data=st.data())
def test_key_table_power_equals_pow(name, seed, data):
    group = GROUPS[name]()
    y = data.draw(st.sampled_from(_bases(group, np.random.default_rng(seed))))
    e = data.draw(st.integers(0, 2 * group.q - 1))
    assert group.key_table(y).power(e) == pow(y, e % group.q, group.p)


@pytest.mark.parametrize("name", sorted(GROUPS))
@settings(max_examples=25)   # ~50 ms an example in the 2048-bit group
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_verify_gives_the_same_answer_for_a_key_and_its_table(name, seed):
    group = GROUPS[name]()
    rng = np.random.default_rng(seed)
    key = group.random_scalar(rng)
    public = group.exp(key)
    other = group.exp(group.random_scalar(rng))
    sig = sign_single(group, key, public, b"body", rng)
    q = group.q
    cases = [(public, b"body", sig), (public, b"bodY", sig),
             (other, b"body", sig)]
    # a c or z out of [0, q), with the other one valid or not
    cases += [(public, b"body", Signature(c, z))
              for c in (sig.c, -1, q, q + sig.c)
              for z in (sig.z, -1, q, q + sig.z) if (c, z) != (sig.c, sig.z)]
    tables = {public: group.key_table(public), other: group.key_table(other)}
    for y, message, signature in cases:
        assert verify(group, tables[y], message, signature) == \
            verify(group, y, message, signature), (y, message, signature)
    assert verify(group, tables[public], b"body", sig)


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_verify_refuses_a_key_outside_one_and_p(name):
    """Under y = 1 anyone signs: R = G**z for any z. And y + p is a second
    encoding of y, which pow() cannot tell from y. Both are refused, as an
    int and as a table, and so are 0 and p."""
    group = GROUPS[name]()
    p, g = group.p, group.g
    for z in (1, 2, group.q - 1):
        forged = Signature(challenge(group, group.exp(z), 1, b"body"), z)
        assert not verify(group, 1, b"body", forged)
        assert not verify(group, group.key_table(1), b"body", forged)
    # x = 1: y = g, and g + p still fits the width of p's encoding
    rng = np.random.default_rng(3)
    assert verify(group, g, b"body", sign_single(group, 1, g, b"body", rng))
    sig = sign_single(group, 1, g + p, b"body", rng)
    assert not verify(group, g + p, b"body", sig)
    assert not verify(group, group.key_table(g + p), b"body", sig)
    for y in (0, p):
        assert not verify(group, y, b"body", sig)
        assert not verify(group, group.key_table(y), b"body", sig)


@settings(max_examples=100)
@given(seed=st.integers(0, 2 ** 32 - 1), p_bits=st.integers(24, 80),
       data=st.data())
def test_rebuilt_group_keeps_equality_hash_repr_and_exp(seed, p_bits, data):
    # any gap of 3 bits or more holds a group; narrow ones redraw q
    q_bits = data.draw(st.integers(4, p_bits - 3))
    with _time_limit(5):
        group = generate_group(p_bits, q_bits, np.random.default_rng(seed))
    rebuilt = GroupParams(group.p, group.q, group.g)
    assert rebuilt == group
    assert hash(rebuilt) == hash(group)
    assert repr(rebuilt) == f"GroupParams(p={group.p}, q={group.q}, g={group.g})"
    # q of any bit length, not only the fixtures' multiples of four
    e = data.draw(st.integers(-2 * group.q, 2 * group.q))
    assert rebuilt.exp(e) == group.exp(e) == pow(group.g, e % group.q, group.p)


# Leaves pack accepts, from small alphabets so that near-collisions such
# as 0 / 0.0 / "" / b"" / () are drawn often; bools are refused by pack.
_LEAVES = (st.integers(0, 300) | st.sampled_from([2 ** 64, 2 ** 64 - 1])
           | st.sampled_from([0.0, -0.0, 1.0, 0.5, math.inf, -math.inf])
           | st.floats(allow_nan=False)
           | st.text(alphabet="a\x00\u00e9", max_size=3)
           | st.binary(max_size=3))


def _tuples_of(kids):
    return st.lists(kids, max_size=3).map(tuple)


_PACKABLE = st.recursive(_LEAVES, _tuples_of, max_leaves=8)


def _canonical(item):
    """Type-tagged form that tells apart what == does not (1 vs 1.0, 0.0
    vs -0.0); lists are tuples to pack, so both map to one form."""
    if isinstance(item, (tuple, list)):
        return ("t", tuple(_canonical(x) for x in item))
    if isinstance(item, float):
        return ("f", struct.pack(">d", item))
    return (type(item).__name__, item)


def _as_lists(item):
    if isinstance(item, tuple):
        return [_as_lists(x) for x in item]
    return item


@settings(max_examples=100)
@given(values=st.lists(st.lists(_PACKABLE, max_size=3), min_size=2,
                       max_size=12))
def test_pack_is_injective(values):
    forms = {}
    for items in values:
        forms.setdefault(pack(*items), set()).add(_canonical(items))
    assert all(len(same_bytes) == 1 for same_bytes in forms.values())


def test_pack_separates_every_short_tuple_of_look_alike_leaves():
    leaves = [0, 1, 0.0, -0.0, 1.0, "", "\x00", b"", b"\x00", (), (0,), ((),)]
    combos = [c for n in range(3) for c in itertools.product(leaves, repeat=n)]
    assert len({_canonical(c) for c in combos}) == len(combos)
    assert len({pack(*c) for c in combos}) == len(combos)


@settings(max_examples=100)
@given(items=st.lists(_PACKABLE, max_size=4))
def test_pack_treats_lists_and_tuples_alike(items):
    assert pack(*items) == pack(*map(_as_lists, items))
    assert pack(*items) == pack(*items[:1], *items[1:])
