"""Prime-order subgroup arithmetic for the key-management service.

Everything downstream signs and verifies inside a Schnorr group: a
subgroup of order q (prime) inside the multiplicative group mod p
(prime, q | p-1), written multiplicatively with generator G. The
built-in groups are educational-grade test fixtures, not vetted
production parameters; other parameters can be built directly as
GroupParams(p, q, g).

One Lim-Lee fixed-base comb (Lim & Lee, "More Flexible Exponentiation
with Precomputation", CRYPTO '94; Handbook of Applied Cryptography,
sec. 14.6.3, Alg. 14.117) serves every base that is raised to many
exponents. A t-bit exponent is cut into h teeth of 2b bits,
b = ceil(t / 2h); two tables of 2**h - 1 entries hold y**e for every e
whose bits sit in one column of the low or of the high b-bit halves of
the teeth. y**e is then b - 1 squarings and at most 2b products, where
pow() takes about t squarings. Building the tables costs about
(2h - 1) * b squarings and 2**(h+1) products.

- The generator G (key generation, joint nonce points, the G**z half
  of every verification) gets h = 8, built once when the group is
  validated: for the 2048-bit group's 256-bit q, b = 16, 510 entries
  (about 128 KiB), 15 squarings and at most 32 products per power.
- A long-lived public key gets h = 4 from GroupParams.key_table: b = 32,
  2 x 15 entries, 31 squarings and at most 64 products per power. The
  key management service builds one for its master public key, which
  checks every credential. On a 2-vCPU host, in the 2048-bit group,
  the table takes 3.8-4.8 ms to build and 1.6-2.0 ms per power, against
  5.5-6.1 ms for pow(); so two uses repay it. An 8-tooth table takes
  13.6-16 ms to build, which a handful of uses do not repay. A key used
  once (a holder key) keeps pow().

Every group gets the structural checks when it is built: q | p-1,
1 < g < p and g**q = 1 (mod p). Primality of p and q is the costly
check: 40 Miller-Rabin rounds on the 2048-bit p take over a second, and
each process would repeat them for each built-in group. So the
built-ins' primes are checked once, by the test suite:
tests/test_keymgmt.py pins the sha256 of each built-in (p, q, g) and
runs the full rounds on its p and q. Only a group whose (p, q, g)
equals a pinned built-in skips the rounds; any other group gets the
full primality check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..engine import Stream


class GroupError(Exception):
    pass


def rand_below(rng, bound: int) -> int:
    """Uniform integer in [0, bound) from a stream's 32-bit draws.

    Draws bound.bit_length() bits and rejection-samples, so it works for
    arbitrarily large bounds and stays reproducible from the stream.
    """
    if bound <= 0:
        raise ValueError("bound must be positive")
    bits = bound.bit_length()
    words = (bits + 31) // 32
    excess = words * 32 - bits
    while True:
        val = 0
        for w in rng.integers(0, 1 << 32, size=words, dtype=np.uint64):
            val = (val << 32) | int(w)
        val >>= excess
        if val < bound:
            return val


def rand_range(rng, low: int, high: int) -> int:
    """Uniform integer in [low, high)."""
    return low + rand_below(rng, high - low)


# Deterministic Miller-Rabin witness set, sufficient for n < 3.3e24.
_SMALL_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_DETERMINISTIC_LIMIT = 3317044064679887385961981

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
                 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)


def is_probable_prime(n: int, rng=None, rounds: int = 40) -> bool:
    """Miller-Rabin: deterministic witnesses below the proven limit,
    random witnesses above it (error below 4**-rounds)."""
    if rounds < 1:
        raise ValueError(f"rounds must be at least 1, got {rounds}")
    if n < 2:
        return False
    for sp in _SMALL_PRIMES:
        if n == sp:
            return True
        if n % sp == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1

    def witness_passes(a: int) -> bool:
        x = pow(a, d, n)
        if x in (1, n - 1):
            return True
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                return True
        return False

    if n < _DETERMINISTIC_LIMIT:
        witnesses = [a for a in _SMALL_WITNESSES if a < n - 1]
    else:
        if rng is None:
            rng = Stream(0xD1CE)
        witnesses = [rand_range(rng, 2, n - 1) for _ in range(rounds)]
    return all(witness_passes(a) for a in witnesses)


G_TEETH = 8    # the generator's comb: two tables of 2**8 - 1 entries
KEY_TEETH = 4  # a public key's comb: two tables of 2**4 - 1 entries


class Comb:
    """Fixed-base powers of y mod p: power(e) == pow(y, e % q, p).

    `y` is the base itself, so a comb built from a public key stands in
    for that key wherever threshold.verify takes one.
    """

    __slots__ = ("y", "_p", "_q", "_b", "_fmt", "_low", "_high")

    def __init__(self, p: int, q: int, y: int, teeth: int):
        b = -(-q.bit_length() // (2 * teeth))
        bases = [y]                 # y**(2**(b*m)) for m = 0 .. 2*teeth-1
        for _ in range(2 * teeth - 1):
            bases.append(pow(bases[-1], 1 << b, p))
        # low[i] is the product of y**(2**(2b*s)) over the bits s of i;
        # high[i] is low[i]**(2**b)
        low, high = [1], [1]
        for tooth in range(teeth):
            for table, base in ((low, bases[2 * tooth]), (high, bases[2 * tooth + 1])):
                table += [base] + [x * base % p for x in table[1:]]
        self.y, self._p, self._q, self._b = y, p, q, b
        self._fmt = f"0{2 * teeth * b}b"
        self._low, self._high = tuple(low), tuple(high)

    def power(self, e: int) -> int:
        """y**e mod p. In the bit string of e % q, bits[k::2b] is column
        2b-1-k of the teeth, the top tooth first."""
        b, low, high, p = self._b, self._low, self._high, self._p
        bits = format(e % self._q, self._fmt)
        acc = 1
        for k in range(b):          # columns b-1-k (low) and 2b-1-k (high)
            acc = acc * acc % p
            i = int(bits[k::2 * b], 2)
            if i:
                acc = acc * high[i] % p
            i = int(bits[b + k::2 * b], 2)
            if i:
                acc = acc * low[i] % p
        return acc


@dataclass(frozen=True)
class GroupParams:
    """Schnorr group (p, q, g): g generates the order-q subgroup mod p."""

    p: int
    q: int
    g: int

    def __post_init__(self):
        if (self.p, self.q, self.g) not in _PINNED:
            if not is_probable_prime(self.p):
                raise GroupError("p is not prime")
            if not is_probable_prime(self.q):
                raise GroupError("q is not prime")
        if (self.p - 1) % self.q != 0:
            raise GroupError("q does not divide p-1")
        if not 1 < self.g < self.p:
            raise GroupError("generator out of range")
        if pow(self.g, self.q, self.p) != 1:
            raise GroupError("generator order is not q")
        # not a field: equality, hash and repr ignore it
        object.__setattr__(self, "_comb", Comb(self.p, self.q, self.g, G_TEETH))

    def exp(self, e: int) -> int:
        """G**e mod p, equal to pow(g, e % q, p)."""
        return self._comb.power(e)

    def key_table(self, y: int) -> Comb:
        """A comb for a public key y that verifies many signatures."""
        return Comb(self.p, self.q, y, KEY_TEETH)

    def mul(self, a: int, b: int) -> int:
        return a * b % self.p

    def element_bytes(self, x: int) -> bytes:
        """Fixed-width big-endian encoding, sized to p."""
        return x.to_bytes((self.p.bit_length() + 7) // 8, "big")

    def random_scalar(self, rng) -> int:
        """Uniform in [1, q-1]."""
        return rand_range(rng, 1, self.q)


@dataclass(frozen=True)
class KeyPair:
    private: int
    public: int


# Pre-generated Schnorr groups (p, q, g), frozen so results are stable
# across runs. |p| = 512 and |q| = 160 bits: the demo group carries
# scenarios whose shareholder count exceeds the toy field's ten indices.
_DEMO = (0x9c535b99b712f57e14c95f373762b9965160d4681873c39eaf967b29893a8e0e1eb42af09cdbe2e0acf829bc785c59938f85aef671a62eafcaccff3bea4ff36b,
         0xcfa295643437225c5a62c41a4f3981b3a86f016f,
         0x5cfea6f19819ceb97285fa4bd3484be0f4ea784ddb60fe68989f65158ec32673dc9ec8e5ac3d5ef6f3b75c51d09c49b86586aeacab6b660ca0fe6f5891143fb0)

# |p| = 2048 and |q| = 256 bits
_GROUP_2048 = (0x8487c39d7f5262dcccc4e02c518919ed1eedacf54a2268ed15a65c0cbda3015b68006d0b7ef5ab6e19e0c66dfa0003574e29e1e3d2ce3a2b2507401a5cf1af0ece8234d80b500069dbe83a41d7f66c551af3e3cb2cf1e510281054269245f4d4c8cc56b596a8786997c5f298ec7fff8b662375cc7c96055591eeb8a9f17db417c5c0afc6b8f6ce4850e7fcfa0873cf803074c78a7e5d5822d3f842fa9b26c364c13c4cc73c653c19d95c031a4a4a8fd48fd4d92b53ef7078e9e812c7e1740898bc78de54907db38b8a3aebb17455922faefbd8178d4bfe2672ecd506b98f1c9982e02a2c31f424b933d27d06c25aedf0e027f7f881a553f35d4ae46e93a0e4a7,
               0xcc4f12568c3cb8130e2c83d6ae3c1298a363e51beee37b00859dda504cc066ab,
               0x24cce60b608070d48ed4499fa05335ce996ebeae038a89f3b3a9655e97dee75223937f3f41e67cfed3d80dfd54ebf43967f0a32e7cc67d0fa0da7559774088e0852129954b034efadf60eba7a8bcaaf1197c3e370361b33c314d3a0ddf6de98343d2e5d4d693433453d360eaee4f45be8e72e4f27dbdb48c5e7ec2618ed66de68dae6b17b7348f9711f9e90d1b6ad637b4f30cc3d9d5df0c825f364395fce3d5cd8515e99b20a5333efae3764e9b8ab9689a2ed7f527602a0a33c38cc780ab5229d2c70d670c1641231eaafeeeea510105c5e9a1b4e2fcc0db14bcca6faed3f21a7d6338e078f53aa9ee1fc451041dda1e4ad653c83f6cc9432277e8c8c0ea2e)

# The built-in groups, whose p and q skip the Miller-Rabin rounds
_PINNED = frozenset((_DEMO, _GROUP_2048))

# Exhaustively checkable group for unit tests: 2 generates the order-11
# subgroup of Z_23 (2^11 = 2048 = 89*23 + 1).
TOY_GROUP = GroupParams(p=23, q=11, g=2)

DEMO_GROUP = GroupParams(*_DEMO)

_group_2048_cache: GroupParams | None = None


def group_2048() -> GroupParams:
    """2048-bit-class fixture; validated on first use, then cached."""
    global _group_2048_cache
    if _group_2048_cache is None:
        _group_2048_cache = GroupParams(*_GROUP_2048)
    return _group_2048_cache
