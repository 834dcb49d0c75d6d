"""Link model, transmission outcomes, and seeded stream tests."""

import itertools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mscsim import engine
from mscsim.config import default_scenario
from mscsim.engine import (
    CHANNEL_STREAM,
    CODING_STREAM,
    CRYPTO_STREAM,
    DEFAULT_CELLULAR,
    DEFAULT_SHORT_RANGE,
    DeliveryStatus,
    LinkKind,
    LinkModel,
    MOBILITY_STREAM,
    RunSeed,
    Simulator,
    Stream,
)

import reference


@dataclass
class FakeNode:
    id: int
    position: tuple


def test_default_links_are_the_scenario_defaults():
    # sessions built on SessionConfig's and CooperativeCloud's default
    # links (the acceptance criteria) see the links an unchanged
    # scenario gives a run
    s = default_scenario(1)
    assert ((DEFAULT_CELLULAR.tx_energy, DEFAULT_CELLULAR.range_m)
            == (s.cellular_energy, s.cellular_range))
    assert ((DEFAULT_SHORT_RANGE.tx_energy, DEFAULT_SHORT_RANGE.range_m)
            == (s.shortrange_energy, s.shortrange_range))


@pytest.mark.parametrize("field", ["tx_energy", "range_m"])
def test_nan_link_constant_rejected(field):
    # NaN compares false against every bound, so a check written as
    # `range_m <= 0` would let it through and put every receiver in range
    values = dict(tx_energy=1.0, range_m=100.0)
    values[field] = float("nan")
    with pytest.raises(ValueError):
        LinkModel(LinkKind.CELLULAR, **values)


def test_transmit_lossless_delivers_in_range():
    link = LinkModel(LinkKind.SHORT_RANGE, 0.2, 50.0)
    sim = Simulator()
    rng = np.random.default_rng(0)
    sender = FakeNode(0, (0.0, 0.0))
    near = FakeNode(1, (10.0, 0.0))
    far = FakeNode(2, (60.0, 0.0))
    out = sim.transmit(link, 0.0, sender, [near, far], rng)
    assert out[0].status is DeliveryStatus.DELIVERED
    assert out[1].status is DeliveryStatus.OUT_OF_RANGE


def test_transmit_binomial_delivery_rate():
    link = LinkModel(LinkKind.SHORT_RANGE, 0.2, 50.0)
    sim = Simulator()
    rng = np.random.default_rng(13)
    sender = FakeNode(0, (0.0, 0.0))
    recv = FakeNode(1, (1.0, 0.0))
    trials = 100_000
    delivered = 0
    for _ in range(trials):
        delivered = delivered + (sim.transmit(link, 0.1, sender, [recv], rng)[0].status is DeliveryStatus.DELIVERED)
    p = 0.9
    sigma = math.sqrt(p * (1 - p) / trials)
    assert abs(delivered / trials - p) < 3 * sigma


def test_seed_streams_independent():
    rs = RunSeed(seed=1234)
    # drawing from another stream id leaves the subsystem streams alone
    a1 = rs.mobility().integers(0, 1 << 32, size=8, dtype=np.uint64)
    moved = rs.stream(99).integers(0, 1 << 32, size=8, dtype=np.uint64)
    a2 = rs.mobility().integers(0, 1 << 32, size=8, dtype=np.uint64)
    assert np.array_equal(a1, a2)
    c1 = rs.crypto().integers(0, 1 << 32, size=8, dtype=np.uint64)
    assert not np.array_equal(c1, moved)
    assert not np.array_equal(c1, a1)
    # identical run seeds reproduce identical streams
    b1 = RunSeed(seed=1234).channel().integers(0, 1 << 32, size=8,
                                               dtype=np.uint64)
    b2 = RunSeed(seed=1234).channel().integers(0, 1 << 32, size=8,
                                               dtype=np.uint64)
    assert np.array_equal(b1, b2)


# --- range decision ------------------------------------------------------
#
# transmit skips np.hypot for co-located endpoints; the outcome must
# still be exactly `np.hypot(dx, dy) > range_m`.

def _expect_hypot_decisions(sender, receivers, range_m):
    link = LinkModel(LinkKind.CELLULAR, 1.0, range_m)
    out = Simulator().transmit(link, 0.0, sender, receivers,
                               np.random.default_rng(0))
    assert [d.receiver for d in out] == [r.id for r in receivers]
    sx, sy = sender.position
    for d, recv in zip(out, receivers):
        assert isinstance(d.status, DeliveryStatus)
        beyond = np.hypot(sx - recv.position[0], sy - recv.position[1]) > range_m
        expected = DeliveryStatus.OUT_OF_RANGE if beyond else DeliveryStatus.DELIVERED
        assert d.status is expected, (sender, recv, range_m)
    return [d.status for d in out]


@pytest.mark.parametrize("coord", [float, np.float64, np.float32])
@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
def test_range_decision_equals_np_hypot_on_random_offsets(coord, scale):
    rng = np.random.default_rng(17)
    for _ in range(20):
        sender = FakeNode(0, tuple(coord(v) for v in rng.uniform(-scale, scale, 2)))
        receivers = [FakeNode(i, tuple(coord(v) for v in rng.uniform(-scale, scale, 2)))
                     for i in range(1, 41)]
        for range_m in rng.uniform(0.0, 2.0 * scale, 5):
            if range_m > 0:
                _expect_hypot_decisions(sender, receivers, float(range_m))


def test_range_decision_equals_np_hypot_on_special_values():
    specials = (0.0, -0.0, 1.0, float("inf"), float("-inf"), float("nan"))
    receivers = [FakeNode(i, (x, y))
                 for i, (x, y) in enumerate(itertools.product(specials, repeat=2))]
    for sender in (FakeNode(-1, (0.0, 0.0)), FakeNode(-1, (float("inf"), 1.0))):
        for range_m in (0.5, 2.0, float("inf")):
            _expect_hypot_decisions(sender, receivers, range_m)


@pytest.mark.parametrize("range_m", [5e-324, 1e-300, 1.0, 50.0, 1e300])
def test_co_located_endpoints_are_in_range(range_m):
    sender = FakeNode(0, (12.5, -7.25))
    receivers = [FakeNode(1, (12.5, -7.25)), FakeNode(2, (12.5, -7.25)),
                 FakeNode(3, (np.float64(12.5), -7.25))]
    statuses = _expect_hypot_decisions(sender, receivers, range_m)
    assert statuses == [DeliveryStatus.DELIVERED] * 3
    origin = [FakeNode(4, (0, 0)), FakeNode(5, (-0.0, -0.0))]
    assert (_expect_hypot_decisions(FakeNode(0, (0.0, 0.0)), origin, range_m)
            == [DeliveryStatus.DELIVERED] * 2)


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
def test_range_decision_at_the_edge(scale):
    rng = np.random.default_rng(19)
    for _ in range(200):
        sender = FakeNode(0, tuple(float(v) for v in rng.uniform(-scale, scale, 2)))
        recv = FakeNode(1, tuple(float(v) for v in rng.uniform(-scale, scale, 2)))
        edge = float(np.hypot(sender.position[0] - recv.position[0],
                              sender.position[1] - recv.position[1]))
        below, above = np.nextafter(edge, 0.0), np.nextafter(edge, np.inf)
        assert _expect_hypot_decisions(sender, [recv], edge) == [DeliveryStatus.DELIVERED]
        assert _expect_hypot_decisions(sender, [recv], float(below)) == [DeliveryStatus.OUT_OF_RANGE]
        assert _expect_hypot_decisions(sender, [recv], float(above)) == [DeliveryStatus.DELIVERED]


# --- streams ----------------------------------------------------------------
#
# Each Stream call form against the numpy Generator call it stands in for,
# over the same PCG64(SeedSequence(seed)).

_BLOCK = engine._BLOCK_WORDS


def _generator(seed):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


def _same(got, want):
    assert type(got) is type(want)
    if isinstance(want, np.ndarray):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)
    else:
        assert got == want


_BOUND = st.one_of(st.floats(-1e9, 1e9), st.integers(-10 ** 6, 10 ** 6))
_WORD_DRAWS = st.one_of(
    st.just(("random",)),
    st.tuples(st.just("uniform"), _BOUND, _BOUND).map(
        lambda t: (t[0], *sorted(t[1:]))),
    # across a read-ahead block boundary
    st.tuples(st.just("burst"), st.integers(_BLOCK - 3, _BLOCK + 3)),
    # none, a few, across a block boundary, or more than a whole block
    st.tuples(st.just("floats"), st.one_of(
        st.just(0), st.integers(1, 20), st.integers(_BLOCK - 3, _BLOCK + 3),
        st.integers(2 * _BLOCK, 3 * _BLOCK))),
)


@settings(max_examples=100)
@given(seed=st.integers(0, 2 ** 64 - 1),
       draws=st.lists(_WORD_DRAWS, min_size=1, max_size=30))
def test_word_draws_equal_the_generator(seed, draws):
    stream, gen = Stream(seed), _generator(seed)
    for kind, *args in draws:
        if kind == "burst":
            _same([stream.random() for _ in range(args[0])],
                  gen.random(args[0]).tolist())
        elif kind == "floats":
            _same(stream.floats(args[0]), gen.random(args[0]))
        else:
            _same(getattr(stream, kind)(*args), getattr(gen, kind)(*args))


# scalar draws, then one array that starts at `first` within the
# read-ahead block and takes k, then scalar draws again
@pytest.mark.parametrize("first, k", [
    (0, 0), (5, 0), (0, 1), (0, _BLOCK), (0, _BLOCK + 1), (1, _BLOCK - 1),
    (_BLOCK - 2, 5), (_BLOCK, 3), (10, 3 * _BLOCK + 7)])
def test_floats_equal_the_scalar_draws_around_a_block(first, k):
    stream, gen = Stream(11), _generator(11)
    _same([stream.random() for _ in range(first)], gen.random(first).tolist())
    _same(stream.floats(k), gen.random(k))
    _same([stream.random() for _ in range(_BLOCK + 2)],
          gen.random(_BLOCK + 2).tolist())


# a draw's size: empty, short, a (g, L) block with empty rows or columns,
# or more than a whole read-ahead block of bytes
_SIZES = st.one_of(
    st.just(0),
    st.integers(1, 300),
    st.tuples(st.integers(0, 64), st.integers(0, 40)),
    st.integers(8 * _BLOCK - 5, 16 * _BLOCK + 5),
)


@st.composite
def _choice_args(draw):
    pop = draw(st.one_of(st.integers(0, 40), st.integers(0, engine.CHOICE_MAX)))
    k = min(pop, 64)
    # the whole population, when it is small, or a part of it
    return pop, draw(st.one_of(st.just(k), st.integers(0, k)))


_HALF_DRAWS = st.one_of(
    st.tuples(st.just("bytes"), _SIZES),
    st.tuples(st.just("words"), st.one_of(
        st.integers(0, 20), st.tuples(st.integers(0, 4), st.integers(0, 4)))),
    st.tuples(st.just("choice"), _choice_args()),
)


def _half_draw(rng, kind, arg):
    if kind == "bytes":
        return rng.integers(0, 256, size=arg, dtype=np.uint8)
    if kind == "words":
        return rng.integers(0, 1 << 32, size=arg, dtype=np.uint64)
    pop, size = arg
    return rng.choice(pop, size=size, replace=False)


@settings(max_examples=100)
@given(seed=st.integers(0, 2 ** 64 - 1),
       draws=st.lists(_HALF_DRAWS, min_size=1, max_size=30))
def test_half_draws_equal_the_generator(seed, draws):
    stream, gen = Stream(seed), _generator(seed)
    for kind, arg in draws:
        _same(_half_draw(stream, kind, arg), _half_draw(gen, kind, arg))


# 200 and 201 straddle the sample size (a // 50) above which numpy's
# choice would take a tail shuffle for a larger population; seed 29's
# full sample meets one of Lemire's rare rejections (about one draw in a
# million), which the random sequences above may miss
@pytest.mark.parametrize("seed, size", [
    (5, 1), (5, 200), (5, 201), (5, 9999), (5, 10000), (29, 10000)])
def test_choice_over_the_largest_served_population(seed, size):
    pop = engine.CHOICE_MAX
    stream, gen = Stream(seed), _generator(seed)
    _same(stream.choice(pop, size, replace=False),
          gen.choice(pop, size, replace=False))
    _same(_half_draw(stream, "words", 3), _half_draw(gen, "words", 3))


@pytest.mark.parametrize("low, high", [
    (2.0, 1.0), (-1e308, 1e308), (0.0, math.inf), (math.nan, 1.0),
    (1.0, -math.inf), (0, 10 ** 400)])
def test_uniform_refuses_what_the_generator_refuses(low, high):
    with pytest.raises(Exception) as want:
        _generator(0).uniform(low, high)
    with pytest.raises(want.type):
        Stream(0).uniform(low, high)


_FIRST_WORD = {"random": lambda s: s.random(),
               "uniform": lambda s: s.uniform(0.0, 1.0),
               "floats": lambda s: s.floats(3),
               "no floats": lambda s: s.floats(0)}
_FIRST_HALF = {"bytes": lambda s: s.integers(0, 256, 4, np.uint8),
               "no bytes": lambda s: s.integers(0, 256, 0, np.uint8),
               "words": lambda s: s.integers(0, 1 << 32, 2, np.uint64),
               "choice": lambda s: s.choice(5, 2, replace=False),
               "empty choice": lambda s: s.choice(1, 0, replace=False)}
_ALL = {**_FIRST_WORD, **_FIRST_HALF}


@pytest.mark.parametrize("first, then", [
    *itertools.product(_FIRST_WORD, _FIRST_HALF),
    *itertools.product(_FIRST_HALF, _FIRST_WORD)])
def test_a_stream_serves_one_family(first, then):
    stream = Stream(0)
    _ALL[first](stream)
    with pytest.raises(ValueError, match="this stream serves"):
        _ALL[then](stream)
    _ALL[first](stream)   # the refused draw took nothing


@pytest.mark.parametrize("call, error", [
    ("integers(0, 255, 4, np.uint8)", ValueError),
    ("integers(1, 256, 4, np.uint8)", ValueError),
    ("integers(0, 256, 4, np.int64)", ValueError),
    ("integers(0, 256, 4, np.uint16)", ValueError),
    ("integers(0, 2 ** 31, 4, np.uint64)", ValueError),
    ("integers(0, 2 ** 32, 4, np.uint32)", ValueError),
    ("integers(0, 256, None, np.uint8)", TypeError),
    ("integers(0, 256, 2.0, np.uint8)", TypeError),
    ("integers(0, 256, -1, np.uint8)", ValueError),
    ("integers(0, 256, (3, -1), np.uint8)", ValueError),
    ("integers(0, 256, (-2, -2), np.uint8)", ValueError),
    ("random(4)", TypeError),
    ("uniform(0.0, 1.0, 3)", TypeError),
    ("floats()", TypeError),
    ("floats(2.0)", TypeError),
    ("floats(-1)", ValueError),
    ("choice(5, 2)", ValueError),
    ("choice(5, None, replace=False)", TypeError),
    ("choice(5, (1, 2), replace=False)", TypeError),
    ("choice([1, 2, 3], 2, replace=False)", TypeError),
    ("choice(3, 4, replace=False)", ValueError),
    ("choice(5, -1, replace=False)", ValueError),
    ("choice(engine.CHOICE_MAX + 1, 1, replace=False)", ValueError),
    ("standard_normal()", AttributeError),
    ("bytes(4)", AttributeError),
])
def test_a_stream_serves_only_the_library_call_forms(call, error):
    stream = Stream(0)
    with pytest.raises(error):
        eval(f"stream.{call}")


# The first draws of each stream id at seed 1: the three first 32-bit
# halves and the two first floats. They rest on numpy's SeedSequence and
# PCG64 alone, which NEP 19 keeps stable; a change there moves every
# golden digest, and fails here first, by name.
FIRST_DRAWS = {
    MOBILITY_STREAM: ([2032329983, 2198257139, 3243419750],
                      [0.5118216247002567, 0.9504636963259353]),
    CHANNEL_STREAM: ([2228177951, 1425381069, 1555561066],
                     [0.33187239186810047, 0.6118959736456587]),
    CODING_STREAM: ([2762783682, 1925928375, 4030437547],
                    [0.44841514333227195, 0.4308819875443376]),
    CRYPTO_STREAM: ([1916876593, 60424343, 3526150302],
                    [0.01406863877696618, 0.13660820057173162]),
}


@pytest.mark.parametrize("stream_id", sorted(FIRST_DRAWS))
def test_first_draws_of_each_stream_are_pinned(stream_id):
    halves, floats = FIRST_DRAWS[stream_id]
    run_seed = RunSeed(1)
    got = run_seed.stream(stream_id).integers(0, 1 << 32, 3, np.uint64)
    assert got.tolist() == halves
    stream = run_seed.stream(stream_id)
    assert [stream.random(), stream.random()] == floats
    # the first float is the first word, low half first, shifted by 11
    word = halves[0] | halves[1] << 32
    assert (word >> 11) * 2.0 ** -53 == floats[0]


# The entropies the plain-Python PCG64 reference is checked on: single
# ints of one and two words, and tuples as `RunSeed.stream` builds them.
REFERENCE_ENTROPIES = [0, 1, 7919, 2 ** 63 - 5, (1, 0), (12345, 3),
                       (2 ** 62 + 17, 2, 199)]


@pytest.mark.parametrize("entropy", REFERENCE_ENTROPIES, ids=str)
def test_the_pcg64_reference_gives_numpy_words(entropy):
    bitgen = np.random.PCG64(np.random.SeedSequence(entropy))
    assert reference.pcg64_words(entropy, 1000) == bitgen.random_raw(1000).tolist()


@pytest.mark.parametrize("entropy", REFERENCE_ENTROPIES, ids=str)
def test_stream_draws_are_the_reference_words(entropy):
    """`random()` is each word shifted by 11; `integers(0, 2**32, n,
    np.uint64)`, the form `rand_below` draws every key-management scalar
    with, is the words' 32-bit halves, low half first, whatever n is.
    Both run past the first read-ahead block."""
    words = reference.pcg64_words(entropy, _BLOCK + 600)
    stream = Stream(entropy)
    assert [stream.random() for _ in words] == [(w >> 11) * 2.0 ** -53
                                                for w in words]
    halves = [h for w in words for h in (w & 0xFFFFFFFF, w >> 32)]
    stream, got = Stream(entropy), []
    for n in itertools.islice(itertools.cycle((8, 5, 1, 3, 8, 16)), 1300):
        got += stream.integers(0, 1 << 32, n, np.uint64).tolist()
    assert 2 * _BLOCK < len(got) <= len(halves)
    assert got == halves[:len(got)]


def test_streams_are_the_only_draw_mechanism():
    # a Generator's method algorithms may change between numpy releases;
    # a Stream states its own
    for path in sorted(Path(engine.__file__).parent.rglob("*.py")):
        text = path.read_text()
        for banned in ("default_rng", "np.random.Generator"):
            assert banned not in text, f"{path.name} uses {banned}"
