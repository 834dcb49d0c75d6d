"""Link model, transmission outcomes, and seeded stream tests."""

import itertools
import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mscsim import engine
from mscsim.engine import (
    DeliveryStatus,
    LinkKind,
    LinkModel,
    ReadAheadBytes,
    ReadAheadFloats,
    RunSeed,
    Simulator,
)

# derandomized so the suite stays reproducible run to run
PROPERTY = settings(max_examples=100, deadline=None, derandomize=True,
                    database=None)


@dataclass
class FakeNode:
    id: int
    position: tuple


def test_p_loss_range_enforced():
    with pytest.raises(ValueError):
        LinkModel(LinkKind.CELLULAR, 1.0, 1.0, 1.0, 100.0)
    LinkModel(LinkKind.CELLULAR, 1.0, 0.999, 1.0, 100.0)  # boundary ok


@pytest.mark.parametrize("field", ["rate", "tx_energy", "range_m"])
def test_nan_link_constant_rejected(field):
    # NaN compares false against every bound, so a check written as
    # `rate <= 0` would let it through and make slot_duration NaN
    values = dict(rate=1.0, p_loss=0.0, tx_energy=1.0, range_m=100.0)
    values[field] = float("nan")
    with pytest.raises(ValueError):
        LinkModel(LinkKind.CELLULAR, **values)


def test_transmit_lossless_delivers_in_range():
    link = LinkModel(LinkKind.SHORT_RANGE, 4.0, 0.0, 0.2, 50.0)
    sim = Simulator()
    rng = np.random.default_rng(0)
    sender = FakeNode(0, (0.0, 0.0))
    near = FakeNode(1, (10.0, 0.0))
    far = FakeNode(2, (60.0, 0.0))
    out = sim.transmit(link, sender, [near, far], rng)
    assert out[0].status is DeliveryStatus.DELIVERED
    assert out[1].status is DeliveryStatus.OUT_OF_RANGE


def test_transmit_binomial_delivery_rate():
    link = LinkModel(LinkKind.SHORT_RANGE, 4.0, 0.1, 0.2, 50.0)
    sim = Simulator()
    rng = np.random.default_rng(13)
    sender = FakeNode(0, (0.0, 0.0))
    recv = FakeNode(1, (1.0, 0.0))
    trials = 100_000
    delivered = 0
    for _ in range(trials):
        delivered = delivered + (sim.transmit(link, sender, [recv], rng)[0].status is DeliveryStatus.DELIVERED)
    p = 0.9
    sigma = math.sqrt(p * (1 - p) / trials)
    assert abs(delivered / trials - p) < 3 * sigma


def test_seed_streams_independent():
    rs = RunSeed(seed=1234)
    # drawing from another stream id leaves the subsystem streams alone
    a1 = rs.mobility().integers(0, 10**9, size=8)
    moved = rs.stream(99).integers(0, 10**9, size=8)
    a2 = rs.mobility().integers(0, 10**9, size=8)
    assert np.array_equal(a1, a2)
    c1 = rs.crypto().integers(0, 10**9, size=8)
    assert not np.array_equal(c1, moved)
    assert not np.array_equal(c1, a1)
    # identical run seeds reproduce identical streams
    b1 = RunSeed(seed=1234).channel().integers(0, 10**9, size=8)
    b2 = RunSeed(seed=1234).channel().integers(0, 10**9, size=8)
    assert np.array_equal(b1, b2)


# --- range decision ------------------------------------------------------
#
# transmit skips np.hypot for co-located endpoints; the outcome must
# still be exactly `np.hypot(dx, dy) > range_m`.

def _expect_hypot_decisions(sender, receivers, range_m):
    link = LinkModel(LinkKind.CELLULAR, 1.0, 0.0, 1.0, range_m)
    out = Simulator().transmit(link, sender, receivers, np.random.default_rng(0))
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


# --- read-ahead streams ----------------------------------------------------

# One uint8 draw: empty, short, a (g, L) payload block, or more than a
# whole read-ahead block.
_BYTE_SIZES = st.one_of(
    st.just(0),
    st.integers(1, 300),
    st.tuples(st.integers(1, 64), st.integers(1, 40)),
    st.integers(engine._BYTE_BLOCK - 3, 2 * engine._BYTE_BLOCK + 5),
)


def _streams(seed: int, odd_carry: bool):
    """Two generators in one state. An odd number of 32-bit words drawn
    leaves half of a 64-bit output cached, the odd carry state."""
    raw, wrapped = np.random.default_rng(seed), np.random.default_rng(seed)
    for rng in (raw, wrapped):
        rng.integers(0, 256, size=4 if odd_carry else 8, dtype=np.uint8)
    return raw, wrapped


@PROPERTY
@given(seed=st.integers(0, 2 ** 32 - 1), odd_carry=st.booleans(),
       sizes=st.lists(_BYTE_SIZES, min_size=1, max_size=40))
def test_read_ahead_bytes_equal_the_raw_generator(seed, odd_carry, sizes):
    raw, wrapped = _streams(seed, odd_carry)
    ahead = ReadAheadBytes(wrapped)
    for size in sizes:
        want = raw.integers(0, 256, size=size, dtype=np.uint8)
        got = ahead.integers(0, 256, size=size, dtype=np.uint8)
        assert got.dtype == np.uint8 and got.shape == want.shape
        assert np.array_equal(got, want)


@PROPERTY
@given(seed=st.integers(0, 2 ** 32 - 1), odd_carry=st.booleans(),
       count=st.integers(0, 3 * engine._FLOAT_BLOCK + 1))
def test_read_ahead_floats_equal_the_raw_generator(seed, odd_carry, count):
    raw, wrapped = _streams(seed, odd_carry)
    ahead = ReadAheadFloats(wrapped)
    for _ in range(count):
        want, got = raw.random(), ahead.random()
        assert type(got) is float and got == want


@pytest.mark.parametrize("args, error", [
    ((0, 255, 4, np.uint8), ValueError),
    ((1, 256, 4, np.uint8), ValueError),
    ((0, 256, 4, np.int64), ValueError),
    ((0, 256, 4, np.uint16), ValueError),
    ((0, 256, None, np.uint8), TypeError),
    ((0, 256, 2.0, np.uint8), TypeError),
    ((0, 256, -1, np.uint8), ValueError),
    ((0, 256, (3, -1), np.uint8), ValueError),
    ((0, 256, (-2, -2), np.uint8), ValueError),
])
def test_read_ahead_bytes_serve_only_uint8_bytes(args, error):
    with pytest.raises(error):
        ReadAheadBytes(np.random.default_rng(0)).integers(*args)


def test_read_ahead_streams_serve_one_draw_kind_each():
    rng = np.random.default_rng(0)
    with pytest.raises(AttributeError):
        ReadAheadBytes(rng).random()
    with pytest.raises(AttributeError):
        ReadAheadFloats(rng).integers(0, 256, 4, np.uint8)
    with pytest.raises(TypeError):
        ReadAheadFloats(rng).random(4)
