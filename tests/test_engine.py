"""Link model, transmission outcomes, and seeded stream tests."""

import math
from dataclasses import dataclass

import numpy as np
import pytest

from mscsim.engine import (
    DeliveryStatus,
    LinkKind,
    LinkModel,
    RunSeed,
    Simulator,
)


@dataclass
class FakeNode:
    id: int
    position: tuple


def test_p_loss_range_enforced():
    with pytest.raises(ValueError):
        LinkModel(LinkKind.CELLULAR, 1.0, 1.0, 1.0, 100.0)
    LinkModel(LinkKind.CELLULAR, 1.0, 0.999, 1.0, 100.0)  # boundary ok


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
    a1 = rs.mobility().integers(0, 10**9, size=8)
    a2 = RunSeed(seed=1234, crypto_stream=99).mobility().integers(0, 10**9, size=8)
    assert np.array_equal(a1, a2)
    c1 = rs.crypto().integers(0, 10**9, size=8)
    c2 = RunSeed(seed=1234, crypto_stream=99).crypto().integers(0, 10**9, size=8)
    assert not np.array_equal(c1, c2)
    # identical run seeds reproduce identical streams
    b1 = RunSeed(seed=1234).channel().integers(0, 10**9, size=8)
    b2 = RunSeed(seed=1234).channel().integers(0, 10**9, size=8)
    assert np.array_equal(b1, b2)
