"""Formation, election, mobility, and gateway tests."""

import math

import numpy as np
import pytest

from mscsim.handover import RadioLinkFailure, associate_gateway
from mscsim.topology import (
    Node,
    NodeKind,
    TopologyError,
    election_score,
    form_msc,
    max_step_walk,
    step_mobility,
    topology_snapshot,
)


def ue(nid, x=0.0, y=0.0, battery=1.0, speed=0.0):
    return Node(nid, NodeKind.UE, (x, y), battery=battery, speed=speed)


def bs(nid, x=0.0, y=0.0):
    return Node(nid, NodeKind.BASE_STATION, (x, y))


def test_single_candidate_becomes_head():
    assert form_msc([ue(7)], radius=50.0) == (7, (7,))


def test_higher_battery_elected():
    a = ue(1, 0.0, 0.0, battery=0.9)
    b = ue(2, 1.0, 0.0, battery=0.5)
    head, members = form_msc([a, b], radius=50.0)
    assert head == 1
    roles = {r["node"]: r["role"]
             for r in topology_snapshot([a, b], head, members)}
    assert roles == {1: "mch", 2: "member"}


def test_tie_break_lowest_id():
    # two mirror-image candidates score identically; id 2 wins the tie
    a = ue(4, 0.0, 0.0)
    b = ue(2, 10.0, 0.0)
    assert election_score(a, [a, b], 50.0) == pytest.approx(election_score(b, [a, b], 50.0))
    head, _ = form_msc([a, b], radius=50.0)
    assert head == 2


def test_empty_and_duplicate_candidates_rejected():
    with pytest.raises(TopologyError):
        form_msc([], 50.0)
    with pytest.raises(TopologyError):
        form_msc([ue(1), ue(1, 1.0)], 50.0)


def test_membership_within_the_head_radius():
    a = ue(1, 0.0, 0.0, battery=1.0)
    b = ue(2, 10.0, 0.0, battery=0.4)
    c = ue(3, 200.0, 0.0, battery=0.4)  # outside any head radius near the origin
    head, members = form_msc([c, b, a], radius=50.0)
    assert head == 1
    assert members == (1, 2)    # ascending ids, whatever the order given
    roles = [r["role"] for r in topology_snapshot([a, b, c], head, members)]
    assert roles == ["mch", "member", "idle"]


def test_mobility_zero_velocity():
    n = ue(1, 10.0, 20.0, speed=0.0)
    step_mobility([n], 1.0, 1, np.random.default_rng(0), (100.0, 100.0), (1.0, 5.0))
    assert n.position == (10.0, 20.0)


def test_mobility_straight_segment_displacement():
    n = ue(1, 0.0, 0.0, speed=7.0)
    n.waypoint = (100.0, 0.0)
    step_mobility([n], 1.0, 1, np.random.default_rng(0), (200.0, 200.0), (1.0, 5.0))
    assert n.position[0] == pytest.approx(7.0)
    assert n.position[1] == pytest.approx(0.0)


def test_mobility_bs_fixed():
    b = bs(1, 50.0, 50.0)
    b.speed = 99.0
    step_mobility([b], 10.0, 1, np.random.default_rng(0), (100.0, 100.0), (1.0, 5.0))
    assert b.position == (50.0, 50.0)


def test_mobility_tracks_one_moving_device():
    n = ue(1, 0.0, 0.0, speed=2.0)
    n.waypoint = (100.0, 0.0)
    b = bs(2, 50.0, 50.0)
    xs, ys = step_mobility([b, n], 1.0, 3, np.random.default_rng(0),
                           (200.0, 200.0), (1.0, 5.0), track=n)
    assert list(xs) == pytest.approx([2.0, 4.0, 6.0]) and list(ys) == [0.0] * 3
    assert n.position == (xs[-1], ys[-1])
    xs, ys = step_mobility([n], 1.0, 2, np.random.default_rng(0),
                           (200.0, 200.0), (1.0, 5.0))
    assert len(xs) == len(ys) == 0
    with pytest.raises(TopologyError, match="tracked node 2"):
        step_mobility([b, n], 1.0, 1, np.random.default_rng(0),
                      (200.0, 200.0), (1.0, 5.0), track=b)


def test_mobility_waypoint_arrival_redraws():
    rng = np.random.default_rng(3)
    n = ue(1, 0.0, 0.0, speed=5.0)
    n.waypoint = (3.0, 0.0)
    step_mobility([n], 1.0, 1, rng, (100.0, 100.0), speed_range=(2.0, 4.0))
    # walked 3 to the waypoint then 2 more toward a fresh one
    assert n.position != (3.0, 0.0)
    assert 2.0 <= n.speed <= 4.0


def test_mobility_rejects_a_walk_of_many_diagonals():
    # hops waypoint to waypoint until the walk is spent, so its work
    # grows with walk / diagonal; ten diagonals is the limit
    assert max_step_walk(30.0, 40.0) == 500.0
    n = ue(1, 0.5, 0.5, speed=1.0)
    with pytest.raises(TopologyError, match="20.0 m/s"):
        step_mobility([n], 1.0, 1, np.random.default_rng(0), (1.0, 1.0),
                      speed_range=(20.0, 20.0))
    assert n.position == (0.5, 0.5) and n.waypoint is None
    # a device already faster than the limit allows
    n = ue(2, 5.0, 5.0, speed=200.0)
    with pytest.raises(TopologyError, match="node 2 at 200.0 m/s"):
        step_mobility([n], 1.0, 1, np.random.default_rng(0), (10.0, 10.0), (1.0, 5.0))
    # right at the limit is still a step
    n = ue(3, 0.0, 0.0, speed=500.0)
    step_mobility([n], 1.0, 1, np.random.default_rng(0), (30.0, 40.0),
                  speed_range=(500.0, 500.0))
    assert 0.0 <= n.position[0] <= 30.0 and 0.0 <= n.position[1] <= 40.0


def test_random_waypoint_center_concentration():
    # long-run positions of the random waypoint model concentrate toward
    # the arena center: mean distance to center falls well below the
    # uniform-distribution value (~0.3826 for the unit square, scaled).
    rng = np.random.default_rng(4)
    arena = (100.0, 100.0)
    nodes = [ue(i, float(rng.uniform(0, 100)), float(rng.uniform(0, 100)), speed=5.0) for i in range(60)]
    samples = []
    for step in range(400):
        step_mobility(nodes, 1.0, 1, rng, arena, speed_range=(3.0, 8.0))
        if step >= 100:
            samples.extend(math.hypot(n.position[0] - 50.0, n.position[1] - 50.0) for n in nodes)
    mean_dist = sum(samples) / len(samples)
    uniform_mean = 38.26
    assert mean_dist < 0.9 * uniform_mean


def test_gateway_single_and_tie_break():
    head = ue(1, 100.0, 0.0)
    assert associate_gateway(head, [bs(10, 0.0, 0.0)]) == 10

    # equidistant identical stations: lower id wins
    stations = [bs(11, 200.0, 0.0), bs(10, 0.0, 0.0)]
    assert associate_gateway(head, stations) == 10


def test_gateway_prefers_nearer_station():
    head = ue(1, 0.0, 0.0)
    near = bs(5, 100.0, 0.0)
    far = bs(4, 400.0, 0.0)
    assert associate_gateway(head, [far, near]) == 5


def test_gateway_within_one_metre_is_a_tie():
    # the loss is flat below 1 m: a nearer station there wins no tie
    head = ue(1, 0.0, 0.0)
    stations = [bs(7, 0.25, 0.0), bs(8, 0.0, 0.9), bs(9, 1.5, 0.0)]
    assert associate_gateway(head, stations) == 7
    stations = [bs(8, 0.25, 0.0), bs(7, 0.0, 0.9)]
    assert associate_gateway(head, stations) == 7


def test_no_station_for_the_gateway_is_a_radio_link_failure():
    with pytest.raises(RadioLinkFailure) as exc:
        associate_gateway(ue(1), [])
    assert exc.value.entity_id == 1


def test_topology_snapshot_records():
    nodes = [
        Node(3, NodeKind.UE, (1.0, 2.0)),
        Node(1, NodeKind.BASE_STATION, (0.0, 0.0)),
    ]
    recs = topology_snapshot(nodes, *form_msc([nodes[0]], 50.0))
    assert [r["node"] for r in recs] == [1, 3]  # sorted by id
    assert recs[1]["msc"] == 0 and recs[1]["role"] == "mch"
    assert recs[0]["msc"] is None
    assert set(recs[0]) == {"node", "kind", "x", "y", "role", "msc",
                            "battery"}


@pytest.mark.parametrize("battery", [-0.1, 1.5, float("nan")])
def test_a_battery_outside_zero_and_one_is_refused(battery):
    with pytest.raises(TopologyError, match="battery must be in"):
        ue(101, battery=battery)


@pytest.mark.parametrize("dt", [0.0, -1.0])
def test_mobility_refuses_a_step_that_is_not_positive(dt):
    walker = ue(101, speed=1.0)
    with pytest.raises(TopologyError, match="dt must be positive"):
        step_mobility([walker], dt, 3, np.random.default_rng(0),
                      (100.0, 100.0), (1.0, 2.0))
    assert walker.position == (0.0, 0.0)
