"""Handover signaling counts: decision rule, message taxonomy, energy.

The trace comparison runs both procedures over the same mobility trace
and checks the structural claims (1 vs 2 uplink messages per executed
handover, lower mean device energy) rather than absolute figures. The
runner's handover summary is checked against the loop it replaced, in
which each procedure measured the radio and decided on its own every
epoch and the devices moved by `reference.step_mobility`, a plain
once-per-epoch random-waypoint stepper. That loop decides in dB, through
`reference.received_power_dbm`, so it also checks the distance rule
against the path-loss law it stands for. `decide` and the two totals,
which work in array passes, are checked record for record against the
per-epoch loops `reference.decide`, `reference.ul_rs_handover` and
`reference.baseline_handover`, energies by ==; `decide`'s mask of moves
against the loop's targets, through `reference.moves`.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mscsim import runner
from mscsim.config import parse_config
from mscsim.engine import RunSeed
from mscsim.handover import (
    BLOCK_EPOCHS,
    baseline_handover,
    decide,
    hysteresis_ratio,
    ul_rs_handover,
)
from mscsim.topology import (
    Node,
    NodeKind,
    max_step_walk,
    step_mobility,
)
import reference
from reference import DEVICE_TX_POWER_DBM, REF_DISTANCE, received_power_dbm


def _mch(x=0.0, y=0.0, node_id=0):
    return Node(node_id, NodeKind.UE, (x, y))


def _bs(node_id, x, y):
    return Node(node_id, NodeKind.BASE_STATION, (x, y))


# the distance ratio of the default 3 dB margin
RATIO_3DB = hysteresis_ratio(3.0)


def _decide_one(mch, stations, serving_id, max_range=1000.0, ratio=RATIO_3DB):
    """`decide` for one epoch of a head at `mch`. Its one move is whether
    the station serving after the epoch differs from `serving_id`."""
    in_range, moved, after = decide((mch.position[0],), (mch.position[1],),
                                    stations, max_range, serving_id, ratio)
    assert moved.tolist() == [after != serving_id]
    return in_range, moved, after


def _epoch(mch, stations, serving_id, max_range=1000.0, ratio=RATIO_3DB):
    """(stations in range, target) of one epoch: the target is the
    station that serves after it."""
    (count,), _, target = _decide_one(mch, stations, serving_id, max_range,
                                      ratio)
    return count, target


# one epoch of each procedure from `serving` over [serving, *neighbors]
# at 1000 m, with the default margin: (target, signaling totals)
def _ul_rs(mch, serving, neighbors):
    in_range, moved, target = _decide_one(mch, [serving, *neighbors],
                                          serving.id)
    return target, ul_rs_handover(in_range, moved)


def _baseline(mch, serving, neighbors):
    in_range, moved, target = _decide_one(mch, [serving, *neighbors],
                                          serving.id)
    return target, baseline_handover(in_range, moved)


def _arrays(in_range, moved):
    """The arrays of `decide` for the given counts in range and moves."""
    return np.array(in_range, np.intp), np.array(moved, bool)


class TestDecide:
    def test_counts_stations_in_range_and_picks_the_nearest(self):
        stations = [_bs(3, 0, 90), _bs(1, 60, 0), _bs(4, 5000, 0), _bs(2, 80, 0)]
        assert _epoch(_mch(), stations, -1) == (3, 1)
        # 0.5 m and 0.9 m are both held at 1 m: the lower id wins the tie
        assert _epoch(_mch(), [_bs(6, 0.5, 0), _bs(5, 0, 0.9)], -1) == (2, 5)

    def test_range_is_inclusive(self):
        assert _epoch(_mch(), [_bs(1, 100, 0)], -1, 100.0) == (1, 1)
        # -1 names no station: with none in range there is no target yet
        assert _epoch(_mch(), [_bs(1, 100, 0)], -1, 99.9) == (0, -1)

    def test_each_target_serves_the_next_epoch(self):
        # the head walks from station 1 to station 2 and back out of
        # range; a failed epoch keeps the serving station
        stations = [_bs(1, 0, 0), _bs(2, 100, 0)]
        xs, ys = [10.0, 50.0, 54.0, 90.0, 500.0, 52.0], [0.0] * 6
        in_range, moved, after = decide(xs, ys, stations, 200.0, 1, RATIO_3DB)
        assert in_range.tolist() == [2, 2, 2, 2, 0, 2]
        targets = [1, 1, 1, 2, 2, 2]
        assert moved.tolist() == reference.moves(1, targets)
        assert after == targets[-1]

    @pytest.mark.parametrize("ratio", [1 - 2 ** -52, 0.5, 0.0, -1.0, math.nan])
    def test_a_ratio_below_one_is_refused(self, ratio):
        # below 1 the serving station could hand over to a farther one,
        # or to itself, so a stint could end without a move
        with pytest.raises(ValueError, match="not at least 1"):
            decide([0.0], [0.0], [_bs(1, 10, 0), _bs(2, 11, 0)], 200.0, 2,
                   ratio)


# a station's distance as a multiple of REF_DISTANCE: below, at and
# just around it, and far above
_REF_SHARES = (st.sampled_from([0.0, 0.25, 1.0 - 2 ** -40, 1.0, 1.0 + 2 ** -40,
                                10.0])
               | st.floats(0.0, 200.0))


@settings(max_examples=200)
@given(data=st.data(),
       head=st.just((0.0, 0.0))
       | st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)),
       serving=st.integers(1, 7))
def test_decide_reads_the_clamped_distance_bit_for_bit(data, head, serving):
    """The decision is the distance rule over the head's distance to each
    station, held at 1 m or above, in station-id order. A head at the
    origin puts a station at angle 0 exactly at its share of 1 m, so
    ties at and below 1 m are frequent."""
    count = data.draw(st.integers(1, 6), label="stations")
    ids = data.draw(st.permutations(range(1, count + 1)), label="ids")
    stations = []
    for bs_id in ids:
        share = data.draw(_REF_SHARES, label="distance / ref_distance")
        angle = data.draw(st.sampled_from([0.0, 0.5 * math.pi])
                          | st.floats(0.0, 2 * math.pi), label="angle")
        r = share * REF_DISTANCE
        stations.append(_bs(bs_id, head[0] + r * math.cos(angle),
                            head[1] + r * math.sin(angle)))
    mch = _mch(*head)
    reports = [(s.id, max(mch.distance_to(s), 1.0)) for s in stations]
    assert _epoch(mch, stations, serving, math.inf) == (
        count, _reference_nearest(reports, serving, RATIO_3DB))


class TestUlRs:
    def test_serving_strongest_no_handover(self):
        target, ev = _ul_rs(_mch(), _bs(1, 50, 0), [_bs(2, 100, 0)])
        assert target == 1
        assert ev["executed"] == 0
        assert ev["ue_tx"] == 1
        assert ev["ue_rx"] == 0

    def test_strong_neighbor_triggers_handover(self):
        # 50 m vs 100 m is a 10.5 dB gap, far past the 3 dB margin
        target, ev = _ul_rs(_mch(), _bs(1, 100, 0), [_bs(2, 50, 0)])
        assert ev["executed"] == 1
        assert target == 2
        assert ev["ue_tx"] == 1
        assert ev["ue_rx"] == 1

    def test_within_margin_no_handover(self):
        # 95 m vs 100 m is about 0.8 dB, inside the margin
        target, ev = _ul_rs(_mch(), _bs(1, 100, 0), [_bs(2, 95, 0)])
        assert ev["executed"] == 0
        assert target == 1

    def test_network_messages_counts_stations_in_range(self):
        target, ev = _ul_rs(_mch(), _bs(1, 60, 0),
                            [_bs(2, 80, 0), _bs(3, 0, 90), _bs(4, 5000, 0)])
        assert ev["network"] == 3  # the 5 km station never hears the UL RS

    def test_serving_out_of_range_forces_handover(self):
        target, ev = _ul_rs(_mch(), _bs(1, 5000, 0), [_bs(2, 100, 0)])
        assert ev["executed"] == 1
        assert target == 2

    def test_no_station_in_range_is_radio_link_failure(self):
        # the serving station stays, and the failed epoch signals nothing
        target, ev = _ul_rs(_mch(node_id=9), _bs(1, 5000, 0), [_bs(2, 0, 7000)])
        assert target == 1
        assert ev == {"ue_tx": 0, "ue_rx": 0, "network": 0, "energy": 0.0,
                      "executed": 0}

    def test_equidistant_neighbors_prefer_lowest_id(self):
        target, _ = _ul_rs(_mch(), _bs(1, 5000, 0),
                           [_bs(7, 100, 0), _bs(3, 0, 100)])
        assert target == 3


class TestBaseline:
    def test_no_handover_report_only(self):
        target, ev = _baseline(_mch(), _bs(1, 50, 0), [_bs(2, 100, 0)])
        assert ev["executed"] == 0
        assert ev["ue_tx"] == 1
        assert ev["ue_rx"] == 2  # downlink RS from both stations
        assert ev["network"] == 1

    def test_executed_handover_message_counts(self):
        target, ev = _baseline(_mch(), _bs(1, 100, 0), [_bs(2, 50, 0)])
        assert ev["executed"] == 1
        assert ev["ue_tx"] == 2
        assert ev["ue_rx"] == 3
        assert ev["network"] == 2

    def test_no_station_in_range_is_radio_link_failure(self):
        target, ev = _baseline(_mch(), _bs(1, 5000, 0), [])
        assert target == 1
        assert ev == {"ue_tx": 0, "ue_rx": 0, "network": 0, "energy": 0.0,
                      "executed": 0}


class TestEnergy:
    def test_zero_messages_zero_energy(self):
        for totals in (ul_rs_handover, baseline_handover):
            assert totals(*_arrays([], []))["energy"] == 0.0
            assert totals(*_arrays([0], [False]))["energy"] == 0.0

    def test_ul_rs_event_energy(self):
        assert ul_rs_handover(*_arrays([2], [True]))["energy"] == 1.0 + 0.1

    def test_energy_matches_count_arithmetic(self):
        _, ev = _baseline(_mch(), _bs(1, 100, 0), [_bs(2, 50, 0), _bs(3, 0, 70)])
        assert (ev["ue_tx"], ev["ue_rx"]) == (2, 4)
        assert ev["energy"] == 2 * 1.0 + 4 * 0.1


def test_ping_pong_suppression_static_positions():
    # A stronger neighbor wins once; afterwards the old serving station
    # would need to beat the new one by the margin, which it cannot.
    stations = [_bs(1, 100, 0), _bs(2, 80, 0)]
    in_range, moved, after = decide([0.0] * 10, [0.0] * 10, stations, 1000.0,
                                    1, RATIO_3DB)
    assert moved.tolist() == reference.moves(1, [2] * 10) and after == 2
    assert ul_rs_handover(in_range, moved)["executed"] == 1


def test_trace_comparison_ul_rs_dominates_baseline():
    """Both procedures over one 1000-epoch random-waypoint trace."""
    rng = RunSeed(7).mobility()
    stations = [_bs(1, 50.0, 50.0), _bs(2, 250.0, 50.0), _bs(3, 150.0, 250.0)]
    ue = Node(0, NodeKind.UE, (150.0, 150.0), speed=4.0, waypoint=(40.0, 40.0))
    xs, ys = step_mobility([ue, *stations], 1.0, 1000, rng, arena=(300.0, 300.0),
                           speed_range=(2.0, 8.0), track=ue)
    in_range, moved, _ = decide(xs, ys, stations, 1000.0, 1, RATIO_3DB)
    assert 0 not in in_range
    ul = ul_rs_handover(in_range, moved)
    base = baseline_handover(in_range, moved)

    assert ul["executed"] == base["executed"] > 0, \
        "trace produced no handovers; scenario is too easy"
    # one uplink message per epoch for UL-RS, one more per executed
    # handover for the baseline
    assert ul["ue_tx"] == 1000
    assert base["ue_tx"] == 1000 + base["executed"]
    assert ul["energy"] < base["energy"]


# -- the stepper against the plain per-epoch reference ----------------------


class _CountingRng:
    """A generator that counts its draws."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.draws = 0

    def uniform(self, low, high):
        self.draws += 1
        return self.rng.uniform(low, high)


def _bits(nodes):
    """Every float of the mobility state, bit for bit."""
    out = []
    for n in nodes:
        out.append((n.id, n.position[0].hex(), n.position[1].hex(),
                    None if n.waypoint is None
                    else (n.waypoint[0].hex(), n.waypoint[1].hex()),
                    float(n.speed).hex()))
    return out


def _twin_walk(make_nodes, seed, steps, dt, arena, speed_range):
    """Step two copies of the same nodes, one with `step_mobility` and one
    with the reference, from equal generators; compare after every step.
    A third copy walks all the steps in one call and is compared at the
    end. Returns the reference's draws per step."""
    ours, theirs, batch = make_nodes(), make_nodes(), make_nodes()
    rng_ours, rng_theirs = _CountingRng(seed), _CountingRng(seed)
    rng_batch = _CountingRng(seed)
    draws = []
    for _ in range(steps):
        before = rng_theirs.draws
        step_mobility(ours, dt, 1, rng_ours, arena, speed_range)
        reference.step_mobility(theirs, dt, rng_theirs, arena, speed_range)
        assert _bits(ours) == _bits(theirs)
        draws.append(rng_theirs.draws - before)
    step_mobility(batch, dt, steps, rng_batch, arena, speed_range)
    assert _bits(batch) == _bits(theirs)
    assert rng_ours.draws == rng_theirs.draws == rng_batch.draws
    assert (rng_ours.rng.random() == rng_theirs.rng.random()
            == rng_batch.rng.random())
    return draws


def _walkers(arena, speeds, waypoints=None):
    width, height = arena

    def make():
        nodes = [Node(50, NodeKind.BASE_STATION, (width / 2, height / 2))]
        for k, speed in enumerate(speeds):
            waypoint = None if waypoints is None else waypoints[k]
            nodes.append(Node(k + 1, NodeKind.UE,
                              (width * (k + 1) / (len(speeds) + 1), height / 3),
                              speed=speed, waypoint=waypoint))
        return nodes
    return make


def test_stepper_matches_reference_with_zero_minimum_speed():
    draws = _twin_walk(_walkers((300.0, 300.0), [0.0, 2.5, 5.0]), 11, 1500,
                       1.0, (300.0, 300.0), (0.0, 5.0))
    assert sum(draws) > 20


def test_stepper_matches_reference_with_a_zero_speed_range():
    # an arrival draws speed 0 and a fresh waypoint, then the node stops
    # for good: three draws for node 1, two more for node 2's first
    # waypoint
    draws = _twin_walk(_walkers((40.0, 30.0), [7.0, 3.0], [(39.0, 1.0), None]),
                       2, 40, 2.0, (40.0, 30.0), (0.0, 0.0))
    assert sum(draws) == 3 + 2 + 3 and draws[-1] == 0


def test_stepper_matches_reference_with_arrivals_within_a_step():
    # a walk of about two diagonals per step crosses several waypoints
    draws = _twin_walk(_walkers((10.0, 3.0), [20.0, 25.0]), 5, 300, 1.0,
                       (10.0, 3.0), (20.0, 25.0))
    assert max(draws) >= 3 * 4


def test_stepper_matches_reference_in_a_strip():
    draws = _twin_walk(_walkers((1000.0, 4.0), [1.0, 9.0, 30.0]), 8, 800, 0.5,
                       (1000.0, 4.0), (1.0, 30.0))
    assert sum(draws) > 10


# (nodes, seed, dt, arena, speed range): devices that stop for good
# on a zero speed, devices that cross several waypoints per step, and a
# device that ends its first step exactly on its waypoint, so that it
# draws the next one in step 2, after the second device's first draws
_WALKS = {
    "exact-arrival": (_walkers((30.0, 30.0), [5.0, 3.0], [(15.0, 10.0), None]),
                      3, 1.0, (30.0, 30.0), (1.0, 4.0)),
    "zero-speed": (_walkers((40.0, 30.0), [7.0, 0.0, 3.0],
                            [(39.0, 1.0), None, None]),
                   2, 2.0, (40.0, 30.0), (0.0, 0.0)),
    "arrivals": (_walkers((10.0, 3.0), [20.0, 25.0]), 5, 1.0, (10.0, 3.0),
                 (20.0, 25.0)),
}


@pytest.mark.parametrize("k", [1, 2, 50])
@pytest.mark.parametrize("walk", sorted(_WALKS))
def test_k_steps_in_one_call_equal_k_one_step_calls(walk, k):
    """Every node's position, waypoint and speed, the head's track and the
    generator's next draw are the same after one k-step call, k one-step
    calls and k steps of the reference."""
    make, seed, dt, arena, speed_range = _WALKS[walk]
    batch, single, ref = make(), make(), make()
    rngs = [_CountingRng(seed) for _ in range(3)]
    xs, ys = step_mobility(batch, dt, k, rngs[0], arena, speed_range,
                           track=batch[-1])
    single_track, ref_track = [], []
    for _ in range(k):
        single_track.extend(zip(*step_mobility(single, dt, 1, rngs[1], arena,
                                               speed_range, track=single[-1])))
        reference.step_mobility(ref, dt, rngs[2], arena, speed_range)
        ref_track.append(ref[-1].position)
    assert _bits(batch) == _bits(single) == _bits(ref)
    assert [(x.hex(), y.hex()) for x, y in zip(xs, ys)] == [
        (x.hex(), y.hex()) for x, y in single_track] == [
        (x.hex(), y.hex()) for x, y in ref_track]
    assert len({r.draws for r in rngs}) == 1
    assert len({r.rng.random() for r in rngs}) == 1


@settings(max_examples=150)
@given(data=st.data(),
       arena=st.tuples(st.floats(0.5, 2000.0), st.floats(0.5, 2000.0)),
       dt=st.floats(0.01, 10.0),
       walk_share=st.floats(0.0, 0.9),
       low_share=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
       steps=st.integers(1, 60),
       seed=st.integers(0, 2 ** 32 - 1))
def test_stepper_matches_the_reference_property(data, arena, dt, walk_share,
                                                low_share, steps, seed):
    """Positions, waypoints, speeds and the generator's next draw stay
    bit-identical over many steps, for walks up to 0.9 of the limit."""
    high = walk_share * max_step_walk(*arena) / dt
    speed_range = (low_share * high, high)
    unit = st.floats(0.0, 1.0)
    count = data.draw(st.integers(1, 4), label="nodes")
    speeds = [data.draw(unit, label="speed") * high for _ in range(count)]
    waypoints = [data.draw(st.none() | st.tuples(unit, unit), label="waypoint")
                 for _ in range(count)]
    waypoints = [None if w is None else (w[0] * arena[0], w[1] * arena[1])
                 for w in waypoints]
    _twin_walk(_walkers(arena, speeds, waypoints), seed, steps, dt, arena,
               speed_range)


@settings(max_examples=80)
@given(data=st.data(),
       width=st.floats(1.0, 500.0),
       aspect=st.sampled_from([0.05, 3.0]) | st.floats(0.05, 20.0),
       dt=st.floats(0.1, 5.0),
       walk_share=st.sampled_from([0.0, 0.01]) | st.floats(0.0, 0.5),
       low_share=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
       steps=st.integers(1, 120),
       seed=st.integers(0, 2 ** 32 - 1))
def test_track_and_final_state_match_the_reference_stepper(
        data, width, aspect, dt, walk_share, low_share, steps, seed):
    """One call of `step_mobility` over every step gives the tracked
    device's position after each step, every device's final state and
    the generator's next draw of the plain stepper called once per step,
    in a non-square arena with devices that never move."""
    arena = (width, width * aspect)
    high = walk_share * max_step_walk(*arena) / dt
    speed_range = (low_share * high, high)
    count = data.draw(st.integers(1, 4), label="devices")
    speeds = [data.draw(st.just(0.0) | st.floats(0.0, 1.0), label="speed")
              * high for _ in range(count)]
    make = _walkers(arena, speeds)
    tracked = data.draw(st.integers(1, count), label="tracked device")
    ours, theirs = make(), make()
    rng_ours, rng_theirs = _CountingRng(seed), _CountingRng(seed)
    xs, ys = step_mobility(ours, dt, steps, rng_ours, arena, speed_range,
                           track=ours[tracked])
    track = []
    for _ in range(steps):
        reference.step_mobility(theirs, dt, rng_theirs, arena, speed_range)
        track.append(theirs[tracked].position)
    assert [(x.hex(), y.hex()) for x, y in zip(xs, ys)] == [
        (x.hex(), y.hex()) for x, y in track]
    assert _bits(ours) == _bits(theirs)
    assert rng_ours.draws == rng_theirs.draws
    assert rng_ours.rng.random() == rng_theirs.rng.random()


# -- the array passes against the per-epoch loops -------------------------

# coordinates on a 1 m grid often put stations level with each other and
# within 1 m of the head; the floats between them do the rest
_COORDS = st.integers(0, 12).map(float) | st.floats(0.0, 12.0)


def _check_against_the_loops(xs, ys, stations, max_range, serving, ratio):
    """`decide` and both totals equal the loops of `reference` epoch for
    epoch and key for key, floats by ==: the moves are where the loop's
    target changes, and the station serving after the track is its last
    target. The loops' None serving and target are the arrays' -1."""
    start = -1 if serving is None else serving
    in_range, moved, after = decide(xs, ys, stations, max_range, start, ratio)
    ref_in_range, ref_targets = reference.decide(xs, ys, stations, max_range,
                                                 serving, ratio)
    ref_targets = [-1 if t is None else t for t in ref_targets]
    assert in_range.tolist() == ref_in_range
    assert moved.tolist() == reference.moves(start, ref_targets)
    assert after == ([start] + ref_targets)[-1] and type(after) is int
    for ours, theirs in ((ul_rs_handover, reference.ul_rs_handover),
                         (baseline_handover, reference.baseline_handover)):
        got = ours(in_range, moved)
        want = theirs(start, ref_in_range, ref_targets)
        assert got == want
        assert {k: type(v) for k, v in got.items()} == {
            k: type(v) for k, v in want.items()}
    return ref_in_range, ref_targets


@settings(max_examples=300)
@given(data=st.data(),
       count=st.integers(1, 5),
       track=st.lists(st.tuples(_COORDS, _COORDS), max_size=40),
       max_range=st.sampled_from([0.5, 1.0, 3.0, math.inf])
       | st.floats(0.1, 20.0),
       hysteresis=st.sampled_from([0.0, 3.0, 20000.0]) | st.floats(0.0, 40.0))
def test_array_passes_match_the_per_epoch_loops(data, count, track,
                                                max_range, hysteresis):
    """Ties, distances under 1 m, epochs with no station in range, no
    serving station, h = 0 and a margin whose K is inf."""
    ids = data.draw(st.lists(st.integers(0, 9), min_size=count,
                             max_size=count, unique=True), label="ids")
    stations = [_bs(bs_id, data.draw(_COORDS, label="x"),
                    data.draw(_COORDS, label="y")) for bs_id in ids]
    xs, ys = [x for x, _ in track], [y for _, y in track]
    serving = data.draw(st.none() | st.sampled_from(ids) | st.just(42),
                        label="serving")
    _check_against_the_loops(xs, ys, stations, max_range, serving,
                             hysteresis_ratio(hysteresis))


def test_inf_margin_and_grid_ties_are_reached():
    assert hysteresis_ratio(20000.0) == math.inf
    # the head sits between two stations 2 m apart, then under 1 m from
    # both, then out of range: a tie, a clamp tie and a failed epoch
    stations = [_bs(4, 0.0, 0.0), _bs(2, 2.0, 0.0)]
    in_range, targets = _check_against_the_loops(
        [1.0, 1.0, 9.0], [0.0, 0.0, 9.0], stations, 3.0, None, 1.0)
    assert (in_range, targets) == ([2, 2, 0], [2, 2, 2])


@pytest.mark.parametrize("hysteresis", [0.0, 3.0])
def test_array_passes_match_the_loops_over_a_long_walk(hysteresis):
    """5000 epochs of a random-waypoint head past five stations: they
    span several blocks of `decide`, and the energies are long running
    totals, which a pairwise sum would round differently."""
    assert 5000 > 4 * BLOCK_EPOCHS
    rng = RunSeed(23).mobility()
    stations = [_bs(i, 50.0 * i, 150.0) for i in range(1, 6)]
    head = Node(0, NodeKind.UE, (150.0, 150.0), speed=3.0)
    xs, ys = step_mobility([head], 1.0, 5000, rng, (300.0, 300.0),
                           (1.0, 5.0), track=head)
    in_range, targets = _check_against_the_loops(
        xs, ys, stations, 90.0, 3, hysteresis_ratio(hysteresis))
    assert 0 in in_range and len(set(targets)) == 5


# -- reference: the handover loop before one snapshot per epoch ----------


def _reference_measure(mch, stations, max_range):
    """(station id, received power in dBm) for each station in range."""
    reports = []
    for stn in sorted(stations, key=lambda s: s.id):
        if mch.distance_to(stn) <= max_range:
            power = received_power_dbm(DEVICE_TX_POWER_DBM,
                                       mch.distance_to(stn))
            reports.append((stn.id, power))
    return reports


def _reference_decide(reports, serving_id, hysteresis_db):
    """The strongest station (lowest id on a tie), unless it beats the
    serving station by no more than the margin."""
    by_id = dict(reports)
    best = min(by_id, key=lambda b: (-by_id[b], b))
    if serving_id in by_id and best != serving_id:
        if by_id[best] <= by_id[serving_id] + hysteresis_db:
            return serving_id
    return best


def _reference_event(name, mch, serving, neighbors, max_range,
                     hysteresis_db):
    """One epoch of one procedure, measuring the radio on its own:
    (target, ue_tx, ue_rx, network), or None on a radio link failure."""
    reports = _reference_measure(mch, [serving, *neighbors], max_range)
    if not reports:
        return None
    target = _reference_decide(reports, serving.id, hysteresis_db)
    executed = int(target != serving.id)
    if name == "ul_rs":
        return target, 1, executed, len(reports)
    return target, 1 + executed, len(reports) + executed, 1 + executed


def reference_handover_summary(scenario):
    """The runner's handover summary, computed the way the loop did it
    before both procedures shared one snapshot per epoch."""
    mobility_rng = RunSeed(scenario.seed).mobility()
    nodes, stations, _, msc = runner._build_topology(scenario, mobility_rng)
    totals = {name: {"ue_tx": 0, "ue_rx": 0, "network": 0, "energy": 0.0,
                     "executed": 0} for name in ("ul_rs", "baseline")}
    summary = {"epochs": scenario.ho_epochs, "decisions_match": True,
               "link_failures": 0, **totals}
    mch = nodes[msc.head]
    devices = [n for n in nodes.values() if n.kind is NodeKind.UE]
    gateway = _reference_decide(_reference_measure(mch, stations, math.inf),
                                None, 0.0)
    serving = {name: nodes[gateway] for name in totals}
    for _ in range(scenario.ho_epochs):
        reference.step_mobility(devices, scenario.epoch_duration, mobility_rng,
                                 (scenario.arena_width, scenario.arena_height),
                                 (scenario.speed_min, scenario.speed_max))
        targets = {}
        for name, bucket in totals.items():
            neighbors = [b for b in stations if b.id != serving[name].id]
            event = _reference_event(name, mch, serving[name], neighbors,
                                     scenario.cellular_range,
                                     scenario.hysteresis_db)
            if event is None:
                summary["link_failures"] += 1
                targets[name] = serving[name].id
                continue
            target, tx, rx, network = event
            bucket["ue_tx"] += tx
            bucket["ue_rx"] += rx
            bucket["network"] += network
            bucket["energy"] += tx * 1.0 + rx * 0.1
            bucket["executed"] += int(target != serving[name].id)
            targets[name] = target
            serving[name] = nodes[target]
        if targets["ul_rs"] != targets["baseline"]:
            summary["decisions_match"] = False
    return summary


@pytest.mark.parametrize("hysteresis", [0.0, 3.0])
@pytest.mark.parametrize("cellular_range", [60.0, 120.0, 1000.0])
@pytest.mark.parametrize("seed", [3, 11, 99])
def test_run_matches_the_per_procedure_reference(seed, cellular_range,
                                                 hysteresis):
    scenario = parse_config(
        f"[scenario]\npreset = ho-comparison\nseed = {seed}\n"
        f"[links]\ncellular_range = {cellular_range}\n"
        f"[handover]\nepochs = 800\nhysteresis_db = {hysteresis}\n")
    result = runner.run(scenario)
    assert result.exit_code == 0
    record = next(r for r in result.records if r["type"] == "handover-summary")
    got = {k: record[k] for k in ("epochs", "decisions_match",
                                  "link_failures", "ul_rs", "baseline")}
    assert got == reference_handover_summary(scenario)


def test_reference_reaches_radio_link_failures():
    # the 60 m range leaves the head uncovered for part of the trace, so
    # the oracle above covers the failure branch
    scenario = parse_config(
        "[scenario]\npreset = ho-comparison\nseed = 3\n"
        "[links]\ncellular_range = 60\n[handover]\nepochs = 800\n")
    assert reference_handover_summary(scenario)["link_failures"] > 0


def _reference_nearest(reports, serving_id, ratio):
    """The distance rule in two passes: the nearest station (lowest id on
    a tie), unless the serving one is within `ratio` times as far."""
    by_id = dict(reports)
    best = min(by_id, key=lambda b: (by_id[b], b))
    if serving_id in by_id and by_id[serving_id] <= by_id[best] * ratio:
        return serving_id
    return best


@settings(max_examples=200)
@given(reports=st.lists(st.tuples(st.integers(1, 6),
                                  st.sampled_from([1.0, 10.0, 12.5, 80.0])
                                  | st.floats(1.0, 1e4)),
                        min_size=1, max_size=6,
                        unique_by=lambda r: r[0]),
       serving=st.integers(1, 7),
       hysteresis=st.sampled_from([0.0, 2.0, 3.0, 4.5]))
def test_single_pass_decision_matches_the_reference_rule(reports, serving,
                                                          hysteresis):
    # a station at (d, 0) is exactly d from a head at the origin
    stations = [_bs(bs_id, d, 0.0) for bs_id, d in reports]
    ratio = hysteresis_ratio(hysteresis)
    assert (_epoch(_mch(), stations, serving, math.inf, ratio)[1]
            == _reference_nearest(reports, serving, ratio))


# a station's distance from the head: within 1 m, around it, and near
# and far beyond it
_DISTANCES = (st.sampled_from([0.0, 0.5, 1.0 - 2 ** -40, 1.0, 1.0 + 2 ** -40,
                               10.0, 1e4])
              | st.floats(0.0, 2.0) | st.floats(0.0, 300.0)
              | st.floats(1e3, 1e6))

# margins (dB) closer than this to a decision boundary are left out
_DB_BAND = 1e-9


@settings(max_examples=500)
@given(data=st.data(),
       head=st.just((0.0, 0.0))
       | st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)),
       serving=st.integers(1, 7),
       hysteresis=st.sampled_from([0.0, 2.0, 3.0, 4.5]) | st.floats(0.0, 30.0))
def test_distance_decision_matches_the_decibel_rule(data, head, serving,
                                                     hysteresis):
    """`decide`, with the ratio of the margin, picks the station that the
    path-loss rule picks in dB.

    Landing tolerance: a case is skipped only when a dB margin lies
    within 1e-9 dB (`_DB_BAND`) of a decision boundary: the strongest
    station's lead over a serving station at another distance within
    the band of the hysteresis, or two stations at different distances
    within the band of the strongest power. There the two rules may
    round to different sides.
    """
    # Some cases put station 2, then serving, this many dB beyond the
    # hysteresis boundary of station 1's distance (at 1 m or above).
    edge = data.draw(st.none() | st.sampled_from([-1e-3, -1e-7, 1e-7, 1e-3]),
                     label="dB beyond the boundary")
    count = data.draw(st.integers(1 if edge is None else 2, 6),
                      label="stations")
    stations = []
    for bs_id in range(1, count + 1):
        r = data.draw(_DISTANCES, label="distance")
        if bs_id == 1:
            first = max(r, 1.0)
        elif bs_id == 2 and edge is not None:
            r = first * 10 ** ((hysteresis + edge) / 35)
            serving = 2
        angle = data.draw(st.sampled_from([0.0, 0.5 * math.pi])
                          | st.floats(0.0, 2 * math.pi), label="angle")
        stations.append(_bs(bs_id, head[0] + r * math.cos(angle),
                            head[1] + r * math.sin(angle)))
    mch = _mch(*head)
    reports = [(s.id, max(mch.distance_to(s), 1.0)) for s in stations]
    db = _reference_measure(mch, stations, math.inf)
    best = max(p for _, p in db)
    # stations level with the strongest in dB must be at one distance
    assume(len({d for (_, d), (_, p) in zip(reports, db)
                if best - p <= _DB_BAND}) == 1)
    distance, power = dict(reports), dict(db)
    if serving in power and distance[serving] != min(distance.values()):
        assume(abs(best - power[serving] - hysteresis) > _DB_BAND)
    assert (_epoch(mch, stations, serving, math.inf,
                   hysteresis_ratio(hysteresis))[1]
            == _reference_decide(db, serving, hysteresis))
