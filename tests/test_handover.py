"""Handover signaling counts: decision rule, message taxonomy, energy.

The trace comparison runs both procedures over the same mobility trace
and checks the structural claims (same targets, 1 vs 2 uplink messages
per executed handover, lower mean device energy) rather than absolute
figures. The runner's handover summary is checked against the loop it
replaced, in which each procedure measured the radio on its own and the
devices moved by the random-waypoint stepper kept here as a reference.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mscsim import runner
from mscsim.config import parse_config
from mscsim.engine import RunSeed
from mscsim.handover import (
    HandoverEvent,
    MeasurementReport,
    RadioLinkFailure,
    _decide,
    baseline_handover,
    ho_energy,
    measure,
    ul_rs_handover,
)
from mscsim.topology import (
    Node,
    NodeKind,
    PathLoss,
    max_step_walk,
    step_mobility,
)

PL = PathLoss()


def _mch(x=0.0, y=0.0, node_id=0):
    return Node(node_id, NodeKind.UE, (x, y))


def _bs(node_id, x, y):
    return Node(node_id, NodeKind.BASE_STATION, (x, y))


# both procedures over the snapshot of [serving, *neighbors] at 1000 m
def _ul_rs(mch, serving, neighbors, **kwargs):
    reports = measure(mch, [serving, *neighbors], PL, 1000.0)
    return ul_rs_handover(mch, serving, reports, **kwargs)


def _baseline(mch, serving, neighbors, **kwargs):
    reports = measure(mch, [serving, *neighbors], PL, 1000.0)
    return baseline_handover(mch, serving, reports, **kwargs)


class TestMeasure:
    def test_reports_in_station_id_order_within_range(self):
        mch = _mch()
        stations = [_bs(3, 0, 90), _bs(1, 60, 0), _bs(4, 5000, 0), _bs(2, 80, 0)]
        reports = measure(mch, stations, PL, 1000.0)
        assert [r.bs_id for r in reports] == [1, 2, 3]
        assert reports[0] == MeasurementReport(
            1, PL.received_power_dbm(mch.tx_power_dbm, 60.0))

    def test_range_is_inclusive(self):
        assert [r.bs_id for r in measure(_mch(), [_bs(1, 100, 0)], PL,
                                         100.0)] == [1]
        assert measure(_mch(), [_bs(1, 100, 0)], PL, 99.9) == []


class TestUlRs:
    def test_serving_strongest_no_handover(self):
        ev = _ul_rs(_mch(), _bs(1, 50, 0), [_bs(2, 100, 0)])
        assert ev.target_bs == ev.serving_bs == 1
        assert not ev.executed
        assert ev.ue_tx_messages == 1
        assert ev.ue_rx_messages == 0

    def test_strong_neighbor_triggers_handover(self):
        # 50 m vs 100 m is a 10.5 dB gap, far past the 3 dB margin
        ev = _ul_rs(_mch(), _bs(1, 100, 0), [_bs(2, 50, 0)])
        assert ev.executed
        assert ev.target_bs == 2
        assert ev.ue_tx_messages == 1
        assert ev.ue_rx_messages == 1

    def test_within_margin_no_handover(self):
        # 95 m vs 100 m is about 0.8 dB, inside the margin
        ev = _ul_rs(_mch(), _bs(1, 100, 0), [_bs(2, 95, 0)])
        assert not ev.executed
        assert ev.target_bs == 1

    def test_network_messages_counts_stations_in_range(self):
        serving = _bs(1, 60, 0)
        neighbors = [_bs(2, 80, 0), _bs(3, 0, 90), _bs(4, 5000, 0)]
        reports = measure(_mch(), [serving, *neighbors], PL, 1000.0)
        ev = ul_rs_handover(_mch(), serving, reports)
        assert ev.network_messages == 3  # the 5 km station never hears the UL RS
        assert {r.bs_id for r in reports} == {1, 2, 3}

    def test_serving_out_of_range_forces_handover(self):
        ev = _ul_rs(_mch(), _bs(1, 5000, 0), [_bs(2, 100, 0)])
        assert ev.executed
        assert ev.target_bs == 2

    def test_no_station_in_range_is_radio_link_failure(self):
        with pytest.raises(RadioLinkFailure) as exc:
            _ul_rs(_mch(node_id=9), _bs(1, 5000, 0), [_bs(2, 0, 7000)])
        assert exc.value.entity_id == 9

    def test_equidistant_neighbors_prefer_lowest_id(self):
        ev = _ul_rs(_mch(), _bs(1, 5000, 0), [_bs(7, 100, 0), _bs(3, 0, 100)])
        assert ev.target_bs == 3


class TestBaseline:
    def test_no_handover_report_only(self):
        ev = _baseline(_mch(), _bs(1, 50, 0), [_bs(2, 100, 0)])
        assert not ev.executed
        assert ev.ue_tx_messages == 1
        assert ev.ue_rx_messages == 2  # downlink RS from both stations

    def test_executed_handover_message_counts(self):
        ev = _baseline(_mch(), _bs(1, 100, 0), [_bs(2, 50, 0)])
        assert ev.executed
        assert ev.ue_tx_messages == 2
        assert ev.ue_rx_messages >= 2

    def test_same_target_as_ul_rs(self):
        serving = _bs(1, 100, 0)
        neighbors = [_bs(2, 50, 0), _bs(3, 40, 40), _bs(4, 200, 0)]
        a = _ul_rs(_mch(), serving, neighbors)
        b = _baseline(_mch(), serving, neighbors)
        assert a.target_bs == b.target_bs

    def test_no_station_in_range_is_radio_link_failure(self):
        with pytest.raises(RadioLinkFailure):
            _baseline(_mch(), _bs(1, 5000, 0), [])


class TestEnergy:
    def test_zero_messages_zero_energy(self):
        ev = HandoverEvent(0, 1, 1, 0, 0, 0)
        assert ho_energy(ev) == 0.0

    def test_ul_rs_event_energy(self):
        ev = HandoverEvent(0, 1, 2, 1, 1, 2)
        assert ho_energy(ev, e_tx=1.0, e_rx=0.1) == pytest.approx(1.1)

    def test_energy_matches_count_arithmetic(self):
        ev = _baseline(_mch(), _bs(1, 100, 0), [_bs(2, 50, 0), _bs(3, 0, 70)])
        expected = ev.ue_tx_messages * 2.0 + ev.ue_rx_messages * 0.25
        assert ho_energy(ev, e_tx=2.0, e_rx=0.25) == pytest.approx(expected)


def test_ping_pong_suppression_static_positions():
    # A stronger neighbor wins once; afterwards the old serving station
    # would need to beat the new one by the margin, which it cannot.
    mch = _mch()
    stations = {1: _bs(1, 100, 0), 2: _bs(2, 80, 0)}
    serving = 1
    executed = 0
    for _ in range(10):
        neighbors = [s for sid, s in stations.items() if sid != serving]
        ev = _ul_rs(mch, stations[serving], neighbors)
        if ev.executed:
            executed += 1
            serving = ev.target_bs
    assert executed == 1
    assert serving == 2


def test_trace_comparison_ul_rs_dominates_baseline():
    """Both procedures over one 1000-epoch random-waypoint trace."""
    rng = RunSeed(7).mobility()
    stations = {
        1: _bs(1, 50.0, 50.0),
        2: _bs(2, 250.0, 50.0),
        3: _bs(3, 150.0, 250.0),
    }
    ue = Node(0, NodeKind.UE, (150.0, 150.0), speed=4.0, waypoint=(40.0, 40.0))
    nodes = [ue, *stations.values()]
    serving = 1
    ul_events: list[HandoverEvent] = []
    base_events: list[HandoverEvent] = []
    for _ in range(1000):
        step_mobility(nodes, 1.0, rng, arena=(300.0, 300.0), speed_range=(2.0, 8.0))
        reports = measure(ue, stations.values(), PL, 1000.0)
        ul = ul_rs_handover(ue, stations[serving], reports)
        base = baseline_handover(ue, stations[serving], reports)
        assert ul.target_bs == base.target_bs  # identical radio snapshot
        ul_events.append(ul)
        base_events.append(base)
        serving = ul.target_bs

    executed = [i for i, ev in enumerate(ul_events) if ev.executed]
    assert executed, "trace produced no handovers; scenario is too easy"
    for i in executed:
        assert ul_events[i].ue_tx_messages == 1
        assert base_events[i].ue_tx_messages == 2
        assert ul_events[i].ue_tx_messages < base_events[i].ue_tx_messages

    total_ul_tx = sum(ev.ue_tx_messages for ev in ul_events)
    total_base_tx = sum(ev.ue_tx_messages for ev in base_events)
    assert total_ul_tx <= total_base_tx

    mean_ul = sum(ho_energy(ev) for ev in ul_events) / len(ul_events)
    mean_base = sum(ho_energy(ev) for ev in base_events) / len(base_events)
    assert mean_ul < mean_base


# -- reference: the random-waypoint stepper before its walk limit --------


def _reference_step_mobility(nodes, dt, rng, arena, speed_range=(1.0, 5.0)):
    """Random-waypoint step, one node attribute at a time: walk speed * dt
    toward the waypoint, drawing a fresh waypoint and then a fresh speed
    on each arrival. Nothing bounds the number of hops."""
    width, height = arena
    for node in nodes:
        if node.kind is NodeKind.BASE_STATION:
            continue
        remaining = node.speed * dt
        while remaining > 1e-12:
            if node.waypoint is None:
                node.waypoint = (float(rng.uniform(0, width)),
                                 float(rng.uniform(0, height)))
                if node.speed <= 0:
                    break
            dx = node.waypoint[0] - node.position[0]
            dy = node.waypoint[1] - node.position[1]
            dist = math.hypot(dx, dy)
            if dist <= remaining:
                node.position = node.waypoint
                node.waypoint = None
                remaining -= dist
                node.speed = float(rng.uniform(*speed_range))
            else:
                frac = remaining / dist
                node.position = (node.position[0] + dx * frac,
                                 node.position[1] + dy * frac)
                remaining = 0.0


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
    Returns the reference's draws per step."""
    ours, theirs = make_nodes(), make_nodes()
    rng_ours, rng_theirs = _CountingRng(seed), _CountingRng(seed)
    draws = []
    for _ in range(steps):
        before = rng_theirs.draws
        step_mobility(ours, dt, rng_ours, arena, speed_range)
        _reference_step_mobility(theirs, dt, rng_theirs, arena, speed_range)
        assert _bits(ours) == _bits(theirs)
        draws.append(rng_theirs.draws - before)
    assert rng_ours.draws == rng_theirs.draws
    assert rng_ours.rng.random() == rng_theirs.rng.random()
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


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
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


# -- reference: the handover loop before one snapshot per epoch ----------


def _reference_measure(mch, stations, pathloss, max_range):
    reports = []
    for stn in sorted(stations, key=lambda s: s.id):
        if mch.distance_to(stn) <= max_range:
            power = pathloss.received_power_dbm(mch.tx_power_dbm, mch.distance_to(stn))
            reports.append((stn.id, power))
    return reports


def _reference_decide(reports, serving_id, hysteresis_db):
    by_id = dict(reports)
    best = min(by_id, key=lambda b: (-by_id[b], b))
    if serving_id in by_id and best != serving_id:
        if by_id[best] <= by_id[serving_id] + hysteresis_db:
            return serving_id
    return best


def _reference_event(name, mch, serving, neighbors, pathloss, max_range,
                     hysteresis_db):
    """One epoch of one procedure, measuring the radio on its own:
    (target, ue_tx, ue_rx, network), or None on a radio link failure."""
    reports = _reference_measure(mch, [serving, *neighbors], pathloss,
                                 max_range)
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
    nodes, stations, _, msc, pathloss = runner._build_topology(
        scenario, mobility_rng)
    totals = {name: {"ue_tx": 0, "ue_rx": 0, "network": 0, "energy": 0.0,
                     "executed": 0} for name in ("ul_rs", "baseline")}
    summary = {"epochs": scenario.ho_epochs, "decisions_match": True,
               "link_failures": 0, **totals}
    mch = nodes[msc.head]
    devices = [n for n in nodes.values() if n.kind is NodeKind.UE]
    serving = {name: nodes[msc.gateway_bs] for name in totals}
    for _ in range(scenario.ho_epochs):
        _reference_step_mobility(devices, scenario.epoch_duration, mobility_rng,
                                 (scenario.arena_width, scenario.arena_height),
                                 (scenario.speed_min, scenario.speed_max))
        targets = {}
        for name, bucket in totals.items():
            neighbors = [b for b in stations if b.id != serving[name].id]
            event = _reference_event(name, mch, serving[name], neighbors,
                                     pathloss, scenario.cellular_range,
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


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(reports=st.lists(st.tuples(st.integers(1, 6),
                                  st.sampled_from([-80.0, -75.5, -72.0, -70.0])
                                  | st.floats(-120.0, -40.0)),
                        min_size=1, max_size=6,
                        unique_by=lambda r: r[0]),
       serving=st.integers(1, 7),
       hysteresis=st.sampled_from([0.0, 2.0, 3.0, 4.5]))
def test_single_pass_decision_matches_the_reference_rule(reports, serving,
                                                          hysteresis):
    snapshot = [MeasurementReport(bs_id, power) for bs_id, power in reports]
    assert (_decide(snapshot, serving, hysteresis)
            == _reference_decide(reports, serving, hysteresis))

