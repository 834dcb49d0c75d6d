"""A renewal-theory oracle for the random-waypoint walk and its handovers.

The cell head walks random waypoint with no pause: each leg runs from
where the last ended to a uniform point of the W x H arena, at a speed
uniform on [v_min, v_max] drawn for that leg. A leg lasts D / V, with D
the distance between two uniform points and V independent of it, so by
renewal theory a walker makes dt / (E[D] E[1/V]) legs per epoch of dt,
where E[1/V] = ln(v_max / v_min) / (v_max - v_min) and E[D] is Ghosh's
closed form ("Random Distances within a Rectangle and between Two
Rectangles", Bull. Calcutta Math. Soc. 1951).

The stations sit on a horizontal line at x_i = W i / (n + 1), so at
hysteresis 0 with every station in range their cells are vertical
strips with boundaries c_b halfway between neighbours. A straight leg
crosses a vertical line at most once, and it crosses c_b exactly when
its end points lie on opposite sides, with probability 2 u (1 - u) for
u = c_b / W: the executed handovers per epoch are

    sum_b 2 u_b (1 - u_b) * dt / (E[D] E[1/V]).

A boundary crossed and crossed back within one epoch is missed, a bias
of order v dt / W, below the noise here. Every simulated rate is the
mean over seeds of whole runs (`runner.run`), and must lie within 3
standard errors, over seeds, of its prediction.
"""

import math

import numpy as np
import pytest

from mscsim import runner
from mscsim.config import PRESETS, default_scenario

SEEDS = range(1, 31)
EPOCHS = 4000
SPEEDS = (1.0, 5.0)
SQUARE, WIDE = (300.0, 300.0), (600.0, 150.0)


def ghosh_mean_distance(width: float, height: float) -> float:
    """E[D] between two uniform points of a width x height rectangle."""
    w, h = width, height
    d = math.hypot(w, h)
    return ((w ** 3 / h ** 2 + h ** 3 / w ** 2
             + d * (3 - w ** 2 / h ** 2 - h ** 2 / w ** 2)) / 15
            + (h ** 2 / w * math.log((w + d) / h)
               + w ** 2 / h * math.log((h + d) / w)) / 6)


def mean_inverse_speed(low: float, high: float) -> float:
    return math.log(high / low) / (high - low) if high > low else 1.0 / low


def legs_per_epoch(arena, dt: float = 1.0) -> float:
    return dt / (ghosh_mean_distance(*arena) * mean_inverse_speed(*SPEEDS))


def crossing_share(stations: int) -> float:
    """sum_b 2 u_b (1 - u_b) over the boundaries between neighbours."""
    bounds = [(i + 0.5) / (stations + 1) for i in range(1, stations)]
    return sum(2 * u * (1 - u) for u in bounds)


def head_walk(seed: int, arena, stations: int = 3, hysteresis: float = 0.0,
              monkeypatch=None):
    """(legs, executed handovers) of one run whose only device is the
    head; legs are counted from the mobility stream's `uniform` draws,
    3 per leg (x, y, speed) after the first waypoint's 2."""
    scenario = default_scenario(seed, **{
        **PRESETS["ho-comparison"], "ue_count": 1, "ho_epochs": EPOCHS,
        "base_stations": stations, "hysteresis_db": hysteresis,
        "arena_width": arena[0], "arena_height": arena[1],
        "speed_min": SPEEDS[0], "speed_max": SPEEDS[1]})
    draws = []
    step = runner.step_mobility

    def counted(nodes, dt, steps, rng, *args, **kwargs):
        uniform = rng.uniform

        class Counting:
            def uniform(self, low, high):
                draws.append(None)
                return uniform(low, high)

        return step(nodes, dt, steps, Counting(), *args, **kwargs)

    monkeypatch.setattr(runner, "step_mobility", counted)
    result = runner.run(scenario)
    assert result.exit_code == 0, result.records[-1]
    summary = next(r for r in result.records
                   if r["type"] == "handover-summary")
    assert summary["link_failures"] == 0    # every station in range
    assert summary["ul_rs"]["executed"] == summary["baseline"]["executed"]
    return (len(draws) - 2) / 3, summary["ul_rs"]["executed"]


def z_score(samples, predicted: float) -> float:
    samples = np.asarray(samples, float)
    se = samples.std(ddof=1) / math.sqrt(len(samples))
    return (samples.mean() - predicted) / se


@pytest.mark.parametrize("arena, expected", [
    ((1.0, 1.0), 0.5214054),
    (SQUARE, 156.4216),
])
def test_ghosh_closed_form_at_its_known_values(arena, expected):
    assert ghosh_mean_distance(*arena) == pytest.approx(expected, abs=1e-4)


@pytest.mark.parametrize("arena", [SQUARE, WIDE], ids=["square", "wide"])
def test_ghosh_closed_form_against_monte_carlo(arena):
    # independent of the simulator's streams: a wrong formula fails here
    rng = np.random.default_rng(2021)
    n = 1_000_000
    w, h = arena
    d = np.hypot(w * (rng.random(n) - rng.random(n)),
                 h * (rng.random(n) - rng.random(n)))
    se = d.std() / math.sqrt(n)
    assert abs(d.mean() - ghosh_mean_distance(*arena)) < 3 * se


@pytest.fixture(scope="module")
def walks():
    """Runs per (arena, stations, hysteresis), each over SEEDS."""
    with pytest.MonkeyPatch.context() as mp:
        return {(arena, n, h): [head_walk(s, arena, n, h, mp) for s in SEEDS]
                for arena, n, h in [(SQUARE, 2, 0.0), (SQUARE, 3, 0.0),
                                    (SQUARE, 5, 0.0), (WIDE, 3, 0.0),
                                    (SQUARE, 3, 3.0), (SQUARE, 3, 6.0)]}


@pytest.mark.parametrize("arena", [SQUARE, WIDE], ids=["square", "wide"])
def test_leg_rate(walks, arena):
    legs = [n / EPOCHS for n, _ in walks[(arena, 3, 0.0)]]
    assert abs(z_score(legs, legs_per_epoch(arena))) < 3


@pytest.mark.parametrize("arena, stations", [
    (SQUARE, 2), (SQUARE, 3), (SQUARE, 5), (WIDE, 3)],
    ids=["square-2", "square-3", "square-5", "wide-3"])
def test_handover_rate_at_zero_hysteresis(walks, arena, stations):
    executed = [k / EPOCHS for _, k in walks[(arena, stations, 0.0)]]
    predicted = crossing_share(stations) * legs_per_epoch(arena)
    assert abs(z_score(executed, predicted)) < 3


def test_hysteresis_never_adds_handovers(walks):
    means = [np.mean([k for _, k in walks[(SQUARE, 3, h)]])
             for h in (0.0, 3.0, 6.0)]
    assert means[0] >= means[1] >= means[2]
    assert means[0] > means[2]
