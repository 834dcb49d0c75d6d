"""Topology layer: nodes, mobility, small-cell formation and headship.

A mobile small cell (MSC) is a set of user devices grouped around an
elected cell head; the head carries the gateway association to the best
fixed base station. Election scores weigh battery, mean link quality to
the other candidates, and neighbor degree. A run elects its head once,
when the cell forms, and keeps it for the whole run.

The election weights are module constants that no scenario key sets.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from enum import Enum
from heapq import heappop, heappush
from typing import Iterable, Optional, Sequence


class TopologyError(Exception):
    pass


class NodeKind(Enum):
    BASE_STATION = "bs"
    UE = "ue"


@dataclass
class Node:
    id: int
    kind: NodeKind
    position: tuple[float, float]
    battery: float = 1.0
    speed: float = 0.0
    waypoint: Optional[tuple[float, float]] = None

    def __post_init__(self):
        if not 0.0 <= self.battery <= 1.0:
            raise TopologyError(f"battery must be in [0, 1], got {self.battery}")

    def distance_to(self, other: "Node") -> float:
        return math.hypot(self.position[0] - other.position[0],
                          self.position[1] - other.position[1])


@dataclass
class MobileSmallCell:
    id: int
    head: int                            # node id of the MCH
    members: set[int] = field(default_factory=set)
    gateway_bs: Optional[int] = None


# Head election weights of battery, mean link quality and degree.
W_BATTERY, W_LINK, W_DEGREE = 0.5, 0.3, 0.2


def election_score(candidate: Node, peers: Sequence[Node], radius: float) -> float:
    """Weighted score over battery, mean link quality, and degree."""
    others = [p for p in peers if p.id != candidate.id]
    if not others:
        return W_BATTERY * candidate.battery + W_LINK + W_DEGREE
    dists = [candidate.distance_to(o) for o in others]
    in_range = [d for d in dists if d <= radius]
    # link quality decays linearly with distance inside the radius
    quality = sum(max(0.0, 1.0 - d / radius) for d in dists) / len(others)
    degree = len(in_range) / len(others)
    return (W_BATTERY * candidate.battery
            + W_LINK * quality
            + W_DEGREE * degree)


def form_msc(candidates: Iterable[Node], radius: float) -> MobileSmallCell:
    """Elect a head among candidates and attach those within its radius.

    Candidates are expected to be mutually within twice the radius; the
    returned cell, id 0, contains the head plus every candidate it covers.
    """
    cand = sorted(candidates, key=lambda n: n.id)
    if not cand:
        raise TopologyError("cannot form a cell from an empty candidate set")
    ids = [n.id for n in cand]
    if len(set(ids)) != len(ids):
        raise TopologyError("duplicate node ids among candidates")
    scores = {c.id: election_score(c, cand, radius) for c in cand}
    # argmax with lowest-id tie break
    head_id = min(scores, key=lambda nid: (-scores[nid], nid))
    head = next(n for n in cand if n.id == head_id)
    members = {n.id for n in cand if n.distance_to(head) <= radius}
    return MobileSmallCell(0, head_id, members)


# Longest walk of one mobility step, in arena diagonals. A device hops
# from waypoint to waypoint until its step's walk is spent, and a hop
# averages about a third of a diagonal, so this bounds the expected hops
# per device and step near 30.
MAX_STEP_DIAGONALS = 10.0


def max_step_walk(width: float, height: float) -> float:
    """Longest walk (m) one mobility step may ask of a device in a
    `width` x `height` arena."""
    return MAX_STEP_DIAGONALS * math.hypot(width, height)


def step_mobility(nodes: Iterable[Node], dt: float, steps: int, rng,
                  arena: tuple[float, float], speed_range: tuple[float, float],
                  track: Optional[Node] = None) -> tuple[array, array]:
    """`steps` random-waypoint steps of `dt`, each of which advances every
    UE toward its waypoint, UEs in the order given.

    On arrival a fresh waypoint is drawn uniformly in the arena and a
    fresh speed from the configured range. Base stations never move.

    A step walks speed * dt and hops waypoint to waypoint until that is
    spent, so a walk of many arena diagonals means many hops. A walk
    above `max_step_walk(*arena)`, either the range's top speed times
    `dt` or a device's own speed times `dt`, raises TopologyError and
    leaves every node as it was.

    Only a fresh waypoint or an arrival draws, so each UE runs ahead on
    its own through the steps that draw nothing: the rest of its leg,
    whose waypoint, walk per step and walk limit check are fixed, so
    they are taken once per leg. A step that draws waits on a heap keyed
    (step, UE order), which keeps the draws in the order of stepping
    every UE once per step. The UEs' state lives in locals and is
    written back to the nodes once, at the end.

    Returns the x and y of `track`, a UE among `nodes`, after each step;
    both are empty without `track`.
    """
    if dt <= 0:
        raise TopologyError("dt must be positive")
    width, height = arena
    low, high = speed_range
    hypot = math.hypot
    limit = max_step_walk(width, height)
    if high * dt > limit:
        raise TopologyError(
            f"a step of {dt} s at {high} m/s walks more than "
            f"{MAX_STEP_DIAGONALS:g} diagonals of a {width} x {height} arena")
    walkers = [n for n in nodes if n.kind is not NodeKind.BASE_STATION]
    head = next((i for i, n in enumerate(walkers) if n is track), None)
    if track is not None and head is None:
        raise TopologyError(f"tracked node {track.id} is not a moving UE")
    track_x = array("d", [0.0]) * (steps if track is not None else 0)
    track_y = array("d", track_x)
    state = [(*n.position, n.waypoint, n.speed) for n in walkers]
    uniform = rng.uniform
    pending = [(0, i) for i in range(len(walkers))] if steps > 0 else []
    while pending:
        start, i = heappop(pending)
        x, y, waypoint, speed = state[i]
        tracked = i == head
        step = start
        while True:     # the step of its turn, then the leg it runs ahead on
            remaining = speed * dt
            if not remaining > 1e-12:       # no walk and no draw, ever again
                if tracked:
                    track_x[step:] = array("d", [x]) * (steps - step)
                    track_y[step:] = array("d", [y]) * (steps - step)
                break
            if remaining > limit:
                raise TopologyError(
                    f"node {walkers[i].id} at {speed} m/s walks more than "
                    f"{MAX_STEP_DIAGONALS:g} arena diagonals in one step")
            if step > start:                # the steps ahead of its turn
                if waypoint is None:
                    heappush(pending, (step, i))
                    break
                wx, wy = waypoint
                for step in range(step, steps):
                    dx = wx - x
                    dy = wy - y
                    dist = hypot(dx, dy)
                    if dist <= remaining:
                        heappush(pending, (step, i))
                        break
                    frac = remaining / dist
                    x += dx * frac
                    y += dy * frac
                    if tracked:
                        track_x[step] = x
                        track_y[step] = y
                break
            while remaining > 1e-12:
                if waypoint is None:
                    waypoint = (float(uniform(0, width)),
                                float(uniform(0, height)))
                    if speed <= 0:
                        break
                dx = waypoint[0] - x
                dy = waypoint[1] - y
                dist = hypot(dx, dy)
                if dist <= remaining:
                    x, y = waypoint
                    waypoint = None
                    remaining -= dist
                    speed = float(uniform(low, high))
                else:
                    frac = remaining / dist
                    x, y = x + dx * frac, y + dy * frac
                    break
            if tracked:
                track_x[step] = x
                track_y[step] = y
            step += 1
            if step == steps:
                break
        state[i] = (x, y, waypoint, speed)
    for node, (x, y, waypoint, speed) in zip(walkers, state):
        node.position = (x, y)
        node.waypoint = waypoint
        node.speed = speed
    return track_x, track_y


def topology_snapshot(nodes: Iterable[Node],
                      cells: Sequence[MobileSmallCell] = ()) -> list[dict]:
    """One plain-dict record per node for the run's output stream, its
    role read from the cells: a head, another member, or idle."""
    cell_of, role_of = {}, {}
    for cell in cells:
        for member in cell.members:
            cell_of[member] = cell.id
            role_of[member] = "member"
        role_of[cell.head] = "mch"
    out = []
    for node in sorted(nodes, key=lambda n: n.id):
        out.append({
            "node": node.id,
            "kind": node.kind.value,
            "x": round(node.position[0], 3),
            "y": round(node.position[1], 3),
            "role": role_of.get(node.id, "idle"),
            "msc": cell_of.get(node.id),
            "battery": round(node.battery, 4),
        })
    return out
