"""Topology layer: nodes, mobility, small-cell formation and headship.

A mobile small cell (MSC) is a set of user devices grouped around an
elected cell head; the head carries the gateway association to the best
fixed base station. Election scores weigh battery, mean link quality to
the other candidates, and neighbor degree. A run elects its head once,
when the cell forms, and keeps it for the whole run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Optional, Sequence


class TopologyError(Exception):
    pass


class NodeKind(Enum):
    BASE_STATION = "bs"
    UE = "ue"


class Role(Enum):
    MCH = "mch"
    MEMBER = "member"
    IDLE = "idle"


@dataclass
class Node:
    id: int
    kind: NodeKind
    position: tuple[float, float]
    battery: float = 1.0
    role: Role = Role.IDLE
    speed: float = 0.0
    waypoint: Optional[tuple[float, float]] = None
    tx_power_dbm: float = 23.0

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


@dataclass(frozen=True)
class PathLoss:
    """Log-distance pathloss: PL(d) = pl0 + 10 * exponent * log10(d / d0)."""

    pl0_db: float = 40.0
    exponent: float = 3.5
    ref_distance: float = 1.0

    def loss_db(self, distance: float) -> float:
        d = max(distance, self.ref_distance)
        return self.pl0_db + 10.0 * self.exponent * math.log10(d / self.ref_distance)

    def received_power_dbm(self, tx_power_dbm: float, distance: float) -> float:
        return tx_power_dbm - self.loss_db(distance)


@dataclass(frozen=True)
class ElectionPolicy:
    """Weighted score over battery, mean link quality, and degree."""

    w_battery: float = 0.5
    w_link: float = 0.3
    w_degree: float = 0.2

    def __post_init__(self):
        weights = (self.w_battery, self.w_link, self.w_degree)
        if any(w < 0 for w in weights):
            raise TopologyError("election weights must be nonnegative")
        if abs(sum(weights) - 1.0) > 1e-9:
            raise TopologyError("election weights must sum to 1")

    def score(self, candidate: Node, peers: Sequence[Node], radius: float) -> float:
        others = [p for p in peers if p.id != candidate.id]
        if not others:
            return self.w_battery * candidate.battery + self.w_link + self.w_degree
        dists = [candidate.distance_to(o) for o in others]
        in_range = [d for d in dists if d <= radius]
        # link quality decays linearly with distance inside the radius
        quality = sum(max(0.0, 1.0 - d / radius) for d in dists) / len(others)
        degree = len(in_range) / len(others)
        return (self.w_battery * candidate.battery
                + self.w_link * quality
                + self.w_degree * degree)


def form_msc(candidates: Iterable[Node], policy: ElectionPolicy, radius: float,
             cell_id: int = 0) -> MobileSmallCell:
    """Elect a head among candidates and attach those within its radius.

    Candidates are expected to be mutually within twice the radius; the
    returned cell contains the head plus every candidate it covers.
    """
    cand = sorted(candidates, key=lambda n: n.id)
    if not cand:
        raise TopologyError("cannot form a cell from an empty candidate set")
    ids = [n.id for n in cand]
    if len(set(ids)) != len(ids):
        raise TopologyError("duplicate node ids among candidates")
    scores = {c.id: policy.score(c, cand, radius) for c in cand}
    # argmax with lowest-id tie break
    head_id = min(scores, key=lambda nid: (-scores[nid], nid))
    head = next(n for n in cand if n.id == head_id)
    members = {n.id for n in cand if n.distance_to(head) <= radius}
    for n in cand:
        if n.id == head_id:
            n.role = Role.MCH
        elif n.id in members:
            n.role = Role.MEMBER
    return MobileSmallCell(cell_id, head_id, members)


# Longest walk of one mobility step, in arena diagonals. A device hops
# from waypoint to waypoint until its step's walk is spent, and a hop
# averages about a third of a diagonal, so this bounds the expected hops
# per device and step near 30.
MAX_STEP_DIAGONALS = 10.0


def max_step_walk(width: float, height: float) -> float:
    """Longest walk (m) one mobility step may ask of a device in a
    `width` x `height` arena."""
    return MAX_STEP_DIAGONALS * math.hypot(width, height)


def step_mobility(nodes: Iterable[Node], dt: float, rng,
                  arena: tuple[float, float], speed_range: tuple[float, float] = (1.0, 5.0)) -> None:
    """Random-waypoint step: advance each UE toward its waypoint.

    On arrival a fresh waypoint is drawn uniformly in the arena and a
    fresh speed from the configured range. Base stations never move.

    A step walks speed * dt and hops waypoint to waypoint until that is
    spent, so a walk of many arena diagonals means many hops. A walk
    above `max_step_walk(*arena)`, either the range's top speed times
    `dt` or a device's own speed times `dt`, raises TopologyError.
    """
    if dt <= 0:
        raise TopologyError("dt must be positive")
    width, height = arena
    low, high = speed_range
    hypot = math.hypot
    limit = MAX_STEP_DIAGONALS * hypot(width, height)  # as in max_step_walk
    if high * dt > limit:
        raise TopologyError(
            f"a step of {dt} s at {high} m/s walks more than "
            f"{MAX_STEP_DIAGONALS:g} diagonals of a {width} x {height} arena")
    uniform = rng.uniform
    base_station = NodeKind.BASE_STATION
    for node in nodes:
        if node.kind is base_station:
            continue
        speed = node.speed
        remaining = speed * dt
        if not remaining > 1e-12:
            continue
        if remaining > limit:
            raise TopologyError(
                f"node {node.id} at {speed} m/s walks more than "
                f"{MAX_STEP_DIAGONALS:g} arena diagonals in one step")
        x, y = node.position
        waypoint = node.waypoint
        while remaining > 1e-12:
            if waypoint is None:
                node.waypoint = waypoint = (float(uniform(0, width)),
                                            float(uniform(0, height)))
                if speed <= 0:
                    break
            dx = waypoint[0] - x
            dy = waypoint[1] - y
            dist = hypot(dx, dy)
            if dist <= remaining:
                x, y = waypoint
                node.waypoint = waypoint = None
                remaining -= dist
                node.speed = speed = float(uniform(low, high))
            else:
                frac = remaining / dist
                x, y = x + dx * frac, y + dy * frac
                break
        node.position = (x, y)


def associate_gateway(msc: MobileSmallCell, base_stations: Sequence[Node],
                      pathloss: PathLoss, nodes: dict[int, Node]) -> MobileSmallCell:
    """Point the cell's gateway link at the base station heard loudest
    by the head (lowest id on ties)."""
    if not base_stations:
        raise TopologyError("no base stations available")
    head = nodes[msc.head]
    best = min(
        base_stations,
        key=lambda bs: (-pathloss.received_power_dbm(bs.tx_power_dbm, head.distance_to(bs)), bs.id),
    )
    msc.gateway_bs = best.id
    return msc


def topology_snapshot(time: float, nodes: Iterable[Node],
                      cells: Sequence[MobileSmallCell] = ()) -> list[dict]:
    """One plain-dict record per node for the run's output stream."""
    cell_of = {}
    for cell in cells:
        for member in cell.members:
            cell_of[member] = cell.id
    out = []
    for node in sorted(nodes, key=lambda n: n.id):
        out.append({
            "time": time,
            "node": node.id,
            "kind": node.kind.value,
            "x": round(node.position[0], 3),
            "y": round(node.position[1], 3),
            "role": node.role.value,
            "msc": cell_of.get(node.id),
            "battery": round(node.battery, 4),
        })
    return out
