"""Handover signaling accounting.

Two procedures over the same radio snapshots of a moving cell head:

* uplink-reference-signal: the moving cell head broadcasts one UL
  reference signal; every base station in range measures it and reports
  to a central controller, which picks the target. The device transmits
  once and receives at most one handover command.
* baseline: the device itself measures downlink reference signals from
  every base station in range, reports them uplink, and on a handover
  executes a random access toward the target.

Both procedures, and the gateway choice when the cell forms, decide on
the head's distances, held at 1 m or above. Every station transmits at
one power under one log-distance path loss, so the nearest station is
the strongest: it wins, lowest id on a tie, unless the serving station
is within K = 10^(h / SLOPE_DB) times its distance, h being the margin
`handover.hysteresis_db`. The procedures thus differ only in who
signals, never in where the device ends up, so `decide` makes the one
decision of each epoch for both, over the head's whole track, and
`ul_rs_handover` and `baseline_handover` total each procedure's
signaling over its outcome. An epoch with no station in range is a
radio link failure for either procedure.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from .topology import MobileSmallCell, Node


class RadioLinkFailure(Exception):
    """No base station in range of the moving entity."""

    def __init__(self, entity_id: int):
        super().__init__(f"radio link failure for node {entity_id}")
        self.entity_id = entity_id


# Device-side energy of one signaling message sent or received.
HO_TX_ENERGY = 1.0
HO_RX_ENERGY = 0.1

SLOPE_DB = 10.0 * 3.5       # path loss, dB per decade of distance


def hysteresis_ratio(hysteresis_db: float) -> float:
    """K, in `decimal` rather than libm. A margin too large for a float
    gives inf: the serving station always stays, as it would in dB."""
    import decimal      # here, so that a run without epochs never loads it
    ctx = decimal.Context(prec=34, traps=[decimal.InvalidOperation])
    return float(ctx.power(10, ctx.divide(decimal.Decimal(hysteresis_db),
                                          decimal.Decimal(SLOPE_DB))))


def decide(xs: Sequence[float], ys: Sequence[float], stations: Sequence[Node],
           max_range: float, serving: Optional[int],
           ratio: float) -> tuple[list[int], list[int]]:
    """The decision of each epoch, for a head at (xs[e], ys[e]) in epoch e
    and `serving` the station id before the first epoch (or None).

    Returns, per epoch, the number of stations within `max_range` and the
    target: the nearest of them (distances held at 1 m or above, lowest
    id on a tie), unless the serving station is within `ratio` times the
    nearest distance. A `best * ratio` that overflows to inf exceeds
    every distance anyway. With no station in range, a radio link
    failure, the target is the serving station. Each target serves the
    next epoch.
    """
    hypot = math.hypot
    sites = sorted((s.id, *s.position) for s in stations)
    in_range, targets = [], []
    for x, y in zip(xs, ys):
        count = 0
        best_id = kept = None
        for bs_id, sx, sy in sites:
            distance = hypot(x - sx, y - sy)
            if distance <= max_range:
                if distance < 1.0:
                    distance = 1.0
                count += 1
                if best_id is None or distance < best:
                    best_id, best = bs_id, distance
                if bs_id == serving:
                    kept = distance
        if count and (kept is None or kept > best * ratio):
            serving = best_id
        in_range.append(count)
        targets.append(serving)
    return in_range, targets


def associate_gateway(msc: MobileSmallCell, base_stations: Sequence[Node],
                      nodes: dict[int, Node]) -> None:
    """Point the cell's gateway link at the base station nearest the head
    (lowest id on ties): the handover rule with no serving station. No
    station at all is a radio link failure of the head."""
    head = nodes[msc.head]
    (count,), (target,) = decide((head.position[0],), (head.position[1],),
                                 base_stations, math.inf, None, 1.0)
    if not count:
        raise RadioLinkFailure(head.id)
    msc.gateway_bs = target


def ul_rs_handover(serving: int, in_range: Sequence[int],
                   targets: Sequence[int]) -> dict:
    """Signaling totals of the uplink-reference-signal procedure from
    station `serving` over the epochs of `decide`. Per epoch the device
    sends the UL RS broadcast and receives the command of an executed
    handover; each station in range reports to the controller. An epoch
    with no station in range signals nothing."""
    tx = rx = network = executed = 0
    energy = 0.0
    for count, target in zip(in_range, targets):
        if not count:
            continue
        moved = 1 if target != serving else 0
        serving = target
        tx += 1
        rx += moved
        network += count
        executed += moved
        energy += 1 * HO_TX_ENERGY + moved * HO_RX_ENERGY
    return {"ue_tx": tx, "ue_rx": rx, "network": network, "energy": energy,
            "executed": executed}


def baseline_handover(serving: int, in_range: Sequence[int],
                      targets: Sequence[int]) -> dict:
    """Signaling totals of the device-measured downlink procedure, the
    comparison point, from station `serving` over the epochs of `decide`.

    Per epoch the device receives a reference signal from every station
    in range and transmits one measurement report, which the network
    forwards to the controller. On an executed handover the device also
    receives the command and transmits the random access to the target,
    and the network prepares the target.
    """
    tx = rx = network = executed = 0
    energy = 0.0
    for count, target in zip(in_range, targets):
        if not count:
            continue
        moved = 1 if target != serving else 0
        serving = target
        tx += 1 + moved
        rx += count + moved
        network += 1 + moved
        executed += moved
        energy += (1 + moved) * HO_TX_ENERGY + (count + moved) * HO_RX_ENERGY
    return {"ue_tx": tx, "ue_rx": rx, "network": network, "energy": energy,
            "executed": executed}
