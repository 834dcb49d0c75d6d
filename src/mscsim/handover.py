"""Handover signaling accounting.

Two procedures over the same radio snapshot. `measure` takes the
snapshot once per decision epoch: one report per base station within
range of the moving cell head, in station-id order. Both procedures
then read that one report list:

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
signals, never in where the device ends up. An empty snapshot is a
radio link failure for either procedure.
"""

from __future__ import annotations

import decimal
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

from .topology import MobileSmallCell, Node


class RadioLinkFailure(Exception):
    """No base station in range of the moving entity."""

    def __init__(self, entity_id: int):
        super().__init__(f"radio link failure for node {entity_id}")
        self.entity_id = entity_id


class MeasurementReport(NamedTuple):
    bs_id: int
    distance: float             # head to station (m), held at 1 m or above


@dataclass(slots=True)
class HandoverEvent:
    entity_id: int
    serving_bs: int
    target_bs: int
    ue_tx_messages: int
    ue_rx_messages: int
    network_messages: int

    @property
    def executed(self) -> bool:
        return self.target_bs != self.serving_bs


# Device-side energy of one signaling message sent or received.
HO_TX_ENERGY = 1.0
HO_RX_ENERGY = 0.1

SLOPE_DB = 10.0 * 3.5       # path loss, dB per decade of distance


def hysteresis_ratio(hysteresis_db: float) -> float:
    """K, in `decimal` rather than libm. A margin too large for a float
    gives inf: the serving station always stays, as it would in dB."""
    ctx = decimal.Context(prec=34, traps=[decimal.InvalidOperation])
    return float(ctx.power(10, ctx.divide(decimal.Decimal(hysteresis_db),
                                          decimal.Decimal(SLOPE_DB))))


def measure(mch: Node, stations: Sequence[Node],
            max_range: float) -> list[MeasurementReport]:
    """The radio snapshot of one epoch: a report for every station within
    `max_range` of the cell head, in ascending station id (a sort of
    unique ids, which costs nothing on stations given in id order)."""
    x, y = mch.position
    hypot = math.hypot
    reports = []
    for stn in stations:
        sx, sy = stn.position
        distance = hypot(x - sx, y - sy)
        if distance <= max_range:
            reports.append(MeasurementReport(
                stn.id, distance if distance > 1.0 else 1.0))
    reports.sort()
    return reports


def _decide(mch: Node, reports: Sequence[MeasurementReport],
            serving_id: Optional[int], ratio: float) -> int:
    """Target selection: the nearest station (lowest id on a tie), unless
    the serving station is within `ratio` times the nearest distance. A
    `best * ratio` that overflows to inf exceeds every distance anyway.
    No station to pick is a radio link failure of `mch`."""
    if not reports:
        raise RadioLinkFailure(mch.id)
    best_id, best = reports[0]
    serving = None
    for bs_id, distance in reports:
        if distance < best or (distance == best and bs_id < best_id):
            best_id, best = bs_id, distance
        if bs_id == serving_id:
            serving = distance
    if serving is not None and serving <= best * ratio:
        return serving_id
    return best_id


def associate_gateway(msc: MobileSmallCell, base_stations: Sequence[Node],
                      nodes: dict[int, Node]) -> None:
    """Point the cell's gateway link at the base station nearest the head
    (lowest id on ties): the handover rule with no serving station."""
    head = nodes[msc.head]
    msc.gateway_bs = _decide(head, measure(head, base_stations, math.inf),
                             None, 1.0)


def ul_rs_handover(mch: Node, serving_bs: Node,
                   reports: Sequence[MeasurementReport],
                   ratio: float) -> HandoverEvent:
    """One decision epoch of the uplink-reference-signal procedure over
    the epoch's snapshot from `measure`, with K as `ratio`."""
    serving_id = serving_bs.id
    target = _decide(mch, reports, serving_id, ratio)
    # positional, to skip keyword matching on the per-epoch path
    return HandoverEvent(
        mch.id, serving_id, target,
        1,                      # ue_tx: the UL RS broadcast itself
        1 if target != serving_id else 0,   # ue_rx: handover command
        len(reports))           # network: per-BS reports to the controller


def baseline_handover(mch: Node, serving_bs: Node,
                      reports: Sequence[MeasurementReport],
                      ratio: float) -> HandoverEvent:
    """Device-measured downlink procedure used as the comparison point,
    over the epoch's snapshot from `measure`, with K as `ratio`.

    The device receives a reference signal from every station in range,
    transmits one measurement report, and on an executed handover also
    receives the command and transmits the random access to the target.
    """
    serving_id = serving_bs.id
    target = _decide(mch, reports, serving_id, ratio)
    executed = target != serving_id
    return HandoverEvent(
        mch.id, serving_id, target,
        2 if executed else 1,                    # ue_tx
        len(reports) + (1 if executed else 0),   # ue_rx
        # report forwarded to the controller, plus target preparation on HO
        1 + (1 if executed else 0))              # network


def ho_energy(event: HandoverEvent) -> float:
    """Device-side signaling energy of one handover event."""
    return event.ue_tx_messages * HO_TX_ENERGY + event.ue_rx_messages * HO_RX_ENERGY
