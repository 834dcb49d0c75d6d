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

Both use the same argmax-with-hysteresis decision rule, so they differ
only in who signals, never in where the device ends up. An empty
snapshot is a radio link failure for either procedure. An event holds
only its stations and message counts; no record reads when a decision
was made.

The caller passes the hysteresis margin (the scenario's
`handover.hysteresis_db`) to each procedure. The path-loss law and the
per-message energies are module constants that no scenario key sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .topology import PL0_DB, REF_DISTANCE, SLOPE_DB, Node


class RadioLinkFailure(Exception):
    """No base station in range of the moving entity."""

    def __init__(self, entity_id: int):
        super().__init__(f"radio link failure for node {entity_id}")
        self.entity_id = entity_id


class MeasurementReport(NamedTuple):
    bs_id: int
    rx_power_dbm: float


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


def measure(mch: Node, stations: Sequence[Node],
            max_range: float) -> list[MeasurementReport]:
    """The radio snapshot of one epoch: a report for every station within
    `max_range` of the cell head, in ascending station id.

    Stations given in id order, as the runner gives them, cost no
    reordering; the final sort only compares ids, which are unique.
    Powers are `topology.received_power_dbm` inlined, operation for
    operation.
    """
    x, y = mch.position
    tx_power = mch.tx_power_dbm
    pl0, slope, d0 = PL0_DB, SLOPE_DB, REF_DISTANCE
    hypot = math.hypot
    log10 = math.log10
    reports = []
    for stn in stations:
        sx, sy = stn.position
        distance = hypot(x - sx, y - sy)
        if distance <= max_range:
            d = distance if distance > d0 else d0
            reports.append(MeasurementReport(
                stn.id, tx_power - (pl0 + slope * log10(d / d0))))
    reports.sort()
    return reports


def _decide(reports: Sequence[MeasurementReport], serving_id: int,
            hysteresis_db: float) -> int:
    """Target selection: strongest station (lowest id on a tie), but a
    challenger must beat the serving station by the hysteresis margin."""
    best_id, best_power = reports[0].bs_id, reports[0].rx_power_dbm
    serving_power = None
    for bs_id, power in reports:
        if power > best_power or (power == best_power and bs_id < best_id):
            best_id, best_power = bs_id, power
        if bs_id == serving_id:
            serving_power = power
    if serving_power is not None and best_power <= serving_power + hysteresis_db:
        return serving_id
    return best_id


def ul_rs_handover(mch: Node, serving_bs: Node,
                   reports: Sequence[MeasurementReport],
                   hysteresis_db: float) -> HandoverEvent:
    """One decision epoch of the uplink-reference-signal procedure over
    the epoch's snapshot from `measure`.
    """
    if not reports:
        raise RadioLinkFailure(mch.id)
    serving_id = serving_bs.id
    target = _decide(reports, serving_id, hysteresis_db)
    executed = target != serving_id
    # positional, to skip keyword matching on the per-epoch path
    return HandoverEvent(
        mch.id, serving_id, target,
        1,                      # ue_tx: the UL RS broadcast itself
        1 if executed else 0,   # ue_rx: handover command downlink
        len(reports))           # network: per-BS reports to the controller


def baseline_handover(mch: Node, serving_bs: Node,
                      reports: Sequence[MeasurementReport],
                      hysteresis_db: float) -> HandoverEvent:
    """Device-measured downlink procedure used as the comparison point,
    over the epoch's snapshot from `measure`.

    The device receives a reference signal from every station in range,
    transmits one measurement report, and on an executed handover also
    receives the command and transmits the random access to the target.
    """
    if not reports:
        raise RadioLinkFailure(mch.id)
    serving_id = serving_bs.id
    target = _decide(reports, serving_id, hysteresis_db)
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
