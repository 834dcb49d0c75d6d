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
snapshot is a radio link failure for either procedure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

from .topology import Node, PathLoss


class RadioLinkFailure(Exception):
    """No base station in range of the moving entity."""

    def __init__(self, entity_id: int, time: float):
        super().__init__(f"radio link failure for node {entity_id} at t={time}")
        self.entity_id = entity_id
        self.time = time


class MeasurementReport(NamedTuple):
    bs_id: int
    rx_power_dbm: float
    time: float


@dataclass
class HandoverEvent:
    entity_id: int
    serving_bs: int
    target_bs: int
    ue_tx_messages: int
    ue_rx_messages: int
    network_messages: int
    decision_time: float
    procedure: str = "ul_rs"
    reports: list[MeasurementReport] = field(default_factory=list)

    @property
    def executed(self) -> bool:
        return self.target_bs != self.serving_bs


DEFAULT_HYSTERESIS_DB = 3.0


def measure(mch: Node, stations: Sequence[Node], pathloss: PathLoss,
            max_range: float, time: float) -> list[MeasurementReport]:
    """The radio snapshot of one epoch: a report for every station within
    `max_range` of the cell head, in ascending station id."""
    reports = []
    for stn in sorted(stations, key=lambda s: s.id):
        distance = mch.distance_to(stn)
        if distance <= max_range:
            power = pathloss.received_power_dbm(mch.tx_power_dbm, distance)
            reports.append(MeasurementReport(stn.id, power, time))
    return reports


def _decide(reports: Sequence[MeasurementReport], serving_id: int,
            hysteresis_db: float) -> int:
    """Target selection: strongest station (lowest id on a tie), but a
    challenger must beat the serving station by the hysteresis margin."""
    best_id, best_power = reports[0].bs_id, reports[0].rx_power_dbm
    serving_power = None
    for bs_id, power, _ in reports:
        if power > best_power or (power == best_power and bs_id < best_id):
            best_id, best_power = bs_id, power
        if bs_id == serving_id:
            serving_power = power
    if serving_power is not None and best_power <= serving_power + hysteresis_db:
        return serving_id
    return best_id


def ul_rs_handover(mch: Node, serving_bs: Node,
                   reports: Sequence[MeasurementReport],
                   hysteresis_db: float = DEFAULT_HYSTERESIS_DB,
                   time: float = 0.0) -> HandoverEvent:
    """One decision epoch of the uplink-reference-signal procedure over
    the epoch's snapshot from `measure`.
    """
    if not reports:
        raise RadioLinkFailure(mch.id, time)
    target = _decide(reports, serving_bs.id, hysteresis_db)
    executed = target != serving_bs.id
    return HandoverEvent(
        entity_id=mch.id,
        serving_bs=serving_bs.id,
        target_bs=target,
        ue_tx_messages=1,                      # the UL RS broadcast itself
        ue_rx_messages=1 if executed else 0,   # handover command downlink
        network_messages=len(reports),         # per-BS reports to the controller
        decision_time=time,
        procedure="ul_rs",
        reports=list(reports),
    )


def baseline_handover(mch: Node, serving_bs: Node,
                      reports: Sequence[MeasurementReport],
                      hysteresis_db: float = DEFAULT_HYSTERESIS_DB,
                      time: float = 0.0) -> HandoverEvent:
    """Device-measured downlink procedure used as the comparison point,
    over the epoch's snapshot from `measure`.

    The device receives a reference signal from every station in range,
    transmits one measurement report, and on an executed handover also
    receives the command and transmits the random access to the target.
    """
    if not reports:
        raise RadioLinkFailure(mch.id, time)
    target = _decide(reports, serving_bs.id, hysteresis_db)
    executed = target != serving_bs.id
    return HandoverEvent(
        entity_id=mch.id,
        serving_bs=serving_bs.id,
        target_bs=target,
        ue_tx_messages=2 if executed else 1,
        ue_rx_messages=len(reports) + (1 if executed else 0),
        # report forwarded to the controller, plus target preparation on HO
        network_messages=1 + (1 if executed else 0),
        decision_time=time,
        procedure="baseline",
        reports=list(reports),
    )


def ho_energy(event: HandoverEvent, e_tx: float = 1.0, e_rx: float = 0.1) -> float:
    """Device-side signaling energy of one handover event."""
    return event.ue_tx_messages * e_tx + event.ue_rx_messages * e_rx
