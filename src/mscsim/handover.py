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
decision of each epoch for both, in array passes over the head's whole
track, and `ul_rs_handover` and `baseline_handover` total each
procedure's signaling from the counts in range and the mask of moves.
An epoch with no station in range is a radio link failure for either
procedure. `associate_gateway` returns the gateway's id, which the
run's cell keeps as `CooperativeCloud.gateway`.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Sequence

import numpy as np

from .engine import fold
from .topology import Node


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


# Epochs per block of `decide`: its arrays span a block, not the track.
BLOCK_EPOCHS = 1024


def decide(xs: Sequence[float], ys: Sequence[float], stations: Sequence[Node],
           max_range: float, serving: int,
           ratio: float) -> tuple[np.ndarray, np.ndarray, int]:
    """The decision of each epoch, for a head at (xs[e], ys[e]) in epoch e
    and `serving` the station id before the first epoch. An id that names
    no station, such as -1 for none yet, is never in range.

    Returns, per epoch, the number of stations within `max_range` (ints)
    and whether the head moves (bools), then the station serving after
    the last epoch. The head moves to the nearest station in range
    (distances held at 1 m or above, lowest id on a tie) unless the
    serving station is within `ratio` times the nearest distance; a
    `best * ratio` that overflows to inf exceeds every distance. With no
    station in range, a radio link failure, the serving station stays.
    A `ratio` below 1, or NaN, raises ValueError: it would let a station
    hand over to a farther one, or to itself.

    The track goes in blocks of epochs. In each, the distances come one
    station at a time, each a `math.hypot` of the head's offset, and the
    rest is array passes. The serving station is then followed stint by
    stint, each ending in a move at the next epoch where it hands over.
    """
    if not ratio >= 1:
        raise ValueError(f"hysteresis ratio {ratio} is not at least 1")
    head_x, head_y = np.asarray(xs, float), np.asarray(ys, float)
    sites = sorted((s.id, *s.position) for s in stations)
    ids = [bs_id for bs_id, _, _ in sites]
    hypot = math.hypot
    in_range = np.empty(len(head_x), np.intp)
    moved = np.zeros(len(head_x), bool)
    for start in range(0, len(head_x), BLOCK_EPOCHS):
        block = slice(start, start + BLOCK_EPOCHS)
        x, y = head_x[block], head_y[block]
        distance = np.empty((len(sites), len(x)))
        for row, (_, sx, sy) in zip(distance, sites):
            row[:] = np.fromiter(map(hypot, memoryview(x - sx),
                                     memoryview(y - sy)), float, len(x))
        serving = _decide_block(distance, ids, max_range, serving, ratio,
                                in_range[block], moved[block])
    return in_range, moved, serving


def _decide_block(distance: np.ndarray, ids: list[int], max_range: float,
                  serving: int, ratio: float, count: np.ndarray,
                  moved: np.ndarray) -> int:
    """`decide` over one block of epochs, from the head's distance to
    each station (a row per station id in `ids`) into `count` and
    `moved`, which starts all False. Returns the station that serves the
    epoch after the block.

    The passes here and in the totals keep to float comparisons, masks,
    `np.where` and casts, with no int comparison, `argmin` or
    `searchsorted`: the first use of a numpy kernel in a process maps
    its code, 64-128 KiB of resident memory each.
    """
    epochs = distance.shape[1]
    in_range = distance <= max_range
    in_range.sum(axis=0, out=count)
    distance[distance < 1.0] = 1.0
    distance = np.where(in_range, distance, np.inf)
    # the nearest station, station by station: a tie keeps the lower id
    best = np.full(epochs, np.inf)
    best_id = np.zeros(epochs, np.int64)
    for bs_id, row in zip(ids, distance):
        closer = row < best
        best[closer] = row[closer]
        best_id[closer] = bs_id
    # per station, the epochs in which it hands over if it serves: where
    # it is in range, past `ratio` times the best, and elsewhere wherever
    # another station is in range
    leaves = np.where(in_range, distance > best * ratio, count.astype(bool))
    events = {bs_id: np.flatnonzero(row) for bs_id, row in zip(ids, leaves)}
    anywhere = np.flatnonzero(count)    # for an id of no station
    epoch = 0
    while True:
        ahead = events.get(serving, anywhere)
        k = bisect_left(ahead, epoch)
        if k == len(ahead):
            return serving
        end = int(ahead[k])
        moved[end] = True
        serving = int(best_id[end])
        epoch = end + 1


def associate_gateway(head: Node, base_stations: Sequence[Node]) -> int:
    """The id of the cell's gateway: the base station nearest the head
    (lowest id on ties), by the handover rule with no serving station.
    No station at all is a radio link failure of the head."""
    (count,), _, gateway = decide((head.position[0],), (head.position[1],),
                                  base_stations, math.inf, -1, 1.0)
    if not count:
        raise RadioLinkFailure(head.id)
    return gateway


def ul_rs_handover(in_range: np.ndarray, moved: np.ndarray) -> dict:
    """Signaling totals of the uplink-reference-signal procedure over the
    epochs of `decide`. Per epoch the device sends the UL RS broadcast
    and receives the command of an executed handover; each station in
    range reports to the controller. An epoch with no station in range
    signals nothing."""
    signaled = in_range.astype(bool)
    executed = int(np.count_nonzero(moved))
    terms = moved[signaled].astype(float)
    terms *= HO_RX_ENERGY
    terms += 1 * HO_TX_ENERGY
    return {"ue_tx": int(np.count_nonzero(signaled)), "ue_rx": executed,
            "network": int(in_range.sum()), "energy": fold(terms),
            "executed": executed}


def baseline_handover(in_range: np.ndarray, moved: np.ndarray) -> dict:
    """Signaling totals of the device-measured downlink procedure, the
    comparison point, over the epochs of `decide`.

    Per epoch the device receives a reference signal from every station
    in range and transmits one measurement report, which the network
    forwards to the controller. On an executed handover the device also
    receives the command and transmits the random access to the target,
    and the network prepares the target.
    """
    signaled = in_range.astype(bool)
    epochs = int(np.count_nonzero(signaled))
    executed = int(np.count_nonzero(moved))
    # (count + moved) * RX + (1 + moved) * TX, the ints made floats first
    sent = moved[signaled].astype(float)
    terms = in_range[signaled].astype(float)
    terms += sent
    terms *= HO_RX_ENERGY
    sent += 1
    sent *= HO_TX_ENERGY
    terms += sent
    return {"ue_tx": epochs + executed,
            "ue_rx": int(in_range.sum()) + executed,
            "network": epochs + executed, "energy": fold(terms),
            "executed": executed}
