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
procedure.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Sequence

import numpy as np

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


# Epochs per block of `decide`: its arrays span a block, not the track.
BLOCK_EPOCHS = 1024


def decide(xs: Sequence[float], ys: Sequence[float], stations: Sequence[Node],
           max_range: float, serving: int,
           ratio: float) -> tuple[np.ndarray, np.ndarray]:
    """The decision of each epoch, for a head at (xs[e], ys[e]) in epoch e
    and `serving` the station id before the first epoch. An id that names
    no station, such as -1 for none yet, is never in range.

    Returns, per epoch, the number of stations within `max_range` and the
    target: the nearest of them (distances held at 1 m or above, lowest
    id on a tie), unless the serving station is within `ratio` times the
    nearest distance. A `best * ratio` that overflows to inf exceeds
    every distance anyway. With no station in range, a radio link
    failure, the target is the serving station. Each target serves the
    next epoch. Both are int arrays.

    The track goes in blocks of epochs. In each, the distances come one
    station at a time, each a `math.hypot` of the head's offset, and the
    rest is array passes. The serving station is then followed stint by
    stint: each stint ends at the next epoch where that station hands
    over.
    """
    head_x, head_y = np.asarray(xs, float), np.asarray(ys, float)
    sites = sorted((s.id, *s.position) for s in stations)
    ids = [bs_id for bs_id, _, _ in sites]
    hypot = math.hypot
    in_range = np.empty(len(head_x), np.intp)
    targets = np.empty(len(head_x), np.int64)
    for start in range(0, len(head_x), BLOCK_EPOCHS):
        block = slice(start, start + BLOCK_EPOCHS)
        x, y = head_x[block], head_y[block]
        distance = np.empty((len(sites), len(x)))
        for row, (_, sx, sy) in zip(distance, sites):
            row[:] = np.fromiter(map(hypot, memoryview(x - sx),
                                     memoryview(y - sy)), float, len(x))
        serving = _decide_block(distance, ids, max_range, serving, ratio,
                                in_range[block], targets[block])
    return in_range, targets


def _decide_block(distance: np.ndarray, ids: list[int], max_range: float,
                  serving: int, ratio: float, count: np.ndarray,
                  targets: np.ndarray) -> int:
    """`decide` over one block of epochs, from the head's distance to
    each station (a row per station id in `ids`) into `count` and
    `targets`. Returns the station that serves the epoch after the
    block.

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
    while epoch < epochs:
        ahead = events.get(serving, anywhere)
        k = bisect_left(ahead, epoch)
        if k == len(ahead):
            targets[epoch:] = serving
            break
        end = int(ahead[k])
        targets[epoch:end] = serving
        serving = targets[end] = int(best_id[end])
        epoch = end + 1
    return serving


def associate_gateway(msc: MobileSmallCell, base_stations: Sequence[Node],
                      nodes: dict[int, Node]) -> None:
    """Point the cell's gateway link at the base station nearest the head
    (lowest id on ties): the handover rule with no serving station. No
    station at all is a radio link failure of the head."""
    head = nodes[msc.head]
    (count,), (target,) = decide((head.position[0],), (head.position[1],),
                                 base_stations, math.inf, -1, 1.0)
    if not count:
        raise RadioLinkFailure(head.id)
    msc.gateway_bs = int(target)


def _moves(serving: int, targets: np.ndarray) -> np.ndarray:
    """Per epoch of `decide`, whether the target differs from the station
    that served the epoch. A failed epoch keeps its station, so the
    previous target is that station."""
    moved = np.empty(len(targets), bool)
    moved[:1] = targets[:1] - serving       # nonzero where they differ
    moved[1:] = targets[1:] - targets[:-1]
    return moved


def _fold(terms: np.ndarray) -> float:
    """The float sum of `terms` added one by one in order, as a running
    total would add them: accumulate, unlike sum, never pairs them. It
    overwrites `terms`."""
    if not len(terms):
        return 0.0
    return float(np.add.accumulate(terms, out=terms)[-1])


def ul_rs_handover(serving: int, in_range: Sequence[int],
                   targets: Sequence[int]) -> dict:
    """Signaling totals of the uplink-reference-signal procedure from
    station `serving` over the epochs of `decide`. Per epoch the device
    sends the UL RS broadcast and receives the command of an executed
    handover; each station in range reports to the controller. An epoch
    with no station in range signals nothing."""
    in_range, targets = np.asarray(in_range), np.asarray(targets)
    signaled = in_range.astype(bool)
    moves = _moves(serving, targets)[signaled]
    executed = int(np.count_nonzero(moves))
    terms = moves.astype(float)
    terms *= HO_RX_ENERGY
    terms += 1 * HO_TX_ENERGY
    energy = _fold(terms)
    return {"ue_tx": int(np.count_nonzero(signaled)), "ue_rx": executed,
            "network": int(in_range.sum()), "energy": energy,
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
    in_range, targets = np.asarray(in_range), np.asarray(targets)
    signaled = in_range.astype(bool)
    moves = _moves(serving, targets)[signaled]
    epochs = int(np.count_nonzero(signaled))
    executed = int(np.count_nonzero(moves))
    # (count + moved) * RX + (1 + moved) * TX, the ints made floats first
    sent = moves.astype(float)
    terms = in_range[signaled].astype(float)
    terms += sent
    terms *= HO_RX_ENERGY
    sent += 1
    sent *= HO_TX_ENERGY
    terms += sent
    energy = _fold(terms)
    return {"ue_tx": epochs + executed,
            "ue_rx": int(in_range.sum()) + executed,
            "network": epochs + executed, "energy": energy,
            "executed": executed}
