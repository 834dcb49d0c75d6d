"""Scenario execution.

One run walks the full pipeline: place the topology and elect a cell
head, bootstrap the distributed key authority, stream content through
offloading sessions, then drive the mobility trace with both handover
procedures side by side. Results go out as line-delimited JSON records;
every record carries the seed, the scenario hash, and the full config
echo, so any single line suffices to reproduce its run.

Output files are written to a temporary name and renamed into place, so
a crash never leaves a partially written file behind.
"""

import hashlib
import itertools
import json
import os
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .config import (
    Scenario,
    apply_overrides,
    field_value,
    scenario_hash,
    scenario_to_dict,
)
from .engine import LinkKind, LinkModel, ReadAheadBytes, ReadAheadFloats, RunSeed
from .handover import (
    RadioLinkFailure,
    baseline_handover,
    ho_energy,
    measure,
    ul_rs_handover,
)
from .keymgmt import (
    KMConfig,
    KMService,
    Warrant,
    generate_keypair,
    self_generate_certificate,
    verify_certificate,
)
from .keymgmt.groups import DEMO_GROUP, TOY_GROUP, group_2048
from .ncc import (
    CooperativeCloud,
    Endpoint,
    SessionConfig,
    baseline_unicast_session,
    run_session,
)
from .rlnc import Generation
from .topology import (
    ElectionPolicy,
    Node,
    NodeKind,
    PathLoss,
    associate_gateway,
    form_msc,
    step_mobility,
    topology_snapshot,
)

SCHEMA_VERSION = 1

# node id blocks: base stations, devices, authority shareholders
_BS_BASE = 0
_UE_BASE = 100
_KM_BASE = 1000


@dataclass
class RunResult:
    records: list
    exit_code: int
    out_path: Optional[str] = None


def write_records(records, out_path: str) -> None:
    """One JSON object per line; write-then-rename, never partial.

    The records go to a temp file with a unique name beside the target,
    so concurrent writers to one path never share it. The temp file is
    flushed and fsynced before the rename, so the target never names
    data that has not reached the disk, and the directory is fsynced
    after it, so the rename itself survives a crash. If writing fails,
    the temp file is removed and any earlier file is left as it was.
    """
    parent = os.path.dirname(os.path.abspath(out_path))
    os.makedirs(parent, exist_ok=True)
    # "x" never opens an existing file; unlike mkstemp's private 0600,
    # the file gets the mode the umask gives a plain open()
    tmp = f"{out_path}.{os.urandom(8).hex()}.tmp"
    fh = open(tmp, "x", encoding="utf-8")
    try:
        with fh:
            for record in records:
                fh.write(json.dumps(record, sort_keys=True))
                fh.write("\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, out_path)
    except BaseException:
        os.unlink(tmp)
        raise
    dir_fd = os.open(parent, os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def _links(scenario: Scenario) -> tuple[LinkModel, LinkModel]:
    # erasure probabilities ride on the session config, not the link
    cellular = LinkModel(LinkKind.CELLULAR, rate=scenario.cellular_rate,
                         p_loss=0.0, tx_energy=scenario.cellular_energy,
                         range_m=scenario.cellular_range)
    short = LinkModel(LinkKind.SHORT_RANGE, rate=scenario.shortrange_rate,
                      p_loss=0.0, tx_energy=scenario.shortrange_energy,
                      range_m=scenario.shortrange_range)
    return cellular, short


def _group_for(name: str):
    if name == "toy":
        return TOY_GROUP
    if name == "demo":
        return DEMO_GROUP
    return group_2048()


def _build_topology(scenario: Scenario, mobility_rng):
    """Base stations on a line across the arena; devices clustered at the
    center tightly enough that one cell always covers all of them."""
    nodes: dict[int, Node] = {}
    stations = []
    width, height = scenario.arena_width, scenario.arena_height
    for i in range(scenario.base_stations):
        bs = Node(_BS_BASE + i + 1, NodeKind.BASE_STATION,
                  (width * (i + 1) / (scenario.base_stations + 1), height / 2),
                  tx_power_dbm=43.0)
        nodes[bs.id] = bs
        stations.append(bs)

    devices = []
    spread = scenario.shortrange_range / 4
    for k in range(scenario.ue_count):
        position = (width / 2 + float(mobility_rng.uniform(-spread, spread)),
                    height / 2 + float(mobility_rng.uniform(-spread, spread)))
        ue = Node(_UE_BASE + k + 1, NodeKind.UE, position,
                  battery=float(mobility_rng.uniform(0.5, 1.0)),
                  speed=float(mobility_rng.uniform(scenario.speed_min,
                                                   scenario.speed_max)))
        nodes[ue.id] = ue
        devices.append(ue)

    msc = form_msc(devices, ElectionPolicy(), scenario.shortrange_range)
    pathloss = PathLoss()
    associate_gateway(msc, stations, pathloss, nodes)
    return nodes, stations, devices, msc, pathloss


def _km_phase(scenario: Scenario, crypto_rng, devices) -> dict:
    group = _group_for(scenario.km_group)
    roster_ids = [_KM_BASE + i + 1 for i in range(scenario.km_shareholders)]
    service = KMService.bootstrap(
        KMConfig(scenario.km_shareholders, scenario.km_threshold),
        group, crypto_rng, node_ids=roster_ids)

    warrant = Warrant(0.0, 1e9)
    verified = 0
    for k in range(scenario.km_requesters):
        requester = devices[k % len(devices)].id
        holder = generate_keypair(group, crypto_rng)
        cred = service.request_credential(requester, holder.public, warrant,
                                          now=float(k))
        subject = generate_keypair(group, crypto_rng)
        cert = self_generate_certificate(cred, holder, subject,
                                         issued_at=float(k),
                                         expires_at=float(k) + 1e6,
                                         params=group, rng=crypto_rng)
        ok, _ = verify_certificate(cert, service.master_public, float(k) + 1.0,
                                   group)
        verified += int(ok)

    audit = service.fairness_audit()
    return {
        "roster": len(service.roster),
        "threshold": scenario.km_threshold,
        "group": scenario.km_group,
        "requesters": scenario.km_requesters,
        "certificates_verified": verified,
        "max_mean_ratio": audit["max_mean_ratio"],
        "never_served": len(audit["never_served"]),
    }


def _session_phase(scenario: Scenario, rs: RunSeed, msc, emit) -> dict:
    cellular, short = _links(scenario)
    cloud = CooperativeCloud(tuple(sorted(msc.members)), head_id=msc.head,
                             short_range=short)
    gateway = Endpoint(msc.gateway_bs if msc.gateway_bs is not None else -1)
    # the same draws as the raw streams, at a fraction of the per-call cost
    channel_rng = ReadAheadFloats(rs.channel())
    coding_rng = ReadAheadBytes(rs.coding())

    utilizations, ratios = [], []
    total_energy = 0.0
    truncated = 0
    for index in range(scenario.sessions):
        content = tuple(
            Generation.random(gid, scenario.generation_size,
                              scenario.payload_bytes, coding_rng)
            for gid in range(scenario.generations))
        config = SessionConfig(content, redundancy=scenario.redundancy,
                               phase_mode=scenario.phase_mode,
                               cellular_loss=scenario.cellular_loss,
                               short_range_loss=scenario.shortrange_loss,
                               cellular=cellular)
        if scenario.protocol == "unicast":
            metrics = baseline_unicast_session(cloud, config,
                                               channel_rng=channel_rng,
                                               bs=gateway)
        else:
            metrics = run_session(cloud, config, channel_rng=channel_rng,
                                  coding_rng=coding_rng, bs=gateway)
        utilizations.append(metrics.cellular_utilization)
        ratios.append(metrics.decoding_ratio)
        total_energy += metrics.total_energy
        truncated += int(metrics.truncated)
        emit("session",
             index=index,
             protocol=scenario.protocol,
             cellular_tx=metrics.cellular_tx_count,
             short_range_tx=metrics.short_range_tx_count,
             cellular_utilization=metrics.cellular_utilization,
             decoding_ratio=metrics.decoding_ratio,
             energy=metrics.total_energy,
             completion_slots=metrics.completion_time,
             truncated=metrics.truncated)

    return {
        "sessions": scenario.sessions,
        "mean_cellular_utilization":
            float(np.mean(utilizations)) if utilizations else None,
        "decoding_ratio": float(np.mean(ratios)) if ratios else None,
        "session_energy": total_energy,
        "truncated_sessions": truncated,
    }


def _handover_phase(scenario: Scenario, mobility_rng, nodes, stations, msc,
                    pathloss) -> dict:
    """Both procedures over one mobility trace, each deciding on its own.

    The counters live in locals and go into the summary once; each
    procedure's energy still sums its events in epoch order. The hooked
    `step_mobility`, `ul_rs_handover` and `baseline_handover` are looked
    up as module globals on every call.
    """
    epochs = scenario.ho_epochs
    ul_tx = ul_rx = ul_network = ul_executed = 0
    base_tx = base_rx = base_network = base_executed = 0
    ul_energy = base_energy = 0.0
    link_failures = 0
    decisions_match = True

    mch = nodes[msc.head]
    devices = [n for n in nodes.values() if n.kind is NodeKind.UE]
    dt = scenario.epoch_duration
    arena = (scenario.arena_width, scenario.arena_height)
    speed_range = (scenario.speed_min, scenario.speed_max)
    max_range = scenario.cellular_range
    hysteresis_db = scenario.hysteresis_db
    ul_serving = base_serving = nodes[msc.gateway_bs]

    for _ in range(epochs):
        step_mobility(devices, dt, mobility_rng, arena, speed_range)
        # one radio snapshot, read by both procedures
        reports = measure(mch, stations, pathloss, max_range)

        try:
            event = ul_rs_handover(mch, ul_serving, reports,
                                   hysteresis_db=hysteresis_db)
        except RadioLinkFailure:
            link_failures += 1
            ul_target = ul_serving.id
        else:
            ul_tx += event.ue_tx_messages
            ul_rx += event.ue_rx_messages
            ul_network += event.network_messages
            ul_energy += ho_energy(event)
            ul_target = event.target_bs
            if ul_target != ul_serving.id:
                ul_executed += 1
                ul_serving = nodes[ul_target]

        try:
            event = baseline_handover(mch, base_serving, reports,
                                      hysteresis_db=hysteresis_db)
        except RadioLinkFailure:
            link_failures += 1
            base_target = base_serving.id
        else:
            base_tx += event.ue_tx_messages
            base_rx += event.ue_rx_messages
            base_network += event.network_messages
            base_energy += ho_energy(event)
            base_target = event.target_bs
            if base_target != base_serving.id:
                base_executed += 1
                base_serving = nodes[base_target]

        if ul_target != base_target:
            decisions_match = False

    return {
        "epochs": epochs,
        "decisions_match": decisions_match,
        "link_failures": link_failures,
        "ul_rs": {"ue_tx": ul_tx, "ue_rx": ul_rx, "network": ul_network,
                  "energy": ul_energy, "executed": ul_executed},
        "baseline": {"ue_tx": base_tx, "ue_rx": base_rx,
                     "network": base_network, "energy": base_energy,
                     "executed": base_executed},
    }


def run(scenario: Scenario, out_path: Optional[str] = None, *,
        crypto_stream: Optional[int] = None) -> RunResult:
    """Execute one scenario; nonzero exit code means the run aborted and
    the last record is a structured error."""
    digest = scenario_hash(scenario)
    base = {
        "schema": SCHEMA_VERSION,
        "run_id": f"{digest[:12]}-s{scenario.seed}",
        "scenario_hash": digest,
        "seed": scenario.seed,
        "config": scenario_to_dict(scenario),
    }
    records: list[dict] = []

    def emit(record_type: str, **payload):
        records.append({**base, "type": record_type, **payload})

    exit_code = 0
    try:
        rs = RunSeed(scenario.seed)
        mobility_rng = rs.mobility()
        crypto_rng = (rs.crypto() if crypto_stream is None
                      else rs.stream(crypto_stream))

        nodes, stations, devices, msc, pathloss = _build_topology(
            scenario, mobility_rng)
        emit("topology",
             head=msc.head,
             gateway=msc.gateway_bs,
             cell_members=sorted(msc.members),
             snapshot=topology_snapshot(0.0, nodes.values(), [msc]))

        km = _km_phase(scenario, crypto_rng, devices)
        emit("km-summary", **km)

        sessions = _session_phase(scenario, rs, msc, emit)

        handover = _handover_phase(scenario, mobility_rng, nodes, stations,
                                   msc, pathloss)
        emit("handover-summary", **handover)

        emit("run-summary", status="ok", **sessions,
             handover={"ul_rs": handover["ul_rs"],
                       "baseline": handover["baseline"]},
             km_certificates_verified=km["certificates_verified"])
    except Exception as exc:
        emit("error", status="error", error=type(exc).__name__,
             message=str(exc))
        exit_code = 1

    if out_path is not None:
        write_records(records, out_path)
    return RunResult(records, exit_code, out_path)


def derive_subseed(base_seed: int, point: dict) -> int:
    """Stable per-grid-point seed: a hash of the base seed and the point,
    so execution order cannot matter."""
    blob = json.dumps([base_seed, sorted(point.items())], sort_keys=True)
    return int.from_bytes(hashlib.sha256(blob.encode()).digest()[:8],
                          "big") % (2 ** 63)


def expand_grid(scenario: Scenario, grid: dict) -> list[tuple[dict, Scenario]]:
    """Validate every axis up front, then build one scenario per point."""
    axes = sorted(grid)
    for dotted in axes:
        if not grid[dotted]:
            return []
        for value in grid[dotted]:
            apply_overrides(scenario, {dotted: value})
    if not axes:
        return []

    points = []
    for combo in itertools.product(*([(d, v) for v in grid[d]] for d in axes)):
        overrides = dict(combo)
        derived = apply_overrides(scenario, overrides)
        point = {dotted: field_value(derived, dotted) for dotted in overrides}
        derived = replace(derived,
                          seed=derive_subseed(scenario.seed, point))
        points.append((point, derived))
    return points


def sweep(scenario: Scenario, grid: dict,
          out_path: Optional[str] = None) -> RunResult:
    """Independent runs over the cartesian product of the grid axes.

    Every point gets its own derived seed; an empty grid is a successful
    no-op. Record content does not depend on execution order.
    """
    points = expand_grid(scenario, grid)
    records: list[dict] = []
    exit_code = 0
    for point, derived in points:
        result = run(derived)
        exit_code = max(exit_code, result.exit_code)
        for record in result.records:
            records.append({**record, "grid_point": point})
    if out_path is not None:
        write_records(records, out_path)
    return RunResult(records, exit_code, out_path)
