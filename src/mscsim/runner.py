"""Scenario execution.

One run walks the full pipeline: place the topology and elect a cell
head, bootstrap the distributed key authority, stream content through
offloading sessions, then drive the mobility trace with both handover
procedures side by side. Results go out as line-delimited JSON records.
A run's first record is its `header`: the ids and the full resolved
config, so a run is reproducible from its header. Every later record
carries the ids alone (schema, run id, scenario hash, seed). On request,
a second file holds the slot trace: one line per slot of every session.

Output files are written to a temporary name and renamed into place, so
a crash never leaves a partially written file behind.
"""

import errno
import hashlib
import itertools
import json
import os
from dataclasses import dataclass, fields, replace
from typing import Optional

import numpy as np

from .config import (
    BS_BASE,
    KM_BASE,
    UE_BASE,
    ConfigError,
    Scenario,
    apply_overrides,
    field_value,
    scenario_hash,
    scenario_to_dict,
)
from .engine import LinkKind, LinkModel, RunSeed
from .handover import (
    associate_gateway,
    baseline_handover,
    decide,
    hysteresis_ratio,
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
    SessionMetrics,
    baseline_unicast_session,
    run_session,
)
from .rlnc import Generation
from .topology import (
    Node,
    NodeKind,
    form_msc,
    step_mobility,
    topology_snapshot,
)

SCHEMA_VERSION = 2


@dataclass
class RunResult:
    records: list
    exit_code: int


def _open_temp(out_path: str):
    """A fresh temp file beside `out_path`: (file, name, directory)."""
    if os.path.isdir(out_path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
    parent = os.path.dirname(os.path.abspath(out_path))
    os.makedirs(parent, exist_ok=True)
    # "x" never opens an existing file; unlike mkstemp's private 0600,
    # the file gets the mode the umask gives a plain open()
    tmp = f"{out_path}.{os.urandom(8).hex()}.tmp"
    return open(tmp, "x", encoding="utf-8"), tmp, parent


def prepare_outputs(*paths: Optional[str]) -> None:
    """Fail before any work, with an OSError naming it, where `write_records`
    could not write one of `paths` (None and "" are skipped)."""
    for path in filter(None, paths):
        try:
            fh, tmp, _ = _open_temp(path)
            fh.close()
            os.unlink(tmp)
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, path) from exc


def write_records(records, out_path: str) -> None:
    """One JSON object per line; write-then-rename, never partial.

    The records go to a temp file with a unique name beside the target,
    so concurrent writers to one path never share it. The temp file is
    flushed and fsynced before the rename, so the target never names
    data that has not reached the disk, and the directory is fsynced
    after it, so the rename itself survives a crash. If writing fails,
    the temp file is removed and any earlier file is left as it was; an
    OSError names `out_path`, whichever step failed.
    """
    try:
        fh, tmp, parent = _open_temp(out_path)
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
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, out_path) from exc


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
        bs = Node(BS_BASE + i + 1, NodeKind.BASE_STATION,
                  (width * (i + 1) / (scenario.base_stations + 1), height / 2))
        nodes[bs.id] = bs
        stations.append(bs)

    devices = []
    spread = scenario.shortrange_range / 4
    for k in range(scenario.ue_count):
        position = (width / 2 + float(mobility_rng.uniform(-spread, spread)),
                    height / 2 + float(mobility_rng.uniform(-spread, spread)))
        ue = Node(UE_BASE + k + 1, NodeKind.UE, position,
                  battery=float(mobility_rng.uniform(0.5, 1.0)),
                  speed=float(mobility_rng.uniform(scenario.speed_min,
                                                   scenario.speed_max)))
        nodes[ue.id] = ue
        devices.append(ue)

    msc = form_msc(devices, scenario.shortrange_range)
    associate_gateway(msc, stations, nodes)
    return nodes, stations, devices, msc


def _km_phase(scenario: Scenario, crypto_rng, devices) -> dict:
    group = _group_for(scenario.km_group)
    roster_ids = [KM_BASE + i + 1 for i in range(scenario.km_shareholders)]
    service = KMService.bootstrap(
        KMConfig(scenario.km_shareholders, scenario.km_threshold),
        group, crypto_rng, node_ids=roster_ids)

    warrant = Warrant(0.0, 1e9)
    verified = 0
    for k in range(scenario.km_requesters):
        requester = devices[k % len(devices)].id
        holder = generate_keypair(group, crypto_rng)
        cred = service.request_credential(requester, holder.public, warrant)
        subject = generate_keypair(group, crypto_rng)
        cert = self_generate_certificate(cred, holder, subject,
                                         issued_at=float(k),
                                         expires_at=float(k) + 1e6,
                                         params=group, rng=crypto_rng)
        ok, _ = verify_certificate(cert, service.master_key, float(k) + 1.0,
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


def _session_phase(scenario: Scenario, rs: RunSeed, msc, emit,
                   traces: Optional[list] = None) -> dict:
    """The offloading sessions, one `session` record each: its `index`,
    the `protocol`, and every `SessionMetrics` field but `records` under
    the field's own name. With `traces`, each session is asked for its
    slot trace, and `(index, records)` is appended to it once the session
    returns.

    One cloud and one `SessionConfig` serve every session of the run, and
    its content is zero-width: a coded payload is its coefficient vector
    times the source matrix, so the coefficients alone decide every
    innovative flag, count and draw. Before each coded session, every
    generation is still drawn in full and dropped, which moves the coding
    stream by its `payload_bytes`; unicast reads no coding stream, so a
    unicast run draws no content."""
    g = scenario.generation_size
    config = SessionConfig(
        tuple(Generation(gid, np.zeros((g, 0), np.uint8))
              for gid in range(scenario.generations)),
        redundancy=scenario.redundancy,
        phase_mode=scenario.phase_mode,
        cellular_loss=scenario.cellular_loss,
        short_range_loss=scenario.shortrange_loss,
        # erasure probabilities ride on the session config, not the link
        cellular=LinkModel(LinkKind.CELLULAR,
                           tx_energy=scenario.cellular_energy,
                           range_m=scenario.cellular_range),
        short_range=LinkModel(LinkKind.SHORT_RANGE,
                              tx_energy=scenario.shortrange_energy,
                              range_m=scenario.shortrange_range))
    cloud = CooperativeCloud(tuple(sorted(msc.members)), head_id=msc.head)
    gateway = Endpoint(msc.gateway_bs)
    channel_rng = rs.channel()
    coding_rng = rs.coding()
    keys = [f.name for f in fields(SessionMetrics) if f.name != "records"]

    utilizations, ratios = [], []
    total_energy = 0.0
    truncated = 0
    for index in range(scenario.sessions):
        trace = None if traces is None else []
        if scenario.protocol == "unicast":
            metrics = baseline_unicast_session(cloud, config,
                                               channel_rng=channel_rng,
                                               bs=gateway, trace=trace)
        else:
            for gid in range(scenario.generations):
                Generation.random(gid, g, scenario.payload_bytes, coding_rng)
            metrics = run_session(cloud, config, channel_rng=channel_rng,
                                  coding_rng=coding_rng, bs=gateway,
                                  trace=trace)
        if traces is not None:
            traces.append((index, metrics.records))
        utilizations.append(metrics.cellular_utilization)
        ratios.append(metrics.decoding_ratio)
        total_energy += metrics.energy
        truncated += int(metrics.truncated)
        emit("session", index=index, protocol=scenario.protocol,
             **{key: getattr(metrics, key) for key in keys})

    return {
        "sessions": scenario.sessions,
        "mean_cellular_utilization":
            float(np.mean(utilizations)) if utilizations else None,
        "decoding_ratio": float(np.mean(ratios)) if ratios else None,
        "session_energy": total_energy,
        "truncated_sessions": truncated,
    }


def _handover_phase(scenario: Scenario, mobility_rng, nodes, stations,
                    msc) -> dict:
    """Both procedures over one mobility trace, in three passes of one
    call each: the walk of every UE (`step_mobility`, which returns the
    head's track), one decision per epoch that both procedures take
    (`decide`), and each procedure's signaling totals over it
    (`ul_rs_handover`, `baseline_handover`). The hooked names are looked
    up as module globals. A run without epochs makes none of the calls
    and never computes K.
    """
    epochs = scenario.ho_epochs
    if not epochs:
        idle = {"ue_tx": 0, "ue_rx": 0, "network": 0, "energy": 0.0,
                "executed": 0}
        return {"epochs": 0, "decisions_match": True, "link_failures": 0,
                "ul_rs": idle, "baseline": idle}
    xs, ys = step_mobility(nodes.values(), scenario.epoch_duration, epochs,
                           mobility_rng,
                           (scenario.arena_width, scenario.arena_height),
                           (scenario.speed_min, scenario.speed_max),
                           track=nodes[msc.head])
    in_range, moved, _ = decide(xs, ys, stations, scenario.cellular_range,
                                msc.gateway_bs,
                                hysteresis_ratio(scenario.hysteresis_db))
    return {
        "epochs": epochs,
        # one decision serves both procedures
        "decisions_match": True,
        # a radio link failure of each procedure
        "link_failures": 2 * (epochs - int(np.count_nonzero(in_range))),
        "ul_rs": ul_rs_handover(in_range, moved),
        "baseline": baseline_handover(in_range, moved),
    }


def run(scenario: Scenario, out_path: Optional[str] = None, *,
        crypto_stream: Optional[int] = None,
        trace_path: Optional[str] = None) -> RunResult:
    """Execute one scenario; nonzero exit code means the run aborted and
    the last record is a structured error.

    With `trace_path`, the slot trace of every session that finished is
    written there, one line per slot: the run's ids, the session index
    and the `SlotRecord` fields. The records and `out_path` are the same
    with or without it. Both paths naming one file is a ConfigError, and
    an unwritable path an OSError, raised before the run starts.
    """
    if (out_path is not None and trace_path is not None
            and os.path.realpath(out_path) == os.path.realpath(trace_path)):
        raise ConfigError("the records and the slot trace would both go to "
                          f"{os.path.realpath(out_path)}")
    prepare_outputs(out_path, trace_path)
    digest = scenario_hash(scenario)
    ids = {
        "schema": SCHEMA_VERSION,
        "run_id": f"{digest[:12]}-s{scenario.seed}",
        "scenario_hash": digest,
        "seed": scenario.seed,
    }
    # the header comes first, before anything that can fail
    records = [{**ids, "type": "header",
                "config": scenario_to_dict(scenario)}]
    traces: list[tuple[int, tuple]] = []

    def emit(record_type: str, **payload):
        records.append({**ids, "type": record_type, **payload})

    exit_code = 0
    try:
        rs = RunSeed(scenario.seed)
        mobility_rng = rs.mobility()
        crypto_rng = (rs.crypto() if crypto_stream is None
                      else rs.stream(crypto_stream))

        nodes, stations, devices, msc = _build_topology(scenario, mobility_rng)
        emit("topology",
             head=msc.head,
             gateway=msc.gateway_bs,
             cell_members=sorted(msc.members),
             snapshot=topology_snapshot(nodes.values(), [msc]))

        km = _km_phase(scenario, crypto_rng, devices)
        emit("km-summary", **km)

        sessions = _session_phase(scenario, rs, msc, emit,
                                  None if trace_path is None else traces)

        handover = _handover_phase(scenario, mobility_rng, nodes, stations,
                                   msc)
        emit("handover-summary", **handover)

        emit("run-summary", status="ok", **sessions,
             km_certificates_verified=km["certificates_verified"])
    except Exception as exc:
        emit("error", status="error", error=type(exc).__name__,
             message=str(exc))
        exit_code = 1

    if out_path is not None:
        write_records(records, out_path)
    if trace_path is not None:
        # one dict at a time: the trace is held as slot tuples, not lines
        write_records(({**ids, "session": index, **r._asdict()}
                       for index, trace in traces for r in trace), trace_path)
    return RunResult(records, exit_code)


def derive_subseed(base_seed: int, point: dict) -> int:
    """Stable per-grid-point seed: a hash of the base seed and the point,
    so execution order cannot matter."""
    blob = json.dumps([base_seed, sorted(point.items())], sort_keys=True)
    return int.from_bytes(hashlib.sha256(blob.encode()).digest()[:8],
                          "big") % (2 ** 63)


def expand_grid(scenario: Scenario, grid: dict) -> list[tuple[dict, Scenario]]:
    """One checked scenario per grid point, all built before any runs; a
    point is checked as a whole, each value beside the point's others."""
    axes = sorted(grid)
    for dotted in axes:     # every key first: an empty axis hides none
        field_value(scenario, dotted)
    for dotted in axes:
        if not grid[dotted]:
            raise ConfigError(f"grid axis {dotted!r} has no values")
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
    prepare_outputs(out_path)
    records: list[dict] = []
    exit_code = 0
    for point, derived in points:
        result = run(derived)
        exit_code = max(exit_code, result.exit_code)
        for record in result.records:
            records.append({**record, "grid_point": point})
    if out_path is not None:
        write_records(records, out_path)
    return RunResult(records, exit_code)
