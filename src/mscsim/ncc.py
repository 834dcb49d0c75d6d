"""Two-phase network-coded cooperation protocol.

Phase one distributes coded packets from the base station over the
cellular link, round-robin unicast, one packet per slot, no
retransmissions (the redundancy factor covers losses). Phase two is a
short-range TDMA rotation where each member recodes what it holds and
multicasts one packet per slot to the rest of the cloud, until everyone
has decoded everything or the slot budget runs out. A session is always
`cellular_phase` and then `cooperative_phase`. In sequential mode the
first sends only the distribution plan. In parallel mode it follows each
cellular slot with one cooperative slot while the cloud has not all
decoded, and `cooperative_phase` continues the rotation alone once the
plan is exhausted. Every slot of a session is one `SlotRecord` in
`SessionMetrics.records`, the only per-slot trace. Slots are counted,
not timed: a session's `completion_time` is its number of slots.

A plain multi-unicast session over the cellular link with
retransmit-until-delivered is included as the comparison point. It runs
no decoder: it sends each member the source packets themselves (the
unit vectors e_k, in order, once each) and retries each until it is
delivered, so every delivery raises that member's rank by one and a
finished session has decoded everything. Its slot records mark every
delivered packet innovative, exactly what a decoder would report.

`SessionCodec` counts, per generation, the members that have not yet
decoded it, so the "all decoded" tests each slot makes cost O(1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .engine import (
    DEFAULT_CELLULAR,
    DEFAULT_SHORT_RANGE,
    LinkModel,
    RunSeed,
    Simulator,
    _DELIVERED,
    _OUT_OF_RANGE,
)
from .rlnc import CodedPacket, DecoderState, Generation, draw_coeffs, encode


class ProtocolError(Exception):
    pass


@dataclass(frozen=True)
class Endpoint:
    """Minimal radio endpoint; topology nodes substitute structurally."""

    id: int
    position: tuple[float, float] = (0.0, 0.0)


@dataclass(frozen=True)
class CooperativeCloud:
    """Orderly cloud of UEs: member ids ascending, index = tuple position."""

    members: tuple[int, ...]
    head_id: int
    short_range: LinkModel = DEFAULT_SHORT_RANGE

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(self.members))
        if not self.members:
            raise ProtocolError("cloud needs at least one member")
        if len(set(self.members)) != len(self.members):
            raise ProtocolError("duplicate member ids")
        if list(self.members) != sorted(self.members):
            raise ProtocolError("members must be in ascending id order")
        if self.head_id not in self.members:
            raise ProtocolError(f"head {self.head_id} is not a cloud member")

    @property
    def size(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class SessionConfig:
    content: tuple[Generation, ...]
    redundancy: float = 1.0
    phase_mode: str = "sequential"
    cellular_loss: float = 0.0
    short_range_loss: float = 0.0
    cellular: LinkModel = DEFAULT_CELLULAR

    def __post_init__(self):
        object.__setattr__(self, "content", tuple(self.content))
        if not self.content:
            raise ProtocolError("session needs at least one generation")
        if not self.redundancy >= 1.0:  # also NaN
            raise ProtocolError(f"redundancy must be >= 1, got {self.redundancy}")
        if self.phase_mode not in ("sequential", "parallel"):
            raise ProtocolError(f"unknown phase mode {self.phase_mode!r}")
        for p in (self.cellular_loss, self.short_range_loss):
            if not 0.0 <= p < 1.0:
                raise ProtocolError(f"loss probability {p} outside [0, 1)")
        for gen in self.content:
            if math.isinf(self.redundancy * gen.size):
                raise ProtocolError(
                    f"redundancy {self.redundancy} asks for infinitely many "
                    f"coded packets of generation {gen.id}")
            # the cellular plan sends distinct nonzero coefficient vectors,
            # and only 256^g - 1 of those exist
            if self.coded_count(gen) > 256 ** gen.size - 1:
                raise ProtocolError(
                    f"redundancy {self.redundancy} asks for {self.coded_count(gen)} "
                    f"distinct coded packets of generation {gen.id}, but only "
                    f"{256 ** gen.size - 1} nonzero coefficient vectors exist")

    def coded_count(self, gen: Generation) -> int:
        return math.ceil(self.redundancy * gen.size)

    @property
    def source_packet_total(self) -> int:
        return sum(gen.size for gen in self.content)

    @property
    def total_coded(self) -> int:
        return sum(self.coded_count(gen) for gen in self.content)

    @property
    def cooperative_budget(self) -> int:
        """Cap on a session's cooperative slots, skipped ones included."""
        return 4 * self.total_coded


@dataclass
class SessionMetrics:
    cellular_tx_count: int
    short_range_tx_count: int
    cellular_utilization: float
    decoding_ratio: float
    total_energy: float
    completion_time: int                 # slots, both phases, skips included
    truncated: bool = False              # cooperation hit its slot budget
    records: tuple = field(default=(), repr=False, compare=False)


class SlotRecord(NamedTuple):
    """One TDMA slot: who sent what to whom, and what it was worth."""

    slot: int
    phase: str                      # "cellular" | "cooperative"
    sender: int
    generation_id: int              # -1 on a skipped slot
    receivers: tuple[int, ...]
    delivered: tuple[bool, ...]
    innovative: tuple[bool, ...]
    skipped: bool = False


class SessionCodec:
    """Decoder state per (member, generation) for one session.

    Packets go in through `ingest`, which keeps the undecoded counts: a
    decoder reaches full rank on an innovative packet, exactly once.
    """

    def __init__(self, cloud: CooperativeCloud, content: Sequence[Generation]):
        self.content = tuple(content)
        self._dec: dict[int, dict[int, DecoderState]] = {
            m: {gen.id: DecoderState(gen.id, gen.size, gen.payload_len)
                for gen in self.content}
            for m in cloud.members
        }
        self._pairs = cloud.size * len(self.content)
        # members yet to decode each generation, and their sum
        self._undecoded = {gen.id: cloud.size for gen in self.content}
        self._undecoded_pairs = self._pairs

    def decoder(self, member_id: int, gen_id: int) -> DecoderState:
        return self._dec[member_id][gen_id]

    def ingest(self, member_id: int, pkt: CodedPacket) -> bool:
        dec = self._dec[member_id][pkt.generation_id]
        if not dec.ingest(pkt):
            return False
        if dec.decodable:
            self._undecoded[pkt.generation_id] -= 1
            self._undecoded_pairs -= 1
        return True

    def gen_decoded_by_all(self, gen_id: int) -> bool:
        return self._undecoded[gen_id] == 0

    def all_decoded(self) -> bool:
        return self._undecoded_pairs == 0

    def decoding_ratio(self) -> float:
        return (self._pairs - self._undecoded_pairs) / self._pairs


def _endpoints(cloud: CooperativeCloud, nodes, bs) -> tuple[Endpoint, dict]:
    """The base station and the node map, defaulting to co-located
    endpoints: range never limits a desk-scale session."""
    if nodes is None:
        nodes = {m: Endpoint(m) for m in cloud.members}
    return (bs if bs is not None else Endpoint(-1)), nodes


def _cellular_plan(config: SessionConfig, coding_rng) -> list[tuple[Generation, int, np.ndarray]]:
    """Draw the coded packets for the whole distribution up front.

    Coefficient vectors are redrawn while zero or already used within
    the generation, so every transmission carries a distinct nonzero
    combination.
    """
    plan = []
    for gen in config.content:
        seen: set[bytes] = set()
        for k in range(config.coded_count(gen)):
            coeffs = draw_coeffs(coding_rng, gen.size)
            while not coeffs.any() or coeffs.tobytes() in seen:
                coeffs = draw_coeffs(coding_rng, gen.size)
            seen.add(coeffs.tobytes())
            plan.append((gen, k, coeffs))
    return plan


def _pick_generation(codec: SessionCodec, member_id: int) -> Optional[int]:
    """Lowest generation the sender can still help with: not yet decoded
    by the whole cloud and nonzero rank at the sender."""
    for gen in codec.content:
        if codec.gen_decoded_by_all(gen.id):
            continue
        if codec.decoder(member_id, gen.id).rank > 0:
            return gen.id
    return None


def _cooperative_slot(cloud, codec, sim, link, nodes, channel_rng, coding_rng,
                      sender_index, slot) -> SlotRecord:
    sender = cloud.members[sender_index]
    gen_id = _pick_generation(codec, sender)
    if gen_id is None:
        return SlotRecord(slot, "cooperative", sender, -1, (), (), (), skipped=True)
    pkt = codec.decoder(sender, gen_id).recode(coding_rng)
    others = cloud.members[:sender_index] + cloud.members[sender_index + 1:]
    deliveries = sim.transmit(link, nodes[sender], [nodes[m] for m in others],
                              channel_rng)
    ok = tuple(d.status is _DELIVERED for d in deliveries)
    innovative = tuple(codec.ingest(m, pkt) if got else False
                       for m, got in zip(others, ok))
    return SlotRecord(slot, "cooperative", sender, gen_id, others, ok, innovative)


def cellular_phase(cloud: CooperativeCloud, config: SessionConfig,
                   codec: SessionCodec, sim: Simulator, records: list, *,
                   channel_rng, coding_rng, nodes=None, bs=None) -> None:
    """Round-robin unicast of the coded content; no retransmissions.

    Plan packet k goes to member k mod n, in plan order. In parallel mode
    each cellular slot is followed by one cooperative slot while the
    cloud has not all decoded, the rotation starting at member 0. The
    plan has total_coded packets, a quarter of the cooperative budget, so
    the budget cannot run out here.
    """
    bs_node, nodes = _endpoints(cloud, nodes, bs)
    link = replace(config.cellular, p_loss=config.cellular_loss)
    members, size = cloud.members, cloud.size
    interleave = config.phase_mode == "parallel" and size > 1
    short_range = replace(cloud.short_range, p_loss=config.short_range_loss)
    coop_slots = 0
    for gen, k, coeffs in _cellular_plan(config, coding_rng):
        member = members[k % size]
        pkt = encode(gen, coeffs)
        ok = sim.transmit(link, bs_node, [nodes[member]], channel_rng)[0].status is _DELIVERED
        innovative = codec.ingest(member, pkt) if ok else False
        records.append(SlotRecord(len(records), "cellular", bs_node.id, gen.id,
                                  (member,), (ok,), (innovative,)))
        if interleave and not codec.all_decoded():
            records.append(_cooperative_slot(cloud, codec, sim, short_range, nodes,
                                             channel_rng, coding_rng,
                                             coop_slots % size, len(records)))
            coop_slots += 1


def cooperative_phase(cloud: CooperativeCloud, config: SessionConfig,
                      codec: SessionCodec, sim: Simulator, records: list, *,
                      channel_rng, coding_rng, nodes=None) -> None:
    """Short-range TDMA rotation until all decode or the budget is gone.

    Cooperative slots already in ``records`` (the ones `cellular_phase`
    interleaves in parallel mode) count against the budget, and the
    rotation resumes after them.
    """
    if cloud.size == 1:
        return  # nobody to multicast to
    _, nodes = _endpoints(cloud, nodes, None)
    link = replace(cloud.short_range, p_loss=config.short_range_loss)
    used = sum(1 for r in records if r.phase == "cooperative")
    budget = config.cooperative_budget
    while used < budget and not codec.all_decoded():
        records.append(_cooperative_slot(cloud, codec, sim, link, nodes,
                                         channel_rng, coding_rng,
                                         used % cloud.size, len(records)))
        used += 1


def _run_seed(seed) -> RunSeed:
    return seed if isinstance(seed, RunSeed) else RunSeed(seed if seed is not None else 0)


def _resolve_rngs(seed, channel_rng, coding_rng):
    if channel_rng is not None and coding_rng is not None:
        return channel_rng, coding_rng
    rs = _run_seed(seed)
    return (channel_rng if channel_rng is not None else rs.channel(),
            coding_rng if coding_rng is not None else rs.coding())


def _metrics(cloud: CooperativeCloud, config: SessionConfig, sim: Simulator,
             records: list, decoding_ratio: float, truncated: bool) -> SessionMetrics:
    cell_tx = sr_tx = 0
    for r in records:
        if r.phase == "cellular":
            cell_tx += 1
        elif not r.skipped:
            sr_tx += 1
    return SessionMetrics(
        cellular_tx_count=cell_tx,
        short_range_tx_count=sr_tx,
        cellular_utilization=cell_tx / (cloud.size * config.source_packet_total),
        decoding_ratio=decoding_ratio,
        total_energy=sim.total_energy(),
        completion_time=len(records),
        truncated=truncated,
        records=tuple(records),
    )


def run_session(cloud: CooperativeCloud, config: SessionConfig, *,
                seed=None, channel_rng=None, coding_rng=None,
                nodes=None, bs=None) -> SessionMetrics:
    """Both phases plus the offloading metrics for one content item."""
    channel_rng, coding_rng = _resolve_rngs(seed, channel_rng, coding_rng)
    codec = SessionCodec(cloud, config.content)
    sim = Simulator()
    records: list[SlotRecord] = []
    cellular_phase(cloud, config, codec, sim, records, channel_rng=channel_rng,
                   coding_rng=coding_rng, nodes=nodes, bs=bs)
    cooperative_phase(cloud, config, codec, sim, records, channel_rng=channel_rng,
                      coding_rng=coding_rng, nodes=nodes)
    # cooperation stops short of full decoding only at its budget
    return _metrics(cloud, config, sim, records, codec.decoding_ratio(),
                    cloud.size > 1 and not codec.all_decoded())


def baseline_unicast_session(cloud: CooperativeCloud, config: SessionConfig, *,
                             seed=None, channel_rng=None,
                             nodes=None, bs=None) -> SessionMetrics:
    """Per-user unicast of every source packet, retransmit until delivered.

    The comparison denominator: no coding, no cooperation, cellular only.
    Erasures are retried; a member out of the base station's cellular
    range can never be served, so it raises ProtocolError.

    No decoder runs. Source packet k of a generation is the unit vector
    e_k, sent once to each member in order of k and retried until it
    arrives, so each delivery is innovative (its pivot column k is new)
    and a member holds the whole generation once the loop passes it. A
    session that returns has therefore decoded everything: decoding
    ratio 1.0, never truncated.
    """
    if channel_rng is None:
        channel_rng = _run_seed(seed).channel()
    bs_node, nodes = _endpoints(cloud, nodes, bs)
    link = replace(config.cellular, p_loss=config.cellular_loss)
    sim = Simulator()
    records: list[SlotRecord] = []
    delivered, erased = (True,), (False,)

    for member in cloud.members:
        receivers = [nodes[member]]
        to = (member,)
        for gen in config.content:
            for _ in range(gen.size):
                while True:
                    status = sim.transmit(link, bs_node, receivers,
                                          channel_rng)[0].status
                    if status is _OUT_OF_RANGE:
                        raise ProtocolError(
                            f"member {member} is out of cellular range of "
                            f"base station {bs_node.id}")
                    ok = delivered if status is _DELIVERED else erased
                    records.append(SlotRecord(len(records), "cellular",
                                              bs_node.id, gen.id, to, ok, ok))
                    if ok is delivered:
                        break

    return _metrics(cloud, config, sim, records, 1.0, False)
