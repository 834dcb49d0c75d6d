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
plan is exhausted. Slots are counted, not timed: `completion_slots`.
The sessions keep their slot counts as plain integers; the per-slot
trace, one `SlotRecord` per slot, is built only when the caller passes
a list as `trace`, and `SessionMetrics.records` is empty otherwise.

A plain multi-unicast session over the cellular link with
retransmit-until-delivered is included as the comparison point. It runs
no decoder: it sends each member the source packets themselves (the
unit vectors e_k, in order, once each) and retries each until it is
delivered, so every delivery raises that member's rank by one and a
finished session has decoded everything. Its slot trace marks every
delivered packet innovative, exactly what a decoder would report. An
attempt is one channel draw, so the session draws `Stream.floats`
blocks and adds in their energy with `engine.fold`, in sequence.

`SessionCodec` counts, per generation, the members that have not yet
decoded it, so the "all decoded" tests each slot makes cost O(1).

Coding is linear: a payload is its coefficient vector times the source
matrix, so the coefficients alone decide every rank, count and draw, and
a session on the zero-width view `gen.payload[:, :0]` of its content has
the same metrics, slots and draws. The runner builds one zero-width
`SessionConfig` per run and hands it to every session.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .engine import (
    DEFAULT_CELLULAR,
    DEFAULT_SHORT_RANGE,
    RX_ENERGY_FRACTION,
    LinkModel,
    RunSeed,
    Simulator,
    _DELIVERED,
    fold,
)
from .rlnc import CodedPacket, DecoderState, Generation, draw_coeffs, encode


class ProtocolError(Exception):
    pass


# Unicast gives up on a packet after ceil(UNICAST_RETRY_SCALE / (1 - p))
# consecutive erasures at cellular loss p: a bound on the work of every
# session, met with probability at most e^-UNICAST_RETRY_SCALE per packet.
UNICAST_RETRY_SCALE = 64


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
    short_range: LinkModel = DEFAULT_SHORT_RANGE

    def __post_init__(self):
        object.__setattr__(self, "content", tuple(self.content))
        if not self.content:
            raise ProtocolError("session needs at least one generation")
        if len({gen.id for gen in self.content}) != len(self.content):
            raise ProtocolError("duplicate generation ids")
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
    """One session's counts. `records` is its slot trace, one `SlotRecord`
    per slot in slot order, when the session was given a `trace` list, and
    `()` otherwise: no run builds a slot object it was not asked for."""

    cellular_tx: int
    short_range_tx: int
    cellular_utilization: float
    decoding_ratio: float
    energy: float
    completion_slots: int                # both phases, skips included
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


def _cooperative_slot(cloud, codec, sim, config, nodes, channel_rng, coding_rng,
                      sender_index, trace) -> bool:
    """One rotation slot; False when the sender had nothing to send."""
    sender = cloud.members[sender_index]
    gen_id = _pick_generation(codec, sender)
    if gen_id is None:
        if trace is not None:
            trace.append(SlotRecord(len(trace), "cooperative", sender, -1,
                                    (), (), (), skipped=True))
        return False
    pkt = codec.decoder(sender, gen_id).recode(coding_rng)
    others = cloud.members[:sender_index] + cloud.members[sender_index + 1:]
    deliveries = sim.transmit(config.short_range, config.short_range_loss,
                              nodes[sender], [nodes[m] for m in others],
                              channel_rng)
    ok = tuple(d.status is _DELIVERED for d in deliveries)
    innovative = tuple(codec.ingest(m, pkt) if got else False
                       for m, got in zip(others, ok))
    if trace is not None:
        trace.append(SlotRecord(len(trace), "cooperative", sender, gen_id,
                                others, ok, innovative))
    return True


def cellular_phase(cloud: CooperativeCloud, config: SessionConfig,
                   codec: SessionCodec, sim: Simulator, *,
                   channel_rng, coding_rng, nodes=None, bs=None,
                   trace: Optional[list] = None) -> tuple[int, int]:
    """Round-robin unicast of the coded content; no retransmissions.

    Plan packet k goes to member k mod n, in plan order. In parallel mode
    each cellular slot is followed by one cooperative slot while the
    cloud has not all decoded, the rotation starting at member 0. The
    plan has total_coded packets, a quarter of the cooperative budget, so
    the budget cannot run out here. Returns the cooperative slots
    interleaved and how many of them were not skipped. With `trace`, each
    slot's `SlotRecord` is appended to it, numbered by its position.
    """
    bs_node, nodes = _endpoints(cloud, nodes, bs)
    link, loss = config.cellular, config.cellular_loss
    members, size = cloud.members, cloud.size
    interleave = config.phase_mode == "parallel" and size > 1
    coop_slots = coop_sent = 0
    for gen, k, coeffs in _cellular_plan(config, coding_rng):
        member = members[k % size]
        pkt = encode(gen, coeffs)
        ok = sim.transmit(link, loss, bs_node, [nodes[member]], channel_rng)[0].status is _DELIVERED
        innovative = codec.ingest(member, pkt) if ok else False
        if trace is not None:
            trace.append(SlotRecord(len(trace), "cellular", bs_node.id, gen.id,
                                    (member,), (ok,), (innovative,)))
        if interleave and not codec.all_decoded():
            coop_sent += _cooperative_slot(cloud, codec, sim, config, nodes,
                                           channel_rng, coding_rng,
                                           coop_slots % size, trace)
            coop_slots += 1
    return coop_slots, coop_sent


def cooperative_phase(cloud: CooperativeCloud, config: SessionConfig,
                      codec: SessionCodec, sim: Simulator, *,
                      channel_rng, coding_rng, nodes=None, used: int = 0,
                      trace: Optional[list] = None) -> tuple[int, int]:
    """Short-range TDMA rotation until all decode or the budget is gone.

    `used` cooperative slots already count against the budget (the ones
    `cellular_phase` interleaves in parallel mode), and the rotation
    resumes after them. Returns the cooperative slots this phase sent and
    how many of them were not skipped; `trace` is as for `cellular_phase`.
    """
    if cloud.size == 1:
        return 0, 0  # nobody to multicast to
    _, nodes = _endpoints(cloud, nodes, None)
    budget = config.cooperative_budget
    slots = sent = 0
    while used + slots < budget and not codec.all_decoded():
        sent += _cooperative_slot(cloud, codec, sim, config, nodes,
                                  channel_rng, coding_rng,
                                  (used + slots) % cloud.size, trace)
        slots += 1
    return slots, sent


def _run_seed(seed) -> RunSeed:
    return seed if isinstance(seed, RunSeed) else RunSeed(seed if seed is not None else 0)


def _metrics(cloud: CooperativeCloud, config: SessionConfig, energy: float,
             trace: Optional[list], *, cellular: int, cooperative: int,
             sent: int, decoding_ratio: float, truncated: bool) -> SessionMetrics:
    return SessionMetrics(
        cellular_tx=cellular,
        short_range_tx=sent,
        cellular_utilization=cellular / (cloud.size * config.source_packet_total),
        decoding_ratio=decoding_ratio,
        energy=energy,
        completion_slots=cellular + cooperative,
        truncated=truncated,
        records=() if trace is None else tuple(trace),
    )


def run_session(cloud: CooperativeCloud, config: SessionConfig, *,
                seed=None, channel_rng=None, coding_rng=None,
                nodes=None, bs=None, trace: Optional[list] = None) -> SessionMetrics:
    """Both phases plus the offloading metrics for one content item.

    Pass an empty list as `trace` to get the session's `SlotRecord`s,
    appended to it in slot order and returned as `SessionMetrics.records`.
    """
    if channel_rng is None:
        channel_rng = _run_seed(seed).channel()
    if coding_rng is None:
        coding_rng = _run_seed(seed).coding()
    codec = SessionCodec(cloud, config.content)
    sim = Simulator()
    interleaved, sent = cellular_phase(
        cloud, config, codec, sim, channel_rng=channel_rng,
        coding_rng=coding_rng, nodes=nodes, bs=bs, trace=trace)
    rotated, rotated_sent = cooperative_phase(
        cloud, config, codec, sim, channel_rng=channel_rng,
        coding_rng=coding_rng, nodes=nodes, used=interleaved, trace=trace)
    cellular = config.total_coded  # the whole plan, one slot each
    # cooperation stops short of full decoding only at its budget
    return _metrics(cloud, config, sim.total_energy(), trace, cellular=cellular,
                    cooperative=interleaved + rotated, sent=sent + rotated_sent,
                    decoding_ratio=codec.decoding_ratio(),
                    truncated=cloud.size > 1 and not codec.all_decoded())


def baseline_unicast_session(cloud: CooperativeCloud, config: SessionConfig, *,
                             seed=None, channel_rng=None, nodes=None, bs=None,
                             trace: Optional[list] = None) -> SessionMetrics:
    """Per-user unicast of every source packet, retransmit until delivered.

    The comparison denominator: no coding, no cooperation, cellular only.
    The first member out of the base station's cellular range raises
    ProtocolError before any draw, as does a packet erased
    cap = ceil(UNICAST_RETRY_SCALE / (1 - cellular_loss)) times in a row.
    A pass draws min(need - got, cap - run) floats, `got` of `need`
    deliveries done and `run` erasures on the packet in service: the run
    can reach the cap only at its last draw, so each is one the
    attempt-by-attempt loop takes too. `fold` adds in the pass's energy,
    tx and then rx on a delivery, in sequence. `trace` is as for
    `run_session`; a session that raises appends nothing to it.
    """
    if channel_rng is None:
        channel_rng = _run_seed(seed).channel()
    bs_node, nodes = _endpoints(cloud, nodes, bs)
    link, loss = config.cellular, config.cellular_loss
    sx, sy = bs_node.position
    for member in cloud.members:    # `Simulator.transmit`'s range test
        px, py = nodes[member].position
        dx, dy = sx - px, sy - py
        if not (dx == 0 and dy == 0) and np.hypot(dx, dy) > link.range_m:
            raise ProtocolError(f"member {member} is out of cellular range "
                                f"of base station {bs_node.id}")
    packets = ((m, g.id, k) for m in cloud.members for g in config.content for k in range(g.size))
    need = cloud.size * config.source_packet_total
    cap = math.ceil(UNICAST_RETRY_SCALE / (1.0 - loss))
    energy, got, run, sent, passes = 0.0, 0, 0, 0, []
    while got < need:
        # at loss 0 `transmit` draws nothing: every attempt is a delivery
        k = min(need - got, cap - run) if loss > 0.0 else need
        ok = channel_rng.floats(k) >= loss if loss > 0.0 else np.ones(k, dtype=bool)
        terms = np.empty(2 * k + 1)     # adding 0.0 keeps a sum's bytes
        terms[0], terms[1::2] = energy, link.tx_energy
        terms[2::2] = np.where(ok, link.tx_energy * RX_ENERGY_FRACTION, 0.0)
        energy = fold(terms)
        delivered = int(np.count_nonzero(ok))
        got, sent = got + delivered, sent + k
        run = int(ok[::-1].argmax()) if delivered else run + k
        if trace is not None:
            passes.append(ok)
        if run == cap:
            member, gen_id, k = list(packets)[got]
            raise ProtocolError(
                f"member {member}: packet {k} of generation {gen_id} erased "
                f"{cap} times in a row at cellular loss {config.cellular_loss}")
    if trace is not None:
        ends = np.flatnonzero(np.concatenate(passes)).tolist()
        for (member, gen_id, _), start, end in zip(packets, [-1] + ends, ends):
            for attempt in range(start + 1, end + 1):
                ok = (attempt == end,)
                trace.append(SlotRecord(len(trace), "cellular", bs_node.id,
                                        gen_id, (member,), ok, ok))
    return _metrics(cloud, config, energy, trace, cellular=sent, cooperative=0,
                    sent=0, decoding_ratio=1.0, truncated=False)
