"""Two-phase cooperation protocol: counts, decoding, energy, determinism.

Count assertions are derived by hand from the round-robin and TDMA
rules; the lossy-baseline test uses the geometric-distribution mean as
its oracle, and session energy is replayed from the slot records.
"""

import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mscsim.engine import (
    RX_ENERGY_FRACTION,
    DeliveryStatus,
    LinkKind,
    RunSeed,
    Simulator,
)
from mscsim.ncc import (
    CooperativeCloud,
    Endpoint,
    ProtocolError,
    SessionCodec,
    SessionConfig,
    SessionMetrics,
    SlotRecord,
    baseline_unicast_session,
    cellular_phase,
    cooperative_phase,
    run_session,
)
from mscsim.rlnc import CodedPacket, DecoderState, Generation, encode

# derandomized so the suite stays reproducible run to run
PROPERTY = settings(max_examples=100, deadline=None, derandomize=True,
                    database=None)


def _content(g=4, payload=8, gen_seed=99, count=1):
    rng = np.random.default_rng(gen_seed)
    return tuple(Generation.random(i, g, payload, rng) for i in range(count))


def _coeff_rank(vectors, g):
    """Rank of a list of coefficient vectors, via decoder ingestion."""
    probe = DecoderState(0, g, 1)
    rank = 0
    for v in vectors:
        if probe.ingest(CodedPacket(0, np.asarray(v, dtype=np.uint8), np.zeros(1, np.uint8))):
            rank += 1
    return rank


class TestCooperativeCloud:
    def test_empty_rejected(self):
        with pytest.raises(ProtocolError, match="at least one member"):
            CooperativeCloud((), head_id=0)

    def test_duplicates_rejected(self):
        with pytest.raises(ProtocolError, match="duplicate"):
            CooperativeCloud((2, 4, 4), head_id=4)

    def test_unsorted_rejected(self):
        with pytest.raises(ProtocolError, match="ascending"):
            CooperativeCloud((9, 3, 5), head_id=3)

    def test_head_must_be_a_member(self):
        with pytest.raises(ProtocolError, match="head 9 is not a cloud member"):
            CooperativeCloud((1, 2), head_id=9)
        assert CooperativeCloud((1, 2), head_id=2).head_id == 2

    def test_members_from_any_sequence_are_a_tuple(self):
        for members in ([1, 2, 3], range(1, 4)):
            cloud = CooperativeCloud(members, head_id=1)
            assert cloud.members == (1, 2, 3)
            assert cloud == CooperativeCloud((1, 2, 3), head_id=1)
            assert hash(cloud) == hash(CooperativeCloud((1, 2, 3), head_id=1))

    def test_list_built_cloud_gives_the_same_records(self):
        cfg = SessionConfig(content=_content(g=4), short_range_loss=0.2)
        from_list = run_session(CooperativeCloud([1, 2], 1), cfg, seed=0)
        from_tuple = run_session(CooperativeCloud((1, 2), 1), cfg, seed=0)
        assert from_list.records == from_tuple.records
        assert all(type(r.receivers) is tuple for r in from_list.records)


class TestSessionConfig:
    def test_redundancy_below_one_rejected(self):
        with pytest.raises(ProtocolError):
            SessionConfig(content=_content(), redundancy=0.9)
        with pytest.raises(ProtocolError, match=">= 1"):
            SessionConfig(content=_content(), redundancy=float("nan"))

    def test_unknown_phase_mode_rejected(self):
        with pytest.raises(ProtocolError):
            SessionConfig(content=_content(), phase_mode="both")

    def test_more_coded_packets_than_nonzero_vectors_rejected(self):
        # g = 1: the plan needs distinct nonzero vectors, of which 255 exist
        with pytest.raises(ProtocolError, match="255 nonzero"):
            SessionConfig(content=_content(g=1), redundancy=300)
        from mscsim.ncc import _cellular_plan
        cfg = SessionConfig(content=_content(g=1), redundancy=255)
        plan = _cellular_plan(cfg, RunSeed(0).coding())
        assert len({coeffs.tobytes() for (_, _, coeffs) in plan}) == 255

    def test_redundancy_overflowing_the_packet_count_rejected(self):
        # 1e308 * 4 overflows to inf, which math.ceil cannot convert
        for redundancy in (1e308, float("inf")):
            with pytest.raises(ProtocolError, match="infinitely many"):
                SessionConfig(content=_content(g=4), redundancy=redundancy)

    def test_coded_count_ceiling(self):
        cfg = SessionConfig(content=_content(g=64), redundancy=1.05)
        assert cfg.coded_count(cfg.content[0]) == 68
        assert cfg.cooperative_budget == 4 * 68


class TestCellularPhase:
    def test_round_robin_each_member_holds_one(self):
        # n=4, r=1, lossless, g=4: packet k goes to member k mod 4
        cloud = CooperativeCloud([10, 11, 12, 13], head_id=10)
        cfg = SessionConfig(content=_content(g=4))
        codec = SessionCodec(cloud, cfg.content)
        seed = RunSeed(0)
        records = []
        cellular_phase(cloud, cfg, codec, Simulator(), records,
                       channel_rng=seed.channel(), coding_rng=seed.coding())
        assert len(records) == 4  # the whole plan: nothing cuts it short
        assert [r.receivers[0] for r in records] == [10, 11, 12, 13]
        for m in cloud.members:
            assert codec.decoder(m, 0).rank == 1

    def test_losses_logged_not_retransmitted(self):
        cloud = CooperativeCloud([1, 2], head_id=1)
        cfg = SessionConfig(content=_content(g=8), cellular_loss=0.4)
        codec = SessionCodec(cloud, cfg.content)
        seed = RunSeed(3)
        records = []
        cellular_phase(cloud, cfg, codec, Simulator(), records,
                       channel_rng=seed.channel(), coding_rng=seed.coding())
        assert len(records) == 8  # exactly ceil(r*g), regardless of erasures
        lost = [r for r in records if not r.delivered[0]]
        assert lost, "seed produced no erasures at 40% loss"
        total_rank = sum(codec.decoder(m, 0).rank for m in cloud.members)
        assert total_rank == 8 - len(lost)


class TestCooperativePhase:
    def test_single_member_no_transmissions(self):
        cloud = CooperativeCloud([5], head_id=5)
        cfg = SessionConfig(content=_content(g=4))
        codec = SessionCodec(cloud, cfg.content)
        records = []
        cooperative_phase(cloud, cfg, codec, Simulator(), records,
                          channel_rng=RunSeed(0).channel(),
                          coding_rng=RunSeed(0).coding())
        assert records == []

    def test_two_members_two_slots(self):
        # Hand simulation: each holds one of two independent packets.
        # Slot 0: lower-id member multicasts, peer reaches full rank.
        # Slot 1: peer multicasts back, first member reaches full rank.
        gens = _content(g=2, gen_seed=7)
        cloud = CooperativeCloud([3, 9], head_id=3)
        cfg = SessionConfig(content=gens)
        m = run_session(cloud, cfg, seed=0)
        coop = [r for r in m.records if r.phase == "cooperative"]
        assert len(coop) == 2
        assert coop[0].sender == 3 and coop[0].receivers == (9,)
        assert coop[0].innovative == (True,)
        assert coop[1].sender == 9 and coop[1].innovative == (True,)
        assert m.decoding_ratio == 1.0

    def test_empty_holder_skips_slot(self):
        gens = _content(g=1, gen_seed=5)
        cloud = CooperativeCloud([1, 2], head_id=1)
        cfg = SessionConfig(content=gens)
        codec = SessionCodec(cloud, gens)
        # only member 2 holds anything
        codec.ingest(2, CodedPacket(0, np.array([1], np.uint8), gens[0].payload[0]))
        records = []
        cooperative_phase(cloud, cfg, codec, Simulator(), records,
                          channel_rng=RunSeed(0).channel(),
                          coding_rng=RunSeed(0).coding())
        assert records[0].skipped
        assert records[0].sender == 1
        assert records[0].generation_id == -1
        assert not records[1].skipped
        assert codec.all_decoded()

    @staticmethod
    def _assert_budget_exhausted(phase_mode):
        # 90% short-range loss: 4 x 4 cooperative slots are not enough
        gens = _content(g=4, gen_seed=2)
        cloud = CooperativeCloud([1, 2], head_id=1)
        cfg = SessionConfig(content=gens, short_range_loss=0.9,
                            phase_mode=phase_mode)
        m = run_session(cloud, cfg, seed=0)
        assert m.truncated
        assert m.decoding_ratio == 0.0
        coop_slots = sum(1 for r in m.records if r.phase == "cooperative")
        assert coop_slots == cfg.cooperative_budget == 16

    def test_budget_exhaustion_sets_flag(self):
        self._assert_budget_exhausted("sequential")

    def test_budget_exhaustion_sets_flag_in_parallel_mode(self):
        self._assert_budget_exhausted("parallel")


class TestRunSession:
    def test_degenerate_single_member(self):
        cloud = CooperativeCloud([5], head_id=5)
        cfg = SessionConfig(content=_content(g=4))
        m = run_session(cloud, cfg, seed=0)
        assert m.cellular_tx_count == 4
        assert m.short_range_tx_count == 0
        assert m.cellular_utilization == 1.0
        assert m.decoding_ratio == 1.0
        assert m.completion_time == 4

    def test_utilization_law(self):
        # lossless, r=1: utilization is ceil(r*g)/(n*g) = 1/n
        seen = []
        for ids in ([1], [1, 2], [1, 2, 3, 4], list(range(1, 9))):
            cloud = CooperativeCloud(ids, head_id=ids[0])
            cfg = SessionConfig(content=_content(g=4))
            m = run_session(cloud, cfg, seed=1)
            assert m.cellular_utilization == pytest.approx(1.0 / len(ids))
            seen.append(m.cellular_utilization)
        assert seen == sorted(seen, reverse=True)

    def test_quarter_utilization_case(self):
        cloud = CooperativeCloud([1, 2, 3, 4], head_id=1)
        cfg = SessionConfig(content=_content(g=4))
        m = run_session(cloud, cfg, seed=0)
        assert m.cellular_utilization == pytest.approx(0.25)

    def test_conservation_held_rows_in_bs_span(self):
        # everything any member holds must lie in the span of what the
        # base station actually transmitted for that generation
        from mscsim.ncc import _cellular_plan

        gens = _content(g=8, gen_seed=11, count=2)
        cloud = CooperativeCloud([1, 2, 3], head_id=1)
        cfg = SessionConfig(content=gens, redundancy=1.5,
                            cellular_loss=0.2, short_range_loss=0.2)
        seed = RunSeed(4)
        sim = Simulator()
        codec = SessionCodec(cloud, gens)
        records = []
        cellular_phase(cloud, cfg, codec, sim, records,
                       channel_rng=seed.channel(), coding_rng=seed.coding())
        coding_rng = seed.coding()  # fresh stream replays the plan draws
        plan = _cellular_plan(cfg, coding_rng)
        cooperative_phase(cloud, cfg, codec, sim, records,
                          channel_rng=seed.channel(), coding_rng=coding_rng)
        for gen in gens:
            bs_vectors = [coeffs for (pg, _, coeffs) in plan if pg.id == gen.id]
            base = _coeff_rank(bs_vectors, gen.size)
            for member in cloud.members:
                held = list(codec.decoder(member, gen.id).coefficient_matrix())
                assert _coeff_rank(bs_vectors + held, gen.size) == base

    def test_sequential_before_cooperative(self):
        cloud = CooperativeCloud([1, 2, 3, 4], head_id=1)
        cfg = SessionConfig(content=_content(g=4))
        m = run_session(cloud, cfg, seed=0)
        phases = [r.phase for r in m.records]
        first_coop = phases.index("cooperative")
        assert all(p == "cellular" for p in phases[:first_coop])
        assert all(p == "cooperative" for p in phases[first_coop:])

    def test_parallel_mode_interleaves_and_decodes(self):
        cloud = CooperativeCloud([0, 1, 2, 3], head_id=0)
        cfg = SessionConfig(content=_content(g=8, gen_seed=1), redundancy=1.25,
                            phase_mode="parallel")
        m = run_session(cloud, cfg, seed=0)
        assert m.decoding_ratio == 1.0
        assert not m.truncated
        assert m.records[0].phase == "cellular"
        assert m.records[1].phase == "cooperative"

    def test_completion_never_beats_single_user_optimum(self):
        cfg = SessionConfig(content=_content(g=4))
        solo = run_session(CooperativeCloud([9], head_id=9), cfg, seed=0)
        coop = run_session(CooperativeCloud([1, 2, 3, 4], head_id=1), cfg, seed=0)
        assert solo.completion_time == 4
        assert coop.completion_time > solo.completion_time

    def test_deterministic_given_seed(self):
        cloud = CooperativeCloud([1, 2, 3], head_id=1)
        cfg = SessionConfig(content=_content(g=8), redundancy=1.25,
                            cellular_loss=0.1, short_range_loss=0.1)
        a = run_session(cloud, cfg, seed=42)
        b = run_session(cloud, cfg, seed=42)
        c = run_session(cloud, cfg, seed=43)
        assert a == b
        assert a.records == b.records
        assert a.records != c.records

    def test_offload_smoke_eight_members(self):
        # 8 cooperating receivers, 64-packet generation, 5% redundancy:
        # 68 cellular slots against 512 for per-user unicast
        cloud = CooperativeCloud(list(range(10, 18)), head_id=10)
        cfg = SessionConfig(content=_content(g=64, payload=16, gen_seed=3),
                            redundancy=1.05, short_range_loss=0.1)
        m = run_session(cloud, cfg, seed=0)
        assert m.cellular_tx_count == 68
        assert m.cellular_utilization == pytest.approx(68 / 512)
        assert 0.11 <= m.cellular_utilization <= 0.15
        assert m.decoding_ratio == 1.0


class TestBaselineUnicast:
    def test_lossless_counts(self):
        cloud = CooperativeCloud([1, 2, 3, 4], head_id=1)
        cfg = SessionConfig(content=_content(g=4))
        m = baseline_unicast_session(cloud, cfg, seed=0)
        assert m.cellular_tx_count == 16
        assert m.short_range_tx_count == 0
        assert m.cellular_utilization == pytest.approx(1.0)
        assert m.decoding_ratio == 1.0

    @pytest.mark.parametrize("g", [1, 6])
    @pytest.mark.parametrize("cellular_loss", [0.0, 0.3])
    @pytest.mark.parametrize("members", [1, 2, 5])
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_matches_the_decoder_based_unicast_loop(self, seed, members,
                                                   cellular_loss, g):
        cloud = CooperativeCloud(range(1, members + 1), head_id=1)
        cfg = SessionConfig(content=_content(g=g, payload=5, count=2),
                            cellular_loss=cellular_loss)
        got = baseline_unicast_session(cloud, cfg, seed=seed)
        want = decoder_unicast_session(cloud, cfg, seed)
        assert got == want
        assert got.records == want.records
        assert struct.pack("<d", got.total_energy) == struct.pack("<d", want.total_energy)

    def test_single_member_matches_run_session(self):
        cloud = CooperativeCloud([5], head_id=5)
        cfg = SessionConfig(content=_content(g=4))
        assert baseline_unicast_session(cloud, cfg, seed=0) == run_session(cloud, cfg, seed=0)

    def test_lossy_retransmit_geometric_mean(self):
        # 16 packets retransmitted until delivered at 10% loss:
        # attempts per packet are geometric with mean 1/0.9
        cloud = CooperativeCloud([1, 2, 3, 4], head_id=1)
        cfg = SessionConfig(content=_content(g=4), cellular_loss=0.1)
        channel = RunSeed(8).channel()
        sessions = 300
        counts = [baseline_unicast_session(cloud, cfg,
                                           channel_rng=channel).cellular_tx_count
                  for _ in range(sessions)]
        expected = 16 / 0.9
        sigma_mean = np.sqrt(16 * 0.1 / 0.81 / sessions)
        assert abs(np.mean(counts) - expected) <= 3 * sigma_mean

    def test_energy_ordering(self):
        cloud = CooperativeCloud([1, 2, 3, 4], head_id=1)
        cfg = SessionConfig(content=_content(g=4))
        coop = run_session(cloud, cfg, seed=0)
        base = baseline_unicast_session(cloud, cfg, seed=0)
        assert coop.total_energy < base.total_energy

    def test_out_of_range_member_raises_instead_of_retrying(self):
        cloud = CooperativeCloud([1, 2], head_id=1)
        cfg = SessionConfig(content=_content(g=4))
        bs = Endpoint(-1, (0.0, 0.0))
        far = cfg.cellular.range_m * 2
        nodes = {-1: bs, 1: Endpoint(1, (10.0, 0.0)), 2: Endpoint(2, (far, 0.0))}
        with pytest.raises(ProtocolError, match="member 2 is out of cellular range"):
            baseline_unicast_session(cloud, cfg, seed=0, nodes=nodes, bs=bs)


def decoder_unicast_session(cloud, config, seed):
    """The unicast baseline as a decoder sees it: every delivered packet
    is `encode(gen, e_k)`, fed to that member's real `DecoderState`, and
    must be innovative; at the end the decoding ratio must be 1."""
    channel_rng = RunSeed(seed).channel()
    bs = Endpoint(-1)
    link = replace(config.cellular, p_loss=config.cellular_loss)
    codec = SessionCodec(cloud, config.content)
    sim = Simulator()
    records = []
    for member in cloud.members:
        for gen in config.content:
            for k in range(gen.size):
                unit = np.zeros(gen.size, dtype=np.uint8)
                unit[k] = 1
                pkt = encode(gen, unit)
                assert np.array_equal(pkt.payload, gen.payload[k])
                while True:
                    status = sim.transmit(link, bs, [Endpoint(member)],
                                          channel_rng)[0].status
                    ok = status is DeliveryStatus.DELIVERED
                    innovative = codec.ingest(member, pkt) if ok else False
                    assert innovative == ok
                    records.append(SlotRecord(len(records), "cellular", bs.id,
                                              gen.id, (member,), (ok,),
                                              (innovative,)))
                    if ok:
                        break
    assert codec.all_decoded() and codec.decoding_ratio() == 1.0
    cell_tx = len(records)
    return SessionMetrics(
        cellular_tx_count=cell_tx,
        short_range_tx_count=0,
        cellular_utilization=cell_tx / (cloud.size * config.source_packet_total),
        decoding_ratio=codec.decoding_ratio(),
        total_energy=sim.total_energy(),
        completion_time=len(records),
        truncated=cloud.size > 1 and not codec.all_decoded(),
        records=tuple(records),
    )


@PROPERTY
@given(st.data())
def test_codec_counters_match_the_decoders(data):
    members = data.draw(st.integers(1, 5))
    sizes = data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    content = [Generation.random(i, g, 2, rng) for i, g in enumerate(sizes)]
    cloud = CooperativeCloud(range(members), head_id=0)
    codec = SessionCodec(cloud, content)
    # small alphabet: zero and dependent packets are common, and long
    # sequences keep feeding members that are already at full rank
    element = st.sampled_from([0, 1, 2]) | st.integers(0, 255)
    steps = data.draw(st.lists(
        st.tuples(st.integers(0, members - 1), st.integers(0, len(sizes) - 1),
                  hnp.arrays(np.uint8, 3, elements=element)),
        max_size=40))

    def check():
        decoded = {(m, gen.id): codec.decoder(m, gen.id).decodable
                   for m in cloud.members for gen in content}
        assert codec.all_decoded() == all(decoded.values())
        for gen in content:
            assert codec.gen_decoded_by_all(gen.id) == all(
                decoded[m, gen.id] for m in cloud.members)
        assert codec.decoding_ratio() == sum(decoded.values()) / len(decoded)

    check()
    for member, gen_index, coeffs in steps:
        gen = content[gen_index]
        before = codec.decoder(member, gen.id).rank
        innovative = codec.ingest(member, encode(gen, coeffs[:gen.size]))
        assert innovative == (codec.decoder(member, gen.id).rank > before)
        check()


@PROPERTY
@given(st.data())
def test_slot_schedule_in_both_phase_modes(data):
    """The schedule rules, checked on the records alone: the plan's
    round robin, the rotation, where parallel mode interleaves, and the
    stopping rule. Whether the cloud has all decoded after a slot is
    replayed from the innovative flags, each of which is one rank."""
    size = data.draw(st.integers(1, 4))
    members = tuple(sorted(data.draw(
        st.sets(st.integers(0, 30), min_size=size, max_size=size))))
    sizes = data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=2))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    mode = data.draw(st.sampled_from(["sequential", "parallel"]))
    cfg = SessionConfig(
        content=[Generation.random(i, g, 2, rng) for i, g in enumerate(sizes)],
        redundancy=data.draw(st.sampled_from([1.0, 1.25, 2.0])),
        phase_mode=mode,
        cellular_loss=data.draw(st.sampled_from([0.0, 0.3])),
        short_range_loss=data.draw(st.sampled_from([0.0, 0.3, 0.9])))
    m = run_session(CooperativeCloud(members, head_id=members[0]), cfg,
                    seed=data.draw(st.integers(0, 2 ** 16)))
    records = m.records

    # cellular slot k of a generation goes to members[k % size], in plan order
    cellular = [(r.generation_id, r.receivers) for r in records
                if r.phase == "cellular"]
    assert cellular == [(gen.id, (members[k % size],)) for gen in cfg.content
                        for k in range(cfg.coded_count(gen))]
    # the j-th cooperative slot's sender is members[j % size], prefix and tail
    coop = [r.sender for r in records if r.phase == "cooperative"]
    assert coop == [members[j % size] for j in range(len(coop))]
    assert len(coop) <= cfg.cooperative_budget

    rank = {(mem, gen.id): 0 for mem in members for gen in cfg.content}
    full = {gen.id: gen.size for gen in cfg.content}
    decoded = []  # whether the cloud has all decoded after each slot
    for r in records:
        for mem, innovative in zip(r.receivers, r.innovative):
            rank[mem, r.generation_id] += innovative
        decoded.append(all(rank[mem, gid] == full[gid] for mem, gid in rank))

    phases = [r.phase for r in records]
    last_cellular = len(phases) - 1 - phases[::-1].index("cellular")
    for i, phase in enumerate(phases):
        nxt = phases[i + 1] if i + 1 < len(phases) else None
        if phase == "cooperative":
            # cooperation runs only while the cloud still needs it
            assert not decoded[i - 1]
            if i < last_cellular:
                assert mode == "parallel" and phases[i - 1] == "cellular"
        elif mode == "parallel" or i == last_cellular:
            assert (nxt == "cooperative") == (size > 1 and not decoded[i])
        else:
            assert nxt == "cellular"
    # the session ends once all have decoded or the budget is gone
    assert (size == 1 or decoded[-1] or len(coop) == cfg.cooperative_budget)
    assert m.truncated == (size > 1 and not decoded[-1])


def replay_energy(metrics, cellular, short_range):
    """A session's energy recomputed from its slot records alone.

    The sender pays the link's tx_energy for every slot that was not
    skipped, each delivered receiver pays RX_ENERGY_FRACTION of it, and
    the charges add up per link in record order.
    """
    per_link = {kind: 0.0 for kind in LinkKind}
    for r in metrics.records:
        if r.skipped:
            continue
        link = cellular if r.phase == "cellular" else short_range
        per_link[link.kind] += link.tx_energy
        for got in r.delivered:
            if got:
                per_link[link.kind] += link.tx_energy * RX_ENERGY_FRACTION
    return sum(per_link.values())


class TestEnergyReplay:
    @pytest.mark.parametrize("case", ["sequential", "parallel", "solo", "unicast"])
    def test_energy_replays_from_records(self, case):
        members = [5] if case == "solo" else [1, 2, 3, 4]
        cloud = CooperativeCloud(members, head_id=members[0])
        mode = "parallel" if case == "parallel" else "sequential"
        cfg = SessionConfig(content=_content(g=8, count=2), redundancy=1.25,
                            phase_mode=mode, cellular_loss=0.2,
                            short_range_loss=0.3)
        session = baseline_unicast_session if case == "unicast" else run_session
        m = session(cloud, cfg, seed=6)
        delivered = [got for r in m.records for got in r.delivered]
        assert any(delivered) and not all(delivered)  # erasures on the trace
        assert m.total_energy == replay_energy(m, cfg.cellular, cloud.short_range)
