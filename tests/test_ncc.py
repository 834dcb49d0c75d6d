"""Two-phase cooperation protocol: counts, decoding, energy, determinism.

Count assertions are derived by hand from the round-robin and TDMA
rules; the lossy-baseline test uses the geometric-distribution mean as
its oracle, and session energy is replayed from the slot records.
"""

import math
import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mscsim.engine import (
    RX_ENERGY_FRACTION,
    Delivery,
    DeliveryStatus,
    LinkKind,
    RunSeed,
    Simulator,
)
from mscsim.ncc import (
    CooperativeCloud,
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
from mscsim.rlnc import CodedPacket, DecoderState, Generation, draw_coeffs, encode


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
        from_list = run_session(CooperativeCloud([1, 2], 1), cfg, seed=0, trace=[])
        from_tuple = run_session(CooperativeCloud((1, 2), 1), cfg, seed=0, trace=[])
        assert from_list.records == from_tuple.records
        assert all(type(r.receivers) is tuple for r in from_list.records)


class TestSessionConfig:
    def test_no_generation_rejected(self):
        with pytest.raises(ProtocolError, match="at least one generation"):
            SessionConfig(content=())

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
            with pytest.raises(ProtocolError, match="needs inf distinct"):
                SessionConfig(content=_content(g=4), redundancy=redundancy)

    def test_duplicate_generation_ids_rejected(self):
        # two generations with one id would share one decoder: the session
        # ran its whole cooperative budget at decoding ratio 0.5 (sizes 4
        # and 4) or raised CodingError partway (sizes 4 and 6)
        rng = np.random.default_rng(0)
        for sizes in ((4, 4), (4, 6)):
            content = [Generation.random(0, g, 2, rng) for g in sizes]
            with pytest.raises(ProtocolError, match="duplicate generation ids"):
                SessionConfig(content=content)
        content = [Generation.random(gid, 4, 2, rng) for gid in (3, 0)]
        assert SessionConfig(content=content).content == tuple(content)

    def test_coded_count_ceiling(self):
        cfg = SessionConfig(content=_content(g=64), redundancy=1.05)
        assert cfg.coded_count(cfg.content[0]) == 68
        assert cfg.cooperative_budget == 4 * 68

    @pytest.mark.parametrize("field", ["cellular_loss", "short_range_loss"])
    def test_p_loss_range_enforced(self, field):
        # the one loss check: a link carries no loss of its own
        for loss in (1.0, float("nan"), -0.1):
            with pytest.raises(ProtocolError, match="outside"):
                SessionConfig(content=_content(), **{field: loss})
        assert getattr(SessionConfig(content=_content(), **{field: 0.999}),
                       field) == 0.999  # boundary ok


class TestCellularPhase:
    def test_round_robin_each_member_holds_one(self):
        # n=4, r=1, lossless, g=4: packet k goes to member k mod 4
        cloud = CooperativeCloud([10, 11, 12, 13], head_id=10)
        cfg = SessionConfig(content=_content(g=4))
        codec = SessionCodec(cloud, cfg.content)
        seed = RunSeed(0)
        records = []
        cellular_phase(cloud, cfg, codec, Simulator(1.0, 0.2), channel_rng=seed.channel(),
                       coding_rng=seed.coding(), trace=records)
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
        cellular_phase(cloud, cfg, codec, Simulator(1.0, 0.2), channel_rng=seed.channel(),
                       coding_rng=seed.coding(), trace=records)
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
        assert cooperative_phase(cloud, cfg, codec, Simulator(1.0, 0.2),
                                 channel_rng=RunSeed(0).channel(),
                                 coding_rng=RunSeed(0).coding(),
                                 trace=records) == (0, 0)
        assert records == []

    def test_two_members_two_slots(self):
        # Hand simulation: each holds one of two independent packets.
        # Slot 0: lower-id member multicasts, peer reaches full rank.
        # Slot 1: peer multicasts back, first member reaches full rank.
        gens = _content(g=2, gen_seed=7)
        cloud = CooperativeCloud([3, 9], head_id=3)
        cfg = SessionConfig(content=gens)
        m = run_session(cloud, cfg, seed=0, trace=[])
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
        assert cooperative_phase(cloud, cfg, codec, Simulator(1.0, 0.2),
                                 channel_rng=RunSeed(0).channel(),
                                 coding_rng=RunSeed(0).coding(),
                                 trace=records) == (2, 1)
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
        m = run_session(cloud, cfg, seed=0, trace=[])
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
        assert m.cellular_tx == 4
        assert m.short_range_tx == 0
        assert m.cellular_utilization == 1.0
        assert m.decoding_ratio == 1.0
        assert m.completion_slots == 4

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
        sim = Simulator(cfg.cellular_energy, cfg.short_range_energy)
        codec = SessionCodec(cloud, gens)
        cellular_phase(cloud, cfg, codec, sim, channel_rng=seed.channel(),
                       coding_rng=seed.coding())
        coding_rng = seed.coding()  # fresh stream replays the plan draws
        plan = _cellular_plan(cfg, coding_rng)
        cooperative_phase(cloud, cfg, codec, sim, channel_rng=seed.channel(),
                          coding_rng=coding_rng)
        for gen in gens:
            bs_vectors = [coeffs for (pg, _, coeffs) in plan if pg.id == gen.id]
            base = _coeff_rank(bs_vectors, gen.size)
            for member in cloud.members:
                held = list(codec.decoder(member, gen.id).coefficient_matrix())
                assert _coeff_rank(bs_vectors + held, gen.size) == base

    def test_sequential_before_cooperative(self):
        cloud = CooperativeCloud([1, 2, 3, 4], head_id=1)
        cfg = SessionConfig(content=_content(g=4))
        m = run_session(cloud, cfg, seed=0, trace=[])
        phases = [r.phase for r in m.records]
        first_coop = phases.index("cooperative")
        assert all(p == "cellular" for p in phases[:first_coop])
        assert all(p == "cooperative" for p in phases[first_coop:])

    def test_parallel_mode_interleaves_and_decodes(self):
        cloud = CooperativeCloud([0, 1, 2, 3], head_id=0)
        cfg = SessionConfig(content=_content(g=8, gen_seed=1), redundancy=1.25,
                            phase_mode="parallel")
        m = run_session(cloud, cfg, seed=0, trace=[])
        assert m.decoding_ratio == 1.0
        assert not m.truncated
        assert m.records[0].phase == "cellular"
        assert m.records[1].phase == "cooperative"

    def test_completion_never_beats_single_user_optimum(self):
        cfg = SessionConfig(content=_content(g=4))
        solo = run_session(CooperativeCloud([9], head_id=9), cfg, seed=0)
        coop = run_session(CooperativeCloud([1, 2, 3, 4], head_id=1), cfg, seed=0)
        assert solo.completion_slots == 4
        assert coop.completion_slots > solo.completion_slots

    def test_deterministic_given_seed(self):
        cloud = CooperativeCloud([1, 2, 3], head_id=1)
        cfg = SessionConfig(content=_content(g=8), redundancy=1.25,
                            cellular_loss=0.1, short_range_loss=0.1)
        a = run_session(cloud, cfg, seed=42, trace=[])
        b = run_session(cloud, cfg, seed=42, trace=[])
        c = run_session(cloud, cfg, seed=43, trace=[])
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
        assert m.cellular_tx == 68
        assert m.cellular_utilization == pytest.approx(68 / 512)
        assert 0.11 <= m.cellular_utilization <= 0.15
        assert m.decoding_ratio == 1.0


@pytest.mark.parametrize("session, streams, missing", [
    (run_session, {}, "channel_rng"),
    (run_session, {"channel_rng": RunSeed(0).channel()}, "coding_rng"),
    (run_session, {"coding_rng": RunSeed(0).coding()}, "channel_rng"),
    (baseline_unicast_session, {}, "channel_rng"),
], ids=["coded-none", "coded-no-coding", "coded-no-channel", "unicast-none"])
def test_a_session_without_seed_or_stream_is_refused(session, streams,
                                                     missing):
    # there is no implicit seed: the session names the stream it lacks
    cloud = CooperativeCloud([1, 2], head_id=1)
    with pytest.raises(ProtocolError, match=f"no {missing} and no seed"):
        session(cloud, SessionConfig(content=_content()), **streams)
    # seed 0 given is a seed like any other
    assert session(cloud, SessionConfig(content=_content()), seed=0,
                   **streams).decoding_ratio == 1.0


class TestBaselineUnicast:
    def test_lossless_counts(self):
        cloud = CooperativeCloud([1, 2, 3, 4], head_id=1)
        cfg = SessionConfig(content=_content(g=4))
        m = baseline_unicast_session(cloud, cfg, seed=0)
        assert m.cellular_tx == 16
        assert m.short_range_tx == 0
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
        got = baseline_unicast_session(cloud, cfg, seed=seed, trace=[])
        want = decoder_unicast_session(cloud, cfg, seed)
        assert got == want
        assert got.records == want.records
        assert struct.pack("<d", got.energy) == struct.pack("<d", want.energy)

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
                                           channel_rng=channel).cellular_tx
                  for _ in range(sessions)]
        expected = 16 / 0.9
        sigma_mean = np.sqrt(16 * 0.1 / 0.81 / sessions)
        assert abs(np.mean(counts) - expected) <= 3 * sigma_mean

    def test_energy_ordering(self):
        cloud = CooperativeCloud([1, 2, 3, 4], head_id=1)
        cfg = SessionConfig(content=_content(g=4))
        coop = run_session(cloud, cfg, seed=0)
        base = baseline_unicast_session(cloud, cfg, seed=0)
        assert coop.energy < base.energy

    @pytest.mark.parametrize("loss, cap", [(0.5, 128), (0.3, 92)])
    def test_gives_up_after_the_retry_bound(self, loss, cap):
        # every draw erases; the stub stops a loop that never gives up
        channel = ScriptedChannel(lambda i: 0.0)
        cloud = CooperativeCloud([3, 7], head_id=3)
        cfg = SessionConfig(content=_content(g=4, count=2), cellular_loss=loss)
        with pytest.raises(ProtocolError, match=(
                rf"member 3: packet 0 of generation 0 erased {cap} times in a "
                rf"row at cellular loss {loss}")):
            baseline_unicast_session(cloud, cfg, channel_rng=channel)
        assert channel.draws == cap

    def test_the_retry_bound_counts_each_packet_afresh(self):
        # 127 erasures and then a delivery, for every packet: one short of
        # the bound at loss 0.5 each time, so the session completes
        channel = ScriptedChannel(lambda i: 0.0 if i % 128 < 127 else 0.99)
        cloud = CooperativeCloud([1, 2], head_id=1)
        cfg = SessionConfig(content=_content(g=3), cellular_loss=0.5)
        m = baseline_unicast_session(cloud, cfg, channel_rng=channel, trace=[])
        assert m.cellular_tx == channel.draws == 6 * 128
        assert sum(r.delivered == (True,) for r in m.records) == 6

    def test_the_give_up_draws_blocks_no_larger_than_the_need(self):
        # at loss 0.999 every draw erases and the bound is 64,000 draws;
        # no single request may outgrow the 2 * 8 packets still to go
        channel = ScriptedChannel(lambda i: 0.5)
        cloud = CooperativeCloud([1, 2], head_id=1)
        cfg = SessionConfig(content=_content(g=8), cellular_loss=0.999)
        with pytest.raises(ProtocolError, match=(
                "member 1: packet 0 of generation 0 erased 64000 times")):
            baseline_unicast_session(cloud, cfg, channel_rng=channel)
        assert channel.draws == 64_000
        assert channel.largest == 16


class TestBaseStationId:
    """The cloud's `gateway` is the sender of every cellular slot in the
    trace, -1 unless given, and nothing else in the session reads it."""

    SESSIONS = {
        "sequential": lambda cloud, cfg, **kw: run_session(cloud, cfg, **kw),
        "parallel": lambda cloud, cfg, **kw: run_session(
            cloud, replace(cfg, phase_mode="parallel"), **kw),
        "unicast": baseline_unicast_session,
    }

    @staticmethod
    def _session(mode, **kw):
        cloud = CooperativeCloud([2, 5, 9], head_id=5, **kw)
        cfg = SessionConfig(content=_content(g=4, count=2),
                            cellular_loss=0.2, short_range_loss=0.2)
        return TestBaseStationId.SESSIONS[mode](cloud, cfg, seed=3, trace=[])

    @pytest.mark.parametrize("mode", list(SESSIONS))
    def test_the_cellular_sender_defaults_to_minus_one(self, mode):
        m = self._session(mode)
        senders = {r.sender for r in m.records if r.phase == "cellular"}
        assert senders == {-1}
        assert {r.sender for r in m.records if r.phase == "cooperative"} <= {2, 5, 9}

    @pytest.mark.parametrize("gateway", [0, 42])
    @pytest.mark.parametrize("mode", list(SESSIONS))
    def test_the_gateway_id_is_the_cellular_sender_and_changes_nothing_else(
            self, mode, gateway):
        default, m = self._session(mode), self._session(mode, gateway=gateway)
        assert m == default
        assert struct.pack("<d", m.energy) == struct.pack("<d", default.energy)
        assert len(m.records) == len(default.records)
        for got, want in zip(m.records, default.records):
            if want.phase == "cellular":
                assert got.sender == gateway
                got = got._replace(sender=-1)
            assert got == want


class ScriptedChannel:
    """A channel stream whose i-th draw (from 0) is `draw(i)`, served k at
    a time by `floats(k)`. It counts the draws it hands out, keeps the
    largest k asked for, and raises beyond 100,000 draws, so a retry loop
    without a bound fails the test instead of hanging it."""

    def __init__(self, draw):
        self.draw = draw
        self.draws = 0
        self.largest = 0

    def floats(self, k: int) -> np.ndarray:
        if self.draws + k > 100_000:
            raise RuntimeError("the retry loop did not give up")
        self.largest = max(self.largest, k)
        self.draws += k
        return np.array([self.draw(i) for i in range(self.draws - k, self.draws)],
                        dtype=np.float64)


def decoder_unicast_session(cloud, config, seed, channel_rng=None):
    """The unicast baseline as a decoder sees it: every delivered packet
    is `encode(gen, e_k)`, fed to that member's real `DecoderState`, and
    must be innovative; at the end the decoding ratio must be 1. One
    `Simulator.transmit` per attempt, drawing from `channel_rng` (seed's
    channel stream by default)."""
    if channel_rng is None:
        channel_rng = RunSeed(seed).channel()
    codec = SessionCodec(cloud, config.content)
    sim = Simulator(config.cellular_energy, config.short_range_energy)
    records = []
    for member in cloud.members:
        for gen in config.content:
            for k in range(gen.size):
                unit = np.zeros(gen.size, dtype=np.uint8)
                unit[k] = 1
                pkt = encode(gen, unit)
                assert np.array_equal(pkt.payload, gen.payload[k])
                while True:
                    status = sim.transmit(LinkKind.CELLULAR, config.cellular_loss,
                                          [member], channel_rng)[0].status
                    ok = status is DeliveryStatus.DELIVERED
                    innovative = codec.ingest(member, pkt) if ok else False
                    assert innovative == ok
                    records.append(SlotRecord(len(records), "cellular", -1,
                                              gen.id, (member,), (ok,),
                                              (innovative,)))
                    if ok:
                        break
    assert codec.all_decoded() and codec.decoding_ratio() == 1.0
    cell_tx = len(records)
    return SessionMetrics(
        cellular_tx=cell_tx,
        short_range_tx=0,
        cellular_utilization=cell_tx / (cloud.size * config.source_packet_total),
        decoding_ratio=codec.decoding_ratio(),
        energy=sim.total_energy(),
        completion_slots=len(records),
        truncated=cloud.size > 1 and not codec.all_decoded(),
        records=tuple(records),
    )


@settings(max_examples=100)
@given(st.data())
def test_unicast_passes_match_the_decoder_based_loop(data):
    """The pass-wise unicast session against the attempt-by-attempt
    oracle, over wider clouds and generations: the same metrics, records
    and energy bytes, and both channel streams left at the same draw."""
    members = data.draw(st.integers(1, 8))
    sizes = data.draw(st.lists(st.integers(1, 64), min_size=1, max_size=3))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    cfg = SessionConfig(
        content=[Generation.random(i, g, 2, rng) for i, g in enumerate(sizes)],
        cellular_loss=data.draw(st.sampled_from([0.0, 0.1, 0.5, 0.9])))
    cloud = CooperativeCloud(range(members), head_id=0)
    seed = data.draw(st.integers(0, 2 ** 16))
    got_rng, want_rng = RunSeed(seed).channel(), RunSeed(seed).channel()
    got = baseline_unicast_session(cloud, cfg, channel_rng=got_rng, trace=[])
    want = decoder_unicast_session(cloud, cfg, seed, channel_rng=want_rng)
    assert got == want
    assert got.records == want.records
    assert struct.pack("<d", got.energy) == struct.pack("<d", want.energy)
    assert got_rng.random() == want_rng.random()


@settings(max_examples=100)
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


@settings(max_examples=100)
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
                    seed=data.draw(st.integers(0, 2 ** 16)), trace=[])
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


@settings(max_examples=100)
@given(st.data())
def test_exact_per_session_identities(data):
    """Counts that hold for every session, whatever the draws: unicast
    sends n * sum(g) packets plus one per erasure, one slot each and
    every delivery innovative; NCC's cellular phase sends its plan of
    ceil(r * g) packets per generation and nothing more."""
    n = data.draw(st.integers(1, 6))
    sizes = data.draw(st.lists(st.integers(1, 12), min_size=1, max_size=3))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    content = [Generation.random(i, g, 2, rng) for i, g in enumerate(sizes)]
    cloud = CooperativeCloud(range(n), head_id=0)
    loss = data.draw(st.sampled_from([0.0, 0.1, 0.5, 0.9]))
    seed = data.draw(st.integers(0, 2 ** 16))

    cfg = SessionConfig(content=content, cellular_loss=loss)
    m = baseline_unicast_session(cloud, cfg, seed=seed, trace=[])
    erasures = sum(r.delivered == (False,) for r in m.records)
    assert m.cellular_tx == n * sum(sizes) + erasures
    assert m.completion_slots == m.cellular_tx == len(m.records)
    assert [r.slot for r in m.records] == list(range(len(m.records)))
    assert all(r.innovative == r.delivered for r in m.records)
    assert m.decoding_ratio == 1.0 and not m.truncated

    redundancy = data.draw(st.sampled_from([1.0, 1.05, 1.25, 2.0]))
    planned = sum(math.ceil(redundancy * g) for g in sizes)
    for mode in ("sequential", "parallel"):
        cfg = SessionConfig(content=content, redundancy=redundancy,
                            phase_mode=mode, cellular_loss=loss)
        m = run_session(cloud, cfg, seed=seed)
        assert m.cellular_tx == planned


@settings(max_examples=100)
@given(st.data())
def test_counts_match_the_trace(data):
    """A session keeps its slot counts without a trace. Asked for one,
    it returns the same metrics, energy bit for bit, and the trace
    accounts for every count: slots 0..N-1, the cellular ones, the
    cooperative ones not skipped, and a cooperative budget that the
    interleaved slots count against and a truncated session used up."""
    n = data.draw(st.integers(1, 6))
    sizes = data.draw(st.lists(st.integers(1, 12), min_size=1, max_size=3))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    content = [Generation.random(i, g, 2, rng) for i, g in enumerate(sizes)]
    cloud = CooperativeCloud(range(n), head_id=0)
    losses = st.sampled_from([0.0, 0.1, 0.5, 0.9])
    mode = data.draw(st.sampled_from(["sequential", "parallel", "unicast"]))
    cfg = SessionConfig(content=content,
                        redundancy=data.draw(st.sampled_from([1.0, 1.05, 1.25, 2.0])),
                        phase_mode="sequential" if mode == "unicast" else mode,
                        cellular_loss=data.draw(losses),
                        short_range_loss=data.draw(losses))
    seed = data.draw(st.integers(0, 2 ** 16))
    session = baseline_unicast_session if mode == "unicast" else run_session

    plain = session(cloud, cfg, seed=seed)
    trace = []
    traced = session(cloud, cfg, seed=seed, trace=trace)
    assert plain.records == () and traced.records == tuple(trace)
    assert traced == plain
    assert struct.pack("<d", traced.energy) == struct.pack("<d", plain.energy)

    assert [r.slot for r in trace] == list(range(plain.completion_slots))
    coop = [r for r in trace if r.phase == "cooperative"]
    assert plain.cellular_tx == sum(r.phase == "cellular" for r in trace)
    assert plain.short_range_tx == sum(not r.skipped for r in coop)
    assert len(coop) <= cfg.cooperative_budget
    if plain.truncated:
        assert len(coop) == cfg.cooperative_budget


@settings(max_examples=100)
@given(st.data())
def test_zero_width_content_gives_the_same_session(data):
    """A coded payload is its coefficient vector times the source matrix,
    so the payload columns decide nothing: a session on the zero-width
    view of its content has the same metrics, slots and energy bytes as
    one on the content itself, and leaves both streams at the same draw."""
    n = data.draw(st.integers(1, 6))
    sizes = data.draw(st.lists(st.integers(1, 12), min_size=1, max_size=3))
    width = data.draw(st.integers(1, 5))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    full = [Generation.random(i, g, width, rng) for i, g in enumerate(sizes)]
    empty = [Generation(gen.id, gen.payload[:, :0]) for gen in full]
    losses = st.sampled_from([0.0, 0.1, 0.5, 0.9])
    params = dict(
        redundancy=data.draw(st.sampled_from([1.0, 1.05, 1.5, 2.0, 3.0])),
        phase_mode=data.draw(st.sampled_from(["sequential", "parallel"])),
        cellular_loss=data.draw(losses),
        short_range_loss=data.draw(losses))
    cloud = CooperativeCloud(range(n), head_id=0)
    seed = data.draw(st.integers(0, 2 ** 16))
    runs = []
    for content in (full, empty):
        rs = RunSeed(seed)
        channel, coding = rs.channel(), rs.coding()
        m = run_session(cloud, SessionConfig(content=content, **params),
                        channel_rng=channel, coding_rng=coding, trace=[])
        runs.append((m, channel.random(), draw_coeffs(coding, 8).tolist()))
    (got, *got_next), (want, *want_next) = runs[1], runs[0]
    assert got == want
    assert got.records == want.records
    assert struct.pack("<d", got.energy) == struct.pack("<d", want.energy)
    assert got_next == want_next


def test_records_and_deliveries_have_their_types_arity(monkeypatch):
    """Records and deliveries built by `tuple.__new__` skip the
    NamedTuple field-count check; a field added to either type must
    fail here, by name."""
    deliveries = []
    transmit = Simulator.transmit

    def recording(self, *args):
        out = transmit(self, *args)
        deliveries.extend(out)
        return out

    monkeypatch.setattr(Simulator, "transmit", recording)
    cloud = CooperativeCloud([1, 2, 3], head_id=1)
    records = []
    for mode in ("sequential", "parallel", "unicast"):
        cfg = SessionConfig(content=_content(g=4, count=2), redundancy=1.25,
                            phase_mode="sequential" if mode == "unicast" else mode,
                            cellular_loss=0.3, short_range_loss=0.3)
        session = baseline_unicast_session if mode == "unicast" else run_session
        records += session(cloud, cfg, seed=2, trace=[]).records
    assert {r.phase for r in records} == {"cellular", "cooperative"}
    assert {d.status for d in deliveries} == {DeliveryStatus.DELIVERED,
                                              DeliveryStatus.ERASED}
    for kind, built in ((SlotRecord, records), (Delivery, deliveries)):
        for r in built:
            assert type(r) is kind
            assert len(r) == len(kind._fields), (kind.__name__, kind._fields, tuple(r))
            assert r == kind(*r)


def replay_energy(metrics, config):
    """A session's energy recomputed from its slot records alone.

    The sender pays its link's energy for every slot that was not
    skipped, each delivered receiver pays RX_ENERGY_FRACTION of it, the
    charges add up per link in record order, and the cellular total
    comes first.
    """
    per_link = {"cellular": 0.0, "cooperative": 0.0}
    for r in metrics.records:
        if r.skipped:
            continue
        tx = (config.cellular_energy if r.phase == "cellular"
              else config.short_range_energy)
        per_link[r.phase] += tx
        for got in r.delivered:
            if got:
                per_link[r.phase] += tx * RX_ENERGY_FRACTION
    return per_link["cellular"] + per_link["cooperative"]


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
        m = session(cloud, cfg, seed=6, trace=[])
        delivered = [got for r in m.records for got in r.delivered]
        assert any(delivered) and not all(delivered)  # erasures on the trace
        assert m.energy == replay_energy(m, cfg)
        priced = replace(cfg, cellular_energy=0.3, short_range_energy=1.1)
        m = session(cloud, priced, seed=6, trace=[])
        assert m.energy == replay_energy(m, priced)

    def test_each_link_is_charged_to_its_own_total(self):
        # cellular charges add up in one float and short-range charges in
        # another; all of them added into one total would make this
        # session's energy 13.47999999999998
        cloud = CooperativeCloud((1, 2, 3, 4), head_id=1)
        cfg = SessionConfig((Generation(0, np.zeros((8, 0), np.uint8)),),
                            redundancy=1.2, short_range_loss=0.3)
        m = run_session(cloud, cfg, seed=5, trace=[])
        assert m.energy == replay_energy(m, cfg) == 13.479999999999999
