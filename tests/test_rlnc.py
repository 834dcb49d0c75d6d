"""Codec tests: encoder, recoder, decoder and their statistical behavior."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mscsim.engine import ReadAheadBytes
from mscsim.gf256 import gf_inv, gf_mul, mul_rows, vec_scale
from mscsim.rlnc import (
    CodedPacket,
    CodingError,
    DecoderState,
    Generation,
    NotDecodableError,
    SourcePacket,
    draw_coeffs,
    encode,
)
from reference import matmul


def brute_rank(matrix) -> int:
    """Independent rank oracle: textbook elimination on a scalar copy."""
    rows = [list(int(x) for x in r) for r in matrix]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        pivot = None
        for r in range(rank, len(rows)):
            if rows[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1
        # scalar inverse by exhaustive search keeps the oracle independent
        for cand in range(1, 256):
            if gf_mul(rows[rank][col], cand) == 1:
                inv = cand
                break
        rows[rank] = [gf_mul(inv, v) for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [v ^ gf_mul(f, p) for v, p in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def make_gen(seed=0, size=4, payload_len=8, gen_id=7):
    rng = np.random.default_rng(seed)
    return Generation.random(gen_id, size, payload_len, rng)


def test_generation_validation():
    # a generation is one (g, L) matrix with g >= 1; L = 0 is allowed
    for bad in ([], np.zeros((0, 4), np.uint8), np.zeros(4, np.uint8),
                np.zeros((2, 3, 4), np.uint8)):
        with pytest.raises(CodingError, match="matrix"):
            Generation(0, bad)
    empty_rows = Generation(0, np.zeros((3, 0), np.uint8))
    assert (empty_rows.size, empty_rows.payload_len) == (3, 0)
    assert not encode(empty_rows, np.array([1, 2, 3], np.uint8)).payload.size


def test_packets_are_the_rows():
    gen = make_gen(size=5, payload_len=3)
    assert (gen.size, gen.payload_len) == gen.payload.shape == (5, 3)
    assert [p.index for p in gen.packets] == list(range(5))
    for row, packet in zip(gen.payload, gen.packets):
        assert isinstance(packet, SourcePacket)
        assert np.array_equal(packet.payload, row)


def test_random_draws_the_same_bytes_read_ahead():
    # one integers(0, 256, (g, L), uint8) draw, whichever stream serves it
    raw = np.random.default_rng(3)
    ahead = ReadAheadBytes(np.random.default_rng(3))
    for gen_id, (g, L) in enumerate([(4, 8), (1, 1), (3, 0), (16, 33)]):
        a = Generation.random(gen_id, g, L, raw)
        b = Generation.random(gen_id, g, L, ahead)
        assert a.payload.shape == b.payload.shape == (g, L)
        assert np.array_equal(a.payload, b.payload)


def test_encode_unit_vector_returns_source():
    gen = make_gen()
    for k in range(gen.size):
        coeffs = np.zeros(gen.size, dtype=np.uint8)
        coeffs[k] = 1
        pkt = encode(gen, coeffs)
        assert np.array_equal(pkt.payload, gen.packets[k].payload)


def test_encode_zero_and_xor():
    gen = make_gen()
    zero = encode(gen, np.zeros(gen.size, dtype=np.uint8))
    assert not zero.payload.any()

    two = Generation(1, np.array([[0x01], [0x02]], dtype=np.uint8))
    pkt = encode(two, np.array([1, 1], dtype=np.uint8))
    assert list(pkt.payload) == [0x03]


def test_encode_length_mismatch():
    gen = make_gen()
    with pytest.raises(CodingError):
        encode(gen, np.zeros(gen.size + 1, dtype=np.uint8))


def test_encode_linearity_sampled():
    gen = make_gen(seed=11)
    rng = np.random.default_rng(12)
    for _ in range(50):
        u = draw_coeffs(rng, gen.size)
        v = draw_coeffs(rng, gen.size)
        alpha = int(rng.integers(0, 256))
        beta = int(rng.integers(0, 256))
        from mscsim.gf256 import MUL_TABLE
        combo = MUL_TABLE[alpha, u] ^ MUL_TABLE[beta, v]
        direct = encode(gen, combo).payload
        via_parts = MUL_TABLE[alpha, encode(gen, u).payload] ^ MUL_TABLE[beta, encode(gen, v).payload]
        assert np.array_equal(direct, via_parts)


def test_draw_coeffs_deterministic_and_uniform():
    a = draw_coeffs(np.random.default_rng(99), 16)
    b = draw_coeffs(np.random.default_rng(99), 16)
    assert np.array_equal(a, b)
    assert draw_coeffs(np.random.default_rng(0), 0).size == 0

    rng = np.random.default_rng(100)
    draws = rng.integers(0, 256, size=100_000, dtype=np.uint8)
    # same draw path as draw_coeffs; mean of U{0..255} is 127.5
    assert abs(float(draws.mean()) - 127.5) < 1.5
    single = np.concatenate([draw_coeffs(np.random.default_rng(101), 100_000)])
    assert abs(float(single.astype(np.float64).mean()) - 127.5) < 1.5


def holding(gen, packets):
    """A decoder of `gen` that has ingested `packets`."""
    dec = DecoderState(gen.id, gen.size, gen.payload_len)
    for p in packets:
        dec.ingest(p)
    return dec


def test_recode_single_input_scalar_multiple():
    gen = make_gen()
    pkt = encode(gen, np.array([1, 2, 3, 4], dtype=np.uint8))
    dec = holding(gen, [pkt])
    rng = np.random.default_rng(1)
    for _ in range(20):
        out = dec.recode(rng)
        # a nonzero scalar multiple, hence the same 1-dim span
        assert out.coeffs.any()
        assert brute_rank(np.stack([pkt.coeffs, out.coeffs])) == 1
        assert brute_rank(np.stack([np.concatenate([pkt.coeffs, pkt.payload]),
                                    np.concatenate([out.coeffs, out.payload])])) == 1


def test_recode_validation():
    gen = make_gen()
    empty = DecoderState(gen.id, gen.size, gen.payload_len)
    with pytest.raises(CodingError, match="nothing held"):
        empty.recode(np.random.default_rng(0))


def test_recode_not_innovative_to_holder():
    gen = make_gen(size=6)
    rng = np.random.default_rng(5)
    pkts = [encode(gen, draw_coeffs(rng, gen.size)) for _ in range(4)]
    sender, holder = holding(gen, pkts), holding(gen, pkts)
    for _ in range(30):
        assert holder.ingest(sender.recode(rng)) is False
    assert holder.rank == sender.rank == 4


def test_recode_of_recode_decodes():
    # source -> first -> second -> third: the first decoder gets encoded
    # packets, each later one what its predecessor recodes
    gen = make_gen(seed=21, size=5, payload_len=16)
    rng = np.random.default_rng(22)
    hop = holding(gen, [encode(gen, draw_coeffs(rng, gen.size))
                        for _ in range(gen.size + 2)])
    for _ in range(2):
        hop = holding(gen, [hop.recode(rng) for _ in range(gen.size + 3)])
    assert hop.decodable
    for orig, got in zip(gen.packets, hop.decode()):
        assert np.array_equal(orig.payload, got.payload)


def test_ingest_rejects_wrong_length_packets():
    gen = make_gen(size=4, payload_len=8)
    good = encode(gen, np.array([1, 2, 3, 4], dtype=np.uint8))
    flat = np.concatenate([good.coeffs, good.payload])
    for cut in range(flat.size + 1):
        if cut == gen.size:
            continue
        # same total length, split at the wrong place (3 + 9, 5 + 7, ...)
        bad = CodedPacket(gen.id, flat[:cut], flat[cut:])
        dec = DecoderState(gen.id, gen.size, gen.payload_len)
        with pytest.raises(CodingError, match="shape"):
            dec.ingest(bad)
        dec.ingest(good)
        with pytest.raises(CodingError, match="shape"):
            dec.ingest(bad)
        assert dec.rank == 1
    dec = DecoderState(gen.id, gen.size, gen.payload_len)
    for coeffs, payload in ((good.coeffs, good.payload[:-1]),
                            (good.coeffs[:1], good.payload),
                            (np.zeros((4, 1), np.uint8), good.payload)):
        with pytest.raises(CodingError, match="shape"):
            dec.ingest(CodedPacket(gen.id, coeffs, payload))
    assert dec.rank == 0


def test_ingest_duplicate_and_identity():
    gen = make_gen()
    dec = DecoderState(gen.id, gen.size, gen.payload_len)
    unit = []
    for k in range(gen.size):
        coeffs = np.zeros(gen.size, dtype=np.uint8)
        coeffs[k] = 1
        unit.append(encode(gen, coeffs))
    assert dec.ingest(unit[0]) is True
    assert dec.ingest(unit[0]) is False
    assert dec.rank == 1
    for pkt in unit[1:]:
        assert dec.ingest(pkt) is True
    assert dec.decodable
    for orig, got in zip(gen.packets, dec.decode()):
        assert np.array_equal(orig.payload, got.payload)


def test_ingest_generation_mismatch():
    gen = make_gen()
    dec = DecoderState(gen.id + 1, gen.size, gen.payload_len)
    with pytest.raises(CodingError):
        dec.ingest(encode(gen, np.zeros(gen.size, dtype=np.uint8)))


def test_decode_rank_deficient():
    gen = make_gen()
    dec = DecoderState(gen.id, gen.size, gen.payload_len)
    coeffs = np.zeros(gen.size, dtype=np.uint8)
    coeffs[0] = 1
    dec.ingest(encode(gen, coeffs))
    with pytest.raises(NotDecodableError):
        dec.decode()


def test_rank_matches_brute_oracle():
    rng = np.random.default_rng(31)
    for _ in range(200):
        g = int(rng.integers(1, 7))
        m = int(rng.integers(1, 10))
        gen = Generation.random(0, g, 3, rng)
        pkts = [encode(gen, draw_coeffs(rng, g)) for _ in range(m)]
        dec = DecoderState(0, g, 3)
        for p in pkts:
            dec.ingest(p)
        assert dec.rank == brute_rank(np.stack([p.coeffs for p in pkts]))


# derandomized so the suite stays reproducible run to run
PROPERTY = settings(max_examples=100, deadline=None, derandomize=True,
                    database=None)


def draw_generation(draw, g):
    data = draw(hnp.arrays(np.uint8, (g, draw(st.integers(1, 6)))))
    return Generation(3, data)


@PROPERTY
@given(st.data())
def test_decoder_rank_matches_reference_elimination(data):
    g = data.draw(st.integers(1, 8))
    gen = draw_generation(data.draw, g)
    # a small alphabet makes dependent and zero rows common
    coeffs = data.draw(hnp.arrays(
        np.uint8, (data.draw(st.integers(0, 12)), g),
        elements=st.sampled_from([0, 1, 2, 3, 0x8E, 0xFF]) | st.integers(0, 255)))
    dec = DecoderState(3, g, gen.payload_len)
    innovative = sum(dec.ingest(encode(gen, c)) for c in coeffs)
    assert dec.rank == innovative == brute_rank(coeffs)


@PROPERTY
@given(st.data())
def test_any_full_rank_set_decodes_to_the_source(data):
    g = data.draw(st.integers(1, 8))
    gen = draw_generation(data.draw, g)
    # L @ U has rank g (L unit lower triangular, U upper triangular with
    # a nonzero diagonal); extra rows are appended and all are ingested
    # in a drawn order
    lower = np.tril(data.draw(hnp.arrays(np.uint8, (g, g))), -1)
    np.fill_diagonal(lower, 1)
    upper = np.triu(data.draw(hnp.arrays(np.uint8, (g, g))), 1)
    np.fill_diagonal(upper, data.draw(hnp.arrays(
        np.uint8, g, elements=st.integers(1, 255))))
    extra = data.draw(hnp.arrays(np.uint8, (data.draw(st.integers(0, 4)), g)))
    coeffs = np.concatenate([matmul(lower, upper), extra])
    order = data.draw(st.permutations(range(len(coeffs))))
    dec = DecoderState(3, g, gen.payload_len)
    for i in order:
        dec.ingest(encode(gen, coeffs[i]))
    assert dec.decodable
    for orig, got in zip(gen.packets, dec.decode()):
        assert np.array_equal(orig.payload, got.payload)


class SortedRrefDecoder:
    """Reference for DecoderState: the decoder its permuted layout
    replaced. RREF rows stay sorted by pivot in original column order
    and every pass multiplies whole rows, identity block included."""

    def __init__(self, size, payload_len):
        self.size = size
        self.buf = np.zeros((size, size + payload_len), dtype=np.uint8)
        self.piv = np.zeros(size, dtype=np.int64)
        self.rank = 0

    def coefficient_matrix(self):
        return self.buf[: self.rank, : self.size].copy()

    def ingest(self, pkt):
        r = self.rank
        if r == self.size:
            return False
        row = np.concatenate([pkt.coeffs, pkt.payload])
        held = self.buf[:r]
        if r:
            row ^= np.bitwise_xor.reduce(mul_rows(row[self.piv[:r]], held), axis=0)
        pivot = int((row[: self.size] != 0).argmax())
        if row[pivot] == 0:
            return False
        row = vec_scale(gf_inv(int(row[pivot])), row)
        if r:
            held ^= mul_rows(held[:, pivot], row)
        pos = int(np.searchsorted(self.piv[:r], pivot))
        self.buf[pos + 1: r + 1] = self.buf[pos:r].copy()
        self.piv[pos + 1: r + 1] = self.piv[pos:r].copy()
        self.buf[pos] = row
        self.piv[pos] = pivot
        self.rank = r + 1
        return True

    def recode(self, rng):
        rows = self.buf[: self.rank]
        for _ in range(16):
            weights = rng.integers(0, 256, size=self.rank, dtype=np.uint8)
            out = np.bitwise_xor.reduce(mul_rows(weights, rows), axis=0)
            if out[: self.size].any():
                break
        return out[: self.size], out[self.size:]

    def decode(self):
        return [self.buf[i, self.size:] for i in range(self.size)]


# few distinct values, zero among them, make dependent rows and zero
# entries ahead of the pivot (hence pivot-column rotations) common
SMALL_COEFF = st.sampled_from([0, 0, 1, 2, 0x8E]) | st.integers(0, 255)


@st.composite
def packet_stream(draw):
    """A generation and a mix of random, small-alphabet, dependent,
    duplicate, zero, unit-vector and fresh packets, with now and then a
    payload that does not match its coefficients.

    A fresh packet is zero on every column an earlier packet touched,
    hence on every pivot column, so its elimination factors are all
    zero; its own pivot is such a column too, where every held row is
    zero, so back-substitution scales by zeros as well. Some streams
    hold only unit-vector, fresh and zero packets, so these all-zero
    passes run at every rank."""
    g = draw(st.integers(1, 24))
    payload_len = draw(st.integers(0, 8))
    data = draw(hnp.arrays(np.uint8, (g, payload_len)))
    gen = Generation(3, data)
    packets = []
    count = draw(st.integers(0, 2 * g + 6))
    kinds = draw(st.sampled_from([
        ["random", "small", "dependent", "duplicate", "zero", "unit", "fresh",
         "mismatched"],
        ["unit", "fresh", "zero"]]))
    for kind in draw(st.lists(st.sampled_from(kinds), min_size=count,
                              max_size=count)):
        if kind in ("dependent", "duplicate") and not packets:
            kind = "zero"
        if kind == "random":
            pkt = encode(gen, draw(hnp.arrays(np.uint8, g)))
        elif kind == "small":
            pkt = encode(gen, draw(hnp.arrays(np.uint8, g, elements=SMALL_COEFF)))
        elif kind == "dependent":
            weights = draw(hnp.arrays(np.uint8, len(packets), elements=SMALL_COEFF))
            pkt = encode(gen, matmul(weights[None, :],
                                     np.stack([p.coeffs for p in packets]))[0])
        elif kind == "duplicate":
            pkt = draw(st.sampled_from(packets))
        elif kind == "zero":
            pkt = encode(gen, np.zeros(g, dtype=np.uint8))
        elif kind == "unit":
            pkt = encode(gen, np.eye(g, dtype=np.uint8)[draw(st.integers(0, g - 1))])
        elif kind == "fresh":
            coeffs = draw(hnp.arrays(np.uint8, g, elements=SMALL_COEFF))
            for p in packets:
                coeffs[p.coeffs != 0] = 0
            pkt = encode(gen, coeffs)
        else:
            pkt = CodedPacket(3, draw(hnp.arrays(np.uint8, g, elements=SMALL_COEFF)),
                              draw(hnp.arrays(np.uint8, payload_len)))
        packets.append(pkt)
    if draw(st.booleans()):
        # every unit vector, in a drawn order: full rank, reached through
        # pivot columns found out of order
        eye = np.eye(g, dtype=np.uint8)
        packets += [encode(gen, eye[k]) for k in draw(st.permutations(range(g)))]
    return gen, packets


@PROPERTY
@given(packet_stream(), st.integers(0, 2**32 - 1))
def test_decoder_matches_sorted_rref_reference(stream, seed):
    gen, packets = stream
    dec = DecoderState(3, gen.size, gen.payload_len)
    ref = SortedRrefDecoder(gen.size, gen.payload_len)
    for step, pkt in enumerate(packets):
        assert dec.ingest(pkt) == ref.ingest(pkt)
        assert dec.rank == ref.rank
        assert np.array_equal(dec.coefficient_matrix(), ref.coefficient_matrix())
        ours, theirs = (np.random.default_rng([seed, step]) for _ in range(2))
        if ref.rank == 0:
            with pytest.raises(CodingError):
                dec.recode(ours)
            continue
        out = dec.recode(ours)
        coeffs, payload = ref.recode(theirs)
        assert out.generation_id == 3
        assert out.coeffs.tobytes() == coeffs.tobytes()
        assert out.payload.tobytes() == payload.tobytes()
        assert ours.bit_generator.state == theirs.bit_generator.state
    if ref.rank < gen.size:
        with pytest.raises(NotDecodableError):
            dec.decode()
    else:
        got = dec.decode()
        assert [p.index for p in got] == list(range(gen.size))
        for mine, want in zip(got, ref.decode()):
            assert mine.payload.tobytes() == want.tobytes()


def test_multicast_packet_is_left_unchanged_by_every_decoder():
    # a cooperative slot hands one packet object to every receiver, so
    # no decoder may write into its coefficients or payload
    gen = make_gen(size=6, payload_len=5)
    eye = np.eye(6, dtype=np.uint8)
    pkt = encode(gen, np.array([0, 0, 5, 1, 0, 7], dtype=np.uint8))
    coeffs, payload = pkt.coeffs.tobytes(), pkt.payload.tobytes()
    histories = [
        # rank 0: lead 5 at column 2
        [],
        # unpermuted, factors (0, 0): lead 5 at column 2
        [eye[0], eye[1]],
        # permuted (pivot 2 found first), factors (5): lead 1 at column 3
        [eye[2]],
        # unpermuted, factors (0, 0, 5): lead 4 at column 3, whose held
        # entries (0, 0, 1) are back-substituted
        [[1, 0, 0, 0, 3, 0], eye[1], [0, 0, 1, 1, 0, 0]],
        # already holds the packet's span: not innovative
        [[0, 0, 5, 1, 0, 7]],
        # full rank: returns before reading the packet
        list(eye[::-1]),
    ]
    for history in histories:
        dec = DecoderState(gen.id, gen.size, gen.payload_len)
        ref = SortedRrefDecoder(gen.size, gen.payload_len)
        for c in history:
            held = encode(gen, np.asarray(c, dtype=np.uint8))
            dec.ingest(held)
            ref.ingest(held)
        assert dec.ingest(pkt) == ref.ingest(pkt)
        assert np.array_equal(dec.coefficient_matrix(), ref.coefficient_matrix())
        assert pkt.coeffs.tobytes() == coeffs
        assert pkt.payload.tobytes() == payload


class _ZeroRng:
    """Stands in for a Generator whose every draw is zero."""

    def __init__(self):
        self.draws = 0

    def integers(self, low, high, size, dtype):
        self.draws += 1
        return np.zeros(size, dtype=dtype)


def test_recode_gives_up_on_all_zero_weights_like_the_reference():
    gen = make_gen(size=5)
    dec = DecoderState(gen.id, gen.size, gen.payload_len)
    ref = SortedRrefDecoder(gen.size, gen.payload_len)
    for k in (3, 0):
        pkt = encode(gen, np.eye(gen.size, dtype=np.uint8)[k])
        dec.ingest(pkt)
        ref.ingest(pkt)
    ours, theirs = _ZeroRng(), _ZeroRng()
    out = dec.recode(ours)
    coeffs, payload = ref.recode(theirs)
    assert ours.draws == theirs.draws == 16
    assert out.coeffs.tobytes() == coeffs.tobytes() == bytes(gen.size)
    assert out.payload.tobytes() == payload.tobytes() == bytes(gen.payload_len)


def test_random_full_rank_decode_byte_identical():
    rng = np.random.default_rng(41)
    done = 0
    while done < 50:
        gen = Generation.random(done, 8, 32, rng)
        dec = DecoderState(done, 8, 32)
        for _ in range(12):
            dec.ingest(encode(gen, draw_coeffs(rng, 8)))
            if dec.decodable:
                break
        if not dec.decodable:
            continue
        for orig, got in zip(gen.packets, dec.decode()):
            assert np.array_equal(orig.payload, got.payload)
        done += 1


def full_rank_probability(g: int, q: int = 256) -> float:
    p = 1.0
    for i in range(1, g + 1):
        p *= 1.0 - q ** (-i)
    return p


def test_full_rank_probability_small_monte_carlo():
    # 20k trials at g=4; the acceptance suite runs the 1e5-trial version
    trials = 20_000
    g = 4
    rng = np.random.default_rng(51)
    hits = 0
    for _ in range(trials):
        matrix = rng.integers(0, 256, size=(g, g), dtype=np.uint8)
        dec = DecoderState(0, g, 0)
        for row in matrix:
            dec.ingest(CodedPacket(0, row, np.zeros(0, dtype=np.uint8)))
        hits += dec.decodable
    p = full_rank_probability(g)
    sigma = math.sqrt(p * (1 - p) / trials)
    assert abs(hits / trials - p) < 3 * sigma


def test_span_closure_property():
    rng = np.random.default_rng(61)
    for _ in range(20):
        gen = Generation.random(0, 6, 4, rng)
        dec = holding(gen, [encode(gen, draw_coeffs(rng, 6)) for _ in range(4)])
        r = dec.rank
        assert dec.ingest(dec.recode(rng)) is False
        assert dec.rank == r


def test_decoder_state_recode_spans_held():
    gen = make_gen(size=5)
    rng = np.random.default_rng(71)
    dec = DecoderState(gen.id, gen.size, gen.payload_len)
    for _ in range(3):
        dec.ingest(encode(gen, draw_coeffs(rng, gen.size)))
    peer = DecoderState(gen.id, gen.size, gen.payload_len)
    # packets recoded from state never exceed the sender's span
    sender_rank = dec.rank
    for _ in range(20):
        peer.ingest(dec.recode(rng))
    assert peer.rank <= sender_rank

    empty = DecoderState(gen.id, gen.size, gen.payload_len)
    with pytest.raises(CodingError):
        empty.recode(rng)
