"""Frozen-value checks and randrange replays: any drift here breaks every
seeded result downstream."""

import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from densebip.rng import mix64, sampled_members, stream, stream_seed


def test_stream_seed_frozen_values():
    assert stream_seed(0, 0) == 16294208416658607535
    assert stream_seed(7, 3) == 10753165928301472203


def test_stream_sequence_frozen():
    r = stream(0, 0)
    assert [round(r.random(), 12) for _ in range(3)] == [
        0.258479756013,
        0.810182768238,
        0.799398294918,
    ]
    assert [stream(42, 0).randrange(16) for _ in range(1)] == [0]


def test_mix64_is_64_bit_and_nontrivial():
    seen = {mix64(i) for i in range(64)}
    assert len(seen) == 64
    assert all(0 <= v < 1 << 64 for v in seen)


def test_streams_differ_across_indices_and_seeds():
    a = stream(5, 0).random()
    b = stream(5, 1).random()
    c = stream(6, 0).random()
    assert a != b and a != c


def test_negative_index_rejected():
    with pytest.raises(ValueError):
        stream_seed(0, -1)


@pytest.mark.parametrize(
    "d", [1, 2, 3, 16, 64, 120, 200, 250, 1000, 1024, 4097, 2**40 + 3]
)
def test_sampled_members_replays_randrange(d):
    for index in range(3):
        ours, theirs = stream(d, index), stream(d, index)
        picked = sampled_members(ours, range(500), d)
        assert picked == [v for v in range(500) if theirs.randrange(d) == 0]
        assert ours.getstate() == theirs.getstate()


def test_sampled_members_keeps_vertex_order_and_rejects_bad_d():
    vertices = [9, 4, 7, 0]
    assert sampled_members(stream(0, 0), vertices, 1) == vertices
    with pytest.raises(ValueError):
        sampled_members(stream(0, 0), vertices, 0)


# d >= 256 whose draw thresholds fall inside a top byte of the word; these and
# every d >= 256 take the rejection loop, d < 256 the word block
MID_BYTE_DS = [257, 1000, 2**31 + 5, 2**32 - 1, 2**32]

degrees = st.one_of(
    st.integers(1, 2**34),
    st.integers(1, 255),
    st.builds(lambda e, off: max(1, 2**e + off), st.integers(0, 34), st.integers(-1, 1)),
    st.sampled_from(MID_BYTE_DS),
)


@st.composite
def vertex_sequences(draw):
    """A range, tuple or list of up to 600 vertex ids, possibly empty."""
    kind = draw(st.sampled_from(["range", "tuple", "list"]))
    if kind == "range":
        start = draw(st.integers(0, 1000))
        return range(start, start + draw(st.integers(0, 600)))
    ids = draw(st.lists(st.integers(0, 10**6), max_size=600))
    return tuple(ids) if kind == "tuple" else ids


@settings(max_examples=300)
@given(degrees, vertex_sequences(), st.integers(0, 2**64 - 1), st.integers(0, 2**20))
def test_sampled_members_matches_randrange_replay(d, vertices, seed, index):
    ours, theirs = stream(seed, index), stream(seed, index)
    assert sampled_members(ours, vertices, d) == [v for v in vertices if theirs.randrange(d) == 0]
    assert ours.getstate() == theirs.getstate()


def test_sampled_members_matches_randrange_replay_for_every_block_degree():
    for d in range(1, 300):
        ours, theirs = stream(d, 0), stream(d, 0)
        vertices = range(3 * d)
        assert sampled_members(ours, vertices, d) == [v for v in vertices if theirs.randrange(d) == 0]
        assert ours.getstate() == theirs.getstate()


MASTER_SEEDS = [0, 1, -5, 2**64 - 1]


def test_stream_is_seeded_without_random_seed(monkeypatch):
    """A stream is seeded in C, never through `random.Random.seed`."""

    def refuse(self, *args, **kwargs):
        raise AssertionError("random.Random.seed called")

    monkeypatch.setattr(random.Random, "seed", refuse)
    for seed in MASTER_SEEDS:
        assert 0 <= stream(seed, 3).random() < 1


@pytest.mark.parametrize("seed", MASTER_SEEDS)
def test_stream_equals_random_of_its_seed(seed):
    """stream(s, i) is random.Random(stream_seed(s, i)) in state, in every
    draw the package or a caller makes, and after a pickle round trip, whose
    bytes are those of the plain Random."""
    for index in (0, 1, 1000):
        ours, theirs = stream(seed, index), random.Random(stream_seed(seed, index))
        assert ours.getstate() == theirs.getstate()
        assert ours.getrandbits(77) == theirs.getrandbits(77)
        assert ours.getrandbits(32 * 300) == theirs.getrandbits(32 * 300)
        assert ours.random() == theirs.random()
        assert ours.randrange(12345) == theirs.randrange(12345)
        a, b = list(range(40)), list(range(40))
        ours.shuffle(a)
        theirs.shuffle(b)
        assert a == b
        # the second gauss call returns the value the first one kept
        assert [ours.gauss(0.0, 1.0), ours.gauss(2.0, 3.0)] == [
            theirs.gauss(0.0, 1.0), theirs.gauss(2.0, 3.0)
        ]
        assert ours.getstate() == theirs.getstate()
        assert pickle.dumps(ours) == pickle.dumps(theirs)
        clone = pickle.loads(pickle.dumps(ours))
        assert clone.getstate() == theirs.getstate()
        assert [clone.random(), ours.random()] == [theirs.random()] * 2
