import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringmix.seeding import (
    TAG_CLOCK,
    TAG_GRADIENT,
    TAG_INIT,
    TAG_PERMUTATION,
    generator,
    seed_sequence,
    seed_words,
    stream,
)


def test_stream_replays_exactly():
    a = stream(7, TAG_GRADIENT, 3, 1).standard_normal(16)
    b = stream(7, TAG_GRADIENT, 3, 1).standard_normal(16)
    assert np.array_equal(a, b)


def test_streams_differ_across_tags():
    draws = {
        tag: stream(7, tag, 0).standard_normal(8).tobytes()
        for tag in (TAG_GRADIENT, TAG_PERMUTATION, TAG_CLOCK, TAG_INIT)
    }
    assert len(set(draws.values())) == len(draws)


def test_streams_differ_across_indices():
    a = stream(7, TAG_GRADIENT, 0, 0).standard_normal(8)
    b = stream(7, TAG_GRADIENT, 0, 1).standard_normal(8)
    c = stream(7, TAG_GRADIENT, 1, 0).standard_normal(8)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_seed_sequence_state_is_stable():
    s1 = seed_sequence(1, 2, 3).generate_state(4)
    s2 = seed_sequence(1, 2, 3).generate_state(4)
    assert np.array_equal(s1, s2)


def test_negative_entropy_rejected():
    with pytest.raises(ValueError):
        seed_sequence(-1, 0)
    with pytest.raises(ValueError):
        stream(0, -3)


# Entropy ints around the 32-bit word boundaries and of 64 bits or more,
# which SeedSequence splits into several words.
_ENTROPY_INT = st.one_of(
    st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**40 + 9, 2**64 - 1, 2**64]),
    st.integers(0, 2**32 - 1),
    st.integers(2**32, 2**130),
)
_WORD = st.integers(0, 2**32 - 1)


@st.composite
def _index_rows(draw):
    width = draw(st.integers(0, 3))
    rows = draw(st.lists(st.lists(_WORD, min_size=width, max_size=width), min_size=1, max_size=4))
    return np.array(rows, dtype=np.int64).reshape(len(rows), width)


@settings(max_examples=150, deadline=None)
@given(
    prefix=st.lists(_ENTROPY_INT, max_size=5).map(tuple),
    rows=_index_rows(),
    d=st.integers(1, 9),
    n=st.integers(1, 2**40),
    b=st.integers(1, 7),
)
def test_batched_states_draw_bit_identical_to_stream(prefix, rows, d, n, b):
    words = seed_words(prefix, rows)
    for j, row in enumerate(rows.tolist()):
        expected_words = seed_sequence(*prefix, *row).generate_state(4, np.uint64)
        assert np.array_equal(words[j], expected_words)
        rng = generator(words[j])
        ref = stream(*prefix, *row)
        # An odd count of 32-bit integers leaves PCG64's cached half-word,
        # which the second integers call consumes.
        for draw in (
            lambda g: g.standard_normal(d),
            lambda g: g.integers(0, n, b),
            lambda g: g.integers(0, 1000, b),
            lambda g: g.lognormal(0.5, 2.0, 3),
        ):
            assert np.array_equal(draw(rng), draw(ref))


def test_seed_words_serve_pcg64_only():
    words = seed_words((1, TAG_GRADIENT), np.array([[0, 0]]))[0]
    with pytest.raises(ValueError, match="PCG64"):
        np.random.MT19937(generator(words).bit_generator.seed_seq)
    with pytest.raises(ValueError, match="four seed words"):
        generator(words[:3])


def test_seed_words_rejects_wide_or_negative_indices():
    with pytest.raises(ValueError, match="32-bit"):
        seed_words((1, TAG_GRADIENT), np.array([[0, 2**32]]))
    with pytest.raises(ValueError, match="32-bit"):
        seed_words((1, TAG_GRADIENT), np.array([[-1, 0]]))
    with pytest.raises(ValueError):
        seed_words((-1, TAG_GRADIENT), np.array([[0, 0]]))
    with pytest.raises(ValueError):
        seed_words((1,), np.array([0.5, 1.0]))
