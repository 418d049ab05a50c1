from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringmix import seeding, simulation
from ringmix.objectives import quadratic_oracle
from ringmix.seeding import (
    TAG_CLOCK,
    TAG_GRADIENT,
    TAG_INIT,
    TAG_PERMUTATION,
    bounded_integers,
    seed_sequence,
    seed_words,
    stream,
    stream_states,
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


def _per_row(derive, prefix, rows):
    """`derive(prefix, *rows.T)`, one entry per row of `rows`: with no
    column, its one entry broadcast to every row."""
    return np.broadcast_to(derive(prefix, *rows.T), (len(rows), 4))


@settings(max_examples=150, deadline=None)
@given(
    prefix=st.lists(_ENTROPY_INT, max_size=5).map(tuple),
    rows=_index_rows(),
    d=st.integers(1, 9),
    n=st.integers(1, 2**40),
    b=st.integers(1, 7),
)
def test_batched_states_draw_bit_identical_to_stream(prefix, rows, d, n, b):
    words = _per_row(seed_words, prefix, rows)
    reseated = seeding._reseated(_per_row(stream_states, prefix, rows))
    for j, (row, rng) in enumerate(zip(rows.tolist(), reseated, strict=True)):
        expected_words = seed_sequence(*prefix, *row).generate_state(4, np.uint64)
        assert np.array_equal(words[j], expected_words)
        _assert_same_draws(rng, stream(*prefix, *row), d, n, b)


def _assert_same_draws(rng, ref, d, n, b):
    # An odd count of 32-bit integers leaves PCG64's cached half-word,
    # which the second integers call consumes.
    for draw in (
        lambda g: g.standard_normal(d),
        lambda g: g.integers(0, n, b),
        lambda g: g.integers(0, 1000, b),
        lambda g: g.lognormal(0.5, 2.0, 3),
    ):
        assert np.array_equal(draw(rng), draw(ref))


def test_reseat_passes_its_guard_here():
    # Otherwise every stream falls back to the state setter, and the
    # properties here test that path only.
    assert seeding._shared_rng()[1] is not None


@settings(max_examples=150, deadline=None)
@given(
    prefix=st.lists(_ENTROPY_INT, max_size=5).map(tuple),
    rows=_index_rows(),
    d=st.integers(1, 9),
    n=st.integers(1, 2**40),
    b=st.integers(1, 7),
    leftover=st.integers(0, 3),
)
def test_reseated_streams_draw_bit_identical_to_stream(prefix, rows, d, n, b, leftover):
    taken = []
    reseated = seeding._reseated(_per_row(stream_states, prefix, rows))
    for row, rng in zip(rows.tolist(), reseated, strict=True):
        ref = stream(*prefix, *row)
        assert rng.bit_generator.state == ref.bit_generator.state
        _assert_same_draws(rng, ref, d, n, b)
        # Odd counts leave has_uint32 = 1 for the next row's reseat to clear.
        rng.integers(0, 2**32, leftover)
        taken.append(rng)
    assert all(rng is taken[0] for rng in taken)


def test_reseat_falls_back_to_the_state_setter_when_its_guard_fails(failed_guard):
    rows = np.array([[k, l] for k in (0, 1, 70) for l in range(3)])
    reseated = seeding._reseated(stream_states((9, TAG_GRADIENT), *rows.T))
    for row, rng in zip(rows.tolist(), reseated, strict=True):
        ref = stream(9, TAG_GRADIENT, *row)
        assert rng is seeding._shared_rng()[0]
        assert rng.bit_generator.state == ref.bit_generator.state
        _assert_same_draws(rng, ref, 5, 2**40, 3)
        rng.integers(0, 2**32, 1)  # a cached half-word for the next reseat to clear
    assert len(failed_guard) == len(rows)


def test_training_is_unchanged_when_the_reseat_falls_back(request):
    oracle = quadratic_oracle(dimension=3, noise_scale=1.0, seed=4)
    cfg = simulation.RunConfig(n_learners=4, iterations=66, lr=0.1, batch_size=2, seed=8)
    fast = simulation.run_training(simulation.Strategy.RAND_PSGD, oracle, cfg)
    reseats = request.getfixturevalue("failed_guard")
    fallback = simulation.run_training(simulation.Strategy.RAND_PSGD, oracle, cfg)
    # Each iteration: one stream per learner, the permutation and the clock.
    assert len(reseats) == cfg.iterations * (cfg.n_learners + 2)
    assert fallback.records == fast.records
    for field in ("weights", "prev_weights", "last_gradients", "compute_time_s"):
        assert getattr(fallback.state, field).tobytes() == getattr(fast.state, field).tobytes()


@pytest.mark.parametrize("misread", [0, 1], ids=["header", "state"])
def test_reseat_falls_back_to_the_state_setter_when_its_views_misread_the_state(misread):
    seeding._shared_rng.cache_clear()
    reads, frombuffer = [], np.frombuffer

    def misreading_frombuffer(buffer, dtype):
        reads.append(view := frombuffer(buffer, dtype=dtype))
        return view + 1 if len(reads) == misread + 1 else view  # a copy that reads wrong

    try:
        with mock.patch.object(np, "frombuffer", misreading_frombuffer):
            assert seeding._shared_rng()[1] is None
        assert len(reads) == misread + 1
        index = np.arange(6)[:, None]
        with mock.patch.object(seeding, "_set_state", wraps=seeding._set_state) as set_state:
            noise = quadratic_oracle(3, noise_scale=2.0).draw(stream_states((4, TAG_GRADIENT),
                                                                            *index.T), 4)
            assert set_state.call_count == len(index)
            redraw = _redrawn_rows((7, TAG_GRADIENT), index, [2**31 + 1, 2**32 + 1] * 3, 8)
            assert redraw >= 3 and set_state.call_count == len(index) + redraw
        for row, (l,) in zip(noise, index.tolist()):
            assert np.array_equal(row, stream(4, TAG_GRADIENT, l).standard_normal(3) * (2.0 / 2))
    finally:
        seeding._shared_rng.cache_clear()


def test_reseat_guard_rejects_a_write_that_misses_the_state():
    rng = stream(1)
    rng.integers(0, 2**32, 1)  # caches a half-word
    assert not seeding._reseat_guard(rng, np.zeros(4, np.uint64), np.zeros(1, np.uint64))


def test_seed_words_rejects_wide_or_negative_indices():
    with pytest.raises(ValueError, match="32-bit"):
        seed_words((1, TAG_GRADIENT), 0, np.array([0, 2**32]))
    with pytest.raises(ValueError, match="32-bit"):
        seed_words((1, TAG_GRADIENT), np.array([-1, 0]), 0)
    with pytest.raises(ValueError):
        seed_words((-1, TAG_GRADIENT), 0, 0)
    for column in (np.array([0.5, 1.0]), np.array([True]), [1, 2.0]):
        with pytest.raises(ValueError, match="must hold integers"):
            seed_words((1,), column)


def test_index_columns_broadcast_to_one_stream_per_index():
    iterations, learners = np.array([[0], [7], [2**32 - 1]]), np.arange(4)
    words = seed_words((2**40 + 3, TAG_GRADIENT), iterations, learners)
    states = stream_states((2**40 + 3, TAG_GRADIENT), iterations, learners)
    assert words.shape == states.shape == (3, 4, 4)
    for (i, l), k in np.ndenumerate(np.broadcast_to(iterations, (3, 4))):
        expected = seed_sequence(2**40 + 3, TAG_GRADIENT, k, l).generate_state(4, np.uint64)
        assert np.array_equal(words[i, l], expected)
        rng = next(seeding._reseated(states[i, l][None]))
        assert rng.bit_generator.state == stream(2**40 + 3, TAG_GRADIENT, k, l).bit_generator.state
    assert seed_words((5,)).shape == stream_states((5,), 3).shape == (4,)
    assert seed_words((5,), np.zeros((0, 2), int), [1, 2]).shape == (0, 2, 4)
    with pytest.raises(ValueError):
        seed_words((5,), np.arange(3), np.arange(4))


# Bounds on each side of Lemire's special cases: 1 (no word read), powers of
# two and not, 2**31 + 1 (a word is rejected with probability near 1/2),
# 2**32 - 1 and 2**32 (the widest 32-bit bounds) and 2**32 + 1 (64-bit words).
_BOUNDS = [1, 2, 3, 7, 128, 1000, 2**31 + 1, 2**32 - 1, 2**32, 2**32 + 1]


def _integers_by_stream(prefix, index, bounds, count):
    return np.array([stream(*prefix, *row).integers(0, n, count)
                     for row, n in zip(index.tolist(), bounds)]).reshape(len(index), count)


def _redrawn_rows(prefix, index, bounds, count):
    """bounded_integers's result and the number of rows it redrew, checked
    against `integers` on a fresh `stream` for each row."""
    with mock.patch.object(seeding, "_reseated", wraps=seeding._reseated) as reseated:
        picks = bounded_integers(stream_states(prefix, *index.T), bounds, count)
    assert picks.dtype == np.int64
    assert np.array_equal(picks, _integers_by_stream(prefix, index, bounds, count))
    (redrawn,) = (call.args[0] for call in reseated.call_args_list)
    return len(redrawn)


@pytest.mark.parametrize("count", [1, 7, 8])
@pytest.mark.parametrize("bound", _BOUNDS)
def test_bounded_integers_draw_as_integers_on_each_stream(bound, count):
    index = np.arange(64)[:, None]
    redraw = _redrawn_rows((3, TAG_GRADIENT), index, [bound] * len(index), count)
    if bound == 2**31 + 1:
        # Each word is rejected with probability (2**31 - 1) / 2**32.
        assert redraw >= {1: 16, 7: 56, 8: 56}[count]
    elif bound > 2**32:
        assert redraw == len(index)
    else:  # a word is rejected with probability 2**32 % bound / 2**32 < 2**-22
        assert redraw == 0


def test_bounded_integers_take_a_bound_per_row():
    index = np.array([[k, l] for k in range(4) for l in range(len(_BOUNDS))])
    bounds = _BOUNDS * 4
    assert _redrawn_rows((5, TAG_GRADIENT), index, bounds, 5) >= 4  # at least the 2**32 + 1 rows


def test_bounded_integers_are_unchanged_when_the_reseat_falls_back(failed_guard):
    index = np.arange(12)[:, None]
    bounds = [2**31 + 1, 128, 2**32 + 1] * 4
    redraw = _redrawn_rows((7, TAG_GRADIENT), index, bounds, 8)
    assert len(failed_guard) == redraw


@settings(max_examples=150, deadline=None)
@given(
    prefix=st.lists(_ENTROPY_INT, max_size=3).map(tuple),
    index=_index_rows(),
    words=st.lists(st.lists(st.integers(0, 2**64 - 1), min_size=4, max_size=4), max_size=4),
    outputs=st.integers(1, 40),
)
def test_closed_form_outputs_are_the_raw_outputs_after_a_reseat(prefix, index, words, outputs):
    random = np.array(words, dtype=np.uint64).reshape(len(words), 4)
    random[:, 2] |= 1  # a PCG64 increment is odd
    carry = seeding._seed_in_place(np.full((1, 4), 2**64 - 1, dtype=np.uint64))  # as the guard's
    rows = np.concatenate([_per_row(stream_states, prefix, index), random, carry])
    raw = seeding._raw_outputs(rows, outputs)
    assert raw.dtype == np.uint64 and raw.shape == (len(rows), outputs)
    reference = np.random.Generator(np.random.PCG64(0))
    for row, outputs_of_row in zip(rows, raw, strict=True):
        seeding._set_state(reference, row)
        assert np.array_equal(outputs_of_row, reference.bit_generator.random_raw(outputs))


def test_bounded_integers_reject_a_bound_below_one_or_a_bound_count_off_the_rows():
    rows = stream_states((1, TAG_GRADIENT), np.arange(3))
    for bounds in ([4, 0, 4], [4, 4], [[4, 4, 4]]):
        with pytest.raises(ValueError, match="one integer >= 1 for each of the 3 rows"):
            bounded_integers(rows, bounds, 2)
