import copy
import math
import pickle
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringmix import objectives, seeding
from ringmix.objectives import (
    LogisticObjective,
    QuadraticObjective,
    gradient_check,
    logistic_oracle,
    quadratic_oracle,
)
from ringmix.seeding import stream, stream_states
from ringmix.simulation import RunConfig, Strategy, run_training


def test_quadratic_oracle_spectrum():
    oracle = quadratic_oracle(dimension=6, condition_number=50.0, seed=1)
    eigs = oracle.eigenvalues
    assert eigs[0] == pytest.approx(1.0, rel=1e-12)
    assert eigs[-1] == pytest.approx(50.0, rel=1e-12)
    assert np.all(np.diff(eigs) > 0)
    assert oracle.loss(oracle.optimum) == pytest.approx(0.0, abs=1e-15)


def test_quadratic_oracle_determinism_and_explicit_optimum():
    a = quadratic_oracle(dimension=4, condition_number=10.0, seed=9)
    b = quadratic_oracle(dimension=4, condition_number=10.0, seed=9)
    assert np.array_equal(a.optimum, b.optimum)
    c = quadratic_oracle(dimension=4, optimum=np.zeros(4))
    assert np.array_equal(c.optimum, np.zeros(4))


def test_quadratic_oracle_validation():
    with pytest.raises(ValueError):
        quadratic_oracle(dimension=0)
    with pytest.raises(ValueError):
        quadratic_oracle(dimension=3, condition_number=0.5)
    with pytest.raises(ValueError):
        QuadraticObjective(np.array([1.0, -1.0]), np.zeros(2), 0.0)


@pytest.mark.parametrize(
    "build, name",
    [
        (lambda: quadratic_oracle(4, condition_number=math.nan), "condition_number"),
        (lambda: quadratic_oracle(4, noise_scale=math.nan), "noise_scale"),
        (lambda: QuadraticObjective(np.array([1.0, math.nan]), np.zeros(2), 0.0), "eigenvalues"),
        (lambda: logistic_oracle(3, 8, separation=math.nan), "separation"),
        (lambda: logistic_oracle(3, 8, separation=-1.0), "separation"),
        (lambda: logistic_oracle(3, 8, 1.0, ridge=math.nan), "ridge"),
        (lambda: logistic_oracle(3, 8, 1.0, ridge=-1.0), "ridge"),
        (lambda: quadratic_oracle(4, condition_number=math.inf), "condition_number"),
        (lambda: quadratic_oracle(4, noise_scale=math.inf), "noise_scale"),
        (lambda: QuadraticObjective(np.array([1.0, math.inf]), np.zeros(2), 0.0), "eigenvalues"),
        (lambda: logistic_oracle(3, 8, separation=math.inf), "separation"),
        (lambda: logistic_oracle(3, 8, 1.0, ridge=math.inf), "ridge"),
    ],
    ids=["condition_number_nan", "noise_scale_nan", "eigenvalue_nan", "separation_nan",
         "separation_negative", "ridge_nan", "ridge_negative", "condition_number_inf",
         "noise_scale_inf", "eigenvalue_inf", "separation_inf", "ridge_inf"],
)
def test_oracle_constructors_reject_nan_and_out_of_range(build, name):
    with pytest.raises(ValueError, match=name):
        build()


_FEATURES = np.ones((4, 2))
_LABELS = np.array([1.0, 1.0, -1.0, -1.0])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("build, name", [
    (lambda bad: quadratic_oracle(3, optimum=[bad, 0.0, 0.0]), "optimum"),
    (lambda bad: QuadraticObjective(np.ones(2), np.array([0.0, bad]), 0.0), "optimum"),
    (lambda bad: LogisticObjective(np.where(np.eye(4, 2) > 0, bad, _FEATURES), _LABELS),
     "features"),
], ids=["quadratic_oracle", "QuadraticObjective", "LogisticObjective"])
def test_oracles_reject_a_non_finite_optimum_or_feature(build, name, bad):
    # Built, such an oracle's every run would diverge at iteration 0 with a
    # NaN loss, or its loss would be NaN.
    with pytest.raises(ValueError, match=rf"^{name} must be finite$"):
        build(bad)


def test_oracles_reject_mismatched_shapes():
    with pytest.raises(ValueError, match="^eigenvalues and optimum must be 1-d with equal length$"):
        QuadraticObjective(np.ones(2), np.zeros(3), 0.0)
    with pytest.raises(ValueError, match=r"^features must be \(n, d\) with labels \(n,\)$"):
        LogisticObjective(_FEATURES, _LABELS[:3])


_QUADRATIC_DATA = ("eigenvalues", "optimum", "noise_scale", "dimension")
_LOGISTIC_DATA = ("features", "labels", "ridge", "n_samples", "dimension")


@pytest.mark.parametrize("build, name", [
    *[(lambda: quadratic_oracle(3, noise_scale=1.0), name) for name in _QUADRATIC_DATA],
    *[(lambda: logistic_oracle(3, 8, 1.0), name) for name in _LOGISTIC_DATA],
], ids=[f"quadratic-{n}" for n in _QUADRATIC_DATA] + [f"logistic-{n}" for n in _LOGISTIC_DATA])
def test_an_oracles_data_refuses_assignment_and_deletion(build, name):
    # A run's held block is keyed by the oracle's identity: a changed
    # noise_scale would be served the noise scaled by the old one.
    oracle = build()
    before = getattr(oracle, name)
    with pytest.raises(AttributeError, match=rf"\.{name} is held as constructed$"):
        setattr(oracle, name, before)
    with pytest.raises(AttributeError, match=rf"\.{name} is held as constructed$"):
        delattr(oracle, name)
    assert getattr(oracle, name) is before


def test_an_oracle_holds_copies_of_its_callers_arrays():
    eigenvalues, optimum = np.array([1.0, 2.0]), np.zeros(2)
    quadratic = QuadraticObjective(eigenvalues, optimum, 1.0)
    features, labels = _FEATURES.copy(), _LABELS.copy()
    logistic = LogisticObjective(features, labels)
    for array in (eigenvalues, optimum, features, labels):
        array[0] = -5.0
    assert quadratic.eigenvalues.tolist() == [1.0, 2.0] and quadratic.optimum.tolist() == [0, 0]
    assert np.array_equal(logistic.features, _FEATURES)
    assert np.array_equal(logistic.labels, _LABELS)


@pytest.mark.parametrize("oracle, names", [
    (quadratic_oracle(3), ("eigenvalues", "optimum")),
    (logistic_oracle(3, 8, 1.0), ("features", "labels")),
], ids=["quadratic", "logistic"])
def test_an_oracles_arrays_are_read_only(oracle, names):
    for name in names:
        with pytest.raises(ValueError, match="read-only"):
            getattr(oracle, name)[0] = 0.0


@pytest.mark.parametrize("oracle, names", [
    (quadratic_oracle(3, noise_scale=1.0), _QUADRATIC_DATA),
    (logistic_oracle(3, 8, 1.0), _LOGISTIC_DATA),
], ids=["quadratic", "logistic"])
@pytest.mark.parametrize("duplicate", [copy.copy, copy.deepcopy,
                                       lambda oracle: pickle.loads(pickle.dumps(oracle))],
                         ids=["copy", "deepcopy", "pickle"])
def test_a_copied_or_unpickled_oracle_holds_its_data_as_constructed(oracle, names, duplicate):
    twin = duplicate(oracle)
    for name in names:
        value = getattr(twin, name)
        if isinstance(value, np.ndarray):
            with pytest.raises(ValueError, match="read-only"):
                value[0] = 0.0
            assert np.array_equal(value, getattr(oracle, name))
        with pytest.raises(AttributeError, match=rf"\.{name} is held as constructed$"):
            setattr(twin, name, value)
    # Sharded, so the logistic draws through its shard layout.
    cfg = RunConfig(n_learners=4, iterations=6, lr=0.1, batch_size=3, seed=2,
                    data_partition="sharded")
    runs = [run_training(Strategy.RAND_PSGD, o, cfg) for o in (oracle, twin)]
    assert runs[0].records == runs[1].records
    assert runs[0].state.weights.tobytes() == runs[1].state.weights.tobytes()


def test_quadratic_gradient_against_finite_differences():
    oracle = quadratic_oracle(dimension=8, condition_number=20.0, seed=2)
    w = stream(3, 0).standard_normal(8)
    assert gradient_check(oracle, w) <= 1e-7


def test_loss_columns_matches_per_column_loss():
    oracle = quadratic_oracle(dimension=5, condition_number=4.0, seed=4)
    W = stream(3, 1).standard_normal((5, 7))
    per = oracle.loss_columns(W)
    for l in range(7):
        assert per[l] == pytest.approx(oracle.loss(W[:, l]), rel=1e-12)


def test_quadratic_stochastic_gradient_noise_free_limit():
    oracle = quadratic_oracle(dimension=5, condition_number=4.0, seed=4, noise_scale=0.0)
    w = stream(3, 2).standard_normal(5)
    assert np.array_equal(oracle.stochastic_gradient(w, stream(1, 0, 0, 0), 8), oracle.gradient(w))


@pytest.mark.parametrize("noise_scale", [0.0, 0.3, 2.5])
@pytest.mark.parametrize("batch_size", [1, 2, 7, 64])
def test_quadratic_draw_is_the_scaled_noise_of_stochastic_gradient(noise_scale, batch_size):
    # The block path (draw, then gradients) and stochastic_gradient scale the
    # same normals by the same float: equal column by column, byte for byte.
    oracle = quadratic_oracle(dimension=9, condition_number=30.0, noise_scale=noise_scale, seed=4)
    L = 5
    Phi = stream(4, 1).standard_normal((9, L))
    draws = oracle.draw(stream_states((4, 2), np.arange(L)), batch_size)
    G = oracle.gradients(Phi, draws, batch_size)
    for l in range(L):
        normals = stream(4, 2, l).standard_normal(9)
        assert draws[l].tobytes() == (normals * (noise_scale / math.sqrt(batch_size))).tobytes()
        expected = oracle.stochastic_gradient(Phi[:, l], stream(4, 2, l), batch_size)
        assert G[:, l].tobytes() == expected.tobytes(), l


def test_quadratic_stochastic_gradient_replays_and_averages_out():
    oracle = quadratic_oracle(dimension=8, condition_number=10.0, seed=2, noise_scale=1.0)
    w = stream(3, 3).standard_normal(8)
    g1 = oracle.stochastic_gradient(w, stream(1, 0, 5, 2), 4)
    g2 = oracle.stochastic_gradient(w, stream(1, 0, 5, 2), 4)
    assert np.array_equal(g1, g2)
    # Noise sd per coordinate is noise_scale / sqrt(batch); the average
    # of n independent draws concentrates around the exact gradient.
    n = 4000
    acc = np.zeros(8)
    for i in range(n):
        acc += oracle.stochastic_gradient(w, stream(1, 0, i, 0), 4)
    dev = np.abs(acc / n - oracle.gradient(w))
    se = 1.0 / np.sqrt(4) / np.sqrt(n)
    assert dev.max() <= 5 * se


@pytest.mark.parametrize("oracle", [quadratic_oracle(3), logistic_oracle(3, 8, 1.0)],
                         ids=["quadratic", "logistic"])
def test_stochastic_gradient_rejects_an_empty_batch(oracle):
    with pytest.raises(ValueError, match="^batch_size: must be >= 1$"):
        oracle.stochastic_gradient(np.zeros(3), stream(1, 2), batch_size=0)


@pytest.mark.parametrize("oracle", [quadratic_oracle(3), logistic_oracle(3, 8, 1.0)],
                         ids=["quadratic", "logistic"])
@pytest.mark.parametrize("batch_size, failure", [
    (0, "must be >= 1"), (-1, "must be >= 1"), (1.5, "expected int, got 1.5"),
    (True, "expected int, got True")])
def test_draw_checks_batch_size_before_drawing(oracle, batch_size, failure):
    rows = stream_states((0, 2), np.arange(3))
    with mock.patch.object(seeding, "_reseated") as reseated, \
            mock.patch.object(seeding, "bounded_integers") as bounded_integers:
        with pytest.raises(ValueError, match=f"^batch_size: {re.escape(failure)}$"):
            oracle.draw(rows, batch_size)
    assert not reseated.called and not bounded_integers.called
    assert oracle.draw(rows, np.int64(2)).tobytes() == oracle.draw(rows, 2).tobytes()


@pytest.mark.parametrize("noise_scale", [0.0, 1.7])
def test_quadratic_gradients_equal_the_out_of_place_expression(noise_scale):
    # gradients computes in place on one fresh array; the expression it
    # replaced is the reference, byte for byte, on any layout and dtype of Phi.
    oracle = quadratic_oracle(dimension=6, condition_number=20.0, noise_scale=noise_scale, seed=3)
    L = 4
    draws = oracle.draw(stream_states((3, 2), np.arange(L)), 5)
    draws.setflags(write=False)
    base = stream(3, 1).standard_normal((6, 2 * L))
    phis = {"C": base[:, :L].copy(), "Fortran": np.asfortranarray(base[:, :L]),
            "strided": base[:, ::2], "int": np.arange(6 * L).reshape(6, L) - 7,
            "nested list": base[:, :L].tolist()}
    for name, Phi in phis.items():
        before = np.array(Phi)
        expected = (oracle.eigenvalues[:, None] * (np.asarray(Phi, dtype=float)
                                                   - oracle.optimum[:, None]) + draws.T)
        G = oracle.gradients(Phi, draws, 5)
        assert G.shape == expected.shape and G.tobytes() == expected.tobytes(), name
        assert np.array_equal(np.array(Phi), before), name


def test_logistic_oracle_shape_and_balance():
    oracle = logistic_oracle(dimension=6, n_samples=40, separation=2.0, seed=5)
    assert oracle.features.shape == (40, 6)
    assert set(np.unique(oracle.labels)) == {-1.0, 1.0}
    assert np.sum(oracle.labels > 0) == 20


def test_logistic_gradient_against_finite_differences():
    oracle = logistic_oracle(dimension=6, n_samples=64, separation=1.5, seed=6)
    w = 0.3 * stream(4, 0).standard_normal(6)
    assert gradient_check(oracle, w) <= 1e-5


def test_finite_difference_error_shrinks_with_step():
    # Central differences carry O(step^2) truncation error; the
    # logistic loss has nonzero higher derivatives, so halving the step
    # by 10 must cut the measured error well above the rounding floor.
    oracle = logistic_oracle(dimension=6, n_samples=64, separation=1.5, seed=6)
    w = 0.3 * stream(4, 1).standard_normal(6)
    coarse = gradient_check(oracle, w, step=1e-2)
    fine = gradient_check(oracle, w, step=1e-3)
    assert coarse > fine > 0


def test_logistic_shards_partition_the_dataset():
    oracle = logistic_oracle(dimension=4, n_samples=30, separation=1.0, seed=7)
    count = 4
    drawn = [oracle._sample_indices(stream(5, i), 2000, (i, count)) for i in range(count)]
    assert np.array_equal(np.unique(np.concatenate(drawn)), np.arange(30))
    for i, picks in enumerate(drawn):
        assert np.array_equal(picks % count, np.full(len(picks), i))
        # Same draws as indexing the shard's explicit index pool.
        pool = np.arange(i, 30, count)
        assert np.array_equal(picks, pool[stream(5, i).integers(0, len(pool), 2000)])


def test_logistic_stochastic_gradient_unbiased_on_full_pool():
    oracle = logistic_oracle(dimension=5, n_samples=32, separation=1.0, seed=8)
    w = 0.2 * stream(4, 2).standard_normal(5)
    n = 3000
    acc = np.zeros(5)
    for i in range(n):
        acc += oracle.stochastic_gradient(w, stream(2, 0, i, 0), 4)
    dev = np.linalg.norm(acc / n - oracle.gradient(w))
    assert dev <= 0.05


def test_logistic_shard_restricts_sampling():
    oracle = logistic_oracle(dimension=4, n_samples=16, separation=1.0, seed=9)
    # Zero out every feature outside shard 0; a shard-0 gradient then
    # only sees zero features, so it reduces to the ridge term.
    feats = oracle.features.copy()
    mask = np.arange(16) % 2 != 0
    feats[mask] = 0.0
    shard_oracle = LogisticObjective(feats, oracle.labels, ridge=0.0)
    w = stream(4, 3).standard_normal(4)
    g = shard_oracle.stochastic_gradient(w, stream(3, 0, 0, 0), 6, shard=(1, 2))
    assert np.array_equal(g, np.zeros(4))


@st.composite
def _logistic_cases(draw):
    L = draw(st.integers(1, 40))
    sharded = draw(st.booleans())
    # A sharded learner needs a nonempty shard; n_samples % L is free.
    n_samples = draw(st.integers(max(2, L) if sharded else 2, 300))
    batch_size = draw(st.integers(1, 64))
    d = draw(st.integers(1, 20))
    layout = draw(st.sampled_from(["C", "F", "strided"]))
    # Learners per chunk; the budget's slack stays below one more learner.
    chunk = draw(st.integers(1, L))
    stack_bytes = 8 * batch_size * d
    budget = chunk * stack_bytes + draw(st.integers(0, stack_bytes - 1))
    seed = draw(st.integers(0, 2**32 - 1))
    return L, sharded, n_samples, batch_size, d, layout, budget, seed


@settings(max_examples=100, deadline=None)
@given(case=_logistic_cases())
def test_logistic_stacked_gradients_match_per_learner_loop(reference, case):
    L, sharded, n_samples, batch_size, d, layout, budget, seed = case
    oracle = logistic_oracle(dimension=d, n_samples=n_samples, separation=1.5, seed=seed)
    base = stream(seed, 1).standard_normal((d, 2 * L))
    Phi = {"C": np.ascontiguousarray(base[:, :L]), "F": np.asfortranarray(base[:, :L]),
           "strided": base[:, ::2]}[layout]
    shards = [(l, L) for l in range(L)] if sharded else None
    expected = reference.logistic_gradients(
        oracle, Phi, batch_size, [stream(seed, 2, l) for l in range(L)], shards
    )
    draws = oracle.draw(stream_states((seed, 2), np.arange(L)), batch_size, shards)
    with mock.patch.object(objectives, "_CHUNK_BYTES", budget):
        G = oracle.gradients(Phi, draws, batch_size)
    assert G.shape == expected.shape
    assert G.tobytes() == expected.tobytes()


def _cached_half_word_pcg64():
    rng = np.random.Generator(np.random.PCG64(21))
    rng.integers(0, 2**32, 1)  # leaves the high half of a 64-bit output cached
    assert rng.bit_generator.state["has_uint32"] == 1
    return rng


@pytest.mark.parametrize("shard", [None, (2, 3)])
@pytest.mark.parametrize("make_rng", [_cached_half_word_pcg64,
                                      lambda: np.random.Generator(np.random.MT19937(21))],
                         ids=["pcg64-cached-half-word", "mt19937"])
def test_stochastic_gradient_samples_a_callers_generator_as_sample_indices(make_rng, shard):
    # The block draw reads raw PCG64 outputs; a caller's Generator, whatever
    # its bit generator and cached state, is drawn by `integers` instead.
    oracle = logistic_oracle(dimension=3, n_samples=40, separation=1.0, seed=2)
    rng = make_rng()
    twin = copy.deepcopy(rng)
    with mock.patch.object(oracle, "gradients", wraps=oracle.gradients) as gradients:
        oracle.stochastic_gradient(np.ones(3), rng, 7, shard)
    draws = gradients.call_args.args[1]
    assert np.array_equal(draws, oracle._sample_indices(twin, 7, shard)[None])
    # The same state after: the same next words, a cached half-word first.
    assert np.array_equal(rng.integers(0, 2**32, 9), twin.integers(0, 2**32, 9))


def test_logistic_draw_needs_one_shard_per_row():
    oracle = logistic_oracle(dimension=3, n_samples=8, separation=1.0)
    rows = stream_states((0, 2), np.arange(3))
    for shards in ([], [(0, 2), (1, 2)]):
        with pytest.raises(ValueError, match=rf"^shards: has {len(shards)} entries, expected "
                                             r"one for each of the 3 rows$"):
            oracle.draw(rows, 4, shards)
    assert oracle.draw(rows[:0], 4, []).shape == (0, 4)


def test_logistic_draw_checks_each_distinct_shard_once_before_drawing():
    oracle = logistic_oracle(dimension=3, n_samples=8, separation=1.0)
    rows = stream_states((0, 2), np.arange(6))
    with mock.patch.object(oracle, "_shard", wraps=oracle._shard) as shard:
        picks = oracle.draw(rows, 4, [(0, 2), (1, 2), None] * 2)
    assert [call.args[0] for call in shard.call_args_list] == [(0, 2), (1, 2), None]
    assert np.array_equal(picks[[0, 1, 3, 4]] % 2, [[0] * 4, [1] * 4] * 2)
    for shards, message in (([(0, 2), (5, 4)] * 3, r"^shard index 5 outside 0\.\.3$"),
                            ([(8, 9)] * 6, r"^shard 8 of 9 holds no sample \(n_samples = 8\)$")):
        with mock.patch.object(seeding, "bounded_integers") as bounded_integers:
            with pytest.raises(ValueError, match=message):
                oracle.draw(rows, 4, shards)
        assert not bounded_integers.called


def test_logistic_validation():
    with pytest.raises(ValueError):
        logistic_oracle(dimension=0, n_samples=10, separation=1.0)
    with pytest.raises(ValueError):
        LogisticObjective(np.zeros((4, 2)), np.array([1.0, 1.0, -1.0, 2.0]))
    oracle = logistic_oracle(dimension=3, n_samples=8, separation=1.0)
    with pytest.raises(ValueError, match="shard index"):
        oracle.stochastic_gradient(np.zeros(3), stream(0), 2, shard=(5, 4))
    # Shard 8 of 9 would sample from range(8, 8, 9): no sample at all.
    with pytest.raises(ValueError, match=r"^shard 8 of 9 holds no sample \(n_samples = 8\)$"):
        oracle.stochastic_gradient(np.zeros(3), stream(0), 2, shard=(8, 9))
    # A sharded run with more learners than samples names its first empty shard.
    cfg = RunConfig(n_learners=10, iterations=2, lr=0.1, batch_size=2, seed=0,
                    data_partition="sharded")
    with pytest.raises(ValueError, match=r"^shard 8 of 10 holds no sample"):
        run_training(Strategy.D1D, oracle, cfg)


def test_evaluate_loss_and_gradient_check_validation():
    oracle = quadratic_oracle(dimension=3, seed=0)
    w = np.ones(3)
    # Full-batch loss is deterministic for a fixed oracle.
    assert oracle.loss(w) == quadratic_oracle(dimension=3, seed=0).loss(w.copy())
    with pytest.raises(ValueError):
        gradient_check(oracle, w, step=0.0)
    with pytest.raises(ValueError):
        gradient_check(oracle, w, step=math.nan)


@st.composite
def _loss_stacks(draw):
    """An oracle of either kind, a stack of m weight matrices (m, d, L) with
    m from 1 to 40 and d and L from 1 to 33, and a logistic loss chunk budget
    of one to a few models' margins, so that chunk boundaries fall inside
    the stack."""
    d, L, m = draw(st.integers(1, 33)), draw(st.integers(1, 33)), draw(st.integers(1, 40))
    seed = draw(st.integers(0, 2**32 - 1))
    if draw(st.sampled_from(["quadratic", "logistic"])) == "quadratic":
        oracle = quadratic_oracle(dimension=d, condition_number=draw(st.sampled_from([1.0, 50.0])),
                                  seed=seed)
        budget = objectives._LOSS_CHUNK_BYTES
    else:
        oracle = logistic_oracle(dimension=d, n_samples=draw(st.integers(2, 70)),
                                 separation=1.5, seed=seed)
        budget = draw(st.integers(1, 4 * 8 * oracle.n_samples * L))
    scale = draw(st.sampled_from([0.1, 1.0, 30.0]))
    return oracle, scale * stream(seed, 7).standard_normal((m, d, L)), budget


def _bytes(value):
    return np.float64(value).tobytes()


@settings(max_examples=80, deadline=None)
@given(case=_loss_stacks())
def test_stacked_losses_equal_the_per_slice_calls_byte_for_byte(reference, case):
    # The losses broadcast over leading axes with each slice's bits: the
    # trace records a stack of logged models in one call.  One model's call
    # keeps the expressions of the one-model losses, and its `loss` a float.
    oracle, Ws, budget = case
    m, d, L = Ws.shape
    ws = Ws[:, :, 0]
    with mock.patch.object(objectives, "_LOSS_CHUNK_BYTES", budget):
        columns, losses = oracle.loss_columns(Ws), oracle.loss(ws)
        assert columns.shape == (m, L) and losses.shape == (m,)
        assert oracle.loss_columns(Ws[None]).tobytes() == columns.tobytes()
        assert oracle.loss(ws.reshape(1, m, d)).tobytes() == losses.tobytes()
        for i in range(m):
            one = oracle.loss(ws[i])
            assert type(one) is float
            assert _bytes(losses[i]) == _bytes(one) == _bytes(reference.loss(oracle, ws[i]))
            expected = reference.loss_columns(oracle, Ws[i])
            assert columns[i].tobytes() == oracle.loss_columns(Ws[i]).tobytes()
            assert columns[i].tobytes() == expected.tobytes()


@pytest.mark.parametrize("oracle", [quadratic_oracle(dimension=4, noise_scale=1.0),
                                    logistic_oracle(dimension=4, n_samples=10, separation=1.0)],
                         ids=["quadratic", "logistic"])
@pytest.mark.parametrize("shape", [(4,), (1, 4, 1), (2, 4, 3), ()])
def test_gradients_take_only_a_d_by_l_phi(oracle, shape):
    # A 1-d Phi used to broadcast to a (d, d) result in the quadratic.
    draws = np.ones((1, 4)) if isinstance(oracle, QuadraticObjective) else np.zeros((1, 2), int)
    message = re.escape(f"Phi: expected a (d, L) matrix, got shape {shape}")
    with pytest.raises(ValueError, match=f"^{message}$"):
        oracle.gradients(np.zeros(shape), draws, 2)
    assert oracle.gradients(np.zeros((4, 1)), draws, 2).shape == (4, 1)
