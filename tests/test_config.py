import inspect
import math
import re
import string
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringmix import config as config_module
from ringmix.config import (
    ConfigError,
    ExperimentConfig,
    echo_config,
    parse_config,
    with_overrides,
)
from ringmix.harness import run_sweep
from ringmix.objectives import ORACLES
from ringmix.simulation import CostModel, RunConfig, Strategy

MINIMAL = """
[experiment]
strategies = dpsgd_fixed, d1d
learners = 8, 16
iterations = 50
trials = 3
seed = 42
lr = 0.05
batch_mode = total-fixed
batch_size = 64
"""


def test_parse_minimal_fills_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.strategies == (Strategy.DPSGD_FIXED, Strategy.D1D)
    assert cfg.learner_counts == (8, 16)
    assert cfg.master_seed == 42
    assert cfg.warmup_iters == 0
    assert cfg.staleness_mode == "async"
    assert cfg.oracle_kind == "quadratic"
    assert cfg.dimension == 16
    assert cfg.message_size_mb == 165.0
    assert cfg.per_learner_batch(8) == 8
    assert cfg.per_learner_batch(16) == 4


def test_per_learner_fixed_batch():
    cfg = parse_config(MINIMAL.replace("total-fixed", "per-learner-fixed"))
    assert cfg.per_learner_batch(8) == 64
    assert cfg.per_learner_batch(16) == 64


def test_inline_comments_are_stripped():
    cfg = parse_config(MINIMAL.replace("trials = 3", "trials = 3  ; three repeats"))
    assert cfg.trials == 3


@pytest.mark.parametrize(
    "mutation, fragment",
    [
        (("[experiment]", "[experimnet]"), "unknown section"),
        (("trials = 3", "trails = 3"), "unknown key"),
        (("trials = 3", ""), "missing required key 'trials'"),
        (("trials = 3", "trials = soon"), "expected int"),
        (("lr = 0.05", "lr = fast"), "expected float"),
        (("dpsgd_fixed, d1d", "dpsgd_fixed, warp"), "unknown strategy"),
        (("dpsgd_fixed, d1d", "d1d, d1d"), "duplicate"),
        (("learners = 8, 16", "learners = 8, 8"), "[experiment] learners: duplicate count"),
        (("batch_size = 64", "batch_size = 60"), "not divisible"),
        (("learners = 8, 16", "learners = 2, 8"), "need >= 3"),
        (("trials = 3", "trials = 0"), "trials"),
        (("lr = 0.05", "lr = -1.0"), "lr"),
        (("seed = 42", "seed = -1"), "seed"),
        (("batch_mode = total-fixed", "batch_mode = adaptive"), "batch_mode"),
    ],
)
def test_rejections_name_the_field(mutation, fragment):
    old, new = mutation
    with pytest.raises(ConfigError) as err:
        parse_config(MINIMAL.replace(old, new))
    assert fragment in str(err.value)


def test_a_config_without_an_experiment_section_or_with_a_non_tuple_list_is_rejected():
    with pytest.raises(ConfigError, match=r"^missing required section \[experiment\]$"):
        parse_config("[oracle]\nkind = quadratic\n")
    cfg = parse_config(MINIMAL)
    for change, message in ((dict(learner_counts=[8, 16]), "learners: expected tuple, got [8, 16]"),
                            (dict(strategies="d1d"), "strategies: expected tuple, got 'd1d'")):
        with pytest.raises(ConfigError, match=f"^{re.escape('[experiment] ' + message)}$"):
            replace(cfg, **change)


def test_oracle_kind_scopes_keys():
    quad_with_logistic_key = MINIMAL + "\n[oracle]\nkind = quadratic\nseparation = 2.0\n"
    with pytest.raises(ConfigError) as err:
        parse_config(quad_with_logistic_key)
    assert "separation" in str(err.value)

    logi = MINIMAL + "\n[oracle]\nkind = logistic\nn_samples = 128\nridge = 0.001\n"
    cfg = parse_config(logi)
    assert cfg.oracle_kind == "logistic"
    assert cfg.n_samples == 128
    assert cfg.ridge == 0.001

    with pytest.raises(ConfigError):
        parse_config(MINIMAL + "\n[oracle]\nkind = cubic\n")

    # A built config's out-of-scope field holds its default, which echo leaves
    # out, so parse_config(echo_config(cfg)) == cfg holds for every config.
    quad = parse_config(MINIMAL)
    for kind_cfg, change in ((quad, dict(n_samples=-5)), (quad, dict(separation=math.nan)),
                             (cfg, dict(noise_scale=2.0))):
        with pytest.raises(ConfigError) as err:
            replace(kind_cfg, **change)
        key, = change
        assert str(err.value) == f"[oracle] {key}: does not apply to kind {kind_cfg.oracle_kind!r}"
    assert parse_config(echo_config(replace(quad, n_samples=512))) == quad


def test_oracle_key_scope_is_derived_from_factory_arguments():
    args = {kind: set(inspect.signature(factory).parameters) for kind, factory in ORACLES.items()}
    declared = {f.metadata["key"] or f.name for f in ExperimentConfig.__dataclass_fields__.values()
                if f.metadata["section"] == "oracle"} - {"kind"}
    for kind in ORACLES:
        keys = {e.key for e in config_module._entries(kind) if e.section == "oracle"} - {"kind"}
        assert keys == args[kind] & declared, kind
    every_arg = set().union(*args.values())
    assert declared <= every_arg, declared - every_arg
    assert every_arg - {"optimum"} <= declared, every_arg - declared


def test_cost_model_keys_and_ranges():
    cfg = parse_config(
        MINIMAL + "\n[cost_model]\nstraggler_factor = 10.0\nstraggler_count = 1\n"
    )
    assert cfg.straggler_factor == 10.0
    with pytest.raises(ConfigError):
        parse_config(MINIMAL + "\n[cost_model]\nlatency_ms = 1.0\n")
    with pytest.raises(ConfigError) as err:
        parse_config(MINIMAL + "\n[cost_model]\nstraggler_count = 12\n")
    assert "straggler_count" in str(err.value)
    with pytest.raises(ConfigError):
        parse_config(MINIMAL + "\n[cost_model]\nbandwidth_gbps = 0.0\n")


def test_syntax_error_is_config_error():
    with pytest.raises(ConfigError):
        parse_config("strategies without a section header")


def test_echo_round_trip_quadratic():
    cfg = parse_config(MINIMAL)
    text = echo_config(cfg)
    assert parse_config(text) == cfg
    assert echo_config(parse_config(text)) == text


def test_echo_round_trip_logistic_and_awkward_floats():
    base = parse_config(MINIMAL + "\n[oracle]\nkind = logistic\n")
    cfg = replace(base, lr=0.1 + 0.2, separation=1.0 / 3.0)
    text = echo_config(cfg)
    again = parse_config(text)
    assert again.lr == cfg.lr
    assert again.separation == cfg.separation
    assert again == cfg


def test_echo_omits_inapplicable_oracle_keys():
    cfg = parse_config(MINIMAL)
    assert "separation" not in echo_config(cfg)
    logi = parse_config(MINIMAL + "\n[oracle]\nkind = logistic\n")
    assert "condition_number" not in echo_config(logi)


def test_with_overrides():
    cfg = parse_config(MINIMAL)
    assert with_overrides(cfg) is cfg
    bumped = with_overrides(cfg, master_seed=7, trials=9)
    assert bumped.master_seed == 7
    assert bumped.trials == 9
    assert bumped.strategies == cfg.strategies
    with pytest.raises(ConfigError):
        with_overrides(cfg, trials=0)


def test_int_too_large_for_a_float_fails_a_float_key_as_not_finite():
    # An int may stand for a float, but one past the largest float would
    # overflow in make_oracle or echo_config; an int key takes any size.
    cfg = parse_config(MINIMAL)
    for key, section in (("condition_number", "oracle"), ("lr", "experiment"),
                         ("bandwidth_gbps", "cost_model")):
        with pytest.raises(ConfigError) as err:
            replace(cfg, **{key: 10**400})
        assert str(err.value) == f"[{section}] {key}: must be finite"
    assert replace(cfg, condition_number=10**300).condition_number == 10**300
    assert replace(cfg, master_seed=10**400).master_seed == 10**400


def test_direct_construction_validates_via_parse_path(tmp_path):
    # A hand-built or replaced config passes the checks an INI file does,
    # because the config runs them when it is constructed.
    fields = dict(
        strategies=(Strategy.D1D,),
        learner_counts=(4,),
        iterations=10,
        trials=1,
        master_seed=0,
        lr=0.1,
        batch_mode="per-learner-fixed",
        batch_size=2,
    )
    cfg = ExperimentConfig(**fields)
    assert with_overrides(cfg, trials=2).trials == 2
    with pytest.raises(ConfigError, match=r"^\[experiment\] trials: must be >= 1$"):
        replace(cfg, trials=0)
    with pytest.raises(ConfigError, match="straggler_count: 9 exceeds learners=4"):
        replace(cfg, straggler_count=9)
    # A value parsing could not give is rejected by its type, before its
    # range or any cross-field check; an int may stand for a float.
    assert replace(cfg, lr=1).lr == 1
    for change, message in [
        (dict(trials=1.5), "[experiment] trials: expected int, got 1.5"),
        (dict(learner_counts=(4.0,)), "[experiment] learners: expected int, got 4.0"),
        (dict(iterations=True), "[experiment] iterations: expected int, got True"),
        (dict(strategies=("d1d",)), "[experiment] strategies: expected Strategy, got 'd1d'"),
        (dict(lr="0.1"), "[experiment] lr: expected float, got '0.1'"),
    ]:
        with pytest.raises(ConfigError) as err:
            replace(cfg, **change)
        assert str(err.value) == message
    out = tmp_path / "out"
    with pytest.raises(ConfigError, match="total-fixed size 10 not divisible by learners=4"):
        run_sweep(ExperimentConfig(**{**fields, "batch_mode": "total-fixed", "batch_size": 10}), out)
    assert not out.exists()


def test_a_hand_built_config_holds_numpy_scalars_as_python_ones():
    # Each value passes the check RunConfig does, which takes numpy scalars
    # (a bool never) and holds them as their Python equals, so an int8 count
    # cannot overflow in the cross-field checks or a cell.
    cfg = parse_config(MINIMAL)
    held = replace(cfg, learner_counts=(np.int8(8), np.uint16(16)), iterations=np.int64(50),
                   lr=np.float32(0.5), condition_number=np.float16(10), dimension=np.uint8(16))
    assert held == replace(cfg, learner_counts=(8, 16), iterations=50, lr=0.5,
                           condition_number=10.0, dimension=16)
    assert [type(v) for v in (*held.learner_counts, held.iterations, held.lr)] == [int] * 3 + [float]
    assert echo_config(held) == echo_config(parse_config(echo_config(held)))
    with pytest.raises(ConfigError, match=r"^\[experiment\] trials: expected int, got np.True_$"):
        replace(cfg, trials=np.True_)
    with pytest.raises(ConfigError, match=r"^\[experiment\] lr: must be finite$"):
        replace(cfg, lr=np.float32("inf"))


def _ini(sections: dict[str, dict[str, str]]) -> str:
    return "\n".join(
        f"[{name}]\n" + "".join(f"{key} = {value}\n" for key, value in keys.items())
        for name, keys in sections.items()
    )


def _merged(*layers: dict[str, dict[str, str]]) -> dict[str, dict[str, str]]:
    out: dict[str, dict[str, str]] = {}
    for layer in layers:
        for name, keys in layer.items():
            out.setdefault(name, {}).update(keys)
    return out


# A valid config whose cross-field checks leave every single key free to
# sit at its own bound.
BOUNDARY_BASE = {
    "experiment": {
        "strategies": "rand_psgd", "learners": "4", "iterations": "5", "trials": "1",
        "seed": "0", "lr": "0.1", "batch_mode": "per-learner-fixed", "batch_size": "4",
    },
}
LOGISTIC = {"oracle": {"kind": "logistic"}}
BARRIER_ONLY = {"experiment": {"strategies": "d1d"}}

# (section, key, comparison, bound, type, extra layer) of every range check.
RANGES = [
    ("experiment", "learners", ">=", 1, int, BARRIER_ONLY),
    ("experiment", "learners", ">=", 3, int, {}),
    ("experiment", "iterations", ">=", 1, int, {}),
    ("experiment", "trials", ">=", 1, int, {}),
    ("experiment", "seed", ">=", 0, int, {}),
    ("experiment", "lr", ">", 0, float, {}),
    ("experiment", "batch_size", ">=", 1, int, {}),
    ("experiment", "warmup_iters", ">=", 0, int, {}),
    ("experiment", "init_scale", ">=", 0, float, {}),
    ("experiment", "log_every", ">=", 1, int, {}),
    ("oracle", "dimension", ">=", 1, int, {}),
    ("oracle", "seed", ">=", 0, int, {}),
    ("oracle", "condition_number", ">=", 1, float, {}),
    ("oracle", "noise_scale", ">=", 0, float, {}),
    ("oracle", "n_samples", ">=", 2, int, LOGISTIC),
    ("oracle", "separation", ">=", 0, float, LOGISTIC),
    ("oracle", "ridge", ">=", 0, float, LOGISTIC),
    ("cost_model", "message_size_mb", ">", 0, float, {}),
    ("cost_model", "bandwidth_gbps", ">", 0, float, {}),
    ("cost_model", "compute_median_s", ">", 0, float, {}),
    ("cost_model", "compute_sigma", ">=", 0, float, {}),
    ("cost_model", "straggler_factor", ">", 0, float, {}),
    ("cost_model", "straggler_count", ">=", 0, int, {}),
]


def _step(value, type_, direction: float):
    if type_ is int:
        return value + int(direction)
    return math.nextafter(float(value), direction * math.inf)


@pytest.mark.parametrize(
    "section, key, op, bound, type_, extra", RANGES,
    ids=[f"{s}.{k}{op}{b}" for s, k, op, b, _, _ in RANGES],
)
def test_range_boundaries(section, key, op, bound, type_, extra):
    if op == ">=":
        accepted, rejected = bound, _step(bound, type_, -1)
    else:
        accepted, rejected = _step(bound, type_, +1), bound
    text = repr if type_ is float else str

    def config(value):
        return _ini(_merged(BOUNDARY_BASE, extra, {section: {key: text(type_(value))}}))

    parse_config(config(accepted))
    for value in [rejected] + ([math.nan, math.inf] if type_ is float else []):
        with pytest.raises(ConfigError) as err:
            parse_config(config(value))
        assert f"[{section}] {key}" in str(err.value)


CHOICES = [
    ("experiment", "batch_mode", ("total-fixed", "per-learner-fixed")),
    ("experiment", "staleness_mode", ("sync", "async")),
    ("experiment", "data_partition", ("shared", "sharded")),
    ("oracle", "kind", ("quadratic", "logistic")),
]


@pytest.mark.parametrize("section, key, choices", CHOICES, ids=[k for _, k, _ in CHOICES])
def test_choice_keys(section, key, choices):
    for choice in choices:
        parse_config(_ini(_merged(BOUNDARY_BASE, {section: {key: choice}})))
    for wrong in (choices[0].upper(), choices[0] + "x"):
        with pytest.raises(ConfigError) as err:
            parse_config(_ini(_merged(BOUNDARY_BASE, {section: {key: wrong}})))
        assert f"[{section}] {key}" in str(err.value)


def _ints_near(bound: int):
    return st.one_of(st.integers(bound - 2, bound + 2), st.integers(-(10**20), 10**20))


def _floats_near(bound: float):
    near = [bound, math.nextafter(bound, -math.inf), math.nextafter(bound, math.inf), -0.0,
            math.nan, math.inf, -math.inf]
    return st.one_of(st.sampled_from(near), st.floats())


def _choices(*choices: str):
    return st.one_of(st.sampled_from(choices), st.text(string.ascii_letters + "-_", max_size=8))


# Every field-declared check of RunConfig and CostModel, with values at and
# around its bound, non-finite floats and off-list strings.
DECLARED = {
    "n_learners": (RunConfig, _ints_near(1)),
    "iterations": (RunConfig, _ints_near(1)),
    "lr": (RunConfig, _floats_near(0.0)),
    "batch_size": (RunConfig, _ints_near(1)),
    "warmup_iters": (RunConfig, _ints_near(0)),
    "staleness_mode": (RunConfig, _choices("sync", "async")),
    "init_scale": (RunConfig, _floats_near(0.0)),
    "data_partition": (RunConfig, _choices("shared", "sharded")),
    "log_every": (RunConfig, _ints_near(1)),
    "message_size_bytes": (CostModel, _floats_near(0.0)),
    "bandwidth_bytes_per_s": (CostModel, _floats_near(0.0)),
    "compute_sigma": (CostModel, _floats_near(0.0)),
}
# RunConfig fields that are also [experiment] keys of the same name and meaning.
SHARED = ("iterations", "warmup_iters", "staleness_mode", "init_scale", "data_partition",
          "log_every")
RUN = dict(n_learners=4, iterations=5, lr=0.1, batch_size=4, seed=0)


def _rejection(make) -> str | None:
    try:
        make()
    except ValueError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("name", list(DECLARED))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_ini_and_run_config_share_declared_checks(name, data):
    cls, values = DECLARED[name]
    value = data.draw(values)
    run_error = _rejection(lambda: cls(**{**(RUN if cls is RunConfig else {}), name: value}))
    if run_error is not None:  # led by the field, or by the fields a cross-field check relates
        assert name in run_error.split(": ", 1)[0].split(", "), run_error
    if name in SHARED or name == "lr":
        text = repr(value) if isinstance(value, float) else str(value)
        ini = _ini(_merged(BOUNDARY_BASE, {"experiment": {name: text}}))
        ini_error = _rejection(lambda: parse_config(ini))
        if name == "lr":  # the INI's bound (> 0) is the stricter one
            assert ini_error is not None or run_error is None
        else:
            assert (ini_error is None) == (run_error is None), (ini_error, run_error)


# Generated configs are built field by field, independently of the config
# module's own description of its keys.
BARRIER_STRATEGIES = {Strategy.SPSGD, Strategy.D1D}
AWKWARD = [0.1 + 0.2, 1.0 / 3.0, 5e-324, 2.2250738585072014e-308, 1e-300, 2.0**53 + 2, 1e300,
           1.7976931348623157e308]


def _float_values(low: float, inclusive: bool):
    def ok(x):
        return x >= low if inclusive else x > low

    return st.one_of(
        st.floats(min_value=low, exclude_min=not inclusive, allow_nan=False,
                  allow_infinity=False),
        st.integers(min_value=int(low) + (not inclusive), max_value=10**6),
        st.sampled_from([x for x in AWKWARD if ok(x)]),
    )


@st.composite
def valid_fields(draw) -> dict:
    strategies = draw(st.lists(st.sampled_from(list(Strategy)), min_size=1, unique=True))
    ring = any(s not in BARRIER_STRATEGIES for s in strategies)
    learners = draw(st.lists(st.integers(3 if ring else 1, 64), min_size=1, max_size=4,
                             unique=True))
    batch_mode = draw(st.sampled_from(["total-fixed", "per-learner-fixed"]))
    if batch_mode == "total-fixed":
        batch_size = math.lcm(*learners) * draw(st.integers(1, 50))
    else:
        batch_size = draw(st.integers(1, 10**6))
    kind = draw(st.sampled_from(["quadratic", "logistic"]))
    data_partition = draw(st.sampled_from(["shared", "sharded"]))
    if kind == "quadratic":
        oracle = dict(condition_number=draw(_float_values(1, True)),
                      noise_scale=draw(_float_values(0, True)))
    else:
        # Each sharded learner needs a sample of its own.
        fewest = max(2, *learners) if data_partition == "sharded" else 2
        oracle = dict(n_samples=draw(st.integers(fewest, 10**6)),
                      separation=draw(_float_values(0, True)),
                      ridge=draw(_float_values(0, True)))
    return dict(
        strategies=tuple(strategies),
        learner_counts=tuple(learners),
        iterations=draw(st.integers(1, 10**6)),
        trials=draw(st.integers(1, 1000)),
        master_seed=draw(st.integers(min_value=0)),
        lr=draw(_float_values(0, False)),
        batch_mode=batch_mode,
        batch_size=batch_size,
        warmup_iters=draw(st.integers(0, 10**6)),
        staleness_mode=draw(st.sampled_from(["sync", "async"])),
        init_scale=draw(_float_values(0, True)),
        data_partition=data_partition,
        log_every=draw(st.integers(1, 1000)),
        oracle_kind=kind,
        dimension=draw(st.integers(1, 4096)),
        oracle_seed=draw(st.integers(min_value=0)),
        message_size_mb=draw(_float_values(0, False)),
        bandwidth_gbps=draw(_float_values(0, False)),
        compute_median_s=draw(_float_values(0, False)),
        compute_sigma=draw(_float_values(0, True)),
        straggler_factor=draw(_float_values(0, False)),
        straggler_count=draw(st.integers(0, min(learners))),
        **oracle,
    )


def valid_configs():
    return valid_fields().map(lambda values: ExperimentConfig(**values))


@settings(max_examples=150, deadline=None)
@given(cfg=valid_configs())
def test_echo_round_trip_property(cfg):
    text = echo_config(cfg)
    again = parse_config(text)
    assert again == cfg
    assert echo_config(again) == text


# Each field's section and INI key, written out here rather than read from
# the config module, so that the property below checks the module.
SECTION_FIELDS = {
    "experiment": ("strategies", "learner_counts", "iterations", "trials", "master_seed", "lr",
                   "batch_mode", "batch_size", "warmup_iters", "staleness_mode", "init_scale",
                   "data_partition", "log_every"),
    "oracle": ("oracle_kind", "dimension", "oracle_seed", "condition_number", "noise_scale",
               "n_samples", "separation", "ridge"),
    "cost_model": ("message_size_mb", "bandwidth_gbps", "compute_median_s", "compute_sigma",
                   "straggler_factor", "straggler_count"),
}
RENAMED = {"learner_counts": "learners", "master_seed": "seed", "oracle_kind": "kind",
           "oracle_seed": "seed"}
FIELD_OF = {(section, RENAMED.get(name, name)): name
            for section, names in SECTION_FIELDS.items() for name in names}
OUT_OF_SCOPE = {"quadratic": {"n_samples", "separation", "ridge"},
                "logistic": {"condition_number", "noise_scale"}}


def _value_text(value) -> str:
    if isinstance(value, tuple):
        return ", ".join(_value_text(v) for v in value)
    if isinstance(value, Strategy):
        return value.value
    return repr(value) if isinstance(value, float) else str(value)


def _values_ini(values: dict) -> str:
    """INI text that sets each field of `values` and no other key."""
    return _ini({
        section: {RENAMED.get(name, name): _value_text(values[name])
                  for name in names if name in values}
        for section, names in SECTION_FIELDS.items()
    })


def _out_of_range(op: str, bound, type_):
    if type_ is int:
        return st.integers(-(10**20), bound - (op == ">="))
    below = st.floats(max_value=bound, exclude_max=op == ">=")
    return st.one_of(below, st.sampled_from([math.nan, math.inf, -math.inf]))


@st.composite
def broken(draw, values: dict) -> dict:
    """`values` with one more field, or one more relation between fields,
    set to something an INI file may not hold."""
    v = dict(values)
    kind = v.get("oracle_kind", "quadratic")
    ranges = [(FIELD_OF[s, k], op, bound, type_) for s, k, op, bound, type_, _ in RANGES
              if k != "learners" and FIELD_OF[s, k] not in OUT_OF_SCOPE.get(kind, ())]
    rule = draw(st.sampled_from(["range", "choice", "no_strategies", "duplicate_strategy",
                                 "no_learners", "duplicate_learners", "learners_below_1",
                                 "ring_below_3", "indivisible_total", "stragglers",
                                 "empty_shard"]))
    if rule == "range":
        name, op, bound, type_ = draw(st.sampled_from(ranges))
        v[name] = draw(_out_of_range(op, bound, type_))
    elif rule == "choice":
        section, key, choices = draw(st.sampled_from(CHOICES))
        v[FIELD_OF[section, key]] = draw(
            st.text(string.ascii_letters + "-_", max_size=8).filter(lambda x: x not in choices))
    elif rule == "no_strategies":
        v["strategies"] = ()
    elif rule == "duplicate_strategy":
        v["strategies"] = v["strategies"][:1] * 2 or (Strategy.D1D, Strategy.D1D)
    elif rule == "no_learners":
        v["learner_counts"] = ()
    elif rule == "duplicate_learners":
        v["learner_counts"] += v["learner_counts"][:1] or (4, 4)
    elif rule == "learners_below_1":
        v["learner_counts"] += (draw(st.integers(-(10**6), 0)),)
    elif rule == "ring_below_3":
        if not any(s not in BARRIER_STRATEGIES for s in v["strategies"]):
            v["strategies"] += (Strategy.RAND_PSGD,)
        v["learner_counts"] += (draw(st.integers(1, 2)),)
    elif rule == "indivisible_total":
        count = draw(st.integers(3, 64))
        v["learner_counts"] += (count,)
        v["batch_mode"] = "total-fixed"
        v["batch_size"] = count * draw(st.integers(0, 50)) + draw(st.integers(1, count - 1))
    elif rule == "stragglers":
        v["straggler_count"] = min(v["learner_counts"], default=0) + draw(st.integers(1, 10))
    else:
        # Sharded logistic data with more learners than samples.
        v = {name: x for name, x in v.items() if name not in OUT_OF_SCOPE["logistic"]}
        n_samples = draw(st.integers(2, 64))
        v.update(oracle_kind="logistic", data_partition="sharded", n_samples=n_samples)
        v["learner_counts"] += (n_samples + draw(st.integers(1, 10)),)
    return v


def _outcome(make):
    """What `make()` returns, or the type and message of the ValueError it raises."""
    try:
        return make()
    except ValueError as exc:
        return type(exc), str(exc)


@settings(max_examples=200, deadline=None)
@given(values=valid_fields(), breaks=st.integers(0, 2), data=st.data())
def test_construction_and_parsing_accept_the_same_configs(values, breaks, data):
    for _ in range(breaks):
        values = data.draw(broken(values), label="broken")
    built = _outcome(lambda: ExperimentConfig(**values))
    assert built == _outcome(lambda: parse_config(_values_ini(values)))
    if breaks:
        assert isinstance(built, tuple) and built[0] is ConfigError, built
        return
    assert isinstance(built, ExperimentConfig)
    # CLI overrides are checked like any other construction.
    overrides = {
        "master_seed": data.draw(st.one_of(st.none(), st.integers(-3, 3), st.integers(0))),
        "trials": data.draw(st.one_of(st.none(), st.integers(-3, 3), st.integers(1))),
    }
    given_overrides = {k: v for k, v in overrides.items() if v is not None}
    assert _outcome(lambda: with_overrides(built, **overrides)) == _outcome(
        lambda: ExperimentConfig(**{**values, **given_overrides}))


def test_echo_of_integer_valued_float_fields():
    cfg = ExperimentConfig(
        strategies=(Strategy.SPSGD,), learner_counts=(2,), iterations=3, trials=1,
        master_seed=0, lr=1, batch_mode="per-learner-fixed", batch_size=4, init_scale=0,
        oracle_kind="logistic", separation=3, ridge=0, message_size_mb=100, compute_sigma=0,
    )
    text = echo_config(cfg)
    for line in ("lr = 1.0", "init_scale = 0.0", "separation = 3.0", "ridge = 0.0",
                 "message_size_mb = 100.0", "compute_sigma = 0.0"):
        assert line in text.splitlines()
    assert parse_config(text) == cfg
    assert echo_config(parse_config(text)) == text


def _documented(block: str):
    """(section, key, value, comment) of each `key = value ; comment` line."""
    section = None
    for line in (raw.strip() for raw in block.splitlines()):
        if line.startswith("["):
            section = line.strip("[]")
        elif "=" in line and not line.startswith(";"):
            entry, _, comment = line.partition(";")
            key, _, value = entry.partition("=")
            yield section, key.strip(), value.strip(), comment


def _readme_block() -> str:
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    return readme.split("## Configuration format", 1)[1].split("```ini", 1)[1].split("```", 1)[0]


def _docstring_block() -> str:
    doc = config_module.__doc__
    return doc[doc.index("[experiment]"):doc.index("Unknown sections")]


MINIMAL_SECTIONS = {
    "experiment": dict(line.split(" = ") for line in MINIMAL.strip().splitlines()[1:]),
}
MINIMAL_FIELDS = dict(
    strategies=(Strategy.DPSGD_FIXED, Strategy.D1D), learner_counts=(8, 16), iterations=50,
    trials=3, master_seed=42, lr=0.05, batch_mode="total-fixed", batch_size=64,
)


@pytest.mark.parametrize("block", [_readme_block, _docstring_block], ids=["readme", "docstring"])
def test_documented_defaults_equal_field_defaults(block):
    entries = list(_documented(block()))
    echoed = set()
    for kind in ("quadratic", "logistic"):
        echo = echo_config(ExperimentConfig(**MINIMAL_FIELDS, oracle_kind=kind))
        echoed |= {(section, key) for section, key, _, _ in _documented(echo)}
    assert {(section, key) for section, key, _, _ in entries} == echoed
    for section, key, value, comment in entries:
        if "required" in comment:
            continue
        kind = "logistic" if "logistic only" in comment else "quadratic"
        text = _ini(_merged(MINIMAL_SECTIONS, {"oracle": {"kind": kind}}, {section: {key: value}}))
        defaults = ExperimentConfig(**MINIMAL_FIELDS, oracle_kind=kind)
        assert parse_config(text) == defaults, f"[{section}] {key} = {value}"
