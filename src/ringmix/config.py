"""Experiment configuration: INI-style parsing, canonical echo, and the
checks every `ExperimentConfig` passes when it is constructed.

Grammar (stdlib configparser, no interpolation): three sections, all
keys lowercase, `key = value` pairs, `#`/`;` comments.

    [experiment]
    strategies = adpsgd_fixed, rand_psgd, d1d   ; required
    learners = 16, 32                           ; required; distinct counts, each >= 1
    iterations = 500                            ; required
    trials = 8                                  ; required
    seed = 1234                                 ; required
    lr = 0.01                                   ; required
    batch_mode = total-fixed                    ; required: total-fixed | per-learner-fixed
    batch_size = 8192                           ; required
    warmup_iters = 0
    staleness_mode = async                      ; sync | async (rand_psgd only)
    init_scale = 1.0
    data_partition = shared                     ; shared | sharded
    log_every = 1

    [oracle]
    kind = quadratic                            ; quadratic | logistic
    dimension = 16
    seed = 0
    condition_number = 10.0                     ; quadratic only
    noise_scale = 1.0                           ; quadratic only
    n_samples = 512                             ; logistic only; >= sharded learners
    separation = 2.0                            ; logistic only
    ridge = 0.0001                              ; logistic only

    [cost_model]
    message_size_mb = 165.0
    bandwidth_gbps = 25.0
    compute_median_s = 0.1
    compute_sigma = 0.1
    straggler_factor = 1.0
    straggler_count = 0

Unknown sections or keys are rejected by name, as are [oracle] keys that the
chosen kind's factory in `objectives.ORACLES` does not take, whose fields
keep their defaults.  A tuple field is a comma-separated list of its item
type, and its declared check holds for each item.  Each value passes the rule
that every checked argument of the library shares (`_checks._check_failure`):
its kind (numpy scalars pass, a bool never; an int may stand for a float),
then its range or choices, then a float's finiteness.  This and the
cross-field checks run when an `ExperimentConfig` is constructed, so a
parsed, overridden, `replace`d or hand-built config has passed the same
checks as an INI file, and `parse_config(echo_config(cfg))` returns an equal
config: floats are echoed via repr, which round-trips exactly.
"""

from __future__ import annotations

import configparser
import inspect
import io
import typing
from dataclasses import MISSING, Field, dataclass, fields, replace

from ._checks import _check_failure, _checked, _require
from .objectives import LOGISTIC_RIDGE, ORACLES
from .simulation import RunConfig, Strategy


class ConfigError(ValueError):
    """Invalid experiment configuration; message names the offending field."""


def _key(section: str, default=MISSING, *, key=None, check=None, run=None):
    """A config field: `check` is ">= bound", "> bound" or a tuple of choices,
    and holds for each item of a tuple field.  With `run`, the value sets
    that RunConfig field as is, and the default and check are that field's."""
    if run:
        shared = RunConfig.__dataclass_fields__[run]
        default, check = shared.default, shared.metadata["check"]
    return _checked(default, check, section=section, key=key, run=run)


@dataclass(frozen=True)
class ExperimentConfig:
    strategies: tuple[Strategy, ...] = _key("experiment")
    learner_counts: tuple[int, ...] = _key("experiment", key="learners", check=">= 1")
    iterations: int = _key("experiment", run="iterations")
    trials: int = _key("experiment", check=">= 1")
    master_seed: int = _key("experiment", key="seed", check=">= 0")
    lr: float = _key("experiment", check="> 0")
    batch_mode: str = _key("experiment", check=("total-fixed", "per-learner-fixed"))
    batch_size: int = _key("experiment", check=">= 1")
    warmup_iters: int = _key("experiment", run="warmup_iters")
    staleness_mode: str = _key("experiment", run="staleness_mode")
    init_scale: float = _key("experiment", run="init_scale")
    data_partition: str = _key("experiment", run="data_partition")
    log_every: int = _key("experiment", run="log_every")
    oracle_kind: str = _key("oracle", "quadratic", key="kind", check=tuple(ORACLES))
    dimension: int = _key("oracle", 16, check=">= 1")
    oracle_seed: int = _key("oracle", 0, key="seed", check=">= 0")
    condition_number: float = _key("oracle", 10.0, check=">= 1")
    noise_scale: float = _key("oracle", 1.0, check=">= 0")
    n_samples: int = _key("oracle", 512, check=">= 2")
    separation: float = _key("oracle", 2.0, check=">= 0")
    ridge: float = _key("oracle", LOGISTIC_RIDGE, check=">= 0")
    message_size_mb: float = _key("cost_model", 165.0, check="> 0")
    bandwidth_gbps: float = _key("cost_model", 25.0, check="> 0")
    compute_median_s: float = _key("cost_model", 0.1, check="> 0")
    compute_sigma: float = _key("cost_model", 0.1, check=">= 0")
    straggler_factor: float = _key("cost_model", 1.0, check="> 0")
    straggler_count: int = _key("cost_model", 0, check=">= 0")

    def __post_init__(self):
        """The INI's checks, naming the field: each in-scope field's type and declared check in
        order (a numpy scalar is then held as Python's), others' defaults, then cross-field ones."""
        entries = _entries(self.oracle_kind)
        for e in entries:
            object.__setattr__(self, e.field.name, _check(e, getattr(self, e.field.name)))
        for e in _FIELDS:  # echo leaves an out-of-scope field out, so it must hold its default
            if e not in entries and getattr(self, e.field.name) != e.field.default:
                raise ConfigError(f"[oracle] {e.key}: does not apply to kind {self.oracle_kind!r}")
        if not self.strategies:
            raise ConfigError("[experiment] strategies: expected at least one strategy")
        if len(set(self.strategies)) != len(self.strategies):
            raise ConfigError("[experiment] strategies: duplicate strategy")
        if not self.learner_counts:
            raise ConfigError("[experiment] learners: expected at least one count")
        if len(set(self.learner_counts)) != len(self.learner_counts):
            raise ConfigError("[experiment] learners: duplicate count")
        needs_ring = any(s.uses_ring for s in self.strategies)
        sharded = self.oracle_kind == "logistic" and self.data_partition == "sharded"
        for L in self.learner_counts:
            if needs_ring and L < 3:
                raise ConfigError(
                    f"[experiment] learners: ring strategies need >= 3 learners, got {L}"
                )
            # With batch_size >= 1, a divisible total leaves each learner a sample.
            if self.batch_mode == "total-fixed" and self.batch_size % L != 0:
                raise ConfigError(
                    f"[experiment] batch_size: total-fixed size {self.batch_size} "
                    f"not divisible by learners={L}"
                )
            if self.straggler_count > L:
                raise ConfigError(
                    f"[cost_model] straggler_count: {self.straggler_count} exceeds learners={L}"
                )
            if sharded and L > self.n_samples:  # else a learner's shard holds no sample
                raise ConfigError(f"[experiment] learners: sharded data needs learners <= "
                                  f"n_samples={self.n_samples}, got {L}")

    def per_learner_batch(self, n_learners: int) -> int:
        if self.batch_mode == "per-learner-fixed":
            return self.batch_size
        return self.batch_size // n_learners


class _Entry(typing.NamedTuple):
    field: Field
    section: str
    key: str
    type: type    # of the value, or of each item when `listed`
    listed: bool  # a tuple field: in the INI, a comma-separated list

    def items(self, value) -> tuple:
        return value if self.listed else (value,)


def _entry(f: Field, hint) -> _Entry:
    listed = typing.get_origin(hint) is tuple
    item = typing.get_args(hint)[0] if listed else hint
    return _Entry(f, f.metadata["section"], f.metadata["key"] or f.name, item, listed)


# One entry per field in declaration order, which is also the echo order.
_FIELDS = tuple(map(_entry, fields(ExperimentConfig),
                    typing.get_type_hints(ExperimentConfig).values()))
_KIND = next(e for e in _FIELDS if e.field.name == "oracle_kind")
_SECTIONS = ("experiment", "oracle", "cost_model")
# An [oracle] key applies to a kind when that kind's factory takes it.
_ORACLE_KEYS = {k: {_KIND.key, *inspect.signature(f).parameters} for k, f in ORACLES.items()}


def _convert(e: _Entry, raw: str):
    """`raw` read as the field's value: for a tuple field, a comma-separated
    list of its item type, empty items skipped."""
    def read(item: str):
        try:
            return e.type(item)
        except ValueError:
            valid = ", ".join(s.value for s in Strategy)
            why = (f"unknown strategy {item!r} (valid: {valid})" if e.type is Strategy
                   else _check_failure(item, None, e.type))  # expected <type>, got <item>
            raise ConfigError(f"[{e.section}] {e.key}: {why}") from None

    return tuple(read(p.strip()) for p in raw.split(",") if p.strip()) if e.listed else read(raw)


def _check(e: _Entry, value):
    """`value` as `_checks._require` returns each item (of a tuple field) for
    the field's type and declared check; raise ConfigError at the first that fails."""
    if e.listed and not isinstance(value, tuple):
        raise ConfigError(f"[{e.section}] {e.key}: expected tuple, got {value!r}")
    items = tuple(_require(f"[{e.section}] {e.key}", v, e.field.metadata["check"], e.type,
                           ConfigError) for v in e.items(value))
    return items if e.listed else items[0]


def _entries(oracle_kind: str) -> list[_Entry]:
    """The fields whose keys apply to `oracle_kind`, which must be valid."""
    _check(_KIND, oracle_kind)
    return [e for e in _FIELDS if e.section != "oracle" or e.key in _ORACLE_KEYS[oracle_kind]]


def parse_config(text: str) -> ExperimentConfig:
    """Parse configuration text into a config, which checks itself.  Raises ConfigError."""
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=(";", "#"))
    try:
        parser.read_file(io.StringIO(text))
    except configparser.Error as exc:
        raise ConfigError(f"config syntax error: {exc}") from None

    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}]")
    if not parser.has_section("experiment"):
        raise ConfigError("missing required section [experiment]")
    raw = {s: dict(parser[s]) if parser.has_section(s) else {} for s in _SECTIONS}

    kind = raw["oracle"].get("kind", ExperimentConfig.oracle_kind)
    entries = _entries(kind)
    known = {(e.section, e.key) for e in entries}
    for section, table in raw.items():
        for key in table:
            if (section, key) not in known:
                scope = f" for kind {kind!r}" if section == "oracle" else ""
                raise ConfigError(f"[{section}] unknown key {key!r}{scope}")

    values = {}
    for e in entries:
        if e.key in raw[e.section]:
            values[e.field.name] = _convert(e, raw[e.section][e.key])
        elif e.field.default is MISSING:
            raise ConfigError(f"[{e.section}] missing required key {e.key!r}")
    return ExperimentConfig(**values)


def _text(e: _Entry, value) -> str:
    """A field's value as INI text, which `_convert` reads back."""
    text = {float: lambda v: repr(float(v)), Strategy: lambda v: v.value}.get(e.type, str)
    return ", ".join(map(text, e.items(value)))


def echo_config(cfg: ExperimentConfig) -> str:
    """Canonical text for a config: parse(echo(cfg)) == cfg, byte-stable."""
    entries, lines = _entries(cfg.oracle_kind), []
    for section in _SECTIONS:
        lines.append(f"[{section}]")
        lines += [
            f"{e.key} = {_text(e, getattr(cfg, e.field.name))}"
            for e in entries
            if e.section == section
        ]
        lines.append("")
    return "\n".join(lines)


def with_overrides(
    cfg: ExperimentConfig, master_seed: int | None = None, trials: int | None = None
) -> ExperimentConfig:
    """Config with CLI-level overrides applied (None keeps the file's value)."""
    overrides = dict(master_seed=master_seed, trials=trials)
    updates = {k: v for k, v in overrides.items() if v is not None}
    return replace(cfg, **updates) if updates else cfg
