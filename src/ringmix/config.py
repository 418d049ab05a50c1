"""Experiment configuration: INI-style parsing, canonical echo, and the
checks every `ExperimentConfig` passes when it is constructed.

Grammar (stdlib configparser, no interpolation): three sections, all
keys lowercase, `key = value` pairs, `#`/`;` comments.

    [experiment]
    strategies = adpsgd_fixed, rand_psgd, d1d   ; required
    learners = 16, 32                           ; required; distinct counts
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
    n_samples = 512                             ; logistic only
    separation = 2.0                            ; logistic only
    ridge = 0.0001                              ; logistic only

    [cost_model]
    message_size_mb = 165.0
    bandwidth_gbps = 25.0
    compute_median_s = 0.1
    compute_sigma = 0.1
    straggler_factor = 1.0
    straggler_count = 0

Unknown sections or keys are rejected by name, as are keys that do not
apply to the chosen oracle kind.  Type, range and cross-field checks run
when an `ExperimentConfig` is constructed, so a parsed, overridden,
`replace`d or hand-built config has passed the same checks as an INI
file, and `parse_config(echo_config(cfg))` returns an equal config:
floats are echoed via repr, which round-trips exactly.
"""

from __future__ import annotations

import configparser
import io
import typing
from dataclasses import MISSING, Field, dataclass, fields, replace

from .objectives import LOGISTIC_RIDGE, ORACLES
from .simulation import RunConfig, Strategy, _check_failure, _checked


class ConfigError(ValueError):
    """Invalid experiment configuration; message names the offending field."""


def _strategy(name: str) -> Strategy:
    try:
        return Strategy(name)
    except ValueError:
        valid = ", ".join(s.value for s in Strategy)
        raise ConfigError(
            f"[experiment] strategies: unknown strategy {name!r} (valid: {valid})"
        ) from None


def _parse_list(convert):
    """Parser of a comma-separated list; empty items are skipped."""
    return lambda raw: tuple(convert(p.strip()) for p in raw.split(",") if p.strip())


def _key(section: str, default=MISSING, *, key=None, check=None, scope=None, parse=None,
         run=None):
    """A config field: `check` is ">= bound", "> bound" or a tuple of choices;
    `scope` is the oracle kind the key applies to (None: every kind).  With
    `run`, the value sets that RunConfig field as is, and the default and
    check are that field's."""
    if run:
        shared = RunConfig.__dataclass_fields__[run]
        default, check = shared.default, shared.metadata["check"]
    return _checked(default, check, section=section, key=key, scope=scope, parse=parse, run=run)


@dataclass(frozen=True)
class ExperimentConfig:
    strategies: tuple[Strategy, ...] = _key("experiment", parse=_parse_list(_strategy))
    learner_counts: tuple[int, ...] = _key(
        "experiment", key="learners",
        parse=_parse_list(lambda p: _convert("experiment", "learners", p, int)),
    )
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
    condition_number: float = _key("oracle", 10.0, check=">= 1", scope="quadratic")
    noise_scale: float = _key("oracle", 1.0, check=">= 0", scope="quadratic")
    n_samples: int = _key("oracle", 512, check=">= 2", scope="logistic")
    separation: float = _key("oracle", 2.0, check=">= 0", scope="logistic")
    ridge: float = _key("oracle", LOGISTIC_RIDGE, check=">= 0", scope="logistic")
    message_size_mb: float = _key("cost_model", 165.0, check="> 0")
    bandwidth_gbps: float = _key("cost_model", 25.0, check="> 0")
    compute_median_s: float = _key("cost_model", 0.1, check="> 0")
    compute_sigma: float = _key("cost_model", 0.1, check=">= 0")
    straggler_factor: float = _key("cost_model", 1.0, check="> 0")
    straggler_count: int = _key("cost_model", 0, check=">= 0")

    def __post_init__(self):
        """The INI's checks, naming the field: each in-scope field's type and
        declared check in declaration order, then the cross-field checks."""
        for e in _entries(self.oracle_kind):
            _check(e, getattr(self, e.field.name))
        if not self.strategies:
            raise ConfigError("[experiment] strategies: expected at least one strategy")
        if len(set(self.strategies)) != len(self.strategies):
            raise ConfigError("[experiment] strategies: duplicate strategy")
        if not self.learner_counts:
            raise ConfigError("[experiment] learners: expected at least one count")
        if len(set(self.learner_counts)) != len(self.learner_counts):
            raise ConfigError("[experiment] learners: duplicate count")
        needs_ring = any(s.uses_ring for s in self.strategies)
        for L in self.learner_counts:
            if L < 1:
                raise ConfigError(f"[experiment] learners: must be >= 1, got {L}")
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

    def per_learner_batch(self, n_learners: int) -> int:
        if self.batch_mode == "per-learner-fixed":
            return self.batch_size
        return self.batch_size // n_learners


class _Entry(typing.NamedTuple):
    field: Field
    section: str
    key: str
    type: type


# One entry per field in declaration order, which is also the echo order.
_FIELDS = tuple(
    _Entry(f, f.metadata["section"], f.metadata["key"] or f.name, kind)
    for f, kind in zip(fields(ExperimentConfig), typing.get_type_hints(ExperimentConfig).values())
)
_KIND = next(e for e in _FIELDS if e.field.name == "oracle_kind")
_SECTIONS = ("experiment", "oracle", "cost_model")


def _convert(section: str, key: str, raw: str, kind):
    try:
        return kind(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key}: expected {kind.__name__}, got {raw!r}") from None


def _check(entry: _Entry, value) -> None:
    """Raise unless `value` has the field's type, as a parsed value does (an int
    may stand for a float, a bool for neither), and passes its declared check."""
    kind, items = entry.type, (value,)
    if typing.get_origin(kind) is tuple and isinstance(value, tuple):
        kind, items = typing.get_args(kind)[0], value
    kind = typing.get_origin(kind) or kind  # a tuple field holding a non-tuple
    for v in items:
        if isinstance(v, bool) or not isinstance(v, (int, float) if kind is float else kind):
            raise ConfigError(f"[{entry.section}] {entry.key}: expected {kind.__name__}, got {v!r}")
    failure = _check_failure(value, entry.field.metadata["check"])
    if failure:
        raise ConfigError(f"[{entry.section}] {entry.key}: {failure}")


def _entries(oracle_kind: str) -> list[_Entry]:
    """The fields whose keys apply to `oracle_kind`, which must be valid."""
    _check(_KIND, oracle_kind)
    return [e for e in _FIELDS if e.field.metadata["scope"] in (None, oracle_kind)]


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
            v, parse = raw[e.section][e.key], e.field.metadata["parse"]
            values[e.field.name] = parse(v) if parse else _convert(e.section, e.key, v, e.type)
        elif e.field.default is MISSING:
            raise ConfigError(f"[{e.section}] missing required key {e.key!r}")
    return ExperimentConfig(**values)


def _text(value, type_) -> str:
    if type_ is float:
        return repr(float(value))
    if isinstance(value, tuple):
        return ", ".join(_text(v, None) for v in value)
    return value.value if isinstance(value, Strategy) else str(value)


def echo_config(cfg: ExperimentConfig) -> str:
    """Canonical text for a config: parse(echo(cfg)) == cfg, byte-stable."""
    entries, lines = _entries(cfg.oracle_kind), []
    for section in _SECTIONS:
        lines.append(f"[{section}]")
        lines += [
            f"{e.key} = {_text(getattr(cfg, e.field.name), e.type)}"
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
