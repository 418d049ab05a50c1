"""Experiment configuration: INI-style parsing, validation, canonical echo.

Grammar (stdlib configparser, no interpolation): three sections, all
keys lowercase, `key = value` pairs, `#`/`;` comments.

    [experiment]
    strategies = adpsgd_fixed, rand_psgd, d1d   ; required
    learners = 16, 32                           ; required
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
apply to the chosen oracle kind.  `parse_config(echo_config(cfg))`
returns an equal config: floats are echoed via repr, which round-trips
exactly.
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


def _parse_strategies(raw: str) -> tuple[Strategy, ...]:
    out = []
    for part in (p.strip() for p in raw.split(",")):
        if not part:
            continue
        try:
            out.append(Strategy(part))
        except ValueError:
            valid = ", ".join(s.value for s in Strategy)
            raise ConfigError(
                f"[experiment] strategies: unknown strategy {part!r} (valid: {valid})"
            ) from None
    if not out:
        raise ConfigError("[experiment] strategies: expected at least one strategy")
    if len(set(out)) != len(out):
        raise ConfigError("[experiment] strategies: duplicate strategy")
    return tuple(out)


def _parse_learners(raw: str) -> tuple[int, ...]:
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    if not parts:
        raise ConfigError("[experiment] learners: expected a comma-separated list")
    return tuple(_convert("experiment", "learners", p, int) for p in parts)


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
    strategies: tuple[Strategy, ...] = _key("experiment", parse=_parse_strategies)
    learner_counts: tuple[int, ...] = _key("experiment", key="learners", parse=_parse_learners)
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
    failure = _check_failure(value, entry.field.metadata["check"])
    if failure:
        raise ConfigError(f"[{entry.section}] {entry.key}: {failure}")


def _entries(oracle_kind: str) -> list[_Entry]:
    return [e for e in _FIELDS if e.field.metadata["scope"] in (None, oracle_kind)]


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate configuration text.  Raises ConfigError."""
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
    _check(_KIND, kind)
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
    cfg = ExperimentConfig(**values)
    validate_config(cfg)
    return cfg


def validate_config(cfg: ExperimentConfig) -> None:
    """Range and consistency checks; raises ConfigError naming the field."""
    for e in _entries(cfg.oracle_kind):
        _check(e, getattr(cfg, e.field.name))
    if not cfg.learner_counts:
        raise ConfigError("[experiment] learners: expected at least one count")
    needs_ring = any(s.uses_ring for s in cfg.strategies)
    for L in cfg.learner_counts:
        if L < 1:
            raise ConfigError(f"[experiment] learners: must be >= 1, got {L}")
        if needs_ring and L < 3:
            raise ConfigError(f"[experiment] learners: ring strategies need >= 3 learners, got {L}")
        # With batch_size >= 1, a divisible total leaves each learner a sample.
        if cfg.batch_mode == "total-fixed" and cfg.batch_size % L != 0:
            raise ConfigError(
                f"[experiment] batch_size: total-fixed size {cfg.batch_size} "
                f"not divisible by learners={L}"
            )
        if cfg.straggler_count > L:
            raise ConfigError(
                f"[cost_model] straggler_count: {cfg.straggler_count} exceeds learners={L}"
            )


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
    updates = {}
    if master_seed is not None:
        updates["master_seed"] = master_seed
    if trials is not None:
        updates["trials"] = trials
    if not updates:
        return cfg
    out = replace(cfg, **updates)
    validate_config(out)
    return out
