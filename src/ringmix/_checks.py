"""The one rule for a declared argument: its kind, then its range or
choices, then a float's finiteness.  Every layer checks through it, so
this module imports only numpy and the standard library."""

import math
import operator
import sys
from dataclasses import MISSING, field, fields

import numpy as np

_PASSES = {">=": operator.ge, ">": operator.gt}  # op(value, bound) must hold; NaN never does


def _checked(default=MISSING, check=None, **metadata):
    """A dataclass field whose value must pass `check`: ">= bound", "> bound",
    a tuple of choices or None (none).  Extra metadata rides along."""
    return field(default=default, metadata={"check": check, **metadata})


_KINDS = {int: (int, np.integer), float: (int, float, np.integer, np.floating)}


def _check_failure(value, check, kind: type) -> str | None:
    """Why `value` fails as a `kind` with `check`, or None: its kind (the `_KINDS`
    types, a bool never), then `check`, then a float's finiteness (a huge int too)."""
    if isinstance(value, bool) or not isinstance(value, _KINDS.get(kind, kind)):
        return f"expected {kind.__name__}, got {value!r}"
    if isinstance(check, tuple) and value not in check:
        return f"expected {'|'.join(check)}, got {value!r}"
    if isinstance(check, str):
        op, bound = check.split()
        if not _PASSES[op](value, float(bound)):
            return f"must be {check}"
    # abs(int) <= max is exact; a numpy float32 compared with max would warn.
    if kind is float and not (abs(value) <= sys.float_info.max if isinstance(value, int)
                              else math.isfinite(value)):
        return "must be finite"
    return None


def _require(name: str, value, check, kind: type, error: type = ValueError):
    """`value`, a numpy scalar as its Python equal (so no int8 reaches a run);
    raise `error`, led by `name`, when it fails `_check_failure`."""
    failure = _check_failure(value, check, kind)
    if failure:
        raise error(f"{name}: {failure}")
    return value.item() if isinstance(value, np.generic) else value


def _check_fields(obj) -> None:
    """Hold each `_checked` field of the dataclass `obj`, checked as its type, as
    `_require` returns it.  Annotations here are types, not postponed strings
    (`f.type`); np.random's are quoted so that importing does not load it."""
    for f in fields(obj):
        if "check" in f.metadata:
            value = _require(f.name, getattr(obj, f.name), f.metadata["check"], f.type)
            object.__setattr__(obj, f.name, value)
