"""Tracer that records spans around ringmix's public functions from outside
the package, without editing it.

`Tracer.install()` wraps each public module-level function and each public
method of a class defined in a ringmix module, and rebinds the wrapper at
every site that holds the original: the defining module, every other module
that imported it by name (``simulation.apply_mixing``,
``harness.run_training``, ``cli.parse_config``, the package namespace) and
module-level dicts that store it (``simulation._STEP_FUNCTIONS``).  Calls
reached through a module attribute (``seeding.stream``) see the wrapper
because the attribute itself is rebound.  `Tracer.uninstall()` puts every
original back; `unrestored()` lists any site that still holds a wrapper.

A span is (name, start, end, parent, task): integer nanoseconds from
`time.perf_counter_ns`, the index of the enclosing span (-1 for a task
root) and the id of the benchmark task it belongs to.  Spans stay in memory
as compact arrays until `analyse` folds them into per-name self times.
"""

from __future__ import annotations

import functools
import inspect
import sys
from array import array
from dataclasses import dataclass
from time import perf_counter_ns

import numpy as np

TASK = "task"

# Layers of the trace, in the order the metrics report them.
LAYERS = ("seeding", "objectives", "mixing", "spectral", "simulation", "config", "harness", "cli")


def ringmix_modules() -> dict[str, object]:
    """The imported `ringmix` package and its layer modules, by short name."""
    mods = {"ringmix": sys.modules["ringmix"]}
    for layer in LAYERS:
        mods[layer] = sys.modules[f"ringmix.{layer}"]
    return mods


def traced_callables() -> dict[int, tuple[str, object, str, object]]:
    """id(original) -> (span name, owner, attribute, original) for every wrapped callable.

    Owner is the defining module for functions and the class for methods;
    methods are named by module and method (`objectives.loss`) so that the
    quadratic and logistic oracles share one span name.
    """
    found = {}
    for layer in LAYERS:
        mod = sys.modules[f"ringmix.{layer}"]
        for attr, obj in vars(mod).items():
            if attr.startswith("_"):
                continue
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                found[id(obj)] = (f"{layer}.{attr}", mod, attr, obj)
            elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                for m_attr, m_obj in vars(obj).items():
                    if not m_attr.startswith("_") and inspect.isfunction(m_obj):
                        found[id(m_obj)] = (f"{layer}.{m_attr}", obj, m_attr, m_obj)
    return found


class Tracer:
    """Span recorder that patches ringmix from outside and restores it."""

    def __init__(self):
        self.names = [TASK]
        self._name_ids = {TASK: 0}
        self.name_of = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.task = array("i")
        self._stack = [-1]
        self._task_id = -1
        self._patches: list[tuple[object, object, object, bool]] = []

    # -- recording -------------------------------------------------------

    def _open(self, name_id: int) -> int:
        idx = len(self.name_of)
        self.name_of.append(name_id)
        self.start.append(0)
        self.end.append(0)
        self.parent.append(self._stack[-1])
        self.task.append(self._task_id)
        self._stack.append(idx)
        return idx

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, fn, name: str):
        name_id = self._name_id(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open(name_id)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                tracer._stack.pop()
                tracer.start[idx] = t0
                tracer.end[idx] = t1

        wrapper.__perfbench_wrapped__ = fn
        return wrapper

    def run_task(self, task_id: int, fn, *args):
        """Call fn(*args) as the root span of task `task_id`; returns its result."""
        if len(self._stack) != 1:
            raise RuntimeError("tasks do not nest")
        self._task_id = task_id
        idx = self._open(0)
        t0 = perf_counter_ns()
        try:
            return fn(*args)
        finally:
            t1 = perf_counter_ns()
            self._stack.pop()
            self.start[idx] = t0
            self.end[idx] = t1
            self._task_id = -1

    # -- patching --------------------------------------------------------

    def install(self) -> None:
        """Rebind a span-recording wrapper at every site holding a traced callable."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        targets = traced_callables()
        wrappers = {key: self._wrap(orig, name) for key, (name, _, _, orig) in targets.items()}

        def wrapper_for(value):
            hit = targets.get(id(value))
            return wrappers[id(value)] if hit is not None and hit[3] is value else None

        for _, owner, attr, orig in targets.values():
            if inspect.isclass(owner):
                self._set(owner, attr, orig, wrappers[id(orig)], is_attr=True)
        for mod in ringmix_modules().values():
            for attr, value in list(vars(mod).items()):
                if wrapper_for(value) is not None:
                    self._set(mod, attr, value, wrapper_for(value), is_attr=True)
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if wrapper_for(item) is not None:
                            self._set(value, key, item, wrapper_for(item), is_attr=False)

    def _set(self, container, key, original, replacement, is_attr: bool) -> None:
        if is_attr:
            setattr(container, key, replacement)
        else:
            container[key] = replacement
        self._patches.append((container, key, original, is_attr))

    def uninstall(self) -> None:
        """Put every original back, in reverse order of patching."""
        while self._patches:
            container, key, original, is_attr = self._patches.pop()
            if is_attr:
                setattr(container, key, original)
            else:
                container[key] = original

    @property
    def patch_count(self) -> int:
        return len(self._patches)

    # -- analysis --------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        """The recorded spans as numpy arrays (the form written to disk).

        The arrays are views of the recording buffers, which cannot grow
        while a view is alive: take them when recording is over."""
        return {
            "name": np.frombuffer(self.name_of, dtype=np.uint16),
            "start": np.frombuffer(self.start, dtype=np.int64),
            "end": np.frombuffer(self.end, dtype=np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "task": np.frombuffer(self.task, dtype=np.int32),
            "names": np.array(self.names),
        }


def save(tracer: Tracer, path) -> None:
    """Write the recorded spans, one array per field, to a compressed .npz."""
    np.savez_compressed(path, **tracer.arrays())


def unrestored() -> list[str]:
    """Binding sites in ringmix that still hold a tracer wrapper."""
    left = []
    for short, mod in ringmix_modules().items():
        for attr, value in vars(mod).items():
            if hasattr(value, "__perfbench_wrapped__"):
                left.append(f"{short}.{attr}")
            elif isinstance(value, dict):
                left += [
                    f"{short}.{attr}[{key!r}]"
                    for key, item in value.items()
                    if hasattr(item, "__perfbench_wrapped__")
                ]
            elif inspect.isclass(value) and value.__module__ == mod.__name__:
                left += [
                    f"{short}.{attr}.{m}"
                    for m, item in vars(value).items()
                    if hasattr(item, "__perfbench_wrapped__")
                ]
    return left


@dataclass(frozen=True)
class SpanTotals:
    """Per-name aggregates of a span set; times in integer nanoseconds."""

    names: tuple[str, ...]
    calls: np.ndarray      # spans per name
    self_ns: np.ndarray    # sum over spans of duration minus children's coverage
    total_ns: np.ndarray   # sum over spans of duration
    task_ns: int           # sum of task-root durations

    def get(self, name: str, field: str) -> int:
        """`field` (calls, self_ns or total_ns) of span `name`; 0 if it never ran."""
        if name not in self.names:
            return 0
        return int(getattr(self, field)[self.names.index(name)])


def analyse(spans: dict[str, np.ndarray]) -> SpanTotals:
    """Self and inclusive times per span name.

    A span's self time is its duration minus the time its children cover.
    Spans come from single-threaded nested calls, so children lie inside
    their parent and do not overlap one another; both conditions are
    checked, and then the covered time is the sum of the children's
    durations.
    """
    name, start, end, parent = spans["name"], spans["start"], spans["end"], spans["parent"]
    names = tuple(str(n) for n in spans["names"])
    dur = end - start
    if np.any(dur < 0):
        raise ValueError("span ends before it starts")
    child = np.flatnonzero(parent >= 0)
    p = parent[child]
    if np.any(start[child] < start[p]) or np.any(end[child] > end[p]):
        raise ValueError("child span outside its parent")
    order = child[np.lexsort((start[child], p))]
    same_parent = parent[order[1:]] == parent[order[:-1]]
    if np.any(start[order[1:]][same_parent] < end[order[:-1]][same_parent]):
        raise ValueError("sibling spans overlap")
    covered = np.zeros(len(dur), dtype=np.int64)
    np.add.at(covered, p, dur[child])
    self_ns = dur - covered
    n = len(names)
    roots = parent < 0
    if np.any(name[roots] != 0):
        raise ValueError("root span is not a task")
    return SpanTotals(
        names=names,
        calls=np.bincount(name, minlength=n),
        self_ns=_sum_by(name, self_ns, n),
        total_ns=_sum_by(name, dur, n),
        task_ns=int(dur[roots].sum()),
    )


def _sum_by(keys: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    out = np.zeros(n, dtype=np.int64)
    np.add.at(out, keys, values)
    return out
