"""Tests of the benchmark itself (not part of the repository's test suite).

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import reference

reference.pin_threads()

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(reference.ROOT / "src"))

import ringmix  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from ringmix import cli, config, harness, seeding, simulation, spectral  # noqa: E402

# One cheap task per workload, and per kind of consensus task.
CHEAP_KEYS = {
    "train-ring-L32": ["s0/rand_psgd"],
    "consensus-mc": ["fixed/L8", "frobenius/L8/t0", "spectral/L8/t1"],
    "sweep-logistic": ["v0"],
}


def _take(iterator, n):
    return [next(iterator) for _ in range(n)]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_schedule_is_pure_in_the_seed_and_stays_in_the_reference_pool(name):
    wl = workloads.WORKLOADS[name]
    first = _take(wl.schedule(7), 300)
    assert first == _take(wl.schedule(7), 300)
    assert first != _take(wl.schedule(8), 300)
    pool = set(wl.keys())
    assert set(first) <= pool
    assert set(reference.load()["digests"][name]) == pool


def test_sweep_inputs_are_pure_and_have_the_intended_shape():
    wl = workloads.WORKLOADS["sweep-logistic"]
    for v in range(wl.variants):
        assert wl.ini_text(v) == wl.ini_text(v)
        cfg = config.parse_config(wl.ini_text(v))
        assert cfg.oracle_kind == "logistic" and cfg.dimension == 16 and cfg.n_samples == 512
        assert cfg.data_partition == "sharded" and cfg.staleness_mode == "sync"
        assert len(cfg.strategies) == 5 and cfg.learner_counts == (4, 16)
        assert (cfg.straggler_count, cfg.straggler_factor, cfg.log_every) == (1, 10.0, 1)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_and_untraced_runs_give_the_reference_digest(name, tmp_path):
    wl = workloads.WORKLOADS[name]
    ctx = wl.setup(tmp_path)
    digests = reference.load()["digests"][name]
    tr = tracer.Tracer()
    for task_id, key in enumerate(CHEAP_KEYS[name]):
        plain = wl.check(ctx, key, wl.run(ctx, key))
        tr.install()
        try:
            traced = wl.check(ctx, key, tr.run_task(task_id, wl.run, ctx, key))
        finally:
            tr.uninstall()
        assert plain.problems == traced.problems == []
        assert plain.digest == traced.digest == digests[key]
    assert tracer.unrestored() == []
    totals = tracer.analyse(tr.arrays())
    assert totals.get("task", "calls") == len(CHEAP_KEYS[name])
    assert int(totals.self_ns.sum()) == totals.task_ns


def _binding_sites():
    """id of the value at every site the tracer may rebind."""
    sites = {}
    for short, mod in tracer.ringmix_modules().items():
        for attr, value in vars(mod).items():
            sites[(short, attr)] = id(value)
            if isinstance(value, dict):
                for key, item in value.items():
                    sites[(short, attr, key)] = id(item)
            elif isinstance(value, type) and value.__module__ == mod.__name__:
                for m_attr, item in vars(value).items():
                    sites[(short, attr, m_attr)] = id(item)
    return sites


def test_install_rebinds_every_site_and_uninstall_restores_them():
    before = _binding_sites()
    tr = tracer.Tracer()
    tr.install()
    try:
        wrapped = [
            simulation.apply_mixing, spectral.conjugate_by_permutation,
            spectral.sample_permutation, harness.run_training,
            harness.monte_carlo_consensus, cli.parse_config, seeding.stream,
            harness.seed_sequence, ringmix.run_training, simulation.gradient_matrix,
            vars(ringmix.objectives.QuadraticObjective)["stochastic_gradient"],
            *simulation._STEP_FUNCTIONS.values(),
        ]
        for fn in wrapped:
            assert hasattr(fn, "__perfbench_wrapped__"), fn
        assert tracer.unrestored()
        assert set(run.NAMED_SPANS) <= set(tr.names)
    finally:
        tr.uninstall()
    assert tr.patch_count == 0
    assert tracer.unrestored() == []
    assert _binding_sites() == before


def _spans(rows, names):
    cols = list(zip(*rows))
    return {
        "name": np.array([names.index(n) for n in cols[0]], dtype=np.uint16),
        "start": np.array(cols[1], dtype=np.int64),
        "end": np.array(cols[2], dtype=np.int64),
        "parent": np.array(cols[3], dtype=np.int64),
        "task": np.zeros(len(rows), dtype=np.int64),
        "names": np.array(names),
    }


NAMES = ["task", "mixing.a", "seeding.b", "spectral.c", "seeding.d"]
TREE = [
    # name, start, end, parent
    ("task", 0, 100, -1),        # 0: self 100 - 30 - 40 = 30
    ("mixing.a", 10, 40, 0),     # 1: self 30 - 10 = 20
    ("seeding.b", 15, 25, 1),    # 2: self 10
    ("spectral.c", 50, 90, 0),   # 3: self 40 - 5 - 15 = 20
    ("seeding.b", 55, 60, 3),    # 4: self 5
    ("seeding.d", 70, 85, 3),    # 5: self 15
    ("task", 200, 210, -1),      # 6: self 10
]


def test_self_time_is_duration_minus_children_on_a_synthetic_tree():
    totals = tracer.analyse(_spans(TREE, NAMES))
    self_ns = dict(zip(totals.names, totals.self_ns.tolist()))
    assert self_ns == {"task": 40, "mixing.a": 20, "seeding.b": 15, "spectral.c": 20, "seeding.d": 15}
    total_ns = dict(zip(totals.names, totals.total_ns.tolist()))
    assert total_ns == {"task": 110, "mixing.a": 30, "seeding.b": 15, "spectral.c": 40, "seeding.d": 15}
    assert dict(zip(totals.names, totals.calls.tolist()))["seeding.b"] == 2
    assert totals.task_ns == 110 == int(totals.self_ns.sum())


@pytest.mark.parametrize("row, bad", [
    (("seeding.b", 30, 45, 1), "outside its parent"),
    (("seeding.b", 20, 30, 1), "overlap"),
    (("seeding.b", 5, 3, 0), "ends before"),
    (("seeding.b", 300, 310, -1), "not a task"),
])
def test_malformed_span_trees_are_rejected(row, bad):
    with pytest.raises(ValueError, match=bad):
        tracer.analyse(_spans(TREE + [row], NAMES))


def test_tail_has_ten_tasks_beyond_it():
    times = [float(i) for i in range(100)]
    assert run.tail(times) == (89.0, 90.0)
    assert run.tail(times[:10]) == (9.0, 100.0)


def test_benchmark_json_lists_the_metrics_the_benchmark_prints():
    spec = json.loads((reference.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copytree(Path(run.__file__).parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(reference.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "consensus-mc", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
