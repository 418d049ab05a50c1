import inspect
from dataclasses import fields
from unittest import mock

import numpy as np
import pytest

from ringmix import spectral
from ringmix.config import ExperimentConfig, _entries, parse_config
from ringmix.harness import (
    AGGREGATE_HEADER,
    CSV_HEADER,
    SUMMARY_HEADER,
    CellResult,
    _aggregate_rows,
    _summary_rows,
    cell_run_config,
    cell_seed,
    make_cost_model,
    make_oracle,
    run_sweep,
    trace_csv_text,
    verify_bounds,
)
from ringmix.objectives import ORACLES, logistic_oracle, quadratic_oracle
from ringmix.simulation import RunConfig, Strategy, TraceRecord

SMALL = """
[experiment]
strategies = dpsgd_fixed, d1d
learners = 4
iterations = 12
trials = 2
seed = 31
lr = 0.05
batch_mode = total-fixed
batch_size = 16
log_every = 4

[oracle]
kind = quadratic
dimension = 6
condition_number = 10.0
noise_scale = 1.0
"""


def test_csv_header_is_pinned():
    assert CSV_HEADER == "iter,sim_time_s,mean_loss,avg_model_loss,consensus_dist,rho"


def test_trace_csv_text_exact_bytes():
    rec = TraceRecord(
        iteration=3,
        sim_time_s=0.5,
        mean_loss=0.25,
        avg_model_loss=0.125,
        consensus_dist=0.1,
        rho=1.0 / 3.0,
    )
    text = trace_csv_text((rec,))
    assert text == (
        "iter,sim_time_s,mean_loss,avg_model_loss,consensus_dist,rho\n"
        "3,0.5,0.25,0.125,0.1,0.3333333333333333\n"
    )


# Floats whose shortest repr is long, subnormal or at the top of the range.
AWKWARD = (0.1 + 0.2, 1.0 / 3.0, 5e-324, 2.0**53 + 2, 1.7976931348623157e308)


def _tables(to_float):
    """The trace, summary and aggregate tables of one record per group whose
    float fields hold AWKWARD, each converted by `to_float`."""
    record = TraceRecord(12, *(to_float(x) for x in AWKWARD))
    cfg = parse_config(SMALL)
    cells = tuple(CellResult(s, 4, 0, 7, f"{s.value}.csv", False, record) for s in cfg.strategies)
    return trace_csv_text((record,)), _summary_rows(cells), _aggregate_rows(cfg, cells)


def test_tables_write_numpy_and_python_floats_alike_and_exactly():
    tables = _tables(float)
    assert _tables(np.float64) == tables

    def read(text: str, first: int) -> list[str]:
        return [float(x).hex() for x in text.splitlines()[1].split(",")[first:]]

    sim_time, mean_loss, avg_model_loss, consensus_dist, rho = (x.hex() for x in AWKWARD)
    trace, summary, aggregate = tables
    assert read(trace, 1) == [sim_time, mean_loss, avg_model_loss, consensus_dist, rho]
    assert read(summary, 7) == [mean_loss, avg_model_loss, consensus_dist, sim_time]
    assert read(aggregate, 4) == [mean_loss, (0.0).hex(), sim_time]


def test_summary_row_of_a_cell_without_records():
    cell = CellResult(Strategy.D1D, 4, 0, 7, "d1d_L4_trial0.csv", True, None)
    assert _summary_rows((cell,)) == (
        SUMMARY_HEADER + "\nd1d,4,0,7,d1d_L4_trial0.csv,diverged,nan,nan,nan,nan,nan\n"
    )


def test_cell_seed_is_stable_and_decorrelated():
    a = cell_seed(31, Strategy.D1D, 4, 0)
    assert a == cell_seed(31, Strategy.D1D, 4, 0)
    grid = {
        cell_seed(31, s, L, t)
        for s in Strategy
        for L in (4, 8)
        for t in range(5)
    }
    assert len(grid) == len(Strategy) * 2 * 5


@pytest.mark.parametrize("kind", list(ORACLES))
def test_oracle_factories_take_exactly_their_kinds_keys(kind):
    params = set(inspect.signature(ORACLES[kind]).parameters) - {"optimum"}
    keys = {e.key for e in _entries(kind) if e.section == "oracle"} - {"kind"}
    assert params == keys


def test_make_oracle_passes_every_oracle_key():
    base = SMALL.split("[oracle]")[0] + "[oracle]\n"
    quad = make_oracle(parse_config(
        base + "dimension = 5\nseed = 3\ncondition_number = 7.0\nnoise_scale = 0.5\n"
    ))
    want = quadratic_oracle(dimension=5, condition_number=7.0, noise_scale=0.5, seed=3)
    assert np.array_equal(quad.eigenvalues, want.eigenvalues)
    assert np.array_equal(quad.optimum, want.optimum)
    assert quad.noise_scale == want.noise_scale
    logistic = make_oracle(parse_config(
        base + "kind = logistic\ndimension = 5\nseed = 3\nn_samples = 10\n"
        "separation = 1.5\nridge = 0.01\n"
    ))
    want = logistic_oracle(dimension=5, n_samples=10, separation=1.5, seed=3, ridge=0.01)
    assert np.array_equal(logistic.features, want.features)
    assert np.array_equal(logistic.labels, want.labels)
    assert logistic.ridge == want.ridge


def test_cell_run_config_forwards_every_run_key():
    values = {"iterations": 7, "warmup_iters": 3, "staleness_mode": "sync",
              "init_scale": 0.5, "data_partition": "sharded", "log_every": 2}
    declared = {f.metadata["run"] for f in fields(ExperimentConfig) if f.metadata["run"]}
    assert declared == set(values)
    text = SMALL.replace("iterations = 12\n", "").replace(
        "log_every = 4\n", "".join(f"{k} = {v}\n" for k, v in values.items())
    )
    rc = cell_run_config(parse_config(text), Strategy.D1D, 4, 0)
    for name, value in values.items():
        assert value != RunConfig.__dataclass_fields__[name].default, name
        assert getattr(rc, name) == value, name


def test_make_cost_model_straggler_layout():
    cfg = parse_config(
        SMALL + "\n[cost_model]\nstraggler_factor = 10.0\nstraggler_count = 2\n"
    )
    cm = make_cost_model(cfg, 4)
    assert cm.compute_scale == (10.0, 10.0, 1.0, 1.0)
    plain = make_cost_model(parse_config(SMALL), 4)
    assert plain.compute_scale is None
    assert plain.message_size_bytes == pytest.approx(165e6)
    assert plain.bandwidth_bytes_per_s == pytest.approx(25e9)


def test_run_sweep_writes_consistent_artifacts(tmp_path):
    cfg = parse_config(SMALL)
    result = run_sweep(cfg, tmp_path / "out", quiet=True)
    assert len(result.cells) == 2 * 1 * 2
    assert not result.any_diverged

    out = tmp_path / "out"
    assert (out / "config_echo.ini").exists()
    summary = (out / "summary.csv").read_text().splitlines()
    assert summary[0] == SUMMARY_HEADER
    assert len(summary) == 1 + len(result.cells)

    for cell in result.cells:
        lines = (out / cell.csv_file).read_text().splitlines()
        assert lines[0] == CSV_HEADER
        # log_every=4 over 12 iterations: records at 4, 8, 12.
        assert [int(l.split(",")[0]) for l in lines[1:]] == [4, 8, 12]
        assert cell.final.iteration == 12

    aggregate = (out / "aggregate.csv").read_text().splitlines()
    assert aggregate[0] == AGGREGATE_HEADER
    assert len(aggregate) == 1 + 2

    # Aggregate medians recomputed from the per-cell finals.
    d1d_cells = [c for c in result.cells if c.strategy is Strategy.D1D]
    want = float(np.median([c.final.mean_loss for c in d1d_cells]))
    d1d_row = next(l for l in aggregate[1:] if l.startswith("d1d,"))
    assert float(d1d_row.split(",")[4]) == pytest.approx(want, rel=1e-15)


def test_run_sweep_rerun_is_byte_identical(tmp_path):
    cfg = parse_config(SMALL)
    run_sweep(cfg, tmp_path / "a", quiet=True)
    run_sweep(cfg, tmp_path / "b", quiet=True)
    names_a = sorted(p.name for p in (tmp_path / "a").iterdir())
    names_b = sorted(p.name for p in (tmp_path / "b").iterdir())
    assert names_a == names_b
    for name in names_a:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_run_sweep_into_a_used_directory_leaves_what_a_fresh_one_holds(tmp_path):
    run_sweep(parse_config(SMALL), tmp_path / "reused", quiet=True)
    smaller = parse_config(SMALL.replace("trials = 2", "trials = 1"))
    run_sweep(smaller, tmp_path / "reused", quiet=True)
    run_sweep(smaller, tmp_path / "fresh", quiet=True)
    names = sorted(p.name for p in (tmp_path / "fresh").iterdir())
    assert sorted(p.name for p in (tmp_path / "reused").iterdir()) == names
    for name in names:
        assert (tmp_path / "reused" / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes()
    # Only cell traces are removed: other files stay.
    (tmp_path / "fresh" / "notes.csv").write_text("kept\n")
    (tmp_path / "fresh" / "spsgd_L4_trial0.txt").write_text("kept\n")
    run_sweep(smaller, tmp_path / "fresh", quiet=True)
    kept = sorted(p.name for p in (tmp_path / "fresh").iterdir())
    assert kept == sorted([*names, "notes.csv", "spsgd_L4_trial0.txt"])


def test_run_sweep_survives_divergence(tmp_path):
    cfg = parse_config(
        SMALL.replace("lr = 0.05", "lr = 40.0").replace(
            "strategies = dpsgd_fixed, d1d", "strategies = dpsgd_fixed"
        )
    )
    result = run_sweep(cfg, tmp_path / "out", quiet=True)
    assert result.any_diverged
    assert len(result.cells) == 2
    summary = (tmp_path / "out" / "summary.csv").read_text()
    assert "diverged" in summary
    aggregate = (tmp_path / "out" / "aggregate.csv").read_text().splitlines()
    row = aggregate[1].split(",")
    assert row[2] == "2"
    assert row[3] == "0"
    assert row[4] == "nan"


def test_verify_bounds_passes_on_validated_seed():
    calls = []
    product_distances = spectral._product_distances

    def counted(rings, U, kinds):
        rings = list(rings)
        calls.append((len(U), len(rings[0]), len(rings), kinds))
        return product_distances(rings, U, kinds)

    with mock.patch.object(spectral, "_product_distances", counted):
        report = verify_bounds(learner_counts=(3, 4, 8), k_max=12, trials=300, seed=5)
    # Per ring size: one single-trial pass for the fixed ring, then one
    # pass per chunk of trials that serves both norms; each runs 12 steps.
    expected = []
    for L in (3, 4, 8):
        chunk = max(1, spectral._CHUNK_BYTES // (8 * L * L))
        expected.append((L, 1, 12, ("spectral",)))
        expected += [(L, min(chunk, 300 - start), 12, ("frobenius", "spectral"))
                     for start in range(0, 300, chunk)]
    assert calls == expected
    assert report.ok
    rendered = report.render()
    assert "PASS" in rendered
    assert "overall: PASS" in rendered
    for row in report.rows:
        assert row.eig_gap <= 1e-12
        assert row.powering_excess <= 1e-10
        assert row.mc_fro_ratio <= 1.0
        assert row.mc_spec_ratio <= 1.0
