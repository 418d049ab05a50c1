"""Sweep harness: grid execution over (strategy, learners, trial) cells,
deterministic CSV output, and a self-check that measured consensus decay
stays inside the analytic envelopes.

Every artifact written here is byte-stable for a fixed config: cell seeds
derive from the master seed through the tagged stream tree, floats are
formatted with repr, and row order follows the config's declared order.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import _KIND, ExperimentConfig, _entries, echo_config
from .objectives import ORACLES
from .seeding import TAG_CELL, seed_sequence
from .simulation import (
    CostModel,
    RunConfig,
    RunResult,
    Strategy,
    TraceRecord,
    run_training,
)
from .spectral import (
    Z95,
    _monte_carlo_curves,
    fixed_consensus_curve,
    fixed_mixing_consensus_bound,
    monte_carlo_consensus,  # unused here; perfbench's tracer wraps it by name
    randomized_consensus_bound,
    randomized_frobenius_expectation,
    second_eigenvalue_ring,
    spectral_rho,
)
from .mixing import build_ring_matrix

CSV_HEADER = "iter,sim_time_s,mean_loss,avg_model_loss,consensus_dist,rho"

SUMMARY_HEADER = (
    "strategy,n_learners,trial,run_seed,csv_file,status,final_iter,"
    "final_mean_loss,final_avg_model_loss,final_consensus_dist,total_sim_time_s"
)

AGGREGATE_HEADER = (
    "strategy,n_learners,trials,completed,median_final_loss,iqr_final_loss,"
    "median_total_sim_time_s"
)


def _csv(header: str, rows) -> str:
    # Floats by repr, which round-trips and is stable across runs (numpy
    # scalars are unwrapped first, or the repr grows a type prefix); the rest by str.
    lines = [",".join(repr(float(v)) if isinstance(v, (float, np.floating)) else str(v)
                      for v in row) for row in rows]
    return "\n".join([header, *lines]) + "\n"


def cell_seed(master_seed: int, strategy: Strategy, n_learners: int, trial: int) -> int:
    """Per-cell run seed, decorrelated across the sweep grid."""
    ss = seed_sequence(master_seed, TAG_CELL, strategy.seed_id, n_learners, trial)
    return int(ss.generate_state(1, np.uint64)[0])


def make_oracle(cfg: ExperimentConfig):
    """The `[oracle]` kind's factory, called with that kind's keys by name."""
    args = {e.key: getattr(cfg, e.field.name) for e in _entries(cfg.oracle_kind)
            if e.section == "oracle" and e is not _KIND}
    return ORACLES[cfg.oracle_kind](**args)


def make_cost_model(cfg: ExperimentConfig, n_learners: int) -> CostModel:
    scale = None
    if cfg.straggler_count > 0 and cfg.straggler_factor != 1.0:
        arr = np.ones(n_learners)
        arr[: cfg.straggler_count] = cfg.straggler_factor
        scale = tuple(arr)
    return CostModel(
        message_size_bytes=cfg.message_size_mb * 1e6,
        bandwidth_bytes_per_s=cfg.bandwidth_gbps * 1e9,
        compute_mu=float(np.log(cfg.compute_median_s)),
        compute_sigma=cfg.compute_sigma,
        compute_scale=scale,
    )


def cell_run_config(cfg: ExperimentConfig, strategy: Strategy, n_learners: int, trial: int) -> RunConfig:
    """The cell's RunConfig: each key declared with `run=` sets its field as
    is; lr (stricter in the INI) and batch_size (maybe a total) are explicit."""
    return RunConfig(
        n_learners=n_learners,
        lr=cfg.lr,
        batch_size=cfg.per_learner_batch(n_learners),
        seed=cell_seed(cfg.master_seed, strategy, n_learners, trial),
        cost_model=make_cost_model(cfg, n_learners),
        **{e.field.metadata["run"]: getattr(cfg, e.field.name)
           for e in _entries(cfg.oracle_kind) if e.field.metadata["run"]},
    )


def trace_csv_text(records: tuple[TraceRecord, ...]) -> str:
    return _csv(CSV_HEADER, (
        (r.iteration, r.sim_time_s, r.mean_loss, r.avg_model_loss, r.consensus_dist, r.rho)
        for r in records
    ))


@dataclass(frozen=True)
class CellResult:
    """One completed sweep cell and where its trace landed."""

    strategy: Strategy
    n_learners: int
    trial: int
    run_seed: int
    csv_file: str
    diverged: bool
    final: TraceRecord | None

    @property
    def status(self) -> str:
        return "diverged" if self.diverged else "ok"


@dataclass(frozen=True)
class SweepResult:
    out_dir: str
    cells: tuple[CellResult, ...]

    @property
    def any_diverged(self) -> bool:
        return any(c.diverged for c in self.cells)


def _summary_rows(cells: tuple[CellResult, ...]) -> str:
    rows = []
    for c in cells:
        f = c.final
        final = (float("nan"),) * 5 if f is None else (
            f.iteration, f.mean_loss, f.avg_model_loss, f.consensus_dist, f.sim_time_s)
        rows.append((c.strategy.value, c.n_learners, c.trial, c.run_seed, c.csv_file, c.status,
                     *final))
    return _csv(SUMMARY_HEADER, rows)


def _aggregate_rows(cfg: ExperimentConfig, cells: tuple[CellResult, ...]) -> str:
    rows = []
    for strategy in cfg.strategies:
        for L in cfg.learner_counts:
            group = [c for c in cells if c.strategy is strategy and c.n_learners == L]
            done = [c for c in group if not c.diverged]
            if done:
                losses = np.array([c.final.mean_loss for c in done])
                q25, q75 = np.percentile(losses, [25.0, 75.0])
                stats = (np.median(losses), q75 - q25,
                         np.median([c.final.sim_time_s for c in done]))
            else:
                stats = (float("nan"),) * 3
            rows.append((strategy.value, L, len(group), len(done), *stats))
    return _csv(AGGREGATE_HEADER, rows)


def run_sweep(cfg: ExperimentConfig, out_dir, quiet: bool = False) -> SweepResult:
    """Run the full (strategy x learners x trial) grid and write artifacts.

    Writes into out_dir: one trace CSV per cell, config_echo.ini,
    summary.csv (one row per cell), aggregate.csv (medians and IQR per
    strategy/learner group).  A diverged cell keeps its partial trace and
    is excluded from aggregates; remaining cells still run.
    """
    # Built first, so a value the library rejects raises before any file is written.
    oracle = make_oracle(cfg)
    grid = [
        (strategy, L, trial, cell_run_config(cfg, strategy, L, trial))
        for strategy in cfg.strategies
        for L in cfg.learner_counts
        for trial in range(cfg.trials)
    ]
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config_echo.ini").write_text(echo_config(cfg), encoding="utf-8")

    cells = []
    for strategy, L, trial, rc in grid:
        result: RunResult = run_training(strategy, oracle, rc)
        name = f"{strategy.value}_L{L}_trial{trial}.csv"
        (out / name).write_text(trace_csv_text(result.records), encoding="utf-8")
        final = result.records[-1] if result.records else None
        cell = CellResult(
            strategy=strategy,
            n_learners=L,
            trial=trial,
            run_seed=rc.seed,
            csv_file=name,
            diverged=result.diverged,
            final=final,
        )
        cells.append(cell)
        if not quiet:
            note = "DIVERGED" if cell.diverged else f"final loss {final.mean_loss:.6e}"
            print(f"{strategy.value} L={L} trial={trial}: {note}")

    cells = tuple(cells)
    (out / "summary.csv").write_text(_summary_rows(cells), encoding="utf-8")
    (out / "aggregate.csv").write_text(_aggregate_rows(cfg, cells), encoding="utf-8")
    return SweepResult(out_dir=str(out), cells=cells)


@dataclass(frozen=True)
class BoundRow:
    """Consensus-envelope checks for one ring size."""

    n_learners: int
    rho: float
    eig_gap: float
    powering_excess: float
    mc_fro_ratio: float
    mc_spec_ratio: float

    @property
    def ok(self) -> bool:
        return (
            self.eig_gap <= 1e-12
            and self.powering_excess <= 1e-10
            and self.mc_fro_ratio <= 1.0
            and self.mc_spec_ratio <= 1.0
        )


@dataclass(frozen=True)
class BoundsReport:
    rows: tuple[BoundRow, ...]
    k_max: int
    trials: int

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.rows)

    def render(self) -> str:
        lines = [
            f"consensus bound verification (k_max={self.k_max}, trials={self.trials})",
            "   L       rho    |eig-closed|   power-excess   fro-dev/3se   spec/bound   status",
        ]
        for r in self.rows:
            lines.append(
                f"{r.n_learners:>4}  {r.rho:.6f}  {r.eig_gap:>12.3e}  "
                f"{r.powering_excess:>13.3e}  {r.mc_fro_ratio:>12.4f} "
                f"{r.mc_spec_ratio:>12.4f}   {'PASS' if r.ok else 'FAIL'}"
            )
        lines.append("overall: " + ("PASS" if self.ok else "FAIL"))
        return "\n".join(lines)


def verify_bounds(
    learner_counts=(3, 4, 8, 16, 32, 64),
    k_max: int = 20,
    trials: int = 1000,
    seed: int = 0,
) -> BoundsReport:
    """Check the spectral machinery against itself and against sampling.

    Per ring size: the closed-form second eigenvalue against a dense
    eigendecomposition; explicit matrix powering against rho^k; the
    Monte Carlo mean squared Frobenius distance of permuted-ring products
    against its exact expectation (within 3 standard errors plus a small
    absolute floor for degenerate cases); and the Monte Carlo spectral
    distance against the closed-form envelope.  Both Monte Carlo curves
    come from one product pass per ring size.
    """
    rows = []
    for i, L in enumerate(learner_counts):
        rho = second_eigenvalue_ring(L)
        eig_gap = abs(spectral_rho(build_ring_matrix(L)).rho - rho)

        curve = fixed_consensus_curve(L, k_max)
        excess = max(
            0.0,
            max(
                curve.distances[k] - fixed_mixing_consensus_bound(L, k + 1)
                for k in range(k_max)
            ),
        )

        mc_fro, mc_spec = _monte_carlo_curves(
            L, k_max, trials, seed + i, ("frobenius", "spectral")
        )
        fro_ratio = 0.0
        spec_ratio = 0.0
        for k in range(k_max):
            closed = randomized_frobenius_expectation(L, k + 1)
            se = mc_fro.squared_halfwidths[k] / Z95
            tol = 3.0 * se + 1e-12 * max(1.0, closed)
            fro_ratio = max(fro_ratio, abs(mc_fro.squared_distances[k] - closed) / tol)
            bound = randomized_consensus_bound(L, k + 1)
            spec_ratio = max(spec_ratio, mc_spec.distances[k] / bound)

        rows.append(
            BoundRow(
                n_learners=L,
                rho=rho,
                eig_gap=eig_gap,
                powering_excess=float(excess),
                mc_fro_ratio=float(fro_ratio),
                mc_spec_ratio=float(spec_ratio),
            )
        )
    return BoundsReport(rows=tuple(rows), k_max=k_max, trials=trials)
