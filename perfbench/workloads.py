"""The benchmark's workloads: task schedules pure in the seed, the ringmix
call each task times, and the checks run on each task's output.

Every workload draws its tasks from a fixed pool, so that each task's output
can be compared with a digest recorded in `reference.json`; the seed decides
the order in which pool tasks run.  A task key names one pool entry.
ringmix is always called through its module attributes (`simulation.
run_training`, `cli.main`, ...) so that the tracer's rebinding is seen.

- `train-ring-L32`: direct `run_training` calls shaped like the stationary
  loss comparison at 32 learners, all five strategies paired on each run
  seed.  The hot path of the test suite: per-learner noise streams and the
  gradient matrix; no spectra, no per-iteration records, no files.
- `consensus-mc`: the `verify-bounds` path, `monte_carlo_consensus` under
  both norms and `fixed_consensus_curve` at L = 8, 32, 64.  Permutation,
  conjugation and norm layers; no gradients, one stream per trial.
- `sweep-logistic`: a full `ringmix run --quiet` sweep on generated INI text,
  logistic oracle with sharded data, a trace row every iteration and CSV
  output.  Small rings, so per-call overhead dominates.
"""

from __future__ import annotations

import hashlib
import random
import shutil
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ringmix import cli, objectives, simulation, spectral

STRATEGIES = tuple(s.value for s in simulation.Strategy)


@dataclass
class Outcome:
    """What a task's check found: its output digest, broken invariants and
    counts of verdicts that are reported but are not failures."""

    digest: str
    problems: list[str] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)


def _sha(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(len(chunk).to_bytes(8, "little"))
        h.update(chunk)
    return h.hexdigest()


class TrainRing:
    name = "train-ring-L32"
    work_unit = "learner_steps"
    n_learners = 32
    iterations = 100
    run_seeds = 40

    def keys(self) -> list[str]:
        return [f"s{s}/{strategy}" for s in range(self.run_seeds) for strategy in STRATEGIES]

    def schedule(self, seed: int):
        rng = random.Random(f"{self.name}/{seed}")
        while True:
            run_seeds = list(range(self.run_seeds))
            rng.shuffle(run_seeds)
            for s in run_seeds:
                strategies = list(STRATEGIES)
                rng.shuffle(strategies)
                for strategy in strategies:
                    yield f"s{s}/{strategy}"

    def setup(self, workdir: Path) -> dict:
        oracle = objectives.quadratic_oracle(
            dimension=32, condition_number=10.0, optimum=np.zeros(32), noise_scale=4.0, seed=0
        )
        configs = {
            s: simulation.RunConfig(
                n_learners=self.n_learners,
                iterations=self.iterations,
                lr=9e-4,
                batch_size=8,
                seed=s,
                init_scale=0.0,
                log_every=self.iterations,
            )
            for s in range(self.run_seeds)
        }
        return {"oracle": oracle, "configs": configs}

    def _parse(self, key: str):
        run_seed, strategy = key.split("/")
        return int(run_seed[1:]), simulation.Strategy(strategy)

    def run(self, ctx: dict, key: str):
        run_seed, strategy = self._parse(key)
        return simulation.run_training(strategy, ctx["oracle"], ctx["configs"][run_seed])

    def work(self, key: str) -> int:
        return self.iterations * self.n_learners

    learner_steps = work

    def check(self, ctx: dict, key: str, result) -> Outcome:
        cfg = ctx["configs"][self._parse(key)[0]]
        state = result.state
        records = b"".join(
            struct.pack(
                "<q5d", r.iteration, r.sim_time_s, r.mean_loss, r.avg_model_loss,
                r.consensus_dist, r.rho,
            )
            for r in result.records
        )
        W = np.ascontiguousarray(state.weights)
        out = Outcome(_sha(records, bytes([result.diverged]), W.tobytes()))
        if result.diverged:
            out.problems.append("diverged")
        if not result.records or result.records[-1].iteration != self.iterations:
            out.problems.append("trace does not end at the last iteration")
        # Mass conservation: every mixing matrix is doubly stochastic, so the
        # last step changes the learners' summed model only by -lr * sum(G).
        P, G = state.prev_weights, state.last_gradients
        expected = P.sum(axis=1) - cfg.lr * G.sum(axis=1)
        scale = float(np.abs(P).max() + cfg.lr * np.abs(G).max()) + 1e-300
        error = float(np.abs(W.sum(axis=1) - expected).max())
        if not error <= 4 * self.n_learners**2 * np.finfo(float).eps * scale:
            out.problems.append(f"mass not conserved: error {error:.3e} at scale {scale:.3e}")
        return out


class ConsensusMC:
    name = "consensus-mc"
    work_unit = "ring_products"
    learner_counts = (8, 32, 64)
    kinds = ("fixed", "frobenius", "spectral")
    k_max = 20
    trials = 40
    mc_seeds = 24

    def keys(self) -> list[str]:
        keys = []
        for L in self.learner_counts:
            keys.append(f"fixed/L{L}")
            for kind in self.kinds[1:]:
                keys += [f"{kind}/L{L}/t{t}" for t in range(self.mc_seeds)]
        return keys

    def schedule(self, seed: int):
        # Rounds hold one task of each (kind, L), so any stretch of the
        # schedule carries the same mix of cheap and expensive tasks.
        rng = random.Random(f"{self.name}/{seed}")
        combos = [(kind, L) for kind in self.kinds for L in self.learner_counts]
        while True:
            rng.shuffle(combos)
            for kind, L in combos:
                if kind == "fixed":
                    yield f"fixed/L{L}"
                else:
                    yield f"{kind}/L{L}/t{rng.randrange(self.mc_seeds)}"

    def setup(self, workdir: Path) -> dict:
        return {}

    def _parse(self, key: str):
        parts = key.split("/")
        mc_seed = int(parts[2][1:]) if len(parts) == 3 else None
        return parts[0], int(parts[1][1:]), mc_seed

    def run(self, ctx: dict, key: str):
        kind, L, mc_seed = self._parse(key)
        if kind == "fixed":
            return spectral.fixed_consensus_curve(L, self.k_max)
        return spectral.monte_carlo_consensus(L, self.k_max, self.trials, mc_seed, norm_kind=kind)

    def work(self, key: str) -> int:
        return self.k_max if key.startswith("fixed") else self.k_max * self.trials

    def learner_steps(self, key: str) -> int:
        return 0

    def check(self, ctx: dict, key: str, curve) -> Outcome:
        kind, L, _ = self._parse(key)
        arrays = [curve.steps, curve.distances, curve.halfwidths,
                  curve.squared_distances, curve.squared_halfwidths]
        out = Outcome(_sha(
            curve.norm_kind.encode(), str(curve.trials).encode(),
            *(b"-" if a is None else np.ascontiguousarray(a).tobytes() for a in arrays),
        ))
        if not np.array_equal(curve.steps, np.arange(1, self.k_max + 1)):
            out.problems.append("steps are not 1..k_max")
        if not np.all(np.isfinite(curve.distances)) or np.any(curve.distances < 0):
            out.problems.append("distances not finite and non-negative")
        rho = 1.0 / 3.0 + (2.0 / 3.0) * np.cos(2.0 * np.pi / L)
        if kind == "fixed":
            out.problems += _fixed_ring_rows(L, rho, curve.distances)
        elif kind == "frobenius":
            # verify-bounds' 3-standard-error check of the squared Frobenius
            # mean: a statistical verdict, counted, never a failure.
            k = np.arange(1, self.k_max + 1)
            closed = (L - 1) * (1.0 / 3.0 - 2.0 / (3.0 * (L - 1))) ** k
            se = curve.squared_halfwidths / 1.959963984540054
            tol = 3.0 * se + 1e-12 * np.maximum(1.0, closed)
            ratio = float(np.max(np.abs(curve.squared_distances - closed) / tol))
            out.counts = {"mc_3se_checked": 1, "mc_3se_fail": int(ratio > 1.0)}
        return out


def _fixed_ring_rows(L: int, rho: float, distances: np.ndarray) -> list[str]:
    """verify-bounds' exact rows: closed-form rho against a dense
    eigendecomposition of an independently built ring, and the explicit
    powers ||T0^k - U||_2 against rho^k."""
    problems = []
    T0 = np.zeros((L, L))
    idx = np.arange(L)
    for shift in (-1, 0, 1):
        T0[idx, (idx + shift) % L] = 1.0 / 3.0
    eig = np.sort(np.linalg.eigvalsh(T0))[::-1]
    gap = abs(max(abs(eig[1]), abs(eig[-1])) - rho)
    if not gap <= 1e-12:
        problems.append(f"|eig - closed| = {gap:.3e} at L={L}")
    excess = float(np.max(distances - rho ** np.arange(1, len(distances) + 1)))
    if not excess <= 1e-10:
        problems.append(f"powering excess {excess:.3e} at L={L}")
    return problems


class SweepLogistic:
    name = "sweep-logistic"
    work_unit = "learner_steps"
    learner_counts = (4, 16)
    iterations = 24
    variants = 24
    artifacts = 2 * len(STRATEGIES) + 3  # cell traces, config echo, summary, aggregate

    def keys(self) -> list[str]:
        return [f"v{v}" for v in range(self.variants)]

    def schedule(self, seed: int):
        rng = random.Random(f"{self.name}/{seed}")
        while True:
            variants = list(range(self.variants))
            rng.shuffle(variants)
            for v in variants:
                yield f"v{v}"

    def ini_text(self, variant: int) -> str:
        return f"""\
[experiment]
strategies = {", ".join(STRATEGIES)}
learners = {", ".join(str(L) for L in self.learner_counts)}
iterations = {self.iterations}
trials = 1
seed = {1000 + variant}
lr = {(0.1, 0.2, 0.4)[variant % 3]}
batch_mode = per-learner-fixed
batch_size = 8
staleness_mode = sync
data_partition = sharded
log_every = 1

[oracle]
kind = logistic
dimension = 16
seed = {variant % 8}
n_samples = 512
separation = 2.0

[cost_model]
straggler_factor = 10.0
straggler_count = 1
"""

    def setup(self, workdir: Path) -> dict:
        workdir.mkdir(parents=True, exist_ok=True)
        paths = {}
        for v in range(self.variants):
            path = workdir / f"sweep-v{v}.ini"
            path.write_text(self.ini_text(v), encoding="utf-8")
            paths[f"v{v}"] = str(path)
        return {"workdir": workdir, "ini": paths, "next_out": 0}

    def run(self, ctx: dict, key: str):
        out = ctx["workdir"] / f"out-{ctx['next_out']}"
        ctx["next_out"] += 1
        return cli.main(["run", "--config", ctx["ini"][key], "--out", str(out), "--quiet"]), out

    def work(self, key: str) -> int:
        return len(STRATEGIES) * self.iterations * sum(self.learner_counts)

    learner_steps = work

    def check(self, ctx: dict, key: str, result) -> Outcome:
        code, out_dir = result
        files = sorted(out_dir.iterdir()) if out_dir.is_dir() else []
        chunks = [bytes([code])]
        for path in files:
            chunks += [path.name.encode(), path.read_bytes()]
        out = Outcome(_sha(*chunks))
        shutil.rmtree(out_dir, ignore_errors=True)
        if code != 0:
            out.problems.append(f"ringmix run exited {code}")
        if len(files) != self.artifacts:
            out.problems.append(f"{len(files)} artifacts, expected {self.artifacts}")
        return out


WORKLOADS = {w.name: w for w in (TrainRing(), ConsensusMC(), SweepLogistic())}
