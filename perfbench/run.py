"""ringmix benchmark: one workload per process, end-to-end metrics untraced,
per-layer self times from a separate traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout that has `src/ringmix`; the package is
imported from that source tree.  Workloads are described in workloads.py.
BLAS is pinned to one thread and no worker pool is started.

--trace 0 measures for S seconds with tracing off and reports the
end-to-end metrics.  Their times are calibrated seconds (see
calibration.py): each raw time is scaled by a calibration kernel timed just
before and after it, which takes out the speed changes of a shared machine.
The raw figures are in the report line.

  setup_s       median over fresh processes of the time from interpreter
                start until the workload's inputs are built (imports of
                numpy and ringmix, oracle, run configs, INI files)
  work_per_s    work units per timed second: learner steps (iterations x
                learners) on the training workloads, ring products formed
                and measured on consensus-mc
  task_s_p50    median task time
  task_s_tail   the highest percentile with at least 10 tasks beyond it
  peak_rss_mb   the workload process's peak resident set

--trace 1 runs each task twice, untraced and traced in alternating order,
and reports per-layer call counts and self times (raw seconds) from the
traced copies, with the tracing overhead as 1 - untraced time / traced
time.  Spans are
written to .perfbench_out/spans-<workload>.npz when the run ends.

Every task's output is digested and compared with reference.json and its
invariants are checked; a task fails when it raises, breaks an invariant
or mismatches its digest.  The line before the last is a JSON report
(failed share, tail level, task count, fingerprint differences); the last
line is the JSON result.
"""

from __future__ import annotations

import reference

reference.pin_threads()

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import calibration
import tracer

ROOT = reference.ROOT
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 7
TAIL_BEYOND = 10

# Spans reported one by one, grouped by the end-to-end figure each should
# move and the workload where it should move it.
NAMED_SPANS = {
    # work_per_s on train-ring-L32 (dominant), then sweep-logistic
    "seeding.stream": ("calls", "self_s"),
    "objectives.stochastic_gradient": ("calls", "self_s"),
    # task_s_p50 on sweep-logistic only: a trace row every iteration
    "objectives.loss_columns": ("self_s",),
    "objectives.loss": ("self_s",),
    "simulation.consensus_distance": ("self_s",),
    # work_per_s on train-ring-L32: the step loop and its layers
    "simulation.run_training": ("self_s",),
    "simulation.gradient_matrix": ("self_s",),
    "simulation.advance_clock": ("self_s",),
    "mixing.apply_mixing": ("calls", "self_s"),
    "mixing.permutation_for_step": ("self_s",),
    # work_per_s on consensus-mc; nothing on training
    "mixing.conjugate_by_permutation": ("calls", "self_s"),
    "mixing.sample_permutation": ("self_s",),
    "spectral.spectral_norm": ("calls", "self_s"),
    "spectral.frobenius_norm": ("self_s",),
    "spectral.monte_carlo_consensus": ("self_s",),
    "spectral.fixed_consensus_curve": ("self_s",),
    # task_s_p50 on sweep-logistic, and setup_s
    "harness.run_sweep": ("self_s",),
    "harness.trace_csv_text": ("self_s",),
    "harness.cell_run_config": ("self_s",),
    "config.parse_config": ("self_s",),
    "config.echo_config": ("self_s",),
    "cli.main": ("self_s",),
}
UNITS = {"calls": "count", "self_s": "s"}
END_TO_END_UNITS = {
    "setup_s": "s", "work_per_s": "1/s", "task_s_p50": "s", "task_s_tail": "s", "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {f"{span}.{f}": UNITS[f] for span, fields in NAMED_SPANS.items() for f in fields}
    units["seeding.stream.calls_per_learner_step"] = "count"
    units["seeding.stream.us_per_call"] = "us"
    units["simulation.gradient_matrix.share_of_run_training"] = "share"
    units.update({f"{layer}.self_s": "s" for layer in tracer.LAYERS})
    units.update({
        "trace.task_s": "s",
        "trace.task_residual_s": "s",
        "trace.overhead_share": "share",
        "trace.spans": "count",
        "spectral.mc_3se_fail": "count",
    })
    return units


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile level) of the highest percentile with at least
    TAIL_BEYOND tasks beyond it; the maximum when there are too few tasks."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


@dataclass
class Timed:
    """Wall times of a set of tasks and the work the successful ones did."""

    times: list[float] = field(default_factory=list)
    cal: list[float] = field(default_factory=list)  # calibration time around each task
    work: int = 0
    learner_steps: int = 0


class Run:
    """Attempts tasks of one workload, checks them and keeps the tallies."""

    def __init__(self, wl, ctx, digests: dict):
        self.wl, self.ctx, self.digests = wl, ctx, digests
        self.attempted = self.failed = 0
        self.counts = Counter()
        self.problems: list[str] = []

    def attempt(self, key: str, into: Timed | None = None, tr=None, task_id: int = -1) -> None:
        """Run and check one task, traced when a tracer is given; its time
        and, if it passed, its work go `into`."""
        self.attempted += 1
        if tr is not None:
            tr.install()
        cal_before = calibration.sample() if into is not None else 0.0
        try:
            t0 = time.perf_counter()
            if tr is None:
                output = self.wl.run(self.ctx, key)
            else:
                output = tr.run_task(task_id, self.wl.run, self.ctx, key)
            elapsed = time.perf_counter() - t0
        except Exception:
            elapsed = time.perf_counter() - t0
            self._fail(key, traceback.format_exc().strip().splitlines()[-1])
            output = None
        finally:
            if tr is not None:
                tr.uninstall()
        if into is not None:
            into.times.append(elapsed)
            into.cal.append((cal_before + calibration.sample()) / 2)
        if output is None or not self._passes(key, output):
            return
        if into is not None:
            into.work += self.wl.work(key)
            into.learner_steps += self.wl.learner_steps(key)

    def _passes(self, key: str, output) -> bool:
        try:
            outcome = self.wl.check(self.ctx, key, output)
        except Exception:
            self._fail(key, "check raised " + traceback.format_exc().strip().splitlines()[-1])
            return False
        problems = list(outcome.problems)
        expected = self.digests.get(key)
        if outcome.digest != expected:
            problems.append(f"digest {outcome.digest[:12]} != reference {str(expected)[:12]}")
        self.counts.update(outcome.counts)
        if problems:
            self._fail(key, "; ".join(problems))
        return not problems

    def _fail(self, key: str, why: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(f"{key}: {why}")


def probe_setup(workload: str, seed: int) -> tuple[float, float]:
    """Raw and calibrated seconds of one fresh process from interpreter start
    until its inputs are ready."""
    cal = [calibration.sample() for _ in range(3)]
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--probe", repr(t0)],
        capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
    raw = float(proc.stdout.strip().splitlines()[-1])
    cal += [calibration.sample() for _ in range(3)]
    return raw, raw * calibration.REFERENCE_S / statistics.median(cal)


def measure(run: Run, schedule, seconds: float, tr=None) -> tuple[Timed, Timed]:
    """Attempt tasks until `seconds` have passed; (untraced, traced) tallies.

    With a tracer each task runs untraced and traced, the order alternating,
    so that the two tallies are paired task by task."""
    untraced, traced = Timed(), Timed()
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline:
        key = next(schedule)
        if tr is None:
            run.attempt(key, untraced)
        elif i % 2 == 0:
            run.attempt(key, untraced)
            run.attempt(key, traced, tr, i)
        else:
            run.attempt(key, traced, tr, i)
            run.attempt(key, untraced)
        i += 1
    return untraced, traced


def layer_metrics(run: Run, tr, untraced: Timed, traced: Timed) -> tuple[dict, dict]:
    totals = tracer.analyse(tr.arrays())
    s = 1e-9
    values = {}
    for span, fields in NAMED_SPANS.items():
        if "calls" in fields:
            values[f"{span}.calls"] = totals.get(span, "calls")
        if "self_s" in fields:
            values[f"{span}.self_s"] = totals.get(span, "self_ns") * s
    stream_calls = totals.get("seeding.stream", "calls")
    steps = traced.learner_steps
    values["seeding.stream.calls_per_learner_step"] = stream_calls / steps if steps else 0.0
    values["seeding.stream.us_per_call"] = (
        totals.get("seeding.stream", "total_ns") / stream_calls * 1e-3 if stream_calls else 0.0
    )
    run_training = totals.get("simulation.run_training", "total_ns")
    values["simulation.gradient_matrix.share_of_run_training"] = (
        totals.get("simulation.gradient_matrix", "total_ns") / run_training if run_training else 0.0
    )
    layer_ns = {layer: 0 for layer in tracer.LAYERS}
    for i, name in enumerate(totals.names):
        if name != tracer.TASK:
            layer_ns[name.split(".")[0]] += int(totals.self_ns[i])
    for layer, ns in layer_ns.items():
        values[f"{layer}.self_s"] = ns * s
    residual = totals.get(tracer.TASK, "self_ns")
    values["trace.task_s"] = totals.task_ns * s
    values["trace.task_residual_s"] = residual * s
    values["trace.overhead_share"] = 1.0 - sum(untraced.times) / sum(traced.times)
    values["trace.spans"] = int(totals.calls.sum())
    values["spectral.mc_3se_fail"] = run.counts["mc_3se_fail"]
    info = {
        "layers_plus_residual_equal_task_time": sum(layer_ns.values()) + residual == totals.task_ns,
        "named_spans_missing": sorted(set(NAMED_SPANS) - set(totals.names)),
    }
    return values, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", type=float, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ringmix" / "__init__.py").is_file():
        print(f"error: no ringmix source tree under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    import ringmix

    if Path(ringmix.__file__).resolve().parent != ROOT / "src" / "ringmix":
        print(f"error: imported ringmix from {ringmix.__file__}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    workdir = OUT / f"run-{os.getpid()}"
    try:
        if args.probe is not None:
            wl.setup(workdir)
            next(wl.schedule(args.seed))
            print(time.perf_counter() - args.probe)
            return 0
        return _benchmark(args, wl, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def timing_figures(times: list[float], work: int) -> dict:
    tail_s, tail_level = tail(times)
    return {
        "work_per_s": work / sum(times),
        "task_s_p50": statistics.median(times),
        "task_s_tail": tail_s,
        "tail_level_pct": tail_level,
    }


def _benchmark(args, wl, workdir: Path) -> int:
    ref = reference.load()
    if not args.trace:
        setup = [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]

    run = Run(wl, wl.setup(workdir), ref["digests"].get(wl.name, {}))
    schedule = wl.schedule(args.seed)
    run.attempt(next(schedule))  # warm-up: checked, not timed
    tr = tracer.Tracer() if args.trace else None
    untraced, traced = measure(run, schedule, args.seconds, tr)

    correct = run.failed == 0
    raw = timing_figures(untraced.times, untraced.work)
    mismatch = reference.fingerprint_mismatch(ref["fingerprint"], reference.fingerprint())
    report = {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "tasks_timed": len(untraced.times),
        "attempted": run.attempted,
        "failed_share": run.failed / run.attempted,
        "work_unit": wl.work_unit,
        "raw": raw,
        "verdicts": dict(run.counts),
        "fingerprint_mismatch": mismatch,
        "problems": run.problems,
    }
    if mismatch:
        print(f"fingerprint differs from the reference's in: {', '.join(mismatch)}", file=sys.stderr)
    if args.trace:
        values, info = layer_metrics(run, tr, untraced, traced)
        left = tracer.unrestored()
        report.update(info, unrestored=left, tasks_traced=len(traced.times))
        correct = (correct and info["layers_plus_residual_equal_task_time"]
                   and not info["named_spans_missing"] and not left)
        units = per_layer_units()
        OUT.mkdir(exist_ok=True)
        tracer.save(tr, OUT / f"spans-{wl.name}.npz")
    else:
        values = timing_figures(calibration.scale(untraced.times, untraced.cal), untraced.work)
        values["setup_s"] = statistics.median(cal for _, cal in setup)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        raw["setup_s"] = statistics.median(r for r, _ in setup)
        raw["calibration_ms"] = statistics.median(untraced.cal) * 1e3
        report[f"{wl.work_unit}_per_s"] = values["work_per_s"]
        units = END_TO_END_UNITS
    for problem in run.problems:
        print(f"failed: {problem}", file=sys.stderr)
    print(json.dumps({"report": report}))
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
