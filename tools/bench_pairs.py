"""Alternating parent/change runs of perfbench, summarised pair by pair.

    python3 tools/bench_pairs.py --parent DIR --change DIR --seeds 1501-1510 \
        [--workloads train-ring-L32,consensus-mc,sweep-logistic] [--seconds 30] \
        --out PAIRS.json

DIR is a checkout (or an exported tree) that holds `perfbench/` and
`src/ringmix`.  Each workload must be one that the change's BENCHMARK.json
lists, each named once, each seed distinct and T a positive finite number
of seconds; an unknown or repeated name, a reversed range, a repeated seed
or another T exits 2 before the first run.
For each seed, and for each workload in turn, it runs `perfbench/run.py
--workload W --seed S --seconds T --trace 0` once from each directory, one
run at a time; the parent runs first in the first pair and the two sides
take turns after that.  The three workloads are interleaved pair by pair,
so a slow spell of a shared host falls on every workload alike.  A run
still going RUN_TIMEOUT_FACTOR x T + RUN_TIMEOUT_SLACK_S seconds after it
started (360 s at T = 30) is killed and counted as an errored run, so one
hung run cannot stall the sweep.

The output JSON holds each tree's commit (`trees`, read from its `.git`
as perfbench's fingerprint reads it, with "+dirty" when the checkout has
changes, or "unknown" for an exported tree);
per workload, every run's end-to-end metrics, its correct/attempted/failed
counts and the fingerprint fields perfbench found to differ from its
reference's (`fingerprint_mismatch`, from the report line before the
result; null when there is none); each side's totals of those over all
of its own runs, with `correct` false if any of them errored, and its
share of failed operations (failed / attempted); and per metric each
side's runs, their median and inclusive quartiles, the parent's IQR
(q3 - q1), the change's median over the parent's, the pairs the change
won out of every pair run ("better" as BENCHMARK.json declares it; a
tie, or a pair with an errored run, counts for neither side), and a
verdict against the metric's BENCHMARK.json `bound` (see `verdict`,
which withholds a gain when the change's failed share is the larger).
It is rewritten after every run, so an interrupted sweep keeps what it
measured.  Standard library only.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")

# A perfbench run measures for T seconds, then finishes its last task; before
# that it probes its setup in fresh processes and checks every output.
RUN_TIMEOUT_FACTOR, RUN_TIMEOUT_SLACK_S = 2, 300.0

_REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.py"


def tree_commit(tree: Path) -> str:
    """The commit of a checkout, read by perfbench's `git_sha`, and "+dirty"
    after it when `git status` in that tree reports a change that its
    `.gitignore` does not hide; "unknown" for a tree without a `.git`
    directory.  Git is told the tree's own `.git` and work tree, so it never
    looks in a repository above it; when git is missing or fails, the commit
    is given as read."""
    spec = importlib.util.spec_from_file_location("perfbench_reference", _REFERENCE)
    reference = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(reference)
    commit = reference.git_sha(tree)
    if not (tree / ".git").exists():
        return commit
    try:
        status = subprocess.run(
            ["git", f"--git-dir={tree / '.git'}", f"--work-tree={tree}", "status", "--porcelain"],
            capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return commit
    return commit + "+dirty" if status.stdout.strip() else commit


def parse_seeds(text: str) -> list[int]:
    """'1501-1510' or '1501,1503' (or a mix) as a list of distinct seeds.
    A reversed range (no seed) or a repeated seed (one seed counted as two
    pairs) is an argparse type error, so `main` exits 2 before any run."""
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        low, high = int(low), int(high or low)
        if high < low:
            raise argparse.ArgumentTypeError(f"reversed seed range {part!r}")
        seeds += range(low, high + 1)
    repeated = sorted({s for s in seeds if seeds.count(s) > 1})
    if repeated:
        raise argparse.ArgumentTypeError(f"repeated seed {', '.join(map(str, repeated))}")
    return seeds


def parse_seconds(text: str) -> float:
    """A run's length in seconds: a positive finite number, else an argparse
    type error, so `main` exits 2 before any run (perfbench given 0 or nan
    seconds runs no task and dies with an IndexError)."""
    seconds = float(text)
    if not 0 < seconds < math.inf:
        raise argparse.ArgumentTypeError(f"expected a positive finite number of seconds, "
                                         f"got {text!r}")
    return seconds


def _mismatch(line: str) -> list[str] | None:
    """The `fingerprint_mismatch` of a perfbench report line, or None."""
    try:
        return json.loads(line)["report"]["fingerprint_mismatch"]
    except (ValueError, LookupError, TypeError):
        return None


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run from `tree`: its final JSON line with the report
    line's fingerprint mismatch, or the error, for a run killed at its
    timeout, a nonzero exit, no output or a last line that is not a result."""
    timeout = RUN_TIMEOUT_FACTOR * seconds + RUN_TIMEOUT_SLACK_S
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=tree, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"killed at its timeout of {timeout:g} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": proc.stderr.strip()[-2000:] or f"exit {proc.returncode}"}
    try:
        result = json.loads(lines[-1])
        return {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: m["value"] for name, m in result["metrics"].items()},
            "fingerprint_mismatch": _mismatch(lines[-2]) if len(lines) > 1 else None,
        }
    except (ValueError, LookupError, TypeError, AttributeError) as exc:
        return {"error": f"malformed result {lines[-1][-200:]!r}: {exc!r}"}


def quartiles(values: list[float]) -> list[float]:
    """Inclusive q1, median and q3 (the value itself for a single run)."""
    if len(values) == 1:
        return values * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q2, q3]


def verdict(parent: list[float], change: list[float], better: str, bound: float,
            won: int, pairs_run: int, more_failed: bool = False) -> str:
    """One metric's verdict over the complete pairs' runs, of which the change
    won `won`, out of `pairs_run` pairs run; the first that holds of:

    gain        the change wins at least 9 of 10 pairs run, and its median
                beats the parent's by more than the parent's IQR, and the
                change's runs failed no larger share of their operations
                than the parent's (`more_failed` is False);
    worse       its median is worse than the parent's by more than `bound`,
                a share of the parent's median;
    unresolved  the parent's IQR is wider than `bound` (as that share), and
                not every change run beats every parent run;
    unchanged   otherwise.
    """
    sign = 1 if better == "higher" else -1
    (p1, p_median, p3), c_median = quartiles(parent), quartiles(change)[1]
    gained = sign * (c_median - p_median)
    if 10 * won >= 9 * pairs_run and gained > p3 - p1 and not more_failed:
        return "gain"
    if gained < -bound * abs(p_median):
        return "worse"
    every_run_better = all(sign * (c - p) > 0 for p in parent for c in change)
    if p3 - p1 > bound * abs(p_median) and not every_run_better:
        return "unresolved"
    return "unchanged"


def summarise(runs: list[dict], spec: dict[str, tuple[str, float]]) -> dict:
    """Per-metric figures over the complete pairs of one workload, with pairs
    won out of every pair run; `spec` maps each metric to its (better, bound)
    in BENCHMARK.json.  Each side's correct, attempted, failed and failed
    share are over all of its own runs, and an errored run makes it not
    correct."""
    pairs = [r for r in runs if all("metrics" in r[side] for side in SIDES)]
    out = {
        "pairs": len(pairs),
        "seeds": [r["seed"] for r in pairs],
        "first_in_pair": [r["first"] for r in pairs],
        "errors": [{"seed": r["seed"], side: r[side]["error"]}
                   for r in runs for side in SIDES if "error" in r[side]],
    }
    done = {side: [r[side] for r in runs if "metrics" in r[side]] for side in SIDES}
    out["correct"] = {side: len(done[side]) == len(runs) and all(r["correct"] for r in done[side])
                      for side in SIDES}
    for key in ("attempted", "failed"):
        out[key] = {side: sum(r[key] for r in done[side]) for side in SIDES}
    # A faster side attempts more operations: compare shares, not counts.
    out["failed_share"] = {side: out["failed"][side] / max(1, out["attempted"][side])
                           for side in SIDES}
    metrics = {}
    for name, (direction, bound) in spec.items():
        if not pairs:
            break
        values = {side: [r[side]["metrics"][name] for r in pairs] for side in SIDES}
        q = {side: quartiles(values[side]) for side in SIDES}
        sign = 1 if direction == "higher" else -1
        won = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
        metrics[name] = {
            "better": direction,
            **values,
            "parent_q1_median_q3": q["parent"],
            "change_q1_median_q3": q["change"],
            "parent_iqr": q["parent"][2] - q["parent"][0],
            "change_over_parent_median": q["change"][1] / q["parent"][1],
            "change_better_pairs": f"{won}/{len(runs)}",
            "bound": bound,
            "verdict": verdict(values["parent"], values["change"], direction, bound, won,
                               len(runs),
                               out["failed_share"]["change"] > out["failed_share"]["parent"]),
        }
    out["metrics"] = metrics
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--seeds", type=parse_seeds, required=True)
    parser.add_argument("--workloads", default="train-ring-L32,consensus-mc,sweep-logistic")
    parser.add_argument("--seconds", type=parse_seconds, default=30.0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    metric_spec = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    workloads = args.workloads.split(",")
    known = [w["name"] for w in spec["workloads"]]
    unknown = [w for w in workloads if w not in known]
    if unknown:  # else each would fail one perfbench run per seed and side
        parser.error(f"unknown workload {', '.join(map(repr, unknown))}; "
                     f"BENCHMARK.json lists {', '.join(known)}")
    repeated = sorted({w for w in workloads if workloads.count(w) > 1})
    if repeated:  # else each pair would run twice and be counted twice under one name
        parser.error(f"repeated workload {', '.join(map(repr, repeated))}")
    commits = {side: tree_commit(tree) for side, tree in trees.items()}
    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    for i, seed in enumerate(args.seeds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for workload in workloads:
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_once(trees[side], workload, seed, args.seconds)
                print(f"{workload} seed {seed} {side}: "
                      f"{pair[side].get('metrics', pair[side].get('error'))}", flush=True)
            runs[workload].append(pair)
            report = {
                "method": f"perfbench/run.py --seconds {args.seconds:g} --trace 0, alternating "
                          "which side runs first, workloads interleaved pair by pair",
                "trees": commits,
                "summary": {w: summarise(r, metric_spec) for w, r in runs.items()},
                "runs": runs,
            }
            args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
