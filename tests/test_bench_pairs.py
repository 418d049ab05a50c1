"""tools/bench_pairs.py: seed lists and the per-metric pair summary."""

import importlib.util
import json
import shutil
import subprocess
import time
from pathlib import Path
from unittest import mock

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _run(work, rss):
    return {"correct": True, "attempted": 10, "failed": 0,
            "metrics": {"work_per_s": work, "peak_rss_mb": rss}}


def test_parse_seeds_takes_ranges_and_lists(tmp_path, capsys):
    assert bench_pairs.parse_seeds("1501-1503,1507") == [1501, 1502, 1503, 1507]
    assert bench_pairs.parse_seeds("9") == [9]
    # A reversed range, a repeated seed or no seed exits 2 before the first run.
    out = tmp_path / "pairs.json"
    for seeds, message in (("1510-1501", "reversed seed range '1510-1501'"),
                           ("1501,1501-1502", "repeated seed 1501"),
                           ("1501-1503,1502,1503", "repeated seed 1502, 1503"),
                           ("", "invalid parse_seeds value: ''")):
        argv = ["--parent", ".", "--change", ".", "--seeds", seeds, "--out", str(out)]
        with mock.patch.object(bench_pairs, "run_once") as run_once:
            with pytest.raises(SystemExit) as exit_info:
                bench_pairs.main(argv)
        assert exit_info.value.code == 2
        assert not run_once.called and not out.exists()
        assert f"argument --seeds: {message}" in capsys.readouterr().err


def test_summary_counts_pairs_won_by_direction_and_ties_for_neither():
    runs = [
        {"seed": 1, "first": "parent", "parent": _run(100.0, 40.0), "change": _run(120.0, 40.0)},
        {"seed": 2, "first": "change", "parent": _run(110.0, 41.0), "change": _run(110.0, 40.5)},
        {"seed": 3, "first": "parent", "parent": _run(90.0, 40.0), "change": _run(95.0, 41.0)},
        {"seed": 4, "first": "change", "parent": {"error": "boom"}, "change": _run(1.0, 1.0)},
    ]
    out = bench_pairs.summarise(runs, {"work_per_s": ("higher", 0.15),
                                       "peak_rss_mb": ("lower", 0.1)})
    assert out["pairs"] == 3 and out["seeds"] == [1, 2, 3]
    assert out["errors"] == [{"seed": 4, "parent": "boom"}]
    # each side's own runs: the change's run in the errored pair counts, and
    # the parent's errored run makes it not correct
    assert out["attempted"] == {"parent": 30, "change": 40}
    assert out["correct"] == {"parent": False, "change": True}
    work, rss = out["metrics"]["work_per_s"], out["metrics"]["peak_rss_mb"]
    # the tie in pair 2 and the errored pair 4 count for neither side
    assert work["change_better_pairs"] == "2/4"
    assert rss["change_better_pairs"] == "1/4"
    assert work["parent_q1_median_q3"] == [95.0, 100.0, 105.0]  # inclusive quartiles
    assert work["parent_iqr"] == 10.0
    assert work["change_over_parent_median"] == pytest.approx(110.0 / 100.0)
    assert work["bound"] == 0.15 and work["verdict"] == "unchanged"  # won only 2/4


# Median 100, inclusive quartiles 99.5 and 100.5: an IQR of 1.
_PARENT = [100.0, 101.0, 99.5, 100.5, 98.0, 100.0, 102.0, 99.5, 100.5, 99.0]


@pytest.mark.parametrize("change, better, bound, won, more_failed, expected", [
    # 10/10 pairs, median +5 against the parent's IQR of 1
    ([p + 5.0 for p in _PARENT], "higher", 0.15, 10, False, "gain"),
    # the same, but the change's runs failed more operations than the parent's
    ([p + 5.0 for p in _PARENT], "higher", 0.15, 10, True, "unchanged"),
    # 9/10 pairs still gains; 8/10 does not
    ([p + 5.0 for p in _PARENT[:9]] + [_PARENT[9] - 1.0], "higher", 0.15, 9, False, "gain"),
    ([p + 5.0 for p in _PARENT[:8]] + [p - 1.0 for p in _PARENT[8:]], "higher", 0.15, 8, False,
     "unchanged"),
    # 10/10 pairs but a median gain of 0.5, inside the parent's IQR
    ([p + 0.5 for p in _PARENT], "higher", 0.15, 10, False, "unchanged"),
    # lower is better: the same +5 is 5% worse, past a 2% bound but inside 10%
    ([p + 5.0 for p in _PARENT], "lower", 0.02, 0, False, "worse"),
    ([p + 5.0 for p in _PARENT], "lower", 0.1, 0, False, "unchanged"),
    # the parent's IQR of 1% is wider than a 0.5% bound
    ([p + 0.2 for p in _PARENT], "higher", 0.005, 10, False, "unresolved"),
])
def test_verdict_against_the_parents_iqr_and_the_bound(change, better, bound, won, more_failed,
                                                       expected):
    assert bench_pairs.quartiles(_PARENT) == [99.5, 100.0, 100.5]
    assert bench_pairs.verdict(_PARENT, change, better, bound, won, len(_PARENT),
                               more_failed) == expected


def _counted(work, attempted, failed):
    return {"correct": True, "attempted": attempted, "failed": failed,
            "metrics": {"work_per_s": work}}


@pytest.mark.parametrize("attempted, failed, share, expected", [
    # against the parent's 1 of 100: 1 of 150 is a smaller share, 2 of 100 a larger
    ([15] * 10, [1] + [0] * 9, 1 / 150, "gain"),
    ([10] * 10, [1, 1] + [0] * 8, 2 / 100, "unchanged"),
    # where counts and shares disagree, the share decides: more failures at a
    # smaller share (2 of 300), and as many at a larger share (1 of 50)
    ([30] * 10, [1, 1] + [0] * 8, 2 / 300, "gain"),
    ([5] * 10, [1] + [0] * 9, 1 / 50, "unchanged"),
], ids=["smaller_share", "larger_share", "more_failed_smaller_share", "as_many_larger_share"])
def test_summary_compares_failed_shares_not_counts(attempted, failed, share, expected):
    runs = [
        {"seed": i, "first": "parent", "parent": _counted(p, 10, int(i == 0)),
         "change": _counted(p + 5.0, attempted[i], failed[i])}
        for i, p in enumerate(_PARENT)
    ]
    out = bench_pairs.summarise(runs, {"work_per_s": ("higher", 0.15)})
    assert out["failed_share"] == {"parent": 1 / 100, "change": share}
    assert out["metrics"]["work_per_s"]["verdict"] == expected


def test_a_pair_with_an_errored_run_counts_toward_the_gain_rule_for_neither_side():
    # 7 pairs the change wins by far, and 3 whose change run crashed: 7 of 10
    # pairs run is short of nine tenths, so there is no gain.
    runs = [{"seed": i, "first": "parent", "parent": _counted(p, 10, 0),
             "change": _counted(p + 5.0, 10, 0) if i < 7 else {"error": "exit 1"}}
            for i, p in enumerate(_PARENT)]
    work = bench_pairs.summarise(runs, {"work_per_s": ("higher", 0.15)})["metrics"]["work_per_s"]
    assert work["change_better_pairs"] == "7/10"
    assert work["verdict"] == "unchanged"


def test_a_side_whose_runs_crashed_is_not_correct_and_counts_its_own_runs():
    # The change crashed in 3 of 10 pairs, and failed 1 of 10 operations in
    # one pair whose parent run crashed.
    runs = [{"seed": i, "first": "parent",
             "parent": {"error": "exit 1"} if i == 9 else _counted(p, 10, 0),
             "change": _counted(p + 5.0, 10, int(i == 9)) if i < 7 or i == 9
             else {"error": "exit 1"}}
            for i, p in enumerate(_PARENT)]
    out = bench_pairs.summarise(runs, {"work_per_s": ("higher", 0.15)})
    assert out["pairs"] == 7
    assert out["correct"] == {"parent": False, "change": False}
    assert out["attempted"] == {"parent": 90, "change": 80}
    assert out["failed"] == {"parent": 0, "change": 1}
    assert out["failed_share"] == {"parent": 0.0, "change": 1 / 80}
    assert out["metrics"]["work_per_s"]["verdict"] == "unchanged"


# Median 100, inclusive quartiles 94 and 100 (an IQR of 6), highest run 100.2.
_WIDE_PARENT = [90.0, 91.0, 92.0, 100.0, 100.0, 100.0, 100.0, 100.0, 100.0, 100.2]


@pytest.mark.parametrize("change, won, expected", [
    # every change run beats every parent run: resolved, though the gain is
    # inside the parent's IQR
    ([100.5] * 10, 10, "unchanged"),
    # one change run (100.1) is below the parent's best
    ([100.5] * 9 + [100.1], 9, "unresolved"),
])
def test_verdict_when_the_parents_iqr_is_wider_than_the_bound(change, won, expected):
    assert bench_pairs.quartiles(_WIDE_PARENT) == [94.0, 100.0, 100.0]
    assert bench_pairs.verdict(_WIDE_PARENT, change, "higher", 0.05, won, 10) == expected


def test_an_unknown_workload_exits_before_the_first_run(tmp_path, capsys):
    repo = _PATH.parents[1]
    out = tmp_path / "pairs.json"
    argv = ["--parent", str(repo), "--change", str(repo), "--seeds", "1-2",
            "--workloads", "train-ring-L32,consensus-mx", "--out", str(out)]
    with mock.patch.object(bench_pairs, "run_once") as run_once:
        with pytest.raises(SystemExit) as exit_info:
            bench_pairs.main(argv)
    assert exit_info.value.code == 2
    assert not run_once.called and not out.exists()
    err = capsys.readouterr().err
    assert "unknown workload 'consensus-mx'" in err
    assert "BENCHMARK.json lists train-ring-L32, consensus-mc, sweep-logistic" in err


def test_a_repeated_workload_exits_before_the_first_run(tmp_path, capsys):
    repo = _PATH.parents[1]
    out = tmp_path / "pairs.json"
    argv = ["--parent", str(repo), "--change", str(repo), "--seeds", "1-2",
            "--workloads", "consensus-mc,consensus-mc", "--out", str(out)]
    with mock.patch.object(bench_pairs, "run_once") as run_once:
        with pytest.raises(SystemExit) as exit_info:
            bench_pairs.main(argv)
    assert exit_info.value.code == 2
    assert not run_once.called and not out.exists()
    assert "repeated workload 'consensus-mc'" in capsys.readouterr().err


@pytest.mark.parametrize("seconds, message", [
    ("0", "expected a positive finite number of seconds, got '0'"),
    ("-1", "expected a positive finite number of seconds, got '-1'"),
    ("nan", "expected a positive finite number of seconds, got 'nan'"),
    ("inf", "expected a positive finite number of seconds, got 'inf'"),
    ("ten", "invalid parse_seconds value: 'ten'"),
])
def test_seconds_that_are_not_a_positive_finite_number_exit_before_the_first_run(
        seconds, message, tmp_path, capsys):
    # perfbench given 0 or nan seconds fails every run, so the sweep would be lost.
    repo = _PATH.parents[1]
    out = tmp_path / "pairs.json"
    argv = ["--parent", str(repo), "--change", str(repo), "--seeds", "1-2",
            "--seconds", seconds, "--out", str(out)]
    with mock.patch.object(bench_pairs, "run_once") as run_once:
        with pytest.raises(SystemExit) as exit_info:
            bench_pairs.main(argv)
    assert exit_info.value.code == 2
    assert not run_once.called and not out.exists()
    assert f"argument --seconds: {message}" in capsys.readouterr().err
    assert bench_pairs.parse_seconds("0.5") == 0.5


@pytest.mark.parametrize("line", ["perfbench: interrupted", '{"correct": true}'],
                         ids=["not-json", "no-attempted"])
def test_a_malformed_run_is_an_errored_run_and_the_pairs_go_on(tmp_path, line):
    # perfbench's `malformed` case: exit 0, but the last line is no result.
    tree = tmp_path / "tree"
    (tree / "perfbench").mkdir(parents=True)
    (tree / "BENCHMARK.json").write_text((_PATH.parents[1] / "BENCHMARK.json").read_text())
    (tree / "perfbench" / "run.py").write_text(f"print({line!r})\n")
    out = tmp_path / "pairs.json"
    argv = ["--parent", str(tree), "--change", str(tree), "--seeds", "1-2",
            "--workloads", "consensus-mc", "--seconds", "1", "--out", str(out)]
    assert bench_pairs.main(argv) == 0
    summary = json.loads(out.read_text())["summary"]["consensus-mc"]
    assert summary["pairs"] == 0
    errors = [(e["seed"], side, e[side]) for e in summary["errors"] for side in e if side != "seed"]
    assert [e[:2] for e in errors] == [(1, "parent"), (1, "change"), (2, "parent"), (2, "change")]
    assert all(e[2].startswith(f"malformed result {line!r}") for e in errors)
    assert summary["correct"] == {"parent": False, "change": False}


def test_a_run_past_its_timeout_is_killed_as_an_errored_run(tmp_path, monkeypatch):
    # One hung perfbench run must not stall the sweep: it is killed at
    # RUN_TIMEOUT_FACTOR x T + RUN_TIMEOUT_SLACK_S and won by neither side.
    tree = tmp_path / "tree"
    (tree / "perfbench").mkdir(parents=True)
    (tree / "BENCHMARK.json").write_text((_PATH.parents[1] / "BENCHMARK.json").read_text())
    (tree / "perfbench" / "run.py").write_text("import time\ntime.sleep(60)\n")
    monkeypatch.setattr(bench_pairs, "RUN_TIMEOUT_SLACK_S", 0.3)
    out = tmp_path / "pairs.json"
    argv = ["--parent", str(tree), "--change", str(tree), "--seeds", "1",
            "--workloads", "consensus-mc", "--seconds", "0.1", "--out", str(out)]
    start = time.monotonic()
    assert bench_pairs.main(argv) == 0
    assert time.monotonic() - start < 30
    summary = json.loads(out.read_text())["summary"]["consensus-mc"]
    assert summary["pairs"] == 0
    assert summary["errors"] == [{"seed": 1, side: "killed at its timeout of 0.5 s"}
                                 for side in bench_pairs.SIDES]
    assert summary["correct"] == {"parent": False, "change": False}


def _fake_tree(path, mismatch, commit=None):
    """A tree whose perfbench run prints a report line with `mismatch`, then a
    result; with a `.git` at `commit` when one is given."""
    (path / "perfbench").mkdir(parents=True)
    spec = (_PATH.parents[1] / "BENCHMARK.json").read_text()
    (path / "BENCHMARK.json").write_text(spec)
    metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]} for m in json.loads(spec)["end_to_end"]}
    report = json.dumps({"report": {"fingerprint_mismatch": mismatch}})
    result = json.dumps({"correct": True, "attempted": 3, "failed": 0, "metrics": metrics})
    (path / "perfbench" / "run.py").write_text(f"print({report!r})\nprint({result!r})\n")
    if commit is not None:
        (path / ".git" / "refs" / "heads").mkdir(parents=True)
        (path / ".git" / "HEAD").write_text("ref: refs/heads/main\n")
        (path / ".git" / "refs" / "heads" / "main").write_text(commit + "\n")
    return path


def test_the_output_keeps_each_trees_commit_and_each_runs_fingerprint_mismatch(tmp_path):
    commit = "0123456789abcdef0123456789abcdef01234567"
    parent = _fake_tree(tmp_path / "parent", [], commit)
    change = _fake_tree(tmp_path / "change", ["git_sha", "numpy"])  # an exported tree
    out = tmp_path / "pairs.json"
    argv = ["--parent", str(parent), "--change", str(change), "--seeds", "1-2",
            "--workloads", "consensus-mc", "--seconds", "1", "--out", str(out)]
    assert bench_pairs.main(argv) == 0
    report = json.loads(out.read_text())
    assert report["trees"] == {"parent": commit, "change": "unknown"}
    runs = report["runs"]["consensus-mc"]
    assert [r["parent"]["fingerprint_mismatch"] for r in runs] == [[], []]
    assert [r["change"]["fingerprint_mismatch"] for r in runs] == [["git_sha", "numpy"]] * 2
    assert report["summary"]["consensus-mc"]["pairs"] == 2


def _git(tree, *args):
    return subprocess.run(["git", "-C", str(tree), "-c", "user.name=t", "-c", "user.email=t@t",
                           "-c", "commit.gpgsign=false", *args],
                          check=True, capture_output=True, text=True).stdout.strip()


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_a_checkout_with_changes_git_does_not_ignore_names_its_commit_dirty(tmp_path):
    tree = tmp_path / "tree"
    tree.mkdir()
    _git(tree, "init", "-q")
    (tree / ".gitignore").write_text("out/\n")
    (tree / "a.txt").write_text("a\n")
    _git(tree, "add", "-A")
    _git(tree, "commit", "-q", "-m", "start")
    head = _git(tree, "rev-parse", "HEAD")
    assert bench_pairs.tree_commit(tree) == head
    (tree / "out").mkdir()
    (tree / "out" / "run.log").write_text("ignored\n")
    assert bench_pairs.tree_commit(tree) == head
    # A tree inside a checkout, with no `.git` of its own, is not that checkout.
    assert bench_pairs.tree_commit(tree / "out") == "unknown"
    (tree / "a.txt").write_text("b\n")
    assert bench_pairs.tree_commit(tree) == head + "+dirty"
    _git(tree, "checkout", "-q", "a.txt")
    (tree / "new.txt").write_text("untracked\n")
    assert bench_pairs.tree_commit(tree) == head + "+dirty"
    # A tree without git on the path keeps the commit it read.
    with mock.patch.object(bench_pairs.subprocess, "run", side_effect=FileNotFoundError):
        assert bench_pairs.tree_commit(tree) == head
