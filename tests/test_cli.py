import pytest

from ringmix.cli import EXIT_BOUNDS, EXIT_DIVERGED, EXIT_OK, EXIT_USAGE, main

GOOD = """
[experiment]
strategies = d1d
learners = 4
iterations = 10
trials = 1
seed = 2
lr = 0.05
batch_mode = per-learner-fixed
batch_size = 4

[oracle]
kind = quadratic
dimension = 4
condition_number = 5.0
noise_scale = 1.0
"""


def test_spectral_subcommand(capsys):
    assert main(["spectral", "8", "16"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "0.804737854" in out
    assert "0.949253022" in out


def test_spectral_rejects_small_rings(capsys):
    assert main(["spectral", "2"]) == EXIT_USAGE
    assert ">= 3" in capsys.readouterr().err


def test_usage_errors_exit_one(capsys):
    assert main(["frobnicate"]) == EXIT_USAGE
    assert main(["run"]) == EXIT_USAGE
    assert main(["spectral"]) == EXIT_USAGE


def test_run_subcommand_and_overrides(tmp_path, capsys):
    cfg_file = tmp_path / "exp.ini"
    cfg_file.write_text(GOOD)
    out_dir = tmp_path / "out"
    code = main(["run", "--config", str(cfg_file), "--out", str(out_dir), "--trials", "2"])
    assert code == EXIT_OK
    csvs = sorted(p.name for p in out_dir.glob("d1d_*.csv"))
    assert csvs == ["d1d_L4_trial0.csv", "d1d_L4_trial1.csv"]
    capsys.readouterr()

    other = tmp_path / "other"
    assert main(
        ["run", "--config", str(cfg_file), "--out", str(other), "--seed", "9", "--quiet"]
    ) == EXIT_OK
    assert capsys.readouterr().out == ""
    base = (out_dir / "summary.csv").read_text().splitlines()[1].split(",")[3]
    reseeded = (other / "summary.csv").read_text().splitlines()[1].split(",")[3]
    assert base != reseeded


def test_run_missing_and_invalid_config(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.ini")]) == EXIT_USAGE
    assert main(["run", "--config", str(tmp_path)]) == EXIT_USAGE
    assert capsys.readouterr().err.splitlines() == [
        f"error: config file not found: {tmp_path / 'nope.ini'}",
        f"error: config file not found: {tmp_path}",
    ]
    bad = tmp_path / "bad.ini"
    bad.write_text("[experiment]\nstrategies = d1d\n")
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == EXIT_USAGE
    assert "missing required key" in capsys.readouterr().err


def test_run_out_naming_a_file_exits_one(tmp_path, capsys):
    cfg_file = tmp_path / "exp.ini"
    cfg_file.write_text(GOOD)
    taken = tmp_path / "afile"
    taken.write_text("")
    assert main(["run", "--config", str(cfg_file), "--out", str(taken)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("error: ") and "File exists" in line, line


def test_run_divergence_exit_code(tmp_path, capsys):
    cfg_file = tmp_path / "explode.ini"
    cfg_file.write_text(GOOD.replace("lr = 0.05", "lr = 80.0"))
    code = main(["run", "--config", str(cfg_file), "--out", str(tmp_path / "out")])
    assert code == EXIT_DIVERGED
    assert capsys.readouterr().err == "error: 1 of 1 cells diverged\n"


@pytest.mark.parametrize("text, message", [
    (GOOD.replace("condition_number = 5.0", "condition_number = inf"),
     "[oracle] condition_number: must be finite"),
    (GOOD + "[cost_model]\nmessage_size_mb = inf\nbandwidth_gbps = inf\n",
     "[cost_model] message_size_mb: must be finite"),
    # Passes the INI; bandwidth_gbps x 1e9 overflows, and CostModel rejects it.
    (GOOD + "[cost_model]\nbandwidth_gbps = 1e300\n", "bandwidth_bytes_per_s: must be finite"),
    # Both pass; the exchange time 2 m / b overflows, and CostModel rejects it.
    (GOOD + "[cost_model]\nmessage_size_mb = 1e300\nbandwidth_gbps = 1e-200\n",
     "message_size_bytes, bandwidth_bytes_per_s: exchange time must be finite"),
    # Each of 6 learners holds one of the 6 samples, but learner 6 of 7 would
    # draw from an empty shard; the sweep is refused before its first cell.
    (GOOD.replace("learners = 4", "learners = 6, 7\ndata_partition = sharded")
     .replace("kind = quadratic", "kind = logistic")
     .replace("condition_number = 5.0\nnoise_scale = 1.0", "n_samples = 6"),
     "[experiment] learners: sharded data needs learners <= n_samples=6, got 7"),
], ids=["condition_number", "message_and_bandwidth", "bandwidth_overflow", "exchange_overflow",
        "sharded_more_learners_than_samples"])
def test_run_rejected_value_exits_one_and_writes_nothing(tmp_path, capsys, text, message):
    cfg_file = tmp_path / "exp.ini"
    cfg_file.write_text(text)
    out_dir = tmp_path / "out"
    assert main(["run", "--config", str(cfg_file), "--out", str(out_dir)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""
    assert not out_dir.exists()


_STRAGGLER = "straggler_factor = 1.7976931348623157e308\nstraggler_count = 1\n"


@pytest.mark.parametrize("cost_model, strategy, iteration, total", [
    (_STRAGGLER, "d1d", 11, "sim_time_s"),
    ("compute_sigma = 1e300\n", "d1d", 3, "sim_time_s"),
    # Gossip records the mean over learners; the straggler's own total overflows.
    (_STRAGGLER, "dpsgd_fixed", 10, "compute_time_s[0]"),
    (_STRAGGLER, "adpsgd_fixed", 11, "compute_time_s[0]"),
    (_STRAGGLER, "rand_psgd", 11, "compute_time_s[0]"),
], ids=["straggler_factor_max_float", "compute_sigma_1e300",
        "straggler_dpsgd_fixed", "straggler_adpsgd_fixed", "straggler_rand_psgd"])
def test_run_overflowed_clock_exits_one(
    tmp_path, capsys, recwarn, cost_model, strategy, iteration, total
):
    cfg_file = tmp_path / "exp.ini"
    cfg_file.write_text(GOOD.replace("iterations = 10", "iterations = 12")
                        .replace("strategies = d1d", f"strategies = {strategy}")
                        + "[cost_model]\n" + cost_model)
    assert main(["run", "--config", str(cfg_file), "--out", str(tmp_path / "out")]) == EXIT_USAGE
    message = f"simulated clock overflowed at iteration {iteration}: {total} = inf"
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not recwarn.list


def test_verify_bounds_quiet_passes(capsys):
    assert main(["verify-bounds", "--trials", "300", "--seed", "5", "--quiet"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "PASS"
    assert main(["verify-bounds", "--trials", "1"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err == "error: trials: must be >= 2\n"
    assert captured.out == ""
    assert EXIT_BOUNDS == 3


def test_verify_bounds_rejects_negative_seed(capsys):
    assert main(["verify-bounds", "--seed", "-1", "--trials", "2"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err.strip() == "error: seed: must be >= 0"
    assert captured.out == ""
