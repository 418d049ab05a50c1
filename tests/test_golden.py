"""Golden digests: any change to a number ringmix produces fails here.

`golden.json` holds SHA-256 digests of the final state and trace records
of small `run_training` calls (every strategy, both oracles, shared and
sharded data, short and multi-word seeds, runs that cross the 64-iteration
mark), of every artifact of a small `ringmix run` sweep, of consensus
curves (Monte Carlo under both norms, fixed-ring powering), of the
canonical config echo of two INI files and of each demo script's
stdout, together with the fingerprint of the environment that recorded
them.  Paths through BLAS
(mixing products, logistic matvecs) can change in their last bits with the
numpy or BLAS build, so a fingerprint difference fails by name instead of
being skipped.

Re-record only when a change is meant to alter outputs, and say so:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import platform
import runpy
import struct
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from ringmix import cli
from ringmix.config import echo_config, parse_config
from ringmix.objectives import logistic_oracle, quadratic_oracle
from ringmix.simulation import CostModel, RunConfig, Strategy, run_training
from ringmix.spectral import fixed_consensus_curve, monte_carlo_consensus

GOLDEN = Path(__file__).with_name("golden.json")
DEMOS = Path(__file__).parents[1] / "demos"
DEMO_INI = DEMOS / "experiment.ini"

ORACLES = ("quadratic", "logistic")
PARTITIONS = ("shared", "sharded")

SWEEP_INI = """\
[experiment]
strategies = spsgd, dpsgd_fixed, adpsgd_fixed, rand_psgd, d1d
learners = 3, 5
iterations = 12
trials = 2
seed = 77
lr = 0.2
batch_mode = total-fixed
batch_size = 30
warmup_iters = 2
staleness_mode = sync
data_partition = sharded
log_every = 3

[oracle]
kind = logistic
dimension = 6
seed = 3
n_samples = 120
separation = 1.5

[cost_model]
compute_sigma = 0.3
straggler_factor = 4.0
straggler_count = 1
"""

# A quadratic config that sets every optional key, every [cost_model] key
# among them, some with integer text in float fields.
QUADRATIC_INI = """\
[experiment]
strategies = d1d, rand_psgd, spsgd
learners = 4, 12
iterations = 40
trials = 3
seed = 18446744073709551615
lr = 0.30000000000000004
batch_mode = per-learner-fixed
batch_size = 7
warmup_iters = 5
staleness_mode = sync
init_scale = 0
data_partition = sharded
log_every = 4

[oracle]
kind = quadratic
dimension = 9
seed = 12
condition_number = 3
noise_scale = 1e-300

[cost_model]
message_size_mb = 97.5
bandwidth_gbps = 10
compute_median_s = 0.025
compute_sigma = 0.0
straggler_factor = 6.25
straggler_count = 4
"""


# Monte Carlo consensus cases (L, k_max, trials).  Trial counts run from 2
# to a few hundred so that batched evaluations see trial counts just below,
# at and just above any power-of-two-ish group size at each ring size.
CONSENSUS_MC = (
    (3, 4, 2), (3, 4, 7),
    (5, 6, 11),
    (8, 5, 40), (8, 3, 255), (8, 3, 256), (8, 3, 257),
    (33, 4, 2), (33, 4, 15), (33, 4, 16), (33, 3, 31),
    (64, 4, 3), (64, 4, 4), (64, 4, 5), (64, 3, 9),
)
NORMS = ("frobenius", "spectral")
FIXED_RINGS = (3, 5, 8, 33, 64)


def fingerprint() -> dict[str, str]:
    """The environment the byte-identity of the digests depends on."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', 'unknown')}",
    }


def _sha(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(len(chunk).to_bytes(8, "little"))
        h.update(chunk)
    return h.hexdigest()


def _oracle(kind: str):
    if kind == "quadratic":
        return quadratic_oracle(dimension=5, condition_number=8.0, noise_scale=1.5, seed=4)
    return logistic_oracle(dimension=5, n_samples=60, separation=1.0, seed=4)


def _config(partition: str) -> RunConfig:
    # The sharded runs use a 64-bit seed (the shape of a sweep's cell
    # seeds), synchronous rand_psgd and a straggler.
    sharded = partition == "sharded"
    return RunConfig(
        n_learners=5,
        iterations=70,
        lr=0.05,
        batch_size=3,
        seed=2**40 + 9 if sharded else 11,
        warmup_iters=4,
        staleness_mode="sync" if sharded else "async",
        data_partition=partition,
        log_every=10,
        cost_model=CostModel(
            compute_sigma=0.2,
            compute_scale=np.array([1.0, 1.0, 5.0, 1.0, 1.0]) if sharded else None,
        ),
    )


def training_digest(strategy: Strategy, kind: str, partition: str) -> str:
    result = run_training(strategy, _oracle(kind), _config(partition))
    records = b"".join(
        struct.pack(
            "<q5d", r.iteration, r.sim_time_s, r.mean_loss, r.avg_model_loss,
            r.consensus_dist, r.rho,
        )
        for r in result.records
    )
    state = result.state
    arrays = (state.weights, state.prev_weights, state.last_gradients, state.compute_time_s)
    return _sha(
        records, bytes([result.diverged]), struct.pack("<d", state.sim_time_s),
        *(np.ascontiguousarray(a).tobytes() for a in arrays),
    )


def sweep_digests(workdir: Path) -> dict[str, str]:
    """Digest of every file a small `ringmix run` sweep writes, by name."""
    ini = workdir / "golden.ini"
    ini.write_text(SWEEP_INI, encoding="utf-8")
    out = workdir / "out"
    code = cli.main(["run", "--config", str(ini), "--out", str(out), "--quiet"])
    digests = {"exit_code": str(code)}
    for path in sorted(out.iterdir()):
        digests[path.name] = _sha(path.read_bytes())
    return digests


def curve_digest(curve) -> str:
    arrays = (curve.steps, curve.distances, curve.halfwidths,
              curve.squared_distances, curve.squared_halfwidths)
    return _sha(
        curve.norm_kind.encode(), str(curve.trials).encode(),
        *(b"-" if a is None else np.ascontiguousarray(a).tobytes() for a in arrays),
    )


def consensus_digests() -> dict[str, str]:
    """Digest of every consensus curve case, by name."""
    digests = {}
    for norm in NORMS:
        for L, k_max, trials in CONSENSUS_MC:
            curve = monte_carlo_consensus(L, k_max, trials, seed=L + trials, norm_kind=norm)
            digests[f"mc/{norm}/L{L}/k{k_max}/t{trials}"] = curve_digest(curve)
    for L in FIXED_RINGS:
        digests[f"fixed/L{L}"] = curve_digest(fixed_consensus_curve(L, 20))
    return digests


def echo_digests() -> dict[str, str]:
    """Digest of `echo_config(parse_config(text))` for each INI file, by name."""
    texts = {"demos/experiment.ini": DEMO_INI.read_text(encoding="utf-8"),
             "quadratic_all_keys": QUADRATIC_INI}
    return {name: _sha(echo_config(parse_config(text)).encode()) for name, text in texts.items()}


def demo_digests() -> dict[str, str]:
    """Digest of the stdout of each demo script, run in this process, by name."""
    digests = {}
    for path in sorted(DEMOS.glob("*.py")):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            runpy.run_path(str(path), run_name="__main__")
        digests[path.name] = _sha(out.getvalue().encode())
    return digests


def _training_key(strategy: Strategy, kind: str, partition: str) -> str:
    return f"{strategy.value}/{kind}/{partition}"


def _load() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def _differences(recorded: dict) -> list[str]:
    current = fingerprint()
    return [
        f"{k}: recorded {recorded.get(k)!r}, here {current.get(k)!r}"
        for k in sorted(set(recorded) | set(current))
        if recorded.get(k) != current.get(k)
    ]


def _environment_note(recorded: dict) -> str:
    differing = _differences(recorded)
    if not differing:
        return "the environment matches the recording, so the program's output changed"
    return "the environment differs from the recording in " + "; ".join(differing)


def test_environment_matches_recording():
    recorded = _load()["fingerprint"]
    assert not _differences(recorded), _environment_note(recorded)


@pytest.mark.parametrize("partition", PARTITIONS)
@pytest.mark.parametrize("kind", ORACLES)
@pytest.mark.parametrize("strategy", list(Strategy), ids=lambda s: s.value)
def test_training_digest(strategy, kind, partition):
    golden = _load()
    key = _training_key(strategy, kind, partition)
    assert training_digest(strategy, kind, partition) == golden["training"][key], (
        f"{key}: {_environment_note(golden['fingerprint'])}"
    )


def test_sweep_artifact_digests(tmp_path):
    golden = _load()
    assert sweep_digests(tmp_path) == golden["sweep"], _environment_note(golden["fingerprint"])


def test_consensus_curve_digests():
    golden = _load()
    assert consensus_digests() == golden["consensus"], _environment_note(golden["fingerprint"])


def test_config_echo_digests():
    assert echo_digests() == _load()["echo"]


def test_demo_stdout_digests():
    golden = _load()
    assert demo_digests() == golden["demos"], _environment_note(golden["fingerprint"])


def record() -> dict:
    training = {
        _training_key(s, kind, part): training_digest(s, kind, part)
        for s in Strategy for kind in ORACLES for part in PARTITIONS
    }
    with tempfile.TemporaryDirectory() as tmp:
        sweep = sweep_digests(Path(tmp))
    return {
        "fingerprint": fingerprint(), "training": training, "sweep": sweep,
        "consensus": consensus_digests(), "echo": echo_digests(), "demos": demo_digests(),
    }


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}", file=sys.stderr)
