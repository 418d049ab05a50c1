"""Golden digests: any change to a number ringmix produces fails here.

`golden.json` holds SHA-256 digests of the final state and trace records
of small `run_training` calls (every strategy, both oracles, shared and
sharded data, short and multi-word seeds, runs that cross the 64-iteration
mark) and of every artifact of a small `ringmix run` sweep, together with
the fingerprint of the environment that recorded them.  Paths through BLAS
(mixing products, logistic matvecs) can change in their last bits with the
numpy or BLAS build, so a fingerprint difference fails by name instead of
being skipped.

Re-record only when a change is meant to alter outputs, and say so:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import hashlib
import json
import platform
import struct
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from ringmix import cli
from ringmix.objectives import logistic_oracle, quadratic_oracle
from ringmix.simulation import CostModel, RunConfig, Strategy, run_training

GOLDEN = Path(__file__).with_name("golden.json")

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


def record() -> dict:
    training = {
        _training_key(s, kind, part): training_digest(s, kind, part)
        for s in Strategy for kind in ORACLES for part in PARTITIONS
    }
    with tempfile.TemporaryDirectory() as tmp:
        sweep = sweep_digests(Path(tmp))
    return {"fingerprint": fingerprint(), "training": training, "sweep": sweep}


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}", file=sys.stderr)
