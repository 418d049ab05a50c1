"""Reference output digests and the environment fingerprint they depend on.

`reference.json` holds, for every task key of every workload pool, the
digest of that task's output, and the fingerprint of the environment that
produced them.  Outputs that go through BLAS (the dense mixing product, the
eigensolvers) can change in their last bits with the BLAS build, the CPU
kernel it picks or its thread count, so a digest mismatch is read together
with the fingerprint differences, which the benchmark reports by name.

Regenerate (only when a change is meant to alter outputs):

    python3 perfbench/reference.py
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
REFERENCE = Path(__file__).resolve().parent / "reference.json"

THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


def pin_threads() -> None:
    """One BLAS thread: must run before numpy is imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def git_sha(root: Path = ROOT) -> str:
    """Commit of a git checkout, read from its files; "unknown" elsewhere."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def fingerprint() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', 'unknown')}",
        "blas_config": blas.get("openblas configuration", "unknown"),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "git_sha": git_sha(),
    }


def fingerprint_mismatch(reference: dict, current: dict) -> list[str]:
    """Names of the fingerprint fields that differ from the reference's."""
    return [k for k in sorted(set(reference) | set(current)) if reference.get(k) != current.get(k)]


def load() -> dict:
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


def main() -> int:
    pin_threads()
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    ref = {"fingerprint": fingerprint(), "digests": {}}
    workdir = ROOT / ".perfbench_out" / f"reference-{os.getpid()}"
    try:
        for name, wl in workloads.WORKLOADS.items():
            ctx = wl.setup(workdir)
            digests = {}
            for key in wl.keys():
                outcome = wl.check(ctx, key, wl.run(ctx, key))
                if outcome.problems:
                    print(f"{name} {key}: {'; '.join(outcome.problems)}", file=sys.stderr)
                    return 1
                digests[key] = outcome.digest
            ref["digests"][name] = digests
            print(f"{name}: {len(digests)} digests", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
