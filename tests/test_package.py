import ast
import os
import subprocess
import sys
from pathlib import Path

import ringmix
from ringmix import harness, mixing, simulation, spectral


def _imported_public_names() -> set[str]:
    tree = ast.parse(Path(ringmix.__file__).read_text(encoding="utf-8"))
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if not (alias.asname or alias.name).startswith("_")
    }


def test_all_resolves_and_lists_every_imported_public_name():
    assert len(set(ringmix.__all__)) == len(ringmix.__all__)
    for name in ringmix.__all__:
        assert hasattr(ringmix, name), name
    imported = _imported_public_names()
    assert imported, "no imports found in ringmix/__init__.py"
    assert imported <= set(ringmix.__all__), sorted(imported - set(ringmix.__all__))


def test_names_the_benchmark_tracer_wraps_stay_bound():
    # perfbench's tracer wraps these module attributes by name; an import
    # kept only for it must not be dropped as unused.
    assert simulation.apply_mixing is mixing.apply_mixing
    assert spectral.conjugate_by_permutation is mixing.conjugate_by_permutation
    assert spectral.sample_permutation is mixing.sample_permutation
    assert harness.monte_carlo_consensus is spectral.monte_carlo_consensus
    for s in simulation.Strategy:
        assert simulation._STEP_FUNCTIONS[s] is getattr(simulation, f"step_{s.value}")


def test_import_leaves_numpy_random_unloaded():
    # numpy.random takes about 14 ms to load; seeding loads it at the first
    # stream, so importing the package and its CLI stays that much lighter.
    code = "import sys, ringmix, ringmix.cli; print('numpy.random' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(ringmix.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True, timeout=60)
    assert proc.stdout.strip() == "False"
