import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import ringmix
from ringmix import cli, config, harness, mixing, objectives, seeding, simulation, spectral


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
    assert set(ringmix.__all__) == imported | {"__version__"}
    # The imports also bind the submodules; a star import binds none of them.
    namespace = {"__builtins__": __builtins__}
    exec("from ringmix import *", namespace)
    del namespace["__builtins__"]
    assert namespace.keys() == set(ringmix.__all__)
    assert not [n for n, v in namespace.items() if inspect.ismodule(v)]


def test_names_the_benchmark_tracer_wraps_stay_bound():
    # perfbench's tracer wraps these module attributes by name, and its
    # selftest asserts each of them is wrapped; an import kept only for it
    # must not be dropped as unused.
    assert simulation.apply_mixing is mixing.apply_mixing
    assert spectral.conjugate_by_permutation is mixing.conjugate_by_permutation
    assert spectral.sample_permutation is mixing.sample_permutation
    assert harness.run_training is ringmix.run_training is simulation.run_training
    assert harness.monte_carlo_consensus is spectral.monte_carlo_consensus
    assert cli.parse_config is config.parse_config
    assert harness.seed_sequence is seeding.seed_sequence
    for module, name in ((seeding, "stream"), (simulation, "gradient_matrix")):
        assert inspect.isfunction(vars(module).get(name)), name
    assert inspect.isfunction(vars(objectives.QuadraticObjective).get("stochastic_gradient"))
    for s in simulation.Strategy:
        assert simulation._STEP_FUNCTIONS[s] is getattr(simulation, f"step_{s.value}")


def _named_spans() -> dict:
    """perfbench/run.py's NAMED_SPANS, read from its source without running it."""
    tree = ast.parse((Path(__file__).parents[1] / "perfbench" / "run.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["NAMED_SPANS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("NAMED_SPANS not found in perfbench/run.py")


def _traced(module, attr: str) -> bool:
    """True if the tracer would name a span `<layer>.attr`: a public function
    of that module, or a method of a public class it defines."""
    if inspect.isfunction(vars(module).get(attr)):
        return vars(module)[attr].__module__ == module.__name__
    return any(
        inspect.isfunction(vars(cls).get(attr))
        for name, cls in vars(module).items()
        if not name.startswith("_") and inspect.isclass(cls) and cls.__module__ == module.__name__
    )


def test_every_named_benchmark_span_resolves_to_a_ringmix_function():
    # perfbench --trace 1 reports correct: false when a named span is gone,
    # so renaming or removing one of these breaks the benchmark.
    spans = _named_spans()
    assert spans
    for name in spans:
        layer, attr = name.split(".")
        assert _traced(importlib.import_module(f"ringmix.{layer}"), attr), name


def test_import_leaves_numpy_random_unloaded():
    # numpy.random takes about 14 ms to load; seeding loads it at the first
    # stream, so importing the package and its CLI stays that much lighter.
    code = "import sys, ringmix, ringmix.cli; print('numpy.random' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(ringmix.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True, timeout=60)
    assert proc.stdout.strip() == "False"
