import ast
from pathlib import Path

import ringmix


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
