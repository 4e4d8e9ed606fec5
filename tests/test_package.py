"""The package's export list."""

import ast
from pathlib import Path

import lrfpp


def test_all_lists_exactly_the_names_init_imports():
    # A name deleted from a module must leave __all__ too, and a name imported
    # into the package must be exported.
    tree = ast.parse(Path(lrfpp.__file__).read_text(encoding="utf-8"))
    imported = [alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert sorted(lrfpp.__all__) == sorted(imported)
    for name in lrfpp.__all__:
        assert hasattr(lrfpp, name), name
