"""The package's export list against its imports."""

import ast
from pathlib import Path

import qsw


def test_all_names_exactly_the_imported_names_and_the_version():
    # qsw/__init__.py writes every export twice, once imported and once in __all__.
    tree = ast.parse(Path(qsw.__file__).read_text())
    imported = {alias.asname or alias.name for node in tree.body if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert sorted(qsw.__all__) == sorted(imported | {"__version__"})
    assert len(set(qsw.__all__)) == len(qsw.__all__)
