"""The package's export list against its imports, and every module's imports against its uses."""

import ast
from pathlib import Path

import qsw


def test_all_names_exactly_the_imported_names_and_the_version():
    # qsw/__init__.py writes every export twice, once imported and once in __all__.
    tree = ast.parse(Path(qsw.__file__).read_text())
    imported = {alias.asname or alias.name for node in tree.body if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert sorted(qsw.__all__) == sorted(imported | {"__version__"})
    assert len(set(qsw.__all__)) == len(qsw.__all__)


def test_no_module_imports_a_name_it_never_uses():
    # Deletions leave imports behind; a name in __all__ counts as used, since it is exported.
    unused = []
    for path in sorted(Path(qsw.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = {}
        used = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update({alias.asname or alias.name.split(".")[0]: node.lineno for alias in node.names})
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update({alias.asname or alias.name: node.lineno for alias in node.names})
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Assign) and any(getattr(target, "id", None) == "__all__" for target in node.targets):
                used.update(ast.literal_eval(node.value))
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]
    assert unused == []
