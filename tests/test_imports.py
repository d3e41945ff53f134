"""Every name a package module imports is used in that module.

``__init__.py`` imports in order to export, so it is left out.
"""

import ast
from pathlib import Path

import pytest

MODULES = sorted(p for p in (Path(__file__).resolve().parents[1] / "src" / "quatstat").glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names bound by the imports of ``source`` that it never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in bound.items() if name not in read]


def test_modules_are_found():
    assert {p.name for p in MODULES} >= {"thermo.py", "models.py", "cli.py"}


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(module):
    assert unused_imports(module.read_text()) == []


def test_an_unused_import_is_found():
    source = "from .errors import DomainError, QuatstatError\nimport numpy as np\n" \
             "import os.path\n\ndef f():\n    raise DomainError(np.pi)\n"
    assert unused_imports(source) == ["QuatstatError (line 1)", "os (line 3)"]
