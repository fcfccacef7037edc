"""Every name a ``risbeam`` module imports is used there (stdlib ``ast`` only)."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "risbeam"


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's imports that nothing in it reads.

    A name counts as read when it appears as a load, or when the module
    lists it in ``__all__`` (a re-export).  ``from __future__`` imports
    bind nothing and are skipped.
    """
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detects_an_unused_import():
    source = "from __future__ import annotations\nimport os.path\nfrom math import pi, tau\n"
    assert unused_imports(source + "print(tau)\n") == ["line 2: os", "line 3: pi"]
    assert unused_imports(source + "__all__ = ['pi']\nos.sep\n") == ["line 3: tau"]
