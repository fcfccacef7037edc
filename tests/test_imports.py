"""Every name a ``risbeam`` module imports is used there, every private
module-level name is read somewhere in the package, the modules import
one another only in one pinned order, every refusal is a ConfigError, and
the analyses and the command line turn no angle between units (stdlib
``ast`` only)."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "risbeam"


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's imports that nothing in it reads.

    A name counts as read when it appears as a load, or when the module
    lists it in a literal ``__all__`` (a re-export).  ``from __future__``
    imports bind nothing and are skipped.
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
        if isinstance(node, ast.Assign) and isinstance(node.value, (ast.List, ast.Tuple)) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detects_an_unused_import():
    source = "from __future__ import annotations\nimport os.path\nfrom math import pi, tau\n"
    assert unused_imports(source + "print(tau)\n") == ["line 2: os", "line 3: pi"]
    assert unused_imports(source + "__all__ = ['pi']\nos.sep\n") == ["line 3: tau"]
    # a computed __all__ names no import
    assert unused_imports(source + "__all__ = list({'pi': 1})\nos.sep\n") == [
        "line 3: pi", "line 3: tau"]


def imported_modules(source: str, in_functions: bool = False) -> set[str]:
    """Modules a module imports when it is itself imported, or anywhere.

    Imports inside a function body run only when it is called and count
    only ``in_functions``; those at module level, in a class body or under
    an ``if`` always count.  A module is named by its top-level name
    (``numpy`` for ``numpy.typing``), and a ``risbeam`` module by its own
    name (``channel`` for ``from .channel import ...`` or ``risbeam.channel``).
    """
    modules: set[str] = set()

    def visit(node: ast.AST) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not in_functions:
            return
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            if node.level and node.module is None:  # from . import channel
                names = [alias.name for alias in node.names]
            else:
                names = [node.module if not node.level else f"risbeam.{node.module}"]
        else:
            names = []
        for name in names:
            top, _, rest = name.partition(".")
            modules.add(rest.partition(".")[0] if top == "risbeam" and rest else top)
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(ast.parse(source))
    return modules


def numpy_loaders(sources: dict[str, str]) -> set[str]:
    """The ``risbeam`` modules (by name, without ``.py``) whose import loads
    numpy, directly or through another ``risbeam`` module."""
    imports = {Path(name).stem: imported_modules(text) for name, text in sources.items()}
    loaders = {"numpy"}
    while True:
        grown = {name for name, modules in imports.items() if modules & loaders} | loaders
        if grown == loaders:
            return loaders - {"numpy"}
        loaders = grown


def test_configuration_layer_loads_no_numpy():
    # parsing and validating a scenario must not pay numpy's import, so
    # scenario and the package import no numeric module, and the CLI
    # imports numpy and the numeric modules only inside the commands that compute
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert numpy_loaders(sources) == {"analysis", "channel", "geometry", "quantization"}


def test_detects_a_numpy_import_at_import_time():
    sources = {
        "scenario.py": "import json\n\n\ndef load():\n    import numpy\n",
        "geometry.py": "from numpy.typing import ArrayLike\n",
        "channel.py": "from .geometry import cell_paths\n",
        "cli.py": "from . import scenario\n\nif True:\n    from risbeam.channel import x\n",
    }
    assert imported_modules(sources["scenario.py"]) == {"json"}
    assert imported_modules(sources["scenario.py"], in_functions=True) == {"json", "numpy"}
    assert imported_modules(sources["cli.py"]) == {"scenario", "channel"}
    assert numpy_loaders(sources) == {"geometry", "channel", "cli"}
    sources["scenario.py"] = "import numpy as np\n"
    assert numpy_loaders(sources) == {"geometry", "channel", "cli", "scenario"}


# The package's modules after __init__, each importing only those before it.
ORDER = ("scenario", "geometry", "channel", "quantization", "analysis", "cli")


def order_violations(sources: dict[str, str]) -> list[str]:
    """Imports of package modules that break ORDER.

    ``sources`` maps module file names to their text.  A module may import,
    at module level or inside a function, only the modules before it in
    ORDER (a module outside ORDER, none); ``__init__`` imports none when it
    is itself imported, and resolves its exports on first access.
    """
    package = set(ORDER) | {Path(name).stem for name in sources}
    problems = []
    for name, text in sorted(sources.items()):
        module = Path(name).stem
        if module == "__init__":
            earlier, imports = set(), imported_modules(text)
        else:
            earlier = set(ORDER[:ORDER.index(module)] if module in ORDER else ())
            imports = imported_modules(text, in_functions=True)
        problems += [f"{module} imports {other}" for other in sorted((imports & package) - earlier)]
    return problems


def test_package_is_the_pinned_modules():
    assert sorted(path.stem for path in SRC.glob("*.py")) == sorted(("__init__",) + ORDER)


def test_each_module_imports_only_earlier_ones():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert order_violations(sources) == []


def test_detects_an_import_out_of_order():
    sources = {
        "__init__.py": "import importlib\n\n\ndef load():\n    from . import cli\n",
        "scenario.py": "import json\n",
        "channel.py": "from .scenario import TWO_PI\n\n\ndef f():\n"
                      "    from .analysis import design\n",
        "radiation.py": "from .scenario import TWO_PI\n",
        "cli.py": "from . import radiation\n\n\ndef run():\n    import risbeam.channel\n",
    }
    assert order_violations(sources) == [
        "channel imports analysis", "cli imports radiation", "radiation imports scenario"]
    sources["__init__.py"] = "from .scenario import Scenario\n"
    assert order_violations(sources)[0] == "__init__ imports scenario"


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level ``_name`` definitions that no module in ``sources`` reads.

    ``sources`` maps module file names to their text.  A definition is a
    top-level def, class or assignment to a name with one leading
    underscore; dunder names are skipped.  A name counts as read when it
    appears as a load or as an attribute (``channel._two_cpus``) in any of
    the modules, its own included.
    """
    trees = {name: ast.parse(source) for name, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            else:
                names = [n.id for n in ast.walk(node) if isinstance(n, ast.Name)
                         and isinstance(n.ctx, ast.Store)]
            unread += [f"{module} line {node.lineno}: {name}" for name in names
                       if name.startswith("_") and not name.startswith("__") and name not in read]
    return unread


def test_no_unread_private_names():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert unread_private_names(sources) == []


def test_detects_an_unread_private_name():
    sources = {
        "a.py": "def _used():\n    pass\n\n\ndef _dead():\n    _used()\n\n\n"
                "_LIMIT, __version__ = 1, '0'\n_UNREAD: int = 2\nclass _Box: ...\n",
        "b.py": "import a\n\nprint(a._LIMIT)\n",
    }
    assert unread_private_names(sources) == [
        "a.py line 5: _dead", "a.py line 10: _UNREAD", "a.py line 11: _Box"]


def raises_of_other_types(sources: dict[str, str]) -> list[str]:
    """Each ``raise`` in ``sources`` whose exception is not ``ConfigError``.

    ``sources`` maps module file names to their text.  A raise is listed
    as "<module>.<enclosing function>: <exception>", the exception as
    written (its call's callee), and a bare re-raise as "raise".
    """
    found = []

    def visit(node: ast.AST, module: str, function: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Raise):
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            kind = ast.unparse(exc) if exc else "raise"
            if kind != "ConfigError":
                found.append(f"{module}.{function}: {kind}")
        for child in ast.iter_child_nodes(node):
            visit(child, module, function)

    for name, text in sorted(sources.items()):
        visit(ast.parse(text), Path(name).stem, "<module>")
    return found


def test_every_refusal_is_a_config_error():
    # run() maps ConfigError alone to exit 2, so a refusal raised as a bare
    # ValueError would exit 1 as an internal error; only the array-shape
    # checks, which no file or option reaches, and __getattr__ raise others
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert raises_of_other_types(sources) == [
        "__init__.__getattr__: AttributeError",
        "channel.xi: ValueError",
        "channel.field_at_rx_points: ValueError",
        "channel.field_at_rx_points: ValueError",
    ]


def test_detects_a_refusal_of_another_type():
    sources = {
        "a.py": "def check(x):\n    if x:\n        raise ConfigError('x')\n"
                "    raise ValueError(f'{x}') from None\n",
        "b.py": "try:\n    pass\nexcept OSError:\n    raise\nraise errors.Refusal\n",
    }
    assert raises_of_other_types(sources) == [
        "a.check: ValueError", "b.<module>: raise", "b.<module>: errors.Refusal"]


def angle_conversions(source: str) -> list[str]:
    """Each call of ``math.degrees`` or ``math.radians`` in ``source``, as "line <n>: <callee>"."""
    calls = [node for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Call)
             and ast.unparse(node.func) in ("math.degrees", "math.radians")]
    return [f"line {node.lineno}: {ast.unparse(node.func)}"
            for node in sorted(calls, key=lambda node: node.lineno)]


def test_analyses_and_cli_convert_no_threshold():
    # the searches take and report a method token's degrees, so quantization
    # is the one module where a threshold or a grid step changes unit
    for name in ("analysis.py", "cli.py"):
        assert angle_conversions((SRC / name).read_text()) == [], name


def test_detects_an_angle_conversion():
    source = "import math\n\nx = math.radians(5.0)\ny = math.sin(x) + math.degrees(x)\n"
    assert angle_conversions(source) == ["line 3: math.radians", "line 4: math.degrees"]
