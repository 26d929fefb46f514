"""Source hygiene for the package: imports sit at module level and are used,
and the record and message dataclasses use slots.

A function-level import hides a dependency (or an import cycle) from the
reader of the module header, and an imported name nothing uses is dead
code.  ``__init__.py`` imports names to re-export them, so only the
first rule applies to it; it is also the one module that imports by
name (``importlib.import_module``), to load each export on first use.  A zone holds a record and its rdata per
resource record, and the codec builds a message and its questions per
query, so ``records.py`` and ``wire.py`` keep them free of a per-instance
``__dict__``.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "semdns"
MODULES = sorted(PACKAGE.glob("*.py"))
#: modules whose dataclasses are built per record or per message
SLOTTED = ("records.py", "wire.py")


def function_level_imports(tree: ast.Module) -> list[str]:
    found = {}  # an import in a nested function is named once, by the outermost
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    found.setdefault(node.lineno, f"line {node.lineno} in {fn.name}()")
    return [found[line] for line in sorted(found)]


def unused_imported_names(tree: ast.Module) -> list[str]:
    imported = {}
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            imported[bound] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def dynamic_imports(tree: ast.Module) -> list[str]:
    """Uses of ``importlib.import_module`` or ``__import__``."""
    return [f"line {node.lineno}" for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "import_module"
            or isinstance(node, ast.Name) and node.id in ("import_module", "__import__")]


def dataclasses_without_slots(tree: ast.Module) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for dec in node.decorator_list:
            call = dec if isinstance(dec, ast.Call) else None
            func = call.func if call else dec
            if isinstance(func, ast.Name) and func.id == "dataclass":
                slots = call is not None and any(
                    k.arg == "slots" and isinstance(k.value, ast.Constant) and k.value.value is True
                    for k in call.keywords)
                if not slots:
                    found.append(node.name)
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_function_level_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert function_level_imports(tree) == []


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert unused_imported_names(tree) == []


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_only_the_package_imports_by_name(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert dynamic_imports(tree) == []


def test_record_dataclasses_declare_slots():
    missing = {}
    for module in SLOTTED:
        tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
        missing[module] = dataclasses_without_slots(tree)
    assert missing == {module: [] for module in SLOTTED}


def test_checks_catch_what_they_look_for():
    tree = ast.parse(
        "import os\nfrom typing import Optional, Any\n"
        "def f() -> Optional[int]:\n    import sys\n    return sys.maxsize\n"
    )
    assert function_level_imports(tree) == ["line 4 in f()"]
    assert unused_imported_names(tree) == ["os (line 1)", "Any (line 2)"]
    tree = ast.parse(
        "import importlib\nfrom importlib import import_module\n"
        "importlib.import_module('a')\nimport_module('b')\n__import__('c')\n"
    )
    assert dynamic_imports(tree) == ["line 3", "line 4", "line 5"]
    tree = ast.parse(
        "@dataclass\nclass A: pass\n@dataclass(frozen=True)\nclass B: pass\n"
        "@dataclass(slots=False)\nclass C: pass\n@dataclass(frozen=True, slots=True)\n"
        "class D: pass\n"
    )
    assert dataclasses_without_slots(tree) == ["A", "B", "C"]
