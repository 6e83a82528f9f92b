"""Source hygiene checks on the package modules, read with the stdlib ``ast``."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "twophoton"


def unused_imports(source):
    """The names ``source`` imports and never reads, sorted; ``from
    __future__`` imports are directives, not names."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def test_unused_imports_are_found():
    source = ("from __future__ import annotations\nimport json, os.path\n"
              "from functools import reduce\nfrom operator import mul as times\n"
              "def f(x):\n    import math\n    return json.dumps(os.path.sep), math.pi\n")
    assert unused_imports(source) == ["reduce", "times"]


def test_no_module_imports_a_name_it_does_not_use():
    # __init__.py imports only to re-export
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert len(modules) >= 10
    unused = {p.name: unused_imports(p.read_text(encoding="utf-8")) for p in modules}
    assert {name: names for name, names in unused.items() if names} == {}
