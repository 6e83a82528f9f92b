"""Source hygiene checks on the package modules, read with the stdlib ``ast``."""

import ast
import io
import tokenize
from collections import Counter
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


def unreferenced_private_names(sources):
    """The private functions, methods and classes defined in ``sources``, a
    list of module texts, that no code reads outside their own body, sorted;
    a name counts as read wherever it, or an attribute of that name, is."""
    defined, reads = [], Counter()
    for tree in map(ast.parse, sources):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                reads[node.id] += 1
            elif isinstance(node, ast.Attribute):
                reads[node.attr] += 1
            elif (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                  and node.name.startswith("_") and not node.name.endswith("__")):
                defined.append(node)
    unread = set()
    for node in defined:
        own = sum(getattr(inner, "id", getattr(inner, "attr", None)) == node.name
                  for inner in ast.walk(node))
        if reads[node.name] == own:
            unread.add(node.name)
    return sorted(unread)


def code_lines(source):
    """The number of lines of ``source`` that hold code: neither blank, nor
    only a comment, nor part of a docstring."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                and ast.get_docstring(node, clean=False) is not None):
            docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    not_code = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
                tokenize.DEDENT, tokenize.ENDMARKER}
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in not_code:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


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


def test_unreferenced_private_names_are_found():
    # a self-call is no caller, and a helper read only by a dead one is read
    a = ("def _imported():\n    return _used()\n"
         "def _used():\n    return 1\n"
         "def _recursive(n):\n    return _recursive(n - 1) if n else 0\n"
         "class _Box:\n"
         "    def __init__(self):\n        self._x = 0\n"
         "    def _read(self):\n        return self._x\n"
         "    def _unread(self):\n        return self._read()\n"
         "box = _Box()\n")
    b = "from a import _imported\nprint(_imported())\n"
    assert unreferenced_private_names([a, b]) == ["_recursive", "_unread"]
    assert unreferenced_private_names([a]) == ["_imported", "_recursive", "_unread"]


def test_every_private_definition_has_a_reader():
    sources = [p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))]
    assert len(sources) >= 10
    assert unreferenced_private_names(sources) == []


def test_code_lines_leave_out_blanks_comments_and_docstrings():
    source = ('"""Module\n\ndocstring."""\n\n# a comment\n'
              'def f(x):\n    """One line."""\n    s = """not a\n    docstring"""\n'
              '    return x  # a trailing comment\n')
    assert code_lines(source) == 4
