"""Every name a ``src/repro`` module imports is used in that module.

An unused import names a dependency the module does not have.  A name
counts as used when it appears anywhere in the module's code (any scope) or
inside a string annotation such as ``"Term"``.  Package ``__init__.py``
files re-export what they import, and a line marked ``# noqa: F401`` is an
intended re-export, so both are exempt.
"""

import ast
import os

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "repro")


def _annotation_names(node: ast.AST) -> set:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                parsed = ast.parse(sub.value, mode="eval")
            except SyntaxError:
                continue
            names |= _annotation_names(parsed)
    return names


def _unused_imports(path: str) -> list:
    with open(path, encoding="utf-8") as handle:
        source = handle.read()
    tree = ast.parse(source, filename=path)
    lines = source.splitlines()
    imported = []
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if "# noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                imported.append((node.lineno, alias.asname or alias.name.split(".")[0]))
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            used |= _annotation_names(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            used |= _annotation_names(node.annotation)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            used |= _annotation_names(node.returns)
    return [f"line {line}: {name}" for line, name in imported if name not in used]


def _modules():
    for root, _, files in os.walk(SRC):
        for name in sorted(files):
            if name.endswith(".py") and name != "__init__.py":
                yield os.path.join(root, name)


def test_no_module_imports_a_name_it_does_not_use():
    unused = {}
    for path in _modules():
        found = _unused_imports(path)
        if found:
            unused[os.path.relpath(path, SRC)] = found
    assert unused == {}


def test_the_scan_sees_unused_and_string_annotated_names(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text(
        "import os\n"
        "import json  # noqa: F401\n"
        "from typing import Dict, List, Optional\n"
        "def f(x: 'Optional[int]') -> List[int]:\n"
        "    return [x]\n"
    )
    assert _unused_imports(str(module)) == ["line 1: os", "line 3: Dict"]
