"""Every module-level function of the package has a caller in the package
or the benchmark, or is public API (listed in ihfan.__all__)."""

import ast
from collections import Counter
from pathlib import Path

import ihfan

ROOT = Path(__file__).resolve().parents[1]


def _references(node):
    """Identifiers that node refers to: names, attribute names, imported
    names and identifier-shaped strings (the benchmark patches functions
    by their name as a string)."""
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            out[sub.name.rsplit(".", 1)[-1]] += 1
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) \
                and sub.value.isidentifier():
            out[sub.value] += 1
    return out


def uncalled_functions(root):
    """module:name of each module-level def under root/src/ihfan that
    nothing outside its own body refers to and __all__ does not list."""
    package = sorted((root / "src" / "ihfan").glob("*.py"))
    trees = {p: ast.parse(p.read_text(), str(p))
             for p in package + sorted((root / "perfbench").glob("*.py"))}
    used = Counter()
    for tree in trees.values():
        used.update(_references(tree))
    out = []
    for p in package:
        for node in trees[p].body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                own = _references(node)[node.name]
                if used[node.name] == own and \
                        node.name not in ihfan.__all__:
                    out.append(f"{p.stem}:{node.name}")
    return out


def test_every_function_has_a_caller():
    assert uncalled_functions(ROOT) == []
