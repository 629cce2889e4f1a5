"""Every module-level function and every method of the package has a caller
in the package or the benchmark, or is public API (listed in
ihfan.__all__); every module-level import of a package module is used by
that module, and every import of a package module is at module level;
every slot of a package class is read somewhere; every function of the
tests' oracle module has a caller in the tests.  A method counts as
called only through an attribute or an identifier string: a bare name of
the same spelling is some local variable."""

import ast
from collections import Counter
from pathlib import Path

import ihfan

ROOT = Path(__file__).resolve().parents[1]


def _references(node, names=True):
    """Identifiers that node refers to: attribute names, identifier-shaped
    strings (the benchmark patches functions by their name as a string)
    and, with names, bare names and imported names."""
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and names:
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
        elif isinstance(sub, ast.alias) and names:
            out[sub.name.rsplit(".", 1)[-1]] += 1
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) \
                and sub.value.isidentifier():
            out[sub.value] += 1
    return out


def _defs(tree):
    """(qualified name, def node) of each module-level function and each
    method of a module-level class; dunder methods are called by the
    language, so they are left out."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                        and not (sub.name.startswith("__") and
                                 sub.name.endswith("__")):
                    yield f"{node.name}.{sub.name}", sub


def uncalled_functions(root):
    """module:name of each module-level def and module:Class.name of each
    method under root/src/ihfan that nothing outside its own body refers
    to (a method through an attribute or a string) and __all__ does not
    list."""
    package = sorted((root / "src" / "ihfan").glob("*.py"))
    trees = {p: ast.parse(p.read_text(), str(p))
             for p in package + sorted((root / "perfbench").glob("*.py"))}
    used = {True: Counter(), False: Counter()}
    for tree in trees.values():
        for names, counts in used.items():
            counts.update(_references(tree, names))
    out = []
    for p in package:
        for qualname, node in _defs(trees[p]):
            names = "." not in qualname
            own = _references(node, names)[node.name]
            if used[names][node.name] == own and \
                    node.name not in ihfan.__all__:
                out.append(f"{p.stem}:{qualname}")
    return out


def uncalled_oracles(root):
    """oracles:name of each module-level def of root/tests/oracles.py that
    nothing under root/tests refers to outside its own body."""
    modules = sorted((root / "tests").glob("*.py"))
    trees = {p: ast.parse(p.read_text(), str(p)) for p in modules}
    used = Counter()
    for tree in trees.values():
        used.update(_references(tree))
    oracles = trees[root / "tests" / "oracles.py"]
    return [f"oracles:{node.name}" for node in oracles.body
            if isinstance(node, ast.FunctionDef) and
            used[node.name] == _references(node)[node.name]]


def _module_imports(body):
    """Import statements run at module level: in the body itself and in
    the if and try blocks there, not in functions or classes."""
    for node in body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, (ast.If, ast.Try)):
            blocks = [node.body, node.orelse]
            if isinstance(node, ast.Try):
                blocks += [h.body for h in node.handlers] + [node.finalbody]
            for block in blocks:
                yield from _module_imports(block)


def unused_imports(root):
    """module:name of each name a module-level import binds in a module of
    root/src/ihfan (the package's __init__ re-exports, so it is left out)
    that the module never uses."""
    out = []
    for p in sorted((root / "src" / "ihfan").glob("*.py")):
        if p.name == "__init__.py":
            continue
        tree = ast.parse(p.read_text(), str(p))
        names = {sub.id for sub in ast.walk(tree) if isinstance(sub, ast.Name)}
        for node in _module_imports(tree.body):
            if isinstance(node, ast.ImportFrom) and \
                    node.module == "__future__":
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in names:
                    out.append(f"{p.stem}:{bound}")
    return out


def local_imports(root):
    """module:function of each import statement inside a function or method
    of a module under root/src/ihfan."""
    out = []
    for p in sorted((root / "src" / "ihfan").glob("*.py")):
        tree = ast.parse(p.read_text(), str(p))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                out += [f"{p.stem}:{node.name}" for sub in ast.walk(node)
                        if isinstance(sub, (ast.Import, ast.ImportFrom))]
    return out


def unread_slots(root):
    """module:Class.slot of each __slots__ entry of a module-level class
    under root/src/ihfan that no attribute load in src/ihfan, perfbench or
    tests reads.  Like uncalled_functions it matches by name alone, so a
    slot whose name another object's attribute shares (``basis``,
    ``field``) counts as read even when nothing reads it."""
    package = sorted((root / "src" / "ihfan").glob("*.py"))
    others = sorted((root / "perfbench").glob("*.py")) + \
        sorted((root / "tests").glob("*.py"))
    trees = {p: ast.parse(p.read_text(), str(p)) for p in package + others}
    loads = {sub.attr for tree in trees.values() for sub in ast.walk(tree)
             if isinstance(sub, ast.Attribute) and
             isinstance(sub.ctx, ast.Load)}
    out = []
    for p in package:
        for node in trees[p].body:
            if not isinstance(node, ast.ClassDef):
                continue
            for stmt in node.body:
                if isinstance(stmt, ast.Assign) and any(
                        isinstance(t, ast.Name) and t.id == "__slots__"
                        for t in stmt.targets):
                    out += [f"{p.stem}:{node.name}.{c.value}"
                            for c in ast.walk(stmt.value)
                            if isinstance(c, ast.Constant) and
                            c.value not in loads]
    return out


def test_every_function_has_a_caller():
    assert uncalled_functions(ROOT) == []


def test_every_oracle_has_a_caller():
    assert uncalled_oracles(ROOT) == []


def test_every_import_is_used():
    assert unused_imports(ROOT) == []


def test_imports_are_at_module_level():
    assert local_imports(ROOT) == []


def test_every_slot_is_read():
    assert unread_slots(ROOT) == []
