"""Every module-level function and every method of the package has a caller
in the package or the benchmark, or is public API (listed in
ihfan.__all__); every public name has a caller in the package or the
benchmark too; every module-level import of a package or test module is
used by that module, and every import of a package module is at module
level;
every slot of a package class is read in the package or the benchmark;
every function of the tests' oracle module has a caller in the tests; every
process-wide cache of the package is bounded, and none calls another with
exactly its own parameters; no parameter of a package function is passed
only as None; every position of a tuple a package function returns is read
by some call.  A method counts as called only through an attribute or an
identifier string: a bare name of the same spelling is some local
variable."""

import ast
from collections import Counter, defaultdict
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


def unreached_exports(root):
    """Each name of ihfan.__all__ but __version__ that nothing in
    root/src/ihfan or root/perfbench refers to, outside the package's
    __init__ and outside the name's own module-level definition: public
    API that only the tests reach, which belongs in tests/oracles.py."""
    paths = [p for p in sorted((root / "src" / "ihfan").glob("*.py"))
             if p.name != "__init__.py"] + \
        sorted((root / "perfbench").glob("*.py"))
    used = Counter()
    for p in paths:
        tree = ast.parse(p.read_text(), str(p))
        used.update(_references(tree))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                used[node.name] -= _references(node)[node.name]
    return [name for name in ihfan.__all__
            if name != "__version__" and used[name] <= 0]


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
    or of root/tests that the module never uses."""
    out = []
    for p in sorted((root / "src" / "ihfan").glob("*.py")) + \
            sorted((root / "tests").glob("*.py")):
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
    under root/src/ihfan that no attribute load in src/ihfan or perfbench
    reads: state that only the tests read belongs in tests/oracles.py.
    Like uncalled_functions it matches by name alone, so a slot whose name
    another object's attribute shares (``basis``, ``field``) counts as
    read even when nothing reads it."""
    package = sorted((root / "src" / "ihfan").glob("*.py"))
    others = sorted((root / "perfbench").glob("*.py"))
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


def _decorator_name(node):
    """The last name of a decorator expression (lru_cache for
    functools.lru_cache(maxsize=64)), None for anything else."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else None


def _int_maxsize(call):
    """Whether an lru_cache(...) call gives maxsize as an int literal."""
    args = list(call.args[:1]) + [k.value for k in call.keywords
                                  if k.arg == "maxsize"]
    return len(args) == 1 and isinstance(args[0], ast.Constant) and \
        type(args[0].value) is int


def unbounded_caches(root):
    """module:function of each function under root/src/ihfan whose cache
    can grow for the life of the process: an lru_cache without an int
    literal maxsize (bare, maxsize=None or a name), or functools.cache on
    a function that takes parameters, each call of which may add an
    entry."""
    out = []
    for p in sorted((root / "src" / "ihfan").glob("*.py")):
        tree = ast.parse(p.read_text(), str(p))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            a = node.args
            takes = a.posonlyargs + a.args + a.kwonlyargs + \
                [x for x in (a.vararg, a.kwarg) if x]
            for dec in node.decorator_list:
                name = _decorator_name(dec)
                if name == "lru_cache" and not (
                        isinstance(dec, ast.Call) and _int_maxsize(dec)) or \
                        name == "cache" and takes:
                    out.append(f"{p.stem}:{node.name}")
    return out


def _passed(call, index, name):
    """The expression a call passes for the parameter at this position
    with this name (index None for a keyword-only one); None when the call
    passes nothing for it."""
    if index is not None and index < len(call.args):
        return call.args[index]
    return next((k.value for k in call.keywords if k.arg == name), None)


def _calls_and_refs(trees):
    """By name, the calls through an attribute (True) or a bare name
    (False) in the trees, and every other reference of either kind."""
    calls = {True: defaultdict(list), False: defaultdict(list)}
    refs = {True: defaultdict(list), False: defaultdict(list)}
    for tree in trees:
        funcs = set()
        for sub in ast.walk(tree):
            if isinstance(sub, ast.Call):
                funcs.add(id(sub.func))
                if isinstance(sub.func, ast.Attribute):
                    calls[True][sub.func.attr].append(sub)
                elif isinstance(sub.func, ast.Name):
                    calls[False][sub.func.id].append(sub)
        for sub in ast.walk(tree):
            if id(sub) in funcs:
                continue
            if isinstance(sub, ast.Attribute):
                refs[True][sub.attr].append(sub)
            elif isinstance(sub, ast.Name):
                refs[False][sub.id].append(sub)
    return calls, refs


def _outside_calls(qualname, node, calls, refs):
    """The calls of the def node (qualname from _defs) outside its own
    body, matched by name, a method's only through an attribute; None
    when the def is referred to outside its body other than by a call."""
    kinds = (True,) if "." in qualname else (True, False)
    own = {id(sub) for sub in ast.walk(node)}
    if any(id(r) not in own for k in kinds for r in refs[k][node.name]):
        return None
    return [c for k in kinds for c in calls[k][node.name]
            if id(c) not in own]


def none_only_parameters(root):
    """module:function(parameter) of each parameter of a module-level
    function or method under root/src/ihfan that every call in
    root/src/ihfan or root/perfbench outside the function's own body
    passes as the literal None, positionally or by keyword, with at least
    one such call: a parameter that only the tests set.  Calls are matched
    by name, a method's only through an attribute; a name defined twice in
    the package is skipped, and so is a function that is referred to
    outside its body other than by being called (map(f, ...)), or called
    with *args or **kwargs, since those calls pass what the rule cannot
    read."""
    package = sorted((root / "src" / "ihfan").glob("*.py"))
    trees = {p: ast.parse(p.read_text(), str(p))
             for p in package + sorted((root / "perfbench").glob("*.py"))}
    calls, refs = _calls_and_refs(trees.values())
    defs = [(p, qualname, node) for p in package
            for qualname, node in _defs(trees[p])]
    defined = Counter(node.name for _, _, node in defs)
    out = []
    for p, qualname, node in defs:
        outside = _outside_calls(qualname, node, calls, refs)
        if defined[node.name] > 1 or not outside \
                or any(isinstance(a, ast.Starred) for c in outside
                       for a in c.args) \
                or any(k.arg is None for c in outside for k in c.keywords):
            continue
        a = node.args
        positional = a.posonlyargs + a.args
        if "." in qualname and "staticmethod" not in map(
                _decorator_name, node.decorator_list):
            positional = positional[1:]
        params = [(i, x.arg) for i, x in enumerate(positional)] + \
            [(None, x.arg) for x in a.kwonlyargs]
        for index, name in params:
            if all(isinstance(x, ast.Constant) and x.value is None
                   for x in (_passed(c, index, name) for c in outside)):
                out.append(f"{p.stem}:{qualname}({name})")
    return out


def _own_returns(node):
    """The return statements of the def node, not of the functions,
    lambdas and classes nested in it."""
    stack = list(node.body)
    while stack:
        sub = stack.pop()
        if isinstance(sub, ast.Return):
            yield sub
        if not isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef,
                                ast.Lambda, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(sub))


def _tuple_width(node):
    """The length of the tuple display that every return of the def node
    gives, None when one returns anything else or there is none."""
    widths = set()
    for ret in _own_returns(node):
        if not isinstance(ret.value, ast.Tuple) or any(
                isinstance(e, ast.Starred) for e in ret.value.elts):
            return None
        widths.add(len(ret.value.elts))
    return widths.pop() if len(widths) == 1 else None


def _positions_read(call, parent, width):
    """The positions of a returned tuple of this width that the call site
    reads: the names other than _ it unpacks to, or a constant subscript;
    None when it uses the result whole."""
    up = parent.get(id(call))
    if isinstance(up, ast.Assign) and up.value is call and \
            len(up.targets) == 1 and \
            isinstance(up.targets[0], (ast.Tuple, ast.List)):
        elts = up.targets[0].elts
        if len(elts) == width and not any(isinstance(e, ast.Starred)
                                          for e in elts):
            return {i for i, e in enumerate(elts)
                    if not (isinstance(e, ast.Name) and e.id == "_")}
    if isinstance(up, ast.Subscript) and up.value is call and \
            isinstance(up.slice, ast.Constant) and \
            type(up.slice.value) is int:
        return {up.slice.value % width}
    return None


def unread_tuple_positions(root):
    """module:function[i] of each position i of the tuple a module-level
    function or method under root/src/ihfan returns (every return a tuple
    display of one length) that no call in root/src/ihfan or
    root/perfbench outside its own body reads, by unpacking it to a name
    other than _ or by a constant subscript.  Calls are matched as in
    none_only_parameters; a name defined twice in the package is skipped,
    and so is a function referred to other than by a call or whose result
    some call uses whole."""
    package = sorted((root / "src" / "ihfan").glob("*.py"))
    trees = {p: ast.parse(p.read_text(), str(p))
             for p in package + sorted((root / "perfbench").glob("*.py"))}
    calls, refs = _calls_and_refs(trees.values())
    parent = {id(child): sub for tree in trees.values()
              for sub in ast.walk(tree) for child in ast.iter_child_nodes(sub)}
    defs = [(p, qualname, node) for p in package
            for qualname, node in _defs(trees[p])]
    defined = Counter(node.name for _, _, node in defs)
    out = []
    for p, qualname, node in defs:
        width = _tuple_width(node)
        outside = _outside_calls(qualname, node, calls, refs)
        if width is None or not outside or defined[node.name] > 1:
            continue
        read = [_positions_read(c, parent, width) for c in outside]
        if None in read:
            continue
        out += [f"{p.stem}:{qualname}[{i}]" for i in range(width)
                if not any(i in r for r in read)]
    return out


def _passes_itself(call, params):
    """Whether the call passes exactly the parameter names params, each as
    itself: the first ones positionally in order, the rest by keyword."""
    pos = [x.id if isinstance(x, ast.Name) else None for x in call.args]
    rest = params[len(pos):]
    return pos == params[:len(pos)] and len(call.keywords) == len(rest) \
        and all(isinstance(k.value, ast.Name) and k.value.id == k.arg
                for k in call.keywords) \
        and sorted(k.arg for k in call.keywords) == sorted(rest)


def passthrough_caches(root):
    """module:function of each lru_cache or cache function under
    root/src/ihfan whose body calls another such function of the package
    with exactly its own parameters, each passed as itself: one cache
    stacked on another under the same key."""
    cached = {}   # def node -> its module
    for p in sorted((root / "src" / "ihfan").glob("*.py")):
        for node in ast.walk(ast.parse(p.read_text(), str(p))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and {"lru_cache", "cache"} & set(
                        map(_decorator_name, node.decorator_list)):
                cached[node] = p.stem
    names = {node.name for node in cached}
    out = []
    for node, module in cached.items():
        a = node.args
        params = [x.arg for x in a.posonlyargs + a.args + a.kwonlyargs]
        if any(isinstance(sub, ast.Call) and _passes_itself(sub, params) and
               getattr(sub.func, "attr", getattr(sub.func, "id", None))
               in names - {node.name} for sub in ast.walk(node)):
            out.append(f"{module}:{node.name}")
    return out


def test_every_function_has_a_caller():
    assert uncalled_functions(ROOT) == []


def test_every_export_is_reached_outside_the_tests():
    assert unreached_exports(ROOT) == []


def test_every_oracle_has_a_caller():
    assert uncalled_oracles(ROOT) == []


def test_every_import_is_used():
    assert unused_imports(ROOT) == []


def test_imports_are_at_module_level():
    assert local_imports(ROOT) == []


def test_every_slot_is_read():
    assert unread_slots(ROOT) == []


def test_every_cache_is_bounded():
    assert unbounded_caches(ROOT) == []


def test_no_parameter_is_passed_only_none():
    assert none_only_parameters(ROOT) == []


def test_every_returned_position_is_read():
    assert unread_tuple_positions(ROOT) == []


def test_no_cache_sits_behind_another_with_its_key():
    assert passthrough_caches(ROOT) == []
