"""needle walks rule sides, definitional trees and terms without recursion.

A static check finds every cycle in the package's call graph, in which a
function or bound method passed as a value, and a property read, count as
called, and a child interpreter left at CPython's default recursion limit
takes rule sides at the parser's depth bound through every command.  Six
more static checks, beside these, find imported names a module never uses,
module-level definitions and assigned names nothing refers to, dataclass or
`__slots__` fields nothing reads, dataclasses without `slots=True`,
stores to a term's or tree's fields after construction, and reads of the
environment.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import needle

from conftest import time_budget

PACKAGE = Path(needle.__file__).parent
ROOT = Path(__file__).resolve().parents[1]


def _call_graph():
    """Calls between the package's functions, by name.

    A node is ("function", name) for a module-level or nested function and
    ("method", name) for a method.  Every load of a name f, a call `f()` or
    a value as in `map(f, xs)`, reaches every function named f; every load
    of an attribute x.f, a call `x.f()`, a bound method as in
    `map(self.f, xs)` or a property read, reaches every method named f,
    except `super().f`.  Names in a lambda belong to the function around
    it."""
    graph = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for owner in ast.walk(tree):
            for fn in ast.iter_child_nodes(owner):
                if not isinstance(fn, ast.FunctionDef):
                    continue
                kind = "method" if isinstance(owner, ast.ClassDef) \
                    else "function"
                calls = graph.setdefault((kind, fn.name), set())
                stack = list(fn.body)
                while stack:
                    node = stack.pop()
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                        continue
                    if isinstance(node, ast.Name) \
                            and isinstance(node.ctx, ast.Load):
                        calls.add(("function", node.id))
                    if isinstance(node, ast.Attribute) \
                            and isinstance(node.ctx, ast.Load) and not (
                            isinstance(node.value, ast.Call)
                            and getattr(node.value.func, "id", "") == "super"):
                        calls.add(("method", node.attr))
                    stack.extend(ast.iter_child_nodes(node))
    return {fn: calls & graph.keys() for fn, calls in graph.items()}


def test_no_function_reaches_itself():
    graph = _call_graph()
    assert len(graph) > 100
    cycles = []
    for start in sorted(graph):
        seen, stack = set(), list(graph[start])
        while stack:
            fn = stack.pop()
            if fn == start:
                cycles.append(start)
                break
            if fn not in seen:
                seen.add(fn)
                stack.extend(graph[fn])
    assert cycles == []


def test_every_imported_name_is_used():
    """A module uses each name it imports, or re-exports it in `__all__`."""
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and any(
                    getattr(t, "id", None) == "__all__" for t in node.targets):
                used.update(ast.literal_eval(node.value))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                unused += [f"{path.name}: {alias.name}" for alias in node.names
                           if (alias.asname or alias.name).split(".")[0]
                           not in used]
    assert unused == []


def _references(node):
    """How often each name is referred to below `node`: loaded as a
    variable, read or written as an attribute, or imported."""
    counts = {}
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            name = sub.id
        elif isinstance(sub, ast.Attribute):
            name = sub.attr
        elif isinstance(sub, ast.alias):
            name = sub.name.split(".")[-1]
        else:
            continue
        counts[name] = counts.get(name, 0) + 1
    return counts


def _bound_names(node):
    """The names a module-level statement defines: a function's or class's
    name, or every name an assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = getattr(node, "targets", None) or [node.target]
        return [n.id for t in targets for n in ast.walk(t)
                if isinstance(n, ast.Name)]
    return []


def test_every_definition_is_referenced():
    """Each module-level function, class and assigned name of the package is
    named somewhere in the sources, tests or benchmark outside its own
    statement, or exported in its module's `__all__`."""
    total = {}
    for path in sorted(path for d in ("src", "tests", "perfbench")
                       for path in (ROOT / d).rglob("*.py")):
        for name, count in _references(ast.parse(path.read_text())).items():
            total[name] = total.get(name, 0) + count
    unused, defined = [], 0
    for path in sorted(PACKAGE.glob("*.py")):
        body = ast.parse(path.read_text(), str(path)).body
        exported = {"__all__"}
        for node in body:
            if "__all__" in _bound_names(node):
                exported.update(ast.literal_eval(node.value))
        for node in body:
            for name in _bound_names(node):
                defined += 1
                own = _references(node).get(name, 0)
                if total.get(name, 0) == own and name not in exported:
                    unused.append(f"{path.name}: {name}")
    assert defined > 100
    assert unused == []


def _is_dataclass_decorator(node):
    func = getattr(node, "func", node)
    return (getattr(func, "id", None) or getattr(func, "attr", None)) \
        == "dataclass"


def _fields(cls):
    """The fields of a dataclass or a `__slots__` class, else ()."""
    if any(map(_is_dataclass_decorator, cls.decorator_list)):
        return [s.target.id for s in cls.body
                if isinstance(s, ast.AnnAssign)
                and isinstance(s.target, ast.Name)]
    for s in cls.body:
        if isinstance(s, ast.Assign) and any(
                getattr(t, "id", None) == "__slots__" for t in s.targets):
            return list(ast.literal_eval(s.value))
    return ()


def test_every_field_is_read():
    """Each field of a package dataclass or `__slots__` class is read as an
    attribute somewhere in the sources, tests or benchmark.  A class that
    reads its own instances through `fields` or `asdict` counts as read."""
    read = set()
    for path in (path for d in ("src", "tests", "perfbench")
                 for path in (ROOT / d).rglob("*.py")):
        read.update(node.attr for node in ast.walk(ast.parse(path.read_text()))
                    if isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Load))
    unread, checked = [], 0
    for path in sorted(PACKAGE.glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(cls, ast.ClassDef) or any(
                    getattr(getattr(n, "func", None), "id", None)
                    in ("fields", "asdict") for n in ast.walk(cls)):
                continue
            for name in _fields(cls):
                checked += 1
                if name not in read:
                    unread.append(f"{path.name}: {cls.name}.{name}")
    assert checked > 40
    assert unread == []


def test_every_dataclass_has_slots():
    """Each package dataclass passes `slots=True`, so its instances carry no
    `__dict__`: they are smaller and quicker to build."""
    missing, checked = [], 0
    for path in sorted(PACKAGE.glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(cls, ast.ClassDef):
                continue
            for d in filter(_is_dataclass_decorator, cls.decorator_list):
                checked += 1
                if not any(k.arg == "slots" and getattr(k.value, "value", 0)
                           is True for k in getattr(d, "keywords", ())):
                    missing.append(f"{path.name}: {cls.name}")
    assert checked > 15
    assert missing == []


# The fields of rule sides (`core.Var`, `Lit`, `App`, `AnyLit`, `Share`),
# symbols, nodes and definitional trees that no code may change once the
# object is built.
_BUILT_ONCE = {"label", "args", "value", "path", "name", "sort", "children"}


def test_built_fields_are_set_only_in_init():
    """Outside an `__init__`, nothing in the package stores to or deletes an
    attribute named in `_BUILT_ONCE`.  Terms are slotted, not frozen,
    dataclasses; this check keeps them immutable."""
    stores, in_init = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        inits = {id(n) for fn in ast.walk(tree)
                 if isinstance(fn, ast.FunctionDef) and fn.name == "__init__"
                 for n in ast.walk(fn)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Attribute) \
                    or isinstance(node.ctx, ast.Load) \
                    or node.attr not in _BUILT_ONCE:
                continue
            if id(node) in inits:
                in_init.add(node.attr)
            else:
                stores.append(f"{path.name}:{node.lineno}: {node.attr}")
    assert {"name", "label", "children"} <= in_init
    assert stores == []


def test_the_package_reads_no_environment():
    """No package module imports `os` or names `environ` or `getenv`: what
    a run does follows from its arguments, never from a stray variable."""
    reads = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                names = [getattr(node, "attr", None)
                         or getattr(node, "id", None)]
            reads += [f"{path.name}:{node.lineno}: {name}" for name in names
                      if name and name.split(".")[0]
                      in ("os", "environ", "getenv")]
    assert reads == []


def test_the_recursion_limit_is_left_alone():
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            name = getattr(node, "attr", None) or getattr(node, "id", None)
            assert name != "setrecursionlimit", path.name


# A child interpreter, at the default limit, runs every command on each
# system and checks exit codes, values and the recursion limit after each.
# The commands share one parse, and each mode's commands one program: a
# program for a deep left side grows with the square of its depth.
_CHILD = r"""
import contextlib, io, sys
from needle import cli

limit = sys.getrecursionlimit()
path, expr, value = sys.argv[1:]
load, build, programs = cli._load_system, cli.build_program, {}
cli._load_system = lambda _, system=load(path): system
cli.build_program = lambda system, mode: programs.get(mode) or \
    programs.setdefault(mode, build(system, mode))
commands = [["check", path], ["tree", path],
            ["eval", path, expr, "--mode", "source"]]
for m in ("cr", "tr", "or"):
    commands += [["compile", path, "--mode", m],
                 ["eval", path, expr, "--mode", m],
                 ["eval", path, expr, "--mode", m, "--trace"],
                 ["validate", path, expr, "--mode", m]]
for args in commands:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(args)
    assert code == 0, (args, code)
    assert sys.getrecursionlimit() == limit, args
    lines = out.getvalue().splitlines()
    if args[0] == "eval":
        assert lines[-1] == value, args
    if args[0] == "validate":
        assert lines[-1].endswith("source strategy agrees"), args
        programs.clear()
"""


def _nat(depth, inner="Z"):
    return "S(" * depth + inner + ")" * depth


def test_rule_sides_at_the_depth_bound_run_at_the_default_limit(tmp_path):
    nat = "data Nat = Z | S(Nat);\n"
    calls = "g(" * 1000 + "x" + ")" * 1000
    systems = {
        # a constructor right side 1,000 deep
        "ctor": (f"op f(Nat) -> Nat: f(x) = {_nat(1000, 'x')};",
                 "f(Z)", _nat(1000)),
        # an operation-rooted one: in `or` every inner call is demanded
        "op": ("op g(Nat) -> Nat: g(Z) = Z  g(S(x)) = x;\n"
               f"op f(Nat) -> Nat: f(x) = {calls};",
               f"f({_nat(1001)})", _nat(1)),
        # a left side whose variable sits inside 1,000 argument lists
        "lhs": (f"op f(Nat) -> Nat: f({_nat(999, 'x')}) = x;",
                f"f({_nat(1000)})", _nat(1)),
    }
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    for name, (ops, expr, value) in systems.items():
        path = tmp_path / f"{name}.rw"
        path.write_text(nat + ops + "\n")
        done = subprocess.run(
            [sys.executable, "-c", _CHILD, str(path), expr, value],
            env=env, capture_output=True, text=True,
            timeout=time_budget(90))
        assert done.returncode == 0, (name, done.stderr[-3000:])
