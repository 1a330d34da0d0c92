"""Every top-level name that src/nlgap defines, and every member of its
classes, has a reader outside its own definition: in the package itself, in
the benchmark (perfbench/*.py, including the function names the tracer
reads as strings), or in the acceptance gate.  A function, class or
constant that only unit tests reach belongs with them, in tests/oracles.py,
and a record field that only tests read goes, so neither can grow back in
src/.  Comments and docstrings are not readers; the scan reads the syntax
tree."""
import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "nlgap").glob("*.py"))
READERS = SOURCES + sorted((ROOT / "perfbench").glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]


def defined_names(tree):
    """(statement, name) for each top-level function, class and assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node, node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Name):
                        yield node, leaf.id


def traced_names(tree):
    """The dotted parts of the strings in perfbench/tracing.py's TRACED table."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets):
            for leaf in ast.walk(node.value):
                if isinstance(leaf, ast.Constant) and isinstance(leaf.value, str):
                    yield from leaf.value.split(".")


def read_names(tree, skip=None):
    """The names a tree reads: loaded names, attributes and imported names,
    leaving out the subtree skip."""
    out, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rpartition(".")[2])
        stack.extend(ast.iter_child_nodes(node))
    return out


def test_every_src_name_has_a_reader():
    trees = {path: ast.parse(path.read_text()) for path in READERS}
    reads = {path: read_names(tree) for path, tree in trees.items()}
    traced = set(traced_names(trees[ROOT / "perfbench" / "tracing.py"]))
    unread = []
    for path in SOURCES:
        elsewhere = traced.union(*(names for other, names in reads.items() if other != path))
        for node, name in defined_names(trees[path]):
            if name not in elsewhere and name not in read_names(trees[path], skip=node):
                unread.append(f"{path.name}:{name}")
    assert SOURCES
    assert unread == []


def test_validate_checks_only_metric_files():
    """A metric is checked where it is read: the one call of validate in the
    package is io.metric_from_text's.  Every construction is a metric by
    construction and wraps its matrix; the tests keep validate as its oracle."""
    callers = [f"{path.stem}.{getattr(top, 'name', '<module>')}"
               for path in SOURCES for top in ast.parse(path.read_text()).body
               for node in ast.walk(top) if isinstance(node, ast.Call)
               and getattr(node.func, "id", getattr(node.func, "attr", None)) == "validate"]
    assert callers == ["io.metric_from_text"]


def class_members(tree):
    """(class name, node, name) for each field, method and property that a
    top-level class body defines, and for each attribute that its methods
    assign to self (the node is then the assigned attribute)."""
    for cls in tree.body:
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield cls.name, node, node.name
                for leaf in ast.walk(node):
                    if (isinstance(leaf, ast.Attribute) and isinstance(leaf.ctx, ast.Store)
                            and isinstance(leaf.value, ast.Name) and leaf.value.id == "self"):
                        yield cls.name, leaf, leaf.attr
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if isinstance(target, ast.Name):
                        yield cls.name, node, target.id


def attribute_loads(tree, skip=None):
    """The attribute names a tree loads (x.name), leaving out the subtree skip
    and the names of the modules that import statements bind (np.indices)."""
    modules = {alias.asname or alias.name.partition(".")[0]
               for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names}
    out, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                and not (isinstance(node.value, ast.Name) and node.value.id in modules)):
            out.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return out


def test_every_src_member_has_a_reader():
    """A member that overrides its base class is read by the base class's
    code (argparse calls _Parser.error), and a dunder method by Python or
    dataclasses, so both are exempt.  The scan matches names, not types: a
    member whose name is loaded for another object (.n, .q) passes, though
    not through a module's own names (np.indices, math.pi)."""
    trees = {path: ast.parse(path.read_text()) for path in READERS}
    loads = {path: attribute_loads(tree) for path, tree in trees.items()}
    traced = set(traced_names(trees[ROOT / "perfbench" / "tracing.py"]))
    unread = []
    for path in SOURCES:
        members = list(class_members(trees[path]))
        if not members:
            continue
        module = importlib.import_module(f"nlgap.{path.stem}")
        elsewhere = traced.union(*(names for other, names in loads.items() if other != path))
        for cls, node, name in members:
            inherited = any(hasattr(base, name) for base in getattr(module, cls).__mro__[1:])
            if inherited or name.startswith("__") and name.endswith("__"):
                continue
            if name not in elsewhere and name not in attribute_loads(trees[path], skip=node):
                unread.append(f"{path.name}:{cls}.{name}")
    assert unread == []


def defaulted_parameters(tree):
    """(def name, position, name) for each parameter with a default of each
    def in tree, nested ones too.  The position counts the positional
    arguments of a call, after a method's self; a keyword-only parameter
    has none."""
    methods = {id(node) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
               for node in cls.body}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            positional = (a.posonlyargs + a.args)[id(node) in methods:]
            for i in range(len(positional) - len(a.defaults), len(positional)):
                yield node.name, i, positional[i].arg
            for arg, default in zip(a.kwonlyargs, a.kw_defaults):
                if default is not None:
                    yield node.name, None, arg.arg


def passes(call, position, name) -> bool:
    """Whether a call passes the parameter: by position, by keyword, or
    through * or **."""
    if any(k.arg in (name, None) for k in call.keywords):
        return True
    return position is not None and (len(call.args) > position
                                     or any(isinstance(a, ast.Starred) for a in call.args))


GUARD_DEFS = """
def f(a, b=1, *, c=2): pass
class K:
    def m(self, x, y=0): pass
"""


@pytest.mark.parametrize("call,unpassed", [
    ("f(0)", ["f(b)", "f(c)"]),
    ("f(0, 1)", ["f(c)"]),
    ("f(*xs, c=3)", []),
    ("f(0, **kw)", []),
    ("K().m(0)", ["m(y)"]),
    ("K().m(0, 1)", []),
])
def test_guard_sees_each_way_of_passing(call, unpassed):
    """The guard below counts a method's positions after self, and a
    keyword-only parameter as passed only by keyword or **."""
    node = ast.parse(call).body[0].value
    assert [f"{fn}({name})" for fn, position, name in defaulted_parameters(ast.parse(GUARD_DEFS))
            if fn == (getattr(node.func, "id", None) or node.func.attr)
            and not passes(node, position, name)] == unpassed


def test_every_defaulted_parameter_is_passed():
    """A parameter with a default that no call in the readers passes always
    holds its default: it goes, and its value with it.  Calls match a def by
    name, as the scans above do."""
    trees = {path: ast.parse(path.read_text()) for path in READERS}
    calls = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                calls.setdefault(getattr(func, "id", getattr(func, "attr", None)), []).append(node)
    unpassed = [f"{path.name}:{fn}({name})" for path in SOURCES
                for fn, position, name in defaulted_parameters(trees[path])
                if not any(passes(call, position, name) for call in calls.get(fn, []))]
    assert unpassed == []
