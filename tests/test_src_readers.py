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
