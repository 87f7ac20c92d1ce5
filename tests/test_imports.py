"""Every module-level import in the package is used by its module."""
import ast
import collections
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "orecalc"

# (module, name) imported for another module to find there:
# perfbench/test_perfbench.py traces telescoping.exact_div
ALLOWED = {("telescoping", "exact_div")}


def unused_imports(path):
    """The names the module's top-level imports bind that no expression
    of the module reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return bound - read


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py")
                                        if p.name != "__init__.py"),
                         ids=lambda p: p.stem)
def test_module_uses_every_import(path):
    unused = {name for name in unused_imports(path) if (path.stem, name) not in ALLOWED}
    assert not unused, "%s imports %s and never uses it" % (path.name, sorted(unused))


def _reads(node):
    """The names a subtree reads: as a name, an attribute or an import alias."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.asname or sub.name


TREES = {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in sorted(SRC.glob("*.py"))}
READS = collections.Counter(name for tree in TREES.values() for name in _reads(tree))
PRIVATE = [(stem, node) for stem, tree in TREES.items() for node in tree.body
           if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_")]


@pytest.mark.parametrize("stem, node", PRIVATE,
                         ids=["%s.%s" % (stem, node.name) for stem, node in PRIVATE])
def test_private_definition_has_a_reader(stem, node):
    inside = sum(name == node.name for name in _reads(node))
    assert READS[node.name] > inside, "%s.%s is never read" % (stem, node.name)
