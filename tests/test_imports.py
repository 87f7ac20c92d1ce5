"""Every module-level import in the package is used by its module."""
import ast
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
