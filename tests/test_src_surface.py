"""Every function, class and method in src/egflow is used by src/egflow.

A definition counts as used when its name is referenced (as a name or an
attribute) anywhere in the package outside its own definition.  Code that
only tests call belongs in the tests (tests/oracles.py), not in the package.
The scan goes by name, so it cannot tell two definitions of the same name
apart, nor a method from a NumPy attribute of that name; it still catches
every definition whose name the package never mentions.

Entry points are used from outside and are listed here with their reason.
"""

import ast
import re
from pathlib import Path

import egflow

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "egflow"


def _readme_api_names() -> set[str]:
    """Names the README's Python API example imports."""
    names = set()
    for block in re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), flags=re.S):
        for node in ast.walk(ast.parse(block)):
            if isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return names


# qualified name -> why it is used although the package never names it
ENTRY_POINTS = {
    **{name: "exported in egflow.__all__" for name in egflow.__all__},
    **{name: "imported by the README Python API example" for name in _readme_api_names()},
    "main": "console script egflow = egflow.cli:main",
    **{
        f"{cls}.{method}": "pointwise evaluator the tests use as an independent oracle"
        for cls in ("EGFunction", "BDMFunction")
        for method in ("value", "jacobian", "divergence")
    },
}


def _definitions(tree: ast.Module):
    """(qualified name, node) of module-level functions and classes and of their methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (item.name.startswith("__") and item.name.endswith("__")):
                    yield f"{node.name}.{item.name}", item


def _references(tree: ast.Module):
    """(name, line) of every name and attribute the module mentions."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def test_every_definition_in_src_is_referenced_in_src():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    refs = [(name, module, line) for module, tree in trees.items() for name, line in _references(tree)]
    unused = []
    for module, tree in trees.items():
        for qualname, node in _definitions(tree):
            if qualname in ENTRY_POINTS:
                continue
            name = qualname.rsplit(".", 1)[-1]
            own = range(node.lineno, node.end_lineno + 1)
            if not any(r == name and not (m == module and line in own) for r, m, line in refs):
                unused.append(f"{module}: {qualname}")
    assert not unused, "defined in src/egflow but referenced only by tests (move to tests/oracles.py):\n" + "\n".join(unused)
