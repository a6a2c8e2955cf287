"""Every function, class, method, field and default in src/egflow is used by src/egflow.

A definition counts as used when its name is referenced (as a name or an
attribute) anywhere in the package outside its own definition.  Code that
only tests call belongs in the tests (tests/oracles.py), not in the package.
The scan goes by name, so it cannot tell two definitions of the same name
apart, nor a method from a NumPy attribute of that name; it still catches
every definition whose name the package never mentions.

Likewise a parameter with a default counts as used when some call in the
package passes it, by keyword or by position; one that no call passes is
an option with a single value.  Calls are matched by the callee's name too.

A field of a dataclass or NamedTuple, and an attribute a method sets on
self, counts as used when the package reads an attribute of that name; one
that is only ever written is state nobody needs.

Every module of src/egflow and tests/ uses each name it imports.

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
}

# function.parameter -> why the package never passes it although it has a default
DEFAULTS_SET_OUTSIDE = {
    "cli_main.argv": "perfbench and the tests call cli_main(argv); main() leaves it None, so argparse reads sys.argv",
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


def _defaulted_parameters(tree: ast.Module):
    """(qualified name, name calls use, parameter, position in a call or None) of parameters with defaults.

    Covers module-level functions and the methods of module-level classes;
    a bound method's position skips self, and __init__ is called by its
    class's name.
    """
    for node in tree.body:
        owner = node if isinstance(node, ast.ClassDef) else None
        for fn in node.body if owner else [node]:
            if not isinstance(fn, ast.FunctionDef):
                continue
            args = fn.args
            positional = args.posonlyargs + args.args
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list)
            bound = owner is not None and not static
            qualname = f"{owner.name}.{fn.name}" if owner else fn.name
            called = owner.name if owner and fn.name == "__init__" else fn.name
            first = len(positional) - len(args.defaults)
            for i, arg in enumerate(positional[first:], start=first):
                yield qualname, called, arg.arg, i - bound
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield qualname, called, arg.arg, None


def _passes(call: ast.Call, name: str, position) -> bool:
    """Whether call may pass the parameter; ** and * arguments count as passing what they could."""
    if any(k.arg in (name, None) for k in call.keywords):
        return True
    starred = any(isinstance(a, ast.Starred) for a in call.args)
    return position is not None and (starred or len(call.args) > position)


def test_every_default_in_src_is_overridden_in_src():
    trees = [ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))]
    calls = [node for tree in trees for node in ast.walk(tree) if isinstance(node, ast.Call)]

    def callee(call):
        return getattr(call.func, "id", None) or getattr(call.func, "attr", None)

    unset = [
        f"{qualname}.{name}"
        for tree in trees
        for qualname, called, name, position in _defaulted_parameters(tree)
        if f"{qualname}.{name}" not in DEFAULTS_SET_OUTSIDE
        and not any(callee(c) == called and _passes(c, name, position) for c in calls)
    ]
    assert not unset, "defaults no call in src/egflow overrides (make them constants):\n" + "\n".join(unset)


def _records(tree: ast.Module):
    """Qualified names of the fields of dataclasses and NamedTuples and of the attributes methods set on self."""
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        record = any(ast.unparse(d).startswith("dataclass") for d in node.decorator_list) or any(
            ast.unparse(b) == "NamedTuple" for b in node.bases
        )
        for item in node.body:
            if record and isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                yield f"{node.name}.{item.target.id}"
            if isinstance(item, ast.FunctionDef):
                for sub in ast.walk(item):
                    if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store) and ast.unparse(sub.value) == "self":
                        yield f"{node.name}.{sub.attr}"


def test_every_field_in_src_is_read_in_src():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    read = {
        node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unread = sorted(
        {f"{module}: {name}" for module, tree in trees.items() for name in _records(tree) if name.rsplit(".", 1)[-1] not in read}
    )
    assert not unread, "fields and attributes src/egflow sets but never reads:\n" + "\n".join(unread)


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names the module imports but never mentions; names listed in __all__ count as mentioned."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update(elt.value for elt in node.value.elts)
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names = [alias.asname or alias.name for alias in node.names if alias.name != "*"]
        else:
            continue
        unused += [f"{name} (line {node.lineno})" for name in names if name not in used]
    return unused


def test_no_module_imports_a_name_it_does_not_use():
    paths = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    unused = [
        f"{path.relative_to(ROOT)}: {name}" for path in paths for name in _unused_imports(ast.parse(path.read_text()))
    ]
    assert not unused, "imported but unused:\n" + "\n".join(unused)
