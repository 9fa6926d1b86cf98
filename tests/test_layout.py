"""The package's own layout: no private helper, or optional parameter of one, is left unused."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "blockframe"
TREES = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")}


def _private_definitions():
    """(module, name) of every private module-level function, class or constant."""
    for module, tree in TREES.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    yield module, name


def _references():
    """Every name read, or attribute taken, anywhere in the package."""
    seen = set()
    for tree in TREES.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                seen.add(node.id)
            elif isinstance(node, ast.Attribute):
                seen.add(node.attr)
    return seen


def test_every_private_helper_is_used():
    used = _references()
    unused = [f"{module}: {name}" for module, name in _private_definitions() if name not in used]
    assert not unused, f"private names that nothing in the package uses: {unused}"


def _optional_parameters(node):
    """(position, name) of each parameter of a def with a default; None for a keyword-only one."""
    args = node.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    optional = [(k, a.arg) for k, a in enumerate(positional) if k >= first]
    keyword = zip(args.kwonlyargs, args.kw_defaults)
    return optional + [(None, a.arg) for a, d in keyword if d is not None]


def _callee(call):
    """The name the function of f(...) or x.f(...) goes by: f."""
    return getattr(call.func, "id", getattr(call.func, "attr", None))


def _sets(call, position, name):
    """Whether a call sets the parameter at this position and of this name.

    A *args may fill any positional parameter, and a **kwargs any parameter.
    """
    starred = any(isinstance(arg, ast.Starred) for arg in call.args)
    by_position = position is not None and (position < len(call.args) or starred)
    return by_position or any(kw.arg in (name, None) for kw in call.keywords)


def test_every_optional_parameter_of_a_private_function_is_set():
    # a function the package also uses as a value, as FAMILIES holds
    # _kerdock_recipe, is called where no call names it, and is skipped
    nodes = [node for tree in TREES.values() for node in ast.walk(tree)]
    calls = [node for node in nodes if isinstance(node, ast.Call)]
    called = {id(call.func) for call in calls}
    values = {
        node.id
        for node in nodes
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and id(node) not in called
    }
    unset = []
    for module, tree in TREES.items():
        for node in tree.body:
            private = isinstance(node, ast.FunctionDef) and node.name.startswith("_")
            if not private or node.name in values:
                continue
            sites = [call for call in calls if _callee(call) == node.name]
            unset += [
                f"{module}: {node.name}({name})"
                for position, name in _optional_parameters(node)
                if not any(_sets(call, position, name) for call in sites)
            ]
    assert not unset, f"optional parameters that no call in the package sets: {unset}"
