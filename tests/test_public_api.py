"""Every public name and every private helper of ``sklab`` has a caller inside the package.

A name in a module's ``__all__``, or a module-level function or class whose
name starts with an underscore, counts as used when some module of
``src/sklab`` loads it, imports it or reads it as an attribute; a mention in
a docstring does not count.  Code that only tests call belongs in the tests,
and a helper that a refactor leaves without a caller is deleted with it.
"""

import ast
from pathlib import Path

import sklab

#: public names without a caller in the package, each with its reason
ALLOWED_UNUSED = {
    "inner_max": "perfbench's reduction_solver.inner_max span wraps it",
    "recover_maximizer": "ROADMAP item 3's per-row duality certificate is to call it",
}

SRC = Path(sklab.__file__).parent


def _modules() -> dict[str, ast.Module]:
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(SRC.glob("*.py"))}


def _public_names(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    return []


def _used_names(tree: ast.Module) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


def test_every_public_name_has_a_caller_in_the_package():
    modules = _modules()
    used = set().union(*map(_used_names, modules.values()))
    unused = {
        f"{module}:{name}"
        for module, tree in modules.items()
        for name in _public_names(tree)
        if name not in used
    }
    # a name that gains a caller leaves the allowlist too
    assert sorted(name.split(":")[1] for name in unused) == sorted(ALLOWED_UNUSED), (
        f"public names without a caller in the package: {sorted(unused)}"
    )


def _private_definitions(tree: ast.Module) -> list[str]:
    return [
        node.name for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not node.name.startswith("__")
    ]


def test_every_private_helper_has_a_caller_in_the_package():
    modules = _modules()
    used = set().union(*map(_used_names, modules.values()))
    orphans = sorted(
        f"{module}:{name}"
        for module, tree in modules.items()
        for name in _private_definitions(tree)
        if name not in used
    )
    assert not orphans, f"private helpers without a caller in the package: {orphans}"
