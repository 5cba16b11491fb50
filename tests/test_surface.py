"""The package's public surface is declared once, in ``__init__.py``.

Every top-level function or class without a leading underscore is either
exported by ``__init__.py``, used by name elsewhere in the package, listed in
the ``__all__`` of ``serialize`` or ``sampling`` (the two modules the package
does not re-export), or a registered CLI command; anything else is a helper
that no caller needs.
"""

import ast
from pathlib import Path

import stategeom

PACKAGE = Path(stategeom.__file__).resolve().parent
DECLARING_MODULES = ("serialize.py", "sampling.py")


def _trees():
    return {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def _references(node):
    """Names that ``node`` uses: loaded or imported identifiers and attributes."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name)
    return names


def _declared_all(tree):
    for stmt in tree.body:
        if (isinstance(stmt, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets)):
            return set(ast.literal_eval(stmt.value))
    return None


def _is_cli_command(stmt):
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and d.func.id == "command"
               for d in stmt.decorator_list)


def test_only_unexported_modules_declare_all():
    declaring = sorted(name for name, tree in _trees().items() if _declared_all(tree) is not None)
    assert declaring == sorted(DECLARING_MODULES)


def test_every_public_definition_has_a_caller():
    trees = _trees()
    exported = {alias.name for stmt in trees["__init__.py"].body
                if isinstance(stmt, ast.ImportFrom) for alias in stmt.names}
    declared = set().union(*(_declared_all(trees[name]) for name in DECLARING_MODULES))
    uses = [(stmt, _references(stmt)) for tree in trees.values() for stmt in tree.body]
    unused = []
    for module, tree in trees.items():
        for stmt in tree.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) or stmt.name.startswith("_"):
                continue
            if stmt.name in exported or stmt.name in declared:
                continue
            if module == "cli.py" and _is_cli_command(stmt):
                continue
            if not any(stmt.name in names for other, names in uses if other is not stmt):
                unused.append(f"{module}:{stmt.name}")
    assert not unused, f"public definitions nothing exports or calls: {unused}"
