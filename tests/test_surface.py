"""The package's public surface is declared once, in ``__init__.py``.

Every module of the package is a submodule named in the export table
``_EXPORTS``, or is ``__init__``, ``cli`` or ``serialize``, so test support
cannot ship in it.  Every top-level function or class without a leading
underscore is either exported by ``__init__.py``, used by name elsewhere in
the package, listed in the ``__all__`` of ``serialize`` (the one module besides
the CLI that the package does not re-export), or a registered CLI command;
anything else is a helper that no caller needs.  Every name in
``serialize.__all__`` is used by the package or the benchmark, and every
defaulted parameter of a public function is passed by some call there, so an
option that only tests set cannot stay.  Every public method, property and
dataclass field of an exported class is read as an attribute somewhere in the
package, the benchmark or the tests, outside its own definition.  Private
helpers are held to the package alone: every top-level private function or
class (dunders aside) is used by name elsewhere in it, and every field of a
private dataclass is read there as an attribute.  The private names one
module imports from another are an explicit list, so a new one is a reviewed
edit.  Whether a value is already validated is asked by its validator alone:
only the validators, ``group_element`` and ``alpha`` (whose return type depends
on it) test an argument against a validated type.
"""

import ast
import importlib.util
from collections import Counter
from pathlib import Path

import stategeom
from test_api import PUBLIC_NAMES

PACKAGE = Path(stategeom.__file__).resolve().parent
DECLARING_MODULES = ("serialize.py",)


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


def _export_table(trees):
    """The export table ``_EXPORTS`` of ``__init__.py``: submodule -> public names."""
    return next(ast.literal_eval(stmt.value) for stmt in trees["__init__.py"].body
                if isinstance(stmt, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "_EXPORTS" for t in stmt.targets))


def _exported(trees):
    """The names in the export table, checked against the pinned public names,
    so no guard here can run on an empty set."""
    exported = {name for names in _export_table(trees).values() for name in names}
    assert exported == set(PUBLIC_NAMES)
    return exported


def test_every_module_is_exported_or_an_entry_point():
    # a module outside the export table ships code that no import of the
    # package, no command and no serialization runs, such as test support
    modules = {path.stem for path in PACKAGE.iterdir()
               if path.suffix == ".py" or (path / "__init__.py").exists()}
    strays = modules - set(_export_table(_trees())) - {"__init__", "cli", "serialize"}
    assert not strays, f"modules neither exported nor an entry point: {sorted(strays)}"


def test_test_support_is_not_importable_from_the_package():
    assert importlib.util.find_spec("stategeom.sampling") is None


def test_only_unexported_modules_declare_all():
    # the package's own __all__ is derived from its export table
    trees = _trees()
    assert sorted(stategeom.__all__) == sorted(_exported(trees))
    declaring = sorted(name for name, tree in trees.items()
                       if name != "__init__.py" and _declared_all(tree) is not None)
    assert declaring == sorted(DECLARING_MODULES)


def test_every_public_definition_has_a_caller():
    # private helpers too: each must be used by name elsewhere in the package
    trees = _trees()
    exported = _exported(trees)
    declared = set().union(*(_declared_all(trees[name]) for name in DECLARING_MODULES))
    uses = [(stmt, _references(stmt)) for tree in trees.values() for stmt in tree.body]
    unused = []
    for module, tree in trees.items():
        for stmt in tree.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) or stmt.name.startswith("__"):
                continue
            if stmt.name in exported or stmt.name in declared:
                continue
            if module == "cli.py" and _is_cli_command(stmt):
                continue
            if not any(stmt.name in names for other, names in uses if other is not stmt):
                unused.append(f"{module}:{stmt.name}")
    assert not unused, f"definitions nothing exports or calls: {unused}"


# (importing module, owner module, private name)
PRIVATE_IMPORTS = {
    ("actions", "states", "_frozen"),
    ("cli", "orbits", "_recombine"),
    ("gns", "actions", "_normalization"),
    ("gns", "states", "_frozen"),
    ("orbits", "actions", "_require_weight"),
    ("orbits", "actions", "_weight_squares"),
    ("tangent", "actions", "_rates"),
    ("tangent", "linalg", "_Exponential"),
    ("tangent", "states", "_eigenpairs"),
    ("tangent", "states", "_frozen"),
}


def test_private_imports_between_modules_are_pinned():
    # a private name imported across modules carries a decision out of its
    # owner; each one is listed above
    found = {(module[:-3], node.module, alias.name)
             for module, tree in _trees().items() for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
             for alias in node.names if alias.name.startswith("_")}
    assert found == PRIVATE_IMPORTS


BENCH = Path(__file__).resolve().parent.parent / "bench"


def _caller_trees():
    """The package's modules and the benchmark's: the callers the surface serves."""
    return list(_trees().values()) + [ast.parse(path.read_text())
                                      for path in sorted(BENCH.glob("*.py"))]


def _loaded_names(node):
    """Identifiers and attributes that ``node`` reads (imports and strings do not count)."""
    return {sub.id if isinstance(sub, ast.Name) else sub.attr for sub in ast.walk(node)
            if isinstance(sub, (ast.Name, ast.Attribute))}


def test_every_serialize_name_has_a_caller():
    trees = _caller_trees()
    declared = _declared_all(_trees()["serialize.py"])
    uses = [(stmt, _loaded_names(stmt)) for tree in trees for stmt in tree.body]
    unused = sorted(name for name in declared
                    if not any(name in names for stmt, names in uses
                               if getattr(stmt, "name", None) != name))
    assert not unused, f"serialize names nothing in the package or the benchmark uses: {unused}"


def _public_functions(trees):
    """(qualified name, def, whether a method) of every public function and
    public method of a public class."""
    for tree in trees.values():
        for stmt in tree.body:
            if isinstance(stmt, ast.FunctionDef) and not stmt.name.startswith("_"):
                yield stmt.name, stmt, False
            elif isinstance(stmt, ast.ClassDef) and not stmt.name.startswith("_"):
                for sub in stmt.body:
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                        yield f"{stmt.name}.{sub.name}", sub, True


def _passes(call, position, keyword):
    """Whether ``call`` passes the parameter at ``position`` (None: keyword-only)
    or named ``keyword``; unpacked arguments pass every parameter."""
    if any(kw.arg is None or kw.arg == keyword for kw in call.keywords):
        return True
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return True
    return position is not None and len(call.args) > position


def test_every_defaulted_parameter_is_passed_by_some_caller():
    calls = {}
    for tree in _caller_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    unpassed = []
    for qualname, func, is_method in _public_functions(_trees()):
        args = func.args
        positional = args.posonlyargs + args.args
        offset = 1 if is_method else 0  # a bound call does not pass self
        defaulted = [(p.arg, i - offset) for i, p in enumerate(positional)
                     if i >= len(positional) - len(args.defaults)]
        defaulted += [(p.arg, None) for p, d in zip(args.kwonlyargs, args.kw_defaults)
                      if d is not None]
        for param, position in defaulted:
            if not any(_passes(call, position, param) for call in calls.get(func.name, [])):
                unpassed.append(f"{qualname}.{param}")
    assert not unpassed, f"defaulted parameters no caller passes: {unpassed}"


def _members(cls):
    """(name, definition) of each public method, property and dataclass field of ``cls``."""
    for stmt in cls.body:
        if isinstance(stmt, ast.FunctionDef):
            name = stmt.name
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            name = stmt.target.id
        else:
            continue
        if not name.startswith("_"):
            yield name, stmt


def _attribute_reads(node):
    """How often ``node`` reads each attribute name (``x.name``, not assignments to it)."""
    return Counter(sub.attr for sub in ast.walk(node)
                   if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load))


def _dataclass_decorator(node):
    """Whether a decorator is ``dataclass`` or ``dataclass(...)``."""
    func = node.func if isinstance(node, ast.Call) else node
    return isinstance(func, ast.Name) and func.id == "dataclass"


def test_every_public_attribute_has_a_reader():
    # the tests count as readers, since some attributes exist to be checked;
    # this module's own reads are of syntax trees and do not
    tests = [ast.parse(path.read_text()) for path in sorted(Path(__file__).parent.glob("*.py"))
             if path.name != Path(__file__).name]
    reads = sum((_attribute_reads(tree) for tree in _caller_trees() + tests), Counter())
    trees = _trees()
    exported = _exported(trees)
    unread = [f"{cls.name}.{name}" for tree in trees.values() for cls in tree.body
              if isinstance(cls, ast.ClassDef) and cls.name in exported
              for name, stmt in _members(cls)
              if reads[name] <= _attribute_reads(stmt)[name]]
    # the fields of a private dataclass must be read by the package itself
    package_reads = sum((_attribute_reads(tree) for tree in trees.values()), Counter())
    unread += [f"{cls.name}.{name}" for tree in trees.values() for cls in tree.body
               if isinstance(cls, ast.ClassDef) and cls.name.startswith("_")
               and any(_dataclass_decorator(d) for d in cls.decorator_list)
               for name, stmt in _members(cls)
               if isinstance(stmt, ast.AnnAssign) and not package_reads[name]]
    assert not unread, f"attributes nothing reads: {unread}"


VALIDATED_TYPES = {"PositiveFunctional", "StateDensity", "ProbabilityVector", "GroupElement"}
TYPE_TESTERS = {
    ("states.py", "validate_positive"),
    ("states.py", "validate_state"),
    ("states.py", "validate_probability"),
    ("actions.py", "group_element"),
    ("actions.py", "alpha"),
}


def _validated_type_tests(node, func=None):
    """The innermost enclosing function (None at module level) of each
    ``isinstance`` call under ``node`` against a validated type."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _validated_type_tests(child, child.name)
            continue
        if (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                and child.func.id == "isinstance" and len(child.args) == 2
                and VALIDATED_TYPES & _references(child.args[1])):
            yield func
        yield from _validated_type_tests(child, func)


def test_only_the_validators_ask_whether_a_value_is_validated():
    # a validated value is its own certificate: a caller passes whatever it has
    # to the validator, which returns its own output unchanged
    found = {(module, func) for module, tree in _trees().items()
             for func in _validated_type_tests(tree)}
    assert ("actions.py", "group_element") in found  # the walk sees a type test
    assert found <= TYPE_TESTERS, f"type tests outside the validators: {found - TYPE_TESTERS}"
