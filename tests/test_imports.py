"""Each CLI command loads only the layers it runs, and a bare ``import
stategeom`` loads none: every call compiles what it imports, so an eager
import costs every command that does not need it.  Every module imports only
modules of lower layers, so loading a layer never compiles one above it."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import stategeom
from oracles import matrix_text
from stategeom.cli import main

# what every command reads and writes files through; ``python -m`` runs the
# CLI module itself as __main__
SHARED = {"config", "errors", "linalg", "serialize", "states"}
ORBITS = {"actions", "orbits"}
TANGENT = {"actions", "tangent"}
COMMANDS = {
    "validate": (["validate", "{state}"], set()),
    "act": (["act", "alpha", "{g}", "{state}"], {"actions"}),
    "connect": (["connect", "phi", "{state}", "{target}"], ORBITS),
    "truncate": (["truncate", "{config}"], ORBITS),
    "recombine": (["recombine", "{state}", "{g}", "{identity}", "0.5"], ORBITS),
    "tangent": (["tangent", "{state}", "{gen}"], TANGENT),
    "flow": (["flow", "{state}", "{gen}", "--t0", "0", "--t1", "1", "--steps", "3"], TANGENT),
    "gns": (["gns", "{state}"], {"actions", "gns"}),
    "isotropy": (["isotropy", "{state}"], {"actions", "isotropy"}),
}
# the package's modules from the bottom layer up
LAYERS = [{"config", "errors"}, {"linalg"}, {"states"}, {"actions"},
          {"orbits", "isotropy", "tangent"}, {"gns"}, {"serialize"}, {"cli"}]
PACKAGE = Path(stategeom.__file__).resolve().parent


def _loaded_after(script):
    """The ``stategeom`` submodules in sys.modules once ``script`` has run in a
    fresh interpreter."""
    script += """
print(sorted(m.split(".", 1)[1] for m in sys.modules if m.startswith("stategeom.")),
      file=sys.stderr)
"""
    src = str(Path(stategeom.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return set(ast.literal_eval(done.stderr))


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("imports")
    matrices = {
        "state": (np.diag([0.5, 0.5]), "state"),
        "target": (np.diag([0.75, 0.25]), "state"),
        "g": (np.diag([np.sqrt(1.5), np.sqrt(0.5)]), "operator"),
        "identity": (np.eye(2), "operator"),
        "gen": (np.array([[0.2, 0.1 + 0.3j], [0.4 - 0.1j, -0.2]]), "operator"),
    }
    paths = {}
    for name, (m, kind) in matrices.items():
        paths[name] = tmp / f"{name}.json"
        paths[name].write_text(matrix_text(m, kind))
    paths["config"] = tmp / "config.json"
    paths["config"].write_text(json.dumps({"dims": [2, 4], "spec0": {"kind": "gibbs", "ratio": 0.5},
                                           "spec1": {"kind": "gibbs", "ratio": 0.5}}))
    return {name: str(path) for name, path in paths.items()}


def test_every_command_is_listed():
    assert set(COMMANDS) == set(main.commands)


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_command_loads_only_its_layers(files, command):
    args, layers = COMMANDS[command]
    argv = [arg.format(**files) for arg in args]
    loaded = _loaded_after(f"""
import runpy, sys
sys.argv = ["stategeom", *{argv!r}]
try:
    runpy.run_module("stategeom.cli", run_name="__main__", alter_sys=True)
except SystemExit as exit:
    assert not exit.code, exit.code
""")
    assert loaded == SHARED | layers


def test_bare_import_loads_no_layer():
    assert _loaded_after("import sys, stategeom") == set()


def test_submodule_resolves_after_a_bare_import():
    loaded = _loaded_after("""
import sys, stategeom
assert stategeom.linalg.__name__ == "stategeom.linalg"
assert stategeom.config.__name__ == "stategeom.config"
""")
    assert loaded == {"config", "errors", "linalg"}


def _relative_imports(tree):
    """The package modules that ``tree`` imports relatively, at any depth."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                yield node.module.split(".")[0]
            else:
                yield from (alias.name for alias in node.names)


def test_every_module_imports_only_lower_layers():
    layer = {module: depth for depth, modules in enumerate(LAYERS) for module in modules}
    paths = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]
    assert {path.stem for path in paths} == set(layer)
    upward = sorted((path.stem, imported) for path in paths
                    for imported in _relative_imports(ast.parse(path.read_text()))
                    if layer[imported] >= layer[path.stem])
    assert not upward, f"imports of a module at or above the importer's layer: {upward}"
