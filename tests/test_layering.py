"""The module graph of gradus runs one way, field -> ring -> groebner ->
hilbert -> points / betti -> hom -> experiments -> cli: a module imports
at its top, never inside a function or method, and only from the layers
below it, so each module can be imported first, in an interpreter of its
own."""
import ast
import os
import pathlib
import subprocess
import sys

import pytest

import gradus

SRC = pathlib.Path(gradus.__file__).parent
MODULES = sorted(path.stem for path in SRC.glob("*.py"))
# a module imports only from modules of a lower layer; `__init__`, which
# gathers the public names, has none
LAYER = {"errors": 0, "field": 1, "ring": 2, "groebner": 3, "hilbert": 4, "points": 5,
         "betti": 5, "hom": 6, "experiments": 7, "cli": 8, "__main__": 9}


def _tree(module: str) -> ast.Module:
    return ast.parse((SRC / f"{module}.py").read_text(), filename=f"{module}.py")


def test_no_import_inside_a_function_or_method():
    local = set()
    for module in MODULES:
        for fn in ast.walk(_tree(module)):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                local |= {f"{module}.py:{node.lineno}" for node in ast.walk(fn)
                          if isinstance(node, (ast.Import, ast.ImportFrom))}
    assert sorted(local) == []


@pytest.mark.parametrize("module", [m for m in MODULES if m != "__init__"])
def test_a_module_imports_only_from_the_layers_below_it(module):
    upward = [node.module for node in _tree(module).body
              if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
              and LAYER[node.module] >= LAYER[module]]
    assert upward == []


@pytest.mark.parametrize("module", MODULES)
def test_a_module_imports_first_in_a_fresh_interpreter(module):
    name = "gradus" if module == "__init__" else f"gradus.{module}"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC.parent), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", f"import {name}"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
