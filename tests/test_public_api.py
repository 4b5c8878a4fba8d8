from __future__ import annotations

import ast
import importlib
import os
import subprocess
import sys

import pytest

import sparselb

MODULES = ("seeding", "topology", "traffic", "kernel", "simulator",
           "policies", "nn", "env", "trainer", "harness")


@pytest.mark.parametrize("name", MODULES)
def test_every_public_name_resolves(name):
    mod = importlib.import_module(f"sparselb.{name}")
    assert mod.__all__
    missing = [attr for attr in mod.__all__ if not hasattr(mod, attr)]
    assert not missing, f"sparselb.{name}.__all__ names missing objects: {missing}"
    assert len(set(mod.__all__)) == len(mod.__all__)


def test_import_loads_no_scipy():
    # scipy is imported lazily, where a confidence interval needs it
    src = os.path.dirname(os.path.dirname(os.path.abspath(sparselb.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = ("import sys, sparselb; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=60, env={**os.environ, "PYTHONPATH": path})
    assert out.stdout.strip() == "[]"


def test_no_private_names_imported_across_modules():
    # an underscore name is a module's own business; another module that
    # needs it should get a public name instead
    pkg = os.path.dirname(os.path.abspath(sparselb.__file__))
    offenders = []
    for fname in sorted(os.listdir(pkg)):
        if not fname.endswith(".py"):
            continue
        with open(os.path.join(pkg, fname)) as fh:
            tree = ast.parse(fh.read(), filename=fname)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                    node.level > 0 or (node.module or "").split(".")[0] == "sparselb"):
                offenders += [f"{fname}: {node.module}.{a.name}" for a in node.names
                              if a.name.startswith("_")]
    assert not offenders, f"private names imported across modules: {offenders}"
