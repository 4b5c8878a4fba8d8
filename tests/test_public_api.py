from __future__ import annotations

import importlib

import pytest

MODULES = ("seeding", "topology", "traffic", "kernel", "simulator",
           "policies", "nn", "env", "trainer", "harness")


@pytest.mark.parametrize("name", MODULES)
def test_every_public_name_resolves(name):
    mod = importlib.import_module(f"sparselb.{name}")
    assert mod.__all__
    missing = [attr for attr in mod.__all__ if not hasattr(mod, attr)]
    assert not missing, f"sparselb.{name}.__all__ names missing objects: {missing}"
    assert len(set(mod.__all__)) == len(mod.__all__)
