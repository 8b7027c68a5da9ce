"""The runtime needs nothing beyond the standard library and NumPy."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import uccatree

# Prints the top-level names of the modules that importing every uccatree
# module loads.
LOADED_BY_IMPORT = """
import pkgutil, sys
before = set(sys.modules)
import uccatree
for module in pkgutil.iter_modules(uccatree.__path__):
    __import__(f"uccatree.{module.name}")
print(*sorted({name.partition(".")[0] for name in set(sys.modules) - before}))
"""


def test_every_module_loads_only_the_standard_library_and_numpy():
    src = str(Path(uccatree.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run(
        [sys.executable, "-c", LOADED_BY_IMPORT], env=env, capture_output=True, text=True, check=True
    )
    loaded = set(run.stdout.split())
    assert {"numpy", "uccatree"} <= loaded
    assert loaded - set(sys.stdlib_module_names) - {"numpy", "uccatree"} == set()
