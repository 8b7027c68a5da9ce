"""The runtime needs nothing beyond the standard library and NumPy."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import uccatree

# Prints what a bare ``import uccatree`` loads: "bare" and the new modules that
# are NumPy or under uccatree.  Then prints the top-level names of the modules
# that importing every uccatree module loads.
LOADED_BY_IMPORT = """
import pkgutil, sys
before = set(sys.modules)
import uccatree
print("bare", *sorted(n for n in set(sys.modules) - before if n.partition(".")[0] in ("numpy", "uccatree")))
for module in pkgutil.iter_modules(uccatree.__path__):
    __import__(f"uccatree.{module.name}")
print(*sorted({name.partition(".")[0] for name in set(sys.modules) - before}))
"""


def loaded_by_import() -> tuple[list[str], set[str]]:
    src = str(Path(uccatree.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run(
        [sys.executable, "-c", LOADED_BY_IMPORT], env=env, capture_output=True, text=True, check=True
    )
    bare, every = run.stdout.splitlines()
    return bare.split(), set(every.split())


def test_every_module_loads_only_the_standard_library_and_numpy():
    loaded = loaded_by_import()[1]
    assert {"numpy", "uccatree"} <= loaded
    assert loaded - set(sys.stdlib_module_names) - {"numpy", "uccatree"} == set()


def test_the_bare_package_loads_neither_numpy_nor_a_module_of_its_own():
    # So ``ucca`` can set the BLAS thread count before NumPy loads.
    assert loaded_by_import()[0] == ["bare", "uccatree"]
