"""Importing the package generates no code at import time and loads no
``fractions``.

``dataclasses`` builds each method of a decorated class from source text and
``exec``s it, and it imports ``inspect``; the package's classes are written
out instead.  ``fractions`` pulls in ``decimal`` and ``numbers``; the
package's own intercept arithmetic runs on integer cells, and a
:class:`~squareful.sturmian.RotationSystem` takes the ``Fraction`` slope its
caller built.  The import runs in a fresh interpreter without ``site``
(``-S``), so that only the package and the standard library it imports are
seen.
"""

import functools
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LAYERS = ("words", "sturmian", "squares", "streams", "omega", "dynamics", "equation")


@functools.cache
def loaded_by_import() -> frozenset[str]:
    """The modules loaded by importing the package, its CLI and every layer."""
    code = "\n".join([
        "import sys",
        "import squareful, squareful.cli",
        *(f"import squareful.{short}" for short in LAYERS),
        "print(*sys.modules)",
    ])
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    return frozenset(proc.stdout.split())


def test_import_loads_neither_dataclasses_nor_inspect():
    assert "squareful.cli" in loaded_by_import()
    assert not {"dataclasses", "inspect"} & loaded_by_import()


def test_import_loads_no_fractions():
    assert not {"fractions", "decimal", "numbers"} & loaded_by_import()
