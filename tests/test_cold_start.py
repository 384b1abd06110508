"""Importing the package generates no code at import time.

``dataclasses`` builds each method of a decorated class from source text and
``exec``s it, and it imports ``inspect``; the package's classes are written
out instead.  The import runs in a fresh interpreter without ``site`` (``-S``),
so that only the package and the standard library it imports are seen.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LAYERS = ("words", "sturmian", "squares", "streams", "omega", "dynamics", "equation")


def test_import_loads_neither_dataclasses_nor_inspect():
    code = "\n".join([
        "import sys",
        "import squareful, squareful.cli",
        *(f"import squareful.{short}" for short in LAYERS),
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))",
    ])
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert proc.stdout.strip() == "[]"
