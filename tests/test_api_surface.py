"""Every public function, class and method of the package has a caller.

A public name (no leading underscore) defined in ``src/squareful`` must be
referenced, as a name, an attribute or an import, somewhere in ``src/``,
``tests/test_acceptance.py`` or ``perfbench/*.py``.  A name that only its
own unit test reaches is a second route to a claim that nothing else
checks, and is deleted instead.  The benchmark files are only read here.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "squareful"

# reference implementations that unit tests compare against
ALLOWED = {
    "Arc.pieces": "the two-piece form of a wrapped arc, the oracle for Arc.contains",
    "ContinuedFraction.convergents": "the p_k / q_k recurrence, checked against nested evaluation",
}


def public_names(tree: ast.Module):
    """``(qualified name, bare name)`` of each public top-level function or
    class and each public method of a public class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node.name
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                        yield f"{node.name}.{sub.name}", sub.name


def referenced_names(paths) -> set[str]:
    names: set[str] = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rsplit(".", 1)[-1])
    return names


def test_every_public_name_has_a_caller():
    callers = [*sorted((ROOT / "src").rglob("*.py")), ROOT / "tests" / "test_acceptance.py",
               *sorted((ROOT / "perfbench").glob("*.py"))]
    used = referenced_names(callers)
    defined = {qual: (path.name, bare) for path in sorted(PACKAGE.glob("*.py"))
               for qual, bare in public_names(ast.parse(path.read_text()))}
    assert len(defined) > 50  # the scan sees the package
    unused = sorted(f"{module}: {qual}" for qual, (module, bare) in defined.items()
                    if bare not in used and qual not in ALLOWED)
    assert not unused, "public names with no caller outside their own tests: " + ", ".join(unused)
    # an allowed name must still exist and still lack a caller
    stale = sorted(qual for qual in ALLOWED
                   if qual not in defined or defined[qual][1] in used)
    assert not stale, f"allow-list entries to drop: {stale}"
