"""Every public function, class and method of the package has a caller,
and every defaulted parameter of one is passed by some caller.

A public name (no leading underscore) defined in ``src/squareful`` must be
referenced, as a name, an attribute or an import, somewhere in ``src/``,
``tests/test_acceptance.py`` or ``perfbench/*.py``.  A name that only its
own unit test reaches is a second route to a claim that nothing else
checks, and is deleted instead.  Likewise a defaulted parameter that no
caller there passes is a knob that nothing turns, and becomes a constant.
The benchmark files are only read here.

No code of the package reaches into another object's private attributes:
an underscore attribute is read only on ``self``, ``cls`` or ``super()``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "squareful"

# reference implementations that unit tests compare against
ALLOWED: dict[str, str] = {}


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


CALLERS = [*sorted((ROOT / "src").rglob("*.py")), ROOT / "tests" / "test_acceptance.py",
           *sorted((ROOT / "perfbench").glob("*.py"))]


def test_every_public_name_has_a_caller():
    used = referenced_names(CALLERS)
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


def knobs(tree: ast.Module):
    """``(qualified name, called name, position, parameter)`` for each
    defaulted parameter of a public function, of a public method of a public
    class, or of a public class's ``__init__`` (called by the class name).
    ``position`` counts the positional arguments before it, past ``self``,
    and is None for a keyword-only parameter."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield from _defaults(node.name, node.name, node, 0)
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            methods = [sub for sub in node.body if isinstance(sub, ast.FunctionDef)]
            for sub in methods:
                if sub.name == "__init__" or not sub.name.startswith("_"):
                    called = node.name if sub.name == "__init__" else sub.name
                    static = any(getattr(d, "id", None) == "staticmethod" for d in sub.decorator_list)
                    yield from _defaults(f"{node.name}.{sub.name}", called, sub, 0 if static else 1)


def _defaults(qual: str, called: str, fn: ast.FunctionDef, skip: int):
    positional = fn.args.posonlyargs + fn.args.args
    for i, arg in enumerate(positional[len(positional) - len(fn.args.defaults):],
                            len(positional) - len(fn.args.defaults)):
        yield qual, called, i - skip, arg.arg
    for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
        if default is not None:
            yield qual, called, None, arg.arg


def calls(paths):
    """``(called name, positional count, keyword names, spread)`` of every
    call; ``super().__init__(...)`` is a call of the first base class."""
    for path in paths:
        tree = ast.parse(path.read_text())
        base = {}
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef) and cls.bases:
                for node in ast.walk(cls):
                    base[id(node)] = getattr(cls.bases[0], "id", None)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name):
                called = func.id
            elif isinstance(func, ast.Attribute):
                called = func.attr
                if called == "__init__" and isinstance(func.value, ast.Call) and \
                        getattr(func.value.func, "id", None) == "super":
                    called = base.get(id(node))
            else:
                continue
            spread = (any(isinstance(a, ast.Starred) for a in node.args)
                      or any(k.arg is None for k in node.keywords))
            yield called, len(node.args), {k.arg for k in node.keywords}, spread


def test_every_default_is_passed_by_a_caller():
    seen = list(calls(CALLERS))
    defined = [knob for path in sorted(PACKAGE.glob("*.py"))
               for knob in knobs(ast.parse(path.read_text()))]
    assert len(defined) > 10  # the scan sees the defaults
    unpassed = sorted(f"{qual}({param})" for qual, called, pos, param in defined
                      if qual not in ALLOWED and not any(
                          name == called and (spread or param in kws or (pos is not None and npos > pos))
                          for name, npos, kws, spread in seen))
    assert not unpassed, "defaulted parameters no caller passes: " + ", ".join(unpassed)


def foreign_private_attributes(tree: ast.Module) -> list[str]:
    """Each ``owner._name`` whose owner is not ``self``, ``cls`` or
    ``super()``, as ``line: source``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr.startswith("_"):
            owner = node.value
            if isinstance(owner, ast.Name) and owner.id in ("self", "cls"):
                continue
            if isinstance(owner, ast.Call) and getattr(owner.func, "id", None) == "super":
                continue
            found.append(f"{node.lineno}: {ast.unparse(node)}")
    return found


def test_no_code_reads_another_objects_private_attributes():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) > 5  # the scan sees the package
    reached = [f"{path.name}:{where}" for path in sources
               for where in foreign_private_attributes(ast.parse(path.read_text()))]
    assert not reached, "private attributes read from outside their object: " + ", ".join(reached)


# The scopes that may read an attribute named ``c``: the parameters, the
# system, which derives the substitution length ``m = 2c + 1`` from them
# (``OmegaSystem.m``), and the CLI guard, which sizes words from ``--c``
# before the system exists.  Every other reader takes ``m``.
C_READERS = {"omega.py": ("OmegaParams", "OmegaSystem.__init__"), "cli.py": ("_system",)}


def c_reads(tree: ast.Module, allowed: tuple[str, ...]) -> list[int]:
    """The lines that read an attribute ``c`` outside the scopes ``allowed``,
    qualified names of classes and functions."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        elif (isinstance(node, ast.Attribute) and node.attr == "c" and isinstance(node.ctx, ast.Load)
              and not any(scope == a or scope.startswith(a + ".") for a in allowed)):
            found.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "")
    return found


def test_only_the_system_derives_the_substitution_length():
    reads = [f"{path.name}:{line}" for path in sorted(PACKAGE.glob("*.py"))
             for line in c_reads(ast.parse(path.read_text()), C_READERS.get(path.name, ()))]
    assert not reads, "reads of c outside OmegaParams, OmegaSystem.__init__ and cli._system: " + ", ".join(reads)


def self_stores(fn: ast.FunctionDef) -> list[str]:
    """Each store into ``self`` in ``fn``, as ``line: target``: an
    attribute of ``self``, or a subscript or attribute of one."""
    found = []
    for node in ast.walk(fn):
        if isinstance(node, (ast.Attribute, ast.Subscript)) and isinstance(node.ctx, (ast.Store, ast.Del)):
            owner = node
            while isinstance(owner, (ast.Attribute, ast.Subscript)):
                owner = owner.value
            if isinstance(owner, ast.Name) and owner.id == "self":
                found.append(f"{node.lineno}: {ast.unparse(node)}")
    return found


def test_the_square_root_step_keeps_nothing():
    # the kernel is a pure function of (first, shift, names): callers that
    # take it under many tails share walks by the names each step read
    tree = ast.parse((PACKAGE / "omega.py").read_text())
    system = next(node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "OmegaSystem")
    methods = {fn.name: fn for fn in system.body if isinstance(fn, ast.FunctionDef)}
    assert self_stores(methods["__init__"])  # the scan sees stores
    for name in ("sqrt_step", "remainder_step"):
        stores = self_stores(methods[name])
        assert not stores, f"OmegaSystem.{name} stores into self: " + ", ".join(stores)


def test_only_the_system_takes_the_square_root_step():
    # the kernel and remainder_step, which proves a remainder's step free of
    # the names after it, are called in omega.py alone, where remainder_graph
    # lays the steps out in slots; the engine and the index read that graph,
    # and keep no tails, names-read rule, slot layout or depth table of their own
    for method in ("sqrt_step", "remainder_step"):
        callers = sorted(path.name for path in PACKAGE.glob("*.py")
                         for node in ast.walk(ast.parse(path.read_text()))
                         if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == method)
        assert callers and set(callers) == {"omega.py"}, f"{method} called outside omega.py: {callers}"
    tree = ast.parse((PACKAGE / "dynamics.py").read_text())
    named = referenced_names([PACKAGE / "dynamics.py"]) & {"_TAILS", "names_read", "D_LOOKAHEAD", "bytearray"}
    assert not named, f"dynamics.py names {sorted(named)}"
    # the layout's test of a first name: a compare with the name S or L
    names = [ast.unparse(node) for node in ast.walk(tree) if isinstance(node, ast.Compare)
             and any(isinstance(side, ast.Constant) and side.value in ("S", "L")
                     for side in (node.left, *node.comparators))]
    assert not names, f"dynamics.py tests first names: {names}"
