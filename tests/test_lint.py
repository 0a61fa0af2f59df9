"""Source lint: guard checks in the library raise errors and are never
assert statements, which python -O strips; the exact core does its linear
algebra on integers and never imports fractions; only scalars.py reads
the scalar storage layout; and the verification engine decides elements
from their fixed spaces, never from composed affine powers."""

import ast
from pathlib import Path

import crystref

SRC = Path(crystref.__file__).resolve().parent


def _assertion_sites(tree: ast.AST):
    """(line, kind) of every assert statement and every raise of
    AssertionError in a parsed module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            yield node.lineno, "assert statement"
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                yield node.lineno, "raise AssertionError"


def test_lint_finds_assertions():
    tree = ast.parse("assert x\nraise AssertionError('y')\n"
                     "raise AssertionError\nraise ValueError('z')\n")
    assert [line for line, _ in _assertion_sites(tree)] == [1, 2, 3]


def test_library_has_no_assertions():
    found = [f"{path.relative_to(SRC)}:{line}: {kind}"
             for path in sorted(SRC.rglob("*.py"))
             for line, kind in _assertion_sites(ast.parse(path.read_text()))]
    assert not found, found


# Fraction stays where parsing and display need it: scalars, catalog, the
# hyperplane windows, cli and svgplot
INTEGER_ONLY = ("linalg.py", "lattices.py", "affine.py", "steinberg.py")


def _fractions_imports(tree: ast.AST):
    """Lines of every import of the fractions module in a parsed module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(a.name.split(".")[0] == "fractions" for a in node.names):
                yield node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module is not None \
                and node.module.split(".")[0] == "fractions":
            yield node.lineno


def test_lint_finds_fractions_imports():
    tree = ast.parse("import fractions\nfrom fractions import Fraction\n"
                     "import math\ndef f():\n    import fractions as fr\n")
    assert list(_fractions_imports(tree)) == [1, 2, 5]


def test_exact_core_does_not_import_fractions():
    found = [f"{name}:{line}" for name in INTEGER_ONLY
             for line in _fractions_imports(ast.parse((SRC / name).read_text()))]
    assert not found, found


# the scalar storage layout (the ring relations _REDUCTION and _FOLDED) is
# private to scalars.py: no other library module imports an underscore name
# from it
def _private_scalars_imports(tree: ast.AST):
    """(line, name) of every underscore name imported from a module named
    scalars (relative or absolute)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module is not None \
                and node.module.split(".")[-1] == "scalars":
            for alias in node.names:
                if alias.name.startswith("_"):
                    yield node.lineno, alias.name


def test_lint_finds_private_scalars_imports():
    tree = ast.parse("from .scalars import _FOLDED, Ring\n"
                     "from crystref.scalars import _REDUCTION\n"
                     "from .affine import _private\nimport scalars\n")
    assert list(_private_scalars_imports(tree)) == [(1, "_FOLDED"),
                                                    (2, "_REDUCTION")]


def test_scalar_layout_stays_in_scalars():
    found = [f"{path.name}:{line}: {name}"
             for path in sorted(SRC.rglob("*.py")) if path.name != "scalars.py"
             for line, name in _private_scalars_imports(
                 ast.parse(path.read_text()))]
    assert not found, found


# steinberg.py reads the fixed point from fixed_space and steps linear parts
# alone; composing affine maps (power, compose) stays out of the verdict path
AFFINE_POWERS = ("power", "compose")


def _named_uses(tree: ast.AST, names):
    """(line, name) of every from-import of one of the names and every
    attribute reference to one, such as affine.power."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name in names:
                    yield node.lineno, alias.name
        elif isinstance(node, ast.Attribute) and node.attr in names:
            yield node.lineno, node.attr


def test_lint_finds_named_uses():
    tree = ast.parse("from .affine import AffineMap, power\n"
                     "from crystref.affine import compose as c\n"
                     "from .affine import powers\nx = affine.power(g, 2)\n"
                     "def f():\n    from .affine import compose\n")
    assert sorted(_named_uses(tree, AFFINE_POWERS)) == [
        (1, "power"), (2, "compose"), (4, "power"), (6, "compose")]


def test_steinberg_composes_no_affine_powers():
    tree = ast.parse((SRC / "steinberg.py").read_text())
    found = list(_named_uses(tree, AFFINE_POWERS))
    assert not found, found
