"""No padicann module imports an _-prefixed name from another one.

Shared helpers live in public modules (``padicann.intpoly`` for integer
polynomials and valuations).  The allowlist names the private imports that
are kept on purpose; an entry that no longer matches an import fails too,
so the list cannot go stale.
"""

import ast
from pathlib import Path

import padicann

PACKAGE = Path(padicann.__file__).parent

# (importing module, imported module, name)
ALLOWED = {
    # the oracle refines its certified roots with the Hensel step of the
    # decomposition's root finder; an independent one is ROADMAP.md item 5
    ("oracle", "curves", "_newton_refine"),
    # the bound formulas enforce the same p > e + 1 regime as delta()
    ("bounds", "series", "_check_regime"),
}


def _source_module(node: ast.ImportFrom):
    """The padicann module an import reads from, or None for other packages."""
    if node.level == 1:
        return node.module or "padicann"
    if node.level == 0 and node.module and node.module.split(".")[0] == "padicann":
        return node.module.split(".", 1)[1] if "." in node.module else "padicann"
    return None


def private_imports():
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and _source_module(node):
                found |= {(path.stem, _source_module(node), a.name)
                          for a in node.names if a.name.startswith("_")}
    return found


def test_no_private_cross_module_imports():
    found = private_imports()
    assert found - ALLOWED == set(), "private names imported across modules"
    assert ALLOWED - found == set(), "allowlist entries with no matching import"


def test_source_module_of_relative_and_absolute_imports():
    tree = ast.parse(
        "from .curves import _x, y\n"
        "from padicann.series import _z\n"
        "from . import _mod\n"
        "from fractions import _Fraction\n"
    )
    sources = [_source_module(n) for n in tree.body]
    assert sources == ["curves", "series", "padicann", None]
