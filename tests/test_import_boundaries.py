"""No padicann module imports an _-prefixed name from another one.

Shared helpers live in public modules (``padicann.intpoly`` for integer
polynomials and valuations).  The allowlist names the private imports that
are kept on purpose; an entry that no longer matches an import fails too,
so the list cannot go stale.

Every public module-level function and class, and every public method and
property of a public class, has a caller in the package or in ``perfbench``,
or is on the ``UNCALLED`` allowlist, which cannot go stale either.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import padicann

PACKAGE = Path(padicann.__file__).parent
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# (importing module, imported module, name)
ALLOWED = set()


def _source_module(node: ast.ImportFrom):
    """The padicann module an import reads from, or None for other packages."""
    if node.level == 1:
        return node.module or "padicann"
    if node.level == 0 and node.module and node.module.split(".")[0] == "padicann":
        return node.module.split(".", 1)[1] if "." in node.module else "padicann"
    return None


def package_imports():
    """Every (importing module, imported module, name) inside padicann."""
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and _source_module(node):
                found |= {(path.stem, _source_module(node), a.name) for a in node.names}
    return found


def test_no_private_cross_module_imports():
    found = {imp for imp in package_imports() if imp[2].startswith("_")}
    assert found - ALLOWED == set(), "private names imported across modules"
    assert ALLOWED - found == set(), "allowlist entries with no matching import"


def test_oracle_takes_only_the_audited_types_from_curves():
    # the oracle checks the decomposition and the Newton counts and must not
    # borrow their machinery: at import it reads errors and intpoly only,
    # the scanner is imported inside the two functions that run a scan, and
    # the audited types are named for type checkers alone
    tree = ast.parse((PACKAGE / "oracle.py").read_text(encoding="utf-8"))
    runtime, typing_only = set(), set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and _source_module(node):
            runtime |= {_source_module(node)}
        elif isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            typing_only |= {(_source_module(n), a.name) for n in node.body
                            for a in n.names}
    assert runtime == {"errors", "intpoly"}
    assert typing_only == {("curves", "Decomposition"), ("curves", "HyperellipticCurve")}
    in_functions = {(top.name, _source_module(n)) for top in tree.body
                    if isinstance(top, ast.FunctionDef) for n in ast.walk(top)
                    if isinstance(n, ast.ImportFrom) and _source_module(n)}
    assert in_functions == {("search_rational_points", "scanner"),
                            ("scan_candidates", "scanner")}
    taken = {mod for src, mod, _ in package_imports() if src == "oracle"}
    assert taken == runtime | {"curves", "scanner"}


def test_numpy_is_loaded_only_when_a_search_runs():
    # the scanner is the one module that needs NumPy
    code = ("import sys, padicann.curves, padicann.series, padicann.integration, "
            "padicann.oracle, padicann.bounds, padicann.graphs, padicann.cli, "
            "padicann.selftest; print('numpy' in sys.modules); "
            "padicann.oracle.search_rational_points([1, 0, 0, 1], 2); "
            "print('numpy' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env).stdout
    assert out.split() == ["False", "True"]


def test_importing_the_oracle_loads_neither_curves_nor_series():
    code = ("import sys, padicann.oracle; "
            "print(sorted(m for m in sys.modules if m.startswith('padicann.')))")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env).stdout
    loaded = set(ast.literal_eval(out))
    assert "padicann.oracle" in loaded
    assert not loaded & {"padicann.curves", "padicann.series"}


def test_bounds_owns_the_regime_and_its_corrections():
    # delta, Delta and the p > e + 1 check live in bounds, not in series
    assert not any((src, mod) == ("bounds", "series") for src, mod, _ in package_imports())


def test_source_module_of_relative_and_absolute_imports():
    tree = ast.parse(
        "from .curves import _x, y\n"
        "from padicann.series import _z\n"
        "from . import _mod\n"
        "from fractions import _Fraction\n"
    )
    sources = [_source_module(n) for n in tree.body]
    assert sources == ["curves", "series", "padicann", None]


def test_root_finder_does_not_borrow_the_oracle_descent():
    # the oracle checks decompose, so the two Hensel descents stay separate copies
    tree = ast.parse((PACKAGE / "curves.py").read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _source_module(node):
            imported |= {_source_module(node)} | {a.name for a in node.names}
        elif isinstance(node, ast.Import):
            imported |= {a.name.rsplit(".", 1)[-1] for a in node.names}
    assert "oracle" not in imported


def test_only_padic_builds_padic_elements_from_their_parts():
    # val, unit and prec follow one set of precision rules, in padic: other
    # modules use its arithmetic and constructors, never the raw parts
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "padic":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            fn = node.func
            if isinstance(fn, ast.Attribute) and fn.attr == "unit_residue":
                found.add((path.stem, "unit_residue", node.lineno))
            elif isinstance(fn, ast.Name) and fn.id == "PAdic":
                found.add((path.stem, "PAdic", node.lineno))
    assert found == set()


# public names that only tests call, kept on purpose
UNCALLED = {
    "zero_bound_disk",            # the disk bound a per-curve sum will read
    "lambda_zero_count_annulus",  # the per-annulus count a Chabauty sum will read
}


def _public_definitions(path):
    """The public module-level functions and classes of a module, and the
    public methods and properties of its public classes; dunders are private."""
    for top in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(top, (ast.FunctionDef, ast.ClassDef)) and not top.name.startswith("_"):
            yield top.name
            if isinstance(top, ast.ClassDef):
                yield from (n.name for n in top.body if isinstance(n, ast.FunctionDef)
                            and not n.name.startswith("_"))


def _named_outside_own_definition(paths):
    """Every name read as a variable or attribute in these files, except
    inside a definition (function, method or class) of that same name."""
    named = set()

    def visit(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            enclosing = enclosing | {node.name}
        elif isinstance(node, (ast.Name, ast.Attribute)):
            name = node.id if isinstance(node, ast.Name) else node.attr
            if name not in enclosing:
                named.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    for path in paths:
        visit(ast.parse(path.read_text(encoding="utf-8")), frozenset())
    return named


def test_every_public_definition_has_a_caller_outside_the_tests():
    sources = sorted(PACKAGE.glob("*.py"))
    defined = {name for path in sources for name in _public_definitions(path)}
    uncalled = defined - _named_outside_own_definition(sources + sorted(PERFBENCH.glob("*.py")))
    assert uncalled - UNCALLED == set(), "public names that only tests call"
    assert UNCALLED - uncalled == set(), "allowlist entries that have a caller"
