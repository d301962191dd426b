"""Every public name in src/ramkit has a caller outside the unit tests,
and every private one a caller in src/ramkit."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "ramkit"


def _used(node) -> set[str]:
    """Identifiers a statement uses: names, attributes, imported names,
    and string constants, which the benchmark patches attributes by."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.alias):
            found.add(sub.name.rpartition(".")[2])
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            found.add(sub.value)
    return found


def _defined(stmt) -> list[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        return [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        return [stmt.target.id]
    return []


def _uncalled(private: bool, used_outside: set[str]) -> list[str]:
    """Top-level names of src/ramkit, public or private (dunders aside),
    that no other top-level statement there uses and used_outside lacks."""
    stmts = [(p, stmt, _used(stmt)) for p in sorted(SRC.glob("*.py"))
             for stmt in ast.parse(p.read_text()).body]
    return [
        f"{path.stem}.{name}"
        for path, stmt, _ in stmts
        for name in _defined(stmt)
        if name.startswith("_") == private and not name.startswith("__")
        and name not in used_outside
        and not any(name in used for _, other, used in stmts if other is not stmt)
    ]


def test_every_public_name_has_a_production_caller():
    # callers that count: src/ramkit outside the name's own definition,
    # the acceptance tests and the benchmark
    outside = [ROOT / "tests" / "test_acceptance.py", *sorted((ROOT / "bench").glob("*.py"))]
    used_outside = set().union(*(_used(ast.parse(p.read_text())) for p in outside))
    unused = _uncalled(False, used_outside)
    assert not unused, "no caller outside the unit tests: " + ", ".join(unused)


def test_every_private_name_has_a_caller_in_src():
    # a private helper that only the tests call belongs in the tests
    unused = _uncalled(True, set())
    assert not unused, "no caller in src/ramkit: " + ", ".join(unused)
