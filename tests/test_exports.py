"""The public surface is what the package itself and the acceptance suite use.

Every name that ``ostbc_blind/__init__.py`` imports must be read as a name
or an attribute somewhere in another module of the package or in
``tests/test_acceptance.py``. Definitions, docstrings and comments do not
count as uses.
"""

import ast
from pathlib import Path

import ostbc_blind

PACKAGE = Path(ostbc_blind.__file__).parent
ACCEPTANCE = Path(__file__).parent / "test_acceptance.py"


def exported_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return {alias.asname or alias.name
            for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def used_names(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_export_has_a_caller():
    sources = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    used = set().union(*(used_names(p) for p in sources + [ACCEPTANCE]))
    unused = sorted(exported_names() - used)
    assert not unused, f"exported but never used: {', '.join(unused)}"


def test_audit_sees_the_exports():
    # a parse that found no exports would pass the audit vacuously
    assert {"compute_bstar", "unit_gammas", "vec"} <= exported_names()
