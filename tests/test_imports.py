"""Every imported name is read somewhere in its module: a stdlib-only scan
of the package and the tests. Names listed in __all__ count as read, and an
import statement marked `# noqa: F401` is exempt."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "densefrac").glob("*.py")) + sorted(
    (ROOT / "tests").glob("*.py")
)


def unused_imports(source: str) -> list:
    """(line, name) for each name an import binds that the module never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            bound.append((node.lineno, alias.asname or alias.name.split(".")[0]))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    return [(line, name) for line, name in bound if name not in read]


def test_scan_flags_only_unread_names():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path\n"
        "import numpy as np\n"
        "from a import (b,\n"
        "    c as d)\n"
        "from e import f  # noqa: F401\n"
        "from g import h\n"
        "__all__ = ['h']\n"
        "np.zeros(d)\n"
    )
    assert unused_imports(source) == [(2, "os"), (2, "os"), (4, "b")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def package_imports(source: str) -> set:
    """The densefrac modules a module imports, by relative or absolute
    name: `from . import a`, `from .b import c`, `import densefrac.d`."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                module = node.module
            elif node.module and node.module.split(".")[0] == "densefrac":
                module = node.module.partition(".")[2]
            else:
                continue
            if module:
                found.add(module.split(".")[0])
            else:
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                top, _, module = alias.name.partition(".")
                if top == "densefrac":
                    found.add(module.split(".")[0] or "densefrac")
    return found


def test_package_import_scan():
    source = (
        "import numpy\n"
        "import densefrac.arith\n"
        "from . import dickman, errors\n"
        "from .smooth import build_family\n"
        "from densefrac.modular import _solve\n"
        "from densefrac import expand\n"
        "from fractions import Fraction\n"
    )
    assert package_imports(source) == {
        "arith", "dickman", "errors", "smooth", "modular", "expand"
    }


def test_verifier_imports_nothing_from_the_construction():
    """verify.py reaches into the package only for dickman's constants, so
    no constructor module can share its summation path or its modulus."""
    source = (ROOT / "src" / "densefrac" / "verify.py").read_text()
    assert package_imports(source) <= {"dickman"}
