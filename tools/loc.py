"""Count the code lines of a Python package.

    python tools/loc.py [PACKAGE_DIR]

A code line is one that is not blank, not a comment alone, and not inside
a module, class or function docstring. Prints, as JSON, the code lines of
each module of PACKAGE_DIR (default src/densefrac of this checkout) and
their total. Writes nothing.
"""

from __future__ import annotations

import argparse
import ast
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def docstring_lines(tree: ast.Module) -> set:
    """Line numbers covered by the module's, every class's and every
    function's docstring."""
    lines = set()
    scopes = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    for node in ast.walk(tree):
        if not isinstance(node, scopes) or ast.get_docstring(node) is None:
            continue
        doc = node.body[0]
        lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    docs = docstring_lines(ast.parse(source))
    return sum(
        1
        for number, line in enumerate(source.splitlines(), start=1)
        if line.strip() and not line.lstrip().startswith("#") and number not in docs
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "package", nargs="?", default=ROOT / "src" / "densefrac", type=Path
    )
    args = parser.parse_args(argv)
    modules = {
        path.name: code_lines(path.read_text())
        for path in sorted(args.package.glob("*.py"))
    }
    print(json.dumps({"modules": modules, "total": sum(modules.values())}, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
