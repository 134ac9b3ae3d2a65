"""No test-only API: every function, class and method that ``src/wpec``
defines is used by the package itself, by the benchmark harness or by
the acceptance tests.

A use is a name, an attribute, or a dotted-name string (``getattr`` and
wrapper tables reach names by string) anywhere in those files, except
the definition itself and the strings of an ``__all__`` list.  Dunder
names are left out: the language calls them.  Names match by spelling
alone, so a definition whose name is also used for something else
passes.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "wpec").glob("*.py"))
USERS = PACKAGE + sorted((ROOT / "perfbench").glob("*.py")) + [
    ROOT / "tests" / "test_acceptance.py"
]

# name -> why it stays although nothing listed above uses it yet
ALLOWED = {
    "format_schedule": "the schedule text form that check-protocol's "
    "failure dumps will write (ROADMAP item 2c)",
}

_DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def _defined() -> dict[str, str]:
    """Every function, class and method name of the package, with the
    module that defines it first."""
    out: dict[str, str] = {}
    for path in PACKAGE:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    out.setdefault(node.name, path.stem)
    return out


def _all_strings(tree: ast.AST) -> set[int]:
    """ids of the string nodes inside ``__all__ = [...]``."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            out.update(id(c) for c in ast.walk(node.value))
    return out


def _used() -> set[str]:
    used: set[str] = set()
    for path in USERS:
        tree = ast.parse(path.read_text())
        skip = _all_strings(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and id(node) not in skip
                and _DOTTED.fullmatch(node.value)
            ):
                used.update(node.value.split("."))
    return used


def test_every_definition_is_used_outside_the_unit_tests():
    used = _used()
    unused = sorted(
        f"{module}.{name}"
        for name, module in _defined().items()
        if name not in used and name not in ALLOWED
    )
    assert unused == [], "defined but used only by unit tests (or not at all)"
    # an allow-list entry goes once its name is used or deleted
    assert all(name in _defined() and name not in used for name in ALLOWED)
