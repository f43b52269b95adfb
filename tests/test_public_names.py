"""Every public function and class of relcon has a caller outside the tests:
library code that only tests call is deleted or moved into the tests.

A name counts as used when some identifier, attribute or imported name in
``src/relcon``, ``demos`` or ``perfbench`` spells it. Its own ``def`` or
``class`` line is not an identifier, so it does not count. The match is by
spelling, not by resolved module, so it can only err towards passing."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = sorted((ROOT / "src" / "relcon").glob("*.py"))
USERS = LIBRARY + sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))


def _public_definitions(path: Path) -> list[str]:
    """Module-level public functions and classes that ``path`` defines."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def _spelled_names(path: Path) -> set[str]:
    """Every identifier, attribute name and imported name in ``path``."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
    return names


def test_every_public_name_has_a_caller_outside_tests():
    used = set().union(*(_spelled_names(path) for path in USERS))
    unused = [f"{path.stem}.{name}" for path in LIBRARY
              for name in _public_definitions(path) if name not in used]
    assert not unused, f"public relcon names that only tests use: {unused}"
