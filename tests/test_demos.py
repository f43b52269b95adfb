"""The demos still match the library: every relcon name they use resolves,
every call into relcon binds to its signature, and the fast demos run."""

import ast
import importlib
import inspect
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
FAST_DEMOS = ("01_autodiff_basics.py", "02_relation_matrices.py")


def _relcon_bindings(tree: ast.Module) -> dict[str, object]:
    """Local name -> the relcon module or object it is bound to by an import."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "relcon":
                    module = importlib.import_module(alias.name)
                    bound[alias.asname or "relcon"] = (
                        module if alias.asname else importlib.import_module("relcon"))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "relcon":
            module = importlib.import_module(node.module)
            for alias in node.names:
                try:
                    value = getattr(module, alias.name)
                except AttributeError:
                    value = importlib.import_module(f"{node.module}.{alias.name}")
                bound[alias.asname or alias.name] = value
    return bound


def _resolve(node: ast.expr, bound: dict[str, object]):
    """The relcon object an expression names, or None when it names none."""
    if isinstance(node, ast.Name):
        return bound.get(node.id)
    if isinstance(node, ast.Attribute):
        owner = _resolve(node.value, bound)
        if owner is None:
            return None
        if not hasattr(owner, node.attr):
            raise AssertionError(f"{ast.unparse(node)}: no attribute {node.attr!r}")
        return getattr(owner, node.attr)
    return None


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_names_resolve_and_calls_bind(demo):
    tree = ast.parse(demo.read_text(encoding="utf-8"))
    bound = _relcon_bindings(tree)
    assert bound, f"{demo.name} imports nothing from relcon"
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            _resolve(node, bound)   # raises on a name relcon no longer has
        elif isinstance(node, ast.Call):
            target = _resolve(node.func, bound)
            starred = any(isinstance(a, ast.Starred) for a in node.args) \
                or any(k.arg is None for k in node.keywords)
            if callable(target) and not starred:
                try:
                    inspect.signature(target).bind(
                        *node.args, **{k.arg: k.value for k in node.keywords})
                except TypeError as exc:
                    raise AssertionError(f"{demo.name} line {node.lineno}: "
                                         f"{ast.unparse(node.func)}: {exc}") from None


@pytest.mark.parametrize("name", FAST_DEMOS)
def test_fast_demo_runs(name, tmp_path):
    demo = next(p for p in DEMOS if p.name == name)
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
