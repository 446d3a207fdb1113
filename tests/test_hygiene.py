"""Source hygiene of the package, checked with `ast` alone (no linter needed)."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "treebsde"
MODULES = sorted(SRC.glob("*.py"))


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imported_names_are_used(path):
    module = _parse(path)
    imported = set()
    for node in ast.walk(module):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
    used = {n.id for n in ast.walk(module) if isinstance(n, ast.Name)}
    assert not sorted(imported - used), f"{path.name} never uses {sorted(imported - used)}"


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "tree.py"], ids=lambda p: p.name)
def test_dw_is_contracted_in_tree_only(path):
    """Z . dW is ScenarioTree.dot_dw and E_k[x dW] is ScenarioTree.cond_exp_dw; no other
    module reads dw at all."""
    lines = sorted({node.lineno for node in ast.walk(_parse(path))
                    if isinstance(node, ast.Attribute) and node.attr == "dw"
                    or isinstance(node, ast.Name) and node.id == "dw"})
    assert not lines, f"{path.name} lines {lines}: dw read outside tree.py"


def _is_driver(node):
    """A driver body: a function or lambda whose first parameters are k, y, z."""
    return (isinstance(node, (ast.FunctionDef, ast.Lambda))
            and [a.arg for a in node.args.args[:3]] == ["k", "y", "z"])


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_drivers_do_not_take_len_of_y(path):
    """Drivers take any leading axes, so the node count of y is y.shape[-1], never len(y)."""
    lines = [call.lineno for node in ast.walk(_parse(path)) if _is_driver(node)
             for call in ast.walk(node)
             if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "len"
             and any(isinstance(a, ast.Name) and a.id == "y" for a in call.args)]
    assert not lines, f"{path.name} lines {lines}: len(y) in a driver, use y.shape[-1]"
