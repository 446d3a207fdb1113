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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_step_maxima_keep_nan(path):
    """A max or min over steps of an array's .max()/.min() is tree.sup_abs or a numpy
    fold: the builtin max and min drop a NaN that does not come first."""
    lines = [node.lineno for node in ast.walk(_parse(path))
             if isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("max", "min")
             and any(isinstance(sub, ast.Call) and getattr(sub.func, "attr", None) in ("max", "min")
                     for sub in ast.walk(node))]
    assert not lines, f"{path.name} lines {lines}: builtin max/min over array maxima"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_hand_written_lift_loops(path):
    """A running quantity along paths is ScenarioTree.path_scan: no list appends a
    lift of its own entries."""
    lines = []
    for node in ast.walk(_parse(path)):
        if (isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "append"
                and isinstance(node.func.value, ast.Name)):
            name = node.func.value.id
            lines += [node.lineno for sub in ast.walk(node)
                      if isinstance(sub, ast.Call) and getattr(sub.func, "attr", None) == "lift"
                      and any(isinstance(n, ast.Name) and n.id == name
                              for arg in sub.args for n in ast.walk(arg))]
    assert not lines, f"{path.name} lines {lines}: a lift loop, use ScenarioTree.path_scan"


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "norms.py"], ids=lambda p: p.name)
def test_weighted_sups_are_norms_sup_power(path):
    """A running sup along paths is norms.sup_power: no other module passes np.maximum
    to path_scan."""
    lines = [node.lineno for node in ast.walk(_parse(path))
             if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "path_scan"
             and any(isinstance(arg, ast.Attribute) and arg.attr == "maximum"
                     for arg in list(node.args) + [kw.value for kw in node.keywords])]
    assert not lines, f"{path.name} lines {lines}: a sup along paths, use norms.sup_power"
