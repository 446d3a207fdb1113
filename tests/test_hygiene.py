"""Source hygiene of the package, checked with `ast` alone (no linter needed)."""

import ast
import os
import pathlib
import subprocess
import sys

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
    """A running sup along paths is norms.sup_power_family: no other module passes
    np.maximum to path_scan."""
    lines = [node.lineno for node in ast.walk(_parse(path))
             if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "path_scan"
             and any(isinstance(arg, ast.Attribute) and arg.attr == "maximum"
                     for arg in list(node.args) + [kw.value for kw in node.keywords])]
    assert not lines, f"{path.name} lines {lines}: a sup along paths, use norms.sup_power_family"


def test_seeded_driver_spelled_once():
    """The seeded driver formula is written once in families, for a lone driver and a
    family alike: random_generator is the family of one seed."""
    lines = [node.lineno for node in ast.walk(_parse(SRC / "families.py")) if _is_driver(node)]
    assert len(lines) == 1, f"families.py lines {lines}: more than one driver formula"


def _calls_driver(node):
    """A driver evaluation: gen(...), x.gen(...), x.along(...) or bsde._drive(...)."""
    return isinstance(node, ast.Call) and (getattr(node.func, "id", None) in ("gen", "_drive")
                                           or getattr(node.func, "attr", None) in ("gen", "along"))


def _is_backward(loop):
    """A loop over range(..., -1, -1): a backward induction over the steps."""
    it = loop.iter if isinstance(loop, ast.For) else None
    return (isinstance(it, ast.Call) and getattr(it.func, "id", None) == "range"
            and len(it.args) == 3 and [ast.unparse(a) for a in it.args[1:]] == ["-1", "-1"])


def test_one_backward_sweep_and_inner_fixed_point():
    """Lone and family solves share bsde._backward_sweep, the only backward induction
    that evaluates a driver, and bsde._implicit_step, the only inner fixed point.  The
    sweep's callers are the three solvers: solve_bsde and solve_reflected take a lone or
    a family instance, picard_solve a lone one, so no solve path of its own comes back
    for families."""
    sweeps, fixed_points, callers = set(), set(), set()
    for path in MODULES:
        for fn in ast.walk(_parse(path)):
            if not isinstance(fn, ast.FunctionDef):
                continue
            if any(isinstance(n, ast.Call) and (getattr(n.func, "id", None)
                                                or getattr(n.func, "attr", None)) == "_backward_sweep"
                   for n in ast.walk(fn)):
                callers.add((path.name, fn.name))
            if any(_is_backward(loop) and any(map(_calls_driver, ast.walk(loop)))
                   for loop in ast.walk(fn)):
                sweeps.add((path.name, fn.name))
            if any(isinstance(n, ast.Name) and n.id in ("IMPLICIT_TOL", "IMPLICIT_MAX_ITER")
                   for n in ast.walk(fn)):
                fixed_points.add((path.name, fn.name))
    assert sweeps == {("bsde.py", "_backward_sweep")}
    assert fixed_points == {("bsde.py", "_implicit_step")}
    assert callers == {("bsde.py", "solve_bsde"), ("reflected.py", "solve_reflected"),
                       ("reflected.py", "picard_solve")}


def _reads_input(path):
    """Does the module import json, or call the record reader from outside errors.py?"""
    for node in ast.walk(_parse(path)):
        if (isinstance(node, ast.Import) and any(a.name == "json" for a in node.names)
                or isinstance(node, ast.ImportFrom) and node.module == "json"):
            return True
        if (path.name != "errors.py" and isinstance(node, ast.Call)
                and (getattr(node.func, "id", None) or getattr(node.func, "attr", None))
                in ("read_record", "read_value")):
            return True
    return False


def test_config_is_the_one_json_input():
    """The JSON config is the one input format: cli.py alone imports json or reads a
    record, so a second format comes with its caller."""
    assert {path.name for path in MODULES if _reads_input(path)} == {"cli.py"}


def _named(body, name):
    return next(node for node in body if getattr(node, "name", None) == name)


def test_lone_driver_is_a_family_of_one():
    """bsde.py keeps one path for lone and family drivers: only Generator.family, and
    check_lipschitz's return statement (a float for a lone driver), read `.members`."""
    module = _parse(SRC / "bsde.py")
    check = _named(module.body, "check_lipschitz")
    roots = [_named(_named(module.body, "Generator").body, "family"),
             *(ret for ret in ast.walk(check) if isinstance(ret, ast.Return))]
    allowed = {id(node) for root in roots for node in ast.walk(root)}
    lines = [node.lineno for node in ast.walk(module) if isinstance(node, ast.Attribute)
             and node.attr == "members" and id(node) not in allowed]
    assert not lines, f"bsde.py lines {lines}: .members read outside Generator.family"


def test_cli_import_loads_no_thread_pool():
    """ladder imports concurrent.futures where it starts its threads, so importing the
    CLI, which every command does, loads neither it nor logging."""
    code = ("import sys, treebsde.cli; "
            "print([m for m in ('concurrent.futures', 'logging') if m in sys.modules])")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(SRC.parent)}, check=True)
    assert run.stdout.strip() == "[]"


# perfbench/workloads.py calls these three, so they stay as solo forms
SOLO_FORMS = {"check_solution_norm_bound", "check_compensator_norm_bound",
              "verify_snell_representation"}


def _callee(call):
    return getattr(call.func, "id", None) or getattr(call.func, "attr", None) or ""


def _is_family_of_one(value, family_forms):
    """A family form called on a family of one: F(...)[0], or F(...) with a one-element
    list among its arguments, such as [fingerprint]."""
    if isinstance(value, ast.Subscript) and ast.unparse(value.slice) == "0":
        return isinstance(value.value, ast.Call) and _callee(value.value) in family_forms
    return (isinstance(value, ast.Call) and _callee(value) in family_forms
            and any(isinstance(a, ast.List) and len(a.elts) == 1 for a in value.args))


def test_one_form_per_check():
    """Each check and norm has one form, its `*_family` form: no function of the package
    returns a family form on a family of one but the three solo forms kept, and no
    module-level name aliases a family form.  The member axis of the inner fixed point,
    the Snell linearization and the pair differences is the forest's, never the
    driver's len(gen.family)."""
    modules = {path.name: _parse(path) for path in MODULES}
    # families.py's *_family functions build families; every other one checks or measures
    family_forms = {fn.name for name, module in modules.items() if name != "families.py"
                    for fn in module.body
                    if isinstance(fn, ast.FunctionDef) and fn.name.endswith("_family")}
    assert {"check_burkholder_family", "meyer_bound_family", "norm_h_family",
            "verify_snell_family"} <= family_forms
    solos, keyed, aliases, lens = set(), set(), [], []
    for name, module in modules.items():
        for fn in ast.walk(module):
            if isinstance(fn, ast.FunctionDef) and any(
                    isinstance(r, ast.Return) and _is_family_of_one(r.value, family_forms)
                    for r in ast.walk(fn)):
                solos.add(fn.name)
            if isinstance(fn, ast.FunctionDef) and fn.name in (
                    "_implicit_step", "_linearization", "pair_differences"):
                keyed.add(fn.name)
                lens += [(name, fn.name) for n in ast.walk(fn)
                         if isinstance(n, ast.Call) and _callee(n) == "len"
                         and any(isinstance(a, ast.Attribute) and a.attr == "family"
                                 for a in n.args)]
        aliases += [(name, node.lineno) for node in module.body
                    if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None
                    and any(isinstance(n, ast.Name) and n.id in family_forms
                            for n in ast.walk(node.value))]
    assert solos == SOLO_FORMS
    assert keyed == {"_implicit_step", "_linearization", "pair_differences"}
    assert not aliases, f"module-level aliases of a family form at {aliases}"
    assert not lens, f"len(...family) in {lens}: take the member count from the forest"
