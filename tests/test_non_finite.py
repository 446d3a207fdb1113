"""Non-finite values: rejected at the boundary, and failing every check they reach."""

import json
import math

import numpy as np
import pytest

from treebsde import bsde, cli
from treebsde.bsde import BsdeInstance, Generator, SolutionQuadruple, solve_bsde
from treebsde.cli import main
from treebsde.errors import (ClassificationError, InvariantViolationError, MeasureChangeError,
                             NotAMartingaleError, PicardDivergenceError)
from treebsde.estimates import (check_bracket_family, check_cross_term_family,
                                check_ito_p_family, check_solution_norm_bound, lone_pair)
from treebsde.families import (random_generator, random_martingale, random_obstacle,
                               random_reflected, random_strong_supermartingale,
                               random_terminal, reflected_family, standard_tree)
from treebsde.martingales import (doob_decompose, exhaust_jumps, girsanov_change,
                                  mertens_decompose, represent_martingale)
from treebsde.processes import AdaptedProcess, LadlagProcess, PredictableProcess
from treebsde.reflected import (ReflectedInstance, check_skorokhod, solve_reflected,
                                verify_snell_representation)
from treebsde.tree import Reveal, TimeGrid, build_tree, validate_tree

NAN = float("nan")


@pytest.fixture(scope="module")
def tree():
    return standard_tree(n_steps=4)


def _solved(tree, seed=1):
    """A fresh reflected instance and its implicit solution, free to be spoiled."""
    inst = random_reflected(tree, seed)
    return inst, solve_reflected(inst, scheme="implicit")


class TestBoundary:
    @pytest.mark.parametrize("probs", [(NAN, NAN), (0.5, NAN), (math.inf, 0.5)],
                             ids=["nan-nan", "half-nan", "inf"])
    def test_reveal_rejects_non_finite_law(self, probs):
        with pytest.raises(ValueError, match="finite positive probability vector"):
            Reveal(0.5, ("a", "b"), probs)

    def test_validate_tree_rejects_nan_probability(self):
        # a built tree's probabilities come from finite reveal laws; a tree
        # altered in code can carry a NaN
        tree = build_tree(TimeGrid(horizon=1.0, n_steps=3), d=1)
        tree.cond_prob[2][1] = NAN
        with pytest.raises(InvariantViolationError, match=r"at step 1, node 0 sum to nan"):
            validate_tree(tree)

    def test_validate_tree_rejects_nan_increment(self):
        tree = build_tree(TimeGrid(horizon=1.0, n_steps=3), d=1)
        tree.dw[3][-1, 0] = NAN
        with pytest.raises(InvariantViolationError, match="mean of dW at step 3 is nan"):
            validate_tree(tree)

    @pytest.mark.parametrize("value", [NAN, math.inf, -math.inf])
    def test_bsde_instance_rejects_non_finite_terminal_value(self, tree, value):
        xi = random_terminal(tree, 1)
        xi[7] = value
        with pytest.raises(ValueError, match=rf"terminal condition is not finite at step 4, "
                                             rf"node 7 \({value}\)"):
            BsdeInstance(tree=tree, xi=xi, gen=random_generator(tree, 1))

    def test_reflected_instance_rejects_non_finite_obstacle(self, tree):
        obstacle = random_obstacle(tree, 1)
        obstacle.values[2][5] = NAN
        with pytest.raises(ValueError, match=r"obstacle is not finite at step 2, node 5 \(nan\)"):
            ReflectedInstance(tree=tree, xi=random_terminal(tree, 1),
                              gen=random_generator(tree, 1), obstacle=obstacle)

    @pytest.mark.parametrize("slot", ["obstacle", "xi"])
    def test_family_instance_names_the_member(self, tree, slot):
        """A NaN in member 2 of a family of four: the error names the member and its node."""
        fam = reflected_family(tree, range(4))
        xi, obstacle = fam.xi.copy(), [v.copy() for v in fam.obstacle.values]
        k, node, what = (2, 5, "obstacle") if slot == "obstacle" else (4, 7, "terminal condition")
        (obstacle[k] if slot == "obstacle" else xi)[2 * tree.n_nodes(k) + node] = NAN
        with pytest.raises(ValueError, match=rf"^{what} is not finite at step {k}, member 2, "
                                             rf"node {node} \(nan\)$"):
            ReflectedInstance(tree=tree, xi=xi, gen=fam.gen, excess=fam.excess,
                              obstacle=AdaptedProcess(fam.forest, obstacle))

    def test_reflected_instance_rejects_non_finite_terminal_value(self, tree):
        xi = random_terminal(tree, 1)
        xi[0] = NAN
        with pytest.raises(ValueError, match="terminal condition is not finite at step 4, node 0"):
            ReflectedInstance(tree=tree, xi=xi, gen=random_generator(tree, 1),
                              obstacle=random_obstacle(tree, 1))


# -- every sup_abs defect: one NaN makes it NaN and fails its verdict ---------

def _dynamics(tree):
    inst, sol = _solved(tree)
    sol.y.values[2][3] = NAN
    return sol.dynamics_residual(inst.gen), None


def _orthogonality(tree):
    _, sol = _solved(tree)
    sol.m.values[2][3] = NAN
    return sol.orthogonality_defect(), None


def _reconstruction(tree):
    mart = random_martingale(tree, 1)
    pair = represent_martingale(tree, mart)
    pair.m.values[3][0] = NAN
    return pair.reconstruction_defect(mart), None


def _identity(tree):
    x = random_strong_supermartingale(tree, 1)
    dec = mertens_decompose(tree, x)
    dec.i.values[2][1] = NAN
    return dec.identity_defect(x), None


def _complementarity(tree):
    inst, sol = _solved(tree)
    sol.dk.values[1][0] = NAN
    return check_skorokhod(inst, sol)["complementarity"], None


def _snell(which):
    def case(tree):
        inst, sol = _solved(tree)
        inst.obstacle.values[0][0] = NAN  # spoiled after the boundary check
        rep = verify_snell_representation(inst, sol)[which]
        return rep.lhs, rep

    return case


def _gradient_integrand(tree):
    _, sol = _solved(tree)
    sol.m.values[2][3] = NAN
    rep = check_bracket_family(sol, (2.0,), 0.3, [""])[2]
    assert rep.inequality_id == "gradient_integrand_martingale"
    return rep.lhs, rep


@pytest.mark.parametrize("case", [
    _dynamics, _orthogonality, _reconstruction, _identity, _complementarity,
    _snell(0), _snell(1), _gradient_integrand,
], ids=["dynamics_residual", "orthogonality_defect", "reconstruction_defect",
        "identity_defect", "complementarity", "snell-frozen-costs", "snell-discounted",
        "gradient_integrand_martingale"])
def test_nan_reaches_defect(tree, case):
    value, report = case(tree)
    assert isinstance(value, float) and math.isnan(value)
    assert not value <= 1e-10
    if report is not None:
        assert not report.passed


def _spoil(module, name, monkeypatch, spoil):
    """Wrap module.name so that its result goes through spoil() first."""
    real = getattr(module, name)

    def wrapped(*args, **kwargs):
        out = real(*args, **kwargs)
        spoil(out)
        return out

    monkeypatch.setattr(module, name, wrapped)


@pytest.mark.parametrize("command", ["solve", "reflect", "picard"])
def test_nan_fails_cli_exit_code(tmp_path, monkeypatch, command):
    def nan_in_y(sol):
        sol = sol[0] if isinstance(sol, tuple) else sol
        sol.y.values[2][0] = NAN

    name = {"solve": "solve_bsde", "reflect": "solve_reflected", "picard": "picard_solve"}
    _spoil(cli, name[command], monkeypatch, nan_in_y)
    out = tmp_path / "out"
    assert main(["--seed", "1", "--out", str(out), command]) == 1
    row = json.loads((out / "reports.json").read_text())["reports"][0]
    assert row["lhs"] is None and row["passed"] is False


def test_nan_complementarity_fails_reflect(tmp_path, monkeypatch):
    """The residual is finite; a NaN complementarity alone fails the report."""
    monkeypatch.setattr(cli, "check_skorokhod",
                        lambda inst, sol: {"complementarity": NAN, "min_increment": 0.0})
    assert main(["--seed", "1", "--out", str(tmp_path / "out"), "reflect"]) == 1


# -- signed checks -------------------------------------------------------------

class TestSignedChecks:
    def test_push_process_with_nan(self, tree):
        inst, sol = _solved(tree)
        sol.dk.values[3][0] = NAN
        with pytest.raises(ClassificationError, match="min increment nan"):
            check_solution_norm_bound(inst, sol, 2.0, 0.0)

    def test_doob_supermartingale_with_nan(self, tree):
        m = random_martingale(tree, 1)
        m.values[3][2] = NAN
        with pytest.raises(ClassificationError, match="nan > 1e-12 at step 2"):
            doob_decompose(tree, m, supermartingale=True)

    @pytest.mark.parametrize("slot", ["value", "right"])
    def test_strong_supermartingale_with_nan(self, tree, slot):
        x = random_strong_supermartingale(tree, 1)
        getattr(x, slot)[2][4] = NAN
        with pytest.raises(ClassificationError, match="nan"):
            mertens_decompose(tree, x)

    def test_cross_term_with_nan(self, tree):
        inst1, sol1 = _solved(tree, 1)
        inst2, sol2 = _solved(tree, 2)
        sol1.y.values[1][0] = NAN
        (rep,) = check_cross_term_family(lone_pair(inst1, sol1, inst2, sol2), 0.5, [""])
        assert math.isnan(rep.details["pathwise_defect"])
        assert not rep.passed

    def test_power_expansion_with_nan(self, tree):
        x = random_strong_supermartingale(tree, 1)
        value = [v.copy() for v in x.value]
        value[2][0] = NAN
        (rep,) = check_ito_p_family(LadlagProcess(tree, value, x.right), 1.5, 1.0, [""])
        assert math.isnan(rep.lhs)
        assert not rep.passed

    @pytest.mark.parametrize("step", [0, 2, 3])
    def test_martingale_defect_with_nan(self, tree, step):
        m = random_martingale(tree, 1)
        m.values[step + 1][0] = NAN
        defect, k, node = m.martingale_defect()
        assert math.isnan(defect) and (k, node) == (step, 0)
        with pytest.raises(NotAMartingaleError, match=f"defect nan > 1e-12 at step {step}"):
            m.require_martingale()

    def test_nan_drop_shows_in_exhausted_jumps(self, tree):
        x = random_strong_supermartingale(tree, 1)
        right = [r.copy() for r in x.right]
        right[1][0] = NAN
        i = exhaust_jumps(tree, LadlagProcess(tree, x.value, right), eps=0.01, n_max=10)
        assert np.isnan(i.values[2][0]) and not np.isnan(i.values[1]).any()
        with pytest.raises(ValueError, match="threshold must be positive"):
            exhaust_jumps(tree, x, eps=NAN, n_max=10)

    def test_girsanov_kernel_with_nan(self, tree):
        eta = PredictableProcess.zeros(tree, tree.d)
        eta.values[2][1, 0] = NAN
        with pytest.raises(MeasureChangeError, match=r"max \|eta\|_1 = nan"):
            girsanov_change(tree, eta)

    def test_implicit_step_stops_at_non_finite_iterate(self):
        calls = []

        def fn(k, y, z):
            calls.append(k)
            return np.where(np.arange(y.shape[-1]) == 2, NAN, 0.0)

        gen = Generator(fn=fn, l_y=0.0, l_z=0.0, name="nan-at-2")
        tree = build_tree(TimeGrid(horizon=1.0, n_steps=4), d=1)  # 8 nodes at step 3, dt 0.25
        with pytest.raises(PicardDivergenceError,
                           match=r"^step 3: non-finite inner iterate at node 2 \(nan-at-2\)$"):
            bsde._implicit_step(gen, tree, 3, np.zeros(8), np.zeros((8, 1)))
        assert calls == [3]

    def test_explicit_solve_with_nan_terminal_value_fails_loudly(self, tree):
        """Bypassing the boundary check, the explicit scheme reports a NaN residual."""
        inst = BsdeInstance(tree=tree, xi=random_terminal(tree, 1), gen=random_generator(tree, 1))
        inst.xi[0] = NAN  # spoiled after the boundary check
        sol = solve_bsde(inst, scheme="explicit")
        assert isinstance(sol, SolutionQuadruple)
        assert math.isnan(sol.dynamics_residual(inst.gen))
        with pytest.raises(PicardDivergenceError, match="^step 3: non-finite inner iterate"):
            solve_bsde(inst, scheme="implicit")

