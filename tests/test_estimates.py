"""Inequality harness: explicit constants hold, empirical ratios behave."""

import numpy as np
import pytest

from treebsde.bsde import Generator
from treebsde.cli import generator_from_config, parse_config, tree_from_config
from treebsde.estimates import (
    check_burkholder,
    check_cross_term,
    check_ito_p_inequality,
    check_compensator_norm_bound,
    check_reflected_stability_p2,
    check_obstacle_sup_bound,
    check_obstacle_stability_bound,
    check_bracket_equivalences,
    check_solution_norm_bound,
    check_stability_norm_bound,
    measure_stability_decay,
)
from treebsde.families import (
    random_obstacle,
    random_reflected,
    random_strong_supermartingale,
    random_terminal,
    standard_tree,
)
from treebsde.reflected import ReflectedInstance, solve_reflected


@pytest.fixture(scope="module")
def tree():
    return standard_tree(n_steps=6)


@pytest.fixture(scope="module")
def solved(tree):
    out = []
    for seed in range(10):
        inst = random_reflected(tree, seed, margin=0.5)
        out.append((inst, solve_reflected(inst, scheme="implicit")))
    return out


class TestExplicitChecks:
    def test_compensator_bound_chain(self, solved):
        for inst, sol in solved:
            rep = check_compensator_norm_bound(inst, sol, 2.0, 0.0, "K-bound")
            assert rep.passed, rep.ratio

    @pytest.mark.parametrize("p,alpha", [(1.5, 0.0), (2.0, 0.5), (3.0, 1.0)])
    def test_compensator_bound_other_norms(self, solved, p, alpha):
        inst, sol = solved[0]
        rep = check_compensator_norm_bound(inst, sol, p, alpha, "K-bound")
        assert rep.passed, rep.ratio

    @pytest.mark.parametrize("variant", ["S_plus", "S"])
    def test_obstacle_sup_bound(self, solved, variant):
        for inst, sol in solved:
            rep = check_obstacle_sup_bound(inst, sol, 2.0, 0.0, variant=variant)
            assert rep.passed, rep.ratio

    def test_cross_term_exact(self, solved):
        (i1, s1), (i2, s2) = solved[0], solved[1]
        rep = check_cross_term(i1, s1, i2, s2, alpha=0.5)
        assert rep.passed

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_bracket_equivalences(self, solved, p):
        for _, sol in solved[:5]:
            for rep in check_bracket_equivalences(sol, p, 0.3):
                assert rep.passed, rep.inequality_id

    @pytest.mark.parametrize("p", [3.0, 4.0])
    def test_moment_bound(self, solved, p):
        for _, sol in solved[:5]:
            rep = check_burkholder(sol, p, 0.3)
            assert rep.passed, rep.ratio

    @pytest.mark.parametrize("p", [1.2, 1.5, 1.9])
    def test_pathwise_power_expansion(self, tree, p):
        for seed in range(20):
            x = random_strong_supermartingale(tree, seed)
            rep = check_ito_p_inequality(x, p, alpha=1.0)
            assert rep.passed, f"seed {seed}: defect {rep.lhs}"


class TestEmpiricalChecks:
    def test_main_estimate_finite(self, solved):
        for inst, sol in solved:
            rep = check_solution_norm_bound(inst, sol, 2.0, 0.0)
            assert rep.passed
            assert np.isfinite(rep.ratio)

    def test_table_driver_defined_on_driver_steps(self):
        # a table driver has one value per driver step k < n and none at t_n
        values = [0.3, -0.2, 0.5, 0.1]
        cfg = parse_config({"tree": {"horizon": 1.0, "n_steps": 4},
                            "generator": {"kind": "table", "values": values}})
        tree = tree_from_config(cfg)
        inst = ReflectedInstance(tree=tree, xi=random_terminal(tree, 2),
                                 gen=generator_from_config(cfg, tree),
                                 obstacle=random_obstacle(tree, 2))
        sol = solve_reflected(inst)
        main = check_solution_norm_bound(inst, sol, 2.0, 0.0)
        assert main.details["components"]["g0"] == pytest.approx(
            sum(v * v for v in values) * tree.dt, rel=1e-12)
        reports = [main, check_compensator_norm_bound(inst, sol, 2.0, 0.0, "K-bound"),
                   check_obstacle_sup_bound(inst, sol, 2.0, 0.0)]
        assert all(rep.passed and np.isfinite(rep.ratio) for rep in reports)

    @pytest.mark.parametrize("branch,p,alpha", [("N-ge2", 2.0, 5.0),
                                                ("N-ge2", 3.0, 5.0),
                                                ("N-lt2", 1.5, 6.0)])
    def test_weighted_norm_branches(self, solved, branch, p, alpha):
        for inst, sol in solved[:5]:
            rep = check_compensator_norm_bound(inst, sol, p, alpha, branch)
            assert rep.passed, rep.ratio

    def test_admissibility_guard(self, solved):
        inst, sol = solved[0]
        with pytest.raises(ValueError):
            check_compensator_norm_bound(inst, sol, 2.0, 0.1, "N-ge2")

    def test_stability_finite(self, solved):
        (i1, s1), (i2, s2) = solved[2], solved[3]
        rep = check_stability_norm_bound(i1, s1, i2, s2, 2.0, 0.5)
        assert rep.passed and np.isfinite(rep.ratio)

    def test_stability_vacuous_on_identical(self, solved):
        i1, s1 = solved[0]
        rep = check_stability_norm_bound(i1, s1, i1, s1, 2.0, 0.5)
        assert rep.passed
        assert rep.details["vacuous"]

    def test_obstacle_stability_finite(self, solved):
        (i1, s1), (i2, s2) = solved[4], solved[5]
        rep = check_obstacle_stability_bound(i1, s1, i2, s2, 2.0, 0.0)
        assert rep.passed and np.isfinite(rep.ratio)

    def test_p2_difference_estimate(self, solved):
        (i1, s1), (i2, s2) = solved[6], solved[7]
        rep = check_reflected_stability_p2(i1, s1, i2, s2, alpha=0.5)
        assert rep.passed and np.isfinite(rep.ratio)

    def test_ratios_non_exploding_under_refinement(self):
        ratios = []
        for n in (4, 8, 12):
            tr = standard_tree(n_steps=n)
            inst = random_reflected(tr, 40, margin=0.5)
            sol = solve_reflected(inst)
            ratios.append(check_solution_norm_bound(inst, sol, 2.0, 0.0).ratio)
        assert max(ratios) <= 10.0 * max(min(ratios), 1e-6)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_perturbation_decay_order(self, tree, p):
        base = random_reflected(tree, 21, margin=0.5)
        sol_base = solve_reflected(base)

        def make_pair(h):
            g = base.gen
            pert = Generator(fn=lambda k, y, z: g(k, y, z) + h,
                             l_y=g.l_y, l_z=g.l_z, name="pert")
            shift = h * np.tanh(tree.w[tree.n_steps].sum(axis=1))
            i2 = ReflectedInstance(tree=tree, xi=base.xi + shift, gen=pert,
                                   obstacle=base.obstacle)
            return base, sol_base, i2, solve_reflected(i2)

        res = measure_stability_decay(make_pair, [0.2, 0.1, 0.05, 0.025], p, 0.5)
        assert res["order"] >= res["required"]


# each pair API, called on two reflected instances and their solutions
_PAIR_APIS = {
    "stability_norm_bound": lambda i1, s1, i2, s2: check_stability_norm_bound(
        i1, s1, i2, s2, 2.0, 0.0),
    "obstacle_stability_bound": lambda i1, s1, i2, s2: check_obstacle_stability_bound(
        i1, s1, i2, s2, 2.0, 0.0),
    "reflected_stability_p2": lambda i1, s1, i2, s2: check_reflected_stability_p2(
        i1, s1, i2, s2, alpha=0.5),
    "cross_term": lambda i1, s1, i2, s2: check_cross_term(i1, s1, i2, s2, alpha=0.5),
}


class TestPairsNeedOneTree:
    @pytest.mark.parametrize("steps", [(4, 5), (4, 4)], ids=["other-depth", "same-shape"])
    @pytest.mark.parametrize("api", list(_PAIR_APIS))
    def test_two_trees_rejected(self, api, steps):
        args = []
        for seed, n in enumerate(steps):
            inst = random_reflected(standard_tree(n_steps=n), seed)
            args += [inst, solve_reflected(inst)]
        with pytest.raises(ValueError, match="same tree"):
            _PAIR_APIS[api](*args)
