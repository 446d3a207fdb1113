"""Inequality harness: explicit constants hold, empirical ratios behave."""

import dataclasses
import math

import numpy as np
import pytest

from treebsde import estimates
from treebsde.bsde import Generator, solve_bsde
from treebsde.cli import generator_from_config, parse_config, tree_from_config
from treebsde.estimates import (
    check_bracket_family,
    check_burkholder_family,
    check_compensator_norm_bound,
    check_cross_term_family,
    check_ito_p_family,
    check_obstacle_stability_family,
    check_obstacle_sup_family,
    check_reflected_stability_p2_family,
    check_solution_norm_bound,
    check_stability_norm_family,
    lone_pair,
    measure_stability_decay,
)
from treebsde.families import (
    random_obstacle,
    random_reflected,
    random_strong_supermartingale,
    random_terminal,
    standard_tree,
)
from treebsde.norms import phi_p
from treebsde.processes import AdaptedProcess
from treebsde.reflected import ReflectedInstance, solve_reflected
from treebsde.reports import EstimateReport


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


def _gradient_row(sol, p=3.0):
    rows = [r for r in check_bracket_family(sol, (p,), 0.3, [""])
            if r.inequality_id == "gradient_integrand_martingale"]
    assert len(rows) == 1
    return rows[0]


class TestGradientIntegrandTolerance:
    """The gradient-integrand defect is held to a tolerance that scales with
    max|phi_p(Y_k)| max|dL_{k+1}|, where its round-off grows."""

    @pytest.fixture(scope="class")
    def high(self, tree):
        # an obstacle 50 above the default members: |Y| near 50 puts the p = 3 round-off
        # above 1e-11, which an absolute 1e-12 failed
        return [solve_reflected(random_reflected(tree, seed, margin=-50.0)) for seed in (0, 1)]

    def test_round_off_at_large_y_passes(self, high):
        for sol in high:
            row = _gradient_row(sol)
            assert row.lhs > 1e-12 and row.passed

    def test_perturbed_dm_fails(self, high):
        """dM moved by 1e-6 at one terminal node, under the largest |Y| of the step before."""
        sol = high[0]
        tree, n = sol.tree, sol.tree.n_steps
        m = [v.copy() for v in sol.m.values]
        m[n][int(np.abs(tree.lift(sol.y.values[n - 1], n - 1)).argmax())] += 1e-6
        row = _gradient_row(dataclasses.replace(sol, m=AdaptedProcess(tree, m)))
        assert row.lhs > 1e-4 and not row.passed


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
            free = solve_bsde(inst.plain()) if variant == "S_plus" else None
            (rep,) = check_obstacle_sup_family(inst, sol, 2.0, 0.0, variant, [""], free)
            assert rep.passed, rep.ratio

    def test_cross_term_exact(self, solved):
        (i1, s1), (i2, s2) = solved[0], solved[1]
        (rep,) = check_cross_term_family(lone_pair(i1, s1, i2, s2), 0.5, [""])
        assert rep.passed

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_bracket_equivalences(self, solved, p):
        for _, sol in solved[:5]:
            for rep in check_bracket_family(sol, (p,), 0.3, [""]):
                assert rep.passed, rep.inequality_id

    @pytest.mark.parametrize("p", [3.0, 4.0])
    def test_moment_bound(self, solved, p):
        for _, sol in solved[:5]:
            (rep,) = check_burkholder_family(sol, p, 0.3, [""])
            assert rep.passed, rep.ratio

    @pytest.mark.parametrize("p", [1.2, 1.5, 1.9])
    def test_pathwise_power_expansion(self, tree, p):
        for seed in range(20):
            x = random_strong_supermartingale(tree, seed)
            (rep,) = check_ito_p_family(x, p, 1.0, [""])
            assert rep.passed, f"seed {seed}: defect {rep.lhs}"


def _ito_p_worst_reference(x, p, alpha):
    """Worst defect of the power-expansion display, one start time at a time."""
    tree = x.tree
    n = tree.n_steps
    times = tree.grid.times
    val = [tree.to_leaves(x.value[k], k) for k in range(n + 1)]
    rgt = [tree.to_leaves(x.right[k], k) for k in range(n + 1)]
    wp = [math.exp(p * 0.5 * alpha * times[k]) for k in range(n + 1)]
    half = p * (p - 1.0) / 2.0

    def jump_penalty(a, b):
        big = np.maximum(a**2, b**2)
        return np.where(big > 0.0, (b - a) ** 2 * big ** (p / 2.0 - 1.0), 0.0)

    worst = -np.inf
    for j in range(n + 1):
        lhs = wp[j] * np.abs(val[j]) ** p
        rhs = wp[n] * np.abs(val[n]) ** p
        for k in range(j, n):
            rhs -= (wp[k + 1] - wp[k]) * np.abs(rgt[k]) ** p
        star = wp[j] * phi_p(val[j], p) * (rgt[j] - val[j]) if j < n else 0.0
        for k in range(j + 1, n):
            star = star + wp[k] * phi_p(rgt[k - 1], p) * (rgt[k] - rgt[k - 1])
        if j < n:
            star = star + wp[n] * phi_p(rgt[n - 1], p) * (val[n] - rgt[n - 1])
        rhs = rhs - p * star
        for k in range(j + 1, n):
            rhs = rhs - half * wp[k] * jump_penalty(rgt[k - 1], rgt[k])
        if j < n:
            rhs = rhs - half * wp[n] * jump_penalty(rgt[n - 1], val[n])
        worst = max(worst, float((lhs - rhs).max()))
    return worst


class TestExactTier:
    def test_passes_within_tolerance(self):
        rep = EstimateReport.exact("defect", 1e-12, 0.0, 1e-12, "fp", {})
        assert rep.passed and rep.constant_used == "exact"
        assert not EstimateReport.exact("defect", 2e-12, 0.0, 1e-12, "fp", {}).passed

    @pytest.mark.parametrize("lhs,rhs", [(math.nan, 0.0), (0.0, math.nan)])
    def test_nan_fails(self, lhs, rhs):
        assert not EstimateReport.exact("defect", lhs, rhs, 1e-10, "fp", {}).passed


class TestPowerExpansionRows:
    """Start times as rows give the per-start-time loop's defect bit for bit."""

    @pytest.mark.parametrize("reveal", [False, True])
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 6, 8])
    def test_matches_start_time_loop(self, n, d, reveal):
        tree = standard_tree(n_steps=n, d=d, with_reveal=reveal)
        for seed in range(3 if tree.n_nodes(n) < 10**5 else 1):  # one seed on 196608 leaves
            x = random_strong_supermartingale(tree, seed)
            for p in (1.2, 1.5, 1.9):
                for alpha in (1.0, 0.3):
                    (rep,) = check_ito_p_family(x, p, alpha, [""])
                    assert rep.lhs == _ito_p_worst_reference(x, p, alpha), (seed, p, alpha)

    def test_phi_p_called_at_most_twice_per_step(self, monkeypatch):
        calls = []

        def counted(y, p):
            calls.append(p)
            return phi_p(y, p)

        monkeypatch.setattr(estimates, "phi_p", counted)
        tree = standard_tree(n_steps=5)
        check_ito_p_family(random_strong_supermartingale(tree, 0), 1.5, 1.0, [""])
        assert 0 < len(calls) <= 2 * tree.n_steps


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
                   *check_obstacle_sup_family(inst, sol, 2.0, 0.0, "S_plus", [""],
                                              solve_bsde(inst.plain()))]
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
        (rep,) = check_stability_norm_family(lone_pair(i1, s1, i2, s2), 2.0, 0.5, [""])
        assert rep.passed and np.isfinite(rep.ratio)

    def test_stability_vacuous_on_identical(self, solved):
        i1, s1 = solved[0]
        (rep,) = check_stability_norm_family(lone_pair(i1, s1, i1, s1), 2.0, 0.5, [""])
        assert rep.passed
        assert rep.details["vacuous"]

    def test_obstacle_stability_finite(self, solved):
        (i1, s1), (i2, s2) = solved[4], solved[5]
        (rep,) = check_obstacle_stability_family(lone_pair(i1, s1, i2, s2), 2.0, 0.0, [""])
        assert rep.passed and np.isfinite(rep.ratio)

    def test_p2_difference_estimate(self, solved):
        (i1, s1), (i2, s2) = solved[6], solved[7]
        (rep,) = check_reflected_stability_p2_family(lone_pair(i1, s1, i2, s2), 0.5, [""])
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


# each pair check, called on two reflected instances and their solutions as one pair
_PAIR_APIS = {
    "stability_norm_bound": lambda *two: check_stability_norm_family(
        lone_pair(*two), 2.0, 0.0, [""]),
    "obstacle_stability_bound": lambda *two: check_obstacle_stability_family(
        lone_pair(*two), 2.0, 0.0, [""]),
    "reflected_stability_p2": lambda *two: check_reflected_stability_p2_family(
        lone_pair(*two), 0.5, [""]),
    "cross_term": lambda *two: check_cross_term_family(lone_pair(*two), 0.5, [""]),
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
