"""The verify pass without repeats: the bracket check reads every p from one set of
per-leaf sums, Picard's intermediate sweeps carry Y and Z alone as step arrays, the Snell
check runs a whole family in one pass, the pair suites take every delta driver from one
driver call per step, and the constants suite evaluates its samples in one array pass.
Each is held to the bits of the code it replaced, kept here as a reference."""

import dataclasses
import json
import math

import numpy as np
import pytest

from treebsde import bsde, cli, estimates, norms, processes
from treebsde.bsde import Generator
from treebsde.errors import MeasureChangeError
from treebsde.estimates import check_bracket_family
from treebsde.families import random_reflected, reflected_family, standard_tree
from treebsde.martingales import girsanov_change
from treebsde.norms import (
    norm_h_family,
    norm_i_family,
    norm_m_composite_family,
    norm_m_family,
    norm_sp_family,
    phi_p,
)
from treebsde.processes import AdaptedProcess, PredictableProcess
from treebsde.reflected import (
    PICARD_MAX_ITER,
    PICARD_TOL,
    SNELL_TOL,
    PicardTrace,
    _frozen_generator,
    picard_alpha,
    picard_solve,
    snell_dynamic_program,
    solve_reflected,
    verify_snell_family,
    verify_snell_representation,
)
from treebsde.reports import EstimateReport, explicit_pass
from treebsde.tree import sup_abs

STEPS = {1: 6, 2: 4}
CASES = [(d, reveal, margin) for d in (1, 2) for reveal in (False, True) for margin in (0.0, 0.5)]
CASE_IDS = [f"d{d}-{'reveal' if r else 'plain'}-m{m}" for d, r, m in CASES]


def _family(d, reveal, margin, size=5):
    tree = standard_tree(n_steps=STEPS[d], d=d, with_reveal=reveal)
    fam = reflected_family(tree, range(3, 3 + size), margin=margin)
    return fam, solve_reflected(fam).members(tree)


def _same_reports(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert vars(a) == vars(b)


def _solution_arrays(sol):
    return [*sol.y.values, *sol.z.values, *sol.m.values, *sol.dk.values]


# -- references: the code each part replaced --------------------------------------

def _bracket_per_p(sol, p, alpha, fingerprint=""):
    """The bracket check as it stood: one p per call, every sum rebuilt."""
    tree = sol.tree
    t_hor = tree.grid.horizon
    reports = []
    z_n = norm_h_family(sol.z, p, alpha)[0] ** p
    mk_n = norm_m_family(sol.mk, p, alpha)[0] ** p
    n_n = norm_m_composite_family(sol.z, sol.mk, p, alpha)[0] ** p
    lo = min(1.0, 2.0 ** (p / 2.0 - 1.0)) * (z_n + mk_n)
    hi = max(1.0, 2.0 ** (p / 2.0 - 1.0)) * (z_n + mk_n)
    reports.append(EstimateReport(
        inequality_id="bracket_norm_two_sided", lhs=lo, rhs=n_n,
        constant_used=min(1.0, 2.0 ** (p / 2.0 - 1.0)),
        passed=explicit_pass(lo, n_n) and explicit_pass(n_n, hi), fingerprint=fingerprint,
        details={"p": p, "alpha": alpha, "upper": hi, "z": z_n, "mk": mk_n}))
    mzw_n = norm_m_composite_family(sol.z, sol.m, p, alpha)[0] ** p
    c = max(2.0 ** (p / 2.0), 2.0 ** (p - 1.0))
    rhs = c * (n_n + math.exp(alpha * p * t_hor / 2.0) * norm_i_family(sol.dk, p, alpha)[0] ** p)
    reports.append(EstimateReport.explicit(
        "martingale_part_bracket_bound", mzw_n, rhs, c, fingerprint,
        {"p": p, "alpha": alpha, "prefactor": math.exp(alpha * p * t_hor / 2.0)}))
    terms = [(phi_p(sol.y.values[k], p), estimates._dl(sol, k)) for k in range(tree.n_steps)]
    worst = sup_abs(phi * tree.cond_exp(dl, k + 1) for k, (phi, dl) in enumerate(terms))
    scale = sup_abs(phi for phi, _ in terms) * sup_abs(dl for _, dl in terms)
    reports.append(EstimateReport.exact("gradient_integrand_martingale", worst, 0.0,
                                        1e-12 * (scale if 1.0 < scale < math.inf else 1.0),
                                        fingerprint, {"p": p, "defect": worst}))
    return reports


def _full_container_picard(instance):
    """picard_solve as it stood: every sweep builds the full SolutionQuadruple."""
    tree, gen = instance.tree, instance.gen
    trace = PicardTrace(alpha_star=picard_alpha(gen))
    y_prev = AdaptedProcess.constant(tree, 0.0)
    z_prev = PredictableProcess.zeros(tree, tree.d)
    frozen_prev = None
    for _ in range(PICARD_MAX_ITER):
        frozen = gen.along(y_prev, z_prev).values
        new = bsde._backward_sweep(tree, instance.xi, _frozen_generator(frozen), "explicit",
                                   obstacle=instance.obstacle.values)
        new.scheme = "implicit"
        trace.dy_s2.append(norm_sp_family(new.y - y_prev, 2.0)[0])
        trace.dz_h2.append(norm_h_family(new.z - z_prev, 2.0, trace.alpha_star)[0])
        if frozen_prev is not None:
            change = sup_abs(a - b for a, b in zip(frozen, frozen_prev))
            trace.driver_change.append(change)
            if change <= PICARD_TOL:
                return new, trace
        frozen_prev, y_prev, z_prev = frozen, new.y, new.z
        if gen.l_y == 0.0 and gen.l_z == 0.0:
            return new, trace
    raise AssertionError("reference Picard loop did not settle")


def _member_snell(instance, sol, fingerprint=""):
    """verify_snell_representation as it stood: one member at a time, the frozen costs
    from Generator.along and the linearization from its own stacked call."""
    tree, gen = instance.tree, instance.gen
    costs = gen.along(sol.y, sol.z).values
    v = snell_dynamic_program(tree, instance.xi, instance.obstacle, costs)
    defect_a = sup_abs(v.values[k] - sol.y.values[k] for k in range(tree.n_steps + 1))
    reports = [EstimateReport.exact("stopping_value_frozen_costs", defect_a, SNELL_TOL, 0.0,
                                    fingerprint, {"root_value": float(v.values[0][0])})]
    keep = np.tri(tree.d + 1, tree.d, -1, dtype=bool)[:, None, :]
    lam_vals, eta_vals, g0_vals = [], [], []
    for k in range(tree.n_steps):
        y, z = sol.y.values[k], sol.z.values[k]
        ys = np.zeros((tree.d + 2,) + y.shape)
        ys[0] = y
        g = gen(k, ys, np.concatenate([z[None], np.where(keep, z, 0.0)]))
        lam = np.where(np.abs(y) > 1e-12, (g[0] - g[-1]) / np.where(y == 0.0, 1.0, y), 0.0)
        eta = np.where(np.abs(z) > 1e-12, (g[2:] - g[1:-1]).T / np.where(z == 0.0, 1.0, z), 0.0)
        lam_vals.append(np.clip(lam, -gen.l_y, gen.l_y))
        eta_vals.append(np.clip(eta, -gen.l_z, gen.l_z))
        g0_vals.append(g[1])
    dt = tree.dt
    factors = [1.0 + lam * dt for lam in lam_vals]
    assert all(float(f.min()) > 0.0 for f in factors)
    mc = girsanov_change(tree, PredictableProcess(tree, eta_vals))
    disc = tree.path_scan(factors, np.divide, start=1.0, process=True)
    u = disc[tree.n_steps] * instance.xi
    defect_b = np.abs(u - disc[tree.n_steps] * sol.y.values[tree.n_steps]).max()
    for k in range(tree.n_steps - 1, -1, -1):
        cont = mc.cond_exp_q(u, k + 1) - (disc[k] / factors[k]) * g0_vals[k] * dt
        u = np.maximum(disc[k] * instance.obstacle.values[k], cont)
        defect_b = np.maximum(defect_b, np.abs(u - disc[k] * sol.y.values[k]).max())
    reports.append(EstimateReport.exact("stopping_value_discounted_measure_change",
                                        float(defect_b), SNELL_TOL, 0.0, fingerprint,
                                        {"scheme": sol.scheme}))
    return reports


# -- one bracket check per solution -----------------------------------------------

class TestBracketSequence:
    @pytest.mark.parametrize("d,reveal,margin", CASES, ids=CASE_IDS)
    def test_rows_match_per_p_calls(self, d, reveal, margin):
        fam, sols = _family(d, reveal, margin)
        ps = (1.5, 2.0, 3.0)
        for sol in sols:
            got = check_bracket_family(sol, ps, 0.3, ["fp"])
            _same_reports(got, [r for p in ps for r in _bracket_per_p(sol, p, 0.3, "fp")])

    def test_suite_builds_five_leaf_sums_per_solution(self, monkeypatch):
        """Performance guard: the equivalence suite builds each weighted per-leaf sum
        once for the whole family (5 sums), where one call per p built 15 per solution."""
        inp = cli.SuiteInputs(cli.parse_config(cli.default_config()), 1)
        calls = []
        real = norms.weighted_sum
        monkeypatch.setattr(norms, "weighted_sum", lambda *a, **kw: calls.append(1) or real(*a, **kw))
        assert inp.sol.members(inp.tree)
        calls.clear()
        reports = cli.suite_equivalence(inp)
        assert len(reports) == 10 * len(inp.seeds) and all(r.passed for r in reports)
        assert len(calls) == 5


# -- lean Picard sweeps -------------------------------------------------------------

class TestLeanPicard:
    @pytest.mark.parametrize("d,reveal,margin", CASES, ids=CASE_IDS)
    def test_matches_full_container_loop(self, d, reveal, margin):
        tree = standard_tree(n_steps=STEPS[d], d=d, with_reveal=reveal)
        for seed in (20, 21):
            inst = random_reflected(tree, seed, margin=margin)
            (sol, trace), (ref, ref_trace) = picard_solve(inst), _full_container_picard(inst)
            assert sol.scheme == ref.scheme == "implicit"
            got, want = _solution_arrays(sol), _solution_arrays(ref)
            assert all(a.shape == b.shape and np.array_equal(a, b) for a, b in zip(got, want))
            for name in ("dy_s2", "dz_h2", "driver_change"):
                assert getattr(trace, name) == getattr(ref_trace, name)

    def test_flat_driver_matches_full_container_loop(self):
        tree = standard_tree(n_steps=6)
        base = random_reflected(tree, 22, margin=-0.5)
        inst = dataclasses.replace(base, gen=Generator(fn=lambda k, y, z: np.full(y.shape, 0.3),
                                                       l_y=0.0, l_z=0.0, name="flat"))
        (sol, trace), (ref, ref_trace) = picard_solve(inst), _full_container_picard(inst)
        assert all(map(np.array_equal, _solution_arrays(sol), _solution_arrays(ref)))
        assert vars(trace) == vars(ref_trace) and len(trace.dy_s2) == 1

    def test_sweeps_before_the_last_build_no_process(self, monkeypatch):
        """Performance guard: between sweeps Y, Z and the frozen driver are step arrays,
        so the only processes built are the last sweep's solution (Y, Z, M and dK)."""
        built = []
        for cls in (processes.AdaptedProcess, processes.PredictableProcess):
            real = cls.__post_init__
            monkeypatch.setattr(cls, "__post_init__",
                                lambda self, _r=real: built.append(type(self).__name__) or _r(self))
        inst = random_reflected(standard_tree(n_steps=6), 20)
        built.clear()
        sol, trace = picard_solve(inst)
        assert len(trace.dy_s2) > 5
        assert sorted(built) == ["AdaptedProcess"] * 2 + ["PredictableProcess"] * 2

    def test_one_solution_container_whatever_the_sweeps(self, monkeypatch):
        """Performance guard: only the last sweep builds a SolutionQuadruple."""
        built = []

        class Counted(bsde.SolutionQuadruple):
            def __init__(self, *args, **kwargs):
                built.append(1)
                super().__init__(*args, **kwargs)

        inst = random_reflected(standard_tree(n_steps=6), 20)
        monkeypatch.setattr(bsde, "SolutionQuadruple", Counted)
        sol, trace = picard_solve(inst)
        assert len(trace.dy_s2) > 5 and len(built) == 1 and isinstance(sol, Counted)


# -- one Snell check per family -----------------------------------------------------

class TestSnellFamily:
    @pytest.mark.parametrize("d,reveal,margin", CASES, ids=CASE_IDS)
    def test_matches_member_checks(self, d, reveal, margin):
        tree = standard_tree(n_steps=STEPS[d], d=d, with_reveal=reveal)
        # B equal to d or to a step's node count would expose a mix-up of the axes
        for size in sorted({1, 2, 5, d, tree.n_nodes(1)}):
            fam, sols = _family(d, reveal, margin, size)
            fps = [f"m{i}" for i in range(size)]
            got = verify_snell_family(fam, solve_reflected(fam), fps)
            want = [r for inst, sol, fp in zip(fam.members, sols, fps)
                    for r in _member_snell(inst, sol, fp)]
            _same_reports(got, want)
            assert all(r.passed for r in got)
            for inst, sol, fp in zip(fam.members, sols, fps):
                _same_reports(verify_snell_representation(inst, sol, fingerprint=fp),
                              _member_snell(inst, sol, fp))

    @pytest.mark.parametrize("kind", ["affine", "polynomial-clipped"])
    @pytest.mark.parametrize("d", [1, 2])
    def test_lone_driver_is_a_family_of_one(self, kind, d):
        tree = standard_tree(n_steps=STEPS[d], d=d)
        cfg = cli.parse_config({"tree": {"horizon": 1.0, "n_steps": STEPS[d], "d": d},
                                "generator": {"kind": kind, **(
                                    {"lam": 0.4, "eta": [0.3] * d, "g0": 0.2}
                                    if kind == "affine" else {"l_y": 0.5, "l_z": 0.5})}})
        inst = dataclasses.replace(random_reflected(tree, 4),
                                   gen=cli.generator_from_config(cfg, tree), excess=None)
        sol = solve_reflected(inst)
        _same_reports(verify_snell_representation(inst, sol, fingerprint="solo"),
                      _member_snell(inst, sol, "solo"))

    def test_one_driver_call_per_step(self):
        """Performance guard: the frozen costs and the linearization of the whole
        family come from one driver call per step."""
        fam, sols = _family(2, True, 0.5, size=5)
        tree, calls = fam.tree, []
        fn = fam.gen.fn
        recorded = dataclasses.replace(fam, gen=dataclasses.replace(
            fam.gen, fn=lambda k, y, z: calls.append((k, y.shape)) or fn(k, y, z)))
        verify_snell_family(recorded, solve_reflected(fam), ["fp"] * 5)
        assert calls == [(k, (tree.d + 2, 5, tree.n_nodes(k))) for k in range(tree.n_steps)]

    def test_non_positive_discount_names_the_member(self):
        """A family whose member 1 has slope -8 in y (declared L_y = 8, dt = 1/6): its
        discount factor 1 + lam dt is -1/3, and the error names that member."""
        fam, sols = _family(1, True, 0.5, size=3)
        slope = np.array([[0.0], [-8.0], [0.0]])
        members = tuple(Generator(fn=lambda k, y, z, s=s: s * y, l_y=8.0, l_z=0.0,
                                  name=f"steep[{i}]") for i, s in enumerate(slope[:, 0]))
        steep = Generator(fn=lambda k, y, z: slope * y, l_y=0.5, l_z=0.0, name="steep",
                          members=members)
        steep_fam = dataclasses.replace(fam, gen=steep, excess=np.zeros(3))
        steep.l_y = 8.0  # declared after binding, as for the lone driver below
        with pytest.raises(MeasureChangeError, match=r"^steep\[1\]: discount factor "):
            verify_snell_family(steep_fam, solve_reflected(fam), ["fp"] * 3)
        lone_gen = Generator(fn=members[1].fn, l_y=0.5, l_z=0.0, name="steep[1]")
        lone = dataclasses.replace(fam.members[1], gen=lone_gen, excess=0.0)
        lone_gen.l_y = 8.0  # declared after binding: the breach this check catches
        with pytest.raises(MeasureChangeError, match=r"^steep\[1\]: discount factor "):
            verify_snell_representation(lone, sols[1])


# -- one driver call per step for every pair's delta driver -------------------------

def test_delta_drivers_one_driver_call_per_step(tmp_path, monkeypatch):
    """A count-10 family has 5 pairs.  The stability, obstacle-pair and difference suites
    read every pair's delta driver from one family-driver call per step, so a whole
    `verify --suite all` calls Generator.along nowhere (it made 10 calls of 6 steps each,
    two per pair, when each pair built its own)."""
    along = []
    real = Generator.along
    monkeypatch.setattr(Generator, "along",
                        lambda self, y, z: along.append(1) or real(self, y, z))
    cfg = cli.default_config()
    cfg["family"]["count"] = 10
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["--config", str(path), "--out", str(tmp_path / "out"), "--seed", "1",
                     "verify", "--suite", "all"]) == 0
    assert not along
    inp = cli.SuiteInputs(cli.parse_config(cfg), 1)
    gen, calls = inp.family.gen, []
    assert inp.sol.mk  # solved before the driver is counted
    fn = gen.fn
    monkeypatch.setattr(gen, "fn", lambda k, y, z: calls.append((k, y.shape)) or fn(k, y, z))
    reports = [r for check in (cli.suite_stability, cli.suite_obstacle_pair, cli.suite_difference)
               for r in check(inp)]
    assert len(reports) == 5 * 4 and all(r.passed for r in reports)
    assert calls == [(k, (10, inp.tree.n_nodes(k))) for k in range(inp.tree.n_steps)]


# -- the constants suite in one array pass ---------------------------------------------

def _scalar_constants_samples(seed):
    """suite_constants' samples as they were evaluated, one power_sum_bounds and one
    young_bound per sample: the worst (power-sum, Young) defects."""
    rng = np.random.default_rng(seed)
    worst_ps, worst_yg = 0.0, 0.0
    for _ in range(200):
        a = rng.uniform(0.1, 3.0, size=int(rng.integers(1, 6)))
        ell = float(rng.uniform(0.2, 4.0))
        lo, mid, hi = norms.power_sum_bounds(a, ell)
        worst_ps = max(worst_ps, lo - mid, mid - hi)
        lhs, rhs = norms.young_bound(float(rng.uniform(0, 3)), float(rng.uniform(0, 3)),
                                     float(rng.uniform(0.1, 3)), float(rng.uniform(1.1, 4)))
        worst_yg = max(worst_yg, lhs - rhs)
    return [EstimateReport.exact(name, worst, 0.0, 1e-9, f"seed={seed}", {"n_samples": 200})
            for name, worst in (("power_sum_sandwich", worst_ps),
                                ("young_product_bound", worst_yg))]


def test_constants_suite_matches_scalar_loop():
    """The sampled rows equal the scalar loop's on every field, seeds 0 to 399; the
    closed-form rows do not depend on the seed."""
    inputs, closed = dataclasses.make_dataclass("Inputs", ["seed"]), None
    for seed in range(400):
        rows = cli.suite_constants(inputs(seed))
        closed = closed or rows[:-2]
        _same_reports(rows[:-2], closed)
        got, want = rows[-2:], _scalar_constants_samples(seed)
        _same_reports(got, want)
        assert [repr(vars(r)) for r in got] == [repr(vars(r)) for r in want]
    assert len(closed) == 8 and all(r.passed for r in closed)
