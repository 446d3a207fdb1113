"""Acceptance gate: ten headline criteria, one printed pass/fail line each.

Each test prints its verdict on the real stdout so the line survives pytest
capture, then asserts, so the suite fails loudly if any criterion breaks.
"""

import math
import sys
import time

import numpy as np
import pytest

from treebsde.bsde import (
    AffineGenerator,
    BsdeInstance,
    Generator,
    solve_bsde,
)
from treebsde.estimates import (
    check_bracket_family,
    check_compensator_norm_bound,
    check_ito_p_family,
    check_obstacle_sup_family,
    check_reflected_stability_p2_family,
    check_solution_norm_bound,
    check_stability_norm_family,
    lone_pair,
    measure_stability_decay,
)
from treebsde.families import (
    random_generator,
    random_martingale,
    random_reflected,
    random_strong_supermartingale,
    standard_tree,
)
from treebsde.ladder import run_counterexample, tv_scaling
from treebsde.martingales import girsanov_change, meyer_bound_family, represent_martingale
from treebsde.norms import meyer_c_prime, norm_sp_family, power_sum_bounds, young_bound
from treebsde.processes import AdaptedProcess, PredictableProcess
from treebsde.reflected import (
    ReflectedInstance,
    check_skorokhod,
    picard_solve,
    snell_bruteforce,
    snell_dynamic_program,
    solve_reflected,
    truncate_instance,
)
from treebsde.tree import Reveal, TimeGrid, build_tree, validate_tree


_CAPTURE = None


@pytest.fixture(autouse=True)
def _route_around_capture(capfd):
    # verdict lines must reach the real stdout even under captured runs
    global _CAPTURE
    _CAPTURE = capfd
    yield
    _CAPTURE = None


def _verdict(name: str, passed: bool, detail: str, elapsed: float):
    line = (f"ACCEPTANCE {name}: {'PASS' if passed else 'FAIL'} "
            f"({detail}, {elapsed:.1f}s)")
    if _CAPTURE is not None:
        with _CAPTURE.disabled():
            print(line, file=sys.stdout, flush=True)
    else:
        print(line, flush=True)
    assert passed, line


def _shipped_tree_configs():
    configs = []
    for d, n in ((1, 6), (1, 12), (2, 4), (2, 8)):
        grid = TimeGrid(horizon=1.0, n_steps=n)
        reveals = (Reveal(time=grid.times[n // 2], labels=("a", "b", "c"),
                          probs=(0.5, 0.3, 0.2)),)
        if d == 1 and n == 12:
            reveals = reveals + (Reveal(time=grid.times[3], labels=("u", "v"),
                                        probs=(0.6, 0.4)),)
        if d == 2 and n == 8:
            reveals = ()
        configs.append(build_tree(grid, d=d, reveals=reveals))
    return configs


def test_tree_exactness():
    t0 = time.time()
    worst = 0.0
    for tree in _shipped_tree_configs():
        defects = validate_tree(tree, tol=1e-12)
        worst = max(worst, max(defects.values()))
    elapsed = time.time() - t0
    _verdict("tree-exactness", worst <= 1e-12 and elapsed < 1.0,
             f"max defect {worst:.2e} over shipped configs", elapsed)


def test_representation_and_girsanov():
    t0 = time.time()
    tree = standard_tree(n_steps=6)
    worst = 0.0
    for seed in range(200):
        m = random_martingale(tree, seed)
        pair = represent_martingale(tree, m)
        worst = max(worst, pair.reconstruction_defect(m))
        for k in range(tree.n_steps):
            inc = pair.m.values[k + 1] - tree.lift(pair.m.values[k], k)
            for i in range(tree.d):
                worst = max(worst, float(np.abs(
                    tree.cond_exp(inc * tree.dw[k + 1][:, i], k + 1)).max()))
    rng_defect = 0.0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        eta = PredictableProcess.zeros(tree, d=tree.d)
        for k in range(tree.n_steps):
            eta.values[k][:] = rng.uniform(-0.8, 0.8, size=eta.values[k].shape)
        mc = girsanov_change(tree, eta)
        rng_defect = max(rng_defect, abs(float(mc.leaf_probs_q().sum()) - 1.0))
        wq = mc.w_q()
        for k in range(1, tree.n_steps + 1):
            prev = mc.cond_exp_q(wq[k][:, 0], k)
            rng_defect = max(rng_defect, float(np.abs(prev - wq[k - 1][:, 0]).max()))
    elapsed = time.time() - t0
    ok = worst <= 1e-12 and rng_defect <= 1e-12 and elapsed < 10.0
    _verdict("representation-girsanov", ok,
             f"repr defect {worst:.2e}, measure defect {rng_defect:.2e}", elapsed)


def test_snell_oracle_equivalence():
    t0 = time.time()
    grid4 = TimeGrid(horizon=1.0, n_steps=4)
    shallow = [
        build_tree(grid4, d=1),
        build_tree(grid4, d=1, reveals=(Reveal(time=grid4.times[4],
                                               labels=("a", "b"),
                                               probs=(0.6, 0.4)),)),
    ]
    worst4 = 0.0
    for seed in range(100):
        tree = shallow[seed % 2]
        inst = random_reflected(tree, seed)
        sol = solve_reflected(inst, scheme="implicit")
        costs = inst.gen.along(sol.y, sol.z).values
        term = np.maximum(inst.xi, inst.obstacle.values[4])
        bv = snell_bruteforce(tree, term, inst.obstacle, costs)
        worst4 = max(worst4, abs(float(sol.y.values[0][0]) - bv))
    deep = standard_tree(n_steps=12)
    worst12 = 0.0
    for seed in range(100):
        inst = random_reflected(deep, seed)
        sol = solve_reflected(inst, scheme="implicit")
        costs = inst.gen.along(sol.y, sol.z).values
        term = np.maximum(inst.xi, inst.obstacle.values[12])
        v = snell_dynamic_program(deep, term, inst.obstacle, costs)
        worst12 = max(worst12, max(np.abs(v.values[k] - sol.y.values[k]).max()
                                   for k in range(13)))
    elapsed = time.time() - t0
    ok = worst4 <= 1e-12 and worst12 <= 1e-10 and elapsed < 30.0
    _verdict("snell-oracle", ok,
             f"exhaustive gap {worst4:.2e}, dp gap {worst12:.2e}", elapsed)


def test_skorokhod_exactness():
    t0 = time.time()
    tree = standard_tree(n_steps=6)
    worst = 0.0
    for seed in range(200):
        inst = random_reflected(tree, seed)
        sol = solve_reflected(inst)
        d = check_skorokhod(inst, sol)
        worst = max(worst, d["complementarity"], -d["min_increment"])
    elapsed = time.time() - t0
    _verdict("skorokhod", worst <= 1e-12, f"worst defect {worst:.2e}", elapsed)


def test_picard_convergence():
    t0 = time.time()
    tree = standard_tree(n_steps=6)
    worst_ratio, worst_gap = 0.0, 0.0
    for seed in range(50):
        inst = random_reflected(tree, seed)
        direct = solve_reflected(inst, scheme="implicit")
        sol, trace = picard_solve(inst)
        if trace.contraction_ratios:
            worst_ratio = max(worst_ratio, max(trace.contraction_ratios))
        worst_gap = max(worst_gap, max(np.abs(sol.y.values[k] - direct.y.values[k]).max()
                                       for k in range(tree.n_steps + 1)))
    flat = Generator(fn=lambda k, y, z: np.full(y.shape, 0.4), l_y=0.0, l_z=0.0,
                     name="flat")
    inst = ReflectedInstance(tree=tree, xi=np.zeros(tree.n_nodes(tree.n_steps)),
                             gen=flat, obstacle=AdaptedProcess.constant(tree, -1.0))
    _, trace = picard_solve(inst)
    one_shot = len(trace.driver_change) <= 1
    elapsed = time.time() - t0
    ok = worst_ratio < 1.0 and worst_gap <= 1e-9 and one_shot
    _verdict("picard", ok,
             f"max ratio {worst_ratio:.3f}, limit gap {worst_gap:.2e}, "
             f"state-free iterations {len(trace.driver_change)}", elapsed)


def test_explicit_constant_suite():
    t0 = time.time()
    tree = standard_tree(n_steps=5)
    n_inst = 1000
    fails = []

    for seed in range(n_inst):
        x = random_strong_supermartingale(tree, seed)
        if not meyer_bound_family(tree, x, 2.0, [""])[0].passed:
            fails.append(("meyer", seed))
    assert meyer_c_prime(2.0) == pytest.approx(4.0)

    for seed in range(n_inst):
        inst = random_reflected(tree, seed, margin=0.5)
        sol = solve_reflected(inst, scheme="implicit")
        if not check_compensator_norm_bound(inst, sol, 2.0, 0.0, "K-bound").passed:
            fails.append(("k-chain", seed))
        if seed < 200:
            for rep in check_bracket_family(sol, (2.0,), 0.3, [""]):
                if not rep.passed:
                    fails.append((rep.inequality_id, seed))

    rng = np.random.default_rng(0)
    for i in range(n_inst):
        a = rng.uniform(0.1, 3.0, size=int(rng.integers(1, 6)))
        lo, mid, hi = power_sum_bounds(a, float(rng.uniform(0.2, 4.0)))
        if lo > mid + 1e-9 or mid > hi + 1e-9:
            fails.append(("power-sum", i))
        lhs, rhs = young_bound(float(rng.uniform(0, 3)), float(rng.uniform(0, 3)),
                               float(rng.uniform(0.1, 3)), float(rng.uniform(1.1, 4)))
        if lhs > rhs + 1e-9:
            fails.append(("young", i))

    for seed in range(n_inst):
        x = random_strong_supermartingale(tree, seed)
        for p in (1.2, 1.5, 1.9):
            if not check_ito_p_family(x, p, 1.0, [""])[0].passed:
                fails.append((f"power-expansion-{p}", seed))

    elapsed = time.time() - t0
    ok = not fails and elapsed < 120.0
    _verdict("explicit-constants", ok,
             f"{n_inst} instances per family, failures {fails[:3]}", elapsed)


def test_empirical_ratio_suite():
    t0 = time.time()
    ratios = {}
    for n in (4, 8, 12):
        tree = standard_tree(n_steps=n)
        i1 = random_reflected(tree, 50, margin=0.5)
        i2 = random_reflected(tree, 51, margin=0.5)
        s1 = solve_reflected(i1)
        s2 = solve_reflected(i2)
        pair = lone_pair(i1, s1, i2, s2)
        ratios[n] = (
            check_solution_norm_bound(i1, s1, 2.0, 0.0).ratio,
            check_stability_norm_family(pair, 2.0, 0.5, [""])[0].ratio,
            check_obstacle_sup_family(i1, s1, 2.0, 0.0, "S_plus", [""],
                                      solve_bsde(i1.plain()))[0].ratio,
            check_reflected_stability_p2_family(pair, 0.5, [""])[0].ratio,
        )
    finite = all(np.isfinite(v) for vs in ratios.values() for v in vs)
    spread = max(max(vs) for vs in ratios.values())
    # seed stability: identical seeds reproduce the ratio bit-for-bit
    tree = standard_tree(n_steps=6)
    i1 = random_reflected(tree, 50, margin=0.5)
    s1 = solve_reflected(i1)
    r_a = check_solution_norm_bound(i1, s1, 2.0, 0.0).ratio
    i1b = random_reflected(tree, 50, margin=0.5)
    r_b = check_solution_norm_bound(i1b, solve_reflected(i1b), 2.0, 0.0).ratio
    stable = r_a == r_b

    orders_ok = True
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

    orders = {}
    for p in (1.5, 2.0, 3.0):
        res = measure_stability_decay(make_pair, [0.2, 0.1, 0.05, 0.025], p, 0.5)
        orders[p] = (res["order"], res["required"])
        orders_ok = orders_ok and res["order"] >= res["required"]
    elapsed = time.time() - t0
    ok = finite and stable and spread < 1e6 and orders_ok
    _verdict("empirical-ratios", ok,
             f"max ratio {spread:.3f}, decay orders "
             + ", ".join(f"p={p}: {o:.2f}>={r}" for p, (o, r) in orders.items()),
             elapsed)


def test_linear_closed_form():
    t0 = time.time()
    details = []
    ok = True
    for lam in (-1.0, 0.5):
        errs = []
        for n in (4, 8, 16):
            tr = build_tree(TimeGrid(horizon=1.0, n_steps=n), d=1)
            gen = AffineGenerator.build(tr, lam=lam, eta=[0.0])
            inst = BsdeInstance(tree=tr, xi=np.ones(tr.n_nodes(n)), gen=gen)
            sol = solve_bsde(inst, scheme="implicit")
            errs.append(abs(float(sol.y.values[0][0]) - math.exp(-lam)))
        halves = errs[1] <= 0.6 * errs[0] and errs[2] <= 0.6 * errs[1]
        rich = [abs(2 * errs[i + 1] - errs[i]) for i in range(2)]
        first_order = rich[1] <= 0.35 * rich[0]
        ok = ok and halves and first_order
        details.append(f"lam={lam}: ratios {errs[0] / errs[1]:.2f},{errs[1] / errs[2]:.2f}")
    elapsed = time.time() - t0
    _verdict("linear-closed-form", ok, "; ".join(details), elapsed)


def test_counterexample():
    t0 = time.time()
    rep = run_counterexample(eps=0.05, dt=1e-5, n_paths=10_000, seed=0)
    s = rep.summary()
    gap_ok = s["gap_ok_fraction"] == 1.0
    tv_ok = abs(s["tv_mean"] - s["tv_predicted"]) / s["tv_predicted"] <= 0.15
    sc = tv_scaling([0.2, 0.1, 0.05, 0.025], dt=1e-5, n_paths=1000, seed=0)
    slope_ok = abs(sc["slope"] - 1.0) <= 0.1
    elapsed = time.time() - t0
    ok = gap_ok and tv_ok and slope_ok and elapsed < 120.0
    _verdict("counterexample", ok,
             f"gap fraction {s['gap_ok_fraction']:.4f}, tv {s['tv_mean']:.2f} vs 20, "
             f"slope {sc['slope']:.3f}", elapsed)


def test_lp_truncation():
    t0 = time.time()
    tree = build_tree(TimeGrid(horizon=1.0, n_steps=12), d=1)
    w = tree.w[12][:, 0]
    rng = np.random.default_rng(77)
    xi = np.exp(1.2 * w + 0.8 * rng.uniform(-1.0, 1.0, size=w.shape))
    gen = random_generator(tree, 30, l_y=0.3, l_z=0.3)
    inst = ReflectedInstance(tree=tree, xi=xi, gen=gen,
                             obstacle=AdaptedProcess.constant(tree, -5.0))
    levels = [5.0, 10.0, 15.0, 20.0, 25.0, 30.0]
    sols = [solve_reflected(truncate_instance(inst, lv)) for lv in levels]
    incs = [norm_sp_family(a.y - b.y, 1.5)[0] for a, b in zip(sols, sols[1:])]
    ok = all(x > y for x, y in zip(incs, incs[1:]))
    elapsed = time.time() - t0
    _verdict("lp-truncation", ok,
             "increments " + ",".join(f"{v:.4f}" for v in incs), elapsed)
