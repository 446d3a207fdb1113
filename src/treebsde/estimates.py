"""Inequality harness for the a priori estimates on tree solutions.

Two tiers of checks.  EXPLICIT checks carry a fully assembled numeric constant
and hard-assert lhs <= constant * rhs (up to a 1e-9 relative slack).  EMPIRICAL
checks cover statements of the form "there exists a constant": they report the
ratio lhs/rhs and only assert finiteness; stability across seeds and grids is
examined by the callers.

Weight convention: increments booked at t_{k+1} carry the weight evaluated at
t_{k+1}.  Time integrals bounded by Cauchy-Schwarz pick up a T^{p/2} factor
that is kept explicitly (it equals 1 on the default unit horizon).
"""

from __future__ import annotations

import math

import numpy as np

from .bsde import SolutionQuadruple, solve_bsde
from .errors import ClassificationError
from .norms import (
    _leaf_norm,
    _sq,
    _wr,
    burkholder_constant,
    leaf_composite,
    leaf_h,
    leaf_i,
    leaf_m,
    meyer_constant,
    norm_h,
    norm_i,
    norm_m,
    norm_m_composite,
    norm_sp,
    phi_p,
    sup_power,
    weighted_sum,
)
from .processes import LadlagProcess, PredictableProcess
from .reflected import ReflectedInstance
from .reports import EstimateReport, explicit_pass
from .tree import ScenarioTree, sup_abs

# the proofs' auxiliary constants, each fixed at one admissible value
COMPENSATOR_EPS = 1.0  # driver-term weight of the composite-norm bounds; 1/eps in the N-ge2 floor
COMPENSATOR_ETA = 0.5  # eta in (0, 1) of the N-ge2 weight floor
STABILITY_EPS = 1.0    # driver-term weight of the p = 2 reflected stability bound
ITO_P_TOL = 1e-10
PUSH_TOL = 1e-12  # round-off allowed below zero in a push increment


def lp_norm(tree: ScenarioTree, xi: np.ndarray, p: float) -> float:
    return tree.expectation(np.abs(xi) ** p, tree.n_steps) ** (1.0 / p)


def _require_nondecreasing(sol: SolutionQuadruple):
    worst = float(np.min([v.min() for v in sol.dk.values]))
    if not worst >= -PUSH_TOL:
        raise ClassificationError(f"push process is not non-decreasing (min increment {worst:.3e})")


def _star_to_leaves(tree: ScenarioTree, phi_vals, increments, weights) -> np.ndarray:
    """Per-leaf Stieltjes sum:  sum_k w_k phi_k dX_{k+1} with phi_k at step k."""
    return tree.path_scan(weights[k] * tree.lift(phi_vals[k], k) * inc
                          for k, inc in enumerate(increments))


def _dn(sol: SolutionQuadruple, k: int, dfv: np.ndarray) -> np.ndarray:
    """Z_k . dW_{k+1} + dfv on step-(k+1) nodes."""
    return sol.tree.dot_dw(sol.z.values[k], k) + dfv


def _dl(sol: SolutionQuadruple, k: int) -> np.ndarray:
    """The martingale increment Z_k . dW_{k+1} + dM_{k+1} on step-(k+1) nodes."""
    return _dn(sol, k, sol.m.values[k + 1]) - sol.tree.lift(sol.m.values[k], k)


# -- Empirical ratio bounds -------------------------------------------

def check_solution_norm_bound(instance, sol: SolutionQuadruple, p: float, alpha: float,
                        fingerprint: str = "") -> EstimateReport:
    """Full-solution bound: (Z, M, K) norms against (xi, Y, g0).  Empirical."""
    _require_nondecreasing(sol)
    tree = sol.tree
    lhs = (norm_h(sol.z, p, alpha) ** p
           + norm_m(sol.m, p, alpha) ** p
           + norm_i(sol.dk, p, alpha) ** p)
    comps = {
        "xi": lp_norm(tree, instance.xi, p) ** p,
        "y": norm_sp(sol.y, p) ** p,
        "g0": norm_h(instance.g0, p, alpha) ** p,
    }
    rhs = sum(comps.values())
    return EstimateReport.empirical("solution_norm_bound", lhs, rhs, fingerprint,
                                    {"p": p, "alpha": alpha, "components": comps,
                                     "vacuous": lhs == 0.0 and rhs == 0.0})


def _beta(p: float) -> float:
    """beta of the N-lt2 branch: p(p-1)/4, the midpoint of (0, p(p-1)/2)."""
    return p * (p - 1.0) / 4.0


def compensator_weight_floor(gen, p: float) -> float:
    """Least proof-admissible weight of the composite-norm branches.

    N-ge2 (p >= 2) needs alpha above 1/eps + 2 L_y + L_z^2/eta; N-lt2
    (p in (1,2)) needs alpha at least 2 L_y + p L_z^2 / (2 beta).
    """
    if p >= 2.0:
        return 1.0 / COMPENSATOR_EPS + 2.0 * gen.l_y + gen.l_z**2 / COMPENSATOR_ETA
    return 2.0 * gen.l_y + p * gen.l_z**2 / (2.0 * _beta(p))


def check_compensator_norm_bound(instance, sol: SolutionQuadruple, p: float, alpha: float,
                             branch: str, fingerprint: str = "") -> EstimateReport:
    """Intermediate estimates behind the main bound.

    branch "K-bound": explicit chain constant for the push process (any p > 1,
    needs non-decreasing K).  branch "N-ge2" (p >= 2) and "N-lt2" (p in (1,2)):
    empirical, with the proof-admissible weight (compensator_weight_floor)
    checked up front.
    """
    tree, gen = sol.tree, instance.gen
    t_hor = tree.grid.horizon
    g_n = norm_h(instance.g0, p, alpha) ** p

    if branch == "K-bound":
        _require_nondecreasing(sol)
        c_m = meyer_constant(p)
        lhs = norm_i(sol.dk, p, alpha) ** p
        y_w = norm_sp(sol.y, p, alpha) ** p
        z_n = norm_h(sol.z, p, alpha) ** p
        v2, v3 = max(1.0, 2.0 ** (p - 1.0)), max(1.0, 3.0 ** (p - 1.0))
        inner = ((1.0 + v3 * t_hor**p * (gen.l_y + alpha / 2.0) ** p) * y_w
                 + v3 * t_hor ** (p / 2.0) * (gen.l_z**p * z_n + g_n))
        rhs = c_m**p * v2 * inner
        return EstimateReport.explicit(
            "push_norm_chain", lhs, rhs, c_m**p * v2, fingerprint,
            {"p": p, "alpha": alpha, "meyer": c_m, "y_weighted": y_w, "z": z_n, "g0": g_n,
             "time_factor": t_hor ** (p / 2.0)})

    n_norm = norm_m_composite(sol.z, sol.mk, p, alpha) ** p
    xi_n = lp_norm(tree, instance.xi, p) ** p
    w1 = _wr(tree, alpha)

    if branch == "N-ge2":
        if p < 2.0:
            raise ValueError(f"branch N-ge2 needs p >= 2, got {p}")
        floor = compensator_weight_floor(gen, p)
        if alpha <= floor:
            raise ValueError(f"inadmissible weight: need alpha > {floor:.3f}")
        lhs = norm_h(sol.y, p, alpha) ** p + n_norm
        if p > 2.0:
            dn = (_dn(sol, k, inc) for k, inc in enumerate(sol.mk.increments()))
            star = _star_to_leaves(tree, sol.y.values, dn, w1)
            tail = tree.expectation(np.abs(star) ** (p / 2.0), tree.n_steps)
            tail_id = "y_dn_integral"
        else:
            dk_lifted = (tree.lift(v, k) for k, v in enumerate(sol.dk.values))
            star = _star_to_leaves(tree, sol.y.values, dk_lifted, w1)
            tail = max(tree.expectation(star, tree.n_steps), 0.0)
            tail_id = "y_dk_integral_plus"
        comps = {"xi": xi_n, tail_id: tail}
        rhs = COMPENSATOR_EPS * g_n + sum(comps.values())
        return EstimateReport.empirical("composite_norm_ge2", lhs, rhs, fingerprint,
                                        {"p": p, "alpha": alpha, "eps": COMPENSATOR_EPS,
                                         "eta": COMPENSATOR_ETA, "g0": g_n, "components": comps})

    if branch == "N-lt2":
        if not (1.0 < p < 2.0):
            raise ValueError(f"branch N-lt2 needs p in (1,2), got {p}")
        floor = compensator_weight_floor(gen, p)
        if alpha < floor:
            raise ValueError(f"inadmissible weight: need alpha >= {floor:.3f}")
        lhs = n_norm
        wp = _wr(tree, p * 0.5 * alpha)
        phi_y = [phi_p(sol.y.values[k], p) for k in range(tree.n_steps)]
        dk_lifted = (tree.lift(v, k) for k, v in enumerate(sol.dk.values))
        star_k = _star_to_leaves(tree, phi_y, dk_lifted, wp)
        k_tail = max(tree.expectation(star_k, tree.n_steps), 0.0)
        # jump correction of the p-power expansion; non-negative by construction
        a_term = 0.0
        for k, inc in enumerate(sol.mk.increments()):
            dn = _dn(sol, k, inc)
            y_prev = tree.lift(sol.y.values[k], k)
            big = np.maximum(y_prev**2, (y_prev + dn) ** 2)
            term = np.where(big > 0.0, dn**2 * big ** (p / 2.0 - 1.0), 0.0)
            a_term += wp[k] * (p * (p - 1.0) / 2.0) * tree.expectation(term, k + 1)
        comps = {"xi": xi_n, "y_weighted_sup": norm_sp(sol.y, p, alpha) ** p,
                 "phi_dk_integral_plus": k_tail}
        rhs = COMPENSATOR_EPS * g_n + sum(comps.values())
        report = EstimateReport.empirical("composite_norm_lt2", lhs, rhs, fingerprint,
                                          {"p": p, "alpha": alpha, "eps": COMPENSATOR_EPS,
                                           "beta": _beta(p), "g0": g_n, "components": comps,
                                           "a_term": a_term})
        report.passed = report.passed and a_term >= -1e-12
        return report

    raise ValueError(f"unknown branch {branch!r}; expected K-bound, N-ge2 or N-lt2")


def delta_driver(inst1, sol1, inst2) -> PredictableProcess:
    """delta g evaluated along the first solution: g1(Y1,Z1) - g2(Y1,Z1)."""
    return inst1.gen.along(sol1.y, sol1.z) - inst2.gen.along(sol1.y, sol1.z)


def check_stability_norm_bound(inst1, sol1: SolutionQuadruple, inst2, sol2: SolutionQuadruple,
                        p: float, alpha: float, fingerprint: str = "",
                        dg: PredictableProcess = None) -> EstimateReport:
    """Stability bound for the difference of two solutions.  Empirical.  `dg` is the
    pair's delta_driver, built here when not given."""
    tree = sol1.tree
    _require_nondecreasing(sol1)
    _require_nondecreasing(sol2)
    dz = sol1.z - sol2.z
    dmk = sol1.mk - sol2.mk
    lhs = norm_h(dz, p, alpha) ** p + norm_m(dmk, p, alpha) ** p
    dy = sol1.y - sol2.y
    dy_sp = norm_sp(dy, p)
    dg = delta_driver(inst1, sol1, inst2) if dg is None else dg
    comps = {
        "xi": lp_norm(tree, inst1.xi - inst2.xi, p) ** p,
        "dy_p": dy_sp**p,
        "dy_low": dy_sp ** min(p / 2.0, p - 1.0),
        "dg": norm_h(dg, p, alpha) ** p,
    }
    rhs = sum(comps.values())
    return EstimateReport.empirical("stability_norm_bound", lhs, rhs, fingerprint,
                                    {"p": p, "alpha": alpha, "components": comps,
                                     "vacuous": lhs == 0.0 and rhs == 0.0})


# -- reflected-specific bounds ------------------------------------------------

def check_obstacle_sup_bound(instance: ReflectedInstance, sol: SolutionQuadruple, p: float,
                   alpha: float, variant: str = "S_plus", fingerprint: str = "",
                   free: SolutionQuadruple = None) -> EstimateReport:
    """Obstacle-problem sup bound on Y with the proof's explicit constants.

    variant "S_plus" uses the positive part of the obstacle plus a comparison
    with the unconstrained solution (coefficient 2^{p-1}); variant "S" uses the
    obstacle itself and drops the comparison term.  `free` is the implicit
    solution of instance.plain(), solved here when not given.  The proof's
    kappa in (1, p) is fixed at the midpoint (1 + p)/2.
    """
    if variant not in ("S_plus", "S"):
        raise ValueError(f"unknown variant {variant!r}")
    if p <= 1.0:
        raise ValueError(f"need p > 1, got {p}")
    tree, gen = instance.tree, instance.gen
    t_hor = tree.grid.horizon
    kappa = (1.0 + p) / 2.0
    lhs = norm_sp(sol.y, p, alpha) ** p

    # E[(sum_k e^{L_y t_{k+1}} |g0_k| dt)^p] and E[sup_k (e^{L_y t_k} S_k)^p], S_k clipped at 0
    g_leaf = weighted_sum(tree, gen.l_y, map(np.abs, instance.g0.values), tree.dt)
    g_term = tree.expectation(g_leaf**p, tree.n_steps)
    s_vals = instance.obstacle.values
    if variant == "S_plus":
        s_vals = (np.maximum(v, 0.0) for v in s_vals)
    s_term = sup_power(tree, s_vals, p, 2.0 * gen.l_y)
    xi_term = math.exp(p * gen.l_y * t_hor) * lp_norm(tree, instance.xi, p) ** p

    fac = 6.0 if variant == "S_plus" else 3.0
    c = (math.exp(p * (gen.l_y + alpha / 2.0) * t_hor
                  + p * kappa / (2.0 * (kappa - 1.0)) * gen.l_z**2 * t_hor)
         * fac ** (p - 1.0) * (p / (p - 1.0)) ** p)
    rhs = c * (g_term + s_term + xi_term)
    details = {"p": p, "alpha": alpha, "kappa": kappa, "variant": variant,
               "constant": c, "g0_term": g_term, "obstacle_term": s_term, "xi_term": xi_term}
    if variant == "S_plus":
        if free is None:
            free = solve_bsde(instance.plain(), scheme="implicit")
        comp_term = 2.0 ** (p - 1.0) * norm_sp(free.y, p, alpha) ** p
        rhs += comp_term
        details["comparison_term"] = comp_term
    return EstimateReport.explicit("obstacle_sup_bound", lhs, rhs, c, fingerprint, details)


def check_obstacle_stability_bound(inst1: ReflectedInstance, sol1: SolutionQuadruple,
                             inst2: ReflectedInstance, sol2: SolutionQuadruple,
                             p: float, alpha: float, fingerprint: str = "",
                             dg: PredictableProcess = None) -> EstimateReport:
    """Paired-obstacle sup bound on delta Y.  Empirical ratio.  `dg` is the pair's
    delta_driver, built here when not given."""
    tree = sol1.tree
    l_y = max(inst1.gen.l_y, inst2.gen.l_y)
    lhs = norm_sp(sol1.y - sol2.y, p, alpha) ** p
    dg = delta_driver(inst1, sol1, inst2) if dg is None else dg
    dg_leaf = weighted_sum(tree, l_y, map(np.abs, dg.values), tree.dt)
    comps = {
        "xi": lp_norm(tree, inst1.xi - inst2.xi, p) ** p,
        "ds": sup_power(tree, (inst1.obstacle - inst2.obstacle).values, p, 2.0 * l_y),
        "dg": tree.expectation(dg_leaf**p, tree.n_steps),
    }
    rhs = sum(comps.values())
    return EstimateReport.empirical("obstacle_stability_sup_bound", lhs, rhs, fingerprint,
                                    {"p": p, "alpha": alpha, "components": comps,
                                     "vacuous": lhs == 0.0 and rhs == 0.0})


def check_cross_term(inst1: ReflectedInstance, sol1: SolutionQuadruple,
                     inst2: ReflectedInstance, sol2: SolutionQuadruple,
                     alpha: float, fingerprint: str = "") -> EstimateReport:
    """Exact flat-off-the-obstacle control of the cross term.

    Node by node, delta Y d(delta K) <= delta S d(delta K), a consequence of
    each solution pushing only on its own contact set; the expectation is then
    dominated by the weighted sup of delta S times the variation of delta K.
    """
    tree = sol1.tree
    steps = range(tree.n_steps)
    w1 = _wr(tree, alpha)
    ddk, dy = sol1.dk - sol2.dk, sol1.y - sol2.y
    ds = inst1.obstacle - inst2.obstacle
    worst = float(np.max([0.0] + [((dy.values[k] - ds.values[k]) * ddk.values[k]).max()
                                  for k in steps]))
    lhs = tree.expectation(tree.path_scan(w1[k] * dy.values[k] * ddk.values[k] for k in steps),
                           tree.n_steps)
    mid = tree.expectation(tree.path_scan(w1[k] * ds.values[k] * ddk.values[k] for k in steps),
                           tree.n_steps)
    bound = norm_sp(ds, 2.0, alpha) * norm_i(ddk, 2.0, alpha)
    ok = worst <= 1e-12 and lhs <= mid + 1e-12 and mid <= bound + 1e-9 * max(1.0, abs(bound))
    return EstimateReport(
        inequality_id="cross_term_contact_set",
        lhs=lhs, rhs=bound, constant_used="exact",
        passed=ok, fingerprint=fingerprint,
        details={"alpha": alpha, "pathwise_defect": worst, "mid": mid},
    )


def check_reflected_stability_p2(inst1: ReflectedInstance, sol1: SolutionQuadruple,
                        inst2: ReflectedInstance, sol2: SolutionQuadruple,
                        alpha: float, fingerprint: str = "",
                        dg: PredictableProcess = None) -> EstimateReport:
    """Quadratic stability bound for reflected pairs.  Empirical constant.  `dg` is the
    pair's delta_driver, built here when not given."""
    tree = sol1.tree
    dy = sol1.y - sol2.y
    dz = sol1.z - sol2.z
    dmk = sol1.mk - sol2.mk
    lhs = (norm_h(dy, 2.0, alpha) ** 2 + norm_h(dz, 2.0, alpha) ** 2
           + norm_m(dmk, 2.0, alpha) ** 2)
    dg = delta_driver(inst1, sol1, inst2) if dg is None else dg
    ds = inst1.obstacle - inst2.obstacle
    comps = {
        "xi": lp_norm(tree, inst1.xi - inst2.xi, 2.0) ** 2,
        "ds_sup": norm_sp(ds, 2.0, alpha),
    }
    rhs = STABILITY_EPS * norm_h(dg, 2.0, alpha) ** 2 + sum(comps.values())
    return EstimateReport.empirical("reflected_stability_p2", lhs, rhs, fingerprint,
                                    {"alpha": alpha, "eps": STABILITY_EPS, "components": comps,
                                     "vacuous": lhs == 0.0 and rhs == 0.0})


# -- pathwise power expansion and bracket equivalences ------------------------

def check_ito_p_inequality(x: LadlagProcess, p: float, alpha: float,
                           fingerprint: str = "") -> EstimateReport:
    """Pathwise p-power expansion bound for ladlag paths, p in (1, 2).

    Every term of the display is evaluated per leaf path, for every start time
    on the grid: terminal power, closed-form ds integral on the constant open
    intervals, the Stieltjes integral against the power gradient (combined
    jumps at grid times; the start-time right jump enters through the boundary
    convention of the integral), and the quadratic jump correction.  The worst
    signed defect lhs - rhs over paths and start times is reported and must
    not exceed ITO_P_TOL.  Row j of `rhs` and `star` is the display started at
    t_j: each step's term is built once and added, in increasing k, to the rows
    it covers, so every row sees the operations of its own sum.
    """
    if not (1.0 < p < 2.0):
        raise ValueError(f"need p in (1,2), got {p}")
    if alpha <= 0.0:
        raise ValueError(f"need alpha > 0, got {alpha}")
    tree = x.tree
    n = tree.n_steps
    times = tree.grid.times
    val = [tree.to_leaves(x.value[k], k) for k in range(n + 1)]
    rgt = [tree.to_leaves(x.right[k], k) for k in range(n + 1)]
    wp = [math.exp(p * 0.5 * alpha * times[k]) for k in range(n + 1)]
    half = p * (p - 1.0) / 2.0
    # the path just after t_{k+1}: combined jumps inside, the terminal value at T
    after = rgt[1:n] + [val[n]]
    rhs = np.tile(wp[n] * np.abs(val[n]) ** p, (n + 1, 1))
    star = np.zeros_like(rhs)
    for k in range(n):
        # gradient integral: boundary right jump at the start t_k
        star[k] = wp[k] * phi_p(val[k], p) * (rgt[k] - val[k])
        # ds term: the path is constant on the open interval (t_k, t_{k+1})
        rhs[:k + 1] -= (wp[k + 1] - wp[k]) * np.abs(rgt[k]) ** p
        star[:k + 1] += wp[k + 1] * phi_p(rgt[k], p) * (after[k] - rgt[k])
    rhs -= p * star
    # quadratic jump correction at t_{k+1}
    for k in range(n):
        big = np.maximum(rgt[k] ** 2, after[k] ** 2)
        jump = np.where(big > 0.0, (after[k] - rgt[k]) ** 2 * big ** (p / 2.0 - 1.0), 0.0)
        rhs[:k + 1] -= half * wp[k + 1] * jump
    worst = float(np.max([(wp[j] * np.abs(val[j]) ** p - rhs[j]).max() for j in range(n + 1)]))
    return EstimateReport.exact("pathwise_power_expansion", worst, 0.0, ITO_P_TOL, fingerprint,
                                {"p": p, "alpha": alpha, "worst_defect": worst})


def check_bracket_equivalences(sol: SolutionQuadruple, ps, alpha: float,
                               fingerprint: str = "") -> list:
    """Bracket-norm equivalences and the gradient-integrand martingale property: three
    rows for each p of `ps`, in order.  The per-leaf sums, the increments dL and their
    E_k do not depend on p, so each is built once and read for every p."""
    _require_nondecreasing(sol)
    tree = sol.tree
    t_hor = tree.grid.horizon
    z_leaf, mk_leaf = leaf_h(sol.z, alpha), leaf_m(sol.mk, alpha)
    n_leaf, mzw_leaf = leaf_composite(sol.z, sol.mk, alpha), leaf_composite(sol.z, sol.m, alpha)
    k_leaf = leaf_i(sol.dk, alpha)
    dl = [_dl(sol, k) for k in range(tree.n_steps)]
    dl_cond = [tree.cond_exp(v, k + 1) for k, v in enumerate(dl)]
    dl_sup = sup_abs(dl)
    reports = []
    for p in ps:
        z_n = _leaf_norm(tree, z_leaf, p / 2.0, p) ** p
        mk_n = _leaf_norm(tree, mk_leaf, p / 2.0, p) ** p
        n_n = _leaf_norm(tree, n_leaf, p / 2.0, p) ** p
        lo = min(1.0, 2.0 ** (p / 2.0 - 1.0)) * (z_n + mk_n)
        hi = max(1.0, 2.0 ** (p / 2.0 - 1.0)) * (z_n + mk_n)
        reports.append(EstimateReport(
            inequality_id="bracket_norm_two_sided",
            lhs=lo, rhs=n_n, constant_used=min(1.0, 2.0 ** (p / 2.0 - 1.0)),
            passed=explicit_pass(lo, n_n) and explicit_pass(n_n, hi),
            fingerprint=fingerprint,
            details={"p": p, "alpha": alpha, "upper": hi, "z": z_n, "mk": mk_n},
        ))

        mzw_n = _leaf_norm(tree, mzw_leaf, p / 2.0, p) ** p
        c = max(2.0 ** (p / 2.0), 2.0 ** (p - 1.0))
        rhs = c * (n_n + math.exp(alpha * p * t_hor / 2.0) * _leaf_norm(tree, k_leaf, p, p) ** p)
        reports.append(EstimateReport.explicit(
            "martingale_part_bracket_bound", mzw_n, rhs, c, fingerprint,
            {"p": p, "alpha": alpha, "prefactor": math.exp(alpha * p * t_hor / 2.0)}))

        phi = [phi_p(y, p) for y in sol.y.values[:tree.n_steps]]
        worst = sup_abs(map(np.multiply, phi, dl_cond))
        # round-off in the product grows with max|phi_p(Y)| max|dL|, and so does the
        # tolerance, never below 1e-12 and never infinite
        scale = sup_abs(phi) * dl_sup
        reports.append(EstimateReport.exact("gradient_integrand_martingale", worst, 0.0,
                                            1e-12 * (scale if 1.0 < scale < math.inf else 1.0),
                                            fingerprint, {"p": p, "defect": worst}))
    return reports


def check_burkholder(sol: SolutionQuadruple, p: float, alpha: float,
                     fingerprint: str = "") -> EstimateReport:
    """Moment bound for the weighted integral of Y against the martingale part."""
    if p < 2.0:
        raise ValueError(f"constant defined for p >= 2, got {p}")
    tree = sol.tree
    c = burkholder_constant(p)
    w1 = _wr(tree, alpha)
    dt = tree.dt
    star_terms, qv_terms = [], []
    for k, dm in enumerate(sol.m.increments()):
        y_prev = tree.lift(sol.y.values[k], k)
        star_terms.append(w1[k] * y_prev * _dl(sol, k))
        qv_terms.append(w1[k] ** 2 * y_prev**2 * (tree.lift(_sq(sol.z.values[k]), k) * dt + dm**2))
    star, qv = tree.path_scan(star_terms), tree.path_scan(qv_terms)
    lhs = tree.expectation(np.abs(star) ** (p / 2.0), tree.n_steps)
    rhs = c * tree.expectation(qv ** (p / 4.0), tree.n_steps)
    return EstimateReport.explicit("martingale_moment_bound", lhs, rhs, c, fingerprint,
                                   {"p": p, "alpha": alpha})


# -- decay measurements -------------------------------------------------------

def measure_stability_decay(make_pair, hs, p: float, alpha: float) -> dict:
    """Decay order of the stability lhs in the perturbation size.

    `make_pair(h)` returns (inst1, sol1, inst2, sol2) differing by a size-h
    perturbation on a common tree.  The stability bound forces the lhs to decay
    at least as fast as its slowest right-hand component, of order
    min(p/2, p-1) in h, so the fitted log-log slope of the lhs against h must
    come out at or above that value.
    """
    lhs_vals = []
    for h in hs:
        inst1, sol1, inst2, sol2 = make_pair(h)
        rep = check_stability_norm_bound(inst1, sol1, inst2, sol2, p, alpha)
        lhs_vals.append(rep.lhs)
    xs = np.log(np.asarray(hs, dtype=float))
    ys = np.log(np.maximum(np.asarray(lhs_vals), 1e-300))
    slope = float(np.polyfit(xs, ys, 1)[0])
    return {"hs": list(hs), "lhs_values": lhs_vals, "order": slope,
            "required": min(p / 2.0, p - 1.0)}
