"""Inequality harness for the a priori estimates on tree solutions.

Two tiers of checks.  EXPLICIT checks carry a fully assembled numeric constant
and hard-assert lhs <= constant * rhs (up to a 1e-9 relative slack).  EMPIRICAL
checks cover statements of the form "there exists a constant": they report the
ratio lhs/rhs and only assert finiteness; stability across seeds and grids is
examined by the callers.

Weight convention: increments booked at t_{k+1} carry the weight evaluated at
t_{k+1}.  Time integrals bounded by Cauchy-Schwarz pick up a T^{p/2} factor
that is kept explicitly (it equals 1 on the default unit horizon).

Each `*_family` form checks a whole family in one pass over ScenarioTree.forest(B)
(a family ReflectedInstance with its solve_reflected solution, or a
strong_supermartingale_family process) and returns one report per member, in member
order, with the bits of the member's own check (see norms); the arithmetic after each
expectation stays Python float arithmetic per member.  Each plain check is its family
form on a lone instance, the family of one.  The pair checks' family forms take
PairDifferences, the member pairs (2i, 2i + 1) on tree.forest(B // 2), and return one
report per pair; each solo pair check is its family form on one pair (lone_pair).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

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
    norm_h_family,
    norm_i_family,
    norm_m_composite_family,
    norm_m_family,
    norm_sp_family,
    phi_p,
    sup_power_family,
    weighted_sum,
)
from .processes import AdaptedProcess, LadlagProcess, PredictableProcess
from .reflected import ReflectedInstance
from .reports import EstimateReport, explicit_pass
from .tree import ScenarioTree, sup_abs_copies

# the proofs' auxiliary constants, each fixed at one admissible value
COMPENSATOR_EPS = 1.0  # driver-term weight of the composite-norm bounds; 1/eps in the N-ge2 floor
COMPENSATOR_ETA = 0.5  # eta in (0, 1) of the N-ge2 weight floor
STABILITY_EPS = 1.0    # driver-term weight of the p = 2 reflected stability bound
ITO_P_TOL = 1e-10
PUSH_TOL = 1e-12  # round-off allowed below zero in a push increment


def _powers(values, p: float) -> list:
    """v ** p of each member's value, in Python float arithmetic."""
    return [v ** p for v in values]


def _require_nondecreasing(sol: SolutionQuadruple):
    worst = functools.reduce(np.minimum, (sol.tree.split(v).min(axis=1) for v in sol.dk.values))
    bad = ~(worst >= -PUSH_TOL)
    if bad.any():
        i = int(bad.argmax())
        raise ClassificationError(f"{'' if len(worst) == 1 else f'member {i}: '}push process is "
                                  f"not non-decreasing (min increment {worst[i]:.3e})")


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
    """Full-solution bound: (Z, M, K) norms against (xi, Y, g0).  Empirical.  The
    family of one (check_solution_norm_family)."""
    return check_solution_norm_family(instance, sol, p, alpha, [fingerprint])[0]


def check_solution_norm_family(family: ReflectedInstance, sol: SolutionQuadruple, p: float,
                               alpha: float, fingerprints: list) -> list:
    """check_solution_norm_bound of every member; `sol` is the family's forest solution."""
    _require_nondecreasing(sol)
    terms = (norm_h_family(sol.z, p, alpha), norm_m_family(sol.m, p, alpha),
             norm_i_family(sol.dk, p, alpha), _leaf_norm(sol.tree, np.abs(family.xi), p, p),
             norm_sp_family(sol.y, p), norm_h_family(family.g0, p, alpha))
    reports = []
    for z_n, m_n, k_n, xi_n, y_n, g_n, fp in zip(*(_powers(t, p) for t in terms), fingerprints,
                                                 strict=True):
        lhs = z_n + m_n + k_n
        comps = {"xi": xi_n, "y": y_n, "g0": g_n}
        rhs = sum(comps.values())
        reports.append(EstimateReport.empirical("solution_norm_bound", lhs, rhs, fp,
                                                {"p": p, "alpha": alpha, "components": comps,
                                                 "vacuous": lhs == 0.0 and rhs == 0.0}))
    return reports


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
    checked up front.  The family of one (check_compensator_norm_family).
    """
    return check_compensator_norm_family(instance, sol, p, alpha, branch, [fingerprint])[0]


def check_compensator_norm_family(family: ReflectedInstance, sol: SolutionQuadruple, p: float,
                                  alpha: float, branch: str, fingerprints: list) -> list:
    """check_compensator_norm_bound of every member; `sol` is the family's forest solution."""
    tree, gen = sol.tree, family.gen
    t_hor = tree.grid.horizon
    g_ns = _powers(norm_h_family(family.g0, p, alpha), p)

    if branch == "K-bound":
        _require_nondecreasing(sol)
        c_m = meyer_constant(p)
        v2, v3 = max(1.0, 2.0 ** (p - 1.0)), max(1.0, 3.0 ** (p - 1.0))
        terms = (norm_i_family(sol.dk, p, alpha), norm_sp_family(sol.y, p, alpha),
                 norm_h_family(sol.z, p, alpha))
        reports = []
        for lhs, y_w, z_n, g_n, fp in zip(*(_powers(t, p) for t in terms), g_ns, fingerprints,
                                          strict=True):
            inner = ((1.0 + v3 * t_hor**p * (gen.l_y + alpha / 2.0) ** p) * y_w
                     + v3 * t_hor ** (p / 2.0) * (gen.l_z**p * z_n + g_n))
            rhs = c_m**p * v2 * inner
            reports.append(EstimateReport.explicit(
                "push_norm_chain", lhs, rhs, c_m**p * v2, fp,
                {"p": p, "alpha": alpha, "meyer": c_m, "y_weighted": y_w, "z": z_n, "g0": g_n,
                 "time_factor": t_hor ** (p / 2.0)}))
        return reports

    n_norms = _powers(norm_m_composite_family(sol.z, sol.mk, p, alpha), p)
    xi_ns = _powers(_leaf_norm(tree, np.abs(family.xi), p, p), p)
    w1 = _wr(tree, alpha)

    if branch == "N-ge2":
        if p < 2.0:
            raise ValueError(f"branch N-ge2 needs p >= 2, got {p}")
        floor = compensator_weight_floor(gen, p)
        if alpha <= floor:
            raise ValueError(f"inadmissible weight: need alpha > {floor:.3f}")
        lhss = [h + n_n for h, n_n in zip(_powers(norm_h_family(sol.y, p, alpha), p), n_norms)]
        if p > 2.0:
            dn = (_dn(sol, k, inc) for k, inc in enumerate(sol.mk.increments()))
            star = _star_to_leaves(tree, sol.y.values, dn, w1)
            tails = tree.expectations(np.abs(star) ** (p / 2.0), tree.n_steps)
            tail_id = "y_dn_integral"
        else:
            dk_lifted = (tree.lift(v, k) for k, v in enumerate(sol.dk.values))
            star = _star_to_leaves(tree, sol.y.values, dk_lifted, w1)
            tails = [max(e, 0.0) for e in tree.expectations(star, tree.n_steps)]
            tail_id = "y_dk_integral_plus"
        reports = []
        for lhs, xi_n, tail, g_n, fp in zip(lhss, xi_ns, tails, g_ns, fingerprints, strict=True):
            comps = {"xi": xi_n, tail_id: tail}
            rhs = COMPENSATOR_EPS * g_n + sum(comps.values())
            reports.append(EstimateReport.empirical(
                "composite_norm_ge2", lhs, rhs, fp,
                {"p": p, "alpha": alpha, "eps": COMPENSATOR_EPS, "eta": COMPENSATOR_ETA,
                 "g0": g_n, "components": comps}))
        return reports

    if branch == "N-lt2":
        if not (1.0 < p < 2.0):
            raise ValueError(f"branch N-lt2 needs p in (1,2), got {p}")
        floor = compensator_weight_floor(gen, p)
        if alpha < floor:
            raise ValueError(f"inadmissible weight: need alpha >= {floor:.3f}")
        wp = _wr(tree, p * 0.5 * alpha)
        phi_y = [phi_p(sol.y.values[k], p) for k in range(tree.n_steps)]
        dk_lifted = (tree.lift(v, k) for k, v in enumerate(sol.dk.values))
        star_k = _star_to_leaves(tree, phi_y, dk_lifted, wp)
        k_tails = [max(e, 0.0) for e in tree.expectations(star_k, tree.n_steps)]
        # jump correction of the p-power expansion; non-negative by construction
        a_terms = [0.0] * len(fingerprints)
        for k, inc in enumerate(sol.mk.increments()):
            dn = _dn(sol, k, inc)
            y_prev = tree.lift(sol.y.values[k], k)
            big = np.maximum(y_prev**2, (y_prev + dn) ** 2)
            term = np.where(big > 0.0, dn**2 * big ** (p / 2.0 - 1.0), 0.0)
            a_terms = [a + wp[k] * (p * (p - 1.0) / 2.0) * e
                       for a, e in zip(a_terms, tree.expectations(term, k + 1), strict=True)]
        reports = []
        for lhs, xi_n, y_sup, k_tail, a_term, g_n, fp in zip(
                n_norms, xi_ns, _powers(norm_sp_family(sol.y, p, alpha), p), k_tails, a_terms,
                g_ns, fingerprints, strict=True):
            comps = {"xi": xi_n, "y_weighted_sup": y_sup, "phi_dk_integral_plus": k_tail}
            rhs = COMPENSATOR_EPS * g_n + sum(comps.values())
            report = EstimateReport.empirical("composite_norm_lt2", lhs, rhs, fp,
                                              {"p": p, "alpha": alpha, "eps": COMPENSATOR_EPS,
                                               "beta": _beta(p), "g0": g_n, "components": comps,
                                               "a_term": a_term})
            report.passed = report.passed and a_term >= -1e-12
            reports.append(report)
        return reports

    raise ValueError(f"unknown branch {branch!r}; expected K-bound, N-ge2 or N-lt2")


def delta_driver(inst1, sol1, inst2) -> PredictableProcess:
    """delta g evaluated along the first solution: g1(Y1,Z1) - g2(Y1,Z1)."""
    return inst1.gen.along(sol1.y, sol1.z) - inst2.gen.along(sol1.y, sol1.z)


@dataclass(frozen=True)
class PairDifferences:
    """Pairs of solutions on one tree as their differences, one copy of the tree per
    pair: first minus second, with the bits of the lone pair's process subtraction.
    The member pairs (2i, 2i + 1) of a family are pair_differences, on
    tree.forest(B // 2); two lone solutions are lone_pair, the family of one pair."""

    y: AdaptedProcess
    z: PredictableProcess
    mk: AdaptedProcess
    dk: PredictableProcess
    xi: np.ndarray
    obstacle: Optional[AdaptedProcess]  # None unless both instances have one
    dg: PredictableProcess  # each pair's delta_driver
    l_y: float  # the larger L_y of each pair's two drivers
    sols: tuple  # the paired solutions, whose pushes the stability check reads

    @property
    def tree(self) -> ScenarioTree:
        return self.y.tree


def pair_differences(family: ReflectedInstance, sol: SolutionQuadruple) -> PairDifferences:
    """The member pairs (2i, 2i + 1) of a family of B >= 2 members, `sol` its forest
    solution, on tree.forest(B // 2); an odd last member is in no pair.  Each difference
    is one array operation per step: split, reshape to (B // 2, 2, n_k), subtract.  The
    delta drivers of all pairs take one family-driver call per step, on a forest whose
    blocks 2i and 2i + 1 both hold member 2i's solution."""
    forest, b = sol.tree, len(family.gen.family)
    pairs = family.tree.forest(b // 2)

    def diff(blocks):
        two = blocks[:b - b % 2].reshape((-1, 2) + blocks.shape[1:])
        return ScenarioTree.join(two[:, 0] - two[:, 1])

    def diffs(x):
        return type(x)(pairs, [diff(forest.split(v)) for v in x.values])

    even = np.arange(b) & ~1
    dg = PredictableProcess(pairs, [
        diff(family.gen(k, forest.split(y)[even], forest.split(z)[even]))
        for k, (y, z) in enumerate(zip(sol.y.values, sol.z.values))])
    return PairDifferences(diffs(sol.y), diffs(sol.z), diffs(sol.mk), diffs(sol.dk),
                           diff(forest.split(family.xi)), diffs(family.obstacle), dg,
                           family.gen.l_y, (sol,))


def lone_pair(inst1, sol1: SolutionQuadruple, inst2, sol2: SolutionQuadruple,
              dg: PredictableProcess = None) -> PairDifferences:
    """Two instances and their solutions on one tree as the family of one pair; `dg` is
    their delta_driver, built here when not given."""
    s1, s2 = getattr(inst1, "obstacle", None), getattr(inst2, "obstacle", None)
    return PairDifferences(sol1.y - sol2.y, sol1.z - sol2.z, sol1.mk - sol2.mk,
                           sol1.dk - sol2.dk, inst1.xi - inst2.xi,
                           None if s1 is None or s2 is None else s1 - s2,
                           delta_driver(inst1, sol1, inst2) if dg is None else dg,
                           max(inst1.gen.l_y, inst2.gen.l_y), (sol1, sol2))


def check_stability_norm_bound(inst1, sol1: SolutionQuadruple, inst2, sol2: SolutionQuadruple,
                        p: float, alpha: float, fingerprint: str = "",
                        dg: PredictableProcess = None) -> EstimateReport:
    """Stability bound for the difference of two solutions.  Empirical.  `dg` is the
    pair's delta_driver, built here when not given.  The family of one pair
    (check_stability_norm_family)."""
    return check_stability_norm_family(lone_pair(inst1, sol1, inst2, sol2, dg), p, alpha,
                                       [fingerprint])[0]


def check_stability_norm_family(pairs: PairDifferences, p: float, alpha: float,
                                fingerprints: list) -> list:
    """check_stability_norm_bound of every pair, one report per pair."""
    for sol in pairs.sols:
        _require_nondecreasing(sol)
    reports = []
    for z_n, mk_n, dy_sp, xi_n, dg_n, fp in zip(
            norm_h_family(pairs.z, p, alpha), norm_m_family(pairs.mk, p, alpha),
            norm_sp_family(pairs.y, p), _leaf_norm(pairs.tree, np.abs(pairs.xi), p, p),
            norm_h_family(pairs.dg, p, alpha), fingerprints, strict=True):
        lhs = z_n ** p + mk_n ** p
        comps = {"xi": xi_n ** p, "dy_p": dy_sp ** p, "dy_low": dy_sp ** min(p / 2.0, p - 1.0),
                 "dg": dg_n ** p}
        rhs = sum(comps.values())
        reports.append(EstimateReport.empirical("stability_norm_bound", lhs, rhs, fp,
                                                {"p": p, "alpha": alpha, "components": comps,
                                                 "vacuous": lhs == 0.0 and rhs == 0.0}))
    return reports


# -- reflected-specific bounds ------------------------------------------------

def check_obstacle_sup_bound(instance: ReflectedInstance, sol: SolutionQuadruple, p: float,
                   alpha: float, variant: str = "S_plus", fingerprint: str = "",
                   free: SolutionQuadruple = None) -> EstimateReport:
    """Obstacle-problem sup bound on Y with the proof's explicit constants.

    variant "S_plus" uses the positive part of the obstacle plus a comparison
    with the unconstrained solution (coefficient 2^{p-1}); variant "S" uses the
    obstacle itself and drops the comparison term.  `free` is the implicit
    solution of instance.plain(), solved here when not given.  The proof's
    kappa in (1, p) is fixed at the midpoint (1 + p)/2.  The family of one
    (check_obstacle_sup_family).
    """
    if free is None and variant == "S_plus":
        free = solve_bsde(instance.plain(), scheme="implicit")
    return check_obstacle_sup_family(instance, sol, p, alpha, variant, [fingerprint], free)[0]


def check_obstacle_sup_family(family: ReflectedInstance, sol: SolutionQuadruple, p: float,
                              alpha: float, variant: str, fingerprints: list,
                              free: SolutionQuadruple) -> list:
    """check_obstacle_sup_bound of every member; `sol` is the family's forest solution and
    `free` that of its plain() instance (solve_bsde), read by S_plus."""
    if variant not in ("S_plus", "S"):
        raise ValueError(f"unknown variant {variant!r}")
    if p <= 1.0:
        raise ValueError(f"need p > 1, got {p}")
    tree, gen = sol.tree, family.gen
    t_hor = tree.grid.horizon
    kappa = (1.0 + p) / 2.0

    # E[(sum_k e^{L_y t_{k+1}} |g0_k| dt)^p] and E[sup_k (e^{L_y t_k} S_k)^p], S_k clipped at 0
    g_leaf = weighted_sum(tree, gen.l_y, map(np.abs, family.g0.values), tree.dt)
    g_terms = tree.expectations(g_leaf**p, tree.n_steps)
    s_vals = family.obstacle.values
    if variant == "S_plus":
        s_vals = (np.maximum(v, 0.0) for v in s_vals)
    s_terms = sup_power_family(tree, s_vals, p, 2.0 * gen.l_y)
    xi_terms = [math.exp(p * gen.l_y * t_hor) * v ** p
                for v in _leaf_norm(tree, np.abs(family.xi), p, p)]
    comp_terms = ([2.0 ** (p - 1.0) * v ** p for v in norm_sp_family(free.y, p, alpha)]
                  if variant == "S_plus" else [None] * len(fingerprints))

    fac = 6.0 if variant == "S_plus" else 3.0
    c = (math.exp(p * (gen.l_y + alpha / 2.0) * t_hor
                  + p * kappa / (2.0 * (kappa - 1.0)) * gen.l_z**2 * t_hor)
         * fac ** (p - 1.0) * (p / (p - 1.0)) ** p)
    reports = []
    for lhs, g_term, s_term, xi_term, comp_term, fp in zip(
            _powers(norm_sp_family(sol.y, p, alpha), p), g_terms, s_terms, xi_terms, comp_terms,
            fingerprints, strict=True):
        rhs = c * (g_term + s_term + xi_term)
        details = {"p": p, "alpha": alpha, "kappa": kappa, "variant": variant,
                   "constant": c, "g0_term": g_term, "obstacle_term": s_term, "xi_term": xi_term}
        if comp_term is not None:
            rhs += comp_term
            details["comparison_term"] = comp_term
        reports.append(EstimateReport.explicit("obstacle_sup_bound", lhs, rhs, c, fp, details))
    return reports


def check_obstacle_stability_bound(inst1: ReflectedInstance, sol1: SolutionQuadruple,
                             inst2: ReflectedInstance, sol2: SolutionQuadruple,
                             p: float, alpha: float, fingerprint: str = "",
                             dg: PredictableProcess = None) -> EstimateReport:
    """Paired-obstacle sup bound on delta Y.  Empirical ratio.  `dg` is the pair's
    delta_driver, built here when not given.  The family of one pair
    (check_obstacle_stability_family)."""
    return check_obstacle_stability_family(lone_pair(inst1, sol1, inst2, sol2, dg), p, alpha,
                                           [fingerprint])[0]


def check_obstacle_stability_family(pairs: PairDifferences, p: float, alpha: float,
                                    fingerprints: list) -> list:
    """check_obstacle_stability_bound of every pair, one report per pair."""
    tree, l_y = pairs.tree, pairs.l_y
    dg_leaf = weighted_sum(tree, l_y, map(np.abs, pairs.dg.values), tree.dt)
    reports = []
    for dy_n, xi_n, ds, dg, fp in zip(
            norm_sp_family(pairs.y, p, alpha), _leaf_norm(tree, np.abs(pairs.xi), p, p),
            sup_power_family(tree, pairs.obstacle.values, p, 2.0 * l_y),
            tree.expectations(dg_leaf**p, tree.n_steps), fingerprints, strict=True):
        lhs = dy_n ** p
        comps = {"xi": xi_n ** p, "ds": ds, "dg": dg}
        rhs = sum(comps.values())
        reports.append(EstimateReport.empirical("obstacle_stability_sup_bound", lhs, rhs, fp,
                                                {"p": p, "alpha": alpha, "components": comps,
                                                 "vacuous": lhs == 0.0 and rhs == 0.0}))
    return reports


def check_cross_term(inst1: ReflectedInstance, sol1: SolutionQuadruple,
                     inst2: ReflectedInstance, sol2: SolutionQuadruple,
                     alpha: float, fingerprint: str = "") -> EstimateReport:
    """Exact flat-off-the-obstacle control of the cross term.

    Node by node, delta Y d(delta K) <= delta S d(delta K), a consequence of
    each solution pushing only on its own contact set; the expectation is then
    dominated by the weighted sup of delta S times the variation of delta K.
    The family of one pair (check_cross_term_family).
    """
    return check_cross_term_family(lone_pair(inst1, sol1, inst2, sol2), alpha, [fingerprint])[0]


def check_cross_term_family(pairs: PairDifferences, alpha: float, fingerprints: list) -> list:
    """check_cross_term of every pair, one report per pair.  Each pair's pathwise defect
    is np.max of 0 and its step maxima, as the lone check takes it, so a signed zero
    keeps its sign."""
    tree = pairs.tree
    steps = range(tree.n_steps)
    w1 = _wr(tree, alpha)
    dy, ddk, ds = pairs.y.values, pairs.dk.values, pairs.obstacle.values
    step_max = np.array([tree.split((dy[k] - ds[k]) * ddk[k]).max(axis=1) for k in steps])
    lhss = tree.expectations(tree.path_scan(w1[k] * dy[k] * ddk[k] for k in steps), tree.n_steps)
    mids = tree.expectations(tree.path_scan(w1[k] * ds[k] * ddk[k] for k in steps), tree.n_steps)
    reports = []
    for maxima, lhs, mid, ds_n, ddk_n, fp in zip(
            step_max.T.tolist(), lhss, mids, norm_sp_family(pairs.obstacle, 2.0, alpha),
            norm_i_family(pairs.dk, 2.0, alpha), fingerprints, strict=True):
        worst, bound = float(np.max([0.0] + maxima)), ds_n * ddk_n
        ok = worst <= 1e-12 and lhs <= mid + 1e-12 and mid <= bound + 1e-9 * max(1.0, abs(bound))
        reports.append(EstimateReport(
            inequality_id="cross_term_contact_set",
            lhs=lhs, rhs=bound, constant_used="exact",
            passed=ok, fingerprint=fp,
            details={"alpha": alpha, "pathwise_defect": worst, "mid": mid},
        ))
    return reports


def check_reflected_stability_p2(inst1: ReflectedInstance, sol1: SolutionQuadruple,
                        inst2: ReflectedInstance, sol2: SolutionQuadruple,
                        alpha: float, fingerprint: str = "",
                        dg: PredictableProcess = None) -> EstimateReport:
    """Quadratic stability bound for reflected pairs.  Empirical constant.  `dg` is the
    pair's delta_driver, built here when not given.  The family of one pair
    (check_reflected_stability_p2_family)."""
    return check_reflected_stability_p2_family(lone_pair(inst1, sol1, inst2, sol2, dg), alpha,
                                               [fingerprint])[0]


def check_reflected_stability_p2_family(pairs: PairDifferences, alpha: float,
                                        fingerprints: list) -> list:
    """check_reflected_stability_p2 of every pair, one report per pair."""
    reports = []
    for y_n, z_n, mk_n, xi_n, ds_n, dg_n, fp in zip(
            norm_h_family(pairs.y, 2.0, alpha), norm_h_family(pairs.z, 2.0, alpha),
            norm_m_family(pairs.mk, 2.0, alpha), _leaf_norm(pairs.tree, np.abs(pairs.xi), 2.0, 2.0),
            norm_sp_family(pairs.obstacle, 2.0, alpha), norm_h_family(pairs.dg, 2.0, alpha),
            fingerprints, strict=True):
        lhs = y_n ** 2 + z_n ** 2 + mk_n ** 2
        comps = {"xi": xi_n ** 2, "ds_sup": ds_n}
        rhs = STABILITY_EPS * dg_n ** 2 + sum(comps.values())
        reports.append(EstimateReport.empirical("reflected_stability_p2", lhs, rhs, fp,
                                                {"alpha": alpha, "eps": STABILITY_EPS,
                                                 "components": comps,
                                                 "vacuous": lhs == 0.0 and rhs == 0.0}))
    return reports


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
    not exceed ITO_P_TOL.  The family of one (check_ito_p_family).
    """
    return check_ito_p_family(x, p, alpha, [fingerprint])[0]


def check_ito_p_family(x: LadlagProcess, p: float, alpha: float, fingerprints: list) -> list:
    """check_ito_p_inequality of each copy of a process on a forest, one report per copy.

    Row j of `rhs` and `star` is the display started at t_j: each step's term is
    built once and added, in increasing k, to the rows it covers, so every row sees
    the operations of its own sum.
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
    worst = np.max([wp[j] * np.abs(val[j]) ** p - rhs[j] for j in range(n + 1)], axis=0)
    return [EstimateReport.exact("pathwise_power_expansion", w, 0.0, ITO_P_TOL, fp,
                                 {"p": p, "alpha": alpha, "worst_defect": w})
            for w, fp in zip(tree.split(worst).max(axis=1).tolist(), fingerprints, strict=True)]


def check_bracket_equivalences(sol: SolutionQuadruple, ps, alpha: float,
                               fingerprint: str = "") -> list:
    """Bracket-norm equivalences and the gradient-integrand martingale property: three
    rows for each p of `ps`, in order.  The family of one (check_bracket_family)."""
    return check_bracket_family(sol, ps, alpha, [fingerprint])


def check_bracket_family(sol: SolutionQuadruple, ps, alpha: float, fingerprints: list) -> list:
    """check_bracket_equivalences of each member of a forest solution, member after
    member.  The per-leaf sums, the increments dL and their E_k do not depend on p, so
    each is built once and read for every p."""
    _require_nondecreasing(sol)
    tree = sol.tree
    t_hor = tree.grid.horizon
    z_leaf, mk_leaf = leaf_h(sol.z, alpha), leaf_m(sol.mk, alpha)
    n_leaf, mzw_leaf = leaf_composite(sol.z, sol.mk, alpha), leaf_composite(sol.z, sol.m, alpha)
    k_leaf = leaf_i(sol.dk, alpha)
    dl = [_dl(sol, k) for k in range(tree.n_steps)]
    dl_cond = [tree.cond_exp(v, k + 1) for k, v in enumerate(dl)]
    dl_sup = sup_abs_copies(tree, dl).tolist()
    rows = [[] for _ in fingerprints]
    for p in ps:
        z_ns, mk_ns, n_ns, mzw_ns = (_powers(_leaf_norm(tree, leaf, p / 2.0, p), p)
                                     for leaf in (z_leaf, mk_leaf, n_leaf, mzw_leaf))
        k_ns = _powers(_leaf_norm(tree, k_leaf, p, p), p)
        phi = [phi_p(y, p) for y in sol.y.values[:tree.n_steps]]
        worsts = sup_abs_copies(tree, map(np.multiply, phi, dl_cond)).tolist()
        phi_sups = sup_abs_copies(tree, phi).tolist()
        c_lo, c_hi = min(1.0, 2.0 ** (p / 2.0 - 1.0)), max(1.0, 2.0 ** (p / 2.0 - 1.0))
        c = max(2.0 ** (p / 2.0), 2.0 ** (p - 1.0))
        prefactor = math.exp(alpha * p * t_hor / 2.0)
        for row, z_n, mk_n, n_n, mzw_n, k_n, worst, phi_sup, dl_s, fp in zip(
                rows, z_ns, mk_ns, n_ns, mzw_ns, k_ns, worsts, phi_sups, dl_sup, fingerprints,
                strict=True):
            lo, hi = c_lo * (z_n + mk_n), c_hi * (z_n + mk_n)
            row.append(EstimateReport(
                inequality_id="bracket_norm_two_sided",
                lhs=lo, rhs=n_n, constant_used=c_lo,
                passed=explicit_pass(lo, n_n) and explicit_pass(n_n, hi),
                fingerprint=fp,
                details={"p": p, "alpha": alpha, "upper": hi, "z": z_n, "mk": mk_n},
            ))
            row.append(EstimateReport.explicit(
                "martingale_part_bracket_bound", mzw_n, c * (n_n + prefactor * k_n), c, fp,
                {"p": p, "alpha": alpha, "prefactor": prefactor}))
            # round-off in the product grows with max|phi_p(Y)| max|dL|, and so does the
            # tolerance, never below 1e-12 and never infinite
            scale = phi_sup * dl_s
            row.append(EstimateReport.exact("gradient_integrand_martingale", worst, 0.0,
                                            1e-12 * (scale if 1.0 < scale < math.inf else 1.0),
                                            fp, {"p": p, "defect": worst}))
    return [r for row in rows for r in row]


def check_burkholder(sol: SolutionQuadruple, p: float, alpha: float,
                     fingerprint: str = "") -> EstimateReport:
    """Moment bound for the weighted integral of Y against the martingale part.  The
    family of one (check_burkholder_family)."""
    return check_burkholder_family(sol, p, alpha, [fingerprint])[0]


def check_burkholder_family(sol: SolutionQuadruple, p: float, alpha: float,
                            fingerprints: list) -> list:
    """check_burkholder of each member of a forest solution, one report per member."""
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
    return [EstimateReport.explicit("martingale_moment_bound", lhs, c * e, c, fp,
                                    {"p": p, "alpha": alpha})
            for lhs, e, fp in zip(tree.expectations(np.abs(star) ** (p / 2.0), tree.n_steps),
                                  tree.expectations(qv ** (p / 4.0), tree.n_steps),
                                  fingerprints, strict=True)]


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
