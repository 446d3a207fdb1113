"""Martingale machinery on scenario trees.

Representation with orthogonal residual, discrete Doob and Mertens
decompositions, jump exhaustion, the Meyer compensator bound, and the exact
discrete Girsanov change of measure with density Pi (1 - eta . dW).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ClassificationError, MeasureChangeError
from .norms import meyer_constant, meyer_constant_ladlag, norm_i_family, norm_sp_family
from .processes import AdaptedProcess, LadlagProcess, PredictableProcess, stochastic_integral
from .reports import EstimateReport
from .tree import ScenarioTree, sup_abs, sup_abs_copies

SUPERMARTINGALE_TOL = 1e-12
MERTENS_DOOB_TOL = 1e-11   # slack on the sign of the compensator increments of X + I


@dataclass
class RepresentationPair:
    """Decomposition N = N_0 + Z*W + M with M orthogonal to the walk."""

    z: PredictableProcess
    m: AdaptedProcess

    def reconstruction_defect(self, n: AdaptedProcess) -> float:
        tree = n.tree
        zw = stochastic_integral(tree, self.z)
        return sup_abs(n.values[0][0] + zw.values[k] + self.m.values[k] - n.values[k]
                       for k in range(tree.n_steps + 1))


def represent_martingale(tree: ScenarioTree, n: AdaptedProcess) -> RepresentationPair:
    """Project a martingale onto the walk: Z_k = E_k[dN dW]/dt, dM = dN - Z.dW.

    Valid because the conditional covariance of dW is exactly dt * I.
    """
    n.require_martingale()
    z_vals = []

    def residual(k):
        dn = n.values[k + 1] - tree.lift(n.values[k], k)
        z_vals.append(tree.cond_exp_dw(dn, k) / tree.dt)
        return dn - tree.dot_dw(z_vals[k], k)

    # consumed step by step, so the residuals never sit in memory all at once
    m = AdaptedProcess(tree, tree.path_scan(map(residual, range(tree.n_steps)), process=True))
    return RepresentationPair(z=PredictableProcess(tree, z_vals), m=m)


def doob_decompose(tree: ScenarioTree, x: AdaptedProcess,
                   supermartingale: bool = False, tol: float = 1e-12):
    """Doob decomposition X = X_0 + M - A with dA_{k+1} = -E_k[dX_{k+1}] predictable.

    Returns (M, A, dA) with M, A adapted and dA the predictable increments.
    In supermartingale mode a negative compensator increment is an error.  On a
    forest each copy is decomposed from its own root.
    """
    da_vals = []
    for k in range(tree.n_steps):
        da = x.values[k] - tree.cond_exp(x.values[k + 1], k + 1)
        if supermartingale and not float(da.min()) >= -tol:
            i = int(da.argmin())
            raise ClassificationError(f"not a supermartingale: E_k[dX] = {-da[i]:.3e} > {tol} "
                                      f"at step {k}, {tree.locate(k, i)}")
        da_vals.append(da)
    a_vals = tree.path_scan(da_vals, process=True)
    m_vals = [np.zeros(tree.n_nodes(0))] + [x.values[k] - tree.from_roots(x.values[0], k)
                                            + a_vals[k] for k in range(1, tree.n_steps + 1)]
    m = AdaptedProcess(tree, m_vals)
    a = AdaptedProcess(tree, a_vals)
    return m, a, PredictableProcess(tree, da_vals)


@dataclass
class MertensDecomposition:
    """X = X_0 + M - A - I with A right-continuous predictable and I left-continuous."""

    x0: np.ndarray             # X_0, one per copy of a forest
    m: AdaptedProcess          # right-continuous martingale, M_0 = 0
    a: AdaptedProcess          # A_k, non-decreasing, A_0 = 0, increments predictable
    da: PredictableProcess
    i: AdaptedProcess          # I_{t_k} = sum_{j<k} (X_{t_j} - X_{t_j+}), left-continuous
    drops: list                # announced right-side drops per step

    def identity_defect(self, x: LadlagProcess) -> float:
        """max defect of X = X_0 + M - A - I over the value, right and left slots."""
        tree = x.tree

        def defects(k):
            x0 = tree.from_roots(self.x0, k)
            v = x0 + self.m.values[k] - self.a.values[k] - self.i.values[k]
            yield v - x.value[k]
            yield v - self.drops[k] - x.right[k]
            if k > 0:
                # left limits: M, A are cadlag (left limit = previous value), I is
                # left-continuous (left limit = current value)
                lm = tree.lift(self.m.values[k - 1], k - 1)
                la = tree.lift(self.a.values[k - 1], k - 1)
                yield x0 + lm - la - self.i.values[k] - x.left[k]

        return sup_abs(d for k in range(tree.n_steps + 1) for d in defects(k))


def check_strong_supermartingale(tree: ScenarioTree, x: LadlagProcess):
    """Discrete strong supermartingale test, each condition to SUPERMARTINGALE_TOL.

    Requires value >= right_limit (announced drop non-negative) and
    right_limit >= E_k[next value] (optional-sampling step across the interval);
    a NaN fails both.  On a forest the error names the copy (member) and its node.
    """
    for k in range(tree.n_steps + 1):
        drop = x.value[k] - x.right[k]
        if not float(drop.min()) >= -SUPERMARTINGALE_TOL:
            i = int(drop.argmin())
            raise ClassificationError(f"value < right_limit by {-drop[i]:.3e} at step {k}, "
                                      f"{tree.locate(k, i)} (slot 'right')")
        if k < tree.n_steps:
            gap = x.right[k] - tree.cond_exp(x.value[k + 1], k + 1)
            if not float(gap.min()) >= -SUPERMARTINGALE_TOL:
                i = int(gap.argmin())
                raise ClassificationError(f"supermartingale step fails by {-gap[i]:.3e} at "
                                          f"step {k}, {tree.locate(k, i)}")


def mertens_decompose(tree: ScenarioTree, x: LadlagProcess) -> MertensDecomposition:
    """Mertens decomposition of a discrete ladlag strong supermartingale.

    I collects the announced right-side drops X_t - X_{t+}; the remaining
    right-continuous part X + I is decomposed by doob_decompose.  The slot-wise
    identity X = X_0 + M - A - I is exact and the output is reproducible
    bit-for-bit for a given input.
    """
    check_strong_supermartingale(tree, x)
    drops = x.right_jumps()
    i = AdaptedProcess(tree, tree.path_scan(drops[:tree.n_steps], process=True))
    u = AdaptedProcess(tree, [x.value[k] + i.values[k] for k in range(tree.n_steps + 1)])
    m, a, da = doob_decompose(tree, u, supermartingale=True, tol=MERTENS_DOOB_TOL)
    return MertensDecomposition(x0=x.value[0], m=m, a=a, da=da, i=i, drops=drops)


def exhaust_jumps(tree: ScenarioTree, x: LadlagProcess, eps: float,
                  n_max: int) -> AdaptedProcess:
    """Increasing process collecting the first n_max right jumps of size >= eps.

    I^{eps,n}_{t_k} sums the drops X_s - X_{s+} over the first n_max stopping
    times s < t_k with drop >= eps.  Monotone in n_max and, as eps decreases,
    stabilizes to the Mertens I on a finite grid.
    """
    if not eps > 0.0:
        raise ValueError(f"threshold must be positive, got {eps}")
    drops = x.right_jumps()[:tree.n_steps]
    big = [~(d < eps) for d in drops]  # a NaN drop is taken, so it shows in I
    # a drop is taken while fewer than n_max earlier ones were big enough
    seen = tree.path_scan(big, process=True)
    taken = (np.where(b & (s < n_max), d, 0.0) for b, s, d in zip(big, seen, drops))
    return AdaptedProcess(tree, tree.path_scan(taken, process=True))


def meyer_bound_family(tree: ScenarioTree, x: LadlagProcess, p: float,
                       fingerprints: list) -> list:
    """Meyer compensator estimate |A|_{I^p} + |I|_{I^p} <= C_p |X|_{S^p}.

    Uses the explicit right-continuous constant C'_p (1 + p/(p-1)) when X has
    no right jumps, and the composed ladlag constant otherwise.  Each copy of a
    process on a forest (`tree`; a lone tree is one copy) is checked in one
    decomposition: one report per copy, in copy order, named by `fingerprints`.
    """
    if p <= 1.0:
        raise ValueError(f"need p > 1, got {p}")
    dec = mertens_decompose(tree, x)
    has_right_jumps = sup_abs_copies(tree, dec.drops) > 0.0
    a_norms = norm_i_family(dec.da, p, 0.0)
    i_norms = norm_i_family(PredictableProcess(tree, dec.drops[:tree.n_steps]), p, 0.0)
    reports = []
    for a_norm, i_norm, x_norm, jumps, fp in zip(a_norms, i_norms, norm_sp_family(x, p),
                                                 has_right_jumps, fingerprints, strict=True):
        c = meyer_constant_ladlag(p) if jumps else meyer_constant(p)
        lhs, rhs = a_norm + i_norm, c * x_norm
        reports.append(EstimateReport.explicit(
            "meyer_compensator_bound", lhs, rhs, c, fp,
            {"a_norm": a_norm, "i_norm": i_norm, "x_norm": x_norm, "p": p,
             "ladlag": bool(jumps)}))
    return reports


@dataclass
class MeasureChange:
    """Doleans-Dade density D_k = Pi_{j<k} (1 - eta_j . dW_{j+1}) and its measure; the
    density is built on first use, since Q-conditional expectations need only the
    one-step factors."""

    tree: ScenarioTree
    eta: PredictableProcess

    @functools.cached_property
    def density(self) -> AdaptedProcess:
        factors = map(self.one_step_factor, range(self.tree.n_steps))
        return AdaptedProcess(self.tree, self.tree.path_scan(
            factors, np.multiply, start=np.ones(self.tree.n_nodes(0)), process=True))

    def one_step_factor(self, k: int) -> np.ndarray:
        """(1 - eta_k . dW_{k+1}) on step-(k+1) nodes."""
        return 1.0 - self.tree.dot_dw(self.eta.values[k], k)

    def cond_exp_q(self, x: np.ndarray, step: int) -> np.ndarray:
        """Q-conditional expectation of a step-`step` value onto step-1 nodes."""
        return self.tree.cond_exp(x, step, weights=self.one_step_factor(step - 1))

    def leaf_probs_q(self) -> np.ndarray:
        n = self.tree.n_steps
        return self.tree.path_prob[n] * self.density.values[n]

    def w_q(self) -> list:
        """Shifted walk W^Q_k = W_k + sum_{j<k} eta_j dt, a Q-martingale."""
        tree = self.tree
        drift = tree.path_scan((v * tree.dt for v in self.eta.values), process=True)
        return [w + s for w, s in zip(tree.w, drift)]


def girsanov_change(tree: ScenarioTree, eta: PredictableProcess) -> MeasureChange:
    """Exact discrete Girsanov change of measure for a bounded predictable eta.

    Requires |eta_k|_1 sqrt(dt) < 1 at every node so every density factor is
    positive for Rademacher increments.
    """
    worst = sup_abs(np.abs(v).sum(axis=1) if v.ndim == 2 else tree.check_integrand(v, k)
                    for k, v in enumerate(eta.values))
    if not worst * np.sqrt(tree.dt) < 1.0:
        raise MeasureChangeError(
            f"positivity fails: max |eta|_1 = {worst} needs dt < {1.0 / worst**2:.3e} "
            f"(current dt = {tree.dt})"
        )
    return MeasureChange(tree=tree, eta=eta)
