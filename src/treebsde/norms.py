"""Weighted path norms on tree processes and the explicit inequality constants.

Discrete transcriptions, with T the horizon and dt the step:
  * S^{p,a}:    E[ sup_k (e^{(a/2) t_k} |Y_k|)^p ]        (all slots for ladlag; S^p at a = 0)
  * H^{p,a}:    E[ ( sum_k e^{a t_{k+1}} |Z_k|^2 dt )^{p/2} ]
  * M^{p,a}:    E[ ( sum_k e^{a t_{k+1}} (dM_{k+1})^2 )^{p/2} ]
  * I^{p,a}:    E[ ( sum_k e^{(a/2) t_{k+1}} |dK_{k+1}| )^p ]
Integral weights sit at the right endpoint of each interval: jumps of M and K
are booked at t_{k+1}, and the same convention is kept for the ds-integrals so
that the assembled inequality constants stay valid in discrete time.  Every
sum is one weighted_sum and every sup one sup_power_family, shared with the
estimates.
Each norm is _leaf_norm of a per-leaf sum that does not depend on p (leaf_h,
leaf_m, leaf_composite, leaf_i), so a check that reads several p builds it once.

Each norm has one form, `*_family`: on a forest (ScenarioTree.forest) it builds its
sums for all copies at once and returns one value per copy, one np.dot per copy and
then Python float arithmetic, so each value has the bits of the copy's own.  A lone
tree is one copy, whose norm is the form's [0].  A norm is kept on its process per
(norm, p, alpha): a process's arrays are not written after a norm of it is read.
"""

from __future__ import annotations

import functools
import math
import operator

import numpy as np

from .processes import AdaptedProcess, LadlagProcess, PredictableProcess
from .tree import ScenarioTree


def _kept(norm):
    """`norm` of a process, computed once per (p, alpha) and kept on the process."""
    @functools.wraps(norm)
    def kept(x, p: float, alpha: float = 0.0) -> list:
        norms, key = vars(x).setdefault("_norms", {}), (norm, p, alpha)
        return list(norms[key] if key in norms else norms.setdefault(key, norm(x, p, alpha)))
    return kept


def _wr(tree: ScenarioTree, alpha: float) -> list:
    """Right-endpoint weights e^{alpha t_{k+1}}, one per interval k."""
    return [math.exp(alpha * tree.grid.times[k + 1]) for k in range(tree.n_steps)]


def _leaf_norm(tree: ScenarioTree, leaf: np.ndarray, power: float, p: float) -> list:
    """Per copy, (E[leaf^power])^{1/p} for a per-leaf path functional."""
    return [e ** (1.0 / p) for e in tree.expectations(leaf**power, tree.n_steps)]


def weighted_sum(tree: ScenarioTree, alpha: float, terms, scale=None) -> np.ndarray:
    """Per-leaf sum_k e^{alpha t_{k+1}} term_k (times `scale` when given), for terms on
    step-k or step-(k+1) nodes; computed as w_k * term_k * scale, weight first.
    `map` keeps no term alive past its product, so a leaf-sized term is freed
    before the next one is built."""
    weigh = operator.mul if scale is None else (lambda w, term: w * term * scale)
    return tree.path_scan(map(weigh, _wr(tree, alpha), terms))


def sup_power_family(tree: ScenarioTree, slots, p: float, alpha: float = 0.0) -> list:
    """Per copy, E[sup_k (e^{(alpha/2) t_k} |slot_k|)^p], with one slot array per step k = 0..n."""
    weighted = map(lambda t, s: np.abs(math.exp(0.5 * alpha * t) * s), tree.grid.times, slots)
    sup = tree.path_scan(weighted, np.maximum, start=next(weighted))
    return tree.expectations(sup**p, tree.n_steps)


@_kept
def norm_sp_family(y, p: float, alpha: float = 0.0) -> list:
    """S^p norm of e^{(alpha/2) t} Y; `y` is adapted or ladlag (value, right and left limit)."""
    slots = ((np.maximum(np.abs(lft), np.maximum(np.abs(v), np.abs(r)))
              for lft, v, r in zip(y.left, y.value, y.right))
             if isinstance(y, LadlagProcess) else y.values)
    return [e ** (1.0 / p) for e in sup_power_family(y.tree, slots, p, alpha)]


def _sq(v: np.ndarray) -> np.ndarray:
    """|v|^2 per node for scalar or vector entries."""
    return np.einsum("ni,ni->n", v, v) if v.ndim == 2 else v * v


def leaf_h(z: AdaptedProcess | PredictableProcess, alpha: float) -> np.ndarray:
    """Per-leaf sum_k e^{alpha t_{k+1}} |Z_k|^2 dt over the steps k < n."""
    tree = z.tree
    return weighted_sum(tree, alpha, map(_sq, z.values[:tree.n_steps]), tree.dt)


@_kept
def norm_h_family(z: AdaptedProcess | PredictableProcess, p: float, alpha: float) -> list:
    """H^{p,alpha} norm of a (scalar or vector) integrand held on [t_k, t_{k+1});
    reads steps k < n."""
    return _leaf_norm(z.tree, leaf_h(z, alpha), p / 2.0, p)


def leaf_m(m: AdaptedProcess, alpha: float) -> np.ndarray:
    """Per-leaf bracket sum_k e^{alpha t_{k+1}} (dM_{k+1})^2."""
    return weighted_sum(m.tree, alpha, (inc**2 for inc in m.increments()))


@_kept
def norm_m_family(m: AdaptedProcess, p: float, alpha: float) -> list:
    """M^{p,alpha} norm of a martingale via its pure-jump bracket sum (dM)^2."""
    return _leaf_norm(m.tree, leaf_m(m, alpha), p / 2.0, p)


def leaf_composite(z: PredictableProcess, fv: AdaptedProcess, alpha: float) -> np.ndarray:
    """Per-leaf bracket of N = Z*W + fv: sum_k e^{alpha t_{k+1}} (|Z_k|^2 dt + (d fv)^2)."""
    tree = z.tree
    return weighted_sum(tree, alpha, (tree.lift(_sq(z.values[k]), k) * tree.dt + inc**2
                                      for k, inc in enumerate(fv.increments())))


def norm_m_composite_family(z: PredictableProcess, fv: AdaptedProcess, p: float,
                            alpha: float) -> list:
    """M^{p,alpha} norm of N = Z*W + (orthogonal part), with bracket
    d[N] = |Z|^2 dt + (d fv)^2.  Orthogonality of the walk and the residual
    makes this the correct bracket decomposition on the tree."""
    return _leaf_norm(z.tree, leaf_composite(z, fv, alpha), p / 2.0, p)


def leaf_i(k_inc: PredictableProcess, alpha: float) -> np.ndarray:
    """Per-leaf variation sum_k e^{(alpha/2) t_{k+1}} |dK_{k+1}|."""
    return weighted_sum(k_inc.tree, 0.5 * alpha, map(np.abs, k_inc.values))


@_kept
def norm_i_family(k_inc: PredictableProcess, p: float, alpha: float) -> list:
    """I^{p,alpha} norm: total-variation sum weighted by e^{(alpha/2) s}."""
    return _leaf_norm(k_inc.tree, leaf_i(k_inc, alpha), p, p)


# -- pointwise functions and explicit constants -------------------------------

def phi_p(y, p: float):
    """|y|^{p-1} sgn(y) 1_{y != 0}."""
    if p <= 1.0:
        raise ValueError(f"phi_p needs p > 1, got {p}")
    y = np.asarray(y, dtype=float)
    out = np.where(y == 0.0, 0.0, np.abs(y) ** (p - 1.0) * np.sign(y))
    return float(out) if out.ndim == 0 else out


def power_sum_bounds(values, ell: float) -> tuple:
    """((1 ^ n^{l-1}) sum a_i^l, (sum a_i)^l, (1 v n^{l-1}) sum a_i^l)."""
    a = np.asarray(values, dtype=float)
    if np.any(a <= 0.0):
        raise ValueError("power_sum_bounds needs strictly positive entries")
    if ell <= 0.0:
        raise ValueError(f"exponent must be positive, got {ell}")
    n = a.size
    s = float(np.sum(a**ell))
    lower = min(1.0, n ** (ell - 1.0)) * s
    middle = float(np.sum(a)) ** ell
    upper = max(1.0, n ** (ell - 1.0)) * s
    assert lower <= middle * (1 + 1e-12) and middle <= upper * (1 + 1e-12)
    return lower, middle, upper


def young_bound(a: float, b: float, beta: float, p: float) -> tuple:
    """(ab, beta a^p + b^q / (q (beta p)^{q/p})) with 1/p + 1/q = 1; lhs <= rhs."""
    if a < 0.0 or b < 0.0 or beta <= 0.0 or p <= 1.0:
        raise ValueError("young_bound needs a, b >= 0, beta > 0, p > 1")
    q = p / (p - 1.0)
    lhs = a * b
    rhs = beta * a**p + b**q / (q * (beta * p) ** (q / p))
    assert lhs <= rhs * (1 + 1e-12) + 1e-300
    return lhs, rhs


def burkholder_constant(p: float) -> float:
    """(p/2 v p/(p-2) - 1)^p for p > 2, and 2 for p = 2.

    The ambiguous precedence is resolved as (max(p/2, p/(p-2) - 1))^p; see
    burkholder_constant_alt for the other parse.
    """
    if p < 2.0:
        raise ValueError(f"constant defined for p >= 2, got {p}")
    if p == 2.0:
        return 2.0
    return max(p / 2.0, p / (p - 2.0) - 1.0) ** p


def burkholder_constant_alt(p: float) -> float:
    """Alternative parse max(p/2, p/(p-2)) - 1, then ^p; reported when it differs."""
    if p <= 2.0:
        raise ValueError(f"alternative parse only differs for p > 2, got {p}")
    return (max(p / 2.0, p / (p - 2.0)) - 1.0) ** p


def meyer_c_prime(p: float) -> float:
    """Explicit constant in Meyer's supermartingale estimate.

    (p^2/(p-1))^{1/(p-1)} for p in (1, 2]; for p > 2 the minimum over integer
    k in [2, p) of (p prod_{j=2}^k pj/(p-j))^{k/(p-1)}.
    """
    if p <= 1.0:
        raise ValueError(f"need p > 1, got {p}")
    if p <= 2.0:
        return (p * p / (p - 1.0)) ** (1.0 / (p - 1.0))
    best = math.inf
    for k in range(2, math.ceil(p)):
        prod = p
        for j in range(2, k + 1):
            prod *= p * j / (p - j)
        best = min(best, prod ** (k / (p - 1.0)))
    return best


def meyer_constant(p: float) -> float:
    """Bound constant for right-continuous strong supermartingales: C'_p (1 + p/(p-1))."""
    return meyer_c_prime(p) * (1.0 + p / (p - 1.0))


def meyer_constant_ladlag(p: float) -> float:
    """Composed bound constant for ladlag strong supermartingales.

    With C''_p = C'_p (1 + p/(p-1)): the compensator part is bounded by
    C''_p (1 + C''_p) and the left-continuous part by C''_p (1 + p/(p-1));
    the sum bounds |A|_{I^p} + |I|_{I^p}.
    """
    cpp = meyer_constant(p)
    return cpp * (1.0 + cpp) + cpp * (1.0 + p / (p - 1.0))
