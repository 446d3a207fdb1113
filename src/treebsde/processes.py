"""Adapted, predictable and ladlag process containers on a scenario tree.

Storage conventions:
  * AdaptedProcess: one value per (step, node); measurability is structural.
  * PredictableProcess: the value acting on the interval (t_k, t_{k+1}] is
    stored on the step-k node, which makes sibling-constancy structural.
  * LadlagProcess: (value, right_limit) per (step, node); paths are constant
    on open intervals, so the left limit at t_{k+1} is the right limit at t_k.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NotAMartingaleError
from .tree import ScenarioTree


def _as_step_arrays(tree: ScenarioTree, values, n_entries: int) -> list:
    out = []
    for k, v in enumerate(values):
        a = np.asarray(v, dtype=float)
        if a.shape[0] != tree.n_nodes(k):
            raise ValueError(f"step {k}: got {a.shape[0]} values for {tree.n_nodes(k)} nodes")
        out.append(a)
    if len(out) != n_entries:
        raise ValueError(f"expected {n_entries} step arrays, got {len(out)}")
    return out


def _pairs(a, b):
    if a.tree is not b.tree:
        raise ValueError("process arithmetic needs two processes on the same tree")
    return zip(a.values, b.values)


@dataclass
class AdaptedProcess:
    """Node-indexed process: values[k] holds one entry per step-k node."""

    tree: ScenarioTree
    values: list

    def __post_init__(self):
        self.values = _as_step_arrays(self.tree, self.values, self.tree.n_steps + 1)

    @classmethod
    def constant(cls, tree: ScenarioTree, c: float) -> "AdaptedProcess":
        return cls(tree, [np.full(tree.n_nodes(k), float(c)) for k in range(tree.n_steps + 1)])

    @classmethod
    def from_terminal(cls, tree: ScenarioTree, xi: np.ndarray) -> "AdaptedProcess":
        """Closed martingale E_t[xi] built by backward conditional expectation."""
        vals = [None] * (tree.n_steps + 1)
        vals[tree.n_steps] = np.asarray(xi, dtype=float)
        for k in range(tree.n_steps, 0, -1):
            vals[k - 1] = tree.cond_exp(vals[k], k)
        return cls(tree, vals)

    def __add__(self, other):
        return AdaptedProcess(self.tree, [a + b for a, b in _pairs(self, other)])

    def __sub__(self, other):
        return AdaptedProcess(self.tree, [a - b for a, b in _pairs(self, other)])

    def increments(self) -> list:
        """List of n_steps arrays: X_{k+1} - X_k lifted onto step-(k+1) nodes."""
        return [self.values[k + 1] - self.tree.lift(self.values[k], k)
                for k in range(self.tree.n_steps)]

    def martingale_defect(self) -> tuple:
        """(max |E_k[dX_{k+1}]|, step, node) over all nodes; the first NaN wins."""
        worst, ws, wn = 0.0, -1, -1
        for k in range(self.tree.n_steps):
            e = self.tree.cond_exp(self.values[k + 1], k + 1) - self.values[k]
            i = int(np.abs(e).argmax())
            if not abs(e[i]) <= worst:
                worst, ws, wn = abs(float(e[i])), k, i
                if math.isnan(worst):
                    break
        return worst, ws, wn

    def require_martingale(self, tol: float = 1e-12):
        defect, step, node = self.martingale_defect()
        if not defect <= tol:
            raise NotAMartingaleError(
                f"martingale defect {defect:.3e} > {tol} at step {step}, node {node}",
                step=step, node=node, defect=defect,
            )


@dataclass
class PredictableProcess:
    """Process acting on (t_k, t_{k+1}], stored on the step-k node (k = 0..n-1).

    Entries may be scalar (shape (n_k,)) or vector valued (shape (n_k, d)).
    """

    tree: ScenarioTree
    values: list

    def __post_init__(self):
        self.values = _as_step_arrays(self.tree, self.values, self.tree.n_steps)

    @classmethod
    def zeros(cls, tree: ScenarioTree, d: int = 0) -> "PredictableProcess":
        shape = (lambda n: (n,)) if d == 0 else (lambda n: (n, d))
        return cls(tree, [np.zeros(shape(tree.n_nodes(k))) for k in range(tree.n_steps)])

    def __sub__(self, other):
        return PredictableProcess(self.tree, [a - b for a, b in _pairs(self, other)])

    def cumulative(self) -> AdaptedProcess:
        """Running sum booked at the right endpoint: A_0 = 0, A_{k+1} = A_k + dA_{k+1}."""
        return AdaptedProcess(self.tree, self.tree.path_scan(self.values, process=True))


def split_process(x, tree: ScenarioTree) -> list:
    """The process of each copy of `tree` in x's forest, in copy order: x's type on
    `tree`, with row views of x's arrays (ScenarioTree.split)."""
    return [type(x)(tree, list(rows)) for rows in zip(*map(x.tree.split, x.values))]


def stochastic_integral(tree: ScenarioTree, z: PredictableProcess) -> AdaptedProcess:
    """(Z * W)_k = sum_{j<k} Z_j . dW_{j+1}, an exact martingale on the tree."""
    incs = (tree.dot_dw(v, k) for k, v in enumerate(z.values))
    return AdaptedProcess(tree, tree.path_scan(incs, process=True))


@dataclass
class LadlagProcess:
    """Two-slot process: (value, right_limit) per (step, node).  Paths are
    constant on the open intervals, so the left limit is derived, never stored."""

    tree: ScenarioTree
    value: list
    right: list

    def __post_init__(self):
        n = self.tree.n_steps + 1
        self.value = _as_step_arrays(self.tree, self.value, n)
        self.right = _as_step_arrays(self.tree, self.right, n)

    @functools.cached_property
    def left(self) -> list:
        """Left limits: left(0) = value(0) and left(k+1) = right(k) lifted."""
        return [self.value[0]] + [self.tree.lift(r, k) for k, r in enumerate(self.right[:-1])]

    @classmethod
    def from_cadlag(cls, x: AdaptedProcess) -> "LadlagProcess":
        """Cadlag embedding: right_limit = value, so left_limit(k) = value(k-1)."""
        return cls(x.tree, [v.copy() for v in x.values], [v.copy() for v in x.values])

    def right_jumps(self) -> list:
        """Announced drops value - right_limit at each step."""
        return [self.value[k] - self.right[k] for k in range(self.tree.n_steps + 1)]
