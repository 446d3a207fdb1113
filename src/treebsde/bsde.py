"""Backward induction solver for plain BSDEs on scenario trees.

The dynamics solved are
    Y_k = Y_{k+1} - g_k(y, Z_k) dt - Z_k . dW_{k+1} - dM_{k+1} + dK_{k+1},
with Z extracted by exact projection on the walk increments and M the
orthogonal residual.  K is identically zero here; the reflected solver books
its increments through the same quadruple container.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import GeneratorContractError, PicardDivergenceError, StepSizeError
from .martingales import girsanov_change
from .processes import AdaptedProcess, PredictableProcess, stochastic_integral
from .tree import ScenarioTree, sup_abs

IMPLICIT_TOL = 1e-13
IMPLICIT_MAX_ITER = 200
LIPSCHITZ_PROBES = 64
LIPSCHITZ_SEED = 0
LIPSCHITZ_SLACK = 1e-9
LIPSCHITZ_STACK = 4096  # widest step (in nodes) whose probes share one driver call


@dataclass
class Generator:
    """Driver g(step, node, y, z) with declared Lipschitz constants.

    `fn(k, y, z)` is called on the driver steps k = 0..n-1 only and must be
    vectorized over step-k nodes, with any leading axes: y has shape
    (..., n_k), z has shape (..., n_k, d), and the result has shape (..., n_k).
    """

    fn: Callable[[int, np.ndarray, np.ndarray], np.ndarray]
    l_y: float
    l_z: float
    name: str = "generator"

    def __call__(self, k: int, y: np.ndarray, z: np.ndarray) -> np.ndarray:
        return np.asarray(self.fn(k, y, z), dtype=float)

    def g0(self, tree: ScenarioTree, k: int) -> np.ndarray:
        n = tree.n_nodes(k)
        return self(k, np.zeros(n), np.zeros((n, tree.d)))

    def g0_process(self, tree: ScenarioTree) -> PredictableProcess:
        """g(k, 0, 0) on the driver steps k = 0..n-1, the only ones the norms read."""
        return PredictableProcess(tree, [self.g0(tree, k) for k in range(tree.n_steps)])

    def along(self, y: AdaptedProcess, z: PredictableProcess) -> PredictableProcess:
        """g(k, Y_k, Z_k) on the driver steps k = 0..n-1: the driver along a solution."""
        return PredictableProcess(y.tree, [self(k, y.values[k], z.values[k])
                                           for k in range(y.tree.n_steps)])


@dataclass
class AffineGenerator(Generator):
    """g = g0 + lam * y + eta . z with |lam| <= L_y and |eta| <= L_z."""

    lam: float = 0.0
    eta: np.ndarray = None

    @classmethod
    def build(cls, tree: ScenarioTree, lam: float, eta, g0_fn=None):
        eta = np.zeros(tree.d) if eta is None else np.asarray(eta, dtype=float)
        g0_fn = g0_fn or (lambda k, n: np.zeros(n))

        def fn(k, y, z):
            return g0_fn(k, y.shape[-1]) + lam * y + z @ eta

        return cls(fn=fn, l_y=abs(lam), l_z=float(np.linalg.norm(eta)), name="affine",
                   lam=lam, eta=eta)


def _probe_excess(gen: Generator, k: int, n: int, draw: np.ndarray) -> float:
    """Worst Lipschitz excess of the step-k probes in `draw`, which holds y, y2, z, z2
    one after another on its last axis; leading axes stack probes into one call pair."""
    lead, d = draw.shape[:-1], draw.shape[-1] // (2 * n) - 1
    y, y2 = draw[..., :n], draw[..., n:2 * n]
    z = draw[..., 2 * n:(2 + d) * n].reshape(lead + (n, d))
    z2 = draw[..., (2 + d) * n:].reshape(lead + (n, d))
    g, g2 = gen(k, y, z), gen(k, y2, z2)
    for out in (g, g2):
        if out.shape != y.shape:
            raise GeneratorContractError(
                f"{gen.name}: step {k}: y {y.shape} and z {z.shape} gave a driver value of "
                f"shape {out.shape}; leading axes must be kept")
        if not np.isfinite(out).all():
            raise GeneratorContractError(f"{gen.name}: step {k}: non-finite driver value")
    lhs = np.abs(g - g2)
    bound = gen.l_y * np.abs(y - y2) + gen.l_z * np.linalg.norm(z - z2, axis=-1)
    excess = float((lhs - bound).max())
    if not math.isfinite(excess):
        raise GeneratorContractError(f"{gen.name}: step {k}: non-finite Lipschitz excess {excess}")
    return excess


def check_lipschitz(gen: Generator, tree: ScenarioTree) -> float:
    """Spot-check the declared Lipschitz constants with LIPSCHITZ_PROBES seeded
    random probes.

    Probes of one step at most LIPSCHITZ_STACK nodes wide are stacked on a
    leading axis and evaluated with one pair of driver calls; wider steps get
    one pair per probe.  Returns the worst excess; raises GeneratorContractError
    beyond the slack, on a non-finite driver value and on a driver that drops
    the leading axes.
    """
    rng = np.random.default_rng(LIPSCHITZ_SEED)
    stacks = {}
    worst = 0.0
    for _ in range(LIPSCHITZ_PROBES):
        k = int(rng.integers(0, tree.n_steps))
        n = tree.n_nodes(k)
        # y, y2, z, z2: the same samples as four calls, since normal() keeps no state
        draw = rng.normal(size=(2 + 2 * tree.d) * n)
        draw *= 3
        if n > LIPSCHITZ_STACK:
            worst = max(worst, _probe_excess(gen, k, n, draw))
        else:
            stacks.setdefault(k, []).append(draw)
    for k, draws in stacks.items():
        worst = max(worst, _probe_excess(gen, k, tree.n_nodes(k), np.stack(draws)))
    if worst > LIPSCHITZ_SLACK:
        raise GeneratorContractError(
            f"{gen.name}: Lipschitz excess {worst:.3e} beyond declared (L_y={gen.l_y}, L_z={gen.l_z})"
        )
    return worst


def require_finite(what: str, arrays, first_step: int = 0):
    """ValueError naming the first step and node of `arrays` (one per step from
    `first_step` on) that holds a non-finite value."""
    for k, a in enumerate(arrays, first_step):
        finite = np.isfinite(a)
        if not finite.all():
            i = int(finite.argmin())
            raise ValueError(f"{what} is not finite at step {k}, node {i} ({float(a[i])})")


@dataclass(frozen=True)
class BsdeInstance:
    """Terminal condition and driver on one tree.  Binding them checks the
    driver's contract once (dt * L_y < 1, check_lipschitz); solvers trust it."""

    tree: ScenarioTree
    xi: np.ndarray
    gen: Generator

    def __post_init__(self):
        object.__setattr__(self, "xi", np.asarray(self.xi, dtype=float))
        if self.xi.shape[0] != self.tree.n_nodes(self.tree.n_steps):
            raise ValueError("terminal condition is not measurable at the terminal partition")
        require_finite("terminal condition", [self.xi], self.tree.n_steps)
        if self.tree.dt * self.gen.l_y >= 1.0:
            raise StepSizeError(f"dt * L_y = {self.tree.dt * self.gen.l_y:.3f} >= 1; "
                                "refine the grid or relax the driver")
        check_lipschitz(self.gen, self.tree)


@dataclass
class SolutionQuadruple:
    """(Y, Z, M, K) with K stored through its predictable increments; K and M - K
    are built once, on first use."""

    tree: ScenarioTree
    y: AdaptedProcess
    z: PredictableProcess
    m: AdaptedProcess
    dk: PredictableProcess
    scheme: str = "implicit"

    @functools.cached_property
    def k(self) -> AdaptedProcess:
        return self.dk.cumulative()

    @functools.cached_property
    def mk(self) -> AdaptedProcess:
        return self.m - self.k

    def n_process(self) -> AdaptedProcess:
        """N = Z*W + M - K."""
        zw = stochastic_integral(self.tree, self.z)
        return zw + self.m - self.k

    def dynamics_residual(self, gen: Generator) -> float:
        """Max pathwise defect of the backward dynamics under the solve scheme."""
        tree = self.tree
        dt = tree.dt

        def defect(k):
            y_in = self.y.values[k] if self.scheme == "implicit" else tree.cond_exp(self.y.values[k + 1], k + 1)
            g = gen(k, y_in, self.z.values[k])
            dm = self.m.values[k + 1] - tree.lift(self.m.values[k], k)
            rhs = (self.y.values[k + 1] - tree.lift(g, k) * dt - tree.dot_dw(self.z.values[k], k)
                   - dm + tree.lift(self.dk.values[k], k))
            return rhs - tree.lift(self.y.values[k], k)

        return sup_abs(map(defect, range(tree.n_steps)))

    def orthogonality_defect(self) -> float:
        return sup_abs(self.tree.cond_exp_dw(dm, k) for k, dm in enumerate(self.m.increments()))


def _project(tree: ScenarioTree, y_next: np.ndarray, k: int):
    """(E_k[Y_{k+1}], Z_k, dM_{k+1}) by exact projection on the walk increments."""
    ey = tree.cond_exp(y_next, k + 1)
    z_k = tree.cond_exp_dw(y_next, k) / tree.dt
    dm = y_next - tree.lift(ey, k) - tree.dot_dw(z_k, k)
    return ey, z_k, dm


def _implicit_step(gen: Generator, k: int, target: np.ndarray, z_k: np.ndarray,
                   dt: float, obstacle: Optional[np.ndarray] = None) -> np.ndarray:
    """Solve y = clip(target - g(y, z) dt) to IMPLICIT_TOL by Picard iteration;
    a non-finite iterate stops it at once."""
    y = target.copy()
    for _ in range(IMPLICIT_MAX_ITER):
        y_new = target - gen(k, y, z_k) * dt
        if obstacle is not None:
            y_new = np.maximum(obstacle, y_new)
        defect = float(np.abs(y_new - y).max())
        if not math.isfinite(defect):
            raise PicardDivergenceError(f"step {k}: non-finite inner iterate at node "
                                        f"{int(np.abs(y_new - y).argmax())} ({gen.name})")
        y = y_new
        if defect <= IMPLICIT_TOL:
            return y
    raise PicardDivergenceError(
        f"step {k}: inner fixed point not converged after {IMPLICIT_MAX_ITER} iterations "
        f"(last defect {defect:.3e}, contraction factor dt*L_y = {dt * gen.l_y:.3f})"
    )


def _quadruple(tree: ScenarioTree, y_vals: list, z_vals: list, dm_vals: list,
               dk_vals: list = None, scheme: str = "implicit") -> SolutionQuadruple:
    """Assemble (Y, Z, M, K) from per-step arrays; M is the running sum of dM."""
    if dk_vals is None:
        dk_vals = [np.zeros(tree.n_nodes(k)) for k in range(tree.n_steps)]
    return SolutionQuadruple(
        tree=tree,
        y=AdaptedProcess(tree, y_vals),
        z=PredictableProcess(tree, z_vals),
        m=AdaptedProcess(tree, tree.path_scan(dm_vals, process=True)),
        dk=PredictableProcess(tree, dk_vals),
        scheme=scheme,
    )


def _backward_sweep(tree: ScenarioTree, xi: np.ndarray, gen: Generator, scheme: str,
                    obstacle: list = None) -> SolutionQuadruple:
    """Backward induction for the plain (no obstacle) and the reflected equation.

    With an obstacle S, Y_k = max(S_k, y~_k) where y~_k is the unconstrained
    step, and the push is dK_{k+1} = Y_k - y~_k >= 0.  Without one, dK stays
    exactly zero.
    """
    if scheme not in ("explicit", "implicit"):
        raise ValueError(f"unknown scheme {scheme!r}")
    n, dt = tree.n_steps, tree.dt
    y_vals = [None] * (n + 1)
    y_vals[n] = xi.copy() if obstacle is None else np.maximum(xi, obstacle[n])
    z_vals, dm_vals = [None] * n, [None] * n
    dk_vals = None if obstacle is None else [None] * n
    for k in range(n - 1, -1, -1):
        ey, z_vals[k], dm_vals[k] = _project(tree, y_vals[k + 1], k)
        s_k = None if obstacle is None else obstacle[k]
        if scheme == "explicit":
            y_tilde = ey - gen(k, ey, z_vals[k]) * dt
            y_vals[k] = y_tilde if s_k is None else np.maximum(s_k, y_tilde)
        else:
            y_vals[k] = _implicit_step(gen, k, ey, z_vals[k], dt, obstacle=s_k)
            if s_k is not None:
                y_tilde = ey - gen(k, y_vals[k], z_vals[k]) * dt
        if s_k is not None:
            dk_vals[k] = y_vals[k] - y_tilde
    return _quadruple(tree, y_vals, z_vals, dm_vals, dk_vals, scheme)


def solve_bsde(instance: BsdeInstance, scheme: str = "implicit") -> SolutionQuadruple:
    """Solve the plain BSDE (K = 0) by backward induction."""
    return _backward_sweep(instance.tree, instance.xi, instance.gen, scheme)


def solve_linear_bsde(instance: BsdeInstance) -> SolutionQuadruple:
    """Closed-form route for affine drivers via discount + change of measure.

    Uses the exact discrete representation X_t Y_t = E^Q_t[X_T xi - sum X g0 dt]
    with discrete discount X_{k+1} = X_k / (1 + lam dt) and the Doleans-Dade
    density from girsanov_change.  Agrees with solve_bsde(implicit) to within
    the inner fixed-point tolerance.
    """
    tree, gen = instance.tree, instance.gen
    if not isinstance(gen, AffineGenerator):
        raise TypeError("solve_linear_bsde needs an AffineGenerator")
    dt = tree.dt
    lam, eta = gen.lam, gen.eta
    eta_pred = PredictableProcess(
        tree, [np.tile(eta, (tree.n_nodes(k), 1)) for k in range(tree.n_steps)])
    mc = girsanov_change(tree, eta_pred)

    disc = [(1.0 + lam * dt) ** (-k) for k in range(tree.n_steps + 1)]
    u = disc[tree.n_steps] * instance.xi
    u_vals = [None] * (tree.n_steps + 1)
    u_vals[tree.n_steps] = u
    for k in range(tree.n_steps - 1, -1, -1):
        u = mc.cond_exp_q(u_vals[k + 1], k + 1) - disc[k + 1] * gen.g0(tree, k) * dt
        u_vals[k] = u
    y_vals = [u_vals[k] / disc[k] for k in range(tree.n_steps + 1)]
    _, z_vals, dm_vals = zip(*(_project(tree, y_vals[k + 1], k) for k in range(tree.n_steps)))
    return _quadruple(tree, y_vals, list(z_vals), list(dm_vals))

