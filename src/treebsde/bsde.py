"""Backward induction solver for plain BSDEs on scenario trees.

The dynamics solved are
    Y_k = Y_{k+1} - g_k(y, Z_k) dt - Z_k . dW_{k+1} - dM_{k+1} + dK_{k+1},
with Z extracted by exact projection on the walk increments and M the
orthogonal residual.  K is identically zero here; the reflected solver books
its increments through the same quadruple container.
"""

from __future__ import annotations

import functools
import itertools
import math
import weakref
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import GeneratorContractError, PicardDivergenceError, StepSizeError
from .martingales import girsanov_change
from .processes import AdaptedProcess, PredictableProcess, split_process
from .tree import ScenarioTree, sup_abs

IMPLICIT_TOL = 1e-13
IMPLICIT_MAX_ITER = 200
LIPSCHITZ_PROBES = 64
LIPSCHITZ_SEED = 0
LIPSCHITZ_SLACK = 1e-9
ROUND_OFF_ULPS = 4  # round-off allowed beyond an absolute tolerance, in ulps of the values
LIPSCHITZ_STACK = 4096  # widest step (in nodes) whose probes share one driver call


@dataclass
class Generator:
    """Driver g(step, node, y, z) with declared Lipschitz constants.

    `fn(k, y, z)` is called on the driver steps k = 0..n-1 only and must be
    vectorized over step-k nodes, with any leading axes: y has shape
    (..., n_k), z has shape (..., n_k, d), and the result has shape (..., n_k).

    A family of B drivers with the same constants is one Generator whose
    `members` are its B member drivers and whose `fn` evaluates them all at
    once: y has shape (..., B, n_k) and z (..., B, n_k, d), the member axis
    last among the leading axes, and row i of the result is member i's value.
    """

    fn: Callable[[int, np.ndarray, np.ndarray], np.ndarray]
    l_y: float
    l_z: float
    name: str = "generator"
    members: tuple = field(default=(), repr=False)

    def __call__(self, k: int, y: np.ndarray, z: np.ndarray) -> np.ndarray:
        return np.asarray(self.fn(k, y, z), dtype=float)

    @property
    def family(self) -> tuple:
        """The member drivers: `members`, or the driver itself for a lone driver, which
        the solvers call on a member axis of length one."""
        return self.members or (self,)

    def g0_process(self, tree: ScenarioTree) -> PredictableProcess:
        """g(k, 0, 0) on the driver steps k = 0..n-1, the only ones the norms read, on
        tree.forest(len(self.family)): one driver call per step for a whole family."""
        forest = tree.forest(len(self.family))
        return PredictableProcess(forest, [_drive(self, forest, k, np.zeros(forest.n_nodes(k)),
                                                  np.zeros((forest.n_nodes(k), tree.d)))
                                           for k in range(tree.n_steps)])

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


def _probe_excess(gen: Generator, k: int, n: int, draw: np.ndarray) -> tuple:
    """Worst Lipschitz excess of the step-k probes in `draw`, one per member of
    gen.family, and whether a probe of the member exceeds LIPSCHITZ_SLACK plus
    ROUND_OFF_ULPS ulps of its largest |g|, so that round-off in a large driver value
    is no breach.  `draw` holds y, y2, z, z2 one after another on its last axis;
    leading axes stack probes into one call pair.  The members see the same probes
    through a member axis of length one."""
    lead, d = draw.shape[:-1], draw.shape[-1] // (2 * n) - 1
    family = gen.family
    y, y2 = draw[..., None, :n], draw[..., None, n:2 * n]
    z = draw[..., 2 * n:(2 + d) * n].reshape(lead + (1, n, d))
    z2 = draw[..., (2 + d) * n:].reshape(lead + (1, n, d))
    g, g2 = gen(k, y, z), gen(k, y2, z2)
    for out in (g, g2):
        if out.shape != lead + (len(family), n):
            raise GeneratorContractError(
                f"{gen.name}: step {k}: y {y.shape} and z {z.shape} gave a driver value of "
                f"shape {out.shape}; leading axes must be kept")
        finite = np.isfinite(out).reshape(-1, len(family), n).all(axis=(0, 2))
        if not finite.all():
            raise GeneratorContractError(f"{family[finite.argmin()].name}: step {k}: "
                                         "non-finite driver value")
    lhs = np.abs(g - g2)
    bound = gen.l_y * np.abs(y - y2) + gen.l_z * np.linalg.norm(z - z2, axis=-1)
    per_probe = (lhs - bound).reshape(-1, len(family), n).max(axis=2)
    excess = per_probe.max(axis=0)
    finite = np.isfinite(excess)
    if not finite.all():
        i = int(finite.argmin())
        raise GeneratorContractError(
            f"{family[i].name}: step {k}: non-finite Lipschitz excess {excess[i]}")
    over = per_probe > LIPSCHITZ_SLACK
    if over.any():  # only then is |g| read, so a passing probe costs nothing more
        g_max = np.maximum(*(np.abs(out).reshape(-1, len(family), n).max(axis=2)
                             for out in (g, g2)))
        over &= per_probe > LIPSCHITZ_SLACK + ROUND_OFF_ULPS * np.spacing(g_max)
    return excess, over.any(axis=0)


_PROBES = weakref.WeakKeyDictionary()  # tree -> (stacked narrow draws per step, wide states)


def _probe_draws(tree: ScenarioTree):
    """The LIPSCHITZ_PROBES seeded probes of `tree` as (step, draw) pairs.

    A probe draws y, y2, z, z2 in one normal() call, the same samples as four
    calls since normal() keeps no state.  The probes of one step at most
    LIPSCHITZ_STACK nodes wide come stacked on a leading axis, in one pair per
    step; they are drawn once per tree and kept with it.  A wider probe comes
    alone and is never kept: later checks redraw it from the generator state
    recorded before it.
    """
    cached = _PROBES.get(tree)
    if cached is not None:
        stacks, wide = cached
        for k, state in wide:
            rng = np.random.default_rng(LIPSCHITZ_SEED)
            rng.bit_generator.state = state
            yield k, _draw(rng, tree, k)
        yield from stacks.items()
        return
    rng = np.random.default_rng(LIPSCHITZ_SEED)
    stacks, wide = {}, []
    for _ in range(LIPSCHITZ_PROBES):
        k = int(rng.integers(0, tree.n_steps))
        if tree.n_nodes(k) > LIPSCHITZ_STACK:
            wide.append((k, rng.bit_generator.state))
            yield k, _draw(rng, tree, k)
        else:
            stacks.setdefault(k, []).append(_draw(rng, tree, k))
    stacks = {k: np.stack(draws) for k, draws in stacks.items()}
    _PROBES[tree] = stacks, wide
    yield from stacks.items()


def _draw(rng: np.random.Generator, tree: ScenarioTree, k: int) -> np.ndarray:
    draw = rng.normal(size=(2 + 2 * tree.d) * tree.n_nodes(k))
    draw *= 3
    return draw


def check_lipschitz(gen: Generator, tree: ScenarioTree):
    """Spot-check the declared Lipschitz constants on the LIPSCHITZ_PROBES seeded
    probes of the tree (see _probe_draws), with one pair of driver calls per
    probed step, or per probe on steps wider than LIPSCHITZ_STACK nodes.

    Returns the worst excess, one per member for a family, whose members share
    each call pair.  Raises GeneratorContractError naming the driver (the first
    offending member of a family) beyond the slack and round-off (_probe_excess),
    on a non-finite driver value and on a driver that drops the leading axes.
    """
    worst, over = np.zeros(len(gen.family)), np.zeros(len(gen.family), dtype=bool)
    for k, draw in _probe_draws(tree):
        excess, beyond = _probe_excess(gen, k, tree.n_nodes(k), draw)
        worst, over = np.maximum(worst, excess), over | beyond
    if over.any():
        i = int(over.argmax())
        raise GeneratorContractError(
            f"{gen.family[i].name}: Lipschitz excess {worst[i]:.3e} beyond "
            f"declared (L_y={gen.l_y}, L_z={gen.l_z})")
    return worst if gen.members else float(worst[0])


def require_finite(what: str, tree: ScenarioTree, arrays, first_step: int = 0):
    """ValueError naming the first step and node of `arrays` (one per step of `tree`
    from `first_step` on) that holds a non-finite value; on a forest, its member too."""
    for k, a in enumerate(arrays, first_step):
        finite = np.isfinite(a)
        if not finite.all():
            i = int(finite.argmin())
            raise ValueError(f"{what} is not finite at step {k}, {tree.locate(k, i)} ({a[i]})")


def check_step_size(tree: ScenarioTree, gen: Generator):
    """StepSizeError unless dt * L_y < 1, which makes the implicit step a contraction."""
    if tree.dt * gen.l_y >= 1.0:
        raise StepSizeError(f"dt * L_y = {tree.dt * gen.l_y:.3f} >= 1; "
                            "refine the grid or relax the driver")


@dataclass(frozen=True)
class BsdeInstance:
    """Terminal condition and driver on one tree, or on tree.forest(B) for a driver of B
    members (Generator.members), block i member i's.  Binding checks the driver's
    contract once (check_step_size, check_lipschitz) and keeps the worst probe excess,
    one per member; solvers trust it, and an instance given its excess is not probed."""

    tree: ScenarioTree
    xi: np.ndarray
    gen: Generator
    excess: Optional[float | np.ndarray] = field(default=None, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "xi", np.asarray(self.xi, dtype=float))
        forest, n = self.forest, self.tree.n_steps
        if self.xi.shape[0] != forest.n_nodes(n):
            raise ValueError("terminal condition is not measurable at the terminal partition")
        require_finite("terminal condition", forest, [self.xi], n)
        check_step_size(self.tree, self.gen)
        if self.excess is None:
            object.__setattr__(self, "excess", check_lipschitz(self.gen, self.tree))

    @property
    def forest(self) -> ScenarioTree:
        """The tree the arrays live on: one copy of `tree` per member of gen.family."""
        return self.tree.forest(len(self.gen.family))

    @functools.cached_property
    def g0(self) -> PredictableProcess:
        """g(k, 0, 0) on the driver steps of the forest, built once per instance."""
        return self.gen.g0_process(self.tree)


@dataclass
class SolutionQuadruple:
    """(Y, Z, M, K) with K stored through its predictable increments; K and M - K
    are built once, on first use.  On a forest (ScenarioTree.forest) it holds the
    solutions of a family, whose `members` are row views of its arrays."""

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

    def members(self, tree: ScenarioTree) -> list:
        """The solution of each copy of `tree` in this solution's forest, in copy order,
        whose arrays (K and M - K included) are row views of this one's; on `tree`
        itself, [self]."""
        if self.tree is tree:
            return [self]
        out = []
        for y, z, m, dk, k, mk in zip(*(split_process(p, tree) for p in (
                self.y, self.z, self.m, self.dk, self.k, self.mk))):
            sol = SolutionQuadruple(tree, y, z, m, dk, self.scheme)
            vars(sol).update(k=k, mk=mk)
            out.append(sol)
        return out

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
    """(E_k[Y_{k+1}], Z_k) by exact projection on the walk increments."""
    return tree.cond_exp(y_next, k + 1), tree.cond_exp_dw(y_next, k) / tree.dt


def _drive(gen: Generator, forest: ScenarioTree, k: int, y: np.ndarray, z: np.ndarray):
    """The driver on the node arrays of `forest`, one copy per member of gen.family
    (see ScenarioTree.forest): block i of the node axis is member i, which the driver
    sees on a leading member axis."""
    return forest.join(gen(k, forest.split(y), forest.split(z)))


def _implicit_step(gen: Generator, forest: ScenarioTree, k: int, target: np.ndarray,
                   z_k: np.ndarray, obstacle: Optional[np.ndarray] = None) -> np.ndarray:
    """Solve y = clip(target - g(y, z) dt) to IMPLICIT_TOL by Picard iteration;
    a non-finite iterate stops it at once.

    The map contracts by q = dt * L_y, so from a first defect e the defect reaches
    IMPLICIT_TOL within log(IMPLICIT_TOL / e) / log(q) iterations; the cap is twice
    that, and never under IMPLICIT_MAX_ITER.  A member whose first iterate reaches
    |y| in the hundreds stops within ROUND_OFF_ULPS ulps of it instead, as round-off
    there exceeds IMPLICIT_TOL.  The iterates keep the member axis of _drive: row i
    is copy i of `forest`, which stops at its own tolerance and keeps that iterate
    while the others go on, so it gets the bits of its solo solve.
    """
    q, cap = forest.dt * gen.l_y, IMPLICIT_MAX_ITER
    target, z_k = forest.split(target), forest.split(z_k)
    obstacle = None if obstacle is None else forest.split(obstacle)
    y, stopped = target.copy(), None  # stopped: per member, once some member has stopped
    for it in itertools.count(1):
        y_new = target - gen(k, y, z_k) * forest.dt
        if obstacle is not None:
            y_new = np.maximum(obstacle, y_new)
        if stopped is not None:
            y_new[stopped] = y[stopped]
        defects = np.maximum.reduce(np.abs(y_new - y), axis=1)
        if it == 1:
            tol = np.maximum(IMPLICIT_TOL,
                             ROUND_OFF_ULPS * np.spacing(np.maximum.reduce(np.abs(y_new), axis=1)))
        done = defects <= tol
        if done.all():
            return forest.join(y_new)
        defect = float(np.maximum.reduce(defects))
        if not math.isfinite(defect):
            i = int(np.isfinite(defects).argmin())
            raise PicardDivergenceError(f"step {k}: non-finite inner iterate at node "
                                        f"{int(np.abs(y_new - y)[i].argmax())} "
                                        f"({gen.family[i].name})")
        if it == 1 and 0.0 < q < 1.0:
            cap = max(cap, math.ceil(2.0 * math.log(IMPLICIT_TOL / defect) / math.log(q)))
        if it == cap:
            raise PicardDivergenceError(
                f"step {k}: inner fixed point not converged after {cap} iterations "
                f"(last defect {defect:.3e}, contraction factor dt*L_y = {q:.3f})")
        if done.any():
            stopped = done
        y = y_new


def _quadruple(forest: ScenarioTree, y_vals: list, ey_vals: list, z_vals: list,
               dk_vals: list = None, scheme: str = "implicit") -> SolutionQuadruple:
    """(Y, Z, M, K) on `forest` from its per-step arrays; M is the running sum of the
    residuals dM_{k+1} = Y_{k+1} - E_k[Y_{k+1}] - Z_k . dW_{k+1}, each built as the
    sum takes it."""
    n = forest.n_steps
    if dk_vals is None:
        dk_vals = [np.zeros(forest.n_nodes(k)) for k in range(n)]
    dm_vals = (y_vals[k + 1] - forest.lift(ey_vals[k], k) - forest.dot_dw(z_vals[k], k)
               for k in range(n))
    m_vals = forest.path_scan(dm_vals, start=np.zeros(forest.n_nodes(0)), process=True)
    return SolutionQuadruple(tree=forest, y=AdaptedProcess(forest, y_vals),
                             z=PredictableProcess(forest, z_vals),
                             m=AdaptedProcess(forest, m_vals),
                             dk=PredictableProcess(forest, dk_vals), scheme=scheme)


def _backward_sweep(tree: ScenarioTree, xi: np.ndarray, gen: Generator, scheme: str,
                    obstacle: list = None, lean: bool = False) -> SolutionQuadruple:
    """Backward induction for the plain (no obstacle) and the reflected equation:
    the solution on tree.forest(B), whose `members(tree)` are the members' solutions.

    With an obstacle S, Y_k = max(S_k, y~_k) where y~_k is the unconstrained
    step, and the push is dK_{k+1} = Y_k - y~_k >= 0.  Without one, dK stays
    exactly zero.  The B = len(gen.family) members are solved in one sweep over B
    stacked copies of the tree: block i of xi (B n_n nodes) and of each
    obstacle[k] (B n_k nodes) is member i's.  A `lean` sweep stops at Y and Z: it
    returns their per-step forest arrays, and builds neither M nor the quadruples.
    """
    if scheme not in ("explicit", "implicit"):
        raise ValueError(f"unknown scheme {scheme!r}")
    forest = tree.forest(len(gen.family))
    n, dt = tree.n_steps, tree.dt
    y_vals = [None] * (n + 1)
    y_vals[n] = xi.copy() if obstacle is None else np.maximum(xi, obstacle[n])
    ey_vals, z_vals = [None] * n, [None] * n
    dk_vals = None if obstacle is None else [None] * n
    for k in range(n - 1, -1, -1):
        ey_vals[k], z_vals[k] = _project(forest, y_vals[k + 1], k)
        ey = ey_vals[k]
        s_k = None if obstacle is None else obstacle[k]
        if scheme == "explicit":
            y_tilde = ey - _drive(gen, forest, k, ey, z_vals[k]) * dt
            y_vals[k] = y_tilde if s_k is None else np.maximum(s_k, y_tilde)
        else:
            y_vals[k] = _implicit_step(gen, forest, k, ey, z_vals[k], obstacle=s_k)
            if s_k is not None:
                y_tilde = ey - _drive(gen, forest, k, y_vals[k], z_vals[k]) * dt
        if s_k is not None:
            dk_vals[k] = y_vals[k] - y_tilde
    if lean:
        return y_vals, z_vals
    return _quadruple(forest, y_vals, ey_vals, z_vals, dk_vals, scheme)


def solve_bsde(instance: BsdeInstance, scheme: str = "implicit") -> SolutionQuadruple:
    """Solve the plain BSDE (K = 0) by backward induction, a family in one sweep."""
    return _backward_sweep(instance.tree, instance.xi, instance.gen, scheme)


def solve_linear_bsde(instance: BsdeInstance) -> SolutionQuadruple:
    """Closed-form route for a lone instance with an affine driver, via discount + change
    of measure.

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
        u = mc.cond_exp_q(u_vals[k + 1], k + 1) - disc[k + 1] * instance.g0.values[k] * dt
        u_vals[k] = u
    y_vals = [u_vals[k] / disc[k] for k in range(tree.n_steps + 1)]
    ey_vals, z_vals = zip(*(_project(tree, y_vals[k + 1], k) for k in range(tree.n_steps)))
    return _quadruple(tree, y_vals, ey_vals, z_vals)

