"""Reflected BSDEs on scenario trees: solver, optimal-stopping checks, Picard.

The reflected dynamics keep Y above an obstacle S by adding a minimal
non-decreasing predictable push K:
    Y_k = max(S_k, E_k[Y_{k+1}] - g_k dt),   dK_{k+1} = Y_k - (E_k[Y_{k+1}] - g_k dt),
with the terminal obstacle clipped to min(S_T, xi) so the constraint and the
terminal condition are compatible.  The solution is also the value process of
an optimal stopping problem with running cost g, which is verified two ways:
by dynamic programming with frozen costs and by a discounted dynamic program
under a change of measure extracted from the driver.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .bsde import (BsdeInstance, Generator, SolutionQuadruple, _backward_sweep, _certify,
                   require_finite)
from .errors import DepthCapError, MeasureChangeError, PicardDivergenceError, TreeSizeError
from .martingales import girsanov_change
from .norms import _leaf_norm, _sq, sup_power_family, weighted_sum
from .processes import AdaptedProcess, PredictableProcess, split_process
from .reports import EstimateReport
from .tree import ScenarioTree, sup_abs, sup_abs_copies

DP_DEPTH_CAP = 12
EXHAUSTIVE_DEPTH_CAP = 4
SNELL_TOL = 1e-10
PICARD_TOL = 1e-12
PICARD_MAX_ITER = 100


@dataclass(frozen=True)
class ReflectedInstance(BsdeInstance):
    """A BsdeInstance with a lower obstacle on its forest, checked before the parent's
    checks; the terminal obstacle is clipped to min(S_T, xi)."""

    obstacle: AdaptedProcess = field(kw_only=True)

    def __post_init__(self):
        if self.obstacle.tree is not self.forest:
            raise ValueError("the obstacle lives on another tree than the instance")
        require_finite("obstacle", self.forest, self.obstacle.values)
        super().__post_init__()
        n = self.tree.n_steps
        # terminal compatibility: the obstacle cannot exceed the terminal value
        clipped = np.minimum(self.obstacle.values[n], self.xi)
        if np.any(clipped != self.obstacle.values[n]):
            object.__setattr__(self, "obstacle", AdaptedProcess(
                self.obstacle.tree, self.obstacle.values[:n] + [clipped]))

    @functools.cached_property
    def _plain(self) -> BsdeInstance:
        return BsdeInstance(tree=self.tree, xi=self.xi, gen=self.gen, excess=self.excess)

    def plain(self) -> BsdeInstance:
        """The instance without the obstacle, built on first use with this excess, so
        its driver is not probed again."""
        return self._plain

    @functools.cached_property
    def members(self) -> tuple:
        """The instance of each member of gen.members, built on first use: member i has
        the driver gen.members[i], the excess[i] (no probe again) and row views of block
        i of xi, the obstacle and g0 (no driver call again).  An instance whose driver
        has no members is its own; a family of one seed hands out its member driver."""
        if not self.gen.members:
            return (self,)
        tree, out = self.tree, []
        for xi, g, e, s, g0 in zip(self.forest.split(self.xi), self.gen.members, self.excess,
                                   split_process(self.obstacle, tree),
                                   split_process(self.g0, tree), strict=True):
            inst = ReflectedInstance(tree=tree, xi=xi, gen=g, excess=float(e), obstacle=s)
            vars(inst).update(g0=g0)
            out.append(inst)
        return tuple(out)


def solve_reflected(instance: ReflectedInstance, scheme: str = "implicit") -> SolutionQuadruple:
    """Backward induction with pointwise reflection and minimal push K, a family in one
    sweep over its forest, each member with the bits of its solo solve."""
    return _backward_sweep(instance.tree, instance.xi, instance.gen, scheme,
                           obstacle=instance.obstacle.values)


def check_skorokhod(instance: ReflectedInstance, sol: SolutionQuadruple) -> dict:
    """Minimality diagnostics: dK >= 0 and (Y - S) dK = 0 node by node; a NaN
    makes both NaN."""
    steps = range(instance.tree.n_steps)
    y, s, dk = sol.y.values, instance.obstacle.values, sol.dk.values
    return {"min_increment": float(np.min([0.0] + [dk[k].min() for k in steps])),
            "complementarity": sup_abs((y[k] - s[k]) * dk[k] for k in steps)}


# -- optimal stopping ---------------------------------------------------------

def snell_dynamic_program(tree: ScenarioTree, xi: np.ndarray, obstacle: AdaptedProcess,
                          costs: list) -> AdaptedProcess:
    """Value process v_k = max(S_k, -c_k dt + E_k[v_{k+1}]), v_n = xi."""
    if tree.n_steps > DP_DEPTH_CAP:
        raise DepthCapError(
            f"dynamic program capped at depth {DP_DEPTH_CAP}, tree has {tree.n_steps} steps"
        )
    dt = tree.dt
    v = [None] * (tree.n_steps + 1)
    v[tree.n_steps] = np.asarray(xi, dtype=float)
    for k in range(tree.n_steps - 1, -1, -1):
        v[k] = np.maximum(obstacle.values[k], tree.cond_exp(v[k + 1], k + 1) - costs[k] * dt)
    return AdaptedProcess(tree, v)


RULE_CAP = 2_000_000


def snell_bruteforce(tree: ScenarioTree, xi: np.ndarray, obstacle: AdaptedProcess,
                     costs: list) -> float:
    """Root value of the best adapted stopping rule, by exhaustive search.

    At each internal node the candidate payoffs are "stop now" (the obstacle)
    plus every combination of the children's candidates weighted by the
    one-step transition probabilities, with the running cost accrued over the
    interval.  The candidate count per node is 1 + prod(children counts), so
    this is exponential in depth; depth and count are capped (RULE_CAP) and it
    is meant purely as an oracle, never as a solver.
    """
    if tree.n_steps > EXHAUSTIVE_DEPTH_CAP:
        raise DepthCapError(
            f"exhaustive stopping search capped at depth {EXHAUSTIVE_DEPTH_CAP}, "
            f"tree has {tree.n_steps} steps"
        )
    n = tree.n_steps
    dt = tree.dt
    xi = np.asarray(xi, dtype=float)

    def candidates(k: int, i: int) -> np.ndarray:
        """Expected payoffs, viewed from node (k, i), of every stopping rule
        on the subtree: 'stop now', then one entry per choice of the children's rules."""
        if k == n:
            return np.array([xi[i]])
        b = tree.branching[k]
        child_vals = [candidates(k + 1, i * b + j) for j in range(b)]
        q = tree.cond_prob[k + 1]
        combo = np.zeros(1)
        count = 1
        for j in range(b):
            count *= child_vals[j].shape[0]
            if count > RULE_CAP:
                raise TreeSizeError(
                    f"stopping rule count exceeds cap {RULE_CAP} at node ({k},{i})")
            combo = (combo[:, None] + q[j] * child_vals[j][None, :]).ravel()
        cont = combo - float(np.asarray(costs[k], dtype=float)[i]) * dt
        return np.concatenate(([float(obstacle.values[k][i])], cont))

    return float(candidates(0, 0).max())


def _linearization(gen: Generator, forest: ScenarioTree, k: int, y: np.ndarray,
                   z: np.ndarray) -> tuple:
    """Per-node (g, lam, eta, g0) at step k with g = g(Y, Z) = g0 + lam Y + eta . Z exactly.

    lam is the difference quotient in y at (Y, Z); eta telescopes coordinate
    difference quotients of z at y = 0; g0 = g(0, 0).  Both are bounded by the
    declared Lipschitz constants, clipped against roundoff.  One driver call takes
    the d + 2 points stacked on a leading axis: (Y, Z), then (0, Z with coordinates
    >= i zeroed) for i = 0..d, the last being (0, Z).  y and z sit on the step-k
    nodes of `forest`, and the driver sees each point on its member axis.
    """
    d = z.shape[-1]
    keep = np.tri(d + 1, d, -1, dtype=bool)[:, None, :]  # row i keeps i coordinates
    ys = np.zeros((d + 2,) + y.shape)
    ys[0] = y
    zs = np.concatenate([z[None], np.where(keep, z, 0.0)])
    b = forest.n_nodes(0)
    g = gen(k, ys.reshape(d + 2, b, -1), zs.reshape(d + 2, b, -1, d)).reshape(ys.shape)
    lam = np.where(np.abs(y) > 1e-12, (g[0] - g[-1]) / np.where(y == 0.0, 1.0, y), 0.0)
    eta = np.where(np.abs(z) > 1e-12, (g[2:] - g[1:-1]).T / np.where(z == 0.0, 1.0, z), 0.0)
    return g[0], np.clip(lam, -gen.l_y, gen.l_y), np.clip(eta, -gen.l_z, gen.l_z), g[1]


def verify_snell_representation(instance: ReflectedInstance, sol: SolutionQuadruple,
                                fingerprint: str = "") -> list:
    """Two optimal-stopping representations of the reflected solution, each to SNELL_TOL.

    (a) With costs frozen at the solution, the plain dynamic program reproduces
        Y exactly at every node.
    (b) Linearizing the driver at the solution gives an adapted discount and a
        change of measure under which the discounted value solves a dynamic
        program with only the zero-input cost; its value equals the discounted
        Y at every node.  Needs sol to come from the implicit scheme.

    The instance is checked as a family of one (verify_snell_family).
    """
    return verify_snell_family(instance, sol, [fingerprint])


def verify_snell_family(instance: ReflectedInstance, sol: SolutionQuadruple,
                        fingerprints: list) -> list:
    """verify_snell_representation of every member of an instance, `sol` its forest
    solution, in one pass over the forest: one driver call per step gives every member's
    frozen costs and linearization, and the dynamic programs and the change of measure
    run on the forest.  Two reports per member, in member order, each with the bits of
    the member's solo check.
    """
    gen, forest, xi, obstacle = instance.gen, sol.tree, instance.xi, instance.obstacle
    n, dt = forest.n_steps, forest.dt
    y, z = sol.y.values, sol.z.values
    costs, lam_vals, eta_vals, g0_vals = map(list, zip(*(
        _linearization(gen, forest, k, y[k], z[k]) for k in range(n))))

    v = snell_dynamic_program(forest, xi, obstacle, costs)
    defect_a = sup_abs_copies(forest, (v.values[k] - y[k] for k in range(n + 1)))

    factors = [1.0 + lam * dt for lam in lam_vals]
    positive = functools.reduce(np.logical_and,
                                (forest.split(f).min(axis=1) > 0.0 for f in factors))
    if not positive.all():
        raise MeasureChangeError(f"{gen.family[int(positive.argmin())].name}: discount factor "
                                 "1 + lam dt is not positive; refine the grid")
    mc = girsanov_change(forest, PredictableProcess(forest, eta_vals))
    disc = forest.path_scan(factors, np.divide, start=1.0, process=True)
    u = disc[n] * xi
    defect_b = sup_abs_copies(forest, [u - disc[n] * y[n]])
    for k in range(n - 1, -1, -1):
        cont = mc.cond_exp_q(u, k + 1) - (disc[k] / factors[k]) * g0_vals[k] * dt
        u = np.maximum(disc[k] * obstacle.values[k], cont)
        defect_b = np.maximum(defect_b, sup_abs_copies(forest, [u - disc[k] * y[k]]))
    return [rep for fp, d_a, d_b, root in zip(fingerprints, defect_a.tolist(), defect_b.tolist(),
                                              v.values[0].tolist(), strict=True) for rep in (
        EstimateReport.exact("stopping_value_frozen_costs", d_a, SNELL_TOL, 0.0, fp,
                             {"root_value": root}),
        EstimateReport.exact("stopping_value_discounted_measure_change", d_b, SNELL_TOL, 0.0, fp,
                             {"scheme": sol.scheme}))]


# -- Picard iteration ---------------------------------------------------------

@dataclass
class PicardTrace:
    """Per-iteration distances and contraction diagnostics."""

    alpha_star: float
    dy_s2: list = field(default_factory=list, init=False)
    dz_h2: list = field(default_factory=list, init=False)
    driver_change: list = field(default_factory=list, init=False)

    @property
    def combined(self) -> list:
        return [a + b for a, b in zip(self.dy_s2, self.dz_h2)]

    @property
    def contraction_ratios(self) -> list:
        c = self.combined
        return [c[i + 1] / c[i] for i in range(len(c) - 1) if c[i] > 0.0]


def picard_alpha(gen: Generator) -> float:
    """Weight making the fixed-point map a contraction: 1 + 2 L_y + 2 L_z^2."""
    return 1.0 + 2.0 * gen.l_y + 2.0 * gen.l_z**2


def _frozen_generator(frozen: list) -> Generator:
    """The driver frozen at given per-step values: constant in (y, z), on any leading
    axes, and certified (0, 0) where every value is finite.  Filling a fresh array costs
    a fifth of np.broadcast_to."""
    def fn(k, y, z, _f=frozen):
        out = np.empty_like(y)
        out[...] = _f[k]
        return out

    gen = Generator(fn=fn, l_y=0.0, l_z=0.0, name="picard-frozen")
    return _certify(gen) if all(np.isfinite(f).all() for f in frozen) else gen


def picard_solve(instance: ReflectedInstance) -> tuple:
    """Solve the reflected BSDE by iterating with the driver frozen at the
    previous iterate.  Each inner problem has a constant-in-(y, z) driver, whose
    explicit step is the implicit fixed point bit for bit, so each sweep takes
    it and the solution keeps scheme "implicit"; a frozen value that makes the
    sweep non-finite (NaN or -inf) stops the iteration in that sweep.  The loop
    stops when the frozen driver itself stops moving (sup-change <= PICARD_TOL),
    so drivers that ignore (y, z) converge in one sweep.  Both are known before
    the last sweep runs: between sweeps Y, Z and the frozen driver are per-step
    arrays, and only the last sweep builds M and the solution.

    The sweeps allowed are sized from the contraction, as _implicit_step sizes its
    inner cap: PICARD_MAX_ITER, and beyond it as long as the driver change shrinks.
    A cap of twice log(PICARD_TOL / change) / log(q) more sweeps, q < 1 the ratio of
    the last two changes, always lies beyond the sweep that sizes it, so re-sized at
    every sweep it stops the loop at the first change that does not shrink.  Takes a
    lone instance; returns (solution, PicardTrace).
    """
    tree, gen, n = instance.tree, instance.gen, instance.tree.n_steps
    trace = PicardTrace(alpha_star=picard_alpha(gen))
    y_prev = [np.zeros(tree.n_nodes(k)) for k in range(n + 1)]
    z_prev = [np.zeros((tree.n_nodes(k), tree.d)) for k in range(n)]
    frozen_prev, changes = None, trace.driver_change
    for sweep in itertools.count(1):
        frozen = [gen(k, y_prev[k], z_prev[k]) for k in range(n)]
        if frozen_prev is not None:
            changes.append(sup_abs(map(np.subtract, frozen, frozen_prev)))
        # the last sweep: a driver independent of (y, z) is exact in the first one
        last = (gen.l_y == 0.0 and gen.l_z == 0.0
                or frozen_prev is not None and changes[-1] <= PICARD_TOL)
        # a driver constant in (y, z) meets any contract: no instance to check
        out = _backward_sweep(tree, instance.xi, _frozen_generator(frozen), "explicit",
                              obstacle=instance.obstacle.values, lean=not last)
        y, z = (out.y.values, out.z.values) if last else out
        trace.dy_s2.append(sup_power_family(tree, map(np.subtract, y, y_prev), 2.0)[0] ** 0.5)
        # an infinite norm may only be a finite iterate too large to square
        bad = ([] if math.isfinite(trace.dy_s2[-1]) else
               [k for k, v in enumerate(y) if not np.isfinite(v).all()])
        if bad:  # the sweep met a NaN or -inf frozen value
            raise PicardDivergenceError(f"step {bad[-1]}: non-finite frozen driver at node "
                                        f"{int(np.isfinite(y[bad[-1]]).argmin())} "
                                        f"({gen.name})")
        dz_leaf = weighted_sum(tree, trace.alpha_star, map(_sq, map(np.subtract, z, z_prev)),
                               tree.dt)
        trace.dz_h2.append(_leaf_norm(tree, dz_leaf, 1.0, 2.0)[0])
        if last:
            out.scheme = "implicit"
            return out, trace
        contracting = len(changes) >= 2 and 0.0 < changes[-1] < changes[-2]
        if sweep >= PICARD_MAX_ITER and not contracting:
            raise PicardDivergenceError(
                f"frozen-driver iteration did not settle in {sweep} sweeps "
                f"(last driver change {changes[-1] if changes else float('nan'):.3e})")
        frozen_prev, y_prev, z_prev = frozen, y, z


def truncate_instance(instance: ReflectedInstance, level: float) -> ReflectedInstance:
    """Clip terminal value, obstacle and driver output of a lone instance to [-level, level].
    The clip keeps the driver's constants, and its certificate if it has one."""
    if not level > 0.0:
        raise ValueError(f"truncation level must be positive, got {level}")
    tree, gen = instance.tree, instance.gen

    def fn(k, y, z, _g=gen, _n=level):
        return np.clip(_g(k, y, z), -_n, _n)

    clipped = Generator(fn=fn, l_y=gen.l_y, l_z=gen.l_z, name=f"{gen.name}|{level:g}")
    return ReflectedInstance(
        tree=tree,
        xi=np.clip(instance.xi, -level, level),
        gen=_certify(clipped) if gen.certified else clipped,
        obstacle=AdaptedProcess(tree, [np.clip(v, -level, level)
                                       for v in instance.obstacle.values]),
    )
