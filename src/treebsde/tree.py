"""Finite filtered probability spaces built as scenario trees.

The trees carry a d-dimensional Rademacher walk whose increments have exact
martingale structure (zero conditional mean, conditional covariance dt * I),
plus optional extra random variables revealed at deterministic grid instants.
Revealing information at deterministic (hence predictable) times is what breaks
quasi left-continuity of the generated filtration.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import InvariantViolationError, OffGridError, TreeSizeError

DEFAULT_NODE_CAP = 2**20
TREE_TOL = 1e-12
CROSSOVER = 2048  # sum_axis hands a short axis of an array of fewer entries to numpy


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid 0 = t_0 < t_1 < ... < t_n = T."""

    horizon: float
    n_steps: int

    def __post_init__(self):
        if not 0.0 < self.horizon < math.inf:
            raise ValueError(f"horizon must be positive and finite, got {self.horizon}")
        try:
            object.__setattr__(self, "n_steps", operator.index(self.n_steps))
        except TypeError:
            raise ValueError(f"n_steps must be an integer, got {self.n_steps!r}") from None
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {self.n_steps}")

    @property
    def dt(self) -> float:
        return self.horizon / self.n_steps

    @functools.cached_property
    def times(self) -> np.ndarray:
        """t_0..t_n, computed once per grid and read-only."""
        times = np.linspace(0.0, self.horizon, self.n_steps + 1)
        times.flags.writeable = False
        return times

    def index_of(self, time: float) -> int:
        """Grid index of `time`: the one instant of `times` (t_j = j dt, t_n = T) within
        1e-12 max(1, T) of it, else OffGridError.  Only instants near time / dt can be."""
        n, dt, tol = self.n_steps, self.dt, 1e-12 * max(1.0, self.horizon)
        near = round(max(0.0, min(float(n), time / dt))) if dt > 0.0 else 0
        hits = [j for j in range(max(near - 2, 0), min(near + 3, n + 1))
                if abs((self.horizon if j == n else j * dt) - time) <= tol]
        if len(hits) != 1:
            raise OffGridError(
                f"time {time} is not on the grid (T={self.horizon}, n={self.n_steps}, dt={self.dt})"
            )
        return hits[0]

    def reveal_steps(self, reveals: tuple) -> dict:
        """{grid index: reveal}, for reveals on distinct grid instants after t_0."""
        steps = [self.index_of(r.time) for r in reveals]
        if 0 in steps:
            raise OffGridError("reveal at t_0 carries no information; use a later grid instant")
        if len(set(steps)) < len(steps):
            raise ValueError(f"two reveals at the same grid instant t_{max(steps, key=steps.count)}")
        return dict(zip(steps, reveals))


@dataclass(frozen=True)
class Reveal:
    """Extra discrete random variable revealed at a deterministic grid instant.

    The label is drawn from `labels` with law `probs`, independently of the
    walk increments.
    """

    time: float
    labels: tuple
    probs: tuple

    def __post_init__(self):
        if len(self.labels) != len(self.probs) or len(self.labels) < 2:
            raise ValueError("reveal needs >= 2 labels and matching probabilities")
        p = np.asarray(self.probs, dtype=float)
        if not (np.all(p > 0.0) and abs(p.sum() - 1.0) <= TREE_TOL):
            raise ValueError(f"reveal law must be a finite positive probability vector, "
                             f"got {self.probs}")


@dataclass(eq=False)
class ScenarioTree:
    """Scenario tree with uniform branching per step.

    Nodes at step k+1 are grouped contiguously under their parent, so the node
    at index j of step k+1 is child j % branching[k] of parent j // branching[k].
    Every parent of a step has the same one-step law, so a step k >= 1 stores it
    once, as the child block of one parent; step 0 stores its roots.  Node counts come
    from the root count and the branching, and per-node data (path_prob, w) is one numpy
    array per step.  A step of fewer than CROSSOVER nodes also keeps its block tiled over
    its parents (tiles): the kernels' flat products with them beat a broadcast over the
    block by about 1 us a call.  Trees compare and hash by identity.
    """

    grid: TimeGrid
    d: int
    reveals: tuple            # tuple[Reveal, ...], resolved to grid instants
    branching: tuple          # branching factor out of each step as Python ints, len n_steps
    cond_prob: list           # cond_prob[k][j] = P(child j | parent), shape (branching[k-1],); 1.0 per root
    dw: list                  # dw[k][j] walk increment of child j, shape (branching[k-1], d); zeros per root
    reveal_label: list        # reveal_label[k][j]: alphabet index of child j or -1; -1 per root
    path_prob: list = field(init=False, repr=False)   # path_prob[k][i] = P(node i at step k)
    sizes: tuple = field(init=False, repr=False)      # sizes[k] = number of step-k nodes
    tiles: dict = field(init=False, repr=False)       # tiles[k]: (cond_prob, dw) per node, below CROSSOVER

    def __post_init__(self):
        self.sizes = tuple(itertools.accumulate(self.branching, operator.mul,
                                                initial=len(self.cond_prob[0])))
        self.path_prob = self._scan_blocks(self.cond_prob[1:], np.multiply, self.cond_prob[0])
        self.tiles = {k: (np.tile(p, m), np.tile(dw, (m, 1))) for k, (m, p, dw) in enumerate(
            zip(self.sizes, self.cond_prob[1:], self.dw[1:]), 1) if m * len(p) < CROSSOVER}

    # -- structure -----------------------------------------------------------

    @property
    def n_steps(self) -> int:
        return self.grid.n_steps

    @property
    def dt(self) -> float:
        return self.grid.dt

    def n_nodes(self, step: int) -> int:
        return self.sizes[step]

    def parent_index(self, step: int) -> np.ndarray:
        if step < 1 or step > self.n_steps:
            raise IndexError(f"step {step} has no parents (valid: 1..{self.n_steps})")
        return np.arange(self.n_nodes(step)) // self.branching[step - 1]

    def forest(self, copies: int) -> ScenarioTree:
        """`copies` disjoint copies of the tree as one tree with a root per copy: copy i
        holds block i of the nodes of each step, so that cond_exp, lift, dot_dw and
        path_scan act on every copy in one call.  The copies share the tree's child
        blocks, so a forest allocates its roots, path probabilities and tiles only.  One
        copy is the tree itself; a forest is built once per tree and count, so
        processes of one family share it."""
        if copies == 1:
            return self
        forests = self.__dict__.setdefault("_forests", {})
        if copies not in forests:
            forests[copies] = ScenarioTree(
                grid=self.grid, d=self.d, reveals=self.reveals, branching=self.branching,
                cond_prob=[self.cond_prob[0].repeat(copies)] + self.cond_prob[1:],
                dw=[self.dw[0].repeat(copies, axis=0)] + self.dw[1:],
                reveal_label=[self.reveal_label[0].repeat(copies)] + self.reveal_label[1:])
        return forests[copies]

    def split(self, x: np.ndarray) -> np.ndarray:
        """Row i is copy i's block of the step array `x` of this forest, as a view."""
        return x.reshape((self.n_nodes(0), -1) + x.shape[1:])

    @staticmethod
    def join(blocks: np.ndarray) -> np.ndarray:
        """The forest step array whose block i is blocks[i]: the inverse of `split`."""
        return blocks.reshape((-1,) + blocks.shape[2:])

    def locate(self, step: int, node: int) -> str:
        """'node i' of a lone tree; on a forest, the copy (member) and its node i."""
        member, i = divmod(node, self.n_nodes(step) // self.n_nodes(0))
        return f"node {i}" if self.n_nodes(0) == 1 else f"member {member}, node {i}"

    def from_roots(self, x: np.ndarray, step: int) -> np.ndarray:
        """Broadcast root values, one per copy, onto the step-`step` nodes."""
        return np.repeat(x, self.n_nodes(step) // self.n_nodes(0), axis=0)

    def reveal_step_indices(self) -> list:
        return [self.grid.index_of(r.time) for r in self.reveals]

    @property
    def w(self) -> list:
        """Cumulative walk value per node, shape (n_k, d) at each step, built on every read."""
        return self._scan_blocks(self.dw[1:], np.add, np.zeros((self.n_nodes(0), self.d)))

    def _children(self, x: np.ndarray, step: int) -> np.ndarray:
        """The step-`step` array `x` as a view with parents on axis 0 and their children,
        in block order, on axis 1."""
        return x.reshape((self.n_nodes(step - 1), self.branching[step - 1]) + x.shape[1:])

    # -- expectation operators ------------------------------------------------

    def _check_step(self, step: int, lo: int = 0):
        if step < lo or step > self.n_steps:
            raise IndexError(f"step {step} out of range 0..{self.n_steps}")

    def _check_parent(self, step: int):
        if not 0 <= step < len(self.branching):
            raise IndexError(f"step {step} has no children (valid: 0..{self.n_steps - 1})")

    def _values(self, x, step: int) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape[0] != self.n_nodes(step):
            raise ValueError(f"value array has {x.shape[0]} entries, step {step} has "
                             f"{self.n_nodes(step)} nodes")
        return x

    def cond_exp(self, x: np.ndarray, step: int, weights: np.ndarray = None) -> np.ndarray:
        """Conditional expectation of `x` (defined at `step`) onto step-1 nodes.

        `weights` optionally multiplies the child values before averaging, e.g.
        one-step Girsanov density factors.  Each parent's sum over its children has
        sum_axis's bits: one product and one sum_axis on a step with tiles (flat) or where
        sum_axis hands the child axis to numpy (broadcast), else one product per child
        of the block, added in block order from +0.0 as sum_axis's slice adds are.
        """
        self._check_step(step, lo=1)
        x = self._values(x, step)
        if step in self.tiles:
            q = self.tiles[step][0] if weights is None else weights * self.tiles[step][0]
            return sum_axis(self._children(x * (q if x.ndim == 1 else q[:, None]), step), 1)
        p, xs = self.cond_prob[step], self._children(x, step)
        ws = None if weights is None else self._children(np.asarray(weights), step)
        tail = (1,) * (x.ndim - 1)  # the probabilities broadcast over a value's columns
        if not _by_slices(len(p), x.size):
            q = p if ws is None else ws * p
            return sum_axis(xs * q.reshape(q.shape + tail), 1)
        def child(j, out=None):
            q = p[j] if ws is None else (ws[:, j] * p[j]).reshape((-1,) + tail)
            return np.multiply(xs[:, j], q, out=out)

        out, term = child(0), np.empty(xs.shape[:1] + xs.shape[2:])
        for j in range(1, len(p)):
            out += child(j, term)
        out += 0.0  # a sum from +0.0 differs from this one in a -0.0 total only
        return out

    def expectation(self, x: np.ndarray, step: int) -> float:
        """Expectation of a step-`step` value: sum of path probability * value."""
        self._check_step(step)
        x = np.asarray(x, dtype=float)
        return float(np.dot(self.path_prob[step], x))

    def expectations(self, x: np.ndarray, step: int) -> list:
        """Per copy of a forest (one per root), the expectation of its block of `x`: one
        np.dot of the block with the copy's path probabilities, so a lone tree gets
        [expectation(x, step)] bit for bit."""
        self._check_step(step)
        blocks = self.split(np.asarray(x, dtype=float))
        prob = self.path_prob[step][:blocks.shape[1]]
        return [float(np.dot(prob, block)) for block in blocks]

    def lift(self, x: np.ndarray, step: int) -> np.ndarray:
        """Broadcast step-`step` node values onto their step+1 children."""
        self._check_parent(step)
        return np.asarray(x, dtype=float).repeat(self.branching[step], axis=0)

    def dot_dw(self, z: np.ndarray, k: int) -> np.ndarray:
        """Z_k . dW_{k+1} on step-(k+1) nodes, for Z_k on step-k nodes.

        Z_k has shape (n_k, d); a scalar Z_k (shape (n_k,)) is read as the
        one coordinate of a d = 1 walk and rejected on a wider one.  Each node has
        the bits of einsum("ni,ni->n") of the lifted Z_k and the tiled block (of their
        plain product for a scalar Z_k): one call on Z_k and the block, or, where
        cond_exp goes child by child, one product per child and coordinate added from
        +0.0.  That is einsum's order for d <= 2 only; a walk of d >= 3 branches 8 ways
        or more, so it always takes the one call.
        """
        self._check_parent(k)
        z = np.ascontiguousarray(self._values(self.check_integrand(z, k), k))
        dw = self.dw[k + 1]
        if not _by_slices(len(dw), z.size * len(dw)):
            if z.ndim == 1:
                return np.multiply.outer(z, dw[:, 0]).reshape(-1)
            return np.einsum("pi,ji->pj", z, dw).reshape(-1)
        zc = z.reshape(len(z), -1)
        rows, term = np.empty((len(z), len(dw))), np.empty(len(z))
        for j, row in enumerate(dw):
            np.multiply(zc[:, 0], row[0], out=rows[:, j])
            for i in range(1, zc.shape[1]):
                rows[:, j] += np.multiply(zc[:, i], row[i], out=term)
        if z.ndim == 2:
            rows += 0.0  # einsum's sum from +0.0; a scalar integrand keeps the plain product
        return rows.reshape(-1)

    def check_integrand(self, z: np.ndarray, k: int) -> np.ndarray:
        """`z`, unless it is a scalar step-k integrand against a walk wider than d = 1."""
        if np.ndim(z) == 1 and self.d > 1:
            raise ValueError(f"step {k}: scalar integrand against a {self.d}-dimensional walk")
        return z

    def cond_exp_dw(self, x: np.ndarray, k: int) -> np.ndarray:
        """E_k[x dW_{k+1}] on step-k nodes, shape (n_k, d), for x on step-(k+1)
        nodes: the adjoint of dot_dw, with the bits of cond_exp(x dW_{k+1}, k + 1) on
        the per-node increments, reached as cond_exp reaches its own."""
        self._check_parent(k)
        x = self._values(x, k + 1)
        if k + 1 in self.tiles:
            p, dw = self.tiles[k + 1]
            return sum_axis(self._children(x[:, None] * dw * p[:, None], k + 1), 1)
        p, dw, xs = self.cond_prob[k + 1], self.dw[k + 1], self._children(x, k + 1)
        if not _by_slices(len(p), x.size * self.d):
            return sum_axis(xs[..., None] * dw * p[:, None], 1)
        out, term = np.empty((len(xs), self.d)), np.empty(len(xs))
        for i in range(self.d):
            np.multiply(xs[:, 0], dw[0, i], out=out[:, i])
            out[:, i] *= p[0]
            for j in range(1, len(p)):
                np.multiply(xs[:, j], dw[j, i], out=term)
                term *= p[j]
                out[:, i] += term
        out += 0.0
        return out

    # -- path primitives ------------------------------------------------------

    def to_leaves(self, x: np.ndarray, step: int) -> np.ndarray:
        """Broadcast step-`step` node values onto every leaf below them."""
        self._check_step(step)
        return np.repeat(np.asarray(x, dtype=float), math.prod(self.branching[step:]), axis=0)

    def path_scan(self, terms, op=np.add, start=0.0, process: bool = False):
        """Running `op` along paths: S_0 = start, S_{k+1} = op(S_k, terms[k]).

        terms[k] sits on step-k nodes (an increment known at t_k: combined, then
        lifted) or on step-(k+1) nodes (combined after the lift), and is the
        second operand of `op`.  Terms are consumed one step at a time, so a
        generator never holds every step at once.  Returns S_n on the leaves,
        or the whole process [S_0, ..., S_n] when `process` is set.  A start of
        one entry starts every root of a forest.
        """
        acc = np.array(start, dtype=float, ndmin=1)
        if acc.shape[0] != self.n_nodes(0):
            acc = acc.repeat(self.n_nodes(0), axis=0)
        out = [acc]
        for k, term in enumerate(terms):
            term = np.asarray(term, dtype=float)
            if term.shape[0] == self.n_nodes(k):
                acc = self.lift(op(acc, term), k)
            else:
                acc = self.lift(acc, k)
                op(acc, term, out=acc)  # in place on the fresh lift: no third leaf array
            if process:
                out.append(acc)
        return out if process else acc

    def _scan_blocks(self, blocks, op, start) -> list:
        """[S_0, ..., S_n] with S_0 = start on the roots and each child's S_{k+1} =
        op(S_k of its parent, its entry of the step-(k+1) block), one op per child and
        coordinate: the bits of path_scan over the tiled blocks."""
        out = [np.array(start, dtype=float)]
        for block in blocks:
            acc, block = out[-1].reshape(len(out[-1]), -1), block.reshape(len(block), -1)
            rows = np.empty((len(acc),) + block.shape)
            for j, row in enumerate(block):
                for i, c in enumerate(row):
                    op(acc[:, i], c, out=rows[:, j, i])
            out.append(rows.reshape((-1,) + out[-1].shape[1:]))
        return out


def sum_axis(a: np.ndarray, axis: int) -> np.ndarray:
    """a.sum(axis), bit for bit, by whole-slice adds when the axis is short.

    numpy reduces a short contiguous axis with one inner-loop call per output row,
    about 27 ns a row: (196608, 2).sum(axis=1) takes 5.5 ms where adding its two
    columns takes 0.58 ms.  Below 8 entries numpy adds the entries in order from
    +0.0, which the slice adds repeat; from 8 on it sums a contiguous axis pairwise,
    so such an axis goes to a.sum(axis) unchanged.  The 8 is numpy's, not a tunable.
    An array of fewer than CROSSOVER entries goes there too: a slice add costs 1-2 us
    whatever its length, more than the rows it saves (measured on a 2-core Xeon).
    """
    b = a.shape[axis]
    if not _by_slices(b, a.size):
        return a.sum(axis)
    lead = (slice(None),) * (axis % a.ndim)
    out = a[lead + (0,)] + 0.0
    for j in range(1, b):
        out += a[lead + (j,)]
    return out


def _by_slices(b: int, size: int) -> bool:
    """Whether sum_axis sums an axis of `b` entries of a `size`-entry array by whole-slice
    adds.  ScenarioTree's kernels go child by child exactly then, on a step without tiles."""
    return 0 < b < 8 and size >= CROSSOVER


def sup_abs(arrays) -> float:
    """max |x| over the step arrays, folded with np.maximum so that a NaN anywhere
    makes it NaN.  map drops each array once its max is read."""
    return float(functools.reduce(np.maximum, map(lambda a: np.abs(a).max(), arrays), 0.0))


def sup_abs_copies(tree: ScenarioTree, arrays) -> np.ndarray:
    """sup_abs of each copy's blocks of the step arrays of a forest, one entry per copy."""
    copies = tree.n_nodes(0)
    return functools.reduce(np.maximum, (np.abs(a).reshape(copies, -1).max(axis=1)
                                         for a in arrays), np.zeros(copies))


def check_tree_shape(grid: TimeGrid, d: int, reveals: tuple, node_cap: int) -> dict:
    """Check a tree's reveals and node cap before building it: nothing is allocated and
    the work does not grow with d.  Returns {grid index: reveal}."""
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    reveal_at = grid.reveal_steps(reveals)
    n = 1
    for k in range(1, grid.n_steps + 1):
        n *= len(reveal_at[k].labels) if k in reveal_at else 1
        # 2^d alone exceeds any cap of at most d bits
        if d >= int(node_cap).bit_length() or n << d > node_cap:
            raise TreeSizeError(f"step {k} would hold {n} * 2**{d} nodes, "
                                f"beyond the configured cap {node_cap}")
        n <<= d
    return reveal_at


def build_tree(grid: TimeGrid, d: int = 1, reveals=(),
               node_cap: int = DEFAULT_NODE_CAP) -> ScenarioTree:
    """Build a scenario tree for the given grid.

    The walk is Rademacher: each coordinate takes the increment +-sqrt(dt)
    with probability 1/2, independently across coordinates; at a reveal time the
    branching is (2^d) * alphabet size with product probabilities.
    """
    reveals = tuple(reveals)
    reveal_at = check_tree_shape(grid, d, reveals, node_cap)
    sdt = np.sqrt(grid.dt)
    signs = np.array(list(itertools.product((-1.0, 1.0), repeat=d)))  # (2^d, d), canonical order

    cond_prob, dw, reveal_label = [np.array([1.0])], [np.zeros((1, d))], [np.array([-1])]
    for k in range(grid.n_steps):
        r = reveal_at.get(k + 1)
        bdw, bprob, blab = signs * sdt, np.full(2**d, 0.5**d), np.full(2**d, -1)
        if r is not None:
            a = len(r.labels)
            bdw = np.repeat(bdw, a, axis=0)
            bprob = np.repeat(bprob, a) * np.tile(np.asarray(r.probs, dtype=float), 2**d)
            blab = np.tile(np.arange(a), 2**d)
        cond_prob.append(bprob)
        dw.append(bdw)
        reveal_label.append(blab)
    return ScenarioTree(grid=grid, d=d, reveals=reveals,
                        branching=tuple(len(p) for p in cond_prob[1:]),
                        cond_prob=cond_prob, dw=dw, reveal_label=reveal_label)


# -- validation ---------------------------------------------------------------

def validate_tree(tree: ScenarioTree, tol: float = TREE_TOL) -> dict:
    """Check all tree invariants; returns the defect magnitudes.

    Every parent of a step has the step's one child block, so one row checks them
    all.  Raises InvariantViolationError naming the first offending step (and node);
    a NaN defect offends too.
    """
    dt = tree.dt
    defects = {"prob_sum": 0.0, "dw_mean": 0.0, "dw_cov": 0.0, "reveal_indep": 0.0}
    reveal_steps = set(tree.reveal_step_indices())
    for k in range(1, tree.n_steps + 1):
        cp, dwk = tree.cond_prob[k][None], tree.dw[k][None]
        sums = sum_axis(cp, 1)
        bad = np.flatnonzero(~(np.abs(sums - 1.0) <= tol))
        if bad.size:
            i = int(bad[0])
            raise InvariantViolationError(
                f"child probabilities at step {k - 1}, node {i} sum to {float(sums[i])!r} (tol {tol})"
            )
        defects["prob_sum"] = float(np.maximum(defects["prob_sum"], np.abs(sums - 1.0).max()))
        mean = np.einsum("nb,nbi->ni", cp, dwk)
        m = float(np.abs(mean).max())
        if not m <= tol:
            raise InvariantViolationError(f"conditional mean of dW at step {k} is {m} > {tol}")
        defects["dw_mean"] = max(defects["dw_mean"], m)
        cov = np.einsum("nb,nbi,nbj->nij", cp, dwk, dwk)
        c = float(np.abs(cov - dt * np.eye(tree.d)).max())
        if not c <= tol:
            raise InvariantViolationError(f"conditional covariance of dW at step {k} deviates from dt*I by {c}")
        defects["dw_cov"] = max(defects["dw_cov"], c)
        if k in reveal_steps:
            a = int(tree.reveal_label[k].max()) + 1
            # joint law over (dw pattern, label) must factorize exactly
            joint = cp.reshape(1, -1, a)
            p_dw = sum_axis(joint, 2)
            p_lab = sum_axis(joint, 1)
            outer = p_dw[:, :, None] * p_lab[:, None, :]
            r = float(np.abs(joint - outer).max())
            if not r <= tol:
                raise InvariantViolationError(f"reveal label at step {k} is not independent of dW (defect {r})")
            defects["reveal_indep"] = max(defects["reveal_indep"], r)
    return defects

