"""Seeded random families of trees, drivers, instances and supermartingales.

Everything here is deterministic given (seed, shape parameters) so that any
reported number carries a reproducible fingerprint.
"""

from __future__ import annotations

import numpy as np

from .bsde import BsdeInstance, Generator
from .processes import AdaptedProcess, LadlagProcess
from .reflected import ReflectedInstance
from .tree import Reveal, ScenarioTree, TimeGrid, build_tree

DROP_RATE = 0.3  # chance that a node of a random strong supermartingale announces a drop


def fingerprint(kind: str, seed: int, tree: ScenarioTree) -> str:
    rev = ",".join(f"{r.time:g}x{len(r.labels)}" for r in tree.reveals) or "-"
    return f"{kind}/seed={seed}/T={tree.grid.horizon:g}/n={tree.n_steps}/d={tree.d}/rev={rev}"


def standard_tree(n_steps: int = 6, d: int = 1, horizon: float = 1.0,
                  with_reveal: bool = True) -> ScenarioTree:
    """Default test tree: Rademacher walk plus one mid-horizon three-letter reveal."""
    grid = TimeGrid(horizon=horizon, n_steps=n_steps)
    reveals = ()
    if with_reveal:
        k = max(1, n_steps // 2)
        reveals = (Reveal(time=grid.times[k], labels=("a", "b", "c"),
                          probs=(0.5, 0.3, 0.2)),)
    return build_tree(grid, d=d, reveals=reveals)


def random_generator(tree: ScenarioTree, seed: int, l_y: float = 0.5,
                     l_z: float = 0.5) -> Generator:
    """Lipschitz driver with node-dependent zero level.

    g(k, y, z) = b0_k + l_y sin(y + c_k) + l_z tanh(z . u) with |u| = 1, so the
    declared constants are exact (the derivatives are bounded by 1).  The zero
    level b0_k depends on the node only, so it is built once per driver step
    k < n.
    """
    rng = np.random.default_rng(seed)
    u = rng.normal(size=tree.d)
    u /= np.linalg.norm(u)
    a0, a1, c = rng.normal(size=3)
    lab_bias = rng.normal(size=8)
    b0 = []
    for k in range(tree.n_steps):
        w, lab = tree.w[k].sum(axis=1), tree.reveal_label[k]
        b0.append(a0 + a1 * np.tanh(w) + np.where(lab >= 0, lab_bias[np.clip(lab, 0, 7)], 0.0))

    def fn(k, y, z):
        return b0[k] + l_y * np.sin(y + c) + l_z * np.tanh(z @ u)

    return Generator(fn=fn, l_y=l_y, l_z=l_z, name=f"random[{seed}]")


def random_terminal(tree: ScenarioTree, seed: int) -> np.ndarray:
    """Bounded terminal value depending on the walk and every reveal label."""
    rng = np.random.default_rng(seed + 1)
    n = tree.n_steps
    w = tree.w[n]
    coeffs = rng.normal(size=tree.d)
    xi = np.tanh(w @ coeffs) + 0.3 * np.abs(w).sum(axis=1)
    for k in tree.reveal_step_indices():
        lab = tree.reveal_label[k]
        bump = rng.normal(size=int(lab.max()) + 1)
        vals = np.where(lab >= 0, bump[np.clip(lab, 0, None)], 0.0)
        xi = xi + 0.5 * tree.to_leaves(vals, k)
    return xi


def random_obstacle(tree: ScenarioTree, seed: int, margin: float = 0.0) -> AdaptedProcess:
    """Adapted lower obstacle built from the walk, shifted down by `margin`."""
    rng = np.random.default_rng(seed + 2)
    amp, freq, off = rng.normal(), rng.normal(), rng.normal()
    return AdaptedProcess(tree, [amp * np.sin(freq * t + w.sum(axis=1)) + 0.3 * off - margin
                                 for t, w in zip(tree.grid.times, tree.w)])


def random_bsde(tree: ScenarioTree, seed: int) -> BsdeInstance:
    return BsdeInstance(tree=tree, xi=random_terminal(tree, seed),
                        gen=random_generator(tree, seed))


def random_reflected(tree: ScenarioTree, seed: int, l_y: float = 0.5,
                     l_z: float = 0.5, margin: float = 0.0) -> ReflectedInstance:
    return ReflectedInstance(tree=tree, xi=random_terminal(tree, seed),
                             gen=random_generator(tree, seed, l_y=l_y, l_z=l_z),
                             obstacle=random_obstacle(tree, seed, margin=margin))


def random_martingale(tree: ScenarioTree, seed: int) -> AdaptedProcess:
    """Closed martingale E_t[xi] from a random terminal variable."""
    return AdaptedProcess.from_terminal(tree, random_terminal(tree, seed))


def random_strong_supermartingale(tree: ScenarioTree, seed: int) -> LadlagProcess:
    """Ladlag strong supermartingale v = m - a - D with announced drops.

    m is a closed martingale, a a non-decreasing process with predictable
    increments, and D the running sum of non-negative drops d_k booked left
    continuously; the slots are (v, v - d_k), so the left limit is v - lagged drop.
    """
    rng = np.random.default_rng(seed + 3)
    m = random_martingale(tree, seed)
    n = tree.n_steps
    a_vals = tree.path_scan([rng.uniform(0.0, 0.4, size=tree.n_nodes(k)) for k in range(n)],
                            process=True)
    drops = []
    for k in range(n + 1):
        d = rng.uniform(0.0, 0.5, size=tree.n_nodes(k))
        d *= (rng.uniform(size=tree.n_nodes(k)) < DROP_RATE)
        drops.append(d)
    drops[n] = np.zeros(tree.n_nodes(n))  # nothing is announced after the horizon
    d_cum = tree.path_scan(drops[:n], process=True)
    value = [m.values[k] - a_vals[k] - d_cum[k] for k in range(n + 1)]
    right = [value[k] - drops[k] for k in range(n + 1)]
    return LadlagProcess(tree, value, right)
