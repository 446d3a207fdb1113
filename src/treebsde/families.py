"""Seeded random families of trees, drivers, instances and supermartingales.

Everything here is deterministic given (seed, shape parameters) so that any
reported number carries a reproducible fingerprint.
"""

from __future__ import annotations

import numpy as np

from .bsde import BsdeInstance, Generator
from .processes import AdaptedProcess, LadlagProcess
from .reflected import ReflectedInstance
from .tree import Reveal, ScenarioTree, TimeGrid, build_tree, sum_axis

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


def _seeded_driver(b0: list, c: np.ndarray, u: np.ndarray, l_y: float, l_z: float):
    """g(k, y, z) = b0_k + l_y sin(y + c) + l_z tanh(z . u), on the parameters of one
    member (b0_k (n_k,), c a scalar, u (d, 1)) or of a family, with a leading member
    axis on each (b0_k (B, n_k), c (B, 1), u (B, d, 1)).  z . u is a matmul either way.
    fn.in_y (Generator.in_y) holds the z-term fixed, slices it and b0_k to the node
    range of y, and works in place on y + c, in `out` where given."""
    def in_y(k, z):
        tz = l_z * np.tanh((z @ u)[..., 0])

        def g(y, nodes=slice(None), out=None):
            out = np.add(y, c, out)
            np.sin(out, out=out)
            out *= l_y
            out += b0[k][..., nodes]
            out += tz[..., nodes]
            return out

        return g

    def fn(k, y, z):
        return in_y(k, z)(y)

    fn.in_y = in_y
    return fn


def generator_family(tree: ScenarioTree, seeds, l_y: float = 0.5,
                     l_z: float = 0.5) -> Generator:
    """The seeded drivers of `seeds` as one family Generator; member i is
    random_generator(tree, seeds[i]), a view of row i of the family's parameters.

    g(k, y, z) = b0_k + l_y sin(y + c) + l_z tanh(z . u) with |u| = 1, so the
    declared constants are exact (the derivatives are bounded by 1).  The zero
    level b0_k depends on the node only, so it is built once per driver step
    k < n.
    """
    seeds = list(seeds)
    rngs = [np.random.default_rng(seed) for seed in seeds]
    u = np.stack([rng.normal(size=tree.d) for rng in rngs])[:, :, None]
    for row in u:
        row /= np.linalg.norm(row[:, 0])
    params = np.stack([rng.normal(size=11) for rng in rngs])
    a0, a1, c, lab_bias = params[:, :1], params[:, 1:2], params[:, 2:3], params[:, 3:]
    b0 = []
    for k in range(tree.n_steps):
        w, lab = sum_axis(tree.w[k], 1), tree.reveal_label[k]
        bias = np.where(lab >= 0, lab_bias[:, np.clip(lab, 0, 7)], 0.0)  # per child of the block
        b0.append(a0 + a1 * np.tanh(w) + np.tile(bias, tree.n_nodes(k) // len(lab)))
    members = tuple(Generator(fn=_seeded_driver([b[i] for b in b0], c[i, 0], u[i], l_y, l_z),
                              l_y=l_y, l_z=l_z, name=f"random[{seed}]")
                    for i, seed in enumerate(seeds))
    return Generator(fn=_seeded_driver(b0, c, u, l_y, l_z), l_y=l_y, l_z=l_z,
                     name=f"random[{','.join(map(str, seeds))}]", members=members)


def random_generator(tree: ScenarioTree, seed: int, l_y: float = 0.5,
                     l_z: float = 0.5) -> Generator:
    """Lipschitz driver with node-dependent zero level: the family of one seed."""
    return generator_family(tree, [seed], l_y=l_y, l_z=l_z).members[0]


def _terminals(tree: ScenarioTree, seeds) -> np.ndarray:
    """random_terminal of each seed on tree.forest(len(seeds)), block i seeds[i]'s."""
    n = tree.n_steps
    w = tree.w[n]
    rngs = [np.random.default_rng(seed + 1) for seed in seeds]
    coeffs = np.stack([rng.normal(size=tree.d) for rng in rngs])[:, :, None]
    xi = np.tanh((w @ coeffs)[..., 0]) + 0.3 * sum_axis(np.abs(w), 1)
    for k in tree.reveal_step_indices():
        lab = tree.reveal_label[k]
        bump = np.stack([rng.normal(size=int(lab.max()) + 1) for rng in rngs])
        vals = np.tile(np.where(lab >= 0, bump[:, np.clip(lab, 0, None)], 0.0), tree.n_nodes(k - 1))
        xi = xi + 0.5 * tree.to_leaves(vals.T, k).T
    return ScenarioTree.join(xi)


def random_terminal(tree: ScenarioTree, seed: int) -> np.ndarray:
    """Bounded terminal value depending on the walk and every reveal label."""
    return _terminals(tree, [seed])


def _obstacles(tree: ScenarioTree, seeds: list, margin: float) -> AdaptedProcess:
    """random_obstacle of each seed on tree.forest(len(seeds)), copy i seeds[i]'s."""
    amp, freq, off = np.array([np.random.default_rng(seed + 2).normal(size=3)
                               for seed in seeds]).T[:, :, None]
    shift = 0.3 * off
    return AdaptedProcess(tree.forest(len(seeds)), [
        ScenarioTree.join(amp * np.sin(freq * t + sum_axis(w, 1)) + shift - margin)
        for t, w in zip(tree.grid.times, tree.w)])


def random_obstacle(tree: ScenarioTree, seed: int, margin: float = 0.0) -> AdaptedProcess:
    """Adapted lower obstacle built from the walk, shifted down by `margin`."""
    return _obstacles(tree, [seed], margin)


def random_bsde(tree: ScenarioTree, seed: int) -> BsdeInstance:
    return BsdeInstance(tree=tree, xi=random_terminal(tree, seed),
                        gen=random_generator(tree, seed))


def random_reflected(tree: ScenarioTree, seed: int, l_y: float = 0.5,
                     l_z: float = 0.5, margin: float = 0.0) -> ReflectedInstance:
    return ReflectedInstance(tree=tree, xi=random_terminal(tree, seed),
                             gen=random_generator(tree, seed, l_y=l_y, l_z=l_z),
                             obstacle=random_obstacle(tree, seed, margin=margin))


def reflected_family(tree: ScenarioTree, seeds, l_y: float = 0.5, l_z: float = 0.5,
                     margin: float = 0.0) -> ReflectedInstance:
    """random_reflected of every seed as one instance on tree.forest(len(seeds)), its
    driver probed once: block i is seeds[i]'s, and members[i] equals
    random_reflected(tree, seeds[i], ...)."""
    seeds = list(seeds)
    return ReflectedInstance(tree=tree, xi=_terminals(tree, seeds),
                             gen=generator_family(tree, seeds, l_y=l_y, l_z=l_z),
                             obstacle=_obstacles(tree, seeds, margin))


def random_martingale(tree: ScenarioTree, seed: int) -> AdaptedProcess:
    """Closed martingale E_t[xi] from a random terminal variable."""
    return AdaptedProcess.from_terminal(tree, random_terminal(tree, seed))


def strong_supermartingale_family(tree: ScenarioTree, seeds) -> LadlagProcess:
    """random_strong_supermartingale of every seed on tree.forest(len(seeds)): copy i
    is that of seeds[i], bit for bit, and the family of one seed lives on the tree.

    Each is a ladlag strong supermartingale v = m - a - D with announced drops: m is a
    closed martingale, a a non-decreasing process with predictable increments, and D
    the running sum of non-negative drops d_k booked left continuously; the slots are
    (v, v - d_k), so the left limit is v - lagged drop.
    """
    seeds = list(seeds)
    forest, n = tree.forest(len(seeds)), tree.n_steps
    rngs = [np.random.default_rng(seed + 3) for seed in seeds]
    m = AdaptedProcess.from_terminal(forest, _terminals(tree, seeds))
    a_vals = forest.path_scan([np.concatenate([rng.uniform(0.0, 0.4, size=tree.n_nodes(k))
                                               for rng in rngs]) for k in range(n)], process=True)
    drops = [np.concatenate([rng.uniform(0.0, 0.5, size=tree.n_nodes(k))
                             * (rng.uniform(size=tree.n_nodes(k)) < DROP_RATE) for rng in rngs])
             for k in range(n + 1)]
    drops[n] = np.zeros(forest.n_nodes(n))  # nothing is announced after the horizon
    d_cum = forest.path_scan(drops[:n], process=True)
    value = [m.values[k] - a_vals[k] - d_cum[k] for k in range(n + 1)]
    right = [value[k] - drops[k] for k in range(n + 1)]
    return LadlagProcess(forest, value, right)


def random_strong_supermartingale(tree: ScenarioTree, seed: int) -> LadlagProcess:
    """Ladlag strong supermartingale with announced drops: the family of one seed."""
    return strong_supermartingale_family(tree, [seed])
