"""Seeded families: the random driver's zero level is built once per driver step."""

import numpy as np
import pytest

from treebsde.families import random_generator, standard_tree
from treebsde.processes import PredictableProcess
from treebsde.tree import Reveal, ScenarioTree, TimeGrid, build_tree


def _per_call_driver(tree, seed, l_y=0.5, l_z=0.5):
    """Reference driver that rebuilds the zero level b0_k on every call."""
    rng = np.random.default_rng(seed)
    u = rng.normal(size=tree.d)
    u /= np.linalg.norm(u)
    a0, a1, c = rng.normal(size=3)
    lab_bias = rng.normal(size=8)

    def fn(k, y, z):
        w = tree.w[k].sum(axis=1)
        lab = tree.reveal_label[k]
        b0 = a0 + a1 * np.tanh(w) + np.where(lab >= 0, lab_bias[np.clip(lab, 0, 7)], 0.0)
        b0 = np.broadcast_to(b0, y.shape)
        return b0 + l_y * np.sin(y + c) + l_z * np.tanh(z @ u)

    return fn


def _ten_label_tree():
    # labels 8 and 9 share the last bias entry through the clip at 7
    grid = TimeGrid(horizon=1.0, n_steps=4)
    tree = build_tree(grid, d=1, reveals=(Reveal(time=grid.times[2], labels=tuple("abcdefghij"),
                                                 probs=(0.1,) * 10),))
    assert int(tree.reveal_label[2].max()) == 9
    return tree


TREES = {
    "d1-reveal": lambda: standard_tree(n_steps=5, d=1),
    "d1-plain": lambda: standard_tree(n_steps=5, d=1, with_reveal=False),
    "d2-reveal": lambda: standard_tree(n_steps=4, d=2),
    "d2-plain": lambda: standard_tree(n_steps=4, d=2, with_reveal=False),
    "ten-labels": _ten_label_tree,
}


def _inputs(tree, k, rng):
    n = tree.n_nodes(k)
    return [(np.zeros(n), np.zeros((n, tree.d))),
            (rng.normal(size=n) * 3, rng.normal(size=(n, tree.d)) * 3)]


class TestRandomGenerator:
    @pytest.mark.parametrize("name", list(TREES))
    @pytest.mark.parametrize("seed,l_y,l_z", [(0, 0.5, 0.5), (13, 0.3, 0.7)])
    def test_matches_per_call_driver(self, name, seed, l_y, l_z):
        tree = TREES[name]()
        gen = random_generator(tree, seed, l_y=l_y, l_z=l_z)
        ref = _per_call_driver(tree, seed, l_y=l_y, l_z=l_z)
        rng = np.random.default_rng(seed)
        for k in range(tree.n_steps):
            for y, z in _inputs(tree, k, rng):
                got, want = gen(k, y, z), ref(k, y, z)
                assert got.shape == want.shape == y.shape
                assert got.tobytes() == want.tobytes()

    def test_returned_values_are_fresh(self):
        tree = standard_tree(n_steps=4)
        gen = random_generator(tree, 5)
        for k in range(tree.n_steps):
            n = tree.n_nodes(k)
            y, z = np.zeros(n), np.zeros((n, tree.d))
            want = gen(k, y, z).copy()
            gen(k, y, z)[:] = 99.0
            gen.fn(k, y, z)[:] = -99.0
            assert gen(k, y, z).tobytes() == want.tobytes()

    def test_calls_do_not_read_the_walk(self, monkeypatch):
        tree = standard_tree(n_steps=4, d=2)
        gen = random_generator(tree, 5)

        def no_walk(self):
            raise AssertionError("driver read tree.w after construction")

        monkeypatch.setattr(ScenarioTree, "w", property(no_walk))
        rng = np.random.default_rng(1)
        for k in range(tree.n_steps):
            for y, z in _inputs(tree, k, rng):
                gen(k, y, z)
        gen.g0_process(tree)

    def test_g0_lives_on_the_driver_steps(self):
        tree = standard_tree(n_steps=4)
        gen = random_generator(tree, 5)
        g0 = gen.g0_process(tree)
        assert isinstance(g0, PredictableProcess)
        assert len(g0.values) == tree.n_steps
        for k in range(tree.n_steps):
            assert g0.values[k].tobytes() == gen.g0(tree, k).tobytes()
