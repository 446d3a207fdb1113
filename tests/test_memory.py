"""The checks build no leaf-sized array they do not keep: their tracemalloc peaks, on a
(1, 14) tree with a three-letter reveal, stay within a stated number of leaf-sized
arrays above their inputs, and increments are built one step at a time as they are
read."""

import tracemalloc

import numpy as np
import pytest

from treebsde.bsde import SolutionQuadruple
from treebsde.estimates import check_solution_norm_family
from treebsde.families import random_martingale, random_reflected
from treebsde.martingales import represent_martingale
from treebsde.reflected import solve_reflected
from treebsde.tree import Reveal, TimeGrid, build_tree

# Leaf-sized arrays a check may hold at once beyond its inputs, and the slack for its
# step-sized scalars and Python objects (a leaf array of this tree is 384 KiB).
RECONSTRUCTION_LEAVES = 2.0  # (Z*W)_n in the buffer of Z.dW, and one defect
DYNAMICS_LEAVES = 2.5        # the defect, the scratch of Z.dW and dM, and dot_dw's term
SOLUTION_NORM_LEAVES = 2.5   # a per-leaf sum, its lift and the step term being added
SLACK_LEAVES = 0.1


@pytest.fixture(scope="module")
def case():
    grid = TimeGrid(horizon=1.0, n_steps=14)
    tree = build_tree(grid, d=1, reveals=(Reveal(time=grid.times[7], labels=("a", "b", "c"),
                                                 probs=(0.5, 0.3, 0.2)),))
    inst = random_reflected(tree, 1)
    sol = solve_reflected(inst)
    inst.g0  # built once per instance: an input of the norm check, not its work
    mart = random_martingale(tree, 1)
    return tree, inst, sol, mart, represent_martingale(tree, mart)


def _peak_leaves(tree, fn):
    """The traced peak of fn() above what was live before it, in leaf-sized arrays."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - before) / (8 * tree.n_nodes(tree.n_steps))


def test_reconstruction_defect_streams_the_integral(case):
    tree, _, _, mart, pair = case
    assert _peak_leaves(tree, lambda: pair.reconstruction_defect(mart)) \
        <= RECONSTRUCTION_LEAVES + SLACK_LEAVES


def test_dynamics_residual_builds_one_defect_per_step(case):
    tree, inst, sol, _, _ = case
    assert _peak_leaves(tree, lambda: sol.dynamics_residual(inst.gen)) \
        <= DYNAMICS_LEAVES + SLACK_LEAVES


def test_solution_norm_check_holds_few_leaf_arrays(case):
    tree, inst, sol, _, _ = case
    # the same arrays on new processes, which keep no norm from an earlier read
    fresh = SolutionQuadruple(tree, *(type(p)(tree, list(p.values))
                                      for p in (sol.y, sol.z, sol.m, sol.dk)))
    assert _peak_leaves(tree, lambda: check_solution_norm_family(inst, fresh, 2.0, 0.0, [""])) \
        <= SOLUTION_NORM_LEAVES + SLACK_LEAVES


class TestIncrements:
    def test_built_one_step_at_a_time_as_read(self, case, monkeypatch):
        tree, _, sol, _, _ = case
        lifts = []
        lift = tree.lift
        monkeypatch.setattr(tree, "lift", lambda x, k: lifts.append(k) or lift(x, k))
        incs = sol.m.increments()
        assert lifts == []
        for k in range(tree.n_steps):
            inc = next(incs)
            assert lifts == list(range(k + 1))
            want = sol.m.values[k + 1] - lift(sol.m.values[k], k)
            assert inc.tobytes() == want.tobytes()
        assert next(incs, None) is None

    def test_read_one_at_a_time_holds_one_increment(self, case):
        tree, _, sol, _, _ = case

        def read():
            for inc in sol.m.increments():
                del inc

        # the last increment and the lift it is built in are one leaf-sized array
        assert _peak_leaves(tree, read) <= 1.0 + SLACK_LEAVES

    def test_spoiling_an_increment_leaves_the_process(self, case):
        _, _, sol, _, _ = case
        before = [v.copy() for v in sol.m.values]
        for inc in sol.m.increments():
            inc[:] = np.nan
        assert all(a.tobytes() == b.tobytes() for a, b in zip(before, sol.m.values))
