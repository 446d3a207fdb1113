"""Adapted, predictable and ladlag processes; stochastic integrals."""

import numpy as np
import pytest

from treebsde.errors import NotAMartingaleError
from treebsde.families import random_martingale, random_strong_supermartingale, standard_tree
from treebsde.processes import AdaptedProcess, LadlagProcess, PredictableProcess, stochastic_integral


@pytest.fixture(scope="module")
def tree():
    return standard_tree(n_steps=5)


class TestAdaptedProcess:
    def test_from_terminal_is_martingale(self, tree):
        m = random_martingale(tree, 0)
        worst, _, _ = m.martingale_defect()
        assert worst <= 1e-13

    def test_require_martingale_raises(self, tree):
        vals = [np.full(tree.n_nodes(k), float(k)) for k in range(tree.n_steps + 1)]
        x = AdaptedProcess(tree, vals)
        with pytest.raises(NotAMartingaleError) as exc:
            x.require_martingale()
        assert exc.value.defect == pytest.approx(1.0)

    def test_arithmetic(self, tree):
        a = random_martingale(tree, 1)
        b = random_martingale(tree, 2)
        s = a + b
        d = s - b
        for k in range(tree.n_steps + 1):
            assert np.allclose(d.values[k], a.values[k], atol=1e-15)

    def test_shape_validation(self, tree):
        with pytest.raises(ValueError):
            AdaptedProcess(tree, [np.zeros(3)] * (tree.n_steps + 1))


class TestPredictableProcess:
    def test_cumulative_books_at_right_endpoint(self, tree):
        dk = PredictableProcess.zeros(tree)
        for k in range(tree.n_steps):
            dk.values[k][:] = 1.0
        cum = dk.cumulative()
        for k in range(tree.n_steps + 1):
            assert np.allclose(cum.values[k], float(k))

    def test_stochastic_integral_is_martingale(self, tree):
        rng = np.random.default_rng(3)
        z = PredictableProcess.zeros(tree, d=tree.d)
        for k in range(tree.n_steps):
            z.values[k][:] = rng.normal(size=z.values[k].shape)
        integ = stochastic_integral(tree, z)
        worst, _, _ = integ.martingale_defect()
        assert worst <= 1e-13
        assert float(integ.values[0][0]) == 0.0

    def test_scalar_integrand_needs_one_dimension(self):
        # Z = 1 held as a scalar on a d = 2 walk would pick dW^1 alone
        tree2 = standard_tree(n_steps=4, d=2)
        ones = PredictableProcess(tree2, [np.ones(tree2.n_nodes(k)) for k in range(4)])
        with pytest.raises(ValueError, match="step 0:"):
            stochastic_integral(tree2, ones)
        tree1 = standard_tree(n_steps=4, d=1)
        scalar = PredictableProcess(tree1, [np.ones(tree1.n_nodes(k)) for k in range(4)])
        column = PredictableProcess(tree1, [np.ones((tree1.n_nodes(k), 1)) for k in range(4)])
        got, want = stochastic_integral(tree1, scalar), stochastic_integral(tree1, column)
        assert all(np.array_equal(a, b) for a, b in zip(got.values, want.values))

    def test_integral_bracket_is_dt(self, tree):
        # unit integrand: the running bracket equals t exactly
        z = PredictableProcess.zeros(tree, d=tree.d)
        for k in range(tree.n_steps):
            z.values[k][:] = 1.0
        integ = stochastic_integral(tree, z)
        qv = np.zeros(1)
        for k, inc in enumerate(integ.increments()):
            qv = tree.lift(qv, k) + inc**2
            assert np.allclose(qv, tree.grid.times[k + 1], atol=1e-14)


class TestLadlagProcess:
    def test_from_cadlag_slots(self, tree):
        m = random_martingale(tree, 4)
        x = LadlagProcess.from_cadlag(m)
        for k in range(tree.n_steps + 1):
            assert np.array_equal(x.value[k], m.values[k])
            assert np.array_equal(x.right[k], m.values[k])
        for jump in x.right_jumps():
            assert np.abs(jump).max() == 0.0

    def test_from_right_matches_cadlag_loop(self, tree):
        m = random_martingale(tree, 4)
        x = LadlagProcess(tree, m.values, m.values)
        # the left-limit loop from_cadlag was written with
        left = [m.values[0]] + [tree.lift(m.values[k - 1], k - 1)
                                for k in range(1, tree.n_steps + 1)]
        y = LadlagProcess.from_cadlag(m)
        for slots in ((x.left, y.left, left), (x.value, y.value, m.values),
                      (x.right, y.right, m.values)):
            assert all(np.array_equal(a, b) and np.array_equal(b, c) for a, b, c in zip(*slots))

    def test_right_jumps_nonnegative(self, tree):
        x = random_strong_supermartingale(tree, 6)
        for jump in x.right_jumps():
            assert float(jump.min()) >= 0.0

    def test_left_limit_is_lifted_right_limit(self, tree):
        x = random_strong_supermartingale(tree, 5)
        assert x.left is x.left  # derived once
        assert np.array_equal(x.left[0], x.value[0])
        for k in range(tree.n_steps):
            assert np.array_equal(x.left[k + 1], tree.lift(x.right[k], k))
