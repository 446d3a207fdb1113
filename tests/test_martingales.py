"""Representation, Doob and Mertens decompositions, measure changes."""

import numpy as np
import pytest

from treebsde.errors import ClassificationError, InvariantViolationError, MeasureChangeError
from treebsde.families import (
    random_martingale,
    random_strong_supermartingale,
    random_terminal,
    standard_tree,
)
from treebsde.martingales import (
    check_strong_supermartingale,
    doob_decompose,
    exhaust_jumps,
    girsanov_change,
    mertens_decompose,
    meyer_bound_family,
    represent_martingale,
)
from treebsde.processes import AdaptedProcess, LadlagProcess, PredictableProcess
from treebsde.tree import TimeGrid, build_tree


@pytest.fixture(scope="module")
def tree():
    return standard_tree(n_steps=5)


class TestRepresentation:
    def test_least_squares_oracle(self):
        """On a one-step d=2 tree the projection must match an explicit
        least-squares regression of the martingale increment on the walk."""
        tree = build_tree(TimeGrid(horizon=1.0, n_steps=1), d=2)
        rng = np.random.default_rng(0)
        xi = rng.normal(size=4)
        xi -= tree.expectation(xi, 1)
        m = AdaptedProcess.from_terminal(tree, xi)
        pair = represent_martingale(tree, m)
        dn = m.values[1] - m.values[0][0]
        dw = tree.dw[1]
        # weighted least squares with the conditional probabilities
        wts = tree.cond_prob[1]
        a = (dw * wts[:, None]).T @ dw
        b = (dw * wts[:, None]).T @ dn
        z_ref = np.linalg.solve(a, b)
        assert np.abs(pair.z.values[0][0] - z_ref).max() <= 1e-12

    def test_reconstruction_exact(self, tree):
        m = random_martingale(tree, 1)
        pair = represent_martingale(tree, m)
        assert pair.reconstruction_defect(m) <= 1e-12

    def test_orthogonal_part_annihilated_by_walk(self, tree):
        m = random_martingale(tree, 2)
        pair = represent_martingale(tree, m)
        for k in range(tree.n_steps):
            inc = pair.m.values[k + 1] - tree.lift(pair.m.values[k], k)
            for i in range(tree.d):
                cross = tree.cond_exp(inc * tree.dw[k + 1][:, i], k + 1)
                assert np.abs(cross).max() <= 1e-13

    def test_walk_squared_compensator(self, tree):
        """The compensator of W^2 is exactly t because the bracket is dt."""
        w2_vals = [np.sum(tree.w[k] ** 2, axis=1) for k in range(tree.n_steps + 1)]
        x = AdaptedProcess(tree, w2_vals)
        m, a, da = doob_decompose(tree, x)
        for k in range(tree.n_steps + 1):
            assert np.abs(a.values[k] + tree.d * tree.grid.times[k]).max() <= 1e-13


class TestDoob:
    def test_supermartingale_mode_rejects_submartingale(self, tree):
        w2 = AdaptedProcess(tree, [np.sum(tree.w[k] ** 2, axis=1)
                                   for k in range(tree.n_steps + 1)])
        with pytest.raises(ClassificationError):
            doob_decompose(tree, w2, supermartingale=True)

    def test_martingale_has_zero_compensator(self, tree):
        m = random_martingale(tree, 3)
        _, a, _ = doob_decompose(tree, m, supermartingale=True)
        assert max(np.abs(v).max() for v in a.values) <= 1e-12


class TestMertens:
    @pytest.mark.parametrize("seed", range(10))
    def test_identity_exact(self, tree, seed):
        x = random_strong_supermartingale(tree, seed)
        check_strong_supermartingale(tree, x)
        dec = mertens_decompose(tree, x)
        assert dec.identity_defect(x) <= 1e-12

    def test_components_monotone(self, tree):
        x = random_strong_supermartingale(tree, 11)
        dec = mertens_decompose(tree, x)
        for k in range(tree.n_steps):
            assert float(dec.da.values[k].min()) >= -1e-12
            di = dec.i.values[k + 1] - tree.lift(dec.i.values[k], k)
            assert float(di.min()) >= -1e-12

    def test_martingale_part(self, tree):
        x = random_strong_supermartingale(tree, 12)
        dec = mertens_decompose(tree, x)
        dec.m.require_martingale(1e-12)

    def test_rejects_submartingale(self, tree):
        w2 = AdaptedProcess(tree, [np.sum(tree.w[k] ** 2, axis=1)
                                   for k in range(tree.n_steps + 1)])
        with pytest.raises(ClassificationError):
            mertens_decompose(tree, LadlagProcess.from_cadlag(w2))


class TestExhaustJumps:
    def _deterministic_path(self):
        """Three-step path with announced drops 0.3 then 0.1."""
        tree = build_tree(TimeGrid(horizon=1.0, n_steps=3), d=1)
        levels = [1.0, 0.7, 0.6, 0.6]
        drops = [0.3, 0.1, 0.0, 0.0]
        value = [np.full(tree.n_nodes(k), levels[k]) for k in range(4)]
        right = [value[k] - drops[k] for k in range(4)]
        return tree, LadlagProcess(tree, value, right)

    def test_no_right_jumps_gives_zero(self, tree):
        m = random_martingale(tree, 13)
        x = LadlagProcess.from_cadlag(m)
        i = exhaust_jumps(tree, x, eps=0.1, n_max=10)
        assert max(np.abs(v).max() for v in i.values) == 0.0

    def test_threshold_selects_large_jump(self):
        tree, x = self._deterministic_path()
        i = exhaust_jumps(tree, x, eps=0.2, n_max=10)
        assert float(i.values[3][0]) == pytest.approx(0.3, abs=1e-15)

    def test_small_threshold_matches_full_decomposition(self):
        tree, x = self._deterministic_path()
        i = exhaust_jumps(tree, x, eps=0.05, n_max=10)
        dec = mertens_decompose(tree, x)
        for k in range(4):
            assert np.abs(i.values[k] - dec.i.values[k]).max() <= 1e-15

    def test_n_max_caps_count(self):
        tree, x = self._deterministic_path()
        i = exhaust_jumps(tree, x, eps=0.05, n_max=1)
        assert float(i.values[3][0]) == pytest.approx(0.3, abs=1e-15)

    def test_monotone_in_n(self):
        tree, x = self._deterministic_path()
        i1 = exhaust_jumps(tree, x, eps=0.05, n_max=1)
        i2 = exhaust_jumps(tree, x, eps=0.05, n_max=2)
        for k in range(4):
            assert float((i2.values[k] - i1.values[k]).min()) >= 0.0


class TestMeyerBound:
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_holds_on_family(self, tree, p):
        for seed in range(50):
            x = random_strong_supermartingale(tree, seed)
            (rep,) = meyer_bound_family(tree, x, p, [""])
            assert rep.passed, f"seed {seed}: ratio {rep.ratio}"

    def test_plain_supermartingale_uses_tighter_constant(self, tree):
        m = random_martingale(tree, 20)
        # subtract a deterministic drift to get a right-continuous supermartingale
        vals = [m.values[k] - tree.grid.times[k] for k in range(tree.n_steps + 1)]
        x = LadlagProcess.from_cadlag(AdaptedProcess(tree, vals))
        (rep,) = meyer_bound_family(tree, x, 2.0, [""])
        assert rep.passed
        assert "12" in str(rep.constant_used) or rep.details.get("constant") == pytest.approx(12.0)


class TestGirsanov:
    def _eta(self, tree, c):
        eta = PredictableProcess.zeros(tree, d=tree.d)
        for k in range(tree.n_steps):
            eta.values[k][:] = c
        return eta

    def test_density_integrates_to_one(self, tree):
        mc = girsanov_change(tree, self._eta(tree, 0.4))
        assert float(mc.leaf_probs_q().sum()) == pytest.approx(1.0, abs=1e-13)

    def test_shifted_walk_is_q_martingale(self, tree):
        mc = girsanov_change(tree, self._eta(tree, 0.4))
        wq = mc.w_q()
        for k in range(1, tree.n_steps + 1):
            prev = mc.cond_exp_q(wq[k][:, 0], k)
            assert np.abs(prev - wq[k - 1][:, 0]).max() <= 1e-12

    def test_orthogonal_martingale_unchanged(self, tree):
        """A martingale driven only by the reveal stays a martingale under Q."""
        lab = tree.reveal_label[tree.reveal_step_indices()[0]]
        bump = np.where(lab >= 0, lab.astype(float) - 0.7, 0.0)
        k0 = tree.reveal_step_indices()[0]
        vals = bump
        for j in range(k0, tree.n_steps):
            vals = tree.lift(vals, j)
        m = AdaptedProcess.from_terminal(tree, vals - tree.expectation(vals, tree.n_steps))
        mc = girsanov_change(tree, self._eta(tree, 0.4))
        for k in range(1, tree.n_steps + 1):
            prev = mc.cond_exp_q(m.values[k], k)
            assert np.abs(prev - m.values[k - 1]).max() <= 1e-12

    def test_scalar_eta(self):
        # d = 1: a scalar eta is the one coordinate; d = 2: rejected, naming the step
        tree1 = standard_tree(n_steps=4, d=1)
        scalar = PredictableProcess(tree1, [np.full(tree1.n_nodes(k), 0.4) for k in range(4)])
        got, want = girsanov_change(tree1, scalar), girsanov_change(tree1, self._eta(tree1, 0.4))
        assert all(np.array_equal(a, b) for a, b in zip(got.density.values, want.density.values))
        tree2 = standard_tree(n_steps=4, d=2)
        scalar = PredictableProcess(tree2, [np.full(tree2.n_nodes(k), 0.4) for k in range(4)])
        with pytest.raises(ValueError, match="step 0:"):
            girsanov_change(tree2, scalar)

    def test_rejects_large_drift(self, tree):
        # |eta| sqrt(dt) >= 1 flips a density factor negative
        c = 1.0 / np.sqrt(tree.dt) + 0.1
        with pytest.raises(MeasureChangeError):
            girsanov_change(tree, self._eta(tree, c))
