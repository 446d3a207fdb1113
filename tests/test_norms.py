"""Norms, brackets, and the explicit constants with their closed-form values."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treebsde.families import (
    random_martingale,
    random_reflected,
    random_strong_supermartingale,
    standard_tree,
)
from treebsde.norms import (
    burkholder_constant,
    burkholder_constant_alt,
    meyer_c_prime,
    meyer_constant,
    meyer_constant_ladlag,
    norm_h,
    norm_i,
    norm_m,
    norm_m_composite,
    norm_sp,
    phi_p,
    power_sum_bounds,
    sup_power,
    weighted_sum,
    young_bound,
)
from treebsde.processes import LadlagProcess, PredictableProcess
from treebsde.reflected import solve_reflected


@pytest.fixture(scope="module")
def tree():
    return standard_tree(n_steps=4)


class TestConstants:
    def test_c_prime_closed_forms(self):
        assert meyer_c_prime(2.0) == pytest.approx(4.0, abs=1e-14)
        # p in (1, 2]: (p^2/(p-1))^(1/(p-1))
        p = 1.5
        assert meyer_c_prime(p) == pytest.approx((p * p / (p - 1)) ** (1 / (p - 1)), abs=1e-12)

    def test_meyer_constant_p2(self):
        assert meyer_constant(2.0) == pytest.approx(12.0, abs=1e-14)

    def test_meyer_ladlag_composition(self):
        for p in (1.5, 2.0, 3.0):
            c = meyer_constant(p)
            assert meyer_constant_ladlag(p) == pytest.approx(
                c * (1 + c) + c * (1 + p / (p - 1)), abs=1e-10)

    def test_burkholder_values(self):
        assert burkholder_constant(2.0) == pytest.approx(2.0)
        assert burkholder_constant(3.0) == pytest.approx(8.0)
        assert burkholder_constant(4.0) == pytest.approx(16.0)

    def test_burkholder_alt_parse_reported(self):
        # the alternative precedence reading exists and is finite; values differ
        for p in (3.0, 4.0):
            assert math.isfinite(burkholder_constant_alt(p))


class TestPhiP:
    def test_signed_power(self):
        assert phi_p(-4.0, 1.5) == pytest.approx(-2.0, abs=1e-14)
        assert phi_p(4.0, 1.5) == pytest.approx(2.0, abs=1e-14)
        assert phi_p(0.0, 1.5) == 0.0

    @given(st.floats(-50, 50), st.floats(1.05, 4.0))
    @settings(max_examples=200, deadline=None)
    def test_odd_with_magnitude(self, y, p):
        v = phi_p(y, p)
        assert abs(v) == pytest.approx(abs(y) ** (p - 1), rel=1e-10, abs=1e-12)
        assert phi_p(-y, p) == pytest.approx(-v, rel=1e-10, abs=1e-12)


class TestElementaryBounds:
    @given(st.lists(st.floats(1e-3, 10.0), min_size=1, max_size=6),
           st.floats(0.1, 4.0))
    @settings(max_examples=300, deadline=None)
    def test_power_sum_sandwich(self, vals, ell):
        lo, mid, hi = power_sum_bounds(np.array(vals), ell)
        assert lo <= mid + 1e-9 * max(1.0, abs(mid))
        assert mid <= hi + 1e-9 * max(1.0, abs(hi))

    @given(st.floats(0.0, 10.0), st.floats(0.0, 10.0),
           st.floats(0.05, 5.0), st.floats(1.05, 5.0))
    @settings(max_examples=300, deadline=None)
    def test_young(self, a, b, beta, p):
        lhs, rhs = young_bound(a, b, beta, p)
        assert lhs <= rhs + 1e-9 * max(1.0, rhs)
        assert lhs == pytest.approx(a * b, rel=1e-12, abs=1e-12)


class TestNorms:
    def test_sp_of_constant(self, tree):
        from treebsde.processes import AdaptedProcess
        x = AdaptedProcess.constant(tree, -3.0)
        assert norm_sp(x, 2.0) == pytest.approx(3.0, abs=1e-12)
        # the weight e^{(alpha/2) t} peaks at the horizon on every path
        want = 3.0 * math.exp(0.35 * tree.grid.horizon)
        assert norm_sp(x, 2.0, alpha=0.7) == pytest.approx(want, abs=1e-12)

    def test_sp_weighted_reduces_to_sp_at_zero(self, tree):
        m = random_martingale(tree, 0)
        slots = [np.abs(v) for v in m.values]
        sup = tree.path_scan(slots[1:], np.maximum, start=slots[0])
        want = math.sqrt(tree.expectation(sup**2, tree.n_steps))
        assert norm_sp(m, 2.0, alpha=0.0) == pytest.approx(want, abs=1e-12)

    def test_h_norm_unit_integrand(self, tree):
        z = PredictableProcess.zeros(tree, d=tree.d)
        for k in range(tree.n_steps):
            z.values[k][:] = 1.0
        # alpha = 0: integral of |z|^2 ds = d * T, norm = sqrt(d T)
        want = math.sqrt(tree.d * tree.grid.horizon)
        assert norm_h(z, 2.0, 0.0) == pytest.approx(want, abs=1e-12)

    def test_h1_scalar_constant(self, tree):
        from treebsde.processes import AdaptedProcess
        g = AdaptedProcess.constant(tree, 2.0)
        assert norm_h(g, 2.0, 0.0) == pytest.approx(2.0 * math.sqrt(tree.grid.horizon), abs=1e-12)

    def test_m_norm_is_root_expected_bracket(self, tree):
        m = random_martingale(tree, 1)
        incs = m.increments()
        qv = tree.path_scan(inc**2 for inc in incs)
        want = math.sqrt(tree.expectation(qv, tree.n_steps))
        assert norm_m(m, 2.0, 0.0) == pytest.approx(want, abs=1e-12)

    def test_m_norm_p2_isometry(self, tree):
        # E[[M]_T] = E[M_T^2] - M_0^2 for closed martingales
        m = random_martingale(tree, 2)
        n = tree.n_steps
        second = tree.expectation(m.values[n] ** 2, n) - float(m.values[0][0]) ** 2
        assert norm_m(m, 2.0, 0.0) ** 2 == pytest.approx(second, abs=1e-12)

    def test_i_norm_counts_variation(self, tree):
        dk = PredictableProcess.zeros(tree)
        for k in range(tree.n_steps):
            dk.values[k][:] = 0.5
        # alpha = 0: TV = 0.5 * n_steps on every path
        assert norm_i(dk, 2.0, 0.0) == pytest.approx(0.5 * tree.n_steps, abs=1e-12)

    def test_i_norm_weight_uses_right_endpoint(self, tree):
        dk = PredictableProcess.zeros(tree)
        dk.values[0][:] = 1.0
        alpha = 2.0
        want = math.exp((alpha / 2.0) * tree.grid.times[1])
        assert norm_i(dk, 2.0, alpha) == pytest.approx(want, abs=1e-12)


# -- reference transcriptions: one hand-written path scan per norm ------------

def _ref_wr(tree, alpha):
    return [math.exp(alpha * tree.grid.times[k + 1]) for k in range(tree.n_steps)]


def _ref_leaf_norm(tree, leaf, power, p):
    return tree.expectation(leaf**power, tree.n_steps) ** (1.0 / p)


def _ref_sq(v):
    return np.einsum("ni,ni->n", v, v) if v.ndim == 2 else v * v


def _ref_norm_sp(y, p, alpha=0.0):
    tree = y.tree
    times = tree.grid.times

    def slot(k):
        if isinstance(y, LadlagProcess):
            return np.maximum(np.abs(y.left[k]), np.maximum(np.abs(y.value[k]), np.abs(y.right[k])))
        return y.values[k]

    def weighted(k):
        return np.abs(math.exp(0.5 * alpha * times[k]) * slot(k))

    sup = tree.path_scan(map(weighted, range(1, tree.n_steps + 1)), np.maximum, start=weighted(0))
    return _ref_leaf_norm(tree, sup, p, p)


def _ref_norm_h(z, p, alpha):
    tree = z.tree
    w = _ref_wr(tree, alpha)
    acc = tree.path_scan(w[k] * _ref_sq(z.values[k]) * tree.dt for k in range(tree.n_steps))
    return _ref_leaf_norm(tree, acc, p / 2.0, p)


def _ref_norm_m(m, p, alpha):
    tree = m.tree
    w = _ref_wr(tree, alpha)
    acc = tree.path_scan(w[k] * inc**2 for k, inc in enumerate(m.increments()))
    return _ref_leaf_norm(tree, acc, p / 2.0, p)


def _ref_norm_m_composite(z, fv, p, alpha):
    tree = z.tree
    w = _ref_wr(tree, alpha)
    acc = tree.path_scan(w[k] * (tree.lift(_ref_sq(z.values[k]), k) * tree.dt + inc**2)
                         for k, inc in enumerate(fv.increments()))
    return _ref_leaf_norm(tree, acc, p / 2.0, p)


def _ref_norm_i(k_inc, p, alpha):
    tree = k_inc.tree
    w = _ref_wr(tree, 0.5 * alpha)
    acc = tree.path_scan(w[k] * np.abs(v) for k, v in enumerate(k_inc.values))
    return _ref_leaf_norm(tree, acc, p, p)


def _ref_weighted_leaf_term(tree, l_y, g, p):
    w = _ref_wr(tree, l_y)
    leaf = tree.path_scan(tree.lift(w[k] * np.abs(g.values[k]), k) * tree.dt
                          for k in range(tree.n_steps))
    return tree.expectation(leaf**p, tree.n_steps)


def _ref_weighted_sup_term(tree, l_y, s, clip, p):
    times = tree.grid.times

    def weighted(k):
        return math.exp(l_y * times[k]) * clip(s.values[k])

    sup = tree.path_scan(map(weighted, range(1, tree.n_steps + 1)), np.maximum, start=weighted(0))
    return tree.expectation(sup**p, tree.n_steps)


class TestSharedScaffoldKeepsBits:
    """weighted_sum and sup_power multiply the weight first and dt last, so every
    norm and estimate term equals its one-scan-per-norm transcription bit for bit."""

    @pytest.mark.parametrize("reveal", [False, True], ids=["plain", "reveal"])
    @pytest.mark.parametrize("d,n", [(1, 3), (1, 4), (1, 5), (1, 8),
                                     (2, 3), (2, 4), (2, 5), (3, 3)])
    def test_equal_to_reference(self, d, n, reveal):
        tree = standard_tree(n_steps=n, d=d, with_reveal=reveal)
        for seed in range(2):
            inst = random_reflected(tree, seed, margin=0.3)
            sol = solve_reflected(inst)
            mk = sol.m - sol.k
            x = random_strong_supermartingale(tree, seed)
            g = inst.gen.along(sol.y, sol.z)
            abs_g = [np.abs(v) for v in g.values]
            s = inst.obstacle
            for p in (1.2, 1.5, 2.0, 3.0):
                for a in (0.0, 0.3, 1.7):
                    pairs = [
                        (norm_sp(sol.y, p, a), _ref_norm_sp(sol.y, p, a)),
                        (norm_sp(x, p, a), _ref_norm_sp(x, p, a)),
                        (norm_h(sol.z, p, a), _ref_norm_h(sol.z, p, a)),
                        (norm_h(sol.y, p, a), _ref_norm_h(sol.y, p, a)),
                        (norm_m(mk, p, a), _ref_norm_m(mk, p, a)),
                        (norm_m_composite(sol.z, mk, p, a), _ref_norm_m_composite(sol.z, mk, p, a)),
                        (norm_i(sol.dk, p, a), _ref_norm_i(sol.dk, p, a)),
                        (tree.expectation(weighted_sum(tree, a, abs_g, tree.dt) ** p, tree.n_steps),
                         _ref_weighted_leaf_term(tree, a, g, p)),
                        (sup_power(tree, s.values, p, 2.0 * a),
                         _ref_weighted_sup_term(tree, a, s, np.abs, p)),
                        (sup_power(tree, [np.maximum(v, 0.0) for v in s.values], p, 2.0 * a),
                         _ref_weighted_sup_term(tree, a, s, lambda v: np.maximum(v, 0.0), p)),
                    ]
                    for i, (got, want) in enumerate(pairs):
                        assert got == want, (seed, p, a, i, got, want)
