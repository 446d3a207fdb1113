"""Norms, brackets, and the explicit constants with their closed-form values."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treebsde.families import random_martingale, standard_tree
from treebsde.norms import (
    burkholder_constant,
    burkholder_constant_alt,
    meyer_c_prime,
    meyer_constant,
    meyer_constant_ladlag,
    norm_h,
    norm_i,
    norm_m,
    norm_sp,
    phi_p,
    power_sum_bounds,
    young_bound,
)
from treebsde.processes import PredictableProcess


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
