"""Reflected solver, optimal stopping equivalences, Picard iteration, truncation."""

import numpy as np
import pytest

from treebsde import bsde, reflected
from treebsde.bsde import Generator, solve_bsde
from treebsde.errors import DepthCapError, PicardDivergenceError
from treebsde.families import (
    random_generator,
    random_obstacle,
    random_reflected,
    random_terminal,
    standard_tree,
)
from treebsde.norms import norm_h, norm_sp
from treebsde.processes import AdaptedProcess, PredictableProcess
from treebsde.reflected import (
    PICARD_MAX_ITER,
    PICARD_TOL,
    PicardTrace,
    ReflectedInstance,
    _frozen_generator,
    check_skorokhod,
    picard_alpha,
    picard_solve,
    snell_bruteforce,
    snell_dynamic_program,
    solve_reflected,
    truncate_instance,
    verify_snell_representation,
)
from treebsde.tree import TimeGrid, build_tree, sup_abs


@pytest.fixture(scope="module")
def tree():
    return standard_tree(n_steps=6)


class TestSolveReflected:
    def test_stays_above_obstacle(self, tree):
        inst = random_reflected(tree, 0)
        sol = solve_reflected(inst)
        for k in range(tree.n_steps + 1):
            assert float((sol.y.values[k] - inst.obstacle.values[k]).min()) >= -1e-12

    def test_push_nonnegative(self, tree):
        inst = random_reflected(tree, 1)
        sol = solve_reflected(inst)
        for k in range(tree.n_steps):
            assert float(sol.dk.values[k].min()) >= -1e-13

    @pytest.mark.parametrize("seed", range(20))
    def test_skorokhod_conditions(self, tree, seed):
        inst = random_reflected(tree, seed)
        sol = solve_reflected(inst)
        d = check_skorokhod(inst, sol)
        assert sorted(d) == ["complementarity", "min_increment"]
        assert d["min_increment"] >= -1e-12
        assert d["complementarity"] <= 1e-12

    def test_low_obstacle_reduces_to_plain(self, tree):
        inst = random_reflected(tree, 3, margin=50.0)
        rsol = solve_reflected(inst)
        psol = solve_bsde(inst.plain())
        gap = max(np.abs(rsol.y.values[k] - psol.y.values[k]).max()
                  for k in range(tree.n_steps + 1))
        assert gap <= 1e-12
        assert max(np.abs(v).max() for v in rsol.dk.values) <= 1e-13

    def test_binding_obstacle_pushes(self, tree):
        inst = random_reflected(tree, 4, margin=-2.0)
        sol = solve_reflected(inst)
        total = sum(float(v.sum()) for v in sol.dk.values)
        assert total > 0.0

    def test_dynamics_residual(self, tree):
        inst = random_reflected(tree, 5)
        sol = solve_reflected(inst)
        assert sol.dynamics_residual(inst.gen) <= 1e-10

    def test_terminal_obstacle_clipped(self, tree):
        xi = random_terminal(tree, 6)
        obstacle = AdaptedProcess.constant(tree, 100.0)
        inst = ReflectedInstance(tree=tree, xi=xi, gen=random_generator(tree, 6),
                                 obstacle=obstacle)
        n = tree.n_steps
        assert np.array_equal(inst.obstacle.values[n], np.minimum(100.0, xi))

    def test_terminal_clip_shares_other_steps(self, tree):
        """Only the terminal slot is new; every earlier step is the caller's array."""
        xi = random_terminal(tree, 6)
        obstacle = random_obstacle(tree, 6, margin=-1.0)
        n = tree.n_steps
        before = obstacle.values[n].copy()
        inst = ReflectedInstance(tree=tree, xi=xi, gen=random_generator(tree, 6),
                                 obstacle=obstacle)
        assert np.any(before > xi)  # the clip takes some terminal node
        assert all(inst.obstacle.values[k] is obstacle.values[k] for k in range(n))
        assert np.array_equal(inst.obstacle.values[n], np.minimum(before, xi))
        assert np.array_equal(obstacle.values[n], before)

    @pytest.mark.parametrize("n_other", [4, 6], ids=["same-shape", "other-depth"])
    def test_obstacle_from_another_tree_rejected(self, n_other):
        # a margin of 50 keeps the obstacle below xi, so no terminal clip rebuilds it
        tree, other = standard_tree(n_steps=4), standard_tree(n_steps=n_other)
        with pytest.raises(ValueError, match="another tree"):
            ReflectedInstance(tree=tree, xi=random_terminal(tree, 0),
                              gen=random_generator(tree, 0),
                              obstacle=random_obstacle(other, 0, margin=50.0))

    def test_obstacle_monotonicity(self, tree):
        xi = random_terminal(tree, 7)
        gen = random_generator(tree, 7)
        s_low = random_obstacle(tree, 7, margin=1.0)
        s_high = AdaptedProcess(tree, [v + 0.5 for v in s_low.values])
        y_low = solve_reflected(ReflectedInstance(tree=tree, xi=xi, gen=gen, obstacle=s_low))
        y_high = solve_reflected(ReflectedInstance(tree=tree, xi=xi, gen=gen, obstacle=s_high))
        for k in range(tree.n_steps + 1):
            assert float((y_high.y.values[k] - y_low.y.values[k]).min()) >= -1e-12


class TestSnell:
    def test_dp_matches_solver(self, tree):
        inst = random_reflected(tree, 8)
        sol = solve_reflected(inst)
        costs = inst.gen.along(sol.y, sol.z).values
        term = np.maximum(inst.xi, inst.obstacle.values[tree.n_steps])
        v = snell_dynamic_program(tree, term, inst.obstacle, costs)
        gap = max(np.abs(v.values[k] - sol.y.values[k]).max()
                  for k in range(tree.n_steps + 1))
        assert gap <= 1e-10

    def test_bruteforce_matches_dp(self):
        small = standard_tree(n_steps=4, with_reveal=False)
        for seed in range(10):
            inst = random_reflected(small, seed)
            sol = solve_reflected(inst)
            costs = inst.gen.along(sol.y, sol.z).values
            term = np.maximum(inst.xi, inst.obstacle.values[4])
            v = snell_dynamic_program(small, term, inst.obstacle, costs)
            bv = snell_bruteforce(small, term, inst.obstacle, costs)
            assert abs(float(v.values[0][0]) - bv) <= 1e-12

    def test_depth_caps(self, tree):
        big = standard_tree(n_steps=13, d=1, with_reveal=False)
        obstacle = AdaptedProcess.constant(big, -1.0)
        xi = np.zeros(big.n_nodes(13))
        costs = [np.zeros(big.n_nodes(k)) for k in range(13)]
        with pytest.raises(DepthCapError):
            snell_dynamic_program(big, xi, obstacle, costs)
        with pytest.raises(DepthCapError):
            snell_bruteforce(tree, np.zeros(tree.n_nodes(6)),
                             AdaptedProcess.constant(tree, -1.0),
                             [np.zeros(tree.n_nodes(k)) for k in range(6)])

    @pytest.mark.parametrize("seed", range(10))
    def test_stopping_representations(self, tree, seed):
        inst = random_reflected(tree, seed)
        sol = solve_reflected(inst, scheme="implicit")
        for rep in verify_snell_representation(inst, sol):
            assert rep.passed, f"{rep.inequality_id}: defect {rep.lhs}"


class TestPicard:
    def test_limit_matches_direct(self, tree):
        inst = random_reflected(tree, 20)
        direct = solve_reflected(inst, scheme="implicit")
        sol, trace = picard_solve(inst)
        gap = max(np.abs(sol.y.values[k] - direct.y.values[k]).max()
                  for k in range(tree.n_steps + 1))
        assert gap <= 1e-9

    def test_contraction(self, tree):
        inst = random_reflected(tree, 21)
        _, trace = picard_solve(inst)
        ratios = trace.contraction_ratios
        assert ratios, "expected at least two iterations"
        assert max(ratios) < 1.0

    def test_driver_without_state_converges_in_one(self, tree):
        gen = Generator(fn=lambda k, y, z: np.full(y.shape, 0.3), l_y=0.0, l_z=0.0,
                        name="flat")
        inst = ReflectedInstance(tree=tree, xi=random_terminal(tree, 22), gen=gen,
                                 obstacle=random_obstacle(tree, 22, margin=1.0))
        _, trace = picard_solve(inst)
        assert len(trace.driver_change) <= 1


def _implicit_frozen_picard(instance):
    """picard_solve as it stood with an implicit inner fixed point per frozen sweep."""
    tree, gen = instance.tree, instance.gen
    trace = PicardTrace(alpha_star=picard_alpha(gen))
    y_prev = AdaptedProcess.constant(tree, 0.0)
    z_prev = PredictableProcess.zeros(tree, tree.d)
    frozen_prev = None
    for _ in range(PICARD_MAX_ITER):
        frozen = gen.along(y_prev, z_prev).values
        new = bsde._backward_sweep(tree, instance.xi, _frozen_generator(frozen), "implicit",
                                   obstacle=instance.obstacle.values)
        trace.dy_s2.append(norm_sp(new.y - y_prev, 2.0))
        trace.dz_h2.append(norm_h(new.z - z_prev, 2.0, trace.alpha_star))
        if frozen_prev is not None:
            change = sup_abs(a - b for a, b in zip(frozen, frozen_prev))
            trace.driver_change.append(change)
            if change <= PICARD_TOL:
                return new, trace
        frozen_prev, y_prev, z_prev = frozen, new.y, new.z
        if gen.l_y == 0.0 and gen.l_z == 0.0:
            return new, trace
    raise AssertionError("reference Picard loop did not settle")


class TestPicardExplicitStep:
    """The frozen driver is constant in (y, z), so its explicit step is the
    implicit fixed point: picard_solve keeps every bit of the implicit loop."""

    @pytest.mark.parametrize("d,margin", [(1, 0.0), (1, -1.0), (2, 0.0), (3, 0.5)])
    @pytest.mark.parametrize("seed", [20, 21, 22])
    def test_matches_implicit_frozen_loop(self, d, margin, seed):
        tree = standard_tree(n_steps={1: 6, 2: 4, 3: 3}[d], d=d)
        inst = random_reflected(tree, seed, margin=margin)
        sol, trace = picard_solve(inst)
        ref, ref_trace = _implicit_frozen_picard(inst)
        assert sol.scheme == ref.scheme == "implicit"
        for got, want in [(sol.y, ref.y), (sol.z, ref.z), (sol.m, ref.m), (sol.dk, ref.dk)]:
            assert all(map(np.array_equal, got.values, want.values))
        for name in ("dy_s2", "dz_h2", "driver_change"):
            assert getattr(trace, name) == getattr(ref_trace, name)

    def test_flat_driver_matches_implicit_frozen_loop(self, tree):
        gen = Generator(fn=lambda k, y, z: np.full(y.shape, 0.3), l_y=0.0, l_z=0.0, name="flat")
        inst = ReflectedInstance(tree=tree, xi=random_terminal(tree, 22), gen=gen,
                                 obstacle=random_obstacle(tree, 22, margin=-0.5))
        (sol, trace), (ref, ref_trace) = picard_solve(inst), _implicit_frozen_picard(inst)
        assert all(map(np.array_equal, sol.y.values, ref.y.values))
        assert all(map(np.array_equal, sol.dk.values, ref.dk.values))
        assert trace.dy_s2 == ref_trace.dy_s2 and len(trace.dy_s2) == 1

    def test_huge_finite_iterate_matches_implicit_frozen_loop(self, tree):
        """|Y| near 1e200 squares to an infinite S^2 norm with every value finite:
        the loop records the inf and goes on, as the implicit loop did."""
        gen = Generator(fn=lambda k, y, z: np.full(y.shape, -1e200), l_y=0.0, l_z=0.0,
                        name="huge")
        inst = ReflectedInstance(tree=tree, xi=random_terminal(tree, 22), gen=gen,
                                 obstacle=random_obstacle(tree, 22, margin=-0.5))
        with np.errstate(over="ignore"):
            (sol, trace), (ref, ref_trace) = picard_solve(inst), _implicit_frozen_picard(inst)
        assert all(np.isfinite(y).all() for y in sol.y.values)
        assert all(map(np.array_equal, sol.y.values, ref.y.values))
        assert trace.dy_s2 == ref_trace.dy_s2 == [np.inf]

    @staticmethod
    def _unchecked(tree, fn):
        """An instance whose driver skips the probe check (the excess is given)."""
        gen = Generator(fn=fn, l_y=0.5, l_z=0.0, name="spoiled")
        return ReflectedInstance(tree=tree, xi=random_terminal(tree, 1), gen=gen,
                                 obstacle=random_obstacle(tree, 1), excess=0.0)

    def test_nan_at_zero_raises_in_the_first_sweep(self, tree, monkeypatch):
        calls = []

        def fn(k, y, z):
            calls.append(k)
            return np.where((k == 3) & (np.arange(y.shape[-1]) == 1), np.nan, 0.1 * y)

        sweeps = []
        real = bsde._backward_sweep
        monkeypatch.setattr(reflected, "_backward_sweep",
                            lambda *a, **kw: sweeps.append(a) or real(*a, **kw))
        with pytest.raises(PicardDivergenceError,
                           match=r"^step 3: non-finite frozen driver at node 1 \(spoiled\)$"):
            picard_solve(self._unchecked(tree, fn))
        assert sorted(calls) == list(range(tree.n_steps)) and len(sweeps) == 1

    def test_nan_along_the_iterate_raises_in_its_sweep(self, tree):
        """Finite at y = 0, NaN once the iterate moves: the second frozen driver
        stops the loop, at the last driver step the sweep meets first."""
        inst = self._unchecked(tree, lambda k, y, z: np.where(y != 0.0, np.nan, 0.0))
        with pytest.raises(PicardDivergenceError, match=rf"^step {tree.n_steps - 1}: "
                                                        "non-finite frozen driver"):
            picard_solve(inst)


class TestTruncation:
    @pytest.mark.parametrize("level", [np.nan, 0.0, -1.0], ids=["nan", "zero", "negative"])
    def test_level_must_be_positive(self, tree, level):
        with pytest.raises(ValueError, match=f"^truncation level must be positive, got {level}$"):
            truncate_instance(random_reflected(tree, 0), level)

    def test_cauchy_increments_decay_monotonically(self):
        """Exponential-of-the-walk terminal with a per-leaf smear, so the tail
        has mass in every truncation bracket; equally spaced levels then cut
        strictly less mass at each step."""
        tree = build_tree(TimeGrid(horizon=1.0, n_steps=12), d=1)
        w = tree.w[12][:, 0]
        rng = np.random.default_rng(77)
        xi = np.exp(1.2 * w + 0.8 * rng.uniform(-1.0, 1.0, size=w.shape))
        gen = random_generator(tree, 30, l_y=0.3, l_z=0.3)
        inst = ReflectedInstance(tree=tree, xi=xi, gen=gen,
                                 obstacle=AdaptedProcess.constant(tree, -5.0))
        levels = [5.0, 10.0, 15.0, 20.0, 25.0, 30.0]
        sols = [solve_reflected(truncate_instance(inst, lv)) for lv in levels]
        incs = []
        for a, b in zip(sols, sols[1:]):
            dy = a.y - b.y
            incs.append(norm_sp(dy, 1.5))
        assert all(x > y for x, y in zip(incs, incs[1:])), incs
