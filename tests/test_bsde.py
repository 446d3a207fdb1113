"""Backward solvers: exact dynamics, closed forms, schemes, contracts."""

import dataclasses
import math

import numpy as np
import pytest

from treebsde.bsde import (
    IMPLICIT_MAX_ITER,
    IMPLICIT_TOL,
    LIPSCHITZ_PROBES,
    LIPSCHITZ_SEED,
    LIPSCHITZ_STACK,
    AffineGenerator,
    BsdeInstance,
    Generator,
    _implicit_step,
    _probe_excess,
    check_lipschitz,
    solve_bsde,
    solve_linear_bsde,
)
from treebsde.cli import default_config, generator_from_config, parse_config, tree_from_config
from treebsde.errors import GeneratorContractError, PicardDivergenceError, StepSizeError
from treebsde.families import (
    random_bsde,
    random_generator,
    random_obstacle,
    random_reflected,
    random_terminal,
    reflected_family,
    standard_tree,
)
from treebsde.processes import stochastic_integral
from treebsde.reflected import (
    ReflectedInstance,
    _frozen_generator,
    _linearization,
    solve_reflected,
    truncate_instance,
)
from treebsde.tree import Reveal, TimeGrid, build_tree


@pytest.fixture(scope="module")
def tree():
    return standard_tree(n_steps=6)


def _zero_gen():
    return Generator(fn=lambda k, y, z: np.zeros(y.shape), l_y=0.0, l_z=0.0, name="zero")


def _const_gen(c):
    return Generator(fn=lambda k, y, z: np.full(y.shape, c), l_y=0.0, l_z=0.0, name="const")


class TestSolveBsde:
    def test_zero_driver_gives_conditional_expectations(self, tree):
        xi = random_terminal(tree, 0)
        sol = solve_bsde(BsdeInstance(tree=tree, xi=xi, gen=_zero_gen()))
        expect = xi
        for k in range(tree.n_steps, 0, -1):
            expect = tree.cond_exp(expect, k)
        assert float(sol.y.values[0][0]) == pytest.approx(tree.expectation(xi, tree.n_steps), abs=1e-13)

    def test_constant_driver_shifts_by_cT(self, tree):
        xi = random_terminal(tree, 1)
        c = 0.7
        sol = solve_bsde(BsdeInstance(tree=tree, xi=xi, gen=_const_gen(c)))
        want = tree.expectation(xi, tree.n_steps) - c * tree.grid.horizon
        assert float(sol.y.values[0][0]) == pytest.approx(want, abs=1e-13)

    @pytest.mark.parametrize("scheme", ["explicit", "implicit"])
    def test_dynamics_residual(self, tree, scheme):
        inst = random_bsde(tree, 2)
        sol = solve_bsde(inst, scheme=scheme)
        assert sol.dynamics_residual(inst.gen) <= 1e-10

    def test_orthogonality(self, tree):
        inst = random_bsde(tree, 3)
        sol = solve_bsde(inst)
        assert sol.orthogonality_defect() <= 1e-12

    def test_zw_plus_m_minus_k_is_martingale(self, tree):
        inst = random_bsde(tree, 4)
        sol = solve_bsde(inst)
        (stochastic_integral(tree, sol.z) + sol.m - sol.k).require_martingale(1e-11)

    def test_plain_bsde_has_zero_k(self, tree):
        inst = random_bsde(tree, 5)
        sol = solve_bsde(inst)
        assert max(np.abs(v).max() for v in sol.dk.values) == 0.0

    def test_scheme_gap_shrinks_linearly(self):
        gaps = []
        for n in (4, 8, 16):
            tr = standard_tree(n_steps=n)
            inst = random_bsde(tr, 6)
            se = solve_bsde(inst, scheme="explicit")
            si = solve_bsde(inst, scheme="implicit")
            gaps.append(abs(float(se.y.values[0][0]) - float(si.y.values[0][0])))
        assert gaps[1] <= 0.75 * gaps[0]
        assert gaps[2] <= 0.75 * gaps[1]

    def test_comparison_zero_driver(self, tree):
        xi1 = random_terminal(tree, 7)
        xi2 = xi1 - np.abs(random_terminal(tree, 8))
        s1 = solve_bsde(BsdeInstance(tree=tree, xi=xi1, gen=_zero_gen()))
        s2 = solve_bsde(BsdeInstance(tree=tree, xi=xi2, gen=_zero_gen()))
        for k in range(tree.n_steps + 1):
            assert float((s1.y.values[k] - s2.y.values[k]).min()) >= -1e-14

    def test_step_size_guard(self):
        tr = standard_tree(n_steps=2, horizon=10.0)
        gen = Generator(fn=lambda k, y, z: np.sin(y), l_y=1.0, l_z=0.0, name="stiff")
        with pytest.raises(StepSizeError):
            solve_bsde(BsdeInstance(tree=tr, xi=np.zeros(tr.n_nodes(2)), gen=gen))

    def test_along_is_the_per_step_driver(self, tree):
        inst = random_bsde(tree, 5)
        sol = solve_bsde(inst)
        got = inst.gen.along(sol.y, sol.z)
        assert len(got.values) == tree.n_steps
        for k in range(tree.n_steps):
            assert np.array_equal(got.values[k], inst.gen(k, sol.y.values[k], sol.z.values[k]))


def _bind(kind, tree, gen):
    """A plain or a reflected instance binding `gen` to `tree`."""
    xi = random_terminal(tree, 0)
    if kind == "plain":
        return BsdeInstance(tree=tree, xi=xi, gen=gen)
    return ReflectedInstance(tree=tree, xi=xi, gen=gen, obstacle=random_obstacle(tree, 0))


class TestLipschitzContract:
    def test_violation_detected(self, tree):
        lying = Generator(fn=lambda k, y, z: 5.0 * y, l_y=0.5, l_z=0.0, name="lying")
        with pytest.raises(GeneratorContractError):
            check_lipschitz(lying, tree)

    def test_honest_generator_passes(self, tree):
        inst = random_bsde(tree, 9)
        check_lipschitz(inst.gen, tree)

    @pytest.mark.parametrize("kind", ["plain", "reflected"])
    def test_lying_driver_rejected_when_bound(self, tree, kind):
        lying = Generator(fn=lambda k, y, z: 5.0 * y, l_y=0.5, l_z=0.0, name="lying")
        with pytest.raises(GeneratorContractError):
            _bind(kind, tree, lying)

    @pytest.mark.parametrize("kind", ["plain", "reflected"])
    def test_stiff_driver_rejected_when_bound(self, kind):
        tr = standard_tree(n_steps=2, horizon=10.0)
        stiff = Generator(fn=lambda k, y, z: np.sin(y), l_y=1.0, l_z=0.0, name="stiff")
        with pytest.raises(StepSizeError):
            _bind(kind, tr, stiff)

    def test_reflected_is_a_plain_instance_plus_an_obstacle(self):
        assert issubclass(ReflectedInstance, BsdeInstance)
        names = [f.name for f in dataclasses.fields(BsdeInstance)]
        assert [f.name for f in dataclasses.fields(ReflectedInstance)] == names + ["obstacle"]

    def test_reflected_shares_its_plain_instance(self, tree, monkeypatch):
        inst = random_reflected(tree, 9)

        def probed(gen, tree):
            raise AssertionError("plain() probed the driver again")

        # built on first use, with the instance's excess
        monkeypatch.setattr("treebsde.bsde.check_lipschitz", probed)
        assert inst.plain() is inst.plain() and type(inst.plain()) is BsdeInstance
        assert inst.plain().gen is inst.gen and inst.plain().xi is inst.xi
        assert inst.plain().excess == inst.excess

    @pytest.mark.parametrize("kind", ["plain", "reflected"])
    def test_instances_are_frozen(self, tree, kind):
        inst = _bind(kind, tree, random_bsde(tree, 9).gen)
        for name in ("tree", "xi", "gen"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(inst, name, getattr(inst, name))


def _per_probe_lipschitz(gen, tree):
    """Reference: the probe loop with one pair of driver calls per probe."""
    rng = np.random.default_rng(LIPSCHITZ_SEED)
    worst = 0.0
    for _ in range(LIPSCHITZ_PROBES):
        k = int(rng.integers(0, tree.n_steps))
        n = tree.n_nodes(k)
        y, y2 = rng.normal(size=n) * 3, rng.normal(size=n) * 3
        z, z2 = rng.normal(size=(n, tree.d)) * 3, rng.normal(size=(n, tree.d)) * 3
        lhs = np.abs(gen(k, y, z) - gen(k, y2, z2))
        bound = gen.l_y * np.abs(y - y2) + gen.l_z * np.linalg.norm(z - z2, axis=1)
        worst = max(worst, float((lhs - bound).max()))
    return worst


def _recording(gen, calls):
    """`gen` with a driver that logs (step, y shape) of every call."""
    def fn(k, y, z):
        calls.append((k, y.shape))
        return gen.fn(k, y, z)
    return Generator(fn=fn, l_y=gen.l_y, l_z=gen.l_z, name=gen.name)


def _const_by_len(c):
    # ignores leading axes: one value per entry of the first axis
    return Generator(fn=lambda k, y, z: np.full(len(y), c), l_y=0.0, l_z=0.0, name="by-len")


class TestStackedProbes:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("with_reveal", [False, True])
    def test_matches_per_probe_loop(self, d, with_reveal):
        tree = standard_tree(n_steps=5, d=d, with_reveal=with_reveal)
        for seed in (0, 1):
            gen = random_generator(tree, seed)
            assert check_lipschitz(gen, tree) == _per_probe_lipschitz(gen, tree)
        affine = AffineGenerator.build(tree, lam=0.6, eta=[0.3] * d,
                                       g0_fn=lambda k, n: np.full(n, 0.2))
        assert check_lipschitz(affine, tree) == _per_probe_lipschitz(affine, tree)

    def test_wide_steps_keep_one_probe_per_call(self):
        tree = build_tree(TimeGrid(horizon=1.0, n_steps=14), d=1)
        assert tree.n_nodes(tree.n_steps - 1) > LIPSCHITZ_STACK
        gen, calls = random_generator(tree, 4), []
        assert check_lipschitz(_recording(gen, calls), tree) == _per_probe_lipschitz(gen, tree)
        wide = [(k, shape) for k, shape in calls if tree.n_nodes(k) > LIPSCHITZ_STACK]
        narrow = [(k, shape) for k, shape in calls if tree.n_nodes(k) <= LIPSCHITZ_STACK]
        # a lone driver is called on a member axis of length one
        assert wide and all(shape == (1, tree.n_nodes(k)) for k, shape in wide)
        assert narrow and all(len(shape) == 3 and shape[1:] == (1, tree.n_nodes(k))
                              for k, shape in narrow)

    def test_one_call_pair_per_probed_step(self):
        """Performance guard: the probes of a step share one pair of driver calls."""
        tree = tree_from_config(parse_config({"tree": default_config()["tree"]}))
        calls = []
        check_lipschitz(_recording(random_generator(tree, 0), calls), tree)
        steps = {k for k, _ in calls}
        assert len(calls) <= 2 * len(steps) < LIPSCHITZ_PROBES

    @pytest.mark.parametrize("kind", ["plain", "reflected"])
    @pytest.mark.parametrize("fn", [
        lambda k, y, z: np.where(y > 4, np.nan, 0.1 * y),
        lambda k, y, z: np.full(y.shape, np.inf),
    ], ids=["nan-above-4", "inf"])
    def test_non_finite_driver_rejected(self, kind, fn):
        tree = standard_tree(n_steps=4)
        gen = Generator(fn=fn, l_y=0.5, l_z=0.0, name="blowup")
        with pytest.raises(GeneratorContractError, match=r"blowup: step \d+: non-finite driver value"):
            check_lipschitz(gen, tree)
        with pytest.raises(GeneratorContractError, match=r"blowup: step \d+: non-finite"):
            _bind(kind, tree, gen)

    @pytest.mark.parametrize("extra", [0, 1], ids=["m==n_k", "m!=n_k"])
    def test_driver_dropping_leading_axes_rejected(self, tree, extra):
        k = 4
        n = tree.n_nodes(k)
        draw = np.random.default_rng(0).normal(size=(n + extra, 4 * n))
        with pytest.raises(GeneratorContractError,
                           match=rf"by-len: step {k}: y \({n + extra}, 1, {n}\) and z "
                                 rf"\({n + extra}, 1, {n}, 1\) gave a driver value of shape "
                                 rf"\({n + extra},\)"):
            _probe_excess(_const_by_len(0.3), k, n, draw)

    def test_driver_dropping_leading_axes_rejected_when_bound(self, tree):
        with pytest.raises(GeneratorContractError, match="by-len: step"):
            _bind("plain", tree, _const_by_len(0.3))


def _cli_driver(spec):
    def make(tree):
        section = {"horizon": tree.grid.horizon, "n_steps": tree.n_steps, "d": tree.d,
                   "reveals": [{"time": r.time, "labels": list(r.labels), "probs": list(r.probs)}
                               for r in tree.reveals]}
        cfg = parse_config({"tree": section, "generator": spec(tree)})
        return generator_from_config(cfg, tree)
    return make


# every driver the package builds, as a function of the tree
DRIVERS = {
    "random_generator": lambda tree: random_generator(tree, 3),
    "AffineGenerator.build": lambda tree: AffineGenerator.build(
        tree, lam=0.6, eta=[0.3] * tree.d, g0_fn=lambda k, n: np.full(n, 0.2)),
    "cli-affine": _cli_driver(lambda tree: {"kind": "affine", "lam": 0.3,
                                            "eta": [0.2] * tree.d, "g0": 0.1}),
    "cli-polynomial-clipped": _cli_driver(lambda tree: {"kind": "polynomial-clipped",
                                                        "l_y": 0.5, "l_z": 0.5, "bound": 2.0}),
    "cli-table": _cli_driver(lambda tree: {"kind": "table",
                                           "values": [0.1 * k for k in range(tree.n_steps)]}),
    "truncate_instance": lambda tree: truncate_instance(random_reflected(tree, 3), 0.8).gen,
    "picard-frozen": lambda tree: _frozen_generator(
        [np.random.default_rng(k).normal(size=tree.n_nodes(k)) for k in range(tree.n_steps)]),
}


class TestDriverContract:
    """Every driver is vectorized over step-k nodes with any leading axes."""

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("name", sorted(DRIVERS))
    def test_leading_axes_match_row_calls(self, name, d):
        grid = TimeGrid(horizon=1.0, n_steps=4)
        tree = build_tree(grid, d=d, reveals=(Reveal(grid.times[2], ("a", "b"), (0.4, 0.6)),))
        gen = DRIVERS[name](tree)
        rng = np.random.default_rng(d)
        for k in range(tree.n_steps):
            n = tree.n_nodes(k)
            y, z = rng.normal(size=(2, 3, n)), rng.normal(size=(2, 3, n, d))
            out = gen(k, y, z)
            assert out.shape == y.shape
            for i, j in np.ndindex(2, 3):
                assert np.array_equal(out[i, j], gen(k, y[i, j], z[i, j]))


def _extract_linearization(instance, sol):
    """The (lam, eta, g0) of _linearization along one instance's solution, one list each."""
    steps = (_linearization(instance.gen, sol.tree, k, sol.y.values[k], sol.z.values[k])[1:]
             for k in range(instance.tree.n_steps))
    return tuple(map(list, zip(*steps)))


def _per_point_linearization(instance, sol):
    """Reference: the linearization with d + 3 driver calls per step."""
    tree, gen = instance.tree, instance.gen
    lam_vals, eta_vals, g0_vals = [], [], []
    for k in range(tree.n_steps):
        y, z = sol.y.values[k], sol.z.values[k]
        n = y.shape[0]
        zeros_y = np.zeros(n)
        g_yz = gen(k, y, z)
        g_0z = gen(k, zeros_y, z)
        lam = np.where(np.abs(y) > 1e-12, (g_yz - g_0z) / np.where(y == 0.0, 1.0, y), 0.0)
        lam = np.clip(lam, -gen.l_y, gen.l_y)
        eta = np.zeros((n, tree.d))
        prev = gen(k, zeros_y, np.zeros((n, tree.d)))
        g0_vals.append(prev)
        partial = np.zeros((n, tree.d))
        for i in range(tree.d):
            partial[:, i] = z[:, i]
            cur = gen(k, zeros_y, partial.copy())
            zi = z[:, i]
            eta[:, i] = np.where(np.abs(zi) > 1e-12,
                                 (cur - prev) / np.where(zi == 0.0, 1.0, zi), 0.0)
            prev = cur
        eta = np.clip(eta, -gen.l_z, gen.l_z)
        lam_vals.append(lam)
        eta_vals.append(eta)
    return lam_vals, eta_vals, g0_vals


def _linearized_instance(name, d, reveal, seed=0):
    tree = standard_tree(n_steps=4, d=d, with_reveal=reveal)
    inst = ReflectedInstance(tree=tree, xi=random_terminal(tree, seed), gen=DRIVERS[name](tree),
                             obstacle=random_obstacle(tree, seed))
    return inst, solve_reflected(inst)


class TestStackedLinearization:
    """The Snell linearization evaluates each step's d + 2 points in one driver call."""

    @pytest.mark.parametrize("reveal", [False, True])
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("name", ["random_generator", "cli-affine", "cli-polynomial-clipped"])
    def test_matches_per_point_calls(self, name, d, reveal):
        inst, sol = _linearized_instance(name, d, reveal)
        got, want = _extract_linearization(inst, sol), _per_point_linearization(inst, sol)
        for got_vals, want_vals in zip(got, want):
            assert len(got_vals) == len(want_vals) == inst.tree.n_steps
            for a, b in zip(got_vals, want_vals):
                assert a.shape == b.shape and np.array_equal(a, b)

    @pytest.mark.parametrize("d", [1, 3])
    def test_one_driver_call_per_step(self, d):
        inst, sol = _linearized_instance("random_generator", d, True)
        tree, calls = inst.tree, []
        recorded = dataclasses.replace(inst, gen=_recording(inst.gen, calls))
        calls.clear()  # binding ran the Lipschitz probes
        _extract_linearization(recorded, sol)
        assert calls == [(k, (d + 2, 1, tree.n_nodes(k))) for k in range(tree.n_steps)]


class TestMemberAxisOnTheForest:
    """_implicit_step and _linearization take the member count from the forest: on a
    family's forest, member i's block has the bits of its own call on the lone tree."""

    @staticmethod
    def _family(d, reveal):
        tree = standard_tree(n_steps=4, d=d, with_reveal=reveal)
        fam = reflected_family(tree, [3, 8, 5], margin=0.5)
        return tree, fam, solve_reflected(fam)

    @pytest.mark.parametrize("reflect", [False, True], ids=["free", "obstacle"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_implicit_step_members_match_lone_steps(self, d, reflect):
        tree, fam, sol = self._family(d, True)
        forest = fam.forest
        for k in range(tree.n_steps):
            target, z = forest.cond_exp(sol.y.values[k + 1], k + 1), sol.z.values[k]
            s = fam.obstacle.values[k] if reflect else None
            got = forest.split(_implicit_step(fam.gen, forest, k, target, z, obstacle=s))
            for i, gen in enumerate(fam.gen.members):
                want = _implicit_step(gen, tree, k, forest.split(target)[i], forest.split(z)[i],
                                      obstacle=None if s is None else forest.split(s)[i])
                assert np.array_equal(got[i], want), (k, i)

    @pytest.mark.parametrize("reveal", [False, True], ids=["plain", "reveal"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_linearization_members_match_lone_linearization(self, d, reveal):
        tree, fam, sol = self._family(d, reveal)
        forest = fam.forest
        for k in range(tree.n_steps):
            y, z = sol.y.values[k], sol.z.values[k]
            got = [forest.split(a) for a in _linearization(fam.gen, forest, k, y, z)]
            for i, gen in enumerate(fam.gen.members):
                want = _linearization(gen, tree, k, forest.split(y)[i], forest.split(z)[i])
                assert all(a[i].shape == b.shape and np.array_equal(a[i], b)
                           for a, b in zip(got, want)), (k, i)


class TestInnerFixedPointCap:
    """The inner fixed point's cap follows its contraction q = dt * L_y: twice the
    log(IMPLICIT_TOL / first defect) / log(q) iterations, never under IMPLICIT_MAX_ITER."""

    @pytest.mark.parametrize("seed", range(4))
    def test_slow_contraction_converges(self, seed):
        # dt * L_y = 0.983: each of these stopped after IMPLICIT_MAX_ITER iterations
        tree = standard_tree(n_steps=6)
        for inst in (random_reflected(tree, seed, l_y=5.9),
                     BsdeInstance(tree=tree, xi=random_terminal(tree, seed),
                                  gen=random_generator(tree, seed, l_y=5.9))):
            sol = solve_reflected(inst) if isinstance(inst, ReflectedInstance) else solve_bsde(inst)
            assert sol.dynamics_residual(inst.gen) <= 1e-12

    @pytest.mark.parametrize("l_y,cap", [(0.5, IMPLICIT_MAX_ITER),
                                         (0.9, math.ceil(2 * math.log(IMPLICIT_TOL) / math.log(0.9)))])
    def test_cap_from_first_defect(self, l_y, cap):
        # y flips between -1 and 1 for ever: the first defect is 1
        flip = Generator(fn=lambda k, y, z: np.where(y >= 0, 1.0, -1.0), l_y=l_y, l_z=0.0,
                         name="flip")
        tree = build_tree(TimeGrid(horizon=1.0, n_steps=1), d=1)  # 1 node at step 0, dt 1.0
        with pytest.raises(PicardDivergenceError, match=f"not converged after {cap} iterations"):
            _implicit_step(flip, tree, 0, np.zeros(1), np.zeros((1, 1)))


class TestLinearSolver:
    def test_matches_implicit(self, tree):
        gen = AffineGenerator.build(tree, lam=0.6, eta=[0.3] * tree.d,
                                    g0_fn=lambda k, n: np.full(n, 0.2))
        inst = BsdeInstance(tree=tree, xi=random_terminal(tree, 10), gen=gen)
        lin = solve_linear_bsde(inst)
        imp = solve_bsde(inst, scheme="implicit")
        gap = max(np.abs(lin.y.values[k] - imp.y.values[k]).max()
                  for k in range(tree.n_steps + 1))
        assert gap <= 1e-10

    def test_requires_affine(self, tree):
        inst = random_bsde(tree, 11)
        with pytest.raises(TypeError):
            solve_linear_bsde(inst)

    @pytest.mark.parametrize("lam", [-1.0, 0.5])
    def test_exponential_closed_form_order(self, lam):
        """g = lam y, xi = 1: Y_0 -> e^{-lam T} at first order in dt.

        The error is c dt + O(dt^2), so each halving must cut it by about two,
        and the Richardson remainder |2 err(dt/2) - err(dt)| kills the linear
        term and must decay at second order, certifying the leading order.
        """
        errs = []
        for n in (4, 8, 16):
            tr = build_tree(TimeGrid(horizon=1.0, n_steps=n), d=1)
            gen = AffineGenerator.build(tr, lam=lam, eta=[0.0])
            inst = BsdeInstance(tree=tr, xi=np.ones(tr.n_nodes(n)), gen=gen)
            sol = solve_bsde(inst, scheme="implicit")
            errs.append(abs(float(sol.y.values[0][0]) - math.exp(-lam)))
        assert errs[1] <= 0.6 * errs[0]
        assert errs[2] <= 0.6 * errs[1]
        rich = [abs(2 * errs[i + 1] - errs[i]) for i in range(2)]
        assert rich[1] <= 0.35 * rich[0]
