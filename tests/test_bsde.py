"""Backward solvers: exact dynamics, closed forms, schemes, contracts."""

import dataclasses
import math
import os
import subprocess
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treebsde import bsde
from treebsde.bsde import (
    IMPLICIT_MAX_ITER,
    IMPLICIT_SPLIT,
    IMPLICIT_TOL,
    LIPSCHITZ_PROBES,
    LIPSCHITZ_SEED,
    LIPSCHITZ_STACK,
    AffineGenerator,
    BsdeInstance,
    Generator,
    _implicit_step,
    _probe_draws,
    _probe_excess,
    check_lipschitz,
    solve_bsde,
    solve_linear_bsde,
)
from treebsde.cli import default_config, generator_from_config, parse_config, tree_from_config
from treebsde.errors import GeneratorContractError, PicardDivergenceError, StepSizeError
from treebsde.families import (
    generator_family,
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


def _serial_probes(tree):
    """Reference: the seeded probe stream drawn on one thread, one normal() call per
    probe, as (step, draw) in the order the probes are drawn."""
    rng = np.random.default_rng(LIPSCHITZ_SEED)
    out = []
    for _ in range(LIPSCHITZ_PROBES):
        k = int(rng.integers(0, tree.n_steps))
        out.append((k, rng.normal(size=(2 + 2 * tree.d) * tree.n_nodes(k)) * 3))
    return out


def _breaching(base, how, calls):
    """`base` with a driver that breaks on the third wide probe: its first call there
    is lifted by 1 ("breach") or returns NaN ("nan")."""
    def fn(k, y, z):
        g = base.fn(k, y, z)
        if y.shape[-1] > LIPSCHITZ_STACK:
            calls.append(k)
            if len(calls) == 5:
                return g + 1.0 if how == "breach" else np.full(g.shape, np.nan)
        return g
    return Generator(fn=fn, l_y=base.l_y, l_z=base.l_z, name=how)


class TestWideProbes:
    """Wide probes are drawn in turn into one buffer from the seeded stream: the draws
    are the serial ones, a breach stops the check with its error text, and neither a
    probe nor a bind starts a thread."""

    @staticmethod
    def _wide_tree():
        tree = build_tree(TimeGrid(horizon=1.0, n_steps=14), d=1)
        assert tree.n_nodes(tree.n_steps - 1) > LIPSCHITZ_STACK
        return tree

    def test_draws_are_the_serial_stream(self):
        tree = self._wide_tree()
        serial = _serial_probes(tree)
        wide = [(k, d) for k, d in serial if tree.n_nodes(k) > LIPSCHITZ_STACK]
        for _ in range(2):  # drawn, then redrawn from the recorded states
            got = [(k, draw.copy()) for k, draw in _probe_draws(tree)]
            assert [k for k, _ in got[:len(wide)]] == [k for k, _ in wide]
            assert all(np.array_equal(a, b) for (_, a), (_, b) in zip(got, wide))
            stacks = got[len(wide):]
            for k, stack in stacks:
                assert np.array_equal(stack, [d for j, d in serial if j == k])
            assert sum(len(stack) for _, stack in stacks) + len(wide) == LIPSCHITZ_PROBES

    def test_wide_draws_share_one_buffer(self):
        tree = self._wide_tree()
        for _ in range(2):
            bases = {id(draw.base) for k, draw in _probe_draws(tree)
                     if tree.n_nodes(k) > LIPSCHITZ_STACK}
            assert len(bases) == 1

    @pytest.mark.parametrize("how, message", [
        ("breach", "breach: Lipschitz excess 9.745e-01 beyond declared (L_y=0.5, L_z=0.5)"),
        ("nan", "nan: step 13: non-finite driver value"),
    ])
    def test_breach_on_third_wide_probe(self, how, message):
        tree = self._wide_tree()
        base = random_generator(tree, 4)
        for redraw in (False, True):
            if redraw:  # an honest check keeps the narrow stacks and the wide states
                check_lipschitz(base, tree)
            calls = []
            with pytest.raises(GeneratorContractError) as err:
                check_lipschitz(_breaching(base, how, calls), tree)
            assert str(err.value) == message
            assert len(calls) >= 6

    def test_wide_bind_and_probe_start_no_thread(self, monkeypatch):
        tree = self._wide_tree()

        def refuse(thread):
            raise AssertionError(f"thread {thread.name} started")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        inst = random_reflected(tree, 0)
        assert inst.gen.certified and inst.excess == 0.0
        check_lipschitz(dataclasses.replace(inst.gen), tree)

    def test_wide_bind_and_probe_load_no_thread_pool(self):
        """Binding random_reflected on a tree with a step wider than LIPSCHITZ_STACK, and
        probing an uncertified copy of its driver there, load no concurrent.futures."""
        code = ("import sys, dataclasses; from treebsde import bsde, families, tree as t\n"
                "tree = t.build_tree(t.TimeGrid(horizon=1.0, n_steps=14), d=1)\n"
                "inst = families.random_reflected(tree, 0)\n"
                "bsde.check_lipschitz(dataclasses.replace(inst.gen), tree)\n"
                "print('concurrent.futures' in sys.modules)")
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src}, check=True)
        assert run.stdout.strip() == "False"


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


# the builders that certify their drivers, each drawing its parameters with `draw`
COEFF, CONSTANT, LEVEL = st.floats(-1.5, 1.5), st.floats(0.0, 1.5), st.floats(0.01, 5.0)
SEED = st.integers(0, 2**16)


def _config_driver(tree, spec):
    return _cli_driver(lambda tree: spec)(tree)


CERTIFYING = {
    "generator_family": lambda tree, draw: generator_family(
        tree, draw(st.lists(SEED, min_size=1, max_size=3)), draw(CONSTANT), draw(CONSTANT)),
    "random_generator": lambda tree, draw: random_generator(
        tree, draw(SEED), draw(CONSTANT), draw(CONSTANT)),
    "AffineGenerator.build": lambda tree, draw: AffineGenerator.build(
        tree, lam=draw(COEFF), eta=draw(st.lists(COEFF, min_size=tree.d, max_size=tree.d))),
    "cli-affine": lambda tree, draw: _config_driver(tree, {
        "kind": "affine", "lam": draw(COEFF), "g0": draw(COEFF),
        "eta": draw(st.lists(COEFF, min_size=tree.d, max_size=tree.d))}),
    "cli-polynomial-clipped": lambda tree, draw: _config_driver(tree, {
        "kind": "polynomial-clipped", "l_y": draw(CONSTANT), "l_z": draw(CONSTANT),
        "bound": draw(LEVEL)}),
    "cli-table": lambda tree, draw: _config_driver(tree, {
        "kind": "table", "values": draw(st.lists(COEFF, min_size=tree.n_steps,
                                                 max_size=tree.n_steps))}),
    "truncate_instance": lambda tree, draw: truncate_instance(random_reflected(
        tree, draw(SEED), draw(CONSTANT), draw(CONSTANT)), draw(LEVEL)).gen,
    "picard-frozen": lambda tree, draw: _frozen_generator(
        [np.random.default_rng([draw(SEED), k]).normal(size=tree.n_nodes(k))
         for k in range(tree.n_steps)]),
}


@st.composite
def _oracle_trees(draw):
    """A small tree: d in {1, 2, 3}, with or without a reveal."""
    d = draw(st.sampled_from([1, 2, 3]))
    return standard_tree(n_steps=draw(st.integers(2, {1: 6, 2: 4, 3: 3}[d])), d=d,
                         with_reveal=draw(st.booleans()))


def _certificate_oracle(build):
    """On hypothesis trees and parameters, the driver `build` makes is certified and
    passes check_lipschitz within its slack."""
    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def oracle(data):
        tree = data.draw(_oracle_trees(), label="tree")
        gen = build(tree, data.draw)
        assert gen.certified
        check_lipschitz(gen, tree)

    oracle()


def _halved(build):
    """A mutant of `build` that declares half of its l_z and certifies that."""
    def mutant(tree, draw):
        gen = build(tree, draw)
        return bsde._certify(dataclasses.replace(gen, l_z=gen.l_z / 2))
    return mutant


class TestCertificate:
    """A lab builder's driver carries a certificate: its constants follow from its formula,
    so binding it runs no probe.  The oracle checks each formula by the probe."""

    @pytest.mark.parametrize("name", sorted(CERTIFYING))
    def test_oracle(self, name):
        _certificate_oracle(CERTIFYING[name])

    @pytest.mark.parametrize("name", ["generator_family", "AffineGenerator.build",
                                      "cli-polynomial-clipped"])
    def test_mutant_declaring_half_l_z_fails_the_oracle(self, name):
        with pytest.raises(GeneratorContractError, match="Lipschitz excess"):
            _certificate_oracle(_halved(CERTIFYING[name]))

    @pytest.mark.parametrize("kind", ["plain", "reflected"])
    def test_certified_bind_runs_no_probe(self, tree, kind, monkeypatch):
        monkeypatch.setattr(bsde, "check_lipschitz", lambda *args: pytest.fail("probed"))
        fam = reflected_family(tree, [1, 2, 3])
        assert type(fam.excess) is np.ndarray and fam.excess.tolist() == [0.0] * 3
        assert all(m.excess == 0.0 for m in fam.members)
        for name, make in sorted(DRIVERS.items()):
            if name != "AffineGenerator.build":  # given a g0_fn: see test_caller_code
                inst = _bind(kind, tree, make(tree))
                assert inst.gen.certified and inst.excess == 0.0, name

    @pytest.mark.parametrize("field", ["l_y", "l_z", "fn"])
    def test_tampered_driver_is_probed(self, tree, field, monkeypatch):
        """A certificate covers the (fn, l_y, l_z) it was issued for: a constant set
        lower, or another fn, after the build makes binding probe the driver."""
        gen = random_generator(tree, 3)
        assert gen.certified
        if field == "fn":
            gen.fn = lambda k, y, z: 5.0 * y
        else:
            setattr(gen, field, getattr(gen, field) / 2)
        assert not gen.certified
        probed, real = [], bsde.check_lipschitz
        monkeypatch.setattr(bsde, "check_lipschitz", lambda g, t: probed.append(g) or real(g, t))
        with pytest.raises(GeneratorContractError, match=r"^random\[3\]: Lipschitz excess"):
            _bind("reflected", tree, gen)
        assert probed == [gen]

    def test_caller_code_is_probed(self, tree, monkeypatch):
        """A driver built from scratch, a replace() of a certified one, and an affine
        driver given a g0_fn carry no certificate, and binding probes each once."""
        seeded = random_generator(tree, 3)
        drivers = [Generator(fn=seeded.fn, l_y=seeded.l_y, l_z=seeded.l_z),
                   dataclasses.replace(seeded),
                   AffineGenerator.build(tree, lam=0.5, eta=[0.3], g0_fn=lambda k, n: np.ones(n))]
        assert AffineGenerator.build(tree, lam=0.5, eta=[0.3]).certified
        probed, real = [], bsde.check_lipschitz
        monkeypatch.setattr(bsde, "check_lipschitz", lambda g, t: probed.append(g) or real(g, t))
        for gen in drivers:
            assert not gen.certified
            assert _bind("plain", tree, gen).excess == real(gen, tree)
        assert probed == drivers

    def test_truncation_keeps_no_certificate_it_did_not_have(self, tree):
        inst = random_reflected(tree, 3)
        assert truncate_instance(inst, 0.8).gen.certified
        caller = dataclasses.replace(inst, gen=dataclasses.replace(inst.gen))
        assert not truncate_instance(caller, 0.8).gen.certified

    def test_frozen_values_not_finite_are_not_certified(self, tree):
        frozen = [np.zeros(tree.n_nodes(k)) for k in range(tree.n_steps)]
        assert _frozen_generator(frozen).certified
        frozen[2][1] = np.nan
        assert not _frozen_generator(frozen).certified


def _in_y_drivers(tree):
    """Every driver the package builds on `tree`, and a seeded family of three."""
    return [(name, make(tree)) for name, make in sorted(DRIVERS.items())] + [
        ("generator_family", reflected_family(tree, [3, 8, 5]).gen)]


class TestInY:
    """Generator.in_y(k, z) is the step-k driver at fixed z as a function of y alone,
    with the bytes of gen(k, y, z); the implicit step computes its z-term once."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_bytes_of_the_driver(self, d):
        tree = standard_tree(n_steps=4, d=d)
        rng = np.random.default_rng(d)
        for name, gen in _in_y_drivers(tree):
            b = len(gen.family)
            for k in range(tree.n_steps):
                n = tree.n_nodes(k)
                # solve, probe and linearization shapes
                for lead in [(b,), (3, 1), (d + 2, b)]:
                    y, z = rng.normal(size=lead + (n,)), rng.normal(size=lead + (n, d))
                    got, want = gen.in_y(k, z)(y), gen(k, y, z)
                    assert got.shape == want.shape and got.tobytes() == want.tobytes(), (name, k)
                    if hasattr(gen.fn, "in_y"):  # a fast form also takes a node range
                        for nodes in (slice(0, n // 2), slice(n // 2, n), slice(1, n)):
                            part = gen.in_y(k, z)(y[..., nodes], nodes)
                            assert part.tobytes() == want[..., nodes].tobytes(), (name, k, nodes)
                            out = np.empty_like(part)  # and an array to write into
                            assert gen.in_y(k, z)(y[..., nodes], nodes, out=out) is out
                            assert out.tobytes() == part.tobytes(), (name, k, nodes)

    @pytest.mark.parametrize("name", ["random_generator", "generator_family",
                                      "AffineGenerator.build", "cli-affine"])
    def test_z_term_once_per_implicit_step(self, name, monkeypatch):
        """z @ u (or z @ eta) is taken once per implicit step, not once per inner
        iteration; the same driver called per y takes it every iteration.  A reflected
        sweep takes it once per step too: its push reuses the step's fixed-z driver."""
        tree = standard_tree(n_steps=4, d=2)
        gen = dict(_in_y_drivers(tree))[name]
        per_y = Generator(fn=lambda k, y, z: gen.fn(k, y, z), l_y=gen.l_y, l_z=gen.l_z)
        forest, matmuls = tree.forest(len(gen.family)), []

        class CountingZ(np.ndarray):
            def __matmul__(self, other):
                matmuls.append(1)
                return np.asarray(self) @ other

        rng = np.random.default_rng(0)
        for k in range(tree.n_steps):
            n = forest.n_nodes(k)
            target, z = rng.normal(size=n), rng.normal(size=(n, tree.d)).view(CountingZ)
            matmuls.clear()
            want = _implicit_step(per_y, forest, k, target, z)
            iterations = len(matmuls)
            matmuls.clear()
            got = _implicit_step(gen, forest, k, target, z)
            assert iterations > 2 and len(matmuls) == 1, (k, iterations, len(matmuls))
            assert got.tobytes() == want.tobytes()
        project = bsde._project
        monkeypatch.setattr(bsde, "_project", lambda f, y_next, k: (
            lambda ey, z: (ey, z.view(CountingZ)))(*project(f, y_next, k)))
        xi = rng.normal(size=forest.n_nodes(tree.n_steps))
        obstacle = [rng.normal(size=forest.n_nodes(k)) for k in range(tree.n_steps + 1)]
        matmuls.clear()
        bsde._backward_sweep(tree, xi, gen, "implicit", obstacle=obstacle, lean=True)
        assert len(matmuls) == tree.n_steps


def _split_tree(d):
    """A tree with a reveal whose widest driver step, the last, has IMPLICIT_SPLIT nodes
    or more, so that its inner fixed point runs on two threads."""
    n_steps = {1: 15, 2: 8, 3: 6}[d]
    grid = TimeGrid(horizon=1.0, n_steps=n_steps)
    tree = build_tree(grid, d=d, reveals=(
        Reveal(grid.times[n_steps // 2], ("a", "b", "c"), (0.5, 0.3, 0.2)),))
    assert tree.n_nodes(n_steps - 1) >= IMPLICIT_SPLIT
    return tree


def _fast_driver(name, l_y, at_y):
    """A lone driver with a fast form whose value at any z is at_y(y, nodes)."""
    def in_y(k, z):
        def g(y, nodes=slice(None), out=None):
            value = at_y(y, nodes)
            if out is None:
                return value
            out[...] = value
            return out

        return g

    def fn(k, y, z):
        return in_y(k, z)(y)

    fn.in_y = in_y
    return Generator(fn=fn, l_y=l_y, l_z=0.0, name=name)


class TestImplicitStepByHalves:
    """On a step of IMPLICIT_SPLIT nodes or more, a driver with a fast form runs each
    inner iteration on the two node halves of every member row at once, one on a worker
    thread: the bits of the serial loop, its error texts, and every thread joined."""

    @staticmethod
    def _both_ways(monkeypatch, *args, **kwargs):
        """_implicit_step on two threads (checking that it started its worker), then with
        the serial loop; an exception of either is returned, not raised."""
        workers, real = [], bsde._worker
        monkeypatch.setattr(bsde, "_worker", lambda: workers.append(1) or real())
        out = []
        for split in (IMPLICIT_SPLIT, math.inf):
            monkeypatch.setattr(bsde, "IMPLICIT_SPLIT", split)
            before = set(threading.enumerate())
            try:
                out.append(_implicit_step(*args, **kwargs))
            except (PicardDivergenceError, FloatingPointError) as err:
                out.append(err)
            assert set(threading.enumerate()) == before
        assert len(workers) == 1
        return out

    @staticmethod
    def _drivers(tree):
        """name -> (driver, row scales of the target): a lone seeded driver, a seeded
        family of three whose middle member, its rows scaled by 400, stops by ulps and
        so at another iteration than the others, and an affine driver."""
        return {"seeded": (random_generator(tree, 3), [1.0]),
                "family": (generator_family(tree, [3, 8, 5]), [1.0, 400.0, 1.0]),
                "affine": (AffineGenerator.build(tree, lam=0.6, eta=[0.3] * tree.d,
                                                 g0_fn=lambda k, n: np.full(n, 0.2)), [1.0])}

    @staticmethod
    def _iterations(gen, tree, k, target, z, obstacle):
        """Inner iterations of each member's own serial solve: its driver calls."""
        counts = []
        for i, member in enumerate(gen.family):
            calls = []
            counting = Generator(fn=lambda k, y, z, f=member.fn: calls.append(k) or f(k, y, z),
                                 l_y=member.l_y, l_z=member.l_z)
            rows = [tree.forest(len(gen.family)).split(a)[i] for a in (target, z)]
            s = None if obstacle is None else tree.forest(len(gen.family)).split(obstacle)[i]
            _implicit_step(counting, tree, k, *rows, obstacle=s)
            counts.append(len(calls))
        return counts

    @pytest.mark.parametrize("reflect", [False, True], ids=["free", "obstacle"])
    @pytest.mark.parametrize("name", ["seeded", "family", "affine"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_bits_of_the_serial_loop(self, monkeypatch, d, name, reflect):
        tree = _split_tree(d)
        gen, scales = self._drivers(tree)[name]
        forest, k = tree.forest(len(scales)), tree.n_steps - 1
        rng = np.random.default_rng(d)
        n = forest.n_nodes(k)
        target = (rng.normal(size=(len(scales), n // len(scales))) * np.c_[scales]).ravel()
        z = rng.normal(size=(n, d))
        obstacle = rng.normal(size=n) if reflect else None
        split, serial = self._both_ways(monkeypatch, gen, forest, k, target, z, obstacle=obstacle)
        assert split.tobytes() == serial.tobytes()
        if name == "family":
            assert len(set(self._iterations(gen, tree, k, target, z, obstacle))) > 1

    def test_concurrent_steps_under_a_short_switch_interval(self, monkeypatch):
        """Three callers, each with its own worker, on two cores, switching threads every
        microsecond: each step keeps the bits of its serial loop."""
        tree = _split_tree(1)
        gen, k = generator_family(tree, [3, 8, 5]), tree.n_steps - 1
        forest = tree.forest(3)
        rng = np.random.default_rng(0)
        jobs = [(rng.normal(size=forest.n_nodes(k)), rng.normal(size=(forest.n_nodes(k), 1)))
                for _ in range(3)]
        monkeypatch.setattr(bsde, "IMPLICIT_SPLIT", math.inf)
        serial = [_implicit_step(gen, forest, k, *job).tobytes() for job in jobs]
        monkeypatch.undo()
        assert len(set(serial)) == 3
        got = [None] * 3

        def run(i):
            got[i] = _implicit_step(gen, forest, k, *jobs[i]).tobytes()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(i,)) for i in range(3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert got == serial

    @pytest.mark.parametrize("bad", [5, 49147], ids=["caller-half", "worker-half"])
    def test_non_finite_iterate_in_either_half(self, monkeypatch, bad):
        tree = _split_tree(1)
        k = tree.n_steps - 1
        n = tree.n_nodes(k)
        gen = _fast_driver(f"nan-at-{bad}", 0.5, lambda y, nodes: np.where(
            np.arange(n)[nodes] == bad, np.nan, y * 0.0))
        split, serial = self._both_ways(monkeypatch, gen, tree, k, np.zeros(n), np.zeros((n, 1)))
        assert str(split) == str(serial) == (
            f"step {k}: non-finite inner iterate at node {bad} (nan-at-{bad})")

    def test_cap_reached(self, monkeypatch):
        tree = _split_tree(1)
        k = tree.n_steps - 1
        n = tree.n_nodes(k)
        # y flips between -dt and dt for ever
        flip = _fast_driver("flip", 0.5, lambda y, nodes: np.where(y >= 0, 1.0, -1.0))
        split, serial = self._both_ways(monkeypatch, flip, tree, k, np.zeros(n), np.zeros((n, 1)))
        assert isinstance(split, PicardDivergenceError) and str(split) == str(serial)
        assert str(split).startswith(f"step {k}: inner fixed point not converged after "
                                     f"{IMPLICIT_MAX_ITER} iterations")

    @pytest.mark.parametrize("half", [0, 1], ids=["caller-half", "worker-half"])
    def test_overflow_raises_under_the_callers_errstate(self, monkeypatch, half):
        tree = _split_tree(1)
        k = tree.n_steps - 1
        n = tree.n_nodes(k)
        big = np.zeros(n)
        big[half * n // 2:(half + 1) * n // 2] = 1e300
        gen = _fast_driver("overflow", 0.5, lambda y, nodes: y * 0.0 + big[nodes] * big[nodes])
        with np.errstate(over="raise"):
            split, serial = self._both_ways(monkeypatch, gen, tree, k, np.zeros(n),
                                            np.zeros((n, 1)))
        assert isinstance(split, FloatingPointError) and isinstance(serial, FloatingPointError)


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


class TestFamilyDynamicsResidual:
    """A family solution's dynamics residual calls the family driver on the forest's
    member axis: it is the worst of the members' own residuals, bit for bit."""

    @pytest.mark.parametrize("reveal", [False, True], ids=["plain", "reveal"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_worst_member_residual(self, d, reveal):
        tree = standard_tree(n_steps=4, d=d, with_reveal=reveal)
        fam = reflected_family(tree, [3, 8, 5], margin=0.5)
        for sol in (solve_bsde(fam.plain()), solve_bsde(fam.plain(), scheme="explicit"),
                    solve_reflected(fam)):
            want = max(member.dynamics_residual(gen)
                       for member, gen in zip(sol.members(tree), fam.gen.members))
            assert sol.dynamics_residual(fam.gen) == want
            assert want <= 1e-10


class TestFamilyAlong:
    """Generator.along on a family's forest calls the family driver through _drive:
    member i's block has the bits of member i's own driver along its own solution."""

    @pytest.mark.parametrize("reveal", [False, True], ids=["plain", "reveal"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_members_match_their_own_along(self, d, reveal):
        tree = standard_tree(n_steps=4, d=d, with_reveal=reveal)
        fam = reflected_family(tree, [3, 8, 5], margin=0.5)
        sol = solve_reflected(fam)
        got = fam.gen.along(sol.y, sol.z)
        assert got.tree is fam.forest and len(got.values) == tree.n_steps
        for member, gen, i in zip(sol.members(tree), fam.gen.members, range(3)):
            want = gen.along(member.y, member.z)
            for k in range(tree.n_steps):
                block = fam.forest.split(got.values[k])[i]
                assert block.tobytes() == want.values[k].tobytes(), (k, i)


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
