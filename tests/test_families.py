"""Seeded families: the random driver's zero level is built once per driver step, and a
family of reflected instances is one instance on the forest, solved as one, with each
member's own bits."""

import hashlib

import numpy as np
import pytest

from treebsde import bsde
from treebsde.bsde import Generator, check_lipschitz, solve_bsde
from treebsde.errors import GeneratorContractError
from treebsde.families import (generator_family, random_generator, random_martingale,
                               random_obstacle, random_reflected, random_terminal,
                               reflected_family, standard_tree, strong_supermartingale_family)
from treebsde.reflected import ReflectedInstance, solve_reflected
from treebsde.processes import AdaptedProcess, PredictableProcess
from treebsde.tree import Reveal, ScenarioTree, TimeGrid, build_tree

from tiles import per_node


def _per_call_driver(tree, seed, l_y=0.5, l_z=0.5):
    """Reference driver that rebuilds the zero level b0_k on every call."""
    rng = np.random.default_rng(seed)
    u = rng.normal(size=tree.d)
    u /= np.linalg.norm(u)
    a0, a1, c = rng.normal(size=3)
    lab_bias = rng.normal(size=8)

    def fn(k, y, z):
        w = tree.w[k].sum(axis=1)
        lab = per_node(tree, "reveal_label", k)
        b0 = a0 + a1 * np.tanh(w) + np.where(lab >= 0, lab_bias[np.clip(lab, 0, 7)], 0.0)
        b0 = np.broadcast_to(b0, y.shape)
        return b0 + l_y * np.sin(y + c) + l_z * np.tanh(z @ u)

    return fn


def _ten_label_tree():
    # labels 8 and 9 share the last bias entry through the clip at 7
    grid = TimeGrid(horizon=1.0, n_steps=4)
    tree = build_tree(grid, d=1, reveals=(Reveal(time=grid.times[2], labels=tuple("abcdefghij"),
                                                 probs=(0.1,) * 10),))
    assert int(per_node(tree, "reveal_label", 2).max()) == 9
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
            n = tree.n_nodes(k)
            assert g0.values[k].tobytes() == gen(k, np.zeros(n), np.zeros((n, tree.d))).tobytes()


# -- the family solve ------------------------------------------------------------

FAMILY_STEPS = {1: 5, 2: 4, 3: 3}


def _family_sizes(tree):
    """1, 2 and 25 members, plus a B equal to d and to a step's node count, which
    an axis mix-up between members, nodes and walk coordinates would not survive."""
    return sorted({1, 2, 25, tree.d, tree.n_nodes(1)})


def _solution_arrays(sol):
    return [*sol.y.values, *sol.z.values, *sol.m.values, *sol.dk.values]


class TestFamilySolve:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("with_reveal", [False, True], ids=["plain", "reveal"])
    def test_member_is_its_solo_instance(self, d, with_reveal):
        tree = standard_tree(n_steps=FAMILY_STEPS[d], d=d, with_reveal=with_reveal)
        rng = np.random.default_rng(d)
        for size in _family_sizes(tree):
            seeds = range(3, 3 + size)
            fam = reflected_family(tree, seeds, l_y=0.4, l_z=0.6, margin=0.5)
            sols = solve_reflected(fam).members(tree)
            assert len(fam.members) == len(sols) == size
            for seed, inst, sol in zip(seeds, fam.members, sols):
                solo = random_reflected(tree, seed, l_y=0.4, l_z=0.6, margin=0.5)
                solo_sol = solve_reflected(solo, scheme="implicit")
                assert np.array_equal(inst.xi, solo.xi)
                assert all(map(np.array_equal, inst.obstacle.values, solo.obstacle.values))
                for k in range(tree.n_steps):
                    n = tree.n_nodes(k)
                    y, z = rng.normal(size=(3, n)) * 3, rng.normal(size=(3, n, d)) * 3
                    assert np.array_equal(inst.gen(k, y, z), solo.gen(k, y, z))
                assert inst.excess == solo.excess == check_lipschitz(solo.gen, tree)
                assert sol.scheme == solo_sol.scheme == "implicit"
                got, want = _solution_arrays(sol), _solution_arrays(solo_sol)
                assert all(a.shape == b.shape and np.array_equal(a, b) for a, b in zip(got, want))

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("with_reveal", [False, True], ids=["plain", "reveal"])
    def test_free_member_is_its_solo_plain_solve(self, d, with_reveal):
        """The obstacle-free family sweep gives each member the bits of solve_bsde of
        its plain() instance, so the obstacle bound can take it in place of a solo solve."""
        tree = standard_tree(n_steps=FAMILY_STEPS[d], d=d, with_reveal=with_reveal)
        for size in (1, 2, 25):
            fam = reflected_family(tree, range(3, 3 + size), l_y=0.4, l_z=0.6, margin=0.5)
            sols = solve_bsde(fam.plain()).members(tree)
            assert len(sols) == size
            for inst, sol in zip(fam.members, sols):
                solo = solve_bsde(inst.plain(), scheme="implicit")
                assert sol.scheme == solo.scheme == "implicit"
                got, want = _solution_arrays(sol), _solution_arrays(solo)
                assert all(a.shape == b.shape and np.array_equal(a, b) for a, b in zip(got, want))
                assert not any(dk.any() for dk in sol.dk.values)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_family_rows_are_member_values(self, d):
        tree = standard_tree(n_steps=FAMILY_STEPS[d], d=d)
        gen = generator_family(tree, range(d + 1))
        rng = np.random.default_rng(0)
        for k in range(tree.n_steps):
            n = tree.n_nodes(k)
            y, z = rng.normal(size=(2, d + 1, n)), rng.normal(size=(2, d + 1, n, d))
            out = gen(k, y, z)
            assert out.shape == y.shape
            for i, member in enumerate(gen.members):
                assert np.array_equal(out[:, i], member(k, y[:, i], z[:, i]))

    def test_lying_member_named(self):
        tree = standard_tree(n_steps=4)
        scale = np.array([[0.1], [0.5], [5.0], [0.2]])
        members = tuple(Generator(fn=lambda k, y, z, s=s: s * y, l_y=0.5, l_z=0.0,
                                  name=f"member{i}") for i, s in enumerate(scale))
        fam = Generator(fn=lambda k, y, z: scale * y, l_y=0.5, l_z=0.0, name="family",
                        members=members)
        with pytest.raises(GeneratorContractError, match=r"^member2: Lipschitz excess"):
            check_lipschitz(fam, tree)
        xis = [random_terminal(tree, i) for i in range(4)]
        obstacles = [random_obstacle(tree, i) for i in range(4)]
        with pytest.raises(GeneratorContractError, match=r"^member2: Lipschitz excess"):
            ReflectedInstance(tree=tree, xi=np.concatenate(xis), gen=fam,
                              obstacle=AdaptedProcess(tree.forest(4), [
                                  np.concatenate(s) for s in zip(*(o.values for o in obstacles))]))
        honest = Generator(fn=lambda k, y, z: scale[:2] * y / 10, l_y=0.5, l_z=0.0,
                           name="honest", members=members[:2])
        excess = check_lipschitz(honest, tree)
        assert excess.shape == (2,)
        assert list(excess) == [check_lipschitz(g, tree) for g in members[:2]]

    def test_non_finite_member_named(self):
        tree = standard_tree(n_steps=4)
        members = tuple(Generator(fn=lambda k, y, z: 0.1 * y, l_y=0.5, l_z=0.0, name=f"m{i}")
                        for i in range(3))
        mask = np.array([[False], [True], [False]])
        fam = Generator(fn=lambda k, y, z: np.where(mask & (y > 4), np.nan, 0.1 * y),
                        l_y=0.5, l_z=0.0, name="family", members=members)
        with pytest.raises(GeneratorContractError, match=r"^m1: step \d+: non-finite driver value"):
            check_lipschitz(fam, tree)


def _instance_arrays(inst):
    return [inst.xi, *inst.obstacle.values, *inst.g0.values]


class TestFamilyIsOneInstance:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("with_reveal", [False, True], ids=["plain", "reveal"])
    def test_members_are_solo_instances(self, d, with_reveal):
        tree = standard_tree(n_steps=FAMILY_STEPS[d], d=d, with_reveal=with_reveal)
        for size in (1, 2, 10):
            seeds = range(7, 7 + size)
            fam = reflected_family(tree, seeds, margin=0.3)
            assert fam.forest is fam.obstacle.tree is fam.g0.tree is tree.forest(size)
            assert fam.xi.shape == (fam.forest.n_nodes(tree.n_steps),)
            assert len(fam.members) == size
            for seed, inst, gen in zip(seeds, fam.members, fam.gen.members, strict=True):
                solo = random_reflected(tree, seed, margin=0.3)
                assert inst.tree is tree and inst.gen is gen
                got, want = _instance_arrays(inst), _instance_arrays(solo)
                assert all(a.shape == b.shape and np.array_equal(a, b)
                           for a, b in zip(got, want, strict=True))
                assert inst.excess == solo.excess

    def test_members_are_row_views_built_once_unprobed(self, monkeypatch):
        tree = standard_tree(n_steps=4)
        fam = reflected_family(tree, range(3))
        monkeypatch.setattr(bsde, "check_lipschitz", lambda *a: pytest.fail("probed again"))
        calls = []
        for gen in (fam.gen, *fam.gen.members):
            monkeypatch.setattr(gen, "fn", lambda k, y, z, f=gen.fn: calls.append(k) or f(k, y, z))
        assert fam.members is fam.members
        for i, inst in enumerate(fam.members):
            assert np.shares_memory(inst.xi, fam.xi) and inst.excess == fam.excess[i]
            for slot in ("obstacle", "g0"):
                assert all(np.shares_memory(a, b) for a, b in zip(
                    getattr(inst, slot).values, getattr(fam, slot).values, strict=True))
        # the family's g0, one driver call per step; no member builds its own
        assert calls == list(range(tree.n_steps))

    def test_g0_one_driver_call_per_step(self):
        tree = standard_tree(n_steps=5, d=2)
        fam = reflected_family(tree, range(10))
        calls = []
        fn = fam.gen.fn
        fam.gen.fn = lambda k, y, z: calls.append((k, y.shape)) or fn(k, y, z)
        assert fam.g0.tree is fam.forest
        assert calls == [(k, (10, tree.n_nodes(k))) for k in range(tree.n_steps)]

    def test_solves_build_no_member(self, monkeypatch):
        tree = standard_tree(n_steps=5)
        fam = reflected_family(tree, range(4), margin=0.5)
        monkeypatch.setattr(ReflectedInstance, "__post_init__",
                            lambda self: pytest.fail("an instance was built"))
        assert solve_reflected(fam).tree is solve_bsde(fam.plain()).tree is fam.forest
        assert "members" not in vars(fam)


class TestFamilyWork:
    """Performance guards of the family solve."""

    def test_probes_drawn_once_per_tree(self, monkeypatch):
        tree = standard_tree(n_steps=6)
        assert max(tree.n_nodes(k) for k in range(tree.n_steps)) <= bsde.LIPSCHITZ_STACK
        draws = []
        real = bsde._draw
        monkeypatch.setattr(bsde, "_draw", lambda *args: draws.append(args[2]) or real(*args))
        fam = reflected_family(tree, range(10))
        assert not draws  # a certified driver is bound unprobed
        excess = check_lipschitz(fam.gen, tree)
        assert len(draws) == bsde.LIPSCHITZ_PROBES
        assert list(excess) == [check_lipschitz(random_generator(tree, s), tree)
                                for s in range(10)]
        assert len(draws) == bsde.LIPSCHITZ_PROBES
        check_lipschitz(fam.gen, standard_tree(n_steps=6))
        assert len(draws) == 2 * bsde.LIPSCHITZ_PROBES

    def test_wide_probes_redrawn_not_kept(self, monkeypatch):
        tree = build_tree(TimeGrid(horizon=1.0, n_steps=14), d=1)
        gen = random_generator(tree, 4)
        draws = []
        real = bsde._draw
        monkeypatch.setattr(bsde, "_draw", lambda *args: draws.append(args[2]) or real(*args))
        first = check_lipschitz(gen, tree)
        wide = [k for k in draws if tree.n_nodes(k) > bsde.LIPSCHITZ_STACK]
        assert wide and len(draws) == bsde.LIPSCHITZ_PROBES
        assert check_lipschitz(gen, tree) == first
        assert draws[bsde.LIPSCHITZ_PROBES:] == wide

    def test_one_driver_call_per_inner_iteration(self):
        tree = standard_tree(n_steps=6)
        seeds = range(5)
        fam = reflected_family(tree, seeds, margin=0.5)
        calls = []
        fn = fam.gen.fn
        fam.gen.fn = lambda k, y, z: calls.append(k) or fn(k, y, z)
        solve_reflected(fam)
        solo_calls = []
        for seed in seeds:
            inst = random_reflected(tree, seed, margin=0.5)
            member_calls = []
            inner = inst.gen.fn
            inst.gen.fn = lambda k, y, z, inner=inner: member_calls.append(k) or inner(k, y, z)
            solve_reflected(inst)
            solo_calls.append(member_calls)
        for k in range(tree.n_steps):
            # the inner iterations of the slowest member, plus the push's one call
            assert calls.count(k) == max(c.count(k) for c in solo_calls)


# -- the walk and the terminal: built once per instance, only the terminal kept --------

def _arrays(obj):
    """Every numpy array inside a tree's attributes, through dicts, lists and tuples."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, dict):
        for v in obj.values():
            yield from _arrays(v)
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            yield from _arrays(v)


class TestSeededInputs:
    @pytest.mark.parametrize("d", [1, 2])
    def test_tree_keeps_no_walk(self, d):
        tree = standard_tree(n_steps=4, d=d)
        random_reflected(tree, 3)
        reflected_family(tree, range(4))
        last = tree.w[tree.n_steps]
        assert "w" not in vars(tree)
        assert not any(a.shape == last.shape and np.array_equal(a, last)
                       for a in _arrays(vars(tree)))

    def test_walk_built_on_every_read(self):
        tree = standard_tree(n_steps=4)
        first, second = tree.w, tree.w
        assert first is not second
        assert all(a.tobytes() == b.tobytes() for a, b in zip(first, second))

    def test_instance_builds_the_walk_once(self, monkeypatch):
        """One label-free walk per instance, and no walk on the tree's nodes."""
        tree = standard_tree(n_steps=4, d=2)
        reads = []
        walk = ScenarioTree.free_walk.fget

        def no_walk(self):
            raise AssertionError("an instance built the walk on the tree's nodes")

        monkeypatch.setattr(ScenarioTree, "free_walk",
                            property(lambda t: reads.append(1) or walk(t)))
        monkeypatch.setattr(ScenarioTree, "w", property(no_walk))
        random_reflected(tree, 3)
        reflected_family(tree, range(3))
        assert len(reads) == 2

    def test_terminal_built_once_and_read_only(self):
        tree = standard_tree(n_steps=4)
        inst = random_reflected(tree, 5)
        assert random_reflected(tree, 5).xi is inst.xi
        assert not inst.xi.flags.writeable
        fam = reflected_family(tree, [5, 6])
        assert fam.xi is reflected_family(tree, [5, 6]).xi and not fam.xi.flags.writeable
        assert fam.members[0].xi.tobytes() == inst.xi.tobytes()

    def test_tree_keeps_the_last_terminal_only(self):
        tree = standard_tree(n_steps=4)
        for seed in range(5):
            random_reflected(tree, seed)
        kept = [a for a in _arrays(vars(tree)) if not a.flags.writeable]
        assert len(kept) == 1 and kept[0] is random_martingale(tree, 4).values[-1]

    def test_random_terminal_is_a_writable_copy(self):
        tree = standard_tree(n_steps=4)
        kept = random_reflected(tree, 2).xi
        xi = random_terminal(tree, 2)
        assert xi is not kept and not np.shares_memory(xi, kept)
        assert xi.flags.writeable and xi.tobytes() == kept.tobytes()
        xi[0] = np.nan
        assert random_terminal(tree, 2).tobytes() == kept.tobytes()


# -- seeded inputs built on the label-free walk ---------------------------------

def _multi_reveal_tree(d, n_steps, spec):
    """A tree with a uniform reveal of `a` labels at step k for each (k, a) of `spec`."""
    grid = TimeGrid(horizon=1.0, n_steps=n_steps)
    return build_tree(grid, d=d, reveals=[
        Reveal(time=grid.times[k], labels=tuple("abcde"[:a]), probs=tuple(np.full(a, 1.0 / a)))
        for k, a in spec])


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


# sha256 of each builder's arrays, as built on the tree's nodes before the label-free walk:
# random_reflected, reflected_family, random_obstacle, random_terminal, generator_family's
# g0 and strong_supermartingale_family, in that order
LABEL_FREE_PINS = {
    (1, 7, ((2, 2), (5, 3))): (
        "1e33e2d557ed080151b0d683a5c5f1f579bd9e78fd11d26988e329aa7b1fb6c5",
        "722b54bfab0436c2a41a341bd9abe4b730cdd49975eac36221ae0b66b718233a",
        "9961e624c7eb0b54ccd7572bf946d7d3c4a7695f7314aa8c77d8d31b08c6188a",
        "7b390746d09c08cb8fad3cfb2d2787fdba31e8ee43f6f6fb76f495d993bdd13a",
        "0580230651a25898fed39f373343129577aea3b0402bdce93ec9b36197f197d4",
        "a181df08094bc1647cefcc30317fd2168cb11c0da422c9defb91588072706d20"),
    (2, 4, ((3, 4), (1, 3))): (
        "830aec40760c35e7340d24730883595cbabfa3d784da17eacb3dc99f832bfb50",
        "3b37c0458d4103d0eae5ce8fdae99783343341b01d211a5c7bf7b44f1fe6025e",
        "de73fde4d38342b8cada104ab5c6e5057d5fc216a185262afaf9322797da9161",
        "536a7ad226de9c899ad588cf35fa1eef77c609007b7e2d3e48669b482fe3d18e",
        "ea276b3fdc72188863f12a9b3f9535c2b3e4940246b67782db87e6955956d16c",
        "cd81cdecae61c9003654c40f25d51e8c744316f9e43dcf54853e2f81155b50fd"),
    (1, 6, ((1, 5), (2, 2), (4, 3))): (
        "8faca9b41752a06fa19cb10a17e157613b111178e3663a27ffef8686da0cd3c1",
        "e67356f7de8665ba7a3164d638e2bebb8e3e530bb2344a100b212958ef7e9a4c",
        "986228c14e4358b6854f76e6840a275102ef769a5e541a32948e0ffc5225c9bd",
        "9a0c786f356c36663815146ca2cab94711b1e05a26c3e6a8c1cee4199d77c770",
        "9788882b19ba7932ffd4a9065b8784a6ac3d592c593d8d48b93d096aa4a6da3c",
        "9ab5e1a803018edccde005d42470f5f241de6cd6b384255f29f46353a9bfae65"),
    (3, 3, ((2, 2),)): (
        "199bee092878b08639bd007ac2b4e79353f28cfc87cad8d3e90bfee531774811",
        "93e9cbaa7cb9fc1ac37f21ef986a8db050ca895c593e68dc34865d82189b882a",
        "531c210818ac5b215b84d0688fe9a51e6251fef1b61966b2b6867c15a4c108c8",
        "0897da5481cb65640319bf51839d47a5832830b2e46a4005fd7458c4c639f165",
        "62d2b5d8caaad9f97f3e9691d2aacf740747a9ef7684bfdfcc96eb434c68edfa",
        "3a7a8bbc9e569402b1d19af4630270d8f3b63ca8565da7bf71c22139a4010c40"),
}


@pytest.mark.parametrize("shape", list(LABEL_FREE_PINS), ids=str)
def test_label_free_inputs_pinned(shape):
    """The walk terms computed on the label-free nodes and expanded give the bytes of the
    same terms computed on every label copy."""
    tree = _multi_reveal_tree(*shape)
    inst = random_reflected(tree, 3)
    fam = reflected_family(tree, [4, 1, 9])
    x = strong_supermartingale_family(tree, [2, 7])
    got = (_digest(inst.xi, *inst.obstacle.values, *inst.g0.values),
           _digest(fam.xi, *fam.obstacle.values, *fam.g0.values),
           _digest(*random_obstacle(tree, 5, margin=0.25).values),
           _digest(random_terminal(tree, 6)),
           _digest(*generator_family(tree, [0, 8], l_y=0.3).g0_process(tree).values),
           _digest(*x.value, *x.right))
    assert got == LABEL_FREE_PINS[shape]
