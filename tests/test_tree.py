"""Tree construction, exact laws, and failure modes."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treebsde.errors import OffGridError, TreeSizeError
from treebsde.tree import Reveal, TimeGrid, build_tree, sum_axis, sup_abs, validate_tree

from tiles import per_node


def _reveal(grid, k, labels=("a", "b", "c"), probs=(0.5, 0.3, 0.2)):
    return Reveal(time=grid.times[k], labels=labels, probs=probs)


class TestTimeGrid:
    def test_uniform_spacing(self):
        grid = TimeGrid(horizon=2.0, n_steps=8)
        assert grid.dt == pytest.approx(0.25)
        assert np.allclose(np.diff(grid.times), grid.dt)
        assert grid.times[0] == 0.0 and grid.times[-1] == 2.0

    def test_times_built_once_and_read_only(self):
        grid = TimeGrid(horizon=0.7, n_steps=9)
        h = hash(grid)
        assert grid.times is grid.times
        assert grid.times.tobytes() == np.linspace(0.0, 0.7, 10).tobytes()
        with pytest.raises(ValueError):
            grid.times[3] = 0.0
        twin = TimeGrid(horizon=0.7, n_steps=9)  # times not built yet
        assert grid == twin and hash(grid) == hash(twin) == h == hash((0.7, 9))
        assert grid != TimeGrid(horizon=0.7, n_steps=10)

    def test_index_of_on_grid(self):
        grid = TimeGrid(horizon=1.0, n_steps=4)
        assert grid.index_of(0.5) == 2

    def test_index_of_off_grid(self):
        grid = TimeGrid(horizon=1.0, n_steps=4)
        with pytest.raises(OffGridError):
            grid.index_of(0.3)

    def test_bad_shape(self):
        with pytest.raises(ValueError):
            TimeGrid(horizon=-1.0, n_steps=4)
        with pytest.raises(ValueError):
            TimeGrid(horizon=1.0, n_steps=0)

    @pytest.mark.parametrize("horizon", [float("nan"), float("inf"), -float("inf"), 0.0])
    def test_horizon_must_be_finite_and_positive(self, horizon):
        with pytest.raises(ValueError, match="horizon"):
            TimeGrid(horizon=horizon, n_steps=3)

    @pytest.mark.parametrize("n_steps", [2.5, 3.0, "3", None])
    def test_n_steps_must_be_an_integer(self, n_steps):
        with pytest.raises(ValueError, match="n_steps"):
            TimeGrid(horizon=1.0, n_steps=n_steps)

    def test_numpy_integer_steps(self):
        grid = TimeGrid(horizon=1.0, n_steps=np.int64(3))
        assert type(grid.n_steps) is int and grid == TimeGrid(horizon=1.0, n_steps=3)
        assert build_tree(grid).n_nodes(3) == 8


class TestBuildTree:
    def test_counts_binary(self):
        tree = build_tree(TimeGrid(horizon=1.0, n_steps=3), d=1)
        assert [tree.n_nodes(k) for k in range(4)] == [1, 2, 4, 8]

    def test_counts_d2(self):
        tree = build_tree(TimeGrid(horizon=1.0, n_steps=2), d=2)
        assert [tree.n_nodes(k) for k in range(3)] == [1, 4, 16]

    def test_reveal_multiplies_branching(self):
        grid = TimeGrid(horizon=1.0, n_steps=2)
        tree = build_tree(grid, d=1, reveals=(_reveal(grid, 1),))
        # the reveal at t_1 happens on the step into t_1
        assert tree.n_nodes(1) == 6
        assert tree.n_nodes(2) == 12

    def test_increment_moments_exact(self):
        grid = TimeGrid(horizon=1.0, n_steps=3)
        tree = build_tree(grid, d=2, reveals=(_reveal(grid, 2),))
        stats = validate_tree(tree)
        assert stats["dw_mean"] <= 1e-14
        assert stats["dw_cov"] <= 1e-14
        assert stats["reveal_indep"] <= 1e-14

    def test_path_probs_sum_to_one(self):
        grid = TimeGrid(horizon=1.0, n_steps=4)
        tree = build_tree(grid, d=1, reveals=(_reveal(grid, 2),))
        for k in range(5):
            assert float(tree.path_prob[k].sum()) == pytest.approx(1.0, abs=1e-14)

    def test_walk_martingale(self):
        grid = TimeGrid(horizon=1.0, n_steps=4)
        tree = build_tree(grid, d=1, reveals=(_reveal(grid, 2),))
        for k in range(1, 5):
            prev = tree.cond_exp(tree.w[k][:, 0], k)
            assert np.abs(prev - tree.w[k - 1][:, 0]).max() <= 1e-14

    def test_node_cap(self):
        with pytest.raises(TreeSizeError):
            build_tree(TimeGrid(horizon=1.0, n_steps=25), d=1)

    def test_off_grid_reveal(self):
        grid = TimeGrid(horizon=1.0, n_steps=4)
        with pytest.raises(OffGridError):
            build_tree(grid, d=1, reveals=(Reveal(time=0.3, labels=("a", "b"),
                                                  probs=(0.5, 0.5)),))

    def test_reveal_prob_validation(self):
        grid = TimeGrid(horizon=1.0, n_steps=4)
        with pytest.raises(ValueError):
            Reveal(time=0.5, labels=("a", "b"), probs=(0.7, 0.2))


class TestConditionalExpectation:
    def test_tower_property(self):
        grid = TimeGrid(horizon=1.0, n_steps=4)
        tree = build_tree(grid, d=1, reveals=(_reveal(grid, 2),))
        rng = np.random.default_rng(0)
        x = rng.normal(size=tree.n_nodes(4))
        step_by_step = x
        for k in range(4, 0, -1):
            step_by_step = tree.cond_exp(step_by_step, k)
        assert float(step_by_step[0]) == pytest.approx(
            tree.expectation(x, 4), abs=1e-14)

    def test_lift_then_condition_is_identity(self):
        grid = TimeGrid(horizon=1.0, n_steps=3)
        tree = build_tree(grid, d=1, reveals=(_reveal(grid, 1),))
        rng = np.random.default_rng(1)
        for k in range(3):
            x = rng.normal(size=tree.n_nodes(k))
            assert np.abs(tree.cond_exp(tree.lift(x, k), k + 1) - x).max() <= 1e-14

    def test_reveal_independent_of_walk(self):
        grid = TimeGrid(horizon=1.0, n_steps=2)
        tree = build_tree(grid, d=1, reveals=(_reveal(grid, 1),))
        k = 1
        lab = per_node(tree, "reveal_label", k).astype(float)
        dw = per_node(tree, "dw", k)[:, 0]
        e_joint = tree.cond_exp(lab * dw, k)
        e_prod = tree.cond_exp(lab, k) * tree.cond_exp(dw, k)
        assert np.abs(e_joint - e_prod).max() <= 1e-14


class TestSumAxis:
    """sum_axis is a.sum(axis) bit for bit: slice adds in order from +0.0 below 8
    entries on an array of 2048 entries or more, numpy's own sum otherwise."""

    VALUES = np.array([0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
                       1e308, -1e308, 0.1])

    @pytest.mark.parametrize("axis", [1, -1])
    @pytest.mark.parametrize("tail", [(), (1,), (2,), (3,)], ids=str)
    def test_bits_of_numpy_sum(self, tail, axis):
        rng = np.random.default_rng(len(tail))
        for b in range(1, 13):
            a = rng.choice(self.VALUES, size=(2048, b) + tail)
            if axis == -1:
                a = np.moveaxis(a, 1, -1).copy()
            with np.errstate(all="ignore"):
                want, got = a.sum(axis), sum_axis(a, axis)
            assert got.shape == want.shape and got.dtype == want.dtype, b
            nan = np.isnan(want)
            assert np.array_equal(np.isnan(got), nan), b
            # the sign of a NaN is not numpy's contract
            assert np.array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64)), b


class TestSerialization:
    """A tree is rebuilt from its grid, dimension and reveals, never stored: two builds agree."""

    def test_deterministic_build(self):
        grid = TimeGrid(horizon=1.0, n_steps=4)
        r = (_reveal(grid, 2),)
        a, b = build_tree(grid, d=1, reveals=r), build_tree(grid, d=1, reveals=r)
        assert a.branching == b.branching
        for name in ("cond_prob", "dw", "reveal_label"):
            assert all(np.array_equal(x, y) for x, y in zip(getattr(a, name), getattr(b, name)))


@st.composite
def _tree_and_values(draw):
    """Random tree (d in {1, 2}, 1-5 steps, maybe one reveal) with random per-step values."""
    n = draw(st.integers(1, 5))
    d = draw(st.integers(1, 2))
    grid = TimeGrid(horizon=1.0, n_steps=n)
    reveal = draw(st.one_of(st.none(), st.integers(1, n)))
    reveals = () if reveal is None else (_reveal(grid, reveal, labels=("u", "v"),
                                                  probs=(0.25, 0.75)),)
    tree = build_tree(grid, d=d, reveals=reveals)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = [rng.normal(size=tree.n_nodes(k)) for k in range(n + 1)]
    return tree, values


def _naive_to_leaves(tree, x, k):
    for j in range(k, tree.n_steps):
        x = tree.lift(x, j)
    return x


class TestPathPrimitives:
    """The primitives reproduce the hand-written lift loops bit for bit."""

    @settings(max_examples=40, deadline=None)
    @given(_tree_and_values())
    def test_to_leaves(self, case):
        tree, values = case
        for k, v in enumerate(values):
            assert np.array_equal(tree.to_leaves(v, k), _naive_to_leaves(tree, v, k))

    @pytest.mark.parametrize("op", ["add", "multiply", "divide", "maximum"])
    @settings(max_examples=30, deadline=None)
    @given(case=_tree_and_values())
    def test_path_scan(self, op, case):
        tree, values = case
        n, ufunc = tree.n_steps, getattr(np, op)
        if op in ("multiply", "divide"):
            values = [1.0 + np.abs(v) for v in values]  # products as density and discount
        start = values[0]
        # step-(k+1) terms, combined after the lift: path sums, the density, path_max
        acc, whole = start, [start]
        for k in range(n):
            acc = ufunc(tree.lift(acc, k), values[k + 1])
            whole.append(acc)
        assert np.array_equal(tree.path_scan(iter(values[1:]), ufunc, start=start), acc)
        got = tree.path_scan(iter(values[1:]), ufunc, start=start, process=True)
        assert len(got) == n + 1
        assert all(np.array_equal(a, b) for a, b in zip(got, whole))
        # step-k terms, combined and then lifted: predictable sums, the Snell discount
        acc, whole = start, [start]
        for k in range(n):
            acc = tree.lift(ufunc(acc, values[k]), k)
            whole.append(acc)
        assert np.array_equal(tree.path_scan(iter(values[:-1]), ufunc, start=start), acc)
        got = tree.path_scan(iter(values[:-1]), ufunc, start=start, process=True)
        assert len(got) == n + 1
        assert all(np.array_equal(a, b) for a, b in zip(got, whole))
        if op == "add":  # the default zero start
            acc = np.zeros(1)
            for k in range(n):
                acc = tree.lift(acc, k) + tree.lift(values[k], k)
            assert np.array_equal(tree.path_scan(values[:-1]), acc)

    @settings(max_examples=30, deadline=None)
    @given(_tree_and_values())
    def test_path_scan_vector_start(self, case):
        """The walk (a (1, d) start) and the path probabilities match their parent loops."""
        tree, _ = case
        w, pp = [np.zeros((1, tree.d))], [np.array([1.0])]
        for k in range(1, tree.n_steps + 1):
            w.append(w[k - 1][tree.parent_index(k)] + per_node(tree, "dw", k))
            pp.append(pp[k - 1][tree.parent_index(k)] * per_node(tree, "cond_prob", k))
        for got, want in ((tree.w, w), (tree.path_prob, pp)):
            assert len(got) == len(want)
            assert all(a.shape == b.shape and np.array_equal(a, b) for a, b in zip(got, want))

    @pytest.mark.parametrize("where", [None, 0, 1, 2])
    def test_sup_abs(self, where):
        arrays = [np.array([-0.5]), np.array([0.25, -3.0, 1.0]), np.array([2.0, -1.0])]
        if where is None:
            assert sup_abs(arrays) == 3.0
            assert sup_abs(iter(arrays)) == 3.0
        else:
            arrays[where][-1] = np.nan
            assert math.isnan(sup_abs(arrays))


class TestStepPrimitives:
    @pytest.mark.parametrize("step", ["-1", "n"])
    def test_lift_rejects_steps_without_children(self, step):
        tree = build_tree(TimeGrid(horizon=1.0, n_steps=3), d=1)
        k = -1 if step == "-1" else tree.n_steps
        with pytest.raises(IndexError, match=rf"^step {k} has no children \(valid: 0\.\.2\)$"):
            tree.lift(np.zeros(tree.n_nodes(max(k, 0))), k)

    @pytest.mark.parametrize("d", [1, 2])
    def test_lift_matches_np_repeat(self, d):
        grid = TimeGrid(horizon=1.0, n_steps=4)
        tree = build_tree(grid, d=d, reveals=(_reveal(grid, 2),))
        rng = np.random.default_rng(d)
        for k in range(tree.n_steps):
            b = int(tree.branching[k])
            for x in (rng.normal(size=tree.n_nodes(k)), rng.normal(size=(tree.n_nodes(k), d)),
                      list(rng.normal(size=tree.n_nodes(k)))):
                got = tree.lift(x, k)
                assert got.dtype == float
                assert np.array_equal(got, np.repeat(np.asarray(x, dtype=float), b, axis=0))

    @pytest.mark.parametrize("with_reveal", [False, True])
    def test_branching_is_python_ints(self, with_reveal):
        grid = TimeGrid(horizon=1.0, n_steps=3)
        tree = build_tree(grid, d=2, reveals=(_reveal(grid, 2),) if with_reveal else ())
        assert type(tree.branching) is tuple and all(type(b) is int for b in tree.branching)
        assert tree.branching == ((4, 12, 4) if with_reveal else (4, 4, 4))
        assert not hasattr(tree, "fanout")

    def test_trees_compare_and_hash_by_identity(self):
        a, b = build_tree(TimeGrid(horizon=1.0, n_steps=3)), build_tree(TimeGrid(horizon=1.0, n_steps=3))
        assert a == a and a != b
        assert hash(a) == hash(a) and len({a, b, a}) == 2

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("with_reveal", [False, True])
    def test_dot_dw_matches_einsum(self, d, with_reveal):
        grid = TimeGrid(horizon=1.0, n_steps=4)
        tree = build_tree(grid, d=d, reveals=(_reveal(grid, 2),) if with_reveal else ())
        rng = np.random.default_rng(d)
        for k in range(tree.n_steps):
            z = rng.normal(size=(tree.n_nodes(k), d))
            dw = per_node(tree, "dw", k + 1)
            want = np.einsum("ni,ni->n", tree.lift(z, k), dw)
            assert np.array_equal(tree.dot_dw(z, k), want)
            if d == 1:
                # a scalar integrand keeps the plain product
                assert np.array_equal(tree.dot_dw(z[:, 0], k), tree.lift(z[:, 0], k) * dw[:, 0])
            else:
                with pytest.raises(ValueError, match=f"step {k}:"):
                    tree.dot_dw(z[:, 0], k)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("with_reveal", [False, True])
    def test_cond_exp_dw_is_adjoint_of_dot_dw(self, d, with_reveal):
        grid = TimeGrid(horizon=1.0, n_steps=4)
        tree = build_tree(grid, d=d, reveals=(_reveal(grid, 2),) if with_reveal else ())
        rng = np.random.default_rng(d)
        for k in range(tree.n_steps):
            x, z = rng.normal(size=tree.n_nodes(k + 1)), rng.normal(size=(tree.n_nodes(k), d))
            got = tree.cond_exp_dw(x, k)
            assert got.shape == (tree.n_nodes(k), d)
            assert np.array_equal(got, tree.cond_exp(x[:, None] * per_node(tree, "dw", k + 1), k + 1))
            # E[(Z . dW) x] = E[Z . E_k[x dW]]
            lhs = tree.expectation(tree.dot_dw(z, k) * x, k + 1)
            assert lhs == pytest.approx(tree.expectation((z * got).sum(axis=1), k), abs=1e-14)


class TestBlockStorage:
    """A step stores the child block of one parent, so tiles cannot creep back."""

    @pytest.mark.parametrize("d, n_steps", [(2, 3), (1, 12)])
    def test_blocks_hold_one_parent_children(self, d, n_steps):
        grid = TimeGrid(horizon=1.0, n_steps=n_steps)
        tree = build_tree(grid, d=d, reveals=(_reveal(grid, 2),))
        forest = tree.forest(3)
        for name in ("cond_prob", "dw", "reveal_label"):
            blocks, copies = getattr(tree, name), getattr(forest, name)
            # a root, then sum_k branching[k] children, whatever the node count
            assert [len(a) for a in blocks] == [1, *tree.branching]
            assert len(copies[0]) == 3 and all(a is b for a, b in zip(copies[1:], blocks[1:]))
        per_node_lists = [name for name, v in vars(forest).items()
                          if isinstance(v, list) and len(v) == n_steps + 1
                          and all(len(a) == forest.n_nodes(k) for k, a in enumerate(v))]
        assert per_node_lists == ["path_prob"]


_LAWS = {2: (0.25, 0.75), 3: (0.5, 0.3, 0.2), 4: (0.1, 0.2, 0.3, 0.4)}


def _signed_values(rng, shape):
    """Normal values spread over six decades, a sixth of them +0.0 and a sixth -0.0."""
    v = rng.normal(size=shape) * 10.0 ** rng.integers(-3, 3, size=shape)
    u = rng.uniform(size=shape)
    v[u < 1 / 6] = 0.0
    v[u > 5 / 6] = -0.0
    return v


@st.composite
def _block_case(draw):
    """A lone tree or its forest(3), d in {1, 2, 3}, maybe a reveal of 2-4 labels (four
    labels branch 8 ways at d = 1), deep enough that its last steps hold 2048 entries or
    more and its first steps fewer."""
    d = draw(st.integers(1, 3))
    n = draw(st.integers(*{1: (11, 12), 2: (5, 6), 3: (3, 4)}[d]))
    grid = TimeGrid(horizon=1.0, n_steps=n)
    reveal, a = draw(st.one_of(st.none(), st.integers(1, n))), draw(st.integers(2, 4))
    reveals = () if reveal is None else (_reveal(grid, reveal, tuple("abcd")[:a], _LAWS[a]),)
    tree = build_tree(grid, d=d, reveals=reveals).forest(draw(st.sampled_from([1, 3])))
    return tree, np.random.default_rng(draw(st.integers(0, 2**32 - 1)))


def _tiled_cond_exp(tree, x, k, weights=None):
    """cond_exp over per-node probabilities: a product per node and numpy's sum."""
    cp = per_node(tree, "cond_prob", k)
    if weights is not None:
        cp = cp * weights
    rows = (tree.n_nodes(k - 1), tree.branching[k - 1])
    if x.ndim == 1:
        return (cp * x).reshape(rows).sum(axis=1)
    return (cp[:, None] * x).reshape(rows + x.shape[1:]).sum(axis=1)


def _same_bits(got, want):
    return got.shape == want.shape and np.array_equal(got.view(np.int64), want.view(np.int64))


class TestBlockKernels:
    """The step kernels on the blocks keep the bits of the same kernels on the tiled
    per-node arrays, ±0.0 included, on both sides of sum_axis's crossover: a flat
    product with a step's tiles or a broadcast one below it, one product per child
    above it."""

    @settings(max_examples=25, deadline=None)
    @given(_block_case())
    def test_cond_exp(self, case):
        tree, rng = case
        for k in range(1, tree.n_steps + 1):
            n = tree.n_nodes(k)
            weights = _signed_values(rng, n)
            for x in (_signed_values(rng, n), _signed_values(rng, (n, tree.d)),
                      _signed_values(rng, (n, 3))):
                assert _same_bits(tree.cond_exp(x, k), _tiled_cond_exp(tree, x, k)), (k, x.shape)
                assert _same_bits(tree.cond_exp(x, k, weights=weights),
                                  _tiled_cond_exp(tree, x, k, weights)), (k, x.shape)

    @settings(max_examples=25, deadline=None)
    @given(_block_case())
    def test_cond_exp_dw_and_dot_dw(self, case):
        """einsum's order is a sum from +0.0 at d <= 2 only, so d = 3 checks the einsum."""
        tree, rng = case
        for k in range(tree.n_steps):
            dw = per_node(tree, "dw", k + 1)
            x = _signed_values(rng, tree.n_nodes(k + 1))
            assert _same_bits(tree.cond_exp_dw(x, k), _tiled_cond_exp(tree, x[:, None] * dw, k + 1))
            z = _signed_values(rng, (tree.n_nodes(k), tree.d))
            want = np.einsum("ni,ni->n", tree.lift(z, k), dw)
            assert _same_bits(tree.dot_dw(z, k), want), k
            assert _same_bits(tree.dot_dw(z[::-1].copy(order="F")[::-1], k), want), k
            if tree.d == 1:
                assert _same_bits(tree.dot_dw(z[:, 0], k), tree.lift(z[:, 0], k) * dw[:, 0]), k

    @settings(max_examples=25, deadline=None)
    @given(_block_case())
    def test_path_prob_and_w(self, case):
        tree, _ = case
        pp, w = [np.ones(tree.n_nodes(0))], [np.zeros((tree.n_nodes(0), tree.d))]
        for k in range(1, tree.n_steps + 1):
            pp.append(tree.lift(pp[k - 1], k - 1) * per_node(tree, "cond_prob", k))
            w.append(tree.lift(w[k - 1], k - 1) + per_node(tree, "dw", k))
        for got, want in ((tree.path_prob, pp), (tree.w, w)):
            assert len(got) == len(want)
            assert all(_same_bits(a, b) for a, b in zip(got, want))
