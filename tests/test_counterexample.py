"""Ladder simulation: gap bound, variation growth, reproducibility."""

import hashlib
import math
import sys
import threading
import time

import numpy as np
import pytest

from treebsde import ladder
from treebsde.ladder import (LadderReport, overshoot_slack, run_counterexample, step_count,
                             tv_scaling)


def _step_loop_batch(eps, dt, n_steps, n_paths, rng):
    """Reference scan: one instant at a time over fresh chunk arrays."""
    sdt = math.sqrt(dt)
    w = np.zeros(n_paths)
    level = np.zeros(n_paths)
    gap = np.zeros(n_paths)
    overshoot = np.zeros(n_paths)
    tv_pos = np.zeros(n_paths)
    tv_neg = np.zeros(n_paths)
    crossings = np.zeros(n_paths, dtype=np.int64)
    done = 0
    while done < n_steps:
        m = min(ladder.TIME_CHUNK, n_steps - done)
        incs = rng.standard_normal((n_paths, m)) * sdt
        paths = w[:, None] + np.cumsum(incs, axis=1)
        for j in range(m):
            wj = paths[:, j]
            dev = np.abs(wj - level)
            hit = dev >= eps
            if hit.any():
                jump = wj[hit] - level[hit]
                overshoot[hit] = np.maximum(overshoot[hit], dev[hit] - eps)
                tv_pos[hit] += np.maximum(jump, 0.0)
                tv_neg[hit] += np.maximum(-jump, 0.0)
                crossings[hit] += 1
                level[hit] = wj[hit]
                dev = np.abs(wj - level)
            np.maximum(gap, dev, out=gap)
        w = paths[:, -1]
        done += m
    return gap, overshoot, tv_pos + tv_neg, crossings


def _step_loop(eps, dt, horizon, n_paths, seed):
    """The ladder arrays from the reference scan, batched as run_counterexample batches."""
    n_steps = int(round(horizon / dt))
    batches = [_step_loop_batch(eps, dt, n_steps, min(ladder.DEFAULT_BATCH, n_paths - start),
                                np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, b)))))
               for b, start in enumerate(range(0, n_paths, ladder.DEFAULT_BATCH))]
    return [np.concatenate(part) for part in zip(*batches)]


def _arrays(rep):
    return [rep.gap, rep.overshoot, rep.tv, rep.crossings]


def _within(seconds, fn):
    """fn() on a daemon thread: its result or its error, or a failure after `seconds`
    (a scan lock left held would block the next batch for good)."""
    out = {}

    def target():
        try:
            out["value"] = fn()
        except Exception as exc:  # handed to the test below
            out["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"still running after {seconds} s"
    if "error" in out:
        raise out["error"]
    return out["value"]


class TestLadder:
    def test_gap_bounded_on_all_paths(self):
        rep = run_counterexample(eps=0.05, dt=1e-4, n_paths=300, seed=0)
        assert rep.summary()["gap_ok_fraction"] == 1.0
        assert float(rep.gap.max()) <= rep.eps + rep.slack

    def test_overshoot_within_slack(self):
        rep = run_counterexample(eps=0.05, dt=1e-4, n_paths=300, seed=0)
        assert float(rep.overshoot.max()) <= rep.slack + 0.05

    def test_tv_near_prediction(self):
        rep = run_counterexample(eps=0.05, dt=1e-4, n_paths=500, seed=1)
        assert abs(rep.tv.mean() - rep.predicted_tv) / rep.predicted_tv <= 0.15

    def test_no_crossing_path(self):
        # eps larger than any realistic excursion over a short horizon
        rep = run_counterexample(eps=5.0, dt=1e-3, horizon=0.1, n_paths=50, seed=2)
        assert int(rep.crossings.sum()) == 0
        assert float(rep.tv.max()) == 0.0
        assert float(rep.gap.max()) < 5.0

    def test_jordan_parts_sum(self):
        # TV equals crossings-weighted jump sizes, all at least eps
        rep = run_counterexample(eps=0.1, dt=1e-4, n_paths=100, seed=3)
        has = rep.crossings > 0
        assert float((rep.tv[has] / rep.crossings[has]).min()) >= 0.1

    def test_reproducible_across_batching(self):
        a = run_counterexample(eps=0.1, dt=1e-3, n_paths=200, seed=4)
        b = run_counterexample(eps=0.1, dt=1e-3, n_paths=200, seed=4)
        assert np.array_equal(a.gap, b.gap)
        assert np.array_equal(a.tv, b.tv)

    def test_coarse_dt_flagged(self):
        rep = run_counterexample(eps=0.01, dt=1e-3, n_paths=10, seed=5)
        assert rep.flags.get("dt_coarse_for_eps") is True

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            run_counterexample(eps=0.0, dt=1e-3, n_paths=10)
        with pytest.raises(ValueError):
            run_counterexample(eps=0.1, dt=1e-3, n_paths=0)

    @pytest.mark.parametrize("eps,dt,horizon", [
        (0.05, 2.0, 5.0), (0.05, 0.5, 0.1), (math.nan, 1e-3, 1.0), (math.inf, 1e-3, 1.0),
        (0.05, 1e-3, math.nan), (0.05, 1e-3, math.inf),
    ], ids=["dt-above-one", "dt-above-horizon", "eps-nan", "eps-inf", "horizon-nan",
            "horizon-inf"])
    def test_step_out_of_range(self, eps, dt, horizon):
        # dt >= 1 leaves the overshoot slack undefined; dt > horizon runs no step;
        # a non-finite eps or horizon sets no scale
        with pytest.raises(ValueError, match="dt"):
            run_counterexample(eps=eps, dt=dt, horizon=horizon, n_paths=3)

    @pytest.mark.parametrize("dt,horizon", [(0.3, 1.0), (1e-3, 0.0105), (0.4, 0.5)])
    def test_horizon_not_whole_steps(self, dt, horizon):
        # 3 steps of 0.3 would stop at t = 0.9 while the report kept horizon 1.0
        with pytest.raises(ValueError, match=r"horizon .* whole number of steps dt"):
            run_counterexample(eps=0.1, dt=dt, horizon=horizon, n_paths=3)

    @pytest.mark.parametrize("dt,horizon", [(1e-5, 1.0), (1e-4, 1.0), (4e-5, 50 * 4e-5),
                                            (1e-3, 50 * 1e-3), (1e-4, 0.41), (0.25, 0.25)])
    def test_whole_steps_in_use(self, dt, horizon):
        assert step_count(dt, horizon) == round(horizon / dt)

    @pytest.mark.parametrize("eps_list", [[], [0.1], [0.1, 0.1]])
    def test_tv_scaling_needs_two_eps(self, monkeypatch, eps_list):
        monkeypatch.setattr(ladder, "_run_batch", lambda *a: pytest.fail("a batch ran"))
        with pytest.raises(ValueError, match="two distinct eps"):
            tv_scaling(eps_list, dt=1e-3, n_paths=10)

    @pytest.mark.parametrize("n_paths", [10.0, "10", None])
    def test_n_paths_must_be_integer(self, n_paths):
        with pytest.raises(ValueError, match="n_paths"):
            run_counterexample(eps=0.1, dt=1e-2, n_paths=n_paths)

    @pytest.mark.parametrize("seed", [-1, 1.5, "3"])
    @pytest.mark.parametrize("call", [
        lambda seed: run_counterexample(eps=0.1, dt=1e-2, n_paths=3, seed=seed),
        lambda seed: tv_scaling([0.2, 0.1], dt=1e-2, n_paths=3, seed=seed),
    ], ids=["run_counterexample", "tv_scaling"])
    def test_bad_seed_rejected_before_any_run(self, monkeypatch, call, seed):
        monkeypatch.setattr(ladder, "_run_batch", lambda *a: pytest.fail("a batch ran"))
        with pytest.raises(ValueError, match=r"seed must be an integer >= 0"):
            call(seed)

    def test_numpy_integer_n_paths(self):
        rep = run_counterexample(eps=0.1, dt=1e-2, n_paths=np.int64(7), seed=3)
        assert rep.n_paths == 7 and type(rep.n_paths) is int
        assert np.array_equal(rep.tv, run_counterexample(eps=0.1, dt=1e-2, n_paths=7, seed=3).tv)

    def test_slack_formula(self):
        assert overshoot_slack(1e-4) == pytest.approx(
            np.sqrt(2e-4 * np.log(1e4)), abs=1e-12)

    def test_tv_slope_near_one(self):
        res = tv_scaling([0.2, 0.1, 0.05], dt=1e-4, n_paths=400, seed=6)
        assert abs(res["slope"] - 1.0) <= 0.15

    def test_rows_shape(self):
        rep = run_counterexample(eps=0.1, dt=1e-3, n_paths=20, seed=7)
        rows = rep.rows()
        assert len(rows) == 20
        assert set(rows[0]) == {"eps", "path", "gap", "tv", "crossings"}


class TestScan:
    """The block scan reproduces the step-by-step scan bit for bit."""

    @pytest.mark.parametrize("eps,dt,horizon,n_paths", [
        (0.1, 1e-4, 0.41, 1013), (5.0, 1e-3, 0.1, 50), (0.01, 1e-3, 1.0, 30),
        (0.057, 1e-4, 0.2, 200),
    ], ids=["short-last-chunk-and-batch", "no-crossing", "coarse", "one-per-block"])
    def test_matches_step_loop(self, eps, dt, horizon, n_paths):
        rep = run_counterexample(eps=eps, dt=dt, horizon=horizon, n_paths=n_paths, seed=8)
        for got, want in zip(_arrays(rep), _step_loop(eps, dt, horizon, n_paths, seed=8)):
            assert np.array_equal(got, want)

    def test_pinned_digest(self):
        # 5000 steps (TIME_CHUNK + 1000) and a 37-path last batch
        rep = run_counterexample(eps=0.1, dt=2e-4, n_paths=2037, seed=11)
        digest = hashlib.sha256()
        for arr in _arrays(rep):
            digest.update(arr.tobytes())
        assert digest.hexdigest() == (
            "749c438b000cf6df2d7fc316ae4b2424c1949cafd7e425ad25d1796e5511572c")

    @pytest.mark.parametrize("cpus", [1, 4])
    def test_thread_count_does_not_matter(self, monkeypatch, cpus):
        want = _step_loop(0.1, 1e-2, 1.0, 4500, seed=9)
        monkeypatch.setattr(ladder.os, "sched_getaffinity", lambda pid: set(range(cpus)))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, so that a lost result would show
        try:
            got = _arrays(run_counterexample(eps=0.1, dt=1e-2, n_paths=4500, seed=9))
        finally:
            sys.setswitchinterval(interval)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("cpu_count", [2, None])
    def test_runs_without_sched_getaffinity(self, monkeypatch, cpu_count):
        """Where os.sched_getaffinity is missing (macOS, Windows) the pool is sized by
        os.cpu_count(), or one thread when that is unknown, with the same bits."""
        want = _arrays(run_counterexample(eps=0.1, dt=1e-2, n_paths=2500, seed=9))
        monkeypatch.delattr(ladder.os, "sched_getaffinity")
        monkeypatch.setattr(ladder.os, "cpu_count", lambda: cpu_count)
        got = _arrays(run_counterexample(eps=0.1, dt=1e-2, n_paths=2500, seed=9))
        for a, b in zip(got, want):
            assert np.array_equal(a, b)

    def test_batch_error_propagates(self, monkeypatch):
        real = ladder._run_batch

        def failing(eps, dt, n_steps, n_paths, rng):
            if n_paths == 37:
                raise FloatingPointError("batch failed")
            return real(eps, dt, n_steps, n_paths, rng)

        # the 37-path batch runs on the second thread
        monkeypatch.setattr(ladder.os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(ladder, "_run_batch", failing)
        with pytest.raises(FloatingPointError, match="batch failed"):
            run_counterexample(eps=0.1, dt=1e-3, n_paths=1037, seed=9)

    def test_one_scan_at_a_time(self, monkeypatch):
        """The batch threads take turns on the crossing scan, with the same bits."""
        real, guard, running, most = ladder._scan, threading.Lock(), [0], [0]

        def counted(*args):
            with guard:
                running[0] += 1
                most[0] = max(most[0], running[0])
            try:
                time.sleep(1e-3)  # long enough for another scan to start, were it let in
                real(*args)
            finally:
                with guard:
                    running[0] -= 1

        want = _step_loop(0.1, 1e-2, 1.0, 4500, seed=9)
        monkeypatch.setattr(ladder.os, "sched_getaffinity", lambda pid: set(range(4)))
        monkeypatch.setattr(ladder, "_scan", counted)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = _arrays(_within(60, lambda: run_counterexample(
                eps=0.1, dt=1e-2, n_paths=4500, seed=9)))
        finally:
            sys.setswitchinterval(interval)
        assert most[0] == 1
        for a, b in zip(got, want):
            assert np.array_equal(a, b)

    def test_failing_scan_frees_the_lock(self, monkeypatch):
        real = ladder._scan

        def failing(paths, *state):
            if paths.shape[0] == 37:
                raise FloatingPointError("scan failed")
            return real(paths, *state)

        monkeypatch.setattr(ladder.os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(ladder, "_scan", failing)
        with pytest.raises(FloatingPointError, match="scan failed"):
            _within(60, lambda: run_counterexample(eps=0.1, dt=1e-3, n_paths=1037, seed=9))
        assert not ladder._SCAN_LOCK.locked()
        monkeypatch.setattr(ladder, "_scan", real)
        got = _arrays(_within(60, lambda: run_counterexample(
            eps=0.1, dt=1e-3, n_paths=1037, seed=9)))
        for a, b in zip(got, _step_loop(0.1, 1e-3, 1.0, 1037, seed=9)):
            assert np.array_equal(a, b)


class TestTvScaling:
    """All eps values share the threads; each equals its run simulated alone."""

    EPS = [0.2, 0.1, 0.05]

    def _serial(self, monkeypatch, dt, n_paths, seed):
        monkeypatch.setattr(ladder.os, "sched_getaffinity", lambda pid: {0})
        reports = [run_counterexample(eps, dt, n_paths=n_paths, seed=seed + i)
                   for i, eps in enumerate(self.EPS)]
        means = [float(rep.tv.mean()) for rep in reports]
        slope = float(np.polyfit(np.log(1.0 / np.asarray(self.EPS)), np.log(means), 1)[0])
        return {"eps": self.EPS, "tv_means": means, "slope": slope,
                "summaries": [rep.summary() for rep in reports]}

    @pytest.mark.parametrize("cpus", [1, 2, 5])
    def test_matches_serial_runs(self, monkeypatch, cpus):
        # 1500 paths: a full and a half batch per eps, six jobs over the threads
        want = self._serial(monkeypatch, 1e-3, 1500, seed=12)
        monkeypatch.setattr(ladder.os, "sched_getaffinity", lambda pid: set(range(cpus)))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = tv_scaling(self.EPS, dt=1e-3, n_paths=1500, seed=12)
        finally:
            sys.setswitchinterval(interval)
        assert got == want

    def test_bad_eps_rejected_before_any_run(self, monkeypatch):
        def no_batch(*args):
            raise AssertionError("ran a batch")

        monkeypatch.setattr(ladder, "_run_batch", no_batch)
        with pytest.raises(ValueError, match="eps"):
            tv_scaling([0.2, math.nan], dt=1e-3, n_paths=10)
