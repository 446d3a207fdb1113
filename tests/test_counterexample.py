"""Ladder simulation: gap bound, variation growth, reproducibility."""

import numpy as np
import pytest

from treebsde.ladder import LadderReport, overshoot_slack, run_counterexample, tv_scaling


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

    @pytest.mark.parametrize("dt,horizon", [(2.0, 5.0), (0.5, 0.1)],
                             ids=["dt-above-one", "dt-above-horizon"])
    def test_step_out_of_range(self, dt, horizon):
        # dt >= 1 leaves the overshoot slack undefined; dt > horizon runs no step
        with pytest.raises(ValueError, match="dt"):
            run_counterexample(eps=0.05, dt=dt, horizon=horizon, n_paths=3)

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
