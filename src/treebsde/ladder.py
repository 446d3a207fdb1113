"""Monte Carlo ladder construction on fine grids.

A Brownian path W is tracked against its ladder V, the piecewise-constant
process that jumps to the current value of W each time W moves eps away from
the last recorded level.  The gap sup|W - V| stays below eps (plus a discrete
overshoot), while the total variation of V grows like T/eps, so the variation
cannot be controlled by the gap.  This is a pure path-bundle computation:
paths are independent and no conditional expectation is ever taken.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

DEFAULT_BATCH = 1000
TIME_CHUNK = 4000


def overshoot_slack(dt: float) -> float:
    """Documented bound on the discrete overshoot beyond eps: sqrt(2 dt log(1/dt))."""
    return math.sqrt(2.0 * dt * math.log(1.0 / dt))


@dataclass
class LadderReport:
    eps: float
    dt: float
    horizon: float
    n_paths: int
    seed: int
    gap: np.ndarray        # per path: sup |W - V| over grid points (V cadlag)
    overshoot: np.ndarray  # per path: max |W - V_-| - eps at ladder jump times
    tv: np.ndarray         # per path: total variation of V
    crossings: np.ndarray  # per path: number of ladder jumps
    flags: dict = field(default_factory=dict, init=False)

    @property
    def slack(self) -> float:
        return overshoot_slack(self.dt)

    @property
    def predicted_tv(self) -> float:
        """Implementer oracle T/eps: mean exit time of (-eps, eps) is eps^2,
        so about T/eps^2 crossings of size eps each."""
        return self.horizon / self.eps

    def summary(self) -> dict:
        q = np.quantile
        return {
            "eps": self.eps, "dt": self.dt, "horizon": self.horizon,
            "n_paths": self.n_paths, "seed": self.seed,
            "gap_max": float(self.gap.max()),
            "gap_mean": float(self.gap.mean()),
            "gap_q99": float(q(self.gap, 0.99)),
            "gap_bound": self.eps + self.slack,
            "gap_ok_fraction": float((self.gap <= self.eps + self.slack).mean()),
            "overshoot_max": float(self.overshoot.max()),
            "overshoot_slack": self.slack,
            "overshoot_ok_fraction": float((self.overshoot <= self.slack).mean()),
            "tv_mean": float(self.tv.mean()),
            "tv_q10": float(q(self.tv, 0.10)),
            "tv_q90": float(q(self.tv, 0.90)),
            "tv_predicted": self.predicted_tv,
            "crossings_mean": float(self.crossings.mean()),
        }

    def rows(self) -> list:
        return [
            {"eps": self.eps, "path": i, "gap": float(self.gap[i]),
             "tv": float(self.tv[i]), "crossings": int(self.crossings[i])}
            for i in range(self.n_paths)
        ]


def _run_batch(eps: float, dt: float, n_steps: int, n_paths: int,
               rng: np.random.Generator) -> tuple:
    """Simulate one batch of paths, chunked in time to bound memory.

    State per path: current W, last ladder level, running sup gap, max jump
    overshoot, TV sums for the positive and negative jump parts, crossing
    count.  The ladder is cadlag: at a detection instant V already equals W,
    so the gap there is zero and the deviation eps + overshoot belongs to the
    left limit, tracked separately.
    """
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
        m = min(TIME_CHUNK, n_steps - done)
        incs = rng.standard_normal((n_paths, m)) * sdt
        paths = w[:, None] + np.cumsum(incs, axis=1)
        # each crossing resets the reference level, so scan the chunk in time
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


def run_counterexample(eps: float, dt: float, horizon: float = 1.0,
                       n_paths: int = 10_000, seed: int = 0) -> LadderReport:
    """Simulate the ladder paths and report gap and variation statistics.

    Batches of DEFAULT_BATCH paths draw from independent streams keyed by
    (seed, batch index), so the result is reproducible; it would change with
    the batch size, which therefore stays fixed.  dt < 1 keeps the overshoot
    slack defined, and dt <= horizon makes at least one step.
    """
    if eps <= 0.0 or horizon <= 0.0 or not 0.0 < dt < 1.0 or dt > horizon or n_paths < 1:
        raise ValueError("need eps, horizon > 0, 0 < dt < 1, dt <= horizon and n_paths >= 1")
    n_steps = int(round(horizon / dt))
    batches = [_run_batch(eps, dt, n_steps, min(DEFAULT_BATCH, n_paths - start),
                          np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, b)))))
               for b, start in enumerate(range(0, n_paths, DEFAULT_BATCH))]
    gap, overshoot, tv, crossings = (np.concatenate(part) for part in zip(*batches))
    report = LadderReport(eps=eps, dt=dt, horizon=horizon, n_paths=n_paths, seed=seed,
                          gap=gap, overshoot=overshoot, tv=tv, crossings=crossings)
    if dt > eps**2 / 10.0:
        report.flags["dt_coarse_for_eps"] = True
    return report


def tv_scaling(eps_list, dt: float, n_paths: int = 2000, seed: int = 0) -> dict:
    """Mean variation against 1/eps on the unit horizon: the fitted log-log
    slope should be 1."""
    reports = [run_counterexample(eps, dt, n_paths=n_paths, seed=seed + i)
               for i, eps in enumerate(eps_list)]
    means = [float(rep.tv.mean()) for rep in reports]
    xs = np.log(1.0 / np.asarray(eps_list, dtype=float))
    slope = float(np.polyfit(xs, np.log(np.asarray(means)), 1)[0])
    return {"eps": list(eps_list), "tv_means": means, "slope": slope,
            "summaries": [rep.summary() for rep in reports]}
