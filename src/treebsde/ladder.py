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
import operator
import os
import threading
from dataclasses import dataclass, field

import numpy as np

DEFAULT_BATCH = 1000
TIME_CHUNK = 4000
TIME_BLOCK = 32  # steps per block of the crossing scan
_SCAN_LOCK = threading.Lock()  # one crossing scan at a time; see _run_batch


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
    """Simulate one batch of paths, chunked in time into one reused buffer.

    State per path: current W, last ladder level, running sup gap, max jump
    overshoot, TV sums for the positive and negative jump parts, crossing
    count.  The ladder is cadlag: at a detection instant V already equals W,
    so the gap there is zero and the deviation eps + overshoot belongs to the
    left limit, tracked separately.

    The batch threads take turns on the scan (_SCAN_LOCK): its many small numpy
    calls hold the GIL, so two scans at once mostly wait on each other, while
    the draws, scaling and cumsum release it and run beside the other's scan.
    """
    buf = np.empty(n_paths * min(TIME_CHUNK, n_steps))
    w = np.zeros(n_paths)
    state = level, gap, overshoot, tv_pos, tv_neg, crossings = (
        *np.zeros((5, n_paths)), np.zeros(n_paths, dtype=np.int64))
    for done in range(0, n_steps, TIME_CHUNK):
        m = min(TIME_CHUNK, n_steps - done)
        paths = buf[:n_paths * m].reshape(n_paths, m)
        rng.standard_normal(out=paths)
        paths *= math.sqrt(dt)
        np.cumsum(paths, axis=1, out=paths)
        paths += w[:, None]
        with _SCAN_LOCK:
            _scan(paths, eps, *state)
        w = paths[:, -1].copy()
    return gap, overshoot, tv_pos + tv_neg, crossings


def _scan(paths, eps, level, gap, overshoot, tv_pos, tv_neg, crossings) -> None:
    """Advance the ladder state in place over one chunk, TIME_BLOCK steps at a time.

    A block within eps of the level has no crossing, and its sup gap is
    max(bmax - level, level - bmin): subtraction rounds monotonically, so this
    is the step-by-step max bit for bit.  A path with a crossing books the gap
    up to it and the jump at it, then rescans the block from the new level.
    """
    starts = np.arange(0, paths.shape[1], TIME_BLOCK)
    bmax, bmin = np.maximum.reduceat(paths, starts, 1), np.minimum.reduceat(paths, starts, 1)
    for k, s in enumerate(starts):
        top = np.maximum(bmax[:, k] - level, level - bmin[:, k])
        np.maximum(gap, np.where(top < eps, top, 0.0), out=gap)
        idx = np.flatnonzero(top >= eps)
        seg, lev = paths[idx, s:s + TIME_BLOCK], level[idx]
        cols = np.arange(seg.shape[1])
        while idx.size:
            dev = np.abs(seg - lev[:, None])
            hit = dev >= eps
            p = hit.argmax(axis=1)
            has = hit[np.arange(idx.size), p]
            before = cols < np.where(has, p, cols.size)[:, None]
            gap[idx] = np.maximum(gap[idx], np.where(before, dev, 0.0).max(axis=1))
            idx, seg, p = idx[has], seg[has], p[has]
            wj = seg[np.arange(idx.size), p]
            jump = wj - lev[has]
            overshoot[idx] = np.maximum(overshoot[idx], np.abs(jump) - eps)
            tv_pos[idx] += np.maximum(jump, 0.0)
            tv_neg[idx] += np.maximum(-jump, 0.0)
            crossings[idx] += 1
            level[idx] = lev = wj
            seg = np.where(cols <= p[:, None], wj[:, None], seg)  # deviation 0 up to p


def step_count(dt: float, horizon: float) -> int:
    """The number of steps dt in the horizon; ValueError naming both unless it is
    whole: round(horizon / dt) * dt equals the horizon to a relative 1e-9."""
    n_steps = round(horizon / dt)
    if not abs(n_steps * dt - horizon) <= 1e-9 * horizon:
        raise ValueError(f"horizon {horizon} is not a whole number of steps dt = {dt} "
                         f"(horizon / dt = {horizon / dt!r})")
    return n_steps


def _whole(name: str, value, least: int) -> int:
    """value as an int >= least, or a ValueError naming it."""
    try:
        n = operator.index(value)
    except TypeError:
        n = None
    if n is None or n < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    return n


def _simulate(runs, dt: float, horizon: float) -> list:
    """One LadderReport per (eps, n_paths, seed) run.  The batches of all runs
    are shared out over a pool of up to one thread per CPU.

    Batch b of a run draws from the stream keyed by (seed, b), whatever else
    shares the threads, so each report equals its run simulated alone.  Every
    argument is checked, the seed as an integer >= 0, before any batch runs.
    """
    runs = [(eps, _whole("n_paths", n_paths, 1), _whole("seed", seed, 0))
            for eps, n_paths, seed in runs]
    for eps, _, _ in runs:
        if not (0.0 < eps < math.inf and 0.0 < dt <= horizon < math.inf and dt < 1.0):
            raise ValueError("need finite eps, horizon > 0, 0 < dt < 1, dt <= horizon")
    n_steps = step_count(dt, horizon)
    jobs = [(r, eps, seed, b, min(DEFAULT_BATCH, n_paths - start))
            for r, (eps, n_paths, seed) in enumerate(runs)
            for b, start in enumerate(range(0, n_paths, DEFAULT_BATCH))]

    def run(job) -> tuple:
        _, eps, seed, b, size = job
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, b))))
        return _run_batch(eps, dt, n_steps, size, rng)

    # imported here, so that a command without a ladder loads no threading machinery
    from concurrent.futures import ThreadPoolExecutor

    # os.sched_getaffinity is missing on some platforms (macOS, Windows)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    with ThreadPoolExecutor(min(len(jobs), cpus or 1)) as pool:
        batches = list(pool.map(run, jobs))
    reports = []
    for r, (eps, n_paths, seed) in enumerate(runs):
        parts = [out for job, out in zip(jobs, batches) if job[0] == r]
        gap, overshoot, tv, crossings = (np.concatenate(part) for part in zip(*parts))
        report = LadderReport(eps=eps, dt=dt, horizon=horizon, n_paths=n_paths, seed=seed,
                              gap=gap, overshoot=overshoot, tv=tv, crossings=crossings)
        if dt > eps**2 / 10.0:
            report.flags["dt_coarse_for_eps"] = True
        reports.append(report)
    return reports


def run_counterexample(eps: float, dt: float, horizon: float = 1.0,
                       n_paths: int = 10_000, seed: int = 0) -> LadderReport:
    """Simulate the ladder paths and report gap and variation statistics.

    Batches of DEFAULT_BATCH paths draw from independent streams keyed by
    (seed, batch index) and run on up to one thread per CPU; the result would
    change with the batch size, which therefore stays fixed, but not with the
    thread count.  dt < 1 keeps the overshoot slack defined, and dt <= horizon
    makes at least one step; the horizon must be a whole number of steps
    (step_count), n_paths an integer >= 1 and seed an integer >= 0.  The batch
    threads take turns on the crossing scan (_run_batch); the bits do not depend on it.
    """
    return _simulate([(eps, n_paths, seed)], dt, horizon)[0]


def tv_scaling(eps_list, dt: float, n_paths: int = 2000, seed: int = 0) -> dict:
    """Mean variation against 1/eps on the unit horizon: the fitted log-log
    slope should be 1.  Eps value i is run_counterexample(eps_i, seed=seed + i);
    the batches of all eps values share the threads.  A slope needs at least two
    distinct eps values."""
    if len(set(eps_list)) < 2:
        raise ValueError(f"tv_scaling needs at least two distinct eps values, got {eps_list!r}")
    seed = _whole("seed", seed, 0)  # before seed + i, so that a bad seed is named
    reports = _simulate([(eps, n_paths, seed + i) for i, eps in enumerate(eps_list)], dt, 1.0)
    means = [float(rep.tv.mean()) for rep in reports]
    xs = np.log(1.0 / np.asarray(eps_list, dtype=float))
    slope = float(np.polyfit(xs, np.log(np.asarray(means)), 1)[0])
    return {"eps": list(eps_list), "tv_means": means, "slope": slope,
            "summaries": [rep.summary() for rep in reports]}
