"""The three benchmark workloads.

Each workload is built from a seed (its inputs), runs one pass at a time, and
checks every output of the pass against the tolerances the acceptance tests
use.  `run_pass` returns the timed wall time of the pass (the checks are not
timed), the operations attempted and failed, and a digest of the seeded
outputs, which must not change from pass to pass.

Solver calls go through the module attributes (`tb.bsde.solve_bsde`, ...) at
call time, so that a traced pass sees the tracing wrappers.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import time
import traceback
from dataclasses import dataclass

# tolerances of the acceptance tests (tests/test_acceptance.py, tests/test_bsde.py)
TREE_TOL = 1e-12
RESIDUAL_TOL = 1e-10
SKOROKHOD_TOL = 1e-12
REPRESENTATION_TOL = 1e-12
TV_REL_TOL = 0.15


@dataclass
class PassResult:
    wall_s: float
    attempted: int
    failed: int
    digest: str


class Workload:
    """Base: `units` of work per pass; `untraced` wraps the output checks."""

    unit = ""
    units = 1.0

    def __init__(self, tb, seed: int):
        self.tb, self.seed = tb, seed
        self.untraced = contextlib.nullcontext
        self.last: dict = {}

    def warmup(self) -> PassResult:
        return self.run_pass()


class VerifyFamily(Workload):
    """`verify --suite all`, `snell-check` and `picard` through `cli.main`."""

    unit = "family instances"
    # count 10 keeps a pass near 1.5 s, so that a 30 s run holds about 20
    # passes to take the median of
    SIZES = {"full": {"count": 10, "picard_seeds": 3},
             "tiny": {"count": 2, "picard_seeds": 1}}

    def __init__(self, tb, seed, out_dir, size):
        super().__init__(tb, seed)
        count, n_picard = self.SIZES[size]["count"], self.SIZES[size]["picard_seeds"]
        cfg = tb.cli.default_config()
        cfg["family"]["count"] = count
        os.makedirs(out_dir, exist_ok=True)
        cfg_path = os.path.join(out_dir, "config.json")
        with open(cfg_path, "w") as fh:
            json.dump(cfg, fh)

        def command(sub: str, s: int, *tail: str):
            out = os.path.join(out_dir, sub)
            return out, ["--config", cfg_path, "--seed", str(s), "--out", out, *tail]

        self.commands = [command("verify", seed, "verify", "--suite", "all"),
                         command("snell", seed, "snell-check")]
        self.commands += [command(f"picard{i}", seed + i, "picard") for i in range(n_picard)]
        # instances processed per pass: the family once in verify and once in
        # snell-check, plus one instance per picard seed
        self.units = float(2 * count + n_picard)

    def run_pass(self) -> PassResult:
        wall, attempted, failed = 0.0, 0, 0
        digest = hashlib.sha256()
        for out, argv in self.commands:
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = self.tb.cli.main(argv)
            except (Exception, SystemExit):
                traceback.print_exc()
                code = None
            wall += time.perf_counter() - t0
            with self.untraced():
                attempted += 1
                failed += code != 0
                try:
                    with open(os.path.join(out, "reports.json"), "rb") as fh:
                        blob = fh.read()
                    rows = json.loads(blob)["reports"]
                except (OSError, ValueError, KeyError):
                    failed += 1
                    continue
                digest.update(blob)
                attempted += len(rows)
                failed += sum(not r["passed"] for r in rows)
        return PassResult(wall, attempted, failed, digest.hexdigest())


class DeepTree(Workload):
    """One large instance per tree near the 2^20-node-per-step cap."""

    unit = "tree nodes"
    # (d, n_steps); a three-letter reveal at mid horizon, as in the default config
    SIZES = {"full": [(2, 9), (1, 18)], "tiny": [(2, 4), (1, 6)]}
    REVEAL = (("a", "b", "c"), (0.5, 0.3, 0.2))

    def __init__(self, tb, seed, out_dir, size):
        super().__init__(tb, seed)
        self.shapes = self.SIZES[size]
        labels, probs = self.REVEAL
        self.units = 0.0
        for d, n in self.shapes:
            nodes, width = 1, 1
            for k in range(1, n + 1):
                width *= 2**d * (len(labels) if k == n // 2 else 1)
                nodes += width
            self.units += nodes

    def run_pass(self) -> PassResult:
        tb = self.tb
        labels, probs = self.REVEAL
        wall = 0.0
        checks = []
        digest = hashlib.sha256()

        def timed(fn, *args, **kwargs):
            nonlocal wall
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            wall += time.perf_counter() - t0
            return out

        def record(*arrays):
            for a in arrays:
                digest.update(a.tobytes())

        # each result is checked, digested and dropped as soon as no later
        # stage needs it, so the memory peak is the workload's own
        for d, n in self.shapes:
            grid = tb.tree.TimeGrid(horizon=1.0, n_steps=n)
            reveal = tb.tree.Reveal(time=grid.times[n // 2], labels=labels, probs=probs)
            tree = timed(tb.tree.build_tree, grid, d=d, reveals=(reveal,))
            defects = timed(tb.tree.validate_tree, tree)
            inst = timed(tb.families.random_reflected, tree, self.seed)
            bsol = timed(tb.bsde.solve_bsde, timed(inst.plain))
            with self.untraced():
                checks += [max(defects.values()) <= TREE_TOL,
                           bsol.dynamics_residual(inst.gen) <= RESIDUAL_TOL]
                record(*bsol.y.values, *bsol.z.values)
            del bsol
            rsol = timed(tb.reflected.solve_reflected, inst)
            skorokhod = timed(tb.reflected.check_skorokhod, inst, rsol)
            fp = timed(tb.families.fingerprint, "rbsde", self.seed, tree)
            reports = []
            if n <= tb.reflected.DP_DEPTH_CAP:
                reports += timed(tb.reflected.verify_snell_representation, inst, rsol,
                                 fingerprint=fp)
            mart = timed(tb.families.random_martingale, tree, self.seed)
            pair = timed(tb.martingales.represent_martingale, tree, mart)
            with self.untraced():
                checks.append(pair.reconstruction_defect(mart) <= REPRESENTATION_TOL)
                record(*pair.z.values)
            del mart, pair
            reports.append(timed(tb.estimates.check_solution_norm_bound, inst, rsol, 2.0, 0.0,
                                 fingerprint=fp))
            reports.append(timed(tb.estimates.check_compensator_norm_bound, inst, rsol, 2.0, 0.0,
                                 "K-bound", fingerprint=fp))
            with self.untraced():
                checks += [rsol.dynamics_residual(inst.gen) <= RESIDUAL_TOL,
                           skorokhod["complementarity"] <= SKOROKHOD_TOL,
                           -skorokhod["min_increment"] <= SKOROKHOD_TOL]
                checks += [r.passed for r in reports]
                record(*rsol.y.values, *rsol.z.values, *rsol.dk.values)
                digest.update(json.dumps([r.to_dict() for r in reports], sort_keys=True,
                                         default=float).encode())
            del tree, inst, rsol, reports
        return PassResult(wall, len(checks), checks.count(False), digest.hexdigest())


class Ladder(Workload):
    """`run_counterexample` at 1/20 of the acceptance size: two Philox batches."""

    unit = "path-steps"
    # dt 4e-5 keeps a pass near 4 s, so that a run holds several passes
    SIZES = {"full": {"eps": 0.05, "dt": 4e-5, "horizon": 1.0, "n_paths": 2000},
             "tiny": {"eps": 0.2, "dt": 1e-3, "horizon": 1.0, "n_paths": 200}}

    def __init__(self, tb, seed, out_dir, size):
        super().__init__(tb, seed)
        self.params = dict(self.SIZES[size])
        self.n_steps = int(round(self.params["horizon"] / self.params["dt"]))
        self.units = float(self.params["n_paths"] * self.n_steps)

    def warmup(self) -> PassResult:
        # no cache to fill: warm the code paths on a short horizon, unchecked
        self.tb.ladder.run_counterexample(**{**self.params, "horizon": 50 * self.params["dt"]},
                                          seed=self.seed)
        return PassResult(0.0, 0, 0, "")

    def run_pass(self) -> PassResult:
        p = self.params
        t0 = time.perf_counter()
        rep = self.tb.ladder.run_counterexample(**p, seed=self.seed)
        wall = time.perf_counter() - t0
        with self.untraced():
            bound = p["eps"] + self.tb.ladder.overshoot_slack(p["dt"])
            gap_fail = int((rep.gap > bound).sum())
            predicted = p["horizon"] / p["eps"]
            tv_mean = float(rep.tv.mean())
            tv_fail = abs(tv_mean - predicted) / predicted > TV_REL_TOL
            digest = hashlib.sha256()
            for arr in (rep.gap, rep.overshoot, rep.tv, rep.crossings):
                digest.update(arr.tobytes())
            self.last = {"crossings_per_path": float(rep.crossings.mean())}
        return PassResult(wall, p["n_paths"] + 1, gap_fail + tv_fail, digest.hexdigest())

    def rng_probe(self) -> float:
        """ns per Gaussian sample for the ladder's own streams and draw shape."""
        import numpy as np

        p, L = self.params, self.tb.ladder
        t0 = time.perf_counter()
        samples = 0
        start, b = 0, 0
        while start < p["n_paths"]:
            m = min(L.DEFAULT_BATCH, p["n_paths"] - start)
            rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((self.seed, b))))
            done = 0
            while done < self.n_steps:
                c = min(L.TIME_CHUNK, self.n_steps - done)
                rng.standard_normal((m, c))
                done += c
            samples += m * self.n_steps
            start += m
            b += 1
        return (time.perf_counter() - t0) / samples * 1e9


WORKLOADS = {"verify_family": VerifyFamily, "deep_tree": DeepTree, "ladder": Ladder}


def load_package(root: str):
    """Import treebsde from the checkout's `src`; refuse any other copy."""
    import importlib

    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "treebsde", "__init__.py")):
        raise SystemExit(f"treebsde sources not found under {src}")
    sys.path.insert(0, src)
    tb = importlib.import_module("treebsde")
    for name in ("cli", "tree", "bsde", "reflected", "families", "martingales",
                 "estimates", "ladder"):
        importlib.import_module(f"treebsde.{name}")
    if not os.path.abspath(tb.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"imported treebsde from {tb.__file__}, not from {src}")
    return tb
