"""Command line entry point: reproducible experiment runs.

Subcommands run the solvers and verification suites described in the package
API, emitting deterministic CSV/JSON artifacts plus a manifest holding the
config hash and seed.  Exit codes: 0 all hard assertions pass, 1 an assertion
failed or the run raised an error (the manifest lists which), 2 configuration
error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
from functools import cache, cached_property

import numpy as np

from . import families
from .bsde import ROUND_OFF_ULPS, AffineGenerator, BsdeInstance, Generator, _certify, solve_bsde
from .errors import (ConfigError, Field, Tagged, TreeBsdeError, TreeSizeError, above, at_least,
                     read_record)
from .estimates import (
    check_bracket_family,
    check_burkholder_family,
    check_compensator_norm_family,
    check_cross_term_family,
    check_ito_p_family,
    check_obstacle_stability_family,
    check_obstacle_sup_family,
    check_reflected_stability_p2_family,
    check_solution_norm_family,
    check_stability_norm_family,
    compensator_weight_floor,
    pair_differences,
)
from .ladder import run_counterexample, step_count
from .martingales import meyer_bound_family
from .norms import (
    burkholder_constant,
    burkholder_constant_alt,
    meyer_c_prime,
    meyer_constant,
    meyer_constant_ladlag,
    young_bound,
)
from .reports import EstimateReport, json_safe
from .reflected import (
    DP_DEPTH_CAP,
    ReflectedInstance,
    check_skorokhod,
    picard_solve,
    solve_reflected,
    verify_snell_family,
)
from .tree import (DEFAULT_NODE_CAP, Reveal, TimeGrid, build_tree, check_tree_shape, sup_abs,
                   validate_tree)

SCHEMA_VERSION = 1
CONSTANT_SAMPLES = 200  # random samples of the power-sum and Young inequalities per verify


# -- config schema: each field's kind, default and range ----------------------

REVEAL = {
    "time": Field(float),
    "labels": Field([(str, int, float)], ok=lambda labels: len(set(labels)) == len(labels),
                    rule="distinct"),
    "probs": Field([float]),
}
TREE = {
    "horizon": Field(float, **above(0)),
    "n_steps": Field(int, **at_least(1)),
    "d": Field(int, 1, **at_least(1)),
    "node_cap": Field(int, DEFAULT_NODE_CAP, **at_least(1)),
    "reveals": Field([REVEAL], []),
}
FAMILY = {
    "count": Field(int, 25, **at_least(1)),
    "l_y": Field(float, 0.5, **at_least(0)),
    "l_z": Field(float, 0.5, **at_least(0)),
    "margin": Field(float, 0.5),
}
GENERATOR = Tagged({
    "affine": {"lam": Field(float, 0.0), "eta": Field([float], None), "g0": Field(float, 0.0)},
    "polynomial-clipped": {"l_y": Field(float, **at_least(0)),
                           "l_z": Field(float, **at_least(0)),
                           "bound": Field(float, 10.0, **above(0))},
    "table": {"values": Field([float])},
})
CONFIG = {
    "version": Field(int, SCHEMA_VERSION, lambda v: v == SCHEMA_VERSION, str(SCHEMA_VERSION)),
    "tree": Field(TREE, None),
    "family": Field(FAMILY, {}),
    "norms": Field([{"p": Field(float, **above(1)), "alpha": Field(float, 0.0)}], [{"p": 2.0}]),
    "counterexample": Field({"eps": Field(float, 0.05, **above(0)),
                             "dt": Field(float, 1e-4, lambda v: 0 < v < 1, "in (0, 1)"),
                             "horizon": Field(float, 1.0, **above(0)),
                             "n_paths": Field(int, 2000, **at_least(1))}, {}),
    "generator": Field(GENERATOR, None),
    "scheme": Field(str, "implicit", lambda s: s in ("explicit", "implicit"),
                    "'explicit' or 'implicit'"),
}
# the driver of solve, reflect and picard when the config has no generator section
DEFAULT_GENERATOR = {"seed": 0, "l_y": 0.5, "l_z": 0.5}
# the tree of the default config; every other value in it is a table default
DEFAULT_TREE = {"horizon": 1.0, "n_steps": 6,
                "reveals": [{"time": 0.5, "labels": ["a", "b", "c"], "probs": [0.5, 0.3, 0.2]}]}


def _reject_constant(name: str):
    raise ConfigError(f"non-finite number {name} is not allowed")


def load_config(path: str):
    """The parsed JSON of a config file, as given."""
    try:
        with open(path, "rb") as fh:
            return json.load(fh, parse_constant=_reject_constant)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON ({exc})") from exc


def parse_config(raw) -> dict:
    """Check a config against CONFIG; returns every section with its defaults filled in.

    Ranges that join two fields are checked here too: the counterexample step
    against its horizon (at most it, and a whole number of steps in it) and,
    given a tree, its reveals and node cap (without building it), the generator
    lengths and dt * L_y < 1 for every driver a command may build.
    """
    cfg = read_record(raw, CONFIG)
    ce, tc, gc = cfg["counterexample"], cfg["tree"], cfg["generator"] or {}
    if ce["dt"] > ce["horizon"]:
        raise ConfigError(f"counterexample.dt: must be <= counterexample.horizon "
                          f"{ce['horizon']}, got {ce['dt']}")
    try:
        step_count(ce["dt"], ce["horizon"])
    except ValueError as exc:
        raise ConfigError(f"counterexample.dt: {exc}") from exc
    if tc is None:
        return cfg
    try:
        check_tree_shape(**_tree_args(tc))
    except (ValueError, TreeBsdeError) as exc:
        field = "node_cap" if isinstance(exc, TreeSizeError) else "reveals"
        raise ConfigError(f"tree.{field}: {exc}") from exc
    for key, size in (("eta", tc["d"]), ("values", tc["n_steps"])):
        if gc.get(key) is not None and len(gc[key]) != size:
            raise ConfigError(f"generator.{key}: need {size} entries, got {len(gc[key])}")
    dt = tc["horizon"] / tc["n_steps"]
    lipschitz = {"family.l_y": cfg["family"]["l_y"], "generator.lam": abs(gc.get("lam", 0.0)),
                 "generator.l_y": gc.get("l_y", 0.0),
                 "generator (absent: the default driver)": 0.0 if gc else DEFAULT_GENERATOR["l_y"]}
    for name, l_y in lipschitz.items():
        if dt * l_y >= 1.0:
            raise ConfigError(f"{name}: dt * L_y = {dt * l_y:.3f} must be < 1 (dt = {dt:g})")
    return cfg


def default_config() -> dict:
    """The default tree with every table default filled in, bar three rarely set options."""
    cfg = parse_config({"tree": DEFAULT_TREE})
    del cfg["tree"]["node_cap"], cfg["generator"], cfg["scheme"]
    return cfg


def _tree_args(tc: dict) -> dict:
    return {"grid": TimeGrid(horizon=tc["horizon"], n_steps=tc["n_steps"]), "d": tc["d"],
            "reveals": tuple(Reveal(r["time"], tuple(r["labels"]), tuple(r["probs"]))
                             for r in tc["reveals"]),
            "node_cap": tc["node_cap"]}


def tree_from_config(cfg: dict):
    if cfg["tree"] is None:
        raise ConfigError("tree: missing required section")
    return build_tree(**_tree_args(cfg["tree"]))


def generator_from_config(cfg: dict, tree) -> Generator:
    gc = cfg["generator"]
    if gc is None:
        return families.random_generator(tree, **DEFAULT_GENERATOR)
    # each formula fixes its constants and the schema its finite parameters: certified
    if gc["kind"] == "affine":
        return _certify(AffineGenerator.build(tree, lam=gc["lam"], eta=gc["eta"],
                                              g0_fn=(lambda k, n, c=gc["g0"]: np.full(n, c))))
    if gc["kind"] == "polynomial-clipped":
        def fn(k, y, z, l_y=gc["l_y"], l_z=gc["l_z"], bound=gc["bound"]):
            u = z if z.ndim == y.ndim else z.sum(axis=-1) / np.sqrt(z.shape[-1])
            return np.clip(l_y * np.sin(y) + l_z * np.tanh(u), -bound, bound)

        return _certify(Generator(fn=fn, l_y=gc["l_y"], l_z=gc["l_z"], name="polynomial-clipped"))
    return _certify(Generator(fn=lambda k, y, z, table=gc["values"]: np.full(y.shape, table[k]),
                              l_y=0.0, l_z=0.0, name="table"))


# -- artifact helpers ---------------------------------------------------------

def _dumps(obj) -> str:
    """Canonical JSON of a document without non-finite floats (json_safe)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=float,
                      allow_nan=False)


def _canonical_json(obj) -> str:
    return _dumps(json_safe(obj))


def _write_manifest(out_dir: str, command: str, cfg: dict, seed: int, failures: list,
                    **extra):
    manifest = {"command": command, "seed": seed, "version": SCHEMA_VERSION,
                "config_hash": hashlib.sha256(_canonical_json(cfg).encode()).hexdigest(),
                "failures": failures, **extra}
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        fh.write(_canonical_json(manifest))


def write_artifacts(out_dir: str, command: str, cfg: dict, seed: int, reports: list) -> list:
    os.makedirs(out_dir, exist_ok=True)
    reports = sorted(reports, key=lambda r: (r.inequality_id, r.fingerprint))
    failures = [f"{r.inequality_id}[{r.fingerprint}]" for r in reports if not r.passed]
    with open(os.path.join(out_dir, "reports.json"), "w") as fh:  # rows are strict already
        fh.write(_dumps({"reports": [r.to_dict() for r in reports], "extra": {}}))
    with open(os.path.join(out_dir, "reports.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["inequality_id", "fingerprint", "lhs", "rhs", "ratio",
                         "constant_used", "passed"])
        for r in reports:
            writer.writerow([r.inequality_id, r.fingerprint, repr(r.lhs), repr(r.rhs),
                             repr(r.ratio), str(r.constant_used), int(r.passed)])
    _write_manifest(out_dir, command, cfg, seed, failures, n_reports=len(reports))
    return failures


# -- suite implementations ----------------------------------------------------

class SuiteInputs:
    """Family inputs shared by the verify suites; each is built, and each
    reflected instance solved, once on first use.  The suites read the family's forest
    solutions and supermartingales, of which the members' are views, and the member
    pairs' differences on the forest of pairs."""

    def __init__(self, cfg: dict, seed: int):
        self.tree, self.seed = tree_from_config(cfg), seed
        self.seeds = range(seed, seed + cfg["family"]["count"])
        self.params = {name: cfg["family"][name] for name in ("l_y", "l_z", "margin")}
        self.norms = [(nc["p"], nc["alpha"]) for nc in cfg["norms"]]

    def fp(self, kind: str, seed: int) -> str:
        return families.fingerprint(kind, seed, self.tree)

    def fps(self, kind: str) -> list:
        return [self.fp(kind, s) for s in self.seeds]

    @cached_property
    def family(self):
        return families.reflected_family(self.tree, self.seeds, **self.params)

    @cached_property
    def sol(self):
        """The implicit solution of every reflected family member, in one sweep."""
        return solve_reflected(self.family)

    @cached_property
    def free(self):
        """The implicit solution of every member's plain() instance, in one sweep."""
        return solve_bsde(self.family.plain())

    @cached_property
    def differences(self):
        """The member pairs (0, 1), (2, 3), ... as PairDifferences, shared by the
        stability, obstacle-pair and difference suites; None for a family of one."""
        return pair_differences(self.family, self.sol) if len(self.seeds) > 1 else None

    @cached_property
    def pair_fps(self) -> list:
        """The fingerprint of each pair, by its first member's seed."""
        return [self.fp("pair", s) for s in self.seeds[:-1:2]]

    @cached_property
    def supermartingales(self):
        return families.strong_supermartingale_family(self.tree, self.seeds)


def suite_constants(inp) -> list:
    seed = inp.seed
    checks = [
        ("supermartingale_constant_p2", meyer_c_prime(2.0), 4.0),
        ("compensator_constant_p2", meyer_constant(2.0), 12.0),
        ("moment_constant_p2", burkholder_constant(2.0), 2.0),
        ("moment_constant_p3", burkholder_constant(3.0), 8.0),
        ("moment_constant_p4", burkholder_constant(4.0), 16.0),
        ("ladlag_compensator_constant", meyer_constant_ladlag(2.0),
         meyer_constant(2.0) * (1 + meyer_constant(2.0)) + meyer_constant(2.0) * 3.0),
    ]
    reports = [EstimateReport(inequality_id=name, lhs=got, rhs=want, constant_used="exact",
                              passed=abs(got - want) <= 1e-12, fingerprint="closed-form",
                              details={})
               for name, got, want in checks]
    for p in (3.0, 4.0):
        reports.append(EstimateReport(
            inequality_id="moment_constant_alt_parse", lhs=burkholder_constant_alt(p),
            rhs=burkholder_constant(p), constant_used="informational", passed=True,
            fingerprint=f"p={p}", details={"note": "alternative precedence, reported only"},
        ))
    rng = np.random.default_rng(seed)
    draws, ells, youngs = [], [], []
    for _ in range(CONSTANT_SAMPLES):
        draws.append(rng.uniform(0.1, 3.0, size=int(rng.integers(1, 6))))
        ells.append(float(rng.uniform(0.2, 4.0)))
        # Young's a, b, beta and p
        youngs.append([float(rng.uniform(lo, hi))
                       for lo, hi in ((0, 3), (0, 3), (0.1, 3), (1.1, 4))])
    # power_sum_bounds of every sample at once: each sample a zero-padded row, whose
    # zeros add nothing to its sums; the powers of scalars stay Python float pow
    sizes = np.array([a.size for a in draws])
    padded = np.zeros((CONSTANT_SAMPLES, 5))
    padded[np.arange(5) < sizes[:, None]] = np.concatenate(draws)
    power_sums = (padded ** np.array(ells)[:, None]).sum(axis=1).tolist()
    worst_ps, worst_yg = 0.0, 0.0
    for size, ell, s, total, young in zip(sizes.tolist(), ells, power_sums,
                                          padded.sum(axis=1).tolist(), youngs):
        mid, spread = total ** ell, size ** (ell - 1.0)
        worst_ps = max(worst_ps, min(1.0, spread) * s - mid, mid - max(1.0, spread) * s)
        lhs, rhs = young_bound(*young)
        worst_yg = max(worst_yg, lhs - rhs)
    return reports + [EstimateReport.exact(name, worst, 0.0, 1e-9, f"seed={seed}",
                                           {"n_samples": CONSTANT_SAMPLES})
                      for name, worst in (("power_sum_sandwich", worst_ps),
                                          ("young_product_bound", worst_yg))]


def suite_meyer(inp) -> list:
    x = inp.supermartingales
    return meyer_bound_family(x.tree, x, 2.0, inp.fps("ssm"))


def suite_itop(inp) -> list:
    return [r for p in (1.2, 1.5, 1.9)
            for r in check_ito_p_family(inp.supermartingales, p, 1.0, inp.fps(f"ssm-p{p}"))]


def suite_apriori(inp) -> list:
    return [r for p, alpha in inp.norms
            for r in check_solution_norm_family(inp.family, inp.sol, p, alpha, inp.fps("rbsde"))]


def suite_stability(inp) -> list:
    if inp.differences is None:
        return []
    return [r for p, alpha in inp.norms
            for r in check_stability_norm_family(inp.differences, p, alpha, inp.pair_fps)]


def suite_compensator(inp) -> list:
    gen = inp.family.gen
    runs = [(2.0, 0.0, "K-bound"), (2.0, compensator_weight_floor(gen, 2.0) + 1.0, "N-ge2"),
            (1.5, compensator_weight_floor(gen, 1.5) + 0.5, "N-lt2")]
    return [r for p, alpha, branch in runs for r in check_compensator_norm_family(
        inp.family, inp.sol, p, alpha, branch, inp.fps("rbsde"))]


def suite_obstacle(inp) -> list:
    return [r for variant in ("S_plus", "S") for r in check_obstacle_sup_family(
        inp.family, inp.sol, 2.0, 0.0, variant, inp.fps("rbsde"), inp.free)]


def suite_obstacle_pair(inp) -> list:
    if inp.differences is None:
        return []
    return check_obstacle_stability_family(inp.differences, 2.0, 0.0, inp.pair_fps)


def suite_difference(inp) -> list:
    if inp.differences is None:
        return []
    return (check_reflected_stability_p2_family(inp.differences, 0.5, inp.pair_fps)
            + check_cross_term_family(inp.differences, 0.5, inp.pair_fps))


def suite_equivalence(inp) -> list:
    fps = inp.fps("rbsde")
    return (check_bracket_family(inp.sol, (1.5, 2.0, 3.0), 0.3, fps)
            + check_burkholder_family(inp.sol, 3.0, 0.3, fps))


# suite -> its checks, each run once over the whole family, in order; `verify --suite
# all` runs the suites in this order
SUITE_FN = {
    "apriori": (suite_apriori,),
    "stability": (suite_stability,),
    "compensator": (suite_compensator,),
    "obstacle": (suite_obstacle, suite_obstacle_pair),
    "difference": (suite_difference,),
    "meyer": (suite_meyer,),
    "ito-p": (suite_itop,),
    "equivalence": (suite_equivalence,),
    "constants": (suite_constants,),
}
SUITES = tuple(SUITE_FN)


# -- subcommand drivers -------------------------------------------------------

def _single_report(args, cfg: dict, raw, kind: str, check) -> int:
    """Write the one exact report of a seeded instance on the config tree.

    The tree is checked against its invariants first.  `kind` is the
    fingerprint kind: "bsde" is the plain instance, any other the reflected
    one on a seeded obstacle.  `check(inst)` returns (inequality_id, lhs, rhs,
    details), and the report passes when lhs <= rhs.
    """
    tree = tree_from_config(cfg)
    validate_tree(tree)
    xi, gen = families.random_terminal(tree, args.seed), generator_from_config(cfg, tree)
    inst = (BsdeInstance(tree=tree, xi=xi, gen=gen) if kind == "bsde" else
            ReflectedInstance(tree=tree, xi=xi, gen=gen,
                              obstacle=families.random_obstacle(tree, args.seed)))
    inequality_id, lhs, rhs, details = check(inst)
    rep = EstimateReport.exact(inequality_id, lhs, rhs, 0.0,
                               families.fingerprint(kind, args.seed, tree), details)
    return 1 if write_artifacts(args.out, args.command, raw, args.seed, [rep]) else 0


def _scaled_tol(tol: float, sol) -> float:
    """`tol`, or ROUND_OFF_ULPS ulps of the largest |Y| or |dK| where that is more: a
    reflected Y may sit on the obstacle while the driver term and the push are large."""
    return max(tol, ROUND_OFF_ULPS * float(np.spacing(sup_abs(sol.y.values + sol.dk.values))))


def cmd_solve(args, cfg: dict, raw) -> int:
    def check(inst):
        sol = solve_bsde(inst, scheme=cfg["scheme"])
        return ("solver_dynamics_residual", sol.dynamics_residual(inst.gen),
                _scaled_tol(args.tol, sol),
                {"y0": float(sol.y.values[0][0]), "scheme": sol.scheme})

    return _single_report(args, cfg, raw, "bsde", check)


def cmd_reflect(args, cfg: dict, raw) -> int:
    def check(inst):
        sol = solve_reflected(inst, scheme=cfg["scheme"])
        resid = sol.dynamics_residual(inst.gen)
        comp = check_skorokhod(inst, sol)["complementarity"]
        return ("reflected_dynamics_and_contact", float(np.maximum(resid, comp)),
                _scaled_tol(args.tol, sol),
                {"y0": float(sol.y.values[0][0]), "residual": resid, "complementarity": comp})

    return _single_report(args, cfg, raw, "rbsde", check)


def cmd_picard(args, cfg: dict, raw) -> int:
    def check(inst):
        sol, trace = picard_solve(inst)
        direct = solve_reflected(inst, scheme="implicit")
        gap = sup_abs(a - b for a, b in zip(sol.y.values, direct.y.values))
        return ("fixed_point_vs_direct", gap, 1e-9,
                {"iterations": len(trace.dy_s2), "alpha_star": trace.alpha_star,
                 "contraction_ratios": trace.contraction_ratios})

    return _single_report(args, cfg, raw, "picard", check)


def cmd_verify(args, cfg: dict, raw) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    inputs = SuiteInputs(cfg, args.seed)
    reports = []
    for name in names:
        for check in SUITE_FN[name]:
            reports += check(inputs)
    failures = write_artifacts(args.out, f"verify:{','.join(names)}", raw,
                               args.seed, reports)
    if failures:
        print(f"FAIL: {len(failures)} assertion(s): {failures[:5]}", file=sys.stderr)
        return 1
    print(f"ok: {len(reports)} reports")
    return 0


def cmd_counterexample(args, cfg: dict, raw) -> int:
    rep = run_counterexample(**cfg["counterexample"], seed=args.seed)
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "paths.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["eps", "path", "gap", "tv", "crossings"])
        for row in rep.rows():
            writer.writerow([row["eps"], row["path"], repr(row["gap"]),
                             repr(row["tv"]), row["crossings"]])
    summary = rep.summary()
    ok = summary["gap_ok_fraction"] == 1.0
    summary["passed"] = ok
    with open(os.path.join(args.out, "summary.json"), "w") as fh:
        fh.write(_canonical_json(summary))
    _write_manifest(args.out, "counterexample", raw, args.seed,
                    [] if ok else ["ladder_gap_bound"])
    return 0 if ok else 1


def cmd_snell_check(args, cfg: dict, raw) -> int:
    if (tc := cfg["tree"]) is not None:  # the two oracles' limits, before any work
        dt, l_z = tc["horizon"] / tc["n_steps"], cfg["family"]["l_z"]
        if tc["n_steps"] > DP_DEPTH_CAP:
            raise ConfigError(f"tree.n_steps: snell-check's dynamic program is capped at "
                              f"depth {DP_DEPTH_CAP}, got {tc['n_steps']}")
        # eta is clipped at l_z in each coordinate: d l_z sqrt(dt) < 1 keeps its density positive
        if tc["d"] * l_z * math.sqrt(dt) >= 1.0:
            raise ConfigError(f"family.l_z: snell-check's change of measure needs d * l_z * "
                              f"sqrt(dt) < 1, got {tc['d']} * {l_z:g} * sqrt({dt:g})")
    inp = SuiteInputs(cfg, args.seed)
    reports = verify_snell_family(inp.family, inp.sol, inp.fps("rbsde"))
    return 1 if write_artifacts(args.out, "snell-check", raw, args.seed, reports) else 0


def _tolerance(text: str) -> float:
    if not (math.isfinite(tol := float(text)) and tol > 0.0):
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text}")
    return tol


def _seed(text: str) -> int:
    if (seed := int(text)) < 0:
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {text}")
    return seed


@cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treebsde",
        description="Exact BSDE and reflected-BSDE laboratory on scenario trees.")
    parser.add_argument("--config", default=None, help="JSON experiment config")
    parser.add_argument("--seed", type=_seed, default=0, help="an integer >= 0")
    parser.add_argument("--out", default="out", help="artifact directory")
    parser.add_argument("--tol", type=_tolerance, default=1e-10, help="finite and > 0")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("solve", help="solve one backward equation")
    sub.add_parser("reflect", help="solve one reflected equation")
    sub.add_parser("picard", help="fixed-point solve and compare with direct")
    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("--suite", default="all", choices=SUITES + ("all",))
    sub.add_parser("counterexample", help="run the ladder simulation")
    sub.add_parser("snell-check", help="optimal stopping representations")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        raw = load_config(args.config) if args.config else default_config()
        command = globals()["cmd_" + args.command.replace("-", "_")]
        return command(args, parse_config(raw), raw)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (TreeBsdeError, OverflowError) as exc:  # a run error on an accepted config
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        os.makedirs(args.out, exist_ok=True)
        _write_manifest(args.out, args.command, raw, args.seed, [type(exc).__name__],
                        error=str(exc))
        return 1


if __name__ == "__main__":
    sys.exit(main())
