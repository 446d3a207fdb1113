"""Command line entry point: reproducible experiment runs.

Subcommands run the solvers and verification suites described in the package
API, emitting deterministic CSV/JSON artifacts plus a manifest holding the
config hash and seed.  Exit codes: 0 all hard assertions pass, 1 an assertion
failed (the manifest lists which), 2 configuration error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
from functools import cached_property, partial

import numpy as np

from . import families
from .bsde import AffineGenerator, BsdeInstance, Generator, solve_bsde
from .errors import NUMBER, TreeBsdeError, read_field, read_numbers
from .estimates import (
    check_burkholder,
    check_ito_p_inequality,
    check_compensator_norm_bound,
    check_obstacle_stability_bound,
    check_obstacle_sup_bound,
    check_reflected_stability_p2,
    check_cross_term,
    check_bracket_equivalences,
    check_solution_norm_bound,
    check_stability_norm_bound,
    compensator_weight_floor,
)
from .ladder import run_counterexample
from .martingales import meyer_bound_check
from .norms import (
    burkholder_constant,
    burkholder_constant_alt,
    meyer_c_prime,
    meyer_constant,
    meyer_constant_ladlag,
    power_sum_bounds,
    young_bound,
)
from .reports import EstimateReport
from .reflected import (
    ReflectedInstance,
    check_skorokhod,
    picard_solve,
    solve_reflected,
    verify_snell_representation,
)
from .tree import Reveal, TimeGrid, build_tree, validate_tree

SCHEMA_VERSION = 1
SUITES = ("apriori", "stability", "compensator", "obstacle", "difference", "meyer", "ito-p",
          "equivalence", "constants")


class ConfigError(Exception):
    """Raised with a field-level diagnostic; maps to exit code 2."""


_need = partial(read_field, error=ConfigError)
_numbers = partial(read_numbers, error=ConfigError)


def _reject_constant(name: str):
    raise ConfigError(f"non-finite number {name} is not allowed")


def load_config(path: str) -> dict:
    try:
        with open(path, "rb") as fh:
            cfg = json.load(fh, parse_constant=_reject_constant)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: top level must be an object")
    version = cfg.get("version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ConfigError(f"{path}: unsupported config version {version!r}")
    return cfg


def default_config() -> dict:
    return {
        "version": SCHEMA_VERSION,
        "tree": {"horizon": 1.0, "n_steps": 6, "d": 1,
                 "reveals": [{"time": 0.5, "labels": ["a", "b", "c"],
                              "probs": [0.5, 0.3, 0.2]}]},
        "family": {"count": 25, "l_y": 0.5, "l_z": 0.5, "margin": 0.5},
        "norms": [{"p": 2.0, "alpha": 0.0}],
        "counterexample": {"eps": 0.05, "dt": 1e-4, "horizon": 1.0, "n_paths": 2000},
    }


def tree_from_config(cfg: dict):
    tc = _need(cfg, "tree", dict, "config")
    horizon = float(_need(tc, "horizon", NUMBER, "tree"))
    n_steps = _need(tc, "n_steps", int, "tree")
    d = _need(tc, "d", int, "tree", 1)
    node_cap = _need(tc, "node_cap", int, "tree", 2**20)
    reveals = []
    for i, rv in enumerate(_need(tc, "reveals", list, "tree", [])):
        where = f"tree.reveals[{i}]"
        reveals.append((float(_need(rv, "time", NUMBER, where)),
                        tuple(_need(rv, "labels", list, where)),
                        tuple(_numbers(rv, "probs", where))))
    try:
        return build_tree(TimeGrid(horizon=horizon, n_steps=n_steps), d=d,
                          reveals=tuple(Reveal(*r) for r in reveals), node_cap=node_cap)
    except (ValueError, TreeBsdeError) as exc:
        raise ConfigError(f"tree: {exc}") from exc


def generator_from_config(cfg: dict, tree) -> Generator:
    gc = _need(cfg, "generator", dict, "config", None)
    if gc is None:
        return families.random_generator(tree, seed=0)
    kind = _need(gc, "kind", str, "generator")
    if kind == "affine":
        eta = _numbers(gc, "eta", "generator", None)
        if eta is not None and len(eta) != tree.d:
            raise ConfigError(f"generator.eta: need {tree.d} entries, got {len(eta)}")
        g0 = float(_need(gc, "g0", NUMBER, "generator", 0.0))
        return AffineGenerator.build(
            tree, lam=float(_need(gc, "lam", NUMBER, "generator", 0.0)),
            eta=eta,
            g0_fn=(lambda k, n, c=g0: np.full(n, c)),
        )
    if kind == "polynomial-clipped":
        l_y = float(_need(gc, "l_y", NUMBER, "generator"))
        l_z = float(_need(gc, "l_z", NUMBER, "generator"))
        bound = float(_need(gc, "bound", NUMBER, "generator", 10.0))

        def fn(k, y, z, _ly=l_y, _lz=l_z, _b=bound):
            u = z.sum(axis=1) / np.sqrt(z.shape[1]) if z.ndim == 2 else z
            return np.clip(_ly * np.sin(y) + _lz * np.tanh(u), -_b, _b)

        return Generator(fn=fn, l_y=l_y, l_z=l_z, name="polynomial-clipped")
    if kind == "table":
        table = _numbers(gc, "values", "generator")
        if len(table) != tree.n_steps:
            raise ConfigError(
                f"generator.values: need {tree.n_steps} per-step entries, got {len(table)}")

        def fn(k, y, z, _t=table):
            return np.full(y.shape, _t[k])

        return Generator(fn=fn, l_y=0.0, l_z=0.0, name="table")
    raise ConfigError(f"generator.kind: unknown kind {kind!r}")


def norm_configs(cfg: dict) -> list:
    out = []
    for i, nc in enumerate(_need(cfg, "norms", list, "config", [{"p": 2.0, "alpha": 0.0}])):
        p = float(_need(nc, "p", NUMBER, f"norms[{i}]"))
        if p <= 1.0:
            raise ConfigError(f"norms[{i}].p: must be > 1, got {p}")
        out.append((p, float(_need(nc, "alpha", NUMBER, f"norms[{i}]", 0.0))))
    return out


def scheme_from_config(cfg: dict) -> str:
    scheme = _need(cfg, "scheme", str, "config", "implicit")
    if scheme not in ("explicit", "implicit"):
        raise ConfigError(f"scheme: expected 'explicit' or 'implicit', got {scheme!r}")
    return scheme


# -- artifact helpers ---------------------------------------------------------

def _finite(obj):
    """Non-finite floats become None, so that the JSON artifacts stay strict."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _finite(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite(v) for v in obj]
    return obj


def _canonical_json(obj) -> str:
    return json.dumps(_finite(obj), sort_keys=True, separators=(",", ":"), default=float,
                      allow_nan=False)


def _write_manifest(out_dir: str, command: str, cfg: dict, seed: int, failures: list,
                    **extra):
    manifest = {"command": command, "seed": seed, "version": SCHEMA_VERSION,
                "config_hash": hashlib.sha256(_canonical_json(cfg).encode()).hexdigest(),
                "failures": failures, **extra}
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        fh.write(_canonical_json(manifest))


def write_artifacts(out_dir: str, command: str, cfg: dict, seed: int, reports: list) -> list:
    os.makedirs(out_dir, exist_ok=True)
    rows = [r.to_dict() for r in reports]
    rows.sort(key=lambda r: (r["inequality_id"], r["fingerprint"]))
    failures = [f'{r["inequality_id"]}[{r["fingerprint"]}]' for r in rows if not r["passed"]]
    with open(os.path.join(out_dir, "reports.json"), "w") as fh:
        fh.write(_canonical_json({"reports": rows, "extra": {}}))
    with open(os.path.join(out_dir, "reports.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["inequality_id", "fingerprint", "lhs", "rhs", "ratio",
                         "constant_used", "passed"])
        for r in rows:
            writer.writerow([r["inequality_id"], r["fingerprint"], repr(r["lhs"]),
                             repr(r["rhs"]), repr(r["ratio"]),
                             str(r["constant_used"]), int(r["passed"])])
    _write_manifest(out_dir, command, cfg, seed, failures, n_reports=len(rows))
    return failures


# -- suite implementations ----------------------------------------------------

class SuiteInputs:
    """Family inputs shared by the verify suites; each is built, and each
    reflected instance solved, once on first use."""

    def __init__(self, cfg: dict, tree, seed: int):
        self.cfg, self.tree, self.seed = cfg, tree, seed
        fam = _need(cfg, "family", dict, "config", {})
        self.count = _need(fam, "count", int, "family", 25)
        self.params = {name: float(_need(fam, name, NUMBER, "family", 0.5))
                       for name in ("l_y", "l_z", "margin")}

    def fp(self, kind: str, seed: int) -> str:
        return families.fingerprint(kind, seed, self.tree)

    @cached_property
    def solved(self) -> list:
        """(seed, instance, implicit solution) per reflected family member."""
        out = []
        for s in range(self.seed, self.seed + self.count):
            inst = families.random_reflected(self.tree, s, **self.params)
            out.append((s, inst, solve_reflected(inst, scheme="implicit")))
        return out

    @cached_property
    def pairs(self) -> list:
        """Consecutive members (0, 1), (2, 3), ... of `solved`."""
        return list(zip(self.solved[::2], self.solved[1::2]))

    @cached_property
    def supermartingales(self) -> list:
        return [(s, families.random_strong_supermartingale(self.tree, s))
                for s in range(self.seed, self.seed + self.count)]


def suite_constants(inp) -> list:
    seed = inp.seed
    reports = []
    checks = [
        ("supermartingale_constant_p2", meyer_c_prime(2.0), 4.0),
        ("compensator_constant_p2", meyer_constant(2.0), 12.0),
        ("moment_constant_p2", burkholder_constant(2.0), 2.0),
        ("moment_constant_p3", burkholder_constant(3.0), 8.0),
        ("moment_constant_p4", burkholder_constant(4.0), 16.0),
        ("ladlag_compensator_constant", meyer_constant_ladlag(2.0),
         meyer_constant(2.0) * (1 + meyer_constant(2.0)) + meyer_constant(2.0) * 3.0),
    ]
    for name, got, want in checks:
        reports.append(EstimateReport(
            inequality_id=name, lhs=got, rhs=want, constant_used="exact",
            passed=abs(got - want) <= 1e-12, fingerprint="closed-form",
            details={},
        ))
    for p in (3.0, 4.0):
        reports.append(EstimateReport(
            inequality_id="moment_constant_alt_parse", lhs=burkholder_constant_alt(p),
            rhs=burkholder_constant(p), constant_used="informational", passed=True,
            fingerprint=f"p={p}", details={"note": "alternative precedence, reported only"},
        ))
    rng = np.random.default_rng(seed)
    worst_ps, worst_yg = 0.0, 0.0
    for _ in range(200):
        a = rng.uniform(0.1, 3.0, size=int(rng.integers(1, 6)))
        ell = float(rng.uniform(0.2, 4.0))
        lo, mid, hi = power_sum_bounds(a, ell)
        worst_ps = max(worst_ps, lo - mid, mid - hi)
        lhs, rhs = young_bound(float(rng.uniform(0, 3)), float(rng.uniform(0, 3)),
                               float(rng.uniform(0.1, 3)), float(rng.uniform(1.1, 4)))
        worst_yg = max(worst_yg, lhs - rhs)
    for name, worst in (("power_sum_sandwich", worst_ps), ("young_product_bound", worst_yg)):
        reports.append(EstimateReport(
            inequality_id=name, lhs=worst, rhs=0.0, constant_used="exact",
            passed=worst <= 1e-9, fingerprint=f"seed={seed}", details={"n_samples": 200},
        ))
    return reports


def suite_meyer(inp, s, x) -> list:
    return [meyer_bound_check(inp.tree, x, p=2.0, fingerprint=inp.fp("ssm", s))]


def suite_itop(inp, s, x) -> list:
    return [check_ito_p_inequality(x, p, alpha=1.0, fingerprint=inp.fp(f"ssm-p{p}", s))
            for p in (1.2, 1.5, 1.9)]


def suite_apriori(inp, s, inst, sol) -> list:
    return [check_solution_norm_bound(inst, sol, p, alpha, fingerprint=inp.fp("rbsde", s))
            for p, alpha in norm_configs(inp.cfg)]


def suite_stability(inp, first, second) -> list:
    (s1, i1, sol1), (_, i2, sol2) = first, second
    return [check_stability_norm_bound(i1, sol1, i2, sol2, p, alpha,
                                       fingerprint=inp.fp("pair", s1))
            for p, alpha in norm_configs(inp.cfg)]


def suite_compensator(inp, s, inst, sol) -> list:
    fp, gen = inp.fp("rbsde", s), inst.gen
    alpha_ge2 = compensator_weight_floor(gen, 2.0) + 1.0
    alpha_lt2 = compensator_weight_floor(gen, 1.5) + 0.5
    return [check_compensator_norm_bound(inst, sol, 2.0, 0.0, "K-bound", fingerprint=fp),
            check_compensator_norm_bound(inst, sol, 2.0, alpha_ge2, "N-ge2", fingerprint=fp),
            check_compensator_norm_bound(inst, sol, 1.5, alpha_lt2, "N-lt2", fingerprint=fp)]


def suite_obstacle(inp, s, inst, sol) -> list:
    return [check_obstacle_sup_bound(inst, sol, 2.0, 0.0, variant=variant,
                                     fingerprint=inp.fp("rbsde", s))
            for variant in ("S_plus", "S")]


def suite_obstacle_pair(inp, first, second) -> list:
    (s1, i1, sol1), (_, i2, sol2) = first, second
    return [check_obstacle_stability_bound(i1, sol1, i2, sol2, 2.0, 0.0,
                                           fingerprint=inp.fp("pair", s1))]


def suite_difference(inp, first, second) -> list:
    (s1, i1, sol1), (_, i2, sol2) = first, second
    fp = inp.fp("pair", s1)
    return [check_reflected_stability_p2(i1, sol1, i2, sol2, alpha=0.5, fingerprint=fp),
            check_cross_term(i1, sol1, i2, sol2, alpha=0.5, fingerprint=fp)]


def suite_equivalence(inp, s, inst, sol) -> list:
    fp = inp.fp("rbsde", s)
    reports = [r for p in (1.5, 2.0, 3.0)
               for r in check_bracket_equivalences(sol, p, 0.3, fingerprint=fp)]
    return reports + [check_burkholder(sol, 3.0, 0.3, fingerprint=fp)]


# suite -> rows of (shared input, check); a row maps each item of the shared
# input (None: run once) to reports, and rows run in order
SUITE_FN = {
    "constants": [(None, suite_constants)],
    "meyer": [("supermartingales", suite_meyer)],
    "apriori": [("solved", suite_apriori)],
    "stability": [("pairs", suite_stability)],
    "compensator": [("solved", suite_compensator)],
    "obstacle": [("solved", suite_obstacle), ("pairs", suite_obstacle_pair)],
    "difference": [("pairs", suite_difference)],
    "ito-p": [("supermartingales", suite_itop)],
    "equivalence": [("solved", suite_equivalence)],
}


# -- subcommand drivers -------------------------------------------------------

def cmd_solve(args, cfg) -> int:
    tree = tree_from_config(cfg)
    validate_tree(tree)
    gen = generator_from_config(cfg, tree)
    xi = families.random_terminal(tree, args.seed)
    inst = BsdeInstance(tree=tree, xi=xi, gen=gen)
    sol = solve_bsde(inst, scheme=scheme_from_config(cfg))
    resid = sol.dynamics_residual(gen)
    rep = EstimateReport(
        inequality_id="solver_dynamics_residual", lhs=resid, rhs=args.tol,
        constant_used="exact", passed=resid <= args.tol,
        fingerprint=families.fingerprint("bsde", args.seed, tree),
        details={"y0": float(sol.y.values[0][0]), "scheme": sol.scheme},
    )
    failures = write_artifacts(args.out, "solve", cfg, args.seed, [rep])
    return 1 if failures else 0


def _seeded_reflected(cfg: dict, seed: int) -> ReflectedInstance:
    """Config tree and driver with seeded terminal value and obstacle."""
    tree = tree_from_config(cfg)
    return ReflectedInstance(tree=tree, xi=families.random_terminal(tree, seed),
                             gen=generator_from_config(cfg, tree),
                             obstacle=families.random_obstacle(tree, seed))


def cmd_reflect(args, cfg) -> int:
    inst = _seeded_reflected(cfg, args.seed)
    tree = inst.tree
    sol = solve_reflected(inst, scheme=scheme_from_config(cfg))
    resid = sol.dynamics_residual(inst.gen)
    comp = check_skorokhod(inst, sol)["complementarity"]
    rep = EstimateReport(
        inequality_id="reflected_dynamics_and_contact", lhs=max(resid, comp),
        rhs=args.tol, constant_used="exact", passed=max(resid, comp) <= args.tol,
        fingerprint=families.fingerprint("rbsde", args.seed, tree),
        details={"y0": float(sol.y.values[0][0]), "residual": resid,
                 "complementarity": comp},
    )
    failures = write_artifacts(args.out, "reflect", cfg, args.seed, [rep])
    return 1 if failures else 0


def cmd_picard(args, cfg) -> int:
    inst = _seeded_reflected(cfg, args.seed)
    tree = inst.tree
    sol, trace = picard_solve(inst)
    direct = solve_reflected(inst, scheme="implicit")
    gap = max(float(np.abs(sol.y.values[k] - direct.y.values[k]).max())
              for k in range(tree.n_steps + 1))
    rep = EstimateReport(
        inequality_id="fixed_point_vs_direct", lhs=gap, rhs=1e-9,
        constant_used="exact", passed=gap <= 1e-9,
        fingerprint=families.fingerprint("picard", args.seed, tree),
        details={"iterations": len(trace.dy_s2), "alpha_star": trace.alpha_star,
                 "contraction_ratios": trace.contraction_ratios},
    )
    failures = write_artifacts(args.out, "picard", cfg, args.seed, [rep])
    return 1 if failures else 0


def cmd_verify(args, cfg) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    inputs = SuiteInputs(cfg, tree_from_config(cfg), args.seed)
    reports = []
    for name in names:
        for source, check in SUITE_FN[name]:
            items = [()] if source is None else getattr(inputs, source)
            reports += [r for item in items for r in check(inputs, *item)]
    failures = write_artifacts(args.out, f"verify:{','.join(names)}", cfg,
                               args.seed, reports)
    if failures:
        print(f"FAIL: {len(failures)} assertion(s): {failures[:5]}", file=sys.stderr)
        return 1
    print(f"ok: {len(reports)} reports")
    return 0


def cmd_counterexample(args, cfg) -> int:
    cc = _need(cfg, "counterexample", dict, "config", {})
    where = "counterexample"
    positive = {name: float(_need(cc, name, NUMBER, where, default))
                for name, default in (("eps", 0.05), ("dt", 1e-4), ("horizon", 1.0))}
    for name, value in positive.items():
        if value <= 0.0:
            raise ConfigError(f"{where}.{name}: must be > 0, got {value}")
    n_paths = _need(cc, "n_paths", int, where, 2000)
    if n_paths < 1:
        raise ConfigError(f"{where}.n_paths: must be >= 1, got {n_paths}")
    rep = run_counterexample(**positive, n_paths=n_paths, seed=args.seed)
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
    _write_manifest(args.out, "counterexample", cfg, args.seed,
                    [] if ok else ["ladder_gap_bound"])
    return 0 if ok else 1


def cmd_snell_check(args, cfg) -> int:
    inp = SuiteInputs(cfg, tree_from_config(cfg), args.seed)
    reports = [r for s, inst, sol in inp.solved
               for r in verify_snell_representation(inst, sol, fingerprint=inp.fp("rbsde", s))]
    failures = write_artifacts(args.out, "snell-check", cfg, args.seed, reports)
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treebsde",
        description="Exact BSDE and reflected-BSDE laboratory on scenario trees.")
    parser.add_argument("--config", default=None, help="JSON experiment config")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="out", help="artifact directory")
    parser.add_argument("--tol", type=float, default=1e-10)
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
        cfg = load_config(args.config) if args.config else default_config()
        dispatch = {
            "solve": cmd_solve,
            "reflect": cmd_reflect,
            "picard": cmd_picard,
            "verify": cmd_verify,
            "counterexample": cmd_counterexample,
            "snell-check": cmd_snell_check,
        }
        return dispatch[args.command](args, cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
