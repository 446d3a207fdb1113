"""Per-layer metrics of one traced pass, named `<module>.<metric>`.

Times are self times summed over the spans of the named entry points.  A
layer that the workload does not call reports 0.  The `trace.*` metrics
describe the tracer itself: its overhead against an adjacent untraced pass
and the share of the traced pass time that top-level spans cover.
"""

from __future__ import annotations

from collections import Counter

SNELL = ("reflected.verify_snell_representation", "reflected.snell_dynamic_program",
         "reflected.snell_bruteforce")
INSTANCE_BUILDERS = ("families.random_reflected", "families.random_bsde",
                     "families.random_strong_supermartingale", "families.random_martingale")


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


def per_layer_metrics(tracer, traced_wall: float, extra: dict) -> dict:
    """`extra` carries what spans cannot: CPU time, the tracing overhead, and
    for the ladder its crossings, RNG probe and path-step count."""
    summary = tracer.summary()
    spans = summary["spans"]

    def calls(*names) -> int:
        return sum(spans[n]["calls"] for n in names if n in spans)

    def self_s(*names) -> float:
        return sum((spans[n]["self_s"] for n in names if n in spans), 0.0)

    def layer(prefix: str, exclude=()) -> list:
        return [n for n in spans if n.split(".")[0] == prefix and n not in exclude]

    def prefixed(prefix: str) -> list:
        return [n for n in spans if n.startswith(prefix)]

    solve_parent = tracer.parent_names("reflected.solve_reflected")
    picard_sweeps = solve_parent.get("reflected.picard_solve", 0)
    family_solves = calls("reflected.solve_reflected") - picard_sweeps

    # inner fixed-point iterations: driver evaluations per (solve, step)
    per_step = Counter((solve, k) for solve, k, probe in tracer.driver_calls
                       if solve >= 0 and not probe)
    useful = sum(per_step.values())
    evals = len(tracer.driver_calls)

    ladder_s = spans.get("ladder.run_counterexample", {}).get("total_s", 0.0)
    path_steps = extra.get("path_steps", 0.0)
    ns_path_step = _ratio(ladder_s, path_steps, 1e9)
    rng_ns = extra.get("rng_ns_per_sample", 0.0)

    cond_s = self_s("tree.ScenarioTree.cond_exp")
    lift_s = self_s("tree.ScenarioTree.lift")
    build_s = self_s("tree.build_tree")
    return {
        "tree.build_s": build_s,
        "tree.build_ns_per_node": _ratio(build_s, tracer.nodes.get("build_tree", 0), 1e9),
        "tree.validate_s": self_s("tree.validate_tree"),
        "tree.cond_exp_calls": calls("tree.ScenarioTree.cond_exp"),
        "tree.cond_exp_ns_per_node": _ratio(cond_s, tracer.nodes.get("cond_exp", 0), 1e9),
        "tree.cond_exp_bytes": tracer.bytes.get("cond_exp", 0.0),
        "tree.lift_calls": calls("tree.ScenarioTree.lift"),
        "tree.lift_ns_per_node": _ratio(lift_s, tracer.nodes.get("lift", 0), 1e9),
        "processes.calls": calls(*layer("processes")),
        "processes.s": self_s(*layer("processes")),
        "martingales.meyer_s": self_s("martingales.meyer_bound_check"),
        "martingales.represent_s": self_s("martingales.represent_martingale"),
        "martingales.girsanov_s": self_s("martingales.girsanov_change",
                                         *prefixed("martingales.MeasureChange.")),
        "norms.calls": calls(*layer("norms")),
        "norms.s": self_s(*layer("norms")),
        "bsde.solve_s": self_s("bsde.solve_bsde", "bsde.solve_linear_bsde"),
        "bsde.check_lipschitz_calls": calls("bsde.check_lipschitz"),
        "bsde.check_lipschitz_s": self_s("bsde.check_lipschitz"),
        "bsde.driver_evals": evals,
        "bsde.useful_driver_eval_ratio": _ratio(useful, evals),
        "bsde.inner_iters_mean": _ratio(useful, len(per_step)),
        "bsde.inner_iters_max": max(per_step.values(), default=0),
        "reflected.solve_calls": calls("reflected.solve_reflected"),
        "reflected.solves_per_instance": _ratio(family_solves, len(tracer.instances)),
        "reflected.solve_s": self_s("reflected.solve_reflected"),
        "reflected.picard_sweeps": picard_sweeps,
        "reflected.picard_s": self_s("reflected.picard_solve"),
        "reflected.snell_s": self_s(*SNELL),
        "estimates.calls": calls(*layer("estimates")),
        "estimates.s": self_s(*layer("estimates")),
        "families.instances": calls(*INSTANCE_BUILDERS),
        "families.s": self_s(*layer("families", exclude=("families.driver",))),
        "families.driver_s": self_s("families.driver"),
        "ladder.ns_per_path_step": ns_path_step,
        "ladder.rng_ns_per_sample": rng_ns,
        "ladder.scan_ns_per_path_step": ns_path_step - rng_ns if path_steps else 0.0,
        "ladder.crossings_per_path": extra.get("crossings_per_path", 0.0),
        "ladder.cpu_s": extra["cpu_s"] if path_steps else 0.0,
        "cli.verify_s": self_s("cli.cmd_verify", *prefixed("cli.suite_")),
        "cli.snell_check_s": self_s("cli.cmd_snell_check"),
        "cli.picard_s": self_s("cli.cmd_picard"),
        "cli.artifact_write_s": self_s("cli.write_artifacts"),
        "cli.artifact_bytes": tracer.artifact_bytes,
        "trace.overhead_s": extra["overhead_s"],
        "trace.coverage": _ratio(summary["top_level_s"], traced_wall),
        "trace.spans": summary["n_spans"],
    }
