"""One workload process: set up, warm up, time passes, optionally trace some.

Started by run.py, never by hand; writes its figures as JSON to `--result`.
With `--setup-only` it stops after the set-up (import of treebsde and input
generation), which run.py repeats in fresh processes to time `setup_s`.
Times are scaled to reference seconds by the loop in calibrate.py.
"""

import time

T_START = time.perf_counter()  # before treebsde (and numpy) are imported

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

MIN_TRACE_PAIRS = 3
SETUP_PROBES = 2


def parse(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--root", required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    p.add_argument("--out", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def cpu_seconds() -> float:
    """User + system CPU of this process and its reaped children."""
    own, kids = resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def main(argv=None) -> int:
    args = parse(argv)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from calibrate import REFERENCE_S, probe_s, reference_seconds
    from workloads import WORKLOADS, load_package

    tb = load_package(args.root)
    os.makedirs(args.out, exist_ok=True)
    wl = WORKLOADS[args.workload](tb, args.seed, args.out, args.size)
    setup_s = time.perf_counter() - T_START
    result = {"setup_s": setup_s}
    if args.setup_only:
        # the first loop warms it; the second gauges the host's speed now
        probes = [probe_s() for _ in range(SETUP_PROBES)]
        result.update({"setup_probe_s": probes[-1],
                       "setup_ref_s": setup_s / probes[-1] * REFERENCE_S})
        return write(args.result, result)

    import numpy as np

    passes = [wl.warmup()]
    probe_s()  # warms the loop
    probes = [probe_s()]
    t0 = time.perf_counter()
    while True:
        passes.append(wl.run_pass())
        probes.append(probe_s())
        if time.perf_counter() - t0 >= args.seconds:
            break
    timed = passes[1:]
    # every seeded pass must reproduce the first timed pass exactly
    checked = [p for p in passes if p.digest]
    mismatched = sum(p.digest != timed[0].digest for p in checked)
    if mismatched:
        print(f"perfbench: {args.workload}: {mismatched} passes changed their outputs",
              file=sys.stderr)
    attempted = sum(p.attempted for p in passes) + len(checked)
    failed = sum(p.failed for p in passes) + mismatched
    # the median pass in reference seconds (see calibrate.py): the host's
    # speed swings by up to 2x, and each pass is scaled by the probes around it
    ref = reference_seconds([p.wall_s for p in timed], probes)
    result.update({
        "wall_s": statistics.median(ref), "units": wl.units, "unit": wl.unit,
        "pass_wall_s": [p.wall_s for p in timed], "pass_ref_s": ref, "probe_s": probes,
        "digest": timed[0].digest,
        "attempted": attempted, "failed": failed,
        "numpy": np.__version__, "treebsde": tb.__version__,
    })

    if args.trace:
        from tracer import Tracer, installed_wrappers
        from layers import per_layer_metrics

        # each traced pass follows an untraced one, and the overhead is the
        # median difference within these adjacent pairs: the host's speed
        # swings make a comparison with passes further away meaningless
        runs = []
        t_pairs = time.perf_counter()
        while len(runs) < MIN_TRACE_PAIRS or time.perf_counter() - t_pairs < args.seconds / 2:
            base = wl.run_pass()
            tracer = Tracer(tb)
            tracer.install()
            wl.untraced = tracer.paused
            cpu0 = cpu_seconds()
            try:
                traced = wl.run_pass()
            finally:
                tracer.restore()
            runs.append((base, traced, tracer, cpu_seconds() - cpu0))
        left = installed_wrappers(tb)
        for base, traced, _, _ in runs:
            result["attempted"] += base.attempted + traced.attempted + 2
            result["failed"] += (base.failed + traced.failed + (base.digest != timed[0].digest)
                                 + (traced.digest != timed[0].digest))
        result["attempted"] += 1
        result["failed"] += bool(left)
        _, traced, tracer, cpu = runs[0]
        extra = {"cpu_s": cpu, **wl.last,
                 "overhead_s": statistics.median(t.wall_s - b.wall_s for b, t, _, _ in runs)}
        if args.workload == "ladder":
            extra["rng_ns_per_sample"] = wl.rng_probe()
            extra["path_steps"] = wl.units
        result["trace_pairs_s"] = [(b.wall_s, t.wall_s) for b, t, _, _ in runs]
        result["per_layer"] = per_layer_metrics(tracer, traced.wall_s, extra)
        result["wrappers_left"] = left
        result["span_summary"] = tracer.summary()["spans"]
        tracer.write(os.path.join(args.out, "spans.npz"))
    return write(args.result, result)


def write(path: str, result: dict) -> int:
    with open(path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
