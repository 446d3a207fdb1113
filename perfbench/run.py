"""treebsde benchmark: one workload, one seed, one line of JSON.

    python3 perfbench/run.py --workload verify_family --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a checkout.  The workload runs in a child process
(perfbench/worker.py) that imports treebsde from the checkout's `src`; this
process times the set-up in fresh processes, samples the memory of the
workload process tree, and prints the metrics named in BENCHMARK.json as the
last line of standard output.  `--trace 0` prints the end-to-end metrics,
`--trace 1` the per-layer metrics of a traced pass.  Artifacts, the span file
and a machine record go to `.bench_out/` in the checkout.  See
perfbench/README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_SAMPLES = 7
WORKER_TIMEOUT_S = 170.0
RSS_POLL_S = 0.05
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def child_env() -> dict:
    env = dict(os.environ)
    # the load comes from one process; BLAS/OpenMP threads at most nproc
    threads = str(min(2, len(os.sched_getaffinity(0))))
    for var in THREAD_VARS:
        env[var] = threads
    env.pop("PYTHONPATH", None)
    return env


# -- memory of the workload process tree ----------------------------------------

def _rss_kib(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _children(pid: int) -> list:
    out = []
    try:
        for tid in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{tid}/children") as fh:
                out += [int(c) for c in fh.read().split()]
    except OSError:
        pass
    return out


def tree_rss_kib(pid: int) -> int:
    """Resident memory of `pid` plus all its descendants, now."""
    total, todo = 0, [pid]
    while todo:
        p = todo.pop()
        total += _rss_kib(p)
        todo += _children(p)
    return total


def run_child(cmd: list, timeout: float) -> tuple:
    """Run `cmd`; return (exit code, peak RSS in KiB of it and its children).

    The peak is the larger of the kernel's high-water mark for the largest
    single process and the sampled sum over the live process tree, so that
    memory spread over worker processes is counted too.
    """
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=sys.stderr)
    peak = [0]
    done = threading.Event()

    def sample():
        while not done.wait(RSS_POLL_S):
            peak[0] = max(peak[0], tree_rss_kib(proc.pid))

    sampler = threading.Thread(target=sample, daemon=True)
    killer = threading.Timer(timeout, proc.kill)
    sampler.start()
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        done.set()
        killer.cancel()
        sampler.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, max(peak[0], usage.ru_maxrss)


# -- machine record ---------------------------------------------------------------

def machine_record(numpy_version: str) -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for idx in sorted(os.listdir(base)):
            d = os.path.join(base, idx)
            with open(os.path.join(d, "level")) as a, open(os.path.join(d, "type")) as b, \
                    open(os.path.join(d, "size")) as c:
                level, kind, size = a.read().strip(), b.read().strip(), c.read().strip()
            if kind != "Instruction":
                caches[f"L{level}"] = size
    except OSError:
        pass
    env = child_env()
    return {
        "python": platform.python_version(), "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "caches": caches,
        "threads": {v: env[v] for v in THREAD_VARS},
        "note": "deep_tree's working set (~220 MiB peak RSS) is about 2x a 105 MiB shared L3, "
                "so tree.cond_exp_bytes is computed from array sizes, not a bandwidth "
                "measurement",
    }


# -- one run ----------------------------------------------------------------------

def run_once(workload: str, seed: int, seconds: float, trace: int, size: str = "full") -> dict:
    """Run one workload; return the result record (metrics named as in BENCHMARK.json)."""
    spec = load_spec()
    seed = seed % 2**31  # treebsde seeds numpy generators, which take non-negative seeds
    out = os.path.join(ROOT, ".bench_out", f"{workload}-seed{seed}-trace{trace}-{size}")
    os.makedirs(out, exist_ok=True)
    worker = [sys.executable, os.path.join(HERE, "worker.py"), "--root", ROOT,
              "--workload", workload, "--seed", str(seed), "--size", size, "--out", out]

    def setup_samples(first: int, last: int) -> list:
        samples = []
        for i in range(first, last):
            path = os.path.join(out, f"setup{i}.json")
            code, _ = run_child(worker + ["--setup-only", "--result", path], WORKER_TIMEOUT_S)
            if code != 0:
                raise RuntimeError(f"set-up process exited with {code}")
            with open(path) as fh:
                samples.append(json.load(fh))
        return samples

    # set-up samples are split around the workload process, so that they do
    # not all fall in one phase of the host's speed swings
    half = SETUP_SAMPLES // 2
    setup = [] if trace else setup_samples(0, half)
    path = os.path.join(out, "result.json")
    code, peak_kib = run_child(worker + ["--seconds", str(seconds), "--trace", str(trace),
                                         "--result", path], WORKER_TIMEOUT_S)
    if code != 0:
        raise RuntimeError(f"workload process exited with {code}")
    with open(path) as fh:
        res = json.load(fh)
    if not trace:
        setup += setup_samples(half, SETUP_SAMPLES)

    if trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = res["per_layer"]
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values = {
            "wall_s": res["wall_s"],
            "throughput": res["units"] / res["wall_s"],
            "setup_s": statistics.median(s["setup_ref_s"] for s in setup),
            "peak_rss_mb": peak_kib / 1024.0,
            "ok_frac": 1.0 - res["failed"] / res["attempted"],
        }
    record = {
        "correct": res["failed"] == 0 and not res.get("wrappers_left"),
        "attempted": res["attempted"], "failed": res["failed"],
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    res["machine"] = machine_record(res["numpy"])
    res["setup_samples"] = setup
    res["record"] = record
    with open(os.path.join(out, "record.json"), "w") as fh:
        json.dump(res, fh, indent=1)
    print(f"machine: {json.dumps(res['machine'])}")
    print(f"digest {workload} seed={seed}: {res['digest']} "
          f"(passes {', '.join(f'{w:.3f}' for w in res['pass_wall_s'])} s)")
    return record


# -- self-test ----------------------------------------------------------------------

def self_test() -> int:
    """Tiny-size run of each workload, traced and untraced, checking the output
    contract, that per-layer metrics name a treebsde module, and that the tracer
    leaves no wrapper behind."""
    sys.path.insert(0, HERE)
    from workloads import load_package
    from tracer import Tracer, installed_wrappers, layer_names

    spec = load_spec()
    tb = load_package(ROOT)
    modules = set(layer_names(tb)) | {"trace"}
    problems = []
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in spec[key]]
    problems += [f"bad metric name {n!r}" for n in names if not NAME_RE.fullmatch(n)]
    problems += [f"per-layer metric {m['name']!r} names no treebsde module"
                 for m in spec["per_layer"] if m["name"].split(".")[0] not in modules]

    tracer = Tracer(tb)
    tracer.install()
    if not installed_wrappers(tb):
        problems.append("tracer installed no wrapper")
    tracer.restore()
    problems += [f"wrapper left after restore: {w}" for w in installed_wrappers(tb)]

    for wl in (m["name"] for m in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            rec = run_once(wl, seed=3, seconds=0.5, trace=trace, size="tiny")
            want = [m["name"] for m in spec[key]]
            if list(rec["metrics"]) != want:
                problems.append(f"{wl} trace={trace}: metrics {list(rec['metrics'])} != {want}")
            problems += [f"{wl} trace={trace}: bad name {n!r}" for n in rec["metrics"]
                         if not NAME_RE.fullmatch(n)]
            if not rec["correct"] or rec["failed"]:
                problems.append(f"{wl} trace={trace}: {rec['failed']} failed operations")
            with open(os.path.join(ROOT, ".bench_out", f"{wl}-seed3-trace{trace}-tiny",
                                   "record.json")) as fh:
                left = json.load(fh).get("wrappers_left", [])
            problems += [f"{wl}: wrapper left after traced pass: {w}" for w in left]
    for p in problems:
        print(f"self-test: {p}", file=sys.stderr)
    print(f"self-test: {'FAIL' if problems else 'ok'} ({len(problems)} problems)")
    return 1 if problems else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "treebsde", "__init__.py")):
        print(f"perfbench: no treebsde sources under {ROOT}/src", file=sys.stderr)
        return 2
    if args.self_test:
        return self_test()
    workloads = [m["name"] for m in load_spec()["workloads"]]
    if args.workload not in workloads:
        print(f"perfbench: --workload must be one of {workloads}", file=sys.stderr)
        return 2
    try:
        record = run_once(args.workload, args.seed, args.seconds, args.trace)
    except (RuntimeError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
