"""The gainlab benchmark: ``gainlab run`` workloads timed end to end.

Usage (from the root of a gainlab checkout):

    python3 bench/run.py --workload {shape,replay,stats,all} \\
        --seed N --seconds S --trace {0,1}

With ``--trace 0`` the benchmark first sets up gainlab in fresh processes
(bench/child.py), then runs the workload's configs in a fresh process
each time, as often as fits in S seconds from the start, and reports the
medians of the end-to-end metrics: ``wall_s`` (cli.run), ``cpu_s``
(user+sys, pool workers included), ``setup_s`` (import gainlab,
load_config and validate) and ``peak_rss_mb``.

With ``--trace 1`` the workload runs once with ``--workers 1`` and every
layer wrapped from outside (bench/tracer.py), then untraced with
``--workers 1`` as often as fits in S seconds; the per-layer metrics come
from the traced run. It also self-tests the tracer: the traced and
untraced manifests must be byte-identical, ``cli``'s own self time (where
time in unwrapped code under ``cli.run`` lands) must stay within 5% of the
traced wall time, every boundary the workload is named for must be
reached, and the layers it must not touch must read 0.

Every run's outputs are checked. The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics; the exit
code is 1 if any check failed, 2 if the checkout has no gainlab sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import tracer  # noqa: E402
import workloads  # noqa: E402

WORK_ROOT = ".bench_work"
THREAD_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
MIN_RUNS = 2  # timed runs per benchmark run, even past --seconds
SETUP_SAMPLES = 7  # set-up-only fresh processes per benchmark run
CLI_SELF_MAX = 0.05  # largest share of traced wall time cli may keep as self time
TIME_LIMIT_S = 170.0  # a benchmark run must end within 180 s


class ChildFailed(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update(dict.fromkeys(THREAD_PINS, "1"))
    env.pop("GAINLAB_WORKERS", None)
    return env


def run_child(mode: str, workers: int, out_root: str, configs: list[str],
              deadline: float) -> dict:
    shutil.rmtree(out_root, ignore_errors=True)
    os.makedirs(out_root)
    cmd = [sys.executable, os.path.join(BENCH_DIR, "child.py"), mode, str(workers),
           out_root, *configs]
    try:
        proc = subprocess.run(cmd, env=child_env(), stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{mode} run timed out") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{mode} run exited {proc.returncode}")
    result = json.loads(lines[-1])
    result["out_dirs"] = [os.path.join(out_root, str(i)) for i in range(len(configs))]
    return result


def check_run(w, result: dict) -> tuple[list[str], int]:
    """Findings and failed cells of one run's outputs."""
    findings, failed = workloads.common_findings(result["out_dirs"], result["exit_codes"])
    if not findings:
        findings += w.check(result["out_dirs"])
    return findings, failed


def reference_hashes() -> dict:
    """Manifest hashes recorded with the baseline, keyed '<workload>/<seed>'."""
    try:
        with open(os.path.join(BENCH_DIR, "baseline.json")) as fh:
            return json.load(fh)["manifest_sha256"]
    except FileNotFoundError:
        return {}


def environment(seed: int) -> dict:
    import numpy as np
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), "")
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # show_config's layout varies across numpy releases
        blas = "unknown"
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": cpu or "unknown", "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas,
            "thread_pins": {k: child_env()[k] for k in THREAD_PINS}, "seed": seed}


def repeat(run, start: float, seconds: float, at_least: int) -> list:
    """Call ``run()`` at least ``at_least`` times, and again while one more
    call (as long as the median call so far) ends within ``seconds`` of
    ``start``."""
    results, durations = [], []
    while len(results) < at_least or (
            time.monotonic() - start + statistics.median(durations) <= seconds):
        t = time.monotonic()
        results.append(run())
        durations.append(time.monotonic() - t)
    return results


def timed(w, configs, work, seconds, deadline) -> dict:
    """Fresh-process set-ups, then runs of the workload, within ``seconds``."""
    start = time.monotonic()
    setups = [run_child("setup", 1, os.path.join(work, "setup"), configs,
                        deadline)["setup_s"] for _ in range(SETUP_SAMPLES)]
    findings, failed, manifests = [], 0, set()

    def run():
        nonlocal failed
        res = run_child("run", w.workers, os.path.join(work, "run"), configs, deadline)
        f, n = check_run(w, res)
        findings.extend(f)
        failed += n
        if not f:
            manifests.add(workloads.manifest_bytes(res["out_dirs"]))
        return res

    runs = repeat(run, start, seconds, MIN_RUNS)
    setups += [r["setup_s"] for r in runs]
    if len(manifests) > 1:
        findings.append(f"manifests differ across the {len(runs)} runs")
    samples = {"wall_s": [r["wall_s"] for r in runs], "cpu_s": [r["cpu_s"] for r in runs],
               "setup_s": setups, "peak_rss_mb": [r["peak_rss_mb"] for r in runs]}
    return {"samples": samples, "findings": findings, "failed": failed,
            "attempted": len(runs) * w.cells, "manifests": manifests,
            "metrics": {name: (statistics.median(v), END_TO_END_UNITS[name])
                        for name, v in samples.items()}}


def traced(w, configs, work, seconds, deadline) -> dict:
    """One traced run and untraced runs, both with --workers 1."""
    start = time.monotonic()
    res = run_child("trace", 1, os.path.join(work, "trace"), configs, deadline)
    findings, failed = check_run(w, res)
    traced_manifest = workloads.manifest_bytes(res["out_dirs"]) if not findings else None

    def run():
        nonlocal failed
        p = run_child("run", 1, os.path.join(work, "run"), configs, deadline)
        f, n = check_run(w, p)
        findings.extend(f)
        failed += n
        if not f and workloads.manifest_bytes(p["out_dirs"]) != traced_manifest:
            findings.append("traced and untraced manifests differ")
        return p

    plain = repeat(run, start, seconds, 1)

    table = res["table"]
    wall = table["cli.run"]["total_s"]
    selfs = tracer.layer_self(table)
    # Self times partition cli.run's time by construction, so a sum check could
    # not fail; work in unwrapped code that cli calls lands in cli's self time.
    if selfs["cli"] > CLI_SELF_MAX * wall:
        findings.append(f"trace: cli self time {selfs['cli']:.6f} s is over "
                        f"{CLI_SELF_MAX:.0%} of traced wall time {wall:.6f} s "
                        "(work in unwrapped code?)")
    for key in w.required:
        if table.get(key, {}).get("calls", 0) == 0:
            findings.append(f"trace: {key} never called (is a binding unwrapped?)")
    calls = tracer.layer_calls(table)
    for layer in w.untouched:
        if calls[layer] or selfs[layer]:
            findings.append(f"trace: layer {layer} should be untouched, has "
                            f"{calls[layer]} calls")
    untraced_wall = statistics.median(p["wall_s"] for p in plain)
    values = tracer.per_layer_metrics(table, w.cells, untraced_wall, w.named_layers)
    return {"findings": findings, "failed": failed,
            "attempted": (1 + len(plain)) * w.cells,
            "manifests": {traced_manifest} if traced_manifest else set(),
            "table": table, "layer_self_s": selfs, "untraced_wall_s": untraced_wall,
            "metrics": {k: (v, tracer.PER_LAYER_UNITS[k]) for k, v in values.items()}}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 deadline: float) -> dict:
    w = workloads.WORKLOADS[name]
    work = os.path.join(WORK_ROOT, f"{name}-s{seed}")
    configs = w.write_inputs(work, seed)
    try:
        # the first import compiles bytecode; users pay that once, not per run
        run_child("setup", 1, os.path.join(work, "setup"), configs, deadline)
        out = (traced if trace else timed)(w, configs, work, seconds, deadline)
    except ChildFailed as exc:
        out = {"findings": [f"{name}: {exc}"], "failed": w.cells,
               "attempted": w.cells, "manifests": set(), "metrics": {}}
    digests = sorted(hashlib.sha256(m).hexdigest() for m in out.pop("manifests"))
    ref = reference_hashes().get(f"{name}/{seed}")
    out["manifest_sha256"] = digests
    out["reference_match"] = None if ref is None else digests == [ref]
    return out


def report(name: str, out: dict, trace: bool) -> None:
    share = out["failed"] / out["attempted"]
    print(f"[{name}] attempted {out['attempted']} cells, failed {out['failed']}, "
          f"failed_share = {share:.6g} ratio")
    for metric, (value, unit) in out["metrics"].items():
        line = f"[{name}] {metric} = {value:.6g} {unit}"
        if not trace:
            q1, _, q3 = statistics.quantiles(out["samples"][metric], n=4)
            line += (f"  (median of {len(out['samples'][metric])}; "
                     f"quartiles {q1:.6g} .. {q3:.6g})")
        print(line)
    if trace and out.get("table"):
        share = out["metrics"]["trace.named_share"][0]
        layers = " + ".join(workloads.WORKLOADS[name].named_layers)
        print(f"[{name}] reason: {layers} self time is {share:.1%} of traced wall "
              f"time ({'meets' if share >= 0.8 else 'BELOW'} the 80% it was chosen for)")
    ref = out.get("reference_match")
    print(f"[{name}] manifest sha256 {out.get('manifest_sha256')}: "
          + {None: "no reference for this seed", True: "matches the reference",
             False: "differs from the reference (reported, not gated)"}[ref])
    for f in out["findings"]:
        print(f"[{name}] CHECK FAILED: {f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for path in ("src/gainlab/__init__.py", "src/gainlab/cli.py"):
        if not os.path.isfile(path):
            print(f"benchmark: {path} not found; run from the root of a gainlab "
                  "checkout", file=sys.stderr)
            return 2

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    deadline = time.monotonic() + TIME_LIMIT_S * len(names)
    env = environment(args.seed)
    print(f"environment: {json.dumps(env, sort_keys=True)}")
    results = {}
    for name in names:
        out = run_workload(name, args.seed, args.seconds, bool(args.trace), deadline)
        report(name, out, bool(args.trace))
        results[name] = out

    correct = all(not out["findings"] for out in results.values())
    metrics = {}
    for name, out in results.items():
        prefix = f"{name}." if len(names) > 1 else ""
        for metric, (value, unit) in out["metrics"].items():
            metrics[prefix + metric] = {"value": value, "unit": unit}
    os.makedirs(os.path.join(WORK_ROOT, "results"), exist_ok=True)
    record = os.path.join(WORK_ROOT, "results",
                          f"{args.workload}-s{args.seed}-trace{args.trace}.json")
    with open(record, "w") as fh:
        json.dump({"environment": env, "seconds": args.seconds, "results": results},
                  fh, indent=1)
    print(json.dumps({"correct": correct,
                      "attempted": sum(o["attempted"] for o in results.values()),
                      "failed": sum(o["failed"] for o in results.values()),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
