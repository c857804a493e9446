"""Record the benchmark baseline of the current checkout in bench/baseline.json.

Usage (from the root of a gainlab checkout):

    python3 bench/baseline.py --seconds 20 --sets 101-110 201-210

Each set runs every workload once per seed with tracing off (bench/run.py
in a fresh process per run). Per workload and end-to-end metric it
records the median and quartiles of the per-run values and their spread
(quartile distance over median), and how far each later set's median lies
from the first set's. One traced run per workload (first seed) gives the
per-layer table. The manifest hash of every (workload, seed) is kept as
the reference that later runs report against.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import workloads  # noqa: E402


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def bench_run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """One benchmark run: (its last-line result, its full record)."""
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stdout}")
    path = os.path.join(".bench_work", "results",
                        f"{workload}-s{seed}-trace{trace}.json")
    with open(path) as fh:
        return result, json.load(fh)


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--sets", nargs="+", required=True,
                        help="seed ranges such as 101-110, one per set")
    args = parser.parse_args(argv)

    sets = [seed_range(s) for s in args.sets]
    end_to_end, hashes, environment = {}, {}, None
    for name in workloads.WORKLOADS:
        per_set = []
        for seeds in sets:
            values = {}
            for seed in seeds:
                result, record = bench_run(name, seed, args.seconds, 0)
                environment = {k: v for k, v in record["environment"].items()
                               if k != "seed"}
                hashes[f"{name}/{seed}"] = record["results"][name]["manifest_sha256"][0]
                for metric, m in result["metrics"].items():
                    values.setdefault(metric, []).append(m["value"])
                print(f"{name} seed {seed}: " + ", ".join(
                    f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                    flush=True)
            per_set.append({metric: summarize(v) for metric, v in values.items()})
        first = per_set[0]
        end_to_end[name] = {
            "sets": [{"seeds": f"{seeds[0]}-{seeds[-1]}", **s}
                     for seeds, s in zip(sets, per_set)],
            "median_shift": {metric: [s[metric]["median"] / first[metric]["median"] - 1.0
                                      for s in per_set[1:]] for metric in first},
        }

    per_layer, functions = {}, {}
    for name in workloads.WORKLOADS:
        result, record = bench_run(name, sets[0][0], args.seconds, 1)
        per_layer[name] = {k: m["value"] for k, m in result["metrics"].items()}
        functions[name] = record["results"][name]["table"]
        print(f"{name} traced: " + ", ".join(f"{k}={v:.4g}" for k, v in
                                            per_layer[name].items() if v), flush=True)

    baseline = {
        "about": "Baseline of the gainlab benchmark, written by bench/baseline.py.",
        "seconds": args.seconds,
        "environment": environment,
        "workloads": {name: w.why for name, w in workloads.WORKLOADS.items()},
        "not_a_workload": workloads.NOT_A_WORKLOAD,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "traced_functions": functions,
        "manifest_sha256": hashes,
    }
    with open(os.path.join(BENCH_DIR, "baseline.json"), "w") as fh:
        json.dump(baseline, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
