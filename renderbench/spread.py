"""Run workloads on several seeds and report, per end-to-end metric, the
median and the quartile spread (IQR over median) of the per-run values.

    python3 renderbench/spread.py --seeds 1-10 [--workload drag ...] \\
        [--out renderbench/baseline.json]

Runs one after another (never in parallel, so they do not compete for
cores) with ``--seconds`` from ``BENCHMARK.json``.  ``--out`` adds this
set of runs (medians, spreads and per-run values per workload) to the
``sets`` list of a JSON file, so that sets run apart can be compared.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, ROOT)

from renderbench import stats  # noqa: E402


def seeds_arg(text):
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError("%s seed %d failed: %s"
                           % (workload, seed, proc.stderr[-2000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    for workload in args.workload or names:
        results = [run(workload, seed, spec["run_seconds"])
                   for seed in args.seeds]
        rows = {}
        print("%s (%d seeds)" % (workload, len(results)))
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in results]
            spread = stats.quartile_spread(values)
            rows[name] = {
                "median": stats.median(values), "spread": spread,
                "values": values,
            }
            print("  %-22s median %12.5g  spread %.3f  (bound %.2f%s)" % (
                name, rows[name]["median"], spread, bounds[name],
                "" if spread <= bounds[name] / 3.0 else ", above a third",
            ))
        summary[workload] = {
            "seeds": args.seeds,
            "failed": [r["failed"] for r in results],
            "attempted": [r["attempted"] for r in results],
            "metrics": rows,
        }
    if args.out:
        sets = []
        if os.path.exists(args.out):
            with open(args.out) as handle:
                sets = json.load(handle)["sets"]
        sets.append(summary)
        with open(args.out, "w") as handle:
            json.dump({"sets": sets}, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
