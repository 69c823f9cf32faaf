"""Run workloads of the render-path benchmark.

    python3 renderbench/run.py --workload {drag,animate,serve,all} \\
        --seed N --seconds S --trace {0,1}

Run from the repository root.  With ``--trace 0`` the run prints every
end-to-end metric; with ``--trace 1`` every per-layer metric.  Each
workload's report ends with one JSON line with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; ``all`` runs the three in
turn.  The exit code is 0 when the run completed (even if outputs were
wrong: ``correct`` says so) and non-zero when it could not run, e.g.
outside a checkout of the program.
"""

from __future__ import annotations

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("drag", "animate", "serve")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        sys.stderr.write(
            "renderbench: no program at %s; run from a checkout of the "
            "repository\n" % os.path.join(ROOT, "src", "repro")
        )
        return 2
    for path in (os.path.join(ROOT, "src"), ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)

    import importlib

    from renderbench.schema import Report

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        workload = importlib.import_module("renderbench." + name)
        report = Report(name, args.seed, args.trace)
        workload.run(args.seed, args.seconds, bool(args.trace), report)
        sys.stdout.write(report.render() + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
