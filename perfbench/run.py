"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload admin-churn --seed 1 --seconds 20
    python3 perfbench/run.py --workload member-refresh --seed 1 --trace 1
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

The report lines come first; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end set of ``BENCHMARK.json``;
with ``--trace 1`` they are the per-layer set, and the spans plus the
per-layer self-time table are written under ``--out``.  ``--workload
all`` runs every workload in turn, each in its own process.

The library is imported from ``src/`` next to this directory; without
it the run exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _report(name: str, metrics) -> None:
    for metric, (value, unit, note) in metrics.items():
        print(f"{name:<16} {metric:<30} {value:>14.6g} {unit:<6} {note}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, default=None,
                        help="run exactly this many ops instead of "
                             "--seconds (for repeatability checks)")
    parser.add_argument("--out", default=str(ROOT / ".perfbench-out"),
                        help="directory for traces and the served store")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: library sources not found under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads

    if args.workload == "all":
        status = 0
        for name in workloads.SPECS:
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace",
                   str(args.trace), "--out", args.out]
            if args.ops is not None:
                cmd += ["--ops", str(args.ops)]
            status |= subprocess.run(cmd).returncode
        return status
    spec = workloads.SPECS.get(args.workload)
    if spec is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.SPECS)} or all", file=sys.stderr)
        return 2

    out = Path(args.out).resolve()
    result = workloads.run(spec, args.seed, args.seconds, ROOT, out,
                           trace=bool(args.trace), ops=args.ops)
    window, metrics = result["window"], result["metrics"]
    _report(spec.name, metrics)
    if args.trace:
        path = out / f"trace-{spec.name}-{args.seed}.json"
        workloads.write_trace(path, spec, args.seed, result)
        print("\n".join(result["table"]))
        print(f"spans: {len(result['recorder'].spans)} -> {path}")
        wanted = {name: unit for name, (_, unit, _) in metrics.items()}
    else:
        wanted = workloads.END_TO_END
    print(f"store digest {result['digest']}")
    for problem in window.problems:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": not window.problems,
        "attempted": window.attempted,
        "failed": window.failed,
        "metrics": {name: {"value": metrics[name][0], "unit": unit}
                    for name, unit in wanted.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
