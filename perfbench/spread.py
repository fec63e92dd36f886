#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each end-to-end metric's
spread: the distance between the first and third quartiles of its values
(``statistics.quantiles(values, n=4)``) as a share of their median, next to
the metric's bound from BENCHMARK.json.

Usage (from the root of a checkout):
    python3 perfbench/spread.py --workload oracle --seeds 0 1 2 3 4 [--trace 0]

Runs are sequential. Per-run results and the summary go to
``.perfbench-out/spread-<workload>.json``. Exits 1 when a run fails or a
spread other than setup_s's reaches its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quartile_spread(values) -> tuple[float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else float("inf")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs = []
    ok = True
    for seed in args.seeds:
        cmd = [*spec["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        if result is None or not result["correct"]:
            ok = False
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
            continue
        wall = [ln.split() for ln in lines if ln.startswith("WALL ")]
        runs.append({"seed": seed, **result,
                     "wall_run_s": float(wall[0][2]) if wall else None})
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.6g}"
                                         for k, v in result["metrics"].items()), flush=True)
    summary = {}
    if len(runs) >= 2 and args.trace == 0:
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            med, spread = quartile_spread(values)
            summary[m["name"]] = {"median": med, "spread": spread, "bound": m["bound"],
                                  "unit": m["unit"], "values": values}
            flag = "" if spread < m["bound"] / 3 else (" ABOVE 1/3 BOUND" if spread < m["bound"]
                                                       else " OVER BOUND")
            print(f"{args.workload} {m['name']}: median {med:.6g} {m['unit']} "
                  f"spread {spread:.4f} bound {m['bound']}{flag}")
            if m["name"] != "setup_s" and spread >= m["bound"]:
                ok = False
        walls = [r["wall_run_s"] for r in runs]
        if None not in walls:
            med, spread = quartile_spread(walls)
            summary["wall_run_s"] = {"median": med, "spread": spread, "values": walls}
            print(f"{args.workload} wall run_s (not gated, not normalised): median {med:.6g} s "
                  f"spread {spread:.4f}")
    out = ROOT / ".perfbench-out"
    out.mkdir(exist_ok=True)
    (out / f"spread-{args.workload}.json").write_text(
        json.dumps({"runs": runs, "summary": summary}, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
