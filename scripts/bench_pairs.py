#!/usr/bin/env python3
"""Alternating benchmark pairs between two checkouts, summarised for a claim.

Runs the benchmark command of BENCHMARK.json end to end (``--trace 0``, for
its ``run_seconds``) in a parent checkout and in a change checkout, one after
the other, PAIRS times; even pairs run the parent first, odd pairs the
change. For each end-to-end metric it reports both sides' runs, medians and
quartiles, how many pairs the change won and the parent's interquartile
range, and whether the runs show a gain: at least ten pairs, no more failed
checks in the change's runs than in the parent's, the change wins at least
nine tenths of the pairs (ties count for neither side) and the medians
differ, in the metric's better direction, by more than the parent's
interquartile range. For each metric it also states whether the change
stays within the metric's ``bound`` in BENCHMARK.json (``regression``). It
also reports each run's failed checks and whether all runs, on both sides,
print one fingerprint for each chunk.

Usage (each checkout a separate copy of the repository):
    python3 scripts/bench_pairs.py PARENT CHANGE --workload train-2d --seed 0 \
        --pairs 10 [--out pairs.json]

The JSON summary goes to ``--out`` (or standard output); one line per run and
a verdict per metric go to standard error as the runs finish.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WIN_SHARE = 0.9   # the share of pairs the change must win to show a gain
MIN_PAIRS = 10    # the fewest pairs that can show a gain


def summarize(parent, change, better: str, parent_failed=(), change_failed=()) -> dict:
    """The pairs' figures for one metric: ``parent[i]`` and ``change[i]`` are
    pair i's runs, ``better`` is ``"higher"`` or ``"lower"``, and the failed
    lists hold each side's per-run counts of failed checks. Quartiles are
    numpy's linear percentiles 25 and 75."""
    if better not in ("higher", "lower"):
        raise ValueError(f"better must be 'higher' or 'lower', got {better!r}")
    if len(parent) != len(change) or not parent:
        raise ValueError(f"need one parent and one change run per pair, got "
                         f"{len(parent)} and {len(change)}")
    p, c = np.asarray(parent, dtype=float), np.asarray(change, dtype=float)
    sign = 1.0 if better == "higher" else -1.0
    wins = int(np.sum(sign * (c - p) > 0))
    p_q1, p_med, p_q3 = (float(v) for v in np.percentile(p, [25, 50, 75]))
    c_q1, c_med, c_q3 = (float(v) for v in np.percentile(c, [25, 50, 75]))
    iqr = p_q3 - p_q1
    return {
        "parent": [float(v) for v in p], "change": [float(v) for v in c],
        "median": {"parent": p_med, "change": c_med},
        "quartiles": {"parent": [p_q1, p_q3], "change": [c_q1, c_q3]},
        "relative_change": (c_med - p_med) / p_med if p_med else None,
        "change_better_pairs": wins,
        "parent_iqr": iqr,
        "gain_shown": (len(p) >= MIN_PAIRS and sum(change_failed) <= sum(parent_failed)
                       and wins >= WIN_SHARE * len(p) and sign * (c_med - p_med) > iqr),
    }


def regression(parent, change, better: str, bound: float) -> str:
    """The no-regression verdict for one metric, ``bound`` being the share
    of the parent's median by which it may worsen: ``"regressed"`` when the
    change's median is worse than the parent's by more than that,
    ``"unresolved"`` when the parent's interquartile range exceeds that
    share of its median and not every change run beats every parent run,
    and ``"within bound"`` otherwise."""
    p, c = np.asarray(parent, dtype=float), np.asarray(change, dtype=float)
    sign = 1.0 if better == "higher" else -1.0
    p_q1, p_med, p_q3 = np.percentile(p, [25, 50, 75])
    allowed = bound * abs(p_med)
    if sign * (np.median(c) - p_med) < -allowed:
        return "regressed"
    if p_q3 - p_q1 > allowed and not np.min(sign * c) > np.max(sign * p):
        return "unresolved"
    return "within bound"


def verdict(name: str, s: dict) -> str:
    rel = "" if s["relative_change"] is None else f" ({100 * s['relative_change']:+.1f}%)"
    shown = "gain shown" if s["gain_shown"] else "no gain shown"
    return (f"{name}: change won {s['change_better_pairs']}/{len(s['parent'])} pairs, median "
            f"{s['median']['parent']:.6g} -> {s['median']['change']:.6g}{rel}, parent IQR "
            f"{s['parent_iqr']:.3g}: {shown}, {s['regression']}")


def fingerprints_agree(lines) -> bool:
    """Whether perfbench FINGERPRINT lines (``FINGERPRINT workload seed=S
    key=fp ...``) name one fingerprint for every chunk key they share; a run
    that printed no such line agrees with nothing."""
    seen: dict[str, str] = {}
    for line in lines:
        if not line.startswith("FINGERPRINT "):
            return False
        for item in line.split()[3:]:
            key, _, fp = item.partition("=")
            if seen.setdefault(key, fp) != fp:
                return False
    return True


def run_once(checkout: Path, spec: dict, args) -> dict:
    """One end-to-end run in ``checkout``: its metrics, failed checks and
    FINGERPRINT line."""
    cmd = [*spec["command"], "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise SystemExit(f"{checkout}: no report from perfbench (exit {proc.returncode}):\n"
                         f"{proc.stderr[-2000:]}") from None
    fingerprint = next((l for l in lines if l.startswith("FINGERPRINT ")), "")
    return {"metrics": {k: v["value"] for k, v in report["metrics"].items()},
            "failed": report["failed"], "fingerprint": fingerprint}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, default=MIN_PAIRS)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be positive")
    for checkout in (args.parent, args.change):
        if not (checkout / "BENCHMARK.json").is_file():
            ap.error(f"{checkout} holds no BENCHMARK.json")
    better = {e["name"]: e["better"] for e in spec["end_to_end"]}
    bound = {e["name"]: e["bound"] for e in spec["end_to_end"]}

    runs = []
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {"pair": i, "first": order[0]}
        for side in order:
            pair[side] = run_once(getattr(args, side), spec, args)
            m = pair[side]["metrics"]
            print(f"pair {i} {side}: " + " ".join(f"{k}={m[k]:.6g}" for k in better),
                  file=sys.stderr, flush=True)
        runs.append(pair)

    failed = {side: [r[side]["failed"] for r in runs] for side in ("parent", "change")}
    metrics = {}
    for name, direction in better.items():
        parent, change = ([r[side]["metrics"][name] for r in runs] for side in ("parent", "change"))
        metrics[name] = summarize(parent, change, direction, failed["parent"], failed["change"])
        metrics[name]["regression"] = regression(parent, change, direction, bound[name])
    fingerprints = [r[side]["fingerprint"] for r in runs for side in ("parent", "change")]
    out = {
        "workload": args.workload, "seed": args.seed, "seconds": spec["run_seconds"],
        "pairs": args.pairs, "order": "even pairs parent first, odd pairs change first",
        "runs": runs, "metrics": metrics, "failed": failed,
        "fingerprints_equal": fingerprints_agree(fingerprints),
        "verdicts": [verdict(name, s) for name, s in metrics.items()],
    }
    for line in out["verdicts"]:
        print(line, file=sys.stderr)
    print(f"fingerprints equal on every run: {out['fingerprints_equal']}", file=sys.stderr)
    text = json.dumps(out, indent=1) + "\n"
    if args.out:
        args.out.write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
