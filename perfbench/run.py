#!/usr/bin/env python3
"""equipomdp benchmark: training throughput and exact-oracle solve time.

Usage (from the root of a checkout):
    python3 perfbench/run.py --workload {train-1d,train-2d,oracle} --seed N \
        --seconds S --trace {0,1}

One process, one caller, closed loop: the workload's chunks (fixed-work
program calls) run in rounds, again and again until ``--seconds`` have
passed, each call waiting for the previous one. ``--trace 0`` reports the
end-to-end metrics, timing the program against a reference kernel sampled
while it runs (see ``reference.py``); ``--trace 1`` alternates untraced and
traced rounds and reports the per-layer metrics, the tracing overhead and
the time no layer span covers. The last line of
standard output is one JSON object; a full report (run environment, every
chunk, fingerprints) is written under ``.perfbench-out/``. The exit code is 0
only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BLAS_THREADS = 1          # at or below nproc; small matrices gain nothing from threads
HELD_OUT_SEED = 7919      # never used while tuning; recheck claims on it
SETUP_REPS = 5
ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench-out"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("train-1d", "train-2d", "oracle"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds < 1 or args.seed < 0:
        p.error("--seconds must be positive and --seed nonnegative")
    return args


def git_commit(root: Path) -> str:
    """HEAD commit read from the files of ``.git``, or 'unknown' outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_environment(args) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "held_out_seed": HELD_OUT_SEED,
        "commit": git_commit(ROOT),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)), "loadavg_start": list(os.getloadavg()),
    }


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0 when there are no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return float(ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)])


@dataclass
class Round:
    """One pass over a workload's chunks, filed under one tracer unit."""

    name: str
    traced: bool
    chunks: list = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return sum(c.seconds for c in self.chunks)

    @property
    def work(self) -> float:
        return sum(c.work for c in self.chunks)


def per_chunk(chunks, attr: str) -> float:
    """One round's worth of ``attr``, even when the run ended part-way through a
    round: per chunk label and training seed the median over the run, averaged
    over the seeds and summed over the labels."""
    by_key: dict[tuple, list[float]] = {}
    for c in chunks:
        by_key.setdefault((c.label, c.sub), []).append(getattr(c, attr))
    by_label: dict[str, list[float]] = {}
    for (label, _), v in by_key.items():
        by_label.setdefault(label, []).append(median(v))
    return sum(statistics.fmean(v) for v in by_label.values())


def end_to_end(setup_s, chunks, peak_rss_mb) -> dict:
    run_ref = per_chunk(chunks, "kernel_runs")
    return {
        "setup_s": (setup_s, "s"),
        "run_ref": (run_ref, "ref"),
        "throughput_per_ref": (per_chunk(chunks, "work") / run_ref, "1/ref"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def wall_figures(chunks) -> tuple[float, float]:
    """Unnormalised round time and work per second, both host-dependent."""
    run_s = per_chunk(chunks, "seconds")
    return run_s, per_chunk(chunks, "work") / run_s


def measure_setup(args) -> list[float]:
    """Import plus set-up time of SETUP_REPS fresh interpreters, one at a time."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--setup-probe"]
    times = []
    for _ in range(SETUP_REPS):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120,
                              check=True)
        times.append(float(proc.stdout.split()[-1]))
    return times


def iterations_by_label(rounds) -> dict[str, list[float]]:
    out: dict[str, list[float]] = {}
    for r in rounds:
        for c in r.chunks:
            out.setdefault(c.label, []).extend(c.iterations)
    return out


def per_layer(tracer, wl, instances, traced, untraced, kernel_s) -> dict:
    """Per-layer metrics: medians over traced rounds; set-up layers from the
    run's traced set-up; iteration and wall times from its untraced rounds."""
    from tracing import profile

    profiles = [profile(tracer, r.name) for r in traced]
    setup = profile(tracer, "setup")

    def med(table, name, label=""):
        return median([getattr(p, table).get((name, label), 0.0) for p in profiles])

    def dur(name, label=""):
        return med("duration", name, label)

    def per_update(label=""):
        return median([p.counts.get(("autodiff.graph_nodes", label), 0.0)
                       / max(1.0, p.counts.get(("agent.updates", label), 0.0))
                       for p in profiles])

    iters = iterations_by_label(untraced)
    all_iters = [t for ts in iters.values() for t in ts]
    traced_s = median([r.seconds for r in traced])
    untraced_s = median([r.seconds for r in untraced])
    params = getattr(wl, "params", {})
    m = {
        "envs.steps": (med("calls", "envs.step"), "count"),
        "envs.step_s": (dur("envs.step"), "s"),
        "envs.reset_s": (dur("envs.reset"), "s"),
        "envs.export_s": (setup.duration.get(("envs.export", ""), 0.0), "s"),
        "envs.table_bytes": (float(getattr(wl, "table_bytes", 0)), "B"),
        "agent.collect_s": (dur("agent.collect"), "s"),
        "agent.collect_self_s": (med("self_time", "agent.collect"), "s"),
        "agent.policy_fwd_np_calls": (med("calls", "agent.policy_fwd_np"), "count"),
        "agent.policy_fwd_np_s": (dur("agent.policy_fwd_np"), "s"),
        "nn.lstm_step_np_s": (dur("nn.lstm_step_np"), "s"),
        "nn.head_fwd_np_s": (dur("nn.head_fwd_np"), "s"),
        "nn.conv_fwd_np_s": (dur("nn.conv_fwd_np"), "s"),
        "agent.eval_s": (dur("agent.eval"), "s"),
        "agent.eval_episodes": (med("counts", "agent.eval_episodes"), "count"),
        "agent.graph_build_s": (dur("agent.graph_build"), "s"),
        "agent.realize_s": (dur("agent.realize"), "s"),
        "agent.update_s": (dur("agent.update"), "s"),
        "autodiff.backward_s": (dur("autodiff.backward"), "s"),
        "autodiff.adam_s": (dur("autodiff.adam"), "s"),
        "autodiff.clip_s": (dur("autodiff.clip"), "s"),
        "autodiff.graph_nodes_per_update": (per_update(), "count"),
        "agent.updates": (med("counts", "agent.updates"), "count"),
        "agent.iteration_ms_p50": (1e3 * median(all_iters), "ms"),
        "agent.iteration_ms_p90": (1e3 * percentile(all_iters, 90), "ms"),
        "agent.iteration_samples": (float(len(all_iters)), "count"),
        "nn.basis_solve_s": (setup.duration.get(("nn.basis_solve", ""), 0.0), "s"),
        "nn.params": (float(params.get("equi", 0)), "count"),
        "nn.params.plain": (float(params.get("plain", 0)), "count"),
    }
    for v in ("equi", "plain"):
        m[f"agent.iteration_ms_p50.{v}"] = (1e3 * median(iters.get(v, [])), "ms")
        m[f"agent.realize_s.{v}"] = (dur("agent.realize", v), "s")
        m[f"agent.graph_build_s.{v}"] = (dur("agent.graph_build", v), "s")
        m[f"agent.update_s.{v}"] = (dur("agent.update", v), "s")
        m[f"autodiff.backward_s.{v}"] = (dur("autodiff.backward", v), "s")
        m[f"autodiff.graph_nodes_per_update.{v}"] = (per_update(v), "count")
    for n in instances:
        hist = med("counts", "pomdp.histories", n)
        classes = float(getattr(wl, "classes", {}).get(n, 0))
        m[f"pomdp.solve_s.{n}"] = (dur("pomdp.solve", n), "s")
        m[f"pomdp.check_s.{n}"] = (dur("pomdp.verify", n) - dur("pomdp.solve", n), "s")
        m[f"pomdp.histories.{n}"] = (hist, "count")
        m[f"pomdp.belief_classes.{n}"] = (classes, "count")
        m[f"pomdp.belief_class_ratio.{n}"] = (classes / hist if hist else 0.0, "ratio")
        m[f"pomdp.checks.{n}"] = (med("counts", "pomdp.checks", n), "count")
    m["wall.throughput_per_s"] = (median([r.work / r.seconds for r in untraced]), "1/s")
    m["ref.kernel_ms"] = (1e3 * kernel_s, "ms")
    m["trace.run_s"] = (traced_s, "s")
    m["trace.untraced_run_s"] = (untraced_s, "s")
    m["trace.overhead_s"] = (traced_s - untraced_s, "s")
    m["trace.unattributed_s"] = (
        median([r.seconds - p.top_level_s for r, p in zip(traced, profiles)]), "s")
    m["trace.spans"] = (median([float(p.spans) for p in profiles]), "count")
    return m


def contract_metrics(kind: str) -> list[tuple[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(e["name"], e["unit"]) for e in spec[kind]]


def ordered(metrics: dict, kind: str) -> dict:
    """Metrics in BENCHMARK.json order; a name or unit out of step with it raises."""
    want = contract_metrics(kind)
    if {n for n, _ in want} != set(metrics):
        raise SystemExit(f"metrics out of step with BENCHMARK.json {kind}: "
                         f"{sorted({n for n, _ in want} ^ set(metrics))}")
    out = {}
    for name, unit in want:
        value, got_unit = metrics[name]
        if got_unit != unit:
            raise SystemExit(f"metric {name} has unit {got_unit}, BENCHMARK.json says {unit}")
        out[name] = {"value": float(value), "unit": unit}
    return out


def write_json(path: Path, obj) -> None:
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(json.dumps(obj, indent=1, sort_keys=True) + "\n")
    os.replace(tmp, path)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "equipomdp" / "__init__.py").is_file():
        print(f"no equipomdp sources under {src}; run from a checkout", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(src))

    t0 = time.perf_counter()
    import equipomdp  # noqa: F401  (numpy, scipy and every package module)
    import_s = time.perf_counter() - t0
    if Path(equipomdp.__file__).resolve().parent != (src / "equipomdp").resolve():
        print(f"imported equipomdp from {equipomdp.__file__}, not {src}", file=sys.stderr)
        return 2

    import workloads as wls
    from reference import Sampler, WallClock, kernel_seconds
    from tracing import Probe, Tracer

    wl = wls.make(args.workload, args.seed)
    tracer = Tracer()
    probe = Probe(tracer)
    if args.setup_probe:
        t = time.perf_counter()
        wl.setup(tracer, False)
        print(repr(import_s + time.perf_counter() - t))
        return 0

    env = run_environment(args)
    print("ENV " + json.dumps(env, sort_keys=True))
    missing: set[str] = set()
    tracer.unit = "setup"
    probe.install(wl.taps, required=True)
    if args.trace:
        missing.update(probe.install(wls.LAYER_POINTS, required=False))
    try:
        wl.setup(tracer, bool(args.trace))
    finally:
        probe.uninstall()
    setup_times = [] if args.trace else measure_setup(args)
    kernel_s = kernel_seconds() if args.trace else 0.0

    labels = wl.labels
    subs = 1 if args.trace else len(wl.seeds)
    rounds: list[Round] = []
    chunks = []
    start = time.perf_counter()
    k = 0
    while True:
        r, j = divmod(k, len(labels))
        if j == 0:
            # a traced run alternates untraced and traced rounds; its clocks
            # read wall time only, so that no span holds a kernel run
            rounds.append(Round(f"r{r}", bool(args.trace) and r % 2 == 1))
        rnd = rounds[-1]
        tracer.unit = rnd.name
        probe.install(wl.taps, required=True)
        if rnd.traced:
            missing.update(probe.install(wls.LAYER_POINTS, required=False))
        try:
            c = wl.chunk(labels[j], r % subs, tracer,
                         WallClock() if args.trace else Sampler())
        finally:
            probe.uninstall()
        rnd.chunks.append(c)
        chunks.append(c)
        if k == len(labels) - 1:
            # later rounds can only add allocator fragmentation, so the peak
            # is read once, after set-up and one round, whatever their count
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(f"CHUNK {rnd.name} {c.label} seed={wl.seeds[c.sub]} traced={int(rnd.traced)} "
              f"seconds={c.seconds:.4f} "
              f"kernel_runs={c.kernel_runs:.2f} work={c.work:.0f} attempted={c.attempted} "
              f"failed={c.failed} fingerprint={c.fingerprint}", flush=True)
        k += 1
        elapsed = time.perf_counter() - start
        if args.trace:
            done = elapsed >= args.seconds and k % (2 * len(labels)) == 0
        else:
            done = elapsed >= args.seconds and k >= len(labels) * subs
        if done:
            break

    attempted = sum(c.attempted for c in chunks)
    failed = sum(c.failed for c in chunks)
    problems = [p for c in chunks for p in c.problems]
    fingerprints = {}
    for c in chunks:
        key = c.label if wl.seeds[c.sub] is None else f"{c.label}/{wl.seeds[c.sub]}"
        fingerprints.setdefault(key, set()).add(c.fingerprint)
    for key, seen in fingerprints.items():
        attempted += 1
        if len(seen) != 1:
            failed += 1
            problems.append(f"{key}: chunks with one seed disagree: fingerprints {sorted(seen)}")
    print(f"FINGERPRINT {args.workload} seed={args.seed} " + " ".join(
        f"{key}={','.join(sorted(fps))}" for key, fps in sorted(fingerprints.items())))
    for p in problems:
        print("CHECK FAIL " + p)

    if args.trace:
        traced = [r for r in rounds if r.traced]
        untraced = [r for r in rounds if not r.traced]
        metrics = ordered(per_layer(tracer, wl, [i.name for i in wls.ORACLE_INSTANCES],
                                     traced, untraced, kernel_s), "per_layer")
    else:
        metrics = ordered(end_to_end(median(setup_times), chunks, peak_rss_mb), "end_to_end")
        run_s, per_s = wall_figures(chunks)
        print(f"SAMPLES chunks n={len(chunks)} setup_s n={len(setup_times)}")
        print(f"WALL run_s {run_s:.6g} s throughput_per_s {per_s:.6g} 1/s (not normalised)")
    for name, v in metrics.items():
        print(f"METRIC {name} {v['value']:.9g} {v['unit']}")
    if missing:
        print("MISSING patch points (their metrics read 0): " + ", ".join(sorted(missing)))

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    write_json(OUT_DIR / f"{stem}.json", {
        "env": env, "import_s": import_s, "setup_reps_s": setup_times,
        "chunks": [{"round": r.name, "label": c.label, "sub": c.sub, "traced": r.traced,
                    "seconds": c.seconds, "kernel_runs": c.kernel_runs, "work": c.work,
                    "attempted": c.attempted, "failed": c.failed,
                    "fingerprint": c.fingerprint, "iterations": len(c.iterations)}
                   for r in rounds for c in r.chunks],
        "fingerprints": {k: sorted(v) for k, v in fingerprints.items()}, "problems": problems,
        "missing_patch_points": sorted(missing), "metrics": metrics,
        "attempted": attempted, "failed": failed,
    })
    if args.trace:
        tracer.write_tsv(OUT_DIR / f"spans-{stem}.tsv")

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
