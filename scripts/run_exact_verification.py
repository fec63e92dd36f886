#!/usr/bin/env python3
"""Exact verification pass over the 3x3 gridworld instance.

Exports the explicit tables, checks model invariance, belief invariance to
depth 5, and optimal-value invariance to horizon 6 against the symmetric
binding, then repeats the value check on the offset (asymmetric) variant to
show the reported violation. Checks value invariance on the 1D sample-
efficiency domain (half-size 10) at its full 50-step episode horizon, and
finishes by rolling out the exact greedy policy.

Usage:
    python3 scripts/run_exact_verification.py [--grid-size 3] [--horizon 6]
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from equipomdp.agent import OracleQPolicy, evaluate  # noqa: E402
from equipomdp.envs import CarFlag1dConfig, CarFlag2dConfig, export_pomdp  # noqa: E402
from equipomdp.pomdp import (  # noqa: E402
    check_invariance,
    exact_q,
    verify_belief_invariance,
    verify_value_invariance,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--grid-size", type=int, default=3)
    parser.add_argument("--horizon", type=int, default=6)
    parser.add_argument("--depth", type=int, default=5)
    parser.add_argument("--gamma", type=float, default=0.99)
    args = parser.parse_args()

    ok = True
    cfg = CarFlag2dConfig(grid_size=args.grid_size)
    pomdp, binding, maps = export_pomdp(cfg, discount=args.gamma)

    t0 = time.perf_counter()
    inv = check_invariance(pomdp, binding)
    print(f"model invariance: passed={inv.passed} max_dev={inv.max_dev:.3e} "
          f"[{time.perf_counter() - t0:.1f}s]")
    ok &= inv.passed

    t0 = time.perf_counter()
    belief = verify_belief_invariance(pomdp, binding, depth=args.depth)
    print(f"belief invariance (depth {args.depth}): passed={belief.passed} "
          f"max_dev={belief.max_dev:.3e} checked={belief.checked} "
          f"[{time.perf_counter() - t0:.1f}s]")
    print("  " + belief.summary())
    ok &= belief.passed

    t0 = time.perf_counter()
    value = verify_value_invariance(pomdp, binding, horizon=args.horizon)
    print(f"value invariance (horizon {args.horizon}): passed={value.passed} "
          f"max_dev={value.max_dev:.3e} checked={value.checked} "
          f"policy_equivariant={value.policy_consistent} "
          f"[{time.perf_counter() - t0:.1f}s]")
    print("  " + value.summary())
    ok &= value.passed and bool(value.policy_consistent)

    off_cfg = CarFlag2dConfig(grid_size=args.grid_size, info_offset=1)
    off_pomdp, off_binding, _ = export_pomdp(off_cfg, discount=args.gamma)
    off = verify_value_invariance(off_pomdp, off_binding, horizon=args.horizon)
    witnessed = (not off.passed) and (off.witness is not None or bool(off.missing))
    print(f"offset variant: passed={off.passed} (violation witnessed: {witnessed})")
    for line in off.lines()[:5]:
        print("  " + line)
    ok &= witnessed

    line_cfg = CarFlag1dConfig(half_size=10)
    line_pomdp, line_binding, _ = export_pomdp(line_cfg, discount=args.gamma)
    t0 = time.perf_counter()
    line = verify_value_invariance(line_pomdp, line_binding, horizon=line_cfg.max_steps)
    print(f"value invariance, 1D half-size {line_cfg.half_size} (horizon "
          f"{line_cfg.max_steps}): passed={line.passed} max_dev={line.max_dev:.3e} "
          f"checked={line.checked} policy_equivariant={line.policy_consistent} "
          f"[{time.perf_counter() - t0:.1f}s]")
    print("  " + line.summary())
    ok &= line.passed and bool(line.policy_consistent)

    solution = exact_q(pomdp, horizon=args.horizon)
    success, mean_return = evaluate(OracleQPolicy(solution, maps), cfg, 200,
                                    np.random.default_rng(7), greedy=True)
    print(f"exact greedy policy: success={success:.3f} mean_return={mean_return:.3f} "
          f"over 200 episodes ({solution.node_count} histories in "
          f"{solution.class_count} classes solved)")
    ok &= success == 1.0

    print("VERDICT:", "all exact checks hold" if ok else "a check failed")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
