"""Command-line entry point: train | eval | verify | oracle | plotdata.

Settings come from an INI-style config file (sections [env], [agent], [run])
overridden by command-line flags; every effective value is echoed into the run
manifest so any command can be reproduced from the manifest alone. The
``verify`` suites return exit code 0 only when every pinned tolerance holds.
"""

from __future__ import annotations

import argparse
import configparser
import io
import os
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import agent as agent_mod
from . import autodiff as ad
from .agent import AgentConfig, OracleQPolicy, RecurrentPolicy, run_equivariance_suite
from .envs import (CarFlag1dConfig, CarFlag2dConfig, env_group_binding, episode_trace,
                   export_pomdp, field_types, make_env)
from .groups import C4, MIRROR
from .pomdp import (
    NODE_BUDGET,
    OBS_TOL,
    belief_update,
    check_invariance,
    exact_q,
    save_tables,
    verify_belief_invariance,
    verify_value_invariance,
)

RUN_ROOT_ENV = "EQUIPOMDP_RUN_ROOT"

# Pinned acceptance tolerances of the network suites (pomdp's verify functions
# hold BELIEF_TOL and VALUE_TOL).
EQUIVARIANCE_TOL = 1e-8
GRADCHECK_TOL = 1e-4


class UsageError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Settings: every field of the config dataclasses is an INI key and a flag.
# ---------------------------------------------------------------------------

DOMAINS = {"carflag1d": CarFlag1dConfig, "carflag2d": CarFlag2dConfig}

# The exceptions to "field, key, --flag and dest share one name": flag names,
# keys, choices and help, each keyed by the config key (the flag's dest).
FLAGS = {"kind": "--env", "variant": "--agent", "total_steps": "--steps",
         "learning_rate": "--lr", "discount": "--gamma"}
KEYS = {"info_offset": "offset"}
CHOICES = {"kind": list(DOMAINS), "variant": list(agent_mod.VARIANTS),
           "lstm_init": list(agent_mod.LSTM_INITS)}
HELP = {"offset": "information-region offset; nonzero breaks the symmetry",
        "total_steps": "total env steps",
        "conv_fields": "comma-separated field counts per conv layer",
        "discount": "discount; overrides [agent] discount (default 0.99)"}


def _keys(config_class) -> dict:
    """Each field of a config dataclass as its config key and its annotated type."""
    return {KEYS.get(name, name): want for name, want in field_types(config_class)}


ENV_SCHEMA = {"kind": str, **{key: want for domain in DOMAINS.values()
                               for key, want in _keys(domain).items()}}
AGENT_SCHEMA = _keys(AgentConfig)
# the seed is a [run] key beside the run's own: its directory and group check
RUN_SCHEMA = {"seed": AGENT_SCHEMA.pop("seed"), "out": str, "group": str}
# [architecture] is informational output in manifests: layer list with
# representation annotations; its keys are not read back.
SECTIONS = {"env": ENV_SCHEMA, "agent": AGENT_SCHEMA, "run": RUN_SCHEMA,
            "architecture": None}


def _coerce(key: str, raw: str, want):
    """A setting's text as its type; a tuple is a comma list of integers."""
    if want is bool:
        low = raw.strip().lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise UsageError(f"cannot parse boolean {key}={raw!r}")
    try:
        if want is tuple:
            return tuple(int(x) for x in raw.split(",") if x.strip())
        return want(raw)
    except ValueError as e:
        what = "a comma list of integers" if want is tuple else want.__name__
        raise UsageError(f"cannot parse {key}={raw!r} as {what}") from e


def _text(value) -> str:
    """A setting as the config file writes it."""
    return ",".join(map(str, value)) if isinstance(value, tuple) else str(value)


def load_config_file(path) -> dict:
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise UsageError(f"config file {path} not found")
    out = {section: {} for section in SECTIONS}
    for section in parser.sections():
        if section not in SECTIONS:
            raise UsageError(f"unknown config section [{section}]")
        schema = SECTIONS[section]
        if schema is None:  # informational section, not read back
            continue
        for key, raw in parser.items(section):
            if key not in schema:
                raise UsageError(f"unknown config key {key!r} in section [{section}]")
            out[section][key] = _coerce(key, raw, schema[key])
    return out


def build_configs(args) -> tuple[object, AgentConfig, dict]:
    """Merge defaults, config file, and flags (flags win) into typed configs.
    Each flag's ``dest`` is its config key, and a flag's text is parsed as the
    config file's is."""
    config = getattr(args, "config", None)
    over = load_config_file(config) if config else {section: {} for section in SECTIONS}
    for section, schema in SECTIONS.items():
        for key, want in (schema or {}).items():
            value = getattr(args, key, None)
            if value is not None:
                over[section][key] = _coerce(key, value, want) if isinstance(value, str) else value
    env_over, agent_over, run_over = over["env"], over["agent"], over["run"]

    kind = env_over.pop("kind", None)
    if kind is None:
        raise UsageError("no environment selected; pass --env or set [env] kind")
    if kind not in DOMAINS:
        raise UsageError(f"unknown env kind {kind!r} ({' or '.join(DOMAINS)})")
    own = _keys(DOMAINS[kind])
    for key in env_over:
        if key not in own:
            raise UsageError(f"[env] {key} is not a setting of {kind}")
    names = {key: name for name, key in KEYS.items()}
    try:
        env_cfg = DOMAINS[kind](**{names.get(k, k): v for k, v in env_over.items()})
    except ValueError as e:
        raise UsageError(str(e)) from e

    seed = run_over.get("seed", 0)
    try:
        agent_cfg = AgentConfig(seed=seed, **agent_over)
    except ValueError as e:
        raise UsageError(str(e)) from e

    expected_group = env_group_binding(env_cfg).group.name
    group = run_over.get("group", "auto")
    if group not in ("auto", expected_group):
        raise UsageError(
            f"group {group!r} does not match {kind} (needs {expected_group}); "
            "the equivariant agent requires the domain's own symmetry group")
    run_over["group"] = expected_group
    run_over["seed"] = seed
    return env_cfg, agent_cfg, run_over


def _kind(env_cfg) -> str:
    return next(kind for kind, domain in DOMAINS.items() if isinstance(env_cfg, domain))


def default_out_dir(kind: str, agent_cfg: AgentConfig) -> Path:
    root = Path(os.environ.get(RUN_ROOT_ENV, "runs"))
    return root / f"{kind}-{agent_cfg.variant}-s{agent_cfg.seed}"


# ---------------------------------------------------------------------------
# Manifests.
# ---------------------------------------------------------------------------

def write_manifest(path, env_cfg, agent_cfg: AgentConfig, run: dict,
                   architecture: list[str] | None = None) -> None:
    parser = configparser.ConfigParser()
    parser["env"] = {"kind": _kind(env_cfg), **{KEYS.get(k, k): _text(v)
                                                for k, v in asdict(env_cfg).items()}}
    parser["agent"] = {k: _text(v) for k, v in asdict(agent_cfg).items() if k != "seed"}
    parser["run"] = {k: str(v) for k, v in run.items()}
    if architecture:
        parser["architecture"] = {f"layer{i}": line
                                  for i, line in enumerate(architecture)}
    text = io.StringIO()
    parser.write(text)
    ad.write_atomic(path, text.getvalue())


def read_manifest(path):
    return build_configs(argparse.Namespace(config=str(path)))


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------

def cmd_train(args) -> int:
    env_cfg, agent_cfg, run = build_configs(args)
    out_dir = Path(run.get("out") or default_out_dir(_kind(env_cfg), agent_cfg))
    out_dir.mkdir(parents=True, exist_ok=True)
    run["out"] = str(out_dir)
    probe = RecurrentPolicy(env_cfg, agent_cfg, np.random.default_rng(0))
    write_manifest(out_dir / "manifest.ini", env_cfg, agent_cfg, run,
                   architecture=probe.describe())
    result = agent_mod.train(env_cfg, agent_cfg, out_dir)
    last = result.rows[-1] if result.rows else None
    print(f"trained {agent_cfg.total_steps} steps over {result.episodes} episodes "
          f"in {result.wall_seconds:.1f}s")
    if last is not None:
        print(f"final eval: step={last[0]} success_rate={last[2]:.3f} "
              f"mean_return={last[3]:.3f}")
    print(f"curve: {result.curve_path}")
    return 0


def cmd_eval(args) -> int:
    run_dir = Path(args.run)
    env_cfg, agent_cfg, run = read_manifest(run_dir / "manifest.ini")
    checkpoint = args.checkpoint
    if checkpoint in ("best", "final"):
        checkpoint = run_dir / f"{checkpoint}.ckpt"
    policy = RecurrentPolicy(env_cfg, agent_cfg, np.random.default_rng(0))
    policy.load_state(ad.load_checkpoint(checkpoint))
    seed = args.seed if args.seed is not None else agent_cfg.seed
    rng = np.random.default_rng(np.random.SeedSequence((seed, 55)))
    success, mean_return = agent_mod.evaluate(policy, env_cfg, args.episodes, rng,
                                              greedy=args.greedy)
    print(f"episodes={args.episodes} success_rate={success:.4f} "
          f"mean_return={mean_return:.4f}")
    if args.dump_trace:
        streams = agent_mod.episode_streams(np.random.default_rng((seed, 57)), 1)
        _, _, (actions,) = agent_mod.play_episodes(policy, env_cfg, streams, args.greedy)
        # replay the actions on a fresh env drawn from the same env stream
        env_rng = np.random.default_rng(streams[0][0])
        lines = episode_trace(make_env(env_cfg, env_rng), actions)
        ad.write_atomic(args.dump_trace, "\n".join(lines) + "\n")
        print(f"trace written to {args.dump_trace}")
    return 0


def cmd_verify(args) -> int:
    suite = {"lemma1": "belief", "belief-invariance": "belief",
             "theorem1": "value", "value-invariance": "value",
             "equivariance": "equivariance", "invariance": "invariance",
             "gradcheck": "gradcheck"}.get(args.suite)
    if suite is None:
        raise UsageError(f"unknown verify suite {args.suite!r}")
    t0 = time.perf_counter()

    if suite == "equivariance":
        worst = run_equivariance_suite(networks=args.networks, histories=args.histories,
                                       max_len=args.max_len, seed=args.seed or 0,
                                       lstm_init=args.lstm_init or "zero")
        passed = worst["max"] < EQUIVARIANCE_TOL
        print(f"RESULT equivariance passed={passed} actor={worst['actor']:.3e} "
              f"critic={worst['critic']:.3e} tolerance={EQUIVARIANCE_TOL:.1e}")
    elif suite in ("invariance", "belief", "value"):
        env_cfg, agent_cfg, _ = build_configs(args)
        pomdp, binding, _ = export_pomdp(env_cfg, discount=agent_cfg.discount)
        if suite == "invariance":
            report = check_invariance(pomdp, binding)
        elif suite == "belief":
            report = verify_belief_invariance(pomdp, binding, depth=args.depth)
        else:
            report = verify_value_invariance(pomdp, binding, horizon=args.horizon)
        for line in report.lines()[:40]:   # symmetry reports list at most 20 witnesses
            print(line)
        passed = report.passed
    else:  # gradcheck
        battery = ad.primitive_gradcheck_battery(args.seed or 0)
        loss_err = agent_mod.a2c_loss_gradcheck(args.seed or 0)
        worst = max(max(battery.values()), loss_err)
        for name in sorted(battery):
            print(f"gradcheck {name}: {battery[name]:.3e}")
        print(f"gradcheck segment_loss: {loss_err:.3e}")
        passed = worst < GRADCHECK_TOL
        print(f"RESULT gradcheck passed={passed} max_rel_err={worst:.3e} "
              f"tolerance={GRADCHECK_TOL:.1e}")
    print(f"elapsed {time.perf_counter() - t0:.2f}s")
    return 0 if passed else 1


def cmd_oracle(args) -> int:
    env_cfg, agent_cfg, _ = build_configs(args)
    if args.horizon < 1:
        raise UsageError(f"--horizon must be at least 1 for the greedy oracle to act, "
                         f"got {args.horizon}")
    if args.episodes < 1:
        raise UsageError(f"--episodes must be at least 1, got {args.episodes}")
    pomdp, binding, maps = export_pomdp(env_cfg, discount=agent_cfg.discount)
    solution = exact_q(pomdp, horizon=args.horizon, node_budget=args.node_budget)

    # spot-check sampled classes, their beliefs made dense: each child
    # recomputed with belief_update must match its stored class, and each Q
    # entry the one-step recursion
    rng = np.random.default_rng(0)
    solved = [(d, c) for d, q in enumerate(solution.q) for c in range(len(q))]
    values = [q.max(axis=1) for q in solution.q] + [np.zeros(len(solution.counts[-1]))]
    worst = 0.0
    for i in rng.choice(len(solved), size=min(50, len(solved)), replace=False):
        depth, c = solved[int(i)]
        belief = solution.belief(depth, c)
        for a in range(pomdp.n_actions):
            probs = pomdp.push(belief, a) @ pomdp.emission(a)
            seen = np.flatnonzero(probs > OBS_TOL)
            kids = solution.child_of(depth, c, a, seen)
            ahead = 0.0
            for o, child in zip(seen.tolist(), kids.tolist()):
                if child >= 0:   # a dropped observation shows as a residual
                    b = belief_update(pomdp, belief, a, o)
                    dense = solution.belief(depth + 1, child)
                    worst = max(worst, float(np.max(np.abs(b - dense))))
                    ahead += probs[o] * values[depth + 1][child]
            expect = float(belief @ pomdp.reward[:, a]) + pomdp.discount * ahead
            worst = max(worst, abs(expect - solution.q[depth][c, a]))
    print(f"bellman spot-check max residual: {worst:.3e}")

    success, mean_return = agent_mod.evaluate(
        OracleQPolicy(solution, maps), env_cfg, args.episodes,
        np.random.default_rng((args.seed or 0, 77)), greedy=True)

    # every check and the greedy play passed: only now are the files written
    out_dir = Path(args.out or "oracle-out")
    out_dir.mkdir(parents=True, exist_ok=True)
    save_tables(out_dir / "model.tables", pomdp)
    lines = ["equipomdp-qtable 2", f"horizon {args.horizon}", "discount %.17g" % pomdp.discount]
    for depth, level in enumerate(solution.first_histories()):
        rows, edges, ends = [""] * len(level), [], [0] * (len(level) + 1)
        if depth < solution.horizon:
            rows = [" ".join("%.12g" % v for v in row) for row in solution.q[depth].tolist()]
            keys, p, child = solution.edges[depth]
            parent, a, o = solution.split(keys)
            edges = ["edge %d %d %d %d %.17g %d" % (depth, *edge) for edge in
                     zip(parent.tolist(), a.tolist(), o.tolist(), p.tolist(), child.tolist())]
            ends = np.searchsorted(parent, np.arange(len(level) + 1)).tolist()
        for c, first in enumerate(level):
            lines.append(f"class {depth} {c} {','.join(map(str, first))}|{rows[c]}")
            lines.extend(edges[ends[c]:ends[c + 1]])
    ad.write_atomic(out_dir / "qtable.txt", "\n".join(lines) + "\n")
    ad.write_atomic(out_dir / "oracle_report.txt",
                    f"nodes={solution.node_count} classes={solution.class_count} "
                    f"horizon={args.horizon}\n"
                    f"bellman_spot_check={worst:.6e}\n"
                    f"greedy_success_rate={success:.6f} episodes={args.episodes}\n"
                    f"greedy_mean_return={mean_return:.6f}\n")
    print(f"solved {solution.node_count} histories in {solution.class_count} belief "
          f"classes; greedy success over {args.episodes} episodes: {success:.3f}")
    print(f"written: {out_dir / 'model.tables'}, {out_dir / 'qtable.txt'}, "
          f"{out_dir / 'oracle_report.txt'}")
    return 0


def cmd_plotdata(args) -> int:
    curves = []
    for item in args.runs:
        path = Path(item)
        if path.is_dir():
            path = path / "curve.csv"
        if not path.exists():
            raise UsageError(f"no curve file at {path}")
        rows = path.read_text().strip().splitlines()
        if not rows or rows[0] != agent_mod.CURVE_HEADER:
            raise UsageError(f"{path}: line 1 is not the curve file header")
        curve = []
        for lineno, line in enumerate(rows[1:], start=2):
            fields = line.split(",")
            try:
                curve.append((int(fields[0]), float(fields[2])))
            except (IndexError, ValueError):
                raise UsageError(f"{path}: line {lineno}: expected a step and a success "
                                 f"rate in fields 1 and 3, got {line!r}") from None
        curves.append(curve)
    if not curves:
        raise UsageError("no input curves")
    steps = [tuple(s for s, _ in c) for c in curves]
    if len(set(steps)) != 1:
        raise UsageError("curve files have mismatched evaluation steps; "
                         "aggregate only runs with identical eval grids")
    lines = ["step,success_rate_mean,success_rate_std,n_seeds"]
    for i, step in enumerate(steps[0]):
        vals = np.array([c[i][1] for c in curves])
        lines.append("%d,%.10g,%.10g,%d" % (step, vals.mean(), vals.std(), len(vals)))
    ad.write_atomic(args.out, "\n".join(lines) + "\n")
    print(f"aggregated {len(curves)} curves into {args.out}")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing.
# ---------------------------------------------------------------------------

def _add_flags(p, keys):
    """One flag per config key, from its type and the exception tables: a
    bool is a switch, a number is parsed by argparse, and any other text is
    parsed by ``build_configs``."""
    types = {**ENV_SCHEMA, **AGENT_SCHEMA, **RUN_SCHEMA}
    for key in keys:
        flag = FLAGS.get(key, "--" + key.replace("_", "-"))
        extra = {}
        if types[key] is bool:
            extra["action"] = "store_true"
        elif key in CHOICES:
            extra["choices"] = CHOICES[key]
        elif types[key] in (int, float):
            extra["type"] = types[key]
        if key in FLAGS and key not in CHOICES:   # --gamma GAMMA, not --gamma DISCOUNT
            extra["metavar"] = flag[2:].upper()
        p.add_argument(flag, dest=key, default=None, help=HELP.get(key), **extra)


def _add_env_flags(p):
    """The flags of every command that builds its env from the settings."""
    _add_flags(p, [*ENV_SCHEMA, "seed", "discount"])
    p.add_argument("--config", default=None, help="INI config file")
    p.add_argument("--group", default=None,
                   help=f"symmetry group override (auto, {MIRROR.name}, {C4.name})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="equipomdp",
        description="Symmetry-aware recurrent actor-critic agents with exact "
                    "verification oracles on CarFlag domains.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train an agent and write curve/checkpoints")
    _add_env_flags(p)
    _add_flags(p, [key for key in AGENT_SCHEMA if key != "discount"])
    p.add_argument("--out", default=None, help=f"run directory (default under "
                   f"${RUN_ROOT_ENV} or ./runs)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a trained run from its manifest")
    p.add_argument("--run", required=True, help="run directory with manifest.ini")
    p.add_argument("--checkpoint", default="best", help="best, final, or a path")
    p.add_argument("--episodes", type=int, default=100)
    p.add_argument("--greedy", action="store_true")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--dump-trace", dest="dump_trace", default=None,
                   help="write one episode trace to this file")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("verify", help="run a verification suite (exit 0 iff it passes)")
    p.add_argument("suite", help="equivariance | invariance | lemma1 | theorem1 | gradcheck")
    _add_env_flags(p)
    p.add_argument("--horizon", type=int, default=6)
    p.add_argument("--depth", type=int, default=5)
    p.add_argument("--networks", type=int, default=100)
    p.add_argument("--histories", type=int, default=10)
    p.add_argument("--max-len", dest="max_len", type=int, default=50)
    _add_flags(p, ["lstm_init"])
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("oracle", help="solve an exported instance exactly and "
                                      "evaluate the greedy policy")
    _add_env_flags(p)
    p.add_argument("--horizon", type=int, default=6)
    p.add_argument("--episodes", type=int, default=200)
    p.add_argument("--node-budget", dest="node_budget", type=int, default=NODE_BUDGET,
                   help="most belief classes to solve before giving up")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("plotdata", help="aggregate curve files into mean/std per step")
    p.add_argument("runs", nargs="+", help="run directories or curve.csv paths")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_plotdata)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as e:
        print(f"failed: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
