"""The benchmark's workloads: what each one runs, checks and fingerprints.

A workload has a set-up step and a list of *chunks*, each one program call
with its checks (one ``agent.train`` per variant, one verify per oracle
instance). A run cycles through the chunks, a full cycle being a *round*,
until its time is used. A workload also names the patch points it needs to
measure its end-to-end metrics (``taps``); traced rounds add
``LAYER_POINTS``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from equipomdp import agent, autodiff, envs, nn, pomdp

from tracing import PatchPoint, Tracer, count_graph_nodes

# Short chunks, one evaluation each at the configs' own cadence, so that a run
# holds several of them and its medians do not rest on one or two.
TRAIN_1D_STEPS = 10_000   # per variant, evaluated at the built-in 10k cadence
TRAIN_2D_STEPS = 5_000    # evaluated at the default 5k cadence
# A training seed's evaluation episodes run longer or shorter with the policy
# it learns, moving a chunk's cost by several percent. An end-to-end run therefore
# cycles its rounds through TRAIN_SEEDS training seeds, seed * TRAIN_SEEDS + i,
# and averages over them; a traced run uses seed * TRAIN_SEEDS alone, so that
# its counts do not depend on how many rounds fit in it.
TRAIN_SEEDS = 4
VALUE_TOL = 1e-9          # criterion 06 tolerance, the verify default


@dataclass
class ChunkOutcome:
    label: str
    sub: int = 0                    # which of the workload's training seeds ran
    seconds: float = 0.0            # wall time inside program calls, kernel runs taken out
    kernel_runs: float = 0.0        # the same time in reference-kernel runs
    work: float = 0.0               # env transitions collected, or histories solved
    iterations: list[float] = field(default_factory=list)  # collect-plus-update seconds
    attempted: int = 0
    failed: int = 0
    fingerprint: str = ""
    problems: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)

    def timed(self, clock) -> None:
        self.seconds += clock.program_s
        self.kernel_runs += clock.kernel_runs


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def _hex(x: float) -> str:
    return float(x).hex()


# ---------------------------------------------------------------------------
# Layer patch points, installed only for traced units.
# ---------------------------------------------------------------------------

def _count_nodes(tracer: Tracer, args, out) -> None:
    i = tracer.begin("trace.count_nodes")
    n = count_graph_nodes(args["loss"])
    tracer.end(i)
    tracer.count("autodiff.graph_nodes", n)


LAYER_POINTS = [
    PatchPoint(envs.CarFlag1d, "step", "envs.step"),
    PatchPoint(envs.CarFlag2d, "step", "envs.step"),
    PatchPoint(envs.CarFlag1d, "reset", "envs.reset"),
    PatchPoint(envs.CarFlag2d, "reset", "envs.reset"),
    PatchPoint(agent.RecurrentPolicy, "step_np", "agent.policy_fwd_np"),
    PatchPoint(nn.LstmCell, "step_np", "nn.lstm_step_np"),
    PatchPoint(nn.Mlp, "fwd_np", "nn.head_fwd_np"),
    PatchPoint(nn.Conv2dStack, "fwd_np", "nn.conv_fwd_np"),
    PatchPoint(agent, "segment_loss", "agent.graph_build"),
    PatchPoint(agent.RecurrentPolicy, "realize", "agent.realize"),
    PatchPoint(autodiff, "backward", "autodiff.backward", _count_nodes),
    PatchPoint(autodiff.Adam, "step", "autodiff.adam"),
    PatchPoint(agent, "clip_grad_norm", "autodiff.clip"),
    PatchPoint(nn, "null_space", "nn.basis_solve"),
]


# ---------------------------------------------------------------------------
# Training workloads.
# ---------------------------------------------------------------------------

def _collected(tracer: Tracer, args, batch) -> None:
    tracer.count("envs.transitions", batch.n_transitions)


def _updated(tracer: Tracer, args, stats) -> None:
    tracer.count("agent.updates")
    if not all(math.isfinite(v) for v in stats.values()):
        tracer.count("agent.nonfinite_updates")


def _evaluated(tracer: Tracer, args, result) -> None:
    tracer.count("agent.eval_episodes", args["episodes"])


class TrainWorkload:
    """Calls ``agent.train`` on fixed configs, one after another, in-process."""

    def __init__(self, seed: int, runs):
        self.runs = {label: (env_cfg, cfg) for label, env_cfg, cfg in runs}
        self.labels = list(self.runs)
        self.seeds = [seed * TRAIN_SEEDS + i for i in range(TRAIN_SEEDS)]
        self.params: dict[str, int] = {}
        self.taps = [
            PatchPoint(agent, "collect_rollouts", "agent.collect", _collected),
            PatchPoint(agent, "a2c_update", "agent.update", _updated),
            PatchPoint(agent, "evaluate", "agent.eval", _evaluated),
        ]

    def setup(self, tracer: Tracer, traced: bool) -> None:
        """Network construction (null-space bases) plus one update and one
        evaluation episode per config."""
        for label, (env_cfg, cfg) in self.runs.items():
            tracer.label = label
            warm = dataclasses.replace(cfg, seed=self.seeds[0],
                                       total_steps=cfg.n_envs * cfg.n_steps, eval_episodes=1)
            res = agent.train(env_cfg, warm)
            self.params[label] = int(sum(p.value.size for p in res.policy.parameters()))

    def chunk(self, label: str, sub: int, tracer: Tracer, clock) -> ChunkOutcome:
        env_cfg, cfg = self.runs[label]
        cfg = dataclasses.replace(cfg, seed=self.seeds[sub])
        out = ChunkOutcome(label, sub)
        tracer.label = label
        try:
            with clock:
                res = agent.train(env_cfg, cfg)
        except (agent.NonFiniteLossError, autodiff.NonFiniteGradientError) as e:
            res = None
            out.check(False, f"{label}: {type(e).__name__}: {e}")
        out.timed(clock)
        if res is not None:
            for row in res.rows:
                finite = all(math.isfinite(float(v)) for v in row)
                out.check(finite and 0.0 <= row[2] <= 1.0,
                          f"{label}: eval row {row} not finite or success outside [0, 1]")
            params = res.policy.state_dict()
            out.fingerprint = _digest((
                [tuple(_hex(v) for v in row) for row in res.rows],
                [(k, hashlib.sha256(v.tobytes()).hexdigest()) for k, v in params.items()]))
        key = (tracer.unit, label)
        n = tracer.counts.get((*key, "agent.updates"), 0.0)
        bad = tracer.counts.get((*key, "agent.nonfinite_updates"), 0.0)
        out.attempted += int(n)
        out.failed += int(bad)
        if bad:
            out.problems.append(f"{label}: {int(bad)} updates with non-finite statistics")
        out.work = tracer.counts.get((*key, "envs.transitions"), 0.0)
        out.iterations = iteration_seconds(tracer, tracer.unit, label)
        return out


def iteration_seconds(tracer: Tracer, unit: str, label: str) -> list[float]:
    """Collect-plus-update iteration times of one label, eval excluded."""
    times: list[float] = []
    started = None
    for i in tracer.spans_of(unit):
        if tracer.parents[i] >= 0 or tracer.labels[i] != label:
            continue
        name = tracer.names[i]
        if name == "agent.collect":
            started = tracer.starts[i]
        elif name == "agent.update" and started is not None:
            times.append(tracer.ends[i] - started)
            started = None
    return times


def train_1d(seed: int) -> TrainWorkload:
    env_cfg = agent.benchmark_env_config()
    return TrainWorkload(seed, [
        (v, env_cfg, agent.benchmark_agent_config(v, seed, TRAIN_1D_STEPS))
        for v in ("equi", "plain")])


def train_2d(seed: int) -> TrainWorkload:
    cfg = agent.AgentConfig(variant="equi", seed=seed, total_steps=TRAIN_2D_STEPS)
    return TrainWorkload(seed, [("equi", envs.CarFlag2dConfig(grid_size=7), cfg)])


# ---------------------------------------------------------------------------
# Oracle workload.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OracleInstance:
    name: str
    config: object
    horizon: int
    passes: bool        # expected verdict
    checks: int         # expected (history, group element) comparisons
    histories: int      # expected reachable histories in the solved tree


ORACLE_INSTANCES = (
    OracleInstance("3x3-h6", envs.CarFlag2dConfig(grid_size=3), 6, True, 94_680, 139_976),
    OracleInstance("3x3-h6-offset", envs.CarFlag2dConfig(grid_size=3, info_offset=1), 6,
                   False, 84_792, 125_156),
    OracleInstance("5x5-h4", envs.CarFlag2dConfig(grid_size=5), 4, True, 18_360, 30_884),
)


def belief_classes(solution) -> int:
    """Distinct (depth, belief) pairs, beliefs keyed by support and values
    rounded to 1e-12: the states a belief-keyed solver would back up."""
    keys = set()
    for h, b in solution.beliefs.items():
        nz = np.flatnonzero(b)
        keys.add((len(h) // 2, nz.tobytes(), np.round(b[nz], 12).tobytes()))
    return len(keys)


class OracleWorkload:
    """``verify_value_invariance`` on fixed instances, one after another."""

    def __init__(self):
        self.tables: dict[str, tuple] = {}
        self.table_bytes = 0
        self.solution = None
        self.classes: dict[str, int] = {}
        self.instances = {inst.name: inst for inst in ORACLE_INSTANCES}
        self.labels = list(self.instances)
        self.seeds = [None]     # the instances are fixed; the seed changes nothing
        self.taps = [
            PatchPoint(pomdp, "exact_q", "pomdp.solve", self._captured),
            PatchPoint(pomdp, "verify_value_invariance", "pomdp.verify"),
            PatchPoint(envs, "export_pomdp", "envs.export"),
        ]

    def _captured(self, tracer: Tracer, args, solution) -> None:
        self.solution = solution

    def setup(self, tracer: Tracer, traced: bool) -> None:
        """Table export for every instance plus a horizon-1 verify. A traced
        run also solves each instance once here to count its belief classes,
        so that counting stays out of the timed units."""
        self.tables.clear()
        total = 0
        for inst in ORACLE_INSTANCES:
            tracer.label = inst.name
            model, binding, _ = envs.export_pomdp(inst.config)
            self.tables[inst.name] = (model, binding)
            total += sum(a.nbytes for a in (model.start, model.trans, model.reward,
                                            model.obs, model.obs0))
        self.table_bytes = total
        first = ORACLE_INSTANCES[0]
        pomdp.verify_value_invariance(*self.tables[first.name], horizon=1)
        if traced:
            for inst in ORACLE_INSTANCES:
                model, _ = self.tables[inst.name]
                self.classes[inst.name] = belief_classes(pomdp.exact_q(model, inst.horizon))
        self.solution = None

    def chunk(self, label: str, sub: int, tracer: Tracer, clock) -> ChunkOutcome:
        inst = self.instances[label]
        model, binding = self.tables[label]
        out = ChunkOutcome(label)
        tracer.label = label
        with clock:
            report = pomdp.verify_value_invariance(model, binding, horizon=inst.horizon)
        out.timed(clock)
        sol, self.solution = self.solution, None
        if inst.passes:
            verdict = (report.passed and report.max_dev < VALUE_TOL
                       and report.policy_consistent is True)
        else:
            verdict = not report.passed and report.witness is not None
        ok = (verdict and report.checked == inst.checks
              and sol is not None and sol.node_count == inst.histories)
        out.check(ok, f"{label}: passed={report.passed} checked={report.checked} "
                      f"witness={report.witness is not None} "
                      f"histories={None if sol is None else sol.node_count}")
        if sol is not None:
            out.work = sol.node_count
            tracer.count("pomdp.histories", sol.node_count)
            tracer.count("pomdp.checks", report.checked)
            out.fingerprint = _digest([(h, _hex(sol.values[h])) for h in sorted(sol.root_probs)])
        return out


def make(name: str, seed: int):
    if name == "train-1d":
        return train_1d(seed)
    if name == "train-2d":
        return train_2d(seed)
    if name == "oracle":
        return OracleWorkload()
    raise KeyError(name)

