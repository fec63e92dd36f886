"""Recurrent advantage actor-critic over parallel CarFlag environments.

The policy runs a feature extractor (convolutions for image observations),
a recurrent cell, and separate actor/critic heads. Every stage is built from
the same tied layers. The ``equi`` variant ties them over the domain
symmetry, so the actor permutes and the critic is unchanged under it no
matter what the parameter values are. ``plain`` builds the same network
over the trivial group, whose tying leaves every weight free; each of its
widths is a field count times the group order, in trivial channels. The
partial variants build one head that way.

Every forward pass goes through ``RecurrentPolicy.input_t`` (the trunk, if
any) and the cell, and each caller applies only the heads it needs. A segment
is run forward once. Collection realizes the weights and steps the cell on
arrays, recording each step's input tensor and what backpropagation through
time needs; episode resets replace state rows between steps. At segment end
the T steps become one ``autodiff.LstmSegment`` node whose value stacks the
cell outputs into (T*B, H) rows, and the critic runs on them once. The update
takes that graph as it stands: it applies the actor head to the stacked rows,
adds the loss as one node and backpropagates through time into the weights
collection used, with no second forward. Evaluation, the bootstrap values and
the equivariance checks step the same cell arithmetic on arrays
(``step_values``) and keep only values. Every time step is one batched call
over all rows: the envs in collection, the still-running episodes in
evaluation, a history's group images in the equivariance checks. Collection
and evaluation step their envs through ``envs.step_envs`` and write its
rewards and flags as whole rows.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Adam, Tensor, clip_grad_norm
from .envs import (
    CarFlag1dConfig,
    CarFlag2dConfig,
    EnvError,
    env_group_binding,
    make_env,
    require_integer,
    require_integer_fields,
    step_envs,
)
from .nn import Conv2dStack, EquiConv2d, equi_lstm_cell, initial_state, mlp_head
from .groups import C1, direct_sum, regular_rep, sign_rep, trivial_rep


class AgentError(ValueError):
    pass


class NonFiniteLossError(AgentError):
    pass


VARIANTS = ("equi", "plain", "equi-actor-only", "equi-critic-only")
LSTM_INITS = ("zero", "random")   # the recurrent state's start; random breaks equivariance


@dataclass(frozen=True)
class AgentConfig:
    variant: str = "equi"
    lstm_init: str = "zero"          # one of LSTM_INITS
    n_envs: int = 16
    n_steps: int = 5
    discount: float = 0.99
    learning_rate: float = 3e-4
    value_coef: float = 0.5
    entropy_coef: float = 0.01
    grad_clip: float = 0.5
    total_steps: int = 100_000
    eval_interval: int = 5_000
    eval_episodes: int = 40
    eval_greedy: bool = False
    seed: int = 0
    lstm_fields: int = 16
    head_fields: int = 16
    conv_fields: tuple = (4, 8)
    feed_prev_action: bool = False

    def __post_init__(self):
        require_integer_fields(self, AgentError)
        for i, width in enumerate(self.conv_fields):
            require_integer(f"conv_fields[{i}]", width, AgentError)
        if self.variant not in VARIANTS:
            raise AgentError(f"unknown variant {self.variant!r}; pick one of {VARIANTS}")
        if not 0.0 <= self.discount < 1.0:
            raise AgentError("discount must be in [0, 1)")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            # zero never moves a weight, and a negative rate runs gradient ascent
            raise AgentError(f"learning_rate must be finite and positive, "
                             f"got {self.learning_rate}")
        for name in ("value_coef", "entropy_coef", "grad_clip"):
            if not math.isfinite(getattr(self, name)):
                raise AgentError(f"{name} must be finite, got {getattr(self, name)}")
        if min(self.value_coef, self.entropy_coef, self.grad_clip) < 0:
            raise AgentError("loss coefficients must be nonnegative")
        if self.lstm_init not in LSTM_INITS:
            raise AgentError(f"lstm_init must be one of {LSTM_INITS}, got {self.lstm_init!r}")
        for name in ("n_envs", "n_steps", "eval_interval", "eval_episodes",
                     "lstm_fields", "head_fields"):
            if getattr(self, name) < 1:
                raise AgentError(f"{name} must be at least 1, got {getattr(self, name)}")
        if not self.conv_fields or min(self.conv_fields) < 1:
            raise AgentError(f"conv_fields must be one or more widths of at least 1, "
                             f"got {self.conv_fields!r}")
        if self.total_steps < 0:
            raise AgentError(f"total_steps must be nonnegative, got {self.total_steps}")


# ---------------------------------------------------------------------------
# Policy network.
# ---------------------------------------------------------------------------

class RecurrentPolicy:
    scores = "logits"   # what ``player``'s step returns per row

    def __init__(self, env_config, agent_config: AgentConfig, rng: np.random.Generator):
        self.sym = env_group_binding(env_config)
        group = self.sym.group
        variant = agent_config.variant
        self.lstm_init = agent_config.lstm_init
        # An unconstrained stage is the same layers over the trivial group, on as
        # many trivial channels as the constrained stage's representation has.
        def plain(rep):
            return trivial_rep(C1, rep.dim)

        trunk_equi = variant != "plain"
        trunk_group, widen = (group, 1) if trunk_equi else (C1, group.order)

        self.feed_prev_action = agent_config.feed_prev_action
        if isinstance(env_config, CarFlag1dConfig):
            self.n_actions = 2
            self.obs_shape = (2,)
            self._scale = np.array([1.0 / env_config.half_size, 1.0])
            self.extractor = None
            rho_x = self.sym.obs_rep
            if self.feed_prev_action:
                # the previous action enters as one signed component: the mirror
                # swaps left/right, so the encoding must flip sign with it
                rho_x = direct_sum([rho_x, sign_rep(group)])
        elif isinstance(env_config, CarFlag2dConfig):
            self.n_actions = 4
            n = env_config.grid_size
            self.obs_shape = (2, n, n)
            self._scale = None
            depth = (n - 1) // 2
            widths = list(agent_config.conv_fields)
            while len(widths) < depth:
                widths.append(widths[-1])
            widths = widths[:depth]
            self.extractor = Conv2dStack([
                EquiConv2d(direct_sum([trivial_rep(trunk_group)] * 2) if i == 0 else
                           direct_sum([regular_rep(trunk_group)] * (widths[i - 1] * widen)),
                           w * widen, 3, rng, name=f"extract{i}")
                for i, w in enumerate(widths)])
            rho_x = direct_sum([regular_rep(group)] * widths[-1])
            if self.feed_prev_action:
                # one-hot previous action permutes with the rotation: regular field
                rho_x = direct_sum([rho_x, regular_rep(group)])
        else:
            raise EnvError(f"unknown env config {type(env_config).__name__}")

        rho_h = direct_sum([regular_rep(group)] * agent_config.lstm_fields)
        if not trunk_equi:
            rho_x, rho_h = plain(rho_x), plain(rho_h)
        self.cell = equi_lstm_cell(rho_x, rho_h, rng, name="lstm")

        actor_equi = variant in ("equi", "equi-actor-only")
        critic_equi = variant in ("equi", "equi-critic-only")
        if actor_equi and self.n_actions != group.order:
            raise AgentError(
                f"equivariant actor needs one action per group element "
                f"({group.order}), env has {self.n_actions}")
        rho_hidden = direct_sum([regular_rep(group)] * agent_config.head_fields)
        if actor_equi:  # logits permute with the actions: the regular representation
            actor = (self.cell.rho_h, rho_hidden, regular_rep(group))
        else:
            actor = (plain(self.cell.rho_h), plain(rho_hidden), trivial_rep(C1, self.n_actions))
        critic = (self.cell.rho_h, rho_hidden, trivial_rep(group))
        if not critic_equi:
            critic = tuple(map(plain, critic))
        self.actor = mlp_head(*actor, rng, name="actor")
        self.critic = mlp_head(*critic, rng, name="critic")
        self._modules = ([] if self.extractor is None else [self.extractor]) + [
            self.cell, self.actor, self.critic]
        names = [p.name for m in self._modules for p in m.parameters()]
        if len(names) != len(set(names)):
            raise AgentError("duplicate parameter names in the policy")

    def describe(self) -> list[str]:
        """Ordered layer list with representation annotations; a layer over the
        trivial group reads as plain units."""

        def rep_name(rep):
            return f"{rep.dim} units" if rep.group.order == 1 else rep.summary

        lines = []
        if self.extractor is not None:
            for layer in self.extractor.layers:
                lines.append(f"conv3x3 {rep_name(layer.rho_in)} -> "
                             f"{rep_name(layer.rho_out)} (relu)")
        lines.append(f"lstm {rep_name(self.cell.rho_x)} -> {rep_name(self.cell.rho_h)}")
        for name, head in (("actor", self.actor), ("critic", self.critic)):
            parts = [rep_name(l.rho_in) for l in head.layers] + [rep_name(head.rho_out)]
            lines.append(f"{name} " + " -> ".join(parts))
        return lines

    # -- parameters ---------------------------------------------------------
    def parameters(self):
        return [p for m in self._modules for p in m.parameters()]

    def named_parameters(self) -> dict[str, Tensor]:
        return {p.name: p for p in self.parameters()}

    def load_state(self, state: dict[str, np.ndarray]):
        params = self.named_parameters()
        if set(state) != set(params):
            missing = set(params) - set(state)
            extra = set(state) - set(params)
            raise AgentError(f"checkpoint mismatch: missing {missing}, extra {extra}")
        for name, value in state.items():
            if params[name].value.shape != value.shape:
                raise AgentError(f"checkpoint shape mismatch on {name}: expected "
                                 f"{params[name].value.shape}, found {value.shape}")
            params[name].value = value.astype(np.float64).copy()

    def state_dict(self) -> dict[str, np.ndarray]:
        return {name: p.value.copy() for name, p in self.named_parameters().items()}

    # -- forward ------------------------------------------------------------
    def initial_state(self, batch: int, rng: np.random.Generator | None = None):
        return initial_state(self.cell, batch, self.lstm_init, rng)

    def _encode(self, obs: np.ndarray) -> np.ndarray:
        return obs * self._scale if self._scale is not None else obs

    def encode_prev_action(self, prev: np.ndarray) -> np.ndarray:
        """Encode previous actions; -1 marks an episode start (zero vector)."""
        prev = np.asarray(prev, dtype=np.int64)
        if self.n_actions == 2:
            return np.where(prev < 0, 0.0, 2.0 * prev - 1.0)[:, None]
        out = np.zeros((prev.shape[0], self.n_actions))
        live = prev >= 0
        out[np.nonzero(live)[0], prev[live]] = 1.0
        return out

    def realize(self):
        out = {"cell": self.cell.realize_t(),
               "actor": self.actor.realize_t(),
               "critic": self.critic.realize_t()}
        if self.extractor is not None:
            out["extract"] = self.extractor.realize_t()
        return out

    def input_t(self, obs: np.ndarray, realized, prev: np.ndarray | None = None) -> Tensor:
        """The cell's input rows for observation rows ``obs`` and previous
        actions ``prev``: a constant on 1D, the conv trunk's graph on 2D."""
        x = self._encode(obs)
        extra = [self.encode_prev_action(prev)] if self.feed_prev_action else []
        if self.extractor is None:  # a constant: join it before it enters the graph
            return ad.constant(np.concatenate([x, *extra], axis=-1))
        x = self.extractor.forward_t(ad.constant(x), realized["extract"])
        x = ad.reshape(x, (x.value.shape[0], -1))
        return ad.concat([x, ad.constant(extra[0])], axis=-1) if extra else x

    def logits_t(self, h: Tensor, realized) -> Tensor:
        return self.actor.forward_t(h, realized["actor"])

    def values_t(self, h: Tensor, realized) -> Tensor:
        return ad.reshape(self.critic.forward_t(h, realized["critic"]), (h.value.shape[0],))

    def step_values(self, obs: np.ndarray, h: np.ndarray, c: np.ndarray, realized,
                    prev: np.ndarray | None = None):
        """One recurrent step on arrays, for callers that only need values: the
        trunk, if any, then the cell from state rows ``h``, ``c``. Returns the
        new state (h', c'); pass ``ad.constant(h')`` to ``logits_t`` or
        ``values_t`` for the heads the caller needs."""
        x = self.input_t(obs, realized, prev).value
        return self.cell.step(x, h, c, realized["cell"])

    def player(self, streams):
        """``(step, memory)`` for ``play_episodes``: the weights realized once,
        each episode's initial state drawn from its own state stream, and
        ``step(obs, prev, (h, c))`` returning the actor logits and (h', c')."""
        realized = self.realize()
        random_init = self.lstm_init == "random"   # the zero state draws nothing
        states = [self.initial_state(1, np.random.default_rng(state_seq) if random_init else None)
                  for _, _, state_seq in streams]

        def step(obs, prev, memory):
            h, c = self.step_values(obs, *memory, realized, prev)
            return self.logits_t(ad.constant(h), realized).value, (h, c)

        return step, tuple(np.concatenate(rows) for rows in zip(*states))


def categorical_from_uniform(logits: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF draw per row of ``logits``, given one uniform per row in ``u``
    (shaped (rows, 1))."""
    z = logits - logits.max(axis=-1, keepdims=True)
    p = np.exp(z)
    p /= p.sum(axis=-1, keepdims=True)
    return np.minimum((np.cumsum(p, axis=-1) < u).sum(axis=-1), logits.shape[-1] - 1)


def sample_categorical(logits: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    return categorical_from_uniform(logits, rng.random((logits.shape[0], 1)))


# ---------------------------------------------------------------------------
# Rollout collection and returns.
# ---------------------------------------------------------------------------

@dataclass
class RolloutBatch:
    actions: np.ndarray         # (T, B) int
    rewards: np.ndarray         # (T, B)
    terminated: np.ndarray      # (T, B) bool
    truncated: np.ndarray       # (T, B) bool
    values: np.ndarray          # (T, B) collection-time critic estimates
    trunc_bootstrap: np.ndarray  # (T, B) V(final obs) where truncated, else 0
    bootstrap_value: np.ndarray  # (B,)
    episodes_finished: int = 0
    # Collection's graph, until an update differentiates it and drops it:
    hidden: Tensor | None = None    # (T*B, H) cell outputs; row t*B + i is env i at step t
    values_t: Tensor | None = None  # (T*B,) the critic on ``hidden``; ``values`` is its value
    realized: dict | None = None    # the weights ``hidden`` was computed with

    @property
    def n_transitions(self) -> int:
        return self.rewards.size


def start_carry(policy: RecurrentPolicy, env_config, n_envs: int,
                seed_seq: np.random.SeedSequence,
                state_rng: np.random.Generator | None = None) -> dict:
    """What collection carries from one segment to the next: ``n_envs`` envs,
    each on its own generator from a child of ``seed_seq``, freshly reset, and
    their observations, recurrent state and previous actions."""
    envs = [make_env(env_config, np.random.default_rng(s)) for s in seed_seq.spawn(n_envs)]
    obs = np.stack([env.reset() for env in envs])
    h, c = policy.initial_state(n_envs, state_rng)
    prev = np.full(n_envs, -1, dtype=np.int64)
    return {"envs": envs, "obs": obs, "h": h, "c": c, "prev": prev, "state_rng": state_rng}


def collect_rollouts(policy: RecurrentPolicy, carry: dict, n_steps: int,
                     rng: np.random.Generator) -> RolloutBatch:
    """Advance every env of the carry ``n_steps`` steps, sampling from the
    actor, and keep the segment's graph for the update: each step's input
    tensor (the trunk's graph on 2D) and the cell's T steps as one
    ``autodiff.LstmSegment`` node, whose stacked outputs are ``batch.hidden``,
    with the critic run on them."""
    envs, obs, prev = carry["envs"], carry["obs"], carry["prev"]
    b = len(envs)
    state_rng = carry.get("state_rng")
    batch = RolloutBatch(
        actions=np.zeros((n_steps, b), dtype=np.int64),
        rewards=np.zeros((n_steps, b)),
        terminated=np.zeros((n_steps, b), dtype=bool),
        truncated=np.zeros((n_steps, b), dtype=bool),
        values=np.zeros((n_steps, b)),
        trunc_bootstrap=np.zeros((n_steps, b)),
        bootstrap_value=np.zeros(b),
    )
    realized = policy.realize()
    segment = policy.cell.segment(realized["cell"])
    h, c = carry["h"], carry["c"]
    for t in range(n_steps):
        h, c = segment.step(policy.input_t(obs, realized, prev), h, c)
        actions = sample_categorical(policy.logits_t(ad.constant(h), realized).value, rng)
        batch.actions[t] = prev = actions
        obs, batch.rewards[t], batch.terminated[t], batch.truncated[t] = step_envs(
            envs, actions)
        done_rows = np.flatnonzero(batch.terminated[t] | batch.truncated[t])
        if done_rows.size:
            trunc_rows = np.flatnonzero(batch.truncated[t])
            if trunc_rows.size:
                # bootstrap value of the final observation under the post-step state
                h_fin, _ = policy.step_values(obs[trunc_rows], h[trunc_rows], c[trunc_rows],
                                              realized, prev[trunc_rows])
                batch.trunc_bootstrap[t, trunc_rows] = policy.values_t(ad.constant(h_fin),
                                                                       realized).value
            # finished rows restart from a fresh state
            fresh = [policy.initial_state(1, state_rng) for _ in done_rows]
            for i in done_rows:
                obs[i] = envs[i].reset()
            prev[done_rows] = -1
            h, c = segment.reset(done_rows, *(np.concatenate(rows) for rows in zip(*fresh)))
        batch.episodes_finished += done_rows.size
    batch.hidden = segment.node()
    batch.values_t = policy.values_t(batch.hidden, realized)
    batch.values = batch.values_t.value.reshape(n_steps, b)
    batch.realized = realized
    h_boot, _ = policy.step_values(obs, h, c, realized, prev)
    batch.bootstrap_value = policy.values_t(ad.constant(h_boot), realized).value
    carry.update(obs=obs, h=h, c=c, prev=prev)
    return batch


def compute_returns(batch: RolloutBatch, discount: float):
    """n-step targets: cut at terminals, bootstrap at truncations and segment end."""
    n_steps, b = batch.rewards.shape
    returns = np.zeros((n_steps, b))
    future = batch.bootstrap_value.copy()
    for t in range(n_steps - 1, -1, -1):
        carried = np.where(batch.terminated[t], 0.0,
                           np.where(batch.truncated[t], batch.trunc_bootstrap[t], future))
        future = batch.rewards[t] + discount * carried
        returns[t] = future
    advantages = returns - batch.values
    return returns, advantages


# ---------------------------------------------------------------------------
# Update.
# ---------------------------------------------------------------------------

def segment_loss(policy: RecurrentPolicy, batch: RolloutBatch, config: AgentConfig,
                 returns: np.ndarray, advantages: np.ndarray):
    """Build the A2C loss on collection's graph (backprop through time).

    Only the actor head and the loss are new nodes: they run once, on the
    (T*B, H) stack of the cell's outputs, with the weights collection
    realized, and the value loss reads the critic collection ran on them."""
    if batch.hidden is None:
        raise AgentError("this batch has no graph to differentiate: an update already "
                         "used it and freed it, so collect a new segment")
    return ad.a2c_loss(policy.logits_t(batch.hidden, batch.realized), batch.values_t,
                       batch.actions.reshape(-1), advantages.reshape(-1), returns.reshape(-1),
                       config.value_coef, config.entropy_coef)


def a2c_update(policy: RecurrentPolicy, opt: Adam, batch: RolloutBatch,
               config: AgentConfig):
    """One gradient step on policy, value, and entropy losses over the segment.
    Frees the batch's graph, so a batch serves one update."""
    returns, advantages = compute_returns(batch, config.discount)
    loss, stats = segment_loss(policy, batch, config, returns, advantages)
    if not np.isfinite(loss.value):
        raise NonFiniteLossError(f"non-finite loss; diagnostics snapshot: {stats}")
    ad.backward(loss)
    batch.hidden = batch.values_t = batch.realized = None
    stats["grad_norm"] = clip_grad_norm(policy.parameters(), config.grad_clip)
    opt.step()
    return stats


# ---------------------------------------------------------------------------
# Evaluation.
# ---------------------------------------------------------------------------

def episode_streams(rng: np.random.Generator, episodes: int):
    """One (env, action, state) seed-sequence triple per episode, spawned from
    ``rng``'s seed sequence: episode i's streams depend on i alone. A stream
    becomes a generator only where it is drawn from: ``play_episodes`` builds
    the env stream's, and the action stream's when it samples;
    ``RecurrentPolicy.player`` builds the state stream's under a random
    initial state."""
    return [ep.spawn(3) for ep in rng.bit_generator.seed_seq.spawn(episodes)]


def play_episodes(actor, env_config, streams, greedy: bool = False):
    """Play one episode per (env, action, state) stream triple, side by side.

    ``actor.player(streams)`` returns ``(step, memory)``: ``memory`` is a tuple
    of arrays with one row per episode, and each time step is one
    ``step(obs, prev, memory) -> (scores, memory)`` call over the episodes
    still running, whose rows drop out as they end. Returns per-episode success
    flags (terminal with positive reward), undiscounted returns and actions.
    Each episode draws only from its own streams, so its random draws do not
    depend on which episodes run beside it. Its scores can: BLAS may round a
    row's matrix products differently in calls of different row counts (by
    about 1e-16 on the networks' logits), so at a near-tie a greedy action
    can depend on how many episodes are still running."""
    if not greedy and actor.scores != "logits":
        raise AgentError(f"cannot sample actions from {actor.scores}; "
                         f"play {type(actor).__name__} with greedy=True")
    step, memory = actor.player(streams)
    envs = [make_env(env_config, np.random.default_rng(env_seq)) for env_seq, _, _ in streams]
    act_rngs = None if greedy else [np.random.default_rng(act_seq) for _, act_seq, _ in streams]
    obs = np.stack([env.reset() for env in envs])
    prev = np.full(len(envs), -1, dtype=np.int64)
    live = np.arange(len(envs))
    successes = np.zeros(len(envs), dtype=bool)
    returns = np.zeros(len(envs))
    taken = []   # per step, every episode's action, -1 once it has ended
    while live.size:
        scores, memory = step(obs, prev, memory)
        if greedy:
            actions = np.argmax(scores, axis=-1)
        else:
            u = np.array([act_rngs[i].random() for i in live])[:, None]
            actions = categorical_from_uniform(scores, u)
        taken.append(np.full(len(envs), -1, dtype=np.int64))
        taken[-1][live] = actions
        obs, rewards, terminated, truncated = step_envs([envs[i] for i in live], actions)
        returns[live] += rewards
        done = terminated | truncated
        successes[live[done]] = terminated[done] & (rewards[done] > 0)
        running = ~done
        live, obs, prev = live[running], obs[running], actions[running]
        memory = tuple(rows[running] for rows in memory)
    # an episode runs from the first step, so its actions are a prefix of its column
    taken = np.array(taken)
    lengths = np.count_nonzero(taken >= 0, axis=0).tolist()
    return successes, returns, [column[:n].tolist() for column, n in zip(taken.T, lengths)]


def evaluate(actor, env_config, episodes: int, rng: np.random.Generator,
             greedy: bool = False):
    """Success rate and mean undiscounted return over ``episodes`` episodes,
    played as one batch on per-episode streams spawned from ``rng``."""
    if episodes < 1:
        raise AgentError(f"evaluation needs at least 1 episode, got {episodes}")
    successes, returns, _ = play_episodes(actor, env_config,
                                          episode_streams(rng, episodes), greedy)
    return float(successes.mean()), float(returns.mean())


class OracleQPolicy:
    """Greedy play from an exact finite-horizon solution, following its edges
    by (previous action, observation) from class to class."""

    scores = "Q-values"   # what ``player``'s step returns per row

    def __init__(self, solution, maps):
        self.solution = solution
        self.maps = maps

    def player(self, streams):
        """``(step, memory)`` for ``play_episodes``. The memory is each
        episode's (depth, class) after its last step, depth -1 before the
        first; ``step`` finds every row's class at once, among the roots at
        depth 0 and after that as the child of (class, previous action,
        observation), and returns the classes' Q-value rows."""
        sol = self.solution

        def step(obs, prev, memory):
            depths = memory[0] + 1
            depth = int(depths[0])   # the rows still running are all one step in
            o = np.array([self.maps.obs_id_of_array(x) for x in obs], dtype=np.int64)
            if depth == 0:
                classes = np.array([sol.roots.get((x,), -1) for x in o.tolist()], dtype=np.int64)
            else:
                classes = sol.child_of(depth - 1, memory[1], prev, o)
            outside = np.flatnonzero((classes < 0) | (depth >= sol.horizon))
            if outside.size:
                raise AgentError(f"observation {o[outside[0]]} at step {depth} is outside "
                                 f"the tree solved to horizon {sol.horizon}")
            return sol.q[depth][classes], (depths, classes)

        n = len(streams)
        return step, (np.full(n, -1, dtype=np.int64), np.zeros(n, dtype=np.int64))


# ---------------------------------------------------------------------------
# Whole-network equivariance suite.
# ---------------------------------------------------------------------------

def equivariance_residuals(policy: RecurrentPolicy, histories: int, max_len: int,
                           rng: np.random.Generator,
                           state_rng: np.random.Generator | None = None):
    """Worst actor/critic equivariance violation over random histories.

    Feeds each random observation sequence and all its group transforms
    through the network from the same initial state, as the |G| rows of one
    batch (row g is the image under element g); the actor logits must
    permute by the action map and the critic must not move at all.
    """
    sym = policy.sym
    elements = sym.group.elements
    worst_actor, worst_critic = 0.0, 0.0
    realized = policy.realize()
    for _ in range(histories):
        length = int(rng.integers(1, max_len + 1))
        seq = [rng.normal(size=policy.obs_shape) for _ in range(length)]
        prev_seq = np.concatenate([[-1], rng.integers(0, policy.n_actions, length - 1)])
        h, c = (np.repeat(s, len(elements), axis=0)
                for s in policy.initial_state(1, state_rng))
        for obs, prev in zip(seq, prev_seq):
            gobs = np.array([sym.act_on_obs(g, obs) for g in elements])
            gprev = np.full(len(elements), -1) if prev < 0 else sym.action_map[:, prev]
            h, c = policy.step_values(gobs, h, c, realized, gprev)
        h_t = ad.constant(h)
        logits = policy.logits_t(h_t, realized).value
        values = policy.values_t(h_t, realized).value
        permuted = np.take_along_axis(logits, sym.action_map, axis=1)
        worst_actor = max(worst_actor, float(np.max(np.abs(permuted[1:] - logits[0]))))
        worst_critic = max(worst_critic, float(np.max(np.abs(values[1:] - values[0]))))
    return worst_actor, worst_critic


# The suite's random networks: small, and alternating between the domains.
SUITE_ENVS = (CarFlag1dConfig(half_size=10), CarFlag2dConfig(grid_size=3))
SUITE_WIDTHS = {"lstm_fields": 3, "head_fields": 3, "conv_fields": (2,)}


def run_equivariance_suite(networks: int = 100, histories: int = 10, max_len: int = 50,
                           seed: int = 0, lstm_init: str = "zero"):
    """Random equivariant networks on both domains; returns the worst residuals.
    A suite of no network, no history or empty histories is refused, as it
    would check nothing."""
    for name, count in (("networks", networks), ("histories", histories),
                        ("max_len", max_len)):
        if count < 1:
            raise AgentError(f"{name} must be at least 1, got {count}")
    rng = np.random.default_rng(seed)
    worst = {"actor": 0.0, "critic": 0.0}
    for i in range(networks):
        env_cfg = SUITE_ENVS[i % len(SUITE_ENVS)]
        agent_cfg = AgentConfig(variant="equi", lstm_init=lstm_init, **SUITE_WIDTHS)
        net_rng = np.random.default_rng(np.random.SeedSequence((seed, 7, i)))
        policy = RecurrentPolicy(env_cfg, agent_cfg, net_rng)
        state_rng = np.random.default_rng(np.random.SeedSequence((seed, 11, i)))
        a, c = equivariance_residuals(policy, histories, max_len, rng,
                                      state_rng=state_rng)
        worst["actor"] = max(worst["actor"], a)
        worst["critic"] = max(worst["critic"], c)
    worst["max"] = max(worst["actor"], worst["critic"])
    return worst


# ---------------------------------------------------------------------------
# Training loop.
# ---------------------------------------------------------------------------

CURVE_HEADER = "step,episodes,success_rate,mean_return,policy_loss,value_loss,entropy,seed"


@dataclass
class TrainResult:
    rows: list
    curve_path: str | None
    policy: RecurrentPolicy
    episodes: int
    wall_seconds: float


def _curve_line(row) -> str:
    return ("%d,%d,%.10g,%.10g,%.10g,%.10g,%.10g,%d" % row)


def train(env_config, config: AgentConfig, out_dir=None) -> TrainResult:
    """Alternate rollout collection and updates; log evaluations at intervals."""
    t_start = time.perf_counter()
    root = np.random.SeedSequence(config.seed)
    params_ss, env_ss, sample_ss, state_ss = root.spawn(4)
    rng_params = np.random.default_rng(params_ss)
    rng_sample = np.random.default_rng(sample_ss)
    state_rng = np.random.default_rng(state_ss) if config.lstm_init == "random" else None

    policy = RecurrentPolicy(env_config, config, rng_params)
    opt = Adam(policy.parameters(), config.learning_rate)
    carry = start_carry(policy, env_config, config.n_envs, env_ss, state_rng)

    rows = []
    stats = {"policy_loss": 0.0, "value_loss": 0.0, "entropy": 0.0}
    steps_done = 0
    episodes = 0
    eval_idx = 0
    next_eval = config.eval_interval
    best_success = -1.0
    best_path = final_path = curve_path = None
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        best_path = out_dir / "best.ckpt"
        final_path = out_dir / "final.ckpt"
        curve_path = out_dir / "curve.csv"
        ad.save_checkpoint(best_path, policy.state_dict())

    def run_eval(step):
        nonlocal eval_idx, best_success
        eval_rng = np.random.default_rng(np.random.SeedSequence((config.seed, 101, eval_idx)))
        eval_idx += 1
        success, mean_return = evaluate(policy, env_config, config.eval_episodes,
                                        eval_rng, greedy=config.eval_greedy)
        rows.append((step, episodes, success, mean_return,
                     stats.get("policy_loss", 0.0), stats.get("value_loss", 0.0),
                     stats.get("entropy", 0.0), config.seed))
        if out_dir is not None and success >= best_success:
            best_success = success
            ad.save_checkpoint(best_path, policy.state_dict())
        return success

    try:
        while steps_done < config.total_steps:
            batch = collect_rollouts(policy, carry, config.n_steps, rng_sample)
            stats = a2c_update(policy, opt, batch, config)
            steps_done += batch.n_transitions
            episodes += batch.episodes_finished
            while steps_done >= next_eval and next_eval <= config.total_steps:
                run_eval(steps_done)
                next_eval += config.eval_interval
        if config.total_steps > 0 and (not rows or rows[-1][0] != steps_done):
            run_eval(steps_done)
    finally:
        if out_dir is not None:
            ad.write_atomic(curve_path,
                            "\n".join([CURVE_HEADER, *map(_curve_line, rows)]) + "\n")
            ad.save_checkpoint(final_path, policy.state_dict())
    return TrainResult(rows, None if curve_path is None else str(curve_path),
                       policy, episodes, time.perf_counter() - t_start)


def steps_to_threshold(rows, threshold: float):
    """First evaluation step whose success rate reaches the threshold, else None."""
    for row in rows:
        if row[2] >= threshold:
            return row[0]
    return None


def benchmark_env_config() -> CarFlag1dConfig:
    return CarFlag1dConfig(half_size=10)


def benchmark_agent_config(variant: str, seed: int,
                           total_steps: int = 300_000) -> AgentConfig:
    """Sample-efficiency benchmark setup: both methods share every training
    hyperparameter; widths are chosen so free-parameter counts match (the
    constrained layers have roughly half the parameters per unit width)."""
    fields = 24 if variant.startswith("equi") else 16
    return AgentConfig(variant=variant, seed=seed, total_steps=total_steps,
                       eval_interval=10_000, eval_episodes=100, n_steps=20,
                       learning_rate=1e-3, lstm_fields=fields, head_fields=fields,
                       feed_prev_action=True)


def segment_loss_gradcheck(policy: RecurrentPolicy, env_config, config: AgentConfig,
                           env_seed: int, sample_seed: int) -> float:
    """Finite-difference check of ``segment_loss`` on collection's own graph.

    Each loss evaluation collects the segment afresh (new envs, sampling rng
    and carry from the same seeds), so the checked graph is the one training
    differentiates. The returns and advantages of the first collection stay
    fixed: the loss takes them as constants. Raises ``AgentError`` if a
    perturbed collection samples other actions than the first."""

    def collect():
        carry = start_carry(policy, env_config, config.n_envs, np.random.SeedSequence(env_seed))
        return collect_rollouts(policy, carry, config.n_steps, np.random.default_rng(sample_seed))

    first = collect()
    returns, advantages = compute_returns(first, config.discount)

    def build():
        batch = collect()
        if not np.array_equal(batch.actions, first.actions):
            raise AgentError("a perturbed collection sampled other actions than the "
                             "first; the finite differences would cross a sampling boundary")
        return segment_loss(policy, batch, config, returns, advantages)[0]

    return ad.gradcheck(build, policy.parameters())


def a2c_loss_gradcheck(seed: int = 0) -> float:
    """Finite-difference check of the full recurrent loss on a toy segment."""
    env_cfg = CarFlag1dConfig(half_size=5)
    cfg = AgentConfig(variant="equi", n_envs=2, n_steps=2, lstm_fields=2,
                      head_fields=2, seed=seed)
    policy = RecurrentPolicy(env_cfg, cfg, np.random.default_rng(seed))
    return segment_loss_gradcheck(policy, env_cfg, cfg, seed + 1, seed + 2)
