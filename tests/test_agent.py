import re

import numpy as np
import pytest

from equipomdp import autodiff as ad
from equipomdp.agent import (
    AgentConfig,
    AgentError,
    OracleQPolicy,
    RecurrentPolicy,
    RolloutBatch,
    collect_rollouts,
    compute_returns,
    a2c_update,
    benchmark_agent_config,
    benchmark_env_config,
    episode_streams,
    equivariance_residuals,
    evaluate,
    play_episodes,
    run_equivariance_suite,
    categorical_from_uniform,
    sample_categorical,
    segment_loss,
    segment_loss_gradcheck,
    start_carry,
    steps_to_threshold,
    train,
)
from equipomdp.autodiff import Adam
from equipomdp.envs import CarFlag1dConfig, CarFlag2dConfig, make_env, export_pomdp
from equipomdp.pomdp import exact_q
from reference_oracle import child_dicts
from reference_ops import branch_encode_prev_action, method_categorical_from_uniform

CFG_1D = CarFlag1dConfig(half_size=10)
CFG_2D = CarFlag2dConfig(grid_size=3)


def small_agent_config(**kw):
    base = dict(variant="equi", lstm_fields=3, head_fields=3, conv_fields=(2,),
                n_envs=4, n_steps=5, seed=0)
    base.update(kw)
    return AgentConfig(**base)


def make_policy(env_cfg=CFG_1D, seed=0, **kw):
    return RecurrentPolicy(env_cfg, small_agent_config(**kw), np.random.default_rng(seed))


def record_step_observations(policy, steps: list):
    """Append to ``steps`` a copy of each collection step's observation rows,
    as ``collect_rollouts`` hands them to ``policy.input_t``. The bootstrap
    calls, which reach ``input_t`` through ``step_values``, are left out."""
    input_t, step_values = policy.input_t, policy.step_values
    in_step_values = []

    def recording_input_t(obs, *args):
        if not in_step_values:
            steps.append(np.array(obs))
        return input_t(obs, *args)

    def marked_step_values(*args):
        in_step_values.append(True)
        try:
            return step_values(*args)
        finally:
            in_step_values.pop()

    policy.input_t, policy.step_values = recording_input_t, marked_step_values


def collect_once(env_cfg=CFG_1D, seed=0, n_steps=5, observations=None, **kw):
    """Collect one segment; ``observations``, if a list, receives each step's
    observation rows."""
    cfg = small_agent_config(**kw)
    policy = RecurrentPolicy(env_cfg, cfg, np.random.default_rng(seed))
    if observations is not None:
        record_step_observations(policy, observations)
    carry = start_carry(policy, env_cfg, cfg.n_envs, np.random.SeedSequence(seed))
    batch = collect_rollouts(policy, carry, n_steps, np.random.default_rng(seed + 1))
    return policy, batch, cfg


# ---------------------------------------------------------------------------
# Returns.
# ---------------------------------------------------------------------------

def blank_batch(n_steps, b):
    zeros = lambda *s: np.zeros(s)
    return RolloutBatch(
        actions=np.zeros((n_steps, b), dtype=np.int64),
        rewards=zeros(n_steps, b), terminated=np.zeros((n_steps, b), dtype=bool),
        truncated=np.zeros((n_steps, b), dtype=bool), values=zeros(n_steps, b),
        trunc_bootstrap=zeros(n_steps, b), bootstrap_value=zeros(b))


def test_returns_terminal_ignores_bootstrap():
    batch = blank_batch(1, 1)
    batch.rewards[0, 0] = 1.0
    batch.terminated[0, 0] = True
    batch.bootstrap_value[0] = 99.0
    returns, _ = compute_returns(batch, 0.9)
    assert returns[0, 0] == 1.0


def test_returns_zero_discount_is_myopic():
    batch = blank_batch(4, 2)
    batch.rewards[:] = np.arange(8).reshape(4, 2)
    batch.bootstrap_value[:] = 5.0
    returns, _ = compute_returns(batch, 0.0)
    assert np.array_equal(returns, batch.rewards)


def test_returns_truncation_bootstraps_final_value():
    batch = blank_batch(2, 1)
    batch.rewards[:, 0] = [-0.01, 0.5]
    batch.truncated[0, 0] = True
    batch.trunc_bootstrap[0, 0] = 2.0
    batch.bootstrap_value[0] = 7.0
    returns, _ = compute_returns(batch, 0.5)
    assert returns[1, 0] == pytest.approx(0.5 + 0.5 * 7.0)
    assert returns[0, 0] == pytest.approx(-0.01 + 0.5 * 2.0)


def brute_force_returns(batch, discount):
    n_steps, b = batch.rewards.shape
    out = np.zeros((n_steps, b))
    for i in range(b):
        for t in range(n_steps):
            total, factor = 0.0, 1.0
            k = t
            while k < n_steps:
                total += factor * batch.rewards[k, i]
                if batch.terminated[k, i]:
                    break
                if batch.truncated[k, i]:
                    total += factor * discount * batch.trunc_bootstrap[k, i]
                    break
                factor *= discount
                k += 1
            else:
                total += factor * batch.bootstrap_value[i]
            out[t, i] = total
    return out


def test_returns_match_brute_force_on_random_batches():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n_steps, b = int(rng.integers(1, 7)), int(rng.integers(1, 5))
        batch = blank_batch(n_steps, b)
        batch.rewards[:] = rng.normal(size=(n_steps, b))
        batch.bootstrap_value[:] = rng.normal(size=b)
        batch.trunc_bootstrap[:] = rng.normal(size=(n_steps, b))
        done = rng.random((n_steps, b)) < 0.3
        kind = rng.random((n_steps, b)) < 0.5
        batch.terminated[:] = done & kind
        batch.truncated[:] = done & ~kind
        discount = float(rng.uniform(0.0, 0.99))
        returns, adv = compute_returns(batch, discount)
        expect = brute_force_returns(batch, discount)
        assert np.max(np.abs(returns - expect)) < 1e-12
        assert np.array_equal(adv, returns - batch.values)


def test_returns_do_not_leak_across_episode_boundaries():
    batch = blank_batch(3, 1)
    batch.rewards[:, 0] = [1.0, 100.0, 100.0]
    batch.terminated[0, 0] = True
    batch.bootstrap_value[0] = 0.0
    returns, _ = compute_returns(batch, 0.9)
    assert returns[0, 0] == 1.0  # nothing from the next episode


# ---------------------------------------------------------------------------
# Collection.
# ---------------------------------------------------------------------------

def test_collect_batch_shape():
    cfg = small_agent_config(n_envs=16)
    policy = RecurrentPolicy(CFG_1D, cfg, np.random.default_rng(0))
    observations = []
    record_step_observations(policy, observations)
    carry = start_carry(policy, CFG_1D, 16, np.random.SeedSequence(0))
    batch = collect_rollouts(policy, carry, 5, np.random.default_rng(1))
    assert batch.n_transitions == 80
    assert batch.actions.shape == (5, 16)
    assert np.array(observations).shape == (5, 16, 2)


def test_collect_is_deterministic():
    obs1, obs2 = [], []
    _, b1, _ = collect_once(seed=4, observations=obs1)
    _, b2, _ = collect_once(seed=4, observations=obs2)
    assert len(obs1) == 5 and np.array_equal(obs1, obs2)
    assert np.array_equal(b1.actions, b2.actions)
    assert np.array_equal(b1.rewards, b2.rewards)


def test_collect_resets_state_rows_at_episode_end():
    """When env i's episode ends at step t < T-1, its row at step t+1 is one
    step from the fresh (zero) state on the new episode's first observation,
    with no previous action: collection's reset injects the fresh state
    exactly."""
    # tiny worlds: episodes end fast
    for env_cfg in (CarFlag1dConfig(half_size=2), CarFlag2dConfig(grid_size=5, max_steps=4)):
        cfg = small_agent_config(n_envs=4, feed_prev_action=True)
        policy = RecurrentPolicy(env_cfg, cfg, np.random.default_rng(0))
        observations = []
        record_step_observations(policy, observations)
        carry = start_carry(policy, env_cfg, 4, np.random.SeedSequence(2))
        batch = collect_rollouts(policy, carry, 20, np.random.default_rng(3))
        n_steps, b = batch.actions.shape
        hidden = batch.hidden.value.reshape(n_steps, b, -1)
        ts, bs = np.nonzero((batch.terminated | batch.truncated)[:-1])
        assert batch.terminated[:-1].any()
        realized = policy.realize()
        h0, c0 = policy.initial_state(b)
        for t, i in zip(ts, bs):
            # every row fresh, so the call has collection's row count
            fresh, _ = policy.step_values(observations[t + 1], h0, c0, realized,
                                          np.full(b, -1))
            assert np.array_equal(hidden[t + 1, i], fresh[i]), (env_cfg, t, i)


@pytest.mark.parametrize("env_cfg", [CarFlag1dConfig(half_size=5, max_steps=3),
                                     CarFlag2dConfig(grid_size=5, max_steps=3)],
                         ids=["1d", "2d"])
def test_collect_bookkeeping_at_truncations_and_segment_end(env_cfg):
    """Episodes truncate inside the segment: the truncation bootstrap is set
    exactly where a row truncated, every finished episode is counted, and the
    segment-end bootstrap is the critic one step past the returned carry."""
    cfg = small_agent_config(n_envs=4, feed_prev_action=True)
    policy = RecurrentPolicy(env_cfg, cfg, np.random.default_rng(0))
    carry = start_carry(policy, env_cfg, 4, np.random.SeedSequence(5))
    batch = collect_rollouts(policy, carry, 10, np.random.default_rng(6))
    trunc = batch.truncated
    assert trunc.any() and not trunc.all()
    assert np.all(batch.trunc_bootstrap[~trunc] == 0.0)
    assert np.all(batch.trunc_bootstrap[trunc] != 0.0)
    assert batch.episodes_finished == (batch.terminated | trunc).sum()
    realized = policy.realize()
    h, _ = policy.step_values(carry["obs"], carry["h"], carry["c"], realized, carry["prev"])
    assert np.array_equal(batch.bootstrap_value,
                          policy.values_t(ad.constant(h), realized).value)


def test_collect_equivariant_policy_on_transformed_script():
    """Replaying a g-transformed observation script must permute every
    per-step action distribution by g."""
    policy = make_policy(CFG_1D, seed=7)
    sym = policy.sym
    rng = np.random.default_rng(8)
    seq = [rng.normal(size=2) for _ in range(12)]
    realized = policy.realize()
    h, c = policy.initial_state(1)
    gh, gc = policy.initial_state(1)
    for obs in seq:
        h, c = policy.step_values(obs[None], h, c, realized)
        gh, gc = policy.step_values(sym.act_on_obs(1, obs)[None], gh, gc, realized)
        logits = policy.logits_t(ad.constant(h), realized).value
        glogits = policy.logits_t(ad.constant(gh), realized).value
        assert np.max(np.abs(glogits[0][sym.action_map[1]] - logits[0])) < 1e-10


@pytest.mark.parametrize("env_cfg,kw", [
    (CarFlag1dConfig(half_size=2), dict(variant="equi")),
    (CarFlag1dConfig(half_size=2), dict(variant="plain")),
    (CarFlag2dConfig(grid_size=5, max_steps=6), dict(variant="equi")),
    (CarFlag1dConfig(half_size=2), dict(variant="equi", lstm_init="random")),
    (CarFlag2dConfig(grid_size=7, max_steps=6), dict(variant="equi", conv_fields=(4, 8))),
], ids=["1d-equi", "1d-plain", "2d-5x5", "1d-random-init", "2d-7x7"])
def test_collection_matches_update_forward_exactly(env_cfg, kw):
    """The update's loss reads collection's segment: its value loss equals
    the one the collected values imply, and its entropy, from the actor head
    run once on all T*B stacked rows, equals the entropy of the actor run step
    by step on each step's rows, bit for bit, across several segments with
    episode resets inside them."""
    cfg = small_agent_config(**kw)
    policy = RecurrentPolicy(env_cfg, cfg, np.random.default_rng(0))
    state_rng = np.random.default_rng(2) if cfg.lstm_init == "random" else None
    carry = start_carry(policy, env_cfg, cfg.n_envs, np.random.SeedSequence(1), state_rng)
    opt = Adam(policy.parameters(), cfg.learning_rate)
    rng = np.random.default_rng(3)
    resets = 0
    for _ in range(4):
        batch = collect_rollouts(policy, carry, 8, rng)
        resets += int((batch.terminated | batch.truncated)[:-1].sum())
        returns, advantages = compute_returns(batch, cfg.discount)
        _, stats = segment_loss(policy, batch, cfg, returns, advantages)
        assert stats["value_loss"] == ((returns - batch.values) ** 2).mean()
        realized = policy.realize()
        entropies = []
        for rows in np.split(batch.hidden.value, 8):
            logits = policy.logits_t(ad.constant(rows), realized).value
            logp = logits - logits.max(axis=-1, keepdims=True)
            logp = logp - np.log(np.exp(logp).sum(axis=-1, keepdims=True))
            entropies.append(-(np.exp(logp) * logp).sum(axis=-1))
        assert stats["entropy"] == np.mean(entropies)
        a2c_update(policy, opt, batch, cfg)
    assert resets > 0


# ---------------------------------------------------------------------------
# Updates.
# ---------------------------------------------------------------------------

def test_zero_advantage_zero_value_error_leaves_only_entropy_gradient():
    policy, batch, cfg = collect_once(seed=5)
    returns, advantages = compute_returns(batch, cfg.discount)
    advantages[:] = 0.0
    returns[:] = batch.values  # zero value error: the loss reads these same predictions
    loss, _ = segment_loss(policy, batch, cfg, returns, advantages)
    ad.backward(loss)
    grads = {p.name: p.grad.copy() for p in policy.parameters() if p.grad is not None}
    if not any(np.max(np.abs(g)) > 0 for g in grads.values()):
        pytest.fail("entropy term produced no gradient at all")

    cfg_no_ent = small_agent_config(entropy_coef=0.0)
    loss2, _ = segment_loss(policy, batch, cfg_no_ent, returns, advantages)
    ad.backward(loss2)
    for p in policy.parameters():
        # with the entropy term removed, every gradient vanishes
        assert p.grad is not None, p.name
        assert np.max(np.abs(p.grad)) < 1e-12, p.name


# on 5x5 the second conv layer reads the first one's output: the check then
# differentiates a conv input, which the 3x3 agent's one layer never does
@pytest.mark.parametrize("env_cfg", [CFG_1D, CFG_2D, CarFlag2dConfig(grid_size=5)],
                         ids=["carflag1d", "carflag2d", "carflag2d-5x5"])
@pytest.mark.parametrize("variant", ["equi", "plain"])
def test_a2c_loss_matches_finite_differences(env_cfg, variant):
    # every loss evaluation collects the segment again, through the graph
    # training differentiates
    cfg = small_agent_config(variant=variant, n_envs=2, n_steps=2, lstm_fields=2,
                             head_fields=2)
    policy = RecurrentPolicy(env_cfg, cfg, np.random.default_rng(11))
    assert segment_loss_gradcheck(policy, env_cfg, cfg, 12, 13) < 1e-4


def graph_nodes(loss):
    """Every node the loss graph reaches."""
    seen, stack = {}, [loss]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node.parents)
    return list(seen.values())


def primitive(node) -> str:
    """The autodiff function that made a node, read off its backward closure."""
    return node.bwd.__qualname__.split(".<locals>")[0]


# the program's primitives: its layers, the tied weight, the kernel's transpose
# and the loss
PRIMITIVES = {"tied", "transpose", "affine", "conv2d", "LstmSegment.node", "concat", "reshape",
              "a2c_loss"}
# a battery case named otherwise than its primitive
CASE_PRIMITIVES = {"lstm_segment": "LstmSegment.node"}


def case_primitive(case: str) -> str:
    """The autodiff function a gradcheck battery case checks: the case's name
    or its longest ``_``-separated prefix that autodiff defines."""
    if case in CASE_PRIMITIVES:
        return CASE_PRIMITIVES[case]
    parts = case.split("_")
    return next(("_".join(parts[:k]) for k in range(len(parts), 0, -1)
                 if callable(getattr(ad, "_".join(parts[:k]), None))), case)


def test_every_primitive_of_an_update_has_a_gradcheck_case():
    """Every node of one update's loss graph, on 1D ``equi`` and ``plain`` at
    the benchmark configs and on 2D 5x5 with previous actions fed, comes from
    a primitive the gradcheck battery checks; and every battery case checks a
    function autodiff still defines. The battery covers the program's
    primitives and ``tsum``, its scalar reduction."""
    checked = {case: case_primitive(case) for case in ad.primitive_gradcheck_battery(seed=0)}
    for case, name in checked.items():
        owner, _, attr = name.rpartition(".")
        assert callable(getattr(getattr(ad, owner) if owner else ad, attr, None)), case
    assert set(checked.values()) == PRIMITIVES | {"tsum"}
    setups = [(benchmark_env_config(), benchmark_agent_config(v, 0)) for v in ("equi", "plain")]
    setups.append((CarFlag2dConfig(grid_size=5), AgentConfig(feed_prev_action=True)))
    for env_cfg, cfg in setups:
        policy = RecurrentPolicy(env_cfg, cfg, np.random.default_rng(0))
        carry = start_carry(policy, env_cfg, cfg.n_envs, np.random.SeedSequence(0))
        batch = collect_rollouts(policy, carry, cfg.n_steps, np.random.default_rng(1))
        loss, _ = segment_loss(policy, batch, cfg, *compute_returns(batch, cfg.discount))
        used = {primitive(n) for n in graph_nodes(loss) if n.bwd is not None}
        assert used <= set(checked.values()), (env_cfg, cfg.variant)


@pytest.mark.parametrize("env_cfg,conv_layers", [
    (CFG_1D, 0), (CarFlag2dConfig(grid_size=5), 2),
], ids=["1d", "2d-5x5"])
def test_update_differentiates_collections_graph(env_cfg, conv_layers, monkeypatch):
    """The loss reaches exactly one LSTM segment node, with one input per
    collected step, and on 2D one ``conv2d`` node per step and layer, all
    built during collection: the update runs no second forward. The loss is
    one ``a2c_loss`` node, and no node is an elementwise primitive."""
    built = {"segment": [], "conv2d": []}

    def recorded(make, nodes):
        def recording(*args):
            nodes.append(make(*args))
            return nodes[-1]
        return recording

    monkeypatch.setattr(ad.LstmSegment, "node", recorded(ad.LstmSegment.node, built["segment"]))
    monkeypatch.setattr(ad, "conv2d", recorded(ad.conv2d, built["conv2d"]))
    n_steps = 6
    policy, batch, cfg = collect_once(env_cfg, seed=3, n_steps=n_steps)
    collected = {name: {id(n) for n in nodes} for name, nodes in built.items()}
    returns, advantages = compute_returns(batch, cfg.discount)
    loss, _ = segment_loss(policy, batch, cfg, returns, advantages)
    assert {name: len(nodes) for name, nodes in built.items()} == {
        name: len(ids) for name, ids in collected.items()}   # none built in the update
    nodes = graph_nodes(loss)
    for name, prefix, count in (("segment", "LstmSegment.node.", 1),
                                ("conv2d", "conv2d.", n_steps * conv_layers)):
        hit = [n for n in nodes if n.bwd is not None and n.bwd.__qualname__.startswith(prefix)]
        assert len(hit) == count, name
        assert {id(n) for n in hit} <= collected[name], name
        if name == "segment":   # the step inputs, then the weight and the bias
            assert len(hit[0].parents) == n_steps + 2
    made = [primitive(n) for n in nodes if n.bwd is not None]
    assert primitive(loss) == "a2c_loss" and made.count("a2c_loss") == 1
    assert set(made) <= PRIMITIVES


def test_backward_prunes_constants_without_changing_parameter_gradients(monkeypatch):
    """On a 2D 5x5 segment loss, every parameter's gradient equals, bit for
    bit, its gradient when every constant is made a parameter. The constants
    keep ``.grad`` None, so the first convolution's observation input gets no
    gradient, though it lies on the loss's graph."""
    make_constant = ad.constant

    def run(promote):
        made = []

        def constant(value):
            made.append(ad.parameter(value, "promoted") if promote else make_constant(value))
            return made[-1]

        monkeypatch.setattr(ad, "constant", constant)
        policy, batch, cfg = collect_once(CarFlag2dConfig(grid_size=5), seed=4,
                                          feed_prev_action=True)
        returns, advantages = compute_returns(batch, cfg.discount)
        loss, _ = segment_loss(policy, batch, cfg, returns, advantages)
        ad.backward(loss)
        return {p.name: p.grad for p in policy.parameters()}, made, batch.actions.shape[0]

    grads, constants, n_steps = run(promote=False)
    promoted_grads, promoted, _ = run(promote=True)
    assert grads.keys() == promoted_grads.keys()
    for name, g in grads.items():
        assert np.array_equal(g, promoted_grads[name]), name
    assert all(t.grad is None for t in constants)
    observations = [i for i, t in enumerate(promoted) if t.value.shape[1:] == (2, 5, 5)]
    # the per-step trunk inputs lie on the loss's graph; the bootstrap calls' do not
    assert sum(promoted[i].grad is not None for i in observations) == n_steps


def test_update_refuses_a_batch_it_already_used():
    policy, batch, cfg = collect_once(seed=6)
    opt = Adam(policy.parameters(), cfg.learning_rate)
    a2c_update(policy, opt, batch, cfg)
    assert batch.hidden is None   # the graph is freed with the update
    with pytest.raises(AgentError, match="an update already used it"):
        a2c_update(policy, opt, batch, cfg)


def test_update_runs_and_keeps_parameters_finite():
    policy, batch, cfg = collect_once(seed=6)
    opt = Adam(policy.parameters(), cfg.learning_rate)
    stats = a2c_update(policy, opt, batch, cfg)
    assert np.isfinite(stats["loss"])
    for p in policy.parameters():
        assert np.all(np.isfinite(p.value))


def test_equivariance_survives_many_updates():
    env_cfg = CFG_1D
    cfg = small_agent_config(n_envs=4)
    policy = RecurrentPolicy(env_cfg, cfg, np.random.default_rng(20))
    opt = Adam(policy.parameters(), 1e-3)
    carry = start_carry(policy, env_cfg, 4, np.random.SeedSequence(21))
    rng = np.random.default_rng(22)
    for _ in range(25):
        batch = collect_rollouts(policy, carry, 5, rng)
        a2c_update(policy, opt, batch, cfg)
    a, c = equivariance_residuals(policy, histories=5, max_len=20,
                                  rng=np.random.default_rng(23))
    assert max(a, c) < 1e-8


# ---------------------------------------------------------------------------
# Whole-network equivariance suite.
# ---------------------------------------------------------------------------

def test_equivariance_suite_zero_init_passes_and_random_init_fails():
    ok = run_equivariance_suite(networks=6, histories=3, max_len=15, seed=1)
    assert ok["max"] < 1e-8
    broken = run_equivariance_suite(networks=6, histories=3, max_len=15, seed=1,
                                    lstm_init="random")
    assert broken["max"] > 1e-3


def test_2d_policy_equivariance():
    policy = make_policy(CFG_2D, seed=9)
    a, c = equivariance_residuals(policy, histories=8, max_len=12,
                                  rng=np.random.default_rng(10))
    assert max(a, c) < 1e-8


def test_plain_policy_is_not_equivariant():
    policy = make_policy(CFG_1D, seed=9, variant="plain")
    a, c = equivariance_residuals(policy, histories=8, max_len=12,
                                  rng=np.random.default_rng(10))
    assert max(a, c) > 1e-3


def test_partial_variants_break_only_one_head():
    actor_only = make_policy(CFG_1D, seed=13, variant="equi-actor-only")
    a, c = equivariance_residuals(actor_only, histories=6, max_len=10,
                                  rng=np.random.default_rng(14))
    assert a < 1e-8 and c > 1e-6
    critic_only = make_policy(CFG_1D, seed=13, variant="equi-critic-only")
    a, c = equivariance_residuals(critic_only, histories=6, max_len=10,
                                  rng=np.random.default_rng(14))
    assert c < 1e-8 and a > 1e-6


@pytest.mark.parametrize("field,value", [
    ("learning_rate", 0.0), ("learning_rate", -1e-3), ("learning_rate", float("nan")),
    ("learning_rate", float("inf")), ("entropy_coef", float("nan")),
    ("value_coef", float("inf")), ("grad_clip", float("nan")),
])
def test_agent_config_rejects_bad_floats(field, value):
    # a negative rate used to run gradient ascent without a word
    with pytest.raises(AgentError, match=f"{field} must be finite.*{re.escape(str(value))}"):
        AgentConfig(**{field: value})


def test_agent_config_validation():
    with pytest.raises(AgentError):
        AgentConfig(variant="mystery")
    with pytest.raises(AgentError):
        AgentConfig(discount=1.0)
    with pytest.raises(AgentError):
        AgentConfig(entropy_coef=-0.1)
    with pytest.raises(AgentError):
        AgentConfig(lstm_init="gaussian")


@pytest.mark.parametrize("field,value", [
    ("n_envs", 0), ("n_steps", 0), ("eval_interval", 0), ("eval_interval", -5),
    ("eval_episodes", 0), ("total_steps", -1), ("lstm_fields", 0), ("head_fields", 0),
    ("head_fields", -2), ("conv_fields", ()), ("conv_fields", (0,)), ("conv_fields", (4, 0)),
])
def test_agent_config_rejects_empty_loops(field, value):
    # each of these used to hang train, or fail deep inside it without naming the field
    with pytest.raises(AgentError, match=f"{field} .*{re.escape(str(value))}"):
        AgentConfig(**{field: value})


@pytest.mark.parametrize("env_cfg,cfg,count", [
    (CFG_1D, benchmark_agent_config("equi", 0), 7418),
    (CFG_1D, benchmark_agent_config("plain", 0), 6819),
    (CarFlag2dConfig(grid_size=7), AgentConfig(variant="equi"), 11918),
], ids=["1d-equi", "1d-plain", "2d-equi"])
def test_parameter_counts_stay_matched(env_cfg, cfg, count):
    # the sample-efficiency benchmark compares parameter-matched networks
    policy = RecurrentPolicy(env_cfg, cfg, np.random.default_rng(0))
    assert sum(p.value.size for p in policy.parameters()) == count


# ---------------------------------------------------------------------------
# Evaluation.
# ---------------------------------------------------------------------------

class AlwaysAction:
    def __init__(self, action):
        self.action = action

    def reset(self):
        pass

    def act(self, obs, rng):
        return self.action


class PolicyRunner:
    """Sequential reference for ``play_episodes``: one episode at a time, with
    a fresh recurrent state per episode. The weights are realized once, when
    the runner is built."""

    def __init__(self, policy, greedy=False, state_rng=None):
        self.policy = policy
        self.realized = policy.realize()
        self.greedy = greedy
        self.state_rng = state_rng

    def reset(self):
        self.h, self.c = self.policy.initial_state(1, self.state_rng)
        self.prev = np.full(1, -1, dtype=np.int64)

    def act(self, obs, rng):
        self.h, self.c = self.policy.step_values(obs[None], self.h, self.c, self.realized,
                                                 self.prev)
        logits = self.policy.logits_t(ad.constant(self.h), self.realized).value
        if self.greedy:
            action = int(np.argmax(logits[0]))
        else:
            action = int(sample_categorical(logits, rng)[0])
        self.prev[0] = action
        return action


class OracleRunner:
    """Sequential reference for ``OracleQPolicy``: walks the solution's belief
    classes by their children dicts, one episode at a time, and acts greedily."""

    def __init__(self, solution, maps):
        self.solution = solution
        self.maps = maps
        self.children = child_dicts(solution)

    def reset(self):
        self.node = None    # (depth, class, action taken) after the last step

    def act(self, obs, rng=None):
        sol, o = self.solution, self.maps.obs_id_of_array(obs)
        if self.node is None:
            depth, c = 0, sol.roots[(o,)]
        else:
            depth, c, a = self.node
            depth, c = depth + 1, self.children[depth][c][(a, o)][1]
        a = int(np.argmax(sol.q[depth][c]))
        self.node = (depth, c, a)
        return a


def play_alone(runner, env_cfg, env_rng, act_rng):
    """(success, return, actions) of one episode played one step at a time."""
    env = make_env(env_cfg, env_rng)
    obs, total, actions, done = env.reset(), 0.0, [], False
    runner.reset()
    while not done:
        actions.append(runner.act(obs, act_rng))
        obs, reward, term, trunc = env.step(actions[-1])
        total, done = total + reward, term or trunc
    return term and reward > 0, total, actions


def test_always_left_never_finds_right_goal():
    cfg = CarFlag1dConfig(half_size=5)
    env = make_env(cfg, np.random.default_rng(30))
    successes = 0
    episodes = 40
    rng = np.random.default_rng(31)
    runner = AlwaysAction(0)  # always Left
    for _ in range(episodes):
        obs = env.reset()
        goal_right = env.goal_side == 1
        runner.reset()
        while True:
            obs, r, term, trunc = env.step(runner.act(obs, rng))
            if term or trunc:
                if goal_right:
                    assert not (term and r > 0)
                break


def test_oracle_greedy_policy_is_perfect_on_3x3():
    pomdp, binding, maps = export_pomdp(CFG_2D)
    oracle = OracleQPolicy(exact_q(pomdp, horizon=6), maps)
    success, mean_return = evaluate(oracle, CFG_2D, 50, np.random.default_rng(40), greedy=True)
    assert success == 1.0
    assert mean_return == 1.0


def test_oracle_policy_refuses_steps_past_its_horizon():
    pomdp, _, maps = export_pomdp(CFG_2D)
    oracle = OracleQPolicy(exact_q(pomdp, horizon=1), maps)
    # every start is 2+ steps from the goal, so each episode reaches step 1
    with pytest.raises(AgentError, match="at step 1 is outside the tree solved to horizon 1"):
        evaluate(oracle, CFG_2D, 3, np.random.default_rng(42), greedy=True)


def test_oracle_refuses_sampled_play():
    pomdp, _, maps = export_pomdp(CFG_2D)
    oracle = OracleQPolicy(exact_q(pomdp, horizon=2), maps)
    with pytest.raises(AgentError, match="cannot sample actions from Q-values"):
        evaluate(oracle, CFG_2D, 3, np.random.default_rng(43), greedy=False)


@pytest.mark.parametrize("env_cfg,horizon", [
    (CFG_2D, 6),
    (CarFlag1dConfig(half_size=4), 50),
], ids=["3x3-h6", "1d-half4-h50"])
def test_batched_oracle_matches_each_episode_run_alone(env_cfg, horizon):
    """Each episode of a batched oracle evaluation ends exactly as it does when
    the solution's classes are walked alone, on its own env stream."""
    pomdp, _, maps = export_pomdp(env_cfg)
    solution = exact_q(pomdp, horizon=horizon)
    n = 12
    successes, returns, actions = play_episodes(
        OracleQPolicy(solution, maps), env_cfg,
        episode_streams(np.random.default_rng(25), n), greedy=True)
    for i, (env_seq, act_seq, _) in enumerate(episode_streams(np.random.default_rng(25), n)):
        alone = play_alone(OracleRunner(solution, maps), env_cfg,
                           np.random.default_rng(env_seq), np.random.default_rng(act_seq))
        assert (bool(successes[i]), float(returns[i]), actions[i]) == alone, i
    assert len(set(map(len, actions))) > 1   # rows drop out of the batch at different steps


def test_greedy_play_mirrors_exactly():
    """Paired episodes: starting from the mirrored state, a greedy equivariant
    policy must produce the mirrored action sequence and the same outcome."""
    env_cfg = CarFlag1dConfig(half_size=8)
    policy = make_policy(env_cfg, seed=31)
    sym = policy.sym
    cfg = env_cfg
    from equipomdp.envs import CarFlag1d
    rng = np.random.default_rng(32)
    for pos in (-5, -2, 3, 6):
        for side in (-1, 1):
            runs = {}
            for g in (0, 1):
                env = CarFlag1d(cfg, np.random.default_rng(0))
                env.pos = -pos if g else pos
                env.goal_side = -side if g else side
                env.done, env.steps = False, 0
                runner = PolicyRunner(policy, greedy=True)
                runner.reset()
                obs = env.observe()
                actions, outcome = [], None
                for _ in range(cfg.max_steps):
                    a = runner.act(obs, rng)
                    actions.append(a)
                    obs, r, term, trunc = env.step(a)
                    if term or trunc:
                        outcome = (term and r > 0, term, round(r, 6))
                        break
                runs[g] = (actions, outcome)
            mirrored = [int(sym.action_map[1][a]) for a in runs[0][0]]
            assert runs[1][0] == mirrored
            assert runs[1][1] == runs[0][1]


def test_evaluate_network_policy_runs():
    policy = make_policy(CFG_1D, seed=15)
    success, ret = evaluate(policy, CFG_1D, 5, np.random.default_rng(16))
    assert 0.0 <= success <= 1.0
    assert np.isfinite(ret)
    with pytest.raises(AgentError, match="at least 1 episode, got 0"):
        evaluate(policy, CFG_1D, 0, np.random.default_rng(16))


@pytest.mark.parametrize("env_cfg,greedy,lstm_init", [
    (CFG_1D, False, "zero"),
    (CFG_1D, True, "zero"),
    (CFG_1D, False, "random"),
    (CFG_2D, False, "zero"),
    (CFG_2D, True, "random"),
], ids=["1d-sampled", "1d-greedy", "1d-random-init", "2d-sampled", "2d-greedy-random-init"])
def test_batched_evaluation_matches_each_episode_run_alone(env_cfg, greedy, lstm_init):
    """Each episode of a batched evaluation ends exactly as it does when played
    alone, one step at a time, on its own env, action and state streams."""
    policy = make_policy(env_cfg, seed=2, lstm_init=lstm_init)
    n = 12
    successes, returns, actions = play_episodes(
        policy, env_cfg, episode_streams(np.random.default_rng(24), n), greedy)
    for i, (env_seq, act_seq, state_seq) in enumerate(
            episode_streams(np.random.default_rng(24), n)):
        runner = PolicyRunner(policy, greedy=greedy, state_rng=np.random.default_rng(state_seq))
        alone = play_alone(runner, env_cfg, np.random.default_rng(env_seq),
                           np.random.default_rng(act_seq))
        assert (bool(successes[i]), float(returns[i]), actions[i]) == alone, i
    assert len(set(map(len, actions))) > 1   # rows drop out of the batch at different steps
    assert evaluate(policy, env_cfg, n, np.random.default_rng(24), greedy=greedy) == (
        successes.mean(), returns.mean())


def test_episode_streams_are_the_spawned_generators():
    """Episode i's (env, action, state) streams are the seed sequences whose
    generators are the ones ``rng.spawn(episodes)[i].spawn(3)`` gives, drawn
    for draw, and the root's spawn counter advances by ``episodes``."""
    rng = np.random.default_rng(26)
    got = episode_streams(rng, 5)
    want = [ep.spawn(3) for ep in np.random.default_rng(26).spawn(5)]
    assert rng.bit_generator.seed_seq.n_children_spawned == 5
    assert len(got) == len(want)
    for streams, ref in zip(got, want):
        assert len(streams) == len(ref) == 3
        for seq, r in zip(streams, ref):
            assert isinstance(seq, np.random.SeedSequence)
            g = np.random.default_rng(seq)
            assert g.bit_generator.state == r.bit_generator.state
            assert np.array_equal(g.random(8), r.random(8))


def test_sample_categorical_distribution():
    rng = np.random.default_rng(17)
    logits = np.tile(np.log(np.array([0.7, 0.2, 0.1])), (20000, 1))
    actions = sample_categorical(logits, rng)
    freq = np.bincount(actions, minlength=3) / len(actions)
    assert np.max(np.abs(freq - [0.7, 0.2, 0.1])) < 0.02


@pytest.mark.parametrize("n_actions", [2, 4])
def test_sampling_is_the_method_call_form_bit_for_bit(n_actions):
    """``categorical_from_uniform``'s ufunc calls draw what the method-call
    form draws, on spread logits, tied logits and logits of +-700, with the
    uniform at each cumulative probability exactly, at the ends of [0, 1)
    and in between."""
    rng = np.random.default_rng(n_actions)
    tied = np.zeros((3, n_actions))
    tied[1, :2] = 5.0
    tied[2, 1:] = -2.0
    logits = np.concatenate([3.0 * rng.normal(size=(32, n_actions)), tied,
                             rng.choice([-700.0, 700.0], size=(8, n_actions))])
    p = np.exp(logits - logits.max(axis=-1, keepdims=True))
    cums = np.cumsum(p / p.sum(axis=-1, keepdims=True), axis=-1)
    uniforms = [cums[:, [j]] for j in range(n_actions)]
    uniforms += [np.zeros((len(logits), 1)), np.full((len(logits), 1), np.nextafter(1.0, 0.0)),
                 rng.random((len(logits), 1))]
    for u in uniforms:
        got = categorical_from_uniform(logits, u)
        want = method_categorical_from_uniform(logits, u)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("env_cfg", [CFG_1D, CFG_2D], ids=["A=2", "A=4"])
def test_prev_action_encoding_is_the_branch_form_bit_for_bit(env_cfg):
    """The table lookup encodes every previous action, -1 included, as the
    per-domain branches did: a signed scalar on 1D, one-hot on 2D."""
    policy = make_policy(env_cfg, feed_prev_action=True)
    prev = np.arange(-1, policy.n_actions)
    prev = np.concatenate([prev, prev[::-1]])
    got = policy.encode_prev_action(prev)
    want = branch_encode_prev_action(prev, policy.n_actions)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# Training loop.
# ---------------------------------------------------------------------------

def test_train_zero_steps_gives_empty_curve_and_checkpoint(tmp_path):
    cfg = small_agent_config(total_steps=0)
    result = train(CFG_1D, cfg, tmp_path / "run")
    assert result.rows == []
    assert (tmp_path / "run" / "best.ckpt").exists()
    assert (tmp_path / "run" / "curve.csv").read_text().strip().endswith("seed")


def test_train_smoke_and_curve_schema(tmp_path):
    cfg = small_agent_config(total_steps=400, eval_interval=200, eval_episodes=3)
    result = train(CFG_1D, cfg, tmp_path / "run")
    text = (tmp_path / "run" / "curve.csv").read_text().splitlines()
    assert text[0] == "step,episodes,success_rate,mean_return,policy_loss,value_loss,entropy,seed"
    assert len(text) >= 2
    assert len(result.rows) >= 1
    assert result.rows[-1][0] >= 400


def test_train_is_bit_deterministic(tmp_path):
    cfg = small_agent_config(total_steps=300, eval_interval=150, eval_episodes=3, seed=5)
    train(CFG_1D, cfg, tmp_path / "a")
    train(CFG_1D, cfg, tmp_path / "b")
    assert (tmp_path / "a" / "curve.csv").read_bytes() == (tmp_path / "b" / "curve.csv").read_bytes()
    assert (tmp_path / "a" / "final.ckpt").read_bytes() == (tmp_path / "b" / "final.ckpt").read_bytes()


def test_train_2d_is_bit_deterministic(tmp_path):
    cfg = small_agent_config(conv_fields=(4, 8), total_steps=800, eval_interval=800,
                             eval_episodes=3, seed=5)
    env_cfg = CarFlag2dConfig(grid_size=7)
    train(env_cfg, cfg, tmp_path / "a")
    train(env_cfg, cfg, tmp_path / "b")
    assert (tmp_path / "a" / "curve.csv").read_bytes() == (tmp_path / "b" / "curve.csv").read_bytes()
    assert (tmp_path / "a" / "final.ckpt").read_bytes() == (tmp_path / "b" / "final.ckpt").read_bytes()


def test_realizing_again_after_an_in_place_parameter_change_reads_the_new_values():
    """Re-realized after its parameters are overwritten in place, a 2D policy
    gives the output of a fresh policy built with those values, bit for bit:
    no realized weight outlives the parameter values it was built from."""
    env_cfg = CarFlag2dConfig(grid_size=7)
    policy, fresh = (make_policy(env_cfg, seed=s, conv_fields=(2, 3)) for s in (21, 22))
    obs = make_env(env_cfg, np.random.default_rng(23)).reset()[None]
    h, c = policy.initial_state(1)

    def outputs(pol):
        realized = pol.realize()
        h2 = ad.constant(pol.step_values(obs, h, c, realized)[0])
        return pol.logits_t(h2, realized).value, pol.values_t(h2, realized).value

    before = outputs(policy)
    for p, q in zip(policy.parameters(), fresh.parameters()):
        p.value[...] = q.value
    after, want = outputs(policy), outputs(fresh)
    assert not np.array_equal(before[0], want[0])
    assert all(np.array_equal(a, w) for a, w in zip(after, want))


def test_col2im_index_cache_holds_only_the_training_backward_shapes(tmp_path):
    """After a 2D run whose evaluation plays fewer episodes than training
    steps envs, the scatter-index cache holds one entry per conv layer whose
    input takes a gradient, at the training batch: evaluation, which shrinks
    its batch as episodes end, adds none."""
    ad._col2im_index.cache_clear()
    cfg = small_agent_config(conv_fields=(2, 3), total_steps=200, eval_interval=100,
                             eval_episodes=3)
    env_cfg = CarFlag2dConfig(grid_size=7)
    train(env_cfg, cfg, tmp_path / "run")
    layers = make_policy(env_cfg, conv_fields=(2, 3)).extractor.layers
    sides = range(env_cfg.grid_size - 2, 0, -2)   # each layer's input side after the first
    held = ad._col2im_index.cache_info()
    assert held.currsize == len(layers) - 1
    for layer, side in zip(layers[1:], sides):   # each a hit: the shape is held
        ad._col2im_index((cfg.n_envs, layer.in_channels, side, side, 3, 3))
    assert ad._col2im_index.cache_info().hits == held.hits + len(layers) - 1


def test_steps_to_threshold():
    rows = [(100, 1, 0.2, 0, 0, 0, 0, 0), (200, 2, 0.95, 0, 0, 0, 0, 0),
            (300, 3, 0.8, 0, 0, 0, 0, 0)]
    assert steps_to_threshold(rows, 0.9) == 200
    assert steps_to_threshold(rows, 0.99) is None


def test_checkpoint_roundtrip_through_policy(tmp_path):
    policy = make_policy(CFG_1D, seed=18)
    path = tmp_path / "p.ckpt"
    ad.save_checkpoint(path, policy.state_dict())
    other = make_policy(CFG_1D, seed=19)
    other.load_state(ad.load_checkpoint(path))
    obs = np.random.default_rng(20).normal(size=(3, 2))
    h, c = policy.initial_state(3)
    outs = []
    for pol in (policy, other):
        realized = pol.realize()
        h2 = ad.constant(pol.step_values(obs, h, c, realized)[0])
        outs.append((pol.logits_t(h2, realized).value, pol.values_t(h2, realized).value))
    (l1, v1), (l2, v2) = outs
    assert np.array_equal(l1, l2)
    assert np.array_equal(v1, v2)


def test_checkpoint_shape_mismatch_names_both_shapes(tmp_path):
    # plain layers used to hold (out, in) matrices; their tied parameters are flat now
    policy = make_policy(CFG_1D, seed=21, variant="plain")
    old = policy.state_dict()
    for layer in [policy.cell.linear, *policy.actor.layers, *policy.critic.layers]:
        old[layer.weight.name] = layer.weight.value.reshape(layer.rho_out.dim, layer.in_dim)
    path = tmp_path / "old.ckpt"
    ad.save_checkpoint(path, old)
    hidden = policy.cell.hidden_dim
    rows, cols = 4 * hidden, policy.cell.rho_x.dim + hidden
    with pytest.raises(AgentError, match=r"lstm\.w: expected \(%d,\), found \(%d, %d\)"
                       % (rows * cols, rows, cols)):
        policy.load_state(ad.load_checkpoint(path))


# ---------------------------------------------------------------------------
# Architecture.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("env_cfg,cfg,lines", [
    (CFG_1D, benchmark_agent_config("equi", 0), [
        "lstm 3*sign -> 24*regular",
        "actor 24*regular -> 24*regular -> 1*regular",
        "critic 24*regular -> 24*regular -> 1*trivial"]),
    (CFG_1D, benchmark_agent_config("plain", 0), [
        "lstm 3 units -> 32 units",
        "actor 32 units -> 32 units -> 2 units",
        "critic 32 units -> 32 units -> 1 units"]),
    (CFG_1D, benchmark_agent_config("equi-actor-only", 0), [
        "lstm 3*sign -> 24*regular",
        "actor 24*regular -> 24*regular -> 1*regular",
        "critic 48 units -> 48 units -> 1 units"]),
    (CFG_1D, benchmark_agent_config("equi-critic-only", 0), [
        "lstm 3*sign -> 24*regular",
        "actor 48 units -> 48 units -> 2 units",
        "critic 24*regular -> 24*regular -> 1*trivial"]),
    (CarFlag2dConfig(grid_size=7), AgentConfig(variant="plain"), [
        "conv3x3 2 units -> 16 units (relu)",
        "conv3x3 16 units -> 32 units (relu)",
        "conv3x3 32 units -> 32 units (relu)",
        "lstm 32 units -> 64 units",
        "actor 64 units -> 64 units -> 4 units",
        "critic 64 units -> 64 units -> 1 units"]),
], ids=["1d-equi", "1d-plain", "1d-equi-actor-only", "1d-equi-critic-only", "2d-plain"])
def test_describe_names_each_layer(env_cfg, cfg, lines):
    # the manifest's [architecture] text: layers over the trivial group read as units
    policy = RecurrentPolicy(env_cfg, cfg, np.random.default_rng(0))
    assert policy.describe() == lines
