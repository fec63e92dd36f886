import re
import tracemalloc

import numpy as np
import pytest

from equipomdp.agent import AgentConfig, RecurrentPolicy, start_carry
from equipomdp.envs import (
    CarFlag1d,
    CarFlag1dConfig,
    CarFlag2d,
    CarFlag2dConfig,
    EnvError,
    InvalidActionError,
    PlacementError,
    env_group_binding,
    episode_trace,
    export_pomdp,
    make_env,
    step_envs,
)
from equipomdp.pomdp import (
    check_invariance,
    verify_belief_invariance,
    verify_value_invariance,
)
from export_maps import export_with_maps
from pomdp_builders import dense_obs, dense_trans
from reference_oracle import HistoryMdp, act_on_history

RIGHT, UP, LEFT, DOWN = range(4)
A_LEFT, A_RIGHT = 0, 1


def env1d(seed=0, **kw):
    return CarFlag1d(CarFlag1dConfig(**kw), np.random.default_rng(seed))


def env2d(seed=0, **kw):
    return CarFlag2d(CarFlag2dConfig(**kw), np.random.default_rng(seed))


# ---------------------------------------------------------------------------
# CarFlag-1D simulator.
# ---------------------------------------------------------------------------

def test_1d_reset_is_deterministic_and_valid():
    env = env1d(seed=3, half_size=25)
    obs = env.reset()
    env2 = env1d(seed=3, half_size=25)
    assert np.array_equal(obs, env2.reset())
    assert env.goal_side in (-1, 1)
    assert env.pos not in (-25, 0, 25)
    assert obs[1] == 0.0  # the car never starts on the information cell


def test_1d_goal_side_frequency():
    env = env1d(seed=10, half_size=10)
    sides = []
    for _ in range(10_000):
        env.reset()
        sides.append(env.goal_side)
    freq = np.mean(np.array(sides) == 1)
    assert abs(freq - 0.5) < 0.02


def test_1d_step_onto_goal():
    env = env1d(half_size=5)
    env.reset()
    env.pos, env.goal_side, env.done = 4, 1, False
    obs, reward, term, trunc = env.step(A_RIGHT)
    assert reward == 1.0 and term and not trunc
    assert obs[0] == 5.0


def test_1d_step_onto_red_flag():
    env = env1d(half_size=5)
    env.reset()
    env.pos, env.goal_side, env.done = -4, 1, False
    obs, reward, term, trunc = env.step(A_LEFT)
    assert reward == -1.0 and term and not trunc


def test_1d_step_reward_and_info_observation():
    env = env1d(half_size=5)
    env.reset()
    env.pos, env.goal_side, env.done = 1, -1, False
    obs, reward, term, trunc = env.step(A_LEFT)  # moves onto the info cell at 0
    assert reward == -0.01 and not term and not trunc
    assert obs[0] == 0.0 and obs[1] == -1.0
    obs, *_ = env.step(A_RIGHT)
    assert obs[1] == 0.0  # side hidden away from the info cell


def test_1d_reset_draws_as_a_choice_over_the_interior_cells():
    """A reset's start position is the draw ``rng.choice`` makes over the
    interior cells other than the information cell, then a fair side."""
    env = env1d(seed=3, half_size=6, info_offset=2)
    ref = np.random.default_rng(3)
    interior = [p for p in range(-5, 6) if p != 2]
    for _ in range(1000):
        env.reset()
        assert env.state == (int(ref.choice(interior)), 1 if ref.random() < 0.5 else -1)


def test_1d_truncates_after_max_steps():
    env = env1d(seed=1, half_size=25)
    env.reset()
    env.pos, env.goal_side = 0, 1
    last = None
    for t in range(50):
        # bounce between two interior cells so nothing terminates
        last = env.step(A_RIGHT if t % 2 == 0 else A_LEFT)
    obs, reward, term, trunc = last
    assert trunc and not term and reward == -0.01
    assert env.steps == 50
    with pytest.raises(EnvError):
        env.step(A_LEFT)


def test_1d_invalid_action():
    """Both simulators refuse an action out of range or not an integer, name
    it, and leave the episode where it was; a numpy integer in range steps as
    the int would."""
    for make, n_actions in ((env1d, 2), (env2d, 4)):
        for bad in (n_actions, -1, 1.0, 1.5, "1", None, np.float64(0.0)):
            env = make()
            env.reset()
            before = env.state
            with pytest.raises(InvalidActionError, match=re.escape(repr(bad))):
                env.step(bad)
            assert env.state == before and env.steps == 0
        for a in range(n_actions):
            plain, numpy_int = make(seed=a), make(seed=a)
            plain.reset()
            numpy_int.reset()
            out, out_np = plain.step(a), numpy_int.step(np.int64(a))
            assert plain.state == numpy_int.state
            assert np.array_equal(out[0], out_np[0]) and out[1:] == out_np[1:]


def test_step_envs_refuses_non_integer_actions():
    """``step_envs`` hands each env the Python number of its action, so a
    float is refused by name like ``env.step(0.7)``, not truncated, and an
    integer out of range is refused too; the env stays where it was."""
    for make, n_actions in ((env1d, 2), (env2d, 4)):
        for bad in (np.array([0.7]), np.array([1.9]), np.array([n_actions])):
            env = make()
            env.reset()
            before = env.state
            with pytest.raises(InvalidActionError, match=re.escape(repr(bad.tolist()[0]))):
                step_envs([env], bad)
            assert env.state == before and env.steps == 0


def test_1d_border_clamp():
    cfg = CarFlag1dConfig(half_size=5)
    env = CarFlag1d(cfg, np.random.default_rng(0))
    env.reset()
    env.pos, env.goal_side, env.done = -4, -1, False
    env.step(A_LEFT)  # lands exactly on the flag, terminal
    assert env.pos == -5


# ---------------------------------------------------------------------------
# CarFlag-2D simulator.
# ---------------------------------------------------------------------------

def test_2d_reset_constraints():
    env = env2d(seed=2, grid_size=3)
    for _ in range(200):
        obs = env.reset()
        assert np.array_equal(obs[1], np.zeros((3, 3)))  # goal hidden at start
        a, g = env.agent, env.goal
        assert a != (1, 1) and g != (1, 1)
        assert abs(a[0] - g[0]) + abs(a[1] - g[1]) >= 2


def test_2d_border_clamp():
    env = env2d(grid_size=3)
    env.reset()
    env.agent, env.goal, env.done = (0, 2), (2, 0), False
    obs, reward, term, trunc = env.step(RIGHT)
    assert env.agent == (0, 2)  # unchanged when stepping out of the world
    assert reward == 0.0 and not term


def test_2d_goal_reward_and_termination():
    env = env2d(grid_size=3)
    env.reset()
    env.agent, env.goal, env.done = (1, 0), (0, 0), False
    obs, reward, term, trunc = env.step(UP)
    assert reward == 1.0 and term


def test_2d_observation_reveals_goal_only_inside_info_region():
    env = env2d(grid_size=3)
    env.reset()
    env.agent, env.goal, env.done = (1, 0), (2, 2), False
    obs, *_ = env.step(RIGHT)  # now at the central info cell
    assert env.agent == (1, 1)
    assert obs[1][2, 2] == 1.0
    obs, *_ = env.step(RIGHT)
    assert not obs[1].any()


def test_2d_truncation():
    env = env2d(seed=5, grid_size=5)
    env.reset()
    env.agent, env.goal = (0, 0), (4, 4)
    for t in range(50):
        obs, reward, term, trunc = env.step(UP)  # clamped in the corner forever
    assert trunc and not term and env.steps == 50


def test_episode_determinism_given_seed_and_actions():
    actions = [RIGHT, UP, LEFT, DOWN, RIGHT, RIGHT, UP]
    t1 = episode_trace(env2d(seed=9, grid_size=5), actions)
    t2 = episode_trace(env2d(seed=9, grid_size=5), actions)
    assert t1 == t2


def test_vector_env_streams_are_independent_and_reproducible():
    """Collection's envs, as ``start_carry`` builds them from a seed sequence,
    and ``step_envs`` stepping them."""
    cfg = CarFlag1dConfig(half_size=10)
    policy = RecurrentPolicy(cfg, AgentConfig(lstm_fields=1, head_fields=1),
                             np.random.default_rng(0))
    c1, c2, alone = (start_carry(policy, cfg, 4, np.random.SeedSequence(7)) for _ in range(3))
    obs = c1["obs"]
    assert np.array_equal(obs, c2["obs"])
    assert len({tuple(row) for row in obs}) > 1  # streams differ per index
    for actions in ([0, 1, 1, 0], [1, 1, 0, 0], [0, 0, 0, 1]):
        stepped = step_envs(c1["envs"], actions)
        # the same as a second copy, and as each env stepped on its own
        for got, want in zip(stepped, step_envs(c2["envs"], actions)):
            assert np.array_equal(got, want)
        one_by_one = [env.step(a) for env, a in zip(alone["envs"], actions)]
        for got, want in zip(stepped, zip(*one_by_one)):
            assert np.array_equal(got, np.array(want))
        assert stepped[1].dtype == np.float64 and stepped[2].dtype == bool


def parent_observation(env):
    """The observation array built afresh from the env's state, as the
    simulators built it before they shared one array per observation."""
    if isinstance(env, CarFlag1d):
        side = env.goal_side if env.pos == env.config.info_offset else 0
        return np.array([float(env.pos), float(side)])
    n = env.config.grid_size
    out = np.zeros((2, n, n))
    out[0][env.agent] = 1.0
    if env.agent in env.config.info_cells():
        out[1][env.goal] = 1.0
    return out


@pytest.mark.parametrize("cfg", [
    CarFlag1dConfig(half_size=10),
    CarFlag1dConfig(half_size=10, info_offset=3),
    CarFlag2dConfig(grid_size=3),
    CarFlag2dConfig(grid_size=3, info_offset=1),
    CarFlag2dConfig(grid_size=5, info_offset=1),
    CarFlag2dConfig(grid_size=5, info_region_size=3),
    CarFlag2dConfig(grid_size=5, info_offset=1, info_region_size=3),
], ids=["1d-h10", "1d-h10-offset3", "3x3", "3x3-offset1", "5x5-offset1", "5x5-region3",
        "5x5-offset1-region3"])
def test_observations_are_shared_read_only_arrays(cfg):
    """In every state, ``observe`` returns the array built afresh from the
    state, bit for bit, read-only and shared: states with the same
    observation, in any env of the config, return the same object, and no
    later ``step`` or ``reset`` changes an array returned earlier."""
    env, other = make_env(cfg, np.random.default_rng(0)), make_env(cfg, np.random.default_rng(1))
    shared, returned = {}, []
    for st in env.states():
        env.state = other.state = st
        obs, want = env.observe(), parent_observation(env)
        assert obs.dtype == want.dtype and obs.shape == want.shape
        assert obs.tobytes() == want.tobytes(), st
        assert not obs.flags.writeable
        assert other.observe() is obs
        assert shared.setdefault(want.tobytes(), obs) is obs, st
        returned.append((obs, want))
    assert len(shared) < len(returned)   # some states share an observation
    with pytest.raises(ValueError, match="read-only"):
        returned[0][0][...] = 7.0
    for _ in range(20):
        obs = env.reset()
        assert obs is shared[parent_observation(env).tobytes()]
        while True:
            obs, _, term, trunc = env.step(int(env.rng.integers(env.n_actions)))
            assert obs is shared[parent_observation(env).tobytes()]
            if term or trunc:
                break
    for obs, want in returned:
        assert obs.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# Group bindings on observations and actions.
# ---------------------------------------------------------------------------

def test_1d_binding_negates_components():
    sym = env_group_binding(CarFlag1dConfig())
    assert np.array_equal(sym.act_on_obs(1, np.array([7.0, 1.0])), [-7.0, -1.0])
    assert sym.action_map[1][A_LEFT] == A_RIGHT
    assert sym.action_map[0][A_LEFT] == A_LEFT


def test_2d_binding_quarter_turn_right_becomes_up():
    sym = env_group_binding(CarFlag2dConfig(grid_size=3))
    assert sym.action_map[1][RIGHT] == UP
    obs = np.zeros((2, 3, 3))
    obs[0, 1, 0] = 1.0
    rotated = sym.act_on_obs(1, obs)
    assert rotated[0, 2, 1] == 1.0  # left-middle cell moves to bottom-middle
    assert np.array_equal(sym.act_on_obs(0, obs), obs)


def test_simulator_symmetry_exhaustive_3x3():
    """Stepping the transformed state with the transformed action must give the
    transformed successor with identical reward and termination flags."""
    cfg = CarFlag2dConfig(grid_size=3)
    sym = env_group_binding(cfg)
    n = cfg.grid_size
    rot = lambda rc: (n - 1 - rc[1], rc[0])
    cells = [(r, c) for r in range(n) for c in range(n)]
    for agent in cells:
        for goal in cells:
            if agent == goal:
                continue
            for action in range(4):
                base = CarFlag2d(cfg, np.random.default_rng(0))
                base.agent, base.goal, base.done, base.steps = agent, goal, False, 0
                obs, reward, term, trunc = base.step(action)
                for g in range(1, 4):
                    ta, tg = agent, goal
                    for _ in range(g):
                        ta, tg = rot(ta), rot(tg)
                    other = CarFlag2d(cfg, np.random.default_rng(0))
                    other.agent, other.goal, other.done, other.steps = ta, tg, False, 0
                    obs2, reward2, term2, trunc2 = other.step(sym.action_map[g][action])
                    assert reward2 == reward and term2 == term and trunc2 == trunc
                    assert np.array_equal(obs2, sym.act_on_obs(g, obs))


def test_simulator_symmetry_randomized_7x7():
    cfg = CarFlag2dConfig(grid_size=7)
    sym = env_group_binding(cfg)
    rng = np.random.default_rng(11)
    n = cfg.grid_size
    rot = lambda rc: (n - 1 - rc[1], rc[0])
    for _ in range(100):
        agent = (int(rng.integers(n)), int(rng.integers(n)))
        goal = (int(rng.integers(n)), int(rng.integers(n)))
        if agent == goal:
            continue
        action = int(rng.integers(4))
        g = int(rng.integers(1, 4))
        base = CarFlag2d(cfg, np.random.default_rng(0))
        base.agent, base.goal, base.done, base.steps = agent, goal, False, 0
        obs, reward, term, trunc = base.step(action)
        ta, tg = agent, goal
        for _ in range(g):
            ta, tg = rot(ta), rot(tg)
        other = CarFlag2d(cfg, np.random.default_rng(0))
        other.agent, other.goal, other.done, other.steps = ta, tg, False, 0
        obs2, reward2, term2, trunc2 = other.step(sym.action_map[g][action])
        assert (reward2, term2, trunc2) == (reward, term, trunc)
        assert np.array_equal(obs2, sym.act_on_obs(g, obs))


def test_1d_simulator_symmetry_and_where_offset_breaks_it():
    def mirrored_step_matches(cfg, pos, side, action):
        sym = env_group_binding(cfg)
        a = CarFlag1d(cfg, np.random.default_rng(0))
        a.pos, a.goal_side, a.done, a.steps = pos, side, False, 0
        obs, reward, term, trunc = a.step(action)
        b = CarFlag1d(cfg, np.random.default_rng(0))
        b.pos, b.goal_side, b.done, b.steps = -pos, -side, False, 0
        obs2, reward2, term2, trunc2 = b.step(sym.action_map[1][action])
        return ((reward2, term2, trunc2) == (reward, term, trunc)
                and np.array_equal(obs2, sym.act_on_obs(1, obs)))

    sym_cfg = CarFlag1dConfig(half_size=5, info_offset=0)
    for pos in range(-4, 5):
        for side in (-1, 1):
            for action in (A_LEFT, A_RIGHT):
                assert mirrored_step_matches(sym_cfg, pos, side, action)

    off_cfg = CarFlag1dConfig(half_size=5, info_offset=2)
    broken = [
        (pos, side, action)
        for pos in range(-4, 5)
        for side in (-1, 1)
        for action in (A_LEFT, A_RIGHT)
        if not mirrored_step_matches(off_cfg, pos, side, action)
    ]
    # violations exactly where info-cell membership changes under the mirror:
    # steps landing on the shifted cell (2) or on its mirror image (-2)
    assert broken
    assert all(pos + (1 if action else -1) in (2, -2) for pos, _, action in broken)


# ---------------------------------------------------------------------------
# Explicit-table export.
# ---------------------------------------------------------------------------

def test_export_2d_is_deterministic_tables():
    pomdp, binding, maps = export_pomdp(CarFlag2dConfig(grid_size=3))
    trans = dense_trans(pomdp)
    assert np.array_equal(np.sort(trans, axis=-1)[:, :, -1], np.ones((81, 4)))
    assert np.array_equal(trans.sum(axis=-1), np.ones((81, 4)))


def test_7x7_export_holds_no_dense_table():
    """CarFlag-2D 7x7 exports its transition and emission tables as rows of
    nonzeros: together under 1 MB, where the dense (S, A, S) and (A, S, O)
    pair would take about 188 MB, and the export's allocations peak under
    64 MB (a dense (S, A, S) table alone is 184 MB). 200 sampled (s, a)
    rows agree with the simulator's ``step`` and ``observe``."""
    cfg = CarFlag2dConfig(grid_size=7)
    tracemalloc.start()
    try:
        pomdp, _, export = export_pomdp(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n_states, n_actions = pomdp.n_states, pomdp.n_actions
    assert (n_states, n_actions) == (2401, 4)
    assert pomdp.trans.nbytes + pomdp.obs.nbytes < 2 ** 20
    assert peak < 64 * 2 ** 20
    env = make_env(cfg, np.random.default_rng(0))
    states = env.states()
    state_ids = {st: s for s, st in enumerate(states)}
    rng = np.random.default_rng(7)
    for s, a in zip(rng.integers(0, n_states, 200).tolist(),
                    rng.integers(0, n_actions, 200).tolist()):
        at = pomdp.trans.at
        cols, vals = pomdp.trans.cols[at[s]:at[s + 1]], pomdp.trans.vals[at[s]:at[s + 1]]
        assert cols.tolist() == sorted(cols.tolist()) and len(cols) == n_actions
        env.state = states[s]
        if env.terminal():
            s2, reward = s, 0.0
        else:
            obs, reward, _, _ = env.step(a)
            s2 = state_ids[env.state]
        assert (cols[a], vals[a], pomdp.reward[s, a]) == (a * n_states + s2, 1.0, reward)
        env.state = states[s2]
        row = a * n_states + s2
        at = pomdp.obs.at
        assert pomdp.obs.cols[at[row]:at[row + 1]].tolist() == [
            export.obs_id_of_array(env.observe())]
        assert pomdp.obs.vals[at[row]:at[row + 1]].tolist() == [1.0]


def test_export_2d_invariance_pass_and_offset_fail():
    pomdp, binding, _ = export_pomdp(CarFlag2dConfig(grid_size=3))
    report = check_invariance(pomdp, binding)
    assert report.passed and report.max_dev == 0.0
    pomdp_off, binding_off, _ = export_pomdp(CarFlag2dConfig(grid_size=3, info_offset=1))
    report_off = check_invariance(pomdp_off, binding_off)
    assert not report_off.passed
    assert report_off.violations["obs"] or report_off.violations["start"]


def test_export_1d_invariance_pass_and_offset_fail():
    pomdp, binding, _ = export_pomdp(CarFlag1dConfig(half_size=5))
    assert check_invariance(pomdp, binding).passed
    pomdp_off, binding_off, maps_off = export_with_maps(CarFlag1dConfig(half_size=5, info_offset=2))
    report = check_invariance(pomdp_off, binding_off)
    assert not report.passed
    # the observation table breaks exactly at the shifted information cell
    cells = {maps_off.obs_arrays[o][0] for (_, _, _, o), _, _ in report.violations["obs"]}
    assert cells and cells <= {2, -2}


EXHAUSTIVE_EXPORTS = [
    CarFlag1dConfig(half_size=5),
    CarFlag1dConfig(half_size=5, info_offset=2),
    CarFlag2dConfig(grid_size=3),
    CarFlag2dConfig(grid_size=3, info_offset=1),
    CarFlag2dConfig(grid_size=5, info_region_size=3),
]


@pytest.mark.parametrize("cfg", EXHAUSTIVE_EXPORTS,
                         ids=["1d-h5", "1d-h5-offset2", "3x3", "3x3-offset1", "5x5-region3"])
def test_export_tables_match_simulator_exhaustively(cfg):
    """Every (state, action) entry agrees with one simulator step from that
    state, and every group map agrees with ``act_on_obs``."""
    pomdp, binding, maps = export_with_maps(cfg)
    trans, emit = dense_trans(pomdp), dense_obs(pomdp)
    sym = env_group_binding(cfg)
    env = make_env(cfg, np.random.default_rng(0))
    states = env.states()
    assert [maps.state_ids[st] for st in states] == list(range(pomdp.n_states))
    starts = {maps.state_ids[st] for st in env.start_states()}
    assert set(np.flatnonzero(pomdp.start)) == starts
    for s, st in enumerate(states):
        o = maps.state_obs[s]
        env.state = st
        assert np.array_equal(maps.obs_arrays[o], env.observe())
        assert pomdp.obs0[s, o] == 1.0 and np.all(emit[:, s, o] == 1.0)
        assert maps.terminal[s] == env.terminal()
        for a in range(pomdp.n_actions):
            s2 = int(np.argmax(trans[s, a]))
            assert trans[s, a, s2] == 1.0
            if maps.terminal[s]:  # absorbing with zero reward
                assert s2 == s and pomdp.reward[s, a] == 0.0
                continue
            env.state = st
            obs, reward, term, _ = env.step(a)
            assert s2 == maps.state_ids[env.state]
            assert reward == pomdp.reward[s, a]
            assert maps.obs_id_of_array(obs) == maps.state_obs[s2]
            assert term == maps.terminal[s2]
    other = make_env(cfg, np.random.default_rng(0))
    for g in binding.group.elements:
        for o, arr in enumerate(maps.obs_arrays):
            assert np.array_equal(maps.obs_arrays[binding.obs_maps[g, o]],
                                  sym.act_on_obs(g, arr))
        for s, st in enumerate(states):
            env.state, other.state = st, states[binding.state_maps[g, s]]
            assert np.array_equal(other.revealed(), sym.act_on_obs(g, env.revealed()))
    assert np.array_equal(binding.action_maps, sym.action_map)
    with pytest.raises(EnvError, match="not one the simulator emits"):
        maps.obs_id_of_array(np.full_like(maps.obs_arrays[0], 7.0))


def test_export_matches_simulator_traces():
    cfg = CarFlag2dConfig(grid_size=3)
    pomdp, binding, maps = export_with_maps(cfg)
    trans = dense_trans(pomdp)
    rng = np.random.default_rng(123)
    for episode in range(300):
        env = CarFlag2d(cfg, np.random.default_rng(1000 + episode))
        obs = env.reset()
        s = maps.state_ids[(env.agent, env.goal)]
        assert pomdp.start[s] > 0.0
        assert maps.obs_id_of_array(obs) == maps.state_obs[s]
        for _ in range(20):
            a = int(rng.integers(4))
            obs, reward, term, trunc = env.step(a)
            s2 = int(np.argmax(trans[s, a]))
            assert trans[s, a, s2] == 1.0
            assert reward == pomdp.reward[s, a]
            assert maps.obs_id_of_array(obs) == maps.state_obs[s2]
            assert term == maps.terminal[s2]
            s = s2
            if term or trunc:
                break


def test_export_1d_matches_simulator_traces():
    cfg = CarFlag1dConfig(half_size=5)
    pomdp, binding, maps = export_with_maps(cfg)
    trans = dense_trans(pomdp)
    rng = np.random.default_rng(321)
    for episode in range(200):
        env = CarFlag1d(cfg, np.random.default_rng(500 + episode))
        obs = env.reset()
        s = maps.state_ids[(env.pos, env.goal_side)]
        assert pomdp.start[s] > 0.0
        assert maps.obs_id_of_array(obs) == maps.state_obs[s]
        for _ in range(30):
            a = int(rng.integers(2))
            obs, reward, term, trunc = env.step(a)
            s2 = int(np.argmax(trans[s, a]))
            assert reward == pomdp.reward[s, a]
            assert maps.obs_id_of_array(obs) == maps.state_obs[s2]
            assert term == maps.terminal[s2]
            s = s2
            if term or trunc:
                break


def test_start_distribution_matches_reset_frequencies():
    cfg = CarFlag2dConfig(grid_size=3)
    pomdp, _, maps = export_with_maps(cfg)
    env = CarFlag2d(cfg, np.random.default_rng(77))
    counts = np.zeros(pomdp.n_states)
    trials = 20_000
    for _ in range(trials):
        env.reset()
        counts[maps.state_ids[(env.agent, env.goal)]] += 1
    support = pomdp.start > 0
    assert np.all(counts[~support] == 0)
    assert np.max(np.abs(counts[support] / trials - pomdp.start[support])) < 0.01


# ---------------------------------------------------------------------------
# Beliefs and symmetry theorems on the 3x3 instance.
# ---------------------------------------------------------------------------

def test_belief_collapses_after_visiting_info_cell():
    cfg = CarFlag2dConfig(grid_size=3)
    pomdp, binding, maps = export_with_maps(cfg)
    hm = HistoryMdp(pomdp)
    env = CarFlag2d(cfg, np.random.default_rng(4))
    env.state = ((1, 0), (2, 2))
    h = (maps.obs_id_of_array(env.observe()),)
    assert len(np.flatnonzero(hm.belief(h) > 0)) > 1  # goal still uncertain
    obs, *_ = env.step(RIGHT)  # onto the central info cell
    h = h + (RIGHT, maps.obs_id_of_array(obs))
    b = hm.belief(h)
    nz = np.flatnonzero(b > 0)
    assert len(nz) == 1 and b[nz[0]] == pytest.approx(1.0, abs=1e-12)
    assert nz[0] == maps.state_ids[((1, 1), (2, 2))]


def test_history_transform_matches_rotated_scenario():
    """A play going right to the info cell maps, under one quarter turn, to the
    play going up to the info cell in the rotated scenario."""
    cfg = CarFlag2dConfig(grid_size=3)
    pomdp, binding, maps = export_pomdp(cfg)

    def history(agent, goal, actions):
        env = CarFlag2d(cfg, np.random.default_rng(0))
        env.state = (agent, goal)
        h = (maps.obs_id_of_array(env.observe()),)
        for a in actions:
            obs, *_ = env.step(a)
            h = h + (a, maps.obs_id_of_array(obs))
        return h

    scenario1 = history((1, 0), (1, 2), [RIGHT])        # go right onto the info cell
    scenario2 = history((2, 1), (0, 1), [UP])           # the same scene, turned 90 deg
    assert act_on_history(binding, 1, scenario1) == scenario2
    assert act_on_history(binding, 0, scenario1) == scenario1


def test_belief_invariance_on_3x3():
    pomdp, binding, _ = export_pomdp(CarFlag2dConfig(grid_size=3))
    report = verify_belief_invariance(pomdp, binding, depth=3)
    assert report.passed, report.lines()


def test_value_invariance_on_3x3_short_horizon():
    pomdp, binding, _ = export_pomdp(CarFlag2dConfig(grid_size=3))
    report = verify_value_invariance(pomdp, binding, horizon=4)
    assert report.passed, report.lines()


def test_value_invariance_detects_offset_asymmetry():
    pomdp, binding, _ = export_pomdp(CarFlag2dConfig(grid_size=3, info_offset=1))
    report = verify_value_invariance(pomdp, binding, horizon=4)
    assert not report.passed
    assert report.max_dev > 1e-9 or report.missing
    assert report.witness is not None or report.missing


@pytest.mark.parametrize("offset", [0, 2])
def test_value_invariance_on_1d_at_full_episode_horizon(offset):
    """Theorem 1 on the criterion-08 domain at its 50-step horizon: about
    6e16 histories, checked through about 2.9k belief classes."""
    cfg = CarFlag1dConfig(half_size=10, info_offset=offset)
    pomdp, binding, _ = export_pomdp(cfg)
    report = verify_value_invariance(pomdp, binding, horizon=cfg.max_steps)
    assert report.histories > 10**16 and report.belief_classes < 3000
    if offset == 0:
        assert report.passed and report.policy_consistent, report.lines()
        assert report.max_dev == 0.0 and report.missing == 0
    else:
        assert not report.passed
        assert report.witness is not None or report.missing


def test_placement_errors():
    with pytest.raises(PlacementError):
        CarFlag2dConfig(grid_size=4)
    with pytest.raises(PlacementError):
        CarFlag2dConfig(grid_size=3, info_offset=5)
    with pytest.raises(PlacementError):
        CarFlag1dConfig(half_size=5, info_offset=7)
    for config in (CarFlag1dConfig, CarFlag2dConfig):
        for max_steps in (0, -3):
            with pytest.raises(PlacementError, match=f"max_steps must be at least 1, "
                                                     f"got {max_steps}"):
                config(max_steps=max_steps)
        assert config(max_steps=1).max_steps == 1


def test_make_env_dispatch():
    assert isinstance(make_env(CarFlag1dConfig(), np.random.default_rng(0)), CarFlag1d)
    assert isinstance(make_env(CarFlag2dConfig(), np.random.default_rng(0)), CarFlag2d)
    with pytest.raises(EnvError):
        make_env(object(), np.random.default_rng(0))
