"""CarFlag benchmark domains and their explicit-table exports.

CarFlag-1D: a car on an integer line must reach the green flag at one end;
which end is green is visible only while standing on the information cell.
CarFlag-2D: an agent on an NxN grid must reach a goal cell whose position is
visible only from inside a central information region. Setting a nonzero
``info_offset`` shifts the information cell away from the center, which breaks
the domain symmetry.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .groups import CYCLIC, REFLECTION, Group, Representation, direct_sum, make_group, sign_rep
from .pomdp import GroupActionBinding, Pomdp


class EnvError(ValueError):
    pass


class PlacementError(EnvError):
    pass


class InvalidActionError(EnvError):
    pass


# ---------------------------------------------------------------------------
# Configs.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CarFlag1dConfig:
    half_size: int = 25            # flags sit at +-half_size, so they are 2*half_size apart
    info_offset: int = 0           # information cell position; 0 is the symmetric case
    max_steps: int = 50
    step_reward: float = -0.01
    goal_reward: float = 1.0
    red_reward: float = -1.0

    def __post_init__(self):
        if self.half_size < 2:
            raise PlacementError("half_size must be at least 2")
        if abs(self.info_offset) >= self.half_size:
            raise PlacementError("information cell must lie strictly between the flags")


@dataclass(frozen=True)
class CarFlag2dConfig:
    grid_size: int = 7             # default training size; the oracle instance uses 3
    info_offset: int = 0           # centered information region shifted along columns
    info_region_size: int = 1      # odd side length of the information square
    max_steps: int = 50
    goal_reward: float = 1.0
    min_start_distance: int = 2

    def __post_init__(self):
        n = self.grid_size
        if n < 3 or n % 2 == 0:
            raise PlacementError("grid_size must be odd and at least 3")
        if self.info_region_size % 2 == 0 or self.info_region_size < 1:
            raise PlacementError("info_region_size must be odd and positive")
        half_region = self.info_region_size // 2
        center = n // 2
        if not (half_region <= center + self.info_offset <= n - 1 - half_region):
            raise PlacementError("information region leaves the grid after the offset")

    def info_cells(self) -> frozenset[tuple[int, int]]:
        c = self.grid_size // 2
        half = self.info_region_size // 2
        return frozenset(
            (c + dr, c + self.info_offset + dc)
            for dr in range(-half, half + 1)
            for dc in range(-half, half + 1)
        )


# CarFlag-2D actions, ordered so a quarter turn counterclockwise advances the
# index by one: Right -> Up -> Left -> Down.
ACTIONS_2D = ("right", "up", "left", "down")
DELTAS_2D = ((0, 1), (-1, 0), (0, -1), (1, 0))
ACTIONS_1D = ("left", "right")


# ---------------------------------------------------------------------------
# Simulators.
# ---------------------------------------------------------------------------

class CarFlag1d:
    n_actions = 2

    def __init__(self, config: CarFlag1dConfig, rng: np.random.Generator):
        self.config = config
        self.rng = rng
        self.pos = 0
        self.goal_side = 1
        self.steps = 0
        self.done = True

    def valid_start_positions(self) -> list[int]:
        c = self.config
        # interior cells only: starting on a flag would terminate before any action
        return [p for p in range(-c.half_size + 1, c.half_size)
                if p != c.info_offset]

    def observe(self) -> np.ndarray:
        side = 0
        if self.pos == self.config.info_offset:
            side = self.goal_side
        return np.array([float(self.pos), float(side)])

    def reset(self) -> np.ndarray:
        starts = self.valid_start_positions()
        if not starts:
            raise PlacementError("no valid start cell")
        self.pos = int(self.rng.choice(starts))
        self.goal_side = 1 if self.rng.random() < 0.5 else -1
        self.steps = 0
        self.done = False
        return self.observe()

    def step(self, action: int):
        if self.done:
            raise EnvError("episode is finished; call reset")
        if action not in (0, 1):
            raise InvalidActionError(f"1D action must be 0 (left) or 1 (right), got {action}")
        c = self.config
        self.pos = int(min(max(self.pos + (1 if action == 1 else -1), -c.half_size),
                           c.half_size))
        self.steps += 1
        goal_pos = c.half_size * self.goal_side
        terminated, truncated = False, False
        if self.pos == goal_pos:
            reward, terminated = c.goal_reward, True
        elif self.pos == -goal_pos:
            reward, terminated = c.red_reward, True
        else:
            reward = c.step_reward
            truncated = self.steps >= c.max_steps
        self.done = terminated or truncated
        return self.observe(), reward, terminated, truncated


class CarFlag2d:
    n_actions = 4

    def __init__(self, config: CarFlag2dConfig, rng: np.random.Generator):
        self.config = config
        self.rng = rng
        self.agent = (0, 0)
        self.goal = (0, 0)
        self.steps = 0
        self.done = True
        self._info = config.info_cells()
        self._starts = self._valid_start_pairs()

    def _valid_start_pairs(self):
        c = self.config
        n = c.grid_size
        info = c.info_cells()
        cells = [(r, col) for r in range(n) for col in range(n)]
        pairs = [
            (a, g)
            for a in cells if a not in info
            for g in cells if g not in info
            if abs(a[0] - g[0]) + abs(a[1] - g[1]) >= c.min_start_distance
        ]
        if not pairs:
            raise PlacementError("no valid (agent, goal) start pair")
        return pairs

    def observe(self) -> np.ndarray:
        n = self.config.grid_size
        out = np.zeros((2, n, n))
        out[0][self.agent] = 1.0
        if self.agent in self._info:
            out[1][self.goal] = 1.0
        return out

    def reset(self) -> np.ndarray:
        self.agent, self.goal = self._starts[int(self.rng.integers(len(self._starts)))]
        self.steps = 0
        self.done = False
        return self.observe()

    def step(self, action: int):
        if self.done:
            raise EnvError("episode is finished; call reset")
        if not 0 <= int(action) < 4:
            raise InvalidActionError(f"2D action must be in 0..3, got {action}")
        n = self.config.grid_size
        dr, dc = DELTAS_2D[int(action)]
        r = min(max(self.agent[0] + dr, 0), n - 1)
        col = min(max(self.agent[1] + dc, 0), n - 1)
        self.agent = (r, col)  # position unchanged when stepping out of the world
        self.steps += 1
        terminated = self.agent == self.goal
        reward = self.config.goal_reward if terminated else 0.0
        truncated = not terminated and self.steps >= self.config.max_steps
        self.done = terminated or truncated
        return self.observe(), reward, terminated, truncated


def make_env(config, rng: np.random.Generator):
    if isinstance(config, CarFlag1dConfig):
        return CarFlag1d(config, rng)
    if isinstance(config, CarFlag2dConfig):
        return CarFlag2d(config, rng)
    raise EnvError(f"unknown env config {type(config).__name__}")


class VectorEnv:
    """Independent env instances, each on its own RNG stream."""

    def __init__(self, config, n_envs: int, seed_seq: np.random.SeedSequence):
        streams = seed_seq.spawn(n_envs)
        self.envs = [make_env(config, np.random.default_rng(s)) for s in streams]

    def __len__(self):
        return len(self.envs)

    def reset_all(self) -> np.ndarray:
        return np.stack([e.reset() for e in self.envs])

    def step_one(self, i: int, action: int):
        return self.envs[i].step(action)

    def reset_one(self, i: int) -> np.ndarray:
        return self.envs[i].reset()


# ---------------------------------------------------------------------------
# Group bindings on the simulators.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EnvSymmetry:
    group: Group
    action_map: np.ndarray              # (|G|, A)
    obs_rep: Representation | None      # channel representation of vector obs
    image_fields: int | None            # trivial channel count for image obs

    def act_on_obs(self, g: int, obs: np.ndarray) -> np.ndarray:
        g = self.group.check_element(g)
        if self.image_fields is not None:
            if self.group.kind == CYCLIC:
                return np.rot90(obs, g, axes=(-2, -1)).copy()
            return np.flip(obs, axis=-1).copy() if g else obs.copy()
        sign = (-1.0) ** g
        return obs * sign

    def act_on_action(self, g: int, action: int) -> int:
        return int(self.action_map[self.group.check_element(g)][action])


def env_group_binding(config) -> EnvSymmetry:
    """The domain symmetry: mirror flip for 1D, quarter-turn rotations for 2D."""
    if isinstance(config, CarFlag1dConfig):
        group = make_group(REFLECTION)
        action_map = np.array([[0, 1], [1, 0]])  # left <-> right
        obs_rep = direct_sum([sign_rep(group), sign_rep(group)])
        return EnvSymmetry(group, action_map, obs_rep, None)
    if isinstance(config, CarFlag2dConfig):
        group = make_group(CYCLIC, 4)
        action_map = np.array([[(a + g) % 4 for a in range(4)] for g in range(4)])
        return EnvSymmetry(group, action_map, None, 2)
    raise EnvError(f"unknown env config {type(config).__name__}")


# ---------------------------------------------------------------------------
# Explicit-table exports.
# ---------------------------------------------------------------------------

@dataclass
class ExportMaps:
    """Index helpers tying simulator states/observations to table ids."""

    config: object
    state_of: callable = None
    obs_of_state: callable = None
    obs_id_of_array: callable = None
    obs_array_of_id: callable = None
    is_terminal: callable = None
    n_states: int = 0
    n_obs: int = 0


def export_pomdp(config, discount: float = 0.99, max_states: int = 200_000):
    """Explicit (tables, symmetry binding, index maps) matching the simulator.

    States reaching the goal (2D) or either flag (1D) become absorbing with
    zero reward, so finite-horizon sweeps see exactly the episodic semantics.
    """
    if isinstance(config, CarFlag2dConfig):
        return _export_2d(config, discount, max_states)
    if isinstance(config, CarFlag1dConfig):
        return _export_1d(config, discount, max_states)
    raise EnvError(f"unknown env config {type(config).__name__}")


def _export_2d(config: CarFlag2dConfig, discount: float, max_states: int):
    n = config.grid_size
    cells = n * n
    n_states = cells * cells
    if n_states > max_states:
        raise EnvError(f"export needs {n_states} states, over the budget {max_states}")
    n_obs = cells * (cells + 1)
    info = config.info_cells()
    info_ids = {r * n + c for (r, c) in info}

    def state_of(agent, goal):
        return (agent[0] * n + agent[1]) * cells + goal[0] * n + goal[1]

    def cell_id(rc):
        return rc[0] * n + rc[1]

    def obs_id(agent_id, reveal_id):
        return agent_id * (cells + 1) + (reveal_id + 1)

    def obs_of_state(s):
        agent_id, goal_id = divmod(s, cells)
        reveal = goal_id if agent_id in info_ids else -1
        return obs_id(agent_id, reveal)

    trans = np.zeros((n_states, 4, n_states))
    reward = np.zeros((n_states, 4))
    obs = np.zeros((4, n_states, n_obs))
    obs0 = np.zeros((n_states, n_obs))
    for s in range(n_states):
        agent_id, goal_id = divmod(s, cells)
        obs0[s, obs_of_state(s)] = 1.0
        if agent_id == goal_id:  # absorbing once the goal is reached
            trans[s, :, s] = 1.0
            continue
        r, c = divmod(agent_id, n)
        for a, (dr, dc) in enumerate(DELTAS_2D):
            r2 = min(max(r + dr, 0), n - 1)
            c2 = min(max(c + dc, 0), n - 1)
            s2 = (r2 * n + c2) * cells + goal_id
            trans[s, a, s2] = 1.0
            if r2 * n + c2 == goal_id:
                reward[s, a] = config.goal_reward
    for s in range(n_states):
        obs[:, s, obs_of_state(s)] = 1.0

    start = np.zeros(n_states)
    env = CarFlag2d(config, np.random.default_rng(0))
    for agent, goal in env._starts:
        start[state_of(agent, goal)] = 1.0
    start /= start.sum()

    pomdp = Pomdp(start, trans, reward, obs, obs0, discount)
    pomdp.validate()

    group = make_group(CYCLIC, 4)
    cell_rot = np.zeros((4, cells), dtype=np.int64)
    for cid in range(cells):
        r, c = divmod(cid, n)
        cur = (r, c)
        for g in range(4):
            cell_rot[g, cid] = cur[0] * n + cur[1]
            cur = (n - 1 - cur[1], cur[0])  # one quarter turn counterclockwise
    state_maps = np.zeros((4, n_states), dtype=np.int64)
    obs_maps = np.zeros((4, n_obs), dtype=np.int64)
    for g in range(4):
        for s in range(n_states):
            agent_id, goal_id = divmod(s, cells)
            state_maps[g, s] = cell_rot[g, agent_id] * cells + cell_rot[g, goal_id]
        for o in range(n_obs):
            agent_id, reveal = divmod(o, cells + 1)
            reveal -= 1
            mapped_reveal = -1 if reveal < 0 else int(cell_rot[g, reveal])
            obs_maps[g, o] = obs_id(int(cell_rot[g, agent_id]), mapped_reveal)
    action_maps = env_group_binding(config).action_map
    binding = GroupActionBinding(group, state_maps, action_maps, obs_maps)
    binding.validate()

    def obs_array_of_id(o):
        agent_id, reveal = divmod(o, cells + 1)
        reveal -= 1
        img = np.zeros((2, n, n))
        img[0, agent_id // n, agent_id % n] = 1.0
        if reveal >= 0:
            img[1, reveal // n, reveal % n] = 1.0
        return img

    def obs_id_of_array(img):
        agent_id = int(np.argmax(img[0]))
        reveal = int(np.argmax(img[1])) if img[1].any() else -1
        return obs_id(agent_id, reveal)

    maps = ExportMaps(
        config=config,
        state_of=lambda env_state: state_of(*env_state),
        obs_of_state=obs_of_state,
        obs_id_of_array=obs_id_of_array,
        obs_array_of_id=obs_array_of_id,
        is_terminal=lambda s: s // cells == s % cells,
        n_states=n_states,
        n_obs=n_obs,
    )
    return pomdp, binding, maps


def _export_1d(config: CarFlag1dConfig, discount: float, max_states: int):
    half = config.half_size
    width = 2 * half + 1
    n_states = width * 2
    if n_states > max_states:
        raise EnvError(f"export needs {n_states} states, over the budget {max_states}")
    n_obs = width * 3

    def pos_id(pos):
        return pos + half

    def state_of(pos, goal_side):
        return pos_id(pos) * 2 + (1 if goal_side > 0 else 0)

    def obs_id(pos, side):
        return pos_id(pos) * 3 + (side + 1)

    def obs_of_state(s):
        p, bit = divmod(s, 2)
        pos = p - half
        side = (1 if bit else -1) if pos == config.info_offset else 0
        return obs_id(pos, side)

    trans = np.zeros((n_states, 2, n_states))
    reward = np.zeros((n_states, 2))
    obs = np.zeros((2, n_states, n_obs))
    obs0 = np.zeros((n_states, n_obs))
    for s in range(n_states):
        p, bit = divmod(s, 2)
        pos = p - half
        goal_pos = half if bit else -half
        obs0[s, obs_of_state(s)] = 1.0
        if abs(pos) == half:  # standing on a flag: absorbing
            trans[s, :, s] = 1.0
            continue
        for a, delta in enumerate((-1, 1)):
            pos2 = pos + delta
            trans[s, a, state_of(pos2, 1 if bit else -1)] = 1.0
            if pos2 == goal_pos:
                reward[s, a] = config.goal_reward
            elif pos2 == -goal_pos:
                reward[s, a] = config.red_reward
            else:
                reward[s, a] = config.step_reward
    for s in range(n_states):
        obs[:, s, obs_of_state(s)] = 1.0

    start = np.zeros(n_states)
    probe = CarFlag1d(config, np.random.default_rng(0))
    for pos in probe.valid_start_positions():
        for side in (-1, 1):
            start[state_of(pos, side)] = 1.0
    start /= start.sum()

    pomdp = Pomdp(start, trans, reward, obs, obs0, discount)
    pomdp.validate()

    group = make_group(REFLECTION)
    state_maps = np.zeros((2, n_states), dtype=np.int64)
    obs_maps = np.zeros((2, n_obs), dtype=np.int64)
    state_maps[0] = np.arange(n_states)
    obs_maps[0] = np.arange(n_obs)
    for s in range(n_states):
        p, bit = divmod(s, 2)
        state_maps[1, s] = state_of(-(p - half), -1 if bit else 1)
    for o in range(n_obs):
        p, side = divmod(o, 3)
        obs_maps[1, o] = obs_id(-(p - half), -(side - 1))
    binding = GroupActionBinding(group, state_maps, env_group_binding(config).action_map,
                                 obs_maps)
    binding.validate()

    def obs_array_of_id(o):
        p, side = divmod(o, 3)
        return np.array([float(p - half), float(side - 1)])

    def obs_id_of_array(arr):
        return obs_id(int(arr[0]), int(arr[1]))

    maps = ExportMaps(
        config=config,
        state_of=lambda env_state: state_of(*env_state),
        obs_of_state=obs_of_state,
        obs_id_of_array=obs_id_of_array,
        obs_array_of_id=obs_array_of_id,
        is_terminal=lambda s: abs(s // 2 - half) == half,
        n_states=n_states,
        n_obs=n_obs,
    )
    return pomdp, binding, maps


# ---------------------------------------------------------------------------
# Debug traces.
# ---------------------------------------------------------------------------

def episode_trace(env, actions) -> list[str]:
    """Text trace of one episode driven by a fixed action sequence."""
    obs = env.reset()
    lines = [f"reset obs={np.array2string(obs.ravel(), precision=3)}"]
    for t, a in enumerate(actions):
        obs, reward, term, trunc = env.step(a)
        lines.append(
            f"t={t} a={a} r={reward:.4g} term={term} trunc={trunc} "
            f"obs={np.array2string(obs.ravel(), precision=3)}")
        if term or trunc:
            break
    return lines
