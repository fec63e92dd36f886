"""CarFlag benchmark domains and their explicit-table exports.

CarFlag-1D: a car on an integer line must reach the green flag at one end;
which end is green is visible only while standing on the information cell.
CarFlag-2D: an agent on an NxN grid must reach a goal cell whose position is
visible only from inside a central information region. Setting a nonzero
``info_offset`` shifts the information cell away from the center, which breaks
the domain symmetry.

Each simulator is the only definition of its domain: it exposes its state
(``state``, ``states``, ``start_states``, ``terminal``) and the observation
with the hidden goal shown (``revealed``), and ``export_pomdp`` builds the
exact oracle's tables and group maps by driving it through every state.
``env_group_binding`` gives each domain its symmetry: the group's element
matrices map each action's move (``DELTAS_1D``, ``DELTAS_2D``) to another
action's, and one representation acts on the flattened observation.
"""

from __future__ import annotations

import dataclasses
import operator
import typing
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .groups import C4, MIRROR, Group, Representation, direct_sum, grid_rep, sign_rep
from .pomdp import GroupActionBinding, Pomdp, SparseRows, require_integer


class EnvError(ValueError):
    pass


class PlacementError(EnvError):
    pass


class InvalidActionError(EnvError):
    pass


def _action_index(action, n_actions: int, rule: str) -> int:
    """``action`` as an int in ``range(n_actions)``. Anything else, a float or a
    string included, raises ``InvalidActionError`` naming it after ``rule``."""
    try:
        a = operator.index(action)
    except TypeError:
        a = -1
    if not 0 <= a < n_actions:
        raise InvalidActionError(f"{rule}, got {action!r}")
    return a


# ---------------------------------------------------------------------------
# Configs.
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def field_types(config_class) -> tuple[tuple[str, type], ...]:
    """Each field of a config dataclass and its annotated type, in field order."""
    hints = typing.get_type_hints(config_class)
    return tuple((f.name, hints[f.name]) for f in dataclasses.fields(config_class))


def require_integer_fields(config, error: type[Exception]) -> None:
    """``require_integer`` on every ``int``-annotated field of a config."""
    for name, want in field_types(type(config)):
        if want is int:
            require_integer(name, getattr(config, name), error)


# The domains' fixed rewards: CarFlag-1D pays STEP_REWARD per step that ends
# off the flags and GOAL_REWARD or RED_REWARD at the green or red flag;
# CarFlag-2D pays GOAL_REWARD on reaching the goal and nothing otherwise.
STEP_REWARD = -0.01
GOAL_REWARD = 1.0
RED_REWARD = -1.0
# CarFlag-2D starts the agent at least this Manhattan distance from the goal.
MIN_START_DISTANCE = 2


@dataclass(frozen=True)
class CarFlag1dConfig:
    half_size: int = 25            # flags sit at +-half_size, so they are 2*half_size apart
    info_offset: int = 0           # information cell position; 0 is the symmetric case
    max_steps: int = 50

    def __post_init__(self):
        require_integer_fields(self, EnvError)
        if self.half_size < 2:
            raise PlacementError("half_size must be at least 2")
        if abs(self.info_offset) >= self.half_size:
            raise PlacementError("information cell must lie strictly between the flags")
        if self.max_steps < 1:
            raise PlacementError(f"max_steps must be at least 1, got {self.max_steps}")


@dataclass(frozen=True)
class CarFlag2dConfig:
    grid_size: int = 7             # default training size; the oracle instance uses 3
    info_offset: int = 0           # centered information region shifted along columns
    info_region_size: int = 1      # odd side length of the information square
    max_steps: int = 50

    def __post_init__(self):
        require_integer_fields(self, EnvError)
        n = self.grid_size
        if n < 3 or n % 2 == 0:
            raise PlacementError("grid_size must be odd and at least 3")
        if self.info_region_size % 2 == 0 or self.info_region_size < 1:
            raise PlacementError("info_region_size must be odd and positive")
        half_region = self.info_region_size // 2
        center = n // 2
        if not (half_region <= center + self.info_offset <= n - 1 - half_region):
            raise PlacementError("information region leaves the grid after the offset")
        if self.max_steps < 1:
            raise PlacementError(f"max_steps must be at least 1, got {self.max_steps}")

    def info_cells(self) -> frozenset[tuple[int, int]]:
        c = self.grid_size // 2
        half = self.info_region_size // 2
        return frozenset(
            (c + dr, c + self.info_offset + dc)
            for dr in range(-half, half + 1)
            for dc in range(-half, half + 1)
        )


# Each action's move as a (row, col) offset; the group bindings map an action
# to the action whose move is the element matrix times its own. CarFlag-1D's
# line is one row: Left, Right.
DELTAS_1D = ((0, -1), (0, 1))
# CarFlag-2D, ordered so a quarter turn counterclockwise advances the index by
# one: Right -> Up -> Left -> Down.
DELTAS_2D = ((0, 1), (-1, 0), (0, -1), (1, 0))


# ---------------------------------------------------------------------------
# Simulators.
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _obs_table(config) -> dict:
    """The observations of a config, keyed by what they show (1D: position and
    shown goal side; 2D: agent and shown goal cell), each one read-only array
    built on first use and shared by every env of that config, so ``observe``,
    ``reset`` and ``step`` build no array."""
    return {}


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class CarFlag1d:
    n_actions = 2

    def __init__(self, config: CarFlag1dConfig, rng: np.random.Generator):
        self.config = config
        self.rng = rng
        self.pos = 0
        self.goal_side = 1
        self.steps = 0
        self.done = True
        # interior cells only: starting on a flag would terminate before any action
        self._starts = tuple(p for p in range(-config.half_size + 1, config.half_size)
                             if p != config.info_offset)
        self._obs = _obs_table(config)

    @property
    def state(self) -> tuple[int, int]:
        return (self.pos, self.goal_side)

    @state.setter
    def state(self, value: tuple[int, int]) -> None:
        """Place the car: a fresh step count, episode not finished."""
        self.pos, self.goal_side = value
        self.steps = 0
        self.done = False

    def states(self) -> list[tuple[int, int]]:
        h = self.config.half_size
        return [(p, side) for p in range(-h, h + 1) for side in (-1, 1)]

    def start_states(self) -> list[tuple[int, int]]:
        return [(p, side) for p in self._starts for side in (-1, 1)]

    def terminal(self) -> bool:
        return abs(self.pos) == self.config.half_size

    def observe(self) -> np.ndarray:
        key = (self.pos, self.goal_side if self.pos == self.config.info_offset else 0)
        obs = self._obs.get(key)
        if obs is None:
            obs = self._obs[key] = _read_only(np.array([float(key[0]), float(key[1])]))
        return obs

    def revealed(self) -> np.ndarray:
        """The observation with the goal side shown wherever the car stands."""
        return np.array([float(self.pos), float(self.goal_side)])

    def reset(self) -> np.ndarray:
        self.state = (self._starts[int(self.rng.integers(len(self._starts)))],
                      1 if self.rng.random() < 0.5 else -1)
        return self.observe()

    def step(self, action: int):
        if self.done:
            raise EnvError("episode is finished; call reset")
        action = _action_index(action, 2, "1D action must be 0 (left) or 1 (right)")
        c = self.config
        self.pos = int(min(max(self.pos + DELTAS_1D[action][1], -c.half_size),
                           c.half_size))
        self.steps += 1
        terminated = self.terminal()
        if not terminated:
            reward = STEP_REWARD
        elif self.pos == c.half_size * self.goal_side:
            reward = GOAL_REWARD
        else:
            reward = RED_REWARD
        truncated = not terminated and self.steps >= c.max_steps
        self.done = terminated or truncated
        return self.observe(), reward, terminated, truncated


def _cells(n: int) -> list[tuple[int, int]]:
    return [(r, col) for r in range(n) for col in range(n)]


@lru_cache(maxsize=None)
def _start_pairs(config: CarFlag2dConfig) -> tuple:
    """The (agent, goal) start pairs of a config, built once and shared by
    every env of that config (about 200 KB on 7x7)."""
    cells, info = _cells(config.grid_size), config.info_cells()
    pairs = tuple(
        (a, g)
        for a in cells if a not in info
        for g in cells if g not in info
        if abs(a[0] - g[0]) + abs(a[1] - g[1]) >= MIN_START_DISTANCE
    )
    if not pairs:
        raise PlacementError("no valid (agent, goal) start pair")
    return pairs


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
        self._starts = _start_pairs(config)
        self._obs = _obs_table(config)

    @property
    def state(self) -> tuple[tuple[int, int], tuple[int, int]]:
        return (self.agent, self.goal)

    @state.setter
    def state(self, value) -> None:
        """Place agent and goal: a fresh step count, episode not finished."""
        self.agent, self.goal = value
        self.steps = 0
        self.done = False

    def states(self) -> list[tuple[tuple[int, int], tuple[int, int]]]:
        cells = _cells(self.config.grid_size)
        return [(a, g) for a in cells for g in cells]

    def start_states(self) -> list[tuple[tuple[int, int], tuple[int, int]]]:
        return list(self._starts)

    def terminal(self) -> bool:
        return self.agent == self.goal

    def _image(self, agent, goal) -> np.ndarray:
        """Channel 0 marks the agent, channel 1 the goal unless it is None."""
        n = self.config.grid_size
        out = np.zeros((2, n, n))
        out[0][agent] = 1.0
        if goal is not None:
            out[1][goal] = 1.0
        return out

    def observe(self) -> np.ndarray:
        key = (self.agent, self.goal if self.agent in self._info else None)
        obs = self._obs.get(key)
        if obs is None:
            obs = self._obs[key] = _read_only(self._image(*key))
        return obs

    def revealed(self) -> np.ndarray:
        """The observation with the goal shown wherever the agent stands."""
        return self._image(self.agent, self.goal)

    def reset(self) -> np.ndarray:
        self.state = self._starts[int(self.rng.integers(len(self._starts)))]
        return self.observe()

    def step(self, action: int):
        if self.done:
            raise EnvError("episode is finished; call reset")
        action = _action_index(action, 4, "2D action must be in 0..3")
        n = self.config.grid_size
        dr, dc = DELTAS_2D[action]
        r = min(max(self.agent[0] + dr, 0), n - 1)
        col = min(max(self.agent[1] + dc, 0), n - 1)
        self.agent = (r, col)  # position unchanged when stepping out of the world
        self.steps += 1
        terminated = self.terminal()
        reward = GOAL_REWARD if terminated else 0.0
        truncated = not terminated and self.steps >= self.config.max_steps
        self.done = terminated or truncated
        return self.observe(), reward, terminated, truncated


def make_env(config, rng: np.random.Generator):
    if isinstance(config, CarFlag1dConfig):
        return CarFlag1d(config, rng)
    if isinstance(config, CarFlag2dConfig):
        return CarFlag2d(config, rng)
    raise EnvError(f"unknown env config {type(config).__name__}")


def step_envs(envs, actions):
    """Step each env once with its action, through the env's own ``step``.
    Each action reaches its env as the Python number ``tolist`` gives, so a
    float is refused there, not truncated. Returns the stacked observations,
    rewards, terminated and truncated flags."""
    obs, rewards, terminated, truncated = zip(*(
        env.step(a) for env, a in zip(envs, np.asarray(actions).tolist())))
    return (np.array(obs), np.array(rewards), np.array(terminated, dtype=bool),
            np.array(truncated, dtype=bool))


# ---------------------------------------------------------------------------
# Group bindings on the simulators.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EnvSymmetry:
    group: Group
    action_map: np.ndarray          # (|G|, A): element g sends action a to action_map[g, a]
    obs_rep: Representation         # on the flattened observation

    def act_on_obs(self, g: int, obs: np.ndarray) -> np.ndarray:
        """Element ``g``'s image of an observation, or of a stack of them."""
        g = self.group.check_element(g)
        flat = obs.reshape(-1, self.obs_rep.dim)
        out = np.empty_like(flat)
        out[:, self.obs_rep.perm[g]] = flat * self.obs_rep.sign[g]
        return out.reshape(obs.shape)


def _action_map(group: Group, moves) -> np.ndarray:
    index = {move: a for a, move in enumerate(moves)}
    return np.array([[index[tuple(m @ move)] for move in moves] for m in group.mats])


def env_group_binding(config) -> EnvSymmetry:
    """The domain symmetry: mirror flip for 1D, quarter-turn rotations for 2D.
    The mirror negates the position and the revealed goal side; a rotation
    moves the pixels of both image channels."""
    if isinstance(config, CarFlag1dConfig):
        return EnvSymmetry(MIRROR, _action_map(MIRROR, DELTAS_1D),
                           direct_sum([sign_rep(MIRROR)] * 2))
    if isinstance(config, CarFlag2dConfig):
        n = config.grid_size
        return EnvSymmetry(C4, _action_map(C4, DELTAS_2D), direct_sum([grid_rep(C4, n, n)] * 2))
    raise EnvError(f"unknown env config {type(config).__name__}")


# ---------------------------------------------------------------------------
# Explicit-table exports.
# ---------------------------------------------------------------------------

def _obs_keys(stack: np.ndarray) -> list[bytes]:
    """Dict keys of a stack of observations. Adding 0.0 turns -0.0 into 0.0,
    so the mirror image of position 0 is the same observation."""
    return [row.tobytes() for row in np.asarray(stack, dtype=np.float64) + 0.0]


@dataclass
class ExportMaps:
    """The ids an export gave to observations. State ids follow the order of
    the simulator's ``states()``."""

    obs_ids: dict               # observation key -> observation id

    def obs_id_of_array(self, obs: np.ndarray) -> int:
        o = self.obs_ids.get(_obs_keys([obs])[0])
        if o is None:
            raise EnvError(f"observation {np.ravel(obs)} is not one the simulator emits")
        return o


EXPORT_STATES = 200_000   # most states an export enumerates


def export_pomdp(config, discount: float = 0.99):
    """Explicit (tables, symmetry binding, index maps) of a simulator.

    Every table entry comes from placing the simulator in a state and calling
    its own ``step`` and ``observe``, and every group map from
    ``EnvSymmetry``, so the tables and the simulator are one definition of
    the domain. Terminal states become absorbing with zero reward, so
    finite-horizon sweeps see exactly the episodic semantics. The simulators
    are deterministic, so each (s, a) block of a ``trans`` row and each
    ``obs`` row holds one entry, written as it is met. Observation ids
    are interned in order of first appearance, each together with its group
    images, so they cover what ``observe`` emits and stay closed under the
    group even where the information region breaks the symmetry.
    """
    env = make_env(config, np.random.default_rng(0))
    sym = env_group_binding(config)
    states = env.states()
    n_states, n_actions = len(states), env.n_actions
    if n_states > EXPORT_STATES:
        raise EnvError(f"export needs {n_states} states, over the budget {EXPORT_STATES}")
    state_ids = {st: s for s, st in enumerate(states)}
    # each (s, a)'s one next state, as its column a * S + s' of row s
    columns = np.arange(n_actions) * n_states
    trans_cols = np.empty((n_states, n_actions), dtype=np.int64)
    reward = np.zeros((n_states, n_actions))
    observed, revealed = [], []
    for s, st in enumerate(states):
        env.state = st
        observed.append(env.observe())
        revealed.append(env.revealed())
        if env.terminal():
            trans_cols[s] = columns + s
            continue
        for a in range(n_actions):
            env.state = st
            reward[s, a] = env.step(a)[1]
            trans_cols[s, a] = columns[a] + state_ids[env.state]
    observed, revealed = np.stack(observed), np.stack(revealed)

    orbits = [sym.act_on_obs(g, observed) + 0.0 for g in sym.group.elements]
    images: dict[bytes, np.ndarray] = {}    # interned observations, in id order
    for s in range(n_states):
        for orbit in orbits:
            images.setdefault(orbit[s].tobytes(), orbit[s])
    obs_ids = {key: o for o, key in enumerate(images)}
    obs_arrays = list(images.values())
    state_obs = np.array([obs_ids[key] for key in _obs_keys(observed)])
    obs0 = np.zeros((n_states, len(obs_arrays)))
    obs0[np.arange(n_states), state_obs] = 1.0
    # one entry per row: row s of trans per action, row a * S + s' of obs
    trans = SparseRows(np.arange(n_states + 1) * n_actions, trans_cols.ravel(),
                       np.ones(n_states * n_actions))
    obs = SparseRows(np.arange(n_states * n_actions + 1), np.tile(state_obs, n_actions),
                     np.ones(n_states * n_actions))
    start = np.zeros(n_states)
    start[[state_ids[st] for st in env.start_states()]] = 1.0
    start /= start.sum()
    pomdp = Pomdp(start, trans, reward, obs, obs0, discount)
    pomdp.validate()

    def ids_of_images(ids, stack):  # (|G|, len(stack)): the id of each group image
        return np.array([[ids[key] for key in _obs_keys(sym.act_on_obs(g, stack))]
                         for g in sym.group.elements])

    # a state maps to the state whose revealed observation is its image
    revealed_ids = {key: s for s, key in enumerate(_obs_keys(revealed))}
    binding = GroupActionBinding(sym.group, ids_of_images(revealed_ids, revealed),
                                 sym.action_map, ids_of_images(obs_ids, np.stack(obs_arrays)))
    binding.validate(pomdp)
    return pomdp, binding, ExportMaps(obs_ids)


# ---------------------------------------------------------------------------
# Debug traces.
# ---------------------------------------------------------------------------

def episode_trace(env, actions) -> list[str]:
    """Text trace of one episode driven by a fixed action sequence, one line
    per step: an observation never wraps, however many values it has."""

    def text(obs):
        return np.array2string(obs.ravel(), precision=3, max_line_width=np.inf)

    lines = [f"reset obs={text(env.reset())}"]
    for t, a in enumerate(actions):
        obs, reward, term, trunc = env.step(a)
        lines.append(
            f"t={t} a={a} r={reward:.4g} term={term} trunc={trunc} obs={text(obs)}")
        if term or trunc:
            break
    return lines
