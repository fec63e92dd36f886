"""An export's ids read back from the simulator, for the tests that walk the
tables and the simulator side by side: state ids follow ``states()``, a
state's observation id is the export's id of what ``observe`` emits there,
and an observation id's array is the key it was interned under."""

from dataclasses import dataclass

import numpy as np

from equipomdp.envs import ExportMaps, export_pomdp, make_env


@dataclass(frozen=True)
class SimulatorMaps:
    export: ExportMaps
    state_ids: dict             # simulator state tuple -> state id
    obs_arrays: list            # observation id -> observation array
    state_obs: np.ndarray       # state id -> id of the state's observation
    terminal: np.ndarray        # state id -> whether the simulator ends there

    def obs_id_of_array(self, obs: np.ndarray) -> int:
        return self.export.obs_id_of_array(obs)


def simulator_maps(config, export: ExportMaps) -> SimulatorMaps:
    env = make_env(config, np.random.default_rng(0))
    states = env.states()
    state_obs, terminal = [], []
    for st in states:
        env.state = st
        state_obs.append(export.obs_id_of_array(env.observe()))
        terminal.append(env.terminal())
    shape = env.observe().shape
    keys = sorted(export.obs_ids, key=export.obs_ids.get)
    return SimulatorMaps(export, {st: s for s, st in enumerate(states)},
                         [np.frombuffer(key).reshape(shape) for key in keys],
                         np.array(state_obs), np.array(terminal))


def export_with_maps(config, **kw):
    """``export_pomdp``'s tables and binding, with its ids read back."""
    pomdp, binding, export = export_pomdp(config, **kw)
    return pomdp, binding, simulator_maps(config, export)
