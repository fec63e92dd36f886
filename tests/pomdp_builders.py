"""Small POMDP instances and symmetry bindings built for the tests of
``equipomdp.pomdp``: random tables, random bindings, their group average and
the identity binding."""

from __future__ import annotations

import numpy as np

from equipomdp.groups import Group
from equipomdp.pomdp import GroupActionBinding, Pomdp


def identity_binding(group: Group, n_states: int, n_actions: int, n_obs: int) -> GroupActionBinding:
    def rows(n):
        return np.tile(np.arange(n), (group.order, 1))

    return GroupActionBinding(group, rows(n_states), rows(n_actions), rows(n_obs))


def random_pomdp(rng: np.random.Generator, n_states: int, n_actions: int, n_obs: int,
                 discount: float = 0.95) -> Pomdp:
    def stochastic(shape):
        raw = rng.random(shape) + 1e-3
        return raw / raw.sum(axis=-1, keepdims=True)

    return Pomdp(
        start=stochastic((n_states,)),
        trans=stochastic((n_states, n_actions, n_states)),
        reward=rng.normal(size=(n_states, n_actions)),
        obs=stochastic((n_actions, n_states, n_obs)),
        obs0=stochastic((n_states, n_obs)),
        discount=discount,
    )


def random_binding(group: Group, rng: np.random.Generator, n_states: int,
                   n_actions: int, n_obs: int) -> GroupActionBinding:
    """Random permutations whose order divides the group order, powered per element."""

    def maps_for(n):
        order = group.order
        perm = np.arange(n)
        shuffled = rng.permutation(n)
        for at in range(0, n - order + 1, order):
            cycle = shuffled[at : at + order]
            perm[cycle] = np.roll(cycle, -1)
        maps = np.zeros((order, n), dtype=np.int64)
        maps[0] = np.arange(n)
        for g in range(1, order):
            maps[g] = perm[maps[g - 1]]
        return maps

    return GroupActionBinding(group, maps_for(n_states), maps_for(n_actions), maps_for(n_obs))


def group_average(pomdp: Pomdp, binding: GroupActionBinding) -> Pomdp:
    """Average every table over the group orbit; the result is exactly invariant."""
    binding.validate(pomdp)
    n = binding.group.order
    trans = np.zeros_like(pomdp.trans)
    reward = np.zeros_like(pomdp.reward)
    obs = np.zeros_like(pomdp.obs)
    obs0 = np.zeros_like(pomdp.obs0)
    start = np.zeros_like(pomdp.start)
    for g in binding.group.elements:
        sm, am, om = binding.state_maps[g], binding.action_maps[g], binding.obs_maps[g]
        trans += pomdp.trans[np.ix_(sm, am, sm)]
        reward += pomdp.reward[np.ix_(sm, am)]
        obs += pomdp.obs[np.ix_(am, sm, om)]
        obs0 += pomdp.obs0[np.ix_(sm, om)]
        start += pomdp.start[sm]
    out = Pomdp(start / n, trans / n, reward / n, obs / n, obs0 / n, pomdp.discount)
    out.validate(atol=1e-9)
    return out
