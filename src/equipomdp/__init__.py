"""Symmetry-aware recurrent actor-critic agents for partially observable
gridworlds, with exact finite-horizon oracles that verify the symmetry claims.
"""

from .agent import AgentConfig, RecurrentPolicy, evaluate, train
from .envs import CarFlag1dConfig, CarFlag2dConfig, env_group_binding, export_pomdp, make_env
from .groups import Group, Representation, generate
from .pomdp import (
    GroupActionBinding,
    Pomdp,
    check_invariance,
    exact_q,
    verify_belief_invariance,
    verify_value_invariance,
)

__all__ = [
    "AgentConfig",
    "CarFlag1dConfig",
    "CarFlag2dConfig",
    "Group",
    "GroupActionBinding",
    "Pomdp",
    "RecurrentPolicy",
    "Representation",
    "check_invariance",
    "env_group_binding",
    "evaluate",
    "exact_q",
    "export_pomdp",
    "generate",
    "make_env",
    "train",
    "verify_belief_invariance",
    "verify_value_invariance",
]
