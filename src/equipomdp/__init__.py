"""Symmetry-aware recurrent actor-critic agents for partially observable
gridworlds, with exact finite-horizon oracles that verify the symmetry claims.
"""

import ctypes
import os

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

# glibc returns the top of its heap to the kernel once more than its trim
# threshold lies free there, and maps each block above its mmap threshold
# afresh; both thresholds start at 128 KiB and move only when a mapped block is
# freed. Each training update frees a few hundred KB of temporaries and each
# oracle slice up to 128 KiB, which the next update or slice faulted back in,
# zero-filled: 5,000-11,000 minor page faults per train-1d benchmark round,
# 6,000-18,000 per train-2d round and 900-1,400 per oracle round, against
# under 300 each with these thresholds. Fixed, they no longer move. A process
# keeps up to TRIM_THRESHOLD of freed heap resident: at 64 MiB the 5x5 horizon-8
# verify's peak RSS rose by 6.6%, at 32 MiB it does not rise.
MMAP_THRESHOLD = 16 << 20
TRIM_THRESHOLD = 32 << 20
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # glibc's <malloc.h> parameter numbers

_libc = ctypes.CDLL(None) if os.name == "posix" else None
if hasattr(_libc, "mallopt"):
    _libc.mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    _libc.mallopt.restype = ctypes.c_int
    _libc.mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD)
    _libc.mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD)
