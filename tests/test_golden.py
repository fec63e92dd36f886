"""Golden digests of what the group machinery feeds the program.

Each digest is a sha256 over arrays (dtype, shape and bytes) or text, taken
from the policies and symmetry bindings the program builds: every layer's
tying ``idx``/``sign`` and parameter count, the seeded initial parameters and
the ``describe()`` lines of ``equi`` and ``plain`` on the 1D benchmark domain
and 7x7 CarFlag-2D, and both bindings' action maps and observation images.
A refactor of how groups and representations are stored must leave them
byte for byte as they are.
"""

import hashlib

import numpy as np
import pytest

from equipomdp import autodiff as ad
from equipomdp.agent import (AgentConfig, RecurrentPolicy, benchmark_agent_config,
                             benchmark_env_config)
from equipomdp.envs import CarFlag2dConfig, env_group_binding, make_env
from equipomdp.nn import EquiConv2d
from reference_ops import composed_tied, hadamard

ENVS = {"1d": benchmark_env_config(), "2d": CarFlag2dConfig(grid_size=7)}


def digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        if isinstance(p, str):
            h.update(p.encode())
        else:
            a = np.ascontiguousarray(p)
            h.update(f"{a.dtype}{a.shape}".encode())
            h.update(a.tobytes())
    return h.hexdigest()


def policy_ties(policy: RecurrentPolicy):
    """Each layer's parameters with their (idx, sign) tyings: (layer,
    [(weight, tie), (bias, tie)])."""
    layers = [*([] if policy.extractor is None else policy.extractor.layers),
              policy.cell.linear, *policy.actor.layers, *policy.critic.layers]
    return [(layer, list(zip(layer.parameters(), (
        layer._k_tie if isinstance(layer, EquiConv2d) else layer._w_tie, layer._b_tie))))
        for layer in layers]


def make_policy(key) -> RecurrentPolicy:
    env, setup, variant = key
    cfg = (benchmark_agent_config(variant, 0) if setup == "benchmark"
           else AgentConfig(variant=variant))
    return RecurrentPolicy(ENVS[env], cfg, np.random.default_rng(0))


def policy_digests(policy: RecurrentPolicy) -> dict[str, str]:
    ties = []
    for layer, tied in policy_ties(policy):
        ties += [*tied[0][1], *tied[1][1]]
        ties += [np.array([p.value.size for p in layer.parameters()])]
    state = policy.state_dict()
    return {"tying": digest(*ties),
            "params": digest(*(x for name in sorted(state) for x in (name, state[name]))),
            "describe": digest("\n".join(policy.describe()))}


GOLDEN_POLICIES = {
    ("1d", "benchmark", "equi"): {
        "tying": "49bb95c387aef9d54780028189afb635a4c0ba7e0759b6e2ca17016e2d98152b",
        "params": "474c4151c3d6b3bd25af29463573f5688332621787391d14d8b231a02a36930a",
        "describe": "72368ecaf7eb1f63f74fe7e75ccb573a2339a7eac122dd5b048fd47e27581aed",
    },
    ("1d", "benchmark", "plain"): {
        "tying": "3f1c1be800b3423fe845354009947615100986e11f49e3706ff2ed5cb805f43d",
        "params": "8319127b411d39c70867f208f14c0c77018dc8ed78fe52268f79b8c45a9e7a65",
        "describe": "7f180385b5b738ce886e9ffe0c8fbd55c3abcd565e14c842d9c3a09768a01aa6",
    },
    ("1d", "default", "equi"): {
        "tying": "d9f55477de15f7725e260f066bbff90a23138d040c1309d44fadd7252da69a89",
        "params": "81784000d36b178e28c1341721aade2adac0599bdcf20d611172d60459553532",
        "describe": "ddf89aae7aa52b8683a478a168bb22289cd4317daea56217bcc2e779e0c7ea14",
    },
    ("1d", "default", "plain"): {
        "tying": "bb85e0d8190e40ac138a69f8c4aaf7ba798fb8f372f720221a84b12215ce2871",
        "params": "78e2040508671f77d53cbdb23b90ba43688196f39cc73114f2911cf526453266",
        "describe": "2b1f27edaf702759ae744c32227dc73b3e351b3308226f963b99ea1e4d56b6cc",
    },
    ("2d", "benchmark", "equi"): {
        "tying": "e7f0a8ab113d67519bf740d5a9d94f9e21f7dbf2a3f52e52963e3d3a87397d9d",
        "params": "21099ad015b509282111ae4536bacd4aab278f63f190689a33079c000493b84d",
        "describe": "1ad21771272cbf9ec6c4433e31e689ec685cd354661168c1a1369d0f48322f95",
    },
    ("2d", "benchmark", "plain"): {
        "tying": "c51fde8e6df11cc06e19bcf48a30c6d304e127d243307ffee8ac76f45dc39301",
        "params": "375353c0d8f320d1bec8349a76ca6683841dd7b1410285d905ed4e4f58a87575",
        "describe": "43e56d73f8294ea67bcf3d41c061743279d89f89f85e1bba2a85b50a0cdf9bea",
    },
    ("2d", "default", "equi"): {
        "tying": "5288adca5fde2b34d41de09564a02fe803547a804b6e9cfd258c3d737485ad09",
        "params": "e026dd30d3cc12cba803aba27867cd7924c64765538db1cb11238cf992d3b848",
        "describe": "ba77f821faa4e8e55a00d5b32b58edd7874efae44577b4d82da5aa9ff02f0aac",
    },
    ("2d", "default", "plain"): {
        "tying": "1124464779bf37495e9e14f14f2ac4c18d936a352891c95cf10facd9d3384ca6",
        "params": "aec88e103c2c3da11784b79e173bdff3235b80af4791980b939446850f6a941b",
        "describe": "3fd47edbd0dc1448be59dc740e090fd8877e7b15f14fa087674ffb5d5c6b8e12",
    },
}


@pytest.mark.parametrize("key", sorted(GOLDEN_POLICIES), ids="-".join)
def test_policy_tying_parameters_and_layers_are_pinned(key):
    assert policy_digests(make_policy(key)) == GOLDEN_POLICIES[key]


@pytest.mark.parametrize("key", sorted(GOLDEN_POLICIES), ids="-".join)
def test_tied_weights_equal_take_times_sign_bitwise(key):
    """On every weight and bias of the golden policies, ``ad.tied`` gives the
    value of ``take`` times the sign, and its parameter's gradient under a
    random cotangent, bit for bit."""
    rng = np.random.default_rng(37)
    for layer, tied in policy_ties(make_policy(key)):
        for theta, (idx, sign) in tied:
            cot = ad.Tensor(rng.normal(size=idx.shape))
            got = []
            for tie in (ad.tied, composed_tied):
                out = tie(theta, idx, sign)
                ad.backward(ad.tsum(hadamard(out, cot)))
                got.append((out.value.tobytes(), theta.grad.tobytes()))
            assert got[0] == got[1], theta.name


GOLDEN_BINDINGS = {
    "1d": {
        "action_map": "420fbabf8c8cfdc4801650da4cc9a8f1924850054b9e7de3aa3452c0184452c0",
        "observed": "be370f32d941dcb4b5dfc9fef9541ee8904873c43a99e9aa37a3e50e86496302",
        "revealed": "bc52de4aea7e48d1046af134f002c1d9db60beb4ba594ea46dd01098e2944f02",
    },
    "2d": {
        "action_map": "eb01e9289ee331af490c221e64a1fe8794fb5b79a4bb2ee6e1758b76d2b41f7d",
        "observed": "8a178df03f92ee5ff527aefc4b5d970e97f561b170299a935238b2d0adfdea72",
        "revealed": "79df1cc23f6f4c1daa370bdf3699353d8a1f8ee810617cd37fb902b1fd123d36",
    },
}


@pytest.mark.parametrize("env", sorted(GOLDEN_BINDINGS))
def test_binding_maps_and_observation_images_are_pinned(env):
    """The action map, and every element's image of the stack of all states'
    observations (observed and revealed), which must equal the images of the
    observations taken one at a time."""
    sym = env_group_binding(ENVS[env])
    sim = make_env(ENVS[env], np.random.default_rng(0))
    got = {"action_map": digest(sym.action_map)}
    for name, show in (("observed", sim.observe), ("revealed", sim.revealed)):
        stack = []
        for st in sim.states():
            sim.state = st
            stack.append(show())
        stack = np.stack(stack)
        images = [sym.act_on_obs(g, stack) for g in sym.group.elements]
        for g, image in zip(sym.group.elements, images):
            one_by_one = np.stack([sym.act_on_obs(g, obs) for obs in stack])
            assert image.tobytes() == one_by_one.tobytes()
        got[name] = digest(*images)
    assert got == GOLDEN_BINDINGS[env]
