import dataclasses
import itertools
import re
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from equipomdp.envs import CarFlag1dConfig, CarFlag2dConfig, export_pomdp
from equipomdp.groups import C1, C4, MIRROR as FLIP
from equipomdp import pomdp as pomdp_module
from equipomdp.pomdp import (
    LISTED_VIOLATIONS,
    PUSH_SLICE,
    TABLE_MAGIC,
    GroupActionBinding,
    ImpossibleObservationError,
    NodeBudgetError,
    Pomdp,
    PomdpError,
    belief_update,
    check_invariance,
    exact_q,
    SparseRows,
    initial_belief,
    save_tables,
    verify_belief_invariance,
    verify_value_invariance,
)
from pomdp_builders import (
    dense_obs,
    dense_trans,
    from_dense,
    group_average,
    identity_binding,
    load_tables,
    random_binding,
    random_pomdp,
    sparse_rows,
)
from reference_oracle import (
    HistoryMdp,
    act_on_history,
    child_dicts,
    class_of,
    class_value,
    greedy_actions,
    reference_class_q,
    reference_class_verify_belief_invariance,
    reference_class_verify_value_invariance,
    reference_check_invariance,
    reference_exact_q,
    reference_verify_belief_invariance,
    reference_verify_value_invariance,
)


def single_state_pomdp(discount=0.5):
    return from_dense(
        start=np.array([1.0]),
        trans=np.ones((1, 1, 1)),
        reward=np.ones((1, 1)),
        obs=np.ones((1, 1, 1)),
        obs0=np.ones((1, 1)),
        discount=discount,
    )


def two_state_chain():
    # action 0 moves 0->1 deterministically; observations reveal the state
    trans = np.zeros((2, 1, 2))
    trans[0, 0, 1] = 1.0
    trans[1, 0, 1] = 1.0
    obs = np.zeros((1, 2, 2))
    obs[0, 0, 0] = 1.0
    obs[0, 1, 1] = 1.0
    obs0 = np.eye(2)
    return from_dense(np.array([1.0, 0.0]), trans, np.zeros((2, 1)), obs, obs0, 0.9)


# ---------------------------------------------------------------------------
# Histories and bindings.
# ---------------------------------------------------------------------------

def test_act_on_history_identity():
    binding = identity_binding(C4, 3, 4, 5)
    h = (2, 1, 4, 3, 0)
    assert act_on_history(binding, 0, h) == h


def test_act_on_history_inverse_roundtrip():
    rng = np.random.default_rng(0)
    binding = random_binding(C4, rng, 6, 4, 8)
    h = (5, 2, 7, 0, 3)
    for g in C4.elements:
        ginv = (-g) % C4.order  # element g is g quarter turns
        assert act_on_history(binding, g, act_on_history(binding, ginv, h)) == h


def test_binding_validation_catches_bad_composition():
    maps = np.zeros((2, 3), dtype=np.int64)
    maps[0] = np.arange(3)
    maps[1] = np.array([1, 2, 0])  # order 3 permutation cannot represent order 2
    binding = GroupActionBinding(FLIP, maps, maps.copy(), maps.copy())
    with pytest.raises(PomdpError):
        binding.validate(random_pomdp(np.random.default_rng(0), 3, 3, 3))


@pytest.mark.parametrize("kind, g, column, value, message", [
    pytest.param("state", 2, 0, 10**6, "state map for element 2 is not a bijection",
                 id="entry-out-of-range"),
    pytest.param("state", 3, 0, -1, "state map for element 3 is not a bijection",
                 id="negative-entry"),
    pytest.param("obs", 1, 0, 2, "obs map for element 1 is not a bijection",
                 id="repeated-entry"),
    pytest.param("action", 0, 0, 1, "action map for the identity is not the identity",
                 id="identity-moved"),
    pytest.param("state", 1, None, 2, "state maps break composition at (1, 1)",
                 id="rows-swapped"),
])
def test_binding_validation_names_the_bad_map(kind, g, column, value, message):
    """An entry out of range or a repeated one is named as the element whose
    map is not a bijection, before any composition is checked; a map that is
    a bijection but composes wrongly names the first (g, h) in row-major
    order. Element g of the 3x3 binding is g quarter turns."""
    pomdp, binding, _ = export_pomdp(CarFlag2dConfig(grid_size=3))
    maps = getattr(binding, f"{kind}_maps").copy()
    if column is None:
        maps[[g, value]] = maps[[value, g]]
    else:
        maps[g, column] = value
    bad = dataclasses.replace(binding, **{f"{kind}_maps": maps})
    with pytest.raises(PomdpError, match=re.escape(message)):
        bad.validate(pomdp)


def test_binding_from_another_instance_is_refused():
    pomdp, _, _ = export_pomdp(CarFlag2dConfig(grid_size=3))
    _, binding, _ = export_pomdp(CarFlag2dConfig(grid_size=5))
    message = re.escape("state maps have 625 columns, but the POMDP has 81 states")
    for check in (lambda: check_invariance(pomdp, binding),
                  lambda: verify_belief_invariance(pomdp, binding, 2),
                  lambda: verify_value_invariance(pomdp, binding, 2)):
        with pytest.raises(PomdpError, match=message):
            check()


def test_binding_validation_refuses_maps_that_are_not_integers():
    pomdp, binding, _ = export_pomdp(CarFlag2dConfig(grid_size=3))
    bad = dataclasses.replace(binding, obs_maps=binding.obs_maps.astype(float))
    with pytest.raises(PomdpError, match="obs maps must be integers, got float64"):
        bad.validate(pomdp)


@pytest.mark.parametrize("kind, what", [
    ("state", "states"), ("action", "actions"), ("obs", "observations")])
def test_binding_validation_refuses_a_map_of_the_wrong_width(kind, what):
    pomdp, binding, _ = export_pomdp(CarFlag2dConfig(grid_size=3))
    maps = getattr(binding, f"{kind}_maps")
    n = maps.shape[1]
    for wrong in (maps[:, :-1], np.column_stack((maps, np.full(len(maps), n)))):
        bad = dataclasses.replace(binding, **{f"{kind}_maps": wrong})
        with pytest.raises(PomdpError, match=re.escape(
                f"{kind} maps have {wrong.shape[1]} columns, but the POMDP has {n} {what}")):
            bad.validate(pomdp)


# ---------------------------------------------------------------------------
# Invariance checking on tables.
# ---------------------------------------------------------------------------

def test_identity_binding_always_passes():
    pomdp = random_pomdp(np.random.default_rng(1), 4, 2, 3)
    binding = identity_binding(C1, 4, 2, 3)
    report = check_invariance(pomdp, binding)
    assert report.passed
    assert report.max_dev == 0.0


def test_group_averaged_pomdp_is_invariant():
    rng = np.random.default_rng(2)
    pomdp = random_pomdp(rng, 8, 4, 8)
    binding = random_binding(C4, rng, 8, 4, 8)
    averaged = group_average(pomdp, binding)
    report = check_invariance(averaged, binding)
    assert report.passed, report.lines()
    raw_report = check_invariance(pomdp, binding)
    assert not raw_report.passed  # generic random tables are not symmetric
    assert any(raw_report.violations.values())


def thinned(pomdp: Pomdp, rng: np.random.Generator) -> Pomdp:
    """``pomdp`` with about half of each table's entries zeroed (one entry
    per row kept) and the rows renormalized: tables whose nonzeros and
    their images only partly overlap."""
    def thin(table):
        table = table * (rng.random(table.shape) < 0.5)
        flat = table.reshape(-1, table.shape[-1])
        empty = ~flat.any(axis=1)
        flat[empty, rng.integers(0, flat.shape[1], int(empty.sum()))] = 1.0
        return table / table.sum(axis=-1, keepdims=True)

    return from_dense(thin(pomdp.start), thin(dense_trans(pomdp)),
                      pomdp.reward * (rng.random(pomdp.reward.shape) < 0.5),
                      thin(dense_obs(pomdp)), thin(pomdp.obs0), pomdp.discount)


def invariance_cases():
    for seed in range(4):
        group = C4 if seed % 2 == 0 else FLIP
        rng = np.random.default_rng(100 + seed)
        pomdp = random_pomdp(rng, 8, group.order, 6)
        binding = random_binding(group, rng, 8, group.order, 6)
        yield pytest.param(pomdp, binding, False, id=f"random-{seed}")
        yield pytest.param(group_average(pomdp, binding), binding, False,
                           id=f"random-{seed}-averaged")
        sparse = thinned(pomdp, rng)
        yield pytest.param(sparse, binding, False, id=f"random-{seed}-thinned")
        yield pytest.param(group_average(sparse, binding), binding, False,
                           id=f"random-{seed}-thinned-averaged")
    for name, config in (("3x3", CarFlag2dConfig(grid_size=3)),
                         ("3x3-offset", CarFlag2dConfig(grid_size=3, info_offset=1)),
                         ("1d-offset3", CarFlag1dConfig(half_size=10, info_offset=3))):
        yield pytest.param(*export_pomdp(config)[:2], False, id=name)
    rng = np.random.default_rng(104)
    yield pytest.param(random_pomdp(rng, 8, 4, 6), random_binding(C4, rng, 8, 4, 6), True,
                       id="random-over-max-listed")


@pytest.mark.parametrize("pomdp, binding, over_cap", invariance_cases())
def test_check_invariance_matches_the_dense_reference(pomdp, binding, over_cap):
    """``passed``, ``max_dev`` bit for bit and every violation list, in
    order, equal those of the entry-by-entry comparison of the dense tables,
    each list cut at ``LISTED_VIOLATIONS``."""
    report = check_invariance(pomdp, binding)
    expect = reference_check_invariance(pomdp, binding, max_listed=LISTED_VIOLATIONS)
    assert report.passed == expect.passed
    assert report.max_dev.hex() == expect.max_dev.hex()
    assert report.violations == expect.violations
    assert report.lines() == expect.lines()
    if over_cap:   # every (trans, g) has more violations than are listed
        every = reference_check_invariance(pomdp, binding, max_listed=10 ** 9)
        assert len(every.violations["trans"]) > len(report.violations["trans"]) \
            == LISTED_VIOLATIONS * (binding.group.order - 1)


# ---------------------------------------------------------------------------
# Beliefs.
# ---------------------------------------------------------------------------

def test_belief_deterministic_chain_is_point_mass():
    pomdp = two_state_chain()
    b = initial_belief(pomdp, 0)
    assert np.array_equal(b, [1.0, 0.0])
    b2 = belief_update(pomdp, b, 0, 1)
    assert np.array_equal(b2, [0.0, 1.0])


def test_belief_uninformative_obs_is_pushforward():
    rng = np.random.default_rng(3)
    pomdp = random_pomdp(rng, 5, 2, 3)
    pomdp.obs = sparse_rows(np.full((10, 3), 1.0 / 3.0))
    b = rng.random(5)
    b /= b.sum()
    out = belief_update(pomdp, b, 1, 2)
    assert np.allclose(out, b @ dense_trans(pomdp)[:, 1, :], atol=1e-12)


def test_belief_zero_probability_observation_raises():
    pomdp = two_state_chain()
    b = initial_belief(pomdp, 0)
    with pytest.raises(ImpossibleObservationError):
        belief_update(pomdp, b, 0, 0)  # the chain forces observation 1
    with pytest.raises(ImpossibleObservationError):
        initial_belief(pomdp, 1)


def joint_belief_by_enumeration(pomdp, h):
    """Belief over the final state from the full joint over state sequences."""
    steps = len(h) // 2
    trans, obs = dense_trans(pomdp), dense_obs(pomdp)
    mass = np.zeros(pomdp.n_states)
    for seq in itertools.product(range(pomdp.n_states), repeat=steps + 1):
        p = pomdp.start[seq[0]] * pomdp.obs0[seq[0], h[0]]
        for t in range(steps):
            a, o = h[2 * t + 1], h[2 * t + 2]
            p *= trans[seq[t], a, seq[t + 1]] * obs[a, seq[t + 1], o]
        mass[seq[-1]] += p
    return mass / mass.sum()


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), steps=st.integers(0, 5))
def test_belief_matches_joint_enumeration(seed, steps):
    rng = np.random.default_rng(seed)
    pomdp = random_pomdp(rng, 4, 2, 3)
    hm = HistoryMdp(pomdp)
    h = (int(rng.integers(3)),)
    for _ in range(steps):
        a = int(rng.integers(2))
        probs = hm.obs_probs(h, a)
        o = int(rng.choice(3, p=probs / probs.sum()))
        h = h + (a, o)
    assert np.max(np.abs(hm.belief(h) - joint_belief_by_enumeration(pomdp, h))) < 1e-12


# ---------------------------------------------------------------------------
# History-level MDP.
# ---------------------------------------------------------------------------

def test_history_transition_zero_unless_extension():
    pomdp = random_pomdp(np.random.default_rng(4), 3, 2, 2)
    hm = HistoryMdp(pomdp)
    h = (1,)
    assert hm.transition(h, 0, (1, 1, 0)) == 0.0  # action mismatch
    assert hm.transition(h, 0, (0, 0, 0)) == 0.0  # different prefix
    assert hm.transition(h, 0, (1,)) == 0.0       # not longer
    total = sum(hm.transition(h, 0, h + (0, o)) for o in range(2))
    assert total == pytest.approx(1.0, abs=1e-12)


def test_history_reward_fully_observable_uses_last_state():
    rng = np.random.default_rng(5)
    n = 3
    pomdp = random_pomdp(rng, n, 2, n)
    pomdp.obs = sparse_rows(np.tile(np.eye(n), (2, 1)))  # observation identifies the state
    pomdp.obs0 = np.eye(n)
    hm = HistoryMdp(pomdp)
    h = (2,)
    for a in range(2):
        assert hm.expected_reward(h, a) == pytest.approx(pomdp.reward[2, a], abs=1e-12)
    probs = hm.obs_probs(h, 0)
    o = int(np.argmax(probs))
    h2 = h + (0, o)
    assert hm.expected_reward(h2, 1) == pytest.approx(pomdp.reward[o, 1], abs=1e-12)


# ---------------------------------------------------------------------------
# Exact solving.
# ---------------------------------------------------------------------------

def test_exact_q_zero_horizon():
    sol = exact_q(single_state_pomdp(), horizon=0)
    assert sol.q == [] and sol.edges == []
    assert sol.values == {(0,): 0.0}


def test_exact_q_geometric_sum():
    sol = exact_q(single_state_pomdp(discount=0.5), horizon=3)
    depth, c = class_of(sol, (0,))
    assert sol.q[depth][c][0] == pytest.approx(1.75, abs=1e-12)


def test_exact_q_bellman_spot_check():
    rng = np.random.default_rng(6)
    pomdp = random_pomdp(rng, 4, 2, 3)
    sol = exact_q(pomdp, horizon=3)
    hm = HistoryMdp(pomdp)
    children = child_dicts(sol)
    histories = [h for h in reference_exact_q(pomdp, horizon=3).q if len(h) // 2 < 2]
    for h in rng.choice(len(histories), size=min(10, len(histories)), replace=False):
        h = histories[int(h)]
        depth, c = class_of(sol, h, children)
        for a in range(pomdp.n_actions):
            probs = hm.obs_probs(h, a)
            expect = hm.expected_reward(h, a) + pomdp.discount * sum(
                probs[o] * class_value(sol, *class_of(sol, h + (a, int(o)), children))
                for o in np.flatnonzero(probs > 1e-15))
            assert sol.q[depth][c][a] == pytest.approx(expect, abs=1e-10)


def test_exact_q_node_budget():
    pomdp = random_pomdp(np.random.default_rng(7), 4, 3, 4)
    with pytest.raises(NodeBudgetError):
        exact_q(pomdp, horizon=6, node_budget=100)


@pytest.mark.parametrize("make, horizon", [
    pytest.param(lambda: export_pomdp(CarFlag2dConfig(grid_size=3))[0], 6, id="3x3-h6"),
    pytest.param(lambda: random_pomdp(np.random.default_rng(12), 4, 3, 4), 3, id="random"),
])
def test_node_budget_counts_classes(make, horizon):
    """The budget is checked per slice but still counts classes: the exact
    class count passes, and one fewer fails at the deepest depth."""
    pomdp = make()
    sol = exact_q(pomdp, horizon)
    assert exact_q(pomdp, horizon, node_budget=sol.class_count).class_count == sol.class_count
    with pytest.raises(NodeBudgetError,
                       match=rf"\({sol.class_count - 1} classes\) at depth {horizon} with \d+ "):
        exact_q(pomdp, horizon, node_budget=sol.class_count - 1)


# ---------------------------------------------------------------------------
# Symmetry of beliefs and values on randomly generated invariant models.
# ---------------------------------------------------------------------------

@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_invariant_pomdp_has_invariant_beliefs_and_values(seed):
    rng = np.random.default_rng(seed)
    group = C4 if seed % 2 == 0 else FLIP
    pomdp = random_pomdp(rng, 6, group.order, 6, discount=0.9)
    binding = random_binding(group, rng, 6, group.order, 6)
    averaged = group_average(pomdp, binding)
    assert check_invariance(averaged, binding).passed
    belief_report = verify_belief_invariance(averaged, binding, depth=2)
    assert belief_report.passed, belief_report.lines()
    value_report = verify_value_invariance(averaged, binding, horizon=2)
    assert value_report.passed, value_report.lines()
    assert_matches_reference(averaged, binding, horizon=2)


def test_identity_group_value_check_is_exact():
    pomdp = random_pomdp(np.random.default_rng(8), 4, 2, 3)
    binding = identity_binding(C1, 4, 2, 3)
    report = verify_value_invariance(pomdp, binding, horizon=2)
    assert report.passed
    assert report.max_dev == 0.0


def test_asymmetric_pomdp_is_reported_with_witness():
    rng = np.random.default_rng(9)
    pomdp = random_pomdp(rng, 6, 2, 4)
    binding = random_binding(FLIP, rng, 6, 2, 4)
    averaged = group_average(pomdp, binding)
    averaged.reward[0, 0] += 0.5  # break the symmetry at one entry
    inv = check_invariance(averaged, binding)
    if binding.state_maps[1][0] != 0 or binding.action_maps[1][0] != 0:
        assert not inv.passed
        assert inv.violations["reward"]
    report = verify_value_invariance(averaged, binding, horizon=2)
    if not report.passed:
        assert report.max_dev > 0.0 or report.missing or not report.policy_consistent


# ---------------------------------------------------------------------------
# Cross-check against the per-history reference in ``reference_oracle``.
# ---------------------------------------------------------------------------

def report_fields(report):
    return (report.passed, report.checked, report.missing, report.witness,
            report.policy_witness, report.max_dev)


def assert_matches_reference(pomdp, binding, horizon, roundoff=1e-12):
    """``exact_q`` and both verify functions agree with the per-history sweep:
    every reference history walks down the class DAG to a class with its Q/V
    within 1e-12 and its greedy set, each class counts exactly the histories
    that reach it and starts with the first of them, and the reports agree
    except that a deviation at roundoff level may differ in value and in the
    history that witnesses it. Missing images agree in number, and each
    listed one is a shallowest missing (g, h) of the reference, listed
    shallowest first. Returns (report, reference) pairs."""
    ref = reference_exact_q(pomdp, horizon)
    sol = exact_q(pomdp, horizon)
    assert sol.root_probs == ref.root_probs
    assert sol.node_count == ref.node_count
    children = child_dicts(sol)
    located = {h: class_of(sol, h, children) for h in ref.beliefs}
    members: dict[tuple, list] = {}
    for h, found in located.items():
        assert found is not None, h
        members.setdefault(found, []).append(h)
        if len(h) // 2 == horizon:   # no Q row at the horizon
            assert found[0] == len(sol.q) and class_value(sol, *found) == 0.0, h
    assert len(members) == sol.class_count
    firsts = sol.first_histories()
    for (depth, c), hs in members.items():
        assert (sol.counts[depth][c], firsts[depth][c]) == (len(hs), hs[0])
    for h, row in ref.q.items():
        depth, c = located[h]
        assert np.max(np.abs(sol.q[depth][c] - row)) <= 1e-12, h
        assert greedy_actions(sol.q[depth][c]) == ref.greedy_set(h), h
    for h, v in ref.values.items():
        assert abs(class_value(sol, *located[h]) - v) <= 1e-12, h
    assert sol.values == {h: class_value(sol, *located[h]) for h in ref.root_probs}

    pairs = [(verify_value_invariance(pomdp, binding, horizon),
              reference_verify_value_invariance(pomdp, ref, binding)),
             (verify_belief_invariance(pomdp, binding, horizon),
              reference_verify_belief_invariance(pomdp, ref, binding))]
    for report, expect in pairs:
        assert (report.passed, report.checked, report.missing, report.policy_witness) == (
            expect.passed, expect.checked, expect.missing, expect.policy_witness)
        assert abs(report.max_dev - expect.max_dev) <= roundoff
        if expect.max_dev > roundoff:
            assert report.witness == expect.witness
        assert report.histories == sol.node_count
        assert report.belief_classes == sol.class_count
        missing = set(expect.missing_witnesses)
        listed = report.missing_witnesses
        assert len(listed) == len(set(listed)) <= 20
        assert bool(listed) == bool(missing)
        assert [len(h) for _, h in listed] == sorted(len(h) for _, h in listed)
        for g, h in listed:
            assert (g, h) in missing and (g, h[:-2]) not in missing, (g, h)
    return pairs


@pytest.mark.parametrize("config, horizon", [
    pytest.param(CarFlag2dConfig(grid_size=3), 6, id="3x3-h6"),
    pytest.param(CarFlag2dConfig(grid_size=3, info_offset=1), 6, id="3x3-h6-offset"),
    pytest.param(CarFlag1dConfig(half_size=5), 10, id="1d-h10"),
    pytest.param(CarFlag1dConfig(half_size=5, info_offset=2), 8, id="1d-h8-offset"),
])
def test_belief_class_solver_matches_reference_on_carflag(config, horizon):
    pomdp, binding, _ = export_pomdp(config)
    pairs = assert_matches_reference(pomdp, binding, horizon)
    for report, expect in pairs:
        assert report_fields(report) == report_fields(expect)
        assert report.passed == (config.info_offset == 0)
        assert report.belief_classes < report.histories


def test_merged_belief_class_with_spread_is_refused():
    # the two first observations give beliefs 0.5 -+ 2e-13: one class key
    # (values rounded to 1e-12) but 4e-13 apart, over the 1e-13 spread bound
    delta = 4e-13
    pomdp = from_dense(
        start=np.array([0.5, 0.5]),
        trans=np.tile(np.eye(2)[:, None, :], (1, 1, 1)),
        reward=np.zeros((2, 1)),
        obs=np.full((1, 2, 2), 0.5),
        obs0=np.array([[0.5, 0.5], [0.5 + delta, 0.5 - delta]]),
        discount=0.9,
    )
    pomdp.validate()
    with pytest.raises(PomdpError, match="belief class at depth 0 spreads by"):
        exact_q(pomdp, horizon=2)


def test_merged_belief_class_with_spread_is_refused_below_the_roots():
    # one root belief [.5, .5]; after the action, observation 0 leaves it as
    # it is and observation 1 moves it to .5 +- 4e-13: one class key (values
    # rounded to 1e-12) at depth 1, but 4e-13 apart, over the 1e-13 bound
    eps = 2e-13
    pomdp = from_dense(
        start=np.array([0.5, 0.5]),
        trans=np.eye(2)[:, None, :],
        reward=np.zeros((2, 1)),
        obs=np.array([[[0.25, 0.25 + eps, 0.5 - eps], [0.25, 0.25 - eps, 0.5 + eps]]]),
        obs0=np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]),
        discount=0.9,
    )
    pomdp.validate()
    with pytest.raises(PomdpError, match="belief class at depth 1 spreads by"):
        exact_q(pomdp, horizon=2)


@pytest.mark.parametrize("config, horizon, push_slice", [
    pytest.param(CarFlag2dConfig(grid_size=3), 6, PUSH_SLICE, id="3x3-h6"),
    pytest.param(CarFlag2dConfig(grid_size=3, info_offset=1), 6, PUSH_SLICE,
                 id="3x3-h6-offset"),
    pytest.param(CarFlag2dConfig(grid_size=5), 4, PUSH_SLICE, id="5x5-h4"),
    pytest.param(CarFlag1dConfig(half_size=10), 50, PUSH_SLICE, id="1d-half10-h50"),
    pytest.param(CarFlag2dConfig(grid_size=3, info_offset=1), 6, 1,
                 id="3x3-h6-offset-one-class-slices"),
])
def test_depthwise_solver_matches_per_class_reference_bitwise(monkeypatch, config, horizon,
                                                              push_slice):
    """Every class's support, probabilities, first history, count, children
    (order, probability, child) and Q row are bit for bit those of the
    one-class-at-a-time reference. On 5x5-h4 the deepest expansion forms
    40,192 push entries, so that depth spans several slices; with one class
    per slice, merges reach classes that earlier slices opened."""
    monkeypatch.setattr(pomdp_module, "PUSH_SLICE", push_slice)
    pomdp, _, _ = export_pomdp(config)
    sol = exact_q(pomdp, horizon)
    expect = reference_class_q(pomdp, horizon)
    assert (sol.roots, sol.root_probs, sol.node_count) == (
        expect.roots, expect.root_probs, expect.node_count)
    assert [len(n) for n in sol.counts] == [len(level) for level in expect.classes]
    firsts, children = sol.first_histories(), child_dicts(sol)
    for depth, expected in enumerate(expect.classes):
        starts, states, probs = sol.entries[depth]
        for c, ref in enumerate(expected):
            support, p = states[starts[c]:starts[c + 1]], probs[starts[c]:starts[c + 1]]
            assert support.dtype == ref.support.dtype, ref.first
            assert support.tobytes() == ref.support.tobytes(), ref.first
            assert p.tobytes() == ref.probs.tobytes(), ref.first
            assert (firsts[depth][c], sol.counts[depth][c]) == (ref.first, ref.count)
            assert (depth < len(sol.q)) == (ref.q is not None), ref.first
            if ref.q is not None:
                assert list(children[depth][c].items()) == list(ref.children.items()), \
                    ref.first
                assert sol.q[depth][c].tobytes() == ref.q.tobytes(), ref.first
                assert not sol.q[depth].flags.writeable
            assert class_value(sol, depth, c) == ref.value, ref.first
    if config == CarFlag2dConfig(grid_size=5):
        pushes = np.count_nonzero(dense_trans(pomdp)[sol.entries[horizon - 1][1]])
        assert pushes == 40_192 > PUSH_SLICE


def nonzero_rows(table: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The row scan as ``np.nonzero`` over the 2-D table gives it, kept as
    the reference for the flat scan and for the rows an export writes."""
    rows, cols = np.nonzero(table)
    return np.searchsorted(rows, np.arange(len(table) + 1)), cols, table[rows, cols]


def random_rows_tables():
    rng = np.random.default_rng(12)
    tables = []
    for shape in ((7, 13), (1, 5), (9, 1), (6, 40)):
        table = rng.random(shape) * (rng.random(shape) < 0.4)
        picks = rng.integers(0, table.size, 6)
        table.flat[picks[:2]] = -0.0
        table.flat[picks[2:4]] = 5e-324          # the least subnormal
        table.flat[picks[4:]] = -2.5e-310
        table[rng.integers(0, shape[0])] = 0.0    # a row without nonzeros
        tables.append(table)
    tables.append(np.zeros((4, 3)))
    return tables


@pytest.mark.parametrize("config", [
    pytest.param(CarFlag2dConfig(grid_size=3), id="3x3"),
    pytest.param(CarFlag2dConfig(grid_size=5), id="5x5"),
    pytest.param(None, id="random-tables"),
])
def test_flat_row_scan_matches_the_2d_nonzero_scan(config):
    """Rows, columns, values and row offsets are bit for bit those of
    ``np.nonzero``, in the same order and dtype; -0.0 counts as zero and
    subnormals as nonzero. An export's rows are those of the flat scan of
    their dense view."""
    if config is None:
        scans = [(sparse_rows(table), table) for table in random_rows_tables()]
    else:
        pomdp, _, _ = export_pomdp(config)
        n_pushed = pomdp.n_actions * pomdp.n_states
        scans = [(pomdp.trans, dense_trans(pomdp).reshape(pomdp.n_states, n_pushed)),
                 (pomdp.obs, dense_obs(pomdp).reshape(n_pushed, pomdp.n_obs))]
    for got, table in scans:
        assert isinstance(got, SparseRows)
        for a, b in zip(got, nonzero_rows(table)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_intern_opens_classes_only_for_new_keys():
    """Slices that open classes, one that opens none and one with no
    children: ids follow first occurrence, and only opened classes append
    their beliefs."""
    beliefs = [([0, 2], [0.25, 0.75]), ([1], [1.0]), ([0, 1, 2], [0.5, 0.25, 0.25]),
               ([2], [1.0])]

    def run(picks):
        chosen = [beliefs[i] for i in picks]
        return (np.array([x for states, _ in chosen for x in states], dtype=np.int64),
                np.array([x for _, probs in chosen for x in probs]),
                np.array([len(states) for states, _ in chosen], dtype=np.int64))

    level = pomdp_module._Level(1)
    for picks, expect in (([0, 1, 0], [0, 1, 0]), ([], []), ([1, 0, 1], [1, 0, 1]),
                          ([2, 0, 2, 3, 1], [2, 0, 2, 3, 1]), ([], [])):
        ids = level.intern(*run(picks))
        assert ids.dtype == np.int64 and ids.tolist() == expect
    starts, states, probs = level.compact()
    whole = run(range(len(beliefs)))
    assert states.tobytes() == whole[0].tobytes() and probs.tobytes() == whole[1].tobytes()
    assert starts.tolist() == [0, 2, 3, 6, 7]


@pytest.mark.parametrize("config, horizon", [
    pytest.param(CarFlag2dConfig(grid_size=3), 6, id="3x3-h6"),
    pytest.param(CarFlag2dConfig(grid_size=5), 4, id="5x5-h4"),
])
def test_belief_classes_store_sparse_read_only_beliefs(config, horizon):
    """Every class holds a sparse belief, and every child formed in bulk is
    bitwise the belief a per-child update of its parent's dense belief gives,
    in the order that loop meets the children. The solution holds read-only
    per-depth arrays and no per-class object."""
    pomdp, _, _ = export_pomdp(config)
    sol = exact_q(pomdp, horizon)
    n_states, n_actions = pomdp.n_states, pomdp.n_actions
    trans, obs = dense_trans(pomdp).reshape(n_states, -1), dense_obs(pomdp)
    firsts, children = sol.first_histories(), child_dicts(sol)
    for depth, (starts, states, probs) in enumerate(sol.entries):
        for c in range(len(starts) - 1):
            support, p_c = states[starts[c]:starts[c + 1]], probs[starts[c]:starts[c + 1]]
            if depth < horizon:
                belief = sol.belief(depth, c)
                nz = np.flatnonzero(belief)
                pushed = (belief[nz] @ trans[nz]).reshape(n_actions, n_states)
                reach = np.flatnonzero(pushed.any(axis=0))
                obs_p = np.einsum("at,ato->ao", pushed[:, reach], obs[:, reach])
                order = [(a, int(o)) for a in range(n_actions)
                         for o in np.flatnonzero(obs_p[a] > 1e-15)]
                assert list(children[depth][c]) == order
                below, kids, kid_probs = sol.entries[depth + 1]
                for (a, o), (p, child) in children[depth][c].items():
                    assert p == obs_p[a, o]
                    if firsts[depth + 1][child] == firsts[depth][c] + (a, o):
                        b = pushed[a] * obs[a, :, o] / obs_p[a, o]
                        span = slice(below[child], below[child + 1])
                        assert np.array_equal(np.flatnonzero(b), kids[span])
                        assert b[kids[span]].tobytes() == kid_probs[span].tobytes()
            assert support.dtype == np.int64
            assert np.all(np.diff(support) > 0)
            assert len(support) < pomdp.n_states
            assert np.all(p_c > 0.0)
            assert abs(p_c.sum() - 1.0) <= 1e-12
        assert starts.dtype == np.int64 and states.shape == probs.shape
    arrays = [*(a for entry in sol.entries for a in entry), *sol.counts,
              *(a for edge in sol.edges for a in edge), *sol.q]
    assert len(arrays) == 4 * (horizon + 1) + 4 * horizon
    assert not any(a.flags.writeable for a in arrays)
    for name, value in vars(sol).items():
        if isinstance(value, list):   # per depth: an array or a tuple of arrays
            assert all(isinstance(x, np.ndarray) or all(isinstance(y, np.ndarray) for y in x)
                       for x in value), name
        else:
            assert isinstance(value, (int, dict)), name


@pytest.mark.parametrize("config, horizon", [
    pytest.param(CarFlag2dConfig(grid_size=3), 4, id="3x3-h4"),
    pytest.param(CarFlag1dConfig(half_size=5, info_offset=2), 8, id="1d-h8-offset"),
])
def test_dense_beliefs_scatter_back_to_the_reference(config, horizon):
    pomdp, _, _ = export_pomdp(config)
    sol = exact_q(pomdp, horizon)
    ref = reference_exact_q(pomdp, horizon)
    beliefs = sol.beliefs
    assert len(beliefs) == sol.class_count
    for b in beliefs.values():
        assert b.shape == (pomdp.n_states,) and not b.flags.writeable
    firsts, children = sol.first_histories(), child_dicts(sol)
    for h, expect in ref.beliefs.items():
        depth, c = class_of(sol, h, children)
        starts, states, probs = sol.entries[depth]
        support = states[starts[c]:starts[c + 1]]
        b = beliefs[firsts[depth][c]]
        assert np.array_equal(np.flatnonzero(b), support), h
        assert np.max(np.abs(b - expect)) <= 1e-12, h
        if h == firsts[depth][c]:
            assert np.array_equal(b[support], probs[starts[c]:starts[c + 1]]), h


@pytest.mark.parametrize("swap", [
    pytest.param(False, id="largest-on-class-side"),
    pytest.param(True, id="largest-on-image-side"),
])
def test_belief_check_over_different_supports_reports_the_dense_deviation(swap):
    # the flip swaps states 0 <-> 1 and 2 <-> 3 and observations 0 <-> 1; the
    # table is not flip-invariant, so the first observations' beliefs
    # [.3, 0, .7, 0] and [.15, .85, 0, 0] compare, in the states of each
    # other, over supports that differ. Each side has an entry the
    # other lacks, and the largest deviation, witnessed at history (0,), lies
    # on the class's side, or on the image's once the two observations swap.
    obs0 = np.array([[0.3, 0.15, 0.55], [0.0, 0.85, 0.15], [0.7, 0.0, 0.3],
                     [0.0, 0.0, 1.0]])
    pomdp = from_dense(
        start=np.full(4, 0.25),
        trans=np.eye(4)[:, None, :],
        reward=np.zeros((4, 1)),
        obs=np.full((1, 4, 3), 1.0 / 3.0),
        obs0=obs0[:, [1, 0, 2]] if swap else obs0,
        discount=0.9,
    )
    pomdp.validate()
    binding = GroupActionBinding(FLIP, np.array([[0, 1, 2, 3], [1, 0, 3, 2]]),
                                 np.zeros((2, 1), dtype=np.int64),
                                 np.array([[0, 1, 2], [1, 0, 2]]))
    sol = exact_q(pomdp, horizon=1)
    starts, states, _ = sol.entries[0]
    first, image = (states[starts[c]:starts[c + 1]] for c in (sol.roots[(o,)] for o in (0, 1)))
    supports = [first.tolist(), sorted(binding.state_maps[1][image].tolist())]
    assert supports == ([[0, 1], [1, 3]] if swap else [[0, 2], [0, 1]])
    for depth in (0, 1):
        report = verify_belief_invariance(pomdp, binding, depth)
        expect = reference_verify_belief_invariance(
            pomdp, reference_exact_q(pomdp, depth), binding)
        assert report_fields(report) == report_fields(expect)
        assert report.max_dev == pytest.approx(0.7, abs=1e-12)
        assert report.witness[:2] == (1, (0,))


def two_root_flip_toy():
    """The spread toy's tables with the first observations 5e-14 apart, inside
    the spread bound: both roots fall in one class, and under the flip
    (states and observations swapped) each root's image is the other, so
    both roots reach one pair (class, class, flip)."""
    delta = 5e-14
    pomdp = from_dense(
        start=np.array([0.5, 0.5]),
        trans=np.tile(np.eye(2)[:, None, :], (1, 1, 1)),
        reward=np.array([[1.0], [0.0]]),
        obs=np.full((1, 2, 2), 0.5),
        obs0=np.array([[0.5, 0.5], [0.5 + delta, 0.5 - delta]]),
        discount=0.9,
    )
    pomdp.validate()
    binding = GroupActionBinding(FLIP, np.array([[0, 1], [1, 0]]),
                                 np.zeros((2, 1), dtype=np.int64), np.array([[0, 1], [1, 0]]))
    return pomdp, binding


def random_instance(seed, group, averaged):
    rng = np.random.default_rng(seed)
    pomdp = random_pomdp(rng, 6, group.order, 6, discount=0.9)
    binding = random_binding(group, rng, 6, group.order, 6)
    return (group_average(pomdp, binding) if averaged else pomdp), binding


def assert_same_report(report, expect):
    """Every field but the timings equal, ``max_dev`` bit for bit."""
    for f in fields(report):
        if f.name in ("solve_s", "check_s"):
            continue
        got, want = getattr(report, f.name), getattr(expect, f.name)
        if f.name == "max_dev":
            got, want = got.hex(), want.hex()
        assert got == want, f.name


@pytest.mark.parametrize("make, horizon, facts", [
    pytest.param(lambda: export_pomdp(CarFlag2dConfig(grid_size=3))[:2], 6, None,
                 id="3x3-h6"),
    pytest.param(lambda: export_pomdp(CarFlag2dConfig(grid_size=3, info_offset=1))[:2], 6,
                 lambda value, belief: (value.missing == 65_891 and value.witness
                                        and value.policy_witness), id="3x3-h6-offset"),
    pytest.param(lambda: export_pomdp(CarFlag2dConfig(grid_size=5))[:2], 4, None,
                 id="5x5-h4"),
    pytest.param(lambda: export_pomdp(CarFlag1dConfig(half_size=10))[:2], 50, None,
                 id="1d-half10-h50"),
    pytest.param(lambda: export_pomdp(CarFlag1dConfig(half_size=10, info_offset=3))[:2], 50,
                 lambda value, belief: value.missing and value.policy_witness,
                 id="1d-half10-h50-offset3"),
    pytest.param(lambda: random_instance(13, C4, True), 2,
                 lambda value, belief: value.passed and belief.passed,
                 id="random-c4-averaged"),
    pytest.param(lambda: random_instance(14, C4, False), 2,
                 lambda value, belief: value.witness and belief.witness, id="random-c4"),
    pytest.param(lambda: random_instance(15, FLIP, False), 3,
                 lambda value, belief: value.witness and belief.witness, id="random-flip"),
    pytest.param(two_root_flip_toy, 2,
                 lambda value, belief: belief.witness and not belief.missing,
                 id="two-root-flip-toy"),
])
def test_array_checks_match_the_class_pair_reference(make, horizon, facts):
    """Both verify functions give the reports of the one-pair-at-a-time class
    walk, field by field: counts, missing images and their witnesses in
    order, the deviation bit for bit, its witness and the policy witness.
    ``facts`` of the two reports pins what each instance exercises."""
    pomdp, binding = make()
    value = verify_value_invariance(pomdp, binding, horizon)
    assert_same_report(value, reference_class_verify_value_invariance(pomdp, binding, horizon))
    belief = verify_belief_invariance(pomdp, binding, horizon)
    assert_same_report(belief,
                       reference_class_verify_belief_invariance(pomdp, binding, horizon))
    assert facts is None or facts(value, belief)
    if horizon == 50:
        assert belief.checked > 2 ** 53   # counts past float precision stay exact


def test_two_root_flip_toy_roots_share_one_class():
    pomdp, _ = two_root_flip_toy()
    sol = exact_q(pomdp, horizon=2)
    assert list(sol.roots.values()) == [0, 0]
    assert len(sol.counts[0]) == 1


# ---------------------------------------------------------------------------
# Table files.
# ---------------------------------------------------------------------------

def ndenumerate_table_text(pomdp: Pomdp) -> str:
    """The table file as the entry-by-entry writer formed it over the dense
    tables, kept as the reference for ``save_tables``."""
    lines = [TABLE_MAGIC, f"sizes {pomdp.n_states} {pomdp.n_actions} {pomdp.n_obs}",
             "discount %.17g" % pomdp.discount]
    for tag, table in (("b0", pomdp.start), ("O0", pomdp.obs0), ("T", dense_trans(pomdp)),
                       ("R", pomdp.reward), ("O", dense_obs(pomdp))):
        lines.extend(" ".join([tag, *map(str, idx), "%.17g" % v])
                     for idx, v in np.ndenumerate(table) if v)
    return "\n".join(lines) + "\n"


def set_entry(rows: SparseRows, r: int, c: int, value: float) -> None:
    """Overwrite the stored entry at row r, column c."""
    k = rows.at[r] + int(np.searchsorted(rows.cols[rows.at[r]:rows.at[r + 1]], c))
    assert rows.cols[k] == c
    rows.vals[k] = value


def test_save_tables_writes_the_entry_by_entry_bytes(tmp_path):
    """Only nonzeros are written, in C order of the dense index; a stored
    -0.0 is skipped and the least subnormal kept."""
    dense = random_pomdp(np.random.default_rng(13), 5, 3, 4, discount=0.87)
    set_entry(dense.trans, 1, 2 * 5 + 3, -0.0)
    set_entry(dense.obs, 2 * 5 + 4, 0, -0.0)
    set_entry(dense.trans, 0, 4, 5e-324)
    dense.start[3] = -0.0
    dense.reward[2, 1] = dense.obs0[1, 2] = 5e-324
    dense.reward[0, 0] = -0.0
    exported, _, _ = export_pomdp(CarFlag2dConfig(grid_size=3))
    for pomdp in (dense, exported):
        path = tmp_path / "model.tables"
        save_tables(path, pomdp)
        assert path.read_bytes() == ndenumerate_table_text(pomdp).encode()
    lines = ndenumerate_table_text(dense).splitlines()
    assert sum(line.endswith(" 4.9406564584124654e-324") for line in lines) == 3
    assert not any(line.startswith(("b0 3 ", "T 1 2 3 ", "R 0 0 ", "O 2 4 0 "))
                   for line in lines)


def test_table_roundtrip(tmp_path):
    """A file reads back to the tables written, rows and all, for a dense
    random model and an export."""
    exported, _, _ = export_pomdp(CarFlag2dConfig(grid_size=3, info_offset=1), discount=0.9)
    for pomdp in (random_pomdp(np.random.default_rng(10), 5, 3, 4, discount=0.87), exported):
        path = tmp_path / "model.tables"
        save_tables(path, pomdp)
        loaded = load_tables(path)
        for got, want in ((loaded.trans, pomdp.trans), (loaded.obs, pomdp.obs)):
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        for name in ("start", "reward", "obs0"):
            assert getattr(loaded, name).tobytes() == getattr(pomdp, name).tobytes()
        assert loaded.discount == pomdp.discount


@pytest.mark.parametrize("lineno, bad_line, replace, message", [
    pytest.param(6, "R -1 0 1.0", False, "R index (-1, 0) outside", id="negative-index"),
    pytest.param(6, "T 0 0 5 1.0", False, "T index (0, 0, 5) outside", id="index-past-end"),
    pytest.param(6, "O0 2 4 1.0", False, "O0 index (2, 4) outside", id="obs-index-past-end"),
    pytest.param(6, "R 0", False, "R needs 2 indices and a value, got 1 fields",
                 id="missing-value"),
    pytest.param(6, "b0 0 0 0.5", False, "b0 needs 1 indices and a value, got 3 fields",
                 id="extra-field"),
    pytest.param(6, "X 0 1.0", False, "unknown table line tag 'X'", id="unknown-tag"),
    pytest.param(6, "R 0 x 1.0", False, "R has a malformed number", id="malformed-number"),
    pytest.param(2, "sizes 3 2", True, "expected 'sizes' and 3 value(s), got 'sizes 3 2'",
                 id="sizes-field-count"),
    pytest.param(2, "sizes 3 2.5 4", True, "sizes has a malformed number",
                 id="sizes-non-integer"),
    pytest.param(2, "sizes 3 0 4", True, "sizes must be positive, got 3 0 4",
                 id="sizes-zero"),
    pytest.param(2, "sizes -3 2 4", True, "sizes must be positive, got -3 2 4",
                 id="sizes-negative"),
    pytest.param(3, "discount", True, "expected 'discount' and 1 value(s), got 'discount'",
                 id="discount-missing"),
    pytest.param(3, "discount 0.9x", True, "discount has a malformed number",
                 id="discount-malformed"),
])
def test_load_tables_names_the_bad_line(tmp_path, lineno, bad_line, replace, message):
    pomdp = random_pomdp(np.random.default_rng(11), 3, 2, 4)
    path = tmp_path / "model.tables"
    save_tables(path, pomdp)
    lines = path.read_text().splitlines()
    if replace:
        lines[lineno - 1] = bad_line
    else:
        lines.insert(lineno - 1, bad_line)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(PomdpError, match=re.escape(f"line {lineno}: {message}")):
        load_tables(path)


def test_validate_rejects_bad_tables():
    pomdp = single_state_pomdp()
    pomdp.trans = pomdp.trans._replace(vals=np.full(1, 0.5))
    with pytest.raises(PomdpError):
        pomdp.validate()


def rows_with(rows: SparseRows, **changes) -> SparseRows:
    """A copy of ``rows`` whose arrays are changed by the callables given."""
    return SparseRows(*(changes[name](getattr(rows, name).copy()) if name in changes
                        else getattr(rows, name) for name in SparseRows._fields))


def setting(index, value):
    def change(array):
        array[index] = value
        return array
    return change


@pytest.mark.parametrize("table, change, message", [
    pytest.param("trans", dict(vals=setting(13, 0.97)),
                 "trans row (s=3, a=1) sums to 0.97", id="trans-sum"),
    pytest.param("obs", dict(cols=setting(2 * 9 + 7, 51)),
                 "obs row (a=2, s'=7) has column 51 outside 49 observations",
                 id="obs-column-out-of-range"),
    pytest.param("trans", dict(cols=setting(5, -1)),
                 "trans row (s=1) has column -1 outside 36 (action, state) columns",
                 id="trans-column-negative"),
    pytest.param("obs", dict(vals=setting(4, -0.25)),
                 "obs row (a=0, s'=4) has a negative entry -0.25", id="obs-negative"),
    pytest.param("obs", dict(vals=setting(30, 0.5)),
                 "obs row (a=3, s'=3) sums to 0.5", id="obs-sum"),
    pytest.param("trans", dict(cols=setting([4, 5], [10, 8])),
                 "trans row (s=1) has column 8 out of order", id="trans-columns-out-of-order"),
    pytest.param("trans", dict(at=setting(4, 24)),
                 "trans row offsets decrease at row (s=4)", id="trans-offsets-decrease"),
    pytest.param("obs", dict(at=setting(-1, 35)),
                 "obs row offsets run from 0 to 35, but 36 columns and 36 values are stored",
                 id="obs-offsets-short"),
    pytest.param("trans", dict(at=lambda at: at[:-1]),
                 "trans has 8 rows, but the POMDP has 9 states", id="trans-row-count"),
    pytest.param("obs", dict(cols=lambda cols: cols.astype(float)),
                 "obs row offsets and columns must be integers", id="obs-float-columns"),
])
def test_validate_names_the_bad_row(table, change, message):
    """Each broken row layout or distribution is named by its first bad row.
    In the toy export, stored entry 4 s + a of ``trans`` is (s, a)'s one
    next state, and stored entry 9 a + s' of ``obs`` is row (a, s')'s one
    observation."""
    pomdp = toy_export()
    pomdp.validate()
    setattr(pomdp, table, rows_with(getattr(pomdp, table), **change))
    with pytest.raises(PomdpError, match=re.escape(message)):
        pomdp.validate()


def toy_export() -> Pomdp:
    """A 9-state, 4-action POMDP with one nonzero per (s, a) and per (a, s'),
    on 49 observations, laid out as an export lays out its rows."""
    rng = np.random.default_rng(20)
    trans = np.zeros((9, 4, 9))
    trans[np.arange(9)[:, None], np.arange(4), rng.integers(0, 9, (9, 4))] = 1.0
    obs = np.zeros((4, 9, 49))
    obs[np.arange(4)[:, None], np.arange(9), rng.integers(0, 49, (4, 9))] = 1.0
    return from_dense(np.full(9, 1 / 9), trans, rng.normal(size=(9, 4)), obs, obs[0], 0.9)
