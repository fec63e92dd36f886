import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from equipomdp.groups import (
    CYCLIC,
    REFLECTION,
    GroupError,
    GroupMismatchError,
    InvalidOrderError,
    UnknownElementError,
    UnsupportedSpatialActionError,
    direct_sum,
    grid_rep,
    make_group,
    regular_rep,
    sign_rep,
    spatial_permutation,
    standard_rep,
    trivial_rep,
)
from feature_fields import FeatureField, act_on_field

C4 = make_group(CYCLIC, 4)
C2 = make_group(CYCLIC, 2)
FLIP = make_group(REFLECTION)


def all_test_reps(group):
    reps = [trivial_rep(group), regular_rep(group)]
    if group.kind == CYCLIC:
        reps.append(standard_rep(group))
    if group.order == 2:
        reps.append(sign_rep(group))
    if group.order in (1, 2, 4):
        reps.append(grid_rep(group, 3, 3))
    reps.append(direct_sum([trivial_rep(group), regular_rep(group)]))
    return reps


def test_make_group_c4():
    g = make_group(CYCLIC, 4)
    assert g.order == 4
    assert g.elements == (0, 1, 2, 3)
    assert g.identity == 0


def test_make_group_trivial():
    g = make_group(CYCLIC, 1)
    assert g.order == 1
    assert g.elements == (0,)


def test_c8_composition_closed_brute_force():
    g = make_group(CYCLIC, 8)
    elems = set(g.elements)
    for a in g.elements:
        for b in g.elements:
            assert g.compose(a, b) in elems
    # identity and inverses
    for a in g.elements:
        assert g.compose(a, 0) == a
        assert g.compose((-a) % g.order, a) == 0
    # associativity, exhaustively
    for a in g.elements:
        for b in g.elements:
            for c in g.elements:
                assert g.compose(g.compose(a, b), c) == g.compose(a, g.compose(b, c))


def test_make_group_invalid_order():
    with pytest.raises(InvalidOrderError):
        make_group(CYCLIC, 0)
    with pytest.raises(InvalidOrderError):
        make_group(REFLECTION, 3)
    with pytest.raises(GroupError):
        make_group("dihedral", 4)


def test_regular_rep_c4_generator_is_cyclic_shift():
    rep = regular_rep(C4)
    m = rep.matrix(1)
    expected = np.zeros((4, 4))
    for i in range(4):
        expected[(i + 1) % 4, i] = 1.0
    assert np.array_equal(m, expected)


def test_rep_matrix_identity_is_identity():
    for group in (C4, C2, FLIP):
        for rep in all_test_reps(group):
            assert np.allclose(rep.matrix(0), np.eye(rep.dim), atol=0)


def test_standard_rep_quarter_turn():
    m = standard_rep(C4).matrix(1)
    assert np.allclose(m, [[0.0, -1.0], [1.0, 0.0]], atol=1e-12)


def test_rep_matrix_unknown_element():
    with pytest.raises(UnknownElementError):
        regular_rep(C4).matrix(4)
    with pytest.raises(UnknownElementError):
        regular_rep(C4).matrix(-1)


def test_homomorphism_and_inverse_all_reps():
    for group in (C4, C2, FLIP, make_group(CYCLIC, 1)):
        for rep in all_test_reps(group):
            for a in group.elements:
                ma = rep.matrix(a)
                inv = rep.matrix((-a) % group.order)  # elements compose additively
                assert np.max(np.abs(ma @ inv - np.eye(rep.dim))) < 1e-12
                for b in group.elements:
                    prod = rep.matrix(group.compose(a, b))
                    assert np.max(np.abs(prod - ma @ rep.matrix(b))) < 1e-12


def test_direct_sum_sign_block():
    rep = direct_sum([trivial_rep(FLIP), sign_rep(FLIP)])
    assert rep.dim == 2
    assert np.array_equal(rep.matrix(1), np.diag([1.0, -1.0]))


def test_direct_sum_empty_is_error():
    with pytest.raises(GroupError):
        direct_sum([])


def test_direct_sum_group_mismatch():
    with pytest.raises(GroupMismatchError):
        direct_sum([trivial_rep(C4), trivial_rep(C2)])


def test_direct_sum_regular_regular():
    rep = direct_sum([regular_rep(C4), regular_rep(C4)])
    assert rep.dim == 8
    m = rep.matrix(1)
    assert np.array_equal(m[:4, :4], regular_rep(C4).matrix(1))
    assert np.array_equal(m[4:, 4:], regular_rep(C4).matrix(1))
    assert np.count_nonzero(m[:4, 4:]) == 0


def test_act_on_field_pixel_rotation_keeps_values():
    vals = np.arange(9.0).reshape(1, 3, 3)
    field = FeatureField(trivial_rep(C4), vals, spatial=(3, 3))
    out = act_on_field(1, field)
    assert np.array_equal(out.values[0], np.rot90(vals[0]))
    assert sorted(out.values.ravel()) == sorted(vals.ravel())


def test_act_on_field_identity():
    rng = np.random.default_rng(0)
    field = FeatureField(regular_rep(C4), rng.normal(size=(4, 5, 5)), spatial=(5, 5))
    out = act_on_field(0, field)
    assert np.array_equal(out.values, field.values)


def test_act_on_field_channel_swap():
    field = FeatureField(regular_rep(C2), np.array([1.0, 2.0]))
    out = act_on_field(1, field)
    assert np.array_equal(out.values, [2.0, 1.0])


def test_act_on_field_nonsquare_rotation_rejected():
    field = FeatureField(trivial_rep(C4), np.zeros((1, 2, 3)), spatial=(2, 3))
    with pytest.raises(UnsupportedSpatialActionError):
        act_on_field(1, field)


def test_flip_acts_on_columns():
    vals = np.arange(6.0).reshape(1, 2, 3)
    field = FeatureField(trivial_rep(FLIP), vals, spatial=(2, 3))
    out = act_on_field(1, field)
    assert np.array_equal(out.values[0], vals[0, :, ::-1])


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from([("cyclic", 4), ("cyclic", 2), ("reflection", 2)]),
    g=st.integers(0, 3),
    h=st.integers(0, 3),
    seed=st.integers(0, 10_000),
    grid=st.booleans(),
)
def test_action_composition_property(kind, g, h, seed, grid):
    group = make_group(*kind)
    g %= group.order
    h %= group.order
    rng = np.random.default_rng(seed)
    rep = direct_sum([trivial_rep(group), regular_rep(group)])
    if grid:
        field = FeatureField(rep, rng.normal(size=(rep.dim, 4, 4)), spatial=(4, 4))
    else:
        field = FeatureField(rep, rng.normal(size=(rep.dim,)))
    lhs = act_on_field(g, act_on_field(h, field))
    rhs = act_on_field(group.compose(g, h), field)
    assert np.max(np.abs(lhs.values - rhs.values)) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_regular_rep_is_permutation_and_order_n(n):
    group = make_group(CYCLIC, n)
    rep = regular_rep(group)
    rng = np.random.default_rng(n)
    v = rng.normal(size=n)
    for g in group.elements:
        m = rep.matrix(g)
        assert np.array_equal(np.sort(np.abs(m), axis=0)[-1], np.ones(n))
        assert np.array_equal(m.sum(axis=0), np.ones(n))
        assert np.array_equal(m.sum(axis=1), np.ones(n))
    shift = rep.matrix(1 % n)
    out = v.copy()
    for _ in range(n):
        out = shift @ out
    assert np.allclose(out, v, atol=0)


def test_grid_rep_matches_spatial_transform():
    for group in (C4, FLIP):
        rep = grid_rep(group, 3, 3)
        x = np.random.default_rng(1).normal(size=(3, 3))
        for g in group.elements:
            via_matrix = (rep.matrix(g) @ x.ravel()).reshape(3, 3)
            field = FeatureField(trivial_rep(group), x[None], spatial=(3, 3))
            via_field = act_on_field(g, field).values[0]
            assert np.array_equal(via_matrix, via_field)


def test_spatial_permutation_roundtrip():
    perm = spatial_permutation(C4, 1, 3, 3)
    x = np.arange(9)
    once = x[perm]
    assert np.array_equal(once.reshape(3, 3), np.rot90(x.reshape(3, 3)))


def test_feature_field_shape_validation():
    with pytest.raises(GroupError):
        FeatureField(regular_rep(C4), np.zeros(3))
    with pytest.raises(GroupError):
        FeatureField(regular_rep(C4), np.zeros((4, 3)), spatial=(3, 3))
