import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from equipomdp.groups import (
    C1,
    C4,
    MIRROR as FLIP,
    GroupError,
    GroupMismatchError,
    UnknownElementError,
    UnsupportedSpatialActionError,
    direct_sum,
    grid_rep,
    pixel_permutation,
    regular_rep,
    sign_rep,
    trivial_rep,
)
from feature_fields import (C2, CYCLIC_BY_ORDER, FeatureField, act_on_field, compose,
                            rep_matrix)

GROUPS = (C1, FLIP, C4, C2)


def all_test_reps(group):
    return [trivial_rep(group), trivial_rep(group, 3), regular_rep(group), sign_rep(group),
            grid_rep(group, 3, 3), direct_sum([trivial_rep(group), regular_rep(group)])]


def inverse(group, g):
    return int(np.flatnonzero(group.table[g] == 0)[0])


def test_make_group_c4():
    assert C4.name == "c4"
    assert C4.order == 4
    assert C4.elements == (0, 1, 2, 3)
    for g in C4.elements:  # element g is g quarter turns
        assert np.array_equal(C4.mats[g], np.linalg.matrix_power(C4.mats[1], g))


def test_make_group_trivial():
    assert C1.order == 1
    assert C1.elements == (0,)
    assert np.array_equal(C1.mats[0], np.eye(2))


def test_cayley_table_is_a_group():
    for group in GROUPS:
        elems = set(group.elements)
        for a in group.elements:
            assert {compose(group, a, b) for b in group.elements} == elems  # a Latin square
            assert compose(group, a, 0) == compose(group, 0, a) == a
            assert compose(group, inverse(group, a), a) == 0
        for a in group.elements:
            for b in group.elements:
                for c in group.elements:
                    assert (compose(group, compose(group, a, b), c)
                            == compose(group, a, compose(group, b, c)))


def test_table_multiplies_the_element_matrices():
    for group in GROUPS:
        assert np.array_equal(group.mats[0], np.eye(2))
        for g in group.elements:
            for h in group.elements:
                assert np.array_equal(group.mats[group.table[g, h]],
                                      group.mats[g] @ group.mats[h])


def test_regular_rep_c4_generator_is_cyclic_shift():
    m = rep_matrix(regular_rep(C4), 1)
    expected = np.zeros((4, 4))
    for i in range(4):
        expected[(i + 1) % 4, i] = 1.0
    assert np.array_equal(m, expected)


def test_rep_matrix_identity_is_identity():
    for group in GROUPS:
        for rep in all_test_reps(group):
            assert np.array_equal(rep_matrix(rep, 0), np.eye(rep.dim))


def test_standard_rep_quarter_turn():
    # C4's element matrices are its standard representation on (row, col)
    assert np.array_equal(C4.mats[1], [[0, -1], [1, 0]])


def test_rep_matrix_unknown_element():
    with pytest.raises(UnknownElementError):
        rep_matrix(regular_rep(C4), 4)
    with pytest.raises(UnknownElementError):
        rep_matrix(regular_rep(C4), -1)
    with pytest.raises(UnknownElementError):
        compose(C4, 0, 4)


def test_homomorphism_and_inverse_all_reps():
    for group in GROUPS:
        for rep in all_test_reps(group):
            for a in group.elements:
                ma = rep_matrix(rep, a)
                inv = rep_matrix(rep, inverse(group, a))
                assert np.max(np.abs(ma @ inv - np.eye(rep.dim))) < 1e-12
                for b in group.elements:
                    prod = rep_matrix(rep, compose(group, a, b))
                    assert np.max(np.abs(prod - ma @ rep_matrix(rep, b))) < 1e-12
                    # the same law on the arrays: rho(a) rho(b) e_j
                    ab = group.table[a, b]
                    pb = rep.perm[b]
                    assert np.array_equal(rep.perm[ab], rep.perm[a][pb])
                    assert np.array_equal(rep.sign[ab], rep.sign[b] * rep.sign[a][pb])


def test_sign_rep_negates_every_generator():
    # the half turn has determinant +1, yet C2's sign representation flips it
    assert np.array_equal(sign_rep(C2).sign[:, 0], [1.0, -1.0])
    assert np.array_equal(sign_rep(FLIP).sign[:, 0], [1.0, -1.0])
    assert np.array_equal(sign_rep(C4).sign[:, 0], [1.0, -1.0, 1.0, -1.0])
    with pytest.raises(GroupError):  # a generator of odd order cannot map to -1
        sign_rep(CYCLIC_BY_ORDER[3])


def test_direct_sum_sign_block():
    rep = direct_sum([trivial_rep(FLIP), sign_rep(FLIP)])
    assert rep.dim == 2
    assert np.array_equal(rep_matrix(rep, 1), np.diag([1.0, -1.0]))


def test_direct_sum_empty_is_error():
    with pytest.raises(GroupError):
        direct_sum([])


def test_direct_sum_group_mismatch():
    with pytest.raises(GroupMismatchError):
        direct_sum([trivial_rep(C4), trivial_rep(C2)])


def test_direct_sum_regular_regular():
    rep = direct_sum([regular_rep(C4), regular_rep(C4)])
    assert rep.dim == 8
    m = rep_matrix(rep, 1)
    assert np.array_equal(m[:4, :4], rep_matrix(regular_rep(C4), 1))
    assert np.array_equal(m[4:, 4:], rep_matrix(regular_rep(C4), 1))
    assert np.count_nonzero(m[:4, 4:]) == 0
    assert rep.summary == "2*regular"


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
    with pytest.raises(UnsupportedSpatialActionError):
        grid_rep(C4, 2, 3)


def test_flip_acts_on_columns():
    vals = np.arange(6.0).reshape(1, 2, 3)
    field = FeatureField(trivial_rep(FLIP), vals, spatial=(2, 3))
    out = act_on_field(1, field)
    assert np.array_equal(out.values[0], vals[0, :, ::-1])


@settings(max_examples=60, deadline=None)
@given(
    group=st.sampled_from([C4, C2, FLIP]),
    g=st.integers(0, 3),
    h=st.integers(0, 3),
    seed=st.integers(0, 10_000),
    grid=st.booleans(),
)
def test_action_composition_property(group, g, h, seed, grid):
    g %= group.order
    h %= group.order
    rng = np.random.default_rng(seed)
    rep = direct_sum([trivial_rep(group), regular_rep(group)])
    if grid:
        field = FeatureField(rep, rng.normal(size=(rep.dim, 4, 4)), spatial=(4, 4))
    else:
        field = FeatureField(rep, rng.normal(size=(rep.dim,)))
    lhs = act_on_field(g, act_on_field(h, field))
    rhs = act_on_field(compose(group, g, h), field)
    assert np.max(np.abs(lhs.values - rhs.values)) < 1e-12


@pytest.mark.parametrize("n", sorted(CYCLIC_BY_ORDER))
def test_regular_rep_is_permutation_and_order_n(n):
    group = CYCLIC_BY_ORDER[n]
    rep = regular_rep(group)
    rng = np.random.default_rng(n)
    v = rng.normal(size=n)
    for g in group.elements:
        m = rep_matrix(rep, g)
        assert np.array_equal(np.sort(np.abs(m), axis=0)[-1], np.ones(n))
        assert np.array_equal(m.sum(axis=0), np.ones(n))
        assert np.array_equal(m.sum(axis=1), np.ones(n))
    shift = rep_matrix(rep, 1 % n)
    out = v.copy()
    for _ in range(n):
        out = shift @ out
    assert np.allclose(out, v, atol=0)


def test_grid_rep_matches_spatial_transform():
    for size in (3, 5, 7):
        x = np.random.default_rng(size).normal(size=(size, size))
        for group, image in ((C4, lambda g: np.rot90(x, g)),
                             (FLIP, lambda g: np.flip(x, -1) if g else x)):
            rep = grid_rep(group, size, size)
            for g in group.elements:
                assert np.array_equal(x.ravel()[pixel_permutation(group, g, size, size)],
                                      image(g).ravel())
                assert np.array_equal(rep_matrix(rep, g) @ x.ravel(), image(g).ravel())


def test_spatial_permutation_roundtrip():
    perm = pixel_permutation(C4, 1, 3, 3)
    x = np.arange(9)
    once = x[perm]
    assert np.array_equal(once.reshape(3, 3), np.rot90(x.reshape(3, 3)))
    # the mirror keeps the axes, so it acts on any rectangle
    assert np.array_equal(x[:6][pixel_permutation(FLIP, 1, 2, 3)],
                          np.flip(x[:6].reshape(2, 3), -1).ravel())


def test_feature_field_shape_validation():
    with pytest.raises(GroupError):
        FeatureField(regular_rep(C4), np.zeros(3))
    with pytest.raises(GroupError):
        FeatureField(regular_rep(C4), np.zeros((4, 3)), spatial=(3, 3))
