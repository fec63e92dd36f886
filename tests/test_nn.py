import numpy as np
import pytest

from equipomdp import autodiff as ad
from equipomdp import nn
from equipomdp.agent import AgentConfig, RecurrentPolicy
from equipomdp.autodiff import Tensor
from equipomdp.envs import CarFlag1dConfig, CarFlag2dConfig
from equipomdp.groups import (
    C1,
    C4,
    MIRROR as FLIP,
    Representation,
    direct_sum,
    grid_rep,
    regular_rep,
    sign_rep,
    trivial_rep,
)
from equipomdp.nn import (
    EquiConv2d,
    EquiLinear,
    RepresentationMismatchError,
    equi_lstm_cell,
    initial_state,
    mlp_head,
)
from feature_fields import C2, CYCLIC_BY_ORDER, FeatureField, act_on_field, rep_matrix
from reference_basis import solve_intertwiner_basis
from reference_ops import composed_tied, exp, mean


def brute_force_rank(mat, tol=1e-9):
    """Row-reduction rank, independent of the SVD-based null-space solver."""
    a = np.array(mat, dtype=float)
    rank = 0
    for col in range(a.shape[1]):
        pivot = None
        for row in range(rank, a.shape[0]):
            if abs(a[row, col]) > tol:
                pivot = row
                break
        if pivot is None:
            continue
        a[[rank, pivot]] = a[[pivot, rank]]
        a[rank] /= a[rank, col]
        for row in range(a.shape[0]):
            if row != rank and abs(a[row, col]) > tol:
                a[row] -= a[row, col] * a[rank]
        rank += 1
    return rank


def constraint_matrix(rin, rout):
    rows = []
    for g in rin.group.elements:
        if g == 0:
            continue
        rows.append(np.kron(rep_matrix(rout, g), np.eye(rin.dim))
                    - np.kron(np.eye(rout.dim), rep_matrix(rin, g).T))
    return np.vstack(rows) if rows else np.zeros((1, rin.dim * rout.dim))


def kron_rep(a: Representation, b: Representation) -> Representation:
    """The tensor product a x b (a's index slowest), for the reference solver."""
    perm = a.perm[:, :, None] * b.dim + b.perm[:, None, :]
    sign = a.sign[:, :, None] * b.sign[:, None, :]
    return Representation(a.group, perm.reshape(len(perm), -1),
                          sign.reshape(len(sign), -1), ("kron",))


def field_forward(layer, field):
    """A layer, head or group convolution applied to one field through forward_t,
    as a batch of one row; a single linear layer runs without relu."""
    relu = (False,) if isinstance(layer, EquiLinear) else ()
    out = layer.forward_t(Tensor(field.values[None]), layer.realize_t(), *relu).value[0]
    return FeatureField(layer.rho_out, out, None if field.spatial is None else out.shape[-2:])


def cell_step(cell, x, h, c):
    """One recurrent step on fields; returns the new (h, c) fields."""
    h2, c2 = cell.step(x.values, h.values, c.values, cell.realize_t())
    return FeatureField(cell.rho_h, h2), FeatureField(cell.rho_h, c2)


def dense_weight(layer):
    """The realized (out, in) weight matrix and bias of a linear layer."""
    wt, b = layer.realize_t()
    return wt.value.T, b.value


# ---------------------------------------------------------------------------
# Intertwiner bases.
# ---------------------------------------------------------------------------

def test_basis_trivial_to_trivial_is_scalar():
    for group in (C4, FLIP):
        basis = solve_intertwiner_basis(trivial_rep(group), trivial_rep(group))
        assert basis.count == 1
        assert abs(abs(basis.mats[0, 0, 0]) - 1.0) < 1e-12


def test_basis_sign_to_trivial_is_empty():
    basis = solve_intertwiner_basis(sign_rep(FLIP), trivial_rep(FLIP))
    assert basis.count == 0


def test_basis_regular_to_regular_c4_is_circulant_space():
    basis = solve_intertwiner_basis(regular_rep(C4), regular_rep(C4))
    assert basis.count == 4
    m = constraint_matrix(regular_rep(C4), regular_rep(C4))
    assert 16 - brute_force_rank(m) == 4
    assert basis.max_constraint_residual() < 1e-10


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
def test_basis_count_regular_regular_equals_order(n):
    group = CYCLIC_BY_ORDER[n]
    basis = solve_intertwiner_basis(regular_rep(group), regular_rep(group))
    assert basis.count == n
    m = constraint_matrix(regular_rep(group), regular_rep(group))
    assert n * n - brute_force_rank(m) == n


def test_basis_orthonormal_and_residuals():
    rin = direct_sum([sign_rep(FLIP), sign_rep(FLIP), regular_rep(FLIP)])
    rout = direct_sum([regular_rep(FLIP)] * 3)
    basis = solve_intertwiner_basis(rin, rout)
    assert basis.max_constraint_residual() < 1e-10
    flat = basis.mats.reshape(basis.count, -1)
    gram = flat @ flat.T
    assert np.max(np.abs(gram - np.eye(basis.count))) < 1e-10
    m = constraint_matrix(rin, rout)
    assert rin.dim * rout.dim - brute_force_rank(m) == basis.count


def test_invariant_vectors_of_regular_rep():
    # the invariant vectors of the regular rep (the bias space) are the constants
    idx, sign, count = nn.tied_weight_indices(trivial_rep(C4), regular_rep(C4))
    assert count == 1
    assert idx.shape == sign.shape == (4, 1)
    assert np.array_equal(idx[:, 0], np.zeros(4))
    assert np.array_equal(sign[:, 0], np.ones(4))


def test_trivial_group_tying_is_the_identity():
    # over C1 every orbit is one entry: each weight is its own free parameter,
    # and the orbit tying works that identity out with no shortcut
    for rho_in, dout, din in [
        (trivial_rep(C1, 35), 128, 35),
        ([trivial_rep(C1, 8), grid_rep(C1, 3, 3)], 32, 8 * 9),  # a 3x3 conv kernel
    ]:
        identity = (np.arange(dout * din).reshape(dout, din), np.ones((dout, din)), dout * din)
        idx, sign, count = nn.tied_weight_indices(rho_in, trivial_rep(C1, dout))
        assert idx.dtype == identity[0].dtype and np.array_equal(idx, identity[0])
        assert np.array_equal(sign, identity[1])
        assert count == identity[2]


# ---------------------------------------------------------------------------
# EquiLinear.
# ---------------------------------------------------------------------------

def rand_layer(rng, rin, rout):
    layer = EquiLinear(rin, rout, rng)
    for p in layer.parameters():
        p.value = rng.normal(size=p.value.shape)
    return layer


def test_equi_linear_zero_everything_maps_to_zero():
    rng = np.random.default_rng(0)
    layer = EquiLinear(regular_rep(C4), regular_rep(C4), rng)
    for p in layer.parameters():
        p.value[:] = 0.0
    out = field_forward(layer, FeatureField(regular_rep(C4), np.zeros(4)))
    assert np.array_equal(out.values, np.zeros(4))


def test_equi_linear_equivariance_exhaustive():
    rng = np.random.default_rng(1)
    cases = [
        (C4, direct_sum([trivial_rep(C4), regular_rep(C4)]), direct_sum([regular_rep(C4)] * 2)),
        (FLIP, direct_sum([sign_rep(FLIP), sign_rep(FLIP)]), direct_sum([regular_rep(FLIP)] * 3)),
        (C2, regular_rep(C2), trivial_rep(C2)),
    ]
    for group, rin, rout in cases:
        for _ in range(5):
            layer = rand_layer(rng, rin, rout)
            x = FeatureField(rin, rng.normal(size=rin.dim))
            for g in group.elements:
                lhs = field_forward(layer, act_on_field(g, x)).values
                rhs = act_on_field(g, field_forward(layer, x)).values
                assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_equi_linear_zero_coeff_invariant_bias_is_constant_output():
    rng = np.random.default_rng(2)
    layer = EquiLinear(regular_rep(C4), regular_rep(C4), rng)
    for p in layer.parameters():
        p.value[:] = 0.0
    assert layer.bias.value.shape == (1,)
    layer.bias.value[:] = 2.0  # only the invariant bias parameter
    for _ in range(3):
        x = FeatureField(regular_rep(C4), rng.normal(size=4))
        out = field_forward(layer, x)
        assert np.allclose(out.values, out.values[0])
        for g in C4.elements:
            assert np.allclose(act_on_field(g, out).values, out.values, atol=1e-12)


def test_equi_linear_rep_mismatch():
    rng = np.random.default_rng(3)
    layer = EquiLinear(regular_rep(C4), trivial_rep(C4), rng)
    with pytest.raises(RepresentationMismatchError):
        field_forward(layer, FeatureField(trivial_rep(C4), np.zeros(1)))


def test_equi_linear_matches_dense_with_realized_weight():
    rng = np.random.default_rng(4)
    rin = direct_sum([sign_rep(FLIP), regular_rep(FLIP), regular_rep(FLIP)])
    rout = direct_sum([regular_rep(FLIP)] * 2)
    layer = rand_layer(rng, rin, rout)
    w, b = dense_weight(layer)
    for _ in range(5):
        x = rng.normal(size=rin.dim)
        assert np.array_equal(layer.forward_t(Tensor(x[None]), layer.realize_t(), False).value[0],
                              w @ x + b)
        assert np.array_equal(layer.forward_t(Tensor(x[None]), layer.realize_t(), True).value[0],
                              np.maximum(w @ x + b, 0.0))


@pytest.mark.parametrize("feed_prev_action", [False, True])
@pytest.mark.parametrize("env_cfg", [CarFlag1dConfig(half_size=4), CarFlag2dConfig(grid_size=7)],
                         ids=["1d", "2d"])
def test_tied_layers_match_the_reference_solver(env_cfg, feed_prev_action):
    """Every constrained layer a policy builds (cell, heads, convolutions as
    rho_in x grid) spans the reference null-space basis: as many parameters as
    basis elements, unit parameters realize linearly independent maps, and
    each one commutes with the group. Widths are small so that the dense
    reference basis stays small; the component kinds are those of the full
    networks."""
    cfg = AgentConfig(variant="equi", lstm_fields=2, head_fields=2, conv_fields=(2, 3),
                      feed_prev_action=feed_prev_action)
    policy = RecurrentPolicy(env_cfg, cfg, np.random.default_rng(0))
    layers = [policy.cell.linear, *policy.actor.layers, *policy.critic.layers]
    if policy.extractor is not None:
        layers += policy.extractor.layers
    for layer in layers:
        conv = isinstance(layer, EquiConv2d)
        weight = layer.kernel if conv else layer.weight
        rho_in = layer.rho_in
        if conv:
            rho_in = kron_rep(rho_in, grid_rep(rho_in.group, 3, 3))
        for theta, rin in ((weight, rho_in), (layer.bias, trivial_rep(rho_in.group))):
            basis = solve_intertwiner_basis(rin, layer.rho_out)
            assert theta.value.size == basis.count > 0
            mats = []
            for k in range(theta.value.size):
                for p in layer.parameters():
                    p.value[:] = 0.0
                theta.value[k] = 1.0
                w, b = (t.value for t in layer.realize_t())
                if theta is layer.bias:
                    mats.append(b[:, None])
                else:
                    # a realized kernel is in (kh, kw, C, F) order; rho_in is C, kh, kw
                    mats.append(w.transpose(np.argsort(ad.CONV_KERNEL_AXES))
                                .reshape(w.shape[3], -1) if conv else w.T)
            mats = np.array(mats)
            flat = mats.reshape(len(mats), -1)
            assert np.linalg.matrix_rank(flat) == basis.count
            worst = max(float(np.max(np.abs(
                np.einsum("uv,kvw->kuw", rep_matrix(layer.rho_out, g), mats)
                - mats @ rep_matrix(rin, g)))) for g in rin.group.elements)
            assert worst < 1e-12


def test_stabiliser_sign_flip_leaves_no_parameter():
    # the mirror fixes the single index pair of sign -> trivial but flips its sign
    idx, sign, count = nn.tied_weight_indices(sign_rep(FLIP), trivial_rep(FLIP))
    assert count == 0 and np.array_equal(sign, np.zeros((1, 1)))
    layer = EquiLinear(sign_rep(FLIP), trivial_rep(FLIP), np.random.default_rng(5))
    assert layer.weight.value.shape == (0,)
    realized = layer.realize_t()
    out = layer.forward_t(Tensor(np.array([[3.0]])), realized, False)
    assert np.array_equal(out.value, np.zeros((1, 1)))
    # the tied weight is the zero of the take-times-sign reference, and the
    # empty parameter gets an empty gradient
    reference = composed_tied(layer.weight, *layer._w_tie)
    assert realized[0].value.tobytes() == reference.value.tobytes()
    ad.backward(ad.tsum(out))
    assert layer.weight.grad.shape == (0,) and layer.bias.grad.shape == (1,)


# ---------------------------------------------------------------------------
# EquiConv2d.
# ---------------------------------------------------------------------------

def rand_conv(rng, group, in_fields, in_kind, out_fields, ksize):
    field = {"trivial": trivial_rep, "regular": regular_rep}[in_kind](group)
    conv = EquiConv2d(direct_sum([field] * in_fields), out_fields, ksize, rng)
    conv.kernel.value = rng.normal(size=conv.kernel.value.shape)
    conv.bias.value = rng.normal(size=conv.bias.value.shape)
    return conv


def test_conv_constant_input_gives_constant_interior():
    rng = np.random.default_rng(7)
    conv = rand_conv(rng, C4, 1, "trivial", 2, 3)
    conv.bias.value[:] = 0.0
    x = np.full((1, 1, 6, 6), 1.7)
    y = conv.forward_t(Tensor(x), conv.realize_t()).value
    for ch in range(y.shape[1]):
        assert np.allclose(y[0, ch], y[0, ch, 0, 0], atol=1e-12)


# (group, input kind, input side): a 3x3 kernel leaves a 5x5 or 3x3 output
_CONV_CASES = [(C4, "trivial", 7), (C4, "regular", 7), (C4, "regular", 5),
               (FLIP, "trivial", 7), (FLIP, "regular", 5), (C2, "trivial", 7)]


@pytest.mark.parametrize("group,in_kind,size", _CONV_CASES, ids=[
    f"group{i}-{kind}-valid" for i, (_, kind, _) in enumerate(_CONV_CASES)])
def test_conv_equivariance_exhaustive(group, in_kind, size):
    rng = np.random.default_rng(8)
    conv = rand_conv(rng, group, 2, in_kind, 2, 3)
    x = rng.normal(size=(conv.in_channels, size, size))
    field = FeatureField(conv.rho_in, x, spatial=(size, size))
    for g in group.elements:
        lhs = field_forward(conv, act_on_field(g, field))
        rhs = act_on_field(g, field_forward(conv, field))
        assert np.max(np.abs(lhs.values - rhs.values)) < 1e-10


def test_conv_1x1_reduces_to_equi_linear_per_pixel():
    rng = np.random.default_rng(9)
    conv = rand_conv(rng, C4, 2, "regular", 2, 1)
    linear = EquiLinear(conv.rho_in, conv.rho_out, rng)
    # a 1x1 grid adds nothing to rho_in, so the two layers tie the same orbits
    linear.weight.value = conv.kernel.value.copy()
    linear.bias.value = conv.bias.value.copy()
    kernel, bias = conv.realize_t()
    w, b = dense_weight(linear)
    assert np.array_equal(kernel.value.transpose(np.argsort(ad.CONV_KERNEL_AXES))[:, :, 0, 0], w)
    assert np.array_equal(bias.value, b)
    x = rng.normal(size=(conv.in_channels, 4, 4))
    y = conv.forward_t(Tensor(x[None]), (kernel, bias)).value[0]
    pixels = x.reshape(conv.in_channels, -1).T  # one row per pixel
    per_pixel = linear.forward_t(Tensor(pixels), linear.realize_t(), True).value  # conv has relu
    assert np.array_equal(y.reshape(conv.out_channels, -1).T, per_pixel)


def test_conv_rejects_nonsquare_rotation_input():
    rng = np.random.default_rng(10)
    conv = rand_conv(rng, C4, 1, "trivial", 1, 3)
    from equipomdp.groups import UnsupportedSpatialActionError
    with pytest.raises(UnsupportedSpatialActionError):
        conv.forward_t(Tensor(np.zeros((1, 1, 4, 5))), conv.realize_t())
    with pytest.raises(UnsupportedSpatialActionError):  # no exact grid rotation
        EquiConv2d(trivial_rep(CYCLIC_BY_ORDER[3]), 1, 3, rng)


# ---------------------------------------------------------------------------
# LSTM cell.
# ---------------------------------------------------------------------------

def rand_cell(rng, group, rho_x, hidden_fields):
    cell = equi_lstm_cell(rho_x, direct_sum([regular_rep(group)] * hidden_fields), rng)
    for p in cell.parameters():
        p.value = rng.normal(size=p.value.shape)
    return cell


def test_lstm_zero_input_zero_state_zero_bias_gives_zero():
    rng = np.random.default_rng(12)
    cell = equi_lstm_cell(regular_rep(C4), direct_sum([regular_rep(C4)] * 2), rng)
    for p in cell.parameters():
        p.value[:] = 0.0
    h, c = (s[0] for s in initial_state(cell, 1, "zero", None))
    out, new_c = cell_step(cell, FeatureField(cell.rho_x, np.zeros(4)),
                           FeatureField(cell.rho_h, h), FeatureField(cell.rho_h, c))
    assert np.array_equal(out.values, np.zeros(8))
    assert np.array_equal(new_c.values, np.zeros(8))


def test_lstm_step_equivariance_exhaustive():
    rng = np.random.default_rng(13)
    for group, rho_x in [(C4, direct_sum([trivial_rep(C4), regular_rep(C4)])),
                         (FLIP, direct_sum([sign_rep(FLIP), sign_rep(FLIP)]))]:
        cell = rand_cell(rng, group, rho_x, 3)
        x = FeatureField(rho_x, rng.normal(size=rho_x.dim))
        h = FeatureField(cell.rho_h, rng.normal(size=cell.hidden_dim))
        c = FeatureField(cell.rho_h, rng.normal(size=cell.hidden_dim))
        out, new_c = cell_step(cell, x, h, c)
        for g in group.elements:
            gout, gnew_c = cell_step(cell, act_on_field(g, x), act_on_field(g, h),
                                     act_on_field(g, c))
            assert np.max(np.abs(gout.values - act_on_field(g, out).values)) < 1e-10
            assert np.max(np.abs(gnew_c.values - act_on_field(g, new_c).values)) < 1e-10


def test_lstm_matches_plain_reference_with_realized_weights():
    rng = np.random.default_rng(14)
    cell = rand_cell(rng, C4, regular_rep(C4), 2)
    w, b = dense_weight(cell.linear)
    x = rng.normal(size=4)
    h = rng.normal(size=8)
    c = rng.normal(size=8)

    def sig(z):
        return 1.0 / (1.0 + np.exp(-z))

    gates = w @ np.concatenate([x, h]) + b
    i, f, o = sig(gates[0:8]), sig(gates[8:16]), sig(gates[16:24])
    g = np.tanh(gates[24:32])
    c2 = f * c + i * np.tanh(g)  # candidate gate goes through tanh twice
    h2 = o * np.tanh(c2)
    got_h, got_c = cell.step(x, h, c, cell.realize_t())
    assert np.allclose(got_h, h2, atol=1e-12)
    assert np.allclose(got_c, c2, atol=1e-12)


def test_lstm_rep_mismatch():
    rng = np.random.default_rng(16)
    cell = rand_cell(rng, C4, regular_rep(C4), 2)
    h, c = (s[0] for s in initial_state(cell, 1, "zero", None))
    bad = FeatureField(trivial_rep(C4), np.zeros(1))
    with pytest.raises(RepresentationMismatchError):
        cell_step(cell, bad, FeatureField(cell.rho_h, h), FeatureField(cell.rho_h, c))


def test_initial_state_zero_is_invariant():
    rng = np.random.default_rng(18)
    cell = rand_cell(rng, C4, regular_rep(C4), 3)
    h, c = (FeatureField(cell.rho_h, v[0]) for v in initial_state(cell, 1, "zero", None))
    for g in C4.elements:
        assert np.array_equal(act_on_field(g, h).values, h.values)
        assert np.array_equal(act_on_field(g, c).values, c.values)


def test_initial_state_random_is_seeded_and_nonzero():
    rng = np.random.default_rng(19)
    cell = rand_cell(rng, C4, regular_rep(C4), 3)
    h1, c1 = initial_state(cell, 3, "random", np.random.default_rng(5))
    h2, c2 = initial_state(cell, 3, "random", np.random.default_rng(5))
    assert h1.shape == c1.shape == (3, cell.hidden_dim)
    assert np.array_equal(h1, h2) and np.array_equal(c1, c2)
    assert np.all(h1 != 0.0) and np.any(h1[0] != h1[1])
    with pytest.raises(ValueError):
        initial_state(cell, 3, "random", None)


def test_hadamard_of_regular_fields_is_equivariant():
    # permutation matrices commute with the elementwise product
    rng = np.random.default_rng(20)
    rep = direct_sum([regular_rep(C4)] * 2)
    a = FeatureField(rep, rng.normal(size=8))
    b = FeatureField(rep, rng.normal(size=8))
    for g in C4.elements:
        lhs = act_on_field(g, a).values * act_on_field(g, b).values
        rhs = act_on_field(g, FeatureField(rep, a.values * b.values)).values
        assert np.max(np.abs(lhs - rhs)) < 1e-12


# ---------------------------------------------------------------------------
# Heads.
# ---------------------------------------------------------------------------

def test_actor_head_quarter_turn_moves_right_to_up():
    # action slots ordered (Right, Up, Left, Down); one CCW quarter turn must
    # send the Right logit to the Up slot
    rng = np.random.default_rng(21)
    rho_in = direct_sum([regular_rep(C4)] * 2)
    head = mlp_head(rho_in, rho_in, regular_rep(C4), rng, "actor")
    for p in head.parameters():
        p.value = rng.normal(size=p.value.shape)
    feats = FeatureField(rho_in, rng.normal(size=8))
    logits = field_forward(head, feats).values
    glogits = field_forward(head, act_on_field(1, feats)).values
    for a in range(4):
        assert glogits[(a + 1) % 4] == pytest.approx(logits[a], abs=1e-10)
    right, up = 0, 1
    assert glogits[up] == pytest.approx(logits[right], abs=1e-10)


def test_critic_head_is_invariant():
    rng = np.random.default_rng(22)
    rho_in = direct_sum([regular_rep(C4)] * 2)
    head = mlp_head(rho_in, rho_in, trivial_rep(C4), rng, "critic")
    for p in head.parameters():
        p.value = rng.normal(size=p.value.shape)
    feats = FeatureField(rho_in, rng.normal(size=8))
    v = float(field_forward(head, feats).values[0])
    for g in C4.elements:
        gv = float(field_forward(head, act_on_field(g, feats)).values[0])
        assert gv == pytest.approx(v, abs=1e-10)


def test_uniform_logits_fixed_under_every_permutation():
    logits = np.full(4, 0.37)
    rep = regular_rep(C4)
    for g in C4.elements:
        assert np.array_equal(rep_matrix(rep, g) @ logits, logits)


def test_head_rejects_wrong_rep():
    rng = np.random.default_rng(23)
    head = mlp_head(regular_rep(C4), direct_sum([regular_rep(C4)] * 2), regular_rep(C4),
                    rng, "actor")
    with pytest.raises(RepresentationMismatchError):
        field_forward(head, FeatureField(trivial_rep(C4), np.zeros(1)))


def test_layer_equivariance_battery():
    """100 random parameterizations x 10 random inputs x all group elements,
    for each constrained layer type."""
    rng = np.random.default_rng(99)
    rin = direct_sum([trivial_rep(C4), regular_rep(C4)])
    rout = direct_sum([regular_rep(C4)] * 2)
    worst = 0.0
    for trial in range(100):
        if trial % 3 == 0:
            layer = rand_layer(rng, rin, rout)
            apply = lambda f: field_forward(layer, f)
            rep_in, spatial = rin, None
        elif trial % 3 == 1:
            conv = rand_conv(rng, C4, 1, "regular", 1, 3)
            apply = lambda f: field_forward(conv, f)
            rep_in, spatial = conv.rho_in, (6, 6)
        else:
            cell = rand_cell(rng, C4, regular_rep(C4), 2)
            h, c = (FeatureField(cell.rho_h, v[0])
                    for v in initial_state(cell, 1, "zero", None))
            apply = lambda f: cell_step(cell, f, h, c)[0]
            rep_in, spatial = regular_rep(C4), None
        for _ in range(10):
            shape = (rep_in.dim,) if spatial is None else (rep_in.dim, *spatial)
            field = FeatureField(rep_in, rng.normal(size=shape), spatial=spatial)
            out = apply(field)
            for g in C4.elements:
                gout = apply(act_on_field(g, field))
                worst = max(worst, float(np.max(np.abs(
                    gout.values - act_on_field(g, out).values))))
    assert worst < 1e-10


def test_gradients_flow_through_equi_linear():
    rng = np.random.default_rng(25)
    layer = EquiLinear(regular_rep(C4), regular_rep(C4), rng)
    x = Tensor(rng.normal(size=(3, 4)))

    def loss():
        return mean(exp(layer.forward_t(x, layer.realize_t(), False)))

    assert ad.gradcheck(loss, layer.parameters()) < 1e-4


def test_gradients_flow_through_equi_conv():
    rng = np.random.default_rng(26)
    conv = EquiConv2d(trivial_rep(C4), 1, 3, rng)
    x = Tensor(rng.normal(size=(2, 1, 4, 4)))

    def loss():
        return mean(exp(conv.forward_t(x, conv.realize_t())))

    assert ad.gradcheck(loss, conv.parameters()) < 1e-4
