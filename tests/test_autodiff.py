import zlib

import numpy as np
import pytest

from equipomdp import autodiff as ad
from equipomdp.agent import AgentConfig, RecurrentPolicy
from equipomdp.autodiff import (
    Adam,
    NonFiniteGradientError,
    RankError,
    Tensor,
    backward,
    clip_grad_norm,
    finite_difference_grad,
    gradcheck,
    load_checkpoint,
    parameter,
    save_checkpoint,
)
from equipomdp.envs import CarFlag2dConfig
from reference_ops import (add, composed_a2c_loss, exp, gather_rows, hadamard, log_softmax,
                           mean, scale, sum_axis, take)


# More primitives that only the tests compose (``reference_ops`` holds the
# rest): the unfused LSTM and layer references below, and the smooth losses
# of a few gradient checks.

def matmul(a: Tensor, b: Tensor) -> Tensor:
    av, bv = a.value, b.value
    if av.ndim != 2 or bv.ndim != 2:
        raise ad.ShapeError(f"matmul supports 2D operands, got {av.shape}@{bv.shape}")
    if av.shape[-1] != bv.shape[0]:
        raise ad.ShapeError(f"matmul: {av.shape} @ {bv.shape}")
    val = av @ bv

    def bwd(g):
        return (g @ bv.T if a.requires_grad else None,
                av.T @ g if b.requires_grad else None)

    return Tensor(val, (a, b), bwd)


def relu(a: Tensor) -> Tensor:
    val = np.maximum(a.value, 0.0)

    def bwd(g):
        return (g * (a.value > 0),)

    return Tensor(val, (a,), bwd)


def two_branch_sigmoid(x: np.ndarray) -> np.ndarray:
    """The logistic function written out: 1 / (1 + e^-x) for x >= 0 and
    e^x / (1 + e^x) below, each branch with its own division."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def sigmoid(a: Tensor) -> Tensor:
    val = two_branch_sigmoid(a.value)

    def bwd(g):
        return (g * val * (1.0 - val),)

    return Tensor(val, (a,), bwd)


def tanh(a: Tensor) -> Tensor:
    val = np.tanh(a.value)

    def bwd(g):
        return (g * (1.0 - val * val),)

    return Tensor(val, (a,), bwd)


def slice_last(a: Tensor, start: int, stop: int) -> Tensor:
    """Contiguous slice along the last axis."""
    val = a.value[..., start:stop]

    def bwd(g):
        ga = np.zeros_like(a.value)
        ga[..., start:stop] = g
        return (ga,)

    return Tensor(val, (a,), bwd)


def test_hadamard_values():
    out = hadamard(Tensor([1.0, 2.0]), Tensor([3.0, 4.0]))
    assert np.array_equal(out.value, [3.0, 8.0])


def test_sigmoid_at_zero():
    assert sigmoid(Tensor(0.0)).value == 0.5


def test_sigmoid_is_the_two_branch_form_bit_for_bit():
    """``_sigmoid``'s one shared division rounds exactly as the two-branch
    form, at the edges (signed zeros, infinities, subnormal-adjacent and
    overflowing magnitudes, NaN) and on a wide spread of gate values, also
    on the strided (16, 144) gate block of a (16, 192) array that
    ``lstm_cell`` passes."""
    edges = np.array([0.0, 1e-300, 745.0, 800.0, np.inf, np.nan])
    edges = np.concatenate([edges, -edges])
    spread = 30.0 * np.random.default_rng(26).standard_normal(10_000)
    gates = (30.0 * np.random.default_rng(27).standard_normal((16, 192)))[:, :144]
    assert not gates.flags.c_contiguous
    for x in (edges, spread, gates):
        assert ad._sigmoid(x).tobytes() == two_branch_sigmoid(x).tobytes()


@pytest.mark.parametrize("H", [48, 32], ids=["equi-H48", "plain-H32"])
def test_lstm_cell_equals_the_unfused_step_bit_for_bit(H):
    """At the 1D benchmark's shapes (16 rows, an input of 3 and H = 48 or 32)
    ``lstm_cell``'s in-place bias and fused sigmoid give the h' and c' of the
    step composed from separate primitives, bit for bit."""
    rng = np.random.default_rng(H)
    x, h, c = rng.normal(size=(16, 3)), rng.normal(size=(16, H)), rng.normal(size=(16, H))
    wt, b = rng.normal(size=(3 + H, 4 * H)), rng.normal(size=4 * H)
    h2, c2, _ = ad.lstm_cell(x, h, c, wt, b)
    hc = unfused_lstm_step(*(Tensor(v) for v in (x, h, c, wt, b))).value
    assert h2.tobytes() == np.ascontiguousarray(hc[:, :H]).tobytes()
    assert c2.tobytes() == np.ascontiguousarray(hc[:, H:]).tobytes()


def test_tanh_gradient_at_zero():
    x = parameter(np.zeros(4), "x")
    loss = ad.tsum(tanh(x))
    backward(loss)
    assert np.array_equal(x.grad, np.ones(4))


def test_square_gradient():
    x = parameter(3.0, "x")
    loss = hadamard(x, x)
    backward(loss)
    assert x.grad == pytest.approx(6.0)


def test_disconnected_parameter_gets_zero_gradient():
    """A parameter the loss does not reach gets no gradient, and ``Adam``
    refuses the step by that parameter's name before anything moves."""
    x = parameter(3.0, "x")
    unused = parameter(1.0, "unused")
    loss = hadamard(x, x)
    backward(loss)
    assert unused.grad is None  # untouched by this graph
    opt = Adam([x, unused], lr=0.1)
    with pytest.raises(ad.AutodiffError, match="'unused'"):
        opt.step()
    assert (x.value, unused.value, opt.t) == (3.0, 1.0, 0)
    assert not opt.m.any() and not opt.v.any()


def test_adam_applies_each_gradient_once():
    """``Adam.step`` clears every gradient it applies, so a parameter that a
    later loss does not reach cannot be stepped again by a stale gradient:
    that step is refused by name."""
    x, y = parameter(3.0, "x"), parameter(2.0, "y")
    opt = Adam([x, y], lr=0.1)
    backward(hadamard(x, y))
    opt.step()
    assert x.grad is None and y.grad is None
    x_after, y_after = x.value.copy(), y.value.copy()
    backward(hadamard(x, x))   # y is not on this loss's graph
    assert y.grad is None
    with pytest.raises(ad.AutodiffError, match="'y'"):
        opt.step()
    assert (x.value, y.value, opt.t) == (x_after, y_after, 1)


def test_constants_get_no_gradient():
    """A node computed from constants alone keeps no parents and no backward
    closure; backward gives gradients to the nodes between the loss and the
    parameters and leaves every constant's ``.grad`` None."""
    c = Tensor(np.array([0.5, -1.0, 2.0]))
    d = tanh(c)
    assert not d.requires_grad and d.parents == () and d.bwd is None
    x = parameter(np.arange(3.0), "x")
    y = hadamard(x, d)
    backward(ad.tsum(y))
    assert y.requires_grad and np.array_equal(y.grad, np.ones(3))
    assert c.grad is None and d.grad is None
    assert np.array_equal(x.grad, d.value)


def test_non_scalar_loss_raises():
    x = parameter(np.ones(3), "x")
    with pytest.raises(RankError):
        backward(tanh(x))


def test_reused_node_accumulates_gradient():
    x = parameter(2.0, "x")
    y = add(x, x)  # y = 2x
    loss = hadamard(y, y)  # (2x)^2 -> d/dx = 8x = 16
    backward(loss)
    assert x.grad == pytest.approx(16.0)


def _primitive_cases():
    rng = np.random.default_rng(7)
    m = rng.normal(size=(3, 4))
    v4 = rng.normal(size=4)
    v3 = rng.normal(size=3)
    img = rng.normal(size=(2, 3, 5, 5))
    ker = rng.normal(size=(3, 3, 3, 4))   # (kh, kw, C, F): the order conv2d multiplies by
    # biases of +-100 hold the conv's relu inputs over 30 standard deviations
    # from the kink: each channel is all on or all off
    signs = Tensor(np.array([100.0, -100.0, 100.0, -100.0]))
    idx = np.array([2, 0, 3])
    flat_idx = rng.integers(0, 12, size=20)
    cases = {
        "add_broadcast": (lambda p: ad.tsum(add(p, Tensor(v4))), (3, 4)),
        "scale": (lambda p: ad.tsum(scale(p, -2.5)), (3, 4)),
        "hadamard_broadcast": (lambda p: ad.tsum(hadamard(p, Tensor(np.abs(v4) + 0.5))), (3, 4)),
        "matmul_mm": (lambda p: ad.tsum(matmul(p, Tensor(m))), (2, 3)),
        # vectors enter matmul as one-column or one-row matrices
        "matmul_mv": (lambda p: ad.tsum(matmul(p, Tensor(v4[:, None]))), (3, 4)),
        "matmul_vm": (lambda p: ad.tsum(matmul(p, Tensor(m))), (1, 3)),
        "matmul_dot": (lambda p: ad.tsum(matmul(p, Tensor(v3[:, None]))), (1, 3)),
        "sigmoid": (lambda p: ad.tsum(sigmoid(p)), (3, 4)),
        "tanh": (lambda p: ad.tsum(tanh(p)), (3, 4)),
        "exp": (lambda p: ad.tsum(exp(p)), (3, 4)),
        "log_softmax": (lambda p: ad.tsum(hadamard(log_softmax(p), Tensor(m))), (3, 4)),
        "gather_rows": (lambda p: ad.tsum(gather_rows(p, idx)), (3, 4)),
        "take": (lambda p: ad.tsum(take(p, flat_idx)), (3, 4)),
        "concat": (lambda p: ad.tsum(ad.concat([p, tanh(p)], axis=-1)), (3, 4)),
        "slice_last": (lambda p: ad.tsum(slice_last(p, 1, 3)), (3, 4)),
        "reshape": (lambda p: ad.tsum(hadamard(ad.reshape(p, (2, 6)), Tensor(np.ones((2, 6))))),
                    (3, 4)),
        "transpose": (lambda p: ad.tsum(matmul(ad.transpose(p, (1, 0)), Tensor(v3[:, None]))),
                      (3, 4)),
        "sum_axis": (lambda p: ad.tsum(tanh(sum_axis(p, -1))), (3, 4)),
        "mean": (lambda p: mean(tanh(p)), (3, 4)),
        "conv2d_valid": (lambda p: ad.tsum(ad.conv2d(p, Tensor(ker), signs)), (2, 3, 5, 5)),
        "conv2d_kernel": (lambda p: ad.tsum(ad.conv2d(Tensor(img), p, signs)), (3, 3, 3, 4)),
    }
    return cases


@pytest.mark.parametrize("name", sorted(_primitive_cases().keys()))
def test_primitive_gradients_match_finite_differences(name):
    build, shape = _primitive_cases()[name]
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    # keep relu-free cases smooth; values chosen away from kinks anyway
    p = parameter(rng.normal(size=shape) * 0.5 + 0.1, "p")
    assert gradcheck(lambda: build(p), [p]) < 1e-4


def test_gather_backward_matches_unbuffered_scatter():
    """``ad.tied``, ``take`` and ``gather_rows`` scatter their gradient
    exactly as the reference ``np.add.at`` loop would, repeated indices
    included."""
    rng = np.random.default_rng(3)
    flat_idx = rng.integers(0, 12, size=(40, 5))
    g = rng.normal(size=(40, 5))
    sign = rng.choice([-1.0, 0.0, 1.0], size=(40, 5))
    theta = parameter(np.zeros(12), "theta")
    backward(ad.tsum(hadamard(ad.tied(theta, flat_idx, sign), Tensor(g))))
    ref = np.zeros(12)
    np.add.at(ref, flat_idx.ravel(), (g * sign).ravel())
    assert np.array_equal(theta.grad, ref)
    x = parameter(np.zeros((3, 4)), "x")
    backward(ad.tsum(hadamard(take(x, flat_idx), Tensor(g))))
    ref = np.zeros(12)
    np.add.at(ref, flat_idx.ravel(), g.ravel())
    assert np.array_equal(x.grad, ref.reshape(3, 4))
    rows = rng.integers(0, 4, size=3)
    gr = rng.normal(size=3)
    y = parameter(np.zeros((3, 4)), "y")
    backward(ad.tsum(hadamard(gather_rows(y, rows), Tensor(gr))))
    ref = np.zeros((3, 4))
    np.add.at(ref, (np.arange(3), rows), gr)
    assert np.array_equal(y.grad, ref)


def test_relu_gradient_away_from_kink():
    p = parameter(np.array([-2.0, -0.7, 0.4, 1.9]), "p")
    assert gradcheck(lambda: ad.tsum(relu(p)), [p]) < 1e-4


def test_three_layer_network_gradcheck():
    rng = np.random.default_rng(11)
    w1 = parameter(rng.normal(size=(5, 6)) * 0.4, "w1")
    w2 = parameter(rng.normal(size=(6, 4)) * 0.4, "w2")
    w3 = parameter(rng.normal(size=(4, 1)) * 0.4, "w3")
    b1 = parameter(rng.normal(size=6) * 0.1, "b1")
    x = Tensor(rng.normal(size=(7, 5)))

    def loss():
        h1 = tanh(add(matmul(x, w1), b1))
        h2 = sigmoid(matmul(h1, w2))
        return mean(matmul(h2, w3))

    assert gradcheck(loss, [w1, w2, w3, b1]) < 1e-4


def unfused_lstm_step(x, h, c, wt, b):
    """The LSTM step as a composition of primitives: the reference for the
    steps of ``ad.LstmSegment``."""
    H = h.value.shape[-1]
    gates = add(matmul(ad.concat([x, h], axis=-1), wt), b)
    ifo = sigmoid(slice_last(gates, 0, 3 * H))
    i = slice_last(ifo, 0, H)
    f = slice_last(ifo, H, 2 * H)
    o = slice_last(ifo, 2 * H, 3 * H)
    g = tanh(slice_last(gates, 3 * H, 4 * H))
    c2 = add(hadamard(f, c), hadamard(i, tanh(g)))  # tanh twice on the candidate
    h2 = hadamard(o, tanh(c2))
    return ad.concat([h2, c2], axis=-1)


@pytest.mark.parametrize("batch", [1, 5], ids=["one-row-double-tanh", "batched-double-tanh"])
def test_lstm_step_matches_unfused_reference(batch):
    """A three-step ``LstmSegment`` node, row 0 restarting after the second
    step, matches the unfused per-step composition whose restart is
    keep-mask and injected-row ops, in value and in every gradient."""
    rng = np.random.default_rng(21)
    n_steps, H = 3, 4
    x_values = [rng.normal(size=(batch, 3)) for _ in range(n_steps)]
    wt_value, b_value = rng.normal(size=(7, 4 * H)), rng.normal(size=4 * H)
    h0, c0, fresh_h, fresh_c = (rng.normal(size=(batch, H)) for _ in range(4))
    keep = np.ones((batch, H))
    keep[0] = 0.0
    weights = Tensor(rng.normal(size=(n_steps * batch, H)))

    def fused(xs, wt, b):
        seg = ad.LstmSegment(wt, b)
        h, c = h0, c0
        for t, x in enumerate(xs):
            h, c = seg.step(x, h, c)
            if t == 1:
                h, c = seg.reset([0], fresh_h[:1], fresh_c[:1])
        return seg.node()

    def unfused(xs, wt, b):
        h, c = Tensor(h0), Tensor(c0)
        hs = []
        for t, x in enumerate(xs):
            hc = unfused_lstm_step(x, h, c, wt, b)
            h, c = slice_last(hc, 0, H), slice_last(hc, H, 2 * H)
            hs.append(h)
            if t == 1:
                h = add(hadamard(h, Tensor(keep)), Tensor((1.0 - keep) * fresh_h))
                c = add(hadamard(c, Tensor(keep)), Tensor((1.0 - keep) * fresh_c))
        return ad.concat(hs, axis=0)

    results = []
    for build in (fused, unfused):
        ins = [parameter(v, f"x{t}") for t, v in enumerate(x_values)]
        ins += [parameter(wt_value, "wt"), parameter(b_value, "b")]
        out = build(ins[:n_steps], *ins[n_steps:])
        backward(ad.tsum(hadamard(out, weights)))
        results.append((out.value, [p.grad for p in ins]))
    (fused_value, fused_grads), (ref, ref_grads) = results
    assert fused_value.shape == ref.shape == (n_steps * batch, H)
    assert np.max(np.abs(fused_value - ref)) <= 1e-12
    for p, g, g_ref in zip(ins, fused_grads, ref_grads):
        assert np.max(np.abs(g - g_ref)) <= 1e-12, p.name


def test_lstm_segment_is_in_the_gradcheck_battery():
    assert ad.primitive_gradcheck_battery(seed=0)["lstm_segment"] < 1e-4


# what the fused nodes replaced: test references now, not program primitives
REFERENCE_ONLY = ("matmul", "relu", "add", "scale", "hadamard", "exp", "log_softmax",
                  "gather_rows", "take", "sum_axis", "mean", "_unbroadcast")


def test_conv2d_is_in_the_gradcheck_battery():
    """The fused nodes are checked in each operand that takes a gradient;
    the primitives they replaced are test references, not program ones."""
    battery = ad.primitive_gradcheck_battery(seed=0)
    for name in ("conv2d", "conv2d_kernel", "conv2d_bias", "affine", "affine_relu",
                 "affine_weight", "affine_bias", "tied", "a2c_loss", "a2c_loss_values"):
        assert battery[name] < 1e-4
    assert not set(REFERENCE_ONLY) & set(battery)
    assert not [name for name in REFERENCE_ONLY if hasattr(ad, name)]


@pytest.mark.parametrize("coefs", [(0.5, 0.01), (0.0, 0.01), (0.5, 0.0)],
                         ids=["defaults", "value_coef-0", "entropy_coef-0"])
@pytest.mark.parametrize("rows,n_actions", [(20 * 16, 2), (5 * 16, 4)],
                         ids=["1d-T20-B16-A2", "2d-T5-B16-A4"])
def test_a2c_loss_matches_the_composed_chain_bitwise(rows, n_actions, coefs):
    """``ad.a2c_loss`` gives the loss, its four stats and the logits' and
    values' gradients of the chain of small primitives it replaced, bit for
    bit, at the package's coefficients and with either term switched off."""
    rng = np.random.default_rng(36)
    logits0, values0 = 2.0 * rng.normal(size=(rows, n_actions)), rng.normal(size=rows)
    actions = rng.integers(0, n_actions, size=rows)
    advantages, returns = rng.normal(size=rows), rng.normal(size=rows)
    results = []
    for loss_fn in (ad.a2c_loss, composed_a2c_loss):
        logits, values = parameter(logits0, "logits"), parameter(values0, "values")
        loss, stats = loss_fn(logits, values, actions, advantages, returns, *coefs)
        backward(loss)
        results.append((loss.value.tobytes(), {k: v.hex() for k, v in stats.items()},
                        logits.grad.tobytes(), values.grad.tobytes()))
    assert results[0] == results[1]
    assert len(results[0][1]) == 4


def einsum_conv2d(x, k, b, g):
    """The einsum formulation of conv2d with bias and relu: output, kernel
    gradient, input gradient (one contraction per kernel offset) and bias
    gradient for output cotangent ``g``. The reference for ``ad.conv2d``."""
    kh, kw = k.shape[2:]
    windows = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(2, 3))
    pre = np.einsum("bchwuv,fcuv->bfhw", windows, k, optimize=True) + b[:, None, None]
    out = np.maximum(pre, 0.0)
    g = g * (pre > 0)
    gk = np.einsum("bchwuv,bfhw->fcuv", windows, g, optimize=True)
    gx = np.zeros_like(x)
    for u in range(kh):
        for v in range(kw):
            gx[:, :, u : u + g.shape[2], v : v + g.shape[3]] += np.einsum(
                "bfhw,fc->bchw", g, k[:, :, u, v], optimize=True)
    return out, gk, gx, g.sum(axis=(0, 2, 3))


# conv2d takes its kernel in (kh, kw, C, F) order; the tests, like EquiConv2d,
# hold it in (F, C, kh, kw) order and transpose it on the way in
def fused_conv2d(x: Tensor, k: Tensor, b: Tensor) -> Tensor:
    return ad.conv2d(x, ad.transpose(k, ad.CONV_KERNEL_AXES), b)


# the three layers of the 7x7 agent's trunk, on one step's 16 rows and on one
# T=5 segment's 80 rows
_SEVEN_BY_SEVEN = [((2, 7, 7), (16, 2, 3, 3)), ((16, 5, 5), (32, 16, 3, 3)),
                   ((32, 3, 3), (32, 32, 3, 3))]


@pytest.mark.parametrize("x_shape,k_shape", [
    ((rows, *x), k) for rows in (16, 80) for x, k in _SEVEN_BY_SEVEN
], ids=[f"7x7-layer{i}-{rows}rows" for rows in (16, 80) for i in range(3)])
def test_conv2d_matches_einsum_reference(x_shape, k_shape):
    """The im2col conv2d gives the einsum formulation's output and all three
    gradients to 1e-12."""
    rng = np.random.default_rng(23)
    x, k = parameter(rng.normal(size=x_shape), "x"), parameter(rng.normal(size=k_shape), "k")
    b = parameter(rng.normal(size=k_shape[0]), "b")
    out = fused_conv2d(x, k, b)
    g = rng.normal(size=out.value.shape)
    backward(ad.tsum(hadamard(out, Tensor(g))))
    ref, ref_gk, ref_gx, ref_gb = einsum_conv2d(x.value, k.value, b.value, g)
    assert out.value.shape == ref.shape and x.grad.shape == x_shape
    assert 0 < np.count_nonzero(ref) < ref.size   # the relu masks some entries
    assert np.max(np.abs(out.value - ref)) <= 1e-12
    assert np.max(np.abs(k.grad - ref_gk)) <= 1e-12
    assert np.max(np.abs(x.grad - ref_gx)) <= 1e-12
    assert np.max(np.abs(b.grad - ref_gb)) <= 1e-12


def unfused_conv2d(x: Tensor, k: Tensor) -> Tensor:
    """The bias-free im2col convolution that, followed by ``add`` of the
    reshaped bias and by ``relu``, made a conv layer before ``ad.conv2d``
    fused the three: the unfused reference for it."""
    xv, kv = x.value, k.value
    n_out, n_in, kh, kw = kv.shape
    nb, _, hi, wi = xv.shape
    ho, wo = hi - kh + 1, wi - kw + 1
    kmat_t = np.ascontiguousarray(kv.transpose(ad.CONV_KERNEL_AXES).reshape(-1, n_out))

    def im2col():
        return ad._windows(xv, kh, kw).reshape(kh * kw * n_in, -1)

    val = (im2col().T @ kmat_t).reshape(ho, wo, nb, n_out).transpose(2, 3, 0, 1)

    def bwd(g):
        g2 = g.transpose(2, 3, 0, 1).reshape(-1, n_out)
        gk = (im2col() @ g2).reshape(kh, kw, n_in, n_out).transpose(
                np.argsort(ad.CONV_KERNEL_AXES))
        gcols = (kmat_t @ g2.T).reshape(kh, kw, n_in, ho, wo, nb)
        gx = np.zeros((n_in, hi, wi, nb))
        for u in range(kh):
            for v in range(kw):
                gx[:, u : u + ho, v : v + wo] += gcols[u, v]
        return gx.transpose(3, 0, 1, 2), gk

    return Tensor(val, (x, k), bwd)


def unfused_conv_layer(x: Tensor, k: Tensor, b: Tensor) -> Tensor:
    """``unfused_conv2d``, ``add`` of the reshaped bias, then ``relu``."""
    return relu(add(unfused_conv2d(x, k), ad.reshape(b, (k.value.shape[0], 1, 1))))


def assert_fused_matches_unfused(fused, unfused, values, seed):
    """Value and every operand's gradient, bit for bit, under one random
    cotangent; returns the fused value."""
    results = []
    for build in (fused, unfused):
        ops = [parameter(v, name) for v, name in zip(values, "xwb")]
        out = build(*ops)
        cot = Tensor(np.random.default_rng(seed).normal(size=out.value.shape))
        backward(ad.tsum(hadamard(out, cot)))
        results.append([out.value, *(p.grad for p in ops)])
    for name, got, ref in zip(("value", "x", "w", "b"), *results):
        assert got.shape == ref.shape and np.array_equal(got, ref), name
    return results[0][0]


# the 1D benchmark agent's head layers (24 regular mirror fields: 48 units,
# two actions, one value) on one step's 16 rows and on one T=20 segment's 320
_ONE_D_HEADS = [(48, 48), (48, 2), (48, 1)]


@pytest.mark.parametrize("use_relu", [False, True], ids=["linear", "relu"])
@pytest.mark.parametrize("rows,din,dout", [
    (rows, *layer) for rows in (16, 320) for layer in _ONE_D_HEADS
], ids=[f"1d-head-{din}x{dout}-{rows}rows" for rows in (16, 320) for din, dout in _ONE_D_HEADS])
def test_affine_matches_unfused_layer_bitwise(rows, din, dout, use_relu):
    """``ad.affine`` gives the value and the input, weight and bias gradients
    of ``matmul``, ``add`` and (if asked) ``relu`` composed, bit for bit."""
    rng = np.random.default_rng(31)
    values = (rng.normal(size=(rows, din)), rng.normal(size=(din, dout)), rng.normal(size=dout))

    def unfused(x, w, b):
        out = add(matmul(x, w), b)
        return relu(out) if use_relu else out

    out = assert_fused_matches_unfused(
        lambda x, w, b: ad.affine(x, w, b, use_relu), unfused, values, seed=32)
    assert (np.count_nonzero(out) < out.size) == use_relu


@pytest.mark.parametrize("x_shape,k_shape", [
    ((rows, *x), k) for rows in (16, 80) for x, k in _SEVEN_BY_SEVEN
], ids=[f"7x7-layer{i}-{rows}rows" for rows in (16, 80) for i in range(3)])
def test_conv2d_matches_unfused_layer_bitwise(x_shape, k_shape):
    """``ad.conv2d`` gives the value and the input, kernel and bias gradients
    of the bias-free convolution, ``add`` of the reshaped bias and ``relu``
    composed, bit for bit."""
    rng = np.random.default_rng(33)
    values = (rng.normal(size=x_shape), rng.normal(size=k_shape), rng.normal(size=k_shape[0]))
    out = assert_fused_matches_unfused(fused_conv2d, unfused_conv_layer, values, seed=34)
    assert 0 < np.count_nonzero(out) < out.size


# (input channels, side, [output channels per layer]): the 7x7 agent's trunk,
# and an off-benchmark stack of odd widths
_TRUNKS = {"7x7-trunk": (2, 7, [16, 32, 32]), "6x6-C3-F5": (3, 6, [5, 5])}


@pytest.mark.parametrize("trunk,rows", [
    *(("7x7-trunk", rows) for rows in (1, 16, 40, 80)), ("6x6-C3-F5", 7),
], ids=[*(f"7x7-trunk-{rows}rows" for rows in (1, 16, 40, 80)), "6x6-C3-F5-7rows"])
def test_conv2d_stack_matches_unfused_chain_bitwise(trunk, rows):
    """A stack of ``ad.conv2d`` layers, each reading the previous layer's output
    view, gives the value and the gradients of the input and of every kernel
    and bias of the unfused chain (the slice-add col2im), bit for bit."""
    n_in, side, widths = _TRUNKS[trunk]
    rng = np.random.default_rng(37)
    values = [rng.normal(size=(rows, n_in, side, side))]
    for c, f in zip([n_in, *widths], widths):
        values += [rng.normal(size=(f, c, 3, 3)) / np.sqrt(9 * c), 0.1 * rng.normal(size=f)]
    results = []
    for layer in (fused_conv2d, unfused_conv_layer):
        ops = [parameter(v, f"p{i}") for i, v in enumerate(values)]
        out = ops[0]
        for k, b in zip(ops[1::2], ops[2::2]):
            out = layer(out, k, b)
        cot = Tensor(np.random.default_rng(38).normal(size=out.value.shape))
        backward(ad.tsum(hadamard(out, cot)))
        results.append([out.value, *(p.grad for p in ops)])
    assert 0 < np.count_nonzero(results[0][0]) < results[0][0].size
    for i, (got, ref) in enumerate(zip(*results)):
        assert got.shape == ref.shape and np.array_equal(got, ref), i


def test_col2im_index_cache_keeps_the_latest_shapes_up_to_its_bound():
    """Each backward shape gets one scatter index, reused while it is held;
    past the cache's bound of shapes the least recently used goes first."""
    ad._col2im_index.cache_clear()
    bound = ad._col2im_index.cache_info().maxsize
    shapes = [(rows, 2, 5, 5) for rows in range(1, bound + 3)]
    k, b = Tensor(np.ones((3, 3, 2, 2))), Tensor(np.zeros(2))
    for shape in [*shapes, shapes[-1]]:
        backward(ad.tsum(ad.conv2d(parameter(np.ones(shape), "x"), k, b)))
    info = ad._col2im_index.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, len(shapes), bound)
    ad._col2im_index(shapes[-1] + (3, 3))
    ad._col2im_index(shapes[0] + (3, 3))
    info = ad._col2im_index.cache_info()
    assert (info.hits, info.misses) == (2, len(shapes) + 1)


def test_shape_errors():
    # affine takes (N, din) rows, a (din, dout) weight and a (dout) bias
    for x, w, b in (((2, 3), (2, 3), (3,)), ((3,), (3, 2), (2,)), ((2, 3), (3,), ()),
                    ((2, 3), (3, 2), (3,)), ((2, 3), (3, 2), (1, 2))):
        with pytest.raises(ad.ShapeError):
            ad.affine(Tensor(np.ones(x)), Tensor(np.ones(w)), Tensor(np.ones(b)), False)
    ints = np.zeros(4, dtype=np.int64)
    for logits, values, rest in (((4, 2), (4, 1), (4,)), ((4,), (4,), (4,)),
                                 ((4, 2), (4,), (3,))):
        with pytest.raises(ad.ShapeError):
            ad.a2c_loss(Tensor(np.ones(logits)), Tensor(np.ones(values)), ints[: rest[0]],
                        np.ones(rest), np.ones(4), 0.5, 0.01)
    # conv2d takes a (B, C, H, W) input and a (kh, kw, C, F) kernel
    for x, k, b in (((1, 2, 4, 4), (3, 3, 5, 3), (3,)), ((1, 2, 4, 4), (3, 3, 2, 3), (2,)),
                    ((1, 2, 2, 4), (3, 3, 2, 3), (3,))):
        with pytest.raises(ad.ShapeError):
            ad.conv2d(Tensor(np.ones(x)), Tensor(np.ones(k)), Tensor(np.ones(b)))
    with pytest.raises(ad.ShapeError):  # weight rows must match [x | h]
        ad.lstm_cell(np.ones(3), np.ones(4), np.ones(4), np.ones((8, 16)), np.ones(16))
    with pytest.raises(ad.ShapeError):  # a segment steps batched rows
        ad.LstmSegment(Tensor(np.ones((7, 16))), Tensor(np.ones(16))).step(
            Tensor(np.ones(3)), np.ones(4), np.ones(4))


def test_adam_first_step_matches_hand_computation():
    lr, b1, b2, eps, g = 0.1, ad.ADAM_BETA1, ad.ADAM_BETA2, ad.ADAM_EPS, 0.5
    assert (b1, b2, eps) == (0.9, 0.999, 1e-8)
    p = parameter(0.0, "p")
    loss = scale(p, g)
    backward(loss)
    Adam([p], lr=lr).step()
    m_hat = ((1 - b1) * g) / (1 - b1)
    v_hat = ((1 - b2) * g * g) / (1 - b2)
    expected = -lr * m_hat / (np.sqrt(v_hat) + eps)
    assert p.value == pytest.approx(expected, abs=1e-15)


def test_non_finite_gradient_reports_parameter_name():
    p = parameter(np.array([1.0]), "theta")
    loss = ad.tsum(p)
    backward(loss)
    p.grad[0] = np.nan
    with pytest.raises(NonFiniteGradientError, match="theta"):
        Adam([p], lr=0.1).step()


def test_refused_adam_step_changes_nothing():
    """A non-finite gradient anywhere refuses the whole step before any
    parameter, moment or step count moves, so no half-stepped policy is left."""
    a, b = parameter(np.array([1.0]), "a"), parameter(np.array([2.0]), "b")
    opt = Adam([a, b], lr=0.1)
    a.grad, b.grad = np.array([0.5]), np.array([np.nan])
    with pytest.raises(NonFiniteGradientError, match="'b'"):
        opt.step()
    assert (a.value.tolist(), b.value.tolist()) == ([1.0], [2.0])
    assert opt.t == 0
    assert opt.m.tolist() == opt.v.tolist() == [0.0, 0.0]
    b.grad = np.array([-0.5])   # the same step, now finite, moves both
    opt.step()
    assert opt.t == 1 and a.value[0] < 1.0 < 2.0 < b.value[0]


class ReferenceAdam:
    """Adam one parameter at a time, each with its own moment arrays: the
    reference for the flat ``ad.Adam``."""

    def __init__(self, params, lr: float):
        self.params = list(params)
        self.lr = lr
        self.t = 0
        self.m = [np.zeros_like(p.value) for p in self.params]
        self.v = [np.zeros_like(p.value) for p in self.params]

    def step(self):
        self.t += 1
        for i, p in enumerate(self.params):
            g = p.grad
            self.m[i] = ad.ADAM_BETA1 * self.m[i] + (1 - ad.ADAM_BETA1) * g
            self.v[i] = ad.ADAM_BETA2 * self.v[i] + (1 - ad.ADAM_BETA2) * g * g
            mhat = self.m[i] / (1 - ad.ADAM_BETA1 ** self.t)
            vhat = self.v[i] / (1 - ad.ADAM_BETA2 ** self.t)
            p.value -= self.lr * mhat / (np.sqrt(vhat) + ad.ADAM_EPS)


def test_flat_adam_matches_per_parameter_reference_bitwise():
    """Over 20 steps on the 7x7 policy's parameters, ``Adam`` moves every
    value and moment exactly as the per-parameter reference does and clears
    every gradient. Two more steps leave some parameters without a gradient,
    and each is refused, naming the first of them, with nothing moved."""
    config = AgentConfig(variant="equi")
    params = RecurrentPolicy(CarFlag2dConfig(grid_size=7), config,
                             np.random.default_rng(0)).parameters()
    ref = [parameter(p.value.copy(), p.name) for p in params]
    opt, ref_opt = Adam(params, config.learning_rate), ReferenceAdam(ref, config.learning_rate)
    assert len(params) > 10
    rng = np.random.default_rng(35)
    for t in range(20):
        if t in (4, 11):   # a step with some gradients missing is refused whole
            before = [p.value.copy() for p in params], opt.m.copy(), opt.v.copy()
            for i, p in enumerate(params):
                p.grad = None if i % 3 == t % 3 else np.ones(p.value.shape)
            with pytest.raises(ad.AutodiffError, match=repr(params[t % 3].name)):
                opt.step()
            assert all(np.array_equal(p.value, v) for p, v in zip(params, before[0]))
            assert np.array_equal(opt.m, before[1]) and np.array_equal(opt.v, before[2])
        for p, q in zip(params, ref):
            g = rng.normal(size=p.value.shape) * 10.0 ** rng.uniform(-4, 1)
            p.grad, q.grad = g, g.copy()
        opt.step()
        ref_opt.step()
        assert opt.t == ref_opt.t == t + 1
        assert all(p.grad is None for p in params)
        for p, q in zip(params, ref):
            assert np.array_equal(p.value, q.value), (t, p.name)
        for flat, moments in ((opt.m, ref_opt.m), (opt.v, ref_opt.v)):
            assert np.array_equal(flat, np.concatenate([m.ravel() for m in moments])), t


def test_clip_grad_norm():
    p = parameter(np.zeros(3), "p")
    p.grad = np.array([3.0, 4.0, 0.0])
    norm = clip_grad_norm([p], 1.0)
    assert norm == pytest.approx(5.0)
    assert np.linalg.norm(p.grad) == pytest.approx(1.0, rel=1e-9)


def test_determinism_bitwise():
    def run():
        rng = np.random.default_rng(42)
        w = parameter(rng.normal(size=(4, 4)), "w")
        x = Tensor(rng.normal(size=(2, 4)))
        loss = mean(tanh(matmul(x, w)))
        backward(loss)
        return loss.value.copy(), w.grad.copy()

    (l1, g1), (l2, g2) = run(), run()
    assert np.array_equal(l1, l2)
    assert np.array_equal(g1, g2)


def test_checkpoint_roundtrip(tmp_path):
    params = {
        "layer/w": np.random.default_rng(3).normal(size=(3, 5)),
        "layer/b": np.array([1e-17, -2.5, np.pi]),
        "scalar": np.array(7.25),
    }
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params)
    loaded = load_checkpoint(path)
    assert set(loaded) == set(params)
    for k in params:
        assert np.array_equal(np.asarray(params[k], dtype=np.float64), loaded[k])


def test_checkpoint_rejects_other_files(tmp_path):
    path = tmp_path / "junk.txt"
    path.write_text("not a checkpoint\n")
    with pytest.raises(ad.AutodiffError):
        load_checkpoint(path)


def test_checkpoint_of_an_older_version_names_both_headers(tmp_path):
    path = tmp_path / "old.ckpt"
    path.write_text("equipomdp-params 1\nparam actor.0.w0_0 1 2\n0.5 -0.5\n")
    with pytest.raises(ad.AutodiffError) as err:
        load_checkpoint(path)
    assert "'equipomdp-params 1'" in str(err.value)
    assert "'equipomdp-params 2'" in str(err.value)


def test_checkpoint_truncated_or_malformed_names_the_parameter(tmp_path):
    params = {"first": np.arange(4.0), "layer/w": np.random.default_rng(4).normal(size=(3, 5))}
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params)
    text = path.read_text()
    assert not (tmp_path / "model.ckpt.tmp").exists()
    # cut the file in the middle of the last parameter's values
    path.write_text(text[: len(text) - len(text.splitlines()[-1]) // 2])
    with pytest.raises(ad.AutodiffError, match="layer/w"):
        load_checkpoint(path)
    # the values row is missing altogether
    path.write_text("\n".join(text.splitlines()[:4]) + "\n")
    with pytest.raises(ad.AutodiffError, match="layer/w"):
        load_checkpoint(path)
    for bad_dims in ("2 3", "2 3 x", "1 -4"):
        path.write_text(text.replace("param layer/w 2 3 5", f"param layer/w {bad_dims}"))
        with pytest.raises(ad.AutodiffError, match="layer/w"):
            load_checkpoint(path)


def test_checkpoint_refuses_a_repeated_parameter_or_a_non_finite_value(tmp_path):
    """A parameter listed twice, or one holding nan or inf, is refused by name
    instead of loading the last block or the non-finite value as it is."""
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, {"w": np.array([0.5, -0.5]), "b": np.array([1.0])})
    text = path.read_text()
    path.write_text(text + "param w 1 2\n0.25 0.75\n")
    with pytest.raises(ad.AutodiffError, match="'w' is listed twice"):
        load_checkpoint(path)
    for bad in ("nan inf", "0.5 -inf", "nan 1"):
        path.write_text(text.replace("0.5 -0.5", bad))
        with pytest.raises(ad.AutodiffError, match="'w': non-finite"):
            load_checkpoint(path)


def test_gradcheck_ignores_a_gradient_left_by_an_earlier_backward():
    """A parameter the checked loss does not reach has gradient 0, whatever
    an earlier backward left on it."""
    x, y = parameter(np.array([3.0]), "x"), parameter(np.array([2.0]), "y")
    backward(ad.tsum(hadamard(x, y)))
    assert y.grad is not None
    assert gradcheck(lambda: ad.tsum(hadamard(x, x)), [x, y]) < 1e-8


def test_finite_difference_helper_quadratic():
    p = parameter(np.array([2.0, -1.0]), "p")
    g = finite_difference_grad(lambda: ad.tsum(hadamard(p, p)), p)
    assert np.allclose(g, 2 * p.value, atol=1e-6)
