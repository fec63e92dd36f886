"""Elementwise and gather primitives that only the tests compose.

The program's graph is its layers and one loss node (``autodiff.tied``,
``affine``, ``conv2d``, ``LstmSegment``, ``a2c_loss``). The primitives here
are what those nodes fused: ``composed_tied`` is the tied weight as ``take``
times the sign, and ``composed_a2c_loss`` is the A2C loss as the chain of
small nodes it was built from. They are the references the fused nodes are
checked against, bit for bit, and they serve the smooth losses of a few
gradient checks. ``method_categorical_from_uniform`` and
``branch_encode_prev_action`` are the agent's sampling and previous-action
encoding written with numpy's method calls and per-domain branches, the
references for the ufunc calls and table lookup that replaced them.
"""

import numpy as np

from equipomdp.autodiff import ShapeError, Tensor, constant


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to ``shape``."""
    extra = grad.ndim - len(shape)
    if extra:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def add(a: Tensor, b: Tensor) -> Tensor:
    try:
        val = a.value + b.value
    except ValueError as e:
        raise ShapeError(f"add: {a.value.shape} vs {b.value.shape}") from e

    def bwd(g):
        return (_unbroadcast(g, a.value.shape) if a.requires_grad else None,
                _unbroadcast(g, b.value.shape) if b.requires_grad else None)

    return Tensor(val, (a, b), bwd)


def scale(a: Tensor, s: float) -> Tensor:
    def bwd(g):
        return (s * g,)

    return Tensor(a.value * s, (a,), bwd)


def hadamard(a: Tensor, b: Tensor) -> Tensor:
    try:
        val = a.value * b.value
    except ValueError as e:
        raise ShapeError(f"hadamard: {a.value.shape} vs {b.value.shape}") from e

    def bwd(g):
        return (_unbroadcast(g * b.value, a.value.shape) if a.requires_grad else None,
                _unbroadcast(g * a.value, b.value.shape) if b.requires_grad else None)

    return Tensor(val, (a, b), bwd)


def exp(a: Tensor) -> Tensor:
    val = np.exp(a.value)

    def bwd(g):
        return (g * val,)

    return Tensor(val, (a,), bwd)


def log_softmax(a: Tensor) -> Tensor:
    """Log-softmax over the last axis."""
    x = a.value
    shifted = x - x.max(axis=-1, keepdims=True)
    val = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))

    def bwd(g):
        return (g - np.exp(val) * g.sum(axis=-1, keepdims=True),)

    return Tensor(val, (a,), bwd)


def gather_rows(a: Tensor, idx) -> Tensor:
    """Pick one entry per row of a 2D tensor: out[i] = a[i, idx[i]]."""
    idx = np.asarray(idx, dtype=np.int64)
    if a.value.ndim != 2 or idx.ndim != 1 or idx.shape[0] != a.value.shape[0]:
        raise ShapeError(f"gather_rows: {a.value.shape} with index {idx.shape}")
    rows = np.arange(a.value.shape[0])
    val = a.value[rows, idx]

    def bwd(g):
        ga = np.zeros_like(a.value)
        ga[rows, idx] = g  # one entry per row, so no index repeats
        return (ga,)

    return Tensor(val, (a,), bwd)


def take(a: Tensor, flat_idx: np.ndarray) -> Tensor:
    """Gather entries of ``a`` (flattened) at the given index array."""
    flat_idx = np.asarray(flat_idx, dtype=np.int64)
    val = a.value.reshape(-1)[flat_idx]

    def bwd(g):
        return (np.bincount(flat_idx.ravel(), weights=g.ravel(),
                            minlength=a.value.size).reshape(a.value.shape),)

    return Tensor(val, (a,), bwd)


def sum_axis(a: Tensor, axis: int) -> Tensor:
    def bwd(g):
        return (np.expand_dims(g, axis),)

    return Tensor(a.value.sum(axis=axis), (a,), bwd)


def mean(a: Tensor) -> Tensor:
    n = a.value.size

    def bwd(g):
        return (g * np.ones_like(a.value) / n,)

    return Tensor(a.value.mean(), (a,), bwd)


def composed_tied(theta: Tensor, idx: np.ndarray, sign: np.ndarray) -> Tensor:
    """``sign * theta[idx]`` as ``take`` and ``hadamard`` (the latter left out
    when every sign is 1); a constant zero weight for an empty ``theta``."""
    if theta.value.size == 0:
        return constant(np.zeros(idx.shape))
    w = take(theta, idx)
    return w if np.all(sign == 1.0) else hadamard(w, constant(sign))


def composed_a2c_loss(logits: Tensor, values: Tensor, actions, advantages, returns,
                      value_coef: float, entropy_coef: float):
    """The A2C loss and its stats as a chain of the primitives above."""
    logp = log_softmax(logits)
    lp_taken = gather_rows(logp, actions)
    policy_loss = scale(mean(hadamard(constant(advantages), lp_taken)), -1.0)
    diff = add(constant(returns), scale(values, -1.0))
    value_loss = mean(hadamard(diff, diff))
    entropy = mean(scale(sum_axis(hadamard(exp(logp), logp), -1), -1.0))
    loss = add(policy_loss, add(scale(value_loss, value_coef), scale(entropy, -entropy_coef)))
    stats = {"loss": float(loss.value), "policy_loss": float(policy_loss.value),
             "value_loss": float(value_loss.value), "entropy": float(entropy.value)}
    return loss, stats


def method_categorical_from_uniform(logits: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``agent.categorical_from_uniform`` through ``ndarray.max``,
    ``ndarray.sum`` and ``np.cumsum``."""
    z = logits - logits.max(axis=-1, keepdims=True)
    p = np.exp(z)
    p /= p.sum(axis=-1, keepdims=True)
    return np.minimum((np.cumsum(p, axis=-1) < u).sum(axis=-1), logits.shape[-1] - 1)


def branch_encode_prev_action(prev: np.ndarray, n_actions: int) -> np.ndarray:
    """``RecurrentPolicy.encode_prev_action`` as one branch per domain: a
    signed scalar for two actions, one-hot otherwise, zero rows for -1."""
    prev = np.asarray(prev, dtype=np.int64)
    if n_actions == 2:
        return np.where(prev < 0, 0.0, 2.0 * prev - 1.0)[:, None]
    out = np.zeros((prev.shape[0], n_actions))
    live = prev >= 0
    out[np.nonzero(live)[0], prev[live]] = 1.0
    return out
