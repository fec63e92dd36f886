"""Dense reverse-mode automatic differentiation on numpy arrays.

Define-by-run: a ``parameter`` is a leaf that requires a gradient, and every
primitive's output requires one when some parent does. Such a node records
its parents and a backward closure; a node that requires none (a constant,
or anything computed from constants alone) keeps neither. ``backward`` replays
the nodes that require a gradient in reverse topological order, so gradients
reach only the nodes that lead to a parameter, and each closure computes only
the gradients of the parents that require one. Everything runs in float64.

The graph is the network and its loss: each tied weight (``tied``), layer
(``affine``, ``conv2d``, ``LstmSegment``) and the A2C loss (``a2c_loss``) is
one node, joined by ``concat`` and ``reshape``; ``transpose`` lays each tied
convolution kernel out in the order ``conv2d`` multiplies by, once per
realization, and ``tsum`` is the gradient checks' scalar reduction. ``Adam``
steps every parameter entry as one vector.
"""

from __future__ import annotations

import os
from functools import lru_cache

import numpy as np


class AutodiffError(ValueError):
    pass


class ShapeError(AutodiffError):
    pass


class RankError(AutodiffError):
    pass


class NonFiniteGradientError(AutodiffError):
    pass


_F64 = np.dtype(np.float64)


class Tensor:
    """A value and, if it requires a gradient, how to pass one to its parents:
    ``bwd(g)`` maps the node's gradient ``g`` to one gradient per parent, None
    for each parent that requires none."""

    __slots__ = ("value", "grad", "parents", "bwd", "name", "requires_grad")

    def __init__(self, value, parents=(), bwd=None, name=None, requires_grad=False):
        # primitives hand over fresh float64 arrays; skip the conversion call
        if type(value) is not np.ndarray or value.dtype is not _F64:
            value = np.asarray(value, dtype=np.float64)
        self.value = value
        self.grad = None
        self.name = name
        for p in parents:   # a plain loop: no generator per node
            if p.requires_grad:
                self.requires_grad, self.parents, self.bwd = True, parents, bwd
                break
        else:
            self.requires_grad, self.parents, self.bwd = requires_grad, (), None

    def __repr__(self):
        tag = f" {self.name}" if self.name else ""
        return f"Tensor{tag}(shape={self.value.shape})"


def parameter(value, name: str) -> Tensor:
    return Tensor(np.array(value, dtype=np.float64), name=name, requires_grad=True)


def constant(value) -> Tensor:
    return Tensor(value)


# ---------------------------------------------------------------------------
# Primitives.
# ---------------------------------------------------------------------------

def tied(theta: Tensor, idx: np.ndarray, sign: np.ndarray) -> Tensor:
    """The weight ``sign * theta[idx]`` tied from a parameter vector, as one
    node. An entry of sign 0 has no parameter and indexes 0, so an empty theta
    gives zeros and gets an empty gradient."""
    n = theta.value.size
    val = sign * theta.value[idx] if n else np.zeros(idx.shape)

    def bwd(g):
        return (np.bincount(idx.ravel(), weights=(g * sign).ravel(), minlength=n)[:n],)

    return Tensor(val, (theta,), bwd)


def affine(x: Tensor, w: Tensor, b: Tensor, relu: bool) -> Tensor:
    """``x @ w + b`` for (N, din) rows, a (din, dout) weight and a (dout) bias,
    and its relu if ``relu``, as one node."""
    xv, wv, bv = x.value, w.value, b.value
    if xv.ndim != 2 or wv.ndim != 2 or xv.shape[1] != wv.shape[0] or bv.shape != wv.shape[1:]:
        raise ShapeError(f"affine: {xv.shape} @ {wv.shape} + {bv.shape}")
    val = xv @ wv
    val += bv
    if relu:
        np.maximum(val, 0.0, out=val)

    def bwd(g):
        if relu:
            g = g * (val > 0)   # the output is positive exactly where the pre-activation is
        return (g @ wv.T if x.requires_grad else None,
                xv.T @ g if w.requires_grad else None,
                g.sum(axis=0) if b.requires_grad else None)

    return Tensor(val, (x, w, b), bwd)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + e^-x) for x >= 0, e^x / (1 + e^x) below, with one division:
    the numerators share the denominator 1 + e^-|x|."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def concat(tensors, axis: int = -1) -> Tensor:
    tensors = tuple(tensors)
    val = np.concatenate([t.value for t in tensors], axis=axis)

    def bwd(g):
        splits = np.cumsum([t.value.shape[axis] for t in tensors])[:-1]
        return tuple(piece if t.requires_grad else None
                     for t, piece in zip(tensors, np.split(g, splits, axis=axis)))

    return Tensor(val, tensors, bwd)


def reshape(a: Tensor, shape) -> Tensor:
    val = a.value.reshape(shape)

    def bwd(g):
        return (g.reshape(a.value.shape),)

    return Tensor(val, (a,), bwd)


def tsum(a: Tensor) -> Tensor:
    def bwd(g):
        return (g * np.ones_like(a.value),)

    return Tensor(a.value.sum(), (a,), bwd)


def transpose(a: Tensor, axes) -> Tensor:
    """``a`` with its axes permuted by ``axes``, laid out contiguously in the
    new order; the gradient is permuted back."""
    back = tuple(int(i) for i in np.argsort(axes))
    val = np.ascontiguousarray(a.value.transpose(axes))

    def bwd(g):
        return (g.transpose(back),)

    return Tensor(val, (a,), bwd)


def _windows(x: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """Read-only window view of input (B,C,H,W): entry (u,v,c,h,w,b) is
    x[b, c, h+u, w+v]. Its (kh*kw*C, H'*W'*B) reshape, one copy, is the patch
    matrix: row (u,v,c), column (h,w,b)."""
    b, c, hi, wi = x.shape
    sb, sc, sh, sw = x.strides
    return np.lib.stride_tricks.as_strided(
        x, (kh, kw, c, hi - kh + 1, wi - kw + 1, b), (sh, sw, sc, sh, sw, sb), writeable=False)


# at most this many backward shapes (B, C, H, W, kh, kw); training uses one
# per conv layer whose input takes a gradient
@lru_cache(maxsize=8)
def _col2im_index(shape: tuple) -> np.ndarray:
    """For patch entry (u,v,c,h,w,b) in row-major order, the flat position of
    input entry x[b, c, h+u, w+v] in a (C,H,W,B) array: ``np.bincount`` over
    it adds each input position's patch entries in (u,v) order."""
    nb, n_in, hi, wi, kh, kw = shape
    ho, wo = hi - kh + 1, wi - kw + 1
    pos = np.arange(n_in * hi * wi * nb).reshape(n_in, hi, wi, nb)
    idx = np.stack([pos[:, u : u + ho, v : v + wo] for u in range(kh) for v in range(kw)]).ravel()
    idx.flags.writeable = False
    return idx


# the axes that take a kernel in (F, C, kh, kw) order to the product order
# (kh, kw, C, F) that ``conv2d`` takes
CONV_KERNEL_AXES = (2, 3, 1, 0)


def conv2d(x: Tensor, k: Tensor, b: Tensor) -> Tensor:
    """Unpadded cross-correlation of (B,C,H,W) with a kernel in product order
    (kh,kw,C,F), plus bias (F), through relu -> (B,F,H-kh+1,W-kw+1), as one
    node. ``CONV_KERNEL_AXES`` takes an (F,C,kh,kw) kernel to that order.

    Lowered to one matmul each way over the (kh*kw*C, H'*W'*B) patch matrix
    (im2col), copied from one window view of the input, with the batch axis
    innermost. The kernel's (kh*kw*C, F) matrix is a reshape of it, and its
    gradient comes out in the same order. The forward product takes
    (H'*W'*B, kh*kw*C) patch rows to (H'*W'*B, F) rows; the bias and relu are
    applied to those rows in place, and the output is a (B,F,H',W') view of
    them. The input gradient folds the patch gradient back (col2im) with one
    ``np.bincount`` over a scatter index cached per shape, which adds each
    input position's terms in kernel-offset order."""
    xv, kv, bv = x.value, k.value, b.value
    if (xv.ndim != 4 or kv.ndim != 4 or xv.shape[1] != kv.shape[2]
            or bv.shape != kv.shape[3:]):
        raise ShapeError(f"conv2d: input {xv.shape}, kernel {kv.shape}, bias {bv.shape}")
    kh, kw, n_in, n_out = kv.shape
    if xv.shape[2] < kh or xv.shape[3] < kw:
        raise ShapeError(f"conv2d: input {xv.shape} smaller than kernel {kv.shape}")
    nb, _, hi, wi = xv.shape
    ho, wo = hi - kh + 1, wi - kw + 1
    kmat = kv.reshape(-1, n_out)
    windows = _windows(xv, kh, kw)
    rows = windows.reshape(kh * kw * n_in, -1).T @ kmat
    rows += bv
    np.maximum(rows, 0.0, out=rows)
    val = rows.reshape(ho, wo, nb, n_out).transpose(2, 3, 0, 1)

    def bwd(g):
        g = g * (val > 0)   # the output is positive exactly where the pre-activation is
        gb = g.sum(axis=0).sum(axis=(1, 2)) if b.requires_grad else None
        gk = gx = None
        g2 = g.transpose(2, 3, 0, 1).reshape(-1, n_out)
        if k.requires_grad:
            # the patch matrix is copied again from the window view, not kept
            # from the forward pass: holding every layer's patch matrix until
            # backward raises the update's peak memory
            gk = (windows.reshape(kh * kw * n_in, -1) @ g2).reshape(kv.shape)
        if x.requires_grad:
            gcols = kmat @ g2.T
            gx = np.bincount(_col2im_index((nb, n_in, hi, wi, kh, kw)), weights=gcols.ravel(),
                             minlength=n_in * hi * wi * nb)
            gx = gx.reshape(n_in, hi, wi, nb).transpose(3, 0, 1, 2)
        return gx, gk, gb

    return Tensor(val, (x, k, b), bwd)


def lstm_cell(x: np.ndarray, h: np.ndarray, c: np.ndarray, wt: np.ndarray, b: np.ndarray):
    """One LSTM step on arrays: returns h', c' and the step's intermediates,
    which ``LstmSegment`` keeps for its backward pass.

    ``x`` (dx), ``h`` and ``c`` (H) carry an optional leading batch axis; ``wt``
    (dx + H, 4H) and ``b`` (4H) map ``[x | h]`` to the gate pre-activations,
    stacked [input; forget; output; candidate]. The candidate passes tanh at the
    gate and again inside the cell update.
    """
    H = h.shape[-1]
    if (x.ndim not in (1, 2) or h.shape != c.shape or x.shape[:-1] != h.shape[:-1]
            or wt.shape != (x.shape[-1] + H, 4 * H) or b.shape != (4 * H,)):
        raise ShapeError(f"lstm_cell: x {x.shape}, h {h.shape}, c {c.shape}, "
                         f"weight {wt.shape}, bias {b.shape}")
    xh = np.concatenate([x, h], axis=-1)
    z = xh @ wt
    z += b
    ifo = _sigmoid(z[..., : 3 * H])
    i, f, o = ifo[..., :H], ifo[..., H : 2 * H], ifo[..., 2 * H :]
    gate = np.tanh(z[..., 3 * H :])
    cand = np.tanh(gate)
    c2 = f * c + i * cand
    tc = np.tanh(c2)
    return o * tc, c2, (xh, c, i, f, o, gate, cand, tc)


class LstmSegment:
    """A run of LSTM steps on batched arrays that becomes one graph node.

    ``step`` applies ``lstm_cell`` with the weights ``wt`` and bias ``b`` to an
    input tensor's value and the carried state, and records what
    backpropagation through time reads. ``reset`` restarts some rows after the
    latest step from a fresh state, which also stops the gradient carried back
    through those rows. ``node`` returns the recorded steps as one tensor: its
    value stacks the T steps' outputs h' into (T*B, H) rows, row t*B + i being
    row i at step t, and its parents are the T inputs (last step first),
    ``wt`` and ``b``."""

    def __init__(self, wt: Tensor, b: Tensor):
        self.wt, self.b = wt, b
        self.inputs: list[Tensor] = []
        self.outputs: list[np.ndarray] = []
        self.caches: list[tuple] = []
        self.resets: list = []
        self._last = None

    def step(self, x: Tensor, h: np.ndarray, c: np.ndarray):
        """(h', c') from input rows ``x`` (a tensor) and state rows ``h``, ``c``.
        The caller must not write into the returned arrays; ``reset`` gives the
        state to carry on with when rows restart."""
        if x.value.ndim != 2:
            raise ShapeError(f"an LSTM segment steps (B, dx) input rows, got {x.value.shape}")
        h2, c2, cache = lstm_cell(x.value, h, c, self.wt.value, self.b.value)
        self.inputs.append(x)
        self.outputs.append(h2)
        self.caches.append(cache)
        self.resets.append(None)
        self._last = (h2, c2)
        return h2, c2

    def reset(self, rows, h: np.ndarray, c: np.ndarray):
        """The state after the latest step with ``rows`` replaced by the state
        rows ``h``, ``c``; no gradient flows back through the replaced rows."""
        h2, c2 = (s.copy() for s in self._last)
        h2[rows], c2[rows] = h, c
        self.resets[-1] = rows
        return h2, c2

    def node(self) -> Tensor:
        inputs, caches, resets = tuple(self.inputs), self.caches, self.resets
        wt, b = self.wt, self.b
        n_steps, H = len(caches), self.outputs[0].shape[-1]
        dx = wt.value.shape[0] - H

        def bwd(g):
            g = g.reshape(n_steps, -1, H)
            wv = wt.value
            gxs = [None] * n_steps
            gw = gb = None
            dh = dc = None  # the gradient step t+1 passes back to step t's state
            for t in range(n_steps - 1, -1, -1):
                xh, cv, i, f, o, gate, cand, tc = caches[t]
                if dh is not None and resets[t] is not None:
                    dh[resets[t]] = 0.0
                    dc[resets[t]] = 0.0
                gh = g[t] if dh is None else g[t] + dh
                gc = gh * o * (1.0 - tc * tc)
                if dc is not None:
                    gc = dc + gc
                dcand = gc * i * (1.0 - cand * cand)
                dz = np.concatenate([gc * cand * i * (1.0 - i), gc * cv * f * (1.0 - f),
                                     gh * tc * o * (1.0 - o), dcand * (1.0 - gate * gate)],
                                    axis=-1)
                # the first step's state is a constant: it needs no gradient
                if t > 0 or inputs[t].requires_grad:
                    dxh = dz @ wv.T
                    if inputs[t].requires_grad:
                        gxs[t] = dxh[:, :dx]
                    dh, dc = dxh[:, dx:], gc * f
                # summed from the last step back, in the order a per-step tape
                # would accumulate them
                if wt.requires_grad:
                    if gw is None:
                        gw = xh.T @ dz
                    else:
                        gw += xh.T @ dz
                if b.requires_grad:
                    if gb is None:
                        gb = dz.sum(axis=0)
                    else:
                        gb += dz.sum(axis=0)
            return (*gxs[::-1], gw, gb)

        # the inputs enter last step first, so that backward reaches their
        # graphs (the 2D trunk) from the last step back, as a per-step tape did:
        # the trunk's kernel gradients then sum in the same order
        return Tensor(np.concatenate(self.outputs), (*inputs[::-1], wt, b), bwd)


def a2c_loss(logits: Tensor, values: Tensor, actions: np.ndarray, advantages: np.ndarray,
             returns: np.ndarray, value_coef: float, entropy_coef: float):
    """The A2C loss ``policy_loss + value_coef * value_loss - entropy_coef *
    entropy`` over N rows as one node, and the four as floats. ``logits``
    (N, A) and ``values`` (N) are tensors; ``actions``, ``advantages`` and
    ``returns`` (N) are constants. With logp the log-softmax of the logits and
    p = exp(logp), the terms are -mean(advantages * logp[taken]),
    mean((returns - values)^2) and mean(-sum_a p * logp)."""
    lv, vv = logits.value, values.value
    n = lv.shape[0]
    if lv.ndim != 2 or any(a.shape != (n,) for a in (vv, actions, advantages, returns)):
        raise ShapeError(f"a2c_loss: logits {lv.shape}, values {vv.shape}, actions {actions.shape},"
                         f" advantages {advantages.shape}, returns {returns.shape}")
    rows = np.arange(n)
    shifted = lv - lv.max(axis=-1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    p, diff = np.exp(logp), returns - vv
    stats = {"policy_loss": float(-(advantages * logp[rows, actions]).mean()),
             "value_loss": float((diff * diff).mean()),
             "entropy": float((-(p * logp).sum(axis=-1)).mean())}
    stats = {"loss": stats["policy_loss"] + (stats["value_loss"] * value_coef
                                             + stats["entropy"] * -entropy_coef), **stats}

    def bwd(g):
        glogits = None
        if logits.requires_grad:
            # the order of the three log-prob terms fixes the last bits: the
            # policy term at the taken actions, then the entropy's two
            ec = g * entropy_coef / n
            glogp = np.zeros_like(logp)
            glogp[rows, actions] = -g / n * advantages
            glogp += ec * p
            glogp += ec * logp * p
            glogits = glogp - p * glogp.sum(axis=-1, keepdims=True)
        return glogits, g * value_coef / n * diff * -2.0 if values.requires_grad else None

    return Tensor(stats["loss"], (logits, values), bwd), stats


# ---------------------------------------------------------------------------
# Backward pass.
# ---------------------------------------------------------------------------

def backward(loss: Tensor) -> None:
    """Set ``.grad`` on every node between ``loss`` (a scalar) and the
    parameters it depends on to the gradient of ``loss``.

    Only nodes that require a gradient get one: a constant keeps ``.grad``
    None, and a node the loss does not reach keeps what it had (``Adam.step``
    clears each gradient it applies). A node's gradient is allocated at its
    first contribution, with the node value's memory layout, and later
    contributions are added to it."""
    if loss.value.size != 1:
        raise RankError(f"loss must be scalar, got shape {loss.value.shape}")
    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)] if loss.requires_grad else []
    while stack:
        node, done = stack.pop()
        if done:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))
    for node in topo:
        node.grad = None
    loss.grad = np.ones_like(loss.value)
    for node in reversed(topo):
        if node.bwd is None:
            continue
        for p, g in zip(node.parents, node.bwd(node.grad)):
            if g is None:
                continue
            if p.grad is None:
                # empty_like keeps the value's layout, as zeros_like did: numpy
                # reductions over the gradient sum in layout order
                p.grad = np.empty_like(p.value)
                p.grad[...] = g
            else:
                p.grad += g


# ---------------------------------------------------------------------------
# Optimizers.
# ---------------------------------------------------------------------------

def clip_grad_norm(params, max_norm: float) -> float:
    """Scale all gradients so their joint L2 norm is at most ``max_norm``."""
    total = 0.0
    for p in params:
        if p.grad is not None:
            total += float((p.grad * p.grad).sum())
    norm = float(np.sqrt(total))
    if max_norm > 0 and norm > max_norm:
        factor = max_norm / (norm + 1e-12)
        for p in params:
            if p.grad is not None:
                p.grad *= factor
    return norm


# Adam's moment decay rates and the denominator's guard (Kingma & Ba's values)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class Adam:
    """Adam over every parameter entry as one vector: the moments ``m`` and
    ``v`` are one flat buffer each, the parameters' entries in order."""

    def __init__(self, params, lr: float):
        self.params = list(params)
        self.lr = lr
        self.t = 0
        sizes = [p.value.size for p in self.params]
        self.m, self.v = np.zeros(sum(sizes)), np.zeros(sum(sizes))
        self._cuts = np.cumsum(sizes, dtype=np.int64)[:-1]

    def step(self):
        """One update of every parameter from its gradient, which it clears:
        a gradient is applied once. A missing or non-finite gradient is refused
        by its parameter's name before any value, moment or count moves."""
        for p in self.params:
            if p.grad is None:
                raise AutodiffError(f"no gradient on parameter {p.name!r}: "
                                    "the loss does not reach it")
        g = np.concatenate([p.grad.ravel() for p in self.params])
        if not np.isfinite(g).all():
            bad = next(p for p in self.params if not np.isfinite(p.grad).all())
            raise NonFiniteGradientError(f"non-finite gradient on parameter {bad.name!r}")
        self.t += 1
        self.m *= ADAM_BETA1
        self.m += (1 - ADAM_BETA1) * g
        self.v *= ADAM_BETA2
        self.v += (1 - ADAM_BETA2) * g * g
        mhat = self.m / (1 - ADAM_BETA1 ** self.t)
        vhat = self.v / (1 - ADAM_BETA2 ** self.t)
        step = self.lr * mhat / (np.sqrt(vhat) + ADAM_EPS)
        for p, piece in zip(self.params, np.split(step, self._cuts)):
            p.value -= piece.reshape(p.value.shape)
            p.grad = None


# ---------------------------------------------------------------------------
# Checkpoints: versioned plain-text parameter listing.
# ---------------------------------------------------------------------------

CHECKPOINT_MAGIC = "equipomdp-params 2"


def write_atomic(path, text: str) -> None:
    """Write ``text`` to a temp file beside ``path``, then rename it over
    ``path``: a process that dies mid-write leaves the old file whole."""
    tmp = f"{os.fspath(path)}.tmp"
    with open(tmp, "w") as f:
        f.write(text)
    os.replace(tmp, path)


def save_checkpoint(path, named_params: dict[str, np.ndarray]) -> None:
    lines = [CHECKPOINT_MAGIC]
    for name, value in named_params.items():
        value = np.asarray(value, dtype=np.float64)
        dims = " ".join(str(d) for d in value.shape)
        lines.append(f"param {name} {value.ndim} {dims}".rstrip())
        lines.append(" ".join("%.17g" % v for v in value.reshape(-1)))
    write_atomic(path, "\n".join(lines) + "\n")


def load_checkpoint(path) -> dict[str, np.ndarray]:
    with open(path) as f:
        header = f.readline().rstrip("\n")
        if header != CHECKPOINT_MAGIC:
            raise AutodiffError(f"not a checkpoint file of this version: header {header!r}, "
                                f"expected {CHECKPOINT_MAGIC!r}")
        out: dict[str, np.ndarray] = {}
        while True:
            line = f.readline()
            if not line:
                break
            fields = line.split()
            if len(fields) < 3 or fields[0] != "param":
                raise AutodiffError(f"malformed checkpoint line: {line!r}")
            name = fields[1]
            try:
                ndim = int(fields[2])
                shape = tuple(int(d) for d in fields[3:])
                values = np.array(f.readline().split(), dtype=np.float64)
            except ValueError as e:
                raise AutodiffError(f"checkpoint parameter {name!r}: {e}") from e
            if len(shape) != ndim or min(shape, default=0) < 0:
                raise AutodiffError(
                    f"checkpoint parameter {name!r}: malformed dims {fields[2:]}")
            if values.size != int(np.prod(shape)):
                raise AutodiffError(
                    f"checkpoint parameter {name!r}: expected {int(np.prod(shape))} "
                    f"values for shape {shape}, found {values.size} (truncated file?)")
            if name in out:
                raise AutodiffError(f"checkpoint parameter {name!r} is listed twice")
            if not np.isfinite(values).all():
                raise AutodiffError(f"checkpoint parameter {name!r}: non-finite value")
            out[name] = values.reshape(shape)
    return out


# ---------------------------------------------------------------------------
# Finite-difference gradient checking.
# ---------------------------------------------------------------------------

FD_STEP = 1e-5   # the central differences' step on each parameter entry


def finite_difference_grad(build_loss, param: Tensor) -> np.ndarray:
    """Central-difference gradient of ``build_loss()`` w.r.t. one parameter."""
    grad = np.zeros_like(param.value)
    flat = param.value.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + FD_STEP
        hi = float(build_loss().value)
        flat[i] = keep - FD_STEP
        lo = float(build_loss().value)
        flat[i] = keep
        gflat[i] = (hi - lo) / (2 * FD_STEP)
    return grad


def gradcheck(build_loss, params) -> float:
    """Max relative error between backprop and central finite differences."""
    for p in params:   # one the loss does not reach must not keep an earlier gradient
        p.grad = None
    backward(build_loss())
    analytic = [None if p.grad is None else p.grad.copy() for p in params]
    worst = 0.0
    for p, g_ad in zip(params, analytic):
        g_fd = finite_difference_grad(build_loss, p)
        if g_ad is None:
            g_ad = np.zeros_like(g_fd)
        err = float(np.max(np.abs(g_ad - g_fd))) if g_fd.size else 0.0
        ref = max(1.0, float(np.max(np.abs(g_fd))) if g_fd.size else 0.0)
        worst = max(worst, err / ref)
    return worst


def primitive_gradcheck_battery(seed: int = 0) -> dict[str, float]:
    """Finite-difference check of every primitive in each operand that takes a
    gradient; returns each case's error."""
    rng = np.random.default_rng(seed)
    m, v4 = rng.normal(size=(3, 4)), rng.normal(size=4)
    img, ker = rng.normal(size=(2, 3, 5, 5)), rng.normal(size=(3, 3, 3, 4))
    mix = rng.normal(size=(8, 1))
    idx, sign = rng.integers(0, 5, size=(4, 3)), rng.choice([-1.0, 0.0, 1.0], size=(4, 3))
    logits, values, returns, advantages = (rng.normal(size=s) for s in ((6, 3), 6, 6, 6))
    loss_args = (rng.integers(0, 3, size=6), advantages, returns, 0.5, 0.3)
    # biases of +-100 hold each relu input far from the kink: every output
    # column or channel is all on or all off (the bias cases start there)
    off = np.array([100.0, -100.0, 100.0, -100.0])

    def weighed(x: Tensor) -> Tensor:   # a sum of rows with random weights
        return tsum(affine(x, Tensor(mix[: x.value.shape[1]]), Tensor(np.zeros(1)), False))

    cases = {
        "tied": (lambda p: weighed(tied(p, idx, sign)), (5,)),
        "affine": (lambda p: tsum(affine(p, Tensor(m), Tensor(v4), False)), (2, 3)),
        "affine_relu": (lambda p: tsum(affine(p, Tensor(m), Tensor(off), True)), (2, 3)),
        "affine_weight": (lambda p: tsum(affine(Tensor(m.T), p, Tensor(off), True)), (3, 4)),
        "affine_bias": (lambda p: tsum(affine(Tensor(m.T), Tensor(m), p, True)), (4,)),
        "concat": (lambda p: weighed(concat([p, p], axis=-1)), (3, 4)),
        "reshape": (lambda p: weighed(reshape(p, (2, 6))), (3, 4)),
        "transpose": (lambda p: weighed(reshape(transpose(p, (2, 0, 1)), (6, 4))), (2, 3, 4)),
        "tsum": (tsum, (3, 4)),
        "conv2d": (lambda p: tsum(conv2d(p, Tensor(ker), Tensor(off))), (2, 3, 5, 5)),
        "conv2d_kernel": (lambda p: tsum(conv2d(Tensor(img), p, Tensor(off))), (3, 3, 3, 4)),
        "conv2d_bias": (lambda p: tsum(conv2d(Tensor(img), Tensor(ker), p)), (4,)),
        "a2c_loss": (lambda p: a2c_loss(p, Tensor(values), *loss_args)[0], (6, 3)),
        "a2c_loss_values": (lambda p: a2c_loss(Tensor(logits), p, *loss_args)[0], (6,)),
    }
    out = {}
    shifts = {"affine_bias": off, "conv2d_bias": off}
    for name, (build, shape) in cases.items():
        p = parameter(rng.normal(size=shape) * 0.5 + 0.3 + shifts.get(name, 0.0), "p")
        out[name] = gradcheck(lambda: build(p), [p])
    # three steps of a batch of two, row 0 restarting after the second step
    h0, c0, fresh = (rng.normal(size=(2, 4)) for _ in range(3))
    xs = [parameter(rng.normal(size=(2, 3)), f"x{t}") for t in range(3)]
    wt, b = parameter(rng.normal(size=(7, 16)), "wt"), parameter(rng.normal(size=16), "b")

    def build():
        seg = LstmSegment(wt, b)
        h, c = h0, c0
        for t, x in enumerate(xs):
            h, c = seg.step(x, h, c)
            if t == 1:
                h, c = seg.reset([0], fresh[:1], fresh[1:])
        return weighed(seg.node())

    out["lstm_segment"] = gradcheck(build, [*xs, wt, b])
    return out
