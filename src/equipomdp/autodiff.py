"""Dense reverse-mode automatic differentiation on numpy arrays.

Define-by-run: a ``parameter`` is a leaf that requires a gradient, and every
primitive's output requires one when some parent does. Such a node records
its parents and a backward closure; a node that requires none (a constant,
or anything computed from constants alone) keeps neither. ``backward`` replays
the nodes that require a gradient in reverse topological order, so gradients
reach only the nodes that lead to a parameter, and each closure computes only
the gradients of the parents that require one. Everything runs in float64.

Each network layer is one node (``affine``, ``conv2d``, ``LstmSegment``), and
``Adam`` steps every parameter entry as one flat vector.
"""

from __future__ import annotations

import os

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


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to ``shape``."""
    extra = grad.ndim - len(shape)
    if extra:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# Primitives.
# ---------------------------------------------------------------------------

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


def sum_axis(a: Tensor, axis: int) -> Tensor:
    def bwd(g):
        return (np.expand_dims(g, axis),)

    return Tensor(a.value.sum(axis=axis), (a,), bwd)


def mean(a: Tensor) -> Tensor:
    n = a.value.size

    def bwd(g):
        return (g * np.ones_like(a.value) / n,)

    return Tensor(a.value.mean(), (a,), bwd)


def _im2col(x: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """Patch matrix of input (B,C,H,W): row (u,v,c), column (h,w,b) holds
    x[b, c, h+u, w+v]; one copy from a read-only window view."""
    b, c, hi, wi = x.shape
    sb, sc, sh, sw = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x, (kh, kw, c, hi - kh + 1, wi - kw + 1, b), (sh, sw, sc, sh, sw, sb), writeable=False)
    return windows.reshape(kh * kw * c, -1)


def conv2d(x: Tensor, k: Tensor, b: Tensor) -> Tensor:
    """Unpadded cross-correlation of (B,C,H,W) with kernels (F,C,kh,kw), plus
    bias (F), through relu -> (B,F,H-kh+1,W-kw+1), as one node.

    Lowered to one matmul each way over the (kh*kw*C, H'*W'*B) patch matrix
    (im2col); the input gradient folds the patch gradient back with one
    slice-add per kernel offset (col2im). The batch axis is innermost in both,
    so each slice-add runs over contiguous runs of W'*B entries. The forward
    product takes (H'*W'*B, kh*kw*C) patch rows to (H'*W'*B, F) rows, and the
    output is laid out as those rows, a (B,F,H',W') view of them."""
    xv, kv, bv = x.value, k.value, b.value
    if (xv.ndim != 4 or kv.ndim != 4 or xv.shape[1] != kv.shape[1]
            or bv.shape != kv.shape[:1]):
        raise ShapeError(f"conv2d: input {xv.shape}, kernel {kv.shape}, bias {bv.shape}")
    n_out, n_in, kh, kw = kv.shape
    if xv.shape[2] < kh or xv.shape[3] < kw:
        raise ShapeError(f"conv2d: input {xv.shape} smaller than kernel {kv.shape}")
    nb, _, hi, wi = xv.shape
    ho, wo = hi - kh + 1, wi - kw + 1
    kmat_t = np.ascontiguousarray(kv.transpose(2, 3, 1, 0).reshape(-1, n_out))
    val = (_im2col(xv, kh, kw).T @ kmat_t).reshape(ho, wo, nb, n_out).transpose(2, 3, 0, 1)
    val = val + bv.reshape(n_out, 1, 1)
    np.maximum(val, 0.0, out=val)

    def bwd(g):
        g = g * (val > 0)   # the output is positive exactly where the pre-activation is
        gb = g.sum(axis=0).sum(axis=(1, 2)) if b.requires_grad else None
        gk = gx = None
        g2 = g.transpose(2, 3, 0, 1).reshape(-1, n_out)
        if k.requires_grad:
            # rebuilt, not kept from the forward pass: holding every layer's patch
            # matrix until backward raises the update's peak memory
            gk = (_im2col(xv, kh, kw) @ g2).reshape(kh, kw, n_in, n_out).transpose(3, 2, 0, 1)
        if x.requires_grad:
            gcols = (kmat_t @ g2.T).reshape(kh, kw, n_in, ho, wo, nb)
            gx = np.zeros((n_in, hi, wi, nb))
            for u in range(kh):
                for v in range(kw):
                    gx[:, u : u + ho, v : v + wo] += gcols[u, v]
            gx = gx.transpose(3, 0, 1, 2)
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


# ---------------------------------------------------------------------------
# Backward pass.
# ---------------------------------------------------------------------------

def backward(loss: Tensor) -> None:
    """Set ``.grad`` on every node between ``loss`` (a scalar) and the
    parameters it depends on to the gradient of ``loss``.

    Only nodes that require a gradient get one: a constant keeps ``.grad``
    None, and so does a parameter the loss does not depend on. A node's
    gradient is allocated at its first contribution, with the node value's
    memory layout, and later contributions are added to it."""
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
    """Adam over every parameter entry as one vector: the moments are one flat
    buffer each, and ``m[i]``, ``v[i]`` view parameter i's slice of them."""

    def __init__(self, params, lr: float):
        self.params = list(params)
        self.lr = lr
        self.t = 0
        sizes = [p.value.size for p in self.params]
        self._m, self._v = np.zeros(sum(sizes)), np.zeros(sum(sizes))
        cuts = np.cumsum(sizes, dtype=np.int64)[:-1]
        self.m, self.v = ([piece.reshape(p.value.shape)
                           for piece, p in zip(np.split(flat, cuts), self.params)]
                          for flat in (self._m, self._v))

    def step(self):
        """One update of every parameter that has a gradient; one without keeps
        its value and moments. Every gradient is checked first, so a refused
        step moves no value, moment or count."""
        live = [i for i, p in enumerate(self.params) if p.grad is not None]
        empty = [self._m[:0]]   # what the concatenations hold with no live parameter
        g = np.concatenate([self.params[i].grad.ravel() for i in live] + empty)
        if not np.isfinite(g).all():
            bad = next(self.params[i] for i in live if not np.isfinite(self.params[i].grad).all())
            raise NonFiniteGradientError(f"non-finite gradient on parameter {bad.name!r}")
        self.t += 1
        # the whole buffers in place; with a parameter left out, the live
        # parameters' pieces, gathered here and written back below
        whole = len(live) == len(self.params)
        m, v = (self._m, self._v) if whole else (
            np.concatenate([s[i].ravel() for i in live] + empty) for s in (self.m, self.v))
        m *= ADAM_BETA1
        m += (1 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1 - ADAM_BETA2) * g * g
        mhat = m / (1 - ADAM_BETA1 ** self.t)
        vhat = v / (1 - ADAM_BETA2 ** self.t)
        step = self.lr * mhat / (np.sqrt(vhat) + ADAM_EPS)
        cuts = np.cumsum([self.params[i].value.size for i in live], dtype=np.int64)[:-1]
        for i, piece in zip(live, np.split(step, cuts)):
            self.params[i].value -= piece.reshape(self.params[i].value.shape)
        if not whole:
            for i, m_i, v_i in zip(live, np.split(m, cuts), np.split(v, cuts)):
                self.m[i].flat, self.v[i].flat = m_i, v_i


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
    loss = build_loss()
    backward(loss)
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
    """Finite-difference check of every primitive; returns per-primitive errors."""
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(3, 4))
    v4 = rng.normal(size=4)
    img = rng.normal(size=(2, 3, 5, 5))
    ker = rng.normal(size=(4, 3, 3, 3))
    # biases of +-100 hold each relu input far from the kink: every output
    # column or channel is all on or all off
    off = Tensor(np.array([100.0, -100.0, 100.0, -100.0]))
    idx = np.array([2, 0, 3])
    flat_idx = rng.integers(0, 12, size=20)
    cases = {
        "add": (lambda p: tsum(add(p, Tensor(v4))), (3, 4)),
        "scale": (lambda p: tsum(scale(p, -2.5)), (3, 4)),
        "hadamard": (lambda p: tsum(hadamard(p, Tensor(np.abs(v4) + 0.5))), (3, 4)),
        "affine": (lambda p: tsum(affine(p, Tensor(m), Tensor(v4), False)), (2, 3)),
        "affine_relu": (lambda p: tsum(affine(p, Tensor(m), off, True)), (2, 3)),
        "affine_weight": (lambda p: tsum(affine(Tensor(m.T), p, off, True)), (3, 4)),
        "affine_bias": (lambda p: tsum(affine(Tensor(m.T), Tensor(m), add(p, off), True)), (4,)),
        "exp": (lambda p: tsum(exp(p)), (3, 4)),
        "log_softmax": (lambda p: tsum(hadamard(log_softmax(p), Tensor(m))), (3, 4)),
        "gather_rows": (lambda p: tsum(gather_rows(p, idx)), (3, 4)),
        "take": (lambda p: tsum(take(p, flat_idx)), (3, 4)),
        "concat": (lambda p: tsum(concat([p, exp(p)], axis=-1)), (3, 4)),
        "reshape": (lambda p: tsum(exp(reshape(p, (2, 6)))), (3, 4)),
        "sum": (lambda p: tsum(hadamard(p, p)), (3, 4)),
        "sum_axis": (lambda p: tsum(exp(sum_axis(p, -1))), (3, 4)),
        "mean": (lambda p: mean(exp(p)), (3, 4)),
        "conv2d": (lambda p: tsum(conv2d(p, Tensor(ker), off)), (2, 3, 5, 5)),
        "conv2d_kernel": (lambda p: tsum(conv2d(Tensor(img), p, off)), (4, 3, 3, 3)),
        "conv2d_bias": (lambda p: tsum(conv2d(Tensor(img), Tensor(ker), add(p, off))), (4,)),
    }
    out = {}
    for name, (build, shape) in cases.items():
        p = parameter(rng.normal(size=shape) * 0.5 + 0.3, "p")
        out[name] = gradcheck(lambda: build(p), [p])
    # three steps of a batch of two, row 0 restarting after the second step
    h0, c0, fresh = (rng.normal(size=(2, 4)) for _ in range(3))
    weights = Tensor(rng.normal(size=(6, 4)))
    xs = [parameter(rng.normal(size=(2, 3)), f"x{t}") for t in range(3)]
    wt, b = parameter(rng.normal(size=(7, 16)), "wt"), parameter(rng.normal(size=16), "b")

    def build():
        seg = LstmSegment(wt, b)
        h, c = h0, c0
        for t, x in enumerate(xs):
            h, c = seg.step(x, h, c)
            if t == 1:
                h, c = seg.reset([0], fresh[:1], fresh[1:])
        return tsum(hadamard(seg.node(), weights))

    out["lstm_segment"] = gradcheck(build, [*xs, wt, b])
    return out
