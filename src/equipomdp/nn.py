"""Symmetry-constrained network layers.

Linear maps are parameterized inside the subspace of matrices commuting with
the input/output representations, so any coefficient setting keeps the layer
exactly equivariant. The recurrent cell fuses all four gate pre-activations
into one such constrained map and keeps every gated signal on permutation
(regular) channels, where pointwise sigmoid/tanh and Hadamard products are
safe.

Every layer has one forward path, on ``autodiff`` tensors. ``realize_t``
builds the layer's dense weights from its parameters as graph tensors, and
``forward_t`` (``step_t`` for the cell) applies them; a caller that runs many
steps under fixed parameters realizes once and passes the result in. Callers
that only need values (rollout collection, evaluation, equivariance checks)
read ``.value`` off the output and drop the graph.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import null_space

from . import autodiff as ad
from .autodiff import Tensor
from .groups import (
    CYCLIC,
    GROUP_SAFE_POINTWISE_KINDS,
    Group,
    GroupError,
    GroupMismatchError,
    Representation,
    UnsupportedSpatialActionError,
    direct_sum,
    regular_rep,
    spatial_transform,
    trivial_rep,
)


class RepresentationMismatchError(GroupError):
    pass


# ---------------------------------------------------------------------------
# Intertwiner bases.
# ---------------------------------------------------------------------------

_leaf_cache: dict = {}


def _leaf_intertwiner(rin: Representation, rout: Representation) -> np.ndarray:
    """Orthonormal basis (k, dout, din) of maps B with rout(g) B = B rin(g)."""
    key = (rin, rout)
    if key in _leaf_cache:
        return _leaf_cache[key]
    din, dout = rin.dim, rout.dim
    rows = []
    for g in rin.group.elements:
        if g == 0:
            continue
        rows.append(
            np.kron(rout.matrix(g), np.eye(din))
            - np.kron(np.eye(dout), rin.matrix(g).T)
        )
    if rows:
        ns = null_space(np.vstack(rows))
        mats = ns.T.reshape(-1, dout, din).copy()
    else:  # order-1 group: unconstrained
        mats = np.eye(dout * din).reshape(dout * din, dout, din)
    mats.setflags(write=False)
    _leaf_cache[key] = mats
    return mats


def component_runs(rep: Representation) -> list[tuple[Representation, int]]:
    """Collapse consecutive identical direct-sum components into (rep, count) runs."""
    runs: list[list] = []
    for comp in rep.components:
        if runs and runs[-1][0] == comp:
            runs[-1][1] += 1
        else:
            runs.append([comp, 1])
    return [(c, n) for c, n in runs]


@dataclass(frozen=True)
class IntertwinerBasis:
    rho_in: Representation
    rho_out: Representation
    mats: np.ndarray  # (count, dout, din), orthonormal under Frobenius product

    @property
    def count(self) -> int:
        return self.mats.shape[0]

    def max_constraint_residual(self) -> float:
        worst = 0.0
        for g in self.rho_in.group.elements:
            ro, ri = self.rho_out.matrix(g), self.rho_in.matrix(g)
            for b in self.mats:
                worst = max(worst, float(np.max(np.abs(ro @ b - b @ ri))))
        return worst


def solve_intertwiner_basis(rho_in: Representation, rho_out: Representation) -> IntertwinerBasis:
    """Full equivariant-map basis, assembled blockwise over direct-sum components."""
    if rho_in.group != rho_out.group:
        raise GroupMismatchError("representations live on different groups")
    mats = []
    off_out = 0
    for co in rho_out.components:
        off_in = 0
        for ci in rho_in.components:
            for b in _leaf_intertwiner(ci, co):
                m = np.zeros((rho_out.dim, rho_in.dim))
                m[off_out : off_out + co.dim, off_in : off_in + ci.dim] = b
                mats.append(m)
            off_in += ci.dim
        off_out += co.dim
    arr = np.array(mats) if mats else np.zeros((0, rho_out.dim, rho_in.dim))
    return IntertwinerBasis(rho_in, rho_out, arr)


def invariant_vectors(rep: Representation) -> np.ndarray:
    """Orthonormal rows spanning {v : rep(g) v = v for all g}; shape (m, dim)."""
    basis = solve_intertwiner_basis(trivial_rep(rep.group), rep)
    return basis.mats.reshape(basis.count, rep.dim)


def _assert_pointwise_safe(rep: Representation):
    for comp in rep.components:
        if comp.kind not in GROUP_SAFE_POINTWISE_KINDS:
            raise RepresentationMismatchError(
                f"pointwise nonlinearity is not equivariant on a {comp.kind!r} field"
            )


# ---------------------------------------------------------------------------
# Linear layers.
# ---------------------------------------------------------------------------

class EquiLinear:
    """Linear map constrained to the intertwiner subspace of (rho_in -> rho_out).

    Weights are stored as coefficients over per-block orthonormal bases; the
    bias lives in the invariant subspace of rho_out. The realized dense matrix
    is therefore equivariant for every coefficient setting.
    """

    def __init__(self, rho_in: Representation, rho_out: Representation,
                 rng: np.random.Generator, name: str = "equi_linear", bias: bool = True):
        if rho_in.group != rho_out.group:
            raise GroupMismatchError("input/output representations on different groups")
        self.rho_in = rho_in
        self.rho_out = rho_out
        self.name = name
        self.in_dim = rho_in.dim
        self.out_dim = rho_out.dim
        self._blocks = []  # rows (per out run) of (n_o, n_i, leaf, coeff, bo, bi)
        runs_in = component_runs(rho_in)
        runs_out = component_runs(rho_out)
        for oi, (co, no) in enumerate(runs_out):
            row = []
            for ii, (ci, ni) in enumerate(runs_in):
                leaf = _leaf_intertwiner(ci, co)
                k = leaf.shape[0]
                coeff = None
                if k:
                    std = np.sqrt(co.dim * ci.dim / (k * rho_in.dim))
                    coeff = ad.parameter(
                        rng.normal(0.0, std, size=no * ni * k), f"{name}.w{oi}_{ii}"
                    )
                row.append((no, ni, leaf, coeff, co.dim, ci.dim))
            self._blocks.append(row)
        self._bias_blocks = []
        for oi, (co, no) in enumerate(runs_out):
            inv = invariant_vectors(co)
            m = inv.shape[0]
            coeff = None
            if bias and m:
                coeff = ad.parameter(np.zeros(no * m), f"{name}.b{oi}")
            self._bias_blocks.append((no, m, inv, coeff, co.dim))

    # -- parameter plumbing ------------------------------------------------
    def parameters(self) -> list[Tensor]:
        out = [c for row in self._blocks for (_, _, _, c, _, _) in row if c is not None]
        out.extend(c for (_, _, _, c, _) in self._bias_blocks if c is not None)
        return out

    # -- realization -------------------------------------------------------
    def realize_t(self):
        """Weight (transposed) and bias as graph tensors, built from coefficients."""
        rows = []
        for row in self._blocks:
            pieces = []
            for no, ni, leaf, coeff, bo, bi in row:
                if coeff is None:
                    pieces.append(ad.constant(np.zeros((no * bo, ni * bi))))
                    continue
                k = leaf.shape[0]
                flat = ad.matmul(ad.reshape(coeff, (no * ni, k)),
                                 ad.constant(leaf.reshape(k, bo * bi)))
                w4 = ad.reshape(flat, (no, ni, bo, bi))
                pieces.append(ad.reshape(ad.transpose(w4, (0, 2, 1, 3)), (no * bo, ni * bi)))
            rows.append(pieces[0] if len(pieces) == 1 else ad.concat(pieces, axis=1))
        w = rows[0] if len(rows) == 1 else ad.concat(rows, axis=0)
        bias_parts = []
        for no, m, inv, coeff, bo in self._bias_blocks:
            if coeff is None:
                bias_parts.append(ad.constant(np.zeros(no * bo)))
            else:
                bias_parts.append(ad.reshape(
                    ad.matmul(ad.reshape(coeff, (no, m)), ad.constant(inv)), (no * bo,)))
        b = bias_parts[0] if len(bias_parts) == 1 else ad.concat(bias_parts, axis=-1)
        return ad.transpose(w, (1, 0)), b

    # -- forward -----------------------------------------------------------
    def forward_t(self, x: Tensor, realized=None) -> Tensor:
        if x.value.shape[-1] != self.in_dim:
            raise RepresentationMismatchError(
                f"{self.name}: input has {x.value.shape[-1]} channels, "
                f"rho_in {self.rho_in.kind}/{self.in_dim} expected")
        wt, b = realized if realized is not None else self.realize_t()
        return ad.add(ad.matmul(x, wt), b)

    def project_dense(self, target: np.ndarray) -> float:
        """Set coefficients to the basis projection of ``target``; returns the
        max absolute residual (0 iff target is exactly equivariant)."""
        for row, off_out in zip(self._blocks, self._row_offsets()):
            off_in = 0
            for no, ni, leaf, coeff, bo, bi in row:
                block = target[off_out : off_out + no * bo, off_in : off_in + ni * bi]
                if coeff is not None:
                    b4 = block.reshape(no, bo, ni, bi).transpose(0, 2, 1, 3)
                    coeff.value = np.einsum("oiuv,kuv->oik", b4, leaf).reshape(-1)
                off_in += ni * bi
        return float(np.max(np.abs(self.realize_t()[0].value.T - target)))

    def _row_offsets(self):
        offs, at = [], 0
        for row in self._blocks:
            offs.append(at)
            no, _, _, _, bo, _ = row[0]
            at += no * bo
        return offs


class DenseLinear:
    """Unconstrained linear layer with the same interface as EquiLinear."""

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator,
                 name: str = "linear", bias: bool = True):
        self.rho_in = None
        self.rho_out = None
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.name = name
        self.weight = ad.parameter(
            rng.normal(0.0, 1.0 / np.sqrt(in_dim), size=(out_dim, in_dim)), f"{name}.w")
        self.bias = ad.parameter(np.zeros(out_dim), f"{name}.b") if bias else None

    def parameters(self):
        return [self.weight] + ([self.bias] if self.bias is not None else [])

    def realize_t(self):
        b = self.bias if self.bias is not None else ad.constant(np.zeros(self.out_dim))
        return ad.transpose(self.weight, (1, 0)), b

    def forward_t(self, x: Tensor, realized=None) -> Tensor:
        wt, b = realized if realized is not None else self.realize_t()
        return ad.add(ad.matmul(x, wt), b)


# ---------------------------------------------------------------------------
# Convolutions on square grids.
# ---------------------------------------------------------------------------

class EquiConv2d:
    """Group convolution: one shared kernel set, realized by rotating kernels
    and cyclically shifting group-index channel blocks.

    Input channels are ``in_fields`` copies of the trivial or regular
    representation; output channels always carry regular fields.
    """

    def __init__(self, group: Group, in_fields: int, in_kind: str, out_fields: int,
                 ksize: int, rng: np.random.Generator, name: str = "equi_conv",
                 padding: str = "valid", bias: bool = True):
        if in_kind not in ("trivial", "regular"):
            raise RepresentationMismatchError(f"unsupported conv input kind {in_kind!r}")
        if group.kind == CYCLIC and group.order not in (1, 2, 4):
            raise UnsupportedSpatialActionError(
                f"no exact grid action for cyclic order {group.order}")
        self.group = group
        self.name = name
        self.padding = padding
        n = group.order
        d_in = 1 if in_kind == "trivial" else n
        self.in_fields, self.out_fields, self.ksize = in_fields, out_fields, ksize
        self.in_channels = in_fields * d_in
        self.out_channels = out_fields * n
        comp_in = trivial_rep(group) if in_kind == "trivial" else regular_rep(group)
        self.rho_in = direct_sum([comp_in] * in_fields)
        self.rho_out = direct_sum([regular_rep(group)] * out_fields)
        fan_in = self.in_channels * ksize * ksize
        self.kernel = ad.parameter(
            rng.normal(0.0, 1.0 / np.sqrt(fan_in),
                       size=(out_fields, in_fields, d_in, ksize, ksize)), f"{name}.k")
        src = np.arange(self.kernel.size).reshape(self.kernel.shape)
        idx = np.zeros((self.out_channels, self.in_channels, ksize, ksize), dtype=np.int64)
        for f in range(out_fields):
            for k in range(n):
                for c in range(in_fields):
                    for m in range(d_in):
                        plane = src[f, c, (m - k) % d_in]
                        idx[f * n + k, c * d_in + m] = spatial_transform(group, k, plane)
        self._idx = idx
        self.bias = ad.parameter(np.zeros(out_fields), f"{name}.b") if bias else None
        self._bias_idx = np.repeat(np.arange(out_fields), n)

    def parameters(self):
        return [self.kernel] + ([self.bias] if self.bias is not None else [])

    def realize_t(self):
        k = ad.reshape(ad.take(self.kernel, self._idx.ravel()), self._idx.shape)
        if self.bias is None:
            b = ad.constant(np.zeros(self.out_channels))
        else:
            b = ad.take(self.bias, self._bias_idx)
        return k, b

    def forward_t(self, x: Tensor, realized=None) -> Tensor:
        k, b = realized if realized is not None else self.realize_t()
        self._check_square(x.value)
        y = ad.conv2d(x, k, self.padding)
        return ad.add(y, ad.reshape(b, (self.out_channels, 1, 1)))

    def _check_square(self, x):
        if self.group.kind == CYCLIC and self.group.order > 1 and x.shape[-2] != x.shape[-1]:
            raise UnsupportedSpatialActionError(
                f"rotation-equivariant conv needs square input, got {x.shape[-2]}x{x.shape[-1]}")


class DenseConv2d:
    """Plain convolution with the EquiConv2d interface."""

    def __init__(self, in_channels: int, out_channels: int, ksize: int,
                 rng: np.random.Generator, name: str = "conv", padding: str = "valid"):
        self.rho_in = None
        self.rho_out = None
        self.in_channels, self.out_channels, self.ksize = in_channels, out_channels, ksize
        self.padding = padding
        self.name = name
        fan_in = in_channels * ksize * ksize
        self.kernel = ad.parameter(
            rng.normal(0.0, 1.0 / np.sqrt(fan_in),
                       size=(out_channels, in_channels, ksize, ksize)), f"{name}.k")
        self.bias = ad.parameter(np.zeros(out_channels), f"{name}.b")

    def parameters(self):
        return [self.kernel, self.bias]

    def realize_t(self):
        return self.kernel, self.bias

    def forward_t(self, x: Tensor, realized=None) -> Tensor:
        k, b = realized if realized is not None else self.realize_t()
        y = ad.conv2d(x, k, self.padding)
        return ad.add(y, ad.reshape(b, (self.out_channels, 1, 1)))


# ---------------------------------------------------------------------------
# Recurrent cell.
# ---------------------------------------------------------------------------

class LstmCell:
    """One-step LSTM whose fused gate map is a single linear layer.

    Gate pre-activations are stacked as [input; forget; output; candidate].
    By default the candidate passes tanh both at the gate and again inside the
    cell update; ``single_candidate_tanh`` collapses that to the usual single
    application.
    """

    def __init__(self, linear, hidden_dim: int, single_candidate_tanh: bool = False,
                 rho_x: Representation | None = None, rho_h: Representation | None = None):
        self.linear = linear
        self.hidden_dim = hidden_dim
        self.single_candidate_tanh = single_candidate_tanh
        self.rho_x = rho_x
        self.rho_h = rho_h

    def parameters(self):
        return self.linear.parameters()

    def realize_t(self):
        return self.linear.realize_t()

    def step_t(self, x: Tensor, h: Tensor, c: Tensor, realized=None):
        gates = self.linear.forward_t(ad.concat([x, h], axis=-1), realized)
        H = self.hidden_dim
        ifo = ad.sigmoid(ad.slice_last(gates, 0, 3 * H))
        i = ad.slice_last(ifo, 0, H)
        f = ad.slice_last(ifo, H, 2 * H)
        o = ad.slice_last(ifo, 2 * H, 3 * H)
        g = ad.tanh(ad.slice_last(gates, 3 * H, 4 * H))
        cand = g if self.single_candidate_tanh else ad.tanh(g)
        c2 = ad.add(ad.hadamard(f, c), ad.hadamard(i, cand))
        h2 = ad.hadamard(o, ad.tanh(c2))
        return h2, c2


def equi_lstm_cell(group: Group, rho_x: Representation, hidden_fields: int,
                   rng: np.random.Generator, name: str = "lstm",
                   single_candidate_tanh: bool = False) -> LstmCell:
    """Equivariant cell: regular-representation state, fused constrained gate map."""
    rho_h = direct_sum([regular_rep(group)] * hidden_fields)
    rho_in = direct_sum([*rho_x.components, *rho_h.components])
    rho_gates = direct_sum([regular_rep(group)] * (4 * hidden_fields))
    linear = EquiLinear(rho_in, rho_gates, rng, name=name)
    return LstmCell(linear, hidden_fields * group.order,
                    single_candidate_tanh=single_candidate_tanh, rho_x=rho_x, rho_h=rho_h)


def dense_lstm_cell(input_dim: int, hidden_dim: int, rng: np.random.Generator,
                    name: str = "lstm", single_candidate_tanh: bool = False) -> LstmCell:
    linear = DenseLinear(input_dim + hidden_dim, 4 * hidden_dim, rng, name=name)
    return LstmCell(linear, hidden_dim, single_candidate_tanh=single_candidate_tanh)


def initial_state(cell: LstmCell, batch: int | None = None, mode: str = "zero",
                  rng: np.random.Generator | None = None):
    """Fresh (h, c) rows, shaped (batch, H) or (H,) without a batch. ``zero`` is
    invariant under every group element; ``random`` draws Gaussians and
    deliberately breaks that invariance."""
    shape = (cell.hidden_dim,) if batch is None else (batch, cell.hidden_dim)
    if mode == "zero":
        return np.zeros(shape), np.zeros(shape)
    if mode == "random":
        if rng is None:
            raise ValueError("random initial state needs an rng")
        return rng.standard_normal(shape), rng.standard_normal(shape)
    raise ValueError(f"unknown initial-state mode {mode!r}")


# ---------------------------------------------------------------------------
# Multi-layer heads and conv stacks.
# ---------------------------------------------------------------------------

class Mlp:
    """Linear layers with relu between them (never after the last)."""

    def __init__(self, layers):
        self.layers = list(layers)
        self.rho_in = self.layers[0].rho_in
        self.rho_out = self.layers[-1].rho_out

    def parameters(self):
        return [p for l in self.layers for p in l.parameters()]

    def realize_t(self):
        return [l.realize_t() for l in self.layers]

    def forward_t(self, x: Tensor, realized=None) -> Tensor:
        realized = realized or [None] * len(self.layers)
        for i, (l, r) in enumerate(zip(self.layers, realized)):
            x = l.forward_t(x, r)
            if i < len(self.layers) - 1:
                x = ad.relu(x)
        return x


def equi_actor_head(group: Group, rho_in: Representation, hidden_fields: int,
                    rng: np.random.Generator, name: str = "actor") -> Mlp:
    """Logit head whose output carries the action set's regular representation,
    so a group element permutes the induced categorical distribution."""
    rho_hidden = direct_sum([regular_rep(group)] * hidden_fields)
    _assert_pointwise_safe(rho_hidden)
    return Mlp([
        EquiLinear(rho_in, rho_hidden, rng, name=f"{name}.0"),
        EquiLinear(rho_hidden, regular_rep(group), rng, name=f"{name}.1"),
    ])


def equi_critic_head(group: Group, rho_in: Representation, hidden_fields: int,
                     rng: np.random.Generator, name: str = "critic") -> Mlp:
    """Scalar head ending in the trivial representation: output is invariant."""
    rho_hidden = direct_sum([regular_rep(group)] * hidden_fields)
    _assert_pointwise_safe(rho_hidden)
    return Mlp([
        EquiLinear(rho_in, rho_hidden, rng, name=f"{name}.0"),
        EquiLinear(rho_hidden, trivial_rep(group), rng, name=f"{name}.1"),
    ])


def dense_head(in_dim: int, hidden_dim: int, out_dim: int,
               rng: np.random.Generator, name: str) -> Mlp:
    return Mlp([
        DenseLinear(in_dim, hidden_dim, rng, name=f"{name}.0"),
        DenseLinear(hidden_dim, out_dim, rng, name=f"{name}.1"),
    ])


class Conv2dStack:
    """Convolutions with relu after every layer; shrinks the grid to 1x1."""

    def __init__(self, layers):
        self.layers = list(layers)

    def parameters(self):
        return [p for l in self.layers for p in l.parameters()]

    def realize_t(self):
        return [l.realize_t() for l in self.layers]

    def forward_t(self, x: Tensor, realized=None) -> Tensor:
        realized = realized or [None] * len(self.layers)
        for l, r in zip(self.layers, realized):
            x = ad.relu(l.forward_t(x, r))
        return x
