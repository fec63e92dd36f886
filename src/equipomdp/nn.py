"""Symmetry-constrained network layers.

Every constrained weight and bias shares parameters over the orbits of the
group on its index pairs (Ravanbakhsh, Schneider & Poczos 2017): every
representation gives each element a signed permutation (``perm``, ``sign``),
so W commutes with the group exactly when it is ``sign * theta[idx]``, one
parameter per orbit, and any theta keeps a layer equivariant. A group
convolution ties its kernel as a map from ``rho_in`` tensor the kernel grid
(the G-CNN kernel tying of Cohen & Welling 2016). The recurrent cell fuses all four gate pre-activations into one such
map and keeps every gated signal on channels without sign flips, where
pointwise sigmoid/tanh and Hadamard products are safe.

There is no separate unconstrained layer: over the order-1 group every orbit
is a single entry, so the tying is the identity and every weight entry is a
free parameter. Unconstrained networks are these same layers over
``groups.C1`` on trivial channels.

Every layer has one forward path. ``realize_t`` builds the layer's dense
weights from its parameters as graph tensors, one ``autodiff.tied`` node
each (a convolution kernel then passes one ``autodiff.transpose`` into the
order its product reads), and ``forward_t`` applies them on ``autodiff``
tensors as one graph node: ``autodiff.affine`` for a linear layer (with the
relu between head layers), ``autodiff.conv2d`` with its bias and relu for a
convolution. Every caller realizes once and passes the result in, so one
realization serves all the steps run under fixed parameters.
Callers that only need values (evaluation, equivariance checks) read
``.value`` off the output and drop the graph; rollout collection keeps it for
the update. The recurrent cell steps on arrays instead, and a collected
segment of its steps enters the graph as one ``autodiff.LstmSegment`` node.

``tests/reference_basis.py`` spans the same spaces by a null-space solve; it
is the independent reference the tests check the tying against.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .groups import (
    GroupError,
    GroupMismatchError,
    Representation,
    direct_sum,
    grid_rep,
    pixel_permutation,
    regular_rep,
    trivial_rep,
)


class RepresentationMismatchError(GroupError):
    pass


# ---------------------------------------------------------------------------
# Weight tying over group orbits.
# ---------------------------------------------------------------------------

def tied_weight_indices(rho_in, rho_out: Representation):
    """Orbit tying of the maps from ``rho_in`` to ``rho_out`` that commute with G.

    ``rho_in`` is a representation or a list of them, combined as a tensor
    product (first factor slowest). Returns ``(idx, sign, count)``, ``idx`` and
    ``sign`` shaped (rho_out.dim, din): ``W = sign * theta[idx]`` is equivariant
    for every ``theta`` of length ``count``. Parameters are numbered by their
    orbit's smallest flat index; an orbit whose stabiliser flips the sign has
    sign 0 and no parameter. Over the order-1 group every orbit is one entry,
    so the tying is the identity.
    """
    factors = [rho_out, *(rho_in if isinstance(rho_in, (list, tuple)) else [rho_in])]
    if any(r.group != rho_out.group for r in factors):
        raise GroupMismatchError("input/output representations on different groups")
    n = int(np.prod([r.dim for r in factors]))
    least, sign, clash = np.arange(n), np.ones(n), np.zeros(n, dtype=bool)
    for g in rho_out.group.elements:
        # W[g.j] = s_g(j) W[j]: the action of rho_out tensor rho_in on flat indices
        perm, s = np.zeros(1, dtype=np.int64), np.ones(1)
        for r in factors:
            perm = (perm[:, None] * r.dim + r.perm[g]).ravel()
            s = np.outer(s, r.sign[g]).ravel()
        lower = perm < least
        clash = ~lower & (clash | ((perm == least) & (s != sign)))
        least = np.where(lower, perm, least)
        sign = np.where(lower, s, sign)
    reps, ids = np.unique(least[~clash], return_inverse=True)
    idx = np.zeros(n, dtype=np.int64)
    idx[~clash] = ids
    sign[clash] = 0.0
    shape = (rho_out.dim, n // rho_out.dim)
    return idx.reshape(shape), sign.reshape(shape), len(reps)


def _assert_pointwise_safe(rep: Representation):
    """Pointwise nonlinearities commute with permutations, not with sign flips."""
    if np.any(rep.sign != 1.0):
        raise RepresentationMismatchError(
            f"pointwise nonlinearity is not equivariant on a {rep.summary} field, which "
            "flips signs")


# ---------------------------------------------------------------------------
# Linear layers.
# ---------------------------------------------------------------------------

class EquiLinear:
    """Linear map rho_in -> rho_out with one parameter per orbit: the weight is
    ``sign * w[idx]`` and the bias, tied the same way, lies in the invariant
    subspace of rho_out. Equivariant for every parameter setting."""

    def __init__(self, rho_in: Representation, rho_out: Representation,
                 rng: np.random.Generator, name: str = "equi_linear"):
        self.rho_in = rho_in
        self.rho_out = rho_out
        self.name = name
        self.in_dim = rho_in.dim
        idx, sign, count = tied_weight_indices(rho_in, rho_out)
        self._w_tie = (idx.T.copy(), sign.T.copy())  # the forward computes x @ W^T
        b_idx, b_sign, b_count = tied_weight_indices(trivial_rep(rho_out.group), rho_out)
        self._b_tie = (b_idx[:, 0], b_sign[:, 0])  # the invariant vectors of rho_out
        self.weight = ad.parameter(
            rng.normal(0.0, 1.0 / np.sqrt(rho_in.dim), size=count), f"{name}.w")
        self.bias = ad.parameter(np.zeros(b_count), f"{name}.b")

    def parameters(self) -> list[Tensor]:
        return [self.weight, self.bias]

    def realize_t(self):
        """Weight (transposed) and bias as graph tensors, gathered from the parameters."""
        return ad.tied(self.weight, *self._w_tie), ad.tied(self.bias, *self._b_tie)

    def forward_t(self, x: Tensor, realized, relu: bool) -> Tensor:
        """``x W^T + b`` on (N, in_dim) rows, through relu if ``relu``."""
        if x.value.shape[-1] != self.in_dim:
            raise RepresentationMismatchError(
                f"{self.name}: input has {x.value.shape[-1]} channels, "
                f"rho_in {self.rho_in.summary} ({self.in_dim}) expected")
        wt, b = realized
        return ad.affine(x, wt, b, relu)


# ---------------------------------------------------------------------------
# Convolutions on square grids.
# ---------------------------------------------------------------------------

class EquiConv2d:
    """Unpadded group convolution whose kernel is an equivariant map from
    ``rho_in`` tensor ``grid_rep(group, k, k)`` to ``rho_out``, tied as in
    EquiLinear, followed by relu. Output channels carry ``out_fields``
    regular fields.
    """

    def __init__(self, rho_in: Representation, out_fields: int, ksize: int,
                 rng: np.random.Generator, name: str = "equi_conv"):
        group = rho_in.group
        self.group = group
        self.name = name
        self.rho_in = rho_in
        self.rho_out = direct_sum([regular_rep(group)] * out_fields)
        self.in_channels = self.rho_in.dim
        self.out_channels = self.rho_out.dim
        idx, sign, count = tied_weight_indices(
            [self.rho_in, grid_rep(group, ksize, ksize)], self.rho_out)
        shape = (self.out_channels, self.in_channels, ksize, ksize)
        self._k_tie = (idx.reshape(shape), sign.reshape(shape))
        b_idx, b_sign, b_count = tied_weight_indices(trivial_rep(group), self.rho_out)
        self._b_tie = (b_idx[:, 0], b_sign[:, 0])
        fan_in = self.in_channels * ksize * ksize
        self.kernel = ad.parameter(
            rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=count), f"{name}.k")
        self.bias = ad.parameter(np.zeros(b_count), f"{name}.b")

    def parameters(self):
        return [self.kernel, self.bias]

    def realize_t(self):
        """Kernel and bias as graph tensors. The kernel is tied in (F, C, kh, kw)
        order and transposed once to the (kh, kw, C, F) order ``conv2d``
        multiplies by, so that no call re-lays it out and each call's kernel
        gradient adds up contiguously until one transpose takes the sum back."""
        kernel = ad.transpose(ad.tied(self.kernel, *self._k_tie), ad.CONV_KERNEL_AXES)
        return kernel, ad.tied(self.bias, *self._b_tie)

    def forward_t(self, x: Tensor, realized) -> Tensor:
        h, w = x.value.shape[-2:]
        if h != w:  # every element must act on the input grid
            for g in self.group.elements:
                pixel_permutation(self.group, g, h, w)
        k, b = realized
        return ad.conv2d(x, k, b)


# ---------------------------------------------------------------------------
# Recurrent cell.
# ---------------------------------------------------------------------------

class LstmCell:
    """One-step LSTM whose fused gate map is a single linear layer.

    The cell runs on arrays (``autodiff.lstm_cell``): ``step`` applies it
    once, and ``segment`` starts an ``autodiff.LstmSegment``, which steps it
    the same way and turns a run of steps into one graph node for
    backpropagation through time.

    Gate pre-activations are stacked as [input; forget; output; candidate].
    The candidate passes tanh both at the gate and again inside the cell
    update.
    """

    def __init__(self, linear: EquiLinear, rho_x: Representation, rho_h: Representation):
        self.linear = linear
        self.rho_x = rho_x
        self.rho_h = rho_h
        self.hidden_dim = rho_h.dim

    def parameters(self):
        return self.linear.parameters()

    def realize_t(self):
        return self.linear.realize_t()

    def step(self, x: np.ndarray, h: np.ndarray, c: np.ndarray, realized):
        """(h', c') arrays from input rows ``x`` and state rows ``h``, ``c``."""
        if x.shape[-1] != self.rho_x.dim:
            raise RepresentationMismatchError(
                f"{self.linear.name}: input has {x.shape[-1]} channels, "
                f"{self.rho_x.dim} expected (rho_x {self.rho_x.summary})")
        wt, b = realized
        return ad.lstm_cell(x, h, c, wt.value, b.value)[:2]

    def segment(self, realized) -> ad.LstmSegment:
        """A run of steps under the realized weights, to become one graph node."""
        wt, b = realized
        return ad.LstmSegment(wt, b)


def equi_lstm_cell(rho_x: Representation, rho_h: Representation,
                   rng: np.random.Generator, name: str = "lstm") -> LstmCell:
    """Equivariant cell: permutation-type state ``rho_h`` (regular fields, or
    plain units over the trivial group), fused constrained gate map."""
    _assert_pointwise_safe(rho_h)
    linear = EquiLinear(direct_sum([rho_x, rho_h]), direct_sum([rho_h] * 4), rng, name=name)
    return LstmCell(linear, rho_x, rho_h)


def initial_state(cell: LstmCell, batch: int, mode: str, rng: np.random.Generator | None):
    """Fresh (h, c) rows, shaped (batch, H). ``mode`` is one of
    ``agent.LSTM_INITS``: ``zero`` is invariant under every group element;
    ``random`` draws Gaussians and deliberately breaks that invariance."""
    shape = (batch, cell.hidden_dim)
    if mode != "random":
        return np.zeros(shape), np.zeros(shape)
    if rng is None:
        raise ValueError("random initial state needs an rng")
    return rng.standard_normal(shape), rng.standard_normal(shape)


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

    def forward_t(self, x: Tensor, realized) -> Tensor:
        for i, (l, r) in enumerate(zip(self.layers, realized)):
            x = l.forward_t(x, r, relu=i < len(self.layers) - 1)
        return x


def mlp_head(rho_in: Representation, rho_hidden: Representation,
             rho_out: Representation, rng: np.random.Generator, name: str) -> Mlp:
    """Two tied linear layers with relu between them. The actor ends in the
    regular representation of its actions, so a group element permutes the
    induced categorical distribution; the critic ends in the trivial one, so
    its value is invariant."""
    _assert_pointwise_safe(rho_hidden)
    return Mlp([
        EquiLinear(rho_in, rho_hidden, rng, name=f"{name}.0"),
        EquiLinear(rho_hidden, rho_out, rng, name=f"{name}.1"),
    ])


class Conv2dStack:
    """Convolutions with relu after every layer; shrinks the grid to 1x1."""

    def __init__(self, layers):
        self.layers = list(layers)

    def parameters(self):
        return [p for l in self.layers for p in l.parameters()]

    def realize_t(self):
        return [l.realize_t() for l in self.layers]

    def forward_t(self, x: Tensor, realized) -> Tensor:
        for l, r in zip(self.layers, realized):
            x = l.forward_t(x, r)
        return x
