"""Null-space reference for the weight tying in ``equipomdp.nn``.

``solve_intertwiner_basis`` spans every equivariant map between two
representations by solving rho_out(g) B = B rho_in(g) for a null space of
their dense matrices, one pair of channel orbits at a time. No layer uses
it; the tests check that the tied layers span the same spaces. It is the
only user of scipy, which is why it lives with the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import null_space

from equipomdp.groups import GroupMismatchError, Representation
from feature_fields import rep_matrix


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
            ro, ri = rep_matrix(self.rho_out, g), rep_matrix(self.rho_in, g)
            for b in self.mats:
                worst = max(worst, float(np.max(np.abs(ro @ b - b @ ri))))
        return worst


def _orbit_blocks(rep: Representation):
    """``rep`` as the direct sum of its restrictions to the orbits of its
    channels: (channels, dense matrix per element) of each orbit. The orbit
    of channel j is {perm[g, j]}, so its least channel is a column minimum."""
    least = rep.perm.min(axis=0)
    dense = [rep_matrix(rep, g) for g in rep.group.elements]
    blocks = []
    for first in np.unique(least):
        chans = np.flatnonzero(least == first)
        blocks.append((chans, [m[np.ix_(chans, chans)] for m in dense]))
    return blocks


def _block_basis(mats_in, mats_out) -> np.ndarray:
    """Orthonormal basis (k, dout, din) of the maps B with out(g) B = B in(g)."""
    din, dout = len(mats_in[0]), len(mats_out[0])
    rows = [np.kron(mo, np.eye(din)) - np.kron(np.eye(dout), mi.T)
            for mi, mo in zip(mats_in[1:], mats_out[1:])]  # element 0 is the identity
    if not rows:  # order-1 group: unconstrained
        return np.eye(dout * din).reshape(dout * din, dout, din)
    return null_space(np.vstack(rows)).T.reshape(-1, dout, din)


def solve_intertwiner_basis(rho_in: Representation, rho_out: Representation) -> IntertwinerBasis:
    """Orthonormal basis (count, dout, din) of the maps B with
    rho_out(g) B = B rho_in(g) for every element g, assembled block by block
    over the orbits of the input and output channels."""
    if rho_in.group != rho_out.group:
        raise GroupMismatchError("representations live on different groups")
    mats, blocks_in = [], _orbit_blocks(rho_in)
    for chans_out, mats_out in _orbit_blocks(rho_out):
        for chans_in, mats_in in blocks_in:
            for b in _block_basis(mats_in, mats_out):
                m = np.zeros((rho_out.dim, rho_in.dim))
                m[np.ix_(chans_out, chans_in)] = b
                mats.append(m)
    arr = np.array(mats) if mats else np.zeros((0, rho_out.dim, rho_in.dim))
    return IntertwinerBasis(rho_in, rho_out, arr)
