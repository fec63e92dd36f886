"""Null-space reference for the weight tying in ``equipomdp.nn``.

``solve_intertwiner_basis`` spans every equivariant map between two
representations by solving rho_out(g) B = B rho_in(g) for a null space. No
layer uses it; the tests check that the tied layers span the same spaces.
It is the only user of scipy, which is why it lives with the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import null_space

from equipomdp.groups import GroupMismatchError, Representation


@lru_cache(maxsize=None)
def _leaf_intertwiner(rin: Representation, rout: Representation) -> np.ndarray:
    """Orthonormal basis (k, dout, din) of maps B with rout(g) B = B rin(g)."""
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
    return mats


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
