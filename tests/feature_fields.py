"""Feature fields and the combined pixel/channel group action: the tests'
reference for how a group element acts on a layer's input and output, and
the dense matrix of a representation for the checks that need one."""

from dataclasses import dataclass

import numpy as np

from equipomdp.groups import (C1, C4, Group, GroupError, Representation, generate,
                              pixel_permutation)

C2 = generate("c2", ((-1, 0), (0, -1)))  # the half turn
# Cyclic groups by order. The three-fold and six-fold rotations are the
# integer matrices of the hexagonal lattice's turns; no 2x2 integer matrix
# has order 5 or 8.
CYCLIC_BY_ORDER = {1: C1, 2: C2, 3: generate("c3", ((0, -1), (1, -1))), 4: C4,
                   6: generate("c6", ((1, -1), (1, 0)))}


def compose(group: Group, a: int, b: int) -> int:
    """The element a b, read from the Cayley table."""
    return int(group.table[group.check_element(a), group.check_element(b)])


def rep_matrix(rep: Representation, g: int) -> np.ndarray:
    """The dense matrix of ``rep`` at element ``g``: column j holds sign[g, j]
    in row perm[g, j]."""
    g = rep.group.check_element(g)
    m = np.zeros((rep.dim, rep.dim))
    m[rep.perm[g], np.arange(rep.dim)] = rep.sign[g]
    return m


@dataclass(frozen=True)
class FeatureField:
    """Values carrying a representation, optionally spread over an HxW grid."""

    rep: Representation
    values: np.ndarray
    spatial: tuple[int, int] | None = None

    def __post_init__(self):
        want = (self.rep.dim,) if self.spatial is None else (self.rep.dim, *self.spatial)
        if self.values.shape != want:
            raise GroupError(
                f"field values shape {self.values.shape} != expected {want}"
            )


def act_on_field(g: int, field: FeatureField) -> FeatureField:
    """Transform a field: pixel permutation first, then the channel matrix."""
    group = field.rep.group
    g = group.check_element(g)
    vals = field.values
    if field.spatial is not None:
        h, w = field.spatial
        perm = pixel_permutation(group, g, h, w)
        vals = vals.reshape(field.rep.dim, h * w)[:, perm].reshape(vals.shape)
    rho = rep_matrix(field.rep, g)
    if field.spatial is None:
        out = rho @ vals
    else:
        out = (rho @ vals.reshape(field.rep.dim, -1)).reshape(vals.shape)
    return FeatureField(field.rep, out, field.spatial)
