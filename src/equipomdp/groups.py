"""Finite symmetry groups as data, and their signed-permutation representations.

A group is its elements' 2x2 integer matrices, acting on (row, col) offsets,
and its Cayley table. ``generate`` closes a few generators breadth first from
the identity, so element 0 is the identity and element g of a cyclic group is
the g-th power of its generator: g quarter turns of ``C4``, as
``np.rot90(k=g)``. A representation is one signed permutation of its channels
per element, ``rho(g) e_j = sign[g, j] e_{perm[g, j]}``: a regular
representation permutes by the rows of the Cayley table, a grid
representation moves pixels as the element matrices move offsets from the
grid's centre, and the sign representation sends every generator to -1.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np


class GroupError(ValueError):
    """Invalid group construction or usage."""


class UnknownElementError(GroupError):
    pass


class GroupMismatchError(GroupError):
    pass


class UnsupportedSpatialActionError(GroupError):
    pass


@dataclass(frozen=True, eq=False)
class Group:
    """A finite group of 2x2 integer matrices; two groups are equal only if
    they are the same object."""

    name: str
    mats: np.ndarray     # (order, 2, 2) int: element g acting on (row, col) offsets
    table: np.ndarray    # (order, order) int: table[g, h] is the element g h
    parity: np.ndarray   # (order,) int: length mod 2 of g's shortest word in the generators

    @property
    def order(self) -> int:
        return len(self.mats)

    @property
    def elements(self) -> tuple[int, ...]:
        return tuple(range(self.order))

    def check_element(self, g: int) -> int:
        if not isinstance(g, (int, np.integer)) or not 0 <= g < self.order:
            raise UnknownElementError(f"{g!r} is not an element of {self.name}")
        return int(g)


def generate(name: str, *generators) -> Group:
    """The finite group that the 2x2 integer matrices ``generators`` generate,
    its elements in breadth-first order from the identity."""
    gens = [np.array(m, dtype=np.int64) for m in generators]
    mats, parity = [np.eye(2, dtype=np.int64)], [0]
    index = {mats[0].tobytes(): 0}
    i = 0
    while i < len(mats):
        for gen in gens:
            m = mats[i] @ gen
            if index.setdefault(m.tobytes(), len(mats)) == len(mats):
                mats.append(m)
                parity.append(1 - parity[i])
        i += 1
    table = np.array([[index[(a @ b).tobytes()] for b in mats] for a in mats])
    return Group(name, np.array(mats), table, np.array(parity))


C1 = generate("c1")
MIRROR = generate("reflection2", ((1, 0), (0, -1)))   # flips columns
C4 = generate("c4", ((0, -1), (1, 0)))                 # counterclockwise quarter turn


def pixel_permutation(group: Group, g: int, h: int, w: int) -> np.ndarray:
    """Flat index permutation ``p`` of an h x w grid with image.flat[i] ==
    x.flat[p[i]]: element g moves the pixel at offset q from the grid's
    centre to offset ``mats[g] @ q``. Refused unless that maps the grid onto
    itself, as a turn that swaps the axes of a non-square grid does not."""
    rows, cols = np.divmod(np.arange(h * w), w)
    # offsets doubled, so that the centre of an even side is an integer too
    q = np.stack([2 * rows - (h - 1), 2 * cols - (w - 1)])
    moved = group.mats[group.check_element(g)] @ q
    if set(zip(*moved.tolist())) != set(zip(*q.tolist())):
        raise UnsupportedSpatialActionError(
            f"element {g} of {group.name} does not map the {h}x{w} grid onto itself")
    r, c = moved
    return np.argsort((r + h - 1) // 2 * w + (c + w - 1) // 2)


# ---------------------------------------------------------------------------
# Representations.
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Representation:
    """A homomorphism from a finite group to signed permutations of ``dim``
    channels: rho(g) e_j = sign[g, j] e_{perm[g, j]}."""

    group: Group
    perm: np.ndarray            # (order, dim) int
    sign: np.ndarray            # (order, dim) float, each entry +1 or -1
    label: tuple[str, ...]      # one name per direct summand, for messages

    @property
    def dim(self) -> int:
        return self.perm.shape[1]

    @property
    def summary(self) -> str:
        """The summands counted by name, in order of first appearance."""
        return " + ".join(f"{n}*{name}" for name, n in Counter(self.label).items())


def _rep(group: Group, perm, sign, name: str) -> Representation:
    return Representation(group, np.asarray(perm, dtype=np.int64),
                          np.asarray(sign, dtype=np.float64), (name,))


def trivial_rep(group: Group, dim: int = 1) -> Representation:
    """``dim`` invariant channels: every group element acts as the identity."""
    return _rep(group, np.tile(np.arange(dim), (group.order, 1)),
                np.ones((group.order, dim)), "trivial")


def sign_rep(group: Group) -> Representation:
    """One channel that every generator negates."""
    sign = np.where(group.parity == 1, -1.0, 1.0)
    if not np.array_equal(sign[group.table], np.outer(sign, sign)):
        raise GroupError(f"{group.name} has no sign representation that negates "
                         "every generator")
    return _rep(group, np.zeros((group.order, 1)), sign[:, None], "sign")


def regular_rep(group: Group) -> Representation:
    """One channel per element, permuted by left multiplication."""
    return _rep(group, group.table, np.ones(group.table.shape), "regular")


def grid_rep(group: Group, h: int, w: int) -> Representation:
    """The pixels of an h x w grid, moved as the element matrices move offsets."""
    perm = [np.argsort(pixel_permutation(group, g, h, w)) for g in group.elements]
    return _rep(group, perm, np.ones((group.order, h * w)), "grid")


def direct_sum(reps) -> Representation:
    """Block-diagonal sum, the summands' channels in order."""
    reps = list(reps)
    if not reps:
        raise GroupError("empty direct sum")
    group = reps[0].group
    if any(rep.group != group for rep in reps):
        raise GroupMismatchError("direct sum components must share one group")
    offsets = np.cumsum([0] + [rep.dim for rep in reps[:-1]])
    return Representation(group,
                          np.concatenate([r.perm + at for r, at in zip(reps, offsets)], axis=1),
                          np.concatenate([r.sign for r in reps], axis=1),
                          sum((r.label for r in reps), ()))
