"""Finite symmetry groups, their matrix representations, and their pixel actions on grids.

Two group families are supported: planar rotations by multiples of 2*pi/n
(``cyclic``, order n) and the left-right mirror flip (``reflection``, order 2).
Elements are integers 0..order-1 with 0 the identity; both families compose
additively modulo the order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

CYCLIC = "cyclic"
REFLECTION = "reflection"


class GroupError(ValueError):
    """Invalid group construction or usage."""


class InvalidOrderError(GroupError):
    pass


class UnknownElementError(GroupError):
    pass


class GroupMismatchError(GroupError):
    pass


class UnsupportedSpatialActionError(GroupError):
    pass


@dataclass(frozen=True)
class Group:
    kind: str
    order: int

    identity = 0

    @property
    def elements(self) -> tuple[int, ...]:
        return tuple(range(self.order))

    def check_element(self, g: int) -> int:
        if not isinstance(g, (int, np.integer)) or not 0 <= g < self.order:
            raise UnknownElementError(f"{g!r} is not an element of {self}")
        return int(g)

    def compose(self, a: int, b: int) -> int:
        self.check_element(a)
        self.check_element(b)
        return (a + b) % self.order


def make_group(kind: str, n: int | None = None) -> Group:
    """Construct a finite group: ``cyclic`` of order n or the order-2 ``reflection``."""
    if kind == CYCLIC:
        if n is None or int(n) < 1:
            raise InvalidOrderError(f"cyclic group needs order >= 1, got {n!r}")
        return Group(CYCLIC, int(n))
    if kind == REFLECTION:
        if n not in (None, 2):
            raise InvalidOrderError(f"reflection group has order 2, got {n!r}")
        return Group(REFLECTION, 2)
    raise GroupError(f"unknown group kind {kind!r}")


# ---------------------------------------------------------------------------
# Spatial (pixel-wise) action on square grids.
# ---------------------------------------------------------------------------

def _rot_quarters(group: Group, g: int) -> int:
    # Exact index permutations exist only when the rotation angle is a
    # multiple of 90 degrees, i.e. the order divides 4.
    if group.order not in (1, 2, 4):
        raise UnsupportedSpatialActionError(
            f"cyclic order {group.order} has no exact grid rotation"
        )
    return g * (4 // group.order)


def spatial_transform(group: Group, g: int, values: np.ndarray) -> np.ndarray:
    """Apply element ``g``'s pixel permutation to the last two axes of ``values``."""
    g = group.check_element(g)
    if g == 0:
        return values
    h, w = values.shape[-2], values.shape[-1]
    if group.kind == CYCLIC:
        if h != w:
            raise UnsupportedSpatialActionError(
                f"rotation needs a square grid, got {h}x{w}"
            )
        return np.rot90(values, _rot_quarters(group, g), axes=(-2, -1))
    return np.flip(values, axis=-1)


def spatial_permutation(group: Group, g: int, h: int, w: int) -> np.ndarray:
    """Flat index permutation ``p`` with transformed.flat[i] == x.flat[p[i]]."""
    idx = np.arange(h * w).reshape(h, w)
    return spatial_transform(group, g, idx).ravel()


# ---------------------------------------------------------------------------
# Representations.
# ---------------------------------------------------------------------------

TRIVIAL = "trivial"
STANDARD = "standard"
SIGN = "sign"
REGULAR = "regular"
GRID = "grid"
SUM = "sum"

# Permutation-type representations: pointwise nonlinearities commute with them.
GROUP_SAFE_POINTWISE_KINDS = frozenset({TRIVIAL, REGULAR, GRID})


@dataclass(frozen=True)
class Representation:
    """A matrix-valued homomorphism from a finite group into GL(dim)."""

    group: Group
    kind: str
    dim: int
    parts: tuple["Representation", ...] = ()
    grid_shape: tuple[int, int] | None = None

    def matrix(self, g: int) -> np.ndarray:
        g = self.group.check_element(g)
        return _rep_matrix_cached(self, g)

    @property
    def components(self) -> tuple["Representation", ...]:
        return self.parts if self.kind == SUM else (self,)


@lru_cache(maxsize=None)
def _rep_matrix_cached(rep: Representation, g: int) -> np.ndarray:
    group = rep.group
    if rep.kind == TRIVIAL:
        m = np.eye(rep.dim)
    elif rep.kind == STANDARD:
        theta = 2.0 * np.pi * g / group.order
        c, s = np.cos(theta), np.sin(theta)
        m = np.array([[c, -s], [s, c]])
    elif rep.kind == SIGN:
        m = np.array([[(-1.0) ** g]])
    elif rep.kind == REGULAR:
        n = group.order
        m = np.zeros((n, n))
        m[(np.arange(n) + g) % n, np.arange(n)] = 1.0
    elif rep.kind == GRID:
        h, w = rep.grid_shape
        perm = spatial_permutation(group, g, h, w)
        m = np.zeros((rep.dim, rep.dim))
        m[np.arange(rep.dim), perm] = 1.0
    elif rep.kind == SUM:
        blocks = [part.matrix(g) for part in rep.parts]
        m = np.zeros((rep.dim, rep.dim))
        at = 0
        for b in blocks:
            d = b.shape[0]
            m[at : at + d, at : at + d] = b
            at += d
    else:
        raise GroupError(f"unknown representation kind {rep.kind!r}")
    m.setflags(write=False)
    return m


def trivial_rep(group: Group, dim: int = 1) -> Representation:
    """``dim`` invariant channels: every group element acts as the identity."""
    return Representation(group, TRIVIAL, dim)


def standard_rep(group: Group) -> Representation:
    if group.kind != CYCLIC:
        raise GroupError("standard representation is defined for rotation groups only")
    return Representation(group, STANDARD, 2)


def sign_rep(group: Group) -> Representation:
    if group.order != 2:
        raise GroupError("sign representation needs a group of order 2")
    return Representation(group, SIGN, 1)


def regular_rep(group: Group) -> Representation:
    return Representation(group, REGULAR, group.order)


def grid_rep(group: Group, h: int, w: int) -> Representation:
    if group.kind == CYCLIC and group.order > 1 and h != w:
        raise UnsupportedSpatialActionError("grid rotation needs a square grid")
    if group.kind == CYCLIC:
        _rot_quarters(group, 0)  # validates the order
    return Representation(group, GRID, h * w, grid_shape=(h, w))


def direct_sum(reps) -> Representation:
    """Block-diagonal sum; nested sums are flattened into one component list."""
    parts: list[Representation] = []
    for rep in reps:
        parts.extend(rep.components)
    if not parts:
        raise GroupError("empty direct sum")
    group = parts[0].group
    for rep in parts:
        if rep.group != group:
            raise GroupMismatchError("direct sum components must share one group")
    if len(parts) == 1:
        return parts[0]
    return Representation(group, SUM, sum(p.dim for p in parts), parts=tuple(parts))
