"""Explicit finite POMDPs, symmetry bindings, and exact verification oracles.

Histories are flat tuples ``(o0, a0, o1, ..., ot)`` of integer ids. A
finite-horizon solve folds the reachable history tree into a DAG of belief
classes, built and backed up one depth at a time by array passes over the
nonzeros of the transition and emission tables, and yields optimal action
values against which the symmetry claims (belief invariance, value
invariance, policy equivariance) are checked exhaustively, for every
history, by pairing classes with their images one depth at a time, in array
passes, and counting the histories each pair stands for.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .autodiff import write_atomic
from .groups import Group


class PomdpError(ValueError):
    pass


class ImpossibleObservationError(PomdpError):
    pass


class NodeBudgetError(PomdpError):
    pass


def require_integer(name: str, value, error: type[Exception]) -> None:
    """Raise ``error`` naming the setting ``name`` unless ``value`` is an
    integer: a bool, a float (2.0 included) or a string is refused, a numpy
    integer accepted."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise error(f"{name} must be an integer, got {value!r}")


SUM_TOL = 1e-12   # how far a table's distribution may sum from 1


class SparseRows(NamedTuple):
    """A table's nonzeros by row: row r's columns, ascending, are
    ``cols[at[r]:at[r + 1]]`` and its values ``vals[at[r]:at[r + 1]]``."""

    at: np.ndarray     # (rows + 1,) int offsets
    cols: np.ndarray   # int
    vals: np.ndarray   # float

    @property
    def nbytes(self) -> int:
        return self.at.nbytes + self.cols.nbytes + self.vals.nbytes

    def rows(self) -> np.ndarray:
        """The row of each stored entry."""
        return np.repeat(np.arange(len(self.at) - 1), np.diff(self.at))


@dataclass
class Pomdp:
    """Finite POMDP tables.

    ``trans`` and ``obs`` hold only their nonzeros, by row (``SparseRows``):
    row s of ``trans`` runs over the columns a * S + s', the probability of
    reaching s' by action a from s, and row a * S + s' of ``obs`` over the
    observations emitted on reaching s' by a. Each (s, a) block of a
    ``trans`` row and each ``obs`` row sums to 1. ``obs0`` (S, O) is the
    emission table for the very first observation, before any action;
    ``start``, ``reward`` and ``obs0`` are dense. No (S, A, S) array is held.
    """

    start: np.ndarray      # (S,)
    trans: SparseRows      # S rows over A * S columns
    reward: np.ndarray     # (S, A)
    obs: SparseRows        # A * S rows over O columns
    obs0: np.ndarray       # (S, O)
    discount: float = 0.99

    @property
    def n_states(self) -> int:
        return self.reward.shape[0]

    @property
    def n_actions(self) -> int:
        return self.reward.shape[1]

    @property
    def n_obs(self) -> int:
        return self.obs0.shape[1]

    def validate(self) -> None:
        """Check the shapes, the row layout of ``trans`` and ``obs`` (integer
        offsets from 0 to the stored entries, never decreasing; integer
        columns in range, ascending within a row) and that every
        distribution is nonnegative and sums to 1 within ``SUM_TOL``. An
        error names the first bad row."""
        if self.reward.ndim != 2 or self.obs0.ndim != 2:
            raise PomdpError("reward and obs0 must be 2-D tables")
        s, a, o = self.n_states, self.n_actions, self.n_obs
        if self.start.shape != (s,):
            raise PomdpError("start distribution shape disagrees")
        if self.obs0.shape[0] != s:
            raise PomdpError("observation table shapes disagree")
        if not 0.0 <= self.discount < 1.0:
            raise PomdpError(f"discount must be in [0, 1), got {self.discount}")

        def trans_row(r):
            return f"row (s={r})"

        def obs_row(r):
            return f"row (a={r // s}, s'={r % s})"

        for name, table, n_rows, rows_what, width, cols_what, label in (
                ("trans", self.trans, s, "states", a * s, "(action, state) columns",
                 trans_row),
                ("obs", self.obs, a * s, "(action, state) rows", o, "observations", obs_row)):
            at, cols, vals = table
            if len(at) != n_rows + 1:
                raise PomdpError(f"{name} has {len(at) - 1} rows, but the POMDP has "
                                 f"{n_rows} {rows_what}")
            if not all(np.issubdtype(x.dtype, np.integer) for x in (at, cols)):
                raise PomdpError(f"{name} row offsets and columns must be integers")
            if at[0] != 0 or at[-1] != len(cols) or len(cols) != len(vals):
                raise PomdpError(f"{name} row offsets run from {at[0]} to {at[-1]}, but "
                                 f"{len(cols)} columns and {len(vals)} values are stored")
            bad = np.flatnonzero(np.diff(at) < 0)
            if len(bad):
                raise PomdpError(f"{name} row offsets decrease at {label(int(bad[0]))}")
            rows = table.rows()
            for bad, what in ((np.flatnonzero((cols < 0) | (cols >= width)),
                               f"outside {width} {cols_what}"),
                              (np.flatnonzero((np.diff(cols) <= 0) & (np.diff(rows) == 0)) + 1,
                               "out of order")):
                if len(bad):
                    raise PomdpError(f"{name} {label(int(rows[bad[0]]))} has column "
                                     f"{cols[bad[0]]} {what}")
        rows = self.trans.rows()
        _check_distributions("trans", rows * a + self.trans.cols // s, self.trans.vals, s * a,
                             lambda r: f"row (s={r // a}, a={r % a})")
        _check_distributions("obs", self.obs.rows(), self.obs.vals, a * s, obs_row)
        _check_distributions("start", np.zeros(s, dtype=np.int64), self.start, 1,
                             lambda r: "distribution")
        _check_distributions("obs0", np.repeat(np.arange(s), o), self.obs0.ravel(), s,
                             trans_row)

    def push(self, belief: np.ndarray, a: int) -> np.ndarray:
        """The distribution over next states after action ``a`` from
        ``belief``, each state's rows summed in order of the states."""
        at, cols, vals = self.trans
        support = np.flatnonzero(belief)
        idx, entry = _spans(at[support], at[support + 1] - at[support])
        on = cols[idx] // self.n_states == a
        return np.bincount(cols[idx][on] - a * self.n_states,
                           weights=belief[support][entry][on] * vals[idx][on],
                           minlength=self.n_states)

    def emission(self, a: int) -> np.ndarray:
        """Action ``a``'s block of ``obs`` as a dense (S, O) array."""
        at, cols, vals = self.obs
        at = at[a * self.n_states:(a + 1) * self.n_states + 1]
        block = np.zeros((self.n_states, self.n_obs))
        block[np.repeat(np.arange(self.n_states), np.diff(at)),
              cols[at[0]:at[-1]]] = vals[at[0]:at[-1]]
        return block


def _check_distributions(name: str, keys: np.ndarray, vals: np.ndarray, n: int,
                         label) -> None:
    """The entries ``vals`` grouped by ``keys`` into ``n`` distributions must
    be nonnegative and sum to 1 within ``SUM_TOL``; the first bad one is
    named by ``label`` of its key."""
    bad = np.flatnonzero(~(vals >= -SUM_TOL))
    if len(bad):
        raise PomdpError(f"{name} {label(int(keys[bad[0]]))} has a negative entry "
                         f"{float(vals[bad[0]])!r}")
    sums = np.bincount(keys, weights=vals, minlength=n)
    bad = np.flatnonzero(~(np.abs(sums - 1.0) <= SUM_TOL))
    if len(bad):
        raise PomdpError(f"{name} {label(int(bad[0]))} sums to {float(sums[bad[0]])!r}")


@dataclass
class GroupActionBinding:
    """Per-element permutations of states, actions, and observations."""

    group: Group
    state_maps: np.ndarray   # (|G|, S) int
    action_maps: np.ndarray  # (|G|, A) int
    obs_maps: np.ndarray     # (|G|, O) int

    def validate(self, pomdp: Pomdp) -> None:
        """Check that each element's maps permute the POMDP's states, actions
        and observations, the identity's being the identity, and that the
        maps compose as the group does. Every map is checked for being a
        bijection before any composition is."""
        checked = (("state", self.state_maps, pomdp.n_states, "states"),
                   ("action", self.action_maps, pomdp.n_actions, "actions"),
                   ("obs", self.obs_maps, pomdp.n_obs, "observations"))
        for name, maps, n, what in checked:
            if maps.ndim != 2 or maps.shape[0] != self.group.order:
                raise PomdpError(f"{name} maps must have one row per group element")
            if maps.shape[1] != n:
                raise PomdpError(f"{name} maps have {maps.shape[1]} columns, but the "
                                 f"POMDP has {n} {what}")
            if not np.issubdtype(maps.dtype, np.integer):
                raise PomdpError(f"{name} maps must be integers, got {maps.dtype}")
            if not np.array_equal(maps[0], np.arange(n)):
                raise PomdpError(f"{name} map for the identity is not the identity")
            broken = (np.sort(maps, axis=1) != np.arange(n)).any(axis=1)
            if broken.any():
                raise PomdpError(
                    f"{name} map for element {int(np.argmax(broken))} is not a bijection")
        for name, maps, _, _ in checked:
            # [g, h] compares the map of g h with the map of g after that of h
            broken = (maps[self.group.table] != maps[:, maps]).any(axis=2)
            if broken.any():
                g, h = np.unravel_index(int(np.argmax(broken)), broken.shape)
                raise PomdpError(f"{name} maps break composition at ({g}, {h})")


def format_history(h: tuple) -> str:
    bits = [f"o{x}" if i % 2 == 0 else f"a{x}" for i, x in enumerate(h)]
    return " ".join(bits)


# ---------------------------------------------------------------------------
# Invariance of the model tables.
# ---------------------------------------------------------------------------

@dataclass
class InvarianceReport:
    passed: bool
    max_dev: float
    violations: dict[str, list]

    def lines(self) -> list[str]:
        out = [f"RESULT invariance passed={self.passed} max_dev={self.max_dev:.3e}"]
        for cond, items in self.violations.items():
            for key, a, b in items:
                out.append(f"violation {cond} at {key}: mapped={a:.12g} original={b:.12g}")
        return out


def _table_entries(pomdp: Pomdp) -> dict[str, tuple]:
    """Each table's dense shape, and its nonzeros as ascending flat indices
    into that shape (C order) with their values: ``trans`` indexed (s, a,
    s'), ``obs`` (a, s', o). ``-0.0`` counts as zero."""
    s, a, o = pomdp.n_states, pomdp.n_actions, pomdp.n_obs
    out = {}
    for name, shape in (("trans", (s, a, s)), ("reward", (s, a)), ("obs", (a, s, o)),
                        ("start", (s,)), ("obs0", (s, o))):
        table = getattr(pomdp, name)
        if isinstance(table, SparseRows):   # a row's columns run over the last axes
            keys = table.rows() * (np.prod(shape) // (len(table.at) - 1)) + table.cols
            vals = table.vals
        else:
            vals = table.ravel()
            keys = np.arange(len(vals))
        out[name] = shape, keys[vals != 0], vals[vals != 0]
    return out


INVARIANCE_TOL = 1e-12   # largest difference between a table entry and its image
LISTED_VIOLATIONS = 50   # most violations a report lists per table and element


def check_invariance(pomdp: Pomdp, binding: GroupActionBinding) -> InvarianceReport:
    """Exhaustively compare every table entry against its group image.

    The image of a table under g holds at each position p the entry at g p,
    so the two can differ only where the table or its image is nonzero:
    each table is compared on the union of its nonzero positions and their
    g^-1 images, in C order of the dense index, with at most
    ``LISTED_VIOLATIONS`` violations above ``INVARIANCE_TOL`` listed per
    table and element."""
    binding.validate(pomdp)
    violations: dict[str, list] = {"trans": [], "reward": [], "obs": [], "start": [], "obs0": []}
    max_dev = 0.0
    forward = {"state": binding.state_maps, "action": binding.action_maps,
               "obs": binding.obs_maps}
    inverse = {kind: np.argsort(maps, axis=1) for kind, maps in forward.items()}
    axes = {"trans": ("state", "action", "state"), "reward": ("state", "action"),
            "obs": ("action", "state", "obs"), "start": ("state",), "obs0": ("state", "obs")}
    entries = _table_entries(pomdp)

    def value(cond, at):   # the table's entries at flat indices ``at``
        table = getattr(pomdp, cond)
        if not isinstance(table, SparseRows):
            return table.ravel()[at]
        _, keys, vals = entries[cond]
        k = np.searchsorted(keys, at)   # len(keys) past the last key
        return np.where(np.append(keys, -1)[k] == at, np.append(vals, 0.0)[k], 0.0)

    def image(cond, at, maps, g):   # flat indices ``at`` moved by element g's maps
        shape = entries[cond][0]
        return np.ravel_multi_index(tuple(maps[kind][g][i] for kind, i in
                                          zip(axes[cond], np.unravel_index(at, shape))), shape)

    for g in binding.group.elements:
        if g == 0:
            continue
        for cond in violations:
            shape, keys, _ = entries[cond]
            at = np.union1d(keys, image(cond, keys, inverse, g))
            mapped, original = value(cond, image(cond, at, forward, g)), value(cond, at)
            diff = np.abs(mapped - original)
            max_dev = max(max_dev, float(diff.max(initial=0.0)))
            for k in np.flatnonzero(diff > INVARIANCE_TOL)[:LISTED_VIOLATIONS].tolist():
                key = tuple(int(i) for i in np.unravel_index(at[k], shape))
                violations[cond].append(((g, *key), float(mapped[k]), float(original[k])))

    passed = all(not v for v in violations.values())
    return InvarianceReport(passed, max_dev, violations)


# ---------------------------------------------------------------------------
# Beliefs.
# ---------------------------------------------------------------------------

def initial_belief(pomdp: Pomdp, o0: int) -> np.ndarray:
    raw = pomdp.start * pomdp.obs0[:, o0]
    total = raw.sum()
    if total <= 0.0:
        raise ImpossibleObservationError(f"first observation {o0} has probability 0")
    return raw / total


def belief_update(pomdp: Pomdp, belief: np.ndarray, a: int, o: int) -> np.ndarray:
    """Posterior over next states after taking ``a`` and observing ``o``."""
    raw = pomdp.push(belief, a) * pomdp.emission(a)[:, o]
    total = raw.sum()
    if total <= 0.0:
        raise ImpossibleObservationError(
            f"observation {o} after action {a} has probability 0")
    return raw / total


# ---------------------------------------------------------------------------
# Exact finite-horizon solving over the belief-class DAG.
# ---------------------------------------------------------------------------

OBS_TOL = 1e-15            # an observation at most this likely is not followed
NODE_BUDGET = 2_000_000    # most belief classes a solve builds by default
CLASS_DECIMALS = 12        # beliefs are keyed by support and values rounded to 1e-12
CLASS_SPREAD_TOL = 1e-13   # largest distance allowed between beliefs merged into a class
MISSING_WITNESSES = 20     # unreachable images a report lists, shallowest first


@dataclass
class QSolution:
    """Optimal action values on the per-depth belief classes of the reachable
    history tree, held as per-depth arrays; histories are only counted.

    ``entries[d]`` is ``(starts, states, probs)``: class c's belief is
    ``states[starts[c]:starts[c + 1]]`` (ascending) with ``probs`` alike.
    ``counts[d]`` holds each class's number of histories as Python ints.
    Below the horizon, ``edges[d]`` is ``(keys, p, child)``, one entry per
    child link in ascending key (class * A + a) * O + o, with the
    observation's probability and the child's class one depth deeper, and
    ``q[d]`` is the (n, A) array of the classes' Q rows. Every array is
    read-only. A class's first history is derived, not stored (see
    ``first_histories``).
    """

    horizon: int
    n_states: int
    n_actions: int
    n_obs: int
    roots: dict[tuple, int]            # each first observation's history to its class
    root_probs: dict[tuple, float]
    node_count: int                    # reachable histories, summed from class counts
    entries: list[tuple[np.ndarray, np.ndarray, np.ndarray]]   # per depth
    counts: list[np.ndarray]                                    # per depth
    edges: list[tuple[np.ndarray, np.ndarray, np.ndarray]]     # per depth below the horizon
    q: list[np.ndarray]                                         # per depth below the horizon

    @property
    def class_count(self) -> int:
        return sum(len(starts) - 1 for starts, _, _ in self.entries)

    @property
    def values(self) -> dict[tuple, float]:
        """V* of every root history."""
        top = self.q[0].max(axis=1).tolist() if self.q else [0.0] * len(self.counts[0])
        return {h: top[c] for h, c in self.roots.items()}

    def split(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The class, action and observation of each edge key."""
        return (keys // (self.n_actions * self.n_obs), keys // self.n_obs % self.n_actions,
                keys % self.n_obs)

    def child_of(self, depth: int, classes: np.ndarray, actions: np.ndarray,
                 obs: np.ndarray) -> np.ndarray:
        """The class one depth below that each (class, action, observation)
        of ``depth`` reaches, -1 where it has no edge."""
        keys = (classes * self.n_actions + actions) * self.n_obs + obs
        edge_keys, _, child = self.edges[depth]
        at = np.searchsorted(edge_keys, keys)   # len(edge_keys) past the last key
        return np.where(np.append(edge_keys, -1)[at] == keys, np.append(child, -1)[at], -1)

    def first_histories(self) -> list[list[tuple]]:
        """Each class's first history in expansion order (lexicographic order
        of histories), per depth; built on each call. A root class's is its
        least root history; below, the first edge in key order that reaches
        a class extends its parent's first history by the edge's action and
        observation."""
        level = {c: h for h, c in reversed(self.roots.items())}
        firsts = [[level[c] for c in range(len(level))]]
        for keys, _, child in self.edges:
            # classes are numbered as their first edge opens them
            _, first = np.unique(child, return_index=True)
            firsts.append([firsts[-1][c] + (a, o) for c, a, o in
                           zip(*(col.tolist() for col in self.split(keys[first])))])
        return firsts

    def belief(self, depth: int, c: int) -> np.ndarray:
        """Class c's belief at ``depth`` as a read-only vector over all states."""
        starts, states, probs = self.entries[depth]
        belief = np.zeros(self.n_states)
        belief[states[starts[c]:starts[c + 1]]] = probs[starts[c]:starts[c + 1]]
        belief.flags.writeable = False
        return belief

    @property
    def beliefs(self) -> dict[tuple, np.ndarray]:
        """Each class's belief as a dense vector, keyed by the class's first
        history; built on each call."""
        return {first: self.belief(depth, c)
                for depth, level in enumerate(self.first_histories())
                for c, first in enumerate(level)}


def _spans(starts: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every index of the ranges ``starts[i] : starts[i] + lengths[i]``, in
    order, and the range ``i`` that each belongs to."""
    owner = np.repeat(np.arange(len(starts)), lengths)
    ends = np.cumsum(lengths)
    return starts[owner] + np.arange(len(owner)) - (ends - lengths)[owner], owner


def _groups(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The stable order that sorts ``keys``, the group of equal keys that
    each sorted element falls in, and each group's key."""
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    opens = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=opens[1:])
    return order, np.cumsum(opens) - 1, keys[opens]


def _expand(pomdp: Pomdp, owner: np.ndarray, states: np.ndarray, probs: np.ndarray):
    """The children of the beliefs whose entries are ``(states, probs)``,
    entry i belonging to belief ``owner[i]``, ascending, formed from the
    rows of ``trans`` and ``obs``.

    Every (belief, a, s') mass, (belief, a, o) probability and posterior is
    formed at once. ``np.bincount`` adds in input order and the stable sort
    keeps each group's states ascending, so every sum runs in the order of
    the states, as a push of one belief at a time sums. Returns each child's
    key (belief * A + a) * O + o and probability, children in key order,
    and the children's posteriors as their nonzero ``states`` (ascending
    within a child) with their ``probs`` and each child's ``lengths``.
    """
    n_states, n_actions, n_obs = pomdp.n_states, pomdp.n_actions, pomdp.n_obs
    at, cols, vals = pomdp.trans
    idx, entry = _spans(at[states], at[states + 1] - at[states])
    order, group, pushed = _groups(owner[entry] * (n_actions * n_states) + cols[idx])
    mass = np.bincount(group, weights=(probs[entry] * vals[idx])[order])
    at, cols, vals = pomdp.obs
    row = pushed % (n_actions * n_states)
    idx, entry = _spans(at[row], at[row + 1] - at[row])
    order, group, kids = _groups(pushed[entry] // n_states * n_obs + cols[idx])
    joint = (mass[entry] * vals[idx])[order]
    obs_p = np.bincount(group, weights=joint)
    kept = obs_p > OBS_TOL
    on = kept[group]
    post = joint[on] / obs_p[group[on]]
    nz = post != 0
    child = (np.cumsum(kept) - 1)[group[on][nz]]
    states = (pushed[entry] % n_states)[order][on][nz]
    return (kids[kept], obs_p[kept], states, post[nz],
            np.bincount(child, minlength=int(kept.sum())))


def _rewards(pomdp: Pomdp, owner: np.ndarray, states: np.ndarray, probs: np.ndarray,
             n: int) -> np.ndarray:
    """Each of ``n`` beliefs' expected immediate reward per action, summed in
    order of the states."""
    n_actions = pomdp.n_actions
    slots = owner[:, None] * n_actions + np.arange(n_actions)
    return np.bincount(slots.ravel(), weights=(probs[:, None] * pomdp.reward[states]).ravel(),
                       minlength=n * n_actions).reshape(n, n_actions)


def _grown(array: np.ndarray, size: int) -> np.ndarray:
    """``array``, or a copy of it at least twice as long when ``size`` exceeds it."""
    if size <= len(array):
        return array
    grown = np.empty(max(size, 2 * len(array)), dtype=array.dtype)
    grown[:len(array)] = array
    return grown


class _Level:
    """The belief classes of one depth while they are interned: each class's
    key, and every class's belief, concatenated in class order in arrays
    that grow by doubling (class c is ``states[starts[c]:starts[c + 1]]``,
    ``probs`` alike). Once compacted, they are the depth's entries in the
    solution, and the next depth expands from them."""

    def __init__(self, depth: int):
        self.depth = depth
        self.keys: dict[bytes, int] = {}
        self.states = np.empty(0, dtype=np.int64)
        self.probs = np.empty(0)
        self.starts = np.zeros(1, dtype=np.int64)

    def intern(self, states: np.ndarray, probs: np.ndarray,
               lengths: np.ndarray) -> np.ndarray:
        """Class ids of the beliefs given as consecutive runs of ``lengths``
        entries, each keyed by its states and its probabilities rounded to
        1e-12; a new key opens a class, numbered next. Returns the ids. The
        beliefs that open classes are those whose id exceeds every id before
        them (and every old class's); their entries are appended. A slice
        may open none, or hold no beliefs at all. A belief that differs from
        its class's first by more than the spread bound raises."""
        bounds = np.concatenate(([0], np.cumsum(lengths)))
        record = np.empty((len(states), 2), dtype=np.int64)
        record[:, 0] = states
        record[:, 1] = np.round(probs, CLASS_DECIMALS).view(np.int64)
        blob, keys, n_old = record.tobytes(), self.keys, len(self.keys)
        ids = np.array([keys.setdefault(blob[16 * lo:16 * hi], len(keys))
                        for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist())],
                       dtype=np.int64)
        opened = np.flatnonzero(
            ids > np.maximum.accumulate(np.concatenate(([n_old - 1], ids)))[:-1])
        owner = np.repeat(np.arange(len(lengths)), lengths)
        fresh = np.zeros(len(lengths), dtype=bool)
        fresh[opened] = True
        fresh = fresh[owner]
        used = int(self.starts[n_old])
        end = used + int(lengths[opened].sum())
        self.states, self.probs = _grown(self.states, end), _grown(self.probs, end)
        self.states[used:end], self.probs[used:end] = states[fresh], probs[fresh]
        self.starts = _grown(self.starts, len(keys) + 1)
        self.starts[n_old + 1:len(keys) + 1] = used + np.cumsum(lengths[opened])
        # every entry against the same entry of its class's first belief
        first = self.starts[ids[owner]] + np.arange(len(states)) - bounds[owner]
        spread = float(np.abs(self.probs[first] - probs).max(initial=0.0))
        if spread > CLASS_SPREAD_TOL:
            raise PomdpError(f"belief class at depth {self.depth} spreads by {spread:.3e}, "
                             f"over {CLASS_SPREAD_TOL:.0e}")
        return ids

    def compact(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The level's ``(starts, states, probs)``, trimmed and read-only. The
        keys are dropped: no more beliefs can be interned."""
        n = len(self.keys)
        del self.keys
        self.starts = self.starts[:n + 1].copy()
        self.states = self.states[:self.starts[n]].copy()
        self.probs = self.probs[:self.starts[n]].copy()
        for array in (self.starts, self.states, self.probs):
            array.flags.writeable = False
        return self.starts, self.states, self.probs


PUSH_SLICE = 1 << 14   # most push entries (class, s, a, s') one slice of a depth forms


def exact_q(pomdp: Pomdp, horizon: int, node_budget: int = NODE_BUDGET) -> QSolution:
    """Optimal action values for every reachable history shorter than the horizon.

    Q*(h) depends on h only through its belief and the remaining horizon, so
    the history tree is folded into a DAG of belief classes: the histories of
    one depth whose beliefs share a support and agree to 1e-12. The solver
    works one depth at a time, in array passes over the nonzeros of the
    transition and emission tables. It expands a depth's classes in slices
    of at most ``PUSH_SLICE`` push entries, forming every child of a slice
    at once, and interns the children by key; ``node_budget`` counts classes
    and is checked after each slice, before the depth's arrays are compacted.
    No history is enumerated: a class's history count is the sum, over the
    edges that reach it, of its parents' counts. Values at the horizon are
    zero; each earlier depth is backed up in one pass, as the expected
    immediate reward plus the discounted, observation-weighted optimum of
    the children.
    """
    require_integer("horizon", horizon, PomdpError)
    require_integer("node_budget", node_budget, PomdpError)
    if horizon < 0:
        raise PomdpError(f"horizon must be at least 0, got {horizon}")
    if node_budget < 1:
        raise PomdpError(f"node_budget must be at least 1, got {node_budget}")
    n_actions, n_obs = pomdp.n_actions, pomdp.n_obs
    p0 = pomdp.start @ pomdp.obs0
    root_obs = np.flatnonzero(p0 > OBS_TOL).tolist()
    root_probs = {(o,): float(p0[o]) for o in root_obs}
    beliefs = [initial_belief(pomdp, o) for o in root_obs]
    supports = [np.flatnonzero(b) for b in beliefs]
    built = _Level(0)
    ids = built.intern(
        np.concatenate([*supports, np.empty(0, dtype=np.int64)]),
        np.concatenate([*(b[nz] for b, nz in zip(beliefs, supports)), np.empty(0)]),
        np.array([len(nz) for nz in supports], dtype=np.int64))
    roots = {(o,): c for o, c in zip(root_obs, ids.tolist())}
    entries = [built.compact()]
    # history counts as Python integers: they outgrow int64 at long horizons
    counts = [np.zeros(len(entries[0][0]) - 1, dtype=object)]
    np.add.at(counts[0], ids, 1)
    edges, qs = [], []   # per depth: each edge's key, p, child; each class's reward row
    solved = len(counts[0])   # classes of the depths already built

    for depth in range(horizon):
        starts, source_states, source_probs = entries[depth]
        n = len(starts) - 1
        built = _Level(depth + 1)
        # push entries before each class, where the depth is cut into slices
        pushes = np.concatenate(([0], np.cumsum(np.diff(pomdp.trans.at)[source_states])))
        pushes = pushes[starts]
        reward = np.empty((n, n_actions))
        found, c0 = [], 0
        while c0 < n:
            c1 = max(c0 + 1, int(np.searchsorted(pushes, pushes[c0] + PUSH_SLICE,
                                                 side="right")) - 1)
            lo, hi = starts[c0], starts[c1]
            owner = np.repeat(np.arange(c0, c1), np.diff(starts[c0:c1 + 1]))
            states, probs = source_states[lo:hi], source_probs[lo:hi]
            reward[c0:c1] = _rewards(pomdp, owner - c0, states, probs, c1 - c0)
            kids, p, states, probs, lengths = _expand(pomdp, owner, states, probs)
            ids = built.intern(states, probs, lengths)
            n_classes = solved + len(built.keys)
            if n_classes > node_budget:
                raise NodeBudgetError(
                    f"belief-class DAG exceeded the node budget ({node_budget} classes) "
                    f"at depth {depth + 1} with {n_classes} classes")
            found.append((kids, p, ids))
            c0 = c1
        kids, p, child = (np.concatenate(col) for col in zip(*found)) if found \
            else (np.empty(0, dtype=np.int64),) * 3
        entries.append(built.compact())
        counts.append(np.zeros(len(entries[-1][0]) - 1, dtype=object))
        np.add.at(counts[-1], child, counts[depth][kids // (n_actions * n_obs)])
        solved += len(counts[-1])
        for array in (kids, p, child, counts[depth]):
            array.flags.writeable = False
        edges.append((kids, p, child))
        qs.append(reward)
    counts[horizon].flags.writeable = False

    values = np.zeros(len(counts[horizon]))
    for depth in range(horizon - 1, -1, -1):
        q, (kids, p, child) = qs[depth], edges[depth]
        # the children's discounted, observation-weighted values, added in edge order
        q += pomdp.discount * np.bincount(kids // n_obs, weights=p * values[child],
                                          minlength=q.size).reshape(q.shape)
        q.flags.writeable = False
        values = q.max(axis=1)
    node_count = sum(sum(n.tolist()) for n in counts)
    return QSolution(horizon, pomdp.n_states, n_actions, n_obs, roots, root_probs,
                     node_count, entries, counts, edges, qs)


# ---------------------------------------------------------------------------
# Symmetry verification on beliefs and optimal values.
# ---------------------------------------------------------------------------

@dataclass
class SymmetryCheckReport:
    name: str
    passed: bool
    max_dev: float
    tolerance: float
    checked: int
    missing: int = 0       # (history, g) whose image history is unreachable
    missing_witnesses: list = field(default_factory=list)
    witness: tuple | None = None
    policy_consistent: bool | None = None
    policy_witness: tuple | None = None
    histories: int = 0
    belief_classes: int = 0
    solve_s: float = 0.0
    check_s: float = 0.0

    def summary(self) -> str:
        return (f"solved {self.histories} histories in {self.belief_classes} belief "
                f"classes: solve {self.solve_s:.2f}s, check {self.check_s:.2f}s")

    def lines(self) -> list[str]:
        out = [f"RESULT {self.name} passed={self.passed} max_dev={self.max_dev:.3e} "
               f"tolerance={self.tolerance:.1e} checked={self.checked}", self.summary()]
        if self.witness is not None:
            g, h, detail = self.witness
            out.append(f"worst case: element g={g} history [{format_history(h)}] {detail}")
        if self.missing:
            out.append(f"{self.missing} transformed histories unreachable, shallowest first:")
        for g, h in self.missing_witnesses:
            out.append(f"missing transformed history for g={g}: [{format_history(h)}]")
        if self.policy_consistent is not None:
            out.append(f"greedy policy equivariant: {self.policy_consistent}")
            if self.policy_witness is not None:
                g, h, orig, got = self.policy_witness
                out.append(
                    f"policy mismatch at g={g} history [{format_history(h)}]: "
                    f"mapped argmax {orig} vs argmax {got}")
        return out


class _Pairs(NamedTuple):
    """Pairs (class, image class, g) of one depth, a row each: the class, the
    image class (-1 when the image is unreachable), the element g, the
    number of histories the pair holds (Python ints) and the rank of its
    first history among the depth's, and that history's last step: the row
    one depth up whose first history it extends (-1 at the roots), the
    action (-1 at the roots) and the observation."""

    cls: np.ndarray
    image: np.ndarray
    g: np.ndarray
    count: np.ndarray
    rank: np.ndarray
    parent: np.ndarray
    action: np.ndarray
    obs: np.ndarray

    def take(self, rows) -> _Pairs:
        return _Pairs(*(column[rows] for column in self))


def _merged(found: _Pairs, n_classes: int, n_elements: int) -> _Pairs:
    """The pairs that ``found`` reaches, one row per (class, image class, g),
    counts summed, in order of first history and then g, ranks dense.

    ``found`` holds one row per history step that reaches a pair, its
    ``rank`` an order key of the history; for each g, the rows come in order
    of that key, so a pair's first row holds its first history."""
    pair = (found.cls * (n_classes + 1) + found.image + 1) * n_elements + found.g
    _, first, inverse = np.unique(pair, return_index=True, return_inverse=True)
    count = np.zeros(len(first), dtype=object)
    np.add.at(count, inverse, found.count)
    pairs = found.take(first)._replace(count=count)
    pairs = pairs.take(np.lexsort((pairs.g, pairs.rank)))
    opens = np.ones(len(first), dtype=bool)
    np.not_equal(pairs.rank[1:], pairs.rank[:-1], out=opens[1:])
    return pairs._replace(rank=np.cumsum(opens) - 1)


def _history(levels: list[_Pairs], pairs: _Pairs, row: int) -> tuple:
    """The first history of ``pairs[row]``, the pairs one depth below
    ``levels``, rebuilt from the back-pointers."""
    steps = []
    for above in reversed(levels):
        steps += [int(pairs.obs[row]), int(pairs.action[row])]
        row, pairs = int(pairs.parent[row]), above
    return (int(pairs.obs[row]), *reversed(steps))


def _image_pairs(sol: QSolution, binding: GroupActionBinding, max_depth: int):
    """Pair the classes of histories and of their images, one depth at a time
    from the roots through ``max_depth``, for every non-identity element g.

    A pair (class, image class, g) holds the n histories h of the class whose
    image gh lies in the image class, or is unreachable (image class -1). As
    g·(h, a, o) = (gh, g·a, g·o), a pair's children are its class's edges,
    each with the image class's edge under (g·a, g·o), found by its key in
    the depth's sorted edge keys. A depth's children are formed at once and
    merged by (child, image child, g), their history counts summed exactly;
    a merged pair's first history is the least (parent's first history, a,
    o) that reaches it.

    Returns ``(levels, checked, missing, witnesses)``. ``levels[d]`` holds
    the ``_Pairs`` of depth d with reachable images, in order of first
    history and then g: the order in which a sweep over every (history, g)
    first meets each pair. ``checked`` counts (history, g) comparisons and
    ``missing`` those without an image; ``witnesses`` lists the first
    ``MISSING_WITNESSES`` pairs without an image as (g, h), shallowest first.
    """
    elements = np.array([g for g in binding.group.elements if g != 0], dtype=np.int64)
    am, om = binding.action_maps, binding.obs_maps
    n_actions, n_obs = sol.n_actions, sol.n_obs
    checked = len(elements) * sum(sum(n.tolist()) for n in sol.counts[:max_depth + 1])
    # each root under each g, roots in order of their observation
    obs = np.repeat(np.array([h[0] for h in sol.roots], dtype=np.int64), len(elements))
    cls = np.repeat(np.array(list(sol.roots.values()), dtype=np.int64), len(elements))
    g = np.tile(elements, len(sol.roots))
    root_of = np.full(n_obs, -1, dtype=np.int64)
    root_of[obs] = cls
    none = np.full(len(obs), -1, dtype=np.int64)
    found = _Pairs(cls, root_of[om[g, obs]], g, np.ones(len(obs), dtype=object), obs,
                   none, none, obs)
    levels, matched, witnesses = [], 0, []
    for depth in range(max_depth + 1):
        pairs = _merged(found, len(sol.counts[depth]), binding.group.order)
        reachable = pairs.image >= 0
        for row in np.flatnonzero(~reachable)[:MISSING_WITNESSES - len(witnesses)].tolist():
            witnesses.append((int(pairs.g[row]), _history(levels, pairs, row)))
        pairs = pairs.take(reachable)
        matched += sum(pairs.count.tolist())
        levels.append(pairs)
        if depth == max_depth:
            break
        keys, _, child = sol.edges[depth]
        ends = np.searchsorted(keys, np.arange(len(sol.counts[depth]) + 1)
                               * (n_actions * n_obs))
        edge, row = _spans(ends[pairs.cls], ends[pairs.cls + 1] - ends[pairs.cls])
        (_, a, o), g = sol.split(keys[edge]), pairs.g[row]
        image = sol.child_of(depth, pairs.image[row], am[g, a], om[g, o])
        found = _Pairs(child[edge], image, g, pairs.count[row],
                       (pairs.rank[row] * n_actions + a) * n_obs + o, row, a, o)
    return levels, checked, checked - matched, witnesses


def _first_max(devs: list[np.ndarray]) -> tuple[float, tuple[int, int] | None]:
    """The largest entry of the arrays and (array, row) of its first
    occurrence in order; 0.0 and None when no entry is positive."""
    best, at = 0.0, None
    for k, dev in enumerate(devs):
        if len(dev) and dev.max() > best:
            row = int(np.argmax(dev))
            best, at = float(dev[row]), (k, row)
    return best, at


BELIEF_TOL = 1e-12   # pinned tolerance of Lemma 1's belief invariance
VALUE_TOL = 1e-9     # pinned tolerance of Theorem 1's value invariance and greedy sets


def verify_belief_invariance(pomdp: Pomdp, binding: GroupActionBinding,
                             depth: int) -> SymmetryCheckReport:
    """Check Pr(gs | gh) = Pr(s | h) for every reachable history up to ``depth``.

    Each depth's pairs are compared at once: the class's probabilities and,
    negated, the image's, each image state s' = g s taken to s = g^-1 s',
    are summed per (pair, state) with the class's first, and a pair's
    deviation is the largest magnitude. The witness is the first largest
    deviation, shallowest first."""
    require_integer("depth", depth, PomdpError)
    if depth < 0:
        raise PomdpError(f"depth must be at least 0, got {depth}")
    binding.validate(pomdp)
    t0 = time.perf_counter()
    sol = exact_q(pomdp, depth)
    t1 = time.perf_counter()
    unmap = np.argsort(binding.state_maps, axis=1)
    n_states = pomdp.n_states
    levels, checked, missing, witnesses = _image_pairs(sol, binding, depth)
    devs = []
    for (starts, states, probs), pairs in zip(sol.entries, levels):
        own, own_row = _spans(starts[pairs.cls], np.diff(starts)[pairs.cls])
        image, image_row = _spans(starts[pairs.image], np.diff(starts)[pairs.image])
        order, cell, cells = _groups(np.concatenate((
            own_row * n_states + states[own],
            image_row * n_states + unmap[pairs.g[image_row], states[image]])))
        # a cell holds at most one entry of each side, so it sums to p - p' exactly
        diff = np.bincount(cell, weights=np.concatenate((probs[own], -probs[image]))[order])
        dev = np.zeros(len(pairs.cls))
        np.maximum.at(dev, cells // n_states, np.abs(diff))
        devs.append(dev)
    max_dev, at = _first_max(devs)
    witness = None
    if at is not None:
        d, row = at
        witness = (int(levels[d].g[row]), _history(levels[:d], levels[d], row),
                   f"belief deviation {max_dev:.3e}")
    passed = max_dev < BELIEF_TOL and not missing
    return SymmetryCheckReport("belief-invariance", passed, max_dev, BELIEF_TOL,
                               checked, missing, witnesses, witness,
                               histories=sol.node_count, belief_classes=sol.class_count,
                               solve_s=t1 - t0, check_s=time.perf_counter() - t1)


def verify_value_invariance(pomdp: Pomdp, binding: GroupActionBinding,
                            horizon: int) -> SymmetryCheckReport:
    """Check optimal values satisfy Q(gh, ga) = Q(h, a) and V(gh) = V(h) over the
    whole reachable tree, and that greedy argmax sets correspond under the group.

    Each depth's pairs are compared at once, on the depth's Q array: a
    pair's deviation is the larger of its largest Q deviation and its V
    deviation, and its greedy sets (actions within ``VALUE_TOL`` of the
    row's maximum, as masks) correspond when the class's, mapped by g,
    equals the image's. Depths are checked deepest first; the witness is the
    first largest deviation and the policy witness the first mismatch."""
    require_integer("horizon", horizon, PomdpError)
    if horizon < 1:
        raise PomdpError(f"horizon must be at least 1, got {horizon}")
    binding.validate(pomdp)
    t0 = time.perf_counter()
    sol = exact_q(pomdp, horizon)
    t1 = time.perf_counter()
    am = binding.action_maps
    levels, checked, missing, witnesses = _image_pairs(sol, binding, horizon - 1)
    devs, splits, policy_witness = [], [], None
    for depth in range(horizon - 1, -1, -1):
        pairs, q = levels[depth], sol.q[depth]
        value = q.max(axis=1)
        actions = am[pairs.g]
        qdev = np.abs(np.take_along_axis(q[pairs.image], actions, axis=1)
                      - q[pairs.cls]).max(axis=1)
        vdev = np.abs(value[pairs.image] - value[pairs.cls])
        devs.append(np.maximum(qdev, vdev))
        splits.append((qdev, vdev))
        greedy = q >= (value - VALUE_TOL)[:, None]
        mismatch = (greedy[pairs.cls]
                    != np.take_along_axis(greedy[pairs.image], actions, axis=1)).any(axis=1)
        if policy_witness is None and mismatch.any():
            row = int(np.argmax(mismatch))
            g = int(pairs.g[row])
            policy_witness = (g, _history(levels[:depth], pairs, row),
                              sorted(am[g][greedy[pairs.cls[row]]].tolist()),
                              np.flatnonzero(greedy[pairs.image[row]]).tolist())
    max_dev, at = _first_max(devs)
    witness = None
    if at is not None:
        k, row = at
        depth = horizon - 1 - k
        qdev, vdev = (float(split[row]) for split in splits[k])
        witness = (int(levels[depth].g[row]), _history(levels[:depth], levels[depth], row),
                   f"Q deviation {qdev:.3e}, V deviation {vdev:.3e}")
    policy_ok = policy_witness is None
    passed = max_dev < VALUE_TOL and policy_ok and not missing
    return SymmetryCheckReport("value-invariance", passed, max_dev, VALUE_TOL, checked,
                               missing, witnesses, witness, policy_ok, policy_witness,
                               histories=sol.node_count, belief_classes=sol.class_count,
                               solve_s=t1 - t0, check_s=time.perf_counter() - t1)


# ---------------------------------------------------------------------------
# Plain-text table files.
# ---------------------------------------------------------------------------

TABLE_MAGIC = "pomdp-tables 1"


def save_tables(path, pomdp: Pomdp) -> None:
    """One line per nonzero table entry, in C order of each table's dense
    index (``trans`` indexed (s, a, s'), ``obs`` (a, s', o); ``-0.0`` is
    skipped), preceded by sizes and discount."""
    lines = [TABLE_MAGIC, f"sizes {pomdp.n_states} {pomdp.n_actions} {pomdp.n_obs}",
             "discount %.17g" % pomdp.discount]
    entries = _table_entries(pomdp)
    for tag, name in (("b0", "start"), ("O0", "obs0"), ("T", "trans"), ("R", "reward"),
                      ("O", "obs")):
        shape, keys, vals = entries[name]
        lines.extend(" ".join([tag, *map(str, idx), "%.17g" % v]) for *idx, v in
                     zip(*(i.tolist() for i in np.unravel_index(keys, shape)), vals.tolist()))
    write_atomic(path, "\n".join(lines) + "\n")
