"""Explicit finite POMDPs, symmetry bindings, and exact verification oracles.

Histories are flat tuples ``(o0, a0, o1, ..., ot)`` of integer ids. A
finite-horizon solve folds the reachable history tree into a DAG of belief
classes, built and backed up one depth at a time by array passes over the
nonzeros of the transition and emission tables, and yields optimal action
values against which the symmetry claims (belief invariance, value
invariance, policy equivariance) are checked exhaustively, for every
history, by walking classes and their images in lockstep and counting the
histories each pair stands for.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .autodiff import write_atomic
from .groups import Group


class PomdpError(ValueError):
    pass


class ImpossibleObservationError(PomdpError):
    pass


class NodeBudgetError(PomdpError):
    pass


@dataclass
class Pomdp:
    """Finite POMDP tables.

    ``trans[s, a, s']`` and ``obs[a, s', o]`` are row-stochastic; ``obs0`` is
    the emission table for the very first observation, before any action.
    """

    start: np.ndarray      # (S,)
    trans: np.ndarray      # (S, A, S)
    reward: np.ndarray     # (S, A)
    obs: np.ndarray        # (A, S, O)
    obs0: np.ndarray       # (S, O)
    discount: float = 0.99

    @property
    def n_states(self) -> int:
        return self.trans.shape[0]

    @property
    def n_actions(self) -> int:
        return self.trans.shape[1]

    @property
    def n_obs(self) -> int:
        return self.obs.shape[2]

    def validate(self, atol: float = 1e-12) -> None:
        s, a, o = self.n_states, self.n_actions, self.n_obs
        if self.trans.shape != (s, a, s) or self.reward.shape != (s, a):
            raise PomdpError("transition/reward table shapes disagree")
        if self.obs.shape != (a, s, o) or self.obs0.shape != (s, o):
            raise PomdpError("observation table shapes disagree")
        if self.start.shape != (s,):
            raise PomdpError("start distribution shape disagrees")
        if not 0.0 <= self.discount < 1.0:
            raise PomdpError(f"discount must be in [0, 1), got {self.discount}")
        for name, table in (("start", self.start[None]),
                            ("trans", self.trans.reshape(-1, s)),
                            ("obs", self.obs.reshape(-1, o)),
                            ("obs0", self.obs0)):
            if np.any(table < -atol):
                raise PomdpError(f"{name} has negative entries")
            if np.max(np.abs(table.sum(axis=-1) - 1.0)) > atol:
                raise PomdpError(f"{name} rows do not sum to 1")


@dataclass
class GroupActionBinding:
    """Per-element permutations of states, actions, and observations."""

    group: Group
    state_maps: np.ndarray   # (|G|, S) int
    action_maps: np.ndarray  # (|G|, A) int
    obs_maps: np.ndarray     # (|G|, O) int

    def validate(self) -> None:
        for name, maps in (("state", self.state_maps), ("action", self.action_maps),
                           ("obs", self.obs_maps)):
            if maps.shape[0] != self.group.order:
                raise PomdpError(f"{name} maps must have one row per group element")
            n = maps.shape[1]
            if not np.array_equal(maps[0], np.arange(n)):
                raise PomdpError(f"{name} map for the identity is not the identity")
            for g in self.group.elements:
                if not np.array_equal(np.sort(maps[g]), np.arange(n)):
                    raise PomdpError(f"{name} map for element {g} is not a bijection")
                for h in self.group.elements:
                    gh = self.group.compose(g, h)
                    if not np.array_equal(maps[gh], maps[g][maps[h]]):
                        raise PomdpError(
                            f"{name} maps break composition at ({g}, {h})")


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


def check_invariance(pomdp: Pomdp, binding: GroupActionBinding, atol: float = 1e-12,
                     max_listed: int = 50) -> InvarianceReport:
    """Exhaustively compare every table entry against its group image."""
    binding.validate()
    violations: dict[str, list] = {"trans": [], "reward": [], "obs": [], "start": [], "obs0": []}
    max_dev = 0.0

    def scan(cond, mapped, original, g):
        nonlocal max_dev
        diff = np.abs(mapped - original)
        max_dev = max(max_dev, float(diff.max()))
        if float(diff.max()) > atol:
            for key in np.argwhere(diff > atol)[:max_listed]:
                idx = tuple(int(i) for i in key)
                violations[cond].append(((g, *idx), float(mapped[idx]), float(original[idx])))

    for g in binding.group.elements:
        if g == 0:
            continue
        sm, am, om = binding.state_maps[g], binding.action_maps[g], binding.obs_maps[g]
        scan("trans", pomdp.trans[np.ix_(sm, am, sm)], pomdp.trans, g)
        scan("reward", pomdp.reward[np.ix_(sm, am)], pomdp.reward, g)
        scan("obs", pomdp.obs[np.ix_(am, sm, om)], pomdp.obs, g)
        scan("start", pomdp.start[sm], pomdp.start, g)
        scan("obs0", pomdp.obs0[np.ix_(sm, om)], pomdp.obs0, g)

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
    pushed = belief @ pomdp.trans[:, a, :]
    raw = pushed * pomdp.obs[a, :, o]
    total = raw.sum()
    if total <= 0.0:
        raise ImpossibleObservationError(
            f"observation {o} after action {a} has probability 0")
    return raw / total


# ---------------------------------------------------------------------------
# Exact finite-horizon solving over the belief-class DAG.
# ---------------------------------------------------------------------------

CLASS_DECIMALS = 12        # beliefs are keyed by support and values rounded to 1e-12
CLASS_SPREAD_TOL = 1e-13   # largest distance allowed between beliefs merged into a class
MISSING_WITNESSES = 20     # unreachable images a report lists, shallowest first


@dataclass
class BeliefClass:
    """The histories of one depth that share a belief: the solver's unit of work.

    The belief is stored sparse: ``support`` lists the states of nonzero
    probability in ascending order and ``probs`` their probabilities.
    ``children`` maps an action and an observation id ``(a, o)`` to
    ``(p, child)``: the observation's probability and the index of the
    extension's class one depth deeper, in expansion order. ``count`` is the
    number of reachable histories in the class and ``first`` the first of
    them in expansion order, which is lexicographic order of histories.
    ``support``, ``probs`` and ``q`` are read-only views of arrays that the
    classes of one depth share.
    """

    support: np.ndarray   # (k,) int64, ascending
    probs: np.ndarray     # (k,)
    first: tuple
    count: int = 0
    children: dict[tuple[int, int], tuple[float, int]] = field(default_factory=dict)
    q: np.ndarray | None = None    # None at the horizon
    value: float = 0.0

    def dense(self, n_states: int) -> np.ndarray:
        """The belief as a read-only vector over all ``n_states`` states."""
        belief = np.zeros(n_states)
        belief[self.support] = self.probs
        belief.flags.writeable = False
        return belief


def greedy_actions(row: np.ndarray, tol: float = 1e-9) -> tuple[int, ...]:
    return tuple(int(a) for a in np.flatnonzero(row >= row.max() - tol))


@dataclass
class QSolution:
    """Optimal action values on the per-depth belief classes of the reachable
    history tree, linked by their children; histories are only counted."""

    horizon: int
    n_states: int
    classes: list[list[BeliefClass]]   # per depth
    roots: dict[tuple, int]            # each first observation's history to its class
    root_probs: dict[tuple, float]
    node_count: int                    # reachable histories, summed from class counts

    @property
    def class_count(self) -> int:
        return sum(len(level) for level in self.classes)

    @property
    def values(self) -> dict[tuple, float]:
        """V* of every root history."""
        return {h: self.classes[0][c].value for h, c in self.roots.items()}

    @property
    def beliefs(self) -> dict[tuple, np.ndarray]:
        """Each class's belief as a dense vector, keyed by the class's first
        history; built on each call."""
        return {cls.first: cls.dense(self.n_states) for level in self.classes
                for cls in level}


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


class _Tables:
    """The nonzeros of a POMDP's transition and emission tables, by row.

    Row s of ``trans`` runs over the columns a * S + s' (a push entry), and
    row a * S + s' of ``obs`` over observations; row r's columns and values
    are ``cols[at[r]:at[r + 1]]`` and ``vals[at[r]:at[r + 1]]``, ascending.
    """

    def __init__(self, pomdp: Pomdp):
        self.shape = pomdp.n_states, pomdp.n_actions, pomdp.n_obs
        self.reward = pomdp.reward
        n_pushed = pomdp.n_actions * pomdp.n_states
        self.trans = self._rows(pomdp.trans.reshape(pomdp.n_states, n_pushed))
        self.obs = self._rows(pomdp.obs.reshape(n_pushed, pomdp.n_obs))

    @staticmethod
    def _rows(table: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        rows, cols = np.nonzero(table)
        return np.searchsorted(rows, np.arange(len(table) + 1)), cols, table[rows, cols]

    def expand(self, owner: np.ndarray, states: np.ndarray, probs: np.ndarray,
               obs_tol: float):
        """The children of the beliefs whose entries are ``(states, probs)``,
        entry i belonging to belief ``owner[i]``, ascending.

        Every (belief, a, s') mass, (belief, a, o) probability and posterior
        is formed at once. ``np.bincount`` adds in input order and the stable
        sort keeps each group's states ascending, so every sum runs in the
        order of the states, as a push of one belief at a time sums. Returns
        each child's key (belief * A + a) * O + o and probability, children
        in key order, and the children's posteriors as their nonzero
        ``states`` (ascending within a child) with their ``probs`` and each
        child's ``lengths``.
        """
        n_states, n_actions, n_obs = self.shape
        at, cols, vals = self.trans
        idx, entry = _spans(at[states], at[states + 1] - at[states])
        order, group, pushed = _groups(owner[entry] * (n_actions * n_states) + cols[idx])
        mass = np.bincount(group, weights=(probs[entry] * vals[idx])[order])
        at, cols, vals = self.obs
        row = pushed % (n_actions * n_states)
        idx, entry = _spans(at[row], at[row + 1] - at[row])
        order, group, kids = _groups(pushed[entry] // n_states * n_obs + cols[idx])
        joint = (mass[entry] * vals[idx])[order]
        obs_p = np.bincount(group, weights=joint)
        kept = obs_p > obs_tol
        on = kept[group]
        post = joint[on] / obs_p[group[on]]
        nz = post != 0
        child = (np.cumsum(kept) - 1)[group[on][nz]]
        states = (pushed[entry] % n_states)[order][on][nz]
        return (kids[kept], obs_p[kept], states, post[nz],
                np.bincount(child, minlength=int(kept.sum())))

    def split(self, kids: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The belief, action and observation of each child key."""
        n_actions, n_obs = self.shape[1:]
        return kids // (n_actions * n_obs), kids // n_obs % n_actions, kids % n_obs

    def rewards(self, owner: np.ndarray, states: np.ndarray, probs: np.ndarray,
                n: int) -> np.ndarray:
        """Each of ``n`` beliefs' expected immediate reward per action, summed
        in order of the states."""
        n_actions = self.shape[1]
        slots = owner[:, None] * n_actions + np.arange(n_actions)
        return np.bincount(slots.ravel(), weights=(probs[:, None] * self.reward[states]).ravel(),
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
    ``probs`` alike). Once compacted, the depth's classes view these arrays,
    and the next depth expands from them."""

    def __init__(self, depth: int):
        self.depth = depth
        self.keys: dict[bytes, int] = {}
        self.states = np.empty(0, dtype=np.int64)
        self.probs = np.empty(0)
        self.starts = np.zeros(1, dtype=np.int64)

    def intern(self, states: np.ndarray, probs: np.ndarray,
               lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Class ids of the beliefs given as consecutive runs of ``lengths``
        entries, each keyed by its states and its probabilities rounded to
        1e-12; a new key opens a class. Returns the ids and the indices of
        the beliefs that opened a class. A belief that differs from its
        class's first by more than the spread bound raises."""
        bounds = np.concatenate(([0], np.cumsum(lengths)))
        record = np.empty((len(states), 2), dtype=np.int64)
        record[:, 0] = states
        record[:, 1] = np.round(probs, CLASS_DECIMALS).view(np.int64)
        blob, keys, n_old = record.tobytes(), self.keys, len(self.keys)
        ids = np.array([keys.setdefault(blob[16 * lo:16 * hi], len(keys))
                        for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist())],
                       dtype=np.int64)
        known, first_seen = np.unique(ids, return_index=True)
        opened = first_seen[known >= n_old]
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
        return ids, opened

    def classes(self, firsts: list[tuple]) -> list[BeliefClass]:
        """The classes, read-only views of the beliefs, given their first
        histories. The keys are dropped: no more beliefs can be interned."""
        n = len(self.keys)
        del self.keys
        self.starts = self.starts[:n + 1]
        self.states = self.states[:self.starts[n]].copy()
        self.probs = self.probs[:self.starts[n]].copy()
        self.states.flags.writeable = self.probs.flags.writeable = False
        bounds = self.starts.tolist()
        return [BeliefClass(self.states[lo:hi], self.probs[lo:hi], first)
                for first, lo, hi in zip(firsts, bounds[:-1], bounds[1:])]


PUSH_SLICE = 1 << 14   # most push entries (class, s, a, s') one slice of a depth forms


def exact_q(pomdp: Pomdp, horizon: int, node_budget: int = 2_000_000,
            obs_tol: float = 1e-15) -> QSolution:
    """Optimal action values for every reachable history shorter than the horizon.

    Q*(h) depends on h only through its belief and the remaining horizon, so
    the history tree is folded into a DAG of belief classes: the histories of
    one depth whose beliefs share a support and agree to 1e-12. The solver
    works one depth at a time, in array passes over the nonzeros of the
    transition and emission tables. It expands a depth's classes in slices
    of at most ``PUSH_SLICE`` push entries, forming every child of a slice
    at once, and interns the children by key; ``node_budget`` counts classes
    and is checked after each slice, before the depth's classes are built.
    No history is enumerated: a class's history count is the sum, over the
    edges that reach it, of its parents' counts. Values at the horizon are
    zero; each earlier depth is backed up in one pass, as the expected
    immediate reward plus the discounted, observation-weighted optimum of
    the children.
    """
    if horizon < 0:
        raise PomdpError(f"horizon must be at least 0, got {horizon}")
    if node_budget < 1:
        raise PomdpError(f"node_budget must be at least 1, got {node_budget}")
    tables = _Tables(pomdp)
    n_actions, n_obs = pomdp.n_actions, pomdp.n_obs
    p0 = pomdp.start @ pomdp.obs0
    root_obs = np.flatnonzero(p0 > obs_tol).tolist()
    root_probs = {(o,): float(p0[o]) for o in root_obs}
    beliefs = [initial_belief(pomdp, o) for o in root_obs]
    supports = [np.flatnonzero(b) for b in beliefs]
    built = _Level(0)
    ids, opened = built.intern(
        np.concatenate([*supports, np.empty(0, dtype=np.int64)]),
        np.concatenate([*(b[nz] for b, nz in zip(beliefs, supports)), np.empty(0)]),
        np.array([len(nz) for nz in supports], dtype=np.int64))
    roots = {(o,): c for o, c in zip(root_obs, ids.tolist())}
    classes = [built.classes([(root_obs[k],) for k in opened.tolist()])]
    # history counts as Python integers: they outgrow int64 at long horizons
    counts = [np.zeros(len(classes[0]), dtype=object)]
    np.add.at(counts[0], ids, 1)
    backups = []   # per depth: each class's reward row, and each edge's slot, p, child

    for depth in range(horizon):
        parents, source = classes[depth], built
        built = _Level(depth + 1)
        starts = source.starts
        # push entries before each class, where the depth is cut into slices
        pushes = np.concatenate(([0], np.cumsum(np.diff(tables.trans[0])[source.states])))
        pushes = pushes[starts]
        reward = np.empty((len(parents), n_actions))
        found, c0 = [], 0
        while c0 < len(parents):
            c1 = max(c0 + 1, int(np.searchsorted(pushes, pushes[c0] + PUSH_SLICE,
                                                 side="right")) - 1)
            lo, hi = starts[c0], starts[c1]
            owner = np.repeat(np.arange(c0, c1), np.diff(starts[c0:c1 + 1]))
            states, probs = source.states[lo:hi], source.probs[lo:hi]
            reward[c0:c1] = tables.rewards(owner - c0, states, probs, c1 - c0)
            kids, p, states, probs, lengths = tables.expand(owner, states, probs, obs_tol)
            ids, opened = built.intern(states, probs, lengths)
            n_classes = sum(map(len, classes)) + len(built.keys)
            if n_classes > node_budget:
                raise NodeBudgetError(
                    f"belief-class DAG exceeded the node budget ({node_budget} classes) "
                    f"at depth {depth + 1} with {n_classes} classes")
            found.append((kids, p, ids, kids[opened]))
            c0 = c1
        kids, p, child, openers = (np.concatenate(col) for col in zip(*found)) if found \
            else (np.empty(0, dtype=np.int64),) * 4
        firsts = [parents[c].first + (a, o)
                  for c, a, o in zip(*(col.tolist() for col in tables.split(openers)))]
        classes.append(built.classes(firsts))
        parent, action, o = tables.split(kids)
        ends = np.searchsorted(parent, np.arange(len(parents) + 1)).tolist()
        links = list(zip(action.tolist(), o.tolist()))
        ints = np.array(range(len(classes[-1])), dtype=object)   # shared by a class's edges
        targets = list(zip(p.tolist(), ints[child].tolist()))
        for cls, lo, hi in zip(parents, ends[:-1], ends[1:]):
            cls.children = dict(zip(links[lo:hi], targets[lo:hi]))
        counts.append(np.zeros(len(classes[-1]), dtype=object))
        np.add.at(counts[-1], child, counts[depth][parent])
        backups.append((reward, kids // n_obs, p, child))

    for level, n in zip(classes, counts):
        for cls, count in zip(level, n.tolist()):
            cls.count = count
    values = np.zeros(len(classes[horizon]))
    for depth in range(horizon - 1, -1, -1):
        q, slot, p, child = backups.pop()
        # the children's discounted, observation-weighted values, added in edge order
        q += pomdp.discount * np.bincount(slot, weights=p * values[child],
                                          minlength=q.size).reshape(q.shape)
        q.flags.writeable = False
        values = q.max(axis=1)
        for cls, row, value in zip(classes[depth], q, values.tolist()):
            cls.q, cls.value = row, value
    node_count = sum(sum(n.tolist()) for n in counts)
    return QSolution(horizon, pomdp.n_states, classes, roots, root_probs, node_count)


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


def _image_pairs(sol: QSolution, binding: GroupActionBinding, max_depth: int):
    """Pair the classes of histories and of their images, in lockstep from the
    roots through ``max_depth``, for every non-identity element g.

    A pair (class, image class, g) holds the n histories h of the class whose
    image gh lies in the image class, or is unreachable (image class None).
    As g·(h, a, o) = (gh, g·a, g·o), a pair's children are its class's
    children, each with the image class's child under (g·a, g·o).

    Returns ``(levels, checked, missing, witnesses)``. ``levels[d]`` lists
    ``(g, h, cls, image)`` for the pairs of depth d with reachable images,
    h being a pair's first history, in order of h and then g: the order in
    which a sweep over every (history, g) first meets each pair. ``checked``
    counts (history, g) comparisons and ``missing`` those without an image;
    ``witnesses`` lists the first ``MISSING_WITNESSES`` pairs without an image
    as (g, h), shallowest first.
    """
    gs = [g for g in binding.group.elements if g != 0]
    om = [m.tolist() for m in binding.obs_maps]
    am = [m.tolist() for m in binding.action_maps]
    classes = sol.classes[:max_depth + 1]
    checked = len(gs) * sum(cls.count for level in classes for cls in level)
    # (class, image class, g) -> [histories, first history]. Expansion order
    # is lexicographic, and parents are extended in order of their first
    # history, so the first history to reach a pair is its first.
    reached: dict[tuple, list] = {}
    for h, c in sol.roots.items():
        for g in gs:
            reached.setdefault((c, sol.roots.get((om[g][h[0]],)), g), [0, h])[0] += 1
    levels, matched, witnesses = [], 0, []
    for depth, level in enumerate(classes):
        pairs, below = [], {}
        for (c, image, g), (n, h) in sorted(reached.items(),
                                            key=lambda item: (item[1][1], item[0][2])):
            if image is None:
                if len(witnesses) < MISSING_WITNESSES:
                    witnesses.append((g, h))
                continue
            pairs.append((g, h, level[c], level[image]))
            matched += n
            if depth < max_depth:
                kids = level[image].children
                for (a, o), (_, child) in level[c].children.items():
                    image_child = kids.get((am[g][a], om[g][o]), (0.0, None))[1]
                    below.setdefault((child, image_child, g), [0, h + (a, o)])[0] += n
        levels.append(pairs)
        reached = below
    return levels, checked, checked - matched, witnesses


def verify_belief_invariance(pomdp: Pomdp, binding: GroupActionBinding, depth: int,
                             tolerance: float = 1e-12,
                             node_budget: int = 2_000_000) -> SymmetryCheckReport:
    """Check Pr(gs | gh) = Pr(s | h) for every reachable history up to ``depth``."""
    if depth < 0:
        raise PomdpError(f"depth must be at least 0, got {depth}")
    binding.validate()
    t0 = time.perf_counter()
    sol = exact_q(pomdp, depth, node_budget=node_budget)
    t1 = time.perf_counter()
    # state g^-1 s' for each image state s' = g s, so that the image belief
    # compares in the class's states; the entries missing from one support
    # are zeros, added to and cleared from a scratch vector per pair
    unmap = np.argsort(binding.state_maps, axis=1)
    diff = np.zeros(pomdp.n_states)
    levels, checked, missing, witnesses = _image_pairs(sol, binding, depth)
    max_dev, witness = 0.0, None
    for pairs in levels:
        for g, h, cls, image in pairs:
            mapped = unmap[g][image.support]
            diff[cls.support] = cls.probs
            diff[mapped] -= image.probs
            union = np.concatenate((cls.support, mapped))
            dev = float(np.abs(diff[union]).max())
            diff[union] = 0.0
            if dev > max_dev:
                max_dev, witness = dev, (g, h, f"belief deviation {dev:.3e}")
    passed = max_dev < tolerance and not missing
    return SymmetryCheckReport("belief-invariance", passed, max_dev, tolerance,
                               checked, missing, witnesses, witness,
                               histories=sol.node_count, belief_classes=sol.class_count,
                               solve_s=t1 - t0, check_s=time.perf_counter() - t1)


def verify_value_invariance(pomdp: Pomdp, binding: GroupActionBinding, horizon: int,
                            tolerance: float = 1e-9, policy_tol: float = 1e-9,
                            node_budget: int = 2_000_000) -> SymmetryCheckReport:
    """Check optimal values satisfy Q(gh, ga) = Q(h, a) and V(gh) = V(h) over the
    whole reachable tree, and that greedy argmax sets correspond under the group.
    Depths are checked deepest first."""
    if horizon < 1:
        raise PomdpError(f"horizon must be at least 1, got {horizon}")
    binding.validate()
    t0 = time.perf_counter()
    sol = exact_q(pomdp, horizon, node_budget=node_budget)
    t1 = time.perf_counter()
    am = binding.action_maps
    am_rows = am.tolist()
    levels, checked, missing, witnesses = _image_pairs(sol, binding, horizon - 1)
    max_dev, witness = 0.0, None
    policy_ok, policy_witness = True, None
    greedy: dict[int, tuple[int, ...]] = {}   # id(class) -> its greedy set

    def greedy_set(cls: BeliefClass) -> tuple[int, ...]:
        got = greedy.get(id(cls))
        if got is None:
            got = greedy[id(cls)] = greedy_actions(cls.q, policy_tol)
        return got

    for pairs in reversed(levels):
        for g, h, cls, image in pairs:
            qdev = float(np.abs(image.q[am[g]] - cls.q).max())
            vdev = abs(image.value - cls.value)
            dev = max(qdev, vdev)
            if dev > max_dev:
                max_dev, witness = dev, (
                    g, h, f"Q deviation {qdev:.3e}, V deviation {vdev:.3e}")
            mapped = {am_rows[g][a] for a in greedy_set(cls)}
            direct = set(greedy_set(image))
            if mapped != direct and policy_ok:
                policy_ok, policy_witness = False, (g, h, sorted(mapped), sorted(direct))
    passed = max_dev < tolerance and policy_ok and not missing
    return SymmetryCheckReport("value-invariance", passed, max_dev, tolerance, checked,
                               missing, witnesses, witness, policy_ok, policy_witness,
                               histories=sol.node_count, belief_classes=sol.class_count,
                               solve_s=t1 - t0, check_s=time.perf_counter() - t1)


# ---------------------------------------------------------------------------
# Plain-text table files.
# ---------------------------------------------------------------------------

TABLE_MAGIC = "pomdp-tables 1"


def save_tables(path, pomdp: Pomdp) -> None:
    """One line per nonzero table entry, preceded by sizes and discount."""
    lines = [TABLE_MAGIC, f"sizes {pomdp.n_states} {pomdp.n_actions} {pomdp.n_obs}",
             "discount %.17g" % pomdp.discount]
    for tag, table in (("b0", pomdp.start), ("O0", pomdp.obs0), ("T", pomdp.trans),
                       ("R", pomdp.reward), ("O", pomdp.obs)):
        lines.extend(" ".join([tag, *map(str, idx), "%.17g" % v])
                     for idx, v in np.ndenumerate(table) if v)
    write_atomic(path, "\n".join(lines) + "\n")


def _header_fields(line: str, lineno: int, tag: str, count: int) -> list[str]:
    fields = line.split()
    if not fields or fields[0] != tag or len(fields) != count + 1:
        raise PomdpError(f"line {lineno}: expected {tag!r} and {count} value(s), "
                         f"got {line.strip()!r}")
    return fields[1:]


def load_tables(path) -> Pomdp:
    with open(path) as f:
        if f.readline().rstrip("\n") != TABLE_MAGIC:
            raise PomdpError("not a pomdp table file")
        sizes = _header_fields(f.readline(), 2, "sizes", 3)
        try:
            s, a, o = (int(x) for x in sizes)
        except ValueError:
            raise PomdpError("line 2: sizes has a malformed number") from None
        if min(s, a, o) <= 0:
            raise PomdpError(f"line 2: sizes must be positive, got {s} {a} {o}")
        (discount,) = _header_fields(f.readline(), 3, "discount", 1)
        try:
            discount = float(discount)
        except ValueError:
            raise PomdpError("line 3: discount has a malformed number") from None
        pomdp = Pomdp(
            start=np.zeros(s), trans=np.zeros((s, a, s)), reward=np.zeros((s, a)),
            obs=np.zeros((a, s, o)), obs0=np.zeros((s, o)), discount=discount)
        tables = {"b0": pomdp.start, "O0": pomdp.obs0, "T": pomdp.trans,
                  "R": pomdp.reward, "O": pomdp.obs}
        for lineno, line in enumerate(f, start=4):
            fields = line.split()
            tag = fields[0] if fields else ""
            table = tables.get(tag)
            if table is None:
                raise PomdpError(f"line {lineno}: unknown table line tag {tag!r}")
            if len(fields) != table.ndim + 2:
                raise PomdpError(f"line {lineno}: {tag} needs {table.ndim} indices and a "
                                 f"value, got {len(fields) - 1} fields")
            try:
                idx, value = tuple(int(x) for x in fields[1:-1]), float(fields[-1])
            except ValueError:
                raise PomdpError(f"line {lineno}: {tag} has a malformed number") from None
            if not all(0 <= i < n for i, n in zip(idx, table.shape)):
                raise PomdpError(f"line {lineno}: {tag} index {idx} outside the table "
                                 f"shape {table.shape}")
            table[idx] = value
    pomdp.validate(atol=1e-9)
    return pomdp
