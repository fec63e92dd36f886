"""Explicit finite POMDPs, symmetry bindings, and exact verification oracles.

Histories are flat tuples ``(o0, a0, o1, ..., ot)`` of integer ids. A
finite-horizon solve folds the reachable history tree into a DAG of belief
classes and yields optimal action values against which the symmetry claims
(belief invariance, value invariance, policy equivariance) are checked
exhaustively, for every history, by walking classes and their images in
lockstep and counting the histories each pair stands for.
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
    ``support``, ``probs`` and ``q`` are read-only.
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


def _readonly(array: np.ndarray) -> np.ndarray:
    array = array.copy()
    array.flags.writeable = False
    return array


def _intern(level: list[BeliefClass], keys: dict, support: np.ndarray, probs: np.ndarray,
            rounded: np.ndarray, depth: int, first: tuple) -> int:
    """Index of the class of the belief ``probs`` on ``support`` in ``level``,
    keyed by the support and ``rounded`` (the probabilities rounded to
    1e-12), opening a new class with ``first`` as its first history if none
    matches; a merge whose beliefs differ by more than the spread bound raises."""
    key = (support.tobytes(), rounded.tobytes())
    c = keys.get(key)
    if c is None:
        c = keys[key] = len(level)
        level.append(BeliefClass(_readonly(support), _readonly(probs), first))
        return c
    spread = float(np.abs(level[c].probs - probs).max())
    if spread > CLASS_SPREAD_TOL:
        raise PomdpError(f"belief class at depth {depth} spreads by {spread:.3e}, "
                         f"over {CLASS_SPREAD_TOL:.0e}")
    return c


def exact_q(pomdp: Pomdp, horizon: int, node_budget: int = 2_000_000,
            obs_tol: float = 1e-15) -> QSolution:
    """Optimal action values for every reachable history shorter than the horizon.

    Q*(h) depends on h only through its belief and the remaining horizon, so
    the history tree is folded into a DAG of belief classes: the histories of
    one depth whose beliefs share a support and agree to 1e-12. Each class is
    expanded and backed up once, and ``node_budget`` counts classes. No
    history is enumerated: a class's history count is the sum, over the edges
    that reach it, of its parents' counts. Values at the horizon are zero;
    each earlier level is the expected immediate reward plus the discounted,
    observation-weighted optimum of its children.
    """
    if horizon < 0:
        raise PomdpError(f"horizon must be at least 0, got {horizon}")
    if node_budget < 1:
        raise PomdpError(f"node_budget must be at least 1, got {node_budget}")
    n_states, n_actions = pomdp.n_states, pomdp.n_actions
    trans = pomdp.trans.reshape(n_states, -1)
    classes: list[list[BeliefClass]] = [[]]
    keys: dict = {}
    roots: dict[tuple, int] = {}
    root_probs: dict[tuple, float] = {}
    p0 = pomdp.start @ pomdp.obs0
    for o in np.flatnonzero(p0 > obs_tol):
        h = (int(o),)
        root_probs[h] = float(p0[o])
        belief = initial_belief(pomdp, int(o))
        support = np.flatnonzero(belief)
        probs = belief[support]
        roots[h] = c = _intern(classes[0], keys, support, probs,
                               np.round(probs, CLASS_DECIMALS), 0, h)
        classes[0][c].count += 1

    for depth in range(horizon):
        level: list[BeliefClass] = []
        keys = {}
        for cls in classes[depth]:
            pushed = (cls.probs @ trans[cls.support]).reshape(n_actions, n_states)
            reach = pushed.any(axis=0).nonzero()[0]
            pushed, emit = pushed[:, reach], pomdp.obs[:, reach]
            obs_p = np.einsum("at,ato->ao", pushed, emit)
            # every child (a, o) at once, one row each over the reachable states
            va, vo = np.nonzero(obs_p > obs_tol)
            p = obs_p[va, vo]
            posts = pushed[va] * emit[va, :, vo] / p[:, None]
            kept = posts != 0
            support = reach[kept.nonzero()[1]]
            probs = posts[kept]
            rounded = np.round(probs, CLASS_DECIMALS)
            ends = np.cumsum(kept.sum(axis=1)).tolist()
            start = 0
            for a, o, p_ao, end in zip(va.tolist(), vo.tolist(), p.tolist(), ends):
                child = _intern(level, keys, support[start:end], probs[start:end],
                                rounded[start:end], depth + 1, cls.first + (a, o))
                level[child].count += cls.count
                cls.children[a, o] = (p_ao, child)
                start = end
            n_classes = sum(map(len, classes)) + len(level)
            if n_classes > node_budget:
                raise NodeBudgetError(
                    f"belief-class DAG exceeded the node budget ({node_budget} classes) "
                    f"at depth {depth + 1} with {n_classes} classes")
        classes.append(level)

    for depth in range(horizon - 1, -1, -1):
        below = classes[depth + 1]
        for cls in classes[depth]:
            ahead = [0.0] * n_actions
            for (a, _), (p, child) in cls.children.items():
                ahead[a] += p * below[child].value
            cls.q = (cls.probs @ pomdp.reward[cls.support]
                     + pomdp.discount * np.array(ahead))
            cls.q.flags.writeable = False
            cls.value = float(cls.q.max())
    node_count = sum(cls.count for level in classes for cls in level)
    return QSolution(horizon, n_states, classes, roots, root_probs, node_count)


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
