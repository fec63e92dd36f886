"""References for the belief-class oracle in ``equipomdp.pomdp``.

``reference_check_invariance`` compares every entry of the dense tables
with its group image; ``check_invariance``, which compares only where a
table or its image is nonzero, must give its reports field by field.

In ``reference_exact_q`` every reachable history is expanded, backed up and
checked on its own; the tests compare ``exact_q`` and the verify functions
against this sweep. ``reference_class_q`` expands and backs up one belief
class at a time, with one push of its belief per class; ``exact_q``, which
works a depth at a time over the tables' nonzeros, must give its classes
bit for bit. ``reference_class_verify_belief_invariance`` and
``reference_class_verify_value_invariance`` walk the pairs (class, image
class, g) of an ``exact_q`` solution by children dicts built from its edge
arrays (``child_dicts``) and compare them one pair at a time; the verify
functions, which pair and compare a depth at a time in array passes, must
give their reports field by field.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from equipomdp.pomdp import (
    CLASS_DECIMALS,
    CLASS_SPREAD_TOL,
    MISSING_WITNESSES,
    GroupActionBinding,
    NodeBudgetError,
    Pomdp,
    PomdpError,
    QSolution,
    SymmetryCheckReport,
    belief_update,
    exact_q,
    InvarianceReport,
    initial_belief,
)
from pomdp_builders import dense_obs, dense_trans


def reference_check_invariance(pomdp: Pomdp, binding: GroupActionBinding,
                               atol: float = 1e-12, max_listed: int = 50) -> InvarianceReport:
    """``check_invariance`` over the dense tables: every entry of every table
    against its group image, violations listed in C order, at most
    ``max_listed`` per table and element."""
    binding.validate(pomdp)
    violations: dict[str, list] = {"trans": [], "reward": [], "obs": [], "start": [], "obs0": []}
    max_dev = 0.0
    trans, obs = dense_trans(pomdp), dense_obs(pomdp)

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
        scan("trans", trans[np.ix_(sm, am, sm)], trans, g)
        scan("reward", pomdp.reward[np.ix_(sm, am)], pomdp.reward, g)
        scan("obs", obs[np.ix_(am, sm, om)], obs, g)
        scan("start", pomdp.start[sm], pomdp.start, g)
        scan("obs0", pomdp.obs0[np.ix_(sm, om)], pomdp.obs0, g)

    passed = all(not v for v in violations.values())
    return InvarianceReport(passed, max_dev, violations)


def greedy_actions(row: np.ndarray, tol: float = 1e-9) -> tuple[int, ...]:
    return tuple(int(a) for a in np.flatnonzero(row >= row.max() - tol))


def act_on_history(binding: GroupActionBinding, g: int, h: tuple) -> tuple:
    """Map every observation and action in the history by the binding."""
    g = binding.group.check_element(g)
    om, am = binding.obs_maps[g], binding.action_maps[g]
    return tuple(int(om[x]) if i % 2 == 0 else int(am[x]) for i, x in enumerate(h))


class HistoryMdp:
    """Fully observable view over histories: expected reward per history and
    transition probabilities that are nonzero only onto one-step extensions."""

    def __init__(self, pomdp: Pomdp):
        self.pomdp = pomdp
        self.trans, self.obs = dense_trans(pomdp), dense_obs(pomdp)
        self._beliefs: dict[tuple, np.ndarray] = {}

    def belief(self, h: tuple) -> np.ndarray:
        cached = self._beliefs.get(h)
        if cached is not None:
            return cached
        if len(h) == 1:
            b = initial_belief(self.pomdp, h[0])
        else:
            b = belief_update(self.pomdp, self.belief(h[:-2]), h[-2], h[-1])
        self._beliefs[h] = b
        return b

    def expected_reward(self, h: tuple, a: int) -> float:
        return float(self.belief(h) @ self.pomdp.reward[:, a])

    def obs_probs(self, h: tuple, a: int) -> np.ndarray:
        pushed = self.belief(h) @ self.trans[:, a, :]
        return pushed @ self.obs[a]

    def transition(self, h: tuple, a: int, h2: tuple) -> float:
        if len(h2) != len(h) + 2 or h2[: len(h)] != h or h2[-2] != a:
            return 0.0
        return float(self.obs_probs(h, a)[h2[-1]])


def child_dicts(sol: QSolution) -> list[list[dict]]:
    """Per depth below the horizon, each class's children in an ``exact_q``
    solution as ``{(a, o): (p, child)}`` in key order, read from its edges."""
    out, a_o = [], sol.n_actions * sol.n_obs
    for (keys, p, child), q in zip(sol.edges, sol.q):
        level = [{} for _ in range(len(q))]
        for key, prob, c in zip(keys.tolist(), p.tolist(), child.tolist()):
            level[key // a_o][key // sol.n_obs % sol.n_actions, key % sol.n_obs] = (prob, c)
        out.append(level)
    return out


def class_of(sol: QSolution, h: tuple, children: list | None = None):
    """``(depth, class)`` of history ``h`` in an ``exact_q`` solution, found by
    walking ``children`` (``child_dicts(sol)`` when not given) by (a, o);
    None when ``h`` is unreachable."""
    children = child_dicts(sol) if children is None else children
    c = sol.roots.get(h[:1])
    for depth in range(len(h) // 2):
        if c is None:
            return None
        edge = children[depth][c].get(h[2 * depth + 1: 2 * depth + 3])
        c = None if edge is None else edge[1]
    return None if c is None else (len(h) // 2, c)


def class_value(sol: QSolution, depth: int, c: int) -> float:
    """V* of class c at ``depth``: its Q row's maximum, 0.0 at the horizon."""
    return float(sol.q[depth][c].max()) if depth < sol.horizon else 0.0


@dataclass
class ReferenceSolution:
    q: dict[tuple, np.ndarray]       # every history shorter than the horizon
    beliefs: dict[tuple, np.ndarray]  # every reachable history, in expansion order
    values: dict[tuple, float]
    root_probs: dict[tuple, float]
    node_count: int

    def greedy_set(self, h: tuple, tol: float = 1e-9) -> tuple[int, ...]:
        return greedy_actions(self.q[h], tol)


def reference_exact_q(pomdp: Pomdp, horizon: int, node_budget: int = 2_000_000,
                      obs_tol: float = 1e-15) -> ReferenceSolution:
    roots: list[tuple] = []
    root_probs: dict[tuple, float] = {}
    beliefs: dict[tuple, np.ndarray] = {}
    trans, obs = dense_trans(pomdp), dense_obs(pomdp)
    p0 = pomdp.start @ pomdp.obs0
    for o in np.flatnonzero(p0 > obs_tol):
        h = (int(o),)
        roots.append(h)
        root_probs[h] = float(p0[o])
        beliefs[h] = initial_belief(pomdp, int(o))

    levels: list[list[tuple]] = [roots]
    children: dict[tuple, list] = {}
    node_count = len(roots)
    for depth in range(horizon):
        level = levels[-1]
        nxt: list[tuple] = []
        for h in level:
            b = beliefs[h]
            pushed = np.einsum("s,sat->at", b, trans)
            obs_p = np.einsum("at,ato->ao", pushed, obs)
            per_action = []
            for a in range(pomdp.n_actions):
                ids = np.flatnonzero(obs_p[a] > obs_tol)
                probs = obs_p[a, ids]
                per_action.append((ids, probs))
                for o, p in zip(ids, probs):
                    h2 = h + (a, int(o))
                    beliefs[h2] = pushed[a] * obs[a, :, o] / p
                    nxt.append(h2)
            children[h] = per_action
            node_count += sum(len(ids) for ids, _ in per_action)
            if node_count > node_budget:
                raise NodeBudgetError(
                    f"history tree exceeded the node budget ({node_budget}) "
                    f"at depth {depth + 1} with {node_count} nodes")
        levels.append(nxt)

    q: dict[tuple, np.ndarray] = {}
    values: dict[tuple, float] = {h: 0.0 for h in levels[horizon]}
    for depth in range(horizon - 1, -1, -1):
        for h in levels[depth]:
            b = beliefs[h]
            row = b @ pomdp.reward
            for a, (ids, probs) in enumerate(children[h]):
                row[a] += pomdp.discount * sum(
                    p * values[h + (a, int(o))] for o, p in zip(ids, probs))
            q[h] = row
            values[h] = float(row.max())
    # histories at the horizon keep value 0 and no action row
    return ReferenceSolution(q, beliefs, values, root_probs, node_count)


def reference_verify_belief_invariance(pomdp: Pomdp, sol: ReferenceSolution,
                                       binding: GroupActionBinding,
                                       tolerance: float = 1e-12) -> SymmetryCheckReport:
    """Every (history, g) in expansion order; ``missing_witnesses`` lists
    every (g, h) whose image is unreachable."""
    binding.validate(pomdp)
    max_dev, witness, missing, checked = 0.0, None, [], 0
    for h, b in sol.beliefs.items():
        for g in binding.group.elements:
            if g == 0:
                continue
            gh = act_on_history(binding, g, h)
            checked += 1
            gb = sol.beliefs.get(gh)
            if gb is None:
                missing.append((g, h))
                continue
            dev = float(np.max(np.abs(gb[binding.state_maps[g]] - b)))
            if dev > max_dev:
                max_dev, witness = dev, (g, h, f"belief deviation {dev:.3e}")
    passed = max_dev < tolerance and not missing
    return SymmetryCheckReport("belief-invariance", passed, max_dev, tolerance,
                               checked, len(missing), missing, witness)


def reference_verify_value_invariance(pomdp: Pomdp, sol: ReferenceSolution,
                                      binding: GroupActionBinding, tolerance: float = 1e-9,
                                      policy_tol: float = 1e-9) -> SymmetryCheckReport:
    """Every (history, g), deepest first as the backup stored them;
    ``missing_witnesses`` lists every (g, h) whose image is unreachable."""
    binding.validate(pomdp)
    max_dev, witness, missing, checked = 0.0, None, [], 0
    policy_ok, policy_witness = True, None
    for h, row in sol.q.items():
        for g in binding.group.elements:
            if g == 0:
                continue
            gh = act_on_history(binding, g, h)
            checked += 1
            grow = sol.q.get(gh)
            if grow is None:
                missing.append((g, h))
                continue
            qdev = float(np.max(np.abs(grow[binding.action_maps[g]] - row)))
            vdev = abs(sol.values[gh] - sol.values[h])
            dev = max(qdev, vdev)
            if dev > max_dev:
                max_dev, witness = dev, (
                    g, h, f"Q deviation {qdev:.3e}, V deviation {vdev:.3e}")
            mapped = {int(binding.action_maps[g][a]) for a in sol.greedy_set(h, policy_tol)}
            direct = set(sol.greedy_set(gh, policy_tol))
            if mapped != direct and policy_ok:
                policy_ok, policy_witness = False, (g, h, sorted(mapped), sorted(direct))
    passed = max_dev < tolerance and policy_ok and not missing
    return SymmetryCheckReport("value-invariance", passed, max_dev, tolerance, checked,
                               len(missing), missing, witness, policy_ok, policy_witness)


@dataclass
class RefClass:
    """One belief class of ``reference_class_q``: the histories of one depth
    that share a belief, stored sparse (``support`` ascending, ``probs``).
    ``children`` maps (a, o) to (p, child index one depth deeper) in
    expansion order; ``count`` is the number of histories and ``first`` the
    first of them in expansion order."""

    support: np.ndarray
    probs: np.ndarray
    first: tuple
    count: int = 0
    children: dict[tuple[int, int], tuple[float, int]] = field(default_factory=dict)
    q: np.ndarray | None = None    # None at the horizon
    value: float = 0.0


@dataclass
class ClassSolution:
    classes: list[list[RefClass]]   # per depth
    roots: dict[tuple, int]
    root_probs: dict[tuple, float]
    node_count: int


def _readonly(array: np.ndarray) -> np.ndarray:
    array = array.copy()
    array.flags.writeable = False
    return array


def _intern(level: list[RefClass], keys: dict, support: np.ndarray, probs: np.ndarray,
            rounded: np.ndarray, depth: int, first: tuple) -> int:
    """Index of the class of the belief ``probs`` on ``support`` in ``level``,
    keyed by the support and ``rounded`` (the probabilities rounded to
    1e-12), opening a new class with ``first`` as its first history if none
    matches; a merge whose beliefs differ by more than the spread bound raises."""
    key = (support.tobytes(), rounded.tobytes())
    c = keys.get(key)
    if c is None:
        c = keys[key] = len(level)
        level.append(RefClass(_readonly(support), _readonly(probs), first))
        return c
    spread = float(np.abs(level[c].probs - probs).max())
    if spread > CLASS_SPREAD_TOL:
        raise PomdpError(f"belief class at depth {depth} spreads by {spread:.3e}, "
                         f"over {CLASS_SPREAD_TOL:.0e}")
    return c


def reference_class_q(pomdp: Pomdp, horizon: int, obs_tol: float = 1e-15) -> ClassSolution:
    """The belief-class DAG built one class at a time: each class pushes its
    belief through the rows of ``trans`` on its support, forms all its
    children from that push, interns them one by one and is backed up with
    a Python sum over its children."""
    n_states, n_actions = pomdp.n_states, pomdp.n_actions
    trans, obs = dense_trans(pomdp).reshape(n_states, -1), dense_obs(pomdp)
    classes: list[list[RefClass]] = [[]]
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
        level: list[RefClass] = []
        keys = {}
        for cls in classes[depth]:
            pushed = (cls.probs @ trans[cls.support]).reshape(n_actions, n_states)
            reach = pushed.any(axis=0).nonzero()[0]
            pushed, emit = pushed[:, reach], obs[:, reach]
            obs_p = np.einsum("at,ato->ao", pushed, emit)
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
    return ClassSolution(classes, roots, root_probs, node_count)


def _class_image_pairs(sol: QSolution, binding: GroupActionBinding, max_depth: int):
    """Pair the classes of histories and of their images, in lockstep from the
    roots through ``max_depth``, for every non-identity element g, one pair
    at a time over the classes' children dicts (``child_dicts``).

    Returns ``(levels, checked, missing, witnesses)`` as ``_image_pairs``
    does, except that ``levels[d]`` lists ``(g, h, c, image)`` for the
    pairs of depth d with reachable images, h being a pair's first history.
    """
    gs = [g for g in binding.group.elements if g != 0]
    om = [m.tolist() for m in binding.obs_maps]
    am = [m.tolist() for m in binding.action_maps]
    children = child_dicts(sol)
    checked = len(gs) * sum(sum(n.tolist()) for n in sol.counts[:max_depth + 1])
    # (class, image class, g) -> [histories, first history]. Expansion order
    # is lexicographic, and parents are extended in order of their first
    # history, so the first history to reach a pair is its first.
    reached: dict[tuple, list] = {}
    for h, c in sol.roots.items():
        for g in gs:
            reached.setdefault((c, sol.roots.get((om[g][h[0]],)), g), [0, h])[0] += 1
    levels, matched, witnesses = [], 0, []
    for depth in range(max_depth + 1):
        pairs, below = [], {}
        for (c, image, g), (n, h) in sorted(reached.items(),
                                            key=lambda item: (item[1][1], item[0][2])):
            if image is None:
                if len(witnesses) < MISSING_WITNESSES:
                    witnesses.append((g, h))
                continue
            pairs.append((g, h, c, image))
            matched += n
            if depth < max_depth:
                kids = children[depth][image]
                for (a, o), (_, child) in children[depth][c].items():
                    image_child = kids.get((am[g][a], om[g][o]), (0.0, None))[1]
                    below.setdefault((child, image_child, g), [0, h + (a, o)])[0] += n
        levels.append(pairs)
        reached = below
    return levels, checked, checked - matched, witnesses


def reference_class_verify_belief_invariance(
        pomdp: Pomdp, binding: GroupActionBinding, depth: int, tolerance: float = 1e-12,
        node_budget: int = 2_000_000) -> SymmetryCheckReport:
    """``verify_belief_invariance`` with one comparison per class pair, on a
    scratch dense vector; timings are left at zero."""
    binding.validate(pomdp)
    sol = exact_q(pomdp, depth, node_budget=node_budget)
    # state g^-1 s' for each image state s' = g s, so that the image belief
    # compares in the class's states; the entries missing from one support
    # are zeros, added to and cleared from a scratch vector per pair
    unmap = np.argsort(binding.state_maps, axis=1)
    diff = np.zeros(pomdp.n_states)
    levels, checked, missing, witnesses = _class_image_pairs(sol, binding, depth)
    max_dev, witness = 0.0, None
    for (starts, states, probs), pairs in zip(sol.entries, levels):
        for g, h, c, image in pairs:
            own, other = slice(starts[c], starts[c + 1]), slice(starts[image], starts[image + 1])
            mapped = unmap[g][states[other]]
            diff[states[own]] = probs[own]
            diff[mapped] -= probs[other]
            union = np.concatenate((states[own], mapped))
            dev = float(np.abs(diff[union]).max())
            diff[union] = 0.0
            if dev > max_dev:
                max_dev, witness = dev, (g, h, f"belief deviation {dev:.3e}")
    passed = max_dev < tolerance and not missing
    return SymmetryCheckReport("belief-invariance", passed, max_dev, tolerance,
                               checked, missing, witnesses, witness,
                               histories=sol.node_count, belief_classes=sol.class_count)


def reference_class_verify_value_invariance(
        pomdp: Pomdp, binding: GroupActionBinding, horizon: int, tolerance: float = 1e-9,
        policy_tol: float = 1e-9, node_budget: int = 2_000_000) -> SymmetryCheckReport:
    """``verify_value_invariance`` with one comparison per class pair, deepest
    first, and each class's greedy set cached by (depth, class); timings are
    left at zero."""
    binding.validate(pomdp)
    sol = exact_q(pomdp, horizon, node_budget=node_budget)
    am = binding.action_maps
    am_rows = am.tolist()
    levels, checked, missing, witnesses = _class_image_pairs(sol, binding, horizon - 1)
    max_dev, witness = 0.0, None
    policy_ok, policy_witness = True, None
    greedy: dict[tuple[int, int], tuple[int, ...]] = {}   # (depth, class) -> greedy set

    def greedy_set(depth: int, c: int) -> tuple[int, ...]:
        got = greedy.get((depth, c))
        if got is None:
            got = greedy[depth, c] = greedy_actions(sol.q[depth][c], policy_tol)
        return got

    for depth in range(len(levels) - 1, -1, -1):
        q = sol.q[depth]
        for g, h, c, image in levels[depth]:
            qdev = float(np.abs(q[image][am[g]] - q[c]).max())
            vdev = abs(class_value(sol, depth, image) - class_value(sol, depth, c))
            dev = max(qdev, vdev)
            if dev > max_dev:
                max_dev, witness = dev, (
                    g, h, f"Q deviation {qdev:.3e}, V deviation {vdev:.3e}")
            mapped = {am_rows[g][a] for a in greedy_set(depth, c)}
            direct = set(greedy_set(depth, image))
            if mapped != direct and policy_ok:
                policy_ok, policy_witness = False, (g, h, sorted(mapped), sorted(direct))
    passed = max_dev < tolerance and policy_ok and not missing
    return SymmetryCheckReport("value-invariance", passed, max_dev, tolerance, checked,
                               missing, witnesses, witness, policy_ok, policy_witness,
                               histories=sol.node_count, belief_classes=sol.class_count)
