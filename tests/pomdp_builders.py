"""Small POMDP instances and symmetry bindings built for the tests of
``equipomdp.pomdp``: random tables, random bindings, their group average and
the identity binding; the dense (S, A, S) and (A, S, O) views of a POMDP's
row tables and the flat-scan converter back; and the reader of table files.

``equipomdp`` holds ``trans`` and ``obs`` only as rows of nonzeros; the
dense views exist here, for tests and references that index them directly.
"""

from __future__ import annotations

import numpy as np

from equipomdp.groups import Group
from equipomdp.pomdp import TABLE_MAGIC, GroupActionBinding, Pomdp, PomdpError, SparseRows


def sparse_rows(table: np.ndarray) -> SparseRows:
    """The nonzeros of a 2-D table by row, scanned once, flat, in C order
    (``-0.0`` counts as zero), each flat index split into row and column."""
    flat = table.ravel()
    at = np.flatnonzero(flat != 0)
    rows, cols = np.divmod(at, table.shape[1])
    return SparseRows(np.searchsorted(rows, np.arange(len(table) + 1)), cols, flat[at])


def dense_rows(rows: SparseRows, width: int) -> np.ndarray:
    table = np.zeros((len(rows.at) - 1, width))
    table[rows.rows(), rows.cols] = rows.vals
    return table


def dense_trans(pomdp: Pomdp) -> np.ndarray:
    """``trans`` as the (S, A, S) array ``trans[s, a, s']``."""
    s, a = pomdp.n_states, pomdp.n_actions
    return dense_rows(pomdp.trans, a * s).reshape(s, a, s)


def dense_obs(pomdp: Pomdp) -> np.ndarray:
    """``obs`` as the (A, S, O) array ``obs[a, s', o]``."""
    return dense_rows(pomdp.obs, pomdp.n_obs).reshape(pomdp.n_actions, pomdp.n_states,
                                                       pomdp.n_obs)


def from_dense(start, trans, reward, obs, obs0, discount) -> Pomdp:
    """A POMDP from dense ``trans[s, a, s']`` and ``obs[a, s', o]`` tables."""
    n_states, n_actions = reward.shape
    return Pomdp(start, sparse_rows(trans.reshape(n_states, -1)), reward,
                 sparse_rows(obs.reshape(n_actions * n_states, -1)), obs0, discount)


def identity_binding(group: Group, n_states: int, n_actions: int, n_obs: int) -> GroupActionBinding:
    def rows(n):
        return np.tile(np.arange(n), (group.order, 1))

    return GroupActionBinding(group, rows(n_states), rows(n_actions), rows(n_obs))


def random_pomdp(rng: np.random.Generator, n_states: int, n_actions: int, n_obs: int,
                 discount: float = 0.95) -> Pomdp:
    def stochastic(shape):
        raw = rng.random(shape) + 1e-3
        return raw / raw.sum(axis=-1, keepdims=True)

    return from_dense(
        start=stochastic((n_states,)),
        trans=stochastic((n_states, n_actions, n_states)),
        reward=rng.normal(size=(n_states, n_actions)),
        obs=stochastic((n_actions, n_states, n_obs)),
        obs0=stochastic((n_states, n_obs)),
        discount=discount,
    )


def random_binding(group: Group, rng: np.random.Generator, n_states: int,
                   n_actions: int, n_obs: int) -> GroupActionBinding:
    """Random permutations whose order divides the group order, powered per element."""

    def maps_for(n):
        order = group.order
        perm = np.arange(n)
        shuffled = rng.permutation(n)
        for at in range(0, n - order + 1, order):
            cycle = shuffled[at : at + order]
            perm[cycle] = np.roll(cycle, -1)
        maps = np.zeros((order, n), dtype=np.int64)
        maps[0] = np.arange(n)
        for g in range(1, order):
            maps[g] = perm[maps[g - 1]]
        return maps

    return GroupActionBinding(group, maps_for(n_states), maps_for(n_actions), maps_for(n_obs))


def group_average(pomdp: Pomdp, binding: GroupActionBinding) -> Pomdp:
    """Average every table over the group orbit; the result is exactly invariant."""
    binding.validate(pomdp)
    n = binding.group.order
    dense_t, dense_o = dense_trans(pomdp), dense_obs(pomdp)
    trans = np.zeros_like(dense_t)
    reward = np.zeros_like(pomdp.reward)
    obs = np.zeros_like(dense_o)
    obs0 = np.zeros_like(pomdp.obs0)
    start = np.zeros_like(pomdp.start)
    for g in binding.group.elements:
        sm, am, om = binding.state_maps[g], binding.action_maps[g], binding.obs_maps[g]
        trans += dense_t[np.ix_(sm, am, sm)]
        reward += pomdp.reward[np.ix_(sm, am)]
        obs += dense_o[np.ix_(am, sm, om)]
        obs0 += pomdp.obs0[np.ix_(sm, om)]
        start += pomdp.start[sm]
    out = from_dense(start / n, trans / n, reward / n, obs / n, obs0 / n, pomdp.discount)
    out.validate()
    return out


def _header_fields(line: str, lineno: int, tag: str, count: int) -> list[str]:
    fields = line.split()
    if not fields or fields[0] != tag or len(fields) != count + 1:
        raise PomdpError(f"line {lineno}: expected {tag!r} and {count} value(s), "
                         f"got {line.strip()!r}")
    return fields[1:]


def load_tables(path) -> Pomdp:
    """Read a file that ``save_tables`` wrote. Table lines may come in any
    order; a later line for the same entry wins. ``trans`` and ``obs``
    entries are gathered by their dense index and sorted into rows."""
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
        shapes = {"b0": (s,), "O0": (s, o), "T": (s, a, s), "R": (s, a), "O": (a, s, o)}
        found: dict[str, dict[int, float]] = {tag: {} for tag in shapes}
        for lineno, line in enumerate(f, start=4):
            fields = line.split()
            tag = fields[0] if fields else ""
            shape = shapes.get(tag)
            if shape is None:
                raise PomdpError(f"line {lineno}: unknown table line tag {tag!r}")
            if len(fields) != len(shape) + 2:
                raise PomdpError(f"line {lineno}: {tag} needs {len(shape)} indices and a "
                                 f"value, got {len(fields) - 1} fields")
            try:
                idx, value = tuple(int(x) for x in fields[1:-1]), float(fields[-1])
            except ValueError:
                raise PomdpError(f"line {lineno}: {tag} has a malformed number") from None
            if not all(0 <= i < n for i, n in zip(idx, shape)):
                raise PomdpError(f"line {lineno}: {tag} index {idx} outside the table "
                                 f"shape {shape}")
            found[tag][int(np.ravel_multi_index(idx, shape))] = value

    def dense(tag):
        table = np.zeros(shapes[tag])
        table.flat[list(found[tag])] = list(found[tag].values())
        return table

    def rows(tag, n_rows, width):
        keys = np.array(sorted(found[tag]), dtype=np.int64)
        row, cols = np.divmod(keys, width)
        return SparseRows(np.searchsorted(row, np.arange(n_rows + 1)), cols,
                          np.array([found[tag][k] for k in keys.tolist()]))

    pomdp = Pomdp(dense("b0"), rows("T", s, a * s), dense("R"), rows("O", a * s, o),
                  dense("O0"), discount)
    pomdp.validate()
    return pomdp
