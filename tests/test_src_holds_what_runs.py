"""Guard: ``src/equipomdp`` holds only what the program runs.

Every module-level definition (function, class or assigned name), every
method and every annotated field of a ``@dataclass`` must be used by name
somewhere the program reaches: in ``src`` outside the definition itself, in
``scripts/`` or in ``perfbench/``. A use is a name, an attribute or a string
naming it (the benchmark patches functions by name); an import or an
``__all__`` entry is not a use. A field is read as an attribute or named by
a string, so a bare name (a local that shares the field's name) does not use
it. A use from inside another definition counts only if that definition is
used in turn, so a group of definitions that only reach each other is found
whole. Test-only helpers belong under ``tests/``; ``EXEMPT`` names the few
kept in ``src`` on purpose.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "equipomdp"

# Dunder methods that Python calls itself. An operator overload is not among
# them: ``a + b`` reads the same on arrays and tensors, so an overload must be
# named where it is used, or go.
IMPLICIT = {"__init__", "__post_init__", "__repr__", "__len__"}

EXEMPT = {
    "autodiff.primitive_gradcheck_battery":
        "the finite-difference battery behind `verify gradcheck`",
    "autodiff.tsum": "the battery's scalar loss",
}


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and getattr(d.func, "id", None) == "dataclass"
               for d in node.decorator_list)


def _definitions(tree: ast.Module, module: str):
    """(key, name, node) of each module-level definition, each method and each
    dataclass field."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        yield f"{module}.{node.name}.{item.name}", item.name, item
                    elif isinstance(item, ast.AnnAssign) and _is_dataclass(node):
                        yield f"{module}.{node.name}.{item.target.id}", item.target.id, item
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                if isinstance(t, ast.Name) and t.id != "__all__":
                    yield f"{module}.{t.id}", t.id, node


def _names_used(node: ast.AST):
    """Names that ``node`` reads, each as (name, bare): a bare name, or an
    attribute or identifier string."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            yield sub.id, True
        elif isinstance(sub, ast.Attribute) and not isinstance(sub.ctx, ast.Store):
            yield sub.attr, False
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) \
                and sub.value.isidentifier():
            yield sub.value, False


def _scan():
    """Every src definition as key -> (name, whether it is a dataclass field),
    and each use of a name as (name, bare, user): the user is the key of the
    src definition the use sits in, or None for a use outside every
    definition (module-level code, scripts, the benchmark)."""
    defs, uses = {}, []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        owned = set()
        for key, name, node in _definitions(tree, path.stem):
            defs[key] = name, isinstance(node, ast.AnnAssign)
            if isinstance(node, ast.ClassDef):  # the class body outside its members
                body = [n for n in node.body
                        if not isinstance(n, (ast.FunctionDef, ast.AnnAssign))]
                parts = [*node.bases, *node.decorator_list, *body]
            else:
                parts = [node]
            for part in parts:
                uses.extend((*n, key) for n in _names_used(part))
            owned.add(id(node))
        for node in tree.body:
            exports = isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            if id(node) in owned or exports or isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            uses.extend((*n, None) for n in _names_used(node))
    for folder in ("scripts", "perfbench"):
        for path in sorted((ROOT / folder).glob("*.py")):
            uses.extend((*n, None) for n in _names_used(ast.parse(path.read_text())))
    return defs, uses


def unused_definitions() -> list[str]:
    defs, uses = _scan()
    live = {key for key, (name, _) in defs.items() if name in IMPLICIT or key in EXEMPT}
    grew = True
    while grew:
        users = {}
        for name, bare, user in uses:
            if user is None or user in live:
                users.setdefault((name, bare), set()).add(user)
        grew = False
        for key, (name, field) in defs.items():
            found = users.get((name, False), set())
            if not field:
                found = found | users.get((name, True), set())
            if key not in live and found - {key}:
                live.add(key)
                grew = True
    return sorted(set(defs) - live)


def test_every_src_definition_is_used_by_the_program():
    unused = unused_definitions()
    assert not unused, f"{len(unused)} src definitions the program never uses: {unused}"


def test_every_exemption_names_a_src_definition():
    defs, _ = _scan()
    assert set(EXEMPT) <= set(defs), sorted(set(EXEMPT) - set(defs))
