"""Guard: ``src/equipomdp`` holds only what the program runs.

The program is ``src`` itself, ``scripts/`` and ``perfbench/``; tests are
not part of it. Three checks:

- Every module-level definition (function, class or assigned name), every
  method and every annotated field of a ``@dataclass`` is used by name in
  the program, outside the definition itself. A use is a name, an attribute
  or a string naming it (the benchmark patches functions by name); an
  import or an ``__all__`` entry is not a use. A field is read as an
  attribute or named by a string, so a bare name (a local that shares the
  field's name) does not use it. A use from inside another definition
  counts only if that definition is used in turn, so a group of definitions
  that only reach each other is found whole.
- Every attribute a method assigns on ``self`` is read in the program.
- Every parameter with a default is passed by some program call outside its
  function: by position, by keyword or through ``**``; a ``*`` argument is
  taken to fill required parameters only. A class call passes to
  ``__init__``, and import aliases (``main as cli_main``) resolve. A
  parameter that only forwards the caller's own default counts only if that
  default is passed in turn. A method call on an object of unknown class
  reaches the one src method of that name, and none when several classes
  share the name. An option no caller sets is a constant.

A use is matched to its owner where the code names it: ``self.X`` inside
class C uses only C's own X, and ``module.X`` only that module's X, so a
numpy attribute never keeps a method of the same name alive. A local's
class counts as named where the code states it: a parameter annotated with
a class (``policy: RecurrentPolicy``, ``args: argparse.Namespace``) or a
name that every assignment in its function sets from one class call
(``binding = GroupActionBinding(...)``). ``x.X`` on such a local uses only
that class's X, and none when the class is outside src (a perfbench
dataclass, an argparse namespace). Other attribute uses match by name.
Test-only helpers belong under ``tests/``; ``EXEMPT`` names the few kept in
``src`` on purpose.
"""

import ast
from functools import lru_cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "equipomdp"

# Dunder methods that Python calls itself. An operator overload is not among
# them: ``a + b`` reads the same on arrays and tensors, so an overload must be
# named where it is used, or go.
IMPLICIT = {"__init__", "__post_init__", "__repr__", "__len__"}

# Definitions kept in src without a program use, each with its reason. None
# is needed today: `verify gradcheck` reaches the battery and its loss.
EXEMPT: dict[str, str] = {}


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and getattr(d.func, "id", None) == "dataclass"
               for d in node.decorator_list)


class _File:
    """One program file: its tree, its module name (src modules only), the
    classes it defines and what its import statements bind: src modules, src
    names and other modules. ``_program`` adds the classes of the whole
    program."""

    def __init__(self, source: str, module: str | None):
        self.tree = ast.parse(source)
        self.module = module
        self.classes = {n.name for n in self.tree.body if isinstance(n, ast.ClassDef)}
        self.src_classes: set[str] = set()       # 'module.Class' of every src class
        self.outside_classes: set[str] = set()   # classes the other program files define
        self.modules: dict[str, str | None] = {}    # alias -> src module, None if outside
        self.names: dict[str, tuple[str, str]] = {}  # alias -> (src module, name)
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for a in node.names:
                    self.modules[a.asname or a.name.split(".")[0]] = None
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                src = node.level > 0 or base == "equipomdp" or base.startswith("equipomdp.")
                for a in node.names:
                    alias = a.asname or a.name
                    if not src:
                        self.modules[alias] = None
                    elif base in ("", "equipomdp"):     # ``from . import autodiff``
                        self.modules[alias] = a.name
                    else:                               # ``from .envs import make_env``
                        self.names[alias] = base.split(".")[-1], a.name


def _program(sources) -> tuple[_File, ...]:
    """The files of a program from (source, module) pairs, module None for a
    file outside src."""
    files = tuple(_File(source, module) for source, module in sources)
    src = {f"{f.module}.{c}" for f in files if f.module is not None for c in f.classes}
    outside = {c for f in files if f.module is None for c in f.classes}
    for f in files:
        f.src_classes, f.outside_classes = src, outside
    return files


@lru_cache(maxsize=None)
def _files() -> tuple[_File, ...]:
    sources = [(path.read_text(), path.stem) for path in sorted(SRC.glob("*.py"))]
    for folder in ("scripts", "perfbench"):
        sources += [(path.read_text(), None) for path in sorted((ROOT / folder).glob("*.py"))]
    return _program(sources)


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


def _class_of(file: _File, expr: ast.expr, annotation: bool) -> str | None:
    """'module.Class' of the src class that ``expr``, an annotation or the
    function of a call, names; '' for a class outside src; None when the code
    does not say. Outside src, an annotation's imported name or module
    attribute is a class, a called one only if a program file defines it."""
    if isinstance(expr, ast.BinOp) and isinstance(expr.op, ast.BitOr):   # ``C | None``
        sides = [e for e in (expr.left, expr.right)
                 if not (isinstance(e, ast.Constant) and e.value is None)]
        return _class_of(file, sides[0], annotation) if len(sides) == 1 else None
    if isinstance(expr, ast.Name):
        if expr.id in file.names:
            key = ".".join(file.names[expr.id])
            return key if key in file.src_classes else None
        if expr.id in file.classes:
            return "" if file.module is None else f"{file.module}.{expr.id}"
        if expr.id in file.modules and (annotation or expr.id in file.outside_classes):
            return ""
        return None
    if isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name) \
            and expr.value.id in file.modules:
        module = file.modules[expr.value.id]
        if module is None:
            return "" if annotation else None
        key = f"{module}.{expr.attr}"
        return key if key in file.src_classes else None
    return None


def _scope(fn: ast.AST):
    """The nodes of a function or lambda outside the functions, lambdas and
    classes nested in it."""
    todo = list(ast.iter_child_nodes(fn))
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.Lambda, ast.ClassDef)):
            todo.extend(ast.iter_child_nodes(node))


def _local_classes(file: _File, fn: ast.AST, outer: dict) -> dict:
    """Local name -> class (as ``_class_of`` gives it) inside ``fn``: the
    enclosing function's, less the names ``fn`` binds, plus each parameter
    annotated with a class and each name every assignment in ``fn`` sets from
    one class call."""
    args = fn.args
    params = [a for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                          args.vararg, args.kwarg) if a is not None]
    local = {name: c for name, c in outer.items() if name not in {a.arg for a in params}}
    for a in params:
        c = _class_of(file, a.annotation, True) if a.annotation is not None else None
        if c is not None:
            local[a.arg] = c
    called, stated = {}, {}
    nodes = list(_scope(fn))
    for node in nodes:
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name) and isinstance(node.value, ast.Call):
            called[id(node.targets[0])] = _class_of(file, node.value.func, False)
    for node in nodes:
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            stated.setdefault(node.id, set()).add(called.get(id(node)))
    for name, classes in stated.items():
        local.pop(name, None)
        if len(classes) == 1 and None not in classes:
            local[name] = classes.pop()
    return local


def _owner(file: _File, cls: str | None, node: ast.Attribute, local: dict) -> str | None:
    """The key of the definition ``node`` names when the code makes its owner
    known: '' for a module or class outside src, else None."""
    if not isinstance(node.value, ast.Name):
        return None
    base = node.value.id
    if base in local:
        return local[base] and f"{local[base]}.{node.attr}"
    if base == "self" and cls is not None:
        return f"{file.module}.{cls}.{node.attr}"
    if base in file.modules:
        module = file.modules[base]
        return "" if module is None else f"{module}.{node.attr}"
    return None


def _names_used(file: _File, node: ast.AST, cls: str | None = None, local=None):
    """Names that ``node`` reads, each as (name, bare, owner): a bare name, or
    an attribute or identifier string; ``owner`` is the key of the one
    definition an attribute can name, or None when any of that name may.
    ``local`` maps the enclosing function's locals of a stated class."""
    local = local or {}
    if isinstance(node, (ast.FunctionDef, ast.Lambda)):
        local = _local_classes(file, node, local)
    if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
        yield node.id, True, None
    elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
        owner = _owner(file, cls, node, local)
        if owner != "":
            yield node.attr, False, owner
    elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
            and node.value.isidentifier():
        yield node.value, False, None
    for child in ast.iter_child_nodes(node):
        yield from _names_used(file, child, cls, local)


def _scan(files):
    """Every src definition as key -> (name, whether it is a dataclass field),
    and each use of a name as (name, bare, owner, user): the user is the key
    of the src definition the use sits in, or None for a use outside every
    definition (module-level code, scripts, the benchmark)."""
    defs, uses = {}, []
    for file in files:
        if file.module is None:
            uses.extend((*n, None) for n in _names_used(file, file.tree))
            continue
        owned = set()
        for key, name, node in _definitions(file.tree, file.module):
            defs[key] = name, isinstance(node, ast.AnnAssign)
            cls = key.split(".")[1] if key.count(".") == 2 else None
            if isinstance(node, ast.ClassDef):  # the class body outside its members
                body = [n for n in node.body
                        if not isinstance(n, (ast.FunctionDef, ast.AnnAssign))]
                parts = [*node.bases, *node.decorator_list, *body]
            else:
                parts = [node]
            for part in parts:
                uses.extend((*n, key) for n in _names_used(file, part, cls))
            owned.add(id(node))
        for node in file.tree.body:
            exports = isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            if id(node) in owned or exports or isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            uses.extend((*n, None) for n in _names_used(file, node))
    return defs, uses


def unused_definitions(files) -> list[str]:
    defs, uses = _scan(files)
    live = {key for key, (name, _) in defs.items() if name in IMPLICIT or key in EXEMPT}
    grew = True
    while grew:
        users = {}
        for name, bare, owner, user in uses:
            if user is None or user in live:
                users.setdefault(owner or (name, bare), set()).add(user)
        grew = False
        for key, (name, field) in defs.items():
            found = users.get((name, False), set()) | users.get(key, set())
            if not field:
                found = found | users.get((name, True), set())
            if key not in live and found - {key}:
                live.add(key)
                grew = True
    return sorted(set(defs) - live)


def _classes(files):
    """(file, class node) of every src class."""
    for file in files:
        if file.module is not None:
            for node in file.tree.body:
                if isinstance(node, ast.ClassDef):
                    yield file, node


def unread_self_attributes(files) -> list[str]:
    """``Class.attr`` of each attribute a method assigns on ``self`` that no
    program code reads."""
    assigned, read = set(), set()
    for file, cls in _classes(files):
        for sub in ast.walk(cls):
            if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store) \
                    and isinstance(sub.value, ast.Name) and sub.value.id == "self":
                assigned.add((f"{file.module}.{cls.name}.{sub.attr}", sub.attr))
    for file in files:
        scopes = [(file.tree, None)]
        if file.module is not None:
            scopes = [(node, node.name if isinstance(node, ast.ClassDef) else None)
                      for node in file.tree.body]
        for node, cls in scopes:
            read.update(owner or name for name, bare, owner in _names_used(file, node, cls)
                        if not bare)
    return sorted(key for key, name in assigned if key not in read and name not in read)


def _params(fn: ast.FunctionDef):
    """The parameters a call can pass, in order, and those with a default."""
    args = fn.args
    ordered = [a.arg for a in (*args.posonlyargs, *args.args)]
    defaulted = ordered[len(ordered) - len(args.defaults):] if args.defaults else []
    kwonly = [a.arg for a in args.kwonlyargs]
    defaulted += [a for a, d in zip(kwonly, args.kw_defaults) if d is not None]
    return ordered, ordered + kwonly, defaulted


def _functions(files):
    """key -> (FunctionDef, whether a call binds its first parameter) of every
    src module function and method, a class's call reaching its ``__init__``."""
    out = {f"{file.module}.{node.name}": (node, False) for file in files
           if file.module is not None for node in file.tree.body
           if isinstance(node, ast.FunctionDef)}
    for file, cls in _classes(files):
        for item in cls.body:
            if isinstance(item, ast.FunctionDef):
                method = "" if item.name == "__init__" else f".{item.name}"
                out[f"{file.module}.{cls.name}{method}"] = item, True
    return out


def _targets(file: _File, cls: str | None, func: ast.expr, functions: dict,
             local: dict) -> list[str]:
    """The keys of the src functions a call of ``func`` may reach."""
    if isinstance(func, ast.Name):
        if func.id in file.names:
            module, name = file.names[func.id]
            key = f"{module}.{name}"
        else:
            key = f"{file.module}.{func.id}" if file.module else None
        return [key] if key in functions else []
    if isinstance(func, ast.Attribute):
        owner = _owner(file, cls, func, local)
        if owner is not None:
            return [owner] if owner in functions else []
        methods = [key for key, (_, bound) in functions.items()
                   if bound and key.endswith(f".{func.attr}") and key.count(".") == 2]
        return methods if len(methods) == 1 else []
    return []


def _calls(node: ast.AST, file: _File, cls: str | None, enclosing: list, functions: dict,
           local: dict):
    """(target key, parameter, source) of each argument a call under ``node``
    passes to a src function; the source is the enclosing function's
    defaulted parameter an argument forwards, else None."""
    if isinstance(node, ast.ClassDef):
        cls = node.name
    if isinstance(node, ast.FunctionDef):
        enclosing = [*enclosing, node]
    if isinstance(node, (ast.FunctionDef, ast.Lambda)):
        local = _local_classes(file, node, local)
    if isinstance(node, ast.Call):
        for key in _targets(file, cls, node.func, functions, local):
            fn, bound = functions[key]
            if any(fn is outer for outer in enclosing):   # a function's own calls
                continue
            ordered, names, _ = _params(fn)
            ordered = ordered[1:] if bound else ordered
            passed = []
            for i, arg in enumerate(node.args):
                if isinstance(arg, ast.Starred):   # taken to fill required parameters
                    break
                if i < len(ordered):
                    passed.append((ordered[i], arg))
            for kw in node.keywords:
                passed += [(kw.arg, kw.value)] if kw.arg else [(p, None) for p in names]
            for param, arg in passed:
                yield key, param, _forwarded(arg, enclosing, functions)
    for child in ast.iter_child_nodes(node):
        yield from _calls(child, file, cls, enclosing, functions, local)


def _forwarded(arg, enclosing: list, functions: dict):
    """(function key, parameter) when ``arg`` is the innermost enclosing
    function's parameter of that name and that parameter has a default."""
    if not isinstance(arg, ast.Name):
        return None
    for fn in reversed(enclosing):
        _, names, defaulted = _params(fn)
        if arg.id in names:
            if arg.id not in defaulted:
                return None
            return next(((key, arg.id) for key, (f, _) in functions.items() if f is fn), None)
    return None


def unpassed_defaults(files) -> list[str]:
    """``function(parameter)`` of each defaulted parameter no program call
    passes."""
    functions = _functions(files)
    calls = [call for file in files for call in _calls(file.tree, file, None, [], functions, {})]
    passed, grew = set(), True
    while grew:
        grew = False
        for key, param, source in calls:
            if (key, param) not in passed and (source is None or source in passed):
                passed.add((key, param))
                grew = True
    return sorted(f"{key}({param})" for key, (fn, _) in functions.items()
                  for param in _params(fn)[2] if (key, param) not in passed)


def test_every_src_definition_is_used_by_the_program():
    unused = unused_definitions(_files())
    assert not unused, f"{len(unused)} src definitions the program never uses: {unused}"


def test_every_attribute_set_on_self_is_read_by_the_program():
    unread = unread_self_attributes(_files())
    assert not unread, f"{len(unread)} attributes the program never reads: {unread}"


def test_every_defaulted_parameter_is_passed_by_the_program():
    unpassed = unpassed_defaults(_files())
    assert not unpassed, (f"{len(unpassed)} options no program call sets; make each a "
                          f"module constant: {unpassed}")


def test_every_exemption_names_a_src_definition():
    defs, _ = _scan(_files())
    assert set(EXEMPT) <= set(defs), sorted(set(EXEMPT) - set(defs))


# A src module whose one attribute set on self is ``config``; each program
# below reads it, or only a same-named attribute of another object.
POLICY_SRC = '''
class Policy:
    def __init__(self, config):
        self.config = config


def make(config):
    return Policy(config)
'''


@pytest.mark.parametrize("program,unread", [
    ("from equipomdp.mod import Policy\n"
     "def main():\n"
     "    policy = Policy(1)\n"
     "    return policy.config\n", []),
    ("from equipomdp.mod import Policy, make\n"
     "def main(policy: Policy):\n"
     "    make(2)\n"
     "    return policy.config\n", []),
    ("from equipomdp.mod import make\n"
     "def main(args):\n"          # an object of unknown class matches by name
     "    make(2)\n"
     "    return args.config\n", []),
    ("import argparse\n"
     "from equipomdp.mod import make\n"
     "def main(args: argparse.Namespace):\n"
     "    make(2)\n"
     "    return args.config\n", ["mod.Policy.config"]),
    ("from dataclasses import dataclass\n"
     "from equipomdp.mod import make\n"
     "@dataclass\n"
     "class Instance:\n"
     "    config: int\n"
     "def main():\n"
     "    make(2)\n"
     "    inst = Instance(1)\n"
     "    return inst.config\n", ["mod.Policy.config"]),
    ("from equipomdp.mod import Policy, make\n"
     "def main(args: Policy | None):\n"
     "    make(2)\n"
     "    args = make(3)\n"       # reassigned: its class is no longer stated
     "    return args.config\n", []),
], ids=["assigned-from-class-call", "annotated-parameter", "unknown-class",
        "argparse-namespace", "program-dataclass", "reassigned-local"])
def test_a_read_counts_for_the_class_the_code_states(program, unread):
    files = _program([(POLICY_SRC, "mod"), (program, None)])
    assert unread_self_attributes(files) == unread


def test_a_method_call_on_a_local_of_stated_class_reaches_that_class():
    """``export_pomdp``'s ``binding.validate(pomdp)`` reaches
    ``GroupActionBinding.validate`` alone, though ``Pomdp`` has a
    ``validate`` too."""
    functions = _functions(_files())
    envs = next(f for f in _files() if f.module == "envs")
    targets = {key for key, _, _ in _calls(envs.tree, envs, None, [], functions, {})
               if key.endswith(".validate")}
    assert targets == {"pomdp.GroupActionBinding.validate"}
