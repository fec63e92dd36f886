"""Span recording around the public boundaries of equipomdp's layers.

Spans are recorded from outside the package: each boundary is a module
function or class method that gets replaced, for the duration of a unit, by a
wrapper that opens a span, calls the original and closes the span. A name is
patched where its caller looks it up (``agent.clip_grad_norm``, not
``autodiff.clip_grad_norm``), so the wrapper sees exactly the calls the
training loop and the oracle make. Nothing in the package is edited.

Spans live in flat lists in memory and are written out once, at the end of a
run. Spans whose name starts with ``trace.`` are the tracer's own work (graph
node counting); their time is taken out of every enclosing span.
"""

from __future__ import annotations

import functools
import inspect
import time
from dataclasses import dataclass

OWN_PREFIX = "trace."


class Tracer:
    """In-memory span store: name, start, end, parent, label and unit per span."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.labels: list[str] = []
        self.units: list[str] = []
        self.counts: dict[tuple[str, str, str], float] = {}
        self.stack: list[int] = []
        self.label = ""
        self.unit = ""

    def begin(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.labels.append(self.label)
        self.units.append(self.unit)
        self.ends.append(0.0)
        self.stack.append(i)
        self.starts.append(time.perf_counter())
        return i

    def end(self, i: int) -> None:
        self.ends[i] = time.perf_counter()
        self.stack.pop()

    def count(self, name: str, amount: float = 1.0) -> None:
        key = (self.unit, self.label, name)
        self.counts[key] = self.counts.get(key, 0.0) + amount

    def spans_of(self, unit: str) -> list[int]:
        return [i for i, u in enumerate(self.units) if u == unit]

    def write_tsv(self, path) -> None:
        with open(path, "w") as f:
            f.write("index\tunit\tlabel\tname\tstart_s\tend_s\tparent\n")
            for i, name in enumerate(self.names):
                f.write(f"{i}\t{self.units[i]}\t{self.labels[i]}\t{name}\t"
                        f"{self.starts[i]:.9f}\t{self.ends[i]:.9f}\t{self.parents[i]}\n")


@dataclass(frozen=True)
class PatchPoint:
    owner: object       # module or class holding the name
    attr: str           # the name as the caller looks it up
    span: str           # span name recorded around each call
    hook: object = None  # hook(tracer, bound_arguments, result) run after the span


class Probe:
    """Installs and removes span wrappers on a set of patch points."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._saved: list[tuple[object, str, object, bool]] = []

    def install(self, points, required: bool) -> list[str]:
        """Wrap every point; returns the names that do not exist in this build.
        A missing point raises when ``required`` is set."""
        missing = []
        for p in points:
            if not hasattr(p.owner, p.attr):
                label = f"{getattr(p.owner, '__name__', p.owner)}.{p.attr}"
                if required:
                    raise AttributeError(f"required patch point {label} is missing")
                missing.append(label)
                continue
            own = p.attr in vars(p.owner)
            original = inspect.getattr_static(p.owner, p.attr) if own else getattr(p.owner, p.attr)
            setattr(p.owner, p.attr, _wrap(self.tracer, original, p))
            self._saved.append((p.owner, p.attr, original, own))
        return missing

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original, own = self._saved.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


def _wrap(tracer: Tracer, fn, point: PatchPoint):
    hook = point.hook
    name = point.span
    sig = inspect.signature(fn) if hook is not None else None

    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        i = tracer.begin(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.end(i)
        if hook is not None:
            hook(tracer, sig.bind(*args, **kwargs).arguments, out)
        return out

    return wrapped


@dataclass
class Profile:
    """One unit's spans summed per (name, label) and per (name, "")."""

    calls: dict
    duration: dict      # with the tracer's own work removed
    self_time: dict     # duration minus the durations of direct children
    counts: dict
    top_level_s: float  # summed duration of spans without a parent
    spans: int


def profile(tracer: Tracer, unit: str) -> Profile:
    """Summarise the spans and counts filed under ``unit``.

    Time spent in ``trace.*`` spans is removed from every ancestor before
    self times are taken.
    """
    idx = tracer.spans_of(unit)
    duration = {i: tracer.ends[i] - tracer.starts[i] for i in idx}
    for i in idx:
        if tracer.names[i].startswith(OWN_PREFIX):
            p = tracer.parents[i]
            while p >= 0:
                duration[p] -= tracer.ends[i] - tracer.starts[i]
                p = tracer.parents[p]
    self_time = dict(duration)
    for i in idx:
        p = tracer.parents[i]
        if p >= 0 and not tracer.names[i].startswith(OWN_PREFIX):
            self_time[p] -= duration[i]
    out = Profile({}, {}, {}, {}, 0.0, len(idx))
    for i in idx:
        for key in {(tracer.names[i], ""), (tracer.names[i], tracer.labels[i])}:
            out.calls[key] = out.calls.get(key, 0) + 1
            out.duration[key] = out.duration.get(key, 0.0) + duration[i]
            out.self_time[key] = out.self_time.get(key, 0.0) + self_time[i]
        if tracer.parents[i] < 0:
            out.top_level_s += duration[i]
    for (u, label, name), v in tracer.counts.items():
        if u == unit:
            for key in {(name, label), (name, "")}:
                out.counts[key] = out.counts.get(key, 0.0) + v
    return out


def count_graph_nodes(root) -> int:
    """Nodes reachable from ``root`` through ``parents``: what backward visits."""
    seen = {id(root)}
    stack = [root]
    while stack:
        node = stack.pop()
        for p in node.parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)
