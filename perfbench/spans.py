"""In-memory spans recorded from outside the traced program.

A :class:`Tracer` wraps callables so that each call records a span: name,
start, end, the span that was open when it began (its parent), a
replication id, and optional work counts.  The program is single-threaded
under the benchmark, so the innermost open span is the parent.

A span's self time is its duration minus the measure of the union of its
children's intervals, clipped to the span; children may nest or overlap.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None     # index of the parent span, None at the top
    rep: int               # replication id; -1 before the first replication
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def union_length(intervals, lo: float = float("-inf"),
                 hi: float = float("inf")) -> float:
    """Measure of the union of (start, end) intervals clipped to [lo, hi]."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Self time of every span: its duration minus its children's union."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for sp in spans:
        if sp.parent is not None:
            children[sp.parent].append((sp.start, sp.end))
    return [sp.duration - union_length(ch, sp.start, sp.end)
            for sp, ch in zip(spans, children)]


class HookMissing(LookupError):
    """A name the tracer wraps no longer exists in the program."""


@dataclass(frozen=True)
class Hook:
    target: str            # dotted path: module, then attributes
    span: str
    counts: object = None  # fn(bound arguments, result) -> dict of counts
    new_rep: bool = False  # the call starts a new replication


def resolve(target: str):
    """(owner, attribute) for a dotted path, or HookMissing naming it."""
    parts = target.split(".")
    for i in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:i]))
        except ImportError:
            continue
        for attr in parts[i:-1]:
            if not hasattr(owner, attr):
                raise HookMissing(target)
            owner = getattr(owner, attr)
        attr = parts[-1]
        # a class must define the attribute itself: every class has a
        # __call__, for one
        if (attr not in vars(owner) if isinstance(owner, type)
                else not hasattr(owner, attr)):
            raise HookMissing(target)
        return owner, attr
    raise HookMissing(target)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.rep = -1
        self._open: list[int] = []

    @property
    def _parent(self) -> int | None:
        return self._open[-1] if self._open else None

    def begin(self, name: str) -> int:
        self.spans.append(Span(name, self.clock(), 0.0, self._parent,
                               self.rep))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, idx: int) -> None:
        self.spans[idx].end = self.clock()
        self._open.remove(idx)

    def wrap(self, hook: Hook, fn):
        sig = None
        if hook.counts is not None:
            sig = inspect.signature(fn)

        def traced(*args, **kwargs):
            if hook.new_rep:
                self.rep += 1
            idx = self.begin(hook.span)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if sig is not None:
                bound = sig.bind(*args, **kwargs).arguments
                self.spans[idx].counts = hook.counts(bound, out)
            return out

        return traced

    @contextlib.contextmanager
    def installed(self, hooks):
        """Replace every hooked name with its traced wrapper, then restore.

        All names are resolved before any is replaced, so a missing one
        raises :class:`HookMissing` and leaves the program untouched.
        """
        resolved = [(resolve(h.target), h) for h in hooks]
        saved = []
        try:
            for (owner, attr), hook in resolved:
                orig = getattr(owner, attr)
                saved.append((owner, attr, orig))
                setattr(owner, attr, self.wrap(hook, orig))
            yield self
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)

    def to_json(self) -> list[dict]:
        return [{"name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, "rep": s.rep, "counts": s.counts}
                for s in self.spans]
