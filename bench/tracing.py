"""In-memory spans around the public functions of the hmmsv modules.

install() rebinds every public function defined in an hmmsv module, in every
hmmsv namespace that binds it, to a wrapper that records one span per call.
The package imports names with ``from ... import``, so e_step finds
backward_pass through hmmsv.estimator and the decode command finds it
through hmmsv.cli: each binding has to be replaced, not only the defining
one. uninstall() puts the original objects back.

A span's self time is its duration minus the part of it that its child
spans cover.
"""

from __future__ import annotations

import functools
import sys
import types
from dataclasses import dataclass, field
from time import perf_counter


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    op: int | None = None
    error: str | None = None
    size: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; ``op`` tags every span opened while it is set."""

    def __init__(self, sizers=None):
        self.spans: list[Span] = []
        self.op: int | None = None
        self._stack: list[int] = []
        # span name -> function of the call's arguments giving work sizes
        self._sizers = sizers or {}

    def open(self, name: str, size=None) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, perf_counter(), parent=parent, op=self.op, size=size or {}))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int, error: BaseException | None = None) -> None:
        span = self.spans[idx]
        span.end = perf_counter()
        if error is not None:
            span.error = type(error).__name__
        self._stack.pop()

    def wrap(self, name: str, fn):
        sizer = self._sizers.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name, sizer(*args, **kwargs) if sizer else None)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                self.close(idx, exc)
                raise
            self.close(idx)
            return out

        return traced


def hmmsv_modules() -> list[types.ModuleType]:
    return [mod for name, mod in sorted(sys.modules.items()) if name == "hmmsv" or name.startswith("hmmsv.")]


def span_name(fn) -> str:
    """'<module>.<function>' with the defining module's last dotted part."""
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


def install(tracer: Tracer) -> list[tuple[types.ModuleType, str, object]]:
    """Wrap every public hmmsv function wherever it is bound; returns the undo list."""
    wrappers: dict[int, object] = {}
    undo = []
    for mod in hmmsv_modules():
        for attr, val in list(vars(mod).items()):
            if attr.startswith("_") or not isinstance(val, types.FunctionType):
                continue
            if not val.__module__.startswith("hmmsv"):
                continue
            if id(val) not in wrappers:
                wrappers[id(val)] = tracer.wrap(span_name(val), val)
            undo.append((mod, attr, val))
            setattr(mod, attr, wrappers[id(val)])
    return undo


def uninstall(undo) -> None:
    for mod, attr, val in undo:
        setattr(mod, attr, val)


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Per span: duration minus the union of its children, clipped to the span."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        kids = [(max(lo, s.start), min(hi, s.end)) for lo, hi in children.get(i, [])]
        out.append(s.duration - _covered([(lo, hi) for lo, hi in kids if hi > lo]))
    return out
