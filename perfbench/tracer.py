"""Outside-in tracing: wrap a package's functions from the benchmark side.

``from .groebner import eliminate`` gives ``detector`` and ``nonproper``
their own binding of ``eliminate``, so patching ``polarvalues.groebner``
alone would miss their calls.  ``Tracer`` therefore rebinds every module
attribute of the package that *is* the target function, and a classmethod
on the class that owns it.  Spans stay in memory; ``restore`` puts every
original binding back.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    name: str
    request: int
    parent: int  # index into Tracer.spans, -1 for a root span
    start: float
    end: float
    self_s: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Wraps ``targets`` -- (span name, module name, qualified name) -- of
    every module under ``package``.

    ``observers`` maps a span name to ``f(tracer, args, kwargs, result)``,
    called after a successful call to add counts; its time is kept out of
    every span's self time and summed in ``observer_s``.
    """

    def __init__(self, package, targets, observers=None,
                 clock=time.perf_counter):
        self.package = package
        self.targets = list(targets)
        self.observers = dict(observers or {})
        self.clock = clock
        self.spans = []
        self.counts = {}
        self.observer_s = 0.0
        self.request = 0
        self._stack = []  # [span index, child seconds] of open spans
        self._restore = []

    # -- installation -----------------------------------------------------

    def _modules(self):
        prefix = self.package + "."
        return [m for name, m in sorted(sys.modules.items())
                if m is not None
                and (name == self.package or name.startswith(prefix))]

    def install(self):
        try:
            self._install()
        except BaseException:
            self.restore()
            raise
        return self

    def _install(self):
        for span_name, module_name, qualname in self.targets:
            owner = sys.modules[module_name]
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            if path:  # a classmethod: one binding, on its class
                original = owner.__dict__[attr]
                wrapped = classmethod(self._wrap(span_name, original.__func__))
                self._rebind(owner, attr, original, wrapped)
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(span_name, original)
            bound = 0
            for module in self._modules():
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, key, original, wrapped)
                        bound += 1
            if not bound:
                raise LookupError("no binding of %s.%s" % (module_name, qualname))

    def _rebind(self, owner, key, original, wrapped):
        setattr(owner, key, wrapped)
        self._restore.append((owner, key, original))

    def restore(self):
        while self._restore:
            owner, key, original = self._restore.pop()
            setattr(owner, key, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- recording --------------------------------------------------------

    def count(self, name, amount=1):
        self.counts[name] = self.counts.get(name, 0) + amount

    def _wrap(self, name, fn):
        tracer = self
        observer = self.observers.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else None
            frame = [len(tracer.spans), 0.0]
            tracer.spans.append(None)  # reserve the index; filled below
            tracer._stack.append(frame)
            start = tracer.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = tracer.clock()
                tracer._stack.pop()
                tracer.spans[frame[0]] = Span(
                    name, tracer.request, parent[0] if parent else -1,
                    start, end, end - start - frame[1])
                if parent:
                    parent[1] += end - start
            if observer is not None:
                began = tracer.clock()
                observer(tracer, args, kwargs, result)
                spent = tracer.clock() - began
                tracer.observer_s += spent
                if parent:
                    parent[1] += spent
            return result

        return wrapper

    # -- aggregation ------------------------------------------------------

    def calls(self, name):
        return sum(1 for s in self.spans if s.name == name)

    def self_s(self, predicate):
        """Summed self time of the spans whose name satisfies predicate."""
        return sum(s.self_s for s in self.spans if predicate(s.name))

    def inclusive_s(self, names):
        """Wall time inside any of ``names``, counting nested calls once."""
        names = set(names)
        total = 0.0
        for span in self.spans:
            if span.name not in names:
                continue
            parent = span.parent
            while parent >= 0 and self.spans[parent].name not in names:
                parent = self.spans[parent].parent
            if parent < 0:
                total += span.duration
        return total
