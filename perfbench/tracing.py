"""In-memory spans around the public functions of the bwv layers.

A traced child process calls ``install(tracer)`` before it enters bwv.
Every module-level public function of each layer is wrapped once, and the
wrapper is bound at every name that refers to the original: the defining
module and every module that imported it with ``from .x import y``.  A call
through any binding therefore yields one span named ``<layer>.<function>``.
``ExactMatrix.det`` is wrapped as well.  Other class methods are not, so
exact arithmetic done inside ``exactalg`` classes counts as the caller's
self time.

Spans stay in memory as flat lists and are summarized when the child ends.
"""

from __future__ import annotations

import time
from collections import defaultdict

LAYERS = ("exactalg", "vanhove", "brmatrices", "besselnum", "harness", "cli")


class Tracer:
    """Records spans (name, start, end, parent) and argument repeats of
    memoized functions."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.enabled = True
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.probe_deltas: dict[int, float] = {}
        self._stack: list[int] = []
        self.memo: dict[str, list[int]] = defaultdict(lambda: [0, 0])
        self._memo_seen: dict[str, set] = defaultdict(set)

    def wrap(self, name: str, fn, memoized: bool = False, probe=None):
        """A wrapper recording one span per call of ``fn``.  ``probe`` is a
        zero-argument function whose change over the call is kept."""
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            if memoized:
                key = (args, tuple(sorted(kwargs.items())))
                seen = tracer._memo_seen[name]
                counts = tracer.memo[name]
                counts[0] += 1
                try:
                    if key in seen:
                        counts[1] += 1
                    else:
                        seen.add(key)
                except TypeError:
                    pass
            idx = len(tracer.names)
            tracer.names.append(name)
            tracer.parents.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.ends.append(0.0)
            before = probe() if probe is not None else None
            tracer._stack.append(idx)
            tracer.starts.append(tracer.clock())
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.ends[idx] = tracer.clock()
                tracer._stack.pop()
                if probe is not None:
                    tracer.probe_deltas[idx] = probe() - before

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn
        return traced

    def spans(self):
        """All spans as (name, start, end, parent_index) tuples."""
        return list(zip(self.names, self.starts, self.ends, self.parents))


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus the part of that interval
    covered by its direct children.  ``spans`` holds (name, start, end,
    parent_index) tuples; parent_index is -1 for a root span."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for idx, (name, start, end, parent) in enumerate(spans):
        covered = 0.0
        reach = start
        for cs, ce in sorted(children.get(idx, ())):
            cs, ce = max(cs, reach), min(ce, end)
            if ce > cs:
                covered += ce - cs
                reach = ce
        out.append((end - start) - covered)
    return out


def is_memoized(fn) -> bool:
    """True for functools caches and for closures over a ``cache`` dict."""
    if hasattr(fn, "cache_info"):
        return True
    code = getattr(fn, "__code__", None)
    return code is not None and "cache" in code.co_freevars


def public_functions(module):
    """Module-level public callables defined in ``module`` (not classes)."""
    for attr, obj in sorted(vars(module).items()):
        if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) == module.__name__:
            yield attr, obj


def install(tracer: Tracer, modules, probes=None, extra_methods=()):
    """Wrap the public functions of ``modules`` and rebind every module
    attribute that refers to a wrapped original.  ``modules`` maps a layer
    name to its module; ``probes`` maps a span name to a probe function;
    ``extra_methods`` lists (layer, class, method name) to wrap in place.
    Returns the number of bindings replaced."""
    probes = probes or {}
    wrappers: dict[int, object] = {}
    for layer, module in modules.items():
        for attr, fn in public_functions(module):
            name = f"{layer}.{attr}"
            wrappers[id(fn)] = tracer.wrap(
                name, fn, memoized=is_memoized(fn), probe=probes.get(name))
    bound = 0
    for module in modules.values():
        for attr, obj in list(vars(module).items()):
            wrapper = wrappers.get(id(obj))
            if wrapper is not None:
                setattr(module, attr, wrapper)
                bound += 1
    for layer, cls, method in extra_methods:
        fn = getattr(cls, method)
        setattr(cls, method,
                tracer.wrap(f"{layer}.{cls.__name__}.{method}", fn))
        bound += 1
    return bound


def summarize(tracer: Tracer) -> dict:
    """Per span name: calls, total, longest and self seconds, and for a
    memoized function the calls that repeat an argument; per layer: self
    seconds; plus the probed spans."""
    spans = tracer.spans()
    selfs = self_times(spans)
    by_name: dict[str, dict] = {}
    layer_self: dict[str, float] = defaultdict(float)
    for (name, start, end, _parent), self_s in zip(spans, selfs):
        entry = by_name.setdefault(name, {"calls": 0, "total_s": 0.0,
                                          "max_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["max_s"] = max(entry["max_s"], end - start)
        entry["self_s"] += self_s
        layer_self[name.split(".", 1)[0]] += self_s
    for name, (calls, repeats) in tracer.memo.items():
        by_name[name]["memo_repeats"] = repeats
    probed = [
        {"name": spans[i][0], "seconds": spans[i][2] - spans[i][1],
         "delta": delta}
        for i, delta in sorted(tracer.probe_deltas.items())
    ]
    return {
        "spans": len(spans),
        "by_name": by_name,
        "layer_self_s": dict(layer_self),
        "probed": probed,
    }
