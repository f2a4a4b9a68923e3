"""Outside-in tracer: spans around the program's public layer boundaries.

The tracer never edits the program. :meth:`Tracer.install` imports every
``repro`` module and replaces each boundary function (see
:data:`layers.BOUNDARIES`) with a timing wrapper *at every module that
binds it*: ``from repro.x import f`` copies the function object into the
importing module, so patching only the defining module would miss those
call sites. Methods are wrapped on the class that defines them (and on
every subclass that overrides them).

Each thread keeps its own span stack, so nesting is exact per thread.
Jobs handed to :meth:`repro.gemm.pool.WorkerPool.submit` are wrapped too:
the wrapper remembers the submitting span (the job's parent, across
threads) and the submit time, which gives the pool's queue wait.

Spans are held in memory as ``(id, parent, name, start_ns, end_ns)``
tuples and only turned into per-layer numbers by :func:`account` after
the measured phase ends.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import pkgutil
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

import layers

#: Name of the span around every pool job on its worker thread.
POOL_JOB = "gemm.pool.job"

Hook = Callable[..., Any]


class Tracer:
    """Records spans and boundary counters while :attr:`active` is set."""

    def __init__(self) -> None:
        self.active = False
        self.spans: List[Tuple[int, int, str, int, int]] = []
        self.counts: Dict[str, int] = defaultdict(int)
        #: Span id -> query kind, for ``serve.compute_answer`` spans.
        self.kinds: Dict[int, str] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    # -- span bookkeeping ---------------------------------------------------

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int:
        """Innermost open span of this thread (0 when there is none)."""
        stack = self._stack()
        return stack[-1] if stack else getattr(self._local, "base", 0)

    def add(self, name: str, amount: int) -> None:
        """Add to a boundary counter (callable from any thread)."""
        with self._lock:
            self.counts[name] += amount

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict,
             before: Optional[Hook] = None,
             after: Optional[Hook] = None) -> Any:
        """Run ``fn`` inside a span named ``name``.

        ``before(args)`` runs outside the span; its value is passed to
        ``after(state, args, result, span_id)``, which also runs outside
        the span, so reading counters does not count as layer time.
        """
        state = before(args) if before is not None else None
        parent = self.current()
        sid = next(self._ids)
        stack = self._stack()
        stack.append(sid)
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.spans.append((sid, parent, name, start, end))
        if after is not None:
            after(state, args, result, sid)
        return result

    def wrap(self, fn: Callable, name: str, before: Optional[Hook] = None,
             after: Optional[Hook] = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not tracer.active:
                return fn(*args, **kwargs)
            return tracer.call(name, fn, args, kwargs, before, after)

        return traced

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Import the whole package, then wrap every boundary binding."""
        import repro

        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            if not info.name.endswith("__main__"):
                importlib.import_module(info.name)
        modules = [
            m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "repro" or n.startswith("repro."))
        ]
        hooks = _hooks(self)
        for boundary in layers.BOUNDARIES:
            before, after = hooks.get(boundary.span, (None, None))
            if boundary.cls is None:
                self._patch_function(modules, boundary, before, after)
            else:
                self._patch_method(modules, boundary, before, after)
        self._patch_submit()

    def _patch_function(self, modules, boundary, before, after) -> None:
        original = getattr(importlib.import_module(boundary.module),
                           boundary.attr)
        wrapper = self.wrap(original, boundary.span, before, after)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)

    def _patch_method(self, modules, boundary, before, after) -> None:
        base = getattr(importlib.import_module(boundary.module), boundary.cls)
        classes = {base}
        for module in modules:
            for value in vars(module).values():
                if isinstance(value, type) and issubclass(value, base):
                    classes.add(value)
        for cls in classes:
            original = cls.__dict__.get(boundary.attr)
            if original is not None:
                setattr(cls, boundary.attr,
                        self.wrap(original, boundary.span, before, after))

    def _patch_submit(self) -> None:
        from repro.gemm.pool import WorkerPool

        tracer = self
        original = WorkerPool.submit

        @functools.wraps(original)
        def submit(pool: Any, fn: Callable[[], Any]) -> Any:
            if not tracer.active:
                return original(pool, fn)
            parent = tracer.current()
            submitted = time.perf_counter_ns()

            def job() -> Any:
                tracer.add("gemm.pool.queue_wait_ns",
                           time.perf_counter_ns() - submitted)
                tracer._local.base = parent
                try:
                    return tracer.call(POOL_JOB, fn, (), {})
                finally:
                    tracer._local.base = 0

            return original(pool, job)

        WorkerPool.submit = submit


# -- boundary counters --------------------------------------------------------


def _hierarchy_totals(hierarchy: Any) -> Tuple[int, int]:
    """(line accesses, scalar-fallback accesses) over every cache level."""
    accesses = sum(c.stats.accesses for c in hierarchy.all_caches().values())
    return accesses, hierarchy.batched_fallback_accesses()


def _hooks(tracer: Tracer) -> Dict[str, Tuple[Optional[Hook], Optional[Hook]]]:
    """Per-span ``(before, after)`` hooks that harvest boundary counts.

    Only public APIs are read: the hierarchy's per-level stats and
    ``batched_fallback_accesses()``, returned traces and pipeline results.
    """

    def walk_before(args: tuple) -> Tuple[int, int]:
        return _hierarchy_totals(args[0])

    def walk_after(state, args, result, sid) -> None:
        accesses, fallback = _hierarchy_totals(args[0])
        tracer.add("memory.accesses", accesses - state[0])
        tracer.add("memory.fallback_accesses", fallback - state[1])

    def traces_after(state, args, result, sid) -> None:
        warm, main, _ = result
        tracer.add("sim.gebp_traces.records", len(warm) + len(main))

    def cycles_after(state, args, result, sid) -> None:
        tracer.add("pipeline.cycles", result.cycles)

    def kind_after(state, args, result, sid) -> None:
        tracer.kinds[sid] = args[0]["kind"]

    return {
        "memory.run_batch": (walk_before, walk_after),
        "memory.run_batch_levels": (walk_before, walk_after),
        "sim.gebp_traces": (None, traces_after),
        "pipeline.run": (None, cycles_after),
        "pipeline.run_compiled": (None, cycles_after),
        "serve.compute_answer": (None, kind_after),
    }


# -- accounting ---------------------------------------------------------------


def account(
    spans: Iterable[Tuple[int, int, str, int, int]],
    windows: Iterable[Tuple[int, int]],
) -> Tuple[Dict[int, float], float]:
    """Split the measured windows' wall time among the spans.

    At every instant the time goes, in equal shares, to the innermost
    open spans (those with no open child, across threads); time inside a
    window with no open span is *other*. A span's self time is therefore
    its duration minus the part its children cover, and on a pool the
    concurrent jobs share the wall clock instead of double-counting it.
    The self times plus *other* add up to the windows' total duration.

    Returns ``({span_id: self_ns}, other_ns)``.
    """
    parent_of: Dict[int, int] = {}
    events: List[Tuple[int, int, int]] = []
    for sid, parent, _name, start, end in spans:
        parent_of[sid] = parent
        events.append((start, 2, sid))
        events.append((end, 1, sid))
    for start, end in windows:
        events.append((start, 3, 0))
        events.append((end, 0, 0))
    # At equal times: windows close, spans end, spans start, windows open.
    events.sort()
    self_ns: Dict[int, float] = defaultdict(float)
    open_children: Dict[int, int] = defaultdict(int)
    open_spans = set()
    leaves = set()
    other = 0.0
    in_window = 0
    last = None
    for when, kind, sid in events:
        if last is not None and when > last and in_window:
            elapsed = when - last
            if leaves:
                share = elapsed / len(leaves)
                for leaf in leaves:
                    self_ns[leaf] += share
            else:
                other += elapsed
        last = when
        if kind == 3:
            in_window += 1
        elif kind == 0:
            in_window -= 1
        elif kind == 2:
            open_spans.add(sid)
            leaves.add(sid)
            parent = parent_of[sid]
            if parent in open_spans:
                open_children[parent] += 1
                leaves.discard(parent)
        else:
            open_spans.discard(sid)
            leaves.discard(sid)
            parent = parent_of[sid]
            if parent in open_spans:
                open_children[parent] -= 1
                if open_children[parent] == 0:
                    leaves.add(parent)
    return self_ns, other
