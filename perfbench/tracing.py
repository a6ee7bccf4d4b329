"""Span tracer that times the program's layers from outside.

The benchmark changes no program code: :class:`Tracer` wraps the public
functions the program calls (as bound in the modules that call them) and
records a span per call — name, start, end, parent — in memory.  A
layer's *self* time is its span's duration minus the time of the child
spans it contains.  The BAT closures run hundreds of thousands of times
per sweep, so they are a *leaf* layer: each call is timed and charged to
the enclosing span, but only the per-layer totals are kept.

Spans are written at the end of a run as Chrome trace-event JSON (open it
in ``chrome://tracing`` or https://ui.perfetto.dev).
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from contextlib import ExitStack, contextmanager
from typing import Callable, Dict, Iterator, List, Tuple
from unittest import mock

_clock = time.perf_counter


class _ThreadState:
    """One thread's open-span stack and per-layer totals."""

    def __init__(self, tid: int) -> None:
        self.tid = tid
        self.stack: List[list] = []  # [name, child seconds, span id]
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)


class Tracer:
    """In-memory span recorder; see the module docstring."""

    def __init__(self) -> None:
        self.origin = _clock()
        #: ``(id, parent id or 0, name, tid, start, end, self, args)``
        self.spans: List[Tuple] = []
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            with self._lock:
                state = _ThreadState(len(self._states) + 1)
                self._states.append(state)
            self._local.state = state
        return state

    @contextmanager
    def region(self, name: str, **args) -> Iterator[None]:
        """Record the enclosed block as one span named ``name``."""
        state = self._state()
        parent = state.stack[-1] if state.stack else None
        frame = [name, 0.0, next(self._ids)]
        state.stack.append(frame)
        start = _clock()
        try:
            yield
        finally:
            end = _clock()
            state.stack.pop()
            duration = end - start
            own = duration - frame[1]
            state.calls[name] += 1
            state.self_s[name] += own
            state.total_s[name] += duration
            if parent is not None:
                parent[1] += duration
            self.spans.append(
                (frame[2], parent[2] if parent else 0, name, state.tid,
                 start, end, own, args)
            )

    def span(self, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped so every call records a span."""
        region = self.region

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with region(name):
                return fn(*args, **kwargs)

        return traced

    def leaf(self, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped so calls are timed and counted but not stored."""
        state_of = self._state

        def traced(*args):
            start = _clock()
            try:
                return fn(*args)
            finally:
                elapsed = _clock() - start
                state = state_of()
                state.calls[name] += 1
                state.self_s[name] += elapsed
                state.total_s[name] += elapsed
                if state.stack:
                    state.stack[-1][1] += elapsed

        return traced

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per-layer ``calls``, ``self_s`` and ``total_s`` over all threads."""
        merged: Dict[str, Dict[str, float]] = {}
        with self._lock:
            states = list(self._states)
        for state in states:
            for name, calls in state.calls.items():
                entry = merged.setdefault(
                    name, {"calls": 0, "self_s": 0.0, "total_s": 0.0}
                )
                entry["calls"] += calls
                entry["self_s"] += state.self_s[name]
                entry["total_s"] += state.total_s[name]
        return merged

    def write_chrome(self, path: str, metadata: Dict) -> None:
        """Write the spans as Chrome trace-event JSON to ``path``."""
        pid = os.getpid()
        events = [
            {
                "name": name,
                "ph": "X",
                "pid": pid,
                "tid": tid,
                "ts": round((start - self.origin) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "args": {"id": span_id, "parent": parent,
                         "self_us": round(own * 1e6, 3), **args},
            }
            for span_id, parent, name, tid, start, end, own, args in self.spans
        ]
        document = {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": dict(metadata, layers=self.totals()),
        }
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        with open(path, "w") as handle:
            json.dump(document, handle)


def _span_calls(tracer: Tracer, stack: ExitStack, targets) -> None:
    """Wrap every ``(owner, attribute, layer name)`` so calls record spans."""
    for owner, attr, name in targets:
        stack.enter_context(mock.patch.object(
            owner, attr, tracer.span(name, getattr(owner, attr))
        ))


def install_sweep_layers(tracer: Tracer, stack: ExitStack) -> None:
    """Wrap the sweep pipeline's layers, as bound where they are called.

    The wrappers stay installed until ``stack`` closes.
    """
    import repro.analysis.lockstep as lockstep
    import repro.analysis.wcrt as wcrt
    import repro.experiments.fig2 as fig2
    import repro.experiments.runner as runner
    import repro.experiments.stateplane as stateplane
    import repro.experiments.supervisor as supervisor

    _span_calls(tracer, stack, [
        (stateplane, "generate_taskset", "generation"),
        (runner, "generate_taskset", "generation"),
        (runner, "prefill_batch", "compile"),
        (runner, "check_schedulability_batch", "analysis"),
        (runner, "check_schedulability", "analysis"),
        (fig2, "schedulability_ratios", "aggregate"),
        (fig2, "max_gap", "aggregate"),
        (runner, "schedulability_ratios", "aggregate"),
        (supervisor.SweepSupervisor, "run", "supervisor"),
    ])
    for module in (wcrt, lockstep):
        make_bat = module.make_bat

        @functools.wraps(make_bat)
        def traced_make_bat(ctx, task, make_bat=make_bat):
            return tracer.leaf("bat", make_bat(ctx, task))

        stack.enter_context(mock.patch.object(module, "make_bat", traced_make_bat))


def install_service_layers(tracer: Tracer, stack: ExitStack) -> None:
    """Wrap the service request path's layers until ``stack`` closes."""
    import repro.resultcache as resultcache
    import repro.service.daemon as daemon
    import repro.service.pool as pool

    _span_calls(tracer, stack, [
        (daemon, "parse_request", "service.parse"),
        (daemon, "request_fingerprint", "service.fingerprint"),
        (resultcache.ResultCache, "get", "service.cache_get"),
        (resultcache.ResultCache, "put", "service.cache_put"),
        (resultcache.WarmSeedStore, "put", "service.seed_put"),
        (pool.AnalysisPool, "run", "service.pool"),
        (daemon.AnalysisService, "handle", "service.handle"),
    ])
