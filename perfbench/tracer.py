"""Span tracer installed from outside the program.

:class:`Tracer` wraps the functions named in :data:`spec.LAYERS` at
their module or class attributes, records one span per call made while
an operation is open, and puts every original attribute back on
:meth:`Tracer.uninstall`.  Nothing under ``src/`` carries a probe.

A span is (layer, start, end, parent span, operation id).  The current
span lives in a :class:`contextvars.ContextVar`, so it follows
``asyncio`` tasks and ``asyncio.to_thread``.  A call nested directly in
a span of its own layer (a proposer delegating to an inner proposer)
stays part of the outer span.  Spans are kept in flat arrays while the
run lasts and written out when it ends.

Calls made outside an operation -- set-up, correctness checks -- are
not recorded.  Sharded worker processes are forked with the wrappers
removed, so their time shows at the ``core.sharded.run`` boundary.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import json
import os
import threading
import time
import weakref
from array import array
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

# (span index, layer id, operation id) of the innermost open span.
_CURRENT: contextvars.ContextVar[Optional[Tuple[int, int, int]]] = (
    contextvars.ContextVar("perfbench_span", default=None)
)

OP_LAYER = 0  # layer id of operation root spans
_MISSING = object()

# Installed tracers, so a forked child can remove their wrappers.
_INSTALLED: "weakref.WeakSet[Tracer]" = weakref.WeakSet()
_FORK_HOOK = []


def _uninstall_in_child() -> None:
    for tracer in list(_INSTALLED):
        tracer.uninstall()


def resolve(target: str) -> Tuple[Any, str, Any]:
    """``"pkg.mod:Class.attr"`` -> (owner, attribute name, raw value).

    The raw value is read from the owner's ``__dict__`` for classes, so
    a classmethod is returned as its descriptor and can be restored by
    identity.
    """
    module_name, _, path = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *parents, name = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    raw = vars(owner).get(name, _MISSING)
    if raw is _MISSING:
        raise AttributeError(f"{target} does not exist")
    return owner, name, raw


class Tracer:
    """Records spans for ``layers`` (name -> targets), call counts for
    ``counters`` (name -> target), and MH step outcomes around the
    ``mh_run`` target (``MetropolisHastings.run``)."""

    def __init__(
        self,
        layers: Dict[str, Sequence[str]],
        counters: Optional[Dict[str, str]] = None,
        mh_run: Optional[str] = None,
    ):
        self.layers = dict(layers)
        self.counters_spec = dict(counters or {})
        self.mh_run = mh_run
        self.names: List[str] = ["op"] + list(self.layers)
        self._lock = threading.Lock()
        self._layer = array("i")
        self._parent = array("i")
        self._op = array("i")
        self._start = array("d")
        self._end = array("d")
        self._op_kind: List[str] = []
        self.counts: Dict[str, int] = {name: 0 for name in self.counters_spec}
        self.mh = {"proposals": 0, "accepted": 0, "noops": 0}
        self._saved: List[Tuple[Any, str, Any]] = []
        self._self_times: Optional[List[float]] = None

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _open(self, layer: int, parent: int, op: int) -> int:
        with self._lock:
            index = len(self._layer)
            self._layer.append(layer)
            self._parent.append(parent)
            self._op.append(op)
            self._start.append(time.perf_counter())
            self._end.append(0.0)
        return index

    def _close(self, index: int) -> None:
        self._end[index] = time.perf_counter()

    @contextmanager
    def op(self, kind: str) -> Iterator[int]:
        """Open an operation root span; layers called inside attach to it."""
        with self._lock:
            op_id = len(self._op_kind)
            self._op_kind.append(kind)
        index = self._open(OP_LAYER, -1, op_id)
        token = _CURRENT.set((index, OP_LAYER, op_id))
        try:
            yield op_id
        finally:
            self._close(index)
            _CURRENT.reset(token)

    def _span_wrapper(self, fn: Callable, layer: int) -> Callable:
        tracer = self
        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                current = _CURRENT.get()
                if current is None or current[1] == layer:
                    return await fn(*args, **kwargs)
                index = tracer._open(layer, current[0], current[2])
                token = _CURRENT.set((index, layer, current[2]))
                try:
                    return await fn(*args, **kwargs)
                finally:
                    tracer._close(index)
                    _CURRENT.reset(token)

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            current = _CURRENT.get()
            if current is None or current[1] == layer:
                return fn(*args, **kwargs)
            index = tracer._open(layer, current[0], current[2])
            token = _CURRENT.set((index, layer, current[2]))
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(index)
                _CURRENT.reset(token)

        return wrapper

    def _count_wrapper(self, fn: Callable, name: str) -> Callable:
        counts = self.counts
        lock = self._lock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if _CURRENT.get() is not None:
                with lock:
                    counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _mh_wrapper(self, fn: Callable) -> Callable:
        """Counts MH steps and their outcomes from the kernel's own
        statistics around each ``MetropolisHastings.run`` call."""
        mh, lock = self.mh, self._lock

        @functools.wraps(fn)
        def wrapper(kernel, num_steps, *args, **kwargs):
            if _CURRENT.get() is None:
                return fn(kernel, num_steps, *args, **kwargs)
            stats = kernel.stats
            before = (stats.proposals, stats.accepted, stats.noops)
            try:
                return fn(kernel, num_steps, *args, **kwargs)
            finally:
                with lock:
                    mh["proposals"] += stats.proposals - before[0]
                    mh["accepted"] += stats.accepted - before[1]
                    mh["noops"] += stats.noops - before[2]

        return wrapper

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    @staticmethod
    def _wrap_raw(raw: Any, make: Callable[[Callable], Callable]) -> Any:
        if isinstance(raw, classmethod):
            return classmethod(make(raw.__func__))
        if isinstance(raw, staticmethod):
            return staticmethod(make(raw.__func__))
        return make(raw)

    def install(self) -> "Tracer":
        if self._saved:
            raise RuntimeError("tracer is already installed")
        plan: List[Tuple[str, Callable[[Callable], Callable]]] = []
        for layer_id, layer in enumerate(self.layers, start=1):
            for target in self.layers[layer]:
                plan.append(
                    (target, lambda fn, lid=layer_id: self._span_wrapper(fn, lid))
                )
        for name, target in self.counters_spec.items():
            plan.append((target, lambda fn, n=name: self._count_wrapper(fn, n)))
        if self.mh_run is not None:
            plan.append((self.mh_run, self._mh_wrapper))
        try:
            for target, make in plan:
                owner, attr, raw = resolve(target)
                self._saved.append((owner, attr, raw))
                setattr(owner, attr, self._wrap_raw(raw, make))
        except BaseException:
            self.uninstall()
            raise
        _INSTALLED.add(self)
        if not _FORK_HOOK:
            # A forked worker must run unwrapped code: its spans could
            # never reach this process.
            os.register_at_fork(after_in_child=_uninstall_in_child)
            _FORK_HOOK.append(True)
        return self

    def uninstall(self) -> None:
        """Restore every wrapped attribute to its original object."""
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)
        _INSTALLED.discard(self)

    @property
    def installed(self) -> bool:
        return bool(self._saved)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc_info: object) -> None:
        self.uninstall()

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def spans(self) -> Tuple[array, array, array, array, array]:
        """(layer, parent, op, start, end) arrays; read after the run."""
        return self._layer, self._parent, self._op, self._start, self._end

    def summary(self, ops: Optional[Set[int]] = None) -> Dict[str, Any]:
        """Per-layer calls, self time and total (inclusive) time; op time
        and unattributed time (op time in no named layer).  ``ops``
        limits the summary to those operation ids."""
        layer, parent, op, start, end = self.spans()
        if self._self_times is None or len(self._self_times) != len(layer):
            self._self_times = self_times(layer, parent, start, end)
        own = self._self_times
        calls = [0] * len(self.names)
        self_ms = [0.0] * len(self.names)
        total_ms = [0.0] * len(self.names)
        for index in range(len(layer)):
            if ops is not None and op[index] not in ops:
                continue
            lid = layer[index]
            calls[lid] += 1
            self_ms[lid] += own[index] * 1000.0
            total_ms[lid] += (end[index] - start[index]) * 1000.0
        layers = {
            name: {
                "calls": calls[lid],
                "self_ms": self_ms[lid],
                "total_ms": total_ms[lid],
            }
            for lid, name in enumerate(self.names)
            if lid != OP_LAYER
        }
        op_ms = total_ms[OP_LAYER]
        unattributed = self_ms[OP_LAYER]
        return {
            "layers": layers,
            "ops": calls[OP_LAYER],
            "op_ms": op_ms,
            "unattributed_ms": unattributed,
            "attributed_frac": (op_ms - unattributed) / op_ms if op_ms else 0.0,
            "counters": dict(self.counts),
            "mh": dict(self.mh),
        }

    def write(self, directory: str, stem: str) -> str:
        """Write the spans (binary arrays) and a JSON header; returns the
        header path.  Each array is stored in order layer, parent, op
        (int32), start, end (float64 seconds)."""
        os.makedirs(directory, exist_ok=True)
        data_path = os.path.join(directory, stem + ".spans")
        with open(data_path, "wb") as fh:
            for column in self.spans():
                column.tofile(fh)
        header = {
            "spans": len(self._layer),
            "columns": ["layer:i", "parent:i", "op:i", "start:d", "end:d"],
            "layer_names": self.names,
            "op_kinds": self._op_kind,
            "data": os.path.basename(data_path),
        }
        header_path = os.path.join(directory, stem + ".json")
        with open(header_path, "w") as fh:
            json.dump(header, fh)
        return header_path


def self_times(
    layer: Sequence[int],
    parent: Sequence[int],
    start: Sequence[float],
    end: Sequence[float],
) -> List[float]:
    """Each span's duration minus the part of it its children cover.

    Children may overlap each other (work in several threads under one
    parent); the covered part is the union of their intervals clipped
    to the parent's.
    """
    n = len(layer)
    covered = [0.0] * n
    reach = [float("-inf")] * n  # end of the union covered so far
    for index in sorted(range(n), key=start.__getitem__):
        up = parent[index]
        if up < 0:
            continue
        lo = max(start[index], start[up], reach[up])
        hi = min(end[index], end[up])
        if hi > lo:
            covered[up] += hi - lo
        if hi > reach[up]:
            reach[up] = hi
    return [max(0.0, end[i] - start[i] - covered[i]) for i in range(n)]
