"""Leased chain workers: the serving layer's compute substrate.

The paper keeps MCMC chains *resident* — inference is a long-lived
process queries tap into, not a per-request computation.  A
:class:`ChainWorker` is one such resident chain: its own copy-on-write
world (built through the attached chain factory, the PR-2 ``(db,
chain)`` snapshot idiom), its own sampler state, and one
:class:`~repro.core.anytime.ChainRunner` per query sharing that chain,
so repeated queries *continue* sampling instead of restarting — the
same runner :class:`~repro.api.session.Session` caches, lifted out of
the single-owner session into a leasable unit.

A :class:`WorkerPool` owns N such workers and leases them to concurrent
requests with FIFO fairness: ``await acquire()`` either pops an idle
worker or parks the caller in arrival order; ``release()`` hands the
worker straight to the longest-waiting caller (no barging).  The pool
also carries the two maintenance duties the session's runner cache
performs inline:

* **dead-worker eviction** — a worker whose run raised is poisoned
  (its evaluator/view state may be half-updated, exactly the condition
  :meth:`Session._evict_if_dead` guards against); ``release()`` closes
  it and schedules a fresh replacement, built from the last committed
  snapshot *in a worker thread* (a build replays the whole world, far
  too slow for the event loop) and handed to the longest waiter once
  ready;
* **idle keepalive** — :meth:`reap_idle` drops the cached evaluators
  (delta recorders + materialized views) of workers idle past the
  keepalive window, freeing view memory while keeping the chain warm.

Version discipline: every worker records the committed
:attr:`~repro.db.database.Database.version` of the snapshot it was
built from.  The serving session compares it against the version its
request observed and calls :meth:`ChainWorker.rebase` when the world
has moved on — the copy-on-write analogue of PR-5's
repair-or-invalidate routing.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from typing import Any, Dict, List, Optional, Tuple

from repro.core.anytime import ChainRunner
from repro.core.materialized import MaterializedEvaluator
from repro.db.database import Database, Snapshot
from repro.errors import EvaluationError, ServeOverloadError
from repro.mcmc.chain import MarkovChain
from repro.resilience.faults import FaultInjector, FaultPlan, FaultSpec
from repro.resilience.heartbeat import HeartbeatMonitor

__all__ = ["ChainWorker", "WorkerPool", "WorkerRun"]

Row = Tuple[Any, ...]


class WorkerRun:
    """The outcome of one leased run: ranked marginal rows plus the
    cumulative sample count backing them."""

    def __init__(self, rows: Tuple[Row, ...], samples: int, wall: float):
        self.rows = rows
        self.samples = samples
        self.wall = wall


class ChainWorker:
    """One resident inference worker, leased exclusively per run."""

    def __init__(
        self,
        index: int,
        factory: Any,
        snapshot: Snapshot,
        fault_spec: Optional[FaultSpec] = None,
    ):
        self.index = index
        self.factory = factory
        self.version = -1
        self.db: Optional[Database] = None
        self.chain: Optional[MarkovChain] = None
        self._queries: Dict[str, ChainRunner] = {}
        self.last_used = time.monotonic()
        self.leased = False
        self.failed = False
        self.closed = False
        self.runs = 0
        self.rebases = 0
        self._injector: Optional[FaultInjector] = (
            None if fault_spec is None else fault_spec.injector()
        )
        self._build(snapshot)

    # ------------------------------------------------------------------
    def _build(self, snapshot: Snapshot) -> None:
        self.db, self.chain = self.factory.rebased(snapshot)(self.index)
        self.version = snapshot.version

    def rebase(self, snapshot: Snapshot) -> None:
        """Rebuild world + chain from ``snapshot`` (a newer committed
        version); cached evaluators are dropped — their views describe
        the old world."""
        self._drop_queries()
        self._build(snapshot)
        self.rebases += 1

    def _drop_queries(self) -> None:
        for runner in self._queries.values():
            runner.dispose()
        self._queries.clear()

    # ------------------------------------------------------------------
    def run(
        self, fingerprint: str, plan: Any, samples: int, burn_in: int = 0
    ) -> WorkerRun:
        """Advance this worker's chain ``samples`` thinned steps for one
        query and return the cumulative ranked marginals.

        Runs synchronously — the serving layer calls it from a thread
        while holding the lease, so the worker's state is never shared.
        Any exception poisons the worker (``failed``): half-applied
        view state must not serve another request, mirroring the
        session's dead-runner eviction.
        """
        if self.closed:
            raise EvaluationError(f"chain worker {self.index} is closed")
        started = time.perf_counter()
        try:
            if self._injector is not None:
                # Chaos hook: in-process workers have no pid/pipe to
                # kill, so every fatal fault kind degrades to a raised
                # EvaluationError — which rides the normal poison→evict
                # path below, exactly what the harness wants to test.
                self._injector.on_run(self.runs)
            runner = self._queries.get(fingerprint)
            if runner is None:
                runner = ChainRunner(
                    MaterializedEvaluator(self.db, self.chain, [plan])
                )
                self._queries[fingerprint] = runner
            runner.run(samples, burn_in)
        except Exception:
            self.failed = True
            raise
        estimator = runner.evaluator.estimators[0]
        rows = tuple(
            row + (probability,)
            for row, probability in sorted(
                estimator.probabilities().items(), key=lambda kv: (-kv[1], kv[0])
            )
        )
        self.runs += 1
        self.last_used = time.monotonic()
        return WorkerRun(rows, estimator.num_samples, time.perf_counter() - started)

    # ------------------------------------------------------------------
    def reap(self) -> None:
        """Drop cached evaluator/view state but keep the chain warm."""
        self._drop_queries()

    def close(self) -> None:
        self._drop_queries()
        self.closed = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self.closed else ("leased" if self.leased else "idle")
        return f"ChainWorker({self.index}, v{self.version}, {state})"


class WorkerPool:
    """A fixed-size pool of :class:`ChainWorker`\\ s with fair leasing.

    Parameters
    ----------
    factory:
        A chain factory exposing ``rebased(snapshot)`` (e.g.
        :class:`~repro.ie.ner.pdb.SeededChainFactory`) — required, since
        serving correctness depends on rebuilding workers from the
        *current* committed world, never the factory's baked-in corpus.
    size:
        Number of resident workers; the hard concurrency bound on
        probabilistic work.
    keepalive_s:
        Idle window after which :meth:`reap_idle` frees a worker's
        cached view state (``None`` disables reaping).
    fault_plan:
        Optional seeded :class:`~repro.resilience.faults.FaultPlan` for
        chaos testing.  A worker spawned at index *i* carries the plan's
        faults for that index; replacement workers get fresh indexes, so
        a fault fires at most once and the replacement runs clean.
    """

    def __init__(
        self,
        factory: Any,
        size: int,
        *,
        keepalive_s: float | None = None,
        fault_plan: Optional[FaultPlan] = None,
    ):
        if size < 1:
            raise EvaluationError("worker pool needs size >= 1")
        if not callable(getattr(factory, "rebased", None)):
            raise EvaluationError(
                "WorkerPool needs a chain factory with rebased(snapshot) "
                "(e.g. task.chain_factory()); an un-rebasable factory "
                "cannot track committed updates"
            )
        self.factory = factory
        self.size = size
        self.keepalive_s = keepalive_s
        self.fault_plan = fault_plan
        self.heartbeats = HeartbeatMonitor()
        self._workers: List[ChainWorker] = []
        self._idle: deque[ChainWorker] = deque()
        self._waiters: "deque[asyncio.Future[ChainWorker]]" = deque()
        self._snapshot: Optional[Snapshot] = None
        self._next_index = 0
        self._replacements: "set[asyncio.Task[None]]" = set()
        self._started = False
        self._closed = False
        self.leases = 0
        self.evictions = 0
        self.reaped = 0
        # Rebases and runs of evicted workers, so the pool's totals
        # stay cumulative instead of dropping at every eviction.
        self._evicted_rebases = 0
        self._evicted_runs = 0

    # ------------------------------------------------------------------
    def start(self, snapshot: Snapshot) -> None:
        """Build all workers from the current committed snapshot."""
        if self._started:
            raise EvaluationError("worker pool already started")
        self._snapshot = snapshot
        for _ in range(self.size):
            self._workers.append(self._spawn(snapshot))
        self._idle.extend(self._workers)
        self._started = True

    def _spawn(self, snapshot: Snapshot, index: Optional[int] = None) -> ChainWorker:
        if index is None:
            index = self._allocate_index()
        spec = (
            self.fault_plan.for_worker(index)
            if self.fault_plan is not None
            else None
        )
        worker = ChainWorker(index, self.factory, snapshot, fault_spec=spec)
        self.heartbeats.beat(f"worker-{index}")
        return worker

    def _allocate_index(self) -> int:
        index = self._next_index
        self._next_index += 1
        return index

    def note_snapshot(self, snapshot: Snapshot) -> None:
        """Record the latest committed snapshot (used to build
        replacements for evicted workers)."""
        self._snapshot = snapshot

    # ------------------------------------------------------------------
    def _check_usable(self) -> None:
        if self._closed:
            raise EvaluationError("worker pool is closed")
        if not self._started:
            raise EvaluationError("worker pool was not started")

    async def acquire(self, timeout: float | None = None) -> ChainWorker:
        """Lease a worker; FIFO among waiters.  Raises
        :class:`~repro.errors.ServeOverloadError` (``reason="timeout"``)
        when no worker frees up within ``timeout`` seconds.
        """
        self._check_usable()
        if self._idle:
            worker = self._idle.popleft()
            worker.leased = True
            self.leases += 1
            return worker
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._waiters.append(future)
        handle = None
        if timeout is not None:
            def _expire() -> None:
                if not future.done():
                    future.set_exception(
                        ServeOverloadError(
                            f"no chain worker free within {timeout:.1f}s",
                            reason="timeout",
                        )
                    )
            handle = loop.call_later(timeout, _expire)
        try:
            worker = await future
        except asyncio.CancelledError:
            # Lease granted between cancellation and wakeup: return it
            # to the next waiter so the worker is not stranded leased.
            if future.done() and not future.cancelled() and future.exception() is None:
                granted = future.result()
                granted.leased = False
                self._hand_off(granted)
            raise
        finally:
            if handle is not None:
                handle.cancel()
            if future in self._waiters:
                self._waiters.remove(future)
        self.leases += 1
        return worker

    def release(self, worker: ChainWorker) -> None:
        """Return a lease.  A failed/closed worker is evicted — the
        pool-level analogue of ``Session._evict_if_dead`` — and its
        replacement build is scheduled off the event loop; building
        inline here used to stall every tenant for a full world
        rebuild, since release() runs on the loop thread."""
        worker.leased = False
        if self._closed:
            worker.close()
            return
        if worker.failed or worker.closed:
            worker.close()
            self._workers.remove(worker)
            self.heartbeats.drop(f"worker-{worker.index}")
            self.evictions += 1
            self._evicted_rebases += worker.rebases
            self._evicted_runs += worker.runs
            self._schedule_replacement()
            return
        self.heartbeats.beat(f"worker-{worker.index}")
        self._hand_off(worker)

    def _schedule_replacement(self) -> None:
        try:
            loop = asyncio.get_running_loop()
        except RuntimeError:
            # Pool driven synchronously (no loop to stall): build inline.
            self._adopt(self._spawn(self._snapshot))
            return
        task = loop.create_task(self._replace())
        self._replacements.add(task)
        task.add_done_callback(self._replacements.discard)

    async def _replace(self) -> None:
        # Index allocated on the loop thread so concurrent replacements
        # never race on the counter; only the slow build leaves it.
        index = self._allocate_index()
        snapshot = self._snapshot
        worker = await asyncio.to_thread(self._spawn, snapshot, index)
        self._adopt(worker)

    def _adopt(self, worker: ChainWorker) -> None:
        if self._closed:
            worker.close()
            return
        self._workers.append(worker)
        self._hand_off(worker)

    def _hand_off(self, worker: ChainWorker) -> None:
        while self._waiters:
            future = self._waiters.popleft()
            if not future.done():
                worker.leased = True
                future.set_result(worker)
                return
        self._idle.append(worker)

    # ------------------------------------------------------------------
    def reap_idle(self, now: float | None = None) -> int:
        """Free cached view state of workers idle past the keepalive
        window; returns how many were reaped."""
        if self.keepalive_s is None:
            return 0
        now = time.monotonic() if now is None else now
        count = 0
        for worker in self._idle:
            if worker._queries and now - worker.last_used >= self.keepalive_s:
                worker.reap()
                count += 1
        self.reaped += count
        return count

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        return {
            "size": self.size,
            "idle": len(self._idle),
            "leased": sum(1 for w in self._workers if w.leased),
            "queue_depth": len(self._waiters),
            "leases": self.leases,
            "evictions": self.evictions,
            "replacing": len(self._replacements),
            "rebases": self._evicted_rebases + sum(w.rebases for w in self._workers),
            "runs": self._evicted_runs + sum(w.runs for w in self._workers),
            "reaped": self.reaped,
            "versions": sorted({w.version for w in self._workers}),
            "heartbeats": {
                key: round(age, 3) for key, age in self.heartbeats.ages().items()
            },
        }

    def close(self) -> None:
        """Close every worker and fail parked acquirers."""
        self._closed = True
        for task in list(self._replacements):
            task.cancel()
        for future in list(self._waiters):
            if not future.done():
                future.set_exception(
                    ServeOverloadError("worker pool closed", reason="shutdown")
                )
        self._waiters.clear()
        for worker in self._workers:
            worker.close()
        self._workers = []
        self._idle.clear()
