"""Chain-execution backends: sequential (in-process) and multiprocess.

The paper's §5.4 parallelization copies the initial world and runs up
to eight independent MCMC chains.  Pooling their estimators yields the
*statistical* benefit regardless of how the chains are scheduled; this
module adds the *wall-clock* benefit by running each chain in its own
OS process.

One unit, two drivers.  A :class:`_Unit` is one chain's evaluator plus
the counters its checkpoints carry; it restores, runs, advances by a
DML delta (:func:`~repro.core.live.advance_unit`) and checkpoints
itself.  Two interchangeable backends drive the units built by a
:data:`ChainFactory`:

* :class:`SequentialBackend` — a list of units run one after another
  in the calling process.  Deterministic, dependency-free, and the
  reference semantics: every other backend must produce bit-identical
  pooled marginals for the same factory and seeds.
* :class:`ProcessPoolBackend` — one worker process per unit.  Each
  worker receives a **pickled** ``(database, chain, queries)`` payload
  (the paper's "identical copies of the probabilistic database"),
  restores its unit from it, and serves ``run`` and ``delta`` commands
  over a pipe, so anytime refinement continues the same chains.  The
  parent never builds an evaluator.

:meth:`ChainBackend.start` is the one adopt-or-build loop for both: a
chain with a stored checkpoint is resumed from it, any other is built
by the factory.

Determinism: a chain's sample stream is a pure function of its pickled
RNG state, so ``sequential`` and ``process`` backends produce identical
pooled marginals for identical factories and seeds — the process
boundary only changes *where* the arithmetic happens.  Worker payloads
are explicitly pickled up front even on fork platforms, so a factory
whose products cannot cross a process boundary fails fast with a clear
error rather than behaving differently per platform.

Fault tolerance: with a :class:`~repro.resilience.ResilienceConfig`,
units checkpoint ``(world, RNG state, estimator counts, progress)`` at
sample boundaries.  A process worker streams its checkpoints and
heartbeats back to the supervising parent, counting progress from the
checkpoint it was spawned from; the parent alone turns that into
absolute checkpoint coordinates.  A worker that dies or wedges is
killed, respawned from its latest checkpoint, and driven through a
*replay* of every command issued after that checkpoint; because the
sample stream is a pure function of the checkpointed state, the
recovered chain is bit-identical to one that never crashed.  Without a
config nothing changes: no hooks fire, no extra messages flow, and a
dead worker is a raised :class:`~repro.errors.WorkerCrashError` with
its exit code.

Timing: :class:`EvaluationResult` reports the caller-observed
``wall_elapsed`` and the summed per-chain ``cpu_elapsed`` separately;
speedup is their ratio.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import time
import traceback
from dataclasses import dataclass, replace
from typing import Callable, List, Optional, Sequence, Tuple, Type

from repro.db.database import Database
from repro.db.delta import Delta
from repro.errors import (
    CheckpointError,
    EvaluationError,
    RemoteTraceback,
    RetryExhaustedError,
    WorkerCrashError,
    WorkerTimeoutError,
)
from repro.mcmc.chain import MarkovChain
from repro.core.evaluator import EvaluationResult, QueryEvaluator
from repro.core.live import advance_unit
from repro.core.marginals import MarginalEstimator
from repro.core.materialized import MaterializedEvaluator
from repro.resilience import Checkpoint, ResilienceConfig
from repro.resilience.faults import FaultInjector, FaultSpec
from repro.resilience.heartbeat import HeartbeatMonitor
from repro.rng import make_rng

__all__ = [
    "BACKENDS",
    "pool_estimators",
    "ChainBackend",
    "ChainFactory",
    "ProcessPoolBackend",
    "SequentialBackend",
    "make_backend",
    "validate_backend_name",
]


def default_worker_timeout() -> float | None:
    """Per-reply worker deadline in seconds, from ``REPRO_WORKER_TIMEOUT``
    (default 600; 0 or negative disables the deadline).  An env knob —
    like ``REPRO_SCALE`` for benchmark sizes — so long runs can raise
    the limit at any entry point without API changes."""
    raw = os.environ.get("REPRO_WORKER_TIMEOUT", "600")
    try:
        value = float(raw)
    except ValueError:
        raise EvaluationError(
            f"REPRO_WORKER_TIMEOUT must be a number of seconds "
            f"(<=0 disables), got {raw!r}"
        ) from None
    return value if value > 0 else None

# Builds one chain's world and sampler: ``factory(chain_index) ->
# (database_copy, chain)``.
ChainFactory = Callable[[int], Tuple[Database, MarkovChain]]


def pool_estimators(
    per_chain: Sequence[List[MarginalEstimator]],
) -> List[MarginalEstimator]:
    """Merge per-chain estimator lists (the paper's cross-chain
    averaging: counts and sample totals add).  Shared by the chain
    backends and by ShardedEvaluator's within-shard pooling."""
    merged = [MarginalEstimator() for _ in per_chain[0]]
    for estimators in per_chain:
        for target, source in zip(merged, estimators):
            target.merge(source)
    return merged


# ----------------------------------------------------------------------
# Chain state serialization (shared by checkpoints and worker start-up)
# ----------------------------------------------------------------------
def serialize_chain_state(
    db: Database,
    chain: MarkovChain,
    queries: Sequence,
    evaluator_cls: Type[QueryEvaluator],
    estimators: Optional[List[MarginalEstimator]],
) -> bytes:
    """Pickle one chain's complete resumable state.

    Estimators travel as ``(counts, num_samples)`` pairs rather than
    objects, and the database is pickled with its delta recorders
    suspended: recorders and materialized views belong to the evaluator
    that attached them and are rebuilt deterministically on resume.
    ``estimators=None`` marks a fresh (never-run) chain.
    """
    est_state = (
        None
        if estimators is None
        else [(e.counts(), e.num_samples) for e in estimators]
    )
    with db.suspended_recorders():
        return pickle.dumps((db, chain, tuple(queries), evaluator_cls, est_state))


def _chain_steps(chain) -> int:
    """Cumulative kernel proposals (checkpoint observability only)."""
    stats = getattr(getattr(chain, "kernel", None), "stats", None)
    return int(getattr(stats, "proposals", 0) or 0)


class _Unit:
    """One chain's evaluator plus the counters its checkpoints carry.

    ``seq`` is the sequence number of the unit's latest checkpoint,
    ``commands`` counts finished commands (runs and deltas) and
    ``cpu_total`` the CPU seconds spent in them.  The sequential backend
    keeps these absolute; a process worker starts them at zero and the
    parent adds the checkpoint the worker was spawned from.
    """

    def __init__(
        self,
        evaluator: QueryEvaluator,
        queries: Sequence,
        seq: int = 0,
        cpu_total: float = 0.0,
    ) -> None:
        self.evaluator = evaluator
        self.queries = tuple(queries)
        self.seq = seq
        self.cpu_total = cpu_total
        self.commands = 0
        self._command_started: Optional[float] = None

    @classmethod
    def restore(cls, payload: bytes, seq: int = 0, cpu_total: float = 0.0) -> "_Unit":
        """Rebuild a unit from :func:`serialize_chain_state` output.  Its
        next sample is bit-identical to the one the serialized chain
        would have produced."""
        db, chain, queries, evaluator_cls, est_state = pickle.loads(payload)
        evaluator = evaluator_cls(db, chain, queries)
        if est_state is not None:
            evaluator.estimators = [
                MarginalEstimator.from_counts(counts, samples)
                for counts, samples in est_state
            ]
        return cls(evaluator, queries, seq, cpu_total)

    def run(
        self, samples: int, burn_in: int, include_initial: bool, on_sample=None
    ) -> float:
        """One run command; returns its CPU seconds (burn-in included)."""
        return self._command(
            self.evaluator.run,
            samples,
            on_sample=on_sample,
            include_initial_sample=include_initial,
            burn_in=burn_in,
        )

    def advance(self, delta: Delta) -> float:
        """One delta command; returns its CPU seconds."""
        return self._command(advance_unit, self.evaluator, delta)

    def _command(self, body, *args, **kwargs) -> float:
        # CPU seconds, not wall time, so both backends account alike
        # even when units contend for cores.
        self._command_started = time.process_time()
        body(*args, **kwargs)
        cpu = time.process_time() - self._command_started
        self._command_started = None
        self.cpu_total += cpu
        self.commands += 1
        return cpu

    def checkpoint(
        self, key: str, records_done: int = 0, initial_recorded: bool = False
    ) -> Checkpoint:
        """The unit's state as its next checkpoint.  Taken mid-command
        (from an ``on_sample`` hook), ``records_done`` samples into it,
        the checkpoint's CPU total includes that command so far."""
        self.seq += 1
        cpu_total = self.cpu_total
        if self._command_started is not None:
            cpu_total += time.process_time() - self._command_started
        evaluator = self.evaluator
        return Checkpoint(
            key=key,
            seq=self.seq,
            runs_completed=self.commands,
            records_done=records_done,
            initial_recorded=initial_recorded,
            steps=_chain_steps(evaluator.chain),
            payload=serialize_chain_state(
                evaluator.db,
                evaluator.chain,
                self.queries,
                type(evaluator),
                evaluator.estimators,
            ),
            cpu_total=cpu_total,
        )

    def snapshot(self) -> List[MarginalEstimator]:
        """A snapshot of the estimators, so results handed out now do
        not change when the unit runs again."""
        return [e.copy() for e in self.evaluator.estimators]


class ChainBackend:
    """Common contract of chain-execution backends.

    A backend is *stateful*: :meth:`start` builds ``num_chains`` chains
    from a factory, :meth:`run` advances **all** of them and returns the
    pooled :class:`EvaluationResult`, and repeated ``run()`` calls
    continue the same chains (anytime refinement).  :meth:`close`
    releases chain resources; afterwards the backend is unusable.
    """

    name = "abstract"

    def __init__(self, resilience: ResilienceConfig | None = None) -> None:
        self._started = False
        self._closed = False
        self._resilience = resilience
        self._queries: Tuple = ()
        self._evaluator_cls: Type[QueryEvaluator] = MaterializedEvaluator
        # Per-chain cumulative results from the most recent run().
        self.chain_results: List[EvaluationResult] = []

    def start(
        self,
        factory: ChainFactory,
        num_chains: int,
        queries: Sequence,
        evaluator_cls: Type[QueryEvaluator] = MaterializedEvaluator,
    ) -> None:
        """Resume every chain that has a stored checkpoint, and build the
        others with ``factory``."""
        if num_chains < 1:
            raise EvaluationError("need at least one chain")
        store = self._store()
        self._queries = tuple(queries)
        self._evaluator_cls = evaluator_cls
        try:
            for index in range(num_chains):
                key = self._key(index)
                stored = store.latest(key) if store is not None else None
                if stored is None:
                    self._add_built(index, key, *factory(index))
                    continue
                # Supervisor restart: resume the stored state, re-based
                # to this backend's (empty) command history so later
                # replay math stays consistent.
                stored = replace(
                    stored,
                    seq=stored.seq + 1,
                    runs_completed=0,
                    records_done=0,
                    initial_recorded=False,
                )
                store.put(stored)
                self._add_stored(index, stored)
        except BaseException:
            self.close()
            raise
        self._started = True

    def _add_built(
        self, index: int, key: str, db: Database, chain: MarkovChain
    ) -> None:
        """Take on a chain freshly built by the factory."""
        raise NotImplementedError

    def _add_stored(self, index: int, checkpoint: Checkpoint) -> None:
        """Take on a chain resumed from ``checkpoint``."""
        raise NotImplementedError

    def run(
        self,
        samples_per_chain: int,
        burn_in: int = 0,
        include_initial: bool = True,
    ) -> EvaluationResult:
        raise NotImplementedError

    def advance(self, deltas: Sequence[Delta]) -> None:
        """Move every chain forward by its delta (``deltas[i]`` for
        chain ``i``) through :func:`~repro.core.live.advance_unit`:
        apply, repair, locally re-burn, re-pool.  Raises when a chain
        cannot follow deltas; the caller then rebuilds the backend."""
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Shared bookkeeping
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        """Whether the backend has released its chains (a closed
        backend cannot run again; callers should rebuild)."""
        return self._closed

    def _check_started(self) -> None:
        if self._closed:
            raise EvaluationError(f"{self.name} backend is closed")
        if not self._started:
            raise EvaluationError(f"{self.name} backend was not started")

    def _store(self):
        """The checkpoint store, or ``None`` when checkpointing is off."""
        resil = self._resilience
        if resil is None or resil.checkpoint_every == 0:
            return None
        return resil.ensure_store()

    def _key(self, index: int) -> str:
        resil = self._resilience
        return resil.key_for(index) if resil is not None else f"chain:{index}"

    def _seq0(self, key: str, db: Database, chain: MarkovChain) -> Checkpoint:
        """The seq-0 checkpoint of a freshly built chain: recovery can
        always assume a checkpoint exists, even before the first
        cadence."""
        try:
            payload = serialize_chain_state(
                db, chain, self._queries, self._evaluator_cls, None
            )
        except Exception as exc:
            raise EvaluationError(
                f"{self.name} backend requires picklable chain snapshots "
                "(process workers and checkpoints ship them); "
                f"{key} failed to pickle: {exc!r} "
                "(closures in templates/proposers are the usual cause; "
                "use bound methods or module-level functions)"
            ) from exc
        return Checkpoint(
            key=key,
            seq=0,
            runs_completed=0,
            records_done=0,
            initial_recorded=False,
            steps=_chain_steps(chain),
            payload=payload,
        )

    def __enter__(self) -> "ChainBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class SequentialBackend(ChainBackend):
    """Units run one after another in the calling process.

    The deterministic fallback and reference implementation; also the
    right choice for a single chain or when worker start-up cost would
    dominate a short run.

    With a resilience config the backend writes a checkpoint per unit
    after every command (and adopts existing checkpoints at
    ``start()``), which with a :class:`~repro.resilience.DiskCheckpointStore`
    survives the *calling process* — retries and fault injection do not
    apply in-process, where a worker crash is the caller's crash.
    """

    name = "sequential"

    def __init__(self, resilience: ResilienceConfig | None = None) -> None:
        super().__init__(resilience)
        self._units: List[_Unit] = []

    def _add_built(
        self, index: int, key: str, db: Database, chain: MarkovChain
    ) -> None:
        store = self._store()
        if store is not None:
            store.put(self._seq0(key, db, chain))
        evaluator = self._evaluator_cls(db, chain, self._queries)
        self._units.append(_Unit(evaluator, self._queries))

    def _add_stored(self, index: int, checkpoint: Checkpoint) -> None:
        self._units.append(
            _Unit.restore(checkpoint.payload, checkpoint.seq, checkpoint.cpu_total)
        )

    def run(
        self,
        samples_per_chain: int,
        burn_in: int = 0,
        include_initial: bool = True,
    ) -> EvaluationResult:
        self._check_started()
        started = time.perf_counter()
        cpu = 0.0
        self.chain_results = []
        for index, unit in enumerate(self._units):
            cpu += unit.run(samples_per_chain, burn_in, include_initial)
            self._checkpoint(index, unit)
            self.chain_results.append(
                EvaluationResult(unit.snapshot(), unit.cpu_total, unit.cpu_total)
            )
        wall = time.perf_counter() - started
        per_chain = [result.estimators for result in self.chain_results]
        return EvaluationResult(pool_estimators(per_chain), wall, cpu)

    def advance(self, deltas: Sequence[Delta]) -> None:
        self._check_started()
        for index, (unit, delta) in enumerate(zip(self._units, deltas)):
            unit.advance(delta)
            # A delta is a completed command like a run, and is
            # checkpointed at once: adoption must never resume a
            # pre-delta world.
            self._checkpoint(index, unit)

    def _checkpoint(self, index: int, unit: _Unit) -> None:
        store = self._store()
        if store is not None:
            store.put(unit.checkpoint(self._key(index)))

    def close(self) -> None:
        for unit in self._units:
            detach = getattr(unit.evaluator, "detach", None)
            if detach is not None:
                detach()
        self._units = []
        self._closed = True


# ----------------------------------------------------------------------
# Multiprocess backend
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _WorkerConfig:
    """Supervision knobs shipped to one worker incarnation: checkpoint
    and heartbeat cadences (in recorded samples) and its fault spec."""

    checkpoint_every: int
    heartbeat_every: int
    fault_spec: Optional[FaultSpec] = None


class _ChainWorker:
    """Worker-process side of the chain protocol: serves one
    :class:`_Unit` over a pipe.

    Commands from the parent: ``("run", samples, burn_in,
    include_initial)``, ``("delta", delta)`` (advance the unit by one
    DML delta) and ``("stop",)``.  Replies: ``("ok", estimators, cpu)``
    per run or delta and ``("error", traceback_text)`` on failure.  With
    a :class:`_WorkerConfig`, ``("hb",)`` heartbeats and ``("ckpt",
    checkpoint)`` / ``("ckpt_fail", seq, message)`` messages interleave
    ahead of the ``ok`` — the parent treats any message as proof of
    life.  Checkpoints count from the state the worker was spawned
    from: ``seq`` 1 is its first, ``runs_completed`` its own commands.
    """

    def __init__(self, conn, payload: bytes, config: Optional[_WorkerConfig]):
        self.conn = conn
        self.config = config
        self.unit = _Unit.restore(payload)
        self.injector: Optional[FaultInjector] = None
        if config is not None and config.fault_spec is not None:
            self.injector = config.fault_spec.injector(pipe_dropper=conn.close)
        self.checkpointing = config is not None and config.checkpoint_every > 0
        self.samples_total = 0
        self.last_ckpt_at = 0
        self.include_initial = False

    # ------------------------------------------------------------------
    def serve(self) -> None:
        while True:
            try:
                message = self.conn.recv()
            except EOFError:
                return
            if message[0] == "stop":
                return
            if message[0] == "delta":
                cpu = self.unit.advance(message[1])
                # Checkpointed at once so no respawn resumes a pre-delta
                # world.
                if self.checkpointing:
                    self._checkpoint()
            else:
                _, samples, burn_in, self.include_initial = message
                hook = self._on_sample if self.config is not None else None
                cpu = self.unit.run(samples, burn_in, self.include_initial, hook)
                if self.checkpointing and self.samples_total > self.last_ckpt_at:
                    # Run-boundary checkpoint: keeps the common recovery
                    # case (death between runs) replay-free.
                    self._checkpoint()
            self.conn.send(("ok", self.unit.snapshot(), cpu))

    # ------------------------------------------------------------------
    def _on_sample(self, index: int, elapsed: float, estimators) -> None:
        config = self.config
        assert config is not None
        self.samples_total += 1
        if self.injector is not None:
            self.injector.on_sample(self.samples_total - 1)
        if self.samples_total % config.heartbeat_every == 0:
            self.conn.send(("hb",))
        if (
            self.checkpointing
            and self.samples_total - self.last_ckpt_at >= config.checkpoint_every
        ):
            self._checkpoint(index + 1, self.include_initial)

    def _checkpoint(
        self, records_done: int = 0, initial_recorded: bool = False
    ) -> None:
        try:
            if self.injector is not None:
                self.injector.on_checkpoint(self.unit.seq + 1)
            message = ("ckpt", self.unit.checkpoint("", records_done, initial_recorded))
        except CheckpointError as exc:
            # A failed checkpoint write must never kill a healthy chain;
            # it only widens the next recovery's replay window.
            self.unit.seq += 1
            message = ("ckpt_fail", self.unit.seq, str(exc))
        self.conn.send(message)
        self.last_ckpt_at = self.samples_total


def _chain_worker_main(
    conn, payload: bytes, config: Optional[_WorkerConfig] = None
) -> None:
    """Worker entry point: unpickle one chain's state and serve commands
    until ``("stop",)`` or the pipe closes.  Failures cross the pipe as
    ``("error", traceback_text)`` so the parent can re-raise with the
    remote stack attached."""
    try:
        _ChainWorker(conn, payload, config).serve()
    except Exception:  # pragma: no cover - exercised via error tests
        try:
            conn.send(("error", traceback.format_exc()))
        except (BrokenPipeError, OSError):
            pass
    finally:
        conn.close()


class _WorkerHandle:
    """Parent-side view of one chain worker.  ``base`` is the checkpoint
    the current incarnation was spawned from, without its payload: the
    origin its reported progress counts from."""

    def __init__(self, index: int, key: str):
        self.index = index
        self.key = key
        self.process = None
        self.conn = None
        self.base: Optional[Checkpoint] = None
        self.cpu_total = 0.0
        self.incarnation = 0


class ProcessPoolBackend(ChainBackend):
    """One OS process per chain, alive for the backend's lifetime.

    ``start()`` builds every chain in the parent via the factory,
    pickles each ``(database, chain, queries)`` snapshot, and ships it
    to a dedicated worker.  ``run()`` broadcasts a run command to all
    workers and gathers their cumulative estimators, so chains execute
    concurrently and anytime refinement (`run()` again) continues the
    same chain state inside the same workers.  Each worker reply is
    deadlined by ``REPRO_WORKER_TIMEOUT`` (:func:`default_worker_timeout`).

    Parameters
    ----------
    resilience:
        A :class:`~repro.resilience.ResilienceConfig` enables
        supervision: workers stream heartbeats and checkpoints, a dead
        or wedged worker is respawned from its latest checkpoint (with
        seeded-jitter backoff, bounded by the config's retry policy)
        and replayed up to the in-flight command, and ``start()``
        adopts checkpoints already in the store — the supervisor-restart
        path when the store is disk-backed.  ``None`` (default) keeps
        the fail-fast behavior.
    """

    name = "process"

    def __init__(self, resilience: ResilienceConfig | None = None):
        super().__init__(resilience)
        self.timeout = default_worker_timeout()
        self._workers: List[_WorkerHandle] = []
        self._context = multiprocessing.get_context()
        self._commands: List[Tuple] = []
        self._jitter_rng = make_rng(resilience.seed if resilience else 0)
        self.heartbeats = HeartbeatMonitor()
        self.respawns = 0
        self.checkpoints_stored = 0
        self.checkpoints_skipped = 0

    # ------------------------------------------------------------------
    def _add_built(
        self, index: int, key: str, db: Database, chain: MarkovChain
    ) -> None:
        checkpoint = self._seq0(key, db, chain)
        store = self._store()
        if store is not None:
            store.put(checkpoint)
        self._add_stored(index, checkpoint)

    def _add_stored(self, index: int, checkpoint: Checkpoint) -> None:
        worker = _WorkerHandle(index, checkpoint.key)
        self._spawn(worker, checkpoint)
        self._workers.append(worker)

    def _spawn(self, worker: _WorkerHandle, checkpoint: Checkpoint) -> None:
        """Start ``worker``'s current incarnation from ``checkpoint``."""
        resil = self._resilience
        config = None
        if resil is not None:
            plan = resil.fault_plan
            config = _WorkerConfig(
                checkpoint_every=resil.checkpoint_every,
                heartbeat_every=resil.heartbeat_every,
                fault_spec=(
                    plan.for_worker(worker.index, worker.incarnation)
                    if plan is not None
                    else None
                ),
            )
        parent_conn, child_conn = self._context.Pipe(duplex=True)
        process = self._context.Process(
            target=_chain_worker_main,
            args=(child_conn, checkpoint.payload, config),
            daemon=True,
            name=f"repro-chain-{worker.index}",
        )
        process.start()
        child_conn.close()  # the worker owns its end now
        worker.process, worker.conn = process, parent_conn
        # Dropping the payload keeps the parent from holding a world copy
        # per worker.
        worker.base = replace(checkpoint, payload=b"")
        worker.cpu_total = checkpoint.cpu_total

    def worker_pids(self) -> List[int]:
        """PIDs of the live chain workers (for tests/monitoring)."""
        return [w.process.pid for w in self._workers]

    def stats(self) -> dict:
        """Supervision counters (observability; cheap to call)."""
        return {
            "workers": len(self._workers),
            "respawns": self.respawns,
            "checkpoints_stored": self.checkpoints_stored,
            "checkpoints_skipped": self.checkpoints_skipped,
            "heartbeats": self.heartbeats.beats,
            "incarnations": {w.index: w.incarnation for w in self._workers},
        }

    # ------------------------------------------------------------------
    def run(
        self,
        samples_per_chain: int,
        burn_in: int = 0,
        include_initial: bool = True,
    ) -> EvaluationResult:
        self._check_started()
        started = time.perf_counter()
        replies = self._broadcast(("run", samples_per_chain, burn_in, include_initial))
        self.chain_results = [
            EvaluationResult(estimators, worker.cpu_total, worker.cpu_total)
            for worker, (_, estimators, _) in zip(self._workers, replies)
        ]
        wall = time.perf_counter() - started
        per_chain = [result.estimators for result in self.chain_results]
        cpu = sum(reply[2] for reply in replies)
        return EvaluationResult(pool_estimators(per_chain), wall, cpu)

    def advance(self, deltas: Sequence[Delta]) -> None:
        self._check_started()
        # One history entry holds every worker's delta; _wire picks the
        # worker's own when the command is sent or replayed.
        self._broadcast(("delta", tuple(deltas)))

    def _broadcast(self, command: Tuple) -> List[Tuple]:
        """Send ``command`` to every worker and gather their ``ok``
        replies, recovering failed workers along the way."""
        self._commands.append(command)
        for worker in self._workers:
            self._dispatch(worker, command)
        replies = []
        for worker in self._workers:
            reply = self._await_ok(worker, recover=True)
            worker.cpu_total += reply[2]
            replies.append(reply)
        return replies

    # ------------------------------------------------------------------
    # Supervision
    # ------------------------------------------------------------------
    @staticmethod
    def _wire(worker: _WorkerHandle, command: Tuple) -> Tuple:
        """The message ``worker`` receives for a history entry."""
        if command[0] == "delta":
            return ("delta", command[1][worker.index])
        return command

    def _dispatch(self, worker: _WorkerHandle, command: Tuple) -> None:
        try:
            worker.conn.send(self._wire(worker, command))
        except (BrokenPipeError, OSError) as exc:
            # _recover leaves the current command dispatched to the
            # replacement worker, so the gather loop proceeds normally.
            failure = self._crash(worker, f"is gone (pipe closed: {exc!r})")
            self._recover(worker, failure)

    @staticmethod
    def _crash(worker: _WorkerHandle, what: str) -> WorkerCrashError:
        """The typed error for a dead or unreachable worker.  A brief
        join lets a dying process settle, so a dead one reports its exit
        code; a wedged-alive one (dropped pipe) reports ``None``."""
        worker.process.join(timeout=0.5)
        exit_code = worker.process.exitcode
        detail = f" (exit code {exit_code})" if exit_code is not None else ""
        return WorkerCrashError(
            f"chain worker {worker.index} {what}{detail}",
            worker_index=worker.index,
            exit_code=exit_code,
        )

    def _await_ok(self, worker: _WorkerHandle, *, recover: bool):
        """Pump one worker's messages until its ``ok`` reply.

        Heartbeats and checkpoints are absorbed along the way.  Worker
        death or silence triggers checkpoint recovery when ``recover``
        is set (the top-level gather); during replay the failure
        propagates to the recovery loop instead, which starts the next
        incarnation."""
        while True:
            try:
                message = self._next_message(worker)
            except (WorkerTimeoutError, WorkerCrashError) as exc:
                if recover:
                    self._recover(worker, exc)
                    continue
                raise
            kind = message[0]
            if kind == "hb":
                self.heartbeats.beat(worker.key)
                continue
            if kind == "ckpt":
                self._store_checkpoint(worker, message[1])
                continue
            if kind == "ckpt_fail":
                self.checkpoints_skipped += 1
                continue
            if kind == "ok":
                return message
            # "error": an exception inside the chain itself.  Replaying
            # deterministic state would raise it again, so this is not a
            # retriable failure — surface it with the remote stack.
            remote = message[1]
            self.close()
            raise WorkerCrashError(
                f"chain worker {worker.index} failed:\n{remote}",
                worker_index=worker.index,
                remote_traceback=remote,
            ) from RemoteTraceback(remote)

    def _next_message(self, worker: _WorkerHandle):
        """One message from ``worker``, or a typed failure.

        The deadline is a *silence* window — any message (heartbeat,
        checkpoint, reply) restarts it, because each arrival returns and
        the next call re-arms.  Raises :class:`WorkerTimeoutError` when
        the window empties and :class:`WorkerCrashError` when the
        process is found dead with nothing left in its pipe."""
        window = self.timeout
        if self._resilience is not None:
            heartbeat = self._resilience.heartbeat_timeout
            window = heartbeat if window is None else min(window, heartbeat)
        deadline = time.monotonic() + window if window is not None else None
        while True:
            if deadline is not None and time.monotonic() >= deadline:
                raise WorkerTimeoutError(
                    f"chain worker {worker.index} timed out after "
                    f"{window:.0f}s of silence (raise REPRO_WORKER_TIMEOUT "
                    "for long runs)",
                    worker_index=worker.index,
                )
            if worker.conn.poll(0.05):
                try:
                    return worker.conn.recv()
                # EOFError on orderly close; OSError (e.g.
                # ConnectionResetError) when the worker was killed with
                # the pipe mid-write.
                except (EOFError, OSError):
                    raise self._crash(worker, "exited unexpectedly") from None
            if not worker.process.is_alive():
                # Drain messages sent just before death (the pipe buffer
                # outlives the process), then report.
                if worker.conn.poll(0):
                    try:
                        return worker.conn.recv()
                    except (EOFError, OSError):
                        pass
                raise self._crash(worker, "died")

    def _store_checkpoint(self, worker: _WorkerHandle, relative: Checkpoint) -> None:
        """Store a worker checkpoint in absolute coordinates: the worker
        counts from the checkpoint it was spawned from, which is added
        back here and nowhere else."""
        base = worker.base
        # Inside its first command the worker may be finishing a command
        # the base checkpoint was taken partway through.
        partial = relative.runs_completed == 0 and relative.records_done > 0
        checkpoint = replace(
            relative,
            key=worker.key,
            seq=base.seq + relative.seq,
            runs_completed=base.runs_completed + relative.runs_completed,
            records_done=relative.records_done
            + (base.records_done if partial else 0),
            initial_recorded=relative.initial_recorded
            or (partial and base.initial_recorded),
            cpu_total=base.cpu_total + relative.cpu_total,
        )
        try:
            self._resilience.store.put(checkpoint)
            self.checkpoints_stored += 1
        except CheckpointError:
            # Same contract as the worker side: a checkpoint that cannot
            # be stored widens the replay window but must not fail the
            # run that produced it.
            self.checkpoints_skipped += 1

    def _recover(self, worker: _WorkerHandle, failure: EvaluationError) -> None:
        """Respawn ``worker`` from its latest checkpoint and replay it to
        the in-flight command, or raise if supervision is off / the
        retry budget is spent.  On return the current command has been
        dispatched to the replacement and its reply is pending."""
        store = self._store()
        if store is None:
            self.close()
            raise failure
        policy = self._resilience.retry
        while True:
            attempt = worker.incarnation + 1
            if attempt >= policy.max_attempts:
                self.close()
                raise RetryExhaustedError(
                    f"chain worker {worker.index} failed {attempt} time(s); "
                    f"retry budget ({policy.max_attempts} attempts) exhausted",
                    attempts=attempt,
                ) from failure
            checkpoint = store.latest(worker.key)
            if checkpoint is None:
                # No baseline to rebuild from (store was cleared behind
                # our back): unrecoverable.
                self.close()
                raise failure
            self._kill_worker(worker)
            pause = policy.delay(attempt, self._jitter_rng)
            if pause > 0:
                time.sleep(pause)
            worker.incarnation += 1
            self.heartbeats.drop(worker.key)
            self.respawns += 1
            self._spawn(worker, checkpoint)
            try:
                self._replay(worker, checkpoint)
                return
            except (WorkerTimeoutError, WorkerCrashError) as exc:
                if self._closed:
                    # An "error" reply during replay: a deterministic
                    # failure inside the chain, already terminal.
                    raise
                # The replacement died too; loop for another incarnation
                # (the budget check above bounds this).
                failure = exc

    def _replay(self, worker: _WorkerHandle, checkpoint: Checkpoint) -> None:
        """Drive a freshly respawned worker through every command issued
        after ``checkpoint`` (runs and deltas, in order), discarding
        their replies (their samples are already part of the cumulative
        estimator state), and dispatch the in-flight command last — its
        reply is left for the caller.

        For a checkpoint taken ``records_done`` samples into a command,
        the remainder is ``("run", n + include_initial - records_done,
        0, False)``: burn-in already happened before recording started
        and the initial world was counted iff the original command asked
        for it."""
        j = len(self._commands) - 1
        k, r = checkpoint.runs_completed, checkpoint.records_done
        if k > j:
            # The in-flight command finished and was checkpointed, but
            # its "ok" was lost with the worker: ask for zero further
            # samples to re-materialize the reply.
            queue: List[Tuple] = [("run", 0, 0, False)]
        else:
            queue = []
            if r > 0:
                _, n, _, include_initial = self._commands[k]
                remaining = n + (1 if include_initial else 0) - r
                queue.append(("run", remaining, 0, False))
                k += 1
            queue.extend(self._commands[k : j + 1])
            if not queue:
                queue.append(("run", 0, 0, False))
        for command in queue[:-1]:
            worker.conn.send(self._wire(worker, command))
            reply = self._await_ok(worker, recover=False)
            worker.cpu_total += reply[2]
        worker.conn.send(self._wire(worker, queue[-1]))

    def _kill_worker(self, worker: _WorkerHandle) -> None:
        try:
            worker.conn.close()
        except OSError:
            pass
        if worker.process.is_alive():
            worker.process.terminate()
            worker.process.join(timeout=5.0)
            if worker.process.is_alive():  # pragma: no cover - safety net
                worker.process.kill()
                worker.process.join(timeout=5.0)

    # ------------------------------------------------------------------
    def close(self) -> None:
        for worker in self._workers:
            try:
                worker.conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
            try:
                worker.conn.close()
            except OSError:
                pass
        for worker in self._workers:
            worker.process.join(timeout=5.0)
            if worker.process.is_alive():  # pragma: no cover - safety net
                worker.process.terminate()
                worker.process.join(timeout=5.0)
        self._workers = []
        self._closed = True


# ----------------------------------------------------------------------
BACKENDS = {
    SequentialBackend.name: SequentialBackend,
    ProcessPoolBackend.name: ProcessPoolBackend,
}


def validate_backend_name(name: str) -> str:
    """Return ``name`` if it names a known backend, else raise."""
    if name not in BACKENDS:
        raise EvaluationError(
            f"unknown backend {name!r} (expected one of {sorted(BACKENDS)})"
        )
    return name


def make_backend(name: str, **kwargs) -> ChainBackend:
    """Instantiate a backend by name (``"sequential"`` or ``"process"``)."""
    return BACKENDS[validate_backend_name(name)](**kwargs)
