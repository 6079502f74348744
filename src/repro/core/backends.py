"""Chain-execution backends: sequential (in-process) and multiprocess.

The paper's §5.4 parallelization copies the initial world and runs up
to eight independent MCMC chains.  Pooling their estimators yields the
*statistical* benefit regardless of how the chains are scheduled; this
module adds the *wall-clock* benefit by running each chain in its own
OS process.

Two interchangeable backends drive a set of chains built by a
:data:`ChainFactory`:

* :class:`SequentialBackend` — chains run one after another in the
  calling process.  Deterministic, dependency-free, and the reference
  semantics: every other backend must produce bit-identical pooled
  marginals for the same factory and seeds.
* :class:`ProcessPoolBackend` — one worker process per chain.  Each
  worker receives a **pickled** ``(database, chain, queries)`` payload
  (the paper's "identical copies of the probabilistic database"), builds
  its own query evaluator, and keeps all chain state alive between
  ``run()`` calls, so anytime refinement continues the same chains.

Both backends also ``advance()`` their chains by a DML delta in place
(:func:`~repro.core.live.advance_unit`) — in-process, or as a
``("delta", ...)`` worker command — so a write does not cost a rebuild.

Determinism: a chain's sample stream is a pure function of its pickled
RNG state, so ``sequential`` and ``process`` backends produce identical
pooled marginals for identical factories and seeds — the process
boundary only changes *where* the arithmetic happens.  Worker payloads
are explicitly pickled up front even on fork platforms, so a factory
whose products cannot cross a process boundary fails fast with a clear
error rather than behaving differently per platform.

Fault tolerance: with a :class:`~repro.resilience.ResilienceConfig`,
workers stream chain checkpoints — ``(world, RNG state, estimator
counts, progress)`` pickled at a sample boundary — and heartbeats back
to the supervising parent.  A worker that dies or wedges is killed,
respawned from its latest checkpoint, and driven through a *replay* of
every command issued after that checkpoint; because the sample stream
is a pure function of the checkpointed state, the recovered chain is
bit-identical to one that never crashed.  Without a config nothing
changes: no hooks fire, no extra messages flow, and a dead worker is a
raised :class:`~repro.errors.WorkerCrashError` exactly as before.

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
from dataclasses import dataclass
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


def restore_evaluator(payload: bytes) -> QueryEvaluator:
    """Rebuild a ready-to-run evaluator from :func:`serialize_chain_state`
    output.  The evaluator's next sample is bit-identical to the one the
    serialized chain would have produced."""
    db, chain, queries, evaluator_cls, est_state = pickle.loads(payload)
    evaluator = evaluator_cls(db, chain, queries)
    if est_state is not None:
        evaluator.estimators = [
            MarginalEstimator.from_counts(counts, samples)
            for counts, samples in est_state
        ]
    return evaluator


def _chain_steps(chain) -> int:
    """Cumulative kernel proposals (checkpoint observability only)."""
    stats = getattr(getattr(chain, "kernel", None), "stats", None)
    return int(getattr(stats, "proposals", 0) or 0)


class ChainBackend:
    """Common contract of chain-execution backends.

    A backend is *stateful*: :meth:`start` builds ``num_chains`` chains
    from a factory, :meth:`run` advances **all** of them and returns the
    pooled :class:`EvaluationResult`, and repeated ``run()`` calls
    continue the same chains (anytime refinement).  :meth:`close`
    releases chain resources; afterwards the backend is unusable.
    """

    name = "abstract"

    def start(
        self,
        factory: ChainFactory,
        num_chains: int,
        queries: Sequence,
        evaluator_cls: Type[QueryEvaluator] = MaterializedEvaluator,
    ) -> None:
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
    def __init__(self, resilience: ResilienceConfig | None = None) -> None:
        self._started = False
        self._closed = False
        self._resilience = resilience
        # Per-chain cumulative results from the most recent run().
        self.chain_results: List[EvaluationResult] = []

    @property
    def closed(self) -> bool:
        """Whether the backend has released its chains (a closed
        backend cannot run again; callers should rebuild)."""
        return self._closed

    @property
    def resilience(self) -> ResilienceConfig | None:
        return self._resilience

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

    def __enter__(self) -> "ChainBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class SequentialBackend(ChainBackend):
    """Chains run one after another in the calling process.

    The deterministic fallback and reference implementation; also the
    right choice for a single chain or when worker start-up cost would
    dominate a short run.

    With a resilience config the backend writes a checkpoint per chain
    at every run boundary (and adopts existing checkpoints at
    ``start()``), which with a :class:`~repro.resilience.DiskCheckpointStore`
    survives the *calling process* — retries and fault injection do not
    apply in-process, where a worker crash is the caller's crash.
    """

    name = "sequential"

    def __init__(self, resilience: ResilienceConfig | None = None) -> None:
        super().__init__(resilience)
        self._evaluators: List[QueryEvaluator] = []
        self._cpu_totals: List[float] = []
        self._seqs: List[int] = []
        self._runs_completed = 0
        self._queries: Sequence = ()
        self._evaluator_cls: Type[QueryEvaluator] = MaterializedEvaluator

    def start(
        self,
        factory: ChainFactory,
        num_chains: int,
        queries: Sequence,
        evaluator_cls: Type[QueryEvaluator] = MaterializedEvaluator,
    ) -> None:
        if num_chains < 1:
            raise EvaluationError("need at least one chain")
        store = self._store()
        self._queries = tuple(queries)
        self._evaluator_cls = evaluator_cls
        for index in range(num_chains):
            adopted = None
            if store is not None:
                key = self._resilience.key_for(index)
                adopted = store.latest(key)
            if adopted is not None:
                self._evaluators.append(restore_evaluator(adopted.payload))
                self._seqs.append(adopted.seq)
                self._cpu_totals.append(adopted.cpu_total)
                continue
            db, chain = factory(index)
            self._evaluators.append(evaluator_cls(db, chain, queries))
            self._seqs.append(0)
            self._cpu_totals.append(0.0)
            if store is not None:
                store.put(
                    Checkpoint(
                        key=self._resilience.key_for(index),
                        seq=0,
                        runs_completed=0,
                        records_done=0,
                        initial_recorded=False,
                        steps=_chain_steps(chain),
                        payload=serialize_chain_state(
                            db, chain, self._queries, evaluator_cls, None
                        ),
                    )
                )
        self._started = True

    def run(
        self,
        samples_per_chain: int,
        burn_in: int = 0,
        include_initial: bool = True,
    ) -> EvaluationResult:
        self._check_started()
        store = self._store()
        started = time.perf_counter()
        cpu = 0.0
        per_chain: List[List[MarginalEstimator]] = []
        self.chain_results = []
        self._runs_completed += 1
        for index, evaluator in enumerate(self._evaluators):
            # Per-chain CPU seconds (burn-in included), not wall time,
            # so the accounting matches what process workers report
            # even when chains contend for cores.
            chain_started = time.process_time()
            evaluator.run(
                samples_per_chain,
                include_initial_sample=include_initial,
                burn_in=burn_in,
            )
            chain_cpu = time.process_time() - chain_started
            cpu += chain_cpu
            self._cpu_totals[index] += chain_cpu
            if store is not None:
                self._checkpoint(store, index, evaluator)
            # Snapshot the estimators (as process workers do) so results
            # returned now don't mutate when the chains run again, and
            # report cumulative per-chain CPU matching the process
            # backend's accounting.
            snapshot = [e.copy() for e in evaluator.estimators]
            per_chain.append(snapshot)
            self.chain_results.append(
                EvaluationResult(
                    snapshot, self._cpu_totals[index], self._cpu_totals[index]
                )
            )
        wall = time.perf_counter() - started
        return EvaluationResult(pool_estimators(per_chain), wall, cpu)

    def advance(self, deltas: Sequence[Delta]) -> None:
        self._check_started()
        store = self._store()
        # A delta is a completed command like a run, and is checkpointed
        # at once: adoption must never resume a pre-delta world.
        self._runs_completed += 1
        for index, (evaluator, delta) in enumerate(zip(self._evaluators, deltas)):
            chain_started = time.process_time()
            advance_unit(evaluator, delta)
            self._cpu_totals[index] += time.process_time() - chain_started
            if store is not None:
                self._checkpoint(store, index, evaluator)

    def _checkpoint(self, store, index: int, evaluator: QueryEvaluator) -> None:
        self._seqs[index] += 1
        store.put(
            Checkpoint(
                key=self._resilience.key_for(index),
                seq=self._seqs[index],
                runs_completed=self._runs_completed,
                records_done=0,
                initial_recorded=False,
                steps=_chain_steps(evaluator.chain),
                payload=serialize_chain_state(
                    evaluator.db,
                    evaluator.chain,
                    self._queries,
                    self._evaluator_cls,
                    evaluator.estimators,
                ),
                cpu_total=self._cpu_totals[index],
            )
        )

    def close(self) -> None:
        for evaluator in self._evaluators:
            detach = getattr(evaluator, "detach", None)
            if detach is not None:
                detach()
        self._evaluators = []
        self._closed = True


# ----------------------------------------------------------------------
# Multiprocess backend
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _WorkerConfig:
    """Supervision knobs shipped to one worker incarnation.

    ``seq_start`` is the sequence number of the checkpoint the worker
    was built from (0 for a fresh chain); the worker's own checkpoints
    continue from there, keeping sequence numbers monotonic across
    incarnations.  ``records_base``/``initial_base`` describe how much
    of the first (resumed, partial) run command the payload already
    contains, so mid-run checkpoints taken while finishing it report
    absolute progress.  ``cpu_base`` seeds cumulative CPU accounting.
    """

    checkpoint_every: int
    heartbeat_every: int
    seq_start: int = 0
    records_base: int = 0
    initial_base: bool = False
    cpu_base: float = 0.0
    fault_spec: Optional[FaultSpec] = None


class _ChainWorker:
    """Worker-process side of the chain protocol.

    Commands from the parent: ``("run", samples, burn_in,
    include_initial)``, ``("delta", delta)`` (advance the chain by one
    DML delta, :func:`~repro.core.live.advance_unit`) and ``("stop",)``.
    Replies: ``("ok", estimators, cpu)`` per run or delta and
    ``("error", traceback_text)`` on failure.  With a
    :class:`_WorkerConfig`, ``("hb",)`` heartbeats and
    ``("ckpt", seq, runs, records, initial, steps, payload, cpu)`` /
    ``("ckpt_fail", seq, message)`` messages interleave ahead of the
    ``ok`` — the parent treats any message as proof of life.
    """

    def __init__(self, conn, payload: bytes, config: Optional[_WorkerConfig]):
        self.conn = conn
        self.config = config
        db, chain, queries, evaluator_cls, est_state = pickle.loads(payload)
        self.queries = queries
        self.evaluator_cls = evaluator_cls
        self.evaluator = evaluator_cls(db, chain, queries)
        if est_state is not None:
            self.evaluator.estimators = [
                MarginalEstimator.from_counts(counts, samples)
                for counts, samples in est_state
            ]
        self.injector: Optional[FaultInjector] = None
        if config is not None and config.fault_spec is not None:
            self.injector = config.fault_spec.injector(pipe_dropper=conn.close)
        self.seq = config.seq_start if config is not None else 0
        self.cpu_total = config.cpu_base if config is not None else 0.0
        self.samples_total = 0
        self.last_ckpt_at = 0
        self.runs_completed = 0
        self.run_started = 0.0
        self.current_records = 0
        self.current_initial = False

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
                self._advance(message[1])
                continue
            _, samples, burn_in, include_initial = message
            self.current_records = 0
            self.current_initial = include_initial
            hook = self._on_sample if self.config is not None else None
            self.run_started = time.process_time()  # this worker's CPU seconds
            self.evaluator.run(
                samples,
                on_sample=hook,
                include_initial_sample=include_initial,
                burn_in=burn_in,
            )
            cpu = time.process_time() - self.run_started
            self.cpu_total += cpu
            self.runs_completed += 1
            if (
                self.config is not None
                and self.config.checkpoint_every
                and self.samples_total > self.last_ckpt_at
            ):
                # Run-boundary checkpoint: keeps the common recovery case
                # (death between runs) replay-free.
                self._checkpoint(0, False, self.cpu_total)
            self.conn.send(
                ("ok", [e.copy() for e in self.evaluator.estimators], cpu)
            )

    def _advance(self, delta: Delta) -> None:
        started = time.process_time()
        advance_unit(self.evaluator, delta)
        cpu = time.process_time() - started
        self.cpu_total += cpu
        # Counted like a run command (replay indexes commands), and
        # checkpointed at once so no respawn resumes a pre-delta world.
        self.runs_completed += 1
        if self.config is not None and self.config.checkpoint_every:
            self._checkpoint(0, False, self.cpu_total)
        self.conn.send(("ok", [e.copy() for e in self.evaluator.estimators], cpu))

    # ------------------------------------------------------------------
    def _on_sample(self, index: int, elapsed: float, estimators) -> None:
        config = self.config
        assert config is not None
        self.current_records = index + 1
        self.samples_total += 1
        if self.injector is not None:
            self.injector.on_sample(self.samples_total - 1)
        if self.samples_total % config.heartbeat_every == 0:
            self.conn.send(("hb",))
        if (
            config.checkpoint_every
            and self.samples_total - self.last_ckpt_at >= config.checkpoint_every
        ):
            cpu_now = self.cpu_total + (time.process_time() - self.run_started)
            self._checkpoint(self.current_records, self.current_initial, cpu_now)

    def _checkpoint(
        self, records_done: int, initial_recorded: bool, cpu_now: float
    ) -> None:
        config = self.config
        assert config is not None
        seq = self.seq + 1
        if self.runs_completed == 0:
            # Still inside the first (possibly resumed-partial) command:
            # fold in the progress the spawn payload already contained.
            if records_done > 0:
                records_done += config.records_base
                initial_recorded = initial_recorded or config.initial_base
        try:
            if self.injector is not None:
                self.injector.on_checkpoint(seq)
            payload = serialize_chain_state(
                self.evaluator.db,
                self.evaluator.chain,
                self.queries,
                self.evaluator_cls,
                self.evaluator.estimators,
            )
            self.conn.send(
                (
                    "ckpt",
                    seq,
                    self.runs_completed,
                    records_done,
                    initial_recorded,
                    _chain_steps(self.evaluator.chain),
                    payload,
                    cpu_now,
                )
            )
        except CheckpointError as exc:
            # A failed checkpoint write must never kill a healthy chain;
            # it only widens the next recovery's replay window.
            self.conn.send(("ckpt_fail", seq, str(exc)))
        self.seq = seq
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
    """Parent-side view of one chain worker."""

    def __init__(self, process, conn, index: int, key: str = ""):
        self.process = process
        self.conn = conn
        self.index = index
        self.key = key
        self.cpu_total = 0.0
        self.incarnation = 0
        # Absolute command index (runs and deltas) the current
        # incarnation's local ``runs_completed`` counts from (0 for a
        # fresh worker).
        self.runs_base = 0


class ProcessPoolBackend(ChainBackend):
    """One OS process per chain, alive for the backend's lifetime.

    ``start()`` builds every chain in the parent via the factory,
    pickles each ``(database, chain, queries)`` snapshot, and ships it
    to a dedicated worker.  ``run()`` broadcasts a run command to all
    workers and gathers their cumulative estimators, so chains execute
    concurrently and anytime refinement (`run()` again) continues the
    same chain state inside the same workers.

    Parameters
    ----------
    timeout:
        Seconds to wait for any single worker reply before declaring
        the run failed (guards CI against hung workers).  ``None``
        (default) reads the ``REPRO_WORKER_TIMEOUT`` environment
        variable (600s); zero or negative disables the deadline.
    resilience:
        A :class:`~repro.resilience.ResilienceConfig` enables
        supervision: workers stream heartbeats and checkpoints, a dead
        or wedged worker is respawned from its latest checkpoint (with
        seeded-jitter backoff, bounded by the config's retry policy)
        and replayed up to the in-flight command, and ``start()``
        adopts checkpoints already in the store — the supervisor-restart
        path when the store is disk-backed.  ``None`` (default) keeps
        the pre-existing fail-fast behavior.
    """

    name = "process"

    def __init__(
        self,
        timeout: float | None = None,
        resilience: ResilienceConfig | None = None,
    ):
        super().__init__(resilience)
        self.timeout = default_worker_timeout() if timeout is None else timeout
        if self.timeout is not None and self.timeout <= 0:
            self.timeout = None
        self._workers: List[_WorkerHandle] = []
        self._context = multiprocessing.get_context()
        self._commands: List[Tuple] = []
        self._queries: Sequence = ()
        self._evaluator_cls: Type[QueryEvaluator] = MaterializedEvaluator
        self._jitter_rng = make_rng(resilience.seed if resilience else 0)
        self.heartbeats = HeartbeatMonitor()
        self.respawns = 0
        self.checkpoints_stored = 0
        self.checkpoints_skipped = 0

    # ------------------------------------------------------------------
    def _worker_config(self, index: int, incarnation: int = 0) -> Optional[_WorkerConfig]:
        resil = self._resilience
        if resil is None:
            return None
        return _WorkerConfig(
            checkpoint_every=resil.checkpoint_every,
            heartbeat_every=resil.heartbeat_every,
            fault_spec=(
                resil.fault_plan.for_worker(index, incarnation)
                if resil.fault_plan is not None
                else None
            ),
        )

    def _spawn(self, index: int, payload: bytes, config: Optional[_WorkerConfig]):
        parent_conn, child_conn = self._context.Pipe(duplex=True)
        process = self._context.Process(
            target=_chain_worker_main,
            args=(child_conn, payload, config),
            daemon=True,
            name=f"repro-chain-{index}",
        )
        process.start()
        child_conn.close()  # the worker owns its end now
        return process, parent_conn

    def start(
        self,
        factory: ChainFactory,
        num_chains: int,
        queries: Sequence,
        evaluator_cls: Type[QueryEvaluator] = MaterializedEvaluator,
    ) -> None:
        if num_chains < 1:
            raise EvaluationError("need at least one chain")
        store = self._store()
        self._queries = tuple(queries)
        self._evaluator_cls = evaluator_cls
        try:
            for index in range(num_chains):
                key = (
                    self._resilience.key_for(index)
                    if self._resilience is not None
                    else f"chain:{index}"
                )
                adopted = store.latest(key) if store is not None else None
                if adopted is not None:
                    # Supervisor restart: resume from the stored state,
                    # re-baselined to this backend's (empty) command
                    # history so later replay math stays consistent.
                    baseline = Checkpoint(
                        key=key,
                        seq=adopted.seq + 1,
                        runs_completed=0,
                        records_done=0,
                        initial_recorded=False,
                        steps=adopted.steps,
                        payload=adopted.payload,
                        cpu_total=adopted.cpu_total,
                    )
                    store.put(baseline)
                    config = self._worker_config(index)
                    if config is not None:
                        config = _WorkerConfig(
                            checkpoint_every=config.checkpoint_every,
                            heartbeat_every=config.heartbeat_every,
                            seq_start=baseline.seq,
                            cpu_base=baseline.cpu_total,
                            fault_spec=config.fault_spec,
                        )
                    process, conn = self._spawn(index, baseline.payload, config)
                    handle = _WorkerHandle(process, conn, index, key)
                    handle.cpu_total = baseline.cpu_total
                    self._workers.append(handle)
                    continue
                db, chain = factory(index)
                try:
                    payload = serialize_chain_state(
                        db, chain, self._queries, evaluator_cls, None
                    )
                except Exception as exc:
                    raise EvaluationError(
                        "process backend requires picklable chain snapshots; "
                        f"chain {index} failed to pickle: {exc!r} "
                        "(closures in templates/proposers are the usual cause; "
                        "use bound methods or module-level functions)"
                    ) from exc
                if store is not None:
                    # Seq-0 baseline: recovery logic can always assume a
                    # checkpoint exists, even before the first cadence.
                    store.put(
                        Checkpoint(
                            key=key,
                            seq=0,
                            runs_completed=0,
                            records_done=0,
                            initial_recorded=False,
                            steps=_chain_steps(chain),
                            payload=payload,
                        )
                    )
                process, conn = self._spawn(index, payload, self._worker_config(index))
                self._workers.append(_WorkerHandle(process, conn, index, key))
        except BaseException:
            self.close()
            raise
        self._started = True

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
        command = ("run", samples_per_chain, burn_in, include_initial)
        self._commands.append(command)
        for worker in self._workers:
            self._dispatch(worker, command)
        per_chain: List[List[MarginalEstimator]] = []
        cpu = 0.0
        self.chain_results = []
        for worker in self._workers:
            reply = self._await_ok(worker, recover=True)
            _, estimators, worker_cpu = reply
            worker.cpu_total += worker_cpu
            cpu += worker_cpu
            per_chain.append(estimators)
            self.chain_results.append(
                EvaluationResult(estimators, worker.cpu_total, worker.cpu_total)
            )
        wall = time.perf_counter() - started
        return EvaluationResult(pool_estimators(per_chain), wall, cpu)

    def advance(self, deltas: Sequence[Delta]) -> None:
        self._check_started()
        # One history entry holds every worker's delta; _wire picks the
        # worker's own when the command is sent or replayed.
        command = ("delta", tuple(deltas))
        self._commands.append(command)
        for worker in self._workers:
            self._dispatch(worker, command)
        for worker in self._workers:
            reply = self._await_ok(worker, recover=True)
            worker.cpu_total += reply[2]

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
            failure = WorkerCrashError(
                f"chain worker {worker.index} is gone (pipe closed: {exc!r})",
                worker_index=worker.index,
            )
            # _recover leaves the current command dispatched to the
            # replacement worker, so the gather loop proceeds normally.
            self._recover(worker, failure)

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
                self._store_checkpoint(worker, message)
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
        if self._resilience is not None:
            window: float | None = self._resilience.heartbeat_timeout
            if self.timeout is not None:
                window = min(window, self.timeout)
        else:
            window = self.timeout
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
                # the pipe mid-write.  A dead process gets its exit
                # code attached; a wedged-alive one (dropped pipe)
                # reports None.
                except (EOFError, OSError):
                    worker.process.join(timeout=0.5)
                    exit_code = worker.process.exitcode
                    detail = (
                        f" (exit code {exit_code})" if exit_code is not None else ""
                    )
                    raise WorkerCrashError(
                        f"chain worker {worker.index} exited "
                        f"unexpectedly{detail}",
                        worker_index=worker.index,
                        exit_code=exit_code,
                    ) from None
            if not worker.process.is_alive():
                # Drain messages sent just before death (the pipe buffer
                # outlives the process), then report.
                if worker.conn.poll(0):
                    try:
                        return worker.conn.recv()
                    except (EOFError, OSError):
                        pass
                raise WorkerCrashError(
                    f"chain worker {worker.index} died "
                    f"(exit code {worker.process.exitcode})",
                    worker_index=worker.index,
                    exit_code=worker.process.exitcode,
                )

    def _store_checkpoint(self, worker: _WorkerHandle, message) -> None:
        _, seq, local_runs, records_done, initial_recorded, steps, payload, cpu = (
            message
        )
        checkpoint = Checkpoint(
            key=worker.key,
            seq=seq,
            runs_completed=worker.runs_base + local_runs,
            records_done=records_done,
            initial_recorded=initial_recorded,
            steps=steps,
            payload=payload,
            cpu_total=cpu,
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
        resil = self._resilience
        store = self._store()
        if store is None:
            self.close()
            raise failure
        policy = resil.retry
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
            worker.runs_base = checkpoint.runs_completed
            worker.cpu_total = checkpoint.cpu_total
            self.heartbeats.drop(worker.key)
            self.respawns += 1
            config = self._worker_config(worker.index, worker.incarnation)
            if config is not None:
                config = _WorkerConfig(
                    checkpoint_every=config.checkpoint_every,
                    heartbeat_every=config.heartbeat_every,
                    seq_start=checkpoint.seq,
                    records_base=checkpoint.records_done,
                    initial_base=checkpoint.initial_recorded,
                    cpu_base=checkpoint.cpu_total,
                    fault_spec=config.fault_spec,
                )
            worker.process, worker.conn = self._spawn(
                worker.index, checkpoint.payload, config
            )
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
