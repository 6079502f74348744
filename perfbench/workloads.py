"""The four workloads: seeded statement generators and closed-loop runners.

Every workload is a closed loop from this one process: a client sends
its next statement only after the previous one returned.  A
generator turns the workload seed (plus facts of the generated corpus:
its vocabulary and document count) into statements; the runner sends
them through the public API only -- :func:`repro.connect` /
``Session`` or ``ReproServer`` / ``ServerSession`` -- and records one
:class:`OpRecord` per statement.

Correctness checks run with the clock paused, or after the timed loop.
"""

from __future__ import annotations

import asyncio
import random
import resource
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

import checks
import metrics
import stats

NER_K = 1000  # thinning interval (MH steps per recorded sample)
TOKENS = {
    "refine-40k": 40_000,
    "adhoc-40k": 40_000,
    "serve-rw-10k": 10_000,
    "sharded-rw-10k": 10_000,
}


def paper_queries() -> tuple[str, ...]:
    """Queries 1-4 of the paper, as the program's own benchmarks run them."""
    from repro.bench.workloads import QUERY1, QUERY2, QUERY3, QUERY4

    return (QUERY1, QUERY2, QUERY3, QUERY4)


def _labels(outside: bool = True) -> tuple[str, ...]:
    from repro.ie.ner import LABELS, OUTSIDE

    return tuple(label for label in LABELS if outside or label != OUTSIDE)


AUDIT_DDL = "CREATE TABLE AUDIT (ID INT PRIMARY KEY, V INT)"
NEW_TOKEN_BASE = 10_000_000  # TOK_IDs of inserted tokens start here

# A run goes on past --seconds until its plain probabilistic reads are
# enough for a p90 (see stats.MIN_ABOVE), for at most this multiple of
# --seconds.
MIN_PROB_READS = stats.min_samples_for(0.9)
MAX_STRETCH = 4


@dataclass(frozen=True)
class Op:
    """One statement of a workload script."""

    kind: str  # "prob" | "det" | "write"
    sql: str
    samples: Optional[int] = None
    check: bool = False  # adhoc: compare against the sqlite oracle


@dataclass(frozen=True)
class Corpus:
    """The facts of a generated corpus the generators draw from."""

    vocab: Sequence[str]
    num_docs: int
    num_tokens: int


def corpus_facts(tokens: Sequence[Any]) -> Corpus:
    vocab = sorted({t.string for t in tokens if t.truth != "O"})
    return Corpus(vocab, max(t.doc_id for t in tokens) + 1, len(tokens))


# ----------------------------------------------------------------------
# Generators: the same seed gives the same statements.
# ----------------------------------------------------------------------
PROB_SAMPLES = 2  # thinned samples per probabilistic read


def refine_stream(seed: int) -> Iterator[Op]:
    """Queries 1-4 in rounds, each round in a seeded order; every read
    adds ``PROB_SAMPLES`` samples to the query's cached runner."""
    rng = random.Random(f"refine/{seed}")
    queries = paper_queries()
    while True:
        for sql in rng.sample(queries, len(queries)):
            yield Op("prob", sql, PROB_SAMPLES)


ADHOC_SHAPES = 6


def _adhoc_sql(rng: random.Random, corpus: Corpus, shape: int) -> str:
    doc = rng.randrange(corpus.num_docs)
    label, label2 = rng.choice(_labels()), rng.choice(_labels())
    word = rng.choice(corpus.vocab)
    if shape == 0:
        return f"SELECT STRING, LABEL FROM TOKEN WHERE DOC_ID = {doc}"
    if shape == 1:
        return f"SELECT TOK_ID FROM TOKEN WHERE DOC_ID = {doc} AND LABEL = '{label}'"
    if shape == 2:
        return (
            f"SELECT DOC_ID, TOK_ID FROM TOKEN "
            f"WHERE STRING = '{word}' AND LABEL = '{label}'"
        )
    if shape == 3:
        width = rng.randint(2, 12)
        return (
            f"SELECT LABEL, COUNT(*) FROM TOKEN WHERE DOC_ID >= {doc} "
            f"AND DOC_ID < {doc + width} GROUP BY LABEL"
        )
    if shape == 4:
        return (
            f"SELECT T2.STRING FROM TOKEN T1, TOKEN T2 "
            f"WHERE T1.STRING = '{word}' AND T1.LABEL = '{label}' "
            f"AND T1.DOC_ID = T2.DOC_ID AND T2.LABEL = '{label2}'"
        )
    return f"SELECT COUNT(*) FROM TOKEN WHERE LABEL = '{label}' AND DOC_ID < {doc}"


def adhoc_stream(seed: int, corpus: Corpus) -> Iterator[Op]:
    """Distinct parameterised SELECTs in rounds of twelve -- each of the
    six shapes once deterministic and once probabilistic, in a seeded
    order; about one deterministic read in six is a sqlite checkpoint."""
    rng = random.Random(f"adhoc/{seed}")
    seen: set[str] = set()
    while True:
        round_ = [(shape, kind) for shape in range(ADHOC_SHAPES) for kind in ("det", "prob")]
        for shape, kind in rng.sample(round_, len(round_)):
            sql = _adhoc_sql(rng, corpus, shape)
            tries = 1
            while sql in seen:
                # A small corpus can exhaust a shape; move on to the next.
                sql = _adhoc_sql(rng, corpus, (shape + tries // 50) % ADHOC_SHAPES)
                tries += 1
            seen.add(sql)
            if kind == "prob":
                yield Op("prob", sql, PROB_SAMPLES)
            else:
                yield Op("det", sql, check=rng.random() < 1 / 6)


SERVE_PROB_SHAPES = 4


def _serve_prob_sql(rng: random.Random, corpus: Corpus, shape: int) -> str:
    label = rng.choice(_labels(outside=False))
    if shape == 0:
        return f"SELECT STRING FROM TOKEN WHERE LABEL = '{label}'"
    if shape == 1:
        return f"SELECT COUNT(*) FROM TOKEN WHERE LABEL = '{label}'"
    if shape == 2:
        bound = 10 * rng.randint(1, max(1, corpus.num_docs // 10))
        return f"SELECT TOK_ID FROM TOKEN WHERE LABEL = '{label}' AND DOC_ID < {bound}"
    return (
        f"SELECT T2.STRING FROM TOKEN T1, TOKEN T2 "
        f"WHERE T1.STRING = '{rng.choice(corpus.vocab)}' AND T1.LABEL = 'B-ORG' "
        f"AND T1.DOC_ID = T2.DOC_ID AND T2.LABEL = '{label}'"
    )


SERVE_WRITES = ("insert-audit", "insert-token", "update-audit", "update-token")
SERVE_READS_PER_WRITE = 24
SERVE_DET_READS_PER_WRITE = 5


def serve_script(seed: int, client: int, corpus: Corpus) -> Iterator[Op]:
    """One serving client in rounds: one write (the four kinds in turn:
    INSERT or UPDATE of AUDIT or TOKEN), then 24 reads in a seeded
    order -- 5 deterministic, 19 probabilistic over the four shapes in
    turn with seeded parameters (several hundred statements, so most
    miss the marginal cache)."""
    rng = random.Random(f"serve/{seed}/{client}")
    audit_ids: List[int] = []
    offset = rng.randrange(len(SERVE_WRITES))
    round_ = 0
    while True:
        round_ += 1
        write = SERVE_WRITES[(offset + round_) % len(SERVE_WRITES)]
        if write == "update-audit" and not audit_ids:
            write = "insert-audit"
        word = rng.choice(corpus.vocab)
        if write == "insert-audit":
            audit_id = client * 1_000_000 + round_
            audit_ids.append(audit_id)
            yield Op("write", f"INSERT INTO AUDIT VALUES ({audit_id}, {round_})")
        elif write == "update-audit":
            target = rng.choice(audit_ids)
            yield Op("write", f"UPDATE AUDIT SET V = {round_} WHERE ID = {target}")
        elif write == "insert-token":
            pk = NEW_TOKEN_BASE + client * 1_000_000 + round_
            doc = rng.randrange(corpus.num_docs)
            yield Op(
                "write", f"INSERT INTO TOKEN VALUES ({pk}, {doc}, '{word}', 'O', 'O')"
            )
        else:
            pk = rng.randrange(corpus.num_tokens)
            yield Op("write", f"UPDATE TOKEN SET STRING = '{word}' WHERE TOK_ID = {pk}")
        prob = SERVE_READS_PER_WRITE - SERVE_DET_READS_PER_WRITE
        reads = ["det"] * SERVE_DET_READS_PER_WRITE + [
            shape % SERVE_PROB_SHAPES for shape in range(prob)
        ]
        for index, read in enumerate(rng.sample(reads, len(reads))):
            if read != "det":
                yield Op("prob", _serve_prob_sql(rng, corpus, read), PROB_SAMPLES)
            elif index % 2:
                yield Op("det", "SELECT ID, V FROM AUDIT")
            else:
                doc = rng.randrange(corpus.num_docs)
                yield Op("det", f"SELECT TOK_ID, STRING FROM TOKEN WHERE DOC_ID = {doc}")


SHARDED_READS_PER_WRITE = 8


def sharded_stream(seed: int, corpus: Corpus) -> Iterator[Op]:
    """Query 1 refined eight times, then one INSERT of a seeded token."""
    rng = random.Random(f"sharded/{seed}")
    query1 = paper_queries()[0]
    inserted = 0
    while True:
        for _ in range(SHARDED_READS_PER_WRITE):
            yield Op("prob", query1, PROB_SAMPLES)
        inserted += 1
        pk = NEW_TOKEN_BASE + inserted
        doc = rng.randrange(corpus.num_docs)
        word = rng.choice(corpus.vocab)
        yield Op("write", f"INSERT INTO TOKEN VALUES ({pk}, {doc}, '{word}', 'O', 'O')")


# ----------------------------------------------------------------------
# Recording
# ----------------------------------------------------------------------
@dataclass
class OpRecord:
    kind: str
    start: float
    latency: float
    version: int  # committed version the statement saw (writes: made)
    samples: int = 0  # thinned samples recorded (0 for a cache hit)
    cached: bool = False
    error: Optional[str] = None
    op_id: Optional[int] = None  # the tracer's operation id, when traced


@dataclass
class RunLog:
    """What one timed run did, plus the outcome of its checks."""

    records: List[OpRecord] = field(default_factory=list)
    seconds: float = 0.0
    peak_rss_mb: float = 0.0
    checks: Dict[str, Any] = field(default_factory=dict)
    extras: Dict[str, Any] = field(default_factory=dict)
    prob_after_write: int = 1  # see metrics.classify

    def add_check(self, name: str, ok: bool, detail: Any = None) -> None:
        entry = self.checks.setdefault(name, {"ok": True, "count": 0})
        entry["count"] += 1
        if not ok:
            entry["ok"] = False
            entry.setdefault("failures", [])
            if len(entry["failures"]) < 5:
                entry["failures"].append(detail)

    @property
    def correct(self) -> bool:
        return all(entry["ok"] for entry in self.checks.values())


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class _Clock:
    """Elapsed time of a run, excluding paused stretches (checks)."""

    def __init__(self) -> None:
        self.origin = time.perf_counter()
        self.paused = 0.0

    def elapsed(self) -> float:
        return time.perf_counter() - self.origin - self.paused

    @contextmanager
    def pause(self) -> Iterator[None]:
        at = time.perf_counter()
        try:
            yield
        finally:
            self.paused += time.perf_counter() - at


def _hit_rate(before: Any, after: Any) -> float:
    """Hit rate between two cache-info snapshots (hits, misses fields)."""
    hits = after.hits - before.hits
    lookups = hits + after.misses - before.misses
    return hits / lookups if lookups else 0.0


def _keep_going(log: RunLog, clock: _Clock, seconds: float) -> bool:
    elapsed = clock.elapsed()
    if elapsed < seconds:
        return True
    return (
        elapsed < seconds * MAX_STRETCH
        and metrics.plain_prob_reads(log.records, log.prob_after_write)
        < MIN_PROB_READS
    )


def _op_scope(tracer: Any, kind: str):
    return tracer.op(kind) if tracer is not None else nullcontext()


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------
def make_task(workload: str, seed: int, num_tokens: int | None = None, k: int = NER_K):
    """The workload's NER task; the corpus is generated from ``seed``."""
    from repro.ie.ner import NerTask

    size = TOKENS[workload] if num_tokens is None else num_tokens
    return NerTask(size, corpus_seed=seed, steps_per_sample=k)


def open_session(task: Any, seed: int):
    """A session over a fresh world of ``task`` with its model attached."""
    import repro

    instance = task.make_instance(chain_seed=seed + 1)
    return repro.connect(instance.db).attach_model(
        instance,
        chain_factory=task.chain_factory(seed),
        shard_factory=task.shard_chain_factory(),
    )


SERVE_WORKERS = 2


async def open_server(task: Any, seed: int):
    """A started two-worker server over a fresh world with an AUDIT table."""
    from repro.serve import ReproServer

    engine = open_session(task, seed)
    # Before start(): the workers are built from a world that already
    # has the table, so no commit precedes the first timed read.
    engine.execute(AUDIT_DDL)
    server = ReproServer(
        engine,
        workers=SERVE_WORKERS,
        cache_size=256,
        max_pending=64,
        per_tenant=4,
        queue_timeout=120.0,
    )
    await server.start()
    return server


# ----------------------------------------------------------------------
# Single-session runners
# ----------------------------------------------------------------------
def _execute(session: Any, op: Op, record: OpRecord, opts: Dict[str, Any]):
    """Run one statement; returns (cursor, rows) -- (None, None) when
    it failed -- with ``rows`` fetched for deterministic reads."""
    started = time.perf_counter()
    rows = None
    try:
        if op.kind == "prob":
            cursor = session.execute(op.sql, samples=op.samples, **opts)
        else:
            cursor = session.execute(op.sql)
        if op.kind == "det":
            rows = cursor.fetchall()
    except Exception as exc:  # counted as a failed op; the run goes on
        record.latency = time.perf_counter() - started
        record.error = f"{type(exc).__name__}: {exc}"
        return None, None
    record.latency = time.perf_counter() - started
    if op.kind == "prob":
        record.samples = op.samples or 0
    return cursor, rows


def run_session_workload(
    session: Any,
    stream: Iterator[Op],
    seconds: float,
    tracer: Any = None,
    execute_opts: Optional[Dict[str, Any]] = None,
    on_result: Optional[Callable[[int, Op, Any, Any, RunLog], None]] = None,
) -> RunLog:
    """Drive one Session through ``stream`` for ``seconds`` of op time."""
    log = RunLog()
    clock = _Clock()
    index = 0
    plan_before = session.cache_info()
    while _keep_going(log, clock, seconds):
        op = next(stream)
        version = session.database.version
        record = OpRecord(op.kind, time.perf_counter(), 0.0, version)
        with _op_scope(tracer, op.kind) as record.op_id:
            cursor, rows = _execute(session, op, record, execute_opts or {})
        if op.kind == "write" and record.error is None:
            record.version = session.database.version
        log.records.append(record)
        with clock.pause():
            if cursor is not None and op.kind == "prob":
                checks.check_probabilities(log, cursor.marginals().probabilities())
            if cursor is not None and on_result is not None:
                on_result(index, op, cursor, rows, log)
        index += 1
    log.seconds = clock.elapsed()
    log.peak_rss_mb = peak_rss_mb()
    log.extras["plan_cache_hit_rate"] = _hit_rate(plan_before, session.cache_info())
    return log


def run_refine(session, task, seed, seconds, tracer=None, check=True) -> RunLog:
    prefix: List[tuple] = []

    def keep_prefix(index: int, op: Op, cursor: Any, rows: Any, log: RunLog) -> None:
        if index < len(paper_queries()):
            prefix.append((op, dict(cursor.marginals().probabilities())))

    log = run_session_workload(
        session, refine_stream(seed), seconds, tracer, on_result=keep_prefix
    )
    if check:
        checks.check_naive_matches(log, task, seed, prefix, open_session)
    return log


def run_adhoc(session, task, seed, seconds, tracer=None, check=True) -> RunLog:
    oracle = checks.SqliteOracle()

    def compare(index: int, op: Op, cursor: Any, rows: Any, log: RunLog) -> None:
        if check and op.check:
            oracle.compare(log, session.database, op.sql, rows)

    return run_session_workload(
        session,
        adhoc_stream(seed, corpus_facts(task.tokens)),
        seconds,
        tracer,
        on_result=compare,
    )


def run_sharded(session, task, seed, seconds, tracer=None, check=True) -> RunLog:
    return run_session_workload(
        session,
        sharded_stream(seed, corpus_facts(task.tokens)),
        seconds,
        tracer,
        execute_opts={"shards": 2, "backend": "process"},
    )


# ----------------------------------------------------------------------
# Serving runner
# ----------------------------------------------------------------------
async def run_serve(server, task, seed, seconds, tracer=None, check=True) -> RunLog:
    """Two concurrent ServerSessions, each a closed loop over its script."""
    from repro.errors import ServeOverloadError

    log = RunLog(prob_after_write=SERVE_WORKERS)
    clock = _Clock()
    corpus = corpus_facts(task.tokens)
    det_reads: List[tuple] = []  # (version, sql, rows)
    writes: List[tuple] = []  # (version, sql)
    marginals: List[tuple] = []  # rows of probabilistic results
    stale = 0
    shed = 0
    cache_before = server.cache.info()
    plan_before = server.engine.cache_info()
    pool_before = server.pool.stats()

    async def client(index: int) -> None:
        nonlocal stale, shed
        session = server.session(f"client-{index}")
        script = serve_script(seed, index, corpus)
        try:
            while _keep_going(log, clock, seconds):
                op = next(script)
                floor = server.version
                record = OpRecord(op.kind, time.perf_counter(), 0.0, floor)
                with _op_scope(tracer, op.kind) as record.op_id:
                    try:
                        result = await session.execute(op.sql, samples=op.samples)
                    except ServeOverloadError as exc:
                        shed += 1
                        result, record.error = None, f"shed: {exc}"
                    except Exception as exc:  # counted as a failed op
                        result, record.error = None, f"{type(exc).__name__}: {exc}"
                record.latency = time.perf_counter() - record.start
                log.records.append(record)
                if result is None:
                    continue
                record.version = result.db_version
                if result.db_version < floor:
                    stale += 1
                if op.kind == "write":
                    writes.append((result.db_version, op.sql))
                elif op.kind == "det":
                    det_reads.append((result.db_version, op.sql, list(result.rows)))
                else:
                    record.cached = result.cached
                    record.samples = 0 if result.cached else op.samples
                    marginals.append(result.rows)
        finally:
            session.close()

    await asyncio.gather(client(0), client(1))
    log.seconds = clock.elapsed()
    log.peak_rss_mb = peak_rss_mb()
    log.add_check("serve.no_stale_reads", stale == 0, {"stale_reads": stale})
    for rows in marginals:
        checks.check_probabilities(log, {row[:-1]: row[-1] for row in rows})
    if check:
        checks.check_commit_log(log, task.tokens, writes, det_reads)
    log.extras.update(
        serve_cache_hit_rate=_hit_rate(cache_before, server.cache.info()),
        plan_cache_hit_rate=_hit_rate(plan_before, server.engine.cache_info()),
        serve_shed=shed,
        stale_reads=stale,
        commits=len(writes),
        worker_rebases=server.pool.stats()["rebases"] - pool_before["rebases"],
    )
    return log
