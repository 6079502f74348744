"""Session surface of sharded evaluation, and worker-process hygiene.

The leak regression: after a sharded ``execute`` raises mid-run (a
chain worker died), and after ``Session.close()``, **no** worker
process may remain alive — and re-executing the same SQL must rebuild
fresh chains instead of failing on the dead cached runner.

DML routing: a committed statement advances the cached sharded runner
by delta — each changed row reaches the shard that owns it, inside the
same workers — and every shard copy then equals a fresh split of the
session database, with a graph equal to a rebuild over that copy.  The
fallbacks (a shard empty at build, a key the partitioner cannot place,
a chain that cannot follow repairs, a dead worker) dispose the runner
and the next read rebuilds it.
"""

import os
import pickle
import signal
import time

import pytest

from repro.core.live import graph_signature
from repro.db import KeyListPartitioner
from repro.errors import EvaluationError, ShardingError
from repro.ie.ner import NerPipeline
from repro.ie.ner.model import SkipChainNerModel
from repro.mcmc.chain import MarkovChain
from repro.mcmc.gibbs import GibbsSampler
from repro.resilience import MemoryCheckpointStore, ResilienceConfig

QUERY = "SELECT STRING FROM TOKEN WHERE LABEL='B-PER'"


def small_pipeline(seed=0):
    return NerPipeline.build(300, seed=seed, steps_per_sample=20)


def sharded_runner(session):
    runners = [
        runner
        for key, runner in session._runners.items()
        if key[1] == "sharded"
    ]
    assert len(runners) == 1
    return runners[0]


def assert_all_dead(pids, timeout=10.0):
    deadline = time.monotonic() + timeout
    pending = list(pids)
    while pending and time.monotonic() < deadline:
        still = []
        for pid in pending:
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                continue
            still.append(pid)
        pending = still
        if pending:
            time.sleep(0.05)
    assert not pending, f"worker processes survived: {pending}"


class TestSessionSharding:
    def test_execute_with_shards(self):
        pipeline = small_pipeline()
        cursor = pipeline.session.execute(QUERY, samples=6, shards=2)
        assert cursor.num_samples == 7
        for *_, probability in cursor:
            assert 0.0 <= probability <= 1.0
        pipeline.session.close()

    def test_shards_one_bit_identical_to_unsharded_runner(self):
        # Same seed path: shards=1 must match a directly driven
        # unsharded MaterializedEvaluator byte for byte.
        from repro.core import MaterializedEvaluator
        from repro.db import Database

        pipeline = small_pipeline()
        cursor = pipeline.session.execute(QUERY, samples=8, shards=1)
        runner = sharded_runner(pipeline.session)
        seed = runner.evaluator.unit_seeds[0]

        task = pipeline.task
        db = Database.from_snapshot(task._snapshot, "reference")
        chain = task.shard_chain_factory()(db, seed)
        evaluator = MaterializedEvaluator(db, chain, [QUERY])
        reference = evaluator.run(8)
        evaluator.detach()
        assert (
            cursor.marginals().probabilities()
            == reference.marginals.probabilities()
        )
        pipeline.session.close()

    def test_refine_continues_sharded_chains(self):
        pipeline = small_pipeline()
        cursor = pipeline.session.execute(QUERY, samples=4, shards=2)
        assert cursor.num_samples == 5
        cursor.refine(4)
        assert cursor.num_samples == 9
        pipeline.session.close()

    def test_repeated_execute_reuses_runner(self):
        pipeline = small_pipeline()
        pipeline.session.execute(QUERY, samples=3, shards=2)
        first = sharded_runner(pipeline.session)
        cursor = pipeline.session.execute(QUERY, samples=3, shards=2)
        assert sharded_runner(pipeline.session) is first
        # Marginals accumulated across calls (anytime semantics).
        assert cursor.num_samples == 7
        pipeline.session.close()

    def test_shards_without_factory_rejected(self):
        import repro
        from repro.mcmc import MarkovChain

        pipeline = small_pipeline()
        session = repro.connect(pipeline.instance.db).attach_model(
            pipeline.instance
        )
        with pytest.raises(EvaluationError, match="shard_factory"):
            session.execute(QUERY, samples=2, shards=2)
        session.close()
        pipeline.session.close()

    def test_global_aggregate_with_shards_rejected(self):
        pipeline = small_pipeline()
        with pytest.raises(ShardingError, match="global aggregates"):
            pipeline.session.execute(
                "SELECT COUNT(*) FROM TOKEN WHERE LABEL='B-PER'",
                samples=2,
                shards=2,
            )
        pipeline.session.close()

    def test_equivalent_partitioners_share_one_cached_runner(self):
        """Runners are cached by partitioner *content*, not object
        identity: rebuilding an equivalent partitioner per call (the
        documented idiom) continues the same chains, creates no new
        workers, and never tears down a runner an earlier cursor still
        holds."""
        from repro.db import HashPartitioner, KeyListPartitioner

        pipeline = small_pipeline()
        session = pipeline.session
        c1 = session.execute(
            QUERY, samples=2, shards=2, backend="process",
            partitioner=HashPartitioner(2),
        )
        first = sharded_runner(session)
        first_pids = first.evaluator.worker_pids()

        # Fresh-but-equal partitioner object: same runner, same workers,
        # marginals accumulate.
        c2 = session.execute(
            QUERY, samples=2, shards=2, backend="process",
            partitioner=HashPartitioner(2),
        )
        assert sharded_runner(session) is first
        assert first.evaluator.worker_pids() == first_pids
        assert c2.num_samples == c1.num_samples + 2

        # A genuinely different split gets its own runner; the first
        # stays alive and refinable for its cursor.
        docs = sorted({row[1] for row in pipeline.db.table("TOKEN").rows()})
        explicit = KeyListPartitioner([docs[::2], docs[1::2]])
        session.execute(
            QUERY, samples=2, shards=2, backend="process", partitioner=explicit
        )
        sharded = [
            r for k, r in session._runners.items() if k[1] == "sharded"
        ]
        assert len(sharded) == 2
        c1.refine(2)  # the original cursor still works
        all_pids = [p for r in sharded for p in r.evaluator.worker_pids()]
        session.close()
        assert_all_dead(all_pids)

    def test_coref_default_partitioner_respects_blocks(self):
        """Without an explicit partitioner, coref sharding must fall
        back to the factory's block partitioner — a hash split would
        silently sever candidate blocks."""
        from repro.ie.coref import CorefPipeline, COREF_PAIR_QUERY, mention_blocks

        pipeline = CorefPipeline(
            num_entities=6, mentions_per_entity=3, seed=2, steps_per_sample=20
        )
        cursor = pipeline.session.execute(COREF_PAIR_QUERY, samples=3, shards=2)
        assert cursor.num_samples == 4
        runner = sharded_runner(pipeline.session)
        sharded = runner.evaluator.sharded
        for block in mention_blocks(pipeline.db):
            shards_of_block = {sharded.shard_of_value(mid) for mid in block}
            assert len(shards_of_block) == 1, f"block {block} split"
        pipeline.session.close()

    def test_shards_compose_with_chains_process_workers(self):
        pipeline = small_pipeline()
        cursor = pipeline.session.execute(
            QUERY, samples=2, shards=2, chains=2, backend="process"
        )
        runner = sharded_runner(pipeline.session)
        pids = runner.evaluator.worker_pids()
        assert len(pids) == 4  # K x M workers
        assert cursor.num_samples == 6  # 2 chains x 3 samples per shard
        pipeline.session.close()
        assert_all_dead(pids)


class TestWorkerHygiene:
    def test_close_terminates_sharded_workers(self):
        pipeline = small_pipeline()
        pipeline.session.execute(QUERY, samples=2, shards=2, backend="process")
        pids = sharded_runner(pipeline.session).evaluator.worker_pids()
        assert pids
        pipeline.session.close()
        assert_all_dead(pids)

    def test_no_live_workers_after_midrun_crash(self):
        """The leak regression: a worker dying mid-run makes execute
        raise — afterwards every other worker must be gone too, and the
        dead runner must be evicted from the session cache."""
        pipeline = small_pipeline()
        session = pipeline.session
        session.execute(QUERY, samples=2, shards=2, backend="process")
        runner = sharded_runner(session)
        pids = runner.evaluator.worker_pids()
        assert len(pids) == 2

        os.kill(pids[0], signal.SIGKILL)
        with pytest.raises(EvaluationError):
            session.execute(QUERY, samples=2, shards=2, backend="process")
        assert_all_dead(pids)

        # The crashed runner is unusable; the next execute must rebuild
        # fresh workers transparently and succeed.
        cursor = session.execute(QUERY, samples=2, shards=2, backend="process")
        rebuilt = sharded_runner(session)
        assert rebuilt is not runner
        assert cursor.num_samples == 3
        fresh = rebuilt.evaluator.worker_pids()
        session.close()
        assert_all_dead(fresh)

    def test_no_live_workers_after_refine_crash(self):
        pipeline = small_pipeline()
        session = pipeline.session
        cursor = session.execute(QUERY, samples=2, shards=2, backend="process")
        runner = sharded_runner(session)
        pids = runner.evaluator.worker_pids()
        os.kill(pids[-1], signal.SIGKILL)
        with pytest.raises(EvaluationError):
            cursor.refine(2)
        assert_all_dead(pids)
        # Dead cached runner is evicted on the next execute (the fix):
        cursor = session.execute(QUERY, samples=2, shards=2, backend="process")
        assert cursor.num_samples == 3
        fresh = sharded_runner(session).evaluator.worker_pids()
        session.close()
        assert_all_dead(fresh)

    def test_close_is_idempotent_after_crash(self):
        pipeline = small_pipeline()
        session = pipeline.session
        session.execute(QUERY, samples=2, shards=2, backend="process")
        pids = sharded_runner(session).evaluator.worker_pids()
        os.kill(pids[0], signal.SIGKILL)
        with pytest.raises(EvaluationError):
            session.execute(QUERY, samples=2, shards=2, backend="process")
        session.close()
        session.close()
        assert_all_dead(pids)


SHARD_DML = [
    "INSERT INTO TOKEN VALUES (999999, 1, 'Zanzibar', 'B-PER', 'B-PER')",
    "UPDATE TOKEN SET STRING='Zanzibar' WHERE TOK_ID=5",
    # doc 0 -> doc 1 moves the row from shard 0 to shard 1
    "UPDATE TOKEN SET DOC_ID=1 WHERE TOK_ID=3",
    "DELETE FROM TOKEN WHERE TOK_ID=7",
]


def unit_worlds(runner, store):
    """(database, model) of every (shard, chain) unit: in-process
    evaluators for the sequential backend, the latest checkpoints for
    worker processes."""
    if store is None:
        return [(e.db, e.chain.model) for e in runner.evaluator.backend._evaluators]
    worlds = []
    for key in sorted(store.keys(), key=lambda k: int(k.split(":")[1])):
        db, chain, *_ = pickle.loads(store.latest(key).payload)
        worlds.append((db, chain.model))
    return worlds


def observed(db):
    """TOKEN rows without the hidden LABEL column."""
    label = db.table("TOKEN").schema.position("LABEL")
    return sorted(row[:label] + row[label + 1 :] for row in db.table("TOKEN").rows())


def routing(session):
    stats = session.stats()["runners"]
    return stats["delta_advances"], stats["rebuilds"]


class TestDeltaAdvance:
    @pytest.mark.parametrize("backend", ["sequential", "process"])
    @pytest.mark.parametrize("dml", SHARD_DML)
    def test_shards_follow_dml_in_place(self, backend, dml):
        pipeline = small_pipeline()
        session = pipeline.session
        store = None
        resilience = None
        if backend == "process":
            # Checkpoints are the window into the worker processes.
            store = MemoryCheckpointStore()
            resilience = ResilienceConfig(store=store, checkpoint_every=1000)
        opts = dict(shards=2, backend=backend, resilience=resilience)
        session.execute(QUERY, samples=4, **opts)
        runner = sharded_runner(session)
        pids = runner.evaluator.worker_pids()
        session.execute(dml)
        assert sharded_runner(session) is runner
        cursor = session.execute(QUERY, samples=3, **opts)
        assert sharded_runner(session) is runner
        assert runner.evaluator.worker_pids() == pids
        # every shard re-pooled together: the count restarts at
        # samples + 1 (the repaired world is the first sample)
        assert cursor.num_samples == 4
        split = runner.evaluator.sharded.split()
        worlds = unit_worlds(runner, store)
        assert len(worlds) == len(runner.evaluator.shard_indexes)
        for shard, (db, model) in zip(runner.evaluator.shard_indexes, worlds):
            assert observed(db) == observed(split[shard])
            rebuilt = SkipChainNerModel(db, weights=model.weights)
            assert graph_signature(model.graph) == graph_signature(rebuilt.graph)
        assert routing(session) == (1, 0)
        session.close()

    def test_chains_per_shard_all_advance(self):
        pipeline = small_pipeline()
        session = pipeline.session
        session.execute(QUERY, samples=2, shards=2, chains=2)
        runner = sharded_runner(session)
        session.execute(SHARD_DML[0])
        cursor = session.execute(QUERY, samples=2, shards=2, chains=2)
        assert cursor.num_samples == 2 * 3
        split = runner.evaluator.sharded.split()
        worlds = unit_worlds(runner, None)
        for unit, (db, _) in enumerate(worlds):
            shard = runner.evaluator.shard_indexes[unit // 2]
            assert observed(db) == observed(split[shard])
        session.close()

    def test_stats_count_advances_and_fallbacks(self):
        pipeline = small_pipeline()
        session = pipeline.session
        stats = session.stats()["runners"]
        assert (stats["delta_advances"], stats["rebuilds"]) == (0, 0)
        assert stats["last_fallback"] is None
        session.execute(QUERY, samples=2, shards=2)
        session.execute(SHARD_DML[1])
        assert routing(session) == (1, 0)
        assert session.stats()["runners"]["last_fallback"] is None
        # a document no shard owned at build time forces a rebuild
        session.execute(QUERY, samples=2, shards=8)
        session.execute("INSERT INTO TOKEN VALUES (999999, 7, 'Zanzibar', 'O', 'O')")
        stats = session.stats()["runners"]
        # the shards=2 runner advanced, the shards=8 runner fell back
        assert (stats["delta_advances"], stats["rebuilds"]) == (2, 1)
        assert "empty when the shards were built" in stats["last_fallback"]
        session.close()


class GibbsShardFactory:
    """Shard chains on a Gibbs kernel: live model, no resyncable
    proposer, so its units cannot follow graph repairs."""

    def __init__(self, inner):
        self.inner = inner
        self.spec = inner.spec

    def __call__(self, db, seed):
        model = self.inner(db, seed).model
        chain = MarkovChain(GibbsSampler(model.graph, seed=seed), 20)
        chain.model = model
        return chain


class TestDeltaFallback:
    """Each fallback disposes the runner and ends in a correct read
    from a rebuilt one."""

    def assert_rebuilt(self, session, runner, opts):
        cursor = session.execute(QUERY, samples=2, **opts)
        rebuilt = sharded_runner(session)
        assert rebuilt is not runner
        assert cursor.num_samples == 3
        assert routing(session)[1] == 1
        return rebuilt

    def test_insert_into_shard_empty_at_build(self):
        pipeline = small_pipeline()
        session = pipeline.session
        num_docs = len({row[1] for row in pipeline.db.table("TOKEN").rows()})
        opts = dict(shards=num_docs + 2)
        session.execute(QUERY, samples=2, **opts)
        runner = sharded_runner(session)
        assert runner.evaluator.empty_shards
        session.execute(
            f"INSERT INTO TOKEN VALUES (999999, {num_docs}, 'Zanzibar', 'O', 'O')"
        )
        assert [k for k in session._runners if k[1] == "sharded"] == []
        rebuilt = self.assert_rebuilt(session, runner, opts)
        total = sum(
            len(unit.db.table("TOKEN"))
            for unit in rebuilt.evaluator.backend._evaluators
        )
        assert total == len(pipeline.db.table("TOKEN"))
        session.close()

    def test_delete_that_empties_a_shard(self):
        pipeline = small_pipeline()
        session = pipeline.session
        opts = dict(shards=4)  # one document per shard
        session.execute(QUERY, samples=2, **opts)
        runner = sharded_runner(session)
        session.execute("DELETE FROM TOKEN WHERE DOC_ID=3")
        assert "would empty shard 3" in session.stats()["runners"]["last_fallback"]
        rebuilt = self.assert_rebuilt(session, runner, opts)
        assert rebuilt.evaluator.empty_shards == [3]
        session.close()

    def test_key_the_partitioner_cannot_place(self):
        pipeline = small_pipeline()
        session = pipeline.session
        docs = sorted({row[1] for row in pipeline.db.table("TOKEN").rows()})
        opts = dict(shards=2, partitioner=KeyListPartitioner([docs[::2], docs[1::2]]))
        session.execute(QUERY, samples=2, **opts)
        runner = sharded_runner(session)
        session.execute(
            f"INSERT INTO TOKEN VALUES (999999, {docs[-1] + 1}, 'Zanzibar', 'O', 'O')"
        )
        reason = session.stats()["runners"]["last_fallback"]
        assert "not assigned to any shard" in reason
        # the stale key list cannot place the new document on rebuild
        # either: the read fails loudly instead of dropping the row
        with pytest.raises(ShardingError):
            session.execute(QUERY, samples=2, **opts)
        session.execute("DELETE FROM TOKEN WHERE TOK_ID=999999")
        self.assert_rebuilt(session, runner, opts)
        session.close()

    def test_chain_without_resyncable_proposer(self):
        pipeline = small_pipeline()
        session = pipeline.session
        session.attach_model(
            shard_factory=GibbsShardFactory(pipeline.task.shard_chain_factory())
        )
        opts = dict(shards=2)
        session.execute(QUERY, samples=2, **opts)
        runner = sharded_runner(session)
        session.execute(SHARD_DML[0])
        assert "proposer" in session.stats()["runners"]["last_fallback"]
        self.assert_rebuilt(session, runner, opts)
        session.close()

    def test_worker_killed_before_dml(self):
        pipeline = small_pipeline()
        session = pipeline.session
        opts = dict(shards=2, backend="process")
        session.execute(QUERY, samples=2, **opts)
        runner = sharded_runner(session)
        pids = runner.evaluator.worker_pids()
        os.kill(pids[0], signal.SIGKILL)
        # the statement commits; only the runner is lost
        cursor = session.execute(SHARD_DML[0])
        assert cursor.rowcount == 1
        assert pipeline.db.table("TOKEN").contains_key((999999,))
        assert [k for k in session._runners if k[1] == "sharded"] == []
        assert_all_dead(pids)
        rebuilt = self.assert_rebuilt(session, runner, opts)
        fresh = rebuilt.evaluator.worker_pids()
        assert not set(fresh) & set(pids)
        session.close()
        assert_all_dead(fresh)

    def test_no_session_repair_certifies_the_delta(self):
        """With only a shard factory attached, no model repair of the
        full database checks the delta's neighbourhood for factors that
        would span two shards, so K > 1 rebuilds."""
        import repro

        pipeline = small_pipeline()
        session = repro.connect(pipeline.db).attach_model(
            shard_factory=pipeline.task.shard_chain_factory()
        )
        opts = dict(shards=2)
        session.execute(QUERY, samples=2, **opts)
        runner = sharded_runner(session)
        session.execute(SHARD_DML[1])
        assert "no model repair" in session.stats()["runners"]["last_fallback"]
        self.assert_rebuilt(session, runner, opts)
        session.close()

    @pytest.mark.parametrize("attached", ["pipeline", "shard_factory_only"])
    def test_coref_units_rebuild(self, attached):
        """The coref shard factory renumbers each shard's CLUSTER ids.
        A routed row carries the database's global ids, so applying it
        would move a mention into an unrelated local cluster and grow
        the unit's cluster domain, which reweights partitions.  Every
        DML therefore rebuilds, and each rebuilt unit equals a fresh
        build over its split."""
        import repro
        from repro.ie.coref import (
            COREF_PAIR_QUERY,
            CorefModel,
            CorefPipeline,
            CorefShardChainFactory,
        )

        pipeline = CorefPipeline(
            num_entities=6, mentions_per_entity=3, seed=2, steps_per_sample=20
        )
        session = pipeline.session
        if attached == "shard_factory_only":
            session = repro.connect(pipeline.db).attach_model(
                shard_factory=CorefShardChainFactory(steps_per_sample=20)
            )
        factory = session._shard_factory
        last = len(pipeline.db.table("MENTION")) - 1
        dmls = [
            f"UPDATE MENTION SET TRUTH=0 WHERE MENTION_ID={last}",
            "UPDATE MENTION SET STRING='Zed Zulu' WHERE MENTION_ID=1",
        ]
        for rebuilds, dml in enumerate(dmls, start=1):
            session.execute(COREF_PAIR_QUERY, samples=2, shards=2)
            runner = sharded_runner(session)
            session.execute(dml)
            assert routing(session) == (0, rebuilds)
            assert "rewrites" in session.stats()["runners"]["last_fallback"]
            cursor = session.execute(COREF_PAIR_QUERY, samples=2, shards=2)
            rebuilt = sharded_runner(session)
            assert rebuilt is not runner
            assert cursor.num_samples == 3
            split = rebuilt.evaluator.sharded.split()
            units = rebuilt.evaluator.backend._evaluators
            for shard, unit in zip(rebuilt.evaluator.shard_indexes, units):
                table = unit.db.table("MENTION")
                cluster = table.schema.position("CLUSTER")
                assert sorted(
                    row[:cluster] + row[cluster + 1 :] for row in table.rows()
                ) == sorted(
                    row[:cluster] + row[cluster + 1 :]
                    for row in split[shard].table("MENTION").rows()
                )
                graph = unit.chain.kernel.graph
                assert {len(v.domain) for v in graph.variables} == {len(table)}
                model = CorefModel(
                    unit.db,
                    weights=factory.weights,
                    use_repulsion=factory.use_repulsion,
                )
                assert graph_signature(graph) == graph_signature(model.graph)
        session.close()
