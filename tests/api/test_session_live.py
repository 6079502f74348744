"""Live-update routing through the session.

The regression this suite guards: ``Session.execute`` once returned a
DML cursor **without touching ``_runners``**, so cached parallel/sharded
runners kept sampling a stale pickled snapshot after INSERT / UPDATE /
DELETE and served pre-update marginals forever.  The contract now:
after any world-changing DML, no cached runner serves marginals that
predate the update.  Live-capable single-chain runners are *repaired*
(graph edits + chain carryover + estimator re-pooling); runners holding
independent world copies *advance by delta* — every (shard, chain) unit
applies its share of the delta, repairs its own model and re-pools, in
the same workers — and only fall back to a rebuild from the updated
database when a unit cannot follow the delta.
"""

import pickle

import pytest

import repro
from repro.core.live import graph_signature
from repro.errors import EvaluationError, LiveUpdateError
from repro.ie.ner import NerPipeline
from repro.ie.ner.model import SkipChainNerModel
from repro.resilience import MemoryCheckpointStore, ResilienceConfig

QUERY = "SELECT STRING FROM TOKEN WHERE LABEL='B-PER'"
INSERT = "INSERT INTO TOKEN VALUES (999999, 0, 'Zanzibar', 'B-PER', 'B-PER')"


def small_pipeline(seed=0):
    return NerPipeline.build(300, seed=seed, steps_per_sample=20)


def runners_of(session, kind):
    return [r for k, r in session._runners.items() if k[1] == kind]


class TestShardedInvalidation:
    def test_dml_invalidates_cached_sharded_runner(self):
        """THE regression: a cached sharded runner must not keep
        serving marginals sampled from pre-update shard copies.  It
        now advances its copies by the delta instead of being
        discarded: same runner, pre-update samples dropped, and the
        inserted row in exactly one shard copy."""
        pipeline = small_pipeline()
        session = pipeline.session
        num_tokens = len(pipeline.db.table("TOKEN"))
        first = session.execute(QUERY, samples=4, shards=2)
        assert first.num_samples == 5
        runner = runners_of(session, "sharded")[0]
        session.execute(INSERT)
        assert runners_of(session, "sharded") == [runner]
        second = session.execute(QUERY, samples=4, shards=2)
        # pre-update samples were dropped: counts restart, with the
        # repaired world as the first sample
        assert second.num_samples == 5
        shard_dbs = [unit.db for unit in runner.evaluator.backend._evaluators]
        total = sum(len(db.table("TOKEN")) for db in shard_dbs)
        assert total == num_tokens + 1
        assert sum(db.table("TOKEN").contains_key((999999,)) for db in shard_dbs) == 1
        assert session.stats()["runners"]["delta_advances"] == 1
        session.close()

    def test_dml_invalidates_cached_parallel_runner(self):
        pipeline = small_pipeline()
        session = pipeline.session
        num_tokens = len(pipeline.db.table("TOKEN"))
        first = session.execute(QUERY, samples=3, chains=2)
        assert first.num_samples == 2 * 4
        runner = runners_of(session, "parallel")[0]
        session.execute(INSERT)
        assert runners_of(session, "parallel") == [runner]
        second = session.execute(QUERY, samples=3, chains=2)
        assert second.num_samples == 2 * 4
        # every chain's full world copy received the whole delta
        for evaluator in runner.backend._evaluators:
            assert len(evaluator.db.table("TOKEN")) == num_tokens + 1
        session.close()


PARALLEL_DML = [
    INSERT,
    "UPDATE TOKEN SET STRING='Zanzibar' WHERE TOK_ID=5",
    "UPDATE TOKEN SET DOC_ID=1 WHERE TOK_ID=3",
    "DELETE FROM TOKEN WHERE TOK_ID=7",
]


def chain_worlds(runner, store):
    """(database, model) of every chain: in-process evaluators for the
    sequential backend, the latest checkpoints for worker processes."""
    if store is None:
        return [(e.db, e.chain.model) for e in runner.backend._evaluators]
    worlds = []
    for key in sorted(store.keys(), key=lambda k: int(k.split(":")[1])):
        db, chain, *_ = pickle.loads(store.latest(key).payload)
        worlds.append((db, chain.model))
    return worlds


def observed(db):
    """TOKEN rows without the hidden LABEL column."""
    schema = db.table("TOKEN").schema
    label = schema.position("LABEL")
    return sorted(row[:label] + row[label + 1 :] for row in db.table("TOKEN").rows())


class TestParallelAdvance:
    @pytest.mark.parametrize("backend", ["sequential", "process"])
    @pytest.mark.parametrize("dml", PARALLEL_DML)
    def test_chains_follow_dml_in_place(self, backend, dml):
        pipeline = small_pipeline()
        session = pipeline.session
        resilience = None
        store = None
        if backend == "process":
            # Checkpoints are the window into the worker processes.
            store = MemoryCheckpointStore()
            resilience = ResilienceConfig(store=store, checkpoint_every=1000)
        opts = dict(chains=2, backend=backend, resilience=resilience)
        session.execute(QUERY, samples=3, **opts)
        runner = runners_of(session, "parallel")[0]
        pids = runner.backend.worker_pids() if backend == "process" else []
        session.execute(dml)
        cursor = session.execute(QUERY, samples=2, **opts)
        assert runners_of(session, "parallel") == [runner]
        if backend == "process":
            assert runner.backend.worker_pids() == pids
        assert cursor.num_samples == 2 * 3
        for db, model in chain_worlds(runner, store):
            assert observed(db) == observed(pipeline.db)
            rebuilt = SkipChainNerModel(db, weights=model.weights)
            assert graph_signature(model.graph) == graph_signature(rebuilt.graph)
        stats = session.stats()["runners"]
        assert (stats["delta_advances"], stats["rebuilds"]) == (1, 0)
        session.close()

    def test_factory_without_rebase_falls_back_to_rebuild(self):
        """A factory whose worlds are not copies of the session database
        cannot follow its deltas: the runner is rebuilt."""
        pipeline = small_pipeline()
        session = pipeline.session
        session.attach_model(chain_factory=OpaqueFactory(pipeline.task))
        session.execute(QUERY, samples=2, chains=2)
        runner = runners_of(session, "parallel")[0]
        session.execute(INSERT)
        assert runners_of(session, "parallel") == []
        stats = session.stats()["runners"]
        assert stats["rebuilds"] == 1
        assert "rebase" in stats["last_fallback"]
        cursor = session.execute(QUERY, samples=2, chains=2)
        assert runners_of(session, "parallel")[0] is not runner
        assert cursor.num_samples == 2 * 3
        session.close()


class OpaqueFactory:
    """A chain factory with no ``rebased``: its chains sample the
    task's initial corpus whatever the session holds."""

    def __init__(self, task):
        self.task = task

    def __call__(self, index):
        instance = self.task.make_instance(index + 1)
        return instance.db, instance.chain


class TestLiveRepairRouting:
    def test_single_chain_runner_repaired_and_repooled(self):
        pipeline = small_pipeline()
        session = pipeline.session
        assert session.live_runner is not None
        cursor = session.execute(QUERY, samples=5)
        assert cursor.num_samples == 6
        session.execute(INSERT)
        # existing cursor observes the re-pool in place
        assert cursor.num_samples == 0
        # the repaired graph matches a from-scratch rebuild, and the
        # repaired world counts as the fresh initial sample
        model = session.live_runner.model
        rebuilt = SkipChainNerModel(pipeline.db, weights=model.weights)
        assert graph_signature(model.graph) == graph_signature(rebuilt.graph)
        again = session.execute(QUERY, samples=5)
        assert again.num_samples == 6
        assert again.marginals() is cursor.marginals()
        session.close()

    def test_update_and_delete_route_through_repair(self):
        pipeline = small_pipeline()
        session = pipeline.session
        model = session.live_runner.model
        session.execute("UPDATE TOKEN SET LABEL='B-ORG' WHERE TOK_ID=7")
        # The update moved the world; the local re-burn may legitimately
        # resample the touched variable afterwards (LABEL is hidden, not
        # pinned evidence) — but memory and storage must agree.
        variable = model.graph.variable(("TOKEN", (7,), "LABEL"))
        schema = pipeline.db.table("TOKEN").schema
        stored = pipeline.db.table("TOKEN").get((7,))
        assert variable.value == stored[schema.position("LABEL")]
        session.execute("DELETE FROM TOKEN WHERE TOK_ID=7")
        assert model.graph.find(("TOKEN", (7,), "LABEL")) is None
        rebuilt = SkipChainNerModel(pipeline.db, weights=model.weights)
        assert graph_signature(model.graph) == graph_signature(rebuilt.graph)
        session.close()

    def test_execute_script_dml_also_repairs(self):
        pipeline = small_pipeline()
        session = pipeline.session
        model = session.live_runner.model
        before = len(model.variables)
        session.execute_script(
            "INSERT INTO TOKEN VALUES (999998, 0, 'Foo', 'O', 'O'); "
            "INSERT INTO TOKEN VALUES (999999, 0, 'Bar', 'O', 'O');"
        )
        assert len(model.variables) == before + 2
        session.close()

    def test_dml_on_unrelated_table_repools_without_graph_edits(self):
        pipeline = small_pipeline()
        session = pipeline.session
        session.execute("CREATE TABLE SCRATCH (A INT PRIMARY KEY)")
        cursor = session.execute(QUERY, samples=3)
        model = session.live_runner.model
        variables_before = len(model.variables)
        session.execute("INSERT INTO SCRATCH VALUES (1)")
        # no graph edit, but the sample pool is reset: the stored world
        # changed, so pre-update samples no longer describe it
        assert len(model.variables) == variables_before
        assert cursor.num_samples == 0
        session.close()

    def test_failed_batch_insert_is_atomic_and_leaves_model_in_sync(self):
        """A multi-row INSERT that collides on a primary key must
        commit nothing — otherwise the delta is discarded on the error
        path and the live model silently desynchronizes from rows that
        did land."""
        from repro.errors import IntegrityError

        pipeline = small_pipeline()
        session = pipeline.session
        model = session.live_runner.model
        before_rows = len(pipeline.db.table("TOKEN"))
        before_vars = len(model.variables)
        cursor = session.execute(QUERY, samples=3)
        with pytest.raises(IntegrityError, match="duplicate primary key"):
            session.execute(
                "INSERT INTO TOKEN VALUES "
                "(999999, 0, 'A', 'O', 'O'), (999999, 0, 'B', 'O', 'O')"
            )
        assert len(pipeline.db.table("TOKEN")) == before_rows
        assert len(model.variables) == before_vars
        # nothing changed, so cached samples are still valid
        assert cursor.num_samples == 4
        session.close()

    def test_noop_dml_leaves_everything_alone(self):
        pipeline = small_pipeline()
        session = pipeline.session
        cursor = session.execute(QUERY, samples=3)
        session.execute("DELETE FROM TOKEN WHERE TOK_ID=123456789")
        assert cursor.num_samples == 4
        session.close()

    def test_failed_repair_invalidates_everything_and_raises(self):
        pipeline = small_pipeline()
        session = pipeline.session
        session.execute(QUERY, samples=2)
        session.execute(QUERY, samples=2, shards=2)
        session.execute(QUERY, samples=2, chains=2)
        with pytest.raises(LiveUpdateError):
            session.execute(
                "INSERT INTO TOKEN VALUES (999999, 0, 'Z', 'NOT-A-LABEL', 'O')"
            )
        assert session.live_runner is None
        assert session._runners == {}
        stats = session.stats()["runners"]
        # both multi-world runners were disposed, not advanced
        assert (stats["delta_advances"], stats["rebuilds"]) == (0, 2)
        assert stats["last_fallback"].startswith("LiveUpdateError")
        # Repair is not transactional: the half-repaired model/chain
        # are detached, so single-chain probabilistic execution refuses
        # until a fresh model is attached...
        with pytest.raises(EvaluationError, match="attach_model"):
            session.execute(QUERY, samples=2)
        # ...and once the offending row is removed from the stored
        # world, factory-based execution rebuilds and works again.
        session.execute("DELETE FROM TOKEN WHERE TOK_ID=999999")
        cursor = session.execute(QUERY, samples=2, chains=2)
        assert cursor.num_samples == 2 * 3
        cursor = session.execute(QUERY, samples=2, shards=2)
        assert cursor.num_samples == 3
        session.close()


class TestDdlRouting:
    def test_ddl_on_model_table_detaches_live_state(self):
        """DROP TABLE TOKEN makes the live model a ghost (its graph
        holds variables for vanished rows): the session must stop
        repairing against it."""
        pipeline = small_pipeline()
        session = pipeline.session
        assert session.live_runner is not None
        session.execute("DROP TABLE TOKEN")
        assert session.live_runner is None
        with pytest.raises(EvaluationError, match="attach_model"):
            session.execute("CREATE TABLE TOKEN (TOK_ID INT PRIMARY KEY)")
            session.execute("INSERT INTO TOKEN VALUES (1)")
            session.execute("SELECT TOK_ID FROM TOKEN", samples=2)
        session.close()

    def test_ddl_on_model_table_detaches_non_live_chain_too(self):
        """The ghost problem is not live-specific: a Gibbs chain over a
        dropped table must be detached as well."""
        from repro.mcmc.chain import MarkovChain
        from repro.mcmc.gibbs import GibbsSampler

        pipeline = small_pipeline()
        model = pipeline.instance.model
        chain = MarkovChain(GibbsSampler(model.graph, seed=4), 20)
        session = repro.connect(pipeline.db).attach_model(model, chain=chain)
        assert session.live_runner is None
        session.execute("DROP TABLE TOKEN")
        assert session._chain is None and session._model is None
        session.close()

    def test_unrelated_ddl_keeps_live_state(self):
        pipeline = small_pipeline()
        session = pipeline.session
        session.execute("CREATE TABLE SCRATCH (A INT PRIMARY KEY)")
        assert session.live_runner is not None
        session.execute("DROP TABLE SCRATCH")
        assert session.live_runner is not None
        session.close()


class TestGibbsFallback:
    def test_gibbs_chain_falls_back_to_invalidation(self):
        """A Gibbs kernel has no resyncable proposer (it snapshots its
        variable list privately), so a live-capable model attached with
        one must use invalidation, not repair — a valid DML must not
        poison the session."""
        from repro.mcmc.chain import MarkovChain
        from repro.mcmc.gibbs import GibbsSampler

        pipeline = small_pipeline()
        model = pipeline.instance.model
        chain = MarkovChain(GibbsSampler(model.graph, seed=4), 20)
        session = repro.connect(pipeline.db).attach_model(model, chain=chain)
        assert session.live_runner is None
        cursor = session.execute(QUERY, samples=2)
        session.execute(INSERT)  # must not raise
        assert session._runners == {}
        with pytest.raises(EvaluationError, match="re-execute"):
            cursor.refine(2)
        session.close()


class TestNonLiveFallback:
    def test_bare_chain_runner_invalidated_on_dml(self):
        """A model that cannot repair itself: DML drops the cached
        runner (detaching its recorder) instead of leaving it serving
        stale marginals."""
        pipeline = small_pipeline()
        db = pipeline.db
        # attach only the chain: the session has no live-capable model
        session = repro.connect(db).attach_model(chain=pipeline.instance.chain)
        assert session.live_runner is None
        baseline = len(db._recorders)
        session.execute(QUERY, samples=3)
        assert len(db._recorders) == baseline + 1
        session.execute(INSERT)
        assert session._runners == {}
        assert len(db._recorders) == baseline
        # re-execution rebuilds a fresh runner over the updated world
        cursor = session.execute(QUERY, samples=3)
        assert cursor.num_samples == 4
        session.close()

    def test_orphaned_cursor_refuses_to_refine_after_dml(self):
        """A cursor whose runner was invalidated must raise on
        refine(), not silently keep accumulating samples over
        pre-update views (its delta recorder is gone, so the missed
        DML delta can never be folded in)."""
        pipeline = small_pipeline()
        session = repro.connect(pipeline.db).attach_model(
            chain=pipeline.instance.chain
        )
        cursor = session.execute(QUERY, samples=3)
        session.execute(INSERT)
        with pytest.raises(EvaluationError, match="re-execute"):
            cursor.refine(3)
        session.close()
