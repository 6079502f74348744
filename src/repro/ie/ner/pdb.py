"""The NER probabilistic database: TOKEN relation + model + sampler.

This is the application facade the paper's §5 experiments are built
on.  A :class:`NerTask` fixes the corpus and the learned weights; each
:meth:`NerTask.make_instance` call clones a fresh initial world with
its own chain (the paper's §5.4 produces "eight identical copies of the
probabilistic database" exactly this way).  :class:`NerPipeline` wraps
one instance for interactive use.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.api.session import connect
from repro.db.database import Database
from repro.db.schema import Schema
from repro.db.shard import ShardSpec
from repro.db.types import AttrType
from repro.errors import EvaluationError
from repro.learn.objective import HammingObjective
from repro.learn.samplerank import SampleRankTrainer, TrainingStats
from repro.mcmc.chain import MarkovChain
from repro.mcmc.metropolis import MetropolisHastings
from repro.mcmc.proposal import UniformLabelProposer
from repro.mcmc.schedule import RotatingBatchProposer
from repro.rng import make_rng, spawn
from repro.core.evaluator import EvaluationResult, QueryEvaluator
from repro.core.materialized import MaterializedEvaluator
from repro.core.naive import NaiveEvaluator
from repro.ie.ner.corpus import CorpusConfig, Token, generate_corpus
from repro.ie.ner.labels import OUTSIDE
from repro.ie.ner.model import SkipChainNerModel, fit_generative_weights
from repro.fg.weights import Weights

__all__ = [
    "NER_SHARD_SPEC",
    "TOKEN_SCHEMA",
    "build_token_database",
    "NerTask",
    "NerInstance",
    "NerPipeline",
    "NerShardChainFactory",
    "SeededChainFactory",
]

# The NER workload's natural shard key: every template of the
# skip-chain CRF (emission, bias, transition, skip) relates tokens
# *within one document only*, so partitioning TOKEN by DOC_ID never
# splits a factor — documents are the paper's unit of data parallelism.
NER_SHARD_SPEC = ShardSpec("TOKEN", "DOC_ID")

TOKEN_SCHEMA = Schema.build(
    "TOKEN",
    [
        ("TOK_ID", AttrType.INT),
        ("DOC_ID", AttrType.INT),
        ("STRING", AttrType.STRING),
        ("LABEL", AttrType.STRING),
        ("TRUTH", AttrType.STRING),
    ],
    key=["TOK_ID"],
)


def build_token_database(tokens: Sequence[Token], initial_label: str = OUTSIDE) -> Database:
    """Materialize the paper's TOKEN relation (§5.1).

    LABEL starts at ``initial_label`` for every token ("LABEL is unknown
    for all tuples and is initialized to 'O'"); TRUTH carries the
    reference labels.
    """
    db = Database("ner")
    table = db.create_table(TOKEN_SCHEMA)
    for token in tokens:
        table.insert(
            (token.tok_id, token.doc_id, token.string, initial_label, token.truth)
        )
    return db


class NerInstance:
    """One possible-world copy: database + model + Markov chain."""

    def __init__(
        self,
        db: Database,
        weights: Weights,
        chain_seed: int,
        steps_per_sample: int,
        use_skip: bool = True,
        batch_size: int = 5,
        proposals_per_batch: int = 2000,
        scheduled: bool = True,
    ):
        self.db = db
        self.model = SkipChainNerModel(db, weights=weights, use_skip=use_skip)
        if scheduled and len(self.model.groups) > 1:
            self.proposer = RotatingBatchProposer(
                dict(self.model.groups),
                batch_size=batch_size,
                proposals_per_batch=proposals_per_batch,
            )
        else:
            self.proposer = UniformLabelProposer(self.model.variables)
        self.kernel = MetropolisHastings(
            self.model.graph, self.proposer, seed=chain_seed
        )
        self.chain = MarkovChain(self.kernel, steps_per_sample)
        # How a multi-world unit holding only the chain reaches its live
        # model (repro.core.live.advance_unit).
        self.chain.model = self.model

    def evaluator(
        self, queries: Sequence[str], kind: str = "materialized"
    ) -> QueryEvaluator:
        """An Algorithm 1 ("materialized") or Algorithm 3 ("naive")
        evaluator over this instance's world and chain."""
        if kind == "materialized":
            return MaterializedEvaluator(self.db, self.chain, queries)
        if kind == "naive":
            return NaiveEvaluator(self.db, self.chain, queries)
        raise EvaluationError(f"unknown evaluator kind {kind!r}")


class NerTask:
    """A reproducible NER workload: corpus, weights and chain factory.

    Parameters
    ----------
    num_tokens, corpus_seed, corpus_config:
        Corpus generation (see :mod:`repro.ie.ner.corpus`).
    weight_mode:
        ``"fitted"`` — closed-form weights from TRUTH statistics
        (deterministic, instant; the benchmark default);
        ``"trained"`` — SampleRank training (§5.2);
        ``"zero"`` — uniform model (for testing).
    train_steps, train_seed:
        SampleRank budget when ``weight_mode="trained"``.
    steps_per_sample:
        The thinning interval ``k`` of Algorithms 1/3.
    """

    def __init__(
        self,
        num_tokens: int,
        corpus_seed: int = 0,
        corpus_config: CorpusConfig | None = None,
        weight_mode: str = "fitted",
        train_steps: int = 50_000,
        train_seed: int = 12345,
        steps_per_sample: int = 1000,
        use_skip: bool = True,
        batch_size: int = 5,
        proposals_per_batch: int = 2000,
        scheduled: bool = True,
    ):
        if weight_mode not in ("fitted", "trained", "zero"):
            raise EvaluationError(f"unknown weight mode {weight_mode!r}")
        self.num_tokens = num_tokens
        self.steps_per_sample = steps_per_sample
        self.use_skip = use_skip
        self.batch_size = batch_size
        self.proposals_per_batch = proposals_per_batch
        self.scheduled = scheduled

        self.tokens = generate_corpus(num_tokens, corpus_seed, corpus_config)
        self._initial = build_token_database(self.tokens)
        self._snapshot = self._initial.snapshot()

        self.training_stats: TrainingStats | None = None
        if weight_mode == "fitted":
            self.weights = fit_generative_weights(self._initial)
        elif weight_mode == "zero":
            self.weights = Weights()
        else:
            self.weights = self._train(train_steps, train_seed)

    # ------------------------------------------------------------------
    def _train(self, train_steps: int, train_seed: int) -> Weights:
        """SampleRank on a scratch copy of the initial world (§5.2)."""
        weights = Weights()
        scratch = Database.from_snapshot(self._snapshot, "ner-train")
        model = SkipChainNerModel(scratch, weights=weights, use_skip=self.use_skip)
        proposer = UniformLabelProposer(model.variables)
        trainer = SampleRankTrainer(
            model.graph,
            proposer,
            HammingObjective(model.truth),
            weights,
            seed=train_seed,
        )
        self.training_stats = trainer.train(train_steps)
        return weights

    # ------------------------------------------------------------------
    def make_instance(self, chain_seed: int) -> NerInstance:
        """A fresh copy of the initial world with its own chain."""
        return self.instance_for_world(self._snapshot, chain_seed)

    def instance_for_world(self, snapshot, chain_seed: int) -> NerInstance:
        """An instance over a copy of an arbitrary world snapshot with
        this task's weights and sampler knobs.  Live sessions use it to
        launch parallel chains from the *current* (post-DML) database
        rather than the task's initial corpus."""
        db = Database.from_snapshot(snapshot, f"ner-chain{chain_seed}")
        return NerInstance(
            db,
            self.weights,
            chain_seed,
            self.steps_per_sample,
            use_skip=self.use_skip,
            batch_size=self.batch_size,
            proposals_per_batch=self.proposals_per_batch,
            scheduled=self.scheduled,
        )

    def chain_factory(self, base_seed: int = 0) -> "SeededChainFactory":
        """A :data:`repro.core.parallel.ChainFactory` deriving chain
        seeds from ``base_seed`` (for ParallelEvaluator / ground truth)."""
        return SeededChainFactory(self, base_seed)

    def shard_spec(self) -> ShardSpec:
        """The workload's natural shard key (documents)."""
        return NER_SHARD_SPEC

    def shard_chain_factory(
        self, steps_per_sample: int | None = None
    ) -> "NerShardChainFactory":
        """A :data:`repro.core.sharded.ShardChainFactory` building this
        task's model over one shard's TOKEN relation.

        ``steps_per_sample`` overrides the task's thinning interval —
        data-parallel runs scale it by ``1/K`` so per-token sampling
        effort (and hence estimate quality) matches the unsharded chain
        while each shard does only its share of the walk.
        """
        return NerShardChainFactory(
            self.weights,
            steps_per_sample=(
                self.steps_per_sample
                if steps_per_sample is None
                else steps_per_sample
            ),
            use_skip=self.use_skip,
            batch_size=self.batch_size,
            proposals_per_batch=self.proposals_per_batch,
            scheduled=self.scheduled,
        )


class SeededChainFactory:
    """A picklable :data:`~repro.core.parallel.ChainFactory` over a task.

    Pre-derives 1024 decorrelated chain seeds from ``base_seed`` (via
    :func:`repro.rng.spawn`) so ``factory(i)`` is a pure function of
    ``(task, base_seed, i)`` — the determinism contract the parallel
    backends rely on.  A class rather than a closure so the factory
    itself, like its products, can cross process boundaries.
    """

    def __init__(self, task: NerTask, base_seed: int = 0, num_seeds: int = 1024):
        self.task = task
        self.base_seed = base_seed
        self.world = None  # optional Snapshot overriding the initial corpus
        root = make_rng(base_seed)
        self.seeds = [spawn(root, i).randrange(2**31) for i in range(num_seeds)]

    def rebased(self, snapshot) -> "SeededChainFactory":
        """A copy of this factory that builds chains from ``snapshot``
        instead of the task's initial corpus.  The session rebases the
        factory on its current world when (re)building a parallel
        runner, so its chains hold copies of the session database and
        can follow later DML by delta."""
        clone = SeededChainFactory.__new__(SeededChainFactory)
        clone.task = self.task
        clone.base_seed = self.base_seed
        clone.seeds = list(self.seeds)
        clone.world = snapshot
        return clone

    def __call__(self, index: int) -> Tuple[Database, MarkovChain]:
        if self.world is None:
            instance = self.task.make_instance(self.seeds[index])
        else:
            instance = self.task.instance_for_world(self.world, self.seeds[index])
        return instance.db, instance.chain


class NerShardChainFactory:
    """A picklable :data:`~repro.core.sharded.ShardChainFactory` for the
    skip-chain NER model.

    Carries only the learned weights and sampler knobs (not the corpus
    — each call receives an already-sliced shard database), so shipping
    it to worker processes costs O(weights), and
    ``factory(shard_db, seed)`` builds exactly the chain
    :class:`NerInstance` would: ``shards=1`` is therefore bit-identical
    to unsharded evaluation for the same seed.
    """

    spec = NER_SHARD_SPEC

    def __init__(
        self,
        weights: Weights,
        steps_per_sample: int,
        use_skip: bool = True,
        batch_size: int = 5,
        proposals_per_batch: int = 2000,
        scheduled: bool = True,
    ):
        self.weights = weights
        self.steps_per_sample = steps_per_sample
        self.use_skip = use_skip
        self.batch_size = batch_size
        self.proposals_per_batch = proposals_per_batch
        self.scheduled = scheduled

    def __call__(self, db: Database, seed: int) -> MarkovChain:
        instance = NerInstance(
            db,
            self.weights,
            seed,
            self.steps_per_sample,
            use_skip=self.use_skip,
            batch_size=self.batch_size,
            proposals_per_batch=self.proposals_per_batch,
            scheduled=self.scheduled,
        )
        return instance.chain


class NerPipeline:
    """Convenience facade: one task, one instance, one session.

    Since the :func:`repro.connect` redesign this is a thin wrapper
    over :class:`repro.api.session.Session` — the pipeline builds the
    corpus, model and chain, then opens a session over the instance's
    world and attaches the model.  ``pipeline.session`` is the full SQL
    front door (DDL, DML, deterministic and probabilistic queries);
    the methods below are shorthands kept for the paper's workflows.
    """

    def __init__(self, task: NerTask, chain_seed: int = 1):
        self.task = task
        self.instance = task.make_instance(chain_seed)
        self.session = connect(self.instance.db).attach_model(
            self.instance,
            chain_factory=task.chain_factory(),
            shard_factory=task.shard_chain_factory(),
        )

    # ------------------------------------------------------------------
    @classmethod
    def build(cls, num_tokens: int, seed: int = 0, **task_kwargs) -> "NerPipeline":
        return cls(NerTask(num_tokens, corpus_seed=seed, **task_kwargs), chain_seed=seed + 1)

    @classmethod
    def small(cls, seed: int = 0) -> "NerPipeline":
        """A laptop-instant pipeline (~2k tokens, k=200)."""
        return cls.build(2000, seed=seed, steps_per_sample=200)

    # ------------------------------------------------------------------
    @property
    def db(self) -> Database:
        return self.instance.db

    def evaluate_query(
        self,
        sql: str,
        num_samples: int = 50,
        kind: str = "materialized",
    ):
        """Tuple marginals for one query: the paper's evaluation problem.

        Repeated calls with the same SQL and ``kind`` continue the
        session's cached evaluator, so marginals accumulate (the
        anytime property); use ``self.session.execute`` directly for
        cursor-level control.
        """
        cursor = self.session.execute(sql, samples=num_samples, evaluator=kind)
        return cursor.marginals()

    def evaluate_parallel(
        self,
        sql: str,
        num_chains: int,
        samples_per_chain: int,
        base_seed: int = 0,
    ) -> EvaluationResult:
        """Pooled marginals over independent chains (§5.4)."""
        self.session.attach_model(
            chain_factory=self.task.chain_factory(base_seed)
        )
        cursor = self.session.execute(
            sql,
            samples=samples_per_chain,
            evaluator="parallel",
            chains=num_chains,
        )
        return cursor.result
