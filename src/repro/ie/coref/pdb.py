"""The entity-resolution probabilistic database.

Builds the MENTION relation, binds the clustering model, and exposes
the label-invariant query the example programs use: the *co-reference
probability* of a mention pair,

    SELECT M1.MENTION_ID, M2.MENTION_ID
    FROM MENTION M1, MENTION M2
    WHERE M1.CLUSTER = M2.CLUSTER AND M1.MENTION_ID < M2.MENTION_ID

whose tuple marginals under MCMC are ``Pr[i and j co-refer]`` —
unaffected by cluster-id relabeling.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Sequence

from repro.api.session import connect
from repro.db.database import Database
from repro.db.schema import Schema
from repro.db.shard import KeyListPartitioner, ShardSpec
from repro.db.types import AttrType
from repro.errors import EvaluationError
from repro.fg.weights import Weights
from repro.mcmc.chain import MarkovChain
from repro.mcmc.metropolis import MetropolisHastings
from repro.core.evaluator import QueryEvaluator
from repro.ie.coref.mentions import Mention, generate_mentions
from repro.ie.coref.model import CorefModel, default_coref_weights
from repro.ie.coref.proposals import MoveMentionProposer, SplitMergeProposer

__all__ = [
    "COREF_PAIR_QUERY",
    "COREF_SHARD_SPEC",
    "CorefPipeline",
    "CorefShardChainFactory",
    "MENTION_SCHEMA",
    "build_mention_database",
    "mention_blocks",
    "mention_block_partitioner",
]

# Coref shards on MENTION_ID, but mention *blocks* — groups that could
# ever co-refer under the model's candidate structure (shared surname
# token) — must land in one shard together, so the partitioner is an
# explicit key-list built by :func:`mention_block_partitioner` rather
# than a hash.
COREF_SHARD_SPEC = ShardSpec("MENTION", "MENTION_ID")

MENTION_SCHEMA = Schema.build(
    "MENTION",
    [
        ("MENTION_ID", AttrType.INT),
        ("STRING", AttrType.STRING),
        ("CLUSTER", AttrType.INT),
        ("TRUTH", AttrType.INT),
    ],
    key=["MENTION_ID"],
)

MENTION_TABLE_NAME = MENTION_SCHEMA.name

COREF_PAIR_QUERY = (
    "SELECT M1.MENTION_ID, M2.MENTION_ID FROM MENTION M1, MENTION M2 "
    "WHERE M1.CLUSTER = M2.CLUSTER AND M1.MENTION_ID < M2.MENTION_ID"
)


def build_mention_database(
    mentions: Sequence[Mention], singletons: bool = True
) -> Database:
    """Materialize MENTION with each mention in its own cluster
    (``singletons=True``) or all in one cluster."""
    db = Database("coref")
    table = db.create_table(MENTION_SCHEMA)
    for mention in mentions:
        cluster = mention.mention_id if singletons else 0
        table.insert((mention.mention_id, mention.string, cluster, mention.entity_id))
    return db


def mention_blocks(db: Database) -> List[List[int]]:
    """Partition MENTION_IDs into co-reference candidate blocks.

    Mentions can only be scored as candidate pairs (repulsion) — and
    only plausibly co-refer — when they share a surname token,
    mirroring :class:`~repro.ie.coref.model.CorefModel`'s candidate
    structure.  Grouping by last token therefore yields blocks that a
    shard split must keep intact; mentions with no tokens form
    singleton blocks.  Blocks are returned sorted by ascending minimum
    id (deterministic).

    Sharding on these blocks is the standard *blocking approximation*:
    the affinity template scores any same-cluster pair, so the
    unsharded posterior keeps (small) mass on cross-surname
    co-clustering that a block split forces to exactly zero.  Use it
    when cross-block matches are negligible — the very assumption
    blocking-based entity resolution always makes — or run unsharded."""
    table = db.table(MENTION_TABLE_NAME)
    pos_id = table.schema.position("MENTION_ID")
    pos_str = table.schema.position("STRING")
    by_last: Dict[str, List[int]] = defaultdict(list)
    singletons: List[List[int]] = []
    for row in sorted(table.rows(), key=lambda r: r[pos_id]):
        tokens = row[pos_str].replace(".", "").split()
        if tokens:
            by_last[tokens[-1]].append(row[pos_id])
        else:
            singletons.append([row[pos_id]])
    blocks = list(by_last.values()) + singletons
    return sorted(blocks, key=lambda block: block[0])


def mention_block_partitioner(db: Database, num_shards: int) -> KeyListPartitioner:
    """A block-respecting MENTION_ID partitioner over ``num_shards``.

    Greedy balanced bin-packing: blocks (largest first, ties by minimum
    id) go to the currently least-loaded shard, so no candidate pair is
    ever split and shard sizes stay even.  Deterministic for a given
    database."""
    blocks = sorted(mention_blocks(db), key=lambda b: (-len(b), b[0]))
    shards: List[List[int]] = [[] for _ in range(num_shards)]
    loads = [0] * num_shards
    for block in blocks:
        target = loads.index(min(loads))
        shards[target].extend(block)
        loads[target] += len(block)
    return KeyListPartitioner(shards)


class CorefShardChainFactory:
    """A picklable :data:`~repro.core.sharded.ShardChainFactory` for the
    entity-resolution model: builds one clustering model + MH chain
    over a shard's MENTION relation.  Use together with
    :func:`mention_block_partitioner` so candidate pairs co-partition.
    """

    spec = COREF_SHARD_SPEC
    # _renumber_clusters rewrites each shard's CLUSTER ids, so the
    # session's rows (global ids) cannot be applied to a shard's world:
    # sharded runners rebuild on DML instead of advancing by delta.
    follows_deltas = False

    def __init__(
        self,
        weights: Weights | None = None,
        proposer_kind: str = "move",
        steps_per_sample: int = 500,
        use_repulsion: bool = True,
    ):
        if proposer_kind not in ("move", "splitmerge"):
            raise EvaluationError(f"unknown proposer kind {proposer_kind!r}")
        self.weights = weights if weights is not None else default_coref_weights()
        self.proposer_kind = proposer_kind
        self.steps_per_sample = steps_per_sample
        self.use_repulsion = use_repulsion

    def partitioner_for(self, db: Database, num_shards: int) -> KeyListPartitioner:
        """The default split for this workload: mention blocks must
        co-partition (a hash split would silently sever affinity
        couplings inside a block — the dynamic templates instantiate no
        factors under the singleton init, so graph validation alone
        cannot catch that).  :class:`~repro.core.sharded.ShardedEvaluator`
        calls this when no explicit partitioner is given."""
        return mention_block_partitioner(db, num_shards)

    def __call__(self, db: Database, seed: int) -> MarkovChain:
        self._renumber_clusters(db)
        model = CorefModel(
            db, weights=self.weights, use_repulsion=self.use_repulsion
        )
        if self.proposer_kind == "splitmerge":
            proposer = SplitMergeProposer(model.variables)
        else:
            proposer = MoveMentionProposer(model.variables)
        kernel = MetropolisHastings(model.graph, proposer, seed=seed)
        return MarkovChain(kernel, self.steps_per_sample)

    @staticmethod
    def _renumber_clusters(db: Database) -> None:
        """Densify CLUSTER ids into ``0 .. n_shard-1``.

        A shard inherits global cluster ids (singleton init uses the
        mention id), but the shard model's cluster domain ranges over
        the shard's *own* mention count.  Renumbering by first
        appearance (mention-id order) preserves the partition exactly,
        and the pair query is label-invariant, so answers are
        unaffected."""
        table = db.table(MENTION_TABLE_NAME)
        schema = table.schema
        pos_id = schema.position("MENTION_ID")
        pos_cluster = schema.position("CLUSTER")
        rows = sorted(table.rows(), key=lambda r: r[pos_id])
        dense: Dict[int, int] = {}
        for row in rows:
            dense.setdefault(row[pos_cluster], len(dense))
        for row in rows:
            if dense[row[pos_cluster]] != row[pos_cluster]:
                table.update(
                    schema.key_of(row), {"CLUSTER": dense[row[pos_cluster]]}
                )


class CorefPipeline:
    """Mentions → database → model → split-merge MCMC → pair marginals.

    Since the :func:`repro.connect` redesign this is a thin wrapper
    over :class:`repro.api.session.Session`: the pipeline builds the
    MENTION world, model and chain, then opens ``self.session`` over
    them.  All evaluation below routes through the session (and its
    plan/evaluator caches)."""

    def __init__(
        self,
        num_entities: int = 12,
        mentions_per_entity: int = 4,
        seed: int = 0,
        weights: Weights | None = None,
        proposer_kind: str = "move",
        steps_per_sample: int = 500,
        use_repulsion: bool = True,
    ):
        self.mentions = generate_mentions(num_entities, mentions_per_entity, seed)
        self.db = build_mention_database(self.mentions)
        self.proposer_kind = proposer_kind
        self.use_repulsion = use_repulsion
        self.model = CorefModel(
            self.db,
            weights=weights or default_coref_weights(),
            use_repulsion=use_repulsion,
        )
        if proposer_kind == "splitmerge":
            self.proposer = SplitMergeProposer(self.model.variables)
        elif proposer_kind == "move":
            self.proposer = MoveMentionProposer(self.model.variables)
        else:
            raise EvaluationError(f"unknown proposer kind {proposer_kind!r}")
        self.kernel = MetropolisHastings(self.model.graph, self.proposer, seed=seed + 1)
        self.chain = MarkovChain(self.kernel, steps_per_sample)
        self.session = connect(self.db).attach_model(
            self.model,
            chain=self.chain,
            shard_factory=self.shard_chain_factory(),
        )

    def shard_spec(self) -> ShardSpec:
        """The workload's natural shard key (mention blocks over
        MENTION_ID)."""
        return COREF_SHARD_SPEC

    def shard_partitioner(self, num_shards: int) -> KeyListPartitioner:
        """A block-respecting partitioner for this pipeline's world."""
        return mention_block_partitioner(self.db, num_shards)

    def shard_chain_factory(
        self, steps_per_sample: int | None = None
    ) -> CorefShardChainFactory:
        """A shard chain factory matching this pipeline's model knobs."""
        return CorefShardChainFactory(
            weights=self.model.weights,
            proposer_kind=self.proposer_kind,
            steps_per_sample=(
                self.chain.steps_per_sample
                if steps_per_sample is None
                else steps_per_sample
            ),
            use_repulsion=self.use_repulsion,
        )

    def evaluator(self, kind: str = "materialized") -> QueryEvaluator:
        """The session's (cached) evaluator for the pair query."""
        return self.session.prepare(COREF_PAIR_QUERY, evaluator=kind).evaluator

    def coreference_marginals(self, num_samples: int = 50):
        """``Pr[(i, j) co-refer]`` for all mention pairs ever co-clustered.

        Repeated calls continue the session's cached evaluator, so
        marginals accumulate across calls (the anytime property)."""
        cursor = self.session.execute(COREF_PAIR_QUERY, samples=num_samples)
        return cursor.marginals()

    def map_decode(self, num_steps: int = 20_000) -> None:
        """Anneal toward the MAP clustering (temperature 0.2 walk)."""
        kernel = MetropolisHastings(
            self.model.graph, self.proposer, seed=987, temperature=0.2
        )
        kernel.run(num_steps)
