"""Sharded (data-parallel) query evaluation.

The paper's Fig. 5 scales along two axes: *chain* parallelism (§5.4 —
identical copies of the whole database, one chain each) and *data*
parallelism — partition the database itself so each worker samples an
independent sub-model.  :class:`ShardedEvaluator` runs both axes over
the same chain backends:

1. a :class:`~repro.db.shard.ShardedDatabase` slices the world into K
   self-contained sub-databases along the workload's declared shard key
   (NER ``TOKEN.DOC_ID``, coref mention blocks);
2. a *shard chain factory* — ``factory(shard_db, seed) -> MarkovChain``
   — builds one factor graph + chain per shard, so each shard is a
   complete probabilistic database of its own;
3. every (shard, chain) pair becomes one unit of the existing
   :class:`~repro.core.backends.SequentialBackend` /
   :class:`~repro.core.backends.ProcessPoolBackend`, so ``shards=K``
   composes with ``chains=M`` into K×M workers;
4. per-shard estimates are pooled *within* a shard (cross-chain
   averaging, as before) and union-merged *across* shards into the
   global answer;
5. DML on the full database advances the units by delta
   (:meth:`ShardedEvaluator.advance`): each changed row is routed to
   the shard owning it and repaired there, in the same workers.

Chain parallelism alone is the one-slot layout
(:meth:`ShardedEvaluator.over_copies`): a single unsplit slot whose M
units are world copies built by a
:data:`~repro.core.backends.ChainFactory`, where the shard merge over
one slot is exactly the cross-chain pooling and every delta goes whole
to every copy.

Soundness rests on the shards being probabilistically independent:
:func:`validate_shardable_graph` checks that no instantiated factor
spans two shards (a skip-chain edge crossing a document split, say) and
raises :class:`~repro.errors.ShardingError` otherwise — sampling a
sub-model that ignores a cross-shard factor would silently change the
distribution.

Cross-shard merge semantics: shards are independent sub-models, so for
a query whose answer distributes over the shard partition (selections,
projections, joins within a shard), ``Pr[t ∈ Q(W)] = 1 - Π_k (1 -
Pr[t ∈ Q(W_k)])`` exactly.  A tuple witnessed by a single shard keeps
its exact empirical count (the common, disjoint-support case — and the
reason ``shards=1`` is bit-identical to unsharded evaluation); tuples
witnessed by several shards get the product combine.  Queries that do
*not* distribute — global aggregates — are rejected up front; grouped
aggregates are accepted but the group keys must functionally determine
the shard (e.g. ``GROUP BY DOC_ID`` under document sharding), which the
engine cannot check and the caller must guarantee.

The same caller obligation holds for **joins**: each shard evaluates
the query over its own rows only, so join pairs whose matching rows
live in different shards are never produced (they get probability 0).
This is exactly right when the partitioner co-locates whatever can
join — the NER self-joins are per-document under DOC_ID sharding — and
silently wrong otherwise.  The engine cannot tell these cases apart
from the plan (rejecting joins on non-shard-key columns would outlaw
the coref pair query, whose soundness comes from the *partitioner*,
not the schema), so: shard with a partitioner that co-locates your
join keys, or run unsharded.

Coref block sharding is the standard **blocking approximation** of
entity resolution, not an exact decomposition: the affinity template
scores *any* same-cluster pair, so the unsharded posterior puts (small)
mass on cross-surname co-clustering that block partitioning forces to
exactly zero.  NER document sharding, by contrast, is exact — every
template is within-document by construction.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Type

from repro.db.database import Database, Snapshot
from repro.db.delta import Delta
from repro.db.ra.ast import GroupAggregate, PlanNode
from repro.db.shard import Partitioner, HashPartitioner, ShardSpec, ShardedDatabase
from repro.db.sql.compiler import plan_query
from repro.db.view import strip_presentation
from repro.errors import EvaluationError, ShardingError
from repro.mcmc.chain import MarkovChain
from repro.core.backends import (
    ChainBackend,
    ChainFactory,
    make_backend,
    pool_estimators,
    validate_backend_name,
)
from repro.core.evaluator import EvaluationResult, QueryEvaluator
from repro.core.marginals import MarginalEstimator
from repro.core.materialized import MaterializedEvaluator
from repro.resilience import ResilienceConfig
from repro.rng import make_rng, spawn

__all__ = [
    "ShardChainFactory",
    "ShardedEvaluator",
    "derive_unit_seeds",
    "merge_shard_estimators",
    "validate_shardable_graph",
]

# Builds one shard's sampler over that shard's (already sliced) world:
# ``factory(shard_db, seed) -> MarkovChain``.  Must be picklable for the
# process backend, and may carry a ``spec`` attribute (a ShardSpec)
# declaring the workload's natural shard key, and ``follows_deltas =
# False`` when it rewrites the shard's world (its units then cannot
# apply the full database's rows and rebuild on DML instead).
ShardChainFactory = Callable[[Database, int], MarkovChain]


def derive_unit_seeds(base_seed: int, count: int) -> List[int]:
    """Decorrelated chain seeds for ``count`` (shard, chain) units —
    the same spawn discipline as
    :class:`repro.ie.ner.pdb.SeededChainFactory`, so a sharded run is a
    pure function of ``(data, base_seed)``."""
    root = make_rng(base_seed)
    return [spawn(root, index).randrange(2**31) for index in range(count)]


def validate_shardable_graph(
    graph, sharded: ShardedDatabase, variables=None
) -> None:
    """Raise :class:`ShardingError` if any factor of ``graph`` touches
    variables in two different shards.  ``variables`` restricts the
    check to the factors adjacent to them (a repair's neighbourhood)
    instead of unrolling the whole graph.

    Variables bound to database fields (``FieldVariable``: attributes
    ``table``/``pk``) are mapped through the shard key; free or observed
    variables don't constrain the split.  For models with *dynamic*
    templates only the factors instantiated under the current
    assignment can be checked — co-partition such models by
    construction (e.g. coref mention blocks) rather than relying on
    this check alone.
    """
    factors = (
        graph.all_factors()
        if variables is None
        else graph.factors_touching(variables)
    )
    for factor in factors.values():
        shards = set()
        for variable in factor.variables:
            table = getattr(variable, "table", None)
            pk = getattr(variable, "pk", None)
            if table is None or pk is None or not sharded.is_sharded(table):
                continue
            shards.add(sharded.shard_of_key(table, pk))
        if len(shards) > 1:
            names = [repr(v.name) for v in factor.variables]
            raise ShardingError(
                f"factor template {factor.template_name!r} spans shards "
                f"{sorted(shards)} (variables {', '.join(names)}); "
                f"choose a shard key that co-partitions the template "
                f"(e.g. DOC_ID for skip-chain NER) or fewer shards"
            )


def _reject_non_distributive(plan: PlanNode) -> None:
    """Global aggregates collapse all shards into one row — their
    marginals cannot be reassembled from per-shard answers."""
    if isinstance(plan, GroupAggregate) and not plan.group_by:
        raise ShardingError(
            "global aggregates do not distribute over shards; "
            "aggregate per shard key (e.g. GROUP BY DOC_ID) or run "
            "unsharded"
        )
    for child in plan.children():
        _reject_non_distributive(child)


def merge_shard_estimators(
    per_shard: Sequence[Sequence[MarginalEstimator]],
) -> List[MarginalEstimator]:
    """Union-merge per-shard estimators (one list per shard, one
    estimator per query) into global estimators.

    All shards must have recorded the same number of samples (sample
    ``s`` of the global world is the product of sample ``s`` of every
    shard).  Tuples witnessed by one shard keep exact integer counts;
    tuples witnessed by several get the independent-union combine
    ``z * (1 - Π_k (1 - m_k/z))``.
    """
    if not per_shard:
        raise ShardingError("no shard results to merge")
    if len(per_shard) == 1:
        return [estimator.copy() for estimator in per_shard[0]]
    merged: List[MarginalEstimator] = []
    for query_index in range(len(per_shard[0])):
        estimators = [shard[query_index] for shard in per_shard]
        z = estimators[0].num_samples
        for estimator in estimators[1:]:
            if estimator.num_samples != z:
                raise ShardingError(
                    f"shards disagree on sample count "
                    f"({estimator.num_samples} != {z}); every shard must "
                    f"record the same number of thinned samples"
                )
        if z == 0:
            merged.append(MarginalEstimator())
            continue
        witness_counts: Dict[Tuple, List[int]] = {}
        for estimator in estimators:
            for row, count in estimator.counts().items():
                witness_counts.setdefault(row, []).append(count)
        combined: Dict[Tuple, Any] = {}
        for row, counts in witness_counts.items():
            if len(counts) == 1:
                combined[row] = counts[0]
            else:
                miss = 1.0
                for count in counts:
                    miss *= 1.0 - count / z
                combined[row] = z * (1.0 - miss)
        merged.append(MarginalEstimator.from_counts(combined, z))
    return merged


class _ShardUnitFactory:
    """The :data:`~repro.core.backends.ChainFactory` over (shard, chain)
    units: unit ``u = slot * chains + c`` builds chain ``c`` over
    non-empty shard ``slot``'s world.  Chain 0 takes the freshly split
    shard database itself; further chains clone a snapshot taken before
    any chain was built (a factory may rewrite its world, e.g. coref's
    cluster renumbering).  A class (not a closure) so its products
    cross process boundaries."""

    def __init__(
        self,
        shard_dbs: Sequence[Database],
        shard_factory: ShardChainFactory,
        chains: int,
        seeds: Sequence[int],
    ):
        self.shard_dbs = list(shard_dbs)
        self.snapshots: List[Snapshot] = (
            [db.snapshot() for db in self.shard_dbs] if chains > 1 else []
        )
        self.shard_factory = shard_factory
        self.chains = chains
        self.seeds = list(seeds)

    def __call__(self, unit: int) -> Tuple[Database, MarkovChain]:
        slot, chain_index = divmod(unit, self.chains)
        if chain_index == 0:
            db = self.shard_dbs[slot]
        else:
            db = Database.from_snapshot(
                self.snapshots[slot], f"{self.shard_dbs[slot].name}c{chain_index}"
            )
        return db, self.shard_factory(db, self.seeds[unit])


class ShardedEvaluator:
    """Data-parallel marginal estimation over K database shards.

    Stateful like the chain backends: construction splits the database,
    validates shardability, and starts one (shard, chain) unit per
    worker slot; every :meth:`run` call advances *all* units and
    returns freshly merged global estimates, so repeated calls continue
    the same chains (anytime refinement); :meth:`advance` carries them
    across a change of the full database.  :meth:`close` releases the
    workers.  :meth:`over_copies` builds the unsplit chain-parallel
    layout instead.

    Parameters
    ----------
    database:
        The full (unsharded) database; read, never mutated.  Deltas
        passed to :meth:`advance` are changes of this database.
    shard_factory:
        ``factory(shard_db, seed) -> MarkovChain`` building one shard's
        model + sampler (see :data:`ShardChainFactory`).
    queries:
        SQL strings or compiled plans, evaluated per shard.
    num_shards:
        K.  Shards whose shard table received no rows are skipped (K
        may exceed the number of distinct shard keys).
    spec:
        The shard key; defaults to ``shard_factory.spec``.
    partitioner:
        Defaults to :class:`~repro.db.shard.HashPartitioner`.
    chains:
        Independent chains per shard (K×M units in total).
    backend:
        ``"sequential"`` or ``"process"`` — where units execute.
    resilience:
        Optional :class:`~repro.resilience.ResilienceConfig` handed to
        the backend: unit workers checkpoint their chains and are
        respawned (with retry/backoff) after a crash or wedge.
    validate_graph:
        A :class:`~repro.fg.graph.FactorGraph` over the *full* database
        to check for cross-shard factors (skipped when ``None`` or when
        K == 1, where no factor can cross anything).
    """

    def __init__(
        self,
        database: Database,
        shard_factory: ShardChainFactory,
        queries: Sequence[str | PlanNode],
        num_shards: int,
        *,
        spec: Optional[ShardSpec] = None,
        partitioner: Optional[Partitioner] = None,
        chains: int = 1,
        backend: str = "sequential",
        evaluator_cls: Type[QueryEvaluator] = MaterializedEvaluator,
        base_seed: int = 0,
        validate_graph=None,
        replicate: Sequence[str] = (),
        resilience: Optional[ResilienceConfig] = None,
    ):
        if num_shards < 1:
            raise ShardingError(f"need at least one shard, got {num_shards}")
        if chains < 1:
            raise EvaluationError("need at least one chain per shard")
        validate_backend_name(backend)
        spec = spec if spec is not None else getattr(shard_factory, "spec", None)
        if spec is None:
            raise ShardingError(
                "no shard key: pass spec=ShardSpec(table, column) or use a "
                "shard factory that declares one (task.shard_chain_factory())"
            )
        if partitioner is None:
            # A workload whose keys must co-partition (coref mention
            # blocks) supplies its own default split; plain hash
            # partitioning is only the fallback.
            hook = getattr(shard_factory, "partitioner_for", None)
            partitioner = (
                hook(database, num_shards)
                if hook is not None
                else HashPartitioner(num_shards)
            )
        if partitioner.num_shards != num_shards:
            raise ShardingError(
                f"partitioner covers {partitioner.num_shards} shards but "
                f"num_shards={num_shards}"
            )
        self.spec = spec
        self.num_shards = num_shards
        self.chains = chains
        self.sharded = ShardedDatabase(
            database, spec, partitioner, replicate=replicate
        )
        if num_shards > 1:
            for query in queries:
                plan = (
                    query
                    if isinstance(query, PlanNode)
                    else plan_query(database, query)
                )
                _reject_non_distributive(strip_presentation(plan))
            if validate_graph is not None:
                validate_shardable_graph(validate_graph, self.sharded)

        shard_dbs = self.sharded.split()
        occupied = [
            (index, db)
            for index, db in enumerate(shard_dbs)
            if len(db.table(spec.table)) > 0
        ]
        if not occupied:
            raise ShardingError(
                f"every shard is empty: table {spec.table!r} has no rows"
            )
        # Original shard index per occupied slot (slots are what run).
        self.shard_indexes: List[int] = [index for index, _ in occupied]
        self.empty_shards: List[int] = [
            index
            for index in range(num_shards)
            if index not in set(self.shard_indexes)
        ]
        # Rows of the shard table per slot, kept current across deltas:
        # a delta that would empty a slot falls back to a rebuild.
        self._slot_rows = [len(db.table(spec.table)) for _, db in occupied]
        self._no_deltas_reason = (
            None
            if getattr(shard_factory, "follows_deltas", True)
            else "the shard factory rewrites its shards' worlds, so the "
            "database's rows cannot be applied to them"
        )
        num_units = len(occupied) * chains
        self.unit_seeds = derive_unit_seeds(base_seed, num_units)
        self._start(
            _ShardUnitFactory(
                [db for _, db in occupied], shard_factory, chains, self.unit_seeds
            ),
            num_units,
            queries,
            backend,
            evaluator_cls,
            resilience,
        )

    @classmethod
    def over_copies(
        cls,
        factory: ChainFactory,
        queries: Sequence[str | PlanNode],
        chains: int,
        *,
        backend: str = "sequential",
        evaluator_cls: Type[QueryEvaluator] = MaterializedEvaluator,
        resilience: Optional[ResilienceConfig] = None,
        follows_deltas: bool = True,
    ) -> "ShardedEvaluator":
        """The chain-parallel layout (paper §5.4): one unsplit slot of
        ``chains`` units, unit ``c`` running over the world copy
        ``factory(c)`` builds.  Their estimators pool exactly as
        independent chains do (the merge over one slot is a copy), and
        :meth:`advance` sends the whole delta to every copy with no
        shard gate.  ``follows_deltas=False`` declares that the
        factory's worlds are not copies of the database the deltas
        change (it cannot rebase onto it); :meth:`advance` then raises
        and the caller rebuilds."""
        self = cls.__new__(cls)
        self.spec = None
        self.sharded = None
        self.num_shards = 1
        self.chains = chains
        self.shard_indexes = [0]
        self.empty_shards = []
        self._slot_rows = None
        self.unit_seeds = []
        self._no_deltas_reason = (
            None
            if follows_deltas
            else "the chain factory cannot rebase, so its worlds are not "
            "copies of the database the deltas change"
        )
        self._start(factory, chains, queries, backend, evaluator_cls, resilience)
        return self

    def _start(
        self,
        factory: ChainFactory,
        num_units: int,
        queries: Sequence[str | PlanNode],
        backend: str,
        evaluator_cls: Type[QueryEvaluator],
        resilience: Optional[ResilienceConfig],
    ) -> None:
        if not queries:
            raise EvaluationError("need at least one query")
        self.backend: ChainBackend = make_backend(backend, resilience=resilience)
        try:
            self.backend.start(factory, num_units, list(queries), evaluator_cls)
        except BaseException:
            # start() already closes its own partial worker set; close
            # again defensively so no unit outlives a failed build.
            self.backend.close()
            raise
        # Per-occupied-shard pooled results of the most recent run().
        self.shard_results: List[EvaluationResult] = []

    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self.backend.closed

    def worker_pids(self) -> List[int]:
        """PIDs of live unit workers (process backend only)."""
        pids = getattr(self.backend, "worker_pids", None)
        return pids() if pids is not None else []

    # ------------------------------------------------------------------
    def run(
        self,
        samples_per_chain: int,
        burn_in: int = 0,
        include_initial: bool = True,
    ) -> EvaluationResult:
        """Advance every (shard, chain) unit ``samples_per_chain``
        thinned samples and return the merged global estimate.

        Estimators are cumulative across calls (anytime refinement);
        the merge is recomputed from the latest per-unit state."""
        started = time.perf_counter()
        backend_result = self.backend.run(
            samples_per_chain, burn_in=burn_in, include_initial=include_initial
        )
        per_shard: List[List[MarginalEstimator]] = []
        self.shard_results = []
        for slot in range(len(self.shard_indexes)):
            units = self.backend.chain_results[
                slot * self.chains : (slot + 1) * self.chains
            ]
            pooled = pool_estimators([unit.estimators for unit in units])
            shard_cpu = sum(unit.cpu_elapsed for unit in units)
            per_shard.append(pooled)
            self.shard_results.append(
                EvaluationResult(pooled, shard_cpu, shard_cpu)
            )
        merged = merge_shard_estimators(per_shard)
        wall = time.perf_counter() - started
        return EvaluationResult(merged, wall, backend_result.cpu_elapsed)

    # ------------------------------------------------------------------
    def route(self, delta: Delta) -> List[Delta]:
        """Split a delta of the full database into one delta per slot.

        Each changed row of a sharded table goes to the slot owning its
        shard-key value (an UPDATE that moves a row to another shard is
        already a delete of the old row plus an insert of the new one,
        so it becomes a delete in one slot and an insert in another);
        replicated tables go to every slot.  Raises
        :class:`ShardingError` when a row cannot be placed: the
        partitioner rejects its key, or its shard was empty when the
        evaluator was built.  The one-slot copies layout
        (:meth:`over_copies`) returns the whole delta.
        """
        if self.sharded is None:
            return [delta]
        slot_of = {shard: slot for slot, shard in enumerate(self.shard_indexes)}
        routed = [Delta() for _ in self.shard_indexes]
        for table in delta.tables():
            changes = delta.for_table(table)
            if self.sharded.is_replicated(table):
                for out in routed:
                    for row, count in changes.items():
                        out.add(table, row, count)
                continue
            if not self.sharded.is_sharded(table):
                raise ShardingError(
                    f"table {table!r} is neither sharded nor replicated"
                )
            position = self.sharded.db.table(table).schema.position(
                self.sharded.shard_column(table)
            )
            for row, count in changes.items():
                shard = self.sharded.shard_of_value(row[position])
                slot = slot_of.get(shard)
                if slot is None:
                    raise ShardingError(
                        f"a {table} row routes to shard {shard}, which was "
                        f"empty when the shards were built"
                    )
                routed[slot].add(table, row, count)
        return routed

    def advance(self, delta: Delta, repair=None, graph=None) -> None:
        """Move every (shard, chain) unit forward by ``delta`` instead
        of rebuilding: route it (:meth:`route`), then each unit applies
        its share, repairs its model, re-burns locally and re-pools its
        estimators (:func:`~repro.core.live.advance_unit`), so every
        shard restarts its sample count together and the merge stays
        valid.

        ``repair`` and ``graph`` — the full-database model's repair of
        the same delta and its graph — gate soundness for K > 1: without
        them nothing certifies the delta's neighbourhood, and a factor
        next to the repaired variables that spans two shards raises
        :class:`ShardingError` (only that neighbourhood is checked,
        never the whole graph).  Graphs with dynamic templates cannot
        certify a new variable's future neighbourhood, so a repair that
        adds variables to one raises as well, as does a shard factory
        that rewrites its shards' worlds (``follows_deltas = False``) or a
        copies layout whose factory cannot rebase.  Any raise means the
        caller must rebuild from the updated database.
        """
        if self._no_deltas_reason is not None:
            raise EvaluationError(self._no_deltas_reason)
        if self.num_shards > 1:
            if repair is None or graph is None:
                raise ShardingError(
                    "no model repair of the full database certifies that "
                    "the delta's factors stay within one shard"
                )
            if repair.added and graph.has_dynamic_templates:
                raise ShardingError(
                    "new variables of a model with dynamic templates may "
                    "couple across shards; rebuilding"
                )
            validate_shardable_graph(
                graph, self.sharded, variables=repair.local_variables()
            )
        routed = self.route(delta)
        rows = self._slot_rows
        if rows is not None:
            rows = [
                before
                + sum(count for _, count in part.for_table(self.spec.table).items())
                for before, part in zip(rows, routed)
            ]
            if 0 in rows:
                raise ShardingError(
                    f"the delta would empty shard {self.shard_indexes[rows.index(0)]}"
                )
        self.backend.advance([part for part in routed for _ in range(self.chains)])
        self._slot_rows = rows

    def close(self) -> None:
        self.backend.close()

    def __enter__(self) -> "ShardedEvaluator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
