"""Live incremental inference: DML-driven factor-graph repair.

The paper's central scalability claim is that MCMC makes *updates*
cheap: when the evidence changes, the sampler resumes from the current
possible world instead of re-running inference from scratch.  This
module is that claim operationalized:

* :class:`LiveRunner` subscribes to the DML deltas the session captures
  from the SQL executor, asks the attached model to repair its factor
  graph in place (``model.repair_from_delta(delta) -> GraphRepair``),
  re-syncs the chain's proposer to the repaired variable set, and
  locally re-burns only the fresh/touched variables — **chain state for
  every untouched variable carries over**, which is where the ≥10×
  update speedup over rebuild-and-reburn comes from.
* :class:`IncrementalEvaluator` is the materialized evaluator made
  repair-aware: the DML delta flows through the same recorder the MCMC
  samples use (views fold it in on the next answer), and
  :meth:`~IncrementalEvaluator.notify_repair` re-pools the marginal
  estimators in place — the posterior changed, so pre-update samples no
  longer estimate it, and anytime cursors holding the estimators
  observe the reset.

Composition with the execution backends is *advance-by-delta*: the
sequential single-chain path repairs in place, and every multi-world
runner (``chains=K`` / ``shards=K``, sequential or process backend)
ships the statement's delta to each of its (shard, chain) units, where
:func:`advance_unit` applies it to the unit's world copy and repairs
the unit's own model the same way.  Worker processes stay warm; a
snapshot rebuild happens only at cold start and as the fallback when a
unit cannot follow the delta (see the README's "Live updates" matrix).

A model is live-capable when it exposes ``repair_from_delta`` and
``graph`` (:class:`~repro.ie.ner.model.SkipChainNerModel`,
:class:`~repro.ie.coref.model.CorefModel`); anything else falls back to
invalidation.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.core.evaluator import QueryEvaluator
from repro.core.materialized import MaterializedEvaluator
from repro.db.delta import Delta
from repro.errors import LiveUpdateError
from repro.fg.graph import FactorGraph, GraphRepair
from repro.mcmc.chain import MarkovChain
from repro.mcmc.proposal import UniformLabelProposer

__all__ = [
    "IncrementalEvaluator",
    "LiveRunner",
    "advance_unit",
    "graph_signature",
    "resolve_live_model",
    "supports_live_repair",
]


def supports_live_repair(model: Any) -> bool:
    """Whether ``model`` implements the live-repair protocol."""
    return (
        callable(getattr(model, "repair_from_delta", None))
        and getattr(model, "graph", None) is not None
    )


def resolve_live_model(model: Any) -> Optional[Any]:
    """The live-capable model inside ``model``, or ``None``.

    Accepts the model itself or an instance facade wrapping one under
    ``.model`` (e.g. :class:`~repro.ie.ner.pdb.NerInstance`).
    """
    for candidate in (model, getattr(model, "model", None)):
        if candidate is not None and supports_live_repair(candidate):
            return candidate
    return None


def graph_signature(graph: FactorGraph) -> tuple:
    """A comparable fingerprint of a factor graph under its current
    assignment: the ordered variable names, the ordered factor keys of
    the unrolled graph, and the total log-score.

    Two graphs with equal signatures enumerate the same factors in the
    same order and therefore sample identically from identical RNG
    state — the bit-identity contract between a live-repaired graph and
    a from-scratch rebuild (tests and the live-update benchmark assert
    it).  Unrolls the whole graph: intended for validation, not hot
    paths.
    """
    factors = graph.all_factors()
    return (
        tuple(v.name for v in graph.variables),
        tuple(factors.keys()),
        graph.score(),
    )


class IncrementalEvaluator(MaterializedEvaluator):
    """A materialized evaluator that survives live graph repair.

    Between runs, a DML statement lands in the attached delta recorder
    exactly like an MCMC transition, so the materialized views stay
    consistent with no extra machinery.  What does *not* survive an
    update is the sample pool: the inherited
    :meth:`~repro.core.evaluator.QueryEvaluator.notify_repair` resets
    every estimator in place, re-pooling marginals over post-update
    samples only.  The class exists as the named live surface (and the
    hook point for update-aware view strategies); the repair contract
    itself lives on the evaluator base.
    """


class LiveRunner:
    """Applies DML deltas to an attached model + chain, in place.

    Parameters
    ----------
    model:
        A live-capable model (``repair_from_delta`` + ``graph``).
    chain:
        The Markov chain sampling that model's graph (the session's
        attached chain).
    burn_steps_per_variable, min_burn_steps:
        Local re-burn budget: fresh/touched variables get
        ``max(min_burn_steps, burn_steps_per_variable * len(local))``
        targeted MH steps so they equilibrate against their (warm)
        neighbourhood before the next sample is recorded.
    """

    def __init__(
        self,
        model: Any,
        chain: MarkovChain,
        burn_steps_per_variable: int = 25,
        min_burn_steps: int = 50,
    ):
        if not supports_live_repair(model):
            raise LiveUpdateError(
                "live updates need a model exposing repair_from_delta and "
                f"graph; got {type(model).__name__}"
            )
        if getattr(getattr(chain, "kernel", None), "proposer", None) is None:
            raise LiveUpdateError(
                "live updates need a chain whose kernel exposes a "
                "resyncable proposer; kernels with private variable "
                "snapshots (e.g. Gibbs) cannot follow graph repairs — "
                "fall back to invalidation"
            )
        self.model = model
        self.chain = chain
        self.burn_steps_per_variable = burn_steps_per_variable
        self.min_burn_steps = min_burn_steps
        #: Repairs applied over this runner's lifetime (observability).
        self.repairs_applied = 0

    @property
    def kernel(self):
        return self.chain.kernel

    # ------------------------------------------------------------------
    def on_dml(self, delta: Delta) -> GraphRepair:
        """Repair the model from one DML delta.

        Returns the (possibly empty) :class:`GraphRepair`.  Untouched
        variables keep their chain state; fresh and touched variables
        are locally re-burned through the chain's own kernel (accepted
        moves flush to the database, so attached view recorders stay
        consistent).  A delta not touching the model's declared
        ``tables`` short-circuits without invoking the hook.  Raises
        :class:`LiveUpdateError` if the model's hook — or the
        post-repair proposer resync / local burn — fails; the caller
        must then treat the model (and its chain) as stale.
        """
        if not self._delta_is_relevant(delta):
            return GraphRepair()
        try:
            repair = self.model.repair_from_delta(delta)
        except LiveUpdateError:
            raise
        except Exception as exc:
            raise LiveUpdateError(
                f"repair of {type(self.model).__name__} failed: {exc}"
            ) from exc
        if repair.is_empty():
            return repair
        self.repairs_applied += 1
        try:
            self._sync_proposer()
            self._local_burn(repair)
        except Exception as exc:
            # The graph is repaired but the chain machinery is not
            # (e.g. a proposer that cannot represent the new variable
            # set) — the chain must not keep sampling.
            raise LiveUpdateError(
                f"post-repair resync of {type(self.model).__name__} "
                f"failed: {exc}"
            ) from exc
        return repair

    def _delta_is_relevant(self, delta: Delta) -> bool:
        """Whether the delta touches any relation the model reads
        (``model.tables``); models without the declaration are asked
        about every delta."""
        tables = getattr(self.model, "tables", None)
        if not tables:
            return True
        wanted = {t.lower() for t in tables}
        return any(
            table in wanted and not delta.for_table(table).is_empty()
            for table in delta.tables()
        )

    # ------------------------------------------------------------------
    def _sync_proposer(self) -> None:
        """Point the chain's proposer at the repaired variable set.

        Duck-typed: grouped proposers (``set_groups``) are refreshed
        from the model's group map, flat proposers (``set_variables``)
        from the variable list.  A proposer with neither hook is left
        alone — acceptable only if it never proposes removed variables.
        """
        proposer = self.kernel.proposer
        groups = getattr(self.model, "groups", None)
        if groups and hasattr(proposer, "set_groups"):
            proposer.set_groups(groups)
        elif hasattr(proposer, "set_variables"):
            proposer.set_variables(self.model.variables)

    def _local_burn(self, repair: GraphRepair) -> None:
        local = repair.local_variables()
        if not local:
            return
        steps = max(
            self.min_burn_steps, self.burn_steps_per_variable * len(local)
        )
        kernel = self.kernel
        saved = kernel.proposer
        kernel.proposer = UniformLabelProposer(local)
        try:
            kernel.run(steps)
        finally:
            kernel.proposer = saved


# ----------------------------------------------------------------------
# Multi-world units
# ----------------------------------------------------------------------
def advance_unit(evaluator: QueryEvaluator, delta: Delta) -> GraphRepair:
    """Move one (shard, chain) unit forward by ``delta``.

    The unit's world copy applies the delta (its view recorders fold it
    in like any other mutation), the unit's model repairs its graph and
    locally re-burns through the unit's own chain, and the evaluator
    re-pools its estimators so the repaired world counts as the next
    initial sample.  The one routine behind both chain backends: the
    sequential backend calls it in-process, process workers on a
    ``("delta", ...)`` command.  Raises :class:`LiveUpdateError` when
    the unit cannot follow deltas; the caller must then rebuild it.
    """
    chain = evaluator.chain
    # Built first: a unit that cannot follow deltas raises here, before
    # its world is touched.
    live = LiveRunner(getattr(chain, "model", None), chain)
    evaluator.db.apply_delta(delta)
    repair = live.on_dml(delta)
    evaluator.notify_repair(repair)
    return repair
