"""MCMC query evaluation — the paper's primary contribution.

Estimate ``Pr[t ∈ Q(W)]`` for every tuple in a query's answer by
sampling possible worlds with Metropolis-Hastings and counting answer
membership (Eq. 5):

* :class:`NaiveEvaluator` — Algorithm 3: full query per sample;
* :class:`MaterializedEvaluator` — Algorithm 1: one full query, then
  incremental view maintenance per sample;
* :class:`ShardedEvaluator` — §5.4's two parallel axes through one
  evaluator: :meth:`~ShardedEvaluator.over_copies` pools independent
  chains over world copies (one unsplit slot), and the shard layout
  runs one factor graph + chain per database shard with union-merged
  marginals;
* :class:`ChainRunner` — anytime continuation of one evaluator's chain;
* :class:`MarginalEstimator`, :class:`LossTrace`, metrics — the
  measurement apparatus of §5.
"""

from repro.core.anytime import ChainRunner, LossTrace
from repro.core.backends import (
    BACKENDS,
    ChainBackend,
    ChainFactory,
    ProcessPoolBackend,
    SequentialBackend,
    make_backend,
)
from repro.core.evaluator import EvaluationResult, QueryEvaluator
from repro.core.ground_truth import estimate_ground_truth
from repro.core.live import (
    LiveRunner,
    graph_signature,
    resolve_live_model,
    supports_live_repair,
)
from repro.core.marginals import MarginalEstimator
from repro.core.materialized import MaterializedEvaluator
from repro.core.metrics import (
    normalize_series,
    squared_error,
    time_to_fraction,
    time_to_half,
)
from repro.core.naive import NaiveEvaluator
from repro.core.sharded import (
    ShardChainFactory,
    ShardedEvaluator,
    merge_shard_estimators,
    validate_shardable_graph,
)

__all__ = [
    "BACKENDS",
    "ChainBackend",
    "ChainFactory",
    "ChainRunner",
    "EvaluationResult",
    "ProcessPoolBackend",
    "SequentialBackend",
    "make_backend",
    "LiveRunner",
    "LossTrace",
    "MarginalEstimator",
    "MaterializedEvaluator",
    "NaiveEvaluator",
    "graph_signature",
    "resolve_live_model",
    "supports_live_repair",
    "QueryEvaluator",
    "ShardChainFactory",
    "ShardedEvaluator",
    "estimate_ground_truth",
    "merge_shard_estimators",
    "validate_shardable_graph",
    "normalize_series",
    "squared_error",
    "time_to_fraction",
    "time_to_half",
]
