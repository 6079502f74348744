"""Ground-truth marginal estimation.

The true tuple marginals of the skip-chain CRF are intractable, so the
paper *estimates* ground truth by running the sampler itself far longer
than the evaluation runs (§5.2: 100M proposals, thinned), or by
averaging several parallel chains (§5.4).  This module packages that
protocol so every benchmark computes its reference the same way.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.core.backends import ChainFactory
from repro.core.sharded import ShardedEvaluator

__all__ = ["estimate_ground_truth"]


def estimate_ground_truth(
    factory: ChainFactory,
    queries: Sequence[str],
    num_chains: int,
    samples_per_chain: int,
    burn_in: int = 0,
) -> List[Dict[tuple, float]]:
    """Reference marginals per query, from pooled long parallel chains.

    Chain seeds come from the factory; callers should derive them from
    a *different* base seed than the evaluation runs so the reference
    is independent of the measured runs.  ``burn_in`` thinned samples
    are discarded per chain before counting (references should not
    include the initial transient away from the all-'O' world).
    """
    with ShardedEvaluator.over_copies(factory, queries, num_chains) as evaluator:
        result = evaluator.run(samples_per_chain, burn_in=burn_in)
    return [estimator.probabilities() for estimator in result.estimators]
