"""Any-time evaluation: continued chains and loss traces.

The paper's Figs. 4b and 6 plot (normalized) squared error against
time, demonstrating the any-time property: applications can stop early
for coarse estimates or keep sampling for fidelity.  A
:class:`ChainRunner` continues one evaluator's chain across calls, and
a :class:`LossTrace` is the ``on_sample`` hook that produces such
plots.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.core.evaluator import EvaluationResult, QueryEvaluator
from repro.core.marginals import MarginalEstimator
from repro.core.metrics import normalize_series, squared_error, time_to_fraction
from repro.errors import EvaluationError
from repro.fg.graph import GraphRepair

__all__ = ["ChainRunner", "LossTrace"]

Marginals = Dict[tuple, float]


class ChainRunner:
    """Drives one query evaluator; the initial world is counted as a
    sample only on the first run (later runs extend the same chain)."""

    def __init__(self, evaluator: QueryEvaluator, targeted: bool = False):
        self.evaluator = evaluator
        # A targeted runner samples a restricted (query-relevant)
        # variable subset; its restriction is derived from the stored
        # deterministic columns, so DML always disposes it instead of
        # repairing (the restriction itself may be stale).
        self.targeted = targeted
        self._first = True
        self._closed = False

    def run(self, samples: int, burn_in: int = 0) -> EvaluationResult:
        if self._closed:
            # A disposed runner's recorder is gone, so its materialized
            # views missed every mutation since — reviving it would
            # serve pre-update answers.  Mirror the closed multi-world
            # backends: orphaned cursors must re-execute, not refine.
            raise EvaluationError(
                "this runner was invalidated (DDL/DML or session close); "
                "re-execute the query for up-to-date marginals"
            )
        include_initial = self._first
        self._first = False
        return self.evaluator.run(
            samples, include_initial_sample=include_initial, burn_in=burn_in
        )

    def notify_repair(self, repair: GraphRepair) -> None:
        """Re-pool after a live graph repair: the posterior changed, so
        pre-update samples are dropped in place (cursors already issued
        observe the reset) and the repaired world counts as the fresh
        initial sample on the next run."""
        self.evaluator.notify_repair(repair)
        self._first = True

    def dispose(self) -> None:
        self._closed = True
        detach = getattr(self.evaluator, "detach", None)
        if detach is not None:
            detach()


class LossTrace:
    """Records ``(elapsed, loss)`` per sample against reference truths.

    Pass :meth:`hook` as the ``on_sample`` argument of
    :meth:`repro.core.evaluator.QueryEvaluator.run`.
    """

    def __init__(self, truths: Sequence[Marginals]):
        self.truths = list(truths)
        self._points: List[List[Tuple[float, float]]] = [[] for _ in self.truths]

    def hook(
        self, index: int, elapsed: float, estimators: List[MarginalEstimator]
    ) -> None:
        for i, (truth, estimator) in enumerate(zip(self.truths, estimators)):
            loss = squared_error(estimator.probabilities(), truth)
            self._points[i].append((elapsed, loss))

    # ------------------------------------------------------------------
    def trace(self, query_index: int = 0) -> List[Tuple[float, float]]:
        """The raw ``(elapsed_seconds, loss)`` series for one query."""
        return list(self._points[query_index])

    def normalized_trace(self, query_index: int = 0) -> List[Tuple[float, float]]:
        """Loss scaled so the series' maximum is 1 (paper §5.2)."""
        points = self._points[query_index]
        losses = normalize_series([loss for _, loss in points])
        return [(elapsed, loss) for (elapsed, _), loss in zip(points, losses)]

    def time_to_fraction(self, fraction: float, query_index: int = 0) -> float:
        """Earliest elapsed time at which the loss fell to ``fraction``
        of its initial value (0.5 = the paper's Fig. 4a metric)."""
        return time_to_fraction(self._points[query_index], fraction)

    def final_loss(self, query_index: int = 0) -> float:
        return self._points[query_index][-1][1]
