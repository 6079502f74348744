"""Chain driver: thinning and sample hooks.

§4.1: consecutive MH samples are highly dependent and collecting tuple
counts is expensive (it requires evaluating the query), so counts are
collected only every ``k`` steps ("thinning").  :class:`MarkovChain`
packages a kernel with a thinning interval and yields control to the
caller at every sample point; query evaluators hook in there.
"""

from __future__ import annotations

from typing import Callable, Iterator

from repro.errors import InferenceError
from repro.mcmc.metropolis import MetropolisHastings, MHStatistics

__all__ = ["MarkovChain"]


class MarkovChain:
    """A Metropolis-Hastings kernel plus a thinning interval ``k``."""

    def __init__(self, kernel: MetropolisHastings, steps_per_sample: int):
        if steps_per_sample < 1:
            raise InferenceError("steps_per_sample must be >= 1")
        self.kernel = kernel
        self.steps_per_sample = steps_per_sample
        # The model owning the kernel's graph, when the builder records
        # it: how a world copy holding only the chain repairs its graph
        # after DML (repro.core.live.advance_unit).
        self.model = None

    @property
    def stats(self) -> MHStatistics:
        return self.kernel.stats

    @property
    def effective_acceptance_rate(self) -> float:
        """Acceptance rate over world-changing proposals only (no-op
        self-transitions excluded) — the mixing signal consumers such
        as schedule ablations should tune against, since no-ops inflate
        the raw :attr:`MHStatistics.acceptance_rate` without moving the
        chain."""
        return self.kernel.stats.effective_acceptance_rate

    def advance(self) -> None:
        """Run ``k`` MH walk-steps (the MetropolisHastings(w, k) call in
        Algorithms 1 and 3)."""
        self.kernel.run(self.steps_per_sample)

    def samples(self, num_samples: int) -> Iterator[int]:
        """Yield ``0 .. num_samples-1``, advancing ``k`` steps before
        each yield; the caller evaluates its query at each yield point."""
        for index in range(num_samples):
            self.advance()
            yield index

    def run(
        self,
        num_samples: int,
        on_sample: Callable[[int], None] | None = None,
    ) -> MHStatistics:
        """Drive the chain for ``num_samples`` thinned samples."""
        for index in self.samples(num_samples):
            if on_sample is not None:
                on_sample(index)
        return self.kernel.stats
