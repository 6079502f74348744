"""SampleRank: learning preferences from atomic gradients (§5.2).

The paper trains its skip-chain CRF with one million SampleRank steps,
"learning all parameters in a matter of minutes".  SampleRank runs a
Metropolis-Hastings walk; whenever the model's ranking of the current
and proposed worlds *disagrees* with the objective's ranking (with an
optional margin), it nudges the weights by the difference of sufficient
statistics of the two worlds — a perceptron update restricted to the
factors the proposal touched.

References: Wick et al., "SampleRank: Learning preference from atomic
gradients", NIPS WS 2009 [32].
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict

from repro.errors import InferenceError
from repro.fg.features import FeatureVector, accumulate
from repro.fg.graph import FactorGraph
from repro.fg.variables import FieldVariable
from repro.fg.weights import Weights
from repro.learn.objective import Objective
from repro.mcmc.proposal import ProposalDistribution
from repro.rng import make_rng

__all__ = ["SampleRankTrainer", "TrainingStats"]


@dataclass
class TrainingStats:
    """Counters accumulated over a training run."""

    steps: int = 0
    updates: int = 0
    accepted: int = 0

    @property
    def update_rate(self) -> float:
        return self.updates / self.steps if self.steps else 0.0


class SampleRankTrainer:
    """Online parameter estimation during an MH walk.

    Parameters
    ----------
    graph, proposer:
        Model and jump function, exactly as used at query time.
    objective:
        The ranking supervision (e.g. :class:`HammingObjective` against
        the TRUTH column).
    weights:
        The parameter vector to train, shared with the model templates.
    learning_rate:
        Step size of the perceptron update.
    margin:
        Required model-score separation; a disagreement is registered
        unless the preferred world wins by more than ``margin``.
    walk_policy:
        ``"model"`` follows MH acceptance under the (evolving) model —
        the paper's regime; ``"objective"`` greedily follows the
        objective, useful to bootstrap from zero weights.
    """

    def __init__(
        self,
        graph: FactorGraph,
        proposer: ProposalDistribution,
        objective: Objective,
        weights: Weights,
        learning_rate: float = 1.0,
        margin: float = 0.0,
        walk_policy: str = "model",
        seed: int | None = None,
        rng: random.Random | None = None,
    ):
        if walk_policy not in ("model", "objective"):
            raise InferenceError(f"unknown walk policy {walk_policy!r}")
        self.graph = graph
        self.proposer = proposer
        self.objective = objective
        self.weights = weights
        self.learning_rate = learning_rate
        self.margin = margin
        self.walk_policy = walk_policy
        self.rng = rng if rng is not None else make_rng(seed)
        self.stats = TrainingStats()

    # ------------------------------------------------------------------
    def step(self) -> None:
        """One SampleRank step: propose, maybe update weights, walk."""
        proposal = self.proposer.propose(self.rng)
        changes = {
            variable: value
            for variable, value in proposal.changes.items()
            if variable.value != value
        }
        self.stats.steps += 1
        if not changes:
            return

        objective_delta = self.objective.delta(changes)
        touched = list(changes)

        if self.graph.has_dynamic_templates:
            # Structure may change with the proposal: re-instantiate the
            # adjacent factor set on each side.
            features_before = self._collect_features(touched)
            score_before = self.graph.local_score(touched)
            saved = {variable: variable.value for variable in touched}
            for variable, value in changes.items():
                variable.set_value(value)
            features_after = self._collect_features(touched)
            score_after = self.graph.local_score(touched)
            model_delta = score_after - score_before

            # Perceptron update toward the objective-preferred world.
            if objective_delta > 0 and model_delta <= self.margin:
                self._update(features_after, features_before)
            elif objective_delta < 0 and -model_delta <= self.margin:
                self._update(features_before, features_after)
        else:
            # Static structure: score the two worlds first — a pure
            # what-if through the graph's slot-scorer hot path — and
            # collect sufficient statistics only when the ranking
            # disagreement actually fires an update.  Most steps agree,
            # so the feature-dict work disappears from the walk; the
            # update math sees exactly the dicts the eager path built.
            model_delta = self.graph.score_delta(changes)
            update = 0
            if objective_delta > 0 and model_delta <= self.margin:
                update = 1  # Toward the proposed world.
            elif objective_delta < 0 and -model_delta <= self.margin:
                update = -1  # Toward the current world.
            if update:
                if len(touched) == 1:
                    factors = self.graph.adjacent_static(touched[0])
                else:
                    factors = list(self.graph.factors_touching(touched).values())
                features_before = self._collect_from(factors)
                saved = {variable: variable.value for variable in touched}
                for variable, value in changes.items():
                    variable.set_value(value)
                features_after = self._collect_from(factors)
                if update > 0:
                    self._update(features_after, features_before)
                else:
                    self._update(features_before, features_after)
            else:
                saved = {variable: variable.value for variable in touched}
                for variable, value in changes.items():
                    variable.set_value(value)

        if self._accept(model_delta, objective_delta):
            self.stats.accepted += 1
            for variable in touched:
                if isinstance(variable, FieldVariable):
                    variable.flush()
        else:
            for variable, value in saved.items():
                variable.set_value(value)

    def train(self, num_steps: int) -> TrainingStats:
        for _ in range(num_steps):
            self.step()
        return self.stats

    # ------------------------------------------------------------------
    def _accept(self, model_delta: float, objective_delta: float) -> bool:
        """Whether the walk moves to the proposed world.

        ``model`` policy uses the standard MH rule with the score delta
        computed under the pre-update weights (as in FACTORIE's
        SampleRank); ``objective`` greedily follows the supervision with
        random tie-breaking.
        """
        if self.walk_policy == "objective":
            if objective_delta != 0:
                return objective_delta > 0
            return self.rng.random() < 0.5
        return model_delta >= 0 or math.log(self.rng.random()) < model_delta

    def _collect_features(self, touched) -> Dict[str, FeatureVector]:
        return self._collect_from(self.graph.factors_touching(touched).values())

    @staticmethod
    def _collect_from(factors) -> Dict[str, FeatureVector]:
        collected: Dict[str, FeatureVector] = {}
        for factor in factors:
            features = factor.features()
            if not features:
                continue
            accumulate(collected.setdefault(factor.template_name, {}), features)
        return collected

    def _update(
        self,
        preferred: Dict[str, FeatureVector],
        other: Dict[str, FeatureVector],
    ) -> None:
        self.stats.updates += 1
        for template, features in preferred.items():
            self.weights.update(template, features, self.learning_rate)
        for template, features in other.items():
            self.weights.update(template, features, -self.learning_rate)
