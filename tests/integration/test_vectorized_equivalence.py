"""The slot scorer must be bit-identical to the plain adjacency loop.

With caching on, ``FactorGraph.score_delta`` scores a variable through
its compiled slot scorer (:mod:`repro.fg.slots`) and falls back to the
flat-adjacency loop for variables the scorer cannot compile.  Each test
here runs the same seeded inference twice with caching on — once with
scorers compiled (the default) and once with ``build_scorer`` patched
to decline every variable, so the whole walk takes the fallback loop —
and asserts *exactly* equal results under ``==``.

This pins the fallback loop, which production reaches only for
ineligible variables, to the fast path on models where every variable
is eligible.  ``test_cache_equivalence.py`` compares the same scenarios
against the uncached reference, ``set_caching(False)``.
"""

import contextlib

import pytest

from repro.bench import make_task
from repro.ie.coref import (
    CorefModel,
    MoveMentionProposer,
    SplitMergeProposer,
    build_mention_database,
    generate_mentions,
)
from repro.learn.objective import HammingObjective
from repro.learn.samplerank import SampleRankTrainer
from repro.mcmc import GibbsSampler, MetropolisHastings
from repro.mcmc.proposal import UniformLabelProposer

QUERY = "SELECT COUNT(*) FROM TOKEN WHERE LABEL='B-PER'"


@contextlib.contextmanager
def scorers(enabled: bool):
    """Run the body with slot scorers compiled, or with every variable
    sent to the fallback loop."""
    with pytest.MonkeyPatch.context() as mp:
        if not enabled:
            mp.setattr("repro.fg.graph.build_scorer", lambda variable, factors: None)
        yield


def _scorer_count(graph):
    return sum(scorer is not None for scorer in graph._scorers.values())


def _ner_run(slots: bool):
    with scorers(slots):
        task = make_task(600, steps_per_sample=150)
        instance = task.make_instance(7)
        evaluator = instance.evaluator([QUERY])
        evaluator.run(10)
        assert (_scorer_count(instance.kernel.graph) > 0) == slots
    world = tuple(v.value for v in instance.model.variables)
    return (
        world,
        instance.kernel.stats.accepted,
        evaluator.estimators[0].probabilities(),
    )


class TestNerMetropolis:
    def test_marginals_bit_identical(self):
        slot_world, slot_accepted, slot_marginals = _ner_run(True)
        world, accepted, marginals = _ner_run(False)
        assert slot_world == world
        assert slot_accepted == accepted
        assert slot_marginals == marginals


class TestCorefDynamicTemplates:
    """Dynamic templates never compile a scorer; declining them must
    change nothing."""

    def _run(self, proposer_cls, slots: bool):
        with scorers(slots):
            db = build_mention_database(
                generate_mentions(6, mentions_per_entity=3, seed=4)
            )
            model = CorefModel(db)
            kernel = MetropolisHastings(
                model.graph, proposer_cls(model.variables), seed=11
            )
            kernel.run(2500)
            assert _scorer_count(model.graph) == 0
        return tuple(v.value for v in model.variables), kernel.stats.accepted

    def test_move_mention_bit_identical(self):
        assert self._run(MoveMentionProposer, True) == self._run(
            MoveMentionProposer, False
        )

    def test_split_merge_bit_identical(self):
        assert self._run(SplitMergeProposer, True) == self._run(
            SplitMergeProposer, False
        )


class TestGibbs:
    def test_trajectory_bit_identical(self):
        worlds = []
        for slots in (True, False):
            with scorers(slots):
                task = make_task(400, steps_per_sample=100)
                instance = task.make_instance(3)
                sampler = GibbsSampler(instance.model.graph, seed=5)
                sampler.run(1200)
                assert (_scorer_count(instance.model.graph) > 0) == slots
            worlds.append(tuple(v.value for v in instance.model.variables))
        assert worlds[0] == worlds[1]


class TestSampleRankMidRunUpdates:
    """Weight mutations mid-walk must invalidate the scorers' blanket
    caches through ``Weights.version``: a stale cached score would
    change an update decision, and the weight trajectories would
    diverge from the fallback loop's."""

    def _train(self, slots: bool):
        with scorers(slots):
            task = make_task(500, steps_per_sample=100, weight_mode="zero")
            instance = task.make_instance(2)
            weights = instance.model.weights
            trainer = SampleRankTrainer(
                instance.model.graph,
                UniformLabelProposer(instance.model.variables),
                HammingObjective(instance.model.truth),
                weights,
                seed=9,
            )
            stats = trainer.train(3000)
            assert stats.updates > 0
            assert (_scorer_count(instance.model.graph) > 0) == slots
        return (
            stats.updates,
            stats.accepted,
            weights.l2_norm(),
            sorted(weights.items(), key=repr),
            instance.model.accuracy_against_truth(),
        )

    def test_training_bit_identical(self):
        assert self._train(True) == self._train(False)


class TestCrossToggleWithCaching:
    """All three scoring routes agree: (slots, caching) in {on,off}²,
    where caching off is the reference whatever the scorers do."""

    def _run(self, slots: bool, cached: bool):
        with scorers(slots):
            task = make_task(400, steps_per_sample=100)
            instance = task.make_instance(5)
            instance.kernel.graph.set_caching(cached)
            instance.kernel.run(1500)
        return (
            tuple(v.value for v in instance.model.variables),
            instance.kernel.stats.accepted,
        )

    def test_all_combinations_agree(self):
        results = {
            (slots, cached): self._run(slots, cached)
            for slots in (True, False)
            for cached in (True, False)
        }
        reference = results[(False, False)]
        assert all(result == reference for result in results.values())
