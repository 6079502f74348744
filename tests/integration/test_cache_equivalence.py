"""The fast scoring path must be bit-identical to the reference.

Each test runs the same seeded inference twice — once on the fast path
(the default: static adjacency cache, pooled instances and the slot
scorer of :mod:`repro.fg.slots`) and once on the reference path,
``FactorGraph.set_caching(False)`` — and asserts *exactly* equal
results under ``==``: trajectories, acceptance counts, marginals,
learned weights.  The slot scorer re-associates no sums and draws
nothing from the RNG, so any divergence (a wrong slot, a stale blanket
cache, a different summation order) fails these tests.

SampleRank is the adversarial case: it mutates the weights mid-walk, so
a scorer holding on to stale dense values would silently corrupt the
update sequence.  Coref exercises the dynamic-template fallback: no
scorer is ever built there, so caching on must still change nothing.
"""

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


def _scorer_count(graph):
    """How many variables were scored through a compiled slot scorer."""
    return sum(scorer is not None for scorer in graph._scorers.values())


def _ner_run(cached: bool):
    task = make_task(600, steps_per_sample=150)
    instance = task.make_instance(7)
    instance.kernel.graph.set_caching(cached)
    evaluator = instance.evaluator([QUERY])
    evaluator.run(10)
    assert (_scorer_count(instance.kernel.graph) > 0) == cached
    world = tuple(v.value for v in instance.model.variables)
    return (
        world,
        instance.kernel.stats.accepted,
        evaluator.estimators[0].probabilities(),
    )


class TestNerMetropolis:
    def test_marginals_bit_identical(self):
        cached_world, cached_accepted, cached_marginals = _ner_run(True)
        world, accepted, marginals = _ner_run(False)
        assert cached_world == world
        assert cached_accepted == accepted
        assert cached_marginals == marginals


class TestCorefDynamicTemplates:
    """Dynamic templates never compile a scorer; caching must still be
    a no-op on the results."""

    def _run(self, proposer_cls, cached: bool):
        db = build_mention_database(
            generate_mentions(6, mentions_per_entity=3, seed=4)
        )
        model = CorefModel(db)
        model.graph.set_caching(cached)
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
        for cached in (True, False):
            task = make_task(400, steps_per_sample=100)
            instance = task.make_instance(3)
            instance.kernel.graph.set_caching(cached)
            sampler = GibbsSampler(instance.model.graph, seed=5)
            sampler.run(1200)
            assert (_scorer_count(instance.model.graph) > 0) == cached
            worlds.append(tuple(v.value for v in instance.model.variables))
        assert worlds[0] == worlds[1]


class TestSampleRankInvalidation:
    """Mid-run ``Weights.update`` calls must invalidate the scorers'
    blanket caches through ``Weights.version``: if a stale score
    survived an update, the walk (and hence the update sequence and
    final weights) would diverge from the uncached reference."""

    def _train(self, cached: bool):
        task = make_task(500, steps_per_sample=100, weight_mode="zero")
        instance = task.make_instance(2)
        weights = instance.model.weights
        instance.model.graph.set_caching(cached)
        trainer = SampleRankTrainer(
            instance.model.graph,
            UniformLabelProposer(instance.model.variables),
            HammingObjective(instance.model.truth),
            weights,
            seed=9,
        )
        stats = trainer.train(3000)
        assert stats.updates > 0
        assert (_scorer_count(instance.model.graph) > 0) == cached
        return (
            stats.updates,
            stats.accepted,
            weights.l2_norm(),
            sorted(weights.items()),
            instance.model.accuracy_against_truth(),
        )

    def test_training_bit_identical(self):
        assert self._train(True) == self._train(False)
