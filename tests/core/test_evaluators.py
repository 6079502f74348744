"""Tests for the naive (Algorithm 3) and materialized (Algorithm 1)
query evaluators.

The two central claims under test:

1. **Equivalence** — with identical seeds the two evaluators see the
   same sample sequence and produce *identical* marginals (§5.3: "the
   two approaches generate the same set of samples"); they differ only
   in cost.
2. **Correctness** — estimated marginals converge to the exact tuple
   marginals computed by brute-force enumeration of the factor graph.
"""

import pytest

from repro.db import AttrType, Database, Schema
from repro.errors import EvaluationError
from repro.fg import Domain, FactorGraph, FieldVariable, UnaryTemplate, Weights
from repro.mcmc import MarkovChain, MetropolisHastings, UniformLabelProposer
from repro.core import (
    LossTrace,
    MaterializedEvaluator,
    NaiveEvaluator,
    ShardedEvaluator,
    estimate_ground_truth,
    squared_error,
)

BIN = Domain("bin", ["neg", "pos"])


def make_world(fields=(0.8, -0.3, 1.5, 0.0)):
    """A tiny DB-bound model: one row per variable, label in {neg,pos},
    independent per-variable fields (exact marginals in closed form)."""
    db = Database()
    db.create_table(
        Schema.build(
            "ITEM", [("ID", AttrType.INT), ("LABEL", AttrType.STRING)], key=["ID"]
        )
    )
    for i in range(len(fields)):
        db.insert("ITEM", (i, "neg"))
    weights = Weights()
    for i, field in enumerate(fields):
        weights.set("f", ("on", i), field)
    variables = [FieldVariable(db, "ITEM", (i,), "LABEL", BIN) for i in range(len(fields))]
    ids = {v.name: i for i, v in enumerate(variables)}

    def features(variable):
        if variable.value == "pos":
            return {("on", ids[variable.name]): 1.0}
        return {}

    graph = FactorGraph(variables, [UnaryTemplate("f", weights, features)])
    return db, graph, variables


def make_chain(graph, variables, seed, k=20):
    kernel = MetropolisHastings(graph, UniformLabelProposer(variables), seed=seed)
    return MarkovChain(kernel, steps_per_sample=k)


QUERY = "SELECT ID FROM ITEM WHERE LABEL='pos'"


class TestEquivalence:
    @pytest.mark.parametrize(
        "sql",
        [
            QUERY,
            "SELECT COUNT(*) FROM ITEM WHERE LABEL='pos'",
            "SELECT LABEL, COUNT(*) FROM ITEM GROUP BY LABEL",
        ],
    )
    def test_same_seed_identical_marginals(self, sql):
        db1, graph1, vars1 = make_world()
        db2, graph2, vars2 = make_world()
        naive = NaiveEvaluator(db1, make_chain(graph1, vars1, seed=42), [sql])
        materialized = MaterializedEvaluator(
            db2, make_chain(graph2, vars2, seed=42), [sql]
        )
        result_naive = naive.run(40)
        result_materialized = materialized.run(40)
        assert (
            result_naive.marginals.probabilities()
            == result_materialized.marginals.probabilities()
        )

    def test_multiple_queries_one_chain(self):
        db, graph, variables = make_world()
        evaluator = MaterializedEvaluator(
            db,
            make_chain(graph, variables, seed=7),
            [QUERY, "SELECT COUNT(*) FROM ITEM WHERE LABEL='pos'"],
        )
        result = evaluator.run(25)
        assert len(result) == 2
        assert result[0].num_samples == result[1].num_samples == 26


class TestConvergence:
    def test_marginals_match_enumeration(self):
        db, graph, variables = make_world(fields=(0.9, -0.6, 0.2))
        exact = graph.exact_marginals()
        evaluator = MaterializedEvaluator(
            db, make_chain(graph, variables, seed=3, k=10), [QUERY]
        )
        result = evaluator.run(3000, include_initial_sample=False)
        probabilities = result.marginals.probabilities()
        for i in range(3):
            assert probabilities.get((i,), 0.0) == pytest.approx(
                exact[i]["pos"], abs=0.03
            )

    def test_initial_sample_flag(self):
        db, graph, variables = make_world()
        evaluator = NaiveEvaluator(db, make_chain(graph, variables, seed=1), [QUERY])
        result = evaluator.run(5, include_initial_sample=False)
        assert result.marginals.num_samples == 5


class TestParallel:
    def factory(self):
        def build(index):
            db, graph, variables = make_world()
            return db, make_chain(graph, variables, seed=100 + index)

        return build

    def test_pooled_sample_count(self):
        with ShardedEvaluator.over_copies(self.factory(), [QUERY], 4) as parallel:
            result = parallel.run(10)
        assert result.marginals.num_samples == 4 * 11
        assert len(parallel.backend.chain_results) == 4

    def test_more_chains_lower_error(self):
        db, graph, variables = make_world()
        exact = graph.exact_marginals()
        truth = {(i,): exact[i]["pos"] for i in range(len(variables))}

        def error_with(chains):
            with ShardedEvaluator.over_copies(
                self.factory(), [QUERY], chains
            ) as parallel:
                result = parallel.run(30)
            return squared_error(result.marginals.probabilities(), truth)

        # Averaged over the pooled estimator, more chains should not be
        # dramatically worse; compare 1 vs 8 which is a robust margin.
        assert error_with(8) <= error_with(1) + 0.05

    def test_zero_chains_rejected(self):
        with pytest.raises(EvaluationError):
            ShardedEvaluator.over_copies(self.factory(), [QUERY], 0)

    def test_ground_truth_helper(self):
        truths = estimate_ground_truth(
            self.factory(), [QUERY], num_chains=2, samples_per_chain=20
        )
        assert len(truths) == 1
        assert all(0.0 <= p <= 1.0 for p in truths[0].values())


class TestAnytime:
    def test_loss_trace_monotone_total_samples(self):
        db, graph, variables = make_world()
        exact = graph.exact_marginals()
        truth = {(i,): exact[i]["pos"] for i in range(len(variables))}
        trace = LossTrace([truth])
        evaluator = MaterializedEvaluator(
            db, make_chain(graph, variables, seed=5, k=10), [QUERY]
        )
        evaluator.run(400, on_sample=trace.hook)
        points = trace.trace(0)
        assert len(points) == 401
        # Elapsed time strictly increases; loss decreases overall.
        times = [t for t, _ in points]
        assert times == sorted(times)
        assert points[-1][1] < points[0][1]

    def test_normalized_trace_max_one(self):
        db, graph, variables = make_world()
        exact = graph.exact_marginals()
        truth = {(i,): exact[i]["pos"] for i in range(len(variables))}
        trace = LossTrace([truth])
        evaluator = NaiveEvaluator(db, make_chain(graph, variables, seed=6), [QUERY])
        evaluator.run(50, on_sample=trace.hook)
        normalized = trace.normalized_trace(0)
        assert max(loss for _, loss in normalized) == pytest.approx(1.0)

    def test_queries_required(self):
        db, graph, variables = make_world()
        with pytest.raises(EvaluationError):
            NaiveEvaluator(db, make_chain(graph, variables, seed=1), [])
