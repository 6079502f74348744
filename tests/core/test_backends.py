"""Chain-execution backends: sequential vs multiprocess.

The central contract (ISSUE 2 acceptance criteria):

1. the ``process`` backend demonstrably runs chains in separate OS
   processes;
2. ``sequential`` and ``process`` produce **identical** pooled
   marginals for fixed seeds (the backend only moves the arithmetic);
3. wall-clock and summed CPU time are reported separately.

The model used here is deliberately tiny and built exclusively from
module-level (hence picklable) feature functions.
"""

import os
import pickle

import pytest

from repro.db import AttrType, Database, Schema
from repro.errors import EvaluationError
from repro.fg import Domain, FactorGraph, FieldVariable, UnaryTemplate, Weights
from repro.mcmc import MarkovChain, MetropolisHastings, UniformLabelProposer
from repro.core import (
    MaterializedEvaluator,
    ProcessPoolBackend,
    SequentialBackend,
    ShardedEvaluator,
    make_backend,
)

BIN = Domain("bin", ["neg", "pos"])
QUERY = "SELECT ID FROM ITEM WHERE LABEL='pos'"
FIELDS = (0.9, -0.4, 1.2, 0.1, -0.8)


def label_feature(variable):
    """Module-level feature function so chain snapshots pickle."""
    return {("label", variable.value): 1.0}


def build_world(seed):
    """One picklable possible world: ITEM table + independent fields."""
    db = Database("backend-test")
    db.create_table(
        Schema.build(
            "ITEM", [("ID", AttrType.INT), ("LABEL", AttrType.STRING)], key=["ID"]
        )
    )
    weights = Weights()
    variables = []
    for i, field in enumerate(FIELDS):
        db.insert("ITEM", (i, "neg"))
        weights.set(f"field{i}", ("label", "pos"), field)
        variables.append(FieldVariable(db, "ITEM", (i,), "LABEL", BIN))
    templates = [
        UnaryTemplate(f"field{i}", weights, label_feature)
        for i in range(len(FIELDS))
    ]
    graph = FactorGraph(variables, templates)
    kernel = MetropolisHastings(graph, UniformLabelProposer(variables), seed=seed)
    return db, MarkovChain(kernel, steps_per_sample=3)


class SeededFactory:
    """Picklable factory: chain i gets seed base + i."""

    def __init__(self, base):
        self.base = base

    def __call__(self, index):
        return build_world(self.base + 1000 * index)


def closure_factory(base):
    """A factory whose products do NOT pickle (closure feature fn)."""

    def factory(index):
        db, chain = build_world(base + index)
        graph = chain.kernel.graph

        def bad_feature(variable):  # pragma: no cover - never scored
            return {("label", variable.value): 1.0}

        graph.templates[0] = UnaryTemplate("field0", Weights(), bad_feature)
        return db, chain

    return factory


class TestBackendEquivalence:
    @pytest.mark.parametrize("chains", [1, 3])
    def test_identical_pooled_marginals(self, chains):
        runs = {}
        for backend in ("sequential", "process"):
            with ShardedEvaluator.over_copies(
                SeededFactory(42), [QUERY], chains, backend=backend
            ) as evaluator:
                result = evaluator.run(12, burn_in=2)
            runs[backend] = result.marginals.probabilities()
        assert runs["sequential"] == runs["process"]

    def test_single_chain_matches_plain_evaluator(self):
        """chains=1 through any backend reproduces a directly driven
        MaterializedEvaluator with the same seed."""
        db, chain = build_world(42)
        direct = MaterializedEvaluator(db, chain, [QUERY]).run(12, burn_in=2)
        for backend in ("sequential", "process"):
            with ShardedEvaluator.over_copies(
                SeededFactory(42), [QUERY], 1, backend=backend
            ) as evaluator:
                result = evaluator.run(12, burn_in=2)
            assert (
                result.marginals.probabilities()
                == direct.marginals.probabilities()
            )


class TestProcessPoolBackend:
    def test_runs_in_separate_processes(self):
        backend = ProcessPoolBackend()
        with backend:
            backend.start(SeededFactory(7), 2, [QUERY])
            pids = backend.worker_pids()
            assert len(pids) == 2
            assert os.getpid() not in pids
            assert len(set(pids)) == 2
            result = backend.run(5)
        assert result.marginals.num_samples == 2 * 6  # initial + 5, pooled

    def test_anytime_continuation(self):
        """run() again continues the same worker-held chains, matching
        one long sequential run sample-for-sample."""
        long_backend = SequentialBackend()
        with long_backend:
            long_backend.start(SeededFactory(13), 2, [QUERY])
            reference = long_backend.run(10)
        split_backend = ProcessPoolBackend()
        with split_backend:
            split_backend.start(SeededFactory(13), 2, [QUERY])
            split_backend.run(4)
            result = split_backend.run(6, include_initial=False)
        assert (
            result.marginals.probabilities()
            == reference.marginals.probabilities()
        )

    def test_unpicklable_factory_fails_fast(self):
        backend = ProcessPoolBackend()
        with pytest.raises(EvaluationError, match="picklable"):
            backend.start(closure_factory(3), 1, [QUERY])

    def test_run_before_start_rejected(self):
        with pytest.raises(EvaluationError, match="not started"):
            ProcessPoolBackend().run(3)

    def test_closed_backend_rejected(self):
        backend = ProcessPoolBackend()
        backend.start(SeededFactory(1), 1, [QUERY])
        backend.close()
        with pytest.raises(EvaluationError, match="closed"):
            backend.run(3)


class TestTimingSplit:
    def test_sequential_cpu_is_sum_of_chain_times(self):
        backend = SequentialBackend()
        with backend:
            backend.start(SeededFactory(5), 3, [QUERY])
            result = backend.run(10)
        assert result.wall_elapsed > 0
        assert result.cpu_elapsed == pytest.approx(
            sum(r.cpu_elapsed for r in backend.chain_results)
        )

    def test_process_reports_both_clocks(self):
        with ShardedEvaluator.over_copies(
            SeededFactory(5), [QUERY], 2, backend="process"
        ) as evaluator:
            result = evaluator.run(10)
        assert result.wall_elapsed > 0
        assert result.cpu_elapsed > 0
        # Legacy alias points at wall-clock time.
        assert result.elapsed == result.wall_elapsed


class TestRegistry:
    def test_unknown_backend_rejected(self):
        with pytest.raises(EvaluationError, match="unknown backend"):
            make_backend("threads")
        with pytest.raises(EvaluationError, match="unknown backend"):
            ShardedEvaluator.over_copies(
                SeededFactory(1), [QUERY], 1, backend="threads"
            )

    def test_parallel_evaluator_chain_results(self):
        with ShardedEvaluator.over_copies(
            SeededFactory(3), [QUERY], 2, backend="process"
        ) as evaluator:
            evaluator.run(4)
        chain_results = evaluator.backend.chain_results
        assert len(chain_results) == 2
        for chain_result in chain_results:
            assert chain_result.marginals.num_samples == 5  # initial + 4


class TestSeededReproducibility:
    def test_pickled_chain_reproduces_sample_stream(self):
        """Same seed ⇒ identical sample stream, across a pickle
        round-trip (the property the process backend relies on)."""
        db, chain = build_world(99)
        db2, chain2 = pickle.loads(pickle.dumps((db, chain)))

        def stream(chain_obj):
            out = []
            for _ in range(20):
                chain_obj.advance()
                out.append(
                    tuple(v.value for v in chain_obj.kernel.graph.variables)
                )
            return out

        assert stream(chain) == stream(chain2)
