"""Fault tolerance composed with data-parallel sharding.

Each (shard, chain) unit is one supervised worker of the process
backend, so checkpoint-resume must preserve the sharded result exactly:
the union merge over shards is only as deterministic as every unit's
sample stream.
"""

import pickle

import pytest

from repro.core import ShardedEvaluator
from repro.db import Database
from repro.db.sql.executor import execute_dml
from repro.db.sql.parser import parse_statement
from repro.errors import RetryExhaustedError
from repro.ie.ner import NerTask
from repro.ie.ner.model import SkipChainNerModel
from repro.resilience import (
    Fault,
    FaultPlan,
    MemoryCheckpointStore,
    ResilienceConfig,
    RetryPolicy,
)

QUERY = "SELECT STRING FROM TOKEN WHERE LABEL='B-PER'"
INSERT = "INSERT INTO TOKEN VALUES (999999, 1, 'Zanzibar', 'B-PER', 'B-PER')"
FAST_RETRY = RetryPolicy(max_attempts=3, base_delay=0.01, jitter=0)


@pytest.fixture(scope="module")
def task():
    # 200 tokens is the smallest corpus whose documents hash onto both
    # shards (120 lands entirely in shard 0).
    return NerTask(200, corpus_seed=0, steps_per_sample=20)


@pytest.fixture(scope="module")
def expected(task):
    with ShardedEvaluator(
        task._initial, task.shard_chain_factory(), [QUERY], 2, base_seed=5
    ) as evaluator:
        result = evaluator.run(8)
    return result.marginals.probabilities(), result.marginals.num_samples


def test_unit_kill_recovers_bit_identical(task, expected):
    config = ResilienceConfig(
        store=MemoryCheckpointStore(),
        checkpoint_every=3,
        retry=FAST_RETRY,
        fault_plan=FaultPlan({1: [Fault("kill", at=5)]}),
    )
    with ShardedEvaluator(
        task._initial,
        task.shard_chain_factory(),
        [QUERY],
        2,
        base_seed=5,
        backend="process",
        resilience=config,
    ) as evaluator:
        result = evaluator.run(8)
    assert result.marginals.probabilities() == expected[0]
    assert result.marginals.num_samples == expected[1]
    assert config.store.keys() == ["chain:0", "chain:1"]


def test_unit_retry_exhaustion_propagates(task):
    config = ResilienceConfig(
        store=MemoryCheckpointStore(),
        checkpoint_every=3,
        retry=RetryPolicy(max_attempts=2, base_delay=0.01),
        fault_plan=FaultPlan({0: [Fault("kill", at=1, all_incarnations=True)]}),
    )
    with pytest.raises(RetryExhaustedError):
        with ShardedEvaluator(
            task._initial,
            task.shard_chain_factory(),
            [QUERY],
            2,
            base_seed=5,
            backend="process",
            resilience=config,
        ) as evaluator:
            evaluator.run(8)


def test_sequential_sharded_checkpoints(task, expected):
    config = ResilienceConfig(store=MemoryCheckpointStore(), checkpoint_every=2)
    with ShardedEvaluator(
        task._initial,
        task.shard_chain_factory(),
        [QUERY],
        2,
        base_seed=5,
        resilience=config,
    ) as evaluator:
        result = evaluator.run(8)
    assert result.marginals.probabilities() == expected[0]
    assert config.store.keys() == ["chain:0", "chain:1"]
    assert config.store.latest("chain:0").runs_completed == 1


def insert_and_advance(task, db, evaluator):
    """Commit the INSERT on ``db`` and advance the shards by its delta,
    certified by a full-database model's repair (as a session does)."""
    model = SkipChainNerModel(db, weights=task.weights, use_skip=task.use_skip)
    _, delta = execute_dml(db, parse_statement(INSERT))
    evaluator.advance(delta, model.repair_from_delta(delta), model.graph)


def run_across_insert(task, **kwargs):
    """run(4), INSERT advanced by delta, run(4): the session's sequence
    for a read, a write and a read after it."""
    db = Database.from_snapshot(task._snapshot, "world")
    with ShardedEvaluator(
        db, task.shard_chain_factory(), [QUERY], 2, base_seed=5, **kwargs
    ) as evaluator:
        evaluator.run(4)
        insert_and_advance(task, db, evaluator)
        result = evaluator.run(4)
        respawns = getattr(evaluator.backend, "respawns", 0)
    return result.marginals.probabilities(), result.marginals.num_samples, respawns


@pytest.mark.parametrize(
    "faults",
    [
        # recovers from the checkpoint taken right after the delta
        [Fault("kill", at=7)],
        # that checkpoint fails, so recovery replays the delta command
        [Fault("ckpt_fail", at=3), Fault("kill", at=7)],
    ],
    ids=["from-delta-checkpoint", "replays-delta"],
)
def test_unit_kill_after_insert_recovers_bit_identical(task, faults):
    """Unit 1 dies during the first run after an INSERT; the recovered
    marginals equal the uninterrupted run's, bit for bit."""
    expected = run_across_insert(task)
    config = ResilienceConfig(
        store=MemoryCheckpointStore(),
        checkpoint_every=3,
        retry=FAST_RETRY,
        fault_plan=FaultPlan({1: faults}),
    )
    probabilities, samples, respawns = run_across_insert(
        task, backend="process", resilience=config
    )
    assert respawns == 1
    assert (probabilities, samples) == expected[:2]
    assert samples == 5


def test_sequential_checkpoints_right_after_delta(task):
    """Sequential units checkpoint right after a delta, so a backend
    adopting the store resumes the post-delta world, not the
    pre-delta one."""
    config = ResilienceConfig(store=MemoryCheckpointStore(), checkpoint_every=2)
    db = Database.from_snapshot(task._snapshot, "world")
    with ShardedEvaluator(
        db, task.shard_chain_factory(), [QUERY], 2, base_seed=5, resilience=config
    ) as evaluator:
        evaluator.run(2)
        insert_and_advance(task, db, evaluator)
    latest = config.store.latest("chain:1")
    assert latest.runs_completed == 2
    adopted, *_ = pickle.loads(latest.payload)
    assert adopted.table("TOKEN").contains_key((999999,))
