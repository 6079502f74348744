"""Figure 5: parallelizing query evaluation (paper §5.4).

Two measurements:

1. **Statistical efficiency** — squared error of the pooled marginal
   estimate as a function of the number of independent chains (1..8),
   each run for a fixed per-chain sample budget against ground truth
   from separate long chains, compared with the ideal linear
   improvement ``error(1) / n``.  The paper observed super-linear gains
   (samples across chains are more independent than within a chain).
   This is scheduling-independent, so it runs on the sequential
   backend.

2. **Wall-clock speedup** — the same pooled evaluation executed by the
   ``process`` backend (one OS process per chain) versus the
   ``sequential`` backend.  ``EvaluationResult`` now separates
   ``wall_elapsed`` (caller-observed) from ``cpu_elapsed`` (summed
   per-chain compute), so the realized speedup is
   ``cpu_elapsed / wall_elapsed``; on a single-core box it degrades
   toward 1x while the pooled marginals stay bit-identical to the
   sequential run.

3. **Data-parallel sharding** — the paper's other Fig. 5 axis: the
   database is partitioned by document into K self-contained shards,
   one factor graph + chain per shard, with each shard's thinning
   interval scaled to ``k/K`` so the *total* MH walk effort (and the
   per-token sampling effort) matches the unsharded chain.  Each shard
   is then 1/K of the work.  Two speedups are reported:

   * ``realized wall`` — what this machine observes running the K
     worker processes concurrently; approaches K× only with ≥ K idle
     cores (on a single-core box it stays near 1×);
   * ``data-parallel (critical path)`` — unsharded compute seconds
     divided by the *slowest shard's own* compute seconds (each worker
     measures ``time.process_time``, which excludes time-slicing, so
     this is the wall clock a K-machine deployment observes and is
     hardware-independent).  This is the number the ≥ 2.5× acceptance
     gate checks at K = 4.

   ``shards=1`` is asserted bit-identical to the unsharded
   MaterializedEvaluator — sharding is an exact decomposition, not an
   approximation, once no factor spans shards.

Both axes run through one :class:`ShardedEvaluator`: the chain series
as its unsplit ``over_copies`` layout, the shard series split.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.bench import (
    QUERY1,
    make_task,
    print_header,
    print_table,
    reference_marginals,
    scale_factor,
)
from repro.core import MaterializedEvaluator, ShardedEvaluator, squared_error
from repro.db import Database

NUM_TOKENS = 2_000
STEPS_PER_SAMPLE = 200
SAMPLES_PER_CHAIN = 60
# Each chain discards its initial transient so the remaining error is
# variance-dominated — the regime of the paper's Fig. 5, whose chains
# ran 10^6 steps each.  Pooling chains then divides the variance.
BURN_IN = 120
MAX_CHAINS = 8
SPEEDUP_CHAINS = 4

# Sharded series: equal total walk effort at every K (steps per sample
# scale as 1/K), enough samples that per-shard compute dominates timer
# resolution.
SHARD_SERIES = (1, 2, 4)
SHARD_SAMPLES = 200
SHARD_TARGET_SPEEDUP = 2.5


@pytest.mark.benchmark(group="fig5")
def test_fig5_parallel_chains(benchmark):
    def experiment():
        task = make_task(
            NUM_TOKENS * scale_factor(), steps_per_sample=STEPS_PER_SAMPLE
        )
        truth = reference_marginals(
            task, [QUERY1], num_chains=4, samples_per_chain=400
        )[0]
        errors = []
        for num_chains in range(1, MAX_CHAINS + 1):
            with ShardedEvaluator.over_copies(
                task.chain_factory(base_seed=500), [QUERY1], num_chains
            ) as parallel:
                result = parallel.run(SAMPLES_PER_CHAIN, burn_in=BURN_IN)
            errors.append(
                squared_error(result.marginals.probabilities(), truth)
            )
        return errors

    errors = benchmark.pedantic(experiment, rounds=1, iterations=1)

    ideal = [errors[0] / n for n in range(1, MAX_CHAINS + 1)]
    print_header("Figure 5: squared error vs number of chains (Query 1)")
    print_table(
        ["chains", "squared error", "ideal linear", "vs ideal"],
        [
            (n + 1, f"{errors[n]:.5f}", f"{ideal[n]:.5f}",
             f"{errors[n] / ideal[n]:.2f}x" if ideal[n] > 0 else "-")
            for n in range(MAX_CHAINS)
        ],
    )
    print(
        "Paper: two chains nearly halve the loss; eight chains reduce error "
        "by slightly more than 8x (super-linear)."
    )
    benchmark.extra_info["errors"] = errors
    benchmark.extra_info["ideal"] = ideal

    # Shape assertions: more chains help substantially.
    assert errors[-1] < errors[0], "8 chains must beat 1 chain"
    assert errors[-1] < errors[0] / 2, "8 chains should at least halve the error"


@pytest.mark.benchmark(group="fig5")
def test_fig5_process_backend_speedup(benchmark):
    """Real multiprocess execution: wall vs summed-CPU time, and
    bit-identical pooled marginals across backends."""

    def experiment():
        task = make_task(
            NUM_TOKENS * scale_factor(), steps_per_sample=STEPS_PER_SAMPLE
        )
        rows = {}
        for backend in ("sequential", "process"):
            with ShardedEvaluator.over_copies(
                task.chain_factory(base_seed=500),
                [QUERY1],
                SPEEDUP_CHAINS,
                backend=backend,
            ) as parallel:
                result = parallel.run(SAMPLES_PER_CHAIN, burn_in=BURN_IN)
            rows[backend] = {
                "wall": result.wall_elapsed,
                "cpu": result.cpu_elapsed,
                "marginals": result.marginals.probabilities(),
            }
        return rows

    rows = benchmark.pedantic(experiment, rounds=1, iterations=1)

    print_header(
        f"Figure 5 follow-on: {SPEEDUP_CHAINS}-chain wall-clock, "
        f"{os.cpu_count()} CPUs available"
    )
    print_table(
        ["backend", "wall (s)", "summed CPU (s)", "cpu/wall"],
        [
            (
                name,
                f"{d['wall']:.2f}",
                f"{d['cpu']:.2f}",
                f"{d['cpu'] / d['wall']:.2f}x" if d["wall"] > 0 else "-",
            )
            for name, d in rows.items()
        ],
    )
    speedup = (
        rows["sequential"]["wall"] / rows["process"]["wall"]
        if rows["process"]["wall"] > 0
        else float("inf")
    )
    print(f"process-backend wall-clock speedup over sequential: {speedup:.2f}x")
    benchmark.extra_info["speedup"] = speedup
    benchmark.extra_info["cpus"] = os.cpu_count()

    # Correctness is hardware-independent: both backends pool the exact
    # same samples, so the marginals must be identical.
    assert rows["sequential"]["marginals"] == rows["process"]["marginals"]
    # Direction-only sanity (robust on loaded machines): a single
    # sequential process cannot burn more CPU seconds than wall seconds.
    seq = rows["sequential"]
    assert 0 < seq["cpu"] <= seq["wall"] * 1.05


@pytest.mark.benchmark(group="fig5")
def test_fig5_sharded_data_parallel(benchmark):
    """Data-parallel sharding: K document shards, equal total walk
    effort, shards=1 bit-identical to unsharded, and >= 2.5x
    critical-path speedup at K=4 on the process backend."""

    def experiment():
        task = make_task(
            NUM_TOKENS * scale_factor(), steps_per_sample=STEPS_PER_SAMPLE
        )
        rows = {}

        # Unsharded baseline: the exact chain shards=1 will rebuild
        # (same factory, same derived seed), driven in-process.
        factory = task.shard_chain_factory()
        with ShardedEvaluator(
            task._initial,
            factory,
            [QUERY1],
            1,
            base_seed=500,
            backend="process",
        ) as single:
            seed = single.unit_seeds[0]
            db = Database.from_snapshot(task._snapshot, "fig5-unsharded")
            evaluator = MaterializedEvaluator(db, factory(db, seed), [QUERY1])
            wall_started = time.perf_counter()
            cpu_started = time.process_time()
            unsharded = evaluator.run(SHARD_SAMPLES)
            unsharded_cpu = time.process_time() - cpu_started
            unsharded_wall = time.perf_counter() - wall_started
            evaluator.detach()
            rows["unsharded"] = {
                "wall": unsharded_wall,
                "cpu": unsharded_cpu,
                "critical": unsharded_cpu,
                "marginals": unsharded.marginals.probabilities(),
            }

            sharded_one = single.run(SHARD_SAMPLES)
            rows[1] = {
                "wall": sharded_one.wall_elapsed,
                "cpu": sharded_one.cpu_elapsed,
                "critical": max(
                    r.cpu_elapsed for r in single.shard_results
                ),
                "marginals": sharded_one.marginals.probabilities(),
            }

        for num_shards in SHARD_SERIES[1:]:
            # 1/K of the walk per shard: total effort (and per-token
            # sampling effort) matches the unsharded run.
            scaled = task.shard_chain_factory(
                steps_per_sample=STEPS_PER_SAMPLE // num_shards
            )
            with ShardedEvaluator(
                task._initial,
                scaled,
                [QUERY1],
                num_shards,
                base_seed=500,
                backend="process",
            ) as sharded:
                result = sharded.run(SHARD_SAMPLES)
                rows[num_shards] = {
                    "wall": result.wall_elapsed,
                    "cpu": result.cpu_elapsed,
                    "critical": max(
                        r.cpu_elapsed for r in sharded.shard_results
                    ),
                    "marginals": result.marginals.probabilities(),
                }
        return rows

    rows = benchmark.pedantic(experiment, rounds=1, iterations=1)

    # Like-for-like baseline: the shards=1 critical path is the same
    # chain measured by the same apparatus (a worker's own
    # process_time), so speedups aren't flattered by comparing a
    # heap-warmed parent process against fresh workers.  The in-parent
    # unsharded row stays in the table as the bit-identity anchor.
    base_cpu = rows[1]["critical"]
    base_wall = rows["unsharded"]["wall"]
    print_header(
        f"Figure 5 data-parallel sharding: {SHARD_SAMPLES} samples, equal "
        f"total walk effort, {os.cpu_count()} CPUs available"
    )
    print_table(
        [
            "series",
            "wall (s)",
            "total CPU (s)",
            "critical path (s)",
            "data-parallel speedup",
            "realized wall speedup",
        ],
        [
            (
                name if isinstance(name, str) else f"shards={name}",
                f"{d['wall']:.2f}",
                f"{d['cpu']:.2f}",
                f"{d['critical']:.2f}",
                f"{base_cpu / d['critical']:.2f}x",
                f"{base_wall / d['wall']:.2f}x",
            )
            for name, d in rows.items()
        ],
    )
    print(
        "critical path = slowest shard's own process_time: the wall a "
        "K-machine deployment observes.  Realized wall speedup needs >= K "
        "idle cores to approach it."
    )

    speedups = {
        k: base_cpu / rows[k]["critical"] for k in SHARD_SERIES
    }
    benchmark.extra_info["num_cpus"] = os.cpu_count()
    benchmark.extra_info["samples"] = SHARD_SAMPLES
    benchmark.extra_info["series"] = {
        str(name): {
            "wall_seconds": d["wall"],
            "total_cpu_seconds": d["cpu"],
            "critical_path_seconds": d["critical"],
        }
        for name, d in rows.items()
    }
    benchmark.extra_info["data_parallel_speedup"] = {
        str(k): speedups[k] for k in SHARD_SERIES
    }
    benchmark.extra_info["realized_wall_speedup"] = {
        str(k): base_wall / rows[k]["wall"] for k in SHARD_SERIES
    }
    benchmark.extra_info["shards1_bit_identical"] = (
        rows[1]["marginals"] == rows["unsharded"]["marginals"]
    )

    # Exactness: shards=1 rebuilds the very same chain — byte-identical
    # marginals, no tolerance.
    assert rows[1]["marginals"] == rows["unsharded"]["marginals"]
    # The acceptance gate: 4-way sharding must cut the critical path by
    # >= 2.5x (hardware-independent: per-shard compute seconds).
    assert speedups[4] >= SHARD_TARGET_SPEEDUP, (
        f"shards=4 data-parallel speedup {speedups[4]:.2f}x < "
        f"{SHARD_TARGET_SPEEDUP}x"
    )
    # More shards never increase the critical path.
    assert rows[4]["critical"] <= rows[2]["critical"] * 1.1
