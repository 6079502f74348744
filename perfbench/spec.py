"""What the benchmark measures: workloads, metrics and traced layers.

This module is the single source of ``BENCHMARK.json`` (regenerate it
with ``python3 perfbench/run.py --write-manifest``) and of
``perfbench/LAYERS.json``, the map from each traced layer name to the
functions the tracer wraps for it.
"""

from __future__ import annotations

import json
import os

RUN_SECONDS = 20

WORKLOADS = [
    (
        "refine-40k",
        "Queries 1-4 re-executed with few samples on 40k tokens and no writes: "
        "the MH walk (mcmc, fg) dominates and no world is copied",
    ),
    (
        "adhoc-40k",
        "distinct parameterised SELECTs on 40k tokens, half deterministic: "
        "parsing, planning, full evaluation and view builds dominate",
    ),
    (
        "serve-rw-10k",
        "two async clients mixing INSERT/UPDATE with reads on one ReproServer: "
        "every commit makes the next reads rebuild a replica and rebase a worker",
    ),
    (
        "sharded-rw-10k",
        "shards=2 on the process backend with periodic INSERTs: measures shard "
        "split, worker spawn and estimator merging",
    ),
]

# (name, unit, better, bound): printed on every run of every workload; a
# later change may worsen a median by at most its bound.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("samples_per_s", "1/s", "higher", 0.25),
    ("prob_read_p50_ms", "ms", "lower", 0.25),
    ("prob_read_p90_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.2),
]

# Reported in the full result of every run, not gated: each applies to
# only some workloads (a workload without writes has no write latency),
# or, like failed_ops_frac, is 0 on a healthy run.
WORKLOAD_METRICS = [
    ("prob_read_after_write_p50_ms", "ms", "lower"),
    ("prob_read_after_write_p90_ms", "ms", "lower"),
    ("det_read_p50_ms", "ms", "lower"),
    ("det_read_p90_ms", "ms", "lower"),
    ("det_read_after_write_p50_ms", "ms", "lower"),
    ("write_p50_ms", "ms", "lower"),
    ("write_p90_ms", "ms", "lower"),
    ("failed_ops_frac", "ratio", "lower"),
]

# Layer name -> "module:attribute" targets.  An attribute is a module
# function, ``Class.method``, or a classmethod; functions imported by
# name are wrapped where the caller looks them up.
LAYERS = {
    "api.execute": ["repro.api.session:Session.execute"],
    "db.sql.parse": [
        "repro.api.session:parse_statement",
        "repro.api.session:parse_script",
    ],
    "db.sql.compile": [
        "repro.api.session:compile_select",
        "repro.core.evaluator:plan_query",
        "repro.core.sharded:plan_query",
    ],
    "db.sql.dml": ["repro.api.session:execute_dml"],
    "db.ra.plan": ["repro.db.ra.planner:Planner.plan"],
    "db.ra.evaluate": [
        "repro.api.session:evaluate_rows",
        "repro.serve.server:evaluate_rows",
        "repro.core.naive:evaluate",
    ],
    "db.view.build": ["repro.db.view:MaterializedView.__init__"],
    "db.view.apply": ["repro.db.view:MaterializedView.apply"],
    "db.snapshot": ["repro.db.database:Database.snapshot"],
    "db.from_snapshot": ["repro.db.database:Database.from_snapshot"],
    "db.shard.split": ["repro.db.shard:ShardedDatabase.split"],
    "fg.score_delta": ["repro.fg.graph:FactorGraph.score_delta"],
    "fg.build_scorer": ["repro.fg.graph:build_scorer"],
    "mcmc.advance": ["repro.mcmc.chain:MarkovChain.advance"],
    "mcmc.propose": [
        "repro.mcmc.schedule:RotatingBatchProposer.propose",
        "repro.mcmc.proposal:UniformLabelProposer.propose",
        "repro.mcmc.targeted:MixtureProposer.propose",
    ],
    "mcmc.plan_restriction": ["repro.api.session:plan_restriction"],
    "core.record": ["repro.core.marginals:MarginalEstimator.record"],
    "core.live.on_dml": ["repro.core.live:LiveRunner.on_dml"],
    "core.sharded.build": ["repro.core.sharded:ShardedEvaluator.__init__"],
    "core.sharded.run": ["repro.core.sharded:ShardedEvaluator.run"],
    "core.merge": [
        "repro.core.sharded:merge_shard_estimators",
        "repro.core.sharded:pool_estimators",
        "repro.core.backends:pool_estimators",
    ],
    "ie.ner.repair": ["repro.ie.ner.model:SkipChainNerModel.repair_from_delta"],
    "serve.admit_wait": ["repro.serve.admission:AdmissionController._admit"],
    "serve.pool.acquire_wait": ["repro.serve.pool:WorkerPool.acquire"],
    "serve.rebase": ["repro.serve.pool:ChainWorker.rebase"],
    "serve.worker_run": ["repro.serve.pool:ChainWorker.run"],
}

# Counted, not timed: a world write happens on every accepted MH step.
COUNTERS = {"db.update": "repro.db.database:Database.update"}
# MH steps and their outcomes are read from the kernel's statistics
# around each call of this target.
MH_RUN = "repro.mcmc.metropolis:MetropolisHastings.run"

# (name, unit, better) of the counters and ratios of a traced run.
TRACE_EXTRAS = [
    ("mcmc.steps", "count", "higher"),
    ("mcmc.accept_ratio", "ratio", "higher"),
    ("db.update.calls", "count", "higher"),
    ("api.plan_cache.hit_rate", "ratio", "higher"),
    ("serve.cache.hit_rate", "ratio", "higher"),
    ("serve.shed", "count", "lower"),
    ("unattributed_ms", "ms", "lower"),
    ("trace_overhead", "x", "lower"),
]


def per_layer_metrics() -> list[tuple[str, str, str]]:
    metrics = []
    for layer in LAYERS:
        metrics.append((f"{layer}.calls", "count", "lower"))
        metrics.append((f"{layer}.self_ms", "ms", "lower"))
    return metrics + TRACE_EXTRAS


def manifest() -> dict:
    """The content of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b in per_layer_metrics()
        ],
    }


def write_manifest(repo_root: str) -> list[str]:
    """Write ``BENCHMARK.json`` and ``perfbench/LAYERS.json``."""
    written = []
    targets = {
        os.path.join(repo_root, "BENCHMARK.json"): manifest(),
        os.path.join(repo_root, "perfbench", "LAYERS.json"): {
            "layers": LAYERS,
            "counters": COUNTERS,
            "mh_steps": MH_RUN,
        },
    }
    for path, content in targets.items():
        with open(path, "w") as fh:
            json.dump(content, fh, indent=2)
            fh.write("\n")
        written.append(path)
    return written
