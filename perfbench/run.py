"""The repository's end-to-end benchmark.

Run from the repository root::

    python3 perfbench/run.py --workload refine-40k --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload refine-40k --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --write-manifest   # regenerate BENCHMARK.json

``--trace 0`` measures the end-to-end metrics with no tracer installed;
``--trace 1`` runs the workload twice on fresh worlds, half the time
each, untraced then traced, and reports the per-layer metrics.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full result
(every metric, sample counts, failures, checks and run metadata) goes
to ``perfbench/out/``.  The exit code is non-zero when a correctness
check failed or the program under test is missing.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()  # set-up is timed from here, before `import repro`

import argparse  # noqa: E402
import asyncio  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
if HERE not in sys.path:
    sys.path.insert(0, HERE)
sys.path.insert(0, SRC)

import meta  # noqa: E402
import metrics  # noqa: E402
import spec  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SETUP_PROBES = 2  # fresh processes timed besides this one


# ----------------------------------------------------------------------
# One pass: set up, run for `seconds`, tear down
# ----------------------------------------------------------------------
def run_pass(workload: str, seed: int, seconds: float, tracer=None, check=True):
    """(log, set-up seconds measured from T0) of one pass."""
    if workload == "serve-rw-10k":
        return asyncio.run(_serve_pass(seed, seconds, tracer, check))
    task = workloads.make_task(workload, seed)
    session = workloads.open_session(task, seed)
    ready = time.perf_counter()
    runner = {
        "refine-40k": workloads.run_refine,
        "adhoc-40k": workloads.run_adhoc,
        "sharded-rw-10k": workloads.run_sharded,
    }[workload]
    try:
        with tracer if tracer is not None else nullcontext():
            log = runner(session, task, seed, seconds, tracer, check)
    finally:
        session.close()
    return log, ready - T0


async def _serve_pass(seed, seconds, tracer, check):
    task = workloads.make_task("serve-rw-10k", seed)
    server = await workloads.open_server(task, seed)
    ready = time.perf_counter()
    try:
        with tracer if tracer is not None else nullcontext():
            log = await workloads.run_serve(server, task, seed, seconds, tracer, check)
    finally:
        await server.drain()
    return log, ready - T0


def setup_probe(workload: str, seed: int) -> float:
    """Set up in this (fresh) process and return seconds since T0."""
    if workload == "serve-rw-10k":

        async def build() -> float:
            server = await workloads.open_server(
                workloads.make_task(workload, seed), seed
            )
            ready = time.perf_counter()
            await server.drain()
            return ready - T0

        return asyncio.run(build())
    task = workloads.make_task(workload, seed)
    session = workloads.open_session(task, seed)
    ready = time.perf_counter()
    session.close()
    return ready - T0


def probe_setups(workload: str, seed: int) -> list[float]:
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=150,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr[-2000:]}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
def traced_metrics(summary: dict, log, overhead: float) -> dict:
    values: dict = {}
    for layer, entry in summary["layers"].items():
        values[f"{layer}.calls"] = entry["calls"]
        values[f"{layer}.self_ms"] = entry["self_ms"]
    mh = summary["mh"]
    moves = mh["proposals"] - mh["noops"]
    values.update(
        {
            "mcmc.steps": mh["proposals"],
            "mcmc.accept_ratio": (mh["accepted"] - mh["noops"]) / moves if moves else 0.0,
            "db.update.calls": summary["counters"].get("db.update", 0),
            "api.plan_cache.hit_rate": log.extras.get("plan_cache_hit_rate", 0.0),
            "serve.cache.hit_rate": log.extras.get("serve_cache_hit_rate", 0.0),
            "serve.shed": log.extras.get("serve_shed", 0),
            "unattributed_ms": summary["unattributed_ms"],
            "trace_overhead": overhead,
        }
    )
    return {
        name: {"value": values[name], "unit": unit}
        for name, unit, _ in spec.per_layer_metrics()
    }


def by_population(tracer: Tracer, log) -> dict:
    """Operation time and the largest self times per read population
    (plain, after write, cached) and for writes."""
    out = {}
    for name, records in metrics.classify(log.records, log.prob_after_write).items():
        ops = {r.op_id for r in records}
        if not ops:
            continue
        summary = tracer.summary(ops)
        top = sorted(summary["layers"].items(), key=lambda kv: -kv[1]["self_ms"])
        out[name] = {
            "ops": summary["ops"],
            "op_ms": summary["op_ms"],
            "unattributed_ms": summary["unattributed_ms"],
            "top_self_ms": {k: v["self_ms"] for k, v in top[:6] if v["self_ms"]},
        }
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[n for n, _ in spec.WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--write-manifest", action="store_true")
    args = parser.parse_args(argv)

    if args.write_manifest:
        for path in spec.write_manifest(ROOT):
            print(f"wrote {path}")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: the program under test is missing ({SRC}/repro)", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_probe(args.workload, args.seed)}))
        return 0

    workload, seed, seconds = args.workload, args.seed, args.seconds
    result: dict = {"meta": meta.collect(ROOT, workload, seed, bool(args.trace))}
    if not args.trace:
        log, main_setup = run_pass(workload, seed, seconds)
        setups = [main_setup] + probe_setups(workload, seed)
        run_summary = metrics.summarize(log, statistics.median(setups))
        result.update(run_summary, setup_s_samples=setups)
        final_metrics = {
            name: run_summary["metrics"][name] for name, *_ in spec.END_TO_END
        }
    else:
        half = seconds / 2
        plain, _ = run_pass(workload, seed, half, check=False)
        gc.collect()
        tracer = Tracer(spec.LAYERS, spec.COUNTERS, spec.MH_RUN)
        log, _ = run_pass(workload, seed, half, tracer=tracer)
        summary = tracer.summary()
        untraced = metrics.summarize(plain, None)["metrics"]["ops_per_s"]["value"]
        # End-to-end figures of a traced pass carry the tracer's cost.
        run_summary = metrics.summarize(log, None)
        result["traced_pass"] = run_summary
        traced = run_summary["metrics"]["ops_per_s"]["value"]
        overhead = untraced / traced if traced else 0.0
        result["trace"] = {
            "op_ms": summary["op_ms"],
            "ops": summary["ops"],
            "attributed_frac": summary["attributed_frac"],
            "untraced_ops_per_s": untraced,
            "layers": summary["layers"],
            "counters": summary["counters"],
            "by_population": by_population(tracer, log),
            "spans_file": os.path.relpath(
                tracer.write(OUT, f"trace-{workload}"), ROOT
            ),
        }
        final_metrics = traced_metrics(summary, log, overhead)
        result["per_layer"] = final_metrics

    result["extras"] = log.extras
    result["checks"] = log.checks
    result["correct"] = log.correct
    attempted = len(log.records)
    failed = sum(1 for r in log.records if r.error is not None)
    os.makedirs(OUT, exist_ok=True)
    out_path = os.path.join(OUT, f"{workload}-seed{seed}-trace{args.trace}.json")
    with open(out_path, "w") as fh:
        json.dump(result, fh, indent=2, default=str)
        fh.write("\n")

    missing = [n for n, m in final_metrics.items() if m["value"] is None]
    print(f"perfbench {workload} seed={seed} trace={args.trace}: "
          f"{attempted} ops ({failed} failed) in {log.seconds:.1f}s; "
          f"samples {run_summary['samples']}; checks "
          + ", ".join(f"{k}={'ok' if v['ok'] else 'FAILED'}({v['count']})"
                      for k, v in sorted(log.checks.items())))
    print(f"full result: {os.path.relpath(out_path, ROOT)}")
    if missing:
        print(f"perfbench: no value for {missing}", file=sys.stderr)
        return 3
    print(json.dumps({
        "correct": log.correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": final_metrics,
    }))
    return 0 if log.correct else 1


if __name__ == "__main__":
    sys.exit(main())
