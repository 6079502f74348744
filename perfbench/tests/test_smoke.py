"""Tiny-scale runs of every workload through the benchmark's runners."""

import asyncio
import os
import shutil
import subprocess
import sys

import pytest

import spec
import workloads
from tracer import Tracer

TINY = {"num_tokens": 600, "k": 20}
SECONDS = 0.3


def _session_run(workload, runner, tracer=None, seed=4):
    task = workloads.make_task(workload, seed, **TINY)
    session = workloads.open_session(task, seed)
    try:
        if tracer is None:
            return runner(session, task, seed, SECONDS)
        with tracer:
            return runner(session, task, seed, SECONDS, tracer)
    finally:
        session.close()


def _assert_healthy(log):
    assert log.records
    assert all(r.error is None for r in log.records), [r.error for r in log.records]
    assert log.correct, log.checks
    assert log.seconds > 0 and log.peak_rss_mb > 0


def test_refine_smoke():
    log = _session_run("refine-40k", workloads.run_refine)
    _assert_healthy(log)
    assert log.checks["refine.naive_equals_materialized"]["count"] == 4
    assert {r.kind for r in log.records} == {"prob"}


def test_adhoc_smoke():
    log = _session_run("adhoc-40k", workloads.run_adhoc)
    _assert_healthy(log)
    assert log.checks["adhoc.sqlite_oracle"]["count"] > 0


def test_sharded_smoke():
    log = _session_run("sharded-rw-10k", workloads.run_sharded)
    _assert_healthy(log)
    assert {r.kind for r in log.records} == {"prob", "write"}


def test_serve_smoke():
    async def main():
        task = workloads.make_task("serve-rw-10k", 4, **TINY)
        server = await workloads.open_server(task, 4)
        try:
            return await workloads.run_serve(server, task, 4, SECONDS)
        finally:
            await server.drain()

    log = asyncio.run(main())
    _assert_healthy(log)
    assert log.checks["serve.reads_match_commit_log"]["count"] > 0
    assert log.extras["stale_reads"] == 0


def test_traced_refine_attributes_time_to_layers():
    tracer = Tracer(spec.LAYERS, spec.COUNTERS, spec.MH_RUN)
    log = _session_run("refine-40k", workloads.run_refine, tracer)
    _assert_healthy(log)
    summary = tracer.summary()
    assert summary["ops"] == len(log.records)
    assert summary["attributed_frac"] >= 0.9
    layers = summary["layers"]
    assert layers["mcmc.advance"]["calls"] > 0
    assert layers["fg.score_delta"]["calls"] > 0
    assert layers["serve.rebase"]["calls"] == 0
    assert layers["db.from_snapshot"]["calls"] == 0
    assert summary["mh"]["proposals"] > 0


def test_cli_refuses_to_run_without_the_program(tmp_path):
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    shutil.copytree(here, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    shutil.copy(os.path.join(os.path.dirname(here), "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "refine-40k",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("name", [n for n, _ in spec.WORKLOADS])
def test_every_workload_has_a_size(name):
    assert name in workloads.TOKENS
