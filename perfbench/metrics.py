"""From a run's operation records to its named metrics.

Reads are split into populations so that no percentile sits between two
modes: a read "after write" is the first read of its kind (deterministic
or probabilistic) at a version made by a write in this run; every other
read of that kind is a plain read.  Probabilistic reads answered from
the server's marginal cache form their own population: they count in
``ops_per_s`` but not in ``prob_read_*``.

A server with W pool workers moves each worker to a new version
separately, so there the first W probabilistic reads that miss the
cache at a new version are the ones after the write
(``prob_after_write=W``).
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence

import spec
import stats

POPULATIONS = ("prob", "prob_after_write", "prob_cached", "det", "det_after_write", "write")


def classify(records: Sequence[Any], prob_after_write: int = 1) -> Dict[str, List[Any]]:
    """Successful records by population, each in start order."""
    ok = sorted((r for r in records if r.error is None), key=lambda r: r.start)
    written = {r.version for r in ok if r.kind == "write"}
    first = {"det": 1, "prob": prob_after_write}
    seen: Dict[tuple, int] = {}
    populations: Dict[str, List[Any]] = {name: [] for name in POPULATIONS}
    for record in ok:
        if record.kind == "write":
            populations["write"].append(record)
            continue
        if record.cached:
            populations["prob_cached"].append(record)
            continue
        key = (record.kind, record.version)
        after = record.version in written and seen.get(key, 0) < first[record.kind]
        seen[key] = seen.get(key, 0) + 1
        populations[record.kind + ("_after_write" if after else "")].append(record)
    return populations


def plain_prob_reads(records: Sequence[Any], prob_after_write: int = 1) -> int:
    return len(classify(records, prob_after_write)["prob"])


def summarize(log: Any, setup_s: float | None) -> Dict[str, Any]:
    """Every end-to-end metric with its unit, plus sample counts,
    latencies and failures per operation kind."""
    populations = classify(log.records, log.prob_after_write)
    units = {name: unit for name, unit, *_ in spec.END_TO_END + spec.WORKLOAD_METRICS}
    values: Dict[str, Any] = {}
    counts: Dict[str, int] = {}
    latency_lists: Dict[str, List[float]] = {}

    def latencies(name: str) -> List[float]:
        return [r.latency * 1000.0 for r in populations[name]]

    for name, prefix in (
        ("prob", "prob_read"),
        ("prob_after_write", "prob_read_after_write"),
        ("det", "det_read"),
        ("det_after_write", "det_read_after_write"),
        ("write", "write"),
    ):
        summary = stats.population(latencies(name))
        counts[prefix] = summary["n"]
        latency_lists[prefix] = [round(v, 3) for v in latencies(name)]
        values[f"{prefix}_p50_ms"] = summary["p50"]
        if f"{prefix}_p90_ms" in units:
            values[f"{prefix}_p90_ms"] = summary["p90"]
    counts["prob_read_cached"] = len(populations["prob_cached"])

    sampled = populations["prob"] + populations["prob_after_write"]
    busy = sum(r.latency for r in sampled)
    values["samples_per_s"] = sum(r.samples for r in sampled) / busy if busy else None
    succeeded = sum(len(rs) for rs in populations.values())
    values["ops_per_s"] = succeeded / log.seconds if log.seconds else None
    values["setup_s"] = setup_s
    values["peak_rss_mb"] = log.peak_rss_mb

    attempted: Dict[str, int] = {}
    failed: Dict[str, int] = {}
    for record in log.records:
        attempted[record.kind] = attempted.get(record.kind, 0) + 1
        if record.error is not None:
            failed[record.kind] = failed.get(record.kind, 0) + 1
    total = len(log.records)
    values["failed_ops_frac"] = sum(failed.values()) / total if total else None

    return {
        "metrics": {
            name: {"value": values.get(name), "unit": unit}
            for name, unit in units.items()
        },
        "samples": counts,
        "attempted": attempted,
        "failed": failed,
        "errors": sorted({r.error for r in log.records if r.error})[:10],
        "seconds": log.seconds,
        "latencies_ms": latency_lists,
    }
