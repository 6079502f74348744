"""Correctness checks; each runs with the workload clock stopped.

* every probability lies in [0, 1] (all workloads);
* Algorithm 1 (``evaluator="materialized"``) and Algorithm 3
  (``"naive"``) give bit-identical marginals over the same seeded
  prefix (refine-40k);
* deterministic answers equal, as multisets, those of stdlib
  ``sqlite3`` loaded from the current world (adhoc-40k);
* every deterministic read of a server equals the commit log replayed
  up to the version it reports (serve-rw-10k).

A failed check is recorded on the run's log; it never stops the run.
"""

from __future__ import annotations

import re
import sqlite3
from collections import Counter
from typing import Any, Callable, Dict, List, Sequence


def check_probabilities(log: Any, probabilities: Dict[Any, float]) -> None:
    bad = {row: p for row, p in probabilities.items() if not 0.0 <= p <= 1.0}
    log.add_check("probability_in_unit_interval", not bad, repr(bad)[:200])


def check_naive_matches(
    log: Any,
    task: Any,
    seed: int,
    prefix: Sequence[tuple],
    open_session: Callable[[Any, int], Any],
) -> None:
    """Replay the first operations (each of Queries 1-4 once) on a fresh
    world with the naive evaluator and compare marginals exactly."""
    session = open_session(task, seed)
    try:
        for op, expected in prefix:
            cursor = session.execute(op.sql, samples=op.samples, evaluator="naive")
            got = dict(cursor.marginals().probabilities())
            log.add_check(
                "refine.naive_equals_materialized",
                got == expected,
                {"sql": op.sql, "naive_rows": len(got), "materialized_rows": len(expected)},
            )
    finally:
        session.close()


class SqliteOracle:
    """Loads the current TOKEN relation into an in-memory sqlite3
    database and compares deterministic answers as multisets."""

    def __init__(self) -> None:
        self.loads = 0

    def compare(self, log: Any, database: Any, sql: str, rows: List[tuple]) -> None:
        table = database.table("TOKEN")
        columns = [a.name for a in table.schema.attributes]
        conn = sqlite3.connect(":memory:")
        try:
            conn.execute(f"CREATE TABLE TOKEN ({', '.join(columns)})")
            conn.executemany(
                f"INSERT INTO TOKEN VALUES ({', '.join('?' * len(columns))})",
                table.rows(),
            )
            expected = conn.execute(sql).fetchall()
        finally:
            conn.close()
        self.loads += 1
        same = Counter(map(tuple, rows)) == Counter(map(tuple, expected))
        log.add_check(
            "adhoc.sqlite_oracle",
            same,
            {"sql": sql, "engine_rows": len(rows), "sqlite_rows": len(expected)},
        )


_INSERT_AUDIT = re.compile(r"INSERT INTO AUDIT VALUES \((\d+), (-?\d+)\)")
_UPDATE_AUDIT = re.compile(r"UPDATE AUDIT SET V = (-?\d+) WHERE ID = (\d+)")
_INSERT_TOKEN = re.compile(r"INSERT INTO TOKEN VALUES \((\d+), (\d+), '([^']*)'")
_UPDATE_TOKEN = re.compile(r"UPDATE TOKEN SET STRING = '([^']*)' WHERE TOK_ID = (\d+)")
_READ_DOC = re.compile(r"SELECT TOK_ID, STRING FROM TOKEN WHERE DOC_ID = (\d+)")


def check_commit_log(
    log: Any,
    tokens: Sequence[Any],
    writes: List[tuple],
    det_reads: List[tuple],
) -> None:
    """Replay the committed writes in version order and compare every
    deterministic read with the state at the version it reports.

    A write that changes nothing (an UPDATE to the value already
    stored) commits no version and reports the current one, so two
    writes can share a version; they then touch different rows or set
    the same value, and replaying them in either order is the same.
    """
    audit: Dict[int, int] = {}
    token_doc = {t.tok_id: t.doc_id for t in tokens}
    token_str = {t.tok_id: t.string for t in tokens}
    pending = sorted(writes, key=lambda write: write[0])
    applied = 0
    for version, sql, rows in sorted(det_reads, key=lambda read: read[0]):
        while applied < len(pending) and pending[applied][0] <= version:
            _apply_write(pending[applied][1], audit, token_doc, token_str)
            applied += 1
        doc = _READ_DOC.fullmatch(sql)
        if doc is None:
            expected = [(key, value) for key, value in audit.items()]
        else:
            wanted = int(doc.group(1))
            expected = [
                (tok, token_str[tok]) for tok, d in token_doc.items() if d == wanted
            ]
        log.add_check(
            "serve.reads_match_commit_log",
            Counter(map(tuple, rows)) == Counter(expected),
            {"sql": sql, "version": version, "rows": len(rows), "expected": len(expected)},
        )


def _apply_write(sql: str, audit: dict, token_doc: dict, token_str: dict) -> None:
    if match := _INSERT_AUDIT.fullmatch(sql):
        audit[int(match.group(1))] = int(match.group(2))
    elif match := _UPDATE_AUDIT.fullmatch(sql):
        key = int(match.group(2))
        if key in audit:
            audit[key] = int(match.group(1))
    elif match := _INSERT_TOKEN.match(sql):
        tok = int(match.group(1))
        token_doc[tok] = int(match.group(2))
        token_str[tok] = match.group(3)
    elif match := _UPDATE_TOKEN.fullmatch(sql):
        tok = int(match.group(2))
        if tok in token_str:
            token_str[tok] = match.group(1)
    else:
        raise ValueError(f"unrecognised write {sql!r}")
