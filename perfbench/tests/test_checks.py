from collections import namedtuple

import checks
import metrics
from workloads import OpRecord, RunLog

Tok = namedtuple("Tok", "tok_id doc_id string truth")
TOKENS = [Tok(0, 0, "Boston", "B-LOC"), Tok(1, 0, "Globe", "I-ORG"), Tok(2, 1, "IBM", "B-ORG")]


def _replay(writes, reads):
    log = RunLog()
    checks.check_commit_log(log, TOKENS, writes, reads)
    return log


def test_reads_match_the_replayed_commit_log():
    writes = [
        (1, "INSERT INTO AUDIT VALUES (7, 1)"),
        (2, "UPDATE TOKEN SET STRING = 'Sox' WHERE TOK_ID = 1"),
        (3, "INSERT INTO TOKEN VALUES (10000001, 1, 'Enron', 'O', 'O')"),
        (4, "UPDATE AUDIT SET V = 5 WHERE ID = 7"),
    ]
    reads = [
        (0, "SELECT ID, V FROM AUDIT", []),
        (1, "SELECT ID, V FROM AUDIT", [(7, 1)]),
        (2, "SELECT TOK_ID, STRING FROM TOKEN WHERE DOC_ID = 0", [(1, "Sox"), (0, "Boston")]),
        (3, "SELECT TOK_ID, STRING FROM TOKEN WHERE DOC_ID = 1", [(2, "IBM"), (10000001, "Enron")]),
        (4, "SELECT ID, V FROM AUDIT", [(7, 5)]),
    ]
    log = _replay(writes, reads)
    assert log.correct and log.checks["serve.reads_match_commit_log"]["count"] == 5


def test_a_stale_read_fails_the_check():
    writes = [(1, "INSERT INTO AUDIT VALUES (7, 1)")]
    log = _replay(writes, [(1, "SELECT ID, V FROM AUDIT", [])])
    assert not log.correct


def test_a_write_that_changes_nothing_may_share_a_version():
    # The UPDATE stores the value already there: no new version.
    writes = [
        (1, "INSERT INTO AUDIT VALUES (7, 1)"),
        (1, "UPDATE TOKEN SET STRING = 'Boston' WHERE TOK_ID = 0"),
    ]
    reads = [(1, "SELECT TOK_ID, STRING FROM TOKEN WHERE DOC_ID = 0", [(0, "Boston"), (1, "Globe")])]
    assert _replay(writes, reads).correct


def test_probabilities_outside_the_unit_interval_fail():
    log = RunLog()
    checks.check_probabilities(log, {("a",): 0.5, ("b",): 1.0})
    assert log.correct
    checks.check_probabilities(log, {("c",): 1.5})
    assert not log.correct


def _rec(kind, start, version, cached=False):
    return OpRecord(kind, start, 0.01, version, samples=0 if cached else 2, cached=cached)


def test_after_write_populations():
    records = [
        _rec("prob", 0, 0),  # initial version: plain
        _rec("write", 1, 1),
        _rec("prob", 2, 1, cached=True),  # cache hit: own population
        _rec("prob", 3, 1),  # first miss at v1: after write
        _rec("prob", 4, 1),  # second miss at v1: after write only with 2 workers
        _rec("det", 5, 1),  # first det read at v1: after write
        _rec("det", 6, 1),
        _rec("prob", 7, 1),
    ]
    one = metrics.classify(records, prob_after_write=1)
    assert [r.start for r in one["prob_after_write"]] == [3]
    assert [r.start for r in one["prob"]] == [0, 4, 7]
    assert [r.start for r in one["det_after_write"]] == [5]
    assert [r.start for r in one["prob_cached"]] == [2]
    two = metrics.classify(records, prob_after_write=2)
    assert [r.start for r in two["prob_after_write"]] == [3, 4]
    assert [r.start for r in two["prob"]] == [0, 7]


def test_failed_ops_are_counted_not_measured():
    log = RunLog(records=[_rec("prob", 0, 0), _rec("prob", 1, 0)], seconds=1.0)
    log.records[1].error = "EvaluationError: boom"
    summary = metrics.summarize(log, setup_s=1.0)
    assert summary["attempted"] == {"prob": 2} and summary["failed"] == {"prob": 1}
    assert summary["metrics"]["failed_ops_frac"]["value"] == 0.5
    assert summary["samples"]["prob_read"] == 1
