import itertools

import pytest

import workloads

CORPUS = workloads.Corpus(vocab=["Boston", "IBM", "Smith", "Globe"], num_docs=40, num_tokens=5000)

STREAMS = {
    "refine": lambda seed: workloads.refine_stream(seed),
    "adhoc": lambda seed: workloads.adhoc_stream(seed, CORPUS),
    "serve-0": lambda seed: workloads.serve_script(seed, 0, CORPUS),
    "serve-1": lambda seed: workloads.serve_script(seed, 1, CORPUS),
    "sharded": lambda seed: workloads.sharded_stream(seed, CORPUS),
}


def take(stream, n=300):
    return list(itertools.islice(stream, n))


@pytest.mark.parametrize("name", sorted(STREAMS))
def test_same_seed_same_statements(name):
    make = STREAMS[name]
    assert take(make(7)) == take(make(7))


@pytest.mark.parametrize("name", sorted(STREAMS))
def test_other_seed_other_statements(name):
    make = STREAMS[name]
    assert take(make(7)) != take(make(8))


def test_serve_clients_differ():
    assert take(workloads.serve_script(7, 0, CORPUS)) != take(
        workloads.serve_script(7, 1, CORPUS)
    )


def test_refine_rounds_cover_each_paper_query():
    ops = take(workloads.refine_stream(3), 40)
    for start in range(0, 40, 4):
        chunk = [op.sql for op in ops[start : start + 4]]
        assert sorted(chunk) == sorted(workloads.paper_queries())


def test_adhoc_statements_are_distinct_and_mixed():
    ops = take(workloads.adhoc_stream(3, CORPUS), 400)
    assert len({op.sql for op in ops}) == len(ops)
    kinds = {op.kind for op in ops}
    assert kinds == {"prob", "det"}
    # far more distinct statements than the 128-entry plan cache
    assert len(ops) > 128


def test_scripts_mix_writes_and_reads():
    for name in ("serve-0", "sharded"):
        kinds = {op.kind for op in take(STREAMS[name](5))}
        assert "write" in kinds and "prob" in kinds
