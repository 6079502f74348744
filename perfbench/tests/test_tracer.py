import asyncio
import sys
import time
import types

import pytest

import spec
from tracer import OP_LAYER, Tracer, resolve, self_times


def test_self_time_of_nested_spans():
    # op [0, 10] > a [1, 6] > b [2, 3]; op > c [7, 9]
    layer = [0, 1, 2, 1]
    parent = [-1, 0, 1, 0]
    start = [0.0, 1.0, 2.0, 7.0]
    end = [10.0, 6.0, 3.0, 9.0]
    assert self_times(layer, parent, start, end) == [3.0, 4.0, 1.0, 2.0]


def test_overlapping_children_cover_their_union():
    # two children in different threads under one parent overlap on [3, 4]
    layer = [0, 1, 1]
    parent = [-1, 0, 0]
    start = [0.0, 2.0, 3.0]
    end = [10.0, 4.0, 6.0]
    assert self_times(layer, parent, start, end) == [6.0, 2.0, 3.0]


def test_children_are_clipped_to_their_parent():
    layer = [0, 1]
    parent = [-1, 0]
    start = [0.0, 1.0]
    end = [2.0, 5.0]
    assert self_times(layer, parent, start, end)[0] == pytest.approx(1.0)


@pytest.fixture
def toy_module():
    module = types.ModuleType("perfbench_toy")

    def leaf(seconds):
        time.sleep(seconds)
        return "leaf"

    def middle(seconds):
        time.sleep(seconds)
        return module.leaf(seconds)

    class Worker:
        def work(self, seconds):
            return module.middle(seconds)

        @classmethod
        def build(cls):
            return cls()

    async def wait(seconds):
        await asyncio.sleep(seconds)
        return await asyncio.to_thread(module.middle, seconds)

    module.leaf, module.middle, module.Worker, module.wait = leaf, middle, Worker, wait
    sys.modules[module.__name__] = module
    yield module
    del sys.modules[module.__name__]


LAYERS = {
    "leaf": ["perfbench_toy:leaf"],
    "middle": ["perfbench_toy:middle"],
    "worker": ["perfbench_toy:Worker.work", "perfbench_toy:Worker.build"],
    "wait": ["perfbench_toy:wait"],
}


def test_spans_nest_and_sum_to_the_op(toy_module):
    tracer = Tracer(LAYERS)
    with tracer:
        toy_module.Worker.build().work(0.01)  # outside an op: not recorded
        with tracer.op("prob"):
            toy_module.Worker.build().work(0.01)
    summary = tracer.summary()
    assert summary["ops"] == 1
    layers = summary["layers"]
    assert layers["worker"]["calls"] == 2  # build + work
    assert layers["middle"]["calls"] == 1 and layers["leaf"]["calls"] == 1
    assert layers["middle"]["self_ms"] >= 9.0 and layers["leaf"]["self_ms"] >= 9.0
    attributed = sum(entry["self_ms"] for entry in layers.values())
    assert attributed + summary["unattributed_ms"] == pytest.approx(summary["op_ms"])
    assert summary["attributed_frac"] > 0.9


def test_spans_follow_asyncio_to_thread(toy_module):
    tracer = Tracer(LAYERS)

    async def client(kind):
        with tracer.op(kind):
            await toy_module.wait(0.01)

    with tracer:
        async def main():
            await asyncio.gather(client("a"), client("b"))

        asyncio.run(main())
    layer, parent, op, start, end = tracer.spans()
    names = tracer.names
    by_name = {}
    for index in range(len(layer)):
        by_name.setdefault(names[layer[index]], []).append(index)
    assert len(by_name["op"]) == 2 and len(by_name["wait"]) == 2
    for index in by_name["middle"] + by_name["leaf"]:
        # thread-side spans keep their operation and a parent in it
        assert op[parent[index]] == op[index]
    for index in by_name["middle"]:
        assert names[layer[parent[index]]] == "wait"
    summary = tracer.summary()
    assert summary["layers"]["wait"]["self_ms"] >= 2 * 9.0  # the sleeps
    assert summary["attributed_frac"] > 0.9


def test_uninstall_restores_every_attribute_by_identity(toy_module):
    tracer = Tracer(LAYERS)
    originals = {t: resolve(t)[2] for targets in LAYERS.values() for t in targets}
    with tracer:
        for target, raw in originals.items():
            assert resolve(target)[2] is not raw
    for target, raw in originals.items():
        assert resolve(target)[2] is raw
    assert not tracer.installed


def test_uninstall_restores_the_program_layers():
    targets = [t for ts in spec.LAYERS.values() for t in ts]
    targets += list(spec.COUNTERS.values()) + [spec.MH_RUN]
    originals = {t: resolve(t)[2] for t in targets}
    tracer = Tracer(spec.LAYERS, spec.COUNTERS, spec.MH_RUN).install()
    try:
        assert all(resolve(t)[2] is not raw for t, raw in originals.items())
    finally:
        tracer.uninstall()
    assert all(resolve(t)[2] is raw for t, raw in originals.items())


def test_op_root_has_no_parent(toy_module):
    tracer = Tracer(LAYERS)
    with tracer, tracer.op("det"):
        toy_module.leaf(0)
    layer, parent, *_ = tracer.spans()
    assert layer[0] == OP_LAYER and parent[0] == -1
