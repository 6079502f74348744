"""WorkerPool: leasing fairness, rebasing, eviction, keepalive."""

import asyncio
import time

import pytest

from repro.errors import EvaluationError, ServeOverloadError
from repro.serve import WorkerPool

from serve_support import QUERY, make_engine


def make_pool(size=2, **kwargs):
    task, session = make_engine()
    pool = WorkerPool(task.chain_factory(), size, **kwargs)
    pool.start(session.database.snapshot())
    return task, session, pool


def plan_for(session, sql=QUERY):
    key, kind, plan = session._route(sql)
    assert kind == "query"
    return key, plan


class TestLeasing:
    def test_acquire_release_roundtrip(self):
        async def main():
            _, session, pool = make_pool(size=2)
            a = await pool.acquire()
            b = await pool.acquire()
            assert a is not b and a.leased and b.leased
            pool.release(a)
            pool.release(b)
            assert pool.stats()["idle"] == 2
            pool.close()

        asyncio.run(main())

    def test_fifo_fairness(self):
        """Waiters are served strictly in arrival order."""

        async def main():
            _, session, pool = make_pool(size=1)
            worker = await pool.acquire()
            order = []

            async def waiter(tag):
                w = await pool.acquire()
                order.append(tag)
                await asyncio.sleep(0)
                pool.release(w)

            tasks = []
            for tag in ("first", "second", "third"):
                tasks.append(asyncio.create_task(waiter(tag)))
                await asyncio.sleep(0)  # deterministic arrival order
            assert pool.stats()["queue_depth"] == 3
            pool.release(worker)
            await asyncio.gather(*tasks)
            assert order == ["first", "second", "third"]
            pool.close()

        asyncio.run(main())

    def test_acquire_timeout_sheds(self):
        async def main():
            _, session, pool = make_pool(size=1)
            worker = await pool.acquire()
            with pytest.raises(ServeOverloadError) as err:
                await pool.acquire(timeout=0.05)
            assert err.value.reason == "timeout"
            pool.release(worker)
            pool.close()

        asyncio.run(main())

    def test_requires_rebasable_factory(self):
        with pytest.raises(EvaluationError, match="rebased"):
            WorkerPool(lambda i: None, 1)


class TestRunsAndVersions:
    def test_run_continues_chain_and_counts_samples(self):
        async def main():
            _, session, pool = make_pool(size=1)
            fingerprint, plan = plan_for(session)
            worker = await pool.acquire()
            first = worker.run(fingerprint, plan, 4)
            # initial world counts once, later runs accumulate
            assert first.samples == 5
            second = worker.run(fingerprint, plan, 4)
            assert second.samples == 9
            pool.release(worker)
            pool.close()

        asyncio.run(main())

    def test_rebase_tracks_version_and_drops_views(self):
        async def main():
            _, session, pool = make_pool(size=1)
            fingerprint, plan = plan_for(session)
            worker = await pool.acquire()
            worker.run(fingerprint, plan, 2)
            assert worker.version == 0
            session.execute(
                "INSERT INTO TOKEN VALUES (999999, 0, 'Zanzibar', 'B-PER', 'B-PER')"
            )
            snap = session.database.snapshot()
            assert snap.version == 1
            worker.rebase(snap)
            assert worker.version == 1
            assert worker._queries == {}  # view state dropped with the old world
            # the rebased world includes the committed row
            assert len(worker.db.table("TOKEN")) == len(session.database.table("TOKEN"))
            run = worker.run(fingerprint, plan, 2)
            assert run.samples == 3  # fresh evaluator: initial world re-counted
            pool.release(worker)
            pool.close()

        asyncio.run(main())

    def test_failed_worker_evicted_and_replaced(self):
        async def main():
            _, session, pool = make_pool(size=1)
            fingerprint, plan = plan_for(session)
            worker = await pool.acquire()
            with pytest.raises(Exception):
                worker.run(fingerprint, "not a plan", 2)
            assert worker.failed
            pool.release(worker)
            stats = pool.stats()
            assert stats["evictions"] == 1
            # The replacement builds asynchronously off the loop; until
            # it lands the pool is legitimately empty, not stalled.
            assert stats["idle"] + stats["replacing"] == 1
            replacement = await pool.acquire()  # parks until the build lands
            assert replacement is not worker and not replacement.failed
            # the replacement still serves runs
            assert replacement.run(fingerprint, plan, 2).samples == 3
            pool.release(replacement)
            pool.close()

        asyncio.run(main())

    def test_eviction_without_running_loop_builds_inline(self):
        """Synchronous callers (no event loop to stall) still get the
        eager inline replacement."""
        _, session, pool = make_pool(size=1)
        worker = pool._idle.popleft()
        worker.leased = True
        worker.failed = True
        pool.release(worker)
        stats = pool.stats()
        assert stats["evictions"] == 1
        assert stats["idle"] == 1
        assert stats["replacing"] == 0
        pool.close()

    def test_counters_survive_eviction(self):
        """Regression: rebases and runs were summed over live workers
        only, so evicting a worker made the pool's totals drop."""
        _, session, pool = make_pool(size=1)
        fingerprint, plan = plan_for(session)
        worker = pool._idle.popleft()
        worker.leased = True
        worker.run(fingerprint, plan, 2)
        session.execute(
            "INSERT INTO TOKEN VALUES (999999, 0, 'Zanzibar', 'B-PER', 'B-PER')"
        )
        worker.rebase(session.database.snapshot())
        assert (pool.stats()["rebases"], pool.stats()["runs"]) == (1, 1)
        worker.failed = True
        pool.release(worker)
        stats = pool.stats()
        assert stats["evictions"] == 1
        assert (stats["rebases"], stats["runs"]) == (1, 1)
        pool.close()

    def test_replacement_builds_off_the_event_loop(self):
        """Regression: release() used to build the replacement worker
        synchronously on the loop thread, freezing every tenant for a
        full world rebuild.  A heartbeat task must keep ticking while
        a deliberately slow replacement builds."""

        class SlowFactory:
            def __init__(self, inner, delay):
                self.inner = inner
                self.delay = delay

            def rebased(self, snapshot):
                build = self.inner.rebased(snapshot)

                def slow_build(index):
                    time.sleep(self.delay)
                    return build(index)

                return slow_build

        async def main():
            task, session = make_engine()
            pool = WorkerPool(SlowFactory(task.chain_factory(), 0.15), 1)
            pool.start(session.database.snapshot())
            fingerprint, plan = plan_for(session)
            worker = await pool.acquire()
            with pytest.raises(Exception):
                worker.run(fingerprint, "not a plan", 1)
            ticks = 0

            async def heartbeat():
                nonlocal ticks
                while True:
                    await asyncio.sleep(0.01)
                    ticks += 1

            beat = asyncio.create_task(heartbeat())
            pool.release(worker)  # schedules the 0.15s replacement build
            replacement = await pool.acquire()
            beat.cancel()
            assert replacement is not worker and not replacement.failed
            assert ticks >= 5  # loop stayed live during the build
            pool.release(replacement)
            pool.close()

        asyncio.run(main())


class TestKeepalive:
    def test_reap_idle_drops_view_state_keeps_chain(self):
        async def main():
            _, session, pool = make_pool(size=1, keepalive_s=0.0)
            fingerprint, plan = plan_for(session)
            worker = await pool.acquire()
            worker.run(fingerprint, plan, 2)
            pool.release(worker)
            assert worker._queries
            assert pool.reap_idle() == 1
            assert worker._queries == {}
            assert not worker.closed  # chain stays warm
            # a leased worker is never reaped
            worker = await pool.acquire()
            worker.run(fingerprint, plan, 2)
            assert pool.reap_idle() == 0
            pool.release(worker)
            pool.close()

        asyncio.run(main())


class TestClose:
    def test_close_fails_parked_waiters(self):
        async def main():
            _, session, pool = make_pool(size=1)
            worker = await pool.acquire()
            waiter = asyncio.create_task(pool.acquire())
            await asyncio.sleep(0)
            pool.close()
            with pytest.raises(ServeOverloadError) as err:
                await waiter
            assert err.value.reason == "shutdown"
            with pytest.raises(EvaluationError, match="closed"):
                await pool.acquire()

        asyncio.run(main())
