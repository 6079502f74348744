"""Deterministic fault injection for the chaos test suite.

Fault tolerance that is only exercised by real outages is untested
code.  A :class:`FaultPlan` is a *seeded, explicit schedule* of
failures — worker kills, dropped pipes, wedged-slow responses,
checkpoint-write failures — threaded through the process backend, the
sharded evaluator, and the serving pool behind hooks that cost nothing
when no plan is installed (the hot paths hold ``None`` and never call
out).  Because the schedule is data, every chaos run is exactly
reproducible: the same plan kills the same worker at the same sample.

Semantics of :attr:`Fault.at` by context:

* process chain workers — the ``at``-th recorded sample since the
  worker (incarnation) started, counting across run commands;
* checkpoint faults (``kind="ckpt_fail"``) — the worker incarnation's
  ``at``-th checkpoint (counting from 1) fails to write; for a chain
  built fresh by the factory this is the checkpoint sequence number;
* serving-pool workers — the ``at``-th ``run()`` request on that
  worker.

Faults fire on incarnation 0 (the original worker) unless
``all_incarnations`` is set — the knob that turns "one crash,
recovered" into "crashes forever", which is how the retry-budget
exhaustion path is tested.  Each fault fires at most once per
incarnation.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import CheckpointError, EvaluationError
from repro.rng import make_rng

__all__ = ["FAULT_KINDS", "Fault", "FaultPlan", "FaultSpec", "FaultInjector"]

FAULT_KINDS = ("kill", "pipe_drop", "slow", "ckpt_fail", "fail")


@dataclass(frozen=True)
class Fault:
    """One scheduled failure.

    ``kind``: ``"kill"`` (SIGKILL the worker process mid-step — the
    OOM-killer simulation), ``"pipe_drop"`` (close the worker's end of
    the pipe and wedge: alive but permanently silent), ``"slow"``
    (sleep ``seconds`` before continuing — heartbeat-visible slowness
    when short, indistinguishable from wedged when long), ``"ckpt_fail"``
    (the worker's ``at``-th checkpoint write raises), ``"fail"`` (raise a
    plain exception from the work itself — the serving pool's
    poisoned-worker path).
    """

    kind: str
    at: int
    seconds: float = 0.0
    all_incarnations: bool = False

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise EvaluationError(
                f"unknown fault kind {self.kind!r} (expected one of {FAULT_KINDS})"
            )
        if self.at < 0:
            raise EvaluationError("fault position must be >= 0")


@dataclass(frozen=True)
class FaultSpec:
    """The schedule for one worker: a tuple of :class:`Fault`."""

    faults: Tuple[Fault, ...]

    def injector(
        self, pipe_dropper: Optional[Callable[[], None]] = None
    ) -> "FaultInjector":
        return FaultInjector(self, pipe_dropper=pipe_dropper)


class FaultPlan:
    """Seeded schedule of faults, keyed by worker index.

    Build one explicitly (``FaultPlan({1: [Fault("kill", at=5)]})``)
    when a test needs surgical precision, or randomly
    (:meth:`FaultPlan.random`) when a chaos sweep wants coverage; both
    are pure data, picklable, and replay identically.
    """

    def __init__(self, faults: Mapping[int, Sequence[Fault]] | None = None):
        self._faults: Dict[int, Tuple[Fault, ...]] = {
            index: tuple(entry)
            for index, entry in (faults or {}).items()
            if entry
        }

    @classmethod
    def random(
        cls,
        seed: int,
        num_workers: int,
        *,
        kinds: Sequence[str] = ("kill", "pipe_drop", "slow"),
        rate: float = 0.5,
        max_at: int = 8,
        slow_seconds: float = 0.05,
    ) -> "FaultPlan":
        """A seeded random schedule: each worker independently draws
        whether it faults (probability ``rate``), which kind, and at
        which position in ``[0, max_at]``.  Same seed, same plan."""
        for kind in kinds:
            if kind not in FAULT_KINDS:
                raise EvaluationError(f"unknown fault kind {kind!r}")
        rng = make_rng(seed)
        faults: Dict[int, List[Fault]] = {}
        for index in range(num_workers):
            if rng.random() >= rate:
                continue
            kind = rng.choice(list(kinds))
            at = rng.randrange(max_at + 1)
            seconds = slow_seconds if kind == "slow" else 0.0
            faults.setdefault(index, []).append(Fault(kind, at, seconds))
        return cls(faults)

    # ------------------------------------------------------------------
    def for_worker(self, index: int, incarnation: int = 0) -> Optional[FaultSpec]:
        """The schedule for one worker incarnation, or ``None``.

        Replacement workers (incarnation > 0) run clean unless a fault
        opted into ``all_incarnations`` — recovery from a deterministic
        fault must not deterministically re-trigger it."""
        entry = self._faults.get(index)
        if not entry:
            return None
        live = tuple(
            f for f in entry if incarnation == 0 or f.all_incarnations
        )
        return FaultSpec(live) if live else None

    def worker_indexes(self) -> List[int]:
        return sorted(self._faults)

    def is_empty(self) -> bool:
        return not self._faults

    def fingerprint(self) -> Tuple:
        """Content identity (used in runner-cache keys)."""
        return tuple(
            (index, self._faults[index]) for index in sorted(self._faults)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        total = sum(len(v) for v in self._faults.values())
        return f"FaultPlan({total} faults over workers {self.worker_indexes()})"


class FaultInjector:
    """Worker-side runtime that fires a :class:`FaultSpec` on cue.

    Hosts call :meth:`on_sample` / :meth:`on_run` / :meth:`on_checkpoint`
    at their natural hook points; each due fault fires exactly once.
    The injector is only ever constructed when a plan is installed, so
    an un-faulted worker carries no injector and pays nothing.
    """

    def __init__(
        self,
        spec: FaultSpec,
        pipe_dropper: Optional[Callable[[], None]] = None,
    ):
        self._pending: List[Fault] = list(spec.faults)
        self._pipe_dropper = pipe_dropper
        self.fired: List[Fault] = []

    def _due(self, kinds: Tuple[str, ...], position: int) -> List[Fault]:
        due = [
            f for f in self._pending if f.kind in kinds and f.at <= position
        ]
        for fault in due:
            self._pending.remove(fault)
            self.fired.append(fault)
        return due

    # ------------------------------------------------------------------
    def on_sample(self, position: int) -> None:
        """Process-worker hook: fires kill/pipe_drop/slow at a recorded
        sample boundary."""
        for fault in self._due(("slow",), position):
            time.sleep(fault.seconds)
        for fault in self._due(("pipe_drop",), position):
            if self._pipe_dropper is not None:
                self._pipe_dropper()
            # Wedge: alive but silent, forever.  The supervisor's
            # heartbeat deadline — not an exit code — must catch this.
            while True:
                time.sleep(3600)
        if self._due(("kill",), position):
            os.kill(os.getpid(), signal.SIGKILL)

    def on_run(self, run_index: int) -> None:
        """Serving-pool hook: fires slow/fail before the ``run_index``-th
        leased run (kill and pipe_drop degrade to ``fail`` — an
        in-process worker has no pid or pipe of its own to lose, but
        must still exercise the poison-and-evict path)."""
        for fault in self._due(("slow",), run_index):
            time.sleep(fault.seconds)
        if self._due(("fail", "kill", "pipe_drop"), run_index):
            raise EvaluationError("injected worker fault (chaos plan)")

    def on_checkpoint(self, seq: int) -> None:
        """Checkpoint-write hook: a due ``ckpt_fail`` raises
        :class:`~repro.errors.CheckpointError` (the worker reports the
        skip and keeps sampling)."""
        if any(f.kind == "ckpt_fail" and f.at == seq for f in self._pending):
            self._pending = [
                f
                for f in self._pending
                if not (f.kind == "ckpt_fail" and f.at == seq)
            ]
            raise CheckpointError(f"injected checkpoint write failure at seq {seq}")
