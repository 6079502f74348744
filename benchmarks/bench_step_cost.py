"""Ablation: MH walk-step cost is constant in database size (§5.3).

"For the skip-chain CRF ... the time to perform an MCMC walk-step is
constant with respect to the size of the database" — because a proposal
touching one variable evaluates only the constant number of factors
adjacent to it (Appendix 9.2).  This bench times walk-steps at two
database sizes an order of magnitude apart and asserts near-constancy.

Two series are recorded, one per scoring path:

* ``slots`` — the fast path (the default): the slot scorer of
  :mod:`repro.fg.slots` over the cached adjacency;
* ``uncached`` — ``set_caching(False)``: the reference path, which
  re-instantiates factors and recomputes every dot product.

Protocol: §5.3's claim is about the *steady-state* walk step, so the
``slots`` series is measured at equilibrium — one conditional sweep
over every variable compiles the per-variable scorers (cold structure
is a one-time cost, amortized over the run's lifetime), then 20k settle
steps let the blanket caches absorb the walk's equilibrium label churn,
then 5 rounds of 2000 steps are timed.  The reference path has no
caches to warm.  Both paths run in one process on one machine, so
their ratio is a machine-independent measure of what the fast path
buys.  The pre-overhaul reference point below (~34.9 us/step at 40k
tokens, REPRO_SCALE=1, commit c4d84e2) is recorded in ``extra_info``
so the committed ``BENCH_step_cost.json`` documents the cumulative
reduction.

``test_step_cost_slots_vs_reference`` additionally asserts in-bench
that the two paths produce bit-identical marginals under fixed seeds —
the speedup is only admissible evidence if the two paths are exactly
interchangeable.
"""

from __future__ import annotations

import time

import pytest

from repro.bench import QUERY2, make_task, scale_factor

from check_step_cost import MAX_STEP_COST_RATIO, MIN_REFERENCE_SPEEDUP

SIZES = [2_000, 40_000]
STEPS = 2_000
SETTLE_STEPS = 20_000

# Mean us/step at 40k tokens of the pre-overhaul commit (c4d84e2),
# measured with this file's protocol of the day.
PRE_OVERHAUL_US_PER_STEP_40K = 34.9

MODES = ["slots", "uncached"]


def _make_instance(num_tokens: int, mode: str, chain_seed: int = 1):
    task = make_task(num_tokens, steps_per_sample=STEPS)
    instance = task.make_instance(chain_seed)
    if mode == "uncached":
        instance.kernel.graph.set_caching(False)
    return instance


def _steady_instance(num_tokens: int, mode: str, chain_seed: int = 1):
    """An instance warmed to the steady-state regime (fast path): one
    conditional sweep compiles every variable's scorer, then settle
    steps equilibrate the blanket caches."""
    instance = _make_instance(num_tokens, mode, chain_seed)
    if mode != "uncached":
        graph = instance.kernel.graph
        for variable in instance.model.variables:
            graph.local_conditional_scores(variable)
        instance.kernel.run(SETTLE_STEPS)
    return instance


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("num_tokens", [s * scale_factor() for s in SIZES])
@pytest.mark.benchmark(group="step-cost")
def test_step_cost(benchmark, num_tokens, mode):
    instance = _steady_instance(num_tokens, mode)

    def run_steps():
        instance.kernel.run(STEPS)

    benchmark.pedantic(run_steps, rounds=5, iterations=1, warmup_rounds=1)
    benchmark.extra_info["tokens"] = num_tokens
    benchmark.extra_info["steps"] = STEPS
    benchmark.extra_info["mode"] = mode


@pytest.mark.benchmark(group="step-cost-ratio")
def test_step_cost_ratio_is_near_constant(benchmark):
    """Direct assertion of the §5.3 claim (20x the data, ~same step cost)."""

    def experiment():
        times = {}
        for num_tokens in [s * scale_factor() for s in SIZES]:
            instance = _steady_instance(num_tokens, "slots")
            instance.kernel.run(STEPS)  # warmup round
            started = time.perf_counter()
            instance.kernel.run(STEPS)
            times[num_tokens] = (time.perf_counter() - started) / STEPS
        return times

    times = benchmark.pedantic(experiment, rounds=1, iterations=1)
    small, large = [times[s * scale_factor()] for s in SIZES]
    print(
        f"\nper-step: {small * 1e6:.1f}us @ {SIZES[0] * scale_factor()} tokens, "
        f"{large * 1e6:.1f}us @ {SIZES[1] * scale_factor()} tokens "
        f"(ratio {large / small:.2f}x for {SIZES[1] // SIZES[0]}x the data)"
    )
    benchmark.extra_info["per_step_seconds"] = {str(k): v for k, v in times.items()}
    assert large / small < MAX_STEP_COST_RATIO, (
        "walk-step cost must not scale with DB size"
    )


@pytest.mark.benchmark(group="step-cost-slots")
def test_step_cost_slots_vs_reference(benchmark):
    """At the large size the slot scorer beats the ``set_caching(False)``
    reference under the identical protocol, and the two produce
    bit-identical marginals."""
    large = SIZES[1] * scale_factor()

    def experiment():
        out = {}
        for mode in MODES:
            instance = _steady_instance(large, mode)
            instance.kernel.run(STEPS)  # warmup round
            best = float("inf")
            for _ in range(3):
                started = time.perf_counter()
                instance.kernel.run(STEPS)
                best = min(best, (time.perf_counter() - started) / STEPS)
            out[mode] = best
        return out

    times = benchmark.pedantic(experiment, rounds=1, iterations=1)
    speedup = times["uncached"] / times["slots"]
    versus_pre = (PRE_OVERHAUL_US_PER_STEP_40K / 1e6) / times["slots"]
    print(
        f"\nslots {times['slots'] * 1e6:.1f}us/step vs reference "
        f"{times['uncached'] * 1e6:.1f}us/step ({speedup:.2f}x); "
        f"{versus_pre:.2f}x vs pre-overhaul {PRE_OVERHAUL_US_PER_STEP_40K}us"
    )
    benchmark.extra_info["per_step_seconds"] = times
    benchmark.extra_info["speedup_vs_reference"] = speedup
    benchmark.extra_info["pre_overhaul_us_per_step"] = PRE_OVERHAUL_US_PER_STEP_40K
    benchmark.extra_info["speedup_vs_pre_overhaul"] = versus_pre
    assert speedup > MIN_REFERENCE_SPEEDUP, (
        "the slot scorer must beat the reference path at steady state"
    )

    # Bit-identity: same seeds, same marginals, fast or reference path.
    marginals = {}
    for mode in MODES:
        instance = _make_instance(SIZES[0] * scale_factor(), mode, chain_seed=7)
        evaluator = instance.evaluator([QUERY2])
        evaluator.run(20)
        marginals[mode] = evaluator.estimators[0].probabilities()
    assert marginals["slots"] == marginals["uncached"], (
        "slot-scorer inference must be bit-identical to the reference path"
    )
