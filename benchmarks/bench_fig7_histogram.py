"""Figure 7 (Appendix 9.1): distribution of the Query 2 answer.

The aggregate answer — the number of B-PER tokens — concentrates
sharply around its posterior mean and looks approximately normal; the
paper credits this concentration of measure for MCMC's rapid
convergence on aggregate queries.  This bench reproduces the histogram
and checks peakedness quantitatively.
"""

from __future__ import annotations

import math

import pytest

from repro.bench import (
    QUERY2,
    make_task,
    print_header,
    print_table,
    scale_factor,
)
from repro.core import ShardedEvaluator

NUM_TOKENS = 5_000
STEPS_PER_SAMPLE = 200
CHAINS = 2
SAMPLES_PER_CHAIN = 300
# The histogram is a *stationary* posterior: discard the transient away
# from the all-'O' initial world before counting.
BURN_IN = 300


@pytest.mark.benchmark(group="fig7")
def test_fig7_query2_histogram(benchmark):
    def experiment():
        task = make_task(
            NUM_TOKENS * scale_factor(), steps_per_sample=STEPS_PER_SAMPLE
        )
        with ShardedEvaluator.over_copies(
            task.chain_factory(base_seed=700), [QUERY2], CHAINS
        ) as parallel:
            result = parallel.run(SAMPLES_PER_CHAIN, burn_in=BURN_IN)
        return result.marginals.as_histogram(position=0)

    histogram = benchmark.pedantic(experiment, rounds=1, iterations=1)

    mean = sum(value * mass for value, mass in histogram.items())
    variance = sum((value - mean) ** 2 * mass for value, mass in histogram.items())
    std = math.sqrt(variance)
    two_sigma_mass = sum(
        mass for value, mass in histogram.items() if abs(value - mean) <= 2 * std
    )

    print_header("Figure 7: distribution of Query 2 (count of B-PER tokens)")
    # Bin into ~15 buckets for display.
    values = sorted(histogram)
    low, high = values[0], values[-1]
    num_bins = min(15, max(1, len(values)))
    width = max(1, (high - low + 1) // num_bins)
    bins: dict = {}
    for value, mass in histogram.items():
        bin_low = low + ((value - low) // width) * width
        bins[bin_low] = bins.get(bin_low, 0.0) + mass
    print_table(
        ["count range", "probability"],
        [
            (f"[{b}, {b + width})", f"{bins[b]:.4f}")
            for b in sorted(bins)
        ],
    )
    print(f"mean={mean:.1f} std={std:.2f} mass within ±2σ: {two_sigma_mass:.3f}")
    print(
        "Paper: mass clustered around a small subset of the answer set, "
        "approximately normally distributed."
    )
    benchmark.extra_info["histogram"] = {str(k): v for k, v in histogram.items()}
    benchmark.extra_info["mean"] = mean
    benchmark.extra_info["std"] = std

    # Shape assertions: concentration of measure around the mean.
    assert two_sigma_mass > 0.9, "answer mass should concentrate within ±2σ"
    assert std < mean, "distribution should be sharply peaked relative to scale"
