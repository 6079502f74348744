import stats


def test_p90_needs_ten_samples_above_it():
    assert stats.min_samples_for(0.9) == 100
    assert stats.nearest_rank(list(range(99)), 0.9) is None
    values = list(range(100))
    p90 = stats.nearest_rank(values, 0.9)
    assert p90 == 89
    assert sum(1 for v in values if v > p90) == 10


def test_every_reported_p90_has_ten_samples_above():
    for n in range(1, 400):
        values = [float(v) for v in range(n)]
        p90 = stats.nearest_rank(values, 0.9)
        if p90 is not None:
            assert sum(1 for v in values if v > p90) >= stats.MIN_ABOVE
        else:
            assert n < 100


def test_median_is_always_reported():
    assert stats.population([5.0]) == {"n": 1, "p50": 5.0, "p90": None}
    assert stats.population([]) == {"n": 0, "p50": None, "p90": None}
    assert stats.population([3.0, 1.0, 2.0])["p50"] == 2.0
