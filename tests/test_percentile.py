"""The one nearest-rank percentile shared by the runtime histograms,
the SLO evaluator and the load generator."""

import pytest

from repro.runtime.metrics import Histogram, percentile


def _old_formula(samples, q):
    """The formula each former copy used, verbatim."""
    ordered = sorted(samples)
    index = min(
        len(ordered) - 1, int(round(q / 100.0 * (len(ordered) - 1)))
    )
    return ordered[index]


@pytest.mark.parametrize("samples,q,expected", [
    ([7.0], 0, 7.0),                      # n=1
    ([7.0], 50, 7.0),
    ([7.0], 100, 7.0),
    ([3.0, 1.0], 50, 1.0),                # index round(0.5) = 0
    ([4.0, 2.0, 3.0, 1.0], 50, 3.0),      # index round(1.5) = 2
    ([5.0, 1.0, 9.0, 3.0, 7.0], 0, 1.0),
    ([5.0, 1.0, 9.0, 3.0, 7.0], 99, 9.0),
    ([5.0, 1.0, 9.0, 3.0, 7.0], 100, 9.0),
    (list(range(1, 101)), 99, 99),        # index round(98.01) = 98
    ([2.0, 2.0, 1.0, 2.0], 0, 1.0),       # ties
    ([2.0, 2.0, 1.0, 2.0], 50, 2.0),
])
def test_percentile_pins_the_old_formula(samples, q, expected):
    assert percentile(samples, q) == expected
    assert percentile(samples, q) == _old_formula(samples, q)


def test_percentile_of_nothing_is_zero():
    assert percentile([], 50) == 0.0
    assert percentile((), 99) == 0.0


def test_percentile_rejects_q_out_of_range():
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_histogram_uses_the_shared_percentile():
    hist = Histogram("h")
    for value in (4.0, 2.0, 3.0, 1.0):
        hist.record(value)
    assert hist.percentile(50) == percentile([4.0, 2.0, 3.0, 1.0], 50)
