"""The percentile rule: no percentile without ten samples beyond it."""

import pytest

from sosbench.measure import MIN_BEYOND, median, percentile


def test_sweep_sized_runs_report_no_p90():
    # A sweep run times two or three sweeps: nothing lies beyond p90.
    assert percentile([11.2, 11.9], 0.90) is None
    assert percentile([11.2, 11.9, 12.4], 0.90) is None


def test_p90_needs_ten_samples_beyond_it():
    assert percentile(list(range(1, 101)), 0.90) == 90
    assert percentile(list(range(1, 100)), 0.90) is None
    assert percentile(list(range(1, 201)), 0.95) == 190
    assert percentile(list(range(1, 200)), 0.95) is None


@pytest.mark.parametrize("samples", [[], [1.0]])
def test_tiny_inputs(samples):
    assert percentile(samples, 0.5) is None


def test_ties_do_not_count_as_beyond():
    samples = [1.0] * 95 + [2.0] * 9
    assert percentile(samples, 0.90) is None
    assert percentile(samples + [3.0], 0.90) == 1.0
    assert sum(1 for s in samples + [3.0] if s > 1.0) == MIN_BEYOND


def test_median_of_nothing_is_zero():
    assert median([]) == 0.0
    assert median([3.0, 1.0, 2.0]) == 2.0


def test_speed_factor_scales_to_the_reference_probe():
    from sosbench.measure import REFERENCE_PROBE_S, speed_factor

    assert speed_factor(REFERENCE_PROBE_S) == 1.0
    # A machine running the probe twice as slow halves the scaled timing.
    assert speed_factor(2 * REFERENCE_PROBE_S) == 0.5


def test_speed_probe_samples_while_open():
    import time

    from sosbench.measure import REFERENCE_PROBE_S, SpeedProbe

    assert SpeedProbe().median_s() == REFERENCE_PROBE_S  # never started
    with SpeedProbe(period_s=0.001) as probe:
        time.sleep(0.2)
    assert probe.samples and probe.median_s() > 0.0
    count = len(probe.samples)
    time.sleep(0.05)
    assert len(probe.samples) == count  # stopped on exit
