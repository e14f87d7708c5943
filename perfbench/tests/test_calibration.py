"""The rescaling of timings to the nominal machine speed.

Run from the repository root: ``python3 -m pytest -q perfbench/tests``.
"""

import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
sys.path[:0] = [ROOT]

from perfbench import calibration  # noqa: E402
from perfbench.calibration import NOMINAL_S, WINDOW_S, Calibration  # noqa: E402


def _calibration(samples):
    """A Calibration holding the given (start, loop time) samples."""
    measured = Calibration.__new__(Calibration)
    measured.samples = list(samples)
    return measured


def test_scale_uses_the_loop_times_around_each_operation():
    measured = _calibration([(0.0, NOMINAL_S), (0.5, NOMINAL_S),
                             (10.0, 2 * NOMINAL_S), (10.5, 4 * NOMINAL_S),
                             (20.0, NOMINAL_S)])
    # An operation from 0.2 s to 0.4 s sees the first two loop times, at
    # the nominal speed; one from 10.1 s to 10.3 s sees the two slow ones,
    # a machine at a third of the nominal speed on average.
    assert measured.scale([(0.4, 0.2), (10.3, 0.2)]) == pytest.approx(
        [0.2, 0.2 / 3])
    # Loop times further than WINDOW_S from the operation do not count:
    # from 10.5 + WINDOW_S - 0.3 s on, only the slowest one does.
    start = 10.5 + WINDOW_S - 0.3
    assert measured.scale([(start + 0.2, 0.2)]) == pytest.approx([0.05])
    summary = measured.summary()
    assert summary["loop_samples"] == 5
    assert summary["scale_factor"] == pytest.approx(1 / 1.8, abs=1e-4)


def test_scale_takes_the_nearest_loop_time_when_none_is_close():
    measured = _calibration([(0.0, NOMINAL_S), (100.0, 2 * NOMINAL_S)])
    assert measured.scale([(50.0, 1.0)]) == pytest.approx([0.5])
    assert measured.scale([(200.0, 1.0)]) == pytest.approx([0.5])


def test_tick_times_the_loop_only_when_due(monkeypatch):
    monkeypatch.setattr(calibration, "reference_loop_s", lambda: NOMINAL_S)
    measured = Calibration()
    measured.tick()
    assert len(measured.samples) == 1
    monkeypatch.setattr(calibration, "INTERVAL_S", 0.0)
    measured.tick()
    assert len(measured.samples) == 2


def test_reference_loop_is_a_plausible_time():
    assert 0.0 < calibration.reference_loop_s() < 1.0
