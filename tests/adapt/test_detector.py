"""DriftDetector: envelope checks, patience, EWMA factors."""

from __future__ import annotations

import numpy as np
import pytest

from repro.adapt import DriftDetector, DriftEvent
from repro.core.band import SpeedBand
from repro.exceptions import ConfigurationError

from .conftest import make_pwl


def test_bare_speed_functions_are_wrapped_in_bands(trio):
    det = DriftDetector(trio, default_width=0.2)
    assert det.p == 3
    for band, sf in zip(det.bands, trio):
        assert isinstance(band, SpeedBand)
        assert band.midline is sf


def test_in_band_observation_is_not_drift(trio):
    det = DriftDetector(trio, patience=2)
    x = 1e4
    assert det.observe(0, x, float(trio[0].speed(x))) is None
    assert det.observations == 1
    assert det.outliers == 0
    assert det.streaks().tolist() == [0, 0, 0]


def test_patience_consecutive_outliers_confirm_drift(trio):
    det = DriftDetector(trio, patience=3, smoothing=1.0)
    x = 1e4
    slow = 0.4 * float(trio[1].speed(x))
    assert det.observe(1, x, slow, time=1.0) is None
    assert det.observe(1, x, slow, time=2.0) is None
    ev = det.observe(1, x, slow, time=3.0)
    assert isinstance(ev, DriftEvent)
    assert ev.machine == 1
    assert ev.time == 3.0
    assert ev.observed == pytest.approx(slow)
    assert ev.predicted == pytest.approx(float(trio[1].speed(x)))
    assert ev.factor == pytest.approx(0.4)
    assert ev.severity == pytest.approx(0.6)
    assert det.drifts == 1
    # The confirming observation resets the streak.
    assert det.streaks()[1] == 0


def test_in_band_observation_resets_the_streak(trio):
    det = DriftDetector(trio, patience=2)
    x = 1e4
    good = float(trio[0].speed(x))
    assert det.observe(0, x, 0.5 * good) is None
    assert det.streaks()[0] == 1
    assert det.observe(0, x, good) is None
    assert det.streaks()[0] == 0
    # Transient excursions shorter than patience never confirm.
    assert det.observe(0, x, 0.5 * good) is None
    assert det.drifts == 0


def test_factor_is_ewma_of_observed_over_predicted(trio):
    det = DriftDetector(trio, smoothing=0.5)
    x = 1e4
    predicted = float(trio[2].speed(x))
    det.observe(2, x, 0.5 * predicted)
    # 0.5 * 1.0 + 0.5 * 0.5
    assert det.factors()[2] == pytest.approx(0.75)
    det.observe(2, x, 0.5 * predicted)
    assert det.factors()[2] == pytest.approx(0.625)
    # Untouched machines stay at 1.0.
    assert det.factors()[0] == 1.0


def test_sizes_beyond_the_band_domain_are_clamped(trio):
    det = DriftDetector(trio, smoothing=1.0)
    sf = trio[0]
    edge = float(sf.speed(sf.max_size))
    assert det.observe(0, 10 * sf.max_size, edge) is None
    assert det.factors()[0] == pytest.approx(1.0)


def test_reset_streaks_keeps_factors(trio):
    det = DriftDetector(trio, patience=5, smoothing=1.0)
    x = 1e4
    det.observe(0, x, 0.4 * float(trio[0].speed(x)))
    assert det.streaks()[0] == 1
    det.reset_streaks()
    assert det.streaks()[0] == 0
    assert det.factors()[0] == pytest.approx(0.4)


def test_reset_clears_factors_too(trio):
    det = DriftDetector(trio, patience=5, smoothing=1.0)
    x = 1e4
    det.observe(0, x, 0.4 * float(trio[0].speed(x)))
    det.observe(1, x, 0.4 * float(trio[1].speed(x)))
    det.reset(0)
    assert det.factors()[0] == 1.0
    assert det.factors()[1] == pytest.approx(0.4)
    det.reset()
    assert np.all(det.factors() == 1.0)
    assert np.all(det.streaks() == 0)


def test_slack_widens_the_envelope():
    sf = make_pwl(100.0)
    x = 1e4
    mid = float(sf.speed(x))
    tight = DriftDetector([sf], slack=0.0, patience=1, default_width=0.1)
    loose = DriftDetector([sf], slack=0.5, patience=1, default_width=0.1)
    probe = 0.8 * mid  # outside width 0.1, inside 0.1 + 0.5 slack
    assert tight.observe(0, x, probe) is not None
    assert loose.observe(0, x, probe) is None


def test_invalid_constructions_raise():
    sf = make_pwl(100.0)
    with pytest.raises(ConfigurationError):
        DriftDetector([])
    with pytest.raises(ConfigurationError):
        DriftDetector([sf], slack=-0.1)
    with pytest.raises(ConfigurationError):
        DriftDetector([sf], patience=0)
    with pytest.raises(ConfigurationError):
        DriftDetector([sf], smoothing=0.0)
    with pytest.raises(ConfigurationError):
        DriftDetector([sf], smoothing=1.5)


def test_invalid_observations_raise(trio):
    det = DriftDetector(trio)
    with pytest.raises(ConfigurationError):
        det.observe(3, 1e4, 100.0)
    with pytest.raises(ConfigurationError):
        det.observe(0, 0.0, 100.0)
    with pytest.raises(ConfigurationError):
        det.observe(0, 1e4, -1.0)
    with pytest.raises(ConfigurationError):
        det.observe(0, 1e4, float("nan"))


def test_confirmed_drift_is_counted_on_the_adapt_metric(trio, fresh_obs):
    fresh_obs.enable()
    det = DriftDetector(trio, patience=1)
    x = 1e4
    det.observe(0, x, 0.1 * float(trio[0].speed(x)))
    reg = fresh_obs.get_registry()
    assert reg.counter("adapt.drifts").value == 1


def test_ingest_bridges_the_telemetry_sink_to_drift_events(trio, fresh_obs):
    from repro.obs import FleetTelemetrySink

    sink = FleetTelemetrySink()
    x = 1e4
    slow = 0.4 * float(trio[1].speed(x))
    # Live serving telemetry: machine 1 drifts, machine 0 stays on model,
    # and a machine this detector doesn't know (7) rides along.
    for t in range(3):
        sink.observe_step("fp", machine=1, size=x, speed=slow, time=float(t))
    sink.observe_step("fp", machine=0, size=x, speed=float(trio[0].speed(x)))
    sink.observe_step("fp", machine=7, size=x, speed=1.0)

    det = DriftDetector(trio, patience=3, smoothing=1.0)
    events = det.ingest(sink.recent("fp"))

    (ev,) = events
    assert ev.machine == 1
    assert ev.time == 2.0
    assert ev.observed == pytest.approx(slow)
    assert det.observations == 4  # the unknown machine was skipped
    assert det.streaks()[0] == 0


def test_ingest_empty_and_repeat_batches(trio):
    from repro.adapt import Observation

    det = DriftDetector(trio, patience=2)
    assert det.ingest([]) == []
    x = 1e4
    slow = 0.3 * float(trio[0].speed(x))
    batch = [Observation.from_step(0, x, slow, time=1.0)]
    assert det.ingest(batch) == []          # streak 1 of 2
    events = det.ingest(batch)              # streak 2 confirms
    assert len(events) == 1 and events[0].machine == 0


def test_ingest_accepts_unified_observations(trio, fresh_obs):
    """sink.recent() Observation records drive the same confirmations."""
    from repro.adapt import Observation
    from repro.obs import FleetTelemetrySink

    sink = FleetTelemetrySink()
    x = 1e4
    slow = 0.4 * float(trio[1].speed(x))
    for t in range(3):
        sink.observe(
            "fp", Observation(machine=1, size=x, speed=slow, timestamp=float(t))
        )

    det = DriftDetector(trio, patience=3, smoothing=1.0)
    events = det.ingest(sink.recent("fp"))
    (ev,) = events
    assert ev.machine == 1 and ev.time == 2.0


def test_ingest_skips_solve_records(trio):
    from repro.adapt import Observation

    det = DriftDetector(trio, patience=1)
    batch = [
        Observation(machine=-1, size=1e4, duration=0.25, source="solve"),
        Observation(machine=0, size=1e4, speed=float(trio[0].speed(1e4))),
    ]
    assert det.ingest(batch) == []
    assert det.observations == 1
