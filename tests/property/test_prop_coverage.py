"""``segment_coverage`` against its dense reference and an independent oracle.

``segment_coverage`` first keeps, per trial, only the sensors inside the
track's bounding box grown by ``Rs``, then runs the point-to-segment test
on those.  The coverage tensor must equal the dense every-sensor,
every-period pass (``reference_segment_coverage``) bitwise, and must agree
with a pure-Python ``math.hypot`` distance away from the ``Rs`` boundary.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.deployment.field import SensorField
from repro.simulation.sensing import segment_coverage
from repro.simulation.targets import RandomWalkTarget, StraightLineTarget
from tests.coverage_oracles import (
    hypot_segment_distances,
    reference_segment_coverage,
)

FIELD = SensorField(1000.0, 800.0)


def make_case(seed, batch, num_sensors, periods, step, target, stalls, seam, edge):
    """Seeded sensors and waypoints for one coverage case.

    ``step`` is the per-period track length (up to several field widths,
    so a track's box can be wider than half the field); ``stalls`` zeroes
    some segments; ``seam`` starts tracks on a field edge heading across
    it; ``edge`` moves some sensors to exactly ``Rs``-like offsets from a
    waypoint, wrapped onto the far side of the field.
    """
    rng = np.random.default_rng(seed)
    sensors = rng.uniform((0.0, 0.0), (FIELD.width, FIELD.height), (batch, num_sensors, 2))
    starts = rng.uniform((0.0, 0.0), (FIELD.width, FIELD.height), (batch, 2))
    if seam:
        starts[:, 0] = FIELD.width - rng.uniform(0.0, 5.0, batch)
    if step == 0.0:
        waypoints = np.repeat(starts[:, None, :], periods + 1, axis=1)
    else:
        model = RandomWalkTarget(step) if target == "walk" else StraightLineTarget(step)
        waypoints = model.sample_waypoints(starts, periods, 1.0, rng)
    for j in np.flatnonzero(rng.random(periods) < stalls):
        waypoints[:, j + 1 :] -= (waypoints[:, j + 1] - waypoints[:, j])[:, None, :]
    if edge:
        picks = rng.integers(0, periods + 1, (batch, num_sensors))
        anchor = np.take_along_axis(waypoints, picks[..., None], axis=1)
        moved = rng.random((batch, num_sensors)) < 0.5
        offset = rng.choice([-60.0, -30.0, 0.0, 30.0, 60.0], (batch, num_sensors, 2))
        sensors = np.where(
            moved[..., None],
            np.mod(anchor + offset, (FIELD.width, FIELD.height)),
            sensors,
        )
    return sensors, waypoints


case_strategy = dict(
    seed=st.integers(0, 2**32 - 1),
    batch=st.sampled_from([1, 1, 2, 5]),
    num_sensors=st.sampled_from([1, 1, 3, 40]),
    periods=st.integers(1, 8),
    step=st.one_of(st.just(0.0), st.floats(1.0, 80.0), st.floats(80.0, 1500.0)),
    target=st.sampled_from(["line", "walk"]),
    stalls=st.sampled_from([0.0, 0.3]),
    seam=st.booleans(),
    edge=st.booleans(),
)


def fit_inside(waypoints, rng):
    """Translate each track to a random spot inside the field, where it fits.

    The simulator's ``interior`` mode samples only such tracks; a track
    wider than the field stays at least partly outside.
    """
    low, high = waypoints.min(axis=1), waypoints.max(axis=1)
    room = np.maximum((FIELD.width, FIELD.height) - (high - low), 0.0)
    return waypoints + (rng.uniform(0.0, 1.0, low.shape) * room - low)[:, None, :]


@given(
    mode=st.sampled_from(["torus", "clip", "interior"]),
    sensing_range=st.sampled_from([0.0, 30.0, 60.0, 150.0, 450.0]),
    per_sensor=st.booleans(),
    **case_strategy,
)
@settings(max_examples=400, deadline=None)
def test_coverage_equals_dense_reference_bitwise(mode, sensing_range, per_sensor, **case):
    sensors, waypoints = make_case(**case)
    rng = np.random.default_rng(case["seed"] + 1)
    if mode == "interior":
        waypoints = fit_inside(waypoints, rng)
    ranges = sensing_range
    if per_sensor:
        ranges = sensing_range * rng.choice([0.0, 0.5, 1.0], case["num_sensors"])
    wrap = mode == "torus"
    field = FIELD if wrap else None
    expected = reference_segment_coverage(sensors, waypoints, ranges, field, wrap)
    actual = segment_coverage(sensors, waypoints, ranges, field=field, wrap=wrap)
    assert actual.dtype == bool and actual.shape == expected.shape
    assert np.array_equal(actual, expected)


@pytest.mark.parametrize("wrap", [False, True])
@pytest.mark.parametrize("step", [40.0, 900.0])
def test_long_and_short_tracks_equal_dense_reference(wrap, step):
    """Fixed seeded batches: boxes well inside half the field, and wider."""
    sensors, waypoints = make_case(
        seed=7, batch=16, num_sensors=200, periods=10, step=step,
        target="walk", stalls=0.2, seam=True, edge=True,
    )
    field = FIELD if wrap else None
    expected = reference_segment_coverage(sensors, waypoints, 90.0, field, wrap)
    actual = segment_coverage(sensors, waypoints, 90.0, field=field, wrap=wrap)
    assert expected.any() and not expected.all()
    assert np.array_equal(actual, expected)


def test_sensor_rounded_into_range_past_the_box_is_kept():
    """The candidate margin covers rounding at the box edge.

    The sensor sits ``Rs`` beyond the segment's end, on the segment's
    line; the dense test rounds it into range, while a margin-free box
    test rounds it out.
    """
    waypoints = np.array([[[-139.77958214560203, -408.10796994453085],
                           [-434.01673454761806, -408.10796994453085]]])
    sensors = np.array([[[453.8689447338516, -408.10796994453085]]])
    sensing_range = 593.6485268794536
    assert reference_segment_coverage(sensors, waypoints, sensing_range).all()
    assert segment_coverage(sensors, waypoints, sensing_range).all()


@pytest.mark.parametrize("wrap", [False, True])
def test_non_finite_waypoint_leaves_other_periods_exact(wrap):
    """A NaN waypoint voids its own segments' coverage, not the trial's."""
    sensors, waypoints = make_case(
        seed=3, batch=4, num_sensors=60, periods=6, step=30.0,
        target="line", stalls=0.0, seam=False, edge=True,
    )
    waypoints[1, -1] = np.nan
    field = FIELD if wrap else None
    expected = reference_segment_coverage(sensors, waypoints, 90.0, field, wrap)
    actual = segment_coverage(sensors, waypoints, 90.0, field=field, wrap=wrap)
    assert expected[1, :, :-1].any() and not expected[1, :, -1].any()
    assert np.array_equal(actual, expected)


@given(
    wrap=st.booleans(),
    sensing_range=st.floats(5.0, 200.0),
    seed=st.integers(0, 2**32 - 1),
    periods=st.integers(1, 5),
    step=st.one_of(st.just(0.0), st.floats(1.0, 150.0)),
    target=st.sampled_from(["line", "walk"]),
    seam=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_coverage_agrees_with_hypot_oracle(wrap, sensing_range, seed, periods, step, target, seam):
    """Away from the ``Rs`` boundary, coverage is exactly ``distance <= Rs``.

    Tracks here stay shorter than half the field, where the minimum over
    nine images is the torus distance.
    """
    sensors, waypoints = make_case(
        seed=seed, batch=2, num_sensors=25, periods=periods, step=step,
        target=target, stalls=0.3, seam=seam, edge=True,
    )
    field = FIELD if wrap else None
    covered = segment_coverage(sensors, waypoints, sensing_range, field=field, wrap=wrap)
    distances = hypot_segment_distances(sensors, waypoints, field, wrap)
    clear = np.abs(distances - sensing_range) >= 1e-9 * sensing_range
    assert np.array_equal(covered[clear], (distances <= sensing_range)[clear])
