"""Target trajectory models.

Each model produces *waypoints*: the target's position at every sensing
period boundary.  A trial over ``M`` periods needs ``M + 1`` waypoints; the
path during period ``j`` (1-based) is the straight segment from waypoint
``j - 1`` to waypoint ``j`` (the paper's constant-speed-within-a-period
abstraction, Fig. 1).

* :class:`StraightLineTarget` — the paper's primary model: straight line,
  constant speed, random heading.
* :class:`RandomWalkTarget` — Section 4's "Random Walk": every period the
  heading changes by a uniform angle within ``[-max_turn, +max_turn]``
  (the paper uses pi/4).
* :class:`VaryingSpeedTarget` — per-period speed drawn uniformly from a
  range (optionally combined with random-walk turning): the "target
  travels in varying speeds" case the paper's Section 6 defers to future
  work, supported here in simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import SimulationError

__all__ = [
    "StraightLineTarget",
    "RandomWalkTarget",
    "VaryingSpeedTarget",
]


def _check_batch(starts: np.ndarray, num_periods: int, period_length: float) -> np.ndarray:
    starts = np.asarray(starts, dtype=float)
    if starts.ndim != 2 or starts.shape[1] != 2:
        raise SimulationError(f"starts must have shape (B, 2), got {starts.shape}")
    if num_periods < 1:
        raise SimulationError(f"num_periods must be >= 1, got {num_periods}")
    if period_length <= 0:
        raise SimulationError(f"period_length must be positive, got {period_length}")
    return starts


@dataclass(frozen=True)
class StraightLineTarget:
    """Straight-line constant-speed motion with (optionally) random heading.

    Attributes:
        speed: target speed in m/s.
        heading: fixed heading in radians, or ``None`` for a uniformly
            random heading per trial (the paper's setup).
    """

    speed: float
    heading: Optional[float] = None

    def __post_init__(self) -> None:
        if self.speed <= 0:
            raise SimulationError(f"speed must be positive, got {self.speed}")

    def sample_waypoints(
        self,
        starts: np.ndarray,
        num_periods: int,
        period_length: float,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Waypoints for a batch of trials.

        Args:
            starts: ``(B, 2)`` start positions.
            num_periods: ``M``.
            period_length: ``t`` in seconds.
            rng: numpy generator.

        Returns:
            ``(B, M + 1, 2)`` waypoint array.
        """
        starts = _check_batch(starts, num_periods, period_length)
        batch = starts.shape[0]
        if self.heading is None:
            headings = rng.uniform(0.0, 2.0 * np.pi, size=batch)
        else:
            headings = np.full(batch, self.heading, dtype=float)
        step = self.speed * period_length
        direction = np.stack([np.cos(headings), np.sin(headings)], axis=1)
        offsets = np.arange(num_periods + 1)[None, :, None] * step
        return starts[:, None, :] + offsets * direction[:, None, :]


@dataclass(frozen=True)
class RandomWalkTarget:
    """Per-period random heading change within ``[-max_turn, +max_turn]``.

    The paper's Fig. 9(c) target: "the target randomly chooses a new
    direction within [-pi/4, pi/4] of its current direction, every 1
    minute".

    Attributes:
        speed: target speed in m/s.
        max_turn: maximum heading change per period, radians.
        initial_heading: fixed initial heading, or ``None`` for uniform.
    """

    speed: float
    max_turn: float = np.pi / 4.0
    initial_heading: Optional[float] = None

    def __post_init__(self) -> None:
        if self.speed <= 0:
            raise SimulationError(f"speed must be positive, got {self.speed}")
        if self.max_turn < 0:
            raise SimulationError(f"max_turn must be non-negative, got {self.max_turn}")

    def sample_waypoints(
        self,
        starts: np.ndarray,
        num_periods: int,
        period_length: float,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Waypoints for a batch of trials; see :class:`StraightLineTarget`."""
        starts = _check_batch(starts, num_periods, period_length)
        batch = starts.shape[0]
        if self.initial_heading is None:
            heading0 = rng.uniform(0.0, 2.0 * np.pi, size=batch)
        else:
            heading0 = np.full(batch, self.initial_heading, dtype=float)
        turns = rng.uniform(
            -self.max_turn, self.max_turn, size=(batch, num_periods)
        )
        # Heading during period j is heading0 + sum of the first j-1 turns:
        # the first period keeps the initial heading, matching the paper's
        # "chooses a new direction every minute" after it starts moving.
        headings = heading0[:, None] + np.concatenate(
            [np.zeros((batch, 1)), np.cumsum(turns[:, :-1], axis=1)], axis=1
        )
        step = self.speed * period_length
        deltas = step * np.stack([np.cos(headings), np.sin(headings)], axis=2)
        waypoints = np.empty((batch, num_periods + 1, 2))
        waypoints[:, 0] = starts
        waypoints[:, 1:] = starts[:, None, :] + np.cumsum(deltas, axis=1)
        return waypoints


@dataclass(frozen=True)
class VaryingSpeedTarget:
    """Per-period speed drawn uniformly from ``[min_speed, max_speed]``.

    Addresses the paper's Section 6 future-work case ("the target travels
    in varying speeds") on the simulation side; the analytical model at
    the *mean* speed serves as the approximation to compare against
    (EXT-SPEED in DESIGN.md).

    Attributes:
        min_speed: lower speed bound (positive).
        max_speed: upper speed bound (``>= min_speed``).
        max_turn: maximum heading change per period (0 keeps a straight
            line, the pure varying-speed case).
        initial_heading: fixed initial heading, or ``None`` for uniform.
    """

    min_speed: float
    max_speed: float
    max_turn: float = 0.0
    initial_heading: Optional[float] = None

    def __post_init__(self) -> None:
        if self.min_speed <= 0:
            raise SimulationError(
                f"min_speed must be positive, got {self.min_speed}"
            )
        if self.max_speed < self.min_speed:
            raise SimulationError(
                f"max_speed {self.max_speed} below min_speed {self.min_speed}"
            )
        if self.max_turn < 0:
            raise SimulationError(f"max_turn must be non-negative, got {self.max_turn}")

    @property
    def mean_speed(self) -> float:
        """Midpoint of the speed range — what the analysis should assume."""
        return 0.5 * (self.min_speed + self.max_speed)

    def sample_waypoints(
        self,
        starts: np.ndarray,
        num_periods: int,
        period_length: float,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Waypoints for a batch of trials; see :class:`StraightLineTarget`."""
        starts = _check_batch(starts, num_periods, period_length)
        batch = starts.shape[0]
        if self.initial_heading is None:
            heading0 = rng.uniform(0.0, 2.0 * np.pi, size=batch)
        else:
            heading0 = np.full(batch, self.initial_heading, dtype=float)
        if self.max_turn > 0.0:
            turns = rng.uniform(
                -self.max_turn, self.max_turn, size=(batch, num_periods)
            )
            headings = heading0[:, None] + np.concatenate(
                [np.zeros((batch, 1)), np.cumsum(turns[:, :-1], axis=1)], axis=1
            )
        else:
            headings = np.repeat(heading0[:, None], num_periods, axis=1)
        speeds = rng.uniform(
            self.min_speed, self.max_speed, size=(batch, num_periods)
        )
        deltas = (speeds * period_length)[:, :, None] * np.stack(
            [np.cos(headings), np.sin(headings)], axis=2
        )
        waypoints = np.empty((batch, num_periods + 1, 2))
        waypoints[:, 0] = starts
        waypoints[:, 1:] = starts[:, None, :] + np.cumsum(deltas, axis=1)
        return waypoints
