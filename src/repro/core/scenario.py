"""The scenario: every parameter of the paper's model in one value object.

Symbols follow Section 2 of the paper:

========================  =====================================================
``field`` (area ``S``)    surveillance field, sensors uniform i.i.d. inside
``num_sensors`` (``N``)   deployed sensor count
``sensing_range`` (``Rs``) radius within which a target is detectable
``target_speed`` (``V``)  target speed, straight-line constant-speed motion
``sensing_period`` (``t``) seconds per sensing-algorithm execution
``detect_prob`` (``Pd``)  per-period detection probability when in range
``window`` (``M``)        sensing periods considered by group detection
``threshold`` (``k``)     reports required within the window
========================  =====================================================

Derived quantities (cached properties):

* ``step_length = V * t`` — distance travelled per period;
* ``ms = ceil(2 * Rs / step_length)`` — periods to traverse one sensing
  diameter; a sensor can cover the target for at most ``ms + 1`` periods;
* ``dr_area = 2 * Rs * V * t + pi * Rs**2`` — detectable region per period;
* ``aregion_area = 2 * M * Rs * V * t + pi * Rs**2`` — the ARegion;
* ``p_indi = Pd * dr_area / S`` — per-sensor per-period detection
  probability (Section 3.1).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from repro.deployment.field import SensorField
from repro.errors import ScenarioError, require_count

__all__ = ["Scenario"]

_COUNT_FIELDS = ("num_sensors", "window", "threshold")
# The engine stores counts in int64 arrays.
_COUNT_BOUND = 2**63
_REAL_FIELDS = ("sensing_range", "target_speed", "sensing_period", "detect_prob")


def _real(name: str, value) -> float:
    """``value`` as a finite float; bools, strings, NaN and inf fail."""
    try:
        if isinstance(value, bool) or not math.isfinite(value):
            raise TypeError
    except (TypeError, OverflowError):
        raise ScenarioError(
            f"{name} must be a finite number, got {value!r}"
        ) from None
    return float(value)


@dataclass(frozen=True)
class Scenario:
    """Immutable bundle of all model parameters.

    Raises:
        ScenarioError: if any parameter is outside its valid range, or the
            per-period detectable region does not fit in the field (the
            sparse-deployment analysis would be meaningless).
    """

    field: SensorField
    num_sensors: int
    sensing_range: float
    target_speed: float
    sensing_period: float
    detect_prob: float
    window: int
    threshold: int

    def __post_init__(self) -> None:
        for name in _COUNT_FIELDS:
            value = getattr(self, name)
            require_count(name, value, ScenarioError)
            if not -_COUNT_BOUND <= value < _COUNT_BOUND:
                raise ScenarioError(
                    f"{name} must fit in a signed 64-bit integer, got {value}"
                )
        for name in _REAL_FIELDS:
            _real(name, getattr(self, name))
        if self.num_sensors < 1:
            raise ScenarioError(f"num_sensors must be >= 1, got {self.num_sensors}")
        if self.sensing_range <= 0:
            raise ScenarioError(
                f"sensing_range must be positive, got {self.sensing_range}"
            )
        if self.target_speed <= 0:
            raise ScenarioError(
                f"target_speed must be positive, got {self.target_speed} "
                "(the model assumes a moving target)"
            )
        if self.sensing_period <= 0:
            raise ScenarioError(
                f"sensing_period must be positive, got {self.sensing_period}"
            )
        if not 0.0 < self.detect_prob <= 1.0:
            raise ScenarioError(
                f"detect_prob must be in (0, 1], got {self.detect_prob}"
            )
        if self.window < 1:
            raise ScenarioError(f"window must be >= 1, got {self.window}")
        if self.threshold < 1:
            raise ScenarioError(f"threshold must be >= 1, got {self.threshold}")
        if self.aregion_area >= self.field.area:
            raise ScenarioError(
                "the aggregate detectable region does not fit in the field "
                f"({self.aregion_area:.3g} m^2 vs {self.field.area:.3g} m^2); "
                "the sparse-network analysis does not apply"
            )

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------

    @property
    def field_area(self) -> float:
        """``S`` — field area in square meters."""
        return self.field.area

    @property
    def step_length(self) -> float:
        """``V * t`` — target travel distance per sensing period."""
        return self.target_speed * self.sensing_period

    @property
    def ms(self) -> int:
        """``ceil(2 * Rs / (V * t))`` — periods to traverse a sensing diameter."""
        return math.ceil(2.0 * self.sensing_range / self.step_length)

    @property
    def max_coverage_periods(self) -> int:
        """``ms + 1`` — longest possible coverage of the target by one sensor."""
        return self.ms + 1

    @property
    def dr_area(self) -> float:
        """Per-period detectable region area ``2*Rs*V*t + pi*Rs^2`` (Fig. 1)."""
        return (
            2.0 * self.sensing_range * self.step_length
            + math.pi * self.sensing_range**2
        )

    @property
    def nedr_body_area(self) -> float:
        """NEDR area in Body/Tail periods: ``2 * Rs * V * t`` (Fig. 2)."""
        return 2.0 * self.sensing_range * self.step_length

    @property
    def aregion_area(self) -> float:
        """ARegion area ``2*M*Rs*V*t + pi*Rs^2`` (Section 3.3)."""
        return (
            2.0 * self.window * self.sensing_range * self.step_length
            + math.pi * self.sensing_range**2
        )

    @property
    def p_indi(self) -> float:
        """Per-sensor per-period detection probability (Section 3.1)."""
        return self.detect_prob * self.dr_area / self.field_area

    @property
    def has_body_stage(self) -> bool:
        """Whether ``M > ms``, the general case the paper analyses."""
        return self.window > self.ms

    @property
    def body_steps(self) -> int:
        """Number of Body-stage periods, ``M - ms - 1`` (zero-floored)."""
        return max(0, self.window - self.ms - 1)

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------

    def replace(self, **changes) -> "Scenario":
        """A copy of this scenario with the given fields replaced."""
        return dataclasses.replace(self, **changes)

    def to_dict(self) -> dict:
        """Plain-dict form (JSON-serialisable) for config files and records."""
        return {
            "field_width": self.field.width,
            "field_height": self.field.height,
            "num_sensors": self.num_sensors,
            "sensing_range": self.sensing_range,
            "target_speed": self.target_speed,
            "sensing_period": self.sensing_period,
            "detect_prob": self.detect_prob,
            "window": self.window,
            "threshold": self.threshold,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        """Inverse of :meth:`to_dict`.

        Counts must be integers and the other fields finite numbers;
        nothing is rounded or parsed from strings.

        Raises:
            ScenarioError: on missing keys or invalid values.
        """
        try:
            field = SensorField(
                _real("field_width", data["field_width"]),
                _real("field_height", data["field_height"]),
            )
            return cls(
                field=field,
                **{name: data[name] for name in _COUNT_FIELDS},
                **{name: _real(name, data[name]) for name in _REAL_FIELDS},
            )
        except KeyError as exc:
            raise ScenarioError(f"missing scenario field {exc.args[0]!r}") from exc

    def describe(self) -> str:
        """Human-readable one-paragraph summary."""
        return (
            f"{self.num_sensors} sensors in a "
            f"{self.field.width:.0f}x{self.field.height:.0f} m field, "
            f"Rs={self.sensing_range:.0f} m, V={self.target_speed:g} m/s, "
            f"t={self.sensing_period:g} s, Pd={self.detect_prob:g}, "
            f"rule: >= {self.threshold} reports within {self.window} periods "
            f"(ms={self.ms})"
        )
