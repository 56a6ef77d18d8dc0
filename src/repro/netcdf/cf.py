"""CF-convention helpers: the 'noleap' calendar and time encoding.

Climate models overwhelmingly run on a 365-day ('noleap') calendar; the
CMCC-CM3 output the paper's workflow consumes is daily, grouped per year.
This module provides the minimal CF-time machinery the workflow needs:
noleap date ordinals and per-day time axes in "<unit> since <epoch>"
form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

#: Days per month in the noleap calendar.
NOLEAP_MONTH_LENGTHS = (31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31)
DAYS_PER_YEAR = 365


@dataclass(frozen=True)
class NoLeapCalendar:
    """Date arithmetic on the fixed 365-day calendar.

    Dates are ``(year, month, day)`` tuples with 1-based month/day.
    """

    @staticmethod
    def is_valid(year: int, month: int, day: int) -> bool:
        return (
            1 <= month <= 12
            and 1 <= day <= NOLEAP_MONTH_LENGTHS[month - 1]
        )

    @staticmethod
    def day_of_year(month: int, day: int) -> int:
        """1-based ordinal day within the year."""
        if not NoLeapCalendar.is_valid(1, month, day):
            raise ValueError(f"invalid noleap date month={month} day={day}")
        return sum(NOLEAP_MONTH_LENGTHS[: month - 1]) + day

    @staticmethod
    def to_ordinal(year: int, month: int, day: int) -> int:
        """Days elapsed since year 0, month 1, day 1 (0-based)."""
        if not NoLeapCalendar.is_valid(year, month, day):
            raise ValueError(f"invalid noleap date {year}-{month}-{day}")
        return year * DAYS_PER_YEAR + NoLeapCalendar.day_of_year(month, day) - 1

def _parse_units(units: str) -> Tuple[float, int]:
    """Parse ``"<unit> since YYYY-MM-DD"``; returns (days-per-unit, epoch ordinal)."""
    parts = units.split()
    if len(parts) < 3 or parts[1] != "since":
        raise ValueError(f"unsupported time units {units!r}")
    unit = parts[0].rstrip("s")
    scale = {"day": 1.0, "hour": 1.0 / 24.0, "minute": 1.0 / 1440.0}.get(unit)
    if scale is None:
        raise ValueError(f"unsupported time unit {parts[0]!r}")
    date = parts[2].split("T")[0]
    year_s, month_s, day_s = date.split("-")
    epoch = NoLeapCalendar.to_ordinal(int(year_s), int(month_s), int(day_s))
    return scale, epoch


def time_axis_for_days(
    year: int,
    start_doy: int,
    n_days: int,
    steps_per_day: int,
    units: str = "days since 2015-01-01",
) -> np.ndarray:
    """Build a sub-daily CF time axis covering *n_days* starting at *start_doy*.

    Steps are placed at the start of each uniform sub-daily interval (e.g.
    four 6-hourly steps per day at 0, 0.25, 0.5, 0.75 days).
    """
    if steps_per_day < 1:
        raise ValueError("steps_per_day must be >= 1")
    scale, epoch = _parse_units(units)
    base = NoLeapCalendar.to_ordinal(year, 1, 1) + (start_doy - 1) - epoch
    offsets = np.arange(n_days * steps_per_day, dtype=np.float64) / steps_per_day
    return (base + offsets) / scale
