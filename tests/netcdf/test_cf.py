"""Tests for the noleap calendar and CF time axes."""

import numpy as np
import pytest

from repro.netcdf import NoLeapCalendar, time_axis_for_days
from repro.netcdf.cf import DAYS_PER_YEAR, NOLEAP_MONTH_LENGTHS


class TestNoLeapCalendar:
    def test_month_lengths_sum(self):
        assert sum(NOLEAP_MONTH_LENGTHS) == DAYS_PER_YEAR == 365

    def test_day_of_year_endpoints(self):
        assert NoLeapCalendar.day_of_year(1, 1) == 1
        assert NoLeapCalendar.day_of_year(12, 31) == 365
        assert NoLeapCalendar.day_of_year(3, 1) == 60  # no Feb 29

    def test_feb_29_invalid(self):
        assert not NoLeapCalendar.is_valid(2020, 2, 29)
        with pytest.raises(ValueError):
            NoLeapCalendar.day_of_year(2, 29)

    def test_ordinal_year_boundary(self):
        dec31 = NoLeapCalendar.to_ordinal(2015, 12, 31)
        jan1 = NoLeapCalendar.to_ordinal(2016, 1, 1)
        assert jan1 == dec31 + 1


class TestTimeEncoding:
    def test_bad_units_rejected(self):
        with pytest.raises(ValueError):
            time_axis_for_days(2015, 1, 1, 1, "fortnights since 2015-01-01")
        with pytest.raises(ValueError):
            time_axis_for_days(2015, 1, 1, 1, "days after 2015-01-01")


class TestTimeAxis:
    def test_six_hourly_axis(self):
        axis = time_axis_for_days(2015, 1, 2, 4)
        np.testing.assert_allclose(axis, [0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75])

    def test_axis_offsets_by_year_and_doy(self):
        axis = time_axis_for_days(2016, 10, 1, 1)
        # 2016-01-01 is day 365; day-of-year 10 adds 9 more.
        np.testing.assert_allclose(axis, [365.0 + 9.0])

    def test_invalid_steps(self):
        with pytest.raises(ValueError):
            time_axis_for_days(2015, 1, 1, 0)

    def test_decode_axis_days(self):
        axis = time_axis_for_days(2015, 60, 2, 4)
        epoch = NoLeapCalendar.to_ordinal(2015, 1, 1)
        assert axis[0] == NoLeapCalendar.to_ordinal(2015, 3, 1) - epoch
        assert axis[4] == NoLeapCalendar.to_ordinal(2015, 3, 2) - epoch
