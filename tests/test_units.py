"""Unit conversions and physical constants."""

import math

import pytest

from repro import units
from repro.errors import UnitError


class TestThroughputAndTime:
    def test_rpm_to_rev_time_7200(self):
        assert units.rpm_to_rev_time(7200.0) == pytest.approx(8.333e-3, rel=1e-3)

    def test_rpm_rejects_nonpositive(self):
        with pytest.raises(UnitError):
            units.rpm_to_rev_time(0.0)


class TestReferencePressures:
    def test_air_water_reference_ratio_is_26db(self):
        shift = 20.0 * math.log10(units.P_REF_AIR / units.P_REF_WATER)
        assert shift == pytest.approx(26.02, abs=0.01)

    def test_sector_and_block_sizes(self):
        assert units.BLOCK_4K == 8 * units.SECTOR_SIZE
        assert units.GIB == 1024 * units.MIB
