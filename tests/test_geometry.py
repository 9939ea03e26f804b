"""Unit tests for repro.utils.geometry."""

import pytest

from repro.utils.geometry import Rect


class TestRect:
    def test_basic_properties(self):
        r = Rect(0, 0, 10, 4)
        assert r.width == 10
        assert r.height == 4
        assert r.area == 40

    def test_malformed_raises(self):
        with pytest.raises(ValueError):
            Rect(5, 0, 0, 10)
        with pytest.raises(ValueError):
            Rect(0, 5, 10, 0)

    def test_zero_area_allowed(self):
        r = Rect(1, 1, 1, 1)
        assert r.area == 0
