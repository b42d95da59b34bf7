"""Tests for time series (area under curve), counters, and reports."""

import numpy as np
import pytest

from repro.metrics import CounterSet, StepSeries, WorkloadResult, format_table


class TestStepSeries:
    def test_record_and_query(self):
        s = StepSeries("n", initial=0.0)
        s.record(10.0, 5.0)
        s.record(20.0, 3.0)
        assert s.value_at(0.0) == 0.0
        assert s.value_at(10.0) == 5.0
        assert s.value_at(15.0) == 5.0
        assert s.value_at(25.0) == 3.0

    def test_non_monotonic_rejected(self):
        s = StepSeries(initial=0.0)
        s.record(10.0, 1.0)
        with pytest.raises(ValueError):
            s.record(5.0, 2.0)

    def test_same_time_overwrites(self):
        s = StepSeries(initial=0.0)
        s.record(10.0, 1.0)
        s.record(10.0, 2.0)
        assert s.value_at(10.0) == 2.0
        assert len(s) == 2  # t=0 and t=10

    def test_area_constant_function(self):
        s = StepSeries(initial=55.0)
        assert s.integrate(0.0, 100.0) == pytest.approx(5500.0)

    def test_area_step_function(self):
        s = StepSeries(initial=0.0)
        s.record(10.0, 50.0)   # 50 nodes from t=10
        s.record(20.0, 30.0)   # dip to 30 at t=20
        s.record(30.0, 50.0)   # recover at t=30
        # [0,10): 0, [10,20): 50, [20,30): 30, [30,40): 50
        assert s.integrate(0.0, 40.0) == pytest.approx(0 + 500 + 300 + 500)

    def test_area_partial_window(self):
        s = StepSeries(initial=10.0)
        s.record(10.0, 20.0)
        assert s.integrate(5.0, 15.0) == pytest.approx(10 * 5 + 20 * 5)

    def test_area_window_between_points(self):
        s = StepSeries(initial=10.0)
        assert s.integrate(3.0, 7.0) == pytest.approx(40.0)

    def test_area_empty_window(self):
        s = StepSeries(initial=10.0)
        assert s.integrate(5.0, 5.0) == 0.0

    def test_area_inverted_window_rejected(self):
        s = StepSeries(initial=10.0)
        with pytest.raises(ValueError):
            s.integrate(10.0, 5.0)

    def test_mean(self):
        s = StepSeries(initial=0.0)
        s.record(50.0, 100.0)
        assert s.mean(0.0, 100.0) == pytest.approx(50.0)

    def test_min_max(self):
        s = StepSeries(initial=5.0)
        s.record(1.0, 55.0)
        s.record(2.0, 20.0)
        assert s.max() == 55.0
        assert s.min() == 5.0

    def test_table4_style_area(self):
        # A synthetic 55-node run with a dip reproduces the area
        # arithmetic of Table IV: area/response = mean nodes.
        s = StepSeries(initial=55.0)
        s.record(1000.0, 20.0)
        s.record(2000.0, 55.0)
        area = s.integrate(0.0, 4000.0)
        assert area == pytest.approx(55 * 1000 + 20 * 1000 + 55 * 2000)
        assert area / 4000.0 == pytest.approx((55 + 20 + 110) / 4)

    def test_as_arrays(self):
        s = StepSeries(initial=1.0)
        s.record(5.0, 2.0)
        t, v = s.as_arrays()
        assert list(t) == [0.0, 5.0]
        assert list(v) == [1.0, 2.0]


class TestDownsample:
    def _series(self, n):
        s = StepSeries("g")
        for i in range(n):
            s.record(float(i), float(i * i))
        return s

    def test_short_series_returned_whole(self):
        s = self._series(5)
        t, v = s.downsample(10)
        assert t == [0.0, 1.0, 2.0, 3.0, 4.0]
        assert v == [0.0, 1.0, 4.0, 9.0, 16.0]

    def test_thinning_keeps_first_and_last(self):
        s = self._series(1000)
        t, v = s.downsample(16)
        assert len(t) == len(v) == 16
        assert t[0] == 0.0 and t[-1] == 999.0
        assert v[0] == 0.0 and v[-1] == 999.0 ** 2
        assert t == sorted(t)

    def test_thinning_is_deterministic(self):
        s = self._series(333)
        assert s.downsample(7) == s.downsample(7)

    def test_rejects_degenerate_budget(self):
        with pytest.raises(ValueError):
            self._series(5).downsample(1)

    def test_returns_copies(self):
        s = self._series(3)
        t, _ = s.downsample(10)
        t.append(99.0)
        assert len(s) == 3


class TestCounters:
    def test_incr_and_get(self):
        c = CounterSet()
        assert c.get("x") == 0
        c.incr("x")
        c.incr("x", 4)
        assert c.get("x") == 5
        assert c.as_dict() == {"x": 5}


class TestWorkloadResult:
    def _result(self):
        return WorkloadResult(system="HOG", nodes=55, start_time=100.0,
                              end_time=4496.0, node_area=181020.0)

    def test_response_time(self):
        assert self._result().response_time == pytest.approx(4396.0)

    def test_mean_nodes_matches_table4_arithmetic(self):
        # Table IV row 5a: 181020 / 4396 =~ 41.2 mean nodes.
        assert self._result().mean_nodes == pytest.approx(41.18, abs=0.01)

    def test_summary_mentions_key_numbers(self):
        s = self._result().summary()
        assert "4396" in s and "HOG" in s


class TestFormatTable:
    def test_alignment_and_title(self):
        out = format_table(["a", "bb"], [[1, 2], [33, 4]], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5
