"""Tests for the Facebook workload generator (Tables I and II)."""

from collections import Counter

import numpy as np
import pytest

from repro.workload import (
    FACEBOOK_BINS,
    MEAN_INTERARRIVAL,
    TRUNCATED_REDUCES,
    LoadgenParams,
    benchmark_job_mix,
    build_facebook_schedule,
    sample_interarrivals,
    truncated_bins,
)


class TestTable1:
    def test_nine_bins(self):
        assert len(FACEBOOK_BINS) == 9

    def test_bin_rows_verbatim(self):
        # (bin, %jobs, #maps, #jobs) exactly as printed in Table I.
        expected = [
            (1, 39.0, 1, 38), (2, 16.0, 2, 16), (3, 14.0, 10, 14),
            (4, 9.0, 50, 8), (5, 6.0, 100, 6), (6, 6.0, 200, 6),
            (7, 4.0, 400, 4), (8, 4.0, 800, 4), (9, 3.0, 4800, 4),
        ]
        for b, (bid, pct, maps, jobs) in zip(FACEBOOK_BINS, expected):
            assert b.bin_id == bid
            assert b.percent_at_facebook == pct
            assert b.maps_in_benchmark == maps
            assert b.jobs_in_benchmark == jobs

    def test_percentages_sum_to_101(self):
        # The printed table sums to 101% (rounding in the original).
        assert sum(b.percent_at_facebook for b in FACEBOOK_BINS) == 101.0

    def test_first_six_bins_cover_about_89_percent(self):
        # "which cover about 89% of the jobs at the Facebook production
        # cluster" (the printed percentages add to 90 due to rounding).
        total = sum(b.percent_at_facebook for b in truncated_bins())
        assert abs(total - 89.0) <= 1.0


class TestTable2:
    def test_reduce_counts_verbatim(self):
        assert TRUNCATED_REDUCES == {1: 1, 2: 1, 3: 5, 4: 10, 5: 20, 6: 30}

    def test_truncated_bins_have_reduces(self):
        for b in truncated_bins():
            assert b.reduces_in_benchmark == TRUNCATED_REDUCES[b.bin_id]

    def test_reduces_non_decreasing_with_maps(self):
        # "They number in a non-decreasing pattern compared to job's map
        # tasks."
        bins = truncated_bins()
        reduces = [b.reduces_in_benchmark for b in bins]
        assert reduces == sorted(reduces)

    def test_max_300_maps(self):
        # "we exclude those jobs with more than 300 map tasks"
        assert all(b.maps_in_benchmark <= 300 for b in truncated_bins())


class TestJobMix:
    def test_88_jobs_total(self):
        assert len(benchmark_job_mix()) == 88

    def test_mix_counts_per_bin(self):
        mix = benchmark_job_mix()
        counts = {}
        for b in mix:
            counts[b.bin_id] = counts.get(b.bin_id, 0) + 1
        assert counts == {1: 38, 2: 16, 3: 14, 4: 8, 5: 6, 6: 6}


class TestSchedule:
    def test_schedule_has_88_jobs(self):
        sched = build_facebook_schedule(np.random.default_rng(0))
        assert len(sched) == 88

    def test_schedule_duration_about_21_minutes(self):
        # 88 jobs x 14 s mean => ~1232 s =~ 21 min.  Check the mean over
        # seeds is in a sane band.
        durations = [build_facebook_schedule(np.random.default_rng(s)).duration
                     for s in range(20)]
        mean = np.mean(durations)
        assert 900 < mean < 1600

    def test_interarrival_mean(self):
        rng = np.random.default_rng(42)
        gaps = sample_interarrivals(20000, rng)
        assert abs(np.mean(gaps) - MEAN_INTERARRIVAL) < 0.5

    def test_jobs_sorted_by_time(self):
        sched = build_facebook_schedule(np.random.default_rng(1))
        times = [j.submit_time for j in sched.jobs]
        assert times == sorted(times)

    def test_shared_inputs_per_bin(self):
        sched = build_facebook_schedule(np.random.default_rng(2))
        assert len(sched.inputs) == 6
        assert sched.inputs["/benchmark/input-bin6"] == 200
        assert sched.inputs["/benchmark/input-bin1"] == 1

    def test_specs_match_table2(self):
        sched = build_facebook_schedule(np.random.default_rng(3))
        for job in sched.jobs:
            expected_maps = {1: 1, 2: 2, 3: 10, 4: 50, 5: 100, 6: 200}
            assert job.spec.num_maps == expected_maps[job.bin_id]
            assert job.spec.num_reduces == TRUNCATED_REDUCES[job.bin_id]

    def test_scale_shrinks_mix_proportionally(self):
        def per_bin(sched):
            return Counter(j.bin_id for j in sched.jobs)

        sched = build_facebook_schedule(np.random.default_rng(4), scale=0.5)
        assert per_bin(sched)[1] == 19
        assert per_bin(sched)[6] == 3
        # Minimum one job per bin even at tiny scale.
        tiny = build_facebook_schedule(np.random.default_rng(4), scale=0.01)
        assert per_bin(tiny) == {b: 1 for b in range(1, 7)}

    def test_invalid_scale_rejected(self):
        with pytest.raises(ValueError):
            build_facebook_schedule(np.random.default_rng(0), scale=0.0)

    def test_job_order_is_shuffled(self):
        # Bins must be interleaved, not submitted in bin order.
        sched = build_facebook_schedule(np.random.default_rng(5))
        bin_ids = [j.bin_id for j in sched.jobs]
        assert bin_ids != sorted(bin_ids)

    def test_deterministic_given_seed(self):
        s1 = build_facebook_schedule(np.random.default_rng(9))
        s2 = build_facebook_schedule(np.random.default_rng(9))
        assert [(j.submit_time, j.spec.name) for j in s1.jobs] == \
            [(j.submit_time, j.spec.name) for j in s2.jobs]

    def test_loadgen_params_validation(self):
        with pytest.raises(ValueError):
            LoadgenParams(map_cpu_per_block=-1).validate()


class TestPublicApi:
    """The workload package's documented surface (regression: ``sample_interarrivals``
    was missing from ``facebook.__all__`` even though the package re-exported it)."""

    def test_package_all_names_resolve(self):
        import repro.workload as workload
        for name in workload.__all__:
            assert hasattr(workload, name), f"workload.__all__ exports missing {name}"

    def test_facebook_module_all_names_resolve(self):
        import repro.workload.facebook as facebook
        for name in facebook.__all__:
            assert hasattr(facebook, name), f"facebook.__all__ exports missing {name}"

    def test_sample_interarrivals_exported_everywhere(self):
        import repro.workload as workload
        import repro.workload.facebook as facebook
        assert "sample_interarrivals" in facebook.__all__
        assert "sample_interarrivals" in workload.__all__
        assert workload.sample_interarrivals is facebook.sample_interarrivals

    def test_sample_interarrivals_behaviour(self):
        draws = sample_interarrivals(500, np.random.default_rng(3))
        assert len(draws) == 500
        assert all(d >= 0 for d in draws)
        # Exponential with mean 14 s (Table I text): the sample mean of 500
        # draws lands well inside a loose band.
        assert 10.0 < float(np.mean(draws)) < 19.0
