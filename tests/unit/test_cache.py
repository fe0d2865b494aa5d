"""Unit tests for repro.cache and the analysis layers wired into it."""

import numpy as np
import pytest

from repro.cache import (
    AnalysisCache,
    analysis_cache,
    cached_array,
    clear_analysis_cache,
    grid_key,
    region_geometry_key,
)
from repro.core.markov_spatial import MarkovSpatialAnalysis
from repro.core.regions import head_subareas
from repro.experiments.presets import onr_scenario
from repro.geometry.coverage import estimate_coverage_count_areas


@pytest.fixture(autouse=True)
def fresh_cache():
    """Each test starts (and leaves) an empty process-wide cache."""
    clear_analysis_cache()
    yield
    clear_analysis_cache()


class TestAnalysisCache:
    def test_counters(self):
        cache = AnalysisCache()
        assert cache.get_or_compute("a", lambda: 1) == 1
        assert cache.get_or_compute("a", lambda: 2) == 1
        assert (cache.hits, cache.misses) == (1, 1)
        assert cache.hit_rate() == pytest.approx(0.5)

    def test_clear_resets_everything(self):
        cache = AnalysisCache()
        cache.get_or_compute("a", lambda: 1)
        cache.clear()
        assert len(cache) == 0
        assert (cache.hits, cache.misses) == (0, 0)
        assert cache.hit_rate() == 0.0

    def test_eviction_drops_oldest(self):
        cache = AnalysisCache(max_entries=2)
        for key in ("a", "b", "c"):
            cache.get_or_compute(key, lambda: key)
        assert len(cache) == 2
        assert "a" not in cache
        assert "c" in cache

    def test_invalid_max_entries(self):
        with pytest.raises(ValueError):
            AnalysisCache(max_entries=0)

    def test_stats_snapshot(self):
        cache = AnalysisCache()
        cache.get_or_compute("a", lambda: 1)
        assert cache.stats() == {
            "entries": 1,
            "hits": 0,
            "misses": 1,
            "lookups": 1,
            "evictions": 0,
            "expirations": 0,
            "hit_rate": 0.0,
            "max_entries": None,
            "ttl": None,
            "stale_grace": None,
            "stale_hits": 0,
        }

    def test_lookups_always_equal_hits_plus_misses(self):
        cache = AnalysisCache(max_entries=2)
        for key in ("a", "b", "a", "c", "d", "b"):
            cache.get_or_compute(key, lambda: key)
            assert cache.lookups == cache.hits + cache.misses

    def test_lru_eviction_respects_recency_not_insertion(self):
        cache = AnalysisCache(max_entries=2)
        cache.get_or_compute("a", lambda: 1)
        cache.get_or_compute("b", lambda: 2)
        cache.get_or_compute("a", lambda: 0)  # refreshes "a"
        cache.get_or_compute("c", lambda: 3)  # evicts "b", the LRU entry
        assert "a" in cache
        assert "b" not in cache
        assert "c" in cache
        assert cache.evictions == 1

    def test_ttl_expires_entries(self):
        clock = [0.0]
        cache = AnalysisCache(ttl=10.0, clock=lambda: clock[0])
        assert cache.get_or_compute("a", lambda: 1) == 1
        clock[0] = 5.0
        assert cache.get_or_compute("a", lambda: 2) == 1  # still live
        clock[0] = 20.0
        assert "a" not in cache
        assert cache.get_or_compute("a", lambda: 3) == 3  # expired: recompute
        assert cache.expirations == 1
        assert (cache.hits, cache.misses) == (1, 2)
        assert cache.lookups == 3

    def test_store_first_writer_wins(self):
        cache = AnalysisCache()
        assert cache.store("k", 1) == 1
        assert cache.store("k", 2) == 1
        found, value = cache.lookup("k")
        assert found and value == 1

    def test_invalid_ttl(self):
        with pytest.raises(ValueError):
            AnalysisCache(ttl=0.0)

    def test_racing_compute_keeps_counters_consistent(self):
        # Two threads miss the same key: each charged one miss (they both
        # looked and found nothing), one value wins, lookups == hits+misses.
        import threading

        cache = AnalysisCache()
        barrier = threading.Barrier(2)
        stored = []

        def compute_slow(tag):
            def compute():
                barrier.wait(timeout=5)
                return tag

            return compute

        def worker(tag):
            stored.append(cache.get_or_compute("k", compute_slow(tag)))

        threads = [
            threading.Thread(target=worker, args=(tag,)) for tag in ("x", "y")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(set(stored)) == 1  # everyone saw the winning value
        assert cache.misses == 2 and cache.hits == 0
        assert cache.lookups == 2
        assert len(cache) == 1


class TestCachedArray:
    def test_returned_array_is_read_only(self):
        value = cached_array(("t", "frozen"), lambda: np.arange(3.0))
        with pytest.raises(ValueError):
            value[0] = 99.0

    def test_second_lookup_skips_compute(self):
        calls = []

        def compute():
            calls.append(1)
            return np.arange(2.0)

        cached_array(("t", "once"), compute)
        cached_array(("t", "once"), compute)
        assert len(calls) == 1


class TestCacheKeys:
    def test_region_key_ignores_rule_and_fleet(self):
        base = onr_scenario(num_sensors=120, speed=10.0)
        same = onr_scenario(num_sensors=240, speed=10.0, threshold=7)
        assert region_geometry_key(base) == region_geometry_key(same)

    def test_region_key_tracks_geometry(self):
        base = onr_scenario(num_sensors=120, speed=10.0)
        assert region_geometry_key(base) != region_geometry_key(
            onr_scenario(num_sensors=120, speed=4.0)
        )
        assert region_geometry_key(base) != region_geometry_key(
            onr_scenario(num_sensors=120, speed=10.0, sensing_range=900.0)
        )

    def test_grid_key_tracks_occupancy_fields(self):
        base = onr_scenario(num_sensors=120, speed=10.0)
        key = grid_key(base, 3, 3, 1, [120])
        assert key == grid_key(
            onr_scenario(num_sensors=120, speed=10.0, threshold=9),
            3, 3, 1, [120],
        )
        assert key != grid_key(base, 3, 3, 1, [121])
        assert key != grid_key(
            onr_scenario(num_sensors=120, speed=10.0, detect_prob=0.8),
            3, 3, 1, [120],
        )
        assert key != grid_key(base, 4, 3, 1, [120])
        assert key != grid_key(base, 3, 4, 1, [120])
        assert key != grid_key(base, 3, 3, 2, [120])


class TestAnalysisLayerCaching:
    def test_region_areas_cached_across_threshold_and_fleet(self):
        head_subareas(onr_scenario(num_sensors=120, speed=10.0))
        baseline = analysis_cache().misses
        head_subareas(onr_scenario(num_sensors=240, speed=10.0, threshold=7))
        assert analysis_cache().misses == baseline
        assert analysis_cache().hits >= 1

    def test_region_areas_recomputed_for_new_geometry(self):
        head_subareas(onr_scenario(num_sensors=120, speed=10.0))
        baseline = analysis_cache().misses
        head_subareas(onr_scenario(num_sensors=120, speed=4.0))
        assert analysis_cache().misses == baseline + 1

    def test_k_sweep_computes_geometry_at_most_once(self):
        # First grid point warms the cache; the rest of the k-sweep must
        # not add a single miss (region areas, regions, and pmfs all hit).
        MarkovSpatialAnalysis(
            onr_scenario(num_sensors=120, speed=10.0, threshold=3), 3
        ).detection_probability()
        warm_misses = analysis_cache().misses
        for threshold in (5, 7, 9):
            MarkovSpatialAnalysis(
                onr_scenario(num_sensors=120, speed=10.0, threshold=threshold), 3
            ).detection_probability()
        assert analysis_cache().misses == warm_misses
        assert analysis_cache().hit_rate() > 0.5

    def test_n_sweep_reuses_regions_but_not_pmfs(self):
        MarkovSpatialAnalysis(
            onr_scenario(num_sensors=120, speed=10.0), 3
        ).detection_probability()
        warm_misses = analysis_cache().misses
        MarkovSpatialAnalysis(
            onr_scenario(num_sensors=240, speed=10.0), 3
        ).detection_probability()
        # The pmfs depend on N so they recompute; the geometry must not —
        # the second point needs strictly fewer cold computations.
        added = analysis_cache().misses - warm_misses
        assert 0 < added < warm_misses
        misses_after = analysis_cache().misses
        head_subareas(onr_scenario(num_sensors=240, speed=10.0))
        assert analysis_cache().misses == misses_after

    def test_analysis_results_unchanged_by_caching(self):
        scenario = onr_scenario(num_sensors=120, speed=10.0)
        first = MarkovSpatialAnalysis(scenario, 3).detection_probability()
        second = MarkovSpatialAnalysis(scenario, 3).detection_probability()
        assert first == pytest.approx(second, abs=0.0)

    def test_monte_carlo_area_estimates_cached_for_integer_seed(self):
        a = estimate_coverage_count_areas(1000.0, 600.0, 20, samples=5_000, rng=7)
        hits_before = analysis_cache().hits
        b = estimate_coverage_count_areas(1000.0, 600.0, 20, samples=5_000, rng=7)
        assert a == b
        assert analysis_cache().hits == hits_before + 1
        # A generator is not a reproducible key: no caching.
        misses_before = analysis_cache().misses
        estimate_coverage_count_areas(
            1000.0, 600.0, 20, samples=5_000, rng=np.random.default_rng(7)
        )
        assert analysis_cache().misses == misses_before
