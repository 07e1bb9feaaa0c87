"""Driver-contract invariants for __ray_entry__.py: every oracle key must
name a registered query, every registry value must be callable, and the
registries must build without starting Ray."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))


def test_oracle_keys_subset_of_queries(ray_session):
    import __ray_entry__ as e

    q = e.queries()
    o = e.oracle_sql()
    assert set(o) <= set(q), set(o) - set(q)
    assert all(callable(f) for f in q.values())
    assert all(isinstance(s, str) and "SELECT" in s.upper() for s in o.values())
    # the round-2 surface: keep these counts monotone across rounds
    assert len(q) >= 97, len(q)
    assert len(o) >= 54, len(o)


# the driver records exactly the first 50 queries() entries in
# CORRECTNESS_r{N}.json — pin the curated prefix so a new registration
# above slot 50 fails HERE instead of silently displacing a graded gate.
GRADED_WINDOW = [
    "ndvi_exact", "focal_tri_exact", "stack_sum_exact", "remap_exact",
    "median_composite_exact", "landsat_qa_exact", "rank_filter_exact",
    "aspect_slope_exact", "zonal_remap_exact", "rasterize_attributes_exact",
    "hillshade_exact", "multidirectional_hillshade_exact", "lsu_exact",
    "rf_exact", "resumable_hillshade_exact", "resumable_training_exact",
    "nn_neighbors_exact", "rft_vineyard_exact", "seasonal_forecast_exact",
    "topographic_c_exact", "rect_overlap_join", "knn_join", "segment_join",
    "polygon_geometry", "region_label", "los_viewshed", "region_geometry",
    "euc_distance", "euc_allocation", "grid_bfs", "watershed_basins",
    "flow_length", "skyline", "interval_union", "rollup_sets",
    "scd2_intervals", "pagerank", "pmi_bigrams", "hash_classifier",
    "bpe_merge_step", "triangle_count", "focal_majority_exact",
    "pyramid_build", "resample_bilinear", "affine_warp", "rle_stats",
    "zonal_majority", "trailing_median", "zorder_keys", "zorder_range_scan",
]


def test_graded_window(ray_session):
    import __ray_entry__ as e

    q = e.queries()
    o = e.oracle_sql()
    assert list(q)[:50] == GRADED_WINDOW
    # every graded slot must be SQL-exact (has a DuckDB oracle)
    assert all(k in o for k in GRADED_WINDOW)
