"""Driver contract for the graft builder (Ray Data target).

The driver's verify calls ``entry()`` as a smoke check (Ray is already
initialised, local mode), runs each ``queries()[name](sf_dir)`` at
sf=0.01 and compares it against the matching ``oracle_sql()[name]`` via
DuckDB (row-count + schema + order-insensitive value-hash →
CORRECTNESS_r{N}.json). Fill these in as you implement operators from
SURVEY.md §2. Results may be a ``ray.data.Dataset``, a
``pandas.DataFrame`` or a ``pyarrow.Table``; the driver converts.

Ray is initialised by the driver BEFORE this module is imported: do not
call ``ray.init()`` / ``ray.shutdown()`` here, in the library code these
functions use, or inside the callables.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any


def entry() -> Any:
    """Flagship pipeline on /root/testdata/sf0.001; driver checks rows>=0.

    documents → span explode → media-ref counts → NDVI tile kernel →
    cell-encode → groupby(cell_id) aggregate (pipelines/flagship.py).
    """
    from raster_functions_ray.pipelines import flagship

    return flagship.run("/root/testdata/sf0.001")


def queries() -> dict[str, Callable[[str], Any]]:
    """One entry per implemented operator/pipeline from SURVEY.md §2.

    Each callable takes ``sf_dir`` (e.g. "/root/testdata/sf0.01") and
    returns a Dataset / pandas DataFrame / pyarrow Table. Name every
    computed/aggregate column so names match ``oracle_sql``.
    """
    from raster_functions_ray import analytic, analytic2, ann, bandmath, dedup
    from raster_functions_ray import rasterqueries as rq
    from raster_functions_ray import relational as rel, spatial, synth, textops
    from raster_functions_ray import regions, spatial2, trainprep, windows

    # raster oracles read the synthetic parquet — make sure it exists before
    # the driver runs either side
    synth.synth_dir(0.01)

    # ORDER MATTERS: the driver records only the first 50 entries in
    # CORRECTNESS_r{N}.json, so every SQL-oracle-backed query (see
    # oracle_sql()) is registered BEFORE the rows-only ones. Keep new
    # SQL-exact queries in the first section.
    return {
        # ---- SQL-exact section (every key here has an oracle_sql entry) ----
        #
        # The driver grades EXACTLY the first 50 entries; the pytest
        # test_graded_window pins that prefix, so any insertion above slot
        # 50 fails loudly instead of silently displacing a curated gate.
        #
        # Window composition: 20 classic raster gates (one per operator
        # FAMILY — each demoted family-sibling sits directly below the
        # window and stays sweep-verified) + the 30 round-4 flagships.
        #
        # SQL-exact raster gates over the closed-form analytic tile world
        # (the rows-only pixel queries' exact complements — analytic.py)
        "ndvi_exact": analytic.q_ndvi_exact,
        "focal_tri_exact": analytic.q_focal_tri_exact,
        "stack_sum_exact": analytic.q_stack_sum_exact,
        "remap_exact": analytic.q_remap_exact,
        # round-3: former rows-only pixel queries converted to exact gates
        # over the analytic world (analytic2.py) — same engine stacks
        # (storage-aligned stack reduces, parquet halo, chains, zonal)
        "median_composite_exact": analytic2.q_median_composite_exact,
        "landsat_qa_exact": analytic2.q_landsat_qa_exact,
        "rank_filter_exact": analytic2.q_rank_filter_exact,
        "aspect_slope_exact": analytic2.q_aspect_slope_exact,
        "zonal_remap_exact": analytic2.q_zonal_remap_exact,
        "rasterize_attributes_exact": analytic2.q_rasterize_attributes_exact,
        "hillshade_exact": analytic2.q_hillshade_exact,
        "multidirectional_hillshade_exact":
            analytic2.q_multidirectional_hillshade_exact,
        "lsu_exact": analytic2.q_lsu_exact,
        "rf_exact": analytic2.q_rf_exact,
        "resumable_hillshade_exact": analytic2.q_resumable_hillshade_exact,
        # text sibling: checkpointed per-source scoring, resumed mid-job,
        # same oracle as the one-shot training pipeline
        "resumable_training_exact": textops.q_resumable_training_exact,
        "nn_neighbors_exact": analytic2.q_nn_neighbors_exact,
        "rft_vineyard_exact": analytic2.q_rft_vineyard_exact,
        "seasonal_forecast_exact": analytic2.q_seasonal_forecast_exact,
        "topographic_c_exact": analytic2.q_topographic_c_exact,
        # round-4 flagship additions (regions / terrain / graph /
        # geometry / lakehouse) — curated INTO the driver's 50-slot
        # graded window alongside the north-star spatial joins
        "rect_overlap_join": spatial.q_rect_overlap_join,
        "knn_join": spatial.q_knn_join,
        "segment_join": spatial.q_segment_join,
        "polygon_geometry": spatial.q_polygon_geometry,
        "region_label": regions.q_region_label,
        "los_viewshed": regions.q_los_viewshed,
        "region_geometry": regions.q_region_geometry,
        "euc_distance": regions.q_euc_distance,
        "euc_allocation": regions.q_euc_allocation,
        "grid_bfs": regions.q_grid_bfs,
        "watershed_basins": rq.q_watershed_basins,
        "flow_length": rq.q_flow_length,
        "skyline": rel.q_skyline,
        "interval_union": rel.q_interval_union,
        "rollup_sets": rel.q_rollup_sets,
        "scd2_intervals": rel.q_scd2_intervals,
        "pagerank": trainprep.q_pagerank,
        "pmi_bigrams": trainprep.q_pmi_bigrams,
        "hash_classifier": textops.q_hash_classifier,
        "bpe_merge_step": textops.q_bpe_merge_step,
        "triangle_count": trainprep.q_triangle_count,
        "focal_majority_exact": analytic2.q_focal_majority_exact,
        "pyramid_build": analytic2.q_pyramid_build,
        "resample_bilinear": analytic2.q_resample_bilinear,
        "affine_warp": analytic2.q_affine_warp,
        "rle_stats": analytic2.q_rle_stats,
        "zonal_majority": analytic2.q_zonal_majority,
        "trailing_median": windows.q_trailing_median,
        "zorder_keys": spatial.q_zorder_keys,
        "zorder_range_scan": spatial.q_zorder_range_scan,
        # ---- end of the driver's 50-slot graded window ----
        # SQL-exact analytic gates below the graded window (still
        # verified by scripts/verify_queries.py every sweep).
        "spacetime_trend": spatial.q_spacetime_trend,
        "idw_interp": regions.q_idw_interp,
        "morans_i": regions.q_morans_i,
        "contour_cases": regions.q_contour_cases,
        "trajectory_length": spatial.q_trajectory_length,
        "cdc_chunks": textops.q_cdc_chunks,
        "cost_distance": regions.q_cost_distance,
        "ntile_slice": rel.q_ntile_slice,
        "band_join": windows.q_band_join,
        "group_regression": rel.q_group_regression,
        "incremental_daily": rel.q_incremental_daily,
        "late_events": rel.q_late_events,
        "zonal_percentiles": regions.q_zonal_percentiles,
        "hist_equalize": regions.q_hist_equalize,
        "od_matrix": spatial.q_od_matrix,
        "json_props": rel.q_json_props,
        "retention_cohorts": rel.q_retention_cohorts,
        "data_card": textops.q_data_card,
        "box_counting": regions.q_box_counting,
        "bpe_encode": textops.q_bpe_encode,
        "haversine_dist": spatial.q_haversine_dist,
        "terrain_trig_exact": analytic2.q_terrain_trig_exact,
        "group_topk_dense": rel.q_group_topk_dense,
        "latest_snapshot": rel.q_latest_snapshot,
        "argmax_customer": rel.q_argmax_customer,
        # round-4 eighth wave
        "dbscan": spatial.q_dbscan,
        "simplify_dp": spatial.q_simplify_dp,
        "theilsen_slope": spatial.q_theilsen_slope,
        "naive_bayes": textops.q_naive_bayes,
        "acf_daily": windows.q_acf_daily,
        "segment_intersect": spatial.q_segment_intersect,
        "hausdorff": spatial.q_hausdorff,
        "gi_star": regions.q_gi_star,
        "local_moran": regions.q_local_moran,
        "ripley_k": spatial.q_ripley_k,
        "nn_index": spatial.q_nn_index,
        "kde_density": spatial.q_kde_density,
        "std_ellipse": spatial.q_std_ellipse,
        # round-4 ninth wave
        "spacetime_join": spatial2.q_spacetime_join,
        "union_area": spatial2.q_union_area,
        "sssp_khop": spatial2.q_sssp_khop,
        "convex_hull": spatial2.q_convex_hull,
        "emerging_hotspot": spatial2.q_emerging_hotspot,
        "trajectory_resample": spatial2.q_trajectory_resample,
        "map_match": spatial2.q_map_match,
        "kriging_simple": spatial2.q_kriging_simple,
        "od_cost_matrix": spatial2.q_od_cost_matrix,
        "gwr_moments": spatial2.q_gwr_moments,
        "min_bounding_circle": spatial2.q_min_bounding_circle,
        "geary_c": spatial2.q_geary_c,
        "knox_stat": spatial2.q_knox_stat,
        "hilbert_keys": spatial2.q_hilbert_keys,
        "st_dbscan": spatial2.q_st_dbscan,
        "stkde": spatial2.q_stkde,
        "geodesic_area": spatial2.q_geodesic_area,
        "strahler_order": spatial2.q_strahler_order,
        "line_density": spatial2.q_line_density,
        "stay_points": spatial2.q_stay_points,
        "viterbi_match": spatial2.q_viterbi_match,
        "cost_path": spatial2.q_cost_path,
        "rect_intersect_area": spatial2.q_rect_intersect_area,
        "co_travel": spatial2.q_co_travel,
        # family-siblings demoted to make room for the round-4 flagships:
        "block_stats_exact": analytic.q_block_stats_exact,
        "stack_second_max_exact": analytic.q_stack_second_max_exact,
        "stretch_exact": analytic.q_stretch_exact,
        "qa_exact": analytic.q_qa_exact,
        "aggregate_mean_exact": analytic2.q_aggregate_mean_exact,
        "pixel_percentile_exact": analytic2.q_pixel_percentile_exact,
        "image_synthesis_exact": analytic2.q_image_synthesis_exact,
        "percent_above_exact": analytic2.q_percent_above_exact,
        "composite_bands_exact": analytic2.q_composite_bands_exact,
        "dnbr_exact": analytic2.q_dnbr_exact,
        "mask_replace_exact": analytic2.q_mask_replace_exact,
        "vineyard_exact": analytic2.q_vineyard_exact,
        "heat_index": bandmath.q_heat_index,
        "ndvi_colormap_exact": analytic2.q_ndvi_colormap_exact,
        "merge_extract_exact": analytic2.q_merge_extract_exact,
        "chuck_close_exact": analytic2.q_chuck_close_exact,
        "hexagon_exact": analytic2.q_hexagon_exact,
        "table_function_exact": analytic2.q_table_function_exact,
        "remove_nodata_exact": analytic2.q_remove_nodata_exact,
        "stretch_range_exact": analytic2.q_stretch_range_exact,
        "tri_expr_exact": analytic2.q_tri_expr_exact,
        "select_by_pixel_size_exact": analytic2.q_select_by_pixel_size_exact,
        "vector_field_exact": analytic2.q_vector_field_exact,
        "deviation_exact": analytic2.q_deviation_exact,
        "ndsi_ndwi_exact": analytic2.q_ndsi_ndwi_exact,
        "block_stats_minmax_exact": analytic2.q_block_stats_minmax_exact,
        "find_third_max_exact": analytic2.q_find_third_max_exact,
        # spatial joins: cell encode, point-in-rect and doc↔zone joins,
        # zonal, kNN (brute + cell-ring), adaptive coverings, NN classify
        "cell_assign": spatial.q_cell_assign,
        "pip_rect": spatial.q_pip_rect,
        "zonal_value": spatial.q_zonal_value,
        "knn": spatial.q_knn,
        "knn_cell_ring": spatial.q_knn_cell_ring,
        "nn_classify": spatial.q_nn_classify,
        "knn_classify_vote": spatial.q_knn_classify_vote,
        "doc_zone_join": rq.q_doc_zone_join,
        "doc_zone_join_rect": spatial.q_doc_zone_join_rect,
        "adaptive_cover": spatial.q_adaptive_cover,
        "adaptive_cover_convex": spatial.q_adaptive_cover_convex,
        "tile_cells": rq.q_tile_cells,
        "tile_parent_cells": rq.q_tile_parent_cells,
        # relational (SURVEY.md §2 aggregate/join/filter/top-k shapes)
        "q1_pricing": rel.q1_pricing,
        "q3_shipping": rel.q3_shipping,
        "q17_small_quantity": rel.q17_small_quantity,
        "orders_by_segment": rel.q_orders_by_segment,
        "top_parts": rel.q_top_parts,
        "distinct_brands": rel.q_distinct_brands,
        "events_daily": rel.q_events_daily,
        "nation_balance": rel.q_nation_balance,
        "user_activity": rel.q_user_activity,
        "orders_filter_join": rel.q_orders_filter_join,
        "lineitem_part_join": rel.q_lineitem_part_join,
        "range_join": rel.q_range_join,
        "window_lag": rel.q_window_lag,
        "nation_top_customers": rel.q_nation_top_customers,
        "segment_median_price": rel.q_segment_median_price,
        "sessionize": rel.q_sessionize,
        "event_funnel": rel.q_event_funnel,
        "running_totals": rel.q_running_totals,
        "window_moving_max": rel.q_window_moving_max,
        "asof_join": rel.q_asof_join,
        "anti_join": rel.q_anti_join,
        "left_outer_join": rel.q_left_outer_join,
        "exact_percentiles": rel.q_exact_percentiles,
        "segment_except": rel.q_segment_except,
        "nation_segment_rollup": rel.q_nation_segment_rollup,
        "event_type_pivot": rel.q_event_type_pivot,
        # text analysis / dedup / training-data prep (SQL-exact)
        "token_stats": textops.q_token_stats,
        "lang_profile": textops.q_lang_profile,
        "doc_prefix_groups": textops.q_doc_prefix_groups,
        "quality_counts": textops.q_quality_counts,
        "dedup_mark": textops.q_dedup_mark,
        "training_data_pipeline": textops.q_training_data_pipeline,
        "pattern_scrub": textops.q_pattern_scrub,
        "decontaminate": textops.q_decontaminate,
        "boilerplate": textops.q_boilerplate,
        "csv_source": textops.q_csv_source,
        "json_source": textops.q_json_source,
        "feather_source": textops.q_feather_source,
        "sink_roundtrip": textops.q_sink_roundtrip,
        "inverted_index": textops.q_inverted_index,
        "bm25_topk": textops.q_bm25_topk,
        "doc_chunking": trainprep.q_doc_chunking,
        "exact_dedup": dedup.q_exact_dedup,
        "simhash_poly": dedup.q_simhash_poly,
        "minhash_lsh_exact": dedup.q_minhash_lsh_exact,
        "ngram_jaccard": dedup.q_ngram_jaccard,
        "typo_pairs": dedup.q_typo_pairs,
        "embedding_nn_dedup": dedup.q_embedding_nn_dedup,
        "dup_clusters": trainprep.q_dup_clusters,
        "stratified_sample": trainprep.q_stratified_sample,
        "seq_packing": trainprep.q_seq_packing,
        "bloom_anti_dedup": trainprep.q_bloom_anti_dedup,
        "tfidf_top_terms": trainprep.q_tfidf_top_terms,
        "domain_cap": trainprep.q_domain_cap,
        "doc_repetition": trainprep.q_doc_repetition,
        "shuffle_order": trainprep.q_shuffle_order,
        "budget_select": trainprep.q_budget_select,
        "hll_distinct": trainprep.q_hll_distinct,
        "paragraph_dedup": trainprep.q_paragraph_dedup,
        "substring_dedup": dedup.q_substring_dedup,
        "importance_mass": trainprep.q_importance_mass,
        "heavy_hitters": trainprep.q_heavy_hitters,
        "mixture_rebalance": trainprep.q_mixture_rebalance,
        # similarity search (SQL-exact)
        # temporal windows + LM scoring (round 4, windows.py)
        "hopping_window": windows.q_hopping_window,
        "unigram_logprob": windows.q_unigram_logprob,
        "event_debounce": windows.q_event_debounce,
        "trailing_rate": windows.q_trailing_rate,
        # similarity search (SQL-exact)
        "ann_topk": ann.q_ann_topk,
        "ann_dot_topk": ann.q_ann_dot_topk,
        "lsh_bucket_sizes": ann.q_lsh_bucket_sizes,
        "ivf_sq_search": ann.q_ivf_sq_search,
        "pq_adc_topk": ann.q_pq_adc_topk,
        "ivfpq_search": ann.q_ivfpq_search,
        "kmeans_embed": ann.q_kmeans_embed,
        "semantic_dedup_kmeans": ann.q_semantic_dedup_kmeans,
        "embedding_decontam": ann.q_embedding_decontam,
        "hard_negatives": ann.q_hard_negatives,
        "zonal_value_salted": spatial.q_zonal_value_salted,
        "rect_overlap_join_split": spatial.q_rect_overlap_join_split,
        "radius_join": spatial.q_radius_join,
        # raster region analysis (round 4, regions.py)
        "median_select": rel.q_median_select,
        "mad_select": rel.q_mad_select,
        "running_distinct": rel.q_running_distinct,
        "user_type_sets": rel.q_user_type_sets,
        "p99_select": rel.q_p99_select,
        # band algebra on columns (same kernels as the raster path, SQL-exact)
        "windchill": bandmath.q_windchill,
        "fuzzy_linear": bandmath.q_fuzzy_linear,
        "fuzzy_gaussian": bandmath.q_fuzzy_gaussian,
        "fuzzy_mssmall_two_phase": bandmath.q_fuzzy_mssmall_two_phase,
        "arithmetic_cols": bandmath.q_arithmetic_cols,
        "convert_per_month": bandmath.q_convert_per_month,
        "heat_index_f8": bandmath.q_heat_index_f8,
        "fish_habitat_f8": bandmath.q_fish_habitat_f8,
        # metadata / document-structure queries (SQL-exact)
        "latitude_corner": rq.q_latitude_corner,
        "doc_media_join": rq.q_doc_media_join,
        "span_kinds": rq.q_span_kinds,
        "span_sequence_fp": rq.q_span_sequence_fp,
        "tile_catalog": rq.q_tile_catalog,
        "key_metadata": rq.q_key_metadata,
        "video_frame_plan": rq.q_video_frame_plan,
        "random_source_exact": rq.q_random_source_exact,
        "d8_flow_exact": rq.q_d8_flow_exact,
        # ---- round 5: K-round BPE vocabulary training + trained
        # hashed-feature logistic regression ----
        "bpe_train": textops.q_bpe_train,
        "bpe_train_encode": textops.q_bpe_train_encode,
        "logreg_train": textops.q_logreg_train,
        "gap_fill": windows.q_gap_fill,
        "gap_fill_linear": windows.q_gap_fill_linear,
        "cms_sketch": textops.q_cms_sketch,
        # ---- rows-only section: the genuinely non-SQL-expressible set
        # (RNG pixel payloads, nonlinear fits, media codecs, unquantized
        # trig); each is gated by the pytest golden
        # suite.  The former noise-world stat complements of the _exact
        # gates (ndvi_stats, lsu_stats, cti_stats, topographic_c,
        # hillshade_shuffle_halo, multidirectional_hillshade_stats,
        # random_source, nn_neighbors_stats, rf_classify_stats,
        # resumable_hillshade) were dropped from the registry in round 4
        # as redundant driver entries — the functions remain and the
        # pytest suite still runs them over the noise world.  Round 5
        # likewise demoted minhash_dedup / simhash / ivf_search to pytest
        # smoke: each duplicated an SQL-exact registry complement
        # (minhash_lsh_exact / simhash_poly / ivf_sq_search) through the
        # same code paths, so the registry is now exact-complement-
        # complete — every rows-only entry is non-SQL for a stated
        # reason, not a float-path shadow of an exact gate. ----
        "inpaint_stats": rq.q_inpaint_stats,
        "media_features": rq.q_media_features,
        "video_features": rq.q_video_features,
        "audio_features": rq.q_audio_features,
        "sarima_forecast": rq.q_sarima_forecast,
        "rft_radiation_stats": rq.q_rft_radiation_stats,
    }


def oracle_sql(sf: float = 0.01) -> dict[str, str]:
    """For each key in ``queries()``, equivalent ANSI SQL runnable by
    DuckDB on the same parquet tables (pre-registered views: region
    nation customer supplier part orders lineitem events documents
    embeddings). Omit for non-SQL-expressible ops → driver records a
    weaker rows-only check.

    ``sf`` parameterizes the analytic-tile-world oracles (their SQL bakes
    in the tile grid of one scale factor); the driver calls this with no
    argument (sf0.01, its gate scale), scripts/verify_queries.py passes
    the scale matching --sf-dir so the FULL registry verifies at 10x.
    """
    from raster_functions_ray import analytic, analytic2, ann, bandmath, dedup
    from raster_functions_ray import rasterqueries as rq
    from raster_functions_ray import relational as rel, spatial, textops
    from raster_functions_ray import regions, spatial2, trainprep, windows

    return {
        "ndvi_exact": analytic.ndvi_exact_oracle_sql(sf),
        "block_stats_exact": analytic.block_stats_exact_oracle_sql(sf),
        "focal_tri_exact": analytic.focal_tri_exact_oracle_sql(sf),
        "stack_sum_exact": analytic.stack_sum_exact_oracle_sql(sf),
        "stack_second_max_exact": analytic.stack_second_max_exact_oracle_sql(sf),
        "remap_exact": analytic.remap_exact_oracle_sql(sf),
        "stretch_exact": analytic.stretch_exact_oracle_sql(sf),
        "qa_exact": analytic.qa_exact_oracle_sql(sf),
        "aggregate_mean_exact": analytic2.aggregate_mean_exact_oracle_sql(sf),
        "median_composite_exact": analytic2.median_composite_exact_oracle_sql(sf),
        "pixel_percentile_exact": analytic2.pixel_percentile_exact_oracle_sql(sf),
        "image_synthesis_exact": analytic2.image_synthesis_exact_oracle_sql(sf),
        "find_third_max_exact": analytic2.find_third_max_exact_oracle_sql(sf),
        "percent_above_exact": analytic2.percent_above_exact_oracle_sql(sf),
        "composite_bands_exact": analytic2.composite_bands_exact_oracle_sql(sf),
        "deviation_exact": analytic2.deviation_exact_oracle_sql(sf),
        "dnbr_exact": analytic2.dnbr_exact_oracle_sql(sf),
        "ndsi_ndwi_exact": analytic2.ndsi_ndwi_exact_oracle_sql(sf),
        "ndvi_colormap_exact": analytic2.ndvi_colormap_exact_oracle_sql(sf),
        "mask_replace_exact": analytic2.mask_replace_exact_oracle_sql(sf),
        "landsat_qa_exact": analytic2.landsat_qa_exact_oracle_sql(sf),
        "select_by_pixel_size_exact": analytic2.select_by_pixel_size_exact_oracle_sql(sf),
        "merge_extract_exact": analytic2.merge_extract_exact_oracle_sql(sf),
        "vector_field_exact": analytic2.vector_field_exact_oracle_sql(sf),
        "rank_filter_exact": analytic2.rank_filter_exact_oracle_sql(sf),
        "focal_majority_exact": analytic2.focal_majority_exact_oracle_sql(sf),
        "pyramid_build": analytic2.pyramid_build_oracle_sql(sf),
        "resample_bilinear": analytic2.resample_bilinear_oracle_sql(sf),
        "affine_warp": analytic2.affine_warp_oracle_sql(sf),
        "rle_stats": analytic2.rle_stats_oracle_sql(sf),
        "zonal_majority": analytic2.zonal_majority_oracle_sql(sf),
        "trailing_median": windows.Q_TRAILING_MEDIAN_SQL,
        "zorder_keys": spatial.Q_ZORDER_KEYS_SQL,
        "zorder_range_scan": spatial.Q_ZORDER_RANGE_SCAN_SQL,
        "spacetime_trend": spatial.Q_SPACETIME_TREND_SQL,
        "idw_interp": regions.Q_IDW_INTERP_SQL,
        "morans_i": regions.Q_MORANS_I_SQL,
        "contour_cases": regions.Q_CONTOUR_CASES_SQL,
        "trajectory_length": spatial.Q_TRAJECTORY_LENGTH_SQL,
        "cdc_chunks": textops.Q_CDC_CHUNKS_SQL,
        "cost_distance": regions.Q_COST_DISTANCE_SQL,
        "ntile_slice": rel.Q_NTILE_SLICE_SQL,
        "band_join": windows.Q_BAND_JOIN_SQL,
        "group_regression": rel.Q_GROUP_REGRESSION_SQL,
        "incremental_daily": rel.Q_INCREMENTAL_DAILY_SQL,
        "late_events": rel.Q_LATE_EVENTS_SQL,
        "zonal_percentiles": regions.Q_ZONAL_PERCENTILES_SQL,
        "hist_equalize": regions.Q_HIST_EQUALIZE_SQL,
        "od_matrix": spatial.Q_OD_MATRIX_SQL,
        "json_props": rel.Q_JSON_PROPS_SQL,
        "retention_cohorts": rel.Q_RETENTION_COHORTS_SQL,
        "data_card": textops.Q_DATA_CARD_SQL,
        "box_counting": regions.Q_BOX_COUNTING_SQL,
        "bpe_encode": textops.Q_BPE_ENCODE_SQL,
        "haversine_dist": spatial.Q_HAVERSINE_DIST_SQL,
        "terrain_trig_exact": analytic2.terrain_trig_exact_oracle_sql(sf),
        "group_topk_dense": rel.Q_GROUP_TOPK_DENSE_SQL,
        "latest_snapshot": rel.Q_LATEST_SNAPSHOT_SQL,
        "argmax_customer": rel.Q_ARGMAX_CUSTOMER_SQL,
        "dbscan": spatial.dbscan_oracle_sql(sf),
        "simplify_dp": spatial.simplify_dp_oracle_sql(),
        "theilsen_slope": spatial.Q_THEILSEN_SLOPE_SQL,
        "naive_bayes": textops.Q_NAIVE_BAYES_SQL,
        "acf_daily": windows.acf_daily_oracle_sql(),
        "segment_intersect": spatial.segment_intersect_oracle_sql(),
        "hausdorff": spatial.hausdorff_oracle_sql(),
        "gi_star": regions.Q_GI_STAR_SQL,
        "local_moran": regions.Q_LOCAL_MORAN_SQL,
        "ripley_k": spatial.ripley_k_oracle_sql(),
        "nn_index": spatial.nn_index_oracle_sql(),
        "kde_density": spatial.kde_density_oracle_sql(),
        "std_ellipse": spatial.std_ellipse_oracle_sql(),
        "spacetime_join": spatial2.spacetime_join_oracle_sql(),
        "union_area": spatial2.union_area_oracle_sql(),
        "sssp_khop": spatial2.sssp_khop_oracle_sql(),
        "convex_hull": spatial2.convex_hull_oracle_sql(sf),
        "emerging_hotspot": spatial2.emerging_hotspot_oracle_sql(),
        "trajectory_resample": spatial2.trajectory_resample_oracle_sql(),
        "map_match": spatial2.map_match_oracle_sql(),
        "kriging_simple": spatial2.kriging_simple_oracle_sql(),
        "od_cost_matrix": spatial2.od_cost_matrix_oracle_sql(),
        "gwr_moments": spatial2.gwr_moments_oracle_sql(),
        "min_bounding_circle": spatial2.min_bounding_circle_oracle_sql(sf),
        "geary_c": spatial2.geary_c_oracle_sql(),
        "knox_stat": spatial2.knox_stat_oracle_sql(),
        "hilbert_keys": spatial2.hilbert_keys_oracle_sql(),
        "st_dbscan": spatial2.st_dbscan_oracle_sql(sf),
        "stkde": spatial2.stkde_oracle_sql(),
        "geodesic_area": spatial2.geodesic_area_oracle_sql(sf),
        "strahler_order": spatial2.strahler_order_oracle_sql(),
        "line_density": spatial2.line_density_oracle_sql(),
        "stay_points": spatial2.stay_points_oracle_sql(),
        "viterbi_match": spatial2.viterbi_match_oracle_sql(),
        "cost_path": spatial2.cost_path_oracle_sql(),
        "rect_intersect_area": spatial2.rect_intersect_area_oracle_sql(),
        "co_travel": spatial2.co_travel_oracle_sql(),
        "aspect_slope_exact": analytic2.aspect_slope_exact_oracle_sql(sf),
        "block_stats_minmax_exact": analytic2.block_stats_minmax_exact_oracle_sql(sf),
        "zonal_remap_exact": analytic2.zonal_remap_exact_oracle_sql(sf),
        "rasterize_attributes_exact": analytic2.rasterize_attributes_exact_oracle_sql(sf),
        "hexagon_exact": analytic2.hexagon_exact_oracle_sql(sf),
        "chuck_close_exact": analytic2.chuck_close_exact_oracle_sql(sf),
        "table_function_exact": analytic2.table_function_exact_oracle_sql(sf),
        "remove_nodata_exact": analytic2.remove_nodata_exact_oracle_sql(sf),
        "hillshade_exact": analytic2.hillshade_exact_oracle_sql(sf),
        "multidirectional_hillshade_exact":
            analytic2.multidirectional_hillshade_exact_oracle_sql(sf),
        "lsu_exact": analytic2.lsu_exact_oracle_sql(sf),
        "rf_exact": analytic2.rf_exact_oracle_sql(sf),
        # resume must be bit-identical to a one-shot run: SAME oracle
        "resumable_hillshade_exact": analytic2.hillshade_exact_oracle_sql(sf),
        "resumable_training_exact": textops.Q_TRAINING_DATA_PIPELINE_SQL,
        "nn_neighbors_exact": analytic2.nn_neighbors_exact_oracle_sql(sf),
        # the loaded reference template must match the hand-built chain's
        # oracle bit-for-bit
        "rft_vineyard_exact": analytic2.vineyard_exact_oracle_sql(sf),
        "vineyard_exact": analytic2.vineyard_exact_oracle_sql(sf),
        "seasonal_forecast_exact": analytic2.seasonal_forecast_exact_oracle_sql(sf),
        "tri_expr_exact": analytic2.tri_expr_exact_oracle_sql(sf),
        "stretch_range_exact": analytic2.stretch_range_exact_oracle_sql(sf),
        "topographic_c_exact": analytic2.topographic_c_exact_oracle_sql(sf),
        "heat_index": bandmath.Q_HEAT_INDEX_SQL,
        "q1_pricing": rel.Q1_SQL,
        "q3_shipping": rel.Q3_SHIPPING_SQL,
        "q17_small_quantity": rel.Q17_SQL,
        "orders_by_segment": rel.Q_ORDERS_BY_SEGMENT_SQL,
        "top_parts": rel.Q_TOP_PARTS_SQL,
        "distinct_brands": rel.Q_DISTINCT_BRANDS_SQL,
        "events_daily": rel.Q_EVENTS_DAILY_SQL,
        "nation_balance": rel.Q_NATION_BALANCE_SQL,
        "user_activity": rel.Q_USER_ACTIVITY_SQL,
        "orders_filter_join": rel.Q_ORDERS_FILTER_JOIN_SQL,
        "lineitem_part_join": rel.Q_LINEITEM_PART_JOIN_SQL,
        "cell_assign": spatial.Q_CELL_ASSIGN_SQL,
        "pip_rect": spatial.Q_PIP_RECT_SQL,
        "zonal_value": spatial.Q_ZONAL_VALUE_SQL,
        "knn": spatial.Q_KNN_SQL,
        "nn_classify": spatial.Q_NN_CLASSIFY_SQL,
        "knn_classify_vote": spatial.Q_KNN_CLASSIFY_VOTE_SQL,
        "token_stats": textops.Q_TOKEN_STATS_SQL,
        "lang_profile": textops.Q_LANG_PROFILE_SQL,
        "doc_prefix_groups": textops.Q_DOC_PREFIX_GROUPS_SQL,
        "exact_dedup": dedup.Q_EXACT_DEDUP_SQL,
        "simhash_poly": dedup.Q_SIMHASH_POLY_SQL,
        "minhash_lsh_exact": dedup.Q_MINHASH_LSH_SQL,
        "substring_dedup": dedup.Q_SUBSTRING_DEDUP_SQL,
        "importance_mass": trainprep.Q_IMPORTANCE_MASS_SQL,
        "heavy_hitters": trainprep.Q_HEAVY_HITTERS_SQL,
        "ann_topk": ann.Q_ANN_TOPK_SQL,
        "hopping_window": windows.Q_HOPPING_WINDOW_SQL,
        "unigram_logprob": windows.Q_UNIGRAM_LOGPROB_SQL,
        "event_debounce": windows.Q_EVENT_DEBOUNCE_SQL,
        "trailing_rate": windows.Q_TRAILING_RATE_SQL,
        "tile_cells": rq.tile_cells_oracle_sql(sf),
        "windchill": bandmath.Q_WINDCHILL_SQL,
        "convert_per_month": bandmath.Q_CONVERT_PER_MONTH_SQL,
        "latitude_corner": rq.latitude_oracle_sql(sf),
        "doc_media_join": rq.doc_media_join_oracle_sql(sf),
        "span_kinds": rq.span_kinds_oracle_sql(sf),
        "span_sequence_fp": rq.span_sequence_fp_oracle_sql(sf),
        "sessionize": rel.Q_SESSIONIZE_SQL,
        "event_funnel": rel.Q_EVENT_FUNNEL_SQL,
        "running_totals": rel.Q_RUNNING_TOTALS_SQL,
        "window_moving_max": rel.Q_WINDOW_MOVING_MAX_SQL,
        "asof_join": rel.Q_ASOF_JOIN_SQL,
        "tile_catalog": rq.tile_catalog_oracle_sql(sf),
        "key_metadata": rq.key_metadata_oracle_sql(sf),
        "random_source_exact": rq.RANDOM_SOURCE_EXACT_SQL,
        "d8_flow_exact": rq.D8_FLOW_EXACT_SQL,
        "zonal_value_salted": spatial.Q_ZONAL_VALUE_SQL,
        "fuzzy_mssmall_two_phase": bandmath.Q_FUZZY_MSSMALL_SQL,
        "anti_join": rel.Q_ANTI_JOIN_SQL,
        "heat_index_f8": bandmath.Q_HEAT_INDEX_F8_SQL,
        "fish_habitat_f8": bandmath.Q_FISH_HABITAT_F8_SQL,
        "fuzzy_linear": bandmath.Q_FUZZY_LINEAR_SQL,
        "fuzzy_gaussian": bandmath.Q_FUZZY_GAUSSIAN_SQL,
        "arithmetic_cols": bandmath.Q_ARITHMETIC_COLS_SQL,
        "range_join": rel.Q_RANGE_JOIN_SQL,
        "window_lag": rel.Q_WINDOW_LAG_SQL,
        "nation_top_customers": rel.Q_NATION_TOP_CUSTOMERS_SQL,
        "segment_median_price": rel.Q_SEGMENT_MEDIAN_PRICE_SQL,
        "doc_zone_join_rect": spatial.doc_zone_join_rect_oracle_sql(sf),
        "tile_parent_cells": rq.tile_parent_cells_oracle_sql(sf),
        "ann_dot_topk": ann.Q_ANN_DOT_TOPK_SQL,
        "quality_counts": textops.Q_QUALITY_COUNTS_SQL,
        "dedup_mark": textops.Q_DEDUP_MARK_SQL,
        "training_data_pipeline": textops.Q_TRAINING_DATA_PIPELINE_SQL,
        "embedding_nn_dedup": dedup.Q_EMBEDDING_NN_DEDUP_SQL,
        # the k-means ball-pruned lowering shares the broadcast pin's exact
        # oracle (interchangeable-lowerings discipline)
        "video_frame_plan": rq.video_frame_plan_oracle_sql(sf),
        "doc_zone_join": spatial.doc_zone_join_oracle_sql(sf),
        "knn_cell_ring": spatial.Q_KNN_SQL,
        "adaptive_cover_convex": spatial.adaptive_cover_convex_oracle_sql(sf),
        "segment_except": rel.Q_SEGMENT_EXCEPT_SQL,
        "nation_segment_rollup": rel.Q_NATION_SEGMENT_ROLLUP_SQL,
        "event_type_pivot": rel.Q_EVENT_TYPE_PIVOT_SQL,
        "lsh_bucket_sizes": ann.lsh_bucket_sizes_oracle_sql(),
        "embedding_decontam": ann.Q_EMBEDDING_DECONTAM_SQL,
        "hard_negatives": ann.Q_HARD_NEGATIVES_SQL,
        "rect_overlap_join": spatial.Q_RECT_OVERLAP_JOIN_SQL,
        "rect_overlap_join_split": spatial.Q_RECT_OVERLAP_JOIN_SQL,
        "radius_join": spatial.Q_RADIUS_JOIN_SQL,
        "knn_join": spatial.Q_KNN_JOIN_SQL,
        "segment_join": spatial.Q_SEGMENT_JOIN_SQL,
        "polygon_geometry": spatial.polygon_geometry_oracle_sql(sf),
        "region_label": regions.Q_REGION_LABEL_SQL,
        "los_viewshed": regions.Q_LOS_VIEWSHED_SQL,
        "region_geometry": regions.Q_REGION_GEOMETRY_SQL,
        "euc_distance": regions.Q_EUC_DISTANCE_SQL,
        "euc_allocation": regions.Q_EUC_ALLOCATION_SQL,
        "grid_bfs": regions.Q_GRID_BFS_SQL,
        "watershed_basins": rq.WATERSHED_BASINS_SQL,
        "flow_length": rq.FLOW_LENGTH_SQL,
        "skyline": rel.Q_SKYLINE_SQL,
        "interval_union": rel.Q_INTERVAL_UNION_SQL,
        "rollup_sets": rel.Q_ROLLUP_SETS_SQL,
        "scd2_intervals": rel.Q_SCD2_INTERVALS_SQL,
        "pagerank": trainprep.pagerank_oracle_sql(),
        "pmi_bigrams": trainprep.Q_PMI_BIGRAMS_SQL,
        "hash_classifier": textops.Q_HASH_CLASSIFIER_SQL,
        "bpe_merge_step": textops.Q_BPE_MERGE_STEP_SQL,
        "triangle_count": trainprep.TRIANGLE_COUNT_SQL,
        "median_select": rel.Q_MEDIAN_SELECT_SQL,
        "mad_select": rel.Q_MAD_SELECT_SQL,
        "running_distinct": rel.Q_RUNNING_DISTINCT_SQL,
        "user_type_sets": rel.Q_USER_TYPE_SETS_SQL,
        "p99_select": rel.Q_P99_SELECT_SQL,
        "ivf_sq_search": ann.ivf_sq_oracle_sql(),
        "pq_adc_topk": ann.Q_PQ_ADC_SQL,
        "ivfpq_search": ann.Q_IVFPQ_SQL,
        "kmeans_embed": ann.kmeans_oracle_sql(),
        "semantic_dedup_kmeans": ann.semantic_dedup_oracle_sql(),
        "ngram_jaccard": dedup.Q_NGRAM_JACCARD_SQL,
        "typo_pairs": dedup.Q_TYPO_PAIRS_SQL,
        "dup_clusters": trainprep.dup_clusters_oracle_sql(),
        "stratified_sample": trainprep.Q_STRATIFIED_SAMPLE_SQL,
        "seq_packing": trainprep.Q_SEQ_PACKING_SQL,
        "bloom_anti_dedup": trainprep.Q_BLOOM_ANTI_DEDUP_SQL,
        "tfidf_top_terms": trainprep.Q_TFIDF_TOP_TERMS_SQL,
        "domain_cap": trainprep.Q_DOMAIN_CAP_SQL,
        "doc_repetition": trainprep.Q_DOC_REPETITION_SQL,
        "shuffle_order": trainprep.Q_SHUFFLE_ORDER_SQL,
        "budget_select": trainprep.Q_BUDGET_SELECT_SQL,
        "hll_distinct": trainprep.Q_HLL_DISTINCT_SQL,
        "paragraph_dedup": trainprep.Q_PARAGRAPH_DEDUP_SQL,
        "csv_source": textops.Q_SOURCE_PROFILE_SQL,
        "json_source": textops.Q_SOURCE_PROFILE_SQL,
        "feather_source": textops.Q_SOURCE_PROFILE_SQL,
        "sink_roundtrip": textops.Q_SOURCE_PROFILE_SQL,
        "inverted_index": textops.Q_INVERTED_INDEX_SQL,
        "bm25_topk": textops.Q_BM25_SQL,
        "doc_chunking": trainprep.Q_DOC_CHUNKING_SQL,
        "mixture_rebalance": trainprep.Q_MIXTURE_REBALANCE_SQL,
        "boilerplate": textops.Q_BOILERPLATE_SQL,
        "adaptive_cover": spatial.adaptive_cover_oracle_sql(sf),
        "pattern_scrub": textops.Q_PATTERN_SCRUB_SQL,
        "decontaminate": textops.Q_DECONTAMINATE_SQL,
        "left_outer_join": rel.Q_LEFT_OUTER_JOIN_SQL,
        "exact_percentiles": rel.Q_EXACT_PERCENTILES_SQL,
        "bpe_train": textops.bpe_train_oracle_sql(),
        "bpe_train_encode": textops.bpe_train_encode_oracle_sql(),
        "logreg_train": textops.logreg_train_oracle_sql(),
        "gap_fill": windows.Q_GAP_FILL_SQL,
        "gap_fill_linear": windows.Q_GAP_FILL_LINEAR_SQL,
        "cms_sketch": textops.Q_CMS_SKETCH_SQL,
        # minhash_dedup / simhash / pixel-stat raster queries: not
        # SQL-expressible (pandas hash / RNG pixel payloads) → rows-only;
        # their pixel-exact correctness is gated by the pytest golden suite.
    }
