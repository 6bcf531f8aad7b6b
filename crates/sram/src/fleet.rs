//! Fleet observability bridge: re-exports the sram-side process-wide
//! caches (plane cache, rep-delta resolver) as gauges in the global
//! metrics registry.
//!
//! The plane cache and the delta resolver already keep their own
//! relaxed-atomic statistics ([`crate::plane_cache_stats`],
//! [`crate::delta::stats`]) because they are process-wide caches shared
//! across campaigns. Those numbers are wall-clock/observability facts —
//! they never feed resolution results — so mirroring them into the
//! metrics plane preserves the out-of-band invariant: a `METRICS`
//! scrape sees the cache working set without touching any simulated
//! state.
//!
//! Publication is pull-based: callers (the sweep daemon's `METRICS`
//! verb) invoke [`publish_fleet_metrics`] immediately before rendering,
//! so the gauges are as fresh as the scrape that reads them and the
//! simulation hot path pays nothing between scrapes.

use voltboot_telemetry::metrics;

/// Snapshots [`crate::plane_cache_stats`] and [`crate::delta::stats`]
/// into `voltboot_sram_*` gauges in [`metrics::global`]. Cheap (a
/// handful of relaxed loads and stores); call right before rendering
/// an exposition so scrape values are current.
pub fn publish_fleet_metrics() {
    if !metrics::enabled() {
        return;
    }
    let reg = metrics::global();
    let plane = crate::engine::plane_cache_stats();
    reg.gauge(
        "voltboot_sram_plane_cache_entries",
        "Dies currently held by the process-wide plane cache.",
        &[],
    )
    .set(plane.entries as f64);
    reg.gauge(
        "voltboot_sram_plane_cache_cells",
        "Plane cells currently cached (padded to whole tiles).",
        &[],
    )
    .set(plane.cells as f64);
    reg.gauge(
        "voltboot_sram_plane_cache_baselines",
        "Built rep-delta baselines currently cached.",
        &[],
    )
    .set(plane.baselines as f64);
    reg.gauge(
        "voltboot_sram_plane_cache_baseline_bytes",
        "Bytes held by built rep-delta baselines.",
        &[],
    )
    .set(plane.baseline_bytes as f64);
    reg.gauge(
        "voltboot_sram_plane_cache_baseline_hot_words",
        "Hot words (words with any lost cell) across cached baselines.",
        &[],
    )
    .set(plane.baseline_hot_words as f64);
    reg.gauge(
        "voltboot_sram_plane_evictions_total",
        "Dies evicted from the plane cache since process start.",
        &[],
    )
    .set(plane.plane_evictions as f64);
    reg.gauge(
        "voltboot_sram_baseline_evictions_total",
        "Rep-delta baselines evicted since process start.",
        &[],
    )
    .set(plane.baseline_evictions as f64);
    let delta = crate::delta::stats();
    reg.gauge(
        "voltboot_sram_delta_reps_total",
        "Reps resolved through the sparse rep-delta path since process start.",
        &[],
    )
    .set(delta.delta_reps as f64);
    reg.gauge(
        "voltboot_sram_delta_baselines_built_total",
        "Rep-delta baselines scanned and materialized since process start.",
        &[],
    )
    .set(delta.baselines_built as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn publish_sets_gauges_in_global_registry() {
        let _guard = crate::global_state_lock();
        metrics::set_enabled(true);
        publish_fleet_metrics();
        let reg = metrics::global();
        // Gauges exist (value depends on what other tests have cached).
        assert!(reg.gauge_value("voltboot_sram_plane_cache_entries", &[]).is_some());
        assert!(reg.gauge_value("voltboot_sram_delta_reps_total", &[]).is_some());
        let rendered = reg.render();
        assert!(rendered.contains("voltboot_sram_plane_cache_entries"));
        assert!(rendered.contains("voltboot_sram_delta_baselines_built_total"));
    }
}
