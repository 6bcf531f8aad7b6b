//! Bounded-cache behavior of the plane/baseline cache under fleet-scale
//! die counts, and the out-of-band stats that surface it.
//!
//! Lives in its own integration binary (own process) because every test
//! here reasons about global cache occupancy; a shared `LOCK` serializes
//! them against each other within the process.

use std::sync::Mutex;
use std::time::Duration;
use voltboot_sram::engine::MAX_CACHED_DIES;
use voltboot_sram::{
    clear_plane_cache, delta, plane_cache_stats, ArrayConfig, OffEvent, ResolutionMode, SramArray,
    Temperature,
};

static LOCK: Mutex<()> = Mutex::new(());

fn cycle(s: &mut SramArray, mode: ResolutionMode, event: OffEvent) {
    s.power_off(event).unwrap();
    s.elapse(Duration::from_millis(5), Temperature::from_celsius(25.0));
    s.power_on_with(mode).unwrap();
}

/// A sweep over more virtual dies than the entry cap: the cache stays
/// bounded, the eviction counter moves, and the newest dies survive
/// while the oldest are shed (FIFO).
#[test]
fn fleet_sweep_stays_under_the_entry_cap() {
    let _g = LOCK.lock().unwrap();
    clear_plane_cache();
    let before = plane_cache_stats();
    let overshoot = 40u64;
    for die in 0..MAX_CACHED_DIES as u64 + overshoot {
        let mut s = SramArray::new(ArrayConfig::with_bits("fleet", 256), 0xF_1EE7_0000 + die);
        s.power_on().unwrap();
    }
    let stats = plane_cache_stats();
    assert!(
        stats.entries <= MAX_CACHED_DIES,
        "cache must stay bounded, has {} entries",
        stats.entries
    );
    assert!(
        stats.plane_evictions >= before.plane_evictions + overshoot,
        "sweeping past the cap must evict (before {}, after {})",
        before.plane_evictions,
        stats.plane_evictions
    );
    clear_plane_cache();
}

/// Per-die baseline slots are FIFO-bounded: resolving more repeated
/// conditions than one die may retain sheds the oldest baselines, and
/// the shed shows up in the eviction counter — while every rep keeps
/// resolving byte-identically (checked against a dense twin).
#[test]
fn per_die_baseline_fifo_is_bounded_and_bit_exact() {
    let _g = LOCK.lock().unwrap();
    clear_plane_cache();
    let config = ArrayConfig::with_bits("fifo", 4096);
    let seed = 0xF1F0_u64;
    let mut sparse = SramArray::new(config.clone(), seed);
    let mut dense = SramArray::new(config, seed);
    sparse.power_on().unwrap();
    dense.power_on_with(ResolutionMode::BatchedFull).unwrap();
    let before = plane_cache_stats();
    let built_before = delta::stats().baselines_built;
    // Seven distinct conditions, three reps each: each settles a
    // baseline on rep 2, overflowing the per-die FIFO (4 slots).
    for c in 0..7 {
        let event = OffEvent::held_with_droop(0.9, 0.25 + 0.01 * c as f64);
        for _ in 0..3 {
            for s in [&mut sparse, &mut dense] {
                s.fill(0x96).unwrap();
            }
            cycle(&mut sparse, ResolutionMode::Batched, event);
            cycle(&mut dense, ResolutionMode::BatchedFull, event);
            assert_eq!(sparse.snapshot().unwrap(), dense.snapshot().unwrap());
        }
    }
    let stats = plane_cache_stats();
    assert!(stats.baselines <= 4, "per-die FIFO must bound baselines, has {}", stats.baselines);
    assert!(
        stats.baseline_evictions >= before.baseline_evictions + 3,
        "overflowing the FIFO must evict (before {}, after {})",
        before.baseline_evictions,
        stats.baseline_evictions
    );
    assert_eq!(delta::stats().baselines_built - built_before, 7, "one build per condition");
    clear_plane_cache();
}

/// The stats surface itself: occupancy (entries, cells, baselines,
/// bytes, hot words) reflects what a settled baseline holds, and the
/// delta usage counters move when reps ride the sparse path.
#[test]
fn stats_reflect_settled_baselines() {
    let _g = LOCK.lock().unwrap();
    clear_plane_cache();
    let config = ArrayConfig::with_bits("stats", 8192);
    let mut s = SramArray::new(config, 0x57A75);
    s.power_on().unwrap();
    let reps_before = delta::stats().delta_reps;
    // Cold partial-decay cycles: cold enough that the off interval is
    // inside the decay-budget distribution (room temperature would lose
    // every cell, which owes its sample and resolves nothing).
    for _ in 0..4 {
        s.fill(0xC3).unwrap();
        s.power_off(OffEvent::unpowered()).unwrap();
        s.elapse(Duration::from_millis(20), Temperature::from_celsius(-110.0));
        s.power_on_with(ResolutionMode::Batched).unwrap();
    }
    let stats = plane_cache_stats();
    assert_eq!(stats.entries, 1);
    assert!(stats.cells >= 8192);
    assert_eq!(stats.baselines, 1, "one settled condition");
    assert!(stats.baseline_bytes > 0);
    assert!(
        stats.baseline_hot_words > 0,
        "an unpowered 5 ms cycle at 25 C loses cells, so hot words exist"
    );
    assert!(
        delta::stats().delta_reps >= reps_before + 2,
        "reps 3..4 (post-build) ride the delta path"
    );
    clear_plane_cache();
}
