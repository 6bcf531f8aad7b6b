//! Small measurement helpers: order statistics, windows over the
//! metrics plane's rep-latency histogram, Prometheus summary reads, and
//! the peak of bytes live on the heap.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use voltboot_bench::dashboard::Scrape;
use voltboot_telemetry::hist::{bucket_high, bucket_low};
use voltboot_telemetry::metrics::{self, HistSnapshot, LatencyHist};

/// Samples that must lie beyond a tail quantile before it is reported:
/// a p90 resting on two samples is noise, not a tail.
pub const MIN_BEYOND: usize = 10;

/// The median of `samples` (mean of the middle pair for even counts).
///
/// # Panics
///
/// On an empty slice: every caller measures at least one sample.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The nearest-rank `q`-quantile of `samples`, or `None` when fewer
/// than [`MIN_BEYOND`] samples lie beyond it.
pub fn tail_quantile(samples: &[f64], q: f64) -> Option<f64> {
    let n = samples.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
    if n == 0 || n - rank < MIN_BEYOND {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank - 1])
}

/// The process-global rep-latency histogram the campaign runner feeds
/// (`voltboot_rep_duration_ns`, one sample per finished rep).
pub fn rep_histogram() -> LatencyHist {
    metrics::global().histogram(
        "voltboot_rep_duration_ns",
        "Wall-clock nanoseconds one campaign repetition took, retries included.",
        &[],
    )
}

/// The rep latencies (ms) recorded between two snapshots of the same
/// histogram. The histogram keeps bucket counts, not samples, so each
/// bucket's samples are spread evenly across its range: a median then
/// moves smoothly instead of jumping a whole bucket (up to 6.25 %)
/// between runs.
pub fn window_ms(before: &HistSnapshot, after: &HistSnapshot) -> Vec<f64> {
    let mut out = Vec::new();
    for &(idx, n_after) in &after.buckets {
        let n_before = before.buckets.iter().find(|&&(i, _)| i == idx).map_or(0, |&(_, n)| n);
        let n = n_after.saturating_sub(n_before);
        let (low, high) = (bucket_low(idx) as f64, bucket_high(idx) as f64 + 1.0);
        for k in 0..n {
            let ns = low + (high - low) * (k as f64 + 0.5) / n as f64;
            out.push(ns / 1e6);
        }
    }
    out
}

/// A Prometheus summary's quantile sample (`name{quantile="q"}`) from
/// a `METRICS` scrape.
pub fn summary_quantile(scrape: &Scrape, name: &str, q: &str) -> Option<f64> {
    scrape.value(name, &[("quantile", q)])
}

/// The system allocator, counting the bytes live on the heap and their
/// peak. The benchmark reports the peak rather than the resident-set
/// high-water mark: how much freed memory the C allocator keeps mapped
/// depends on which thread freed it when, and moves `VmHWM` by 10-20 %
/// between identical runs, while the live peak is set by the program.
pub struct PeakHeap;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters (statistics
// only, hence `Relaxed`) never influence a returned pointer.
unsafe impl GlobalAlloc for PeakHeap {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` obligations pass through.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as `alloc`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from `System`; the caller's obligations on
        // `layout` and `new_size` pass through.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            shrank(layout.size());
            grew(new_size);
        }
        new
    }
}

/// The most bytes live on the heap at once since the process started,
/// in MiB (needs [`PeakHeap`] as the global allocator).
pub fn peak_heap_mib() -> f64 {
    PEAK.load(Ordering::Relaxed) as f64 / (1u64 << 20) as f64
}

/// Milliseconds since `t`.
pub fn ms_since(t: std::time::Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_quantile_refuses_fewer_than_ten_samples_beyond() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 of 100 samples is the 90th; exactly ten lie beyond it.
        assert_eq!(tail_quantile(&samples, 0.9), Some(90.0));
        // p91 leaves nine beyond: refused.
        assert_eq!(tail_quantile(&samples, 0.91), None);
        assert_eq!(tail_quantile(&samples[..99], 0.9), None);
        assert_eq!(tail_quantile(&[], 0.5), None);
        assert_eq!(tail_quantile(&samples[..20], 0.5), Some(10.0));
        assert_eq!(tail_quantile(&samples[..19], 0.5), None);
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn summary_quantiles_come_out_of_a_rendered_exposition() {
        let reg = metrics::MetricsRegistry::new();
        let h = reg.histogram("voltboot_journal_fsync_ns", "fsync latency", &[]);
        for v in [1_000u64, 2_000, 3_000, 40_000] {
            h.observe(v);
        }
        let scrape = Scrape::parse(&reg.render());
        let p50 = summary_quantile(&scrape, "voltboot_journal_fsync_ns", "0.5").unwrap();
        assert_eq!(p50, h.snapshot().quantile(0.5) as f64);
        assert!((1_000.0..=2_200.0).contains(&p50), "p50 {p50}");
        assert_eq!(summary_quantile(&scrape, "voltboot_journal_fsync_ns", "0.99"), Some(40_000.0));
        assert_eq!(summary_quantile(&scrape, "voltboot_journal_fsync_ns", "0.75"), None);
        assert_eq!(scrape.value("voltboot_journal_fsync_ns_count", &[]), Some(4.0));
    }

    #[test]
    fn window_spreads_only_the_new_samples_across_their_buckets() {
        let h = metrics::MetricsRegistry::new().histogram("t_ns", "t", &[]);
        h.observe(5_000_000);
        let before = h.snapshot();
        for _ in 0..4 {
            h.observe(10_000_000);
        }
        let window = window_ms(&before, &h.snapshot());
        assert_eq!(window.len(), 4);
        for ms in &window {
            assert!((9.6..10.7).contains(ms), "{ms} ms lies outside the 10 ms bucket");
        }
        assert!(window.windows(2).all(|w| w[0] < w[1]), "spread, not stacked: {window:?}");
    }
}
