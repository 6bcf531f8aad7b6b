//! Rep-delta resolution: amortize the deterministic die across reps.
//!
//! Sweeps and PUF-fleet campaigns run thousands-to-millions of power
//! cycles of the *same die under the same condition* — and for a fixed
//! `(die, distribution, condition)` the retention outcome of every cell
//! is identical across reps by construction: the keep-mask is a pure
//! function of the die planes and the off-interval query (see
//! [`keep_chunk`'s docs](crate::engine)), independent of the stored
//! data and of the power-on event id. Only the per-event metastable
//! samples vary. A full resolve nevertheless re-scans every bit-plane
//! row of every tile on every rep.
//!
//! This module adds the sparse path. On the **second** resolve of a
//! `(die, condition)` key a settled **baseline** is materialized next
//! to the die's plane-cache entry:
//!
//! * the **hot-word index** — every word with at least one lost cell,
//!   recorded as `HOT_STRIDE` words per entry: the *absolute* word
//!   index, the keep mask (padding bits forced on), the strong-1 values
//!   of the lost cells, and the metastable mask of the lost cells;
//! * the precomputed retained count.
//!
//! Subsequent reps skip the dense scan entirely: cold words (no lost
//! cell) are left untouched in place — exactly what the dense path does
//! to them — and each hot word is rewritten as
//! `data = (data & keep) | strong1 | meta_samples`. Per-rep cost scales
//! with the lost-cell count, not the array size.
//!
//! # Byte-identity
//!
//! The delta output is byte-identical to a full resolve at every seed,
//! fault plan, and thread count:
//!
//! * **Cold words.** The dense kernels only write words containing lost
//!   cells (`data[i] = (data[i] & !lost) | value` runs under
//!   `lost != 0`); a word with no lost cell is bit-for-bit untouched on
//!   both paths.
//! * **Hot words.** `keep` is stored as `keep | !valid`, so
//!   `data & keep` preserves tail-word padding bits exactly like the
//!   dense path's `data & !lost` (padding is never lost). The strong-1
//!   contribution is the power-up block's strong-1 mask ANDed with the
//!   same lost mask.
//! * **Metastable samples.** Both paths call the *same*
//!   [`engine::sample_meta_word`] kernel with the same hoisted
//!   `event_base(seed, event_id)` and the same **absolute** cell
//!   indices, so the counter-mode RNG words drawn per cell per event
//!   are identical — the sparse path doesn't re-seed or re-index
//!   anything, it just skips cells that were never metastable-and-lost.
//! * **Faults.** Readout bit errors and extraction dropouts corrupt
//!   extracted images downstream of resolution; brown-out and
//!   reconnect-order faults change the [`OffEvent`]/stress a rep
//!   resolves under, i.e. they change the *condition key*, so a faulted
//!   rep either finds a baseline for its exact faulted condition or
//!   takes the full resolve. Fault-touched words are therefore in the
//!   hot set of whichever baseline serves the rep — by construction,
//!   not by a separate union step.
//!
//! # Promotion and leases
//!
//! Baselines are only built for conditions seen at least twice
//! ([`engine::baseline_slot`]): brown-out depths are continuous, so a
//! faulted rep's condition is usually unique and must not pay a build.
//! Reps hold baselines through `Arc` leases — eviction and
//! [`clear_plane_cache`](crate::clear_plane_cache) only forget a
//! baseline, they never invalidate one mid-rep. A thread-local lease
//! stamped with the cache generation makes the steady state lock-free
//! and allocation-free.
//!
//! Usage counters ([`stats`]) are deliberately out-of-band: whether a
//! given rep hits the delta path depends on cross-thread scheduling,
//! and recording that into campaign telemetry would break the
//! byte-identical-reports guarantee.

use crate::array::OffEvent;
use crate::bits::PackedBits;
use crate::engine::{self, DiePlanes, TILE_WORDS};
use crate::rng;
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Words per hot-list record: absolute word index, keep mask, strong-1
/// value mask, metastable mask.
pub(crate) const HOT_STRIDE: usize = 4;

/// A settled baseline for one `(die, distribution, condition)` key —
/// see the [module docs](self) for the layout and identity argument.
pub(crate) struct Baseline {
    /// Leased plane set: keeps the power-up block (read by metastable
    /// sampling) alive even if the die is evicted from the cache.
    planes: Arc<DiePlanes>,
    /// Flat hot-word records, [`HOT_STRIDE`] words each, sorted by
    /// ascending absolute word index.
    hot: Vec<u64>,
    /// Retained-cell count — a pure function of the condition.
    retained: usize,
}

impl Baseline {
    pub(crate) fn new(planes: Arc<DiePlanes>, hot: Vec<u64>, retained: usize) -> Self {
        debug_assert_eq!(hot.len() % HOT_STRIDE, 0);
        Baseline { planes, hot, retained }
    }

    /// Heap bytes charged against the cache's baseline byte cap.
    pub(crate) fn bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.hot.capacity() * std::mem::size_of::<u64>()
    }

    /// Number of hot words (words with at least one lost cell).
    pub(crate) fn hot_words(&self) -> usize {
        self.hot.len() / HOT_STRIDE
    }

    /// Applies one rep: rewrites only the hot words, sampling fresh
    /// metastable values for event `event_id`, and returns the retained
    /// count. Cold words are untouched, exactly like the dense path.
    fn apply(&self, data: &mut PackedBits, event_id: u64) -> usize {
        let ev_base = rng::event_base(self.planes.seed(), event_id);
        let words = data.words_mut();
        // The baseline's scan built every power-up tile, so each fetch
        // is one load of a built tile, never a wait on a build.
        for rec in self.hot.chunks_exact(HOT_STRIDE) {
            let w = rec[0] as usize;
            let pw = &self.planes.powerup_tile(w / TILE_WORDS)[w % TILE_WORDS];
            let meta = engine::sample_meta_word(rec[3], w, pw, &self.planes, ev_base);
            words[w] = (words[w] & rec[1]) | rec[2] | meta;
        }
        self.retained
    }
}

/// Process-wide kill switch flipped by [`force_disable`].
static FORCE_OFF: AtomicBool = AtomicBool::new(false);

/// Reps resolved through the sparse delta path since process start.
static DELTA_REPS: AtomicU64 = AtomicU64::new(0);

/// Baselines scanned and materialized since process start.
static BASELINES_BUILT: AtomicU64 = AtomicU64::new(0);

/// `VOLTBOOT_NO_DELTA` escape hatch for bisection: any value other than
/// empty or `0` disables the delta path for the whole process. Read
/// once — flipping the variable mid-process has no effect (use
/// [`force_disable`] for in-process toggling).
fn env_enabled() -> bool {
    static ENV: OnceLock<bool> = OnceLock::new();
    *ENV.get_or_init(
        || !matches!(std::env::var("VOLTBOOT_NO_DELTA"), Ok(v) if !v.is_empty() && v != "0"),
    )
}

/// Whether the rep-delta path is currently eligible. `false` routes
/// every batched resolve through the dense engine (output is
/// byte-identical either way — only the cost changes).
pub fn enabled() -> bool {
    env_enabled() && !FORCE_OFF.load(Ordering::Relaxed)
}

/// Forces the delta path off (`true`) or back to the default (`false`)
/// process-wide. The `VOLTBOOT_NO_DELTA` environment hatch wins over
/// re-enabling. Used by the `delta_campaign` integration test to
/// byte-compare forced-off and forced-on campaign runs in one process.
pub fn force_disable(off: bool) {
    FORCE_OFF.store(off, Ordering::Relaxed);
}

/// Out-of-band usage counters for the delta path — see the
/// [module docs](self) for why these never enter campaign telemetry.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeltaStats {
    /// Reps resolved through the sparse delta path since process start.
    pub delta_reps: u64,
    /// Baselines scanned and materialized since process start.
    pub baselines_built: u64,
}

/// Snapshot of the delta-path usage counters.
pub fn stats() -> DeltaStats {
    DeltaStats {
        delta_reps: DELTA_REPS.load(Ordering::Relaxed),
        baselines_built: BASELINES_BUILT.load(Ordering::Relaxed),
    }
}

/// The sweep condition half of a baseline key (the die half is the
/// plane-cache key). Raw f64 bit patterns — two conditions are the same
/// baseline only when they would produce identical queries.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct BaselineKey {
    held: bool,
    voltage: u64,
    transient: u64,
    stress: u64,
}

impl BaselineKey {
    fn new(event: OffEvent, stress: f64) -> Self {
        match event {
            OffEvent::Unpowered => {
                BaselineKey { held: false, voltage: 0, transient: 0, stress: stress.to_bits() }
            }
            OffEvent::Held { voltage, transient_min_voltage } => BaselineKey {
                held: true,
                voltage: voltage.to_bits(),
                transient: transient_min_voltage.to_bits(),
                stress: stress.to_bits(),
            },
        }
    }
}

/// A rep's hold on a baseline: the `Arc` keeps the data alive across
/// concurrent eviction or [`clear_plane_cache`](crate::clear_plane_cache);
/// the generation stamp retires the lease at the next rep boundary
/// after a clear.
struct Lease {
    generation: u64,
    plane_key: engine::PlaneKey,
    key: BaselineKey,
    baseline: Arc<Baseline>,
}

thread_local! {
    static LEASE: RefCell<Option<Lease>> = const { RefCell::new(None) };
}

/// Resolves one power cycle through the rep-delta path, if a baseline
/// for this `(die, condition)` exists or is due. Returns the retained
/// count, or `None` when this rep must take the full dense resolve
/// (path disabled, first sight of the condition, or the die fell out
/// of the cache).
pub(crate) fn resolve_delta(
    data: &mut PackedBits,
    planes: &Arc<DiePlanes>,
    event: OffEvent,
    stress: f64,
    event_id: u64,
) -> Option<usize> {
    if !enabled() {
        return None;
    }
    let key = BaselineKey::new(event, stress);
    let plane_key = planes.key();
    let generation = engine::cache_generation();
    // Steady state: the lease taken for the previous rep still matches —
    // no lock, no allocation.
    let leased = LEASE.with(|l| {
        l.borrow().as_ref().and_then(|lease| {
            (lease.generation == generation && lease.plane_key == plane_key && lease.key == key)
                .then(|| lease.baseline.clone())
        })
    });
    let baseline = match leased {
        Some(b) => b,
        None => {
            let slot = engine::baseline_slot(&plane_key, &key)?;
            let mut built_here = false;
            let b = slot
                .get_or_init(|| {
                    built_here = true;
                    Arc::new(engine::build_baseline(planes, event, stress))
                })
                .clone();
            if built_here {
                BASELINES_BUILT.fetch_add(1, Ordering::Relaxed);
                engine::note_baseline_built(&plane_key, &key, b.bytes());
            }
            LEASE.with(|l| {
                *l.borrow_mut() = Some(Lease { generation, plane_key, key, baseline: b.clone() });
            });
            b
        }
    };
    let retained = baseline.apply(data, event_id);
    DELTA_REPS.fetch_add(1, Ordering::Relaxed);
    Some(retained)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::{ArrayConfig, ResolutionMode, SramArray};
    use crate::Temperature;
    use std::time::Duration;

    fn cycle(s: &mut SramArray, mode: ResolutionMode, event: OffEvent) -> usize {
        s.power_off(event).unwrap();
        s.elapse(Duration::from_millis(5), Temperature::from_celsius(25.0));
        s.power_on_with(mode).unwrap().retained
    }

    /// The promotion policy: rep 1 full (condition noted), rep 2 builds
    /// the baseline, rep 3+ applies it — every rep byte-identical to a
    /// dense-path twin.
    #[test]
    fn delta_engages_on_third_rep_and_stays_bit_exact() {
        let _guard = crate::global_state_lock();
        crate::clear_plane_cache();
        let config = ArrayConfig::with_bits("delta", 65 * 64 + 17);
        let seed = 0xDE17A_u64;
        let mut sparse = SramArray::new(config.clone(), seed);
        let mut dense = SramArray::new(config, seed);
        sparse.power_on().unwrap();
        dense.power_on_with(ResolutionMode::BatchedFull).unwrap();
        let event = OffEvent::held_with_droop(0.8, 0.31);
        let before = stats();
        for rep in 0..5 {
            for s in [&mut sparse, &mut dense] {
                s.fill(0xA5).unwrap();
            }
            let rs = cycle(&mut sparse, ResolutionMode::Batched, event);
            let rd = cycle(&mut dense, ResolutionMode::BatchedFull, event);
            assert_eq!(rs, rd, "rep {rep} retained counts differ");
            assert_eq!(
                sparse.snapshot().unwrap(),
                dense.snapshot().unwrap(),
                "rep {rep} images differ"
            );
        }
        let after = stats();
        assert_eq!(after.baselines_built - before.baselines_built, 1, "one baseline per key");
        assert!(after.delta_reps >= before.delta_reps + 4, "reps 2..5 ride the delta path");
        crate::clear_plane_cache();
    }

    /// `force_disable` routes everything dense again (and back), with
    /// identical output either way.
    #[test]
    fn force_disable_routes_dense_and_is_bit_exact() {
        let _guard = crate::global_state_lock();
        crate::clear_plane_cache();
        let config = ArrayConfig::with_bits("toggle", 4096);
        let mut a = SramArray::new(config.clone(), 0x70661E);
        let mut b = SramArray::new(config, 0x70661E);
        a.power_on().unwrap();
        b.power_on().unwrap();
        let event = OffEvent::unpowered();
        for rep in 0..4 {
            // Flip the kill switch every rep; outputs must not care.
            force_disable(rep % 2 == 0);
            for s in [&mut a, &mut b] {
                s.fill(0x3C).unwrap();
            }
            let ra = cycle(&mut a, ResolutionMode::Batched, event);
            let rb = cycle(&mut b, ResolutionMode::BatchedFull, event);
            assert_eq!(ra, rb);
            assert_eq!(a.snapshot().unwrap(), b.snapshot().unwrap(), "rep {rep} images differ");
        }
        force_disable(false);
        crate::clear_plane_cache();
    }

    /// Satellite 6 mirror of the PR-6 plane-cache hammer: threads run
    /// delta-eligible cycles while another thread clears the cache; the
    /// `Arc` lease must keep every in-flight baseline alive and every
    /// image byte-identical to an isolated dense reference.
    #[test]
    fn clear_during_resolve_keeps_leased_baselines_valid() {
        let _guard = crate::global_state_lock();
        crate::clear_plane_cache();
        let config = ArrayConfig::with_bits("hammer", 8192);
        let seed = 0xC1EA_DE17A_u64;
        let event = OffEvent::held_with_droop(0.9, 0.3);
        // Dense reference, computed once up front.
        let mut reference = SramArray::new(config.clone(), seed);
        reference.power_on_with(ResolutionMode::BatchedFull).unwrap();
        let mut expected = Vec::new();
        for _ in 0..12 {
            reference.fill(0x96).unwrap();
            cycle(&mut reference, ResolutionMode::BatchedFull, event);
            expected.push(reference.snapshot().unwrap());
        }
        std::thread::scope(|s| {
            for _ in 0..4 {
                let config = config.clone();
                let expected = &expected;
                s.spawn(move || {
                    let mut die = SramArray::new(config, seed);
                    die.power_on().unwrap();
                    for (rep, want) in expected.iter().enumerate() {
                        die.fill(0x96).unwrap();
                        cycle(&mut die, ResolutionMode::Batched, event);
                        assert_eq!(&die.snapshot().unwrap(), want, "rep {rep} diverged");
                    }
                });
            }
            s.spawn(|| {
                for _ in 0..50 {
                    crate::clear_plane_cache();
                    std::thread::yield_now();
                }
            });
        });
        crate::clear_plane_cache();
    }
}
