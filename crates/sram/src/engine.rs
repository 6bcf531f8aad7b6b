//! Bit-sliced, plane-cached resolution engine for power cycles.
//!
//! [`SramArray::power_on`](crate::SramArray::power_on) has to decide, for
//! every cell, whether the off interval preserved its state, and sample a
//! power-up value for every cell that lost it. The scalar reference path
//! re-derives three RNG streams per cell per power cycle; every sweep in
//! the reproduction (temperature grids, countermeasure matrices, probe
//! ablations) runs hundreds of power cycles over the same die, so that
//! inner loop dominates end-to-end wall time.
//!
//! This module replaces it with three layers, each **bit-exact** with the
//! scalar path:
//!
//! 1. **Die planes** (`DiePlanes`) — per `(seed, distribution, size)`,
//!    three blocks, each derived once and only when something first
//!    needs it:
//!
//!    * the **power-up block** — per word, the strong-1 and metastable
//!      masks plus one quantized bias byte per cell (1.25 B/cell) — is
//!      built one 64-word (4096-cell) tile at a time, by the first
//!      sample that needs the tile: a read, partial write or settle of
//!      an owed tile (see [`SramArray`](crate::SramArray)'s owed
//!      power-up tiles), or a query decided cell by cell, which builds
//!      the whole block before its kernels fan out. A tile is derived a
//!      word at a time (`powerup_record`): integer class tests, no
//!      float and no branch per cell;
//!    * the **DRV block** — every cell's DRV quantized onto a 12-bit
//!      grid (1.5 B/cell) — is built by the first held-rail query whose
//!      threshold falls inside the DRV range (a droop);
//!    * the **decay block** — every cell's decay budget quantized onto a
//!      14-bit grid (1.75 B/cell, plus a 128 KiB cut table) — is built
//!      by the first unpowered query with positive stress.
//!
//!    A retention block *transposes* its buckets, derived 64 to a batch
//!    per word, into bit-sliced tiles of `TILE_WORDS` words × one row
//!    per bucket bit, L1-resident while its 4096 cells resolve. The grid
//!    widths trade exact-fallback volume against memory traffic: each
//!    extra bit-plane row streams another ~0.13 bytes per cell per
//!    cycle, while each bit *removed*
//!    doubles the (cheap, exact) bucket-tie fallback rate — these widths
//!    keep ties in the low thousands per megabyte while the warm cycle
//!    stays bandwidth-lean. `power_on_outcome` classifies every
//!    power-on, scalar or batched, before anything is derived. One that
//!    loses every cell (a fresh die's first power-on, an unheld cycle
//!    past the decay tail, a hold below `drv_min`) owes its power-up
//!    sample instead of writing it, and one that keeps every cell (a
//!    clean hold, a zero-stress cycle) changes nothing, so neither
//!    derives anything: only the tiles later reads and writes touch pay
//!    their power-up draws, and only the power-ons decided cell by cell
//!    (droops into the DRV range, cold cycles) pay the per-cell
//!    Box–Muller draws of the retention blocks.
//!    Planes are memoized on the array and in a bounded global cache, so
//!    repeated cycles of the same die (the common case) derive nothing.
//! 2. **Lane kernels** — resolution is pure mask algebra over the bucket
//!    planes: an MSB-first eq-prefix scan compares 64 cells per row
//!    operation (~2 ALU ops per row, 12 rows), and the const-generic
//!    `resolve_chunk` widens that to 256-bit effective lanes by
//!    processing four consecutive words per step. Only cells whose
//!    bucket *equals* the query bucket fall back to the exact scalar
//!    derivation, which keeps the result identical to the reference
//!    path: the bucket maps are weakly monotone, so an unequal bucket
//!    already decides the comparison, and the rare equal bucket is
//!    re-decided exactly.
//! 3. **Sharding** — arrays at or above [`PAR_MIN_BITS`] split their word
//!    range across scoped threads on tile-aligned boundaries. Every word
//!    is a pure function of `(seed, index, event)`, so the sharding is
//!    deterministic and the thread count ([`crate::par::thread_count`])
//!    never changes results.

use crate::array::OffEvent;
use crate::bits::PackedBits;
use crate::cell::{derive_decay_budget, derive_drv, derive_powerup, CellDistribution};
use crate::par;
use crate::rng::{cell_word, event_base, event_word_at, mix64, unit_f64, unit_threshold, Stream};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Arrays with at least this many bits shard word-range resolution and
/// plane building across threads; smaller arrays stay single-threaded.
/// The bit-sliced kernels resolve a word in a few nanoseconds, so the
/// break-even point sits well above the old per-cell engine's — spawning
/// scoped threads for anything under half a megabyte costs more than it
/// saves.
pub const PAR_MIN_BITS: usize = 1 << 22;

/// Words per tile (4096 cells). A tile of the decay block (14 rows)
/// occupies 7 KiB and one of the DRV block (12 rows) 6 KiB — the whole
/// working set of a resolution step fits in L1.
pub(crate) const TILE_WORDS: usize = 64;

/// Cells per tile: the unit the power-up block is built in, and the
/// unit an array owes its power-up sample in.
pub(crate) const TILE_CELLS: usize = TILE_WORDS * 64;

/// Bits in the decay-budget bucket grid (one bit-plane row each).
///
/// Wider than the DRV grid on purpose: a decay bucket tie re-derives
/// `exp(sigma * z)` — a Box–Muller normal plus an `exp`, ~100 ns — and
/// every unpowered cycle pays the tie volume, so two extra rows of
/// streamed plane traffic buy a 4× cut in that fallback.
const DECAY_BITS: usize = 14;

/// Bits in the DRV bucket grid (one bit-plane row each). DRV rows are
/// only scanned by held-rail queries and their tie fallback is a single
/// normal draw, so the narrower grid wins back plane memory.
const DRV_BITS: usize = 12;

/// Total cells the global plane cache may hold before evicting the
/// oldest die. A cached die costs 16 bytes per tile up front; each
/// power-up tile something has sampled adds 1.25 bytes per cell, and
/// the DRV and decay rows add 1.5 and 1.75 bytes per cell (and one
/// 128 KiB cut table per die) once a query has built those blocks.
const MAX_CACHED_CELLS: usize = 48 << 20;

/// Most dies the global plane cache retains at once. The cell cap alone
/// does not bound a fleet sweep over millions of *small* virtual dies —
/// a 4 Kib die occupies one tile, 5 KiB of power-up block once sampled
/// plus up to 13 KiB of retention rows and a 128 KiB cut table once
/// queried, so 10⁶ of them would grow the cache by gigabytes. The entry
/// cap keeps the steady-state footprint proportional to the working set.
pub const MAX_CACHED_DIES: usize = 1024;

/// Rep-delta baselines retained per die entry (FIFO). One baseline per
/// sweep *condition*; campaigns rarely interleave more than a couple of
/// conditions per die at a time.
const MAX_BASELINES_PER_DIE: usize = 4;

/// Conditions remembered per die while waiting for a second resolve.
/// A baseline is only materialized for a `(die, condition)` pair seen
/// at least twice — one-shot conditions (every brown-out fault depth is
/// a fresh condition) must not pay a build or churn the baseline slots.
const SEEN_CONDITIONS: usize = 8;

/// Total bytes of built rep-delta baselines across every cached die.
/// Hot-word records cost 32 bytes per word with any lost cell, so a
/// high-loss condition on a large die can outweigh its own planes; the
/// byte cap sheds the oldest baselines first under that pressure.
const MAX_BASELINE_BYTES: usize = 64 << 20;

// ---------------------------------------------------------------------
// Quantizers
// ---------------------------------------------------------------------
//
// Each quantizer is a weakly monotone map from the exact f64 quantity to
// a small bucket: `x <= y` implies `bucket(x) <= bucket(y)`. Strict
// bucket inequality therefore decides the underlying comparison; bucket
// equality is re-decided by deriving the exact value. This is what makes
// the cached planes bit-exact with the scalar path.

/// Buckets a probability in `[0, 1]` (power-up bias and its uniform
/// sample) onto a 2^8 grid.
///
/// Multiplying a finite f64 by a power of two is exact, so this is the
/// true floor of `p * 256` — which makes the bucket of a uniform sample
/// `u = unit_f64(w)` recoverable straight from the random word's top
/// byte (`w >> 56`) with no float arithmetic at all. Both hot paths rely
/// on that identity (tested below), so this function is the definition
/// they are tested against rather than code they call: the power-up
/// sampler buckets its uniform draw that way, and [`powerup_record`]
/// buckets a metastable cell's bias that way. Eight bits keeps the
/// per-cell bias plane at one byte — the plane is read at sparse,
/// data-dependent offsets, so its cache traffic is what the grid width
/// actually buys — while ties (≈1/256 of draws) re-derive exactly.
#[cfg(test)]
fn prob_bucket(p: f64) -> u8 {
    ((p * 256.0) as u64).min(255) as u8
}

/// Number of cut points in a [`DecayCuts`] table (one fewer than the
/// number of buckets, so every bucket index fits in [`DECAY_BITS`] bits).
const DECAY_CUTS: usize = (1 << DECAY_BITS) - 1;

/// Half-width of the standard-normal grid the cuts are placed on. The
/// decay budget is `exp(sigma * z)` with `z` standard normal, so cuts at
/// `exp(sigma * z_i)` for `z_i` linear over `[-8, 8]` spread the budget
/// distribution's entire plausible mass across the 2^14 buckets; the
/// astronomically rare `|z| > 8` tail lands in the end buckets and is
/// re-decided exactly like any other bucket tie.
const DECAY_Z_SPAN: f64 = 8.0;

/// Sorted cut table bucketing positive decay budgets (and the query's
/// accumulated stress) onto a 2^14 grid.
///
/// `bucket(x)` is the number of cuts `<= x` — a [`partition_point`] over
/// a sorted table, which is weakly monotone *by construction*, with no
/// assumption about floating-point rounding in the cut values
/// themselves: if `bucket(x) < bucket(y)` then the cut at index
/// `bucket(x)` satisfies `x < cut <= y`, so `x < y`. A degenerate
/// distribution (e.g. `decay_sigma == 0` collapsing every cut to 1.0)
/// only collapses buckets, which routes more cells through the exact
/// fallback — slower, never wrong.
///
/// [`partition_point`]: slice::partition_point
struct DecayCuts {
    cuts: Vec<f64>,
}

impl DecayCuts {
    fn new(decay_sigma: f64) -> Self {
        let mut cuts = Vec::with_capacity(DECAY_CUTS);
        let mut hi = f64::NEG_INFINITY;
        for i in 0..DECAY_CUTS {
            let z = -DECAY_Z_SPAN + 2.0 * DECAY_Z_SPAN * (i as f64) / ((DECAY_CUTS - 1) as f64);
            // The running max forces the table sorted even if `exp`
            // rounding were non-monotone somewhere.
            hi = hi.max((decay_sigma * z).exp());
            cuts.push(hi);
        }
        DecayCuts { cuts }
    }

    #[inline]
    fn bucket(&self, x: f64) -> u16 {
        self.cuts.partition_point(|c| *c <= x) as u16
    }
}

/// Linear bucket grid over the clamped DRV range.
#[derive(Clone, Copy)]
struct DrvGrid {
    min: f64,
    scale: f64,
}

impl DrvGrid {
    const MAX: f64 = ((1 << DRV_BITS) - 1) as f64;

    fn new(dist: &CellDistribution) -> Self {
        DrvGrid { min: dist.drv_min, scale: Self::MAX / (dist.drv_max - dist.drv_min) }
    }

    #[inline]
    fn bucket(self, v: f64) -> u16 {
        let t = (v - self.min) * self.scale;
        if t <= 0.0 {
            0
        } else if t >= Self::MAX {
            (1 << DRV_BITS) - 1
        } else {
            t as u16
        }
    }
}

// ---------------------------------------------------------------------
// Die planes
// ---------------------------------------------------------------------

/// One word's share of the power-up block: which of its 64 cells power
/// up strong-1, which are metastable, and every cell's quantized
/// power-up bias ([`prob_bucket`]) — 80 bytes per 64 cells. The masks and
/// the bias bytes a lost word's metastable sampling reads sit side by
/// side.
#[derive(Clone, Copy)]
pub(crate) struct PowerUpWord {
    strong1: u64,
    metastable: u64,
    bias_q: [u8; 64],
}

impl PowerUpWord {
    /// A word of strong-0 cells: also the record of padding cells.
    const EMPTY: PowerUpWord = PowerUpWord { strong1: 0, metastable: 0, bias_q: [0; 64] };
}

/// One tile's share of the power-up block (5 KiB).
pub(crate) type PowerUpTile = [PowerUpWord; TILE_WORDS];

/// The salt [`derive_powerup`] re-mixes a metastable cell's bias word
/// with to draw its bias.
const METASTABLE_BIAS_SALT: u64 = 0x5bf0_3635;

/// Derives the power-up record of the `cells` cells from `cell0` on (at
/// most 64, one word), bit-identical to [`derive_powerup`] followed by
/// [`prob_bucket`] per cell. `bounds` are the [`unit_threshold`]s of
/// `derive_powerup`'s two class tests, `s / 2` and `s` for the strong
/// fraction `s`.
///
/// A cell's class is then two integer compares of its draw's 53 high
/// bits, turned into mask bits without a branch. Strong cells' bias
/// bytes are `prob_bucket(0.0) = 0` and `prob_bucket(1.0) = 255`; a
/// metastable cell's is `prob_bucket(unit_f64(m))`, which is `m`'s top
/// byte (see [`prob_bucket`]), so only the metastable cells hash a
/// second word and no cell converts a draw to a float.
#[inline]
fn powerup_record(seed: u64, cell0: usize, cells: usize, bounds: (u64, u64)) -> PowerUpWord {
    let (strong0_below, strong_below) = bounds;
    let mut draws = [0u64; 64];
    let mut pw = PowerUpWord::EMPTY;
    for (b, draw) in draws.iter_mut().enumerate().take(cells) {
        let w = cell_word(seed, cell0 + b, Stream::PowerUpBias);
        let k = w >> 11;
        let strong1 = (k >= strong0_below) & (k < strong_below);
        pw.strong1 |= u64::from(strong1) << b;
        pw.metastable |= u64::from(k >= strong_below) << b;
        pw.bias_q[b] = 0u8.wrapping_sub(u8::from(strong1));
        *draw = w;
    }
    let mut meta = pw.metastable;
    while meta != 0 {
        let b = meta.trailing_zeros() as usize;
        pw.bias_q[b] = (mix64(draws[b] ^ METASTABLE_BIAS_SALT) >> 56) as u8;
        meta &= meta - 1;
    }
    pw
}

/// The decay block: bucket rows plus the cut table that bucketed them
/// (which also buckets each query's stress).
struct DecayBlock {
    rows: Vec<u64>,
    cuts: DecayCuts,
}

/// Precomputed per-cell parameter planes for one die, in three blocks.
/// Building the planes derives nothing; each block waits for its first
/// need.
///
/// * The **power-up block** is one [`PowerUpWord`] per array word, in a
///   [`OnceLock`] per [`TILE_WORDS`]-word tile. A tile is derived by the
///   first sample that needs it ([`DiePlanes::powerup_tile`]): an
///   array's owed power-up tiles are sampled when read, partly written
///   or settled, and a query decided cell by cell derives the whole
///   block before its kernels fan out ([`Query::new`]). A fresh die
///   whose arrays are mostly overwritten whole or never read derives
///   only the tiles something looks at.
/// * The **DRV block** and the **decay block** are *retention blocks*,
///   each in its own [`OnceLock`] and derived by the first query that
///   scans it ([`Query::new`]). Only droop queries read DRVs and only
///   unpowered queries with positive stress read decay budgets, so a
///   die that never meets one never pays its per-cell Box–Muller draws.
///
/// A retention block holds `n_tiles × BITS × TILE_WORDS` words: tile
/// `t`'s row `r` occupies `rows[(t * BITS + r) * TILE_WORDS..][..TILE_WORDS]`
/// and holds bit `BITS - 1 - r` (MSB first, the compare scan order) of
/// the bucket of every cell `(t * TILE_WORDS + j) * 64 + b`, at bit `b`
/// of word `j`. Word and cell coordinates are always **absolute** array
/// positions, never tile-local — the rep-delta hot-word records in
/// [`crate::delta`] index the same space, which is what lets their
/// counter-mode RNG offsets land on the exact words the dense path
/// samples.
pub(crate) struct DiePlanes {
    seed: u64,
    bits: usize,
    dist: CellDistribution,
    /// The power-up block, one tile per [`TILE_WORDS`] words, each built
    /// on first need.
    powerup: Box<[OnceLock<Box<PowerUpTile>>]>,
    /// Set once every power-up tile is built ([`DiePlanes::build_powerup`]).
    powerup_whole: OnceLock<()>,
    /// DRV bucket rows, built on first need.
    drv: OnceLock<Vec<u64>>,
    /// Decay-budget bucket rows and their cut table, built on first need.
    decay: OnceLock<DecayBlock>,
}

impl std::fmt::Debug for DiePlanes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DiePlanes").field("bits", &self.bits).finish()
    }
}

impl DiePlanes {
    /// Number of cells the planes describe.
    pub(crate) fn bits(&self) -> usize {
        self.bits
    }

    /// The die seed the planes were derived from.
    pub(crate) fn seed(&self) -> u64 {
        self.seed
    }

    /// The plane-cache key of the die these planes describe.
    pub(crate) fn key(&self) -> PlaneKey {
        plane_key(self.seed, self.bits, &self.dist)
    }

    /// Sets up the planes of one die. Derives nothing: every block waits
    /// for the first sample or query that needs it.
    fn build(seed: u64, bits: usize, dist: &CellDistribution) -> Self {
        DiePlanes {
            seed,
            bits,
            dist: *dist,
            powerup: (0..bits.div_ceil(TILE_CELLS)).map(|_| OnceLock::new()).collect(),
            powerup_whole: OnceLock::new(),
            drv: OnceLock::new(),
            decay: OnceLock::new(),
        }
    }

    /// Tile `t` of the power-up block, derived on first call, one word
    /// at a time ([`powerup_record`]).
    pub(crate) fn powerup_tile(&self, t: usize) -> &PowerUpTile {
        self.powerup[t].get_or_init(|| {
            let strong = 1.0 - self.dist.metastable_fraction;
            let bounds = (unit_threshold(strong / 2.0), unit_threshold(strong));
            let mut tile = Box::new([PowerUpWord::EMPTY; TILE_WORDS]);
            for (k, pw) in tile.iter_mut().enumerate() {
                let cell0 = (t * TILE_WORDS + k) * 64;
                let cells = self.bits.saturating_sub(cell0).min(64);
                *pw = powerup_record(self.seed, cell0, cells, bounds);
            }
            tile
        })
    }

    /// Power-up tiles derived so far.
    #[cfg(test)]
    pub(crate) fn powerup_tiles_built(&self) -> usize {
        self.powerup.iter().filter(|t| t.get().is_some()).count()
    }

    /// Derives every power-up tile not yet built, tile-sharded like a
    /// resolve, on first call.
    fn build_powerup(&self) {
        self.powerup_whole.get_or_init(|| {
            shard_tiles(self.bits, &mut [(); 0], 0, |tiles, _| {
                for t in tiles {
                    self.powerup_tile(t);
                }
            });
        });
    }

    /// The DRV block, derived on first call.
    fn drv_rows(&self) -> &[u64] {
        self.drv.get_or_init(|| {
            let grid = DrvGrid::new(&self.dist);
            build_bucket_rows::<DRV_BITS>(self.bits, |cell| {
                grid.bucket(derive_drv(self.seed, cell, &self.dist))
            })
        })
    }

    /// The decay block, derived on first call.
    fn decay_block(&self) -> &DecayBlock {
        self.decay.get_or_init(|| {
            let cuts = DecayCuts::new(self.dist.decay_sigma);
            let rows = build_bucket_rows::<DECAY_BITS>(self.bits, |cell| {
                cuts.bucket(derive_decay_budget(self.seed, cell, &self.dist))
            });
            DecayBlock { rows, cuts }
        })
    }
}

/// Tiles each worker takes when work over a `bits`-cell array fans out
/// across scoped threads, or `None` when it stays on the calling thread:
/// below [`PAR_MIN_BITS`], or under a parallelism budget of one. Every
/// result is a pure function of cell indices, so the split never changes
/// one; splitting on tile boundaries keeps each tile's words, planes and
/// owed bit on one worker.
fn tiles_per_shard(bits: usize) -> Option<usize> {
    let threads = par::effective_parallelism();
    (bits >= PAR_MIN_BITS && threads > 1).then(|| bits.div_ceil(TILE_CELLS).div_ceil(threads))
}

/// Runs `work` over a `bits`-cell array's tiles: on the calling thread
/// for the whole array, or, when [`tiles_per_shard`] fans out, on one
/// scoped thread per run of whole tiles. Each call gets its tile range
/// and the matching run of `out`, which holds `per_tile` elements per
/// tile (its last tile may be short). Results come back in tile order.
fn shard_tiles<T: Send, R: Send>(
    bits: usize,
    out: &mut [T],
    per_tile: usize,
    work: impl Fn(std::ops::Range<usize>, &mut [T]) -> R + Sync,
) -> Vec<R> {
    let n_tiles = bits.div_ceil(TILE_CELLS);
    let Some(per_shard) = tiles_per_shard(bits) else {
        return vec![work(0..n_tiles, out)];
    };
    std::thread::scope(|s| {
        let work = &work;
        let mut rest = out;
        let shards: Vec<_> = (0..n_tiles)
            .step_by(per_shard)
            .map(|t0| {
                let tiles = t0..(t0 + per_shard).min(n_tiles);
                let len = (tiles.len() * per_tile).min(rest.len());
                let (run, tail) = std::mem::take(&mut rest).split_at_mut(len);
                rest = tail;
                s.spawn(move || work(tiles, run))
            })
            .collect();
        shards.into_iter().map(|h| h.join().expect("tile worker panicked")).collect()
    })
}

/// Derives a retention block: every cell's `BITS`-bit bucket, transposed
/// MSB-first into the block's bit-plane rows (see [`DiePlanes`] for the
/// layout). A word's 64 buckets are derived into a batch first and then
/// transposed one row at a time, so the derivation loop carries no row
/// state; padding cells keep bucket 0.
fn build_bucket_rows<const BITS: usize>(
    bits: usize,
    bucket: impl Fn(usize) -> u16 + Sync,
) -> Vec<u64> {
    let mut rows = vec![0u64; bits.div_ceil(TILE_CELLS) * BITS * TILE_WORDS];
    shard_tiles(bits, &mut rows, BITS * TILE_WORDS, |tiles, run| {
        for (t, tile) in tiles.zip(run.chunks_mut(BITS * TILE_WORDS)) {
            let word0 = t * TILE_WORDS;
            for j in 0..TILE_WORDS.min(bits.div_ceil(64) - word0) {
                let cell0 = (word0 + j) * 64;
                let mut batch = [0u16; 64];
                for (b, q) in batch.iter_mut().enumerate().take(bits - cell0) {
                    *q = bucket(cell0 + b);
                }
                for r in 0..BITS {
                    let shift = BITS - 1 - r;
                    tile[r * TILE_WORDS + j] = batch
                        .iter()
                        .enumerate()
                        .fold(0, |row, (b, &q)| row | u64::from((q >> shift) & 1) << b);
                }
            }
        }
    });
    rows
}

// ---------------------------------------------------------------------
// Global plane cache
// ---------------------------------------------------------------------

pub(crate) type PlaneKey = (u64, usize, [u64; 6]);

/// A cache slot: inserted under the lock *before* building, so exactly
/// one thread ever derives a given die — concurrent requesters block on
/// the same [`OnceLock`] instead of racing duplicate builds.
type PlaneSlot = Arc<OnceLock<Arc<DiePlanes>>>;

/// A rep-delta baseline slot, same insert-then-build discipline as
/// [`PlaneSlot`]: exactly one thread scans the die per condition.
pub(crate) type BaselineSlot = Arc<OnceLock<Arc<crate::delta::Baseline>>>;

pub(crate) fn plane_key(seed: u64, bits: usize, dist: &CellDistribution) -> PlaneKey {
    (
        seed,
        bits,
        [
            dist.metastable_fraction.to_bits(),
            dist.drv_mean.to_bits(),
            dist.drv_sigma.to_bits(),
            dist.drv_min.to_bits(),
            dist.drv_max.to_bits(),
            dist.decay_sigma.to_bits(),
        ],
    )
}

/// Plane cells a key will occupy once built, padded to whole tiles —
/// derivable from the key alone, so eviction accounting never has to
/// wait for (or lock around) a slot that is still building.
fn key_cells(key: &PlaneKey) -> usize {
    key.1.div_ceil(TILE_CELLS) * TILE_CELLS
}

/// One cached die: its plane slot plus the rep-delta bookkeeping that
/// lives *next to* the planes (ISSUE: "baseline slot + eviction
/// accounting in the plane cache"). Evicting the die drops its
/// baselines with it — a baseline is useless without a live entry to
/// find it through.
struct CacheEntry {
    key: PlaneKey,
    slot: PlaneSlot,
    /// Conditions resolved exactly once so far (promotion ring; see
    /// [`SEEN_CONDITIONS`]).
    seen: VecDeque<crate::delta::BaselineKey>,
    /// Materialized (or building) baselines, oldest first.
    baselines: VecDeque<(crate::delta::BaselineKey, BaselineSlot)>,
}

struct PlaneCacheState {
    entries: VecDeque<CacheEntry>,
    /// Bytes held by *built* baselines (a building slot counts once its
    /// builder reports in through [`note_baseline_built`]).
    baseline_bytes: usize,
}

static PLANE_CACHE: Mutex<PlaneCacheState> =
    Mutex::new(PlaneCacheState { entries: VecDeque::new(), baseline_bytes: 0 });

/// Dies evicted by the entry/cell caps since process start.
static PLANE_EVICTIONS: AtomicU64 = AtomicU64::new(0);

/// Baselines evicted (by die eviction, the per-die FIFO, or the global
/// byte cap) since process start. Only *built* baselines count — an
/// abandoned building slot never held memory worth accounting.
static BASELINE_EVICTIONS: AtomicU64 = AtomicU64::new(0);

/// Bumped by [`clear_plane_cache`]; thread-local baseline leases in
/// [`crate::delta`] are stamped with the generation they were taken
/// under and re-validate against it, so a clear invalidates every lease
/// at its holder's next rep boundary without touching other threads.
static CACHE_GENERATION: AtomicU64 = AtomicU64::new(1);

fn account_evicted_baselines(entry: &CacheEntry, baseline_bytes: &mut usize) {
    for (_, slot) in &entry.baselines {
        if let Some(b) = slot.get() {
            *baseline_bytes = baseline_bytes.saturating_sub(b.bytes());
            BASELINE_EVICTIONS.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Returns the memoized planes for one die, building them on first use,
/// plus whether this call was served an existing build (`true`) or had
/// to derive the planes itself (`false`) — the campaign telemetry layer
/// reports this as plane-cache hit/miss counters.
///
/// The cache is keyed by `(seed, size, distribution)` and bounded by
/// total cells; the oldest die is evicted first. The slot for a key is
/// inserted under the lock but *built* outside it, so a long derivation
/// never serializes unrelated dies — and because the slot is a
/// [`OnceLock`], concurrent requests for the *same* die block on one
/// build instead of each deriving a private copy (and instead of the
/// insert-last-wins race the double-checked scheme used to have, where
/// an eviction between the two checks could drop a freshly built die).
pub(crate) fn planes_for(
    seed: u64,
    bits: usize,
    dist: &CellDistribution,
) -> (Arc<DiePlanes>, bool) {
    let key = plane_key(seed, bits, dist);
    let slot: PlaneSlot = {
        let mut cache = PLANE_CACHE.lock().expect("plane cache poisoned");
        if let Some(e) = cache.entries.iter().find(|e| e.key == key) {
            e.slot.clone()
        } else {
            let s: PlaneSlot = Arc::new(OnceLock::new());
            cache.entries.push_back(CacheEntry {
                key,
                slot: s.clone(),
                seen: VecDeque::new(),
                baselines: VecDeque::new(),
            });
            let mut total: usize = cache.entries.iter().map(|e| key_cells(&e.key)).sum();
            while (total > MAX_CACHED_CELLS || cache.entries.len() > MAX_CACHED_DIES)
                && cache.entries.len() > 1
            {
                if let Some(evicted) = cache.entries.pop_front() {
                    total -= key_cells(&evicted.key);
                    PLANE_EVICTIONS.fetch_add(1, Ordering::Relaxed);
                    account_evicted_baselines(&evicted, &mut cache.baseline_bytes);
                }
            }
            s
        }
    };
    let mut built_here = false;
    let planes = slot
        .get_or_init(|| {
            built_here = true;
            Arc::new(DiePlanes::build(seed, bits, dist))
        })
        .clone();
    (planes, !built_here)
}

/// Drops every memoized plane and rep-delta baseline (used by
/// benchmarks to measure the cold, plane-building first cycle
/// separately from warm cycles).
///
/// Safe to race with in-flight resolutions: plane sets and baselines
/// are handed out as `Arc`s (a rep holds a lease for as long as it
/// needs the data), so clearing the cache only forgets them — it never
/// frees memory under a running kernel. Deliberate clears are not
/// counted as evictions. The cache generation is bumped so thread-local
/// baseline leases re-validate on their next rep.
pub fn clear_plane_cache() {
    let mut cache = PLANE_CACHE.lock().expect("plane cache poisoned");
    cache.entries.clear();
    cache.baseline_bytes = 0;
    CACHE_GENERATION.fetch_add(1, Ordering::Relaxed);
}

/// The current plane-cache generation (see [`CACHE_GENERATION`]).
pub(crate) fn cache_generation() -> u64 {
    CACHE_GENERATION.load(Ordering::Relaxed)
}

/// Looks up — or, on the *second* sight of a `(die, condition)` pair,
/// installs — the rep-delta baseline slot for `bkey`, applying the
/// promotion policy:
///
/// * first resolve of a condition: note it in the die's bounded `seen`
///   ring and return `None` (the rep takes the full resolve);
/// * second resolve: promote it to a baseline slot (built outside the
///   lock by exactly one thread, like the planes themselves);
/// * later resolves: hand back the existing slot.
///
/// Returns `None` when the die itself is not cached (evicted under
/// pressure) — the delta path simply falls back to a full resolve.
pub(crate) fn baseline_slot(
    key: &PlaneKey,
    bkey: &crate::delta::BaselineKey,
) -> Option<BaselineSlot> {
    let mut cache = PLANE_CACHE.lock().expect("plane cache poisoned");
    let mut displaced: Option<(crate::delta::BaselineKey, BaselineSlot)> = None;
    let slot = {
        let entry = cache.entries.iter_mut().find(|e| e.key == *key)?;
        if let Some((_, s)) = entry.baselines.iter().find(|(k, _)| k == bkey) {
            Some(s.clone())
        } else if let Some(pos) = entry.seen.iter().position(|k| k == bkey) {
            entry.seen.remove(pos);
            let s: BaselineSlot = Arc::new(OnceLock::new());
            entry.baselines.push_back((*bkey, s.clone()));
            if entry.baselines.len() > MAX_BASELINES_PER_DIE {
                displaced = entry.baselines.pop_front();
            }
            Some(s)
        } else {
            // Concurrent first resolves may race this push; a duplicate
            // key in the ring is harmless (position() finds the first).
            entry.seen.push_back(*bkey);
            while entry.seen.len() > SEEN_CONDITIONS {
                entry.seen.pop_front();
            }
            None
        }
    };
    if let Some((_, old)) = displaced {
        if let Some(b) = old.get() {
            cache.baseline_bytes = cache.baseline_bytes.saturating_sub(b.bytes());
            BASELINE_EVICTIONS.fetch_add(1, Ordering::Relaxed);
        }
    }
    slot
}

/// Called by the builder after it finishes a baseline: charges the
/// bytes to the cache and sheds the oldest *other* baselines while the
/// global byte cap is exceeded. If the slot was evicted while building,
/// nothing is charged — the builder's own `Arc` lease is then the only
/// reference and the memory dies with the rep.
pub(crate) fn note_baseline_built(key: &PlaneKey, bkey: &crate::delta::BaselineKey, bytes: usize) {
    let mut cache = PLANE_CACHE.lock().expect("plane cache poisoned");
    let still_cached =
        cache.entries.iter().any(|e| e.key == *key && e.baselines.iter().any(|(k, _)| k == bkey));
    if !still_cached {
        return;
    }
    cache.baseline_bytes += bytes;
    while cache.baseline_bytes > MAX_BASELINE_BYTES {
        let charged = cache.baseline_bytes;
        let mut freed = 0usize;
        let mut evicted = 0u64;
        for e in cache.entries.iter_mut() {
            while let Some((k, s)) = e.baselines.front() {
                if e.key == *key && k == bkey {
                    break; // never shed the baseline just installed
                }
                match s.get() {
                    // A building slot holds no accounted memory yet and
                    // popping it would orphan its builder's accounting;
                    // leave this die's FIFO alone until it settles.
                    None => break,
                    Some(b) => {
                        freed += b.bytes();
                        evicted += 1;
                        e.baselines.pop_front();
                    }
                }
            }
            if charged.saturating_sub(freed) <= MAX_BASELINE_BYTES {
                break;
            }
        }
        BASELINE_EVICTIONS.fetch_add(evicted, Ordering::Relaxed);
        cache.baseline_bytes = cache.baseline_bytes.saturating_sub(freed);
        if freed == 0 {
            break; // nothing evictable left (all building or protected)
        }
    }
}

/// Point-in-time occupancy and lifetime eviction counters for the
/// global plane/baseline cache.
///
/// Deliberately **not** recorded into campaign telemetry: whether a
/// given rep finds a cached baseline (or triggers an eviction) depends
/// on cross-thread scheduling, so folding these counters into the
/// deterministic telemetry recorder stream would break the
/// byte-identical-reports guarantee. Benches and the campaign report's
/// `# nondeterministic` trailer are the surfaces for them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlaneCacheStats {
    /// Dies currently cached.
    pub entries: usize,
    /// Plane cells currently cached (padded to whole tiles).
    pub cells: usize,
    /// Built rep-delta baselines currently cached.
    pub baselines: usize,
    /// Bytes held by built rep-delta baselines.
    pub baseline_bytes: usize,
    /// Hot words (words with any lost cell) across cached baselines —
    /// the per-rep work the delta path actually does.
    pub baseline_hot_words: usize,
    /// Dies evicted by the entry/cell caps since process start.
    pub plane_evictions: u64,
    /// Baselines evicted (die eviction, per-die FIFO, or byte cap)
    /// since process start.
    pub baseline_evictions: u64,
}

/// Snapshot of [`PlaneCacheStats`] — see its docs for why this is an
/// out-of-band API rather than telemetry counters.
pub fn plane_cache_stats() -> PlaneCacheStats {
    let cache = PLANE_CACHE.lock().expect("plane cache poisoned");
    PlaneCacheStats {
        entries: cache.entries.len(),
        cells: cache.entries.iter().map(|e| key_cells(&e.key)).sum(),
        baselines: cache
            .entries
            .iter()
            .map(|e| e.baselines.iter().filter(|(_, s)| s.get().is_some()).count())
            .sum(),
        baseline_bytes: cache.baseline_bytes,
        baseline_hot_words: cache
            .entries
            .iter()
            .flat_map(|e| e.baselines.iter())
            .filter_map(|(_, s)| s.get())
            .map(|b| b.hot_words())
            .sum(),
        plane_evictions: PLANE_EVICTIONS.load(Ordering::Relaxed),
        baseline_evictions: BASELINE_EVICTIONS.load(Ordering::Relaxed),
    }
}

// ---------------------------------------------------------------------
// Queries and kernels
// ---------------------------------------------------------------------

/// Whether the batched kernels can represent this query exactly. The
/// kernels assume a sane bucket grid and finite, non-NaN comparisons;
/// anything else (a degenerate custom distribution, a NaN hold voltage)
/// routes to the scalar path, which defines the semantics.
pub(crate) fn can_batch(dist: &CellDistribution, event: OffEvent, stress: f64) -> bool {
    let grid_ok = dist.drv_min.is_finite()
        && dist.drv_max.is_finite()
        && dist.drv_max > dist.drv_min
        && dist.drv_mean.is_finite()
        && dist.drv_sigma.is_finite()
        && dist.decay_sigma.is_finite()
        && dist.metastable_fraction.is_finite();
    let event_ok = match event {
        OffEvent::Unpowered => true,
        OffEvent::Held { voltage, transient_min_voltage } => {
            voltage.is_finite() && transient_min_voltage.is_finite()
        }
    };
    grid_ok && event_ok && !stress.is_nan()
}

/// What a power-on does to an array as a whole: decided once, for the
/// scalar and the batched path alike, before either touches a cell.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum PowerOn {
    /// Every cell keeps its value: a hold at or above `drv_max` on both
    /// its steady and its transient level, or an unpowered rail, with no
    /// decay stress. Nothing is derived and nothing is written.
    KeepsAll,
    /// Every cell loses its value to the event's power-up sample: the
    /// first power-on, an unpowered interval past any plausible decay
    /// budget, or a hold whose steady or transient level is below
    /// `drv_min`. The sample needs no retention block and no settled
    /// contents.
    LosesAll,
    /// Retention must be decided cell by cell.
    PerCell,
}

/// Classifies a power-on after an off interval of `event` with `stress`
/// accumulated decay stress; `first` marks an array's first power-on.
/// Each hold level is tested on its own, so a NaN level never keeps or
/// loses the array by itself: it falls to the per-cell rule, which
/// defines its semantics.
pub(crate) fn power_on_outcome(
    dist: &CellDistribution,
    event: OffEvent,
    stress: f64,
    first: bool,
) -> PowerOn {
    // The decay budget is lognormal; a stress beyond any plausible tail
    // quantile exhausts every cell's.
    let max_plausible_budget = (dist.decay_sigma * 9.0).exp();
    let (loses, keeps) = match event {
        OffEvent::Unpowered => (stress > max_plausible_budget, true),
        OffEvent::Held { voltage, transient_min_voltage } => (
            voltage < dist.drv_min || transient_min_voltage < dist.drv_min,
            voltage >= dist.drv_max && transient_min_voltage >= dist.drv_max,
        ),
    };
    if first || loses {
        PowerOn::LosesAll
    } else if keeps && stress <= 0.0 {
        PowerOn::KeepsAll
    } else {
        PowerOn::PerCell
    }
}

/// One power-cycle resolution query that [`power_on_outcome`] decides
/// cell by cell, pre-bucketized against the die's quantizer grids,
/// holding the slices of exactly the retention blocks it scans — so the
/// kernels never touch a lock.
struct Query<'a> {
    planes: &'a DiePlanes,
    /// Hoisted cell-independent half of the per-event RNG word
    /// ([`crate::rng::event_base`]) — the power-up sampler finishes it
    /// with one `event_word_at` per lost metastable cell.
    ev_base: u64,
    /// The decay check, or `None` when `stress <= 0` keeps every cell
    /// within its budget.
    decay: Option<Scan<'a>>,
    /// The held-rail check against `vmin = min(steady, transient)`, or
    /// `None` when every cell retains at the hold level: an unpowered
    /// rail, or `vmin >= drv_max`.
    drv: Option<Scan<'a>>,
}

/// A bucket-plane comparison against one retention block: its rows,
/// the exact query value, and that value's bucket.
#[derive(Clone, Copy)]
struct Scan<'a> {
    rows: &'a [u64],
    value: f64,
    bucket: u16,
}

impl<'a> Query<'a> {
    /// Builds the query, deriving (tile-sharded, on the calling thread —
    /// before any kernel fans out) each retention block it is the first
    /// to need, and the whole power-up block, which its lost cells
    /// sample. The kernels then fetch each power-up tile once, already
    /// built.
    fn new(planes: &'a DiePlanes, event: OffEvent, stress: f64, event_id: u64) -> Self {
        let dist = &planes.dist;
        let drv = match event {
            OffEvent::Unpowered => None,
            OffEvent::Held { voltage, transient_min_voltage } => {
                let vmin = voltage.min(transient_min_voltage);
                (vmin < dist.drv_max).then(|| Scan {
                    rows: planes.drv_rows(),
                    value: vmin,
                    bucket: DrvGrid::new(dist).bucket(vmin),
                })
            }
        };
        let decay = (stress > 0.0).then(|| {
            let block = planes.decay_block();
            Scan { rows: &block.rows, value: stress, bucket: block.cuts.bucket(stress) }
        });
        planes.build_powerup();
        Query { planes, ev_base: event_base(planes.seed, event_id), decay, drv }
    }
}

/// Compares `BITS` bit-plane rows against the query bucket `t` for `N`
/// consecutive words starting at in-tile word `j`: returns
/// `(gt, eq)` masks where bit `b` of `gt[i]` means the cell's bucket is
/// strictly greater than `t` and `eq[i]` means exactly equal.
///
/// MSB-first eq-prefix scan: walking rows from the bucket MSB down, `eq`
/// tracks cells whose bucket agrees with `t` on every bit seen so far;
/// a 1 where `t` has 0 moves an eq-prefix cell into `gt`, a 0 where `t`
/// has 1 drops it (it is below `t`, decided). Two ALU ops per row per
/// lane — well under one op per cell for the full compare.
#[inline(always)]
fn cmp_grid<const N: usize, const BITS: usize>(
    rows: &[u64],
    j: usize,
    t: u16,
) -> ([u64; N], [u64; N]) {
    let mut gt = [0u64; N];
    let mut eq = [!0u64; N];
    for r in 0..BITS {
        let p: &[u64; N] =
            rows[r * TILE_WORDS + j..r * TILE_WORDS + j + N].try_into().expect("lane width");
        if (t >> (BITS - 1 - r)) & 1 == 1 {
            for i in 0..N {
                eq[i] &= p[i];
            }
        } else {
            for i in 0..N {
                gt[i] |= eq[i] & p[i];
                eq[i] &= !p[i];
            }
        }
    }
    (gt, eq)
}

/// Tile `word / TILE_WORDS` of a `BITS`-row retention block, and the
/// word's in-tile index.
#[inline(always)]
fn block_tile<const BITS: usize>(rows: &[u64], word: usize) -> (&[u64], usize) {
    (&rows[word / TILE_WORDS * BITS * TILE_WORDS..][..BITS * TILE_WORDS], word % TILE_WORDS)
}

/// Computes the retention keep-masks for `N` consecutive words: bit `b`
/// of `keep[i]` is set iff cell `(word0 + i) * 64 + b` survives the
/// query's off interval. Returns `(keep, valid)`. The caller guarantees
/// all `N` words lie within one tile (`word0 % TILE_WORDS + N <=
/// TILE_WORDS`).
///
/// The keep-mask is a pure function of `(planes, query)` — independent
/// of the stored data *and* of the power-on event id — which is what
/// lets the rep-delta path ([`crate::delta`]) precompute it once per
/// `(die, condition)` and reuse it for every rep of a sweep.
#[inline(always)]
fn keep_chunk<const N: usize>(word0: usize, q: &Query<'_>) -> ([u64; N], [u64; N]) {
    let (seed, dist) = (q.planes.seed, &q.planes.dist);
    let valid: [u64; N] = std::array::from_fn(|i| valid_mask(q.planes.bits, word0 + i));

    // Decay check: stress <= budget. Strict bucket inequality decides;
    // boundary cells (bucket == stress bucket) re-derive exactly. The
    // `eq` mask must shed padding cells (their all-zero planes collide
    // with bucket-0 queries) before the fallback loop.
    let mut keep = valid;
    if let Some(s) = q.decay {
        let (tile, j) = block_tile::<DECAY_BITS>(s.rows, word0);
        let (gt, eq) = cmp_grid::<N, DECAY_BITS>(tile, j, s.bucket);
        for i in 0..N {
            let mut ok = gt[i];
            let mut boundary = eq[i] & valid[i];
            while boundary != 0 {
                let b = boundary.trailing_zeros() as usize;
                let budget = derive_decay_budget(seed, (word0 + i) * 64 + b, dist);
                if s.value <= budget {
                    ok |= 1 << b;
                } else {
                    ok &= !(1u64 << b);
                }
                boundary &= boundary - 1;
            }
            keep[i] = ok & valid[i];
        }
    }

    // DRV check: min(hold voltage, transient minimum) >= drv, i.e. the
    // cell's bucket below the query's retains, above loses, equal
    // re-derives. Only cells that passed the decay check fall back.
    if let Some(s) = q.drv {
        let (tile, j) = block_tile::<DRV_BITS>(s.rows, word0);
        let (gt, eq) = cmp_grid::<N, DRV_BITS>(tile, j, s.bucket);
        for i in 0..N {
            let mut drv_ok = valid[i] & !gt[i] & !eq[i];
            let mut boundary = eq[i] & keep[i];
            while boundary != 0 {
                let b = boundary.trailing_zeros() as usize;
                if s.value >= derive_drv(seed, (word0 + i) * 64 + b, dist) {
                    drv_ok |= 1 << b;
                }
                boundary &= boundary - 1;
            }
            keep[i] &= drv_ok;
        }
    }
    (keep, valid)
}

/// Resolves `N` consecutive words: decides retention for their cells by
/// mask algebra over the retention blocks' bit-planes ([`keep_chunk`]),
/// samples power-up values for the lost ones from `tile` (the words'
/// power-up tile), and returns the retained count. Same one-tile
/// precondition as [`keep_chunk`].
///
/// `N = 4` is the wide path (a 256-bit effective lane per row
/// operation, unrolled over four `u64`s — portable, no intrinsics);
/// `N = 1` is the word oracle the wide path is tested against and the
/// remainder path at array edges.
#[inline]
fn resolve_chunk<const N: usize>(
    data: &mut [u64; N],
    word0: usize,
    q: &Query<'_>,
    tile: &PowerUpTile,
) -> u32 {
    let (keep, valid) = keep_chunk::<N>(word0, q);
    let mut retained = 0u32;
    for i in 0..N {
        retained += keep[i].count_ones();
        let lost = valid[i] & !keep[i];
        if lost != 0 {
            let word = word0 + i;
            let pw = &tile[word % TILE_WORDS];
            data[i] = (data[i] & !lost) | powerup_word(lost, word, pw, q.planes, q.ev_base);
        }
    }
    retained
}

/// Samples power-up values for the cells of `mask` within `word`, whose
/// power-up record is `pw`: strong-1 cells read 1, strong-0 cells read
/// 0, metastable cells are re-sampled per power-on event. The per-event
/// RNG draw is inherently per-cell; everything around it is mask
/// algebra.
#[inline]
fn powerup_word(mask: u64, word: usize, pw: &PowerUpWord, planes: &DiePlanes, ev_base: u64) -> u64 {
    (pw.strong1 & mask) | sample_meta_word(pw.metastable & mask, word, pw, planes, ev_base)
}

/// Samples fresh per-event values for the metastable cells of `meta`
/// within absolute word `word`, whose power-up record is `pw` — the
/// inner loop of [`powerup_word`], shared verbatim with the rep-delta
/// apply kernel so the sparse path's draws are identical to the dense
/// path's *by construction*: both finish the same hoisted `ev_base`
/// with one [`event_word_at`] keyed on the absolute cell index.
///
/// The per-cell draw is integer-only on the common path: the uniform
/// sample's probability bucket is the random word's top byte (see
/// [`prob_bucket`] for why that identity is exact), so the f64
/// conversion and the exact bias derivation run only on the ~1/256
/// bucket ties. `ev_base` is the hoisted [`crate::rng::event_base`] of
/// the power-on event.
#[inline(always)]
pub(crate) fn sample_meta_word(
    meta: u64,
    word: usize,
    pw: &PowerUpWord,
    planes: &DiePlanes,
    ev_base: u64,
) -> u64 {
    let bias_q = &pw.bias_q;
    let mut value = 0u64;
    let mut meta = meta;
    while meta != 0 {
        let b = meta.trailing_zeros() as usize;
        let cell = word * 64 + b;
        let w = event_word_at(ev_base, cell);
        let uq = (w >> 56) as u8;
        let bq = bias_q[b];
        // The sample outcome is a coin flip — set the bit branchlessly
        // so it never costs a misprediction. Only the tie test branches,
        // and it is taken ~1/256 of the time.
        let one = if uq != bq {
            uq < bq
        } else {
            unit_f64(w) < derive_powerup(planes.seed, cell, &planes.dist).1
        };
        value |= u64::from(one) << b;
        meta &= meta - 1;
    }
    value
}

/// Resolves a full power cycle that [`power_on_outcome`] decides cell
/// by cell against the planes, writing power-up samples for lost cells
/// directly into `data`'s words. Returns the number of retained cells.
///
/// `wide` selects the 4-word (256-bit) lane kernel; `false` forces the
/// single-word oracle everywhere
/// ([`ResolutionMode::BatchedWord`](crate::ResolutionMode::BatchedWord)).
pub(crate) fn resolve(
    data: &mut PackedBits,
    planes: &DiePlanes,
    event: OffEvent,
    stress: f64,
    event_id: u64,
    wide: bool,
) -> usize {
    let q = Query::new(planes, event, stress, event_id);
    let shards = shard_tiles(planes.bits(), data.words_mut(), TILE_WORDS, |tiles, words| {
        let mut retained = 0usize;
        for (t, words) in tiles.zip(words.chunks_mut(TILE_WORDS)) {
            let word0 = t * TILE_WORDS;
            let tile = planes.powerup_tile(t);
            let mut k = 0usize;
            while k < words.len() {
                if wide && words.len() - k >= 4 {
                    let chunk: &mut [u64; 4] =
                        (&mut words[k..k + 4]).try_into().expect("4-word chunk");
                    retained += resolve_chunk::<4>(chunk, word0 + k, &q, tile) as usize;
                    k += 4;
                } else {
                    let chunk: &mut [u64; 1] =
                        (&mut words[k..k + 1]).try_into().expect("1-word chunk");
                    retained += resolve_chunk::<1>(chunk, word0 + k, &q, tile) as usize;
                    k += 1;
                }
            }
        }
        retained
    });
    shards.into_iter().sum()
}

/// Appends word `word`, whose power-up record is `pw`, to the hot list
/// if any valid cell was lost, and accumulates the retained count. One
/// record is [`crate::delta`]'s `HOT_STRIDE` words: absolute word index;
/// keep mask with padding bits forced on (the full path's
/// `data & !lost` preserves padding, so the delta's `data & keep` must
/// too); strong-1 values of the lost cells; metastable mask of the lost
/// cells.
fn note_hot_word(
    hot: &mut Vec<u64>,
    retained: &mut usize,
    pw: &PowerUpWord,
    word: usize,
    keep: u64,
    valid: u64,
) {
    *retained += keep.count_ones() as usize;
    let lost = valid & !keep;
    if lost != 0 {
        hot.extend_from_slice(&[
            word as u64,
            keep | !valid,
            pw.strong1 & lost,
            pw.metastable & lost,
        ]);
    }
}

/// Derives the rep-delta baseline for one `(die, condition)` pair: one
/// keep-mask scan over every word (sharded across threads like a full
/// resolve), recording the **hot words** — words with at least one lost
/// cell — and the total retained count, which is a pure function of the
/// condition and is therefore never re-counted per rep.
pub(crate) fn build_baseline(
    planes: &Arc<DiePlanes>,
    event: OffEvent,
    stress: f64,
) -> crate::delta::Baseline {
    let bits = planes.bits();
    let words = bits.div_ceil(64);
    // The event id only feeds `ev_base`, which the keep scan never
    // reads; 0 is as good as any.
    let q = Query::new(planes, event, stress, 0);
    let shards = shard_tiles(bits, &mut [(); 0], 0, |tiles, _| {
        let mut hot = Vec::new();
        let mut retained = 0usize;
        for t in tiles {
            let (word0, tile) = (t * TILE_WORDS, planes.powerup_tile(t));
            let n = TILE_WORDS.min(words - word0);
            let mut k = 0usize;
            while k < n {
                if n - k >= 4 {
                    let (keep, valid) = keep_chunk::<4>(word0 + k, &q);
                    for i in 0..4 {
                        let pw = &tile[k + i];
                        note_hot_word(
                            &mut hot,
                            &mut retained,
                            pw,
                            word0 + k + i,
                            keep[i],
                            valid[i],
                        );
                    }
                    k += 4;
                } else {
                    let (keep, valid) = keep_chunk::<1>(word0 + k, &q);
                    note_hot_word(&mut hot, &mut retained, &tile[k], word0 + k, keep[0], valid[0]);
                    k += 1;
                }
            }
        }
        (hot, retained)
    });
    // Shards come back in tile order, so the flat hot list stays sorted
    // by absolute word index.
    let mut shards = shards.into_iter();
    let (mut hot, mut retained) = shards.next().unwrap_or_default();
    for (h, r) in shards {
        hot.extend_from_slice(&h);
        retained += r;
    }
    crate::delta::Baseline::new(planes.clone(), hot, retained)
}

/// Overwrites the words of `words` — absolute words `word0..` of an
/// array — that lie in a tile marked in `owed` (one bit per tile) with
/// that tile's power-up sample for event `event_id`: the value a
/// power-on that loses every cell would have written there. Bit-exact with
/// per-cell
/// [`CellParams::sample_powerup_only`](crate::CellParams::sample_powerup_only).
/// Fetches each owed tile's power-up record once, deriving it on first
/// need; unowed words are left as they are.
pub(crate) fn sample_owed(
    words: &mut [u64],
    word0: usize,
    planes: &DiePlanes,
    owed: &PackedBits,
    event_id: u64,
) {
    let ev_base = event_base(planes.seed, event_id);
    let end = word0 + words.len();
    for t in word0 / TILE_WORDS..end.div_ceil(TILE_WORDS) {
        if !owed.get(t) {
            continue;
        }
        let tile = planes.powerup_tile(t);
        for word in (t * TILE_WORDS).max(word0)..((t + 1) * TILE_WORDS).min(end) {
            let pw = &tile[word % TILE_WORDS];
            words[word - word0] =
                powerup_word(valid_mask(planes.bits, word), word, pw, planes, ev_base);
        }
    }
}

/// Writes every owed tile's power-up sample ([`sample_owed`]) into
/// `data` in place, sharded across threads like a resolve, so each
/// worker derives the power-up tiles of its own shard.
pub(crate) fn settle(data: &mut PackedBits, planes: &DiePlanes, owed: &PackedBits, event_id: u64) {
    shard_tiles(planes.bits(), data.words_mut(), TILE_WORDS, |tiles, words| {
        sample_owed(words, tiles.start * TILE_WORDS, planes, owed, event_id)
    });
}

#[inline]
fn valid_mask(bits: usize, word: usize) -> u64 {
    let tail = bits % 64;
    if tail != 0 && word == bits / 64 {
        (1u64 << tail) - 1
    } else {
        u64::MAX
    }
}

/// The number of workers the batched engine actually uses to resolve an
/// array of `bits` cells from the calling thread: 1 below the
/// [`PAR_MIN_BITS`] sharding threshold or under an exhausted
/// [`par::with_budget`] budget, otherwise the number of tile-aligned
/// shards `shard_tiles` splits the array into (which can fall short of
/// the pool size for short arrays). Bench snapshots report this instead of
/// the raw pool size so the recorded thread count matches what ran.
pub fn resolution_workers(bits: usize) -> usize {
    tiles_per_shard(bits).map_or(1, |per_shard| bits.div_ceil(TILE_CELLS).div_ceil(per_shard))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn prob_bucket_orders_consistently() {
        for i in 0..10_000u64 {
            let u = crate::rng::unit_f64(crate::rng::mix64(i));
            let v = crate::rng::unit_f64(crate::rng::mix64(i ^ 0x1234));
            let (bu, bv) = (prob_bucket(u), prob_bucket(v));
            if bu < bv {
                assert!(u < v);
            } else if bu > bv {
                assert!(u > v);
            }
        }
        assert_eq!(prob_bucket(1.0), 255);
        assert_eq!(prob_bucket(0.0), 0);
    }

    #[test]
    fn uniform_bucket_is_the_words_top_byte() {
        // The hot sampler reads `w >> 56` where the quantizer contract
        // says `prob_bucket(unit_f64(w))`; the two must agree exactly
        // for every word (the f64 products involved are all exact
        // power-of-two scalings).
        for i in 0..200_000u64 {
            let w = crate::rng::mix64(i);
            assert_eq!((w >> 56) as u8, prob_bucket(crate::rng::unit_f64(w)));
        }
        for w in [0u64, 1, u64::MAX, u64::MAX << 11, 0xFF00_0000_0000_0000] {
            assert_eq!((w >> 56) as u8, prob_bucket(crate::rng::unit_f64(w)));
        }
    }

    /// The per-cell power-up record [`powerup_record`] must match: one
    /// [`derive_powerup`] and [`prob_bucket`] per cell.
    fn powerup_record_oracle(
        seed: u64,
        cell0: usize,
        bits: usize,
        dist: &CellDistribution,
    ) -> PowerUpWord {
        use crate::cell::PowerUpKind;
        let mut pw = PowerUpWord::EMPTY;
        for b in 0..bits.saturating_sub(cell0).min(64) {
            let (kind, bias) = derive_powerup(seed, cell0 + b, dist);
            match kind {
                PowerUpKind::Strong0 => {}
                PowerUpKind::Strong1 => pw.strong1 |= 1 << b,
                PowerUpKind::Metastable => pw.metastable |= 1 << b,
            }
            pw.bias_q[b] = prob_bucket(bias);
        }
        pw
    }

    /// The per-cell retention-row transpose [`build_bucket_rows`] must
    /// match, single-threaded.
    fn bucket_rows_oracle<const BITS: usize>(
        bits: usize,
        bucket: impl Fn(usize) -> u16,
    ) -> Vec<u64> {
        let mut rows = vec![0u64; bits.div_ceil(TILE_CELLS) * BITS * TILE_WORDS];
        for word in 0..bits.div_ceil(64) {
            let (tile, j) = (word / TILE_WORDS, word % TILE_WORDS);
            let cell0 = word * 64;
            let mut acc = [0u64; BITS];
            for b in 0..(bits - cell0).min(64) {
                let q = bucket(cell0 + b);
                for (r, row) in acc.iter_mut().enumerate() {
                    *row |= u64::from((q >> (BITS - 1 - r)) & 1) << b;
                }
            }
            for (r, row) in acc.into_iter().enumerate() {
                rows[(tile * BITS + r) * TILE_WORDS + j] = row;
            }
        }
        rows
    }

    /// Metastable fractions at, next to and between the ends of the
    /// power-up class tests.
    const META_FRACTIONS: [f64; 6] = [0.0, 1e-9, 0.3, 0.5, 1.0 - 1e-9, 1.0];

    /// Array sizes on either side of word and tile edges.
    const EDGE_BITS: [usize; 7] = [1, 63, 64, 65, 4095, 4096, 4097];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn powerup_tiles_match_the_per_cell_oracle(
            seed in any::<u64>(),
            fraction in 0..META_FRACTIONS.len(),
            size in 0..EDGE_BITS.len(),
        ) {
            let dist = CellDistribution {
                metastable_fraction: META_FRACTIONS[fraction],
                ..CellDistribution::calibrated()
            };
            let bits = EDGE_BITS[size];
            let planes = DiePlanes::build(seed, bits, &dist);
            for t in 0..bits.div_ceil(TILE_CELLS) {
                for (j, pw) in planes.powerup_tile(t).iter().enumerate() {
                    let cell0 = (t * TILE_WORDS + j) * 64;
                    let want = powerup_record_oracle(seed, cell0, bits, &dist);
                    prop_assert_eq!(
                        (pw.strong1, pw.metastable, pw.bias_q),
                        (want.strong1, want.metastable, want.bias_q),
                        "cells {}.. of {} at metastable fraction {}",
                        cell0,
                        bits,
                        dist.metastable_fraction
                    );
                }
            }
        }

        #[test]
        fn bucket_rows_match_the_per_cell_transpose(
            salt in any::<u64>(),
            size in 0..EDGE_BITS.len() + 1,
        ) {
            // Every edge size, plus a few tiles with a ragged last word.
            let bits = EDGE_BITS.get(size).copied().unwrap_or(3 * TILE_CELLS + 77);
            let bucket = |cell: usize| crate::rng::mix64(salt ^ cell as u64) as u16;
            prop_assert_eq!(
                build_bucket_rows::<DRV_BITS>(bits, |c| bucket(c) >> (16 - DRV_BITS)),
                bucket_rows_oracle::<DRV_BITS>(bits, |c| bucket(c) >> (16 - DRV_BITS))
            );
            prop_assert_eq!(
                build_bucket_rows::<DECAY_BITS>(bits, |c| bucket(c) >> (16 - DECAY_BITS)),
                bucket_rows_oracle::<DECAY_BITS>(bits, |c| bucket(c) >> (16 - DECAY_BITS))
            );
        }
    }

    #[test]
    fn cells_on_a_class_bound_classify_like_the_oracle() {
        // Random draws almost never land on a class bound, so pick the
        // metastable fraction that puts one cell's draw `u` exactly on
        // `s` (so it is metastable, not strong-1) or on `s / 2` (strong-1,
        // not strong-0). `1 - s` is exact for `s` in [0.5, 1], so the
        // fraction gives back `s` bit for bit.
        for seed in [1u64, 0xfeed, 0x5EED_0B0B, u64::MAX] {
            for cell in 0..64 {
                let u = unit_f64(cell_word(seed, cell, Stream::PowerUpBias));
                for s in [u, 2.0 * u].into_iter().filter(|s| (0.5..=1.0).contains(s)) {
                    let dist = CellDistribution {
                        metastable_fraction: 1.0 - s,
                        ..CellDistribution::calibrated()
                    };
                    assert_eq!(1.0 - dist.metastable_fraction, s);
                    let got = DiePlanes::build(seed, 64, &dist).powerup_tile(0)[0];
                    let want = powerup_record_oracle(seed, 0, 64, &dist);
                    assert_eq!(
                        (got.strong1, got.metastable, got.bias_q),
                        (want.strong1, want.metastable, want.bias_q),
                        "seed {seed:#x}, cell {cell} on the bound {s}"
                    );
                }
            }
        }
    }

    #[test]
    fn retention_blocks_match_the_per_cell_transpose() {
        // The real quantizers on one calibrated die, a few tiles long.
        let dist = CellDistribution::calibrated();
        let (seed, bits) = (0x7A11_5EED, 2 * TILE_CELLS + 300);
        let planes = DiePlanes::build(seed, bits, &dist);
        let grid = DrvGrid::new(&dist);
        let drv = bucket_rows_oracle::<DRV_BITS>(bits, |c| grid.bucket(derive_drv(seed, c, &dist)));
        assert_eq!(planes.drv_rows(), drv, "DRV block");
        let cuts = &planes.decay_block().cuts;
        let decay = bucket_rows_oracle::<DECAY_BITS>(bits, |c| {
            cuts.bucket(derive_decay_budget(seed, c, &dist))
        });
        assert_eq!(planes.decay_block().rows, decay, "decay block");
    }

    #[test]
    fn decay_cuts_are_sorted_and_weakly_monotone() {
        let cuts = DecayCuts::new(CellDistribution::calibrated().decay_sigma);
        assert!(cuts.cuts.windows(2).all(|w| w[0] <= w[1]), "cut table must be sorted");
        // Weak monotonicity and strict-inequality exactness over a
        // pseudo-random sample of budget-like values.
        let mut prev_x = 0.0f64;
        let mut prev_b = cuts.bucket(prev_x);
        for i in 0..50_000u64 {
            let x =
                (0.5 * crate::rng::std_normal(crate::rng::mix64(i), crate::rng::mix64(!i))).exp();
            let b = cuts.bucket(x);
            if x >= prev_x {
                assert!(b >= prev_b || x == prev_x, "bucket must be weakly monotone");
            }
            if b > prev_b {
                assert!(x > prev_x, "strict bucket inequality must decide the comparison");
            } else if b < prev_b {
                assert!(x < prev_x);
            }
            prev_x = x;
            prev_b = b;
        }
    }

    #[test]
    fn decay_cuts_survive_degenerate_sigma() {
        // sigma == 0 collapses every cut to 1.0: bucketing stays sorted
        // and weakly monotone (everything ties, everything falls back).
        let cuts = DecayCuts::new(0.0);
        assert!(cuts.cuts.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(cuts.bucket(0.5), 0);
        assert_eq!(cuts.bucket(1.0), DECAY_CUTS as u16);
        assert_eq!(cuts.bucket(2.0), DECAY_CUTS as u16);
    }

    #[test]
    fn drv_grid_is_weakly_monotone() {
        let dist = CellDistribution::calibrated();
        let g = DrvGrid::new(&dist);
        let mut prev = g.bucket(0.0);
        let mut v = 0.0;
        while v < 0.7 {
            let b = g.bucket(v);
            assert!(b >= prev);
            prev = b;
            v += 1.37e-4;
        }
    }

    #[test]
    fn cmp_grid_matches_scalar_comparison() {
        // Build one tile's worth of synthetic bucket planes and check
        // the mask-algebra compare against a per-cell reference, at both
        // lane widths and both grid widths in use.
        fn check<const BITS: usize>() {
            let top = (1u16 << BITS) - 1;
            let mut rows = vec![0u64; BITS * TILE_WORDS];
            let mut bucket_of = vec![0u16; TILE_CELLS];
            for (cell, bucket) in bucket_of.iter_mut().enumerate() {
                // A mix of clustered and spread values, deterministic.
                let x = crate::rng::mix64(cell as u64 ^ 0xfeed);
                *bucket = if cell % 3 == 0 { 700 } else { (x as u16) & top };
                let (j, b) = (cell / 64, cell % 64);
                for r in 0..BITS {
                    rows[r * TILE_WORDS + j] |= u64::from((*bucket >> (BITS - 1 - r)) & 1) << b;
                }
            }
            for t in [0u16, 1, 699, 700, 701, top / 2, top - 1, top] {
                for j in [0usize, 4, 60] {
                    let (gt4, eq4) = cmp_grid::<4, BITS>(&rows, j, t);
                    for i in 0..4 {
                        let (gt1, eq1) = cmp_grid::<1, BITS>(&rows, j + i, t);
                        assert_eq!(gt1[0], gt4[i], "lane widths must agree (gt)");
                        assert_eq!(eq1[0], eq4[i], "lane widths must agree (eq)");
                        for b in 0..64 {
                            let c = bucket_of[(j + i) * 64 + b];
                            assert_eq!((gt4[i] >> b) & 1 == 1, c > t, "gt bit, bucket {c} vs {t}");
                            assert_eq!((eq4[i] >> b) & 1 == 1, c == t, "eq bit, bucket {c} vs {t}");
                        }
                    }
                }
            }
        }
        check::<DECAY_BITS>();
        check::<DRV_BITS>();
    }

    #[test]
    fn plane_cache_memoizes_and_evicts() {
        let _guard = crate::global_state_lock();
        clear_plane_cache();
        let dist = CellDistribution::calibrated();
        let (a, a_hit) = planes_for(1, 4096, &dist);
        let (b, b_hit) = planes_for(1, 4096, &dist);
        assert!(Arc::ptr_eq(&a, &b), "same die must be served from cache");
        assert!(!a_hit, "first fetch builds");
        assert!(b_hit, "second fetch hits");
        let (c, c_hit) = planes_for(2, 4096, &dist);
        assert!(!Arc::ptr_eq(&a, &c));
        assert!(!c_hit);
        clear_plane_cache();
    }

    #[test]
    fn concurrent_planes_for_builds_exactly_once() {
        let _guard = crate::global_state_lock();
        // The 4-thread hammer: every thread asks for the same die at
        // once; the slot design must hand every caller the same Arc and
        // record exactly one build (no duplicate derivation, no torn
        // insert-last-wins rebuild).
        let dist = CellDistribution::calibrated();
        let seed = 0xA11C_E55E;
        clear_plane_cache();
        let results: Vec<(Arc<DiePlanes>, bool)> = std::thread::scope(|s| {
            (0..4)
                .map(|_| s.spawn(|| planes_for(seed, 100_000, &dist)))
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().expect("hammer thread panicked"))
                .collect()
        });
        let builds = results.iter().filter(|(_, cached)| !cached).count();
        assert_eq!(builds, 1, "exactly one thread derives the die");
        for (p, _) in &results[1..] {
            assert!(Arc::ptr_eq(&results[0].0, p), "all callers share one plane set");
        }
        clear_plane_cache();
    }

    #[test]
    fn planes_for_survives_concurrent_clears() {
        let _guard = crate::global_state_lock();
        // Hammer the cache from 4 threads while racing clear_plane_cache:
        // every returned plane set must still describe the requested die.
        let dist = CellDistribution::calibrated();
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let dist = &dist;
                s.spawn(move || {
                    for i in 0..20u64 {
                        let bits = 1024 + 64 * ((t + i) % 3) as usize;
                        let (p, _) = planes_for(0xC1EA_0000 + (t + i) % 2, bits, dist);
                        assert_eq!(p.bits(), bits, "planes must match the requested die");
                        if i % 5 == 0 {
                            clear_plane_cache();
                        }
                    }
                });
            }
        });
        clear_plane_cache();
    }

    #[test]
    fn resolution_workers_is_one_below_threshold() {
        // Tiny and mid-sized arrays never fan out, at any budget.
        for bits in [64usize, 4096, 1 << 20, 1 << 21, PAR_MIN_BITS - 1] {
            assert_eq!(resolution_workers(bits), 1, "{bits} bits must stay single-threaded");
        }
        par::with_budget(1, || {
            assert_eq!(resolution_workers(PAR_MIN_BITS * 4), 1, "budget 1 never fans out");
        });
    }

    /// Decay stress of a -110 °C / 20 ms unpowered interval — inside
    /// the decay grid, so it scans the decay block.
    fn cold_stress() -> f64 {
        crate::LeakageModel::calibrated()
            .stress(std::time::Duration::from_millis(20), crate::Temperature::from_celsius(-110.0))
    }

    /// Which retention blocks a plane set has built: `(drv, decay)`.
    fn built(p: &DiePlanes) -> (bool, bool) {
        (p.drv.get().is_some(), p.decay.get().is_some())
    }

    #[test]
    fn retention_blocks_build_only_for_the_queries_that_scan_them() {
        let dist = CellDistribution::calibrated();
        let (seed, bits) = (0x1A2B_3C4D, 3 * TILE_CELLS + 77);
        let planes = DiePlanes::build(seed, bits, &dist);
        let n_tiles = bits.div_ceil(TILE_CELLS);
        assert_eq!(planes.powerup_tiles_built(), 0, "building the planes derives nothing");
        let mut data = PackedBits::zeros(bits);
        // Settling an owed power-up sample derives the owed tiles' power-up
        // records and reads no retention row.
        let mut owed = PackedBits::zeros(n_tiles);
        owed.set(2, true);
        settle(&mut data, &planes, &owed, 2);
        assert_eq!(planes.powerup_tiles_built(), 1, "a settle derives only the owed tiles");
        assert_eq!(built(&planes), (false, false), "power-up samples build no retention block");
        // A droop into the DRV range builds the DRV block only, plus the
        // whole power-up block its lost cells sample.
        resolve(&mut data, &planes, OffEvent::held_with_droop(0.8, 0.31), 0.0, 4, true);
        assert_eq!(built(&planes), (true, false), "a droop builds the DRV block only");
        assert_eq!(planes.powerup_tiles_built(), n_tiles, "a lossy query builds every tile");
        // A cold unpowered interval builds the decay block only.
        let fresh = DiePlanes::build(seed, bits, &dist);
        resolve(&mut data, &fresh, OffEvent::unpowered(), cold_stress(), 5, true);
        assert_eq!(built(&fresh), (false, true), "a cold cycle builds the decay block only");
    }

    #[test]
    fn concurrent_conditions_on_a_new_die_share_each_block() {
        // The extended hammer: four threads resolve different conditions
        // on one newly cached die at the same moment, two racing for the
        // DRV block and two for the decay block. Each block must be
        // built once and shared, and every image must equal the scalar
        // path's.
        use crate::{ArrayConfig, PowerState, ResolutionMode, SramArray, Temperature};
        use std::time::Duration;
        let _guard = crate::global_state_lock();
        let (seed, bits, fill) = (0xB10C_5EED, 5 * TILE_CELLS + 296, 0xA5);
        let config = ArrayConfig::with_bits("hammer", bits);
        // The scalar reference of one cycle: `(stress, image, retained)`.
        let scalar = |event: OffEvent, off_ms: u64| {
            let mut a = SramArray::new(config.clone(), seed);
            a.power_on_with(ResolutionMode::Scalar).unwrap();
            a.fill(fill).unwrap();
            a.power_off(event).unwrap();
            a.elapse(Duration::from_millis(off_ms), Temperature::from_celsius(-110.0));
            let PowerState::Off { stress, .. } = a.power_state() else { unreachable!() };
            let retained = a.power_on_with(ResolutionMode::Scalar).unwrap().retained;
            (stress, a.snapshot().unwrap().to_bytes(), retained)
        };
        let conditions = [
            (OffEvent::held_with_droop(0.8, 0.31), 0),
            (OffEvent::unpowered(), 20),
            (OffEvent::held_with_droop(0.8, 0.29), 0),
            (OffEvent::unpowered(), 30),
        ];
        let expected: Vec<_> = conditions.iter().map(|&(e, ms)| scalar(e, ms)).collect();
        clear_plane_cache();
        let barrier = std::sync::Barrier::new(conditions.len());
        let results: Vec<_> = std::thread::scope(|s| {
            conditions
                .iter()
                .zip(&expected)
                .map(|(&(event, _), &(stress, _, _))| {
                    let (barrier, dist) = (&barrier, &config.distribution);
                    s.spawn(move || {
                        let (planes, _) = planes_for(seed, bits, dist);
                        barrier.wait();
                        let q = Query::new(&planes, event, stress, 1);
                        // Block addresses, as integers so they can leave
                        // the thread.
                        let drv = q.drv.map(|s| s.rows.as_ptr() as usize);
                        let decay = q.decay.map(|s| s.rows.as_ptr() as usize);
                        let mut data = PackedBits::zeros(bits);
                        data.fill_byte(fill);
                        let retained = resolve(&mut data, &planes, event, stress, 1, true);
                        (planes, drv, decay, data.to_bytes(), retained)
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().expect("hammer thread panicked"))
                .collect()
        });
        let planes = &results[0].0;
        let drv_block = planes.drv.get().expect("DRV block built").as_ptr() as usize;
        let decay_block = planes.decay.get().expect("decay block built").rows.as_ptr() as usize;
        for ((p, drv, decay, image, retained), (&(event, _), (_, want_image, want_retained))) in
            results.iter().zip(conditions.iter().zip(&expected))
        {
            assert!(Arc::ptr_eq(planes, p), "all threads share one plane set");
            let held = matches!(event, OffEvent::Held { .. });
            assert_eq!(*drv, held.then_some(drv_block), "one DRV block for every droop");
            assert_eq!(*decay, (!held).then_some(decay_block), "one decay block per cold cycle");
            assert_eq!(retained, want_retained, "{event:?}: retained count");
            assert_eq!(image, want_image, "{event:?}: image");
        }
        clear_plane_cache();
    }

    #[test]
    fn concurrent_reads_of_an_owed_array_build_each_tile_once() {
        // Four threads read clones of one owed array on a newly cached die
        // at the same moment, each walking the array from its own offset
        // so they meet on every tile. Every read must equal the scalar
        // image, and every thread must see the one record each tile's
        // lock holds.
        use crate::{ArrayConfig, ResolutionMode, SramArray};
        let _guard = crate::global_state_lock();
        let (seed, bits) = (0x0ED_7115, 5 * TILE_CELLS + 299);
        let config = ArrayConfig::with_bits("owed-hammer", bits);
        let mut scalar = SramArray::new(config.clone(), seed);
        scalar.power_on_with(ResolutionMode::Scalar).unwrap();
        let want = scalar.snapshot().unwrap();
        clear_plane_cache();
        let mut owed = SramArray::new(config, seed);
        owed.power_on().unwrap();
        let (planes, cached) = planes_for(seed, bits, &owed.config().distribution);
        assert!(cached, "the power-on cached the die");
        assert_eq!(planes.powerup_tiles_built(), 0, "the power-on sampled nothing");
        let (nbytes, want_bytes) = (bits / 8, want.to_bytes());
        let barrier = std::sync::Barrier::new(4);
        let seen: Vec<Vec<usize>> = std::thread::scope(|s| {
            (0..4usize)
                .map(|k| {
                    let (array, barrier, want, want_bytes) =
                        (owed.clone(), &barrier, &want, &want_bytes);
                    let planes = &planes;
                    s.spawn(move || {
                        barrier.wait();
                        for start in (k * 131..nbytes).step_by(389) {
                            let len = 300.min(nbytes - start);
                            let got = array.read_bytes(start, len);
                            assert_eq!(got, want_bytes[start..start + len], "bytes at {start}");
                        }
                        for i in (k..bits).step_by(1021).chain(bits - 3..bits) {
                            assert_eq!(array.read_bit(i).unwrap(), want.get(i), "bit {i}");
                        }
                        assert_eq!(&array.snapshot().unwrap(), want, "snapshot");
                        planes
                            .powerup
                            .iter()
                            .map(|t| t.get().map_or(0, |tile| tile.as_ptr() as usize))
                            .collect()
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().expect("hammer thread panicked"))
                .collect()
        });
        assert!(seen[0].iter().all(|&a| a != 0), "every tile was read, so every tile is built");
        for tiles in &seen[1..] {
            assert_eq!(tiles, &seen[0], "all threads share each tile's one build");
        }
        clear_plane_cache();
    }
}
