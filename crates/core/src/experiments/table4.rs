//! Table 4: d-cache extraction accuracy vs victim array size under Linux.
//!
//! One microbenchmark process per core stores an array of 8-byte
//! elements (4 KB → 32 KB) through the d-cache while background OS
//! activity evicts lines. Volt Boot then extracts both ways of every
//! core's d-cache, and the analysis counts how many array elements
//! survive in W0, W1, and their union.
//!
//! Shape to reproduce: full extraction up to half the cache (the array
//! fits beside the noise), dropping into the paper's range when the
//! array is cache-sized (every noise eviction destroys a victim line).

use crate::analysis;
use crate::attack::{Extraction, VoltBootAttack};
use crate::os_noise::OsNoise;
use crate::workloads::{self, ARRAY_SEED};
use voltboot_soc::devices;

/// Array sizes evaluated by the paper.
pub const ARRAY_KB: [u32; 4] = [4, 8, 16, 32];

/// One (array size × core) cell of the table, averaged over trials.
#[derive(Debug, Clone, PartialEq)]
pub struct Table4Cell {
    /// Victim array size in KB.
    pub array_kb: u32,
    /// Core index.
    pub core: usize,
    /// Mean elements found only counting W0.
    pub w0: f64,
    /// Mean elements found only counting W1.
    pub w1: f64,
    /// Mean elements found in W0 ∪ W1.
    pub union: f64,
    /// Union as a fraction of the array's element count.
    pub extracted_fraction: f64,
}

/// The full table.
#[derive(Debug, Clone, PartialEq)]
pub struct Table4Result {
    /// All cells, ordered by array size then core.
    pub cells: Vec<Table4Cell>,
    /// Trials averaged per cell.
    pub trials: usize,
}

impl Table4Result {
    /// The cell for one `(array_kb, core)` pair.
    pub fn cell(&self, array_kb: u32, core: usize) -> Option<&Table4Cell> {
        self.cells.iter().find(|c| c.array_kb == array_kb && c.core == core)
    }

    /// Mean extraction fraction across cores for one array size.
    pub fn mean_extracted(&self, array_kb: u32) -> f64 {
        let cells: Vec<&Table4Cell> =
            self.cells.iter().filter(|c| c.array_kb == array_kb).collect();
        cells.iter().map(|c| c.extracted_fraction).sum::<f64>() / cells.len() as f64
    }
}

/// Runs the experiment: `trials` repetitions per array size (the paper
/// uses 3), all four cores per trial.
pub fn run(seed: u64, trials: usize) -> Table4Result {
    run_on(seed, trials, devices::raspberry_pi_4, "TP15")
}

/// The same sweep on a Raspberry Pi 3 — a 4-way 32 KB L1D, so noise has
/// more ways to land in before it must evict the victim. The crossover
/// shape is the same; the degradation point sits at the same total
/// capacity.
pub fn run_pi3(seed: u64, trials: usize) -> Table4Result {
    run_on(seed, trials, devices::raspberry_pi_3, "PP58")
}

/// Per-core `(w0, w1, union)` element counts from one trial.
type TrialCounts = [(f64, f64, f64); 4];

fn run_on(
    seed: u64,
    trials: usize,
    build: fn(u64) -> voltboot_soc::Soc,
    pad: &str,
) -> Table4Result {
    // Every (array size, trial) cell uses a fresh board and its own
    // noise stream, so they all run in parallel; the accumulation below
    // folds the results in the original deterministic order.
    let jobs: Vec<Box<dyn FnOnce() -> TrialCounts + Send + '_>> = ARRAY_KB
        .iter()
        .flat_map(|&kb| {
            (0..trials).map(move |trial| {
                Box::new(move || run_trial(seed, build, pad, kb, trial)) as Box<_>
            })
        })
        .collect();
    let per_trial = voltboot_sram::par::join_all(jobs);

    let mut cells: Vec<Table4Cell> = Vec::new();
    for (ki, &kb) in ARRAY_KB.iter().enumerate() {
        let count = kb * 1024 / 8;
        // Accumulators per core.
        let mut acc = vec![(0.0f64, 0.0f64, 0.0f64); 4];
        for trial in 0..trials {
            let counts = &per_trial[ki * trials + trial];
            for (acc_core, c) in acc.iter_mut().zip(counts.iter()) {
                acc_core.0 += c.0;
                acc_core.1 += c.1;
                acc_core.2 += c.2;
            }
        }
        for (core, (w0, w1, union)) in acc.into_iter().enumerate() {
            let t = trials as f64;
            cells.push(Table4Cell {
                array_kb: kb,
                core,
                w0: w0 / t,
                w1: w1 / t,
                union: union / t,
                extracted_fraction: union / t / count as f64,
            });
        }
    }
    Table4Result { cells, trials }
}

/// One `(array size, trial)` cell: stage the victims, attack, count
/// surviving elements per core.
fn run_trial(
    seed: u64,
    build: fn(u64) -> voltboot_soc::Soc,
    pad: &str,
    kb: u32,
    trial: usize,
) -> TrialCounts {
    let count = kb * 1024 / 8;
    let mut soc = build(seed ^ ((kb as u64) << 24) ^ (trial as u64));
    soc.power_on_all();
    let mut noise = OsNoise::new(seed ^ 0xBAD ^ ((kb as u64) << 8) ^ trial as u64);
    // One benchmark process per core, as in the paper (§7.1.2:
    // "We launch one benchmark process per core").
    for core in 0..4 {
        workloads::microbenchmark_array(&mut soc, core, count, &mut noise).expect("victim runs");
    }
    let ways = soc.core(0).expect("core 0").l1d.geometry().ways;
    let outcome = VoltBootAttack::new(pad)
        .extraction(Extraction::Caches { cores: vec![0, 1, 2, 3] })
        .execute(&mut soc)
        .expect("attack runs");
    let mut counts: TrialCounts = [(0.0, 0.0, 0.0); 4];
    for (core, acc_core) in counts.iter_mut().enumerate() {
        // W0/W1 columns as in the paper's table; the union spans
        // every way the device has (2 on the A72, 4 on the A53).
        let per_way: Vec<Vec<bool>> = (0..ways)
            .map(|w| {
                let img = &outcome.image(&format!("core{core}.l1d.way{w}")).unwrap().bits;
                analysis::elements_present(img, ARRAY_SEED, count as usize)
            })
            .collect();
        let found_in = |w: usize| per_way[w].iter().filter(|&&p| p).count();
        let union = (0..count as usize).filter(|&i| per_way.iter().any(|way| way[i])).count();
        acc_core.0 += found_in(0) as f64;
        acc_core.1 += found_in(1) as f64;
        acc_core.2 += union as f64;
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_arrays_extract_fully_and_large_arrays_degrade() {
        // One trial to keep the test quick; the bench runs three.
        let r = run(0x7AB4E4, 1);
        assert_eq!(r.cells.len(), 16);
        for kb in [4, 8, 16] {
            let mean = r.mean_extracted(kb);
            assert!(mean > 0.99, "{kb} KB: extracted {mean}");
        }
        let mean32 = r.mean_extracted(32);
        assert!(
            mean32 > 0.75 && mean32 < 0.99,
            "32 KB should degrade into the paper's band: {mean32}"
        );
    }

    #[test]
    fn elements_split_across_both_ways_at_32kb() {
        let r = run(0x7AB4E5, 1);
        let c = r.cell(32, 0).unwrap();
        assert!(c.w0 > 100.0 && c.w1 > 100.0, "w0 {} w1 {}", c.w0, c.w1);
    }
}
