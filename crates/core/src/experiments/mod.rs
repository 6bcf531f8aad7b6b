//! Regenerators for every table and figure in the paper's evaluation,
//! and [`INDEX`], the one table of the paper's claims.
//!
//! Each submodule runs one experiment on the simulated hardware and
//! returns a typed result. Each [`INDEX`] entry runs one or more of them
//! and gives a [`Run`]: the paper's claims, each with the band a
//! measurement must fall in and the value measured, plus the detail
//! tables, the PBM figures and a digest of the results. The paper's
//! values are written here and nowhere else in the source.
//!
//! The `voltboot-bench` crate's `repro` binary prints them. `repro all`
//! prints [`render_all`], the block `EXPERIMENTS.md` carries and the
//! root `golden` test compares with a fresh run; `repro <id>` prints one
//! entry's detail and writes its figures.

pub mod ablations;
pub mod dram_baseline;
pub mod fig3;
pub mod fig7;
pub mod fig8;
pub mod fig9_10;
pub mod generality;
pub mod keytheft;
pub mod sec62;
pub mod sec72;
pub mod sec8;
pub mod table1;
pub mod table4;

use crate::analysis::{ascii_thumbnail, to_pbm};
use crate::countermeasures::Countermeasure;
use crate::recover::crc64;
use crate::report::{pct, TextTable};
use std::fmt::Debug;
use std::ops::RangeInclusive;
use voltboot_soc::{devices, CacheGeometry, Soc};
use voltboot_sram::PackedBits;

/// The die seed the regenerators use unless `VOLTBOOT_SEED` names
/// another; `EXPERIMENTS.md` shows its results.
pub const DEFAULT_SEED: u64 = 0x0020_22A5_B007;

/// How a claim's band and measurement print.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unit {
    /// A fraction, printed as a percentage.
    Percent,
    /// A fraction, printed with three decimals.
    Fraction,
    /// Volts.
    Volts,
    /// A whole number.
    Count,
    /// An outcome: 1 is yes, 0 is no.
    YesNo,
}

impl Unit {
    /// Formats `value` in this unit.
    pub fn show(self, value: f64) -> String {
        match self {
            Unit::Percent => pct(value),
            Unit::Fraction => format!("{value:.3}"),
            Unit::Volts => format!("{value:.1} V"),
            Unit::Count => format!("{value:.0}"),
            Unit::YesNo => if value != 0.0 { "yes" } else { "no" }.to_string(),
        }
    }
}

/// The measurements that reproduce one of the paper's claims.
pub type Band = RangeInclusive<f64>;

/// One of the paper's claims and the value a run measured for it.
#[derive(Debug, Clone, PartialEq)]
pub struct Claim {
    /// What is measured.
    pub metric: String,
    /// The paper's value as printed (or the cited literature's).
    pub paper: &'static str,
    /// The measurements that reproduce the paper's shape.
    pub band: Band,
    /// How the band and the measurement print.
    pub unit: Unit,
    /// The measured value; a yes/no claim measures 1 or 0.
    pub measured: f64,
}

impl Claim {
    /// Whether the measurement lies inside the band.
    pub fn holds(&self) -> bool {
        self.band.contains(&self.measured)
    }

    fn render(&self) -> String {
        let (lo, hi) = (*self.band.start(), *self.band.end());
        let show = |v| self.unit.show(v);
        let band = if lo == hi { show(lo) } else { format!("{}..{}", show(lo), show(hi)) };
        let verdict = if self.holds() { "" } else { "  OUTSIDE BAND" };
        line(&self.metric, self.paper, &band, &format!("{}{verdict}", show(self.measured)))
    }
}

fn line(metric: &str, paper: &str, band: &str, measured: &str) -> String {
    format!("  {metric:<52} {paper:<14} {band:<18} {measured}\n")
}

/// What running one [`INDEX`] entry gives.
#[derive(Debug, Clone, PartialEq)]
pub struct Run {
    /// The entry's claims, measured.
    pub claims: Vec<Claim>,
    /// The tables `repro <id>` prints.
    pub detail: String,
    /// PBM figures as `(file name, contents)`.
    pub figures: Vec<(String, String)>,
    /// CRC-64 of the results' `{:?}` rendering: any change to a measured
    /// value moves it.
    pub digest: u64,
}

impl Run {
    fn new(results: &impl Debug, claims: Vec<Claim>, detail: String) -> Run {
        let digest = crc64(format!("{results:?}").as_bytes());
        Run { claims, detail, figures: Vec::new(), digest }
    }
}

/// One experiment of the paper's evaluation.
#[derive(Debug, Clone, Copy)]
pub struct Entry {
    /// The name `repro <id>` takes.
    pub id: &'static str,
    /// Where the paper reports it.
    pub section: &'static str,
    /// What it shows.
    pub title: &'static str,
    /// Runs it on the die of a seed.
    pub run: fn(u64) -> Run,
}

impl Entry {
    /// The entry's heading, digest and claim lines.
    pub fn render(&self, run: &Run) -> String {
        let (id, section, title, digest) = (self.id, self.section, self.title, run.digest);
        let mut out = format!("{id} — {section}: {title} (digest {digest:#018x})\n");
        out.extend(run.claims.iter().map(Claim::render));
        out
    }
}

const fn entry(
    id: &'static str,
    section: &'static str,
    title: &'static str,
    run: fn(u64) -> Run,
) -> Entry {
    Entry { id, section, title, run }
}

/// Every experiment, in the paper's order.
pub const INDEX: &[Entry] = &[
    entry("table1", "Table 1", "cold boot on the BCM2711 d-cache is ineffective", table1),
    entry("fig3", "Figure 3", "d-cache snapshot after a cold boot at -40 C", fig3),
    entry("table2", "Table 2, Figure 4", "evaluated platforms and their power delivery", table2),
    entry("table3", "Table 3", "probe points and target power domains", table3),
    entry("sec62", "Section 6.2", "memory accessible to an attacker after boot", sec62),
    entry("fig7", "Figure 7", "i-cache retention for bare-metal victims", fig7),
    entry("fig8", "Figure 8", "cache snapshots with an OS running (0xAA victim app)", fig8),
    entry("table4", "Table 4", "d-cache extraction vs array size under OS noise", table4),
    entry("sec72", "Section 7.2", "CPU vector registers (v0..v31)", sec72),
    entry("fig9_10", "Figures 9, 10", "iRAM extraction on the i.MX535 and its error map", fig9_10),
    entry("sec8", "Section 8", "countermeasures and the power-down purge", sec8),
    entry("keytheft", "Sections 1-2", "end-to-end disk-encryption key theft", keytheft),
    entry("dram_baseline", "Sections 2-3", "cold boot on DRAM vs on-chip SRAM", dram_baseline),
    entry("remanence", "Section 3", "SRAM remanence vs temperature and off-time", remanence),
    entry("probe_sweep", "Ablation", "probe current and held voltage vs retention", probe_sweep),
    entry("generality", "Extension", "one pipeline, three platforms", generality),
];

/// Runs every [`INDEX`] entry at `seed`, in parallel; the runs come back
/// in INDEX order.
pub fn run_all(seed: u64) -> Vec<Run> {
    let jobs: Vec<Box<dyn FnOnce() -> Run + Send>> =
        INDEX.iter().map(|e| Box::new(move || (e.run)(seed)) as Box<_>).collect();
    voltboot_sram::par::join_all(jobs)
}

/// The block `repro all` prints: every entry's digest and claims, for
/// `runs` in [`INDEX`] order.
pub fn render_all(seed: u64, runs: &[Run]) -> String {
    let mut out = format!("Volt Boot reproduction: the paper's claims on die seed {seed:#x}\n\n");
    out.push_str(&line("claim", "paper", "accepted band", "measured"));
    for (entry, run) in INDEX.iter().zip(runs) {
        out.push('\n');
        out.push_str(&entry.render(run));
    }
    out
}

fn claim(metric: &str, paper: &'static str, band: Band, unit: Unit, value: f64) -> Claim {
    Claim { metric: metric.to_string(), paper, band, unit, measured: value }
}

/// A claim on a fraction, printed as a percentage.
fn share(metric: &str, paper: &'static str, band: Band, value: f64) -> Claim {
    claim(metric, paper, band, Unit::Percent, value)
}

/// A yes/no claim: the paper says `expected`, the run saw `seen`.
fn outcome(metric: &str, expected: bool, seen: bool) -> Claim {
    let (want, got) = (f64::from(u8::from(expected)), f64::from(u8::from(seen)));
    claim(metric, if expected { "yes" } else { "no" }, want..=want, Unit::YesNo, got)
}

fn yes(b: bool) -> String {
    if b { "YES" } else { "no" }.to_string()
}

fn table1(seed: u64) -> Run {
    let result = table1::run(seed);
    let mut table = TextTable::new(["Temperature", "Mean error", "HD vs startup state"]);
    let mut claims = Vec::new();
    for (row, paper) in result.rows.iter().zip(["50.14%", "50.06%", "50.39%"]) {
        let (celsius, hd) = (format!("{:.0} C", row.celsius), format!("{:.3}", row.hd_vs_startup));
        table.row([celsius.clone(), pct(row.mean_error), hd]);
        claims.push(share(&format!("error at {celsius}"), paper, 0.45..=0.55, row.mean_error));
    }
    let hd = result.rows[2].hd_vs_startup;
    claims.push(claim("fractional HD vs startup state", "~0.10", 0.08..=0.12, Unit::Fraction, hd));
    Run::new(&result, claims, table.render())
}

fn fig3(seed: u64) -> Run {
    let result = fig3::run(seed);
    let claims = vec![
        share("ones fraction (random power-up state)", "~50%", 0.45..=0.55, result.ones_fraction),
        share("error vs stored pattern", "~50%", 0.45..=0.55, result.error_vs_stored),
    ];
    let detail = format!(
        "fig3_dcache.pbm: 512x256, WAY0 = 16 KB as in the paper's caption\n\n\
         ASCII thumbnail (uniform speckle = power-up state):\n\n{}",
        ascii_thumbnail(&result.way_image, 64, 16)
    );
    let figures = vec![("fig3_dcache.pbm".into(), to_pbm(&result.way_image, 512))];
    Run { figures, ..Run::new(&result, claims, detail) }
}

/// The evaluated boards, in Table 2's order.
const BOARDS: [fn(u64) -> Soc; 3] =
    [devices::raspberry_pi_4, devices::raspberry_pi_3, devices::imx53_qsb];

fn table2(seed: u64) -> Run {
    let boards = BOARDS.map(|build| build(seed));
    let geom = |g: CacheGeometry| format!("{}KB/{}w", g.size_bytes / 1024, g.ways);
    let mut table = TextTable::new(["Board", "SoC", "CPU", "L1D", "L1I", "L2", "iRAM", "JTAG"]);
    let mut rails = String::from("Figure 4: power-delivery topology per board\n");
    for soc in &boards {
        let core = soc.core(0).expect("every board has core 0");
        let caches = [core.l1d.geometry(), core.l1i.geometry(), soc.l2().geometry()].map(geom);
        let iram = soc.iram().map_or("-".into(), |i| format!("{}KB", i.len() / 1024));
        let jtag = if soc.jtag_read(0, 0).is_ok() || soc.iram().is_some() { "yes" } else { "no" };
        let names = [soc.board_name(), soc.soc_name()].map(str::to_string);
        let cpu = format!("{}x {}", soc.core_count(), soc.cpu_name());
        table.row(names.into_iter().chain([cpu]).chain(caches).chain([iram, jtag.to_string()]));
        let network = soc.network();
        rails += &format!("{} — PMIC {}\n", soc.board_name(), network.pmic().model);
        for rail in &network.pmic().rails {
            let on_rail = network.domains().iter().filter(|d| d.rail == rail.name);
            let domains: Vec<&str> = on_rail.map(|d| d.name.as_str()).collect();
            let domains = if domains.is_empty() { "-".into() } else { domains.join(", ") };
            let (name, volts, kind) = (&rail.name, rail.nominal_voltage, rail.regulator.label());
            rails += &format!("  {name:<10} {volts:>4.2} V  {kind:<4} -> domains: {domains}\n");
        }
    }
    let iram_kb = boards[2].iram().map_or(0, |i| i.len() / 1024) as f64;
    let claims = vec![claim("i.MX535 iRAM (KB)", "128 KB", 128.0..=128.0, Unit::Count, iram_kb)];
    let detail = format!("{}\n{rails}", table.render());
    Run::new(&detail, claims, detail.clone())
}

fn table3(seed: u64) -> Run {
    let header =
        ["Board", "PCB test pad", "Nominal voltage", "Target memories", "Power domain (rail)"];
    let mut table = TextTable::new(header);
    for (board, _, _, pad, rail, volts, memories) in devices::catalog_rows() {
        table.row([board, pad, &format!("{volts} V"), memories, rail]);
    }
    // Each pad's voltage, read back from the live device model.
    let mut claims = Vec::new();
    for (build, paper) in BOARDS.into_iter().zip(["0.8 V", "1.2 V", "1.3 V"]) {
        let soc = build(seed);
        let pad = &soc.network().probe_points()[0];
        let rail = soc.network().pmic().rail(&pad.rail).expect("a probe point names a rail");
        let band: f64 = paper.trim_end_matches(" V").parse().expect("the paper value is in volts");
        let metric = format!("{} pad {} -> {}", soc.board_name(), pad.pad, pad.rail);
        claims.push(claim(&metric, paper, band..=band, Unit::Volts, rail.nominal_voltage));
    }
    let detail = table.render();
    Run::new(&detail, claims, detail.clone())
}

fn sec62(seed: u64) -> Run {
    let result = sec62::run(seed);
    let mut table = TextTable::new(["Device", "Memory", "Accessible"]);
    for row in &result.rows {
        table.row([row.device.clone(), row.memory.clone(), pct(row.accessible_fraction)]);
    }
    let accessible = |i: usize| result.rows[i].accessible_fraction;
    let claims = vec![
        share("BCM2711 L1 caches", "100%", 1.0..=1.0, accessible(0)),
        share("BCM2711 shared L2 (VideoCore boots first)", "~0%", 0.0..=0.05, accessible(1)),
        share("i.MX535 iRAM (boot-ROM scratchpad)", "~95%", 0.93..=0.97, accessible(2)),
    ];
    Run::new(&result, claims, table.render())
}

fn fig7(seed: u64) -> Run {
    let result = fig7::run(seed);
    let mut table =
        TextTable::new(["SoC", "Core 0", "Core 1", "Core 2", "Core 3", "NOP words (c0/w0)"]);
    let (mut claims, mut figures) = (Vec::new(), Vec::new());
    for d in &result.devices {
        let path = format!("fig7_{}_icache.pbm", d.soc.to_lowercase());
        figures.push((path, to_pbm(&d.way_image_core0, 512)));
        let (accuracy, nops) = (d.per_core_accuracy.iter().map(|&a| pct(a)), d.nop_words_core0);
        table.row(std::iter::once(d.soc.clone()).chain(accuracy).chain([nops.to_string()]));
        let min = d.per_core_accuracy.iter().copied().fold(f64::INFINITY, f64::min);
        let metric = format!("{} retention accuracy (all cores)", d.soc);
        claims.push(share(&metric, "100%", 1.0..=1.0, min));
    }
    Run { figures, ..Run::new(&result, claims, table.render()) }
}

fn fig8(seed: u64) -> Run {
    let result = fig8::run(seed);
    let found = result.instruction_fraction;
    let claims = vec![share("victim instructions found in i-cache", "all", 1.0..=1.0, found)];
    let detail = format!(
        "0xAA bytes in extracted d-cache way 0: {}\n\n\
         D-cache thumbnail (banded regions = the 0xAA structure):\n\n{}",
        result.pattern_bytes,
        ascii_thumbnail(&result.dcache_way, 64, 16)
    );
    let figures = vec![
        ("fig8_dcache.pbm".into(), to_pbm(&result.dcache_way, 512)),
        ("fig8_icache.pbm".into(), to_pbm(&result.icache_way, 512)),
    ];
    Run { figures, ..Run::new(&result, claims, detail) }
}

fn table4(seed: u64) -> Run {
    let result = table4::run(seed, 3);
    let mut detail = String::new();
    type Show = fn(&table4::Table4Cell) -> String;
    let columns: [(&str, Show); 4] = [
        ("W0", |c| format!("{:.1}", c.w0)),
        ("W1", |c| format!("{:.1}", c.w1)),
        ("W0 u W1", |c| format!("{:.1}", c.union)),
        ("% extracted", |c| pct(c.extracted_fraction)),
    ];
    for &kb in &table4::ARRAY_KB {
        let cells: Vec<_> =
            (0..4).map(|core| result.cell(kb, core).expect("core measured")).collect();
        let mut table = TextTable::new(["", "Core 0", "Core 1", "Core 2", "Core 3"]);
        for (label, show) in columns {
            table.row(std::iter::once(label.to_string()).chain(cells.iter().map(|c| show(c))));
        }
        detail += &format!("array size {kb} KB ({} elements):\n{}\n", kb * 128, table.render());
    }
    // The BCM2837's 4-way L1D shows the same shape.
    let pi3 = table4::run_pi3(seed ^ 0x3, 1);
    detail += "BCM2837 (4-way L1D) cross-check, 1 trial:\n";
    for &kb in &table4::ARRAY_KB {
        detail += &format!("  {kb:>2} KB: {}\n", pct(pi3.mean_extracted(kb)));
    }
    let paper = [
        (4, "100.00%", 1.0..=1.0),
        (8, "99.97–100%", 0.99..=1.0),
        (16, "99.85–100%", 0.99..=1.0),
        (32, "85.67–91.78%", 0.85..=0.92),
    ];
    let claims = paper.into_iter().map(|(kb, paper, band)| {
        share(&format!("mean extraction at {kb} KB"), paper, band, result.mean_extracted(kb))
    });
    Run::new(&(&result, &pi3), claims.collect(), detail)
}

fn sec72(seed: u64) -> Run {
    let result = sec72::run(seed);
    let mut table = TextTable::new(["SoC", "Registers retained", "Total"]);
    let mut claims = Vec::new();
    for d in &result.devices {
        table.row([d.soc.clone(), d.retained_registers.to_string(), d.total_registers.to_string()]);
        let retained = d.retained_registers as f64 / d.total_registers as f64;
        let metric = format!("{} registers retained", d.soc);
        claims.push(share(&metric, "full (100%)", 1.0..=1.0, retained));
    }
    Run::new(&result, claims, table.render())
}

fn fig9_10(seed: u64) -> Run {
    let result = fig9_10::run(seed);
    let (series, clusters) = (&result.hamming_series, &result.error_clusters);
    let windows = series.len();
    // The paper's error map: damage at the start (boot-ROM scratchpad)
    // and the end (boot stack) of the iRAM, nothing in between.
    let edge = windows / 16;
    let at_edges = clusters.iter().filter(|&&w| w < edge || w >= windows - edge).count();
    let at_edges = at_edges as f64 / clusters.len().max(1) as f64;
    let middle: usize = series[windows / 4..3 * windows / 4].iter().sum();
    let claims = vec![
        share("overall bit error", "2.7%", 0.015..=0.04, result.overall_error),
        share("error windows in the first or last 1/16", "all", 1.0..=1.0, at_edges),
        claim("bit errors in the middle half", "none", 0.0..=0.0, Unit::Count, middle as f64),
    ];
    let quad0 = PackedBits::from_bytes(&result.extracted.to_bytes()[..32 * 1024]);
    // One character per 32 windows, by the largest HD among them.
    let glyph = |hd: usize| ['_', '.', 'o', '#'][[0, 63, 191].iter().filter(|&&t| hd > t).count()];
    let plot: String = series.chunks(32).map(|c| glyph(*c.iter().max().unwrap_or(&0))).collect();
    let detail = format!(
        "First quadrant thumbnail (damage at the top = ROM scratchpad):\n\n{}\n\
         Figure 10, 512-bit windows with errors: {} of {windows}\n\
         error cluster windows: first block {:?}..{:?}, tail block from {:?}\n\n\
         HD series (each char = 32 windows; '#' = heavy damage):\n{plot}\n",
        ascii_thumbnail(&quad0, 64, 24),
        clusters.len(),
        clusters.first(),
        clusters.iter().take_while(|&&w| w < 1000).last(),
        clusters.iter().find(|&&w| w >= 1000),
    );
    let mut run = Run::new(&result, claims, detail);
    for q in 0..4 {
        let base = 0xF800_0000 + q * 0x8000;
        run.detail += &format!("fig9_iram_q{q}.pbm: {base:#X}..{:#X}\n", base + 0x7FFF);
        run.figures.push((format!("fig9_iram_q{q}.pbm"), fig9_10::render_quadrant_pbm(&result, q)));
    }
    run
}

fn sec8(seed: u64) -> Run {
    let result = sec8::run(seed);
    let header = ["Countermeasure", "Attack succeeded", "Recovered", "Stopped at", "Deployable"];
    let mut table = TextTable::new(header);
    let mut claims = Vec::new();
    for row in &result.rows {
        let name = row.countermeasure.name();
        let deployable = if row.deployable { "yes" } else { "needs hardware" };
        let stopped = row.stopped_at.as_deref().unwrap_or("-");
        let (succeeded, recovered) = (yes(row.attack_succeeded), pct(row.recovered_fraction));
        table.row([name, &succeeded, &recovered, stopped, deployable]);
        // The paper's assessment: only these leave the L1 data in reach.
        use Countermeasure::{L2ResetPin, None, PowerDownPurge};
        let survives = matches!(row.countermeasure, None | PowerDownPurge | L2ResetPin);
        claims.push(outcome(&format!("attack succeeds: {name}"), survives, row.attack_succeeded));
    }
    let (orderly, abrupt) = sec8::purge_timing_demo(seed);
    claims.push(share("recovered after ORDERLY shutdown + purge", "~0%", 0.0..=0.02, orderly));
    claims.push(share("recovered after ABRUPT disconnect", "high", 0.5..=1.0, abrupt));
    Run::new(&(&result, orderly, abrupt), claims, table.render())
}

fn keytheft(seed: u64) -> Run {
    use keytheft::KeyHome::{LockedCache, Registers};
    let homes =
        [(Registers, "TRESOR", "NEON registers"), (LockedCache, "CaSE", "a locked cache way")];
    let results: Vec<_> = homes.iter().map(|&(home, ..)| keytheft::run(seed, home)).collect();
    let (mut claims, mut detail) = (Vec::new(), String::new());
    for ((_, style, place), result) in homes.iter().zip(&results) {
        detail += &format!("key home: {style}-style {place}\n");
        if let Some(pt) = &result.recovered_plaintext {
            detail += &format!("  decrypted sector 0: {pt:?}\n");
        }
        let (voltboot, coldboot) = (result.voltboot_recovers, result.coldboot_recovers);
        claims.push(outcome(&format!("Volt Boot steals the key from {place}"), true, voltboot));
        claims.push(outcome(&format!("cold boot (-40 C) steals it from {place}"), false, coldboot));
    }
    Run::new(&results, claims, detail)
}

fn dram_baseline(seed: u64) -> Run {
    let result = dram_baseline::run(seed);
    let header = ["Temperature", "Off time", "DRAM decay", "DRAM key", "Repaired bits", "SRAM key"];
    let mut table = TextTable::new(header);
    for row in &result.rows {
        let (celsius, off) = (format!("{:.0} C", row.celsius), format!("{} s", row.off_seconds));
        let repaired = row.repaired_bits.map_or("-".into(), |b| b.to_string());
        let (dram, sram) = (yes(row.dram_key_recovered), yes(row.sram_key_recovered));
        table.row([celsius, off, pct(row.dram_decay), dram, repaired, sram]);
    }
    let (chilled, warm) = (&result.rows[0], &result.rows[1]);
    let sram = result.rows.iter().any(|r| r.sram_key_recovered);
    let claims = vec![
        outcome("chilled DRAM transplant recovers the key", true, chilled.dram_key_recovered),
        outcome("warm DRAM transplant recovers the key", false, warm.dram_key_recovered),
        outcome("cold boot recovers the on-chip SRAM key", false, sram),
    ];
    Run::new(&result, claims, table.render())
}

fn remanence(seed: u64) -> Run {
    let curve = ablations::remanence_curve(seed);
    let point = |celsius: f64, off_ms: u64| {
        let p = curve.iter().find(|p| p.celsius == celsius && p.off_ms == off_ms);
        p.expect("the curve covers every grid point").retention
    };
    let temps = [-150.0, -110.0, -90.0, -40.0, 0.0, 25.0];
    let header = temps.iter().map(|t| format!("{t:.0} C"));
    let mut table = TextTable::new(std::iter::once("off time".to_string()).chain(header));
    for ms in [1u64, 5, 20, 100, 500] {
        let row = temps.iter().map(|&t| pct(point(t, ms)));
        table.row(std::iter::once(format!("{ms} ms")).chain(row));
    }
    let claims = vec![
        share("retention at -110 C / 20 ms", "~80% [lit.]", 0.7..=0.9, point(-110.0, 20)),
        share("retention at -40 C / 100 ms", "~0%", 0.0..=0.01, point(-40.0, 100)),
    ];
    Run::new(&curve, claims, table.render())
}

fn probe_sweep(seed: u64) -> Run {
    let sweep = ablations::probe_current_sweep(seed);
    let mut table = TextTable::new(["Current limit", "Transient min voltage", "Accuracy"]);
    for p in &sweep {
        let (limit, droop) =
            (format!("{:.1} A", p.current_limit), format!("{:.3} V", p.transient_min_voltage));
        table.row([limit, droop, pct(p.accuracy)]);
    }
    let held = ablations::hold_voltage_sweep(seed);
    let mut held_table = TextTable::new(["Held voltage", "Retention"]);
    for p in &held {
        held_table.row([format!("{:.2} V", p.volts), pct(p.retention)]);
    }
    let three_amp = sweep.iter().find(|p| p.current_limit == 3.0).expect("3 A is swept");
    let nominal = held.iter().find(|p| p.volts == 0.8).expect("0.8 V is swept");
    let claims = vec![
        share("accuracy with the paper's 3 A supply", "100%", 1.0..=1.0, three_amp.accuracy),
        share("retention holding the Pi 4's 0.8 V rail", "100%", 1.0..=1.0, nominal.retention),
    ];
    let detail = format!("{}\n{}", table.render(), held_table.render());
    Run::new(&(&sweep, &held), claims, detail)
}

fn generality(seed: u64) -> Run {
    let result = generality::run(seed);
    let mut table = TextTable::new(["Board", "SoC", "Pad", "Target", "Accuracy"]);
    let mut claims = Vec::new();
    for row in &result.rows {
        table.row([&row.board, &row.soc, &row.pad, &row.target, &pct(row.accuracy)]);
        claims.push(share(&format!("{} {}", row.soc, row.target), "100%", 1.0..=1.0, row.accuracy));
    }
    Run::new(&result, claims, table.render())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_ids_are_unique() {
        for (i, entry) in INDEX.iter().enumerate() {
            assert!(INDEX[i + 1..].iter().all(|e| e.id != entry.id), "{}", entry.id);
        }
    }

    #[test]
    fn claims_render_their_band_and_flag_a_miss() {
        let hit = share("m", "~50%", 0.45..=0.55, 0.5);
        assert!(hit.holds());
        assert!(hit.render().contains("45.00%..55.00%"));
        let miss = outcome("o", true, false);
        assert!(!miss.holds());
        assert!(miss.render().trim_end().ends_with("no  OUTSIDE BAND"), "{}", miss.render());
    }
}
