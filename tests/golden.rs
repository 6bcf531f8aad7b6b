//! The paper's results and the report bytes, pinned.
//!
//! * Every `experiments::INDEX` entry runs at the default seed; each
//!   claim must lie in its band, and EXPERIMENTS.md must carry exactly
//!   the block `repro all` prints, so a change that moves a result fails
//!   here instead of silently editing the document.
//! * One daemon job's report and its three trace exports are pinned by
//!   CRC-64, as voltbench pins the report.
//! * The SRAM power-up statistics an SRAM PUF relies on hold on any die.

use voltboot::experiments::{self, DEFAULT_SEED, INDEX};
use voltboot::recover::crc64;
use voltboot::telemetry::export;
use voltboot_server::SweepSpec;
use voltboot_sram::puf::{powerup_samples, test_array};

const BEGIN: &str = "<!-- repro all: begin -->\n";
const END: &str = "<!-- repro all: end -->";

#[test]
fn experiments_md_shows_what_the_code_measures() {
    let runs = experiments::run_all(DEFAULT_SEED);
    for (entry, run) in INDEX.iter().zip(&runs) {
        assert!(!run.claims.is_empty(), "{} states no claim", entry.id);
        for claim in &run.claims {
            assert!(claim.holds(), "{}: outside the paper's band: {claim:?}", entry.id);
        }
    }

    let fresh = format!("```text\n{}```\n", experiments::render_all(DEFAULT_SEED, &runs));
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/EXPERIMENTS.md");
    let doc = std::fs::read_to_string(path).expect("EXPERIMENTS.md is readable");
    let start = doc.find(BEGIN).expect("EXPERIMENTS.md has the begin marker") + BEGIN.len();
    let end = start + doc[start..].find(END).expect("EXPERIMENTS.md has the end marker");
    assert!(
        doc[start..end] == fresh,
        "EXPERIMENTS.md no longer shows what the code measures; paste this between its \
         markers:\n{fresh}"
    );
    // A measured percentage or fraction appears only inside the block.
    let outside = format!("{}{}", &doc[..start], &doc[end..]);
    for claim in runs.iter().flat_map(|run| &run.claims) {
        if matches!(claim.unit, experiments::Unit::Percent | experiments::Unit::Fraction) {
            let shown = claim.unit.show(claim.measured);
            assert!(
                !outside.contains(&shown),
                "{shown} ({}) appears outside the block",
                claim.metric
            );
        }
    }
}

#[test]
fn daemon_job_report_and_trace_exports_are_pinned() {
    // voltbench's `daemon_small_jobs` spec at the default seed, run as its
    // in-process reference run does.
    let spec = SweepSpec::parse(
        "platform=pi4 reps=2 passes=3 rate=0.05 die_seed=138020237319 \
         fault_seed=8730458488217041534 temp_c=25 off_ms=0"
            .split(' '),
    )
    .expect("the spec parses");
    let result = spec.campaign().run_parallel(spec.threads, spec.victim());
    let rec = &result.recorder;
    assert_eq!(crc64(result.to_json().as_bytes()), 0x6f48_cd4a_4d87_539e, "report");
    let chrome = export::chrome_trace(rec).render();
    assert_eq!(crc64(chrome.as_bytes()), 0xa1e3_846b_480f_a3f1, "chrome trace");
    assert_eq!(crc64(export::folded(rec).as_bytes()), 0xf4e7_63d3_83c8_d3db, "folded stacks");
    assert_eq!(crc64(export::waveforms_csv(rec).as_bytes()), 0xd2c8_f342_ec6f_715b, "waveforms");
}

#[test]
fn powerup_statistics_hold_on_any_die() {
    // The SRAM-PUF requirements: intra-die noise ≈ metastable fraction / 3,
    // balanced power-up states, unrelated dies ≈ 0.5 apart, and the two
    // distance distributions never overlap.
    let dies: Vec<_> =
        (1..=5).map(|seed| powerup_samples(&mut test_array("puf", 4096, seed), 3)).collect();
    let (mut intra, mut inter) = (Vec::new(), Vec::new());
    for (i, samples) in dies.iter().enumerate() {
        for (j, a) in samples.iter().enumerate() {
            let weight = a.ones_fraction();
            assert!((0.48..=0.52).contains(&weight), "die {i}: Hamming weight {weight}");
            intra.extend(samples[j + 1..].iter().map(|b| a.fractional_hamming(b)));
        }
        inter.extend(dies[i + 1..].iter().map(|other| samples[0].fractional_hamming(&other[0])));
    }
    for &hd in &intra {
        assert!((0.09..=0.11).contains(&hd), "intra-die HD {hd}");
    }
    for &hd in &inter {
        assert!((0.48..=0.52).contains(&hd), "inter-die HD {hd}");
    }
    let worst_intra = intra.iter().copied().fold(0.0, f64::max);
    let best_inter = inter.iter().copied().fold(1.0, f64::min);
    assert!(worst_intra < best_inter, "intra {worst_intra} overlaps inter {best_inter}");
}
