//! Property-based determinism checks for the parallel campaign
//! scheduler: random campaign configurations must produce byte-identical
//! reports at every thread count, and checkpoints must compose across
//! thread counts at any kill point.

use proptest::prelude::*;
use voltboot::attack::VoltBootAttack;
use voltboot::campaign::{Campaign, RetryPolicy, ShardRange};
use voltboot::fault::{FaultPlan, FaultRates};
use voltboot::telemetry::{export, json, parse};
use voltboot_armlite::program::builders;
use voltboot_soc::{devices, Soc};

fn prepared_pi4(seed: u64) -> Soc {
    let mut soc = devices::raspberry_pi_4(seed);
    soc.power_on_all();
    soc.enable_caches(0);
    soc.run_program(0, &builders::nop_sled(128), 0x10000, 100_000);
    soc
}

fn make(fault_seed: u64, faulty: bool, passes: u32, reps: u64) -> Campaign {
    let rates = if faulty { FaultRates::uniform(0.25) } else { FaultRates::default() };
    Campaign::new(
        VoltBootAttack::new("TP15").passes(passes),
        FaultPlan::new(fault_seed, rates),
        reps,
    )
    .retry(RetryPolicy { max_attempts: 2, initial_backoff_ns: 1_000_000 })
}

proptest! {
    // Campaign reps simulate whole power cycles, so a handful of cases
    // already covers seconds of simulated attack time; the fixed-seed
    // suite in parallel_campaign.rs backs these up on every run.
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// `run_parallel(t)` renders byte-identical reports to `run` for
    /// t ∈ {1, 2, 4} over random configs: reps ≤ 16, faults on or off,
    /// passes ∈ {1, 3, 5}.
    #[test]
    fn run_parallel_bytes_equal_sequential(
        seed in any::<u64>(),
        reps in prop_oneof![4 => 1u64..=6, 1 => 7u64..=16],
        faulty in any::<bool>(),
        passes in prop_oneof![Just(1u32), Just(3u32), Just(5u32)],
    ) {
        let campaign = make(seed, faulty, passes, reps);
        let victim = move |rep: u64| prepared_pi4(seed ^ rep);
        let want = campaign.run(victim).to_json();
        for threads in [1usize, 2, 4] {
            let got = campaign.run_parallel(threads, victim).to_json();
            prop_assert_eq!(&got, &want, "thread count {} must not change a byte", threads);
        }
    }

    /// The trace tree and histograms merge deterministically through
    /// fork/absorb: at every thread count the span forest is
    /// well-formed (parents precede children, events sequence-ordered)
    /// and the histograms and all three export views match the
    /// sequential run exactly. The Chrome trace re-parses and carries
    /// events (spans, instants or counters) from every instrumented
    /// layer, and the waveform CSV holds samples.
    #[test]
    fn trace_tree_and_histograms_merge_deterministically(
        seed in any::<u64>(),
        reps in 2u64..=6,
        passes in prop_oneof![Just(1u32), Just(3u32)],
    ) {
        let campaign = make(seed, true, passes, reps);
        let victim = move |rep: u64| prepared_pi4(seed ^ rep);
        let seq = campaign.run(victim).recorder;

        let spans = seq.spans();
        prop_assert!(!spans.is_empty(), "instrumented campaign must trace spans");
        for span in &spans {
            prop_assert!(span.end_ns >= span.start_ns);
            if let Some(parent) = span.parent {
                prop_assert!(parent < span.id, "parent ids precede child ids");
                prop_assert!(spans.iter().any(|s| s.id == parent), "parent link resolves");
            }
        }
        for (i, event) in seq.events().iter().enumerate() {
            prop_assert_eq!(event.seq as usize, i, "events are sequence-ordered");
        }

        let want_trace = export::chrome_trace(&seq).render_pretty();
        let want_folded = export::folded(&seq);
        let want_waves = export::waveforms_csv(&seq);
        let doc = parse::parse(&want_trace);
        prop_assert!(doc.is_ok(), "chrome trace does not re-parse: {:?}", doc.err());
        let doc = doc.unwrap();
        let events = doc.get("traceEvents").and_then(json::Value::as_array);
        prop_assert!(events.is_some(), "chrome trace has no traceEvents array");
        let names: Vec<&str> = events
            .unwrap()
            .iter()
            .filter_map(|e| e.get("name").and_then(json::Value::as_str))
            .collect();
        for layer in ["pdn.", "sram.", "soc.", "attack.", "campaign."] {
            prop_assert!(
                names.iter().any(|n| n.starts_with(layer)),
                "no {}* event among {} in the chrome trace", layer, names.len()
            );
        }
        prop_assert!(want_waves.lines().count() >= 2, "waveform csv has no samples");
        for threads in [2usize, 4] {
            let par = campaign.run_parallel(threads, victim).recorder;
            prop_assert_eq!(
                export::chrome_trace(&par).render_pretty(), want_trace.clone(),
                "chrome trace at {} threads", threads
            );
            prop_assert_eq!(
                export::folded(&par), want_folded.clone(),
                "folded stacks at {} threads", threads
            );
            prop_assert_eq!(
                export::waveforms_csv(&par), want_waves.clone(),
                "waveforms at {} threads", threads
            );
            let (a, b) = (seq.histograms(), par.histograms());
            prop_assert_eq!(
                a.keys().collect::<Vec<_>>(), b.keys().collect::<Vec<_>>(),
                "histogram channels at {} threads", threads
            );
            for (name, h) in &a {
                let merged = &b[name];
                prop_assert_eq!(
                    (h.count(), h.sum(), h.min(), h.max(), h.p50(), h.p90(), h.p99()),
                    (merged.count(), merged.sum(), merged.min(), merged.max(),
                     merged.p50(), merged.p90(), merged.p99()),
                    "histogram {} at {} threads", name, threads
                );
            }
        }
    }

    /// A campaign killed at rep k under one thread count resumes under
    /// another to the uninterrupted run's exact bytes — both directions
    /// (checkpoint at 4 threads, resume at 1, and vice versa).
    #[test]
    fn kill_at_rep_k_resumes_across_thread_counts(
        seed in any::<u64>(),
        reps in 2u64..=6,
        k in 1u64..=5,
        faulty in any::<bool>(),
    ) {
        let k = k.min(reps - 1);
        let campaign = make(seed, faulty, 3, reps);
        let victim = move |rep: u64| prepared_pi4(seed ^ rep);
        let want = campaign.run(victim).to_json();
        let path = std::env::temp_dir().join(format!(
            "voltboot_props_cross_{}_{seed:016x}.checkpoint",
            std::process::id()
        ));

        campaign.run_shard_partial_parallel(4, ShardRange::whole(reps), k, &path, victim).unwrap();
        let resumed_seq = campaign.resume_parallel(1, &path, victim).unwrap().to_json();
        prop_assert_eq!(&resumed_seq, &want, "4-thread checkpoint, 1-thread resume");

        campaign.run_shard_partial_parallel(1, ShardRange::whole(reps), k, &path, victim).unwrap();
        let resumed_par = campaign.resume_parallel(4, &path, victim).unwrap().to_json();
        prop_assert_eq!(&resumed_par, &want, "1-thread checkpoint, 4-thread resume");
        std::fs::remove_file(&path).ok();
    }
}
