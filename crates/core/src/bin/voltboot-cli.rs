//! `voltboot-cli` — drive the simulated Volt Boot attack from the shell.
//!
//! ```text
//! voltboot-cli devices
//! voltboot-cli attack   --device pi4 --victim pattern --extract caches
//! voltboot-cli attack   --device imx53 --extract iram
//! voltboot-cli coldboot --device pi4 --celsius -40 --off-ms 5
//! ```

use std::collections::HashMap;
use std::process::ExitCode;
use voltboot::analysis;
use voltboot::attack::{ColdBootAttack, Extraction, VoltBootAttack};
use voltboot::report::{pct, TextTable};
use voltboot::workloads;
use voltboot_pdn::Probe;
use voltboot_soc::{devices, Soc};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  voltboot-cli devices
  voltboot-cli attack   --device <pi4|pi3|imx53> [--victim <nop|pattern|registers|bitmap>]
                        [--extract <caches|registers|iram|tlb>] [--current <amps>]
                        [--seed <n>]
  voltboot-cli coldboot --device <pi4|pi3|imx53> [--celsius <t>] [--off-ms <ms>]
                        [--victim ...] [--extract ...] [--seed <n>]";

fn run(args: &[String]) -> Result<(), String> {
    let Some((command, rest)) = args.split_first() else {
        return Err("missing command".into());
    };
    let opts = parse_flags(rest)?;
    match command.as_str() {
        "devices" => {
            cmd_devices();
            Ok(())
        }
        "attack" => cmd_attack(&opts),
        "coldboot" => cmd_coldboot(&opts),
        other => Err(format!("unknown command {other:?}")),
    }
}

/// Parses `--key value` pairs.
fn parse_flags(args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut out = HashMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let key =
            flag.strip_prefix("--").ok_or_else(|| format!("expected --flag, found {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        out.insert(key.to_string(), value.clone());
    }
    Ok(out)
}

fn build_device(opts: &HashMap<String, String>) -> Result<(Soc, &'static str), String> {
    let seed: u64 =
        opts.get("seed").map(|s| s.parse()).transpose().map_err(|_| "bad --seed")?.unwrap_or(0xC11);
    let device = opts.get("device").map(String::as_str).ok_or("--device is required")?;
    let (soc, pad) = match device {
        "pi4" => (devices::raspberry_pi_4(seed), "TP15"),
        "pi3" => (devices::raspberry_pi_3(seed), "PP58"),
        "imx53" => (devices::imx53_qsb(seed), "SH13"),
        other => return Err(format!("unknown device {other:?} (pi4, pi3, imx53)")),
    };
    Ok((soc, pad))
}

fn stage_victim(soc: &mut Soc, victim: &str) -> Result<(), String> {
    match victim {
        "nop" => workloads::baremetal_nop_fill(soc).map_err(|e| e.to_string()),
        "pattern" => {
            let mut noise = voltboot::os_noise::OsNoise::new(1);
            workloads::os_pattern_app(soc, 0, 0xAA, 8 * 1024, &mut noise).map_err(|e| e.to_string())
        }
        "registers" => {
            for core in 0..soc.core_count() {
                workloads::register_fill(soc, core).map_err(|e| e.to_string())?;
            }
            Ok(())
        }
        "bitmap" => workloads::iram_bitmap(soc).map(|_| ()).map_err(|e| e.to_string()),
        other => Err(format!("unknown victim {other:?} (nop, pattern, registers, bitmap)")),
    }
}

fn parse_extraction(soc: &Soc, opts: &HashMap<String, String>) -> Result<Extraction, String> {
    let all_cores: Vec<usize> = (0..soc.core_count()).collect();
    match opts.get("extract").map(String::as_str).unwrap_or("caches") {
        "caches" => Ok(Extraction::Caches { cores: all_cores }),
        "registers" => Ok(Extraction::Registers { cores: all_cores }),
        "iram" => Ok(Extraction::IramJtag),
        "tlb" => Ok(Extraction::Tlbs { cores: all_cores }),
        "btb" => Ok(Extraction::Btbs { cores: all_cores }),
        other => Err(format!("unknown extraction {other:?} (caches, registers, iram, tlb, btb)")),
    }
}

fn cmd_devices() {
    let mut table = TextTable::new(["id", "Board", "SoC", "CPU", "Pad", "Rail"]);
    for (id, build) in [
        ("pi4", devices::raspberry_pi_4 as fn(u64) -> Soc),
        ("pi3", devices::raspberry_pi_3),
        ("imx53", devices::imx53_qsb),
    ] {
        let soc = build(0);
        let pad = soc.network().probe_points()[0].clone();
        let volts = soc.network().pmic().rail(&pad.rail).unwrap().nominal_voltage;
        table.row([
            id.to_string(),
            soc.board_name().to_string(),
            soc.soc_name().to_string(),
            format!("{}x {}", soc.core_count(), soc.cpu_name()),
            pad.pad,
            format!("{} ({volts} V)", pad.rail),
        ]);
    }
    println!("{}", table.render());
}

fn summarize(outcome: &voltboot::AttackOutcome) {
    for step in &outcome.steps {
        println!("  [{}] {}", step.step, step.detail);
    }
    println!();
    let mut table =
        TextTable::new(["Image", "Bits", "Ones", "Entropy", "Decodable instrs", "Key schedules"]);
    for img in &outcome.images {
        table.row([
            img.source.clone(),
            img.bits.len().to_string(),
            pct(img.bits.ones_fraction()),
            format!("{:.2} b/B", analysis::byte_entropy(&img.bits)),
            analysis::count_decodable_instructions(&img.bits).to_string(),
            analysis::find_key_schedules(&img.bits).len().to_string(),
        ]);
    }
    println!("{}", table.render());
}

fn cmd_attack(opts: &HashMap<String, String>) -> Result<(), String> {
    let (mut soc, pad) = build_device(opts)?;
    soc.power_on_all();
    let default_victim = if soc.iram().is_some() { "bitmap" } else { "nop" };
    stage_victim(&mut soc, opts.get("victim").map(String::as_str).unwrap_or(default_victim))?;

    let current: f64 = opts
        .get("current")
        .map(|s| s.parse())
        .transpose()
        .map_err(|_| "bad --current")?
        .unwrap_or(3.0);
    let default_extract = if soc.iram().is_some() { "iram" } else { "caches" };
    let extraction = match opts.get("extract") {
        Some(_) => parse_extraction(&soc, opts)?,
        None => {
            let mut opts2 = opts.clone();
            opts2.insert("extract".into(), default_extract.into());
            parse_extraction(&soc, &opts2)?
        }
    };

    let outcome = VoltBootAttack::new(pad)
        .probe(Probe::bench_supply(0.0, current))
        .extraction(extraction)
        .execute(&mut soc)
        .map_err(|e| e.to_string())?;
    println!("Volt Boot against {} ({}):\n", soc.board_name(), soc.soc_name());
    summarize(&outcome);
    Ok(())
}

fn cmd_coldboot(opts: &HashMap<String, String>) -> Result<(), String> {
    let (mut soc, _) = build_device(opts)?;
    soc.power_on_all();
    let default_victim = if soc.iram().is_some() { "bitmap" } else { "nop" };
    stage_victim(&mut soc, opts.get("victim").map(String::as_str).unwrap_or(default_victim))?;

    let celsius: f64 = opts
        .get("celsius")
        .map(|s| s.parse())
        .transpose()
        .map_err(|_| "bad --celsius")?
        .unwrap_or(-40.0);
    let off_ms: u64 =
        opts.get("off-ms").map(|s| s.parse()).transpose().map_err(|_| "bad --off-ms")?.unwrap_or(5);
    let default_extract = if soc.iram().is_some() { "iram" } else { "caches" };
    let extraction = match opts.get("extract") {
        Some(_) => parse_extraction(&soc, opts)?,
        None => {
            let mut opts2 = opts.clone();
            opts2.insert("extract".into(), default_extract.into());
            parse_extraction(&soc, &opts2)?
        }
    };

    let outcome = ColdBootAttack::new(celsius, off_ms)
        .extraction(extraction)
        .execute(&mut soc)
        .map_err(|e| e.to_string())?;
    println!("Cold boot ({celsius} C, {off_ms} ms) against {}:\n", soc.board_name());
    summarize(&outcome);
    Ok(())
}
