//! Shared helpers for the Volt Boot binaries: `repro`, which
//! regenerates the paper's tables and figures from
//! `voltboot::experiments::INDEX`, and the `bench_snapshot` and
//! `campaign` gates.

pub mod dashboard;

/// The die seed the binaries use, overridable via the
/// `VOLTBOOT_SEED` environment variable (decimal, or hex with a `0x`
/// prefix).
///
/// # Panics
///
/// When `VOLTBOOT_SEED` is set, non-empty and does not parse: a typo
/// must not silently run the default die.
pub fn seed() -> u64 {
    env_seed("VOLTBOOT_SEED", voltboot::experiments::DEFAULT_SEED)
}

/// The fault-plan seed the campaign binary uses, overridable via the
/// `VOLTBOOT_FAULT_SEED` environment variable (decimal, or hex with a
/// `0x` prefix). Kept separate from [`seed`] so the silicon and the
/// glitch schedule can vary independently.
///
/// # Panics
///
/// When `VOLTBOOT_FAULT_SEED` is set, non-empty and does not parse.
pub fn fault_seed() -> u64 {
    env_seed("VOLTBOOT_FAULT_SEED", 0x000F_A017_C0DE)
}

/// The seed in environment variable `var`, or `default` when it is
/// unset or empty.
fn env_seed(var: &str, default: u64) -> u64 {
    match std::env::var_os(var) {
        Some(raw) if !raw.is_empty() => {
            let text = raw.to_string_lossy();
            parse_seed(&text).unwrap_or_else(|| {
                panic!("{var}={text:?} is not a u64 in decimal or 0x-prefixed hex")
            })
        }
        _ => default,
    }
}

fn parse_seed(s: &str) -> Option<u64> {
    let s = s.trim();
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn seed_has_a_default() {
        assert_ne!(super::seed(), 0);
    }

    #[test]
    fn fault_seed_has_a_distinct_default() {
        assert_ne!(super::fault_seed(), 0);
        assert_ne!(super::fault_seed(), super::seed());
    }

    #[test]
    fn parse_seed_takes_decimal_and_prefixed_hex_only() {
        for (text, want) in [("42", 42), ("0x1f", 0x1f), ("0X1F", 0x1f), (" 7 ", 7)] {
            assert_eq!(super::parse_seed(text), Some(want), "{text:?}");
        }
        for text in ["0xZZ", "0x", "-5", "1e3"] {
            assert_eq!(super::parse_seed(text), None, "{text:?}");
        }
    }
}
