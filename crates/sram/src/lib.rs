//! Behavioural model of on-chip 6T SRAM for the Volt Boot reproduction.
//!
//! This crate models the *physics* that the Volt Boot attack (Mahmod &
//! Hicks, ASPLOS 2022) exploits and that the classic cold-boot attack
//! depends on:
//!
//! * **Data-retention voltage (DRV)** — every cell keeps its state as long
//!   as its supply stays at or above a per-cell minimum voltage that is far
//!   below the nominal rail voltage ([`CellParams::drv`]).
//! * **Intrinsic leakage decay** — with the supply removed, the cell's
//!   internal nodes discharge through parasitic paths with a strongly
//!   temperature-dependent time constant (Arrhenius law, [`physics`]).
//! * **Power-up state** — an unpowered-too-long cell resolves to a
//!   process-variation-determined power-up value (the SRAM-PUF effect);
//!   roughly half of all cells power up as `1` and two power-ups of the
//!   same array differ in ≈10 % of bits.
//!
//! The central type is [`SramArray`]: a rectangular array of cells with a
//! power-state machine (`Powered` → `Held`/`Off` → `Powered`). Data written
//! while powered survives a power cycle **iff** either
//!
//! 1. an external source held the rail at or above each cell's DRV for the
//!    whole off interval (the Volt Boot case — 100 % retention), or
//! 2. the off interval was shorter than the cell's leakage-decay budget at
//!    the ambient temperature (the cold-boot case — practically never for
//!    on-chip SRAM at achievable temperatures).
//!
//! # Example
//!
//! ```rust
//! use voltboot_sram::{ArrayConfig, SramArray, Temperature, OffEvent};
//! use std::time::Duration;
//!
//! let mut sram = SramArray::new(ArrayConfig::with_bytes("demo", 1024), 42);
//! sram.power_on();
//! sram.write_bytes(0, b"secret key material");
//!
//! // Volt Boot: the rail is externally held at 0.8 V across the cycle.
//! sram.power_off(OffEvent::held(0.8));
//! sram.elapse(Duration::from_secs(3600), Temperature::from_celsius(25.0));
//! sram.power_on();
//! assert_eq!(&sram.read_bytes(0, 19), b"secret key material");
//!
//! // Cold boot at -40C for half a second: everything is gone.
//! sram.power_off(OffEvent::unpowered());
//! sram.elapse(Duration::from_millis(500), Temperature::from_celsius(-40.0));
//! sram.power_on();
//! assert_ne!(&sram.read_bytes(0, 19), b"secret key material");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod array;
pub mod bits;
pub mod cell;
pub mod delta;
pub mod engine;
pub mod error;
pub mod fleet;
pub mod imprint;
pub mod par;
pub mod physics;
pub mod puf;
pub mod rng;

pub use array::{ArrayConfig, OffEvent, PowerState, ResolutionMode, RetentionReport, SramArray};
pub use bits::PackedBits;
pub use cell::{CellParams, PowerUpKind};
pub use engine::{clear_plane_cache, plane_cache_stats, PlaneCacheStats};
pub use error::SramError;
pub use physics::{LeakageModel, Temperature};

/// Taken by the unit tests that touch process-global engine state —
/// clearing the plane cache, reading its counters or the delta-path
/// counters, or flipping the delta kill switch — so they run one at a
/// time. Test threads run in parallel, so without it one test's clear
/// or rebuild lands inside another's measurement. Held for the whole test; a panicking holder
/// does not poison it for the rest.
#[cfg(test)]
pub(crate) fn global_state_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}
