//! Cross-crate integration: reconstructing *what the victim was doing*
//! from the union of extraction surfaces — the paper's closing point
//! that Volt Boot turns a powered-off SoC into a complete forensic
//! snapshot.
//!
//! One attack yields: the victim's machine code (i-cache), its data
//! (d-cache), the addresses it touched (TLB), and the control flow it
//! took (BTB). This test stages a victim with all four footprints and
//! reconstructs each from the extracted images alone.

use voltboot::analysis;
use voltboot::attack::{btb_branches, tlb_pages, Extraction, VoltBootAttack};
use voltboot_soc::devices;

/// The victim: computes a "checksum" over a secret string at a known
/// address, with a loop (BTB footprint), data touches (TLB + d-cache
/// footprints), and code (i-cache footprint).
const VICTIM_ASM: &str = r#"
    // x1 -> secret at 0x555000, x2 = length, x3 = accumulator
    movz x1, #0x5000
    movk x1, #0x0055, lsl #16
    movz x2, #28
    movz x3, #0
sum:
    ldrb x4, [x1]
    add  x3, x3, x4
    add  x1, x1, #1
    sub  x2, x2, #1
    cbnz x2, sum
    // Store the checksum next to the secret.
    movz x5, #0x5100
    movk x5, #0x0055, lsl #16
    str  x3, [x5]
    hlt  #0
"#;

const SECRET: &[u8] = b"wallet-pin: 8421; owner: ada";

#[test]
fn one_attack_reconstructs_code_data_addresses_and_control_flow() {
    let mut soc = devices::raspberry_pi_4(0xF02E);
    soc.power_on_all();
    soc.enable_caches(0);
    soc.dram_mut().write(0x55_5000, SECRET).unwrap();
    let program = voltboot_armlite::asm::assemble(VICTIM_ASM).unwrap();
    let exit = soc.run_program(0, &program, 0x8_0000, 1_000_000);
    assert!(matches!(exit, voltboot_armlite::RunExit::Halted(0)));

    // One attack, all surfaces.
    let outcome = VoltBootAttack::new("TP15")
        .extraction(Extraction::Caches { cores: vec![0] })
        .execute(&mut soc)
        .unwrap();
    let tlb = Extraction::Tlbs { cores: vec![0] }.read(&soc).unwrap();
    let btb = Extraction::Btbs { cores: vec![0] }.read(&soc).unwrap();

    // 1. The secret data, from the d-cache, via a strings pass.
    let mut all_strings = Vec::new();
    for img in outcome.images_matching("core0.l1d") {
        all_strings.extend(analysis::printable_strings(&img.bits, 8).into_iter().map(|(_, s)| s));
    }
    assert!(
        all_strings.iter().any(|s| s.contains("wallet-pin: 8421")),
        "secret must be readable from the d-cache: {all_strings:?}"
    );

    // 2. The victim's code, from the i-cache, via disassembly: the
    //    extracted image must contain the victim's exact loop body.
    let mut found_loop = false;
    for img in outcome.images_matching("core0.l1i") {
        let listing = analysis::disassembly_listing(&img.bits, 0);
        if listing.contains("ldrb x4, [x1]")
            && listing.contains("add x3, x3, x4")
            && listing.contains("cbnz x2, #-4")
        {
            found_loop = true;
        }
    }
    assert!(found_loop, "the checksum loop must disassemble out of the i-cache");

    // 3. The address trace, from the TLB: code page and both data pages.
    let pages = tlb_pages(&tlb[0]);
    assert!(pages.contains(&0x80), "code page 0x80000: {pages:x?}");
    assert!(pages.contains(&0x555), "secret page 0x555000: {pages:x?}");

    // 4. The control flow, from the BTB: a backward branch inside the
    //    victim's code region (the checksum loop).
    let branches = btb_branches(&btb[0]);
    assert!(
        branches.iter().any(|&(pc, tgt)| pc > tgt && (0x8_0000..0x8_0100).contains(&tgt)),
        "the loop's backward branch must be in the BTB: {branches:x?}"
    );

    // 5. And the computed checksum, from the d-cache, at its address.
    let expected: u64 = SECRET.iter().map(|&b| b as u64).sum();
    let mut found_sum = false;
    for img in outcome.images_matching("core0.l1d") {
        if analysis::count_pattern(&img.bits, &expected.to_le_bytes()) > 0 {
            found_sum = true;
        }
    }
    assert!(found_sum, "the victim's computed checksum must be recoverable");
}
