//! Assembled programs and canned program builders.

use crate::insn::{Instr, Reg, VReg};

/// An assembled machine-code program: a sequence of A64 words.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    instrs: Vec<Instr>,
}

impl Program {
    /// Wraps a list of instructions.
    pub fn from_instrs(instrs: Vec<Instr>) -> Self {
        Program { instrs }
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// Whether the program is empty.
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// The instructions.
    pub fn instrs(&self) -> &[Instr] {
        &self.instrs
    }

    /// Size in bytes.
    pub fn byte_len(&self) -> usize {
        self.instrs.len() * 4
    }

    /// Little-endian machine code.
    pub fn bytes(&self) -> Vec<u8> {
        self.instrs.iter().flat_map(|i| i.encode().to_le_bytes()).collect()
    }

    /// Machine words.
    pub fn words(&self) -> Vec<u32> {
        self.instrs.iter().map(|i| i.encode()).collect()
    }

    /// Decodes machine code back into a program (must be a multiple of 4
    /// bytes of supported instructions).
    ///
    /// # Errors
    ///
    /// Returns the first undecodable word.
    pub fn disassemble(bytes: &[u8]) -> Result<Program, crate::insn::DecodeError> {
        let instrs = bytes
            .chunks_exact(4)
            .map(|c| Instr::decode(u32::from_le_bytes([c[0], c[1], c[2], c[3]])))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Program { instrs })
    }
}

/// Canned programs used by the paper's experiments.
pub mod builders {
    use super::*;

    /// A NOP sled of `n` instructions ending in `hlt #0` — the paper's
    /// §7.1.1 bare-metal i-cache filler ("executes NOP instructions in
    /// all four cores").
    pub fn nop_sled(n: usize) -> Program {
        let mut instrs = vec![Instr::Nop; n];
        instrs.push(Instr::Hlt { imm16: 0 });
        Program::from_instrs(instrs)
    }

    /// Fills `count` bytes starting at `base` with `pattern`, one byte at
    /// a time through the d-cache — the §7.1.2 victim app ("stores a
    /// specific pattern (0xAA) in a large data structure and reads it
    /// back").
    ///
    /// Register use: x0 pattern, x1 cursor, x2 remaining, x3 readback.
    pub fn fill_bytes(base: u64, pattern: u8, count: u32) -> Program {
        let mut instrs = vec![
            Instr::Movz { rd: Reg::x(0), imm16: pattern as u16, hw: 0 },
            Instr::Movz { rd: Reg::x(1), imm16: (base & 0xFFFF) as u16, hw: 0 },
            Instr::Movk { rd: Reg::x(1), imm16: ((base >> 16) & 0xFFFF) as u16, hw: 1 },
            Instr::Movk { rd: Reg::x(1), imm16: ((base >> 32) & 0xFFFF) as u16, hw: 2 },
            Instr::Movz { rd: Reg::x(2), imm16: (count & 0xFFFF) as u16, hw: 0 },
            Instr::Movk { rd: Reg::x(2), imm16: ((count >> 16) & 0xFFFF) as u16, hw: 1 },
        ];
        // loop: strb x0, [x1]; ldrb x3, [x1]; add x1, x1, #1;
        //       sub x2, x2, #1; cbnz x2, loop
        instrs.extend([
            Instr::Strb { rt: Reg::x(0), rn: Reg::x(1), offset: 0 },
            Instr::Ldrb { rt: Reg::x(3), rn: Reg::x(1), offset: 0 },
            Instr::AddImm { rd: Reg::x(1), rn: Reg::x(1), imm12: 1 },
            Instr::SubImm { rd: Reg::x(2), rn: Reg::x(2), imm12: 1 },
            Instr::Cbnz { rt: Reg::x(2), offset: -4 },
            Instr::Hlt { imm16: 0 },
        ]);
        Program::from_instrs(instrs)
    }

    /// Writes `count` 8-byte elements `elem(i) = seed_pattern | i` at
    /// `base` — the Table 4 microbenchmark array (variable array size,
    /// 8-byte elements).
    ///
    /// Register use: x0 element, x1 cursor, x2 remaining, x4 index.
    pub fn fill_words(base: u64, seed_pattern: u16, count: u32) -> Program {
        let mut instrs = vec![
            Instr::Movz { rd: Reg::x(1), imm16: (base & 0xFFFF) as u16, hw: 0 },
            Instr::Movk { rd: Reg::x(1), imm16: ((base >> 16) & 0xFFFF) as u16, hw: 1 },
            Instr::Movk { rd: Reg::x(1), imm16: ((base >> 32) & 0xFFFF) as u16, hw: 2 },
            Instr::Movz { rd: Reg::x(2), imm16: (count & 0xFFFF) as u16, hw: 0 },
            Instr::Movk { rd: Reg::x(2), imm16: ((count >> 16) & 0xFFFF) as u16, hw: 1 },
            Instr::Movz { rd: Reg::x(4), imm16: 0, hw: 0 },
        ];
        // loop: x0 = (seed << 48) | x4; str; x1 += 8; x4 += 1; x2 -= 1; cbnz
        instrs.extend([
            Instr::Movz { rd: Reg::x(0), imm16: seed_pattern, hw: 3 },
            Instr::OrrReg { rd: Reg::x(0), rn: Reg::x(0), rm: Reg::x(4) },
            Instr::StrX { rt: Reg::x(0), rn: Reg::x(1), offset: 0 },
            Instr::AddImm { rd: Reg::x(1), rn: Reg::x(1), imm12: 8 },
            Instr::AddImm { rd: Reg::x(4), rn: Reg::x(4), imm12: 1 },
            Instr::SubImm { rd: Reg::x(2), rn: Reg::x(2), imm12: 1 },
            Instr::Cbnz { rt: Reg::x(2), offset: -6 },
            Instr::Hlt { imm16: 0 },
        ]);
        Program::from_instrs(instrs)
    }

    /// Fills every vector register `v0..v31` with a distinguishable byte
    /// pattern (alternating `0xFF`/`0xAA` like the paper's §7.2 register
    /// experiment) and halts.
    pub fn fill_vector_registers() -> Program {
        let mut instrs: Vec<Instr> = (0..32u8)
            .map(|n| Instr::MoviV16b { vd: VReg::v(n), imm8: if n % 2 == 0 { 0xFF } else { 0xAA } })
            .collect();
        instrs.push(Instr::Hlt { imm16: 0 });
        Program::from_instrs(instrs)
    }

    /// The full looped extraction routine: walks every beat of one
    /// `(ramid, way)` pair, storing the four data-output words of each
    /// beat to DRAM at `dst` — the complete §6.1 flow ("a set of general
    /// load/store instructions moves the data from the general-purpose
    /// CPU registers to DRAM").
    ///
    /// Register use: x1 beat counter, x2 remaining beats, x5 write
    /// cursor, x9 request word.
    pub fn ramindex_dump_way(ramid: u8, way: u8, beats: u32, dst: u64) -> Program {
        // Request base with index 0; the loop adds the beat counter.
        let base = crate::bus::RamIndexRequest { ramid, way, index: 0 }.pack();
        let mut instrs = vec![
            Instr::Movz { rd: Reg::x(1), imm16: 0, hw: 0 },
            Instr::Movz { rd: Reg::x(2), imm16: (beats & 0xFFFF) as u16, hw: 0 },
            Instr::Movk { rd: Reg::x(2), imm16: ((beats >> 16) & 0xFFFF) as u16, hw: 1 },
            Instr::Movz { rd: Reg::x(5), imm16: (dst & 0xFFFF) as u16, hw: 0 },
            Instr::Movk { rd: Reg::x(5), imm16: ((dst >> 16) & 0xFFFF) as u16, hw: 1 },
            Instr::Movz { rd: Reg::x(6), imm16: (base & 0xFFFF) as u16, hw: 0 },
            Instr::Movk { rd: Reg::x(6), imm16: ((base >> 16) & 0xFFFF) as u16, hw: 1 },
            Instr::Movk { rd: Reg::x(6), imm16: ((base >> 32) & 0xFFFF) as u16, hw: 2 },
        ];
        // loop:
        //   x9 = x6 + x1 (request for this beat); ramindex; dsb; isb;
        //   x10..x13 <- data regs; stp pairs to [x5]; x5 += 32;
        //   x1 += 1; x2 -= 1; cbnz x2, loop
        instrs.extend([
            Instr::AddReg { rd: Reg::x(9), rn: Reg::x(6), rm: Reg::x(1) },
            Instr::RamIndex { rt: Reg::x(9) },
            Instr::DsbSy,
            Instr::Isb,
            Instr::MrsRamData { rt: Reg::x(10), n: 0 },
            Instr::MrsRamData { rt: Reg::x(11), n: 1 },
            Instr::MrsRamData { rt: Reg::x(12), n: 2 },
            Instr::MrsRamData { rt: Reg::x(13), n: 3 },
            Instr::Stp { rt1: Reg::x(10), rt2: Reg::x(11), rn: Reg::x(5), offset: 0 },
            Instr::Stp { rt1: Reg::x(12), rt2: Reg::x(13), rn: Reg::x(5), offset: 16 },
            Instr::AddImm { rd: Reg::x(5), rn: Reg::x(5), imm12: 32 },
            Instr::AddImm { rd: Reg::x(1), rn: Reg::x(1), imm12: 1 },
            Instr::SubImm { rd: Reg::x(2), rn: Reg::x(2), imm12: 1 },
            Instr::Cbnz { rt: Reg::x(2), offset: -13 },
            Instr::Hlt { imm16: 0 },
        ]);
        Program::from_instrs(instrs)
    }

    /// The post-reboot d-cache extraction routine of §6.1: for one
    /// `(ramid, way, set)` triple, issue `RAMINDEX`, run the barrier
    /// sequence, and read the four data-output words into `x10..x13`,
    /// then halt. The request word is materialized in `x9`.
    pub fn ramindex_read(ramid: u8, way: u8, index: u32) -> Program {
        let request = crate::bus::RamIndexRequest { ramid, way, index }.pack();
        Program::from_instrs(vec![
            Instr::Movz { rd: Reg::x(9), imm16: (request & 0xFFFF) as u16, hw: 0 },
            Instr::Movk { rd: Reg::x(9), imm16: ((request >> 16) & 0xFFFF) as u16, hw: 1 },
            Instr::Movk { rd: Reg::x(9), imm16: ((request >> 32) & 0xFFFF) as u16, hw: 2 },
            Instr::RamIndex { rt: Reg::x(9) },
            Instr::DsbSy,
            Instr::Isb,
            Instr::MrsRamData { rt: Reg::x(10), n: 0 },
            Instr::MrsRamData { rt: Reg::x(11), n: 1 },
            Instr::MrsRamData { rt: Reg::x(12), n: 2 },
            Instr::MrsRamData { rt: Reg::x(13), n: 3 },
            Instr::Hlt { imm16: 0 },
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::builders::*;
    use super::*;
    use crate::bus::FlatMemory;
    use crate::cpu::{Cpu, RunExit};

    fn run(p: &Program, mem_size: usize) -> (Cpu, FlatMemory, RunExit) {
        let mut mem = FlatMemory::new(mem_size);
        mem.load(0, &p.bytes());
        let mut cpu = Cpu::new(0);
        let exit = cpu.run(&mut mem, 10_000_000);
        (cpu, mem, exit)
    }

    #[test]
    fn nop_sled_is_real_nops() {
        let p = nop_sled(16);
        assert_eq!(p.len(), 17);
        assert!(p.words()[..16].iter().all(|&w| w == 0xD503201F));
        let (_, _, exit) = run(&p, 4096);
        assert_eq!(exit, RunExit::Halted(0));
    }

    #[test]
    fn fill_bytes_writes_the_pattern() {
        let p = fill_bytes(0x1000, 0xAA, 256);
        let (_, mem, exit) = run(&p, 1 << 16);
        assert_eq!(exit, RunExit::Halted(0));
        assert!(mem.bytes()[0x1000..0x1100].iter().all(|&b| b == 0xAA));
        assert_eq!(mem.bytes()[0x1100], 0);
    }

    #[test]
    fn fill_words_writes_indexed_elements() {
        let p = fill_words(0x2000, 0xBEEF, 64);
        let (_, mem, exit) = run(&p, 1 << 16);
        assert_eq!(exit, RunExit::Halted(0));
        for i in 0..64u64 {
            let a = 0x2000 + i as usize * 8;
            let v = u64::from_le_bytes(mem.bytes()[a..a + 8].try_into().unwrap());
            assert_eq!(v, (0xBEEFu64 << 48) | i, "element {i}");
        }
    }

    #[test]
    fn vector_fill_sets_all_32_registers() {
        let p = fill_vector_registers();
        let (cpu, _, exit) = run(&p, 4096);
        assert_eq!(exit, RunExit::Halted(0));
        for n in 0..32u8 {
            let expected =
                if n % 2 == 0 { 0xFFFF_FFFF_FFFF_FFFFu64 } else { 0xAAAA_AAAA_AAAA_AAAA };
            assert_eq!(cpu.v(n), [expected; 2], "v{n}");
        }
    }

    #[test]
    fn ramindex_dump_way_loops_and_stores() {
        // FlatMemory's ramindex returns zeros, so the observable effect
        // is the loop structure itself: 8 beats -> 256 bytes written.
        let p = ramindex_dump_way(0x09, 1, 8, 0x4000);
        let (cpu, mem, exit) = run(&p, 1 << 16);
        assert_eq!(exit, RunExit::Halted(0));
        assert_eq!(cpu.x(1), 8, "beat counter ran to completion");
        assert_eq!(cpu.x(5), 0x4000 + 8 * 32, "write cursor advanced");
        assert!(mem.bytes()[0x4000..0x4100].iter().all(|&b| b == 0));
    }

    #[test]
    fn ramindex_program_runs_at_el3() {
        let p = ramindex_read(0x08, 1, 42);
        let (cpu, _, exit) = run(&p, 4096);
        assert_eq!(exit, RunExit::Halted(0));
        // FlatMemory returns zeros; the point is that the sequence is valid.
        assert_eq!(cpu.x(10), 0);
    }

    #[test]
    fn disassemble_roundtrip() {
        let p = fill_bytes(0x1234_5678, 0x5A, 10);
        let back = Program::disassemble(&p.bytes()).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn disassemble_rejects_garbage() {
        assert!(Program::disassemble(&[0x78, 0x56, 0x34, 0x12]).is_err());
    }
}
