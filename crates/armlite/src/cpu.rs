//! The interpreter: an in-order core stepping the A64 subset.

use crate::bus::{Bus, BusFault, RamIndexRequest};
use crate::insn::{Cond, Instr, Reg};

/// ARMv8-A exception levels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ExceptionLevel {
    /// User.
    El0,
    /// OS kernel.
    El1,
    /// Hypervisor.
    El2,
    /// Secure monitor / firmware.
    El3,
}

impl ExceptionLevel {
    /// The numeric level, 0–3.
    pub fn number(self) -> u8 {
        match self {
            ExceptionLevel::El0 => 0,
            ExceptionLevel::El1 => 1,
            ExceptionLevel::El2 => 2,
            ExceptionLevel::El3 => 3,
        }
    }
}

/// How a [`Cpu::run`] invocation ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunExit {
    /// A `hlt #code` executed.
    Halted(u16),
    /// The step budget ran out before a halt.
    MaxSteps,
    /// The memory system faulted at the given program counter.
    Fault(BusFault, u64),
    /// A word fetched from memory did not decode.
    UndefinedInstruction(u32, u64),
}

/// Tracks the architecturally required `RAMINDEX → DSB SY → ISB → MRS`
/// sequence (paper §6.1: "Data and instruction synchronization barrier
/// instructions DSB SY and ISB, respectively, must follow this
/// instruction before reading the cache data output register interface").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum RamIndexPipeline {
    /// No request outstanding.
    #[default]
    Idle,
    /// Request issued, no barriers yet.
    Issued,
    /// `DSB SY` seen.
    DsbDone,
    /// `ISB` seen: the data registers now expose the result.
    Ready,
}

/// One simulated core.
///
/// The core owns its architectural state (GPRs, NEON registers, flags,
/// PC, exception level) and steps against any [`Bus`]. Register contents
/// are plain fields here; the `soc` crate mirrors the NEON file into
/// SRAM-backed storage so that register contents participate in power
/// cycles.
#[derive(Debug, Clone)]
pub struct Cpu {
    x: [u64; 31],
    v: [[u64; 2]; 32],
    pc: u64,
    /// N, Z, C, V flags.
    nzcv: (bool, bool, bool, bool),
    el: ExceptionLevel,
    ram_pipeline: RamIndexPipeline,
    ram_request: u64,
    ram_data: [u64; 4],
    retired: u64,
}

impl Cpu {
    /// Creates a core at `pc`, in EL3 (bare-metal reset state).
    pub fn new(pc: u64) -> Self {
        Cpu {
            x: [0; 31],
            v: [[0; 2]; 32],
            pc,
            nzcv: (false, false, false, false),
            el: ExceptionLevel::El3,
            ram_pipeline: RamIndexPipeline::Idle,
            ram_request: 0,
            ram_data: [0; 4],
            retired: 0,
        }
    }

    /// Reads GPR `n` (`x31` reads zero).
    pub fn x(&self, n: u8) -> u64 {
        if n == 31 {
            0
        } else {
            self.x[n as usize]
        }
    }

    /// Writes GPR `n` (`x31` discards).
    pub fn set_x(&mut self, n: u8, v: u64) {
        if n != 31 {
            self.x[n as usize] = v;
        }
    }

    /// Reads vector register `n` as `(low64, high64)`.
    pub fn v(&self, n: u8) -> [u64; 2] {
        self.v[n as usize]
    }

    /// Writes vector register `n`.
    pub fn set_v(&mut self, n: u8, value: [u64; 2]) {
        self.v[n as usize] = value;
    }

    /// All 32 vector registers (the attack target of §7.2).
    pub fn vector_file(&self) -> &[[u64; 2]; 32] {
        &self.v
    }

    /// Overwrites the whole vector file (used by the SoC to restore
    /// SRAM-backed register state after a power event).
    pub fn set_vector_file(&mut self, file: [[u64; 2]; 32]) {
        self.v = file;
    }

    /// The program counter.
    pub fn pc(&self) -> u64 {
        self.pc
    }

    /// Sets the program counter.
    pub fn set_pc(&mut self, pc: u64) {
        self.pc = pc;
    }

    /// Current exception level.
    pub fn el(&self) -> ExceptionLevel {
        self.el
    }

    /// Changes exception level (the boot flow drops from EL3 toward EL1/EL0).
    pub fn set_el(&mut self, el: ExceptionLevel) {
        self.el = el;
    }

    /// Instructions retired so far.
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Executes one instruction. Returns `None` to continue or a
    /// [`RunExit`] when execution must stop.
    pub fn step<B: Bus>(&mut self, bus: &mut B) -> Option<RunExit> {
        let word = match bus.fetch(self.pc) {
            Ok(w) => w,
            Err(f) => return Some(RunExit::Fault(f, self.pc)),
        };
        let instr = match Instr::decode(word) {
            Ok(i) => i,
            Err(_) => return Some(RunExit::UndefinedInstruction(word, self.pc)),
        };
        let mut next_pc = self.pc.wrapping_add(4);

        use Instr::*;
        let outcome: Result<(), BusFault> = (|| {
            match instr {
                Nop => {}
                Movz { rd, imm16, hw } => self.set_x(rd.0, (imm16 as u64) << (16 * hw as u64)),
                Movk { rd, imm16, hw } => {
                    let shift = 16 * hw as u64;
                    let mask = !(0xFFFFu64 << shift);
                    self.set_x(rd.0, (self.x(rd.0) & mask) | ((imm16 as u64) << shift));
                }
                Movn { rd, imm16, hw } => {
                    self.set_x(rd.0, !((imm16 as u64) << (16 * hw as u64)));
                }
                Adr { rd, offset } => {
                    self.set_x(rd.0, self.pc.wrapping_add(offset as i64 as u64));
                }
                AddImm { rd, rn, imm12 } => {
                    self.set_x(rd.0, self.x(rn.0).wrapping_add(imm12 as u64));
                }
                SubImm { rd, rn, imm12 } => {
                    self.set_x(rd.0, self.x(rn.0).wrapping_sub(imm12 as u64));
                }
                SubsImm { rd, rn, imm12 } => {
                    let r = self.subs(self.x(rn.0), imm12 as u64);
                    self.set_x(rd.0, r);
                }
                AddReg { rd, rn, rm } => {
                    self.set_x(rd.0, self.x(rn.0).wrapping_add(self.x(rm.0)));
                }
                SubReg { rd, rn, rm } => {
                    self.set_x(rd.0, self.x(rn.0).wrapping_sub(self.x(rm.0)));
                }
                SubsReg { rd, rn, rm } => {
                    let r = self.subs(self.x(rn.0), self.x(rm.0));
                    self.set_x(rd.0, r);
                }
                AndReg { rd, rn, rm } => self.set_x(rd.0, self.x(rn.0) & self.x(rm.0)),
                OrrReg { rd, rn, rm } => self.set_x(rd.0, self.x(rn.0) | self.x(rm.0)),
                EorReg { rd, rn, rm } => self.set_x(rd.0, self.x(rn.0) ^ self.x(rm.0)),
                OrnReg { rd, rn, rm } => self.set_x(rd.0, self.x(rn.0) | !self.x(rm.0)),
                AndsReg { rd, rn, rm } => {
                    let r = self.x(rn.0) & self.x(rm.0);
                    self.nzcv = ((r as i64) < 0, r == 0, false, false);
                    self.set_x(rd.0, r);
                }
                Madd { rd, rn, rm, ra } => {
                    self.set_x(
                        rd.0,
                        self.x(ra.0).wrapping_add(self.x(rn.0).wrapping_mul(self.x(rm.0))),
                    );
                }
                Udiv { rd, rn, rm } => {
                    let d = self.x(rm.0);
                    self.set_x(rd.0, self.x(rn.0).checked_div(d).unwrap_or(0));
                }
                Csel { rd, rn, rm, cond } => {
                    let v = if self.cond_holds(cond) { self.x(rn.0) } else { self.x(rm.0) };
                    self.set_x(rd.0, v);
                }
                Csinc { rd, rn, rm, cond } => {
                    let v = if self.cond_holds(cond) {
                        self.x(rn.0)
                    } else {
                        self.x(rm.0).wrapping_add(1)
                    };
                    self.set_x(rd.0, v);
                }
                Lslv { rd, rn, rm } => {
                    self.set_x(rd.0, self.x(rn.0).wrapping_shl((self.x(rm.0) & 63) as u32));
                }
                Lsrv { rd, rn, rm } => {
                    self.set_x(rd.0, self.x(rn.0).wrapping_shr((self.x(rm.0) & 63) as u32));
                }
                LdrX { rt, rn, offset } => {
                    let v = bus.read(self.x(rn.0).wrapping_add(offset as u64), 8)?;
                    self.set_x(rt.0, v);
                }
                StrX { rt, rn, offset } => {
                    bus.write(self.x(rn.0).wrapping_add(offset as u64), 8, self.x(rt.0))?;
                }
                Ldrb { rt, rn, offset } => {
                    let v = bus.read(self.x(rn.0).wrapping_add(offset as u64), 1)?;
                    self.set_x(rt.0, v);
                }
                Ldp { rt1, rt2, rn, offset } => {
                    let base = self.x(rn.0).wrapping_add(offset as i64 as u64);
                    let v1 = bus.read(base, 8)?;
                    let v2 = bus.read(base.wrapping_add(8), 8)?;
                    self.set_x(rt1.0, v1);
                    self.set_x(rt2.0, v2);
                }
                Stp { rt1, rt2, rn, offset } => {
                    let base = self.x(rn.0).wrapping_add(offset as i64 as u64);
                    bus.write(base, 8, self.x(rt1.0))?;
                    bus.write(base.wrapping_add(8), 8, self.x(rt2.0))?;
                }
                Strb { rt, rn, offset } => {
                    bus.write(self.x(rn.0).wrapping_add(offset as u64), 1, self.x(rt.0) & 0xFF)?;
                }
                B { offset } => next_pc = self.branch_target(offset),
                BCond { cond, offset } => {
                    if self.cond_holds(cond) {
                        next_pc = self.branch_target(offset);
                    }
                }
                Cbz { rt, offset } => {
                    if self.x(rt.0) == 0 {
                        next_pc = self.branch_target(offset);
                    }
                }
                Cbnz { rt, offset } => {
                    if self.x(rt.0) != 0 {
                        next_pc = self.branch_target(offset);
                    }
                }
                Tbz { rt, bit, offset } => {
                    if self.x(rt.0) & (1 << bit) == 0 {
                        next_pc = self.branch_target(offset as i32);
                    }
                }
                Tbnz { rt, bit, offset } => {
                    if self.x(rt.0) & (1 << bit) != 0 {
                        next_pc = self.branch_target(offset as i32);
                    }
                }
                Ret => next_pc = self.x(30),
                Hlt { .. } => {}
                DsbSy => {
                    if self.ram_pipeline == RamIndexPipeline::Issued {
                        self.ram_pipeline = RamIndexPipeline::DsbDone;
                    }
                }
                Isb => {
                    if self.ram_pipeline == RamIndexPipeline::DsbDone {
                        // Barriers complete: latch the result into the data
                        // output registers.
                        let req = RamIndexRequest::unpack(self.ram_request);
                        self.ram_data = bus.ramindex(self.el.number(), req, true)?;
                        self.ram_pipeline = RamIndexPipeline::Ready;
                    }
                }
                DcZva { rt } => bus.dc_zva(self.x(rt.0))?,
                DcCivac { rt } => bus.dc_clean_invalidate(self.x(rt.0))?,
                DcCvac { rt } => bus.dc_clean(self.x(rt.0))?,
                IcIallu => bus.ic_invalidate_all()?,
                RamIndex { rt } => {
                    if self.el.number() < 3 {
                        return Err(BusFault::PermissionDenied { required_el: 3 });
                    }
                    self.ram_request = self.x(rt.0);
                    self.ram_pipeline = RamIndexPipeline::Issued;
                }
                MrsRamData { rt, n } => {
                    // Without the full barrier sequence the data registers
                    // hold their previous (stale) contents — reading them is
                    // architecturally allowed but returns garbage.
                    self.set_x(rt.0, self.ram_data[n as usize]);
                    if self.ram_pipeline != RamIndexPipeline::Ready {
                        // Stale read: poison deterministically so tests can
                        // detect the missing barriers.
                        self.set_x(rt.0, 0xDEAD_DEAD_DEAD_DEAD);
                    }
                }
                MoviV16b { vd, imm8 } => {
                    let lane = imm8 as u64;
                    let word = (0..8).fold(0u64, |acc, i| acc | (lane << (8 * i)));
                    self.v[vd.0 as usize] = [word, word];
                }
                InsVD { vd, idx, rn } => {
                    self.v[vd.0 as usize][idx as usize] = self.x(rn.0);
                }
                UmovXD { rd, vn, idx } => {
                    self.set_x(rd.0, self.v[vn.0 as usize][idx as usize]);
                }
            }
            Ok(())
        })();

        if let Err(fault) = outcome {
            return Some(RunExit::Fault(fault, self.pc));
        }
        self.retired += 1;
        if let Hlt { imm16 } = instr {
            self.pc = next_pc;
            return Some(RunExit::Halted(imm16));
        }
        // A non-sequential next PC is a taken branch: feed the predictor.
        if next_pc != self.pc.wrapping_add(4) {
            bus.branch_hint(self.pc, next_pc);
        }
        self.pc = next_pc;
        None
    }

    /// Runs until halt, fault, undefined instruction, or `max_steps`.
    pub fn run<B: Bus>(&mut self, bus: &mut B, max_steps: u64) -> RunExit {
        for _ in 0..max_steps {
            if let Some(exit) = self.step(bus) {
                return exit;
            }
        }
        RunExit::MaxSteps
    }

    fn branch_target(&self, offset: i32) -> u64 {
        self.pc.wrapping_add((offset as i64 * 4) as u64)
    }

    fn subs(&mut self, a: u64, b: u64) -> u64 {
        let (result, borrow) = a.overflowing_sub(b);
        let n = (result as i64) < 0;
        let z = result == 0;
        let c = !borrow;
        let v = ((a ^ b) & (a ^ result)) >> 63 == 1;
        self.nzcv = (n, z, c, v);
        result
    }

    fn cond_holds(&self, cond: Cond) -> bool {
        let (n, z, c, v) = self.nzcv;
        match cond {
            Cond::Eq => z,
            Cond::Ne => !z,
            Cond::Hs => c,
            Cond::Lo => !c,
            Cond::Mi => n,
            Cond::Pl => !n,
            Cond::Vs => v,
            Cond::Vc => !v,
            Cond::Hi => c && !z,
            Cond::Ls => !c || z,
            Cond::Ge => n == v,
            Cond::Lt => n != v,
            Cond::Gt => !z && n == v,
            Cond::Le => z || n != v,
            Cond::Al => true,
        }
    }
}

/// `Reg`-indexed convenience so call sites can use `cpu[reg]`.
impl std::ops::Index<Reg> for Cpu {
    type Output = u64;

    fn index(&self, r: Reg) -> &u64 {
        if r.0 == 31 {
            &0
        } else {
            &self.x[r.0 as usize]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bus::FlatMemory;
    use crate::insn::{Instr, Reg, VReg};

    fn run_program(instrs: &[Instr]) -> (Cpu, FlatMemory, RunExit) {
        let mut mem = FlatMemory::new(1 << 16);
        for (i, instr) in instrs.iter().enumerate() {
            let bytes = instr.encode().to_le_bytes();
            mem.load(i as u64 * 4, &bytes);
        }
        let mut cpu = Cpu::new(0);
        let exit = cpu.run(&mut mem, 10_000);
        (cpu, mem, exit)
    }

    #[test]
    fn mov_add_halt() {
        use Instr::*;
        let (cpu, _, exit) = run_program(&[
            Movz { rd: Reg::x(0), imm16: 40, hw: 0 },
            AddImm { rd: Reg::x(0), rn: Reg::x(0), imm12: 2 },
            Hlt { imm16: 7 },
        ]);
        assert_eq!(exit, RunExit::Halted(7));
        assert_eq!(cpu.x(0), 42);
    }

    #[test]
    fn movk_builds_64_bit_constants() {
        use Instr::*;
        let (cpu, _, _) = run_program(&[
            Movz { rd: Reg::x(1), imm16: 0x1111, hw: 0 },
            Movk { rd: Reg::x(1), imm16: 0x2222, hw: 1 },
            Movk { rd: Reg::x(1), imm16: 0x3333, hw: 2 },
            Movk { rd: Reg::x(1), imm16: 0x4444, hw: 3 },
            Hlt { imm16: 0 },
        ]);
        assert_eq!(cpu.x(1), 0x4444_3333_2222_1111);
    }

    #[test]
    fn store_load_roundtrip() {
        use Instr::*;
        let (cpu, mem, _) = run_program(&[
            Movz { rd: Reg::x(0), imm16: 0xBEEF, hw: 0 },
            Movz { rd: Reg::x(1), imm16: 0x8000, hw: 0 },
            StrX { rt: Reg::x(0), rn: Reg::x(1), offset: 8 },
            LdrX { rt: Reg::x(2), rn: Reg::x(1), offset: 8 },
            Hlt { imm16: 0 },
        ]);
        assert_eq!(cpu.x(2), 0xBEEF);
        assert_eq!(mem.bytes()[0x8008], 0xEF);
        assert_eq!(mem.bytes()[0x8009], 0xBE);
    }

    #[test]
    fn byte_store_load() {
        use Instr::*;
        let (cpu, _, _) = run_program(&[
            Movz { rd: Reg::x(0), imm16: 0x1AA, hw: 0 },
            Movz { rd: Reg::x(1), imm16: 0x9000, hw: 0 },
            Strb { rt: Reg::x(0), rn: Reg::x(1), offset: 3 },
            Ldrb { rt: Reg::x(2), rn: Reg::x(1), offset: 3 },
            Hlt { imm16: 0 },
        ]);
        assert_eq!(cpu.x(2), 0xAA);
    }

    #[test]
    fn countdown_loop() {
        use Instr::*;
        // x0 = 10; x1 = 0; loop: x1 += 2; x0 -= 1; cbnz x0, loop
        let (cpu, _, exit) = run_program(&[
            Movz { rd: Reg::x(0), imm16: 10, hw: 0 },
            Movz { rd: Reg::x(1), imm16: 0, hw: 0 },
            AddImm { rd: Reg::x(1), rn: Reg::x(1), imm12: 2 },
            SubImm { rd: Reg::x(0), rn: Reg::x(0), imm12: 1 },
            Cbnz { rt: Reg::x(0), offset: -2 },
            Hlt { imm16: 0 },
        ]);
        assert_eq!(exit, RunExit::Halted(0));
        assert_eq!(cpu.x(1), 20);
    }

    #[test]
    fn conditional_branches_use_flags() {
        use Instr::*;
        // if (5 - 5 == 0) x2 = 1 else x2 = 2
        let (cpu, _, _) = run_program(&[
            Movz { rd: Reg::x(0), imm16: 5, hw: 0 },
            SubsImm { rd: Reg::XZR, rn: Reg::x(0), imm12: 5 },
            BCond { cond: Cond::Eq, offset: 3 },
            Movz { rd: Reg::x(2), imm16: 2, hw: 0 },
            B { offset: 2 },
            Movz { rd: Reg::x(2), imm16: 1, hw: 0 },
            Hlt { imm16: 0 },
        ]);
        assert_eq!(cpu.x(2), 1);
    }

    #[test]
    fn xzr_reads_zero_and_discards_writes() {
        use Instr::*;
        let (cpu, _, _) = run_program(&[
            Movz { rd: Reg::XZR, imm16: 0xFFFF, hw: 0 },
            OrrReg { rd: Reg::x(0), rn: Reg::XZR, rm: Reg::XZR },
            Hlt { imm16: 0 },
        ]);
        assert_eq!(cpu.x(0), 0);
    }

    #[test]
    fn vector_fill_and_extract() {
        use Instr::*;
        let (cpu, _, _) = run_program(&[
            MoviV16b { vd: VReg::v(3), imm8: 0xAA },
            UmovXD { rd: Reg::x(0), vn: VReg::v(3), idx: 0 },
            UmovXD { rd: Reg::x(1), vn: VReg::v(3), idx: 1 },
            Hlt { imm16: 0 },
        ]);
        assert_eq!(cpu.x(0), 0xAAAA_AAAA_AAAA_AAAA);
        assert_eq!(cpu.x(1), 0xAAAA_AAAA_AAAA_AAAA);
        assert_eq!(cpu.v(3), [0xAAAA_AAAA_AAAA_AAAA; 2]);
    }

    #[test]
    fn ins_moves_gpr_to_vector_half() {
        use Instr::*;
        let (cpu, _, _) = run_program(&[
            Movz { rd: Reg::x(0), imm16: 0x1234, hw: 0 },
            InsVD { vd: VReg::v(9), idx: 1, rn: Reg::x(0) },
            Hlt { imm16: 0 },
        ]);
        assert_eq!(cpu.v(9), [0, 0x1234]);
    }

    #[test]
    fn ramindex_requires_el3() {
        use Instr::*;
        let mut mem = FlatMemory::new(4096);
        let prog = [RamIndex { rt: Reg::x(0) }, Hlt { imm16: 0 }];
        for (i, instr) in prog.iter().enumerate() {
            mem.load(i as u64 * 4, &instr.encode().to_le_bytes());
        }
        let mut cpu = Cpu::new(0);
        cpu.set_el(ExceptionLevel::El1);
        let exit = cpu.run(&mut mem, 10);
        assert!(matches!(exit, RunExit::Fault(BusFault::PermissionDenied { required_el: 3 }, _)));
    }

    #[test]
    fn ramindex_without_barriers_reads_poison() {
        use Instr::*;
        let (cpu, _, exit) = run_program(&[
            RamIndex { rt: Reg::x(0) },
            // Missing DSB SY + ISB.
            MrsRamData { rt: Reg::x(1), n: 0 },
            Hlt { imm16: 0 },
        ]);
        assert_eq!(exit, RunExit::Halted(0));
        assert_eq!(cpu.x(1), 0xDEAD_DEAD_DEAD_DEAD);
    }

    #[test]
    fn ramindex_with_barriers_reads_data() {
        use Instr::*;
        let (cpu, _, exit) = run_program(&[
            RamIndex { rt: Reg::x(0) },
            DsbSy,
            Isb,
            MrsRamData { rt: Reg::x(1), n: 0 },
            Hlt { imm16: 0 },
        ]);
        assert_eq!(exit, RunExit::Halted(0));
        // FlatMemory's ramindex returns zeros at EL3.
        assert_eq!(cpu.x(1), 0);
    }

    #[test]
    fn undefined_instruction_reports_word_and_pc() {
        let mut mem = FlatMemory::new(64);
        mem.load(0, &0x1234_5678u32.to_le_bytes());
        let mut cpu = Cpu::new(0);
        assert_eq!(cpu.run(&mut mem, 10), RunExit::UndefinedInstruction(0x1234_5678, 0));
    }

    #[test]
    fn unmapped_fetch_faults() {
        let mut mem = FlatMemory::new(64);
        let mut cpu = Cpu::new(1 << 20);
        assert!(matches!(cpu.run(&mut mem, 10), RunExit::Fault(BusFault::Unmapped { .. }, _)));
    }

    #[test]
    fn max_steps_expires() {
        use Instr::*;
        // Infinite loop.
        let mut mem = FlatMemory::new(64);
        mem.load(0, &B { offset: 0 }.encode().to_le_bytes());
        let mut cpu = Cpu::new(0);
        assert_eq!(cpu.run(&mut mem, 100), RunExit::MaxSteps);
        assert_eq!(cpu.retired(), 100);
    }

    #[test]
    fn ret_jumps_to_x30() {
        use Instr::*;
        let (cpu, _, exit) = run_program(&[
            Movz { rd: Reg::x(30), imm16: 12, hw: 0 }, // address of hlt #5
            Ret,
            Hlt { imm16: 1 },
            Hlt { imm16: 5 },
        ]);
        assert_eq!(exit, RunExit::Halted(5));
        assert_eq!(cpu.pc(), 16);
    }

    #[test]
    fn arithmetic_extensions() {
        use Instr::*;
        let (cpu, _, _) = run_program(&[
            Movz { rd: Reg::x(0), imm16: 6, hw: 0 },
            Movz { rd: Reg::x(1), imm16: 7, hw: 0 },
            Madd { rd: Reg::x(2), rn: Reg::x(0), rm: Reg::x(1), ra: Reg::XZR }, // 42
            Movz { rd: Reg::x(3), imm16: 100, hw: 0 },
            Madd { rd: Reg::x(4), rn: Reg::x(0), rm: Reg::x(1), ra: Reg::x(3) }, // 142
            Udiv { rd: Reg::x(5), rn: Reg::x(4), rm: Reg::x(1) },                // 20
            Udiv { rd: Reg::x(6), rn: Reg::x(4), rm: Reg::XZR },                 // 0 (div by 0)
            Movn { rd: Reg::x(7), imm16: 0, hw: 0 },                             // all ones
            OrnReg { rd: Reg::x(8), rn: Reg::XZR, rm: Reg::x(7) },               // mvn -> 0
            Hlt { imm16: 0 },
        ]);
        assert_eq!(cpu.x(2), 42);
        assert_eq!(cpu.x(4), 142);
        assert_eq!(cpu.x(5), 20);
        assert_eq!(cpu.x(6), 0);
        assert_eq!(cpu.x(7), u64::MAX);
        assert_eq!(cpu.x(8), 0);
    }

    #[test]
    fn conditional_select_and_test_bits() {
        use Instr::*;
        let (cpu, _, exit) = run_program(&[
            Movz { rd: Reg::x(0), imm16: 5, hw: 0 },
            Movz { rd: Reg::x(1), imm16: 9, hw: 0 },
            SubsReg { rd: Reg::XZR, rn: Reg::x(0), rm: Reg::x(1) }, // 5 < 9
            Csel { rd: Reg::x(2), rn: Reg::x(0), rm: Reg::x(1), cond: Cond::Lt },
            Csinc { rd: Reg::x(3), rn: Reg::x(0), rm: Reg::x(1), cond: Cond::Gt },
            // tbz on a clear bit branches over the trap.
            Tbz { rt: Reg::x(0), bit: 1, offset: 2 },
            Hlt { imm16: 9 },
            // tbnz on a set bit (bit 0 of 5) branches over the trap.
            Tbnz { rt: Reg::x(0), bit: 0, offset: 2 },
            Hlt { imm16: 8 },
            Hlt { imm16: 0 },
        ]);
        assert_eq!(exit, RunExit::Halted(0));
        assert_eq!(cpu.x(2), 5, "csel picks xn when lt holds");
        assert_eq!(cpu.x(3), 10, "csinc picks xm+1 when gt fails");
    }

    #[test]
    fn pair_load_store_and_adr() {
        use Instr::*;
        let (cpu, mem, _) = run_program(&[
            Adr { rd: Reg::x(9), offset: 0 }, // address of this instruction
            Movz { rd: Reg::x(0), imm16: 0x1111, hw: 0 },
            Movz { rd: Reg::x(1), imm16: 0x2222, hw: 0 },
            Movz { rd: Reg::x(2), imm16: 0x8000, hw: 0 },
            Stp { rt1: Reg::x(0), rt2: Reg::x(1), rn: Reg::x(2), offset: 16 },
            Ldp { rt1: Reg::x(3), rt2: Reg::x(4), rn: Reg::x(2), offset: 16 },
            Hlt { imm16: 0 },
        ]);
        assert_eq!(cpu.x(9), 0, "adr of the first instruction");
        assert_eq!(cpu.x(3), 0x1111);
        assert_eq!(cpu.x(4), 0x2222);
        assert_eq!(mem.bytes()[0x8010], 0x11);
        assert_eq!(mem.bytes()[0x8018], 0x22);
    }

    #[test]
    fn ands_sets_flags() {
        use Instr::*;
        let (cpu, _, _) = run_program(&[
            Movz { rd: Reg::x(0), imm16: 0xF0, hw: 0 },
            Movz { rd: Reg::x(1), imm16: 0x0F, hw: 0 },
            AndsReg { rd: Reg::XZR, rn: Reg::x(0), rm: Reg::x(1) }, // tst -> zero
            Csinc { rd: Reg::x(2), rn: Reg::XZR, rm: Reg::XZR, cond: Cond::Eq }, // cset-like
            Hlt { imm16: 0 },
        ]);
        // Z was set, so csinc picks xn (= 0); if Z were clear it would
        // pick xzr+1 = 1.
        assert_eq!(cpu.x(2), 0);
    }

    #[test]
    fn shifts() {
        use Instr::*;
        let (cpu, _, _) = run_program(&[
            Movz { rd: Reg::x(0), imm16: 1, hw: 0 },
            Movz { rd: Reg::x(1), imm16: 12, hw: 0 },
            Lslv { rd: Reg::x(2), rn: Reg::x(0), rm: Reg::x(1) },
            Lsrv { rd: Reg::x(3), rn: Reg::x(2), rm: Reg::x(1) },
            Hlt { imm16: 0 },
        ]);
        assert_eq!(cpu.x(2), 1 << 12);
        assert_eq!(cpu.x(3), 1);
    }
}
