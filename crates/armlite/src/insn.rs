//! The instruction set: a ~30-instruction A64 subset with real encodings.
//!
//! Every variant encodes to and decodes from the genuine ARMv8-A bit
//! pattern, so machine code placed in the simulated i-cache is
//! byte-identical to what a real Cortex-A device would hold — the paper's
//! Figure 7 experiment greps extracted cache images for exactly these
//! words.

use std::fmt;

/// A general-purpose 64-bit register, `x0`–`x30` plus `xzr` (31).
///
/// In operand position register 31 reads as zero and discards writes,
/// matching A64 semantics for the instructions in this subset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Reg(pub u8);

impl Reg {
    /// The zero register.
    pub const XZR: Reg = Reg(31);

    /// Creates `xN`.
    ///
    /// # Panics
    ///
    /// Panics if `n > 31`.
    pub fn x(n: u8) -> Reg {
        assert!(n <= 31, "register index {n} out of range");
        Reg(n)
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 == 31 {
            write!(f, "xzr")
        } else {
            write!(f, "x{}", self.0)
        }
    }
}

/// A 128-bit SIMD/FP register, `v0`–`v31`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VReg(pub u8);

impl VReg {
    /// Creates `vN`.
    ///
    /// # Panics
    ///
    /// Panics if `n > 31`.
    pub fn v(n: u8) -> VReg {
        assert!(n <= 31, "vector register index {n} out of range");
        VReg(n)
    }
}

impl fmt::Display for VReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// A64 condition codes (for `b.cond`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum Cond {
    Eq = 0,
    Ne = 1,
    Hs = 2,
    Lo = 3,
    Mi = 4,
    Pl = 5,
    Vs = 6,
    Vc = 7,
    Hi = 8,
    Ls = 9,
    Ge = 10,
    Lt = 11,
    Gt = 12,
    Le = 13,
    Al = 14,
}

impl Cond {
    /// Decodes a 4-bit condition field.
    pub fn from_bits(bits: u32) -> Option<Cond> {
        Some(match bits {
            0 => Cond::Eq,
            1 => Cond::Ne,
            2 => Cond::Hs,
            3 => Cond::Lo,
            4 => Cond::Mi,
            5 => Cond::Pl,
            6 => Cond::Vs,
            7 => Cond::Vc,
            8 => Cond::Hi,
            9 => Cond::Ls,
            10 => Cond::Ge,
            11 => Cond::Lt,
            12 => Cond::Gt,
            13 => Cond::Le,
            14 => Cond::Al,
            _ => return None,
        })
    }

    /// The assembler mnemonic suffix.
    pub fn mnemonic(self) -> &'static str {
        match self {
            Cond::Eq => "eq",
            Cond::Ne => "ne",
            Cond::Hs => "hs",
            Cond::Lo => "lo",
            Cond::Mi => "mi",
            Cond::Pl => "pl",
            Cond::Vs => "vs",
            Cond::Vc => "vc",
            Cond::Hi => "hi",
            Cond::Ls => "ls",
            Cond::Ge => "ge",
            Cond::Lt => "lt",
            Cond::Gt => "gt",
            Cond::Le => "le",
            Cond::Al => "al",
        }
    }
}

/// One instruction of the A64 subset.
///
/// Offsets in load/store variants are *byte* offsets and must satisfy the
/// alignment/scale rules of the real encoding (e.g. `LdrX` offsets are
/// multiples of 8 in `0..=32760`). Branch offsets are in instructions
/// (words), relative to the branch itself.
///
/// ```rust
/// use voltboot_armlite::Instr;
///
/// // Encodings are the genuine A64 bit patterns.
/// assert_eq!(Instr::Nop.encode(), 0xD503201F);
/// assert_eq!(Instr::decode(0xD503201F)?, Instr::Nop);
/// assert_eq!(Instr::Nop.to_string(), "nop");
/// # Ok::<(), voltboot_armlite::DecodeError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Instr {
    /// `nop`
    Nop,
    /// `movz xd, #imm16, lsl #(hw*16)`
    Movz {
        /// Destination.
        rd: Reg,
        /// 16-bit immediate.
        imm16: u16,
        /// Half-word shift selector, 0–3.
        hw: u8,
    },
    /// `movk xd, #imm16, lsl #(hw*16)`
    Movk {
        /// Destination.
        rd: Reg,
        /// 16-bit immediate.
        imm16: u16,
        /// Half-word shift selector, 0–3.
        hw: u8,
    },
    /// `movn xd, #imm16, lsl #(hw*16)` — moves the inverted immediate.
    Movn {
        /// Destination.
        rd: Reg,
        /// 16-bit immediate (inverted on write).
        imm16: u16,
        /// Half-word shift selector, 0–3.
        hw: u8,
    },
    /// `adr xd, <offset>` — PC-relative address; offset in bytes,
    /// ±1 MiB.
    Adr {
        /// Destination.
        rd: Reg,
        /// Signed byte offset from this instruction.
        offset: i32,
    },
    /// `add xd, xn, #imm12`
    AddImm {
        /// Destination.
        rd: Reg,
        /// Source.
        rn: Reg,
        /// Unsigned 12-bit immediate.
        imm12: u16,
    },
    /// `sub xd, xn, #imm12`
    SubImm {
        /// Destination.
        rd: Reg,
        /// Source.
        rn: Reg,
        /// Unsigned 12-bit immediate.
        imm12: u16,
    },
    /// `subs xd, xn, #imm12` (with `xd = xzr` this is `cmp xn, #imm12`)
    SubsImm {
        /// Destination.
        rd: Reg,
        /// Source.
        rn: Reg,
        /// Unsigned 12-bit immediate.
        imm12: u16,
    },
    /// `add xd, xn, xm`
    AddReg {
        /// Destination.
        rd: Reg,
        /// First source.
        rn: Reg,
        /// Second source.
        rm: Reg,
    },
    /// `sub xd, xn, xm`
    SubReg {
        /// Destination.
        rd: Reg,
        /// First source.
        rn: Reg,
        /// Second source.
        rm: Reg,
    },
    /// `subs xd, xn, xm` (with `xd = xzr` this is `cmp xn, xm`)
    SubsReg {
        /// Destination.
        rd: Reg,
        /// First source.
        rn: Reg,
        /// Second source.
        rm: Reg,
    },
    /// `and xd, xn, xm`
    AndReg {
        /// Destination.
        rd: Reg,
        /// First source.
        rn: Reg,
        /// Second source.
        rm: Reg,
    },
    /// `orr xd, xn, xm` (with `xn = xzr` this is `mov xd, xm`)
    OrrReg {
        /// Destination.
        rd: Reg,
        /// First source.
        rn: Reg,
        /// Second source.
        rm: Reg,
    },
    /// `eor xd, xn, xm`
    EorReg {
        /// Destination.
        rd: Reg,
        /// First source.
        rn: Reg,
        /// Second source.
        rm: Reg,
    },
    /// `orn xd, xn, xm` (with `xn = xzr` this is `mvn xd, xm`)
    OrnReg {
        /// Destination.
        rd: Reg,
        /// First source.
        rn: Reg,
        /// Second source (inverted).
        rm: Reg,
    },
    /// `ands xd, xn, xm` (with `xd = xzr` this is `tst xn, xm`)
    AndsReg {
        /// Destination.
        rd: Reg,
        /// First source.
        rn: Reg,
        /// Second source.
        rm: Reg,
    },
    /// `madd xd, xn, xm, xa` — `xd = xa + xn * xm` (with `xa = xzr` this
    /// is `mul`).
    Madd {
        /// Destination.
        rd: Reg,
        /// Multiplicand.
        rn: Reg,
        /// Multiplier.
        rm: Reg,
        /// Addend.
        ra: Reg,
    },
    /// `udiv xd, xn, xm` — unsigned divide (zero divisor yields zero).
    Udiv {
        /// Destination.
        rd: Reg,
        /// Dividend.
        rn: Reg,
        /// Divisor.
        rm: Reg,
    },
    /// `csel xd, xn, xm, cond` — `xd = cond ? xn : xm`.
    Csel {
        /// Destination.
        rd: Reg,
        /// Value if the condition holds.
        rn: Reg,
        /// Value otherwise.
        rm: Reg,
        /// Condition.
        cond: Cond,
    },
    /// `csinc xd, xn, xm, cond` — `xd = cond ? xn : xm + 1`.
    Csinc {
        /// Destination.
        rd: Reg,
        /// Value if the condition holds.
        rn: Reg,
        /// Incremented value otherwise.
        rm: Reg,
        /// Condition.
        cond: Cond,
    },
    /// `lslv xd, xn, xm`
    Lslv {
        /// Destination.
        rd: Reg,
        /// Value.
        rn: Reg,
        /// Shift amount.
        rm: Reg,
    },
    /// `lsrv xd, xn, xm`
    Lsrv {
        /// Destination.
        rd: Reg,
        /// Value.
        rn: Reg,
        /// Shift amount.
        rm: Reg,
    },
    /// `ldr xt, [xn, #offset]` — offset is a byte offset, multiple of 8,
    /// `0..=32760`.
    LdrX {
        /// Destination.
        rt: Reg,
        /// Base address register.
        rn: Reg,
        /// Byte offset.
        offset: u16,
    },
    /// `str xt, [xn, #offset]` — offset rules as [`Instr::LdrX`].
    StrX {
        /// Source.
        rt: Reg,
        /// Base address register.
        rn: Reg,
        /// Byte offset.
        offset: u16,
    },
    /// `ldp xt1, xt2, [xn, #offset]` — pair load; offset a multiple of 8
    /// in `-512..=504`.
    Ldp {
        /// First destination.
        rt1: Reg,
        /// Second destination.
        rt2: Reg,
        /// Base address register.
        rn: Reg,
        /// Signed byte offset.
        offset: i16,
    },
    /// `stp xt1, xt2, [xn, #offset]` — pair store; offset rules as
    /// [`Instr::Ldp`].
    Stp {
        /// First source.
        rt1: Reg,
        /// Second source.
        rt2: Reg,
        /// Base address register.
        rn: Reg,
        /// Signed byte offset.
        offset: i16,
    },
    /// `ldrb wt, [xn, #offset]` — offset `0..=4095`.
    Ldrb {
        /// Destination (zero-extended byte).
        rt: Reg,
        /// Base address register.
        rn: Reg,
        /// Byte offset.
        offset: u16,
    },
    /// `strb wt, [xn, #offset]` — offset `0..=4095`.
    Strb {
        /// Source (low byte).
        rt: Reg,
        /// Base address register.
        rn: Reg,
        /// Byte offset.
        offset: u16,
    },
    /// `b <offset>` — word offset relative to this instruction.
    B {
        /// Signed offset in instructions.
        offset: i32,
    },
    /// `b.<cond> <offset>` — word offset relative to this instruction.
    BCond {
        /// Condition.
        cond: Cond,
        /// Signed offset in instructions.
        offset: i32,
    },
    /// `cbz xt, <offset>`
    Cbz {
        /// Register tested against zero.
        rt: Reg,
        /// Signed offset in instructions.
        offset: i32,
    },
    /// `cbnz xt, <offset>`
    Cbnz {
        /// Register tested against zero.
        rt: Reg,
        /// Signed offset in instructions.
        offset: i32,
    },
    /// `tbz xt, #bit, <offset>` — branch if bit clear.
    Tbz {
        /// Register tested.
        rt: Reg,
        /// Bit number, 0–63.
        bit: u8,
        /// Signed offset in instructions (±8191).
        offset: i16,
    },
    /// `tbnz xt, #bit, <offset>` — branch if bit set.
    Tbnz {
        /// Register tested.
        rt: Reg,
        /// Bit number, 0–63.
        bit: u8,
        /// Signed offset in instructions (±8191).
        offset: i16,
    },
    /// `ret` (returns to `x30`)
    Ret,
    /// `hlt #imm16` — halts the interpreter with `imm16` as the exit code.
    Hlt {
        /// Exit code.
        imm16: u16,
    },
    /// `dsb sy` — data synchronization barrier.
    DsbSy,
    /// `isb` — instruction synchronization barrier.
    Isb,
    /// `dc zva, xt` — zero the cache line holding the address in `xt`
    /// (the only architectural way to reset d-cache data RAM; paper §5.2.4).
    DcZva {
        /// Address register.
        rt: Reg,
    },
    /// `dc civac, xt` — clean and invalidate by VA to point of coherency.
    DcCivac {
        /// Address register.
        rt: Reg,
    },
    /// `dc cvac, xt` — clean by VA to point of coherency.
    DcCvac {
        /// Address register.
        rt: Reg,
    },
    /// `ic iallu` — invalidate all instruction caches.
    IcIallu,
    /// `sys #0, c15, c4, #0, xt` — the Cortex-A72 `RAMINDEX` operation
    /// (paper §6.1 step 3): requests a read of an internal RAM; the
    /// request word is in `xt`.
    RamIndex {
        /// Request register.
        rt: Reg,
    },
    /// `mrs xt, s3_0_c15_c0_<n>` — reads RAMINDEX data-output register
    /// `n` (0–3). Valid only after the `dsb sy; isb` sequence.
    MrsRamData {
        /// Destination.
        rt: Reg,
        /// Data register index, 0–3.
        n: u8,
    },
    /// `movi vd.16b, #imm8` — fills all 16 lanes of a vector register.
    MoviV16b {
        /// Destination vector register.
        vd: VReg,
        /// Per-lane byte value.
        imm8: u8,
    },
    /// `ins vd.d[idx], xn` — moves a GPR into half of a vector register.
    InsVD {
        /// Destination vector register.
        vd: VReg,
        /// Doubleword lane, 0 or 1.
        idx: u8,
        /// Source.
        rn: Reg,
    },
    /// `umov xd, vn.d[idx]` — moves half of a vector register to a GPR.
    UmovXD {
        /// Destination.
        rd: Reg,
        /// Source vector register.
        vn: VReg,
        /// Doubleword lane, 0 or 1.
        idx: u8,
    },
}

impl fmt::Display for Instr {
    /// Renders the instruction in assembler syntax (the inverse of
    /// [`crate::asm::assemble`], with branch targets as word offsets).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use Instr::*;
        match *self {
            Nop => write!(f, "nop"),
            Movz { rd, imm16, hw: 0 } => write!(f, "movz {rd}, #{imm16:#x}"),
            Movz { rd, imm16, hw } => write!(f, "movz {rd}, #{imm16:#x}, lsl #{}", hw * 16),
            Movk { rd, imm16, hw: 0 } => write!(f, "movk {rd}, #{imm16:#x}"),
            Movk { rd, imm16, hw } => write!(f, "movk {rd}, #{imm16:#x}, lsl #{}", hw * 16),
            Movn { rd, imm16, hw: 0 } => write!(f, "movn {rd}, #{imm16:#x}"),
            Movn { rd, imm16, hw } => write!(f, "movn {rd}, #{imm16:#x}, lsl #{}", hw * 16),
            Adr { rd, offset } => write!(f, "adr {rd}, #{offset}"),
            AddImm { rd, rn, imm12 } => write!(f, "add {rd}, {rn}, #{imm12}"),
            SubImm { rd, rn, imm12 } => write!(f, "sub {rd}, {rn}, #{imm12}"),
            SubsImm { rd, rn, imm12 } if rd.0 == 31 => write!(f, "cmp {rn}, #{imm12}"),
            SubsImm { rd, rn, imm12 } => write!(f, "subs {rd}, {rn}, #{imm12}"),
            AddReg { rd, rn, rm } => write!(f, "add {rd}, {rn}, {rm}"),
            SubReg { rd, rn, rm } => write!(f, "sub {rd}, {rn}, {rm}"),
            SubsReg { rd, rn, rm } if rd.0 == 31 => write!(f, "cmp {rn}, {rm}"),
            SubsReg { rd, rn, rm } => write!(f, "subs {rd}, {rn}, {rm}"),
            AndReg { rd, rn, rm } => write!(f, "and {rd}, {rn}, {rm}"),
            OrrReg { rd, rn, rm } if rn.0 == 31 => write!(f, "mov {rd}, {rm}"),
            OrrReg { rd, rn, rm } => write!(f, "orr {rd}, {rn}, {rm}"),
            EorReg { rd, rn, rm } => write!(f, "eor {rd}, {rn}, {rm}"),
            OrnReg { rd, rn, rm } if rn.0 == 31 => write!(f, "mvn {rd}, {rm}"),
            OrnReg { rd, rn, rm } => write!(f, "orn {rd}, {rn}, {rm}"),
            AndsReg { rd, rn, rm } if rd.0 == 31 => write!(f, "tst {rn}, {rm}"),
            AndsReg { rd, rn, rm } => write!(f, "ands {rd}, {rn}, {rm}"),
            Madd { rd, rn, rm, ra } if ra.0 == 31 => write!(f, "mul {rd}, {rn}, {rm}"),
            Madd { rd, rn, rm, ra } => write!(f, "madd {rd}, {rn}, {rm}, {ra}"),
            Udiv { rd, rn, rm } => write!(f, "udiv {rd}, {rn}, {rm}"),
            Csel { rd, rn, rm, cond } => {
                write!(f, "csel {rd}, {rn}, {rm}, {}", cond.mnemonic())
            }
            Csinc { rd, rn, rm, cond } => {
                write!(f, "csinc {rd}, {rn}, {rm}, {}", cond.mnemonic())
            }
            Lslv { rd, rn, rm } => write!(f, "lsl {rd}, {rn}, {rm}"),
            Lsrv { rd, rn, rm } => write!(f, "lsr {rd}, {rn}, {rm}"),
            LdrX { rt, rn, offset: 0 } => write!(f, "ldr {rt}, [{rn}]"),
            LdrX { rt, rn, offset } => write!(f, "ldr {rt}, [{rn}, #{offset}]"),
            StrX { rt, rn, offset: 0 } => write!(f, "str {rt}, [{rn}]"),
            StrX { rt, rn, offset } => write!(f, "str {rt}, [{rn}, #{offset}]"),
            Ldp { rt1, rt2, rn, offset: 0 } => {
                write!(f, "ldp {rt1}, {rt2}, [{rn}]")
            }
            Ldp { rt1, rt2, rn, offset } => write!(f, "ldp {rt1}, {rt2}, [{rn}, #{offset}]"),
            Stp { rt1, rt2, rn, offset: 0 } => {
                write!(f, "stp {rt1}, {rt2}, [{rn}]")
            }
            Stp { rt1, rt2, rn, offset } => write!(f, "stp {rt1}, {rt2}, [{rn}, #{offset}]"),
            Ldrb { rt, rn, offset: 0 } => write!(f, "ldrb {rt}, [{rn}]"),
            Ldrb { rt, rn, offset } => write!(f, "ldrb {rt}, [{rn}, #{offset}]"),
            Strb { rt, rn, offset: 0 } => write!(f, "strb {rt}, [{rn}]"),
            Strb { rt, rn, offset } => write!(f, "strb {rt}, [{rn}, #{offset}]"),
            B { offset } => write!(f, "b #{offset}"),
            BCond { cond, offset } => write!(f, "b.{} #{offset}", cond.mnemonic()),
            Cbz { rt, offset } => write!(f, "cbz {rt}, #{offset}"),
            Cbnz { rt, offset } => write!(f, "cbnz {rt}, #{offset}"),
            Tbz { rt, bit, offset } => write!(f, "tbz {rt}, #{bit}, #{offset}"),
            Tbnz { rt, bit, offset } => write!(f, "tbnz {rt}, #{bit}, #{offset}"),
            Ret => write!(f, "ret"),
            Hlt { imm16 } => write!(f, "hlt #{imm16:#x}"),
            DsbSy => write!(f, "dsb sy"),
            Isb => write!(f, "isb"),
            DcZva { rt } => write!(f, "dc zva, {rt}"),
            DcCivac { rt } => write!(f, "dc civac, {rt}"),
            DcCvac { rt } => write!(f, "dc cvac, {rt}"),
            IcIallu => write!(f, "ic iallu"),
            RamIndex { rt } => write!(f, "ramindex {rt}"),
            MrsRamData { rt, n } => write!(f, "mrsram {rt}, #{n}"),
            MoviV16b { vd, imm8 } => write!(f, "movi {vd}.16b, #{imm8:#x}"),
            InsVD { vd, idx, rn } => write!(f, "ins {vd}.d[{idx}], {rn}"),
            UmovXD { rd, vn, idx } => write!(f, "umov {rd}, {vn}.d[{idx}]"),
        }
    }
}

/// Error decoding a 32-bit word that is not in the supported subset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeError {
    /// The word that failed to decode.
    pub word: u32,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unsupported instruction word {:#010x}", self.word)
    }
}

impl std::error::Error for DecodeError {}

impl Instr {
    /// Encodes to the real A64 machine word.
    pub fn encode(self) -> u32 {
        use Instr::*;
        match self {
            Nop => 0xD503_201F,
            Movz { rd, imm16, hw } => {
                debug_assert!(hw < 4);
                0xD280_0000 | ((hw as u32) << 21) | ((imm16 as u32) << 5) | rd.0 as u32
            }
            Movk { rd, imm16, hw } => {
                debug_assert!(hw < 4);
                0xF280_0000 | ((hw as u32) << 21) | ((imm16 as u32) << 5) | rd.0 as u32
            }
            Movn { rd, imm16, hw } => {
                debug_assert!(hw < 4);
                0x9280_0000 | ((hw as u32) << 21) | ((imm16 as u32) << 5) | rd.0 as u32
            }
            Adr { rd, offset } => {
                debug_assert!((-(1 << 20)..(1 << 20)).contains(&offset));
                let imm = offset as u32 & 0x1F_FFFF;
                0x1000_0000 | ((imm & 0x3) << 29) | (((imm >> 2) & 0x7_FFFF) << 5) | rd.0 as u32
            }
            AddImm { rd, rn, imm12 } => {
                debug_assert!(imm12 < 4096);
                0x9100_0000 | ((imm12 as u32) << 10) | ((rn.0 as u32) << 5) | rd.0 as u32
            }
            SubImm { rd, rn, imm12 } => {
                debug_assert!(imm12 < 4096);
                0xD100_0000 | ((imm12 as u32) << 10) | ((rn.0 as u32) << 5) | rd.0 as u32
            }
            SubsImm { rd, rn, imm12 } => {
                debug_assert!(imm12 < 4096);
                0xF100_0000 | ((imm12 as u32) << 10) | ((rn.0 as u32) << 5) | rd.0 as u32
            }
            AddReg { rd, rn, rm } => {
                0x8B00_0000 | ((rm.0 as u32) << 16) | ((rn.0 as u32) << 5) | rd.0 as u32
            }
            SubReg { rd, rn, rm } => {
                0xCB00_0000 | ((rm.0 as u32) << 16) | ((rn.0 as u32) << 5) | rd.0 as u32
            }
            SubsReg { rd, rn, rm } => {
                0xEB00_0000 | ((rm.0 as u32) << 16) | ((rn.0 as u32) << 5) | rd.0 as u32
            }
            AndReg { rd, rn, rm } => {
                0x8A00_0000 | ((rm.0 as u32) << 16) | ((rn.0 as u32) << 5) | rd.0 as u32
            }
            OrrReg { rd, rn, rm } => {
                0xAA00_0000 | ((rm.0 as u32) << 16) | ((rn.0 as u32) << 5) | rd.0 as u32
            }
            EorReg { rd, rn, rm } => {
                0xCA00_0000 | ((rm.0 as u32) << 16) | ((rn.0 as u32) << 5) | rd.0 as u32
            }
            OrnReg { rd, rn, rm } => {
                0xAA20_0000 | ((rm.0 as u32) << 16) | ((rn.0 as u32) << 5) | rd.0 as u32
            }
            AndsReg { rd, rn, rm } => {
                0xEA00_0000 | ((rm.0 as u32) << 16) | ((rn.0 as u32) << 5) | rd.0 as u32
            }
            Madd { rd, rn, rm, ra } => {
                0x9B00_0000
                    | ((rm.0 as u32) << 16)
                    | ((ra.0 as u32) << 10)
                    | ((rn.0 as u32) << 5)
                    | rd.0 as u32
            }
            Udiv { rd, rn, rm } => {
                0x9AC0_0800 | ((rm.0 as u32) << 16) | ((rn.0 as u32) << 5) | rd.0 as u32
            }
            Csel { rd, rn, rm, cond } => {
                0x9A80_0000
                    | ((rm.0 as u32) << 16)
                    | ((cond as u32) << 12)
                    | ((rn.0 as u32) << 5)
                    | rd.0 as u32
            }
            Csinc { rd, rn, rm, cond } => {
                0x9A80_0400
                    | ((rm.0 as u32) << 16)
                    | ((cond as u32) << 12)
                    | ((rn.0 as u32) << 5)
                    | rd.0 as u32
            }
            Lslv { rd, rn, rm } => {
                0x9AC0_2000 | ((rm.0 as u32) << 16) | ((rn.0 as u32) << 5) | rd.0 as u32
            }
            Lsrv { rd, rn, rm } => {
                0x9AC0_2400 | ((rm.0 as u32) << 16) | ((rn.0 as u32) << 5) | rd.0 as u32
            }
            LdrX { rt, rn, offset } => {
                debug_assert!(offset % 8 == 0 && offset / 8 < 4096);
                0xF940_0000 | (((offset / 8) as u32) << 10) | ((rn.0 as u32) << 5) | rt.0 as u32
            }
            StrX { rt, rn, offset } => {
                debug_assert!(offset % 8 == 0 && offset / 8 < 4096);
                0xF900_0000 | (((offset / 8) as u32) << 10) | ((rn.0 as u32) << 5) | rt.0 as u32
            }
            Ldp { rt1, rt2, rn, offset } => {
                debug_assert!(offset % 8 == 0 && (-512..=504).contains(&offset));
                let imm7 = ((offset / 8) as u32) & 0x7F;
                0xA940_0000
                    | (imm7 << 15)
                    | ((rt2.0 as u32) << 10)
                    | ((rn.0 as u32) << 5)
                    | rt1.0 as u32
            }
            Stp { rt1, rt2, rn, offset } => {
                debug_assert!(offset % 8 == 0 && (-512..=504).contains(&offset));
                let imm7 = ((offset / 8) as u32) & 0x7F;
                0xA900_0000
                    | (imm7 << 15)
                    | ((rt2.0 as u32) << 10)
                    | ((rn.0 as u32) << 5)
                    | rt1.0 as u32
            }
            Ldrb { rt, rn, offset } => {
                debug_assert!(offset < 4096);
                0x3940_0000 | ((offset as u32) << 10) | ((rn.0 as u32) << 5) | rt.0 as u32
            }
            Strb { rt, rn, offset } => {
                debug_assert!(offset < 4096);
                0x3900_0000 | ((offset as u32) << 10) | ((rn.0 as u32) << 5) | rt.0 as u32
            }
            B { offset } => 0x1400_0000 | ((offset as u32) & 0x03FF_FFFF),
            BCond { cond, offset } => {
                0x5400_0000 | (((offset as u32) & 0x7FFFF) << 5) | cond as u32
            }
            Cbz { rt, offset } => 0xB400_0000 | (((offset as u32) & 0x7FFFF) << 5) | rt.0 as u32,
            Cbnz { rt, offset } => 0xB500_0000 | (((offset as u32) & 0x7FFFF) << 5) | rt.0 as u32,
            Tbz { rt, bit, offset } => {
                debug_assert!(bit < 64);
                let b5 = ((bit >> 5) as u32) << 31;
                let b40 = ((bit & 0x1F) as u32) << 19;
                0x3600_0000 | b5 | b40 | (((offset as u32) & 0x3FFF) << 5) | rt.0 as u32
            }
            Tbnz { rt, bit, offset } => {
                debug_assert!(bit < 64);
                let b5 = ((bit >> 5) as u32) << 31;
                let b40 = ((bit & 0x1F) as u32) << 19;
                0x3700_0000 | b5 | b40 | (((offset as u32) & 0x3FFF) << 5) | rt.0 as u32
            }
            Ret => 0xD65F_03C0,
            Hlt { imm16 } => 0xD440_0000 | ((imm16 as u32) << 5),
            DsbSy => 0xD503_3F9F,
            Isb => 0xD503_3FDF,
            DcZva { rt } => 0xD50B_7420 | rt.0 as u32,
            DcCivac { rt } => 0xD50B_7E20 | rt.0 as u32,
            DcCvac { rt } => 0xD50B_7A20 | rt.0 as u32,
            IcIallu => 0xD508_751F,
            RamIndex { rt } => 0xD508_F400 | rt.0 as u32,
            MrsRamData { rt, n } => {
                debug_assert!(n < 4);
                0xD538_F000 | ((n as u32) << 5) | rt.0 as u32
            }
            MoviV16b { vd, imm8 } => {
                0x4F00_E400
                    | (((imm8 as u32) >> 5) << 16)
                    | (((imm8 as u32) & 0x1F) << 5)
                    | vd.0 as u32
            }
            InsVD { vd, idx, rn } => {
                debug_assert!(idx < 2);
                0x4E08_1C00 | ((idx as u32) << 4 << 16) | ((rn.0 as u32) << 5) | vd.0 as u32
            }
            UmovXD { rd, vn, idx } => {
                debug_assert!(idx < 2);
                0x4E08_3C00 | ((idx as u32) << 4 << 16) | ((vn.0 as u32) << 5) | rd.0 as u32
            }
        }
    }

    /// Decodes a machine word.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] when the word is outside the subset.
    pub fn decode(word: u32) -> Result<Instr, DecodeError> {
        use Instr::*;
        let rd = Reg((word & 0x1F) as u8);
        let rn = Reg(((word >> 5) & 0x1F) as u8);
        let rm = Reg(((word >> 16) & 0x1F) as u8);

        if word == 0xD503_201F {
            return Ok(Nop);
        }
        if word == 0xD65F_03C0 {
            return Ok(Ret);
        }
        if word == 0xD503_3F9F {
            return Ok(DsbSy);
        }
        if word == 0xD503_3FDF {
            return Ok(Isb);
        }
        if word == 0xD508_751F {
            return Ok(IcIallu);
        }
        match word & 0xFF80_0000 {
            0xD280_0000 => {
                return Ok(Movz {
                    rd,
                    imm16: ((word >> 5) & 0xFFFF) as u16,
                    hw: ((word >> 21) & 0x3) as u8,
                })
            }
            0xF280_0000 => {
                return Ok(Movk {
                    rd,
                    imm16: ((word >> 5) & 0xFFFF) as u16,
                    hw: ((word >> 21) & 0x3) as u8,
                })
            }
            0x9280_0000 => {
                return Ok(Movn {
                    rd,
                    imm16: ((word >> 5) & 0xFFFF) as u16,
                    hw: ((word >> 21) & 0x3) as u8,
                })
            }
            _ => {}
        }
        if word & 0x9F00_0000 == 0x1000_0000 {
            let imm = ((word >> 29) & 0x3) | (((word >> 5) & 0x7_FFFF) << 2);
            let offset = ((imm << 11) as i32) >> 11;
            return Ok(Adr { rd, offset });
        }
        match word & 0xFFC0_0000 {
            0xA940_0000 => {
                let imm7 = (word >> 15) & 0x7F;
                let offset = (((imm7 << 25) as i32) >> 25) as i16 * 8;
                return Ok(Ldp { rt1: rd, rt2: Reg(((word >> 10) & 0x1F) as u8), rn, offset });
            }
            0xA900_0000 => {
                let imm7 = (word >> 15) & 0x7F;
                let offset = (((imm7 << 25) as i32) >> 25) as i16 * 8;
                return Ok(Stp { rt1: rd, rt2: Reg(((word >> 10) & 0x1F) as u8), rn, offset });
            }
            _ => {}
        }
        match word & 0xFFC0_0000 {
            0x9100_0000 => return Ok(AddImm { rd, rn, imm12: ((word >> 10) & 0xFFF) as u16 }),
            0xD100_0000 => return Ok(SubImm { rd, rn, imm12: ((word >> 10) & 0xFFF) as u16 }),
            0xF100_0000 => return Ok(SubsImm { rd, rn, imm12: ((word >> 10) & 0xFFF) as u16 }),
            0xF940_0000 => {
                return Ok(LdrX { rt: rd, rn, offset: (((word >> 10) & 0xFFF) * 8) as u16 })
            }
            0xF900_0000 => {
                return Ok(StrX { rt: rd, rn, offset: (((word >> 10) & 0xFFF) * 8) as u16 })
            }
            0x3940_0000 => return Ok(Ldrb { rt: rd, rn, offset: ((word >> 10) & 0xFFF) as u16 }),
            0x3900_0000 => return Ok(Strb { rt: rd, rn, offset: ((word >> 10) & 0xFFF) as u16 }),
            _ => {}
        }
        if word & 0xFFE0_FC00 == 0x8B00_0000 {
            return Ok(AddReg { rd, rn, rm });
        }
        if word & 0xFFE0_FC00 == 0xCB00_0000 {
            return Ok(SubReg { rd, rn, rm });
        }
        if word & 0xFFE0_FC00 == 0xEB00_0000 {
            return Ok(SubsReg { rd, rn, rm });
        }
        if word & 0xFFE0_FC00 == 0x8A00_0000 {
            return Ok(AndReg { rd, rn, rm });
        }
        if word & 0xFFE0_FC00 == 0xAA00_0000 {
            return Ok(OrrReg { rd, rn, rm });
        }
        if word & 0xFFE0_FC00 == 0xCA00_0000 {
            return Ok(EorReg { rd, rn, rm });
        }
        if word & 0xFFE0_FC00 == 0x9AC0_2000 {
            return Ok(Lslv { rd, rn, rm });
        }
        if word & 0xFFE0_FC00 == 0x9AC0_2400 {
            return Ok(Lsrv { rd, rn, rm });
        }
        if word & 0xFFE0_FC00 == 0xAA20_0000 {
            return Ok(OrnReg { rd, rn, rm });
        }
        if word & 0xFFE0_FC00 == 0xEA00_0000 {
            return Ok(AndsReg { rd, rn, rm });
        }
        if word & 0xFFE0_FC00 == 0x9AC0_0800 {
            return Ok(Udiv { rd, rn, rm });
        }
        if word & 0xFFE0_8000 == 0x9B00_0000 {
            return Ok(Madd { rd, rn, rm, ra: Reg(((word >> 10) & 0x1F) as u8) });
        }
        if word & 0xFFE0_0C00 == 0x9A80_0000 {
            let cond = Cond::from_bits((word >> 12) & 0xF).ok_or(DecodeError { word })?;
            return Ok(Csel { rd, rn, rm, cond });
        }
        if word & 0xFFE0_0C00 == 0x9A80_0400 {
            let cond = Cond::from_bits((word >> 12) & 0xF).ok_or(DecodeError { word })?;
            return Ok(Csinc { rd, rn, rm, cond });
        }
        if word & 0x7E00_0000 == 0x3600_0000 {
            let bit = ((((word >> 31) & 1) << 5) | ((word >> 19) & 0x1F)) as u8;
            let raw = (word >> 5) & 0x3FFF;
            let offset = (((raw << 18) as i32) >> 18) as i16;
            return if word & 0x0100_0000 == 0 {
                Ok(Tbz { rt: rd, bit, offset })
            } else {
                Ok(Tbnz { rt: rd, bit, offset })
            };
        }
        if word & 0xFC00_0000 == 0x1400_0000 {
            let raw = word & 0x03FF_FFFF;
            let offset = ((raw << 6) as i32) >> 6;
            return Ok(B { offset });
        }
        if word & 0xFF00_0010 == 0x5400_0000 {
            let cond = Cond::from_bits(word & 0xF).ok_or(DecodeError { word })?;
            let raw = (word >> 5) & 0x7FFFF;
            let offset = ((raw << 13) as i32) >> 13;
            return Ok(BCond { cond, offset });
        }
        if word & 0xFF00_0000 == 0xB400_0000 {
            let raw = (word >> 5) & 0x7FFFF;
            return Ok(Cbz { rt: rd, offset: ((raw << 13) as i32) >> 13 });
        }
        if word & 0xFF00_0000 == 0xB500_0000 {
            let raw = (word >> 5) & 0x7FFFF;
            return Ok(Cbnz { rt: rd, offset: ((raw << 13) as i32) >> 13 });
        }
        if word & 0xFFE0_001F == 0xD440_0000 {
            return Ok(Hlt { imm16: ((word >> 5) & 0xFFFF) as u16 });
        }
        if word & 0xFFFF_FFE0 == 0xD50B_7420 {
            return Ok(DcZva { rt: rd });
        }
        if word & 0xFFFF_FFE0 == 0xD50B_7E20 {
            return Ok(DcCivac { rt: rd });
        }
        if word & 0xFFFF_FFE0 == 0xD50B_7A20 {
            return Ok(DcCvac { rt: rd });
        }
        if word & 0xFFFF_FFE0 == 0xD508_F400 {
            return Ok(RamIndex { rt: rd });
        }
        if word & 0xFFFF_FF80 == 0xD538_F000 {
            return Ok(MrsRamData { rt: rd, n: ((word >> 5) & 0x3) as u8 });
        }
        if word & 0xFFF8_FC00 == 0x4F00_E400 {
            let imm8 = ((((word >> 16) & 0x7) << 5) | ((word >> 5) & 0x1F)) as u8;
            return Ok(MoviV16b { vd: VReg((word & 0x1F) as u8), imm8 });
        }
        if word & 0xFFEF_FC00 == 0x4E08_1C00 {
            return Ok(InsVD { vd: VReg((word & 0x1F) as u8), idx: ((word >> 20) & 1) as u8, rn });
        }
        if word & 0xFFEF_FC00 == 0x4E08_3C00 {
            return Ok(UmovXD {
                rd,
                vn: VReg(((word >> 5) & 0x1F) as u8),
                idx: ((word >> 20) & 1) as u8,
            });
        }
        Err(DecodeError { word })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_encodings_match_the_architecture() {
        assert_eq!(Instr::Nop.encode(), 0xD503201F);
        assert_eq!(Instr::Ret.encode(), 0xD65F03C0);
        assert_eq!(Instr::DsbSy.encode(), 0xD5033F9F);
        assert_eq!(Instr::Isb.encode(), 0xD5033FDF);
        assert_eq!(Instr::IcIallu.encode(), 0xD508751F);
        // movz x0, #1  ==  0xD2800020
        assert_eq!(Instr::Movz { rd: Reg::x(0), imm16: 1, hw: 0 }.encode(), 0xD2800020);
        // ldr x1, [x2, #16]  ==  0xF9400841
        assert_eq!(Instr::LdrX { rt: Reg::x(1), rn: Reg::x(2), offset: 16 }.encode(), 0xF9400841);
        // str x1, [x2]  ==  0xF9000041
        assert_eq!(Instr::StrX { rt: Reg::x(1), rn: Reg::x(2), offset: 0 }.encode(), 0xF9000041);
        // b . (offset 0)  ==  0x14000000
        assert_eq!(Instr::B { offset: 0 }.encode(), 0x14000000);
        // dc zva, x3  ==  0xD50B7423
        assert_eq!(Instr::DcZva { rt: Reg::x(3) }.encode(), 0xD50B7423);
        // The paper's RAMINDEX: sys #0, c15, c4, #0, x0
        assert_eq!(Instr::RamIndex { rt: Reg::x(0) }.encode(), 0xD508F400);
    }

    #[test]
    fn every_instruction_roundtrips() {
        let cases = vec![
            Instr::Nop,
            Instr::Movz { rd: Reg::x(5), imm16: 0xABCD, hw: 2 },
            Instr::Movk { rd: Reg::x(30), imm16: 0xFFFF, hw: 3 },
            Instr::AddImm { rd: Reg::x(1), rn: Reg::x(2), imm12: 4095 },
            Instr::SubImm { rd: Reg::x(1), rn: Reg::x(2), imm12: 1 },
            Instr::SubsImm { rd: Reg::XZR, rn: Reg::x(2), imm12: 7 },
            Instr::AddReg { rd: Reg::x(3), rn: Reg::x(4), rm: Reg::x(5) },
            Instr::SubReg { rd: Reg::x(3), rn: Reg::x(4), rm: Reg::x(5) },
            Instr::SubsReg { rd: Reg::XZR, rn: Reg::x(4), rm: Reg::x(5) },
            Instr::AndReg { rd: Reg::x(6), rn: Reg::x(7), rm: Reg::x(8) },
            Instr::OrrReg { rd: Reg::x(6), rn: Reg::XZR, rm: Reg::x(8) },
            Instr::EorReg { rd: Reg::x(6), rn: Reg::x(7), rm: Reg::x(8) },
            Instr::Lslv { rd: Reg::x(1), rn: Reg::x(2), rm: Reg::x(3) },
            Instr::Lsrv { rd: Reg::x(1), rn: Reg::x(2), rm: Reg::x(3) },
            Instr::LdrX { rt: Reg::x(9), rn: Reg::x(10), offset: 32760 },
            Instr::StrX { rt: Reg::x(9), rn: Reg::x(10), offset: 8 },
            Instr::Ldrb { rt: Reg::x(9), rn: Reg::x(10), offset: 4095 },
            Instr::Strb { rt: Reg::x(9), rn: Reg::x(10), offset: 0 },
            Instr::B { offset: -4 },
            Instr::B { offset: 1000 },
            Instr::BCond { cond: Cond::Ne, offset: -32 },
            Instr::BCond { cond: Cond::Ge, offset: 5 },
            Instr::Cbz { rt: Reg::x(2), offset: 12 },
            Instr::Cbnz { rt: Reg::x(2), offset: -12 },
            Instr::Ret,
            Instr::Hlt { imm16: 0xBEEF },
            Instr::DsbSy,
            Instr::Isb,
            Instr::DcZva { rt: Reg::x(4) },
            Instr::DcCivac { rt: Reg::x(4) },
            Instr::DcCvac { rt: Reg::x(4) },
            Instr::IcIallu,
            Instr::RamIndex { rt: Reg::x(0) },
            Instr::MrsRamData { rt: Reg::x(1), n: 3 },
            Instr::MoviV16b { vd: VReg::v(31), imm8: 0xAA },
            Instr::MoviV16b { vd: VReg::v(0), imm8: 0xFF },
            Instr::InsVD { vd: VReg::v(7), idx: 1, rn: Reg::x(3) },
            Instr::UmovXD { rd: Reg::x(3), vn: VReg::v(7), idx: 0 },
            Instr::Movn { rd: Reg::x(4), imm16: 0x1234, hw: 1 },
            Instr::Adr { rd: Reg::x(5), offset: -4096 },
            Instr::Adr { rd: Reg::x(5), offset: 1_048_572 },
            Instr::OrnReg { rd: Reg::x(1), rn: Reg::XZR, rm: Reg::x(2) },
            Instr::AndsReg { rd: Reg::XZR, rn: Reg::x(3), rm: Reg::x(4) },
            Instr::Madd { rd: Reg::x(1), rn: Reg::x(2), rm: Reg::x(3), ra: Reg::x(4) },
            Instr::Madd { rd: Reg::x(1), rn: Reg::x(2), rm: Reg::x(3), ra: Reg::XZR },
            Instr::Udiv { rd: Reg::x(1), rn: Reg::x(2), rm: Reg::x(3) },
            Instr::Csel { rd: Reg::x(1), rn: Reg::x(2), rm: Reg::x(3), cond: Cond::Lt },
            Instr::Csinc { rd: Reg::x(1), rn: Reg::x(2), rm: Reg::x(3), cond: Cond::Eq },
            Instr::Ldp { rt1: Reg::x(0), rt2: Reg::x(1), rn: Reg::x(2), offset: -512 },
            Instr::Ldp { rt1: Reg::x(0), rt2: Reg::x(1), rn: Reg::x(2), offset: 504 },
            Instr::Stp { rt1: Reg::x(29), rt2: Reg::x(30), rn: Reg::x(2), offset: 0 },
            Instr::Tbz { rt: Reg::x(7), bit: 63, offset: -100 },
            Instr::Tbnz { rt: Reg::x(7), bit: 0, offset: 8191 },
        ];
        for instr in cases {
            let word = instr.encode();
            let back = Instr::decode(word)
                .unwrap_or_else(|e| panic!("{instr:?} ({word:#010x}) failed to decode: {e}"));
            assert_eq!(back, instr, "roundtrip mismatch for {word:#010x}");
        }
    }

    #[test]
    fn garbage_words_fail_to_decode() {
        for word in [0x0000_0000u32, 0xFFFF_FFFF, 0x1234_5678] {
            assert!(Instr::decode(word).is_err(), "{word:#010x} should not decode");
        }
    }

    #[test]
    fn branch_offsets_sign_extend() {
        let b = Instr::B { offset: -1 };
        assert_eq!(Instr::decode(b.encode()).unwrap(), b);
        let bc = Instr::BCond { cond: Cond::Lt, offset: -262144 };
        assert_eq!(Instr::decode(bc.encode()).unwrap(), bc);
    }

    #[test]
    fn register_display() {
        assert_eq!(Reg::x(0).to_string(), "x0");
        assert_eq!(Reg::XZR.to_string(), "xzr");
        assert_eq!(VReg::v(31).to_string(), "v31");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn register_index_validated() {
        let _ = Reg::x(32);
    }

    #[test]
    fn display_uses_preferred_aliases() {
        assert_eq!(
            Instr::OrrReg { rd: Reg::x(1), rn: Reg::XZR, rm: Reg::x(2) }.to_string(),
            "mov x1, x2"
        );
        assert_eq!(
            Instr::SubsImm { rd: Reg::XZR, rn: Reg::x(3), imm12: 7 }.to_string(),
            "cmp x3, #7"
        );
        assert_eq!(
            Instr::AndsReg { rd: Reg::XZR, rn: Reg::x(1), rm: Reg::x(2) }.to_string(),
            "tst x1, x2"
        );
        assert_eq!(
            Instr::Madd { rd: Reg::x(0), rn: Reg::x(1), rm: Reg::x(2), ra: Reg::XZR }.to_string(),
            "mul x0, x1, x2"
        );
        assert_eq!(Instr::Nop.to_string(), "nop");
        assert_eq!(
            Instr::LdrX { rt: Reg::x(4), rn: Reg::x(5), offset: 16 }.to_string(),
            "ldr x4, [x5, #16]"
        );
    }

    #[test]
    fn display_roundtrips_through_the_assembler() {
        // Every non-branch instruction's text form re-assembles to the
        // same encoding (branch targets print as offsets, which the
        // assembler reads back as immediate offsets).
        let cases = vec![
            Instr::Movz { rd: Reg::x(5), imm16: 0xABCD, hw: 2 },
            Instr::Movn { rd: Reg::x(4), imm16: 0x99, hw: 0 },
            Instr::AddImm { rd: Reg::x(1), rn: Reg::x(2), imm12: 9 },
            Instr::OrnReg { rd: Reg::x(1), rn: Reg::x(9), rm: Reg::x(2) },
            Instr::Udiv { rd: Reg::x(1), rn: Reg::x(2), rm: Reg::x(3) },
            Instr::Csel { rd: Reg::x(1), rn: Reg::x(2), rm: Reg::x(3), cond: Cond::Gt },
            Instr::Ldp { rt1: Reg::x(0), rt2: Reg::x(1), rn: Reg::x(2), offset: 16 },
            Instr::Strb { rt: Reg::x(9), rn: Reg::x(10), offset: 3 },
            Instr::DcZva { rt: Reg::x(4) },
            Instr::MoviV16b { vd: VReg::v(3), imm8: 0x7E },
            Instr::UmovXD { rd: Reg::x(3), vn: VReg::v(7), idx: 1 },
        ];
        for instr in cases {
            let text = instr.to_string();
            let back = crate::asm::assemble(&text)
                .unwrap_or_else(|e| panic!("{text:?} failed to assemble: {e}"));
            assert_eq!(back.instrs(), &[instr], "text was {text:?}");
        }
    }
}
