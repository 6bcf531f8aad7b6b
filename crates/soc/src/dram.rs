//! Off-chip DRAM.
//!
//! DRAM is where the extraction software dumps what it pulls out of the
//! SRAMs ("a set of general load/store instructions moves the data from
//! the general-purpose CPU registers to DRAM for further processing" —
//! §6.1). The optional scrambler models the DDR3/DDR4 session-key
//! scrambling the paper's related work discusses: it protects the DRAM
//! *module* against cold boot, and does nothing for on-chip SRAM.

use crate::cache::Backing;
use crate::dram_remanence::DecayStep;
use crate::error::SocError;
use std::borrow::Cow;
use std::ops::Range;

/// Granularity of lazy decay: a page absorbs every queued step the first
/// time something touches it.
const PAGE_BYTES: usize = 4096;

/// Queued decay steps at which every page is settled and the queue
/// emptied, so a board cycled forever stays bounded.
const DECAY_QUEUE_CAP: usize = 64;
// Each page's absorbed count is a `u8`.
const _: () = assert!(DECAY_QUEUE_CAP <= u8::MAX as usize);

/// Byte-addressable DRAM with an optional bus scrambler.
///
/// Unpowered decay is lazy: a power cycle queues its decay step, and each
/// 4 KiB page applies the steps it has not yet absorbed when something
/// first touches it. Writes and line fills settle the pages they touch in
/// place; `&self` readers get settled copies. Every access sees exactly
/// the bytes an eager sweep of the whole DRAM would have left.
#[derive(Debug, Clone)]
pub struct Dram {
    bytes: Vec<u8>,
    /// Session key of the scrambler; regenerated on every power cycle.
    scramble_key: Option<u64>,
    /// Decay steps queued since the last full settle, oldest first.
    decay: Vec<DecayStep>,
    /// How many of `decay` each page has absorbed.
    absorbed: Vec<u8>,
}

impl Dram {
    /// Creates `size` bytes of unscrambled DRAM.
    pub fn new(size: usize) -> Self {
        Dram {
            bytes: vec![0; size],
            scramble_key: None,
            decay: Vec::new(),
            absorbed: vec![0; size.div_ceil(PAGE_BYTES)],
        }
    }

    /// Enables the DDR4-style scrambler with a session key.
    pub fn enable_scrambler(&mut self, session_key: u64) {
        self.scramble_key = Some(session_key);
    }

    /// Size in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether the DRAM is zero-sized.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    fn check_range(&self, addr: u64, len: usize) -> Result<usize, SocError> {
        let a = usize::try_from(addr).map_err(|_| SocError::Unmapped { addr })?;
        match a.checked_add(len) {
            Some(end) if end <= self.bytes.len() => Ok(a),
            _ => Err(SocError::Unmapped { addr }),
        }
    }

    /// Logical (descrambled) read, as the memory controller presents it.
    ///
    /// # Errors
    ///
    /// [`SocError::Unmapped`] past the end.
    pub fn read(&self, addr: u64, len: usize) -> Result<Vec<u8>, SocError> {
        let a = self.check_range(addr, len)?;
        let cells = self.settled(a, len);
        Ok(match self.scramble_key {
            None => cells.into_owned(),
            Some(key) => cells
                .iter()
                .enumerate()
                .map(|(i, &b)| b ^ Self::pad(key, addr + i as u64))
                .collect(),
        })
    }

    /// Logical write through the controller.
    ///
    /// # Errors
    ///
    /// [`SocError::Unmapped`] past the end.
    pub fn write(&mut self, addr: u64, data: &[u8]) -> Result<(), SocError> {
        let a = self.check_range(addr, data.len())?;
        self.settle(a, data.len());
        match self.scramble_key {
            None => self.bytes[a..a + data.len()].copy_from_slice(data),
            Some(key) => {
                for (i, &b) in data.iter().enumerate() {
                    self.bytes[a + i] = b ^ Self::pad(key, addr + i as u64);
                }
            }
        }
        Ok(())
    }

    /// What a *physical* probe on the DRAM chip sees (the cold-boot view):
    /// raw cells, decayed, and scrambled if the controller scrambles.
    /// Borrowed when every page in range has absorbed all queued decay.
    ///
    /// # Errors
    ///
    /// [`SocError::Unmapped`] past the end.
    pub fn raw_cells(&self, addr: u64, len: usize) -> Result<Cow<'_, [u8]>, SocError> {
        let a = self.check_range(addr, len)?;
        Ok(self.settled(a, len))
    }

    /// Rotates the scrambler session key (happens at every boot).
    pub fn rotate_scramble_key(&mut self, new_key: u64) {
        if self.scramble_key.is_some() {
            self.scramble_key = Some(new_key);
        }
    }

    /// Queues one unpowered interval's decay; each page applies it when
    /// first touched. A full queue is settled everywhere first.
    pub(crate) fn queue_decay(&mut self, step: DecayStep) {
        if self.decay.len() == DECAY_QUEUE_CAP {
            self.settle_all();
        }
        self.decay.push(step);
    }

    /// Applies every queued step to every page and empties the queue,
    /// returning how many bits flipped.
    pub(crate) fn settle_all(&mut self) -> usize {
        let flipped = (0..self.absorbed.len()).map(|page| self.settle_page(page)).sum();
        self.decay.clear();
        self.absorbed.fill(0);
        flipped
    }

    /// The raw cells with every queued step applied, for writers that
    /// bypass the controller.
    #[cfg(test)]
    pub(crate) fn cells_mut(&mut self) -> &mut [u8] {
        self.settle_all();
        &mut self.bytes
    }

    /// Settles, in place, every page `[a, a + len)` touches.
    fn settle(&mut self, a: usize, len: usize) {
        for page in pages(a, len) {
            self.settle_page(page);
        }
    }

    /// Applies the steps `page` has not absorbed yet, in place, returning
    /// how many bits flipped.
    fn settle_page(&mut self, page: usize) -> usize {
        let from = usize::from(self.absorbed[page]);
        if from == self.decay.len() {
            return 0;
        }
        let start = page * PAGE_BYTES;
        let end = (start + PAGE_BYTES).min(self.bytes.len());
        let cells = &mut self.bytes[start..end];
        let flipped = self.decay[from..].iter().map(|step| step.apply(cells, start)).sum();
        self.absorbed[page] = self.decay.len() as u8;
        flipped
    }

    /// The raw cells `[a, a + len)` as an eager decay would have left
    /// them: borrowed if settled, else a copy with the pending steps of
    /// each page applied.
    fn settled(&self, a: usize, len: usize) -> Cow<'_, [u8]> {
        let cells = &self.bytes[a..a + len];
        let absorbed = |page: usize| usize::from(self.absorbed[page]);
        if pages(a, len).all(|page| absorbed(page) == self.decay.len()) {
            return Cow::Borrowed(cells);
        }
        let mut copy = cells.to_vec();
        for page in pages(a, len) {
            let lo = (page * PAGE_BYTES).max(a);
            let hi = ((page + 1) * PAGE_BYTES).min(a + len);
            for step in &self.decay[absorbed(page)..] {
                step.apply(&mut copy[lo - a..hi - a], lo);
            }
        }
        Cow::Owned(copy)
    }

    fn pad(key: u64, addr: u64) -> u8 {
        // A cheap keyed mix; real scramblers use LFSRs seeded per burst.
        let x = key ^ addr.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        ((x >> 32) ^ (x >> 11) ^ x) as u8
    }
}

/// The pages `[a, a + len)` touches.
fn pages(a: usize, len: usize) -> Range<usize> {
    if len == 0 {
        0..0
    } else {
        a / PAGE_BYTES..(a + len - 1) / PAGE_BYTES + 1
    }
}

impl Backing for Dram {
    fn read_line(&mut self, line_addr: u64, buf: &mut [u8]) -> Result<(), SocError> {
        let a = self.check_range(line_addr, buf.len())?;
        self.settle(a, buf.len());
        buf.copy_from_slice(&self.read(line_addr, buf.len())?);
        Ok(())
    }

    fn write_line(&mut self, line_addr: u64, buf: &[u8]) -> Result<(), SocError> {
        self.write(line_addr, buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dram_remanence::tests::{byte_loop, INTERVALS};
    use crate::dram_remanence::{apply_decay, DramRemanenceModel};
    use proptest::prelude::*;
    use voltboot_sram::Temperature;

    /// Deterministic non-trivial contents for `len` bytes.
    fn pattern(len: usize, salt: u64) -> Vec<u8> {
        (0..len as u64)
            .map(|i| ((i ^ salt).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56) as u8)
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn lazy_decay_matches_the_eager_oracle(
            size in 1..3 * PAGE_BYTES + 100,
            scrambled in any::<bool>(),
            block in prop_oneof![Just(7usize), Just(100), Just(4096), Just(5000)],
            seed in any::<u64>(),
            ops in prop::collection::vec(
                (0u8..8, any::<u64>(), any::<u64>(), prop::collection::vec(any::<u8>(), 0..300)),
                1..60,
            ),
        ) {
            let model =
                DramRemanenceModel { cell_block_bytes: block, ..DramRemanenceModel::calibrated() };
            let mut lazy = Dram::new(size);
            if scrambled {
                lazy.enable_scrambler(seed);
            }
            lazy.write(0, &pattern(size, seed)).unwrap();
            let mut eager = lazy.clone();
            let mut event = 0u64;
            for (op, a, b, data) in ops {
                // Addresses run a little past the end, so errors compare too.
                let addr = a % (size as u64 + 8);
                let len = (b % 5000) as usize;
                match op {
                    0 | 1 => {
                        let dt = INTERVALS[(a % INTERVALS.len() as u64) as usize];
                        if let Some(step) =
                            DecayStep::new(&model, dt, Temperature::ROOM, seed, event)
                        {
                            lazy.queue_decay(step);
                        }
                        byte_loop(eager.cells_mut(), &model, dt, Temperature::ROOM, seed, event);
                        event += 1;
                    }
                    2 => prop_assert_eq!(lazy.write(addr, &data), eager.write(addr, &data)),
                    3 => prop_assert_eq!(lazy.read(addr, len), eager.read(addr, len)),
                    4 => prop_assert_eq!(lazy.raw_cells(addr, len), eager.raw_cells(addr, len)),
                    5 => {
                        let (mut got, mut want) = (vec![0; data.len()], vec![0; data.len()]);
                        prop_assert_eq!(
                            lazy.read_line(addr, &mut got),
                            eager.read_line(addr, &mut want)
                        );
                        prop_assert_eq!(got, want);
                    }
                    6 => prop_assert_eq!(lazy.write_line(addr, &data), eager.write_line(addr, &data)),
                    _ => {
                        lazy.rotate_scramble_key(a);
                        eager.rotate_scramble_key(a);
                    }
                }
            }
            prop_assert_eq!(lazy.raw_cells(0, size).unwrap(), eager.raw_cells(0, size).unwrap());
            prop_assert_eq!(lazy.read(0, size).unwrap(), eager.read(0, size).unwrap());
            lazy.settle_all();
            prop_assert!(lazy.decay.is_empty());
            prop_assert_eq!(&lazy.bytes, &eager.bytes);
        }
    }

    #[test]
    fn a_write_settles_only_the_pages_it_touches() {
        let model = DramRemanenceModel::calibrated();
        let mut d = Dram::new(4 * PAGE_BYTES);
        d.write(0, &pattern(4 * PAGE_BYTES, 1)).unwrap();
        let step = DecayStep::new(&model, INTERVALS[2], Temperature::ROOM, 5, 0).unwrap();
        d.queue_decay(step);
        d.write(PAGE_BYTES as u64 - 2, &[0; 4]).unwrap();
        assert_eq!(d.absorbed, [1, 1, 0, 0]);
        let before = d.bytes[3 * PAGE_BYTES..].to_vec();
        // `&self` readers hand out settled copies and leave the cells be.
        assert!(matches!(d.raw_cells(3 * PAGE_BYTES as u64, 8).unwrap(), Cow::Owned(_)));
        assert!(matches!(d.raw_cells(8, 8).unwrap(), Cow::Borrowed(_)));
        assert_eq!(d.bytes[3 * PAGE_BYTES..], before[..]);
        assert_eq!(d.absorbed, [1, 1, 0, 0]);
    }

    #[test]
    fn a_board_cycled_forever_stays_bounded() {
        let model = DramRemanenceModel::calibrated();
        let size = 2 * PAGE_BYTES + 100;
        let mut lazy = Dram::new(size);
        lazy.write(0, &pattern(size, 3)).unwrap();
        let mut eager = lazy.clone();
        let dt = INTERVALS[2];
        for cycle in 0..1000u64 {
            let step = DecayStep::new(&model, dt, Temperature::ROOM, 9, cycle).unwrap();
            lazy.queue_decay(step);
            apply_decay(&mut eager, &model, dt, Temperature::ROOM, 9, cycle);
            assert!(lazy.decay.len() <= DECAY_QUEUE_CAP, "cycle {cycle}: {}", lazy.decay.len());
            // Boot writes its image into DRAM after every cycle.
            let image = pattern(64, cycle);
            lazy.write(0x100, &image).unwrap();
            eager.write(0x100, &image).unwrap();
            if cycle % 97 == 0 {
                assert_eq!(lazy.read(0, size).unwrap(), eager.read(0, size).unwrap());
            }
        }
        assert_eq!(lazy.raw_cells(0, size).unwrap(), eager.raw_cells(0, size).unwrap());
        lazy.settle_all();
        assert_eq!(lazy.bytes, eager.bytes);
    }

    #[test]
    fn plain_roundtrip() {
        let mut d = Dram::new(1024);
        d.write(100, &[1, 2, 3]).unwrap();
        assert_eq!(d.read(100, 3).unwrap(), vec![1, 2, 3]);
        assert_eq!(d.raw_cells(100, 3).unwrap(), &[1, 2, 3][..]);
    }

    #[test]
    fn scrambler_hides_raw_cells_but_roundtrips_logically() {
        let mut d = Dram::new(1024);
        d.enable_scrambler(0xFEED_FACE);
        d.write(0, b"secret key bytes").unwrap();
        assert_eq!(d.read(0, 16).unwrap(), b"secret key bytes".to_vec());
        assert_ne!(d.raw_cells(0, 16).unwrap(), b"secret key bytes" as &[u8]);
    }

    #[test]
    fn key_rotation_breaks_old_images() {
        let mut d = Dram::new(64);
        d.enable_scrambler(1);
        d.write(0, &[0xAA; 16]).unwrap();
        d.rotate_scramble_key(2);
        assert_ne!(d.read(0, 16).unwrap(), vec![0xAA; 16]);
    }

    #[test]
    fn rotation_is_noop_without_scrambler() {
        let mut d = Dram::new(64);
        d.write(0, &[0xAA; 16]).unwrap();
        d.rotate_scramble_key(2);
        assert_eq!(d.read(0, 16).unwrap(), vec![0xAA; 16]);
    }

    #[test]
    fn out_of_range_is_unmapped() {
        let mut d = Dram::new(16);
        assert!(matches!(d.read(8, 16), Err(SocError::Unmapped { .. })));
        assert!(matches!(d.write(17, &[0]), Err(SocError::Unmapped { .. })));
        assert!(matches!(d.raw_cells(16, 1), Err(SocError::Unmapped { .. })));
    }
}
