//! Off-chip DRAM.
//!
//! DRAM is where the extraction software dumps what it pulls out of the
//! SRAMs ("a set of general load/store instructions moves the data from
//! the general-purpose CPU registers to DRAM for further processing" —
//! §6.1). The optional scrambler models the DDR3/DDR4 session-key
//! scrambling the paper's related work discusses: it protects the DRAM
//! *module* against cold boot, and does nothing for on-chip SRAM.
//!
//! The model is lazy in both storage and decay, page by page (see
//! [`Dram`]): a board allocates only the pages something writes, and a
//! power cycle's decay reaches a page only when something touches it.

use crate::cache::Backing;
use crate::dram_remanence::DecayStep;
use crate::error::SocError;
use std::borrow::Cow;
use std::ops::Range;

/// Granularity of lazy storage and lazy decay: a page is allocated by
/// the first write or line fill that touches it, and absorbs every
/// queued decay step the first time something touches it.
const PAGE_BYTES: usize = 4096;

/// Queued decay steps at which every page is settled and the queue
/// emptied, so a board cycled forever stays bounded.
const DECAY_QUEUE_CAP: usize = 64;
// Each page's absorbed count is a `u8`.
const _: () = assert!(DECAY_QUEUE_CAP <= u8::MAX as usize);

/// Byte-addressable DRAM with an optional bus scrambler.
///
/// Storage is lazy: each 4 KiB page is allocated by the first write or
/// line fill that touches it, and until then holds zeros. So is
/// unpowered decay: a power cycle queues its decay step, and each page
/// applies the steps it has not yet absorbed when something first
/// touches it. Writes and line fills allocate and settle the pages they
/// touch in place; `&self` readers borrow a range inside one allocated,
/// settled page and get a settled copy of any other. An unallocated
/// page reads as zeros with its pending steps applied, which is not all
/// zeros after a cycle: anti-cell blocks decay from 0 toward 1. Every
/// access sees exactly the bytes an eager sweep of a whole, zero-filled
/// DRAM would have left.
#[derive(Debug, Clone)]
pub struct Dram {
    /// Size in bytes.
    len: usize,
    /// The raw cells, [`PAGE_BYTES`] per page (the last page may be
    /// shorter); `None` until the page is first written or filled.
    pages: Vec<Option<Box<[u8]>>>,
    /// Session key of the scrambler; regenerated on every power cycle.
    scramble_key: Option<u64>,
    /// Decay steps queued since the last full settle, oldest first.
    decay: Vec<DecayStep>,
    /// How many of `decay` each page has absorbed.
    absorbed: Vec<u8>,
}

impl Dram {
    /// Creates `size` bytes of unscrambled, zeroed DRAM. Allocates no
    /// page yet.
    pub fn new(size: usize) -> Self {
        let n_pages = size.div_ceil(PAGE_BYTES);
        Dram {
            len: size,
            pages: vec![None; n_pages],
            scramble_key: None,
            decay: Vec::new(),
            absorbed: vec![0; n_pages],
        }
    }

    /// Enables the DDR4-style scrambler with a session key.
    pub fn enable_scrambler(&mut self, session_key: u64) {
        self.scramble_key = Some(session_key);
    }

    /// Size in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the DRAM is zero-sized.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// How many 4 KiB pages hold allocated cells: those written or
    /// filled into a cache line so far, plus the unwritten pages a full
    /// settle left with charged cells. Every other page reads as zeros
    /// with decay applied.
    pub fn allocated_pages(&self) -> usize {
        self.pages.iter().filter(|p| p.is_some()).count()
    }

    fn check_range(&self, addr: u64, len: usize) -> Result<usize, SocError> {
        let a = usize::try_from(addr).map_err(|_| SocError::Unmapped { addr })?;
        match a.checked_add(len) {
            Some(end) if end <= self.len => Ok(a),
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

    /// Logical write through the controller. Allocates and settles the
    /// pages it touches.
    ///
    /// # Errors
    ///
    /// [`SocError::Unmapped`] past the end.
    pub fn write(&mut self, addr: u64, data: &[u8]) -> Result<(), SocError> {
        let a = self.check_range(addr, data.len())?;
        let key = self.scramble_key;
        for page in pages(a, data.len()) {
            let (lo, hi) = clip(page, a, data.len());
            let start = page * PAGE_BYTES;
            let cells = &mut self.settle_page(page).0[lo - start..hi - start];
            let src = &data[lo - a..hi - a];
            match key {
                None => cells.copy_from_slice(src),
                Some(key) => {
                    for ((cell, &b), at) in cells.iter_mut().zip(src).zip(lo as u64..) {
                        *cell = b ^ Self::pad(key, at);
                    }
                }
            }
        }
        Ok(())
    }

    /// What a *physical* probe on the DRAM chip sees (the cold-boot view):
    /// raw cells, decayed, and scrambled if the controller scrambles.
    /// Borrowed when the range lies inside one allocated page that has
    /// absorbed all queued decay.
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

    /// Applies every queued step to every page that has not absorbed it,
    /// and empties the queue, returning how many bits flipped. An
    /// unwritten page settles in a scratch buffer and is allocated only
    /// if decay charged one of its cells. A page with nothing pending
    /// stays as it is, allocated or not.
    pub(crate) fn settle_all(&mut self) -> usize {
        let mut flipped = 0;
        let mut scratch = [0u8; PAGE_BYTES];
        for page in 0..self.pages.len() {
            let from = usize::from(self.absorbed[page]);
            if from == self.decay.len() {
                continue;
            }
            if self.pages[page].is_some() {
                flipped += self.settle_page(page).1;
                continue;
            }
            let start = page * PAGE_BYTES;
            let cells = &mut scratch[..PAGE_BYTES.min(self.len - start)];
            cells.fill(0);
            flipped +=
                self.decay[from..].iter().map(|step| step.apply(cells, start)).sum::<usize>();
            if cells.iter().any(|&b| b != 0) {
                self.pages[page] = Some(cells.into());
            }
        }
        self.decay.clear();
        self.absorbed.fill(0);
        flipped
    }

    /// Runs `edit` on the whole DRAM's raw cells with every queued step
    /// applied, then stores the result in every page: how the eager
    /// oracle writes past the controller.
    #[cfg(test)]
    pub(crate) fn edit_cells(&mut self, edit: impl FnOnce(&mut [u8])) {
        let mut cells = self.settled(0, self.len).into_owned();
        edit(&mut cells);
        self.decay.clear();
        self.absorbed.fill(0);
        for (page, chunk) in self.pages.iter_mut().zip(cells.chunks(PAGE_BYTES)) {
            *page = Some(chunk.into());
        }
    }

    /// Allocates and settles, in place, every page `[a, a + len)` touches.
    fn settle(&mut self, a: usize, len: usize) {
        for page in pages(a, len) {
            self.settle_page(page);
        }
    }

    /// Allocates `page` if it is not yet, and applies the steps it has
    /// not absorbed in place. Returns its cells and how many bits flipped.
    fn settle_page(&mut self, page: usize) -> (&mut [u8], usize) {
        let start = page * PAGE_BYTES;
        let len = PAGE_BYTES.min(self.len - start);
        let cells = self.pages[page].get_or_insert_with(|| vec![0; len].into_boxed_slice());
        let from = usize::from(self.absorbed[page]);
        let flipped = self.decay[from..].iter().map(|step| step.apply(cells, start)).sum();
        self.absorbed[page] = self.decay.len() as u8;
        (cells, flipped)
    }

    /// The raw cells `[a, a + len)` as an eager decay would have left
    /// them: borrowed if they lie inside one allocated, settled page,
    /// else a copy with the pending steps of each page applied.
    fn settled(&self, a: usize, len: usize) -> Cow<'_, [u8]> {
        let touched = pages(a, len);
        let absorbed = |page: usize| usize::from(self.absorbed[page]);
        if touched.len() == 1 && absorbed(touched.start) == self.decay.len() {
            if let Some(cells) = &self.pages[touched.start] {
                let at = a - touched.start * PAGE_BYTES;
                return Cow::Borrowed(&cells[at..at + len]);
            }
        }
        let mut copy = vec![0; len];
        for page in touched {
            let (lo, hi) = clip(page, a, len);
            let out = &mut copy[lo - a..hi - a];
            if let Some(cells) = &self.pages[page] {
                let start = page * PAGE_BYTES;
                out.copy_from_slice(&cells[lo - start..hi - start]);
            }
            for step in &self.decay[absorbed(page)..] {
                step.apply(out, lo);
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

/// The part of `[a, a + len)` inside `page`, as absolute byte bounds.
fn clip(page: usize, a: usize, len: usize) -> (usize, usize) {
    let start = page * PAGE_BYTES;
    (start.max(a), (start + PAGE_BYTES).min(a + len))
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
            prefilled in any::<bool>(),
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
            // Without the fill, pages stay unwritten until an op touches
            // them, and their anti-cell blocks decay from zeros.
            if prefilled {
                lazy.write(0, &pattern(size, seed)).unwrap();
            }
            let mut eager = lazy.clone();
            eager.edit_cells(|_| {});
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
                        eager.edit_cells(|cells| {
                            byte_loop(cells, &model, dt, Temperature::ROOM, seed, event);
                        });
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
            let pending: Vec<bool> =
                lazy.absorbed.iter().map(|&n| usize::from(n) < lazy.decay.len()).collect();
            let allocated: Vec<bool> = lazy.pages.iter().map(Option::is_some).collect();
            lazy.settle_all();
            prop_assert!(lazy.decay.is_empty());
            for (page, cells) in lazy.pages.iter().enumerate() {
                // A full settle allocates exactly the unwritten pages that
                // had pending steps and settled to non-zero cells.
                let (lo, hi) = clip(page, 0, size);
                let charged = lazy.raw_cells(lo as u64, hi - lo).unwrap().iter().any(|&b| b != 0);
                prop_assert_eq!(
                    cells.is_some(),
                    allocated[page] || (pending[page] && charged),
                    "page {}",
                    page
                );
            }
            prop_assert_eq!(lazy.raw_cells(0, size).unwrap(), eager.raw_cells(0, size).unwrap());
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
        let before = d.pages[3].clone();
        // `&self` readers hand out settled copies and leave the cells be.
        assert!(matches!(d.raw_cells(3 * PAGE_BYTES as u64, 8).unwrap(), Cow::Owned(_)));
        assert!(matches!(d.raw_cells(8, 8).unwrap(), Cow::Borrowed(_)));
        // Settled pages, but the range spans two of them.
        assert!(matches!(d.raw_cells(PAGE_BYTES as u64 - 4, 8).unwrap(), Cow::Owned(_)));
        assert_eq!(d.pages[3], before);
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
        assert_eq!(lazy.raw_cells(0, size).unwrap(), eager.raw_cells(0, size).unwrap());
    }

    #[test]
    fn pages_are_allocated_on_first_write() {
        let model = DramRemanenceModel::calibrated();
        let mut d = Dram::new(4 * PAGE_BYTES + 100);
        assert_eq!(d.allocated_pages(), 0, "a new DRAM allocates nothing");
        assert_eq!(d.read(0, d.len()).unwrap(), vec![0; d.len()]);
        // A full decay step: every charged cell decays, so the anti-cell
        // page 1 reads all ones although nothing was ever written there.
        let step = DecayStep::new(&model, INTERVALS[4], Temperature::ROOM, 5, 0).unwrap();
        d.queue_decay(step);
        let page1 = d.raw_cells(PAGE_BYTES as u64, PAGE_BYTES).unwrap();
        assert!(matches!(page1, Cow::Owned(_)));
        assert!(page1.iter().all(|&b| b == 0xFF));
        assert_eq!(d.raw_cells(0, 8).unwrap(), &[0; 8][..]);
        assert_eq!(d.allocated_pages(), 0, "reads allocate nothing");
        // A write allocates (and settles) just the pages it touches.
        d.write(3 * PAGE_BYTES as u64 + 10, &[7; 3]).unwrap();
        assert_eq!(d.allocated_pages(), 1);
        assert_eq!(
            d.raw_cells(3 * PAGE_BYTES as u64 + 8, 6).unwrap(),
            &[0xFF, 0xFF, 7, 7, 7, 0xFF][..]
        );
        let mut line = [0u8; 64];
        d.read_line(64, &mut line).unwrap();
        assert_eq!(d.allocated_pages(), 2, "a line fill allocates its page");
        // Pages 1, 2 and 4 still owe a step. A full settle allocates
        // only the anti-cell page 1, the one whose cells it charges.
        assert_eq!(d.settle_all(), 8 * PAGE_BYTES);
        assert_eq!(d.allocated_pages(), 3);
        assert!(d.pages[1].is_some() && d.pages[2].is_none() && d.pages[4].is_none());
        let mut fresh = Dram::new(4 * PAGE_BYTES);
        assert_eq!(fresh.settle_all(), 0);
        assert_eq!(fresh.allocated_pages(), 0, "nothing pending, nothing allocated");
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
