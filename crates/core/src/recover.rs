//! Readout recovery: integrity checksums, per-bit majority voting, and
//! confidence accounting for multi-pass extraction.
//!
//! The paper's extraction is 100%-accurate because the probe never lets
//! the SRAM leave retention and `RAMINDEX` reads are digital. A real
//! bench is noisier: marginal debug clocks flip bits and flaky ports
//! drop whole passes. This module supplies the three pieces the attack
//! uses to win that accuracy back:
//!
//! * a dependency-free **CRC-64** ([`crc64`]) sealed into every
//!   [`crate::attack::ExtractedImage`] at readout and re-verified at
//!   analysis/report time, so silent corruption between extraction and
//!   reporting surfaces as a typed [`IntegrityError`] instead of a
//!   wrong table entry, and sealed into every campaign checkpoint and
//!   daemon journal line by one pair, [`seal`] and [`unseal`];
//! * per-bit **majority voting** across repeated readout passes
//!   ([`vote`]), with dropped-out passes treated as *erasures* (absent
//!   votes) rather than all-zero reads;
//! * a per-image [`ConfidenceMap`] classifying every bit as unanimous,
//!   repaired (disagreement resolved by strict majority), or unresolved
//!   (tied vote, first pass kept) — the campaign report's repair
//!   accounting.

use voltboot_sram::PackedBits;
use voltboot_telemetry::json;

/// Maximum voting passes [`vote`] accepts (the per-bit counters are
/// four planes wide).
pub const MAX_PASSES: u32 = 15;

// ----------------------------------------------------------------------
// CRC-64
// ----------------------------------------------------------------------

/// The slice-by-8 lookup tables: `TABLES[0]` is the classic byte-at-a-
/// time table; `TABLES[j][i]` advances the CRC by `j` further zero bytes,
/// so eight table reads consume a whole aligned `u64` per step.
static TABLES: [[u64; 256]; 8] = crc64_tables();

/// CRC-64/XZ (reflected, polynomial `0x42F0E1EBA9EA3693`, init and
/// xorout all-ones) — the variant `xz` and `liblzma` use, implemented
/// slice-by-8 with const-fn-generated tables and no dependencies.
/// Digests are identical to the byte-at-a-time reference
/// ([`crc64_bytewise`]) at every input length.
pub fn crc64(bytes: &[u8]) -> u64 {
    let mut crc = !0u64;
    let mut chunks = bytes.chunks_exact(8);
    for c in chunks.by_ref() {
        crc = step_word(crc, u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
    }
    for &b in chunks.remainder() {
        crc = step_byte(crc, b);
    }
    !crc
}

/// The byte-at-a-time reference implementation of [`crc64`] — same
/// polynomial, same parameters, one table read per byte. Kept as the
/// oracle the slice-by-8 path is tested against.
pub fn crc64_bytewise(bytes: &[u8]) -> u64 {
    let mut crc = !0u64;
    for &b in bytes {
        crc = step_byte(crc, b);
    }
    !crc
}

/// Advances `crc` by one input byte.
#[inline]
fn step_byte(crc: u64, b: u8) -> u64 {
    TABLES[0][((crc ^ u64::from(b)) & 0xFF) as usize] ^ (crc >> 8)
}

/// Advances `crc` by eight input bytes packed little-endian into `w`.
#[inline]
fn step_word(crc: u64, w: u64) -> u64 {
    let x = crc ^ w;
    TABLES[7][(x & 0xFF) as usize]
        ^ TABLES[6][((x >> 8) & 0xFF) as usize]
        ^ TABLES[5][((x >> 16) & 0xFF) as usize]
        ^ TABLES[4][((x >> 24) & 0xFF) as usize]
        ^ TABLES[3][((x >> 32) & 0xFF) as usize]
        ^ TABLES[2][((x >> 40) & 0xFF) as usize]
        ^ TABLES[1][((x >> 48) & 0xFF) as usize]
        ^ TABLES[0][((x >> 56) & 0xFF) as usize]
}

const fn crc64_tables() -> [[u64; 256]; 8] {
    // Reflected form of polynomial 0x42F0E1EBA9EA3693.
    const POLY: u64 = 0xC96C_5795_D787_0F42;
    let mut tables = [[0u64; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u64;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 == 1 { (crc >> 1) ^ POLY } else { crc >> 1 };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut j = 1;
        let mut crc = tables[0][i];
        while j < 8 {
            crc = tables[0][(crc & 0xFF) as usize] ^ (crc >> 8);
            tables[j][i] = crc;
            j += 1;
        }
        i += 1;
    }
    tables
}

/// [`crc64`] over a packed bit image's byte representation, computed
/// directly from the backing `u64` words — no intermediate byte buffer.
/// A word's little-endian bytes are exactly the image's byte view at
/// that offset (and tail bits beyond the length are zero by invariant),
/// so this equals `crc64(&bits.to_bytes())` without materialising the
/// copy on every seal and cross-check.
pub fn crc64_bits(bits: &PackedBits) -> u64 {
    let nbytes = bits.len().div_ceil(8);
    let words = bits.words();
    let full_words = nbytes / 8;
    let mut crc = !0u64;
    for &w in &words[..full_words] {
        crc = step_word(crc, w);
    }
    let tail_bytes = nbytes % 8;
    if tail_bytes > 0 {
        let last = words[full_words].to_le_bytes();
        for &b in &last[..tail_bytes] {
            crc = step_byte(crc, b);
        }
    }
    !crc
}

/// Seals a JSON object as campaign checkpoints and journal lines are
/// sealed: a trailing `crc64` key holds the [`crc64`] of the compact
/// rendering of every preceding key.
pub fn seal(pairs: Vec<(&str, json::Value)>) -> json::Value {
    let payload = json::Value::object(pairs);
    let crc = crc64(payload.render().as_bytes());
    let json::Value::Object(mut pairs) = payload else { unreachable!("payload is an object") };
    pairs.push(("crc64".to_string(), json::Value::from(crc)));
    json::Value::Object(pairs)
}

/// Checks a document [`seal`] produced and returns its payload, the
/// object without its `crc64` key.
///
/// # Errors
///
/// What is wrong, when `doc` is not an object, carries no `crc64` key,
/// or its payload does not hash to the sealed value.
pub fn unseal(doc: json::Value) -> Result<json::Value, String> {
    let json::Value::Object(mut pairs) = doc else {
        return Err("not a JSON object".to_string());
    };
    let mut sealed = None;
    pairs.retain(|(k, v)| {
        let seal = k == "crc64";
        if seal {
            sealed = v.as_u64();
        }
        !seal
    });
    let sealed = sealed.ok_or("missing its crc64 seal")?;
    let payload = json::Value::Object(pairs);
    let actual = crc64(payload.render().as_bytes());
    if actual != sealed {
        return Err(format!(
            "checksum mismatch: sealed {sealed:#018x}, payload hashes to {actual:#018x}"
        ));
    }
    Ok(payload)
}

// ----------------------------------------------------------------------
// Integrity errors
// ----------------------------------------------------------------------

/// A detected integrity violation — a checksum that no longer matches
/// its data, or a vote that cannot be taken.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IntegrityError {
    /// An image's bits no longer hash to the CRC sealed at readout.
    CrcMismatch {
        /// The image's source label.
        source: String,
        /// The CRC sealed at readout time.
        sealed: u64,
        /// The CRC the bits hash to now.
        actual: u64,
    },
    /// Every pass of a vote was an erasure: nothing to resolve.
    AllPassesErased,
    /// Voting passes disagree on image length.
    LengthMismatch {
        /// Bits in the first available pass.
        expected: usize,
        /// Bits in the mismatching pass.
        actual: usize,
    },
    /// More passes than the vote counters support.
    TooManyPasses {
        /// Requested pass count.
        requested: usize,
    },
    /// A checkpoint or report failed structural validation.
    Malformed {
        /// What was wrong.
        detail: String,
    },
}

impl std::fmt::Display for IntegrityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IntegrityError::CrcMismatch { source, sealed, actual } => write!(
                f,
                "integrity violation: image {source} sealed crc64 {sealed:#018x} but bits hash \
                 to {actual:#018x}"
            ),
            IntegrityError::AllPassesErased => {
                write!(f, "integrity violation: every readout pass was erased")
            }
            IntegrityError::LengthMismatch { expected, actual } => write!(
                f,
                "integrity violation: voting passes disagree on length ({expected} vs {actual} \
                 bits)"
            ),
            IntegrityError::TooManyPasses { requested } => {
                write!(
                    f,
                    "integrity violation: {requested} passes exceeds the supported {MAX_PASSES}"
                )
            }
            IntegrityError::Malformed { detail } => {
                write!(f, "integrity violation: {detail}")
            }
        }
    }
}

impl std::error::Error for IntegrityError {}

// ----------------------------------------------------------------------
// Confidence accounting
// ----------------------------------------------------------------------

/// Per-image bit-confidence classification produced by [`vote`]: every
/// bit of the resolved image is exactly one of unanimous, repaired, or
/// unresolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ConfidenceMap {
    /// Bits in the image.
    pub total_bits: u64,
    /// Bits every available pass agreed on.
    pub unanimous: u64,
    /// Bits where passes disagreed and a strict majority resolved the
    /// value.
    pub repaired: u64,
    /// Bits where the vote tied (possible when erasures leave an even
    /// number of votes); the first available pass's value is kept.
    pub unresolved: u64,
    /// Passes that actually voted (erasures excluded).
    pub votes: u32,
}

impl ConfidenceMap {
    /// Merges another map into this one (campaign-level aggregation).
    pub fn absorb(&mut self, other: &ConfidenceMap) {
        self.total_bits += other.total_bits;
        self.unanimous += other.unanimous;
        self.repaired += other.repaired;
        self.unresolved += other.unresolved;
        self.votes = self.votes.max(other.votes);
    }
}

// ----------------------------------------------------------------------
// Majority voting
// ----------------------------------------------------------------------

/// Resolves repeated readout passes of one image into a single image by
/// per-bit majority vote.
///
/// `passes[i] = None` marks pass `i` as an *erasure* (the debug port
/// dropped out for that pass): it contributes no votes, unlike an
/// all-zero read which would vote 0 on every bit. Ties — only possible
/// when erasures leave an even number of votes — keep the first
/// available pass's value and count as unresolved. A single available
/// pass resolves to itself with every bit unanimous (`votes = 1`; the
/// caller can see from `votes` how much cross-checking backs the
/// image).
///
/// Voting over identical passes is the identity: the resolved image
/// equals the input and every bit is unanimous.
///
/// # Errors
///
/// [`IntegrityError::AllPassesErased`] when no pass is available,
/// [`IntegrityError::LengthMismatch`] when available passes disagree on
/// length, [`IntegrityError::TooManyPasses`] beyond [`MAX_PASSES`].
pub fn vote(passes: &[Option<&PackedBits>]) -> Result<(PackedBits, ConfidenceMap), IntegrityError> {
    if passes.len() > MAX_PASSES as usize {
        return Err(IntegrityError::TooManyPasses { requested: passes.len() });
    }
    let first_at =
        passes.iter().position(|p| p.is_some()).ok_or(IntegrityError::AllPassesErased)?;
    let mut resolved = passes[first_at].expect("position() found it").clone();
    let (conf, _crc) = vote_into(&mut resolved, &passes[first_at + 1..])?;
    Ok((resolved, conf))
}

/// [`vote`] over a reusable pass slice, additionally returning the
/// [`crc64_bits`] seal of the resolved image. Semantics (erasures,
/// ties, errors, confidence accounting) are identical to [`vote`], but
/// it takes the first available pass *out* of `passes` (its slot
/// becomes `None`) and resolves *into* it instead of cloning it, and
/// votes the remaining entries in place, leaving them behind for the
/// caller to recycle. This is the steady-state entry point for
/// campaign-scale voted readout: the caller keeps one
/// `Vec<Option<PackedBits>>` alive across readout units, refills it
/// each unit, and returns the leftover pass buffers to the
/// [rep arena](voltboot_sram::par) — nothing in the loop allocates once
/// the arena is warm.
///
/// The CRC is accumulated *inside* the vote's word loop, from the
/// resolved words as they are written — the majority planes, the
/// confidence counters, and the integrity seal all ride one pass over
/// the image instead of the vote being followed by a second full sweep
/// just to checksum its output.
///
/// # Errors
///
/// Same classes as [`vote`]; on error `passes` keeps all its entries
/// except the first available one, which a length-mismatch error has
/// already consumed into the failed resolution attempt.
pub fn vote_sealed_draining(
    passes: &mut [Option<PackedBits>],
) -> Result<(PackedBits, ConfidenceMap, u64), IntegrityError> {
    if passes.len() > MAX_PASSES as usize {
        return Err(IntegrityError::TooManyPasses { requested: passes.len() });
    }
    let first_at =
        passes.iter().position(|p| p.is_some()).ok_or(IntegrityError::AllPassesErased)?;
    let mut resolved = passes[first_at].take().expect("position() found it");
    // Stack-buffered reference slice (no per-vote allocation): at most
    // MAX_PASSES - 1 passes can follow the first available one.
    let mut rest: [Option<&PackedBits>; (MAX_PASSES - 1) as usize] = [None; 14];
    for (slot, p) in rest.iter_mut().zip(&passes[first_at + 1..]) {
        *slot = p.as_ref();
    }
    let (conf, crc) = vote_into(&mut resolved, &rest)?;
    Ok((resolved, conf, crc))
}

/// Shared voting core: resolves `resolved` (the first available pass,
/// also the tie-breaking reference) against the `rest` of the available
/// passes in place — `None` entries are erasures and contribute no
/// votes — returning the confidence accounting and the [`crc64_bits`]
/// seal of the resolved image (fused into the same word loop). Pass
/// counts are already dealt with by the callers; `resolved` counts as
/// one vote.
fn vote_into(
    resolved: &mut PackedBits,
    rest: &[Option<&PackedBits>],
) -> Result<(ConfidenceMap, u64), IntegrityError> {
    for p in rest.iter().flatten() {
        if p.len() != resolved.len() {
            return Err(IntegrityError::LengthMismatch {
                expected: resolved.len(),
                actual: p.len(),
            });
        }
    }

    let k = rest.iter().flatten().count() + 1;
    let mut conf = ConfidenceMap {
        total_bits: resolved.len() as u64,
        votes: k as u32,
        ..ConfidenceMap::default()
    };
    if k == 1 {
        conf.unanimous = conf.total_bits;
        return Ok((conf, crc64_bits(resolved)));
    }

    // The CRC seal of the resolved image accumulates alongside the
    // vote: full words step the slice-by-8 CRC directly, the final
    // partial word (if the byte length is not word-aligned) steps its
    // live bytes — exactly the [`crc64_bits`] traversal.
    let nbytes = resolved.len().div_ceil(8);
    let full_words = nbytes / 8;
    let mut crc = !0u64;

    // Word-parallel resolution: per-bit vote counts are kept in four
    // binary "planes" (plane j holds bit j of every count), added with
    // a ripple carry — 64 bits vote at once per word.
    let majority_threshold = (k / 2) as u64; // strict majority = count > threshold
    let ties_possible = k.is_multiple_of(2);
    for w in 0..resolved.word_len() {
        let valid = resolved.valid_mask(w);
        let refw = resolved.words()[w];
        let mut planes = [0u64; 4];
        let mut all_and = !0u64;
        let mut all_or = 0u64;
        for x in std::iter::once(refw).chain(rest.iter().flatten().map(|p| p.words()[w])) {
            all_and &= x;
            all_or |= x;
            let mut carry = x;
            for plane in &mut planes {
                let sum = *plane ^ carry;
                carry &= *plane;
                *plane = sum;
            }
        }
        // Bit-sliced comparison of the 4-bit counts to the threshold:
        // gt = count > threshold, eq = count == threshold.
        let mut gt = 0u64;
        let mut eq = !0u64;
        for j in (0..4).rev() {
            let t = if (majority_threshold >> j) & 1 == 1 { !0u64 } else { 0u64 };
            gt |= eq & planes[j] & !t;
            eq &= !(planes[j] ^ t);
        }
        let unanimous = !(all_or ^ all_and) & valid;
        let tie = if ties_possible { eq & valid & !unanimous } else { 0 };
        let repaired = valid & !unanimous & !tie;
        // Majority-one bits set; tied bits keep the reference pass.
        let out = (gt | (tie & refw)) & valid;
        resolved.words_mut()[w] = out;
        if w < full_words {
            crc = step_word(crc, out);
        } else {
            for &b in &out.to_le_bytes()[..nbytes % 8] {
                crc = step_byte(crc, b);
            }
        }
        conf.unanimous += unanimous.count_ones() as u64;
        conf.unresolved += tie.count_ones() as u64;
        conf.repaired += repaired.count_ones() as u64;
    }
    Ok((conf, !crc))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc64_matches_known_vectors() {
        // CRC-64/XZ check value for "123456789".
        assert_eq!(crc64(b"123456789"), 0x995D_C9BB_DF19_39FA);
        assert_eq!(crc64(b""), 0);
        assert_ne!(crc64(b"a"), crc64(b"b"));
    }

    #[test]
    fn slice_by_8_matches_bytewise_reference() {
        // Deterministic pseudo-random bytes (splitmix64 stream).
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) as u8
        };
        // Boundary lengths around the 8-byte slicing granule, plus
        // larger odd sizes.
        for len in [0usize, 1, 7, 8, 9, 15, 16, 17, 63, 64, 65, 255, 1021, 4096] {
            let data: Vec<u8> = (0..len).map(|_| next()).collect();
            assert_eq!(
                crc64(&data),
                crc64_bytewise(&data),
                "slice-by-8 and byte-at-a-time must agree at length {len}"
            );
        }
    }

    #[test]
    fn crc64_bits_equals_crc64_of_byte_view() {
        // Bit lengths straddling byte and word boundaries, including a
        // partial tail byte.
        for len in [1usize, 7, 8, 9, 63, 64, 65, 127, 128, 130, 1000, 4099] {
            let mut bits = PackedBits::zeros(len);
            for i in (0..len).step_by(3) {
                bits.set(i, true);
            }
            assert_eq!(
                crc64_bits(&bits),
                crc64(&bits.to_bytes()),
                "word-wise crc must match the byte-view crc at {len} bits"
            );
        }
    }

    #[test]
    fn crc64_bits_tracks_mutation() {
        let mut bits = PackedBits::from_bytes(&[0xAB; 64]);
        let sealed = crc64_bits(&bits);
        assert_eq!(sealed, crc64_bits(&bits), "stable on unchanged data");
        bits.set(17, !bits.get(17));
        assert_ne!(sealed, crc64_bits(&bits), "single-bit corruption must change the crc");
    }

    fn bits_of(pattern: &[bool]) -> PackedBits {
        let mut b = PackedBits::zeros(pattern.len());
        for (i, &v) in pattern.iter().enumerate() {
            b.set(i, v);
        }
        b
    }

    #[test]
    fn voting_identical_passes_is_identity() {
        let img = PackedBits::from_bytes(&[0x5A, 0xC3, 0xFF, 0x00, 0x17]);
        let (resolved, conf) = vote(&[Some(&img), Some(&img), Some(&img)]).unwrap();
        assert_eq!(resolved, img);
        assert_eq!(conf.unanimous, img.len() as u64);
        assert_eq!(conf.repaired, 0);
        assert_eq!(conf.unresolved, 0);
        assert_eq!(conf.votes, 3);
    }

    #[test]
    fn majority_repairs_minority_flips() {
        let good = bits_of(&[true, false, true, false, true]);
        let mut bad = good.clone();
        bad.set(0, false);
        bad.set(3, true);
        let (resolved, conf) = vote(&[Some(&bad), Some(&good), Some(&good)]).unwrap();
        assert_eq!(resolved, good, "two good passes outvote one bad one");
        assert_eq!(conf.repaired, 2);
        assert_eq!(conf.unanimous, 3);
        assert_eq!(conf.unresolved, 0);
    }

    #[test]
    fn erasures_are_not_votes() {
        let good = bits_of(&[true, true, false, false]);
        let mut bad = good.clone();
        bad.set(1, false);
        // With the erasure counted as an all-zero vote, bit 1 would tie
        // 1-1 after the bad pass flips it; as an erasure, the two real
        // passes resolve it 1-1... so this MUST tie — and keep pass 0.
        let (resolved, conf) = vote(&[Some(&good), Some(&bad), None]).unwrap();
        assert_eq!(conf.votes, 2);
        assert_eq!(conf.unresolved, 1, "even vote counts can tie");
        assert!(resolved.get(1), "ties keep the first available pass's value");
        assert_eq!(conf.unanimous, 3);
    }

    #[test]
    fn single_available_pass_resolves_to_itself() {
        let img = bits_of(&[true, false, true]);
        let (resolved, conf) = vote(&[None, Some(&img), None]).unwrap();
        assert_eq!(resolved, img);
        assert_eq!(conf.votes, 1);
        assert_eq!(conf.unanimous, 3);
    }

    #[test]
    fn all_erased_is_an_error() {
        assert_eq!(vote(&[None, None]).unwrap_err(), IntegrityError::AllPassesErased);
    }

    #[test]
    fn length_mismatch_is_an_error() {
        let a = PackedBits::zeros(8);
        let b = PackedBits::zeros(16);
        assert!(matches!(
            vote(&[Some(&a), Some(&b)]).unwrap_err(),
            IntegrityError::LengthMismatch { expected: 8, actual: 16 }
        ));
    }

    #[test]
    fn too_many_passes_rejected() {
        let img = PackedBits::zeros(4);
        let passes: Vec<Option<&PackedBits>> = vec![Some(&img); 16];
        assert!(matches!(vote(&passes), Err(IntegrityError::TooManyPasses { requested: 16 })));
    }

    #[test]
    fn five_way_vote_with_two_erasures() {
        // 3 real votes across 5 passes: strict majority of 3, no ties.
        let a = bits_of(&[true, true, false, false, true, false, true, true]);
        let mut b = a.clone();
        b.set(4, false);
        let mut c = a.clone();
        c.set(7, false);
        let (resolved, conf) = vote(&[None, Some(&a), Some(&b), None, Some(&c)]).unwrap();
        assert_eq!(resolved, a);
        assert_eq!(conf.votes, 3);
        assert_eq!(conf.repaired, 2);
        assert_eq!(conf.unresolved, 0);
        assert_eq!(conf.unanimous, 6);
    }

    #[test]
    fn vote_spans_word_boundaries() {
        // 130 bits: exercises full words plus a 2-bit tail and the
        // valid-mask handling.
        let mut good = PackedBits::zeros(130);
        for i in (0..130).step_by(3) {
            good.set(i, true);
        }
        let mut bad = good.clone();
        for i in [0, 63, 64, 129] {
            bad.set(i, !bad.get(i));
        }
        let (resolved, conf) = vote(&[Some(&bad), Some(&good), Some(&good)]).unwrap();
        assert_eq!(resolved, good);
        assert_eq!(conf.repaired, 4);
        assert_eq!(conf.total_bits, 130);
        assert_eq!(conf.unanimous + conf.repaired + conf.unresolved, 130);
    }

    #[test]
    fn sealed_vote_crc_matches_post_hoc_seal() {
        // The CRC fused into the vote loop must equal crc64_bits of the
        // resolved image, across word-boundary and tail-byte lengths
        // (including the k == 1 single-pass path).
        for len in [1usize, 7, 8, 60, 64, 65, 100, 128, 130, 255, 257] {
            let mut good = PackedBits::zeros(len);
            for i in (0..len).step_by(3) {
                good.set(i, true);
            }
            let mut bad = good.clone();
            bad.set(len / 2, !bad.get(len / 2));
            let mut passes = [Some(bad), Some(good.clone()), Some(good.clone())];
            let (resolved, conf, crc) = vote_sealed_draining(&mut passes).unwrap();
            assert_eq!(resolved, good, "len {len}");
            assert_eq!(crc, crc64_bits(&resolved), "fused seal must match, len {len}");
            assert_eq!(conf.votes, 3);
            let (single, single_conf, single_crc) =
                vote_sealed_draining(&mut [None, Some(good.clone())]).unwrap();
            assert_eq!(single_crc, crc64_bits(&single), "single-pass seal, len {len}");
            assert_eq!(single_conf.unanimous, len as u64);
        }
    }

    #[test]
    fn draining_vote_consumes_only_the_first_available_pass() {
        let good = bits_of(&[true, false, true, true, false, false, true, false, true]);
        let mut bad = good.clone();
        bad.set(2, false);
        let mut passes = vec![None, Some(bad.clone()), Some(good.clone()), Some(good.clone())];
        let (want, want_conf) = vote(&[None, Some(&bad), Some(&good), Some(&good)]).unwrap();
        let (resolved, conf, crc) = vote_sealed_draining(&mut passes).unwrap();
        assert_eq!(resolved, want);
        assert_eq!(conf, want_conf);
        assert_eq!(crc, crc64_bits(&resolved));
        // The first available slot was drained; the rest stay behind
        // for buffer recycling.
        assert!(passes[0].is_none() && passes[1].is_none());
        assert_eq!(passes[2].as_ref(), Some(&good));
        assert_eq!(passes[3].as_ref(), Some(&good));
    }

    #[test]
    fn vote_owned_rejects_the_same_degenerate_inputs() {
        assert_eq!(
            vote_sealed_draining(&mut [None, None]).unwrap_err(),
            IntegrityError::AllPassesErased
        );
        assert!(matches!(
            vote_sealed_draining(&mut [Some(PackedBits::zeros(8)), Some(PackedBits::zeros(16))])
                .unwrap_err(),
            IntegrityError::LengthMismatch { expected: 8, actual: 16 }
        ));
        let mut passes: Vec<Option<PackedBits>> = vec![Some(PackedBits::zeros(4)); 16];
        assert!(matches!(
            vote_sealed_draining(&mut passes),
            Err(IntegrityError::TooManyPasses { requested: 16 })
        ));
    }

    #[test]
    fn confidence_absorb_aggregates() {
        let mut a =
            ConfidenceMap { total_bits: 10, unanimous: 8, repaired: 1, unresolved: 1, votes: 3 };
        let b = ConfidenceMap { total_bits: 5, unanimous: 5, repaired: 0, unresolved: 0, votes: 1 };
        a.absorb(&b);
        assert_eq!(a.total_bits, 15);
        assert_eq!(a.unanimous, 13);
        assert_eq!(a.votes, 3);
    }
}
