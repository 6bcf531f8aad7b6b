//! From-scratch AES-128/192/256 (FIPS-197).
//!
//! No lookup tables are hard-coded: the S-box is derived at first use
//! from its mathematical definition (multiplicative inverse in GF(2⁸)
//! followed by the affine transform), which doubles as a self-check of
//! the field arithmetic. The implementation favours clarity over speed —
//! it exists to give the attack a real key schedule to steal, and a real
//! decryption to prove the stolen key works.
//!
//! ```rust
//! use voltboot_crypto::aes::{Aes, AesKey};
//!
//! let key = AesKey::Aes128([0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
//!                           0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c]);
//! let aes = Aes::new(&key);
//! let pt = *b"theblockis16byte";
//! let ct = aes.encrypt_block(&pt);
//! assert_eq!(aes.decrypt_block(&ct), pt);
//! ```

use std::sync::OnceLock;

/// An AES key of any standard length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AesKey {
    /// 128-bit key (10 rounds).
    Aes128([u8; 16]),
    /// 192-bit key (12 rounds).
    Aes192([u8; 24]),
    /// 256-bit key (14 rounds).
    Aes256([u8; 32]),
}

impl AesKey {
    /// The raw key bytes.
    pub fn bytes(&self) -> &[u8] {
        match self {
            AesKey::Aes128(k) => k,
            AesKey::Aes192(k) => k,
            AesKey::Aes256(k) => k,
        }
    }

    /// Number of rounds for this key size.
    pub fn rounds(&self) -> usize {
        match self {
            AesKey::Aes128(_) => 10,
            AesKey::Aes192(_) => 12,
            AesKey::Aes256(_) => 14,
        }
    }

    /// Key length in 32-bit words (`Nk`).
    pub fn nk(&self) -> usize {
        self.bytes().len() / 4
    }
}

// ----------------------------------------------------------------------
// GF(2^8) arithmetic and derived tables
// ----------------------------------------------------------------------

/// Multiplies two elements of GF(2⁸) modulo the AES polynomial x⁸+x⁴+x³+x+1.
pub fn gf_mul(mut a: u8, mut b: u8) -> u8 {
    let mut p = 0u8;
    for _ in 0..8 {
        if b & 1 != 0 {
            p ^= a;
        }
        let hi = a & 0x80 != 0;
        a <<= 1;
        if hi {
            a ^= 0x1b;
        }
        b >>= 1;
    }
    p
}

/// Multiplicative inverse in GF(2⁸); `inv(0) = 0` by AES convention.
pub fn gf_inv(a: u8) -> u8 {
    if a == 0 {
        return 0;
    }
    // a^(2^8 - 2) = a^254 by square-and-multiply.
    let mut result = 1u8;
    let mut base = a;
    let mut exp = 254u32;
    while exp > 0 {
        if exp & 1 == 1 {
            result = gf_mul(result, base);
        }
        base = gf_mul(base, base);
        exp >>= 1;
    }
    result
}

fn affine(x: u8) -> u8 {
    x ^ x.rotate_left(1) ^ x.rotate_left(2) ^ x.rotate_left(3) ^ x.rotate_left(4) ^ 0x63
}

struct Tables {
    sbox: [u8; 256],
    inv_sbox: [u8; 256],
}

fn tables() -> &'static Tables {
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut sbox = [0u8; 256];
        let mut inv_sbox = [0u8; 256];
        #[allow(clippy::needless_range_loop)]
        for i in 0..256 {
            let s = affine(gf_inv(i as u8));
            sbox[i] = s;
            inv_sbox[s as usize] = i as u8;
        }
        Tables { sbox, inv_sbox }
    })
}

/// The AES S-box value for `x` (derived, not hard-coded).
pub fn sbox(x: u8) -> u8 {
    tables().sbox[x as usize]
}

/// The inverse S-box value for `x`.
pub fn inv_sbox(x: u8) -> u8 {
    tables().inv_sbox[x as usize]
}

// ----------------------------------------------------------------------
// Key schedule
// ----------------------------------------------------------------------

/// An expanded AES key schedule: `4 * (rounds + 1)` 32-bit words.
///
/// This is exactly the artifact on-chip crypto hides in registers or
/// locked cache, and exactly what the attack recovers. Its internal
/// redundancy (each word derives from earlier words) is what makes
/// schedule-shaped byte runs findable in memory images.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeySchedule {
    words: Vec<u32>,
    rounds: usize,
    nk: usize,
}

impl KeySchedule {
    /// Expands `key` per FIPS-197.
    pub fn expand(key: &AesKey) -> Self {
        let nk = key.nk();
        let rounds = key.rounds();
        let total = 4 * (rounds + 1);
        let mut w = Vec::with_capacity(total);
        for chunk in key.bytes().chunks_exact(4) {
            w.push(u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]));
        }
        let mut rcon: u8 = 1;
        for i in nk..total {
            let mut temp = w[i - 1];
            if i % nk == 0 {
                temp = sub_word(temp.rotate_left(8)) ^ ((rcon as u32) << 24);
                rcon = gf_mul(rcon, 2);
            } else if nk > 6 && i % nk == 4 {
                temp = sub_word(temp);
            }
            w.push(w[i - nk] ^ temp);
        }
        KeySchedule { words: w, rounds, nk }
    }

    /// Number of rounds.
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// The schedule's 32-bit words.
    pub fn words(&self) -> &[u32] {
        &self.words
    }

    /// The whole schedule as big-endian bytes (`16 * (rounds+1)`).
    pub fn to_bytes(&self) -> Vec<u8> {
        self.words.iter().flat_map(|w| w.to_be_bytes()).collect()
    }

    /// Rebuilds a schedule from bytes previously produced by
    /// [`KeySchedule::to_bytes`], if they form a *consistent* schedule.
    ///
    /// Returns `None` when the bytes do not satisfy the expansion
    /// recurrence — the check an attacker's key-search uses to recognize
    /// a schedule in a memory image.
    pub fn from_bytes(bytes: &[u8], nk: usize) -> Option<KeySchedule> {
        let rounds = match nk {
            4 => 10,
            6 => 12,
            8 => 14,
            _ => return None,
        };
        let total = 4 * (rounds + 1);
        if bytes.len() != total * 4 {
            return None;
        }
        let words: Vec<u32> =
            bytes.chunks_exact(4).map(|c| u32::from_be_bytes([c[0], c[1], c[2], c[3]])).collect();
        let candidate = KeySchedule { words, rounds, nk };
        candidate.is_consistent().then_some(candidate)
    }

    /// Whether the schedule satisfies the FIPS-197 recurrence.
    pub fn is_consistent(&self) -> bool {
        let mut rcon: u8 = 1;
        for i in self.nk..self.words.len() {
            let mut temp = self.words[i - 1];
            if i % self.nk == 0 {
                temp = sub_word(temp.rotate_left(8)) ^ ((rcon as u32) << 24);
                rcon = gf_mul(rcon, 2);
            } else if self.nk > 6 && i % self.nk == 4 {
                temp = sub_word(temp);
            }
            if self.words[i] != self.words[i - self.nk] ^ temp {
                return false;
            }
        }
        true
    }

    /// Recovers the original cipher key (the first `Nk` words).
    pub fn original_key(&self) -> AesKey {
        let bytes: Vec<u8> = self.words[..self.nk].iter().flat_map(|w| w.to_be_bytes()).collect();
        match self.nk {
            4 => AesKey::Aes128(bytes.try_into().expect("16 bytes")),
            6 => AesKey::Aes192(bytes.try_into().expect("24 bytes")),
            _ => AesKey::Aes256(bytes.try_into().expect("32 bytes")),
        }
    }

    fn round_key(&self, round: usize) -> [u8; 16] {
        let mut rk = [0u8; 16];
        for (c, w) in self.words[4 * round..4 * round + 4].iter().enumerate() {
            rk[4 * c..4 * c + 4].copy_from_slice(&w.to_be_bytes());
        }
        rk
    }
}

fn sub_word(w: u32) -> u32 {
    u32::from_be_bytes(w.to_be_bytes().map(sbox))
}

// ----------------------------------------------------------------------
// The block cipher
// ----------------------------------------------------------------------

/// An AES block cipher instance holding an expanded schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Aes {
    schedule: KeySchedule,
}

impl Aes {
    /// Expands `key` and returns a cipher.
    pub fn new(key: &AesKey) -> Self {
        Aes { schedule: KeySchedule::expand(key) }
    }

    /// Builds a cipher directly from a (recovered) schedule.
    pub fn from_schedule(schedule: KeySchedule) -> Self {
        Aes { schedule }
    }

    /// The expanded schedule.
    pub fn schedule(&self) -> &KeySchedule {
        &self.schedule
    }

    /// Encrypts one 16-byte block.
    pub fn encrypt_block(&self, block: &[u8; 16]) -> [u8; 16] {
        let mut s = to_state(block);
        add_round_key(&mut s, &self.schedule.round_key(0));
        for round in 1..self.schedule.rounds() {
            sub_bytes(&mut s);
            shift_rows(&mut s);
            mix_columns(&mut s);
            add_round_key(&mut s, &self.schedule.round_key(round));
        }
        sub_bytes(&mut s);
        shift_rows(&mut s);
        add_round_key(&mut s, &self.schedule.round_key(self.schedule.rounds()));
        from_state(&s)
    }

    /// Decrypts one 16-byte block.
    pub fn decrypt_block(&self, block: &[u8; 16]) -> [u8; 16] {
        let mut s = to_state(block);
        add_round_key(&mut s, &self.schedule.round_key(self.schedule.rounds()));
        for round in (1..self.schedule.rounds()).rev() {
            inv_shift_rows(&mut s);
            inv_sub_bytes(&mut s);
            add_round_key(&mut s, &self.schedule.round_key(round));
            inv_mix_columns(&mut s);
        }
        inv_shift_rows(&mut s);
        inv_sub_bytes(&mut s);
        add_round_key(&mut s, &self.schedule.round_key(0));
        from_state(&s)
    }

    /// Encrypts a buffer in CTR mode with a 16-byte nonce/IV. CTR makes
    /// encryption and decryption the same operation.
    pub fn ctr_process(&self, iv: &[u8; 16], data: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(data.len());
        let mut counter = u128::from_be_bytes(*iv);
        for chunk in data.chunks(16) {
            let keystream = self.encrypt_block(&counter.to_be_bytes());
            out.extend(chunk.iter().zip(keystream.iter()).map(|(d, k)| d ^ k));
            counter = counter.wrapping_add(1);
        }
        out
    }
}

// State is column-major: s[r][c] = byte r + 4c of the block.
type State = [[u8; 4]; 4];

fn to_state(block: &[u8; 16]) -> State {
    let mut s = [[0u8; 4]; 4];
    for (i, &b) in block.iter().enumerate() {
        s[i % 4][i / 4] = b;
    }
    s
}

fn from_state(s: &State) -> [u8; 16] {
    let mut out = [0u8; 16];
    for (i, b) in out.iter_mut().enumerate() {
        *b = s[i % 4][i / 4];
    }
    out
}

fn add_round_key(s: &mut State, rk: &[u8; 16]) {
    for c in 0..4 {
        for r in 0..4 {
            s[r][c] ^= rk[4 * c + r];
        }
    }
}

fn sub_bytes(s: &mut State) {
    for row in s.iter_mut() {
        for b in row.iter_mut() {
            *b = sbox(*b);
        }
    }
}

fn inv_sub_bytes(s: &mut State) {
    for row in s.iter_mut() {
        for b in row.iter_mut() {
            *b = inv_sbox(*b);
        }
    }
}

fn shift_rows(s: &mut State) {
    for (r, row) in s.iter_mut().enumerate().skip(1) {
        row.rotate_left(r);
    }
}

fn inv_shift_rows(s: &mut State) {
    for (r, row) in s.iter_mut().enumerate().skip(1) {
        row.rotate_right(r);
    }
}

#[allow(clippy::needless_range_loop)]
fn mix_columns(s: &mut State) {
    for c in 0..4 {
        let col = [s[0][c], s[1][c], s[2][c], s[3][c]];
        s[0][c] = gf_mul(col[0], 2) ^ gf_mul(col[1], 3) ^ col[2] ^ col[3];
        s[1][c] = col[0] ^ gf_mul(col[1], 2) ^ gf_mul(col[2], 3) ^ col[3];
        s[2][c] = col[0] ^ col[1] ^ gf_mul(col[2], 2) ^ gf_mul(col[3], 3);
        s[3][c] = gf_mul(col[0], 3) ^ col[1] ^ col[2] ^ gf_mul(col[3], 2);
    }
}

#[allow(clippy::needless_range_loop)]
fn inv_mix_columns(s: &mut State) {
    for c in 0..4 {
        let col = [s[0][c], s[1][c], s[2][c], s[3][c]];
        s[0][c] = gf_mul(col[0], 14) ^ gf_mul(col[1], 11) ^ gf_mul(col[2], 13) ^ gf_mul(col[3], 9);
        s[1][c] = gf_mul(col[0], 9) ^ gf_mul(col[1], 14) ^ gf_mul(col[2], 11) ^ gf_mul(col[3], 13);
        s[2][c] = gf_mul(col[0], 13) ^ gf_mul(col[1], 9) ^ gf_mul(col[2], 14) ^ gf_mul(col[3], 11);
        s[3][c] = gf_mul(col[0], 11) ^ gf_mul(col[1], 13) ^ gf_mul(col[2], 9) ^ gf_mul(col[3], 14);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sbox_spot_values() {
        // Published FIPS-197 S-box corners.
        assert_eq!(sbox(0x00), 0x63);
        assert_eq!(sbox(0x01), 0x7c);
        assert_eq!(sbox(0x53), 0xed);
        assert_eq!(sbox(0xff), 0x16);
        assert_eq!(inv_sbox(0x63), 0x00);
    }

    #[test]
    fn sbox_is_a_bijection() {
        let mut seen = [false; 256];
        for i in 0..=255u8 {
            let s = sbox(i);
            assert!(!seen[s as usize]);
            seen[s as usize] = true;
            assert_eq!(inv_sbox(s), i);
        }
    }

    #[test]
    fn gf_mul_basics() {
        assert_eq!(gf_mul(0x57, 0x13), 0xfe); // FIPS-197 worked example
        assert_eq!(gf_mul(1, 0xab), 0xab);
        assert_eq!(gf_mul(0, 0xab), 0);
    }

    #[test]
    fn gf_inv_is_an_inverse() {
        for a in 1..=255u8 {
            assert_eq!(gf_mul(a, gf_inv(a)), 1, "inverse of {a:#x}");
        }
        assert_eq!(gf_inv(0), 0);
    }

    #[test]
    fn fips197_aes128_vector() {
        // FIPS-197 Appendix C.1.
        let key = AesKey::Aes128([
            0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d,
            0x0e, 0x0f,
        ]);
        let pt = [
            0x00u8, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd,
            0xee, 0xff,
        ];
        let expected = [
            0x69u8, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30, 0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4,
            0xc5, 0x5a,
        ];
        let aes = Aes::new(&key);
        assert_eq!(aes.encrypt_block(&pt), expected);
        assert_eq!(aes.decrypt_block(&expected), pt);
    }

    #[test]
    fn fips197_aes192_vector() {
        // FIPS-197 Appendix C.2.
        let key = AesKey::Aes192([
            0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d,
            0x0e, 0x0f, 0x10, 0x11, 0x12, 0x13, 0x14, 0x15, 0x16, 0x17,
        ]);
        let pt = [
            0x00u8, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd,
            0xee, 0xff,
        ];
        let expected = [
            0xddu8, 0xa9, 0x7c, 0xa4, 0x86, 0x4c, 0xdf, 0xe0, 0x6e, 0xaf, 0x70, 0xa0, 0xec, 0x0d,
            0x71, 0x91,
        ];
        let aes = Aes::new(&key);
        assert_eq!(aes.encrypt_block(&pt), expected);
        assert_eq!(aes.decrypt_block(&expected), pt);
    }

    #[test]
    fn fips197_aes256_vector() {
        // FIPS-197 Appendix C.3.
        let key = AesKey::Aes256([
            0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d,
            0x0e, 0x0f, 0x10, 0x11, 0x12, 0x13, 0x14, 0x15, 0x16, 0x17, 0x18, 0x19, 0x1a, 0x1b,
            0x1c, 0x1d, 0x1e, 0x1f,
        ]);
        let pt = [
            0x00u8, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd,
            0xee, 0xff,
        ];
        let expected = [
            0x8eu8, 0xa2, 0xb7, 0xca, 0x51, 0x67, 0x45, 0xbf, 0xea, 0xfc, 0x49, 0x90, 0x4b, 0x49,
            0x60, 0x89,
        ];
        let aes = Aes::new(&key);
        assert_eq!(aes.encrypt_block(&pt), expected);
        assert_eq!(aes.decrypt_block(&expected), pt);
    }

    #[test]
    fn key_schedule_first_words_match_fips_example() {
        // FIPS-197 Appendix A.1 key expansion example.
        let key = AesKey::Aes128([
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
            0x4f, 0x3c,
        ]);
        let ks = KeySchedule::expand(&key);
        assert_eq!(ks.words()[4], 0xa0fafe17);
        assert_eq!(ks.words()[5], 0x88542cb1);
        assert_eq!(ks.words()[43], 0xb6630ca6);
    }

    #[test]
    fn schedule_roundtrip_and_consistency() {
        let key = AesKey::Aes128(*b"0123456789abcdef");
        let ks = KeySchedule::expand(&key);
        assert!(ks.is_consistent());
        let back = KeySchedule::from_bytes(&ks.to_bytes(), 4).expect("valid schedule");
        assert_eq!(back, ks);
        assert_eq!(back.original_key(), key);
    }

    #[test]
    fn corrupted_schedule_is_inconsistent() {
        let ks = KeySchedule::expand(&AesKey::Aes128([7; 16]));
        let mut bytes = ks.to_bytes();
        bytes[20] ^= 1;
        assert!(KeySchedule::from_bytes(&bytes, 4).is_none());
    }

    #[test]
    fn ctr_mode_roundtrips() {
        let aes = Aes::new(&AesKey::Aes256([9; 32]));
        let iv = [0x42; 16];
        let msg = b"counter mode handles arbitrary-length messages".to_vec();
        let ct = aes.ctr_process(&iv, &msg);
        assert_ne!(ct, msg);
        assert_eq!(aes.ctr_process(&iv, &ct), msg);
    }

    #[test]
    fn encrypt_decrypt_roundtrip_many_keys() {
        for i in 0..32u8 {
            let key = AesKey::Aes128([i; 16]);
            let aes = Aes::new(&key);
            let pt = [i.wrapping_mul(3); 16];
            assert_eq!(aes.decrypt_block(&aes.encrypt_block(&pt)), pt);
        }
    }
}
