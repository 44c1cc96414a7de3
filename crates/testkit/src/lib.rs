//! Test-only tooling for the workspace's suites; never a dependency of a
//! shipping crate. It holds the RTR lab and the mutation harness.
//!
//! **The RTR lab** simulates the channel `rpki_rtr` implements, so its
//! suites can drive a cache and a router over in-memory byte pipes:
//!
//! * [`session`] — the one in-memory session driver
//!   ([`session::LiveSession`]): a cache ↔ router pair joined through the
//!   fan-out core, following Cache Resets and version downgrades,
//!   counting what crossed the wire;
//! * [`faults`] — seeded, replayable fault injection
//!   ([`faults::FaultPlan`], spliced into the session's pipes) and the
//!   recovery loop around the same driver ([`faults::ChaosSession`]):
//!   capped backoff, Reset Query fallback, stale flushing, and the
//!   convergence-or-Stale invariant the chaos suite gates on.
//!
//! **The mutation harness** is the one every decoder of bytes the
//! workspace did not write runs through: DER ROAs, sealed envelopes, the
//! repository scan, dataset snapshots and RTR frames. A suite describes
//! its decoder as a [`Codec`], hands [`check`] valid encodings (seeds),
//! and the harness feeds the decoder every mutant of four operators
//! ([`Op`]):
//!
//! * **truncate** at every cut;
//! * **length-lie**: rewrite each caller-named length [`Field`] with
//!   boundary values (zero, one, off-by-one, the DER form bytes `0x80`,
//!   `0x81`, `0x89`, half and all ones) and one random value;
//! * **byte-flip**: XOR one to three random bytes with a non-zero mask;
//! * **splice**: replace up to eight bytes at a random offset with up to
//!   sixteen random ones.
//!
//! Every input, seed included, must meet the decoder's contract:
//!
//! * **no panic**;
//! * **no allocation sized by an unchecked length**: no single
//!   allocation during the decode exceeds
//!   [`ALLOC_PER_BYTE`]` × input length + `[`ALLOC_SLACK`], measured by
//!   [`CountingAlloc`], which the test binary must install;
//! * **canonical accept**: whatever is accepted re-encodes as its
//!   [`Canon`] demands.
//!
//! Random choices come from a `noise` word, so a suite drives the
//! harness from its property-test generator and a failure reproduces
//! from the seed and the noise alone.

pub mod alloc;
pub mod faults;
pub mod session;

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};

pub use alloc::CountingAlloc;

/// How an accepted input must re-encode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Canon {
    /// A binary object: `encode(decode(b)) == b`, byte for byte.
    Exact,
    /// A stream framer that leaves the rest of its buffer to the next
    /// frame: the accepted value re-encodes to a prefix of the input.
    Prefix,
    /// A text format that allows comments and spacing:
    /// `decode(encode(x))` succeeds and re-encodes to `encode(x)`.
    /// (Compared through the encoding, so IEEE NaN payloads compare by
    /// their bits.)
    Value,
}

/// A decoder of outside bytes and its canonical encoder.
pub trait Codec {
    /// What an accepted input decodes to.
    type Value;
    /// Why an input was rejected.
    type Error: fmt::Debug;
    /// The canonical-accept rule this decoder meets.
    const CANON: Canon;

    /// Decodes untrusted bytes.
    fn decode(&self, bytes: &[u8]) -> Result<Self::Value, Self::Error>;

    /// Encodes a value in the form [`Self::decode`] reads.
    fn encode(&self, value: &Self::Value) -> Vec<u8>;
}

/// A big-endian length field of a seed, which the length-lie operator
/// rewrites: `width` (1 to 8) bytes at offset `at`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Field {
    /// Offset of the field's first byte.
    pub at: usize,
    /// The field's width in bytes.
    pub width: usize,
}

/// The four mutation operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// A prefix of the seed.
    Truncate,
    /// One length field rewritten.
    LengthLie,
    /// One to three bytes XORed with a non-zero mask.
    Flip,
    /// A short range replaced with random bytes.
    Splice,
}

/// Random byte-flip inputs per seed, and as many splices.
pub const ROUNDS: usize = 16;

/// Bytes a decoder may allocate at once per input byte: a decoded value
/// may be larger than its encoding (a 5-byte text entry becomes a
/// 32-byte struct) and vectors grow by doubling.
pub const ALLOC_PER_BYTE: usize = 16;

/// Bytes a decoder may allocate at once whatever its input length.
pub const ALLOC_SLACK: usize = 4096;

/// Checks the seed and every mutant of it against `codec`'s contract,
/// panicking with the offending input on the first breach. The seed
/// itself must decode.
pub fn check<C: Codec>(codec: &C, seed: &[u8], lengths: &[Field], noise: u64) {
    alloc::assert_installed();
    assert!(verify(codec, seed), "the seed must decode: {}", Hex(seed));
    for_each_mutant(seed, lengths, noise, |_, input| {
        verify(codec, input);
    });
}

/// Checks one input against `codec`'s contract and reports whether the
/// decoder accepted it. Panics, naming the input, on a breach.
pub fn verify<C: Codec>(codec: &C, input: &[u8]) -> bool {
    let (outcome, largest) = match catch_unwind(AssertUnwindSafe(|| {
        alloc::largest_during(|| codec.decode(input))
    })) {
        Ok(measured) => measured,
        Err(_) => panic!("decoder panicked on {}", Hex(input)),
    };
    let bound = ALLOC_PER_BYTE * input.len() + ALLOC_SLACK;
    assert!(
        largest <= bound,
        "decoder allocated {largest} bytes at once (bound {bound}) on {}",
        Hex(input)
    );
    let Ok(value) = outcome else {
        return false;
    };
    let out = codec.encode(&value);
    let canonical = match C::CANON {
        Canon::Exact => out == input,
        Canon::Prefix => input.starts_with(&out),
        Canon::Value => match codec.decode(&out) {
            Ok(again) => codec.encode(&again) == out,
            Err(e) => panic!("re-decoding {} failed: {e:?}", Hex(&out)),
        },
    };
    assert!(
        canonical,
        "accepted {} but it re-encodes as {} ({:?})",
        Hex(input),
        Hex(&out),
        C::CANON
    );
    true
}

/// Calls `f` with every mutant of `seed`: each truncation, each length
/// lie on `lengths`, then [`ROUNDS`] byte flips and [`ROUNDS`] splices
/// drawn from `noise`.
pub fn for_each_mutant(seed: &[u8], lengths: &[Field], noise: u64, mut f: impl FnMut(Op, &[u8])) {
    for cut in 0..seed.len() {
        f(Op::Truncate, &seed[..cut]);
    }
    let mut rng = SplitMix(noise);
    let mut buf = Vec::with_capacity(seed.len() + 16);
    for field in lengths {
        assert!(
            (1..=8).contains(&field.width) && field.at + field.width <= seed.len(),
            "{field:?} lies outside the {}-byte seed",
            seed.len()
        );
        let max = u64::MAX >> (64 - 8 * field.width);
        let orig = seed[field.at..][..field.width]
            .iter()
            .fold(0u64, |v, &b| v << 8 | b as u64);
        let lies = [
            0,
            1,
            orig.wrapping_sub(1),
            orig.wrapping_add(1),
            0x7F,
            0x80,
            0x81,
            0x89,
            max / 2,
            max,
            rng.next(),
        ];
        for lie in lies.map(|lie| lie & max) {
            if lie == orig {
                continue;
            }
            buf.clear();
            buf.extend_from_slice(seed);
            let bytes = lie.to_be_bytes();
            buf[field.at..][..field.width].copy_from_slice(&bytes[8 - field.width..]);
            f(Op::LengthLie, &buf);
        }
    }
    for _ in 0..ROUNDS {
        if seed.is_empty() {
            break;
        }
        buf.clear();
        buf.extend_from_slice(seed);
        for _ in 0..=rng.below(3) {
            let at = rng.below(seed.len());
            buf[at] ^= 1 + rng.below(255) as u8;
        }
        f(Op::Flip, &buf);
    }
    for _ in 0..ROUNDS {
        let start = rng.below(seed.len() + 1);
        let end = start + rng.below((seed.len() - start).min(8) + 1);
        buf.clear();
        buf.extend_from_slice(&seed[..start]);
        for _ in 0..rng.below(17) {
            buf.push(rng.next() as u8);
        }
        buf.extend_from_slice(&seed[end..]);
        f(Op::Splice, &buf);
    }
}

/// SplitMix64: the harness's only randomness, seeded by `noise`.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A draw in `0..n` (`n > 0`); the modulo bias is irrelevant here.
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Formats an input for a failure message: length, then up to 512 bytes
/// of hex.
struct Hex<'a>(&'a [u8]);

impl fmt::Display for Hex<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} bytes [", self.0.len())?;
        for (i, b) in self.0.iter().take(512).enumerate() {
            if i > 0 {
                f.write_str(" ")?;
            }
            write!(f, "{b:02x}")?;
        }
        if self.0.len() > 512 {
            f.write_str(" …")?;
        }
        f.write_str("]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operators_cover_every_cut_and_change_the_seed() {
        let seed = [0x30, 0x03, 0x02, 0x01, 0x05];
        let mut seen = Vec::new();
        for_each_mutant(&seed, &[Field { at: 1, width: 1 }], 7, |op, m| {
            seen.push((op, m.to_vec()));
        });
        let cuts: Vec<usize> = seen
            .iter()
            .filter(|(op, _)| *op == Op::Truncate)
            .map(|(_, m)| m.len())
            .collect();
        assert_eq!(cuts, vec![0, 1, 2, 3, 4]);
        for (op, m) in &seen {
            if matches!(op, Op::LengthLie | Op::Flip) {
                assert_eq!(m.len(), seed.len(), "{op:?}");
                assert_ne!(m[..], seed[..], "{op:?} must change the seed");
            }
        }
        let lies: Vec<u8> = seen
            .iter()
            .filter(|(op, _)| *op == Op::LengthLie)
            .map(|(_, m)| m[1])
            .collect();
        for form in [0x00, 0x80, 0x81, 0x89, 0xFF] {
            assert!(lies.contains(&form), "{form:#x} among {lies:?}");
        }
        let count = |want: Op| seen.iter().filter(|(op, _)| *op == want).count();
        assert_eq!((count(Op::Flip), count(Op::Splice)), (ROUNDS, ROUNDS));
    }

    #[test]
    fn same_noise_same_mutants() {
        let collect = |noise| {
            let mut all = Vec::new();
            for_each_mutant(b"maxlength", &[], noise, |_, m| all.push(m.to_vec()));
            all
        };
        assert_eq!(collect(1), collect(1));
        assert_ne!(collect(1), collect(2));
    }
}
