//! Disjoint address-space allocation for generated worlds.
//!
//! Every allocation the generator hands out must be disjoint from every
//! other (nesting only ever happens *within* an allocation, by design), so
//! the calibrated de-aggregation counts are exactly the same-origin
//! ancestor relations the analyses will find. A bump allocator with
//! power-of-two alignment gives that with zero bookkeeping.

use rpki_prefix::{Prefix, Prefix4, Prefix6};

/// Carves disjoint prefixes out of the IPv4 and IPv6 spaces.
#[derive(Debug, Clone)]
pub struct SpaceAllocator {
    /// Next free IPv4 address (starts past 0.0.0.0/8).
    cursor_v4: u64,
    /// Next free IPv6 address within the global-unicast 2000::/3.
    cursor_v6: u128,
}

impl Default for SpaceAllocator {
    fn default() -> Self {
        SpaceAllocator::new()
    }
}

impl SpaceAllocator {
    /// A fresh allocator starting at 1.0.0.0 / 2001::.
    pub fn new() -> SpaceAllocator {
        SpaceAllocator {
            cursor_v4: 0x0100_0000,
            cursor_v6: 0x2001_0000_0000_0000_0000_0000_0000_0000,
        }
    }

    /// Allocates the next free IPv4 prefix of length `len`.
    ///
    /// # Panics
    ///
    /// Panics if the IPv4 space is exhausted — at paper scale the
    /// generator uses well under half of it.
    pub fn alloc_v4(&mut self, len: u8) -> Prefix4 {
        assert!((1..=32).contains(&len), "allocation length {len}");
        let size = 1u64 << (32 - len as u32);
        let base = self.cursor_v4.div_ceil(size) * size;
        assert!(base + size <= 1 << 32, "IPv4 space exhausted");
        self.cursor_v4 = base + size;
        // `base` is a multiple of `size` and below 2^32 (asserted).
        Prefix4::new(base as u32, len).expect("aligned by construction")
    }

    /// Allocates the next free IPv6 prefix of length `len`.
    pub fn alloc_v6(&mut self, len: u8) -> Prefix6 {
        assert!((4..=128).contains(&len), "allocation length {len}");
        let size = 1u128 << (128 - len as u32);
        let base = self.cursor_v6.div_ceil(size) * size;
        self.cursor_v6 = base + size;
        // `base` is a multiple of `size`, so no host bit is set.
        Prefix6::new(base, len).expect("aligned by construction")
    }

    /// Family-dispatching allocation.
    pub fn alloc(&mut self, v6: bool, len: u8) -> Prefix {
        if v6 {
            Prefix::V6(self.alloc_v6(len))
        } else {
            Prefix::V4(self.alloc_v4(len))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn v4_allocations_disjoint_and_aligned() {
        let mut a = SpaceAllocator::new();
        let mut got: Vec<Prefix4> = Vec::new();
        for len in [24, 16, 24, 20, 22, 16, 24, 8] {
            got.push(a.alloc_v4(len));
        }
        for (i, p) in got.iter().enumerate() {
            assert_eq!(
                p.bits() & (!0u32 >> p.len()).wrapping_shl(0) & !mask(p.len()),
                0
            );
            for q in &got[i + 1..] {
                assert!(!p.covers(*q) && !q.covers(*p), "{p} overlaps {q}");
            }
        }
        fn mask(len: u8) -> u32 {
            if len == 0 {
                0
            } else {
                u32::MAX << (32 - len as u32)
            }
        }
    }

    #[test]
    fn v6_allocations_disjoint() {
        let mut a = SpaceAllocator::new();
        let p = a.alloc_v6(32);
        let q = a.alloc_v6(48);
        let r = a.alloc_v6(32);
        for (a, b) in [(p, q), (q, r), (p, r)] {
            assert!(!a.covers(b) && !b.covers(a), "{a} overlaps {b}");
        }
        assert!(p.addr().to_string().starts_with("2001:"));
    }

    #[test]
    fn mixed_family_dispatch() {
        let mut a = SpaceAllocator::new();
        assert!(a.alloc(false, 24).is_v4());
        assert!(!a.alloc(true, 48).is_v4());
    }

    #[test]
    fn many_allocations_stay_in_space() {
        // 10K /22s ≈ 10M addresses: far below exhaustion.
        let mut a = SpaceAllocator::new();
        let mut last = a.alloc_v4(22);
        for _ in 0..10_000 {
            let next = a.alloc_v4(22);
            assert!(next.bits() > last.bits());
            last = next;
        }
    }

    #[test]
    #[should_panic(expected = "allocation length")]
    fn rejects_len_zero() {
        SpaceAllocator::new().alloc_v4(0);
    }
}
