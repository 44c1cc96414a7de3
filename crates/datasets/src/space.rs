//! Disjoint address-space allocation for generated worlds.
//!
//! Every allocation the generator hands out must be disjoint from every
//! other (nesting only ever happens *within* an allocation, by design), so
//! the calibrated de-aggregation counts are exactly the same-origin
//! ancestor relations the analyses will find. A bump allocator with
//! power-of-two alignment gives that with zero bookkeeping.

use std::net::{Ipv4Addr, Ipv6Addr};

use rpki_prefix::{Afi, Prefix};

/// Carves disjoint prefixes out of the IPv4 and IPv6 spaces.
#[derive(Debug, Clone)]
pub struct SpaceAllocator {
    /// The next free address of each family, IPv4 then IPv6, as a number
    /// (an IPv4 cursor may reach 2^32, one past the last address).
    cursors: [u128; 2],
}

impl SpaceAllocator {
    /// An allocator whose IPv4 and IPv6 allocations start at `v4` and
    /// `v6`.
    pub fn new(v4: Ipv4Addr, v6: Ipv6Addr) -> SpaceAllocator {
        SpaceAllocator {
            cursors: [u32::from(v4).into(), v6.into()],
        }
    }

    /// Allocates the next free prefix of length `len` in IPv6 if `v6`,
    /// else in IPv4: the first `/len` at or past the family's cursor.
    ///
    /// # Panics
    ///
    /// Panics if `len` is 0 or longer than the family's addresses, or if
    /// the IPv4 space is exhausted — at paper scale the generator uses
    /// well under half of it.
    pub fn alloc(&mut self, v6: bool, len: u8) -> Prefix {
        let afi = if v6 { Afi::V6 } else { Afi::V4 };
        let width = afi.max_len();
        assert!((1..=width).contains(&len), "allocation length {len}");
        let cursor = &mut self.cursors[usize::from(v6)];
        let size = 1u128 << (width - len);
        let base = cursor.div_ceil(size) * size;
        *cursor = base + size;
        assert!(v6 || *cursor <= 1 << 32, "IPv4 space exhausted");
        // `base` is a multiple of `size`, so no host bit is set.
        Prefix::from_bits_u128(afi, base << (128 - width), len).expect("aligned by construction")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn world() -> SpaceAllocator {
        SpaceAllocator::new(Ipv4Addr::new(1, 0, 0, 0), "2001::".parse().unwrap())
    }

    fn assert_disjoint(got: &[Prefix]) {
        for (i, p) in got.iter().enumerate() {
            for q in &got[i + 1..] {
                assert!(!p.covers(*q) && !q.covers(*p), "{p} overlaps {q}");
            }
        }
    }

    #[test]
    fn v4_allocations_disjoint_and_aligned() {
        let mut a = world();
        let got: Vec<Prefix> = [24, 16, 24, 20, 22, 16, 24, 8]
            .into_iter()
            .map(|len| a.alloc(false, len))
            .collect();
        // Each block starts at the first multiple of its size.
        assert_eq!(got[0].to_string(), "1.0.0.0/24");
        assert_eq!(got[1].to_string(), "1.1.0.0/16");
        assert_eq!(got[7].to_string(), "2.0.0.0/8");
        assert_disjoint(&got);
    }

    #[test]
    fn v6_allocations_disjoint() {
        let mut a = world();
        let got: Vec<Prefix> = [32, 48, 32]
            .into_iter()
            .map(|len| a.alloc(true, len))
            .collect();
        assert_eq!(got[0].to_string(), "2001::/32");
        assert_eq!(got[1].to_string(), "2001:1::/48");
        assert_eq!(got[2].to_string(), "2001:2::/32");
        assert_disjoint(&got);
    }

    #[test]
    fn families_keep_their_own_cursors() {
        let mut a = SpaceAllocator::new(Ipv4Addr::new(240, 0, 0, 0), "3000::".parse().unwrap());
        assert_eq!(a.alloc(false, 24).to_string(), "240.0.0.0/24");
        assert_eq!(a.alloc(true, 48).to_string(), "3000::/48");
        assert_eq!(a.alloc(false, 24).to_string(), "240.0.1.0/24");
    }

    #[test]
    fn many_allocations_stay_in_space() {
        // 10K /22s ≈ 10M addresses: far below exhaustion.
        let mut a = world();
        let mut last = a.alloc(false, 22);
        for _ in 0..10_000 {
            let next = a.alloc(false, 22);
            assert!(next > last);
            last = next;
        }
    }

    #[test]
    #[should_panic(expected = "IPv4 space exhausted")]
    fn the_last_ipv4_block_is_the_last() {
        let mut a = SpaceAllocator::new(Ipv4Addr::new(255, 255, 255, 0), "2001::".parse().unwrap());
        assert_eq!(a.alloc(false, 24).to_string(), "255.255.255.0/24");
        a.alloc(false, 32);
    }

    #[test]
    #[should_panic(expected = "allocation length")]
    fn rejects_len_zero() {
        world().alloc(false, 0);
    }
}
