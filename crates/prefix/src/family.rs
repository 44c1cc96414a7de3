use std::fmt;
use std::hash::Hash;
use std::net::{Ipv4Addr, Ipv6Addr};
use std::ops::{BitAnd, BitOr, BitXor, Not, Shl, Shr};
use std::str::FromStr;

/// What differs between the IPv4 and the IPv6 prefix, and nothing else;
/// [`PrefixOf`](crate::PrefixOf) writes every trie operation once over
/// it. Sealed: [`Ipv4`] and [`Ipv6`] are the only families.
pub trait Family: sealed::Sealed + Copy + Ord + Hash + fmt::Debug {
    /// The address bits as an unsigned integer, most significant bit
    /// first: `u32` or `u128`.
    type Bits: sealed::Int;
    /// How a prefix stores its bits. The layout contract in the crate
    /// docs hangs on this type.
    type Word: Copy + Ord + Hash + fmt::Debug + From<Self::Bits> + Into<Self::Bits>;
    /// The address type: [`Ipv4Addr`] or [`Ipv6Addr`].
    type Addr: Copy + fmt::Display + FromStr + From<Self::Bits> + Into<Self::Bits>;
    /// The maximum prefix length: 32 or 128.
    const MAX_LEN: u8;
    /// The type name `Debug` prints: `Prefix4` or `Prefix6`.
    const NAME: &'static str;
    /// The stored all-zero address, the default route's bits.
    const ZERO: Self::Word;
}

/// The IPv4 family: 32-bit addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Ipv4 {}

/// The IPv6 family: 128-bit addresses, stored at 8-byte alignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Ipv6 {}

impl Family for Ipv4 {
    type Bits = u32;
    type Word = u32;
    type Addr = Ipv4Addr;
    const MAX_LEN: u8 = 32;
    const NAME: &'static str = "Prefix4";
    const ZERO: u32 = 0;
}

impl Family for Ipv6 {
    type Bits = u128;
    type Word = Packed;
    type Addr = Ipv6Addr;
    const MAX_LEN: u8 = 128;
    const NAME: &'static str = "Prefix6";
    const ZERO: Packed = Packed(0);
}

/// A `u128` stored at 8-byte alignment. `u128`'s own 16-byte alignment
/// would pad [`Prefix6`](crate::Prefix6) to 32 bytes and everything built
/// on it ([`Prefix`](crate::Prefix), VRPs, route origins) to a full cache
/// line. The field is only ever read by value, so no reference to the
/// under-aligned integer exists, and the derives compare and hash a copy
/// of it exactly as they would the bare `u128`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(C, packed(8))]
pub struct Packed(u128);

impl From<u128> for Packed {
    #[inline]
    fn from(bits: u128) -> Packed {
        Packed(bits)
    }
}

impl From<Packed> for u128 {
    #[inline]
    fn from(word: Packed) -> u128 {
        word.0
    }
}

impl fmt::Debug for Packed {
    /// Prints as the bare integer, honouring `{:#?}` / `{:x?}`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&{ self.0 }, f)
    }
}

pub(crate) mod sealed {
    use super::*;

    /// Implemented by the two families only.
    pub trait Sealed {}
    impl Sealed for Ipv4 {}
    impl Sealed for Ipv6 {}

    /// The integer operations a trie step needs, for `u32` and `u128`.
    pub trait Int:
        Copy
        + Eq
        + fmt::Debug
        + BitAnd<Output = Self>
        + BitOr<Output = Self>
        + BitXor<Output = Self>
        + Not<Output = Self>
        + Shl<u32, Output = Self>
        + Shr<u32, Output = Self>
    {
        /// No bit set.
        const ZERO: Self;
        /// Only the most significant bit set.
        const TOP: Self;
        /// The number of zero bits above the highest set one.
        fn leading_zeros(self) -> u32;
        /// The low bits of `index` that fit the word.
        fn truncate(index: u128) -> Self;
    }

    macro_rules! int {
        ($($t:ty),*) => {$(
            impl Int for $t {
                const ZERO: $t = 0;
                const TOP: $t = 1 << (<$t>::BITS - 1);
                #[inline]
                fn leading_zeros(self) -> u32 {
                    <$t>::leading_zeros(self)
                }
                #[inline]
                fn truncate(index: u128) -> $t {
                    index as $t
                }
            }
        )*};
    }
    int!(u32, u128);
}
