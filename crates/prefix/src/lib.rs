//! IP address and prefix types used throughout the MaxLength/RPKI
//! reproduction.
//!
//! The central types are [`Prefix4`] and [`Prefix6`] — CIDR prefixes stored
//! in a canonical form (host bits cleared, bits left-aligned) — and the
//! address-family-agnostic [`Prefix`] enum. All RPKI objects (ROAs, VRPs,
//! RTR PDUs) and all BGP announcements in this workspace are keyed by these
//! types.
//!
//! Prefixes behave like nodes of a binary trie: every prefix of length
//! `l < MAX_LEN` has exactly two children of length `l + 1` (obtained with
//! [`Prefix4::left_child`] / [`Prefix4::right_child`]), a sibling, and
//! (unless `l == 0`) a parent. The trie-navigation API here is what both the
//! `compress_roas` algorithm (paper §7, Algorithm 1) and the longest-prefix
//! match data plane build on.
//!
//! # Layout contract
//!
//! These types are the key of every large collection in the workspace
//! (777k-element VRP lists, B-tree sets, frozen arrays), so their size
//! is part of the interface and pinned by unit tests:
//!
//! | type        | size | alignment |
//! |-------------|-----:|----------:|
//! | [`Prefix4`] |    8 |         4 |
//! | [`Prefix6`] |   24 |         8 |
//! | [`Prefix`]  |   32 |         8 |
//!
//! `rpki_roa::Vrp` and `RouteOrigin` add an ASN (and a maxLength) and
//! come to 40 bytes. [`Prefix6`] gets there by storing its `u128` at
//! 8-byte alignment — a private `repr(packed(8))` newtype that is
//! `Copy` and only ever read by value — because `u128`'s own 16-byte
//! alignment pads `Prefix` to 48 bytes and a VRP to a whole 64-byte
//! cache line. Nothing observable changes with the alignment: `Ord` and
//! `Eq` compare the same `(bits, len)` pair, `Debug` prints the same
//! text, and `Hash` feeds the hasher the same bytes through the same
//! calls (`write_u128`, then `write_u8`), so hash-derived pins such as
//! the FNV-1a digests in `tests/core_kernels.rs` are unaffected.
//!
//! # Examples
//!
//! ```
//! use rpki_prefix::{Afi, Prefix, Prefix4};
//!
//! let bu: Prefix4 = "168.122.0.0/16".parse().unwrap();
//! let sub: Prefix4 = "168.122.225.0/24".parse().unwrap();
//! assert!(bu.covers(sub));
//! assert_eq!(sub.to_string(), "168.122.225.0/24");
//!
//! // Address-family agnostic:
//! let p: Prefix = "2001:db8::/32".parse().unwrap();
//! assert_eq!(p.afi(), Afi::V6);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod afi;
mod error;
mod prefix;
mod v4;
mod v6;

pub use afi::Afi;
pub use error::PrefixError;
pub use prefix::Prefix;
pub use v4::{Prefix4, SubPrefixes4};
pub use v6::{Prefix6, SubPrefixes6};
