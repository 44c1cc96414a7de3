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
//! [`PrefixOf::left_child`] / [`PrefixOf::right_child`]), a sibling, and
//! (unless `l == 0`) a parent. The trie-navigation API here is what both the
//! `compress_roas` algorithm (paper §7, Algorithm 1) and the longest-prefix
//! match data plane build on.
//!
//! The trie is the same for both families, so each operation is written
//! once: [`Prefix4`] and [`Prefix6`] are aliases of one generic type,
//! [`PrefixOf`], over a sealed [`Family`] ([`Ipv4`] or [`Ipv6`]) that
//! holds only what differs (word, address type, `MAX_LEN`, `Debug` name).
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
//! | [`Prefix`]  |   24 |         8 |
//!
//! `rpki_roa::Vrp` and `RouteOrigin` add an ASN (and a maxLength) and
//! come to 32 bytes. Two choices get them there:
//!
//! - [`Ipv6`] stores its `u128` at 8-byte alignment — a
//!   `repr(packed(8))` newtype that is `Copy` and only ever read by
//!   value — because `u128`'s own 16-byte alignment pads [`Prefix6`] to
//!   32 bytes, `Prefix` to 48 and a VRP to a whole 64-byte cache line.
//! - A prefix stores its length as `len + 1` in a `NonZeroU8`. The zero
//!   it never holds is a niche, and `Prefix` keeps its V4/V6 variant in
//!   it, where a tag byte of its own would pad `Prefix` to 32 bytes and
//!   a VRP to 40.
//!
//! Neither changes anything observable. `Ord` and `Eq` are derived on
//! the same `(bits, len)` pair, and `len + 1` orders like `len`. `Debug`
//! is written to print what a derive on a struct named `Prefix4` or
//! `Prefix6` would, in every form. `Hash` is written to feed the hasher
//! the same bytes through the same calls as that derive (`write_u32` or
//! `write_u128`, then `write_u8(len)`). So the FNV-1a digests of `Debug`
//! text in `tests/core_kernels.rs` are unaffected; `tests/props.rs`
//! checks each family against a plain derived struct of the same name,
//! and the root `tests/layout.rs` pins the sizes.
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
mod cidr;
mod error;
mod family;
mod prefix;

pub use afi::Afi;
pub use cidr::{Prefix4, Prefix6, PrefixOf, SubPrefixes};
pub use error::PrefixError;
pub use family::{Family, Ipv4, Ipv6};
pub use prefix::Prefix;
