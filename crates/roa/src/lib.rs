//! Route Origin Authorization (ROA) objects and their encodings.
//!
//! This crate provides the RPKI object model used across the workspace:
//!
//! * [`Asn`] — an autonomous system number,
//! * [`RouteOrigin`] — a `(prefix, origin AS)` pair as announced in BGP,
//! * [`Vrp`] — a Validated ROA Payload `(prefix, maxLength, ASN)`, the
//!   "PDU" of the paper (§6): the unit the local cache sends to routers,
//! * [`Roa`] / [`RoaPrefix`] — a ROA per RFC 6482: one AS plus a set of
//!   prefixes, each with an optional maxLength,
//! * [`cursor`] — the byte cursor every decoder in the workspace reads
//!   with (the RTR wire layer included),
//! * a minimal ASN.1 **DER** codec ([`der`]) and the RFC 6482
//!   `RouteOriginAttestation` encoding ([`codec`]),
//! * a mock signed-object [`envelope`] standing in for the RPKI CMS
//!   wrapping (the paper's pipeline runs strictly *after* cryptographic
//!   validation, so a deterministic checksum envelope preserves every
//!   relevant behaviour — see DESIGN.md),
//! * [`scan`] — a drop-in equivalent of the `scan_roas` utility from the
//!   RPKI relying-party tools, which turns a directory of ROA files into
//!   the VRP list that `compress_roas` post-processes (paper §7.1).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod asn;
pub mod codec;
pub mod cursor;
pub mod der;
pub mod envelope;
mod origin;
mod roa;
pub mod scan;
mod vrp;

pub use asn::Asn;
pub use origin::RouteOrigin;
pub use roa::{Roa, RoaError, RoaPrefix};
pub use vrp::Vrp;
