//! RFC 6811 BGP prefix origin validation.
//!
//! A router (or our simulator's router) holds the set of Validated ROA
//! Payloads ([`Vrp`](rpki_roa::Vrp)s) pushed to it by the local cache
//! (paper Figure 1) and classifies every BGP announcement against them:
//!
//! * **Valid** — some VRP *matches* the route: its prefix covers the
//!   route's prefix, the route's length is within maxLength, and the origin
//!   AS agrees.
//! * **Invalid** — at least one VRP *covers* the route's prefix but none
//!   matches. Dropping these routes is what defeats (sub)prefix hijacks.
//! * **NotFound** — no VRP covers the prefix; the RPKI says nothing.
//!
//! The crate is organized as a **builder → freeze → batch** pipeline:
//!
//! * [`VrpIndex`] — the mutable builder: one ordered set of VRPs with
//!   logarithmic insert/remove and classification by a few predecessor
//!   hops, fed by the rtr delta stream and the dataset generator;
//! * [`FrozenVrpIndex`] — an immutable, `Arc`-shareable compilation of
//!   the set into flat, cache-friendly arrays ([`VrpIndex::freeze`]),
//!   answering the same queries with identical results (the
//!   [snapshot-equivalence contract](frozen)) several times faster — the
//!   read path for anything table-sized;
//! * [`FrozenVrpIndex::validate_table_par`] — embarrassingly-parallel
//!   whole-table validation, reducing per-thread [`ValidationSummary`]
//!   tallies with their `Add`/`Sum` impls; the §6 measurement pipeline
//!   and the `bgpsim` attack experiments both build on it.
//!
//! [`RevalidationEngine`] composes both halves: incremental
//! revalidation against the mutable index on every VRP delta, and
//! frozen snapshots for the bulk revalidate-everything path.
//!
//! ```
//! use rpki_rov::{VrpIndex, ValidationState};
//!
//! let index: VrpIndex = ["168.122.0.0/16 => AS111".parse().unwrap()]
//!     .into_iter()
//!     .collect();
//!
//! // AS 111's own announcement:
//! assert_eq!(
//!     index.validate(&"168.122.0.0/16 => AS111".parse().unwrap()),
//!     ValidationState::Valid,
//! );
//! // The subprefix hijack from the paper's §2:
//! assert_eq!(
//!     index.validate(&"168.122.0.0/24 => AS666".parse().unwrap()),
//!     ValidationState::Invalid,
//! );
//! // An unrelated prefix:
//! assert_eq!(
//!     index.validate(&"8.8.8.0/24 => AS15169".parse().unwrap()),
//!     ValidationState::NotFound,
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chain;
pub mod delta;
pub mod frozen;
mod index;
mod policy;
mod route_table;
mod state;

pub use chain::{ChainConfig, ChurnSummary, EpochReport, SnapshotChainEngine};
pub use delta::{RevalidationEngine, StateChange};
pub use frozen::FrozenVrpIndex;
pub use index::{ValidationSummary, VrpIndex};
pub use policy::RovPolicy;
pub use state::ValidationState;
