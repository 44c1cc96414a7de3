//! Synthetic RPKI + BGP datasets calibrated to the paper's June 2017
//! measurements.
//!
//! The paper measures real snapshots (RPKI publication points + Route
//! Views, weekly from 2017-04-13 to 2017-06-01) that are not redistributable
//! and no longer reconstructible. Every analysis in the paper, however,
//! consumes only the *joint distribution* of `(prefix, maxLength, ASN)`
//! tuples and `(prefix, origin AS)` announcements — so this crate generates
//! worlds with that joint distribution pinned to the paper's published
//! aggregates, and the entire pipeline (census, minimalization,
//! `compress_roas`, bounds, Table 1, Figure 3) runs on them unchanged.
//!
//! # Calibration (scale = 1.0, the 6/1/2017 snapshot)
//!
//! Adopter (RPKI-covered) allocations by behaviour class, chosen so that
//! every §6/§7 headline lands on the paper's number:
//!
//! | class | count | ROA shape | announces | notes |
//! |-------|-------|-----------|-----------|-------|
//! | exact | 25,000 | `p` | `p` | minimal, safe |
//! | stale | 818 | `p` | nothing | dropped by minimalization |
//! | maxlen-plain | 1,389 | `p-(len+k)` | `p` | **vulnerable** |
//! | triple-stale | 2,490 | `{p, p0, p1}` | `p` | compresses 3→1 |
//! | maxlen-safe | 741 | `p-(len+1)` | `p, p0, p1` | the minimal 16% |
//! | triple-live | 677 | `{p, p0, p1}` | `p, p0, p1` | compresses 3→1 |
//! | maxlen-deep | 300 | `p-(len+k), k≥2` | `p, p0, p1` | **vulnerable** |
//! | maxlen-partial | 200 | `p-(len+1)` | `p, p0` | **vulnerable** |
//! | scattered | 2,000 | `p-24` | Σ 18,312 scattered /24s, not `p` | **vulnerable** |
//!
//! Non-adopter allocations: 662,076 plain, 15,750 full depth-1
//! de-aggregations, 2,000 depth-2, 437 partial. Totals:
//!
//! * tuples 39,949; maxLength-using 4,630 (11.6%); vulnerable 3,889 (84.0%)
//! * minimalized pairs 52,745; compressed 33,615 / 49,309
//! * BGP pairs 776,945; full-deployment compressed 730,009; bound 729,372
//!
//! (each within ±1 of Table 1, the residue being integer rounding the
//! paper's own pipeline also exhibits).
//!
//! In code the table is stated once: the counts are
//! [`CategoryCounts::PAPER`], one per [`Category`] in [`Category::ALL`]
//! order, and each class's routes and ROA entries per allocation are
//! `Category::routes` and `Category::tuples`, from which
//! [`world::Allocation`] builds its announcements and ROA listing.
//!
//! Weekly snapshots thin the world with per-entity activation thresholds:
//! the RPKI side grows ~6% over the eight weeks and the BGP side ~1%,
//! matching the slopes of Figure 3a/3b.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod churn;
pub mod config;
pub mod io;
pub mod snapshot;
pub mod space;
pub mod world;

pub use churn::{ChurnConfig, ChurnEpoch, ChurnGenerator, ChurnProfile, ChurnTimeline};
pub use config::{CategoryCounts, GeneratorConfig, WEEK_LABELS};
pub use snapshot::DatasetSnapshot;
pub use world::{Category, World};
