//! The paper's primary contribution: analysis and mitigation of the RPKI
//! maxLength attribute ("MaxLength Considered Harmful to the RPKI",
//! CoNEXT 2017).
//!
//! The crate has five pieces, mapping one-to-one onto the paper:
//!
//! * [`bgp`] — a global BGP table (the Route Views side of the measurement
//!   pipeline), indexed by its own sort order.
//! * [`compress`] — **`compress_roas`**, Algorithm 1 (§7) as a sweep over
//!   a sorted array: losslessly re-introduces maxLength into a PDU list so
//!   routers process fewer tuples, *without* creating forged-origin
//!   subprefix hijack exposure.
//! * [`minimal`] — conversion of arbitrary ROAs/VRPs into *minimal* ones
//!   that authorize exactly what is announced in BGP (§6).
//! * [`vulnerability`] — the §4/§6 census: which maxLength-using tuples
//!   are non-minimal and therefore hijackable, and by how much.
//! * [`scenarios`] / [`timeline`] — the engines that regenerate Table 1
//!   and Figure 3 from any (VRP set, BGP table) snapshot.
//!
//! ```
//! use maxlength_core::compress::compress_roas;
//! use rpki_roa::Vrp;
//!
//! // §7's example: AS 31283's minimal ROA without maxLength...
//! let pdus: Vec<Vrp> = [
//!     "87.254.32.0/19 => AS31283",
//!     "87.254.32.0/20 => AS31283",
//!     "87.254.48.0/20 => AS31283",
//!     "87.254.32.0/21 => AS31283",
//! ]
//! .iter()
//! .map(|s| s.parse().unwrap())
//! .collect();
//!
//! // ...compresses from four PDUs to two (Figure 2):
//! let compressed = compress_roas(&pdus);
//! assert_eq!(compressed.len(), 2);
//! assert_eq!(compressed[0].to_string(), "87.254.32.0/19-20 => AS31283");
//! assert_eq!(compressed[1].to_string(), "87.254.32.0/21 => AS31283");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bgp;
pub mod bounds;
pub mod compress;
pub mod lint;
pub mod minimal;
pub mod report;
pub mod scenarios;
pub mod timeline;
pub mod vulnerability;

pub use bgp::BgpTable;
pub use compress::{compress_roas, compress_roas_full, compress_roas_parallel};
pub use lint::{LintReport, Severity};
pub use minimal::{minimalize_roas, minimalize_vrps, minimalize_vrps_par};
pub use scenarios::{Scenario, ScenarioRow, Table1};
pub use vulnerability::MaxLengthCensus;
