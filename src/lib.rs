//! # maxlength-rpki
//!
//! A full reproduction of **"MaxLength Considered Harmful to the RPKI"**
//! (Gilad, Sagga, Goldberg — CoNEXT 2017) as a Rust workspace: the
//! `compress_roas` algorithm, the maxLength vulnerability analysis, ROA
//! minimalization, the full-deployment bounds, a calibrated synthetic
//! dataset generator, an AS-level BGP attack simulator, and an
//! RPKI-to-Router (RFC 6810/8210) protocol stack.
//!
//! This crate is a facade re-exporting the workspace's public API under
//! one roof:
//!
//! * [`prefix`] — IP prefix types, whose sort order is every index,
//! * [`roa`] — ROA objects, DER codec, `scan_roas`,
//! * [`rov`] — RFC 6811 route origin validation,
//! * [`core`] — `compress_roas`, minimalization, census, Table 1/Figure 3,
//! * [`bgpsim`] — BGP propagation, pluggable attacker strategies, ROV
//!   deployment models, and the attack scenario matrix,
//! * [`rtr`] — the RPKI-to-Router protocol,
//! * [`datasets`] — the calibrated snapshot generator.
//!
//! ## Quickstart
//!
//! ```
//! use maxlength_rpki::prelude::*;
//!
//! // The paper's §7 example: a minimal ROA without maxLength...
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
//! // ...compressed to two PDUs without losing minimality (Figure 2).
//! let compressed = compress_roas(&pdus);
//! assert_eq!(compressed.len(), 2);
//!
//! // The running example (§3/§4): BU announces its /16 and one /24.
//! let bu: BgpTable = ["168.122.0.0/16 => AS111", "168.122.225.0/24 => AS111"]
//!     .iter()
//!     .map(|s| s.parse::<RouteOrigin>().unwrap())
//!     .collect();
//! let forged: RouteOrigin = "168.122.0.0/24 => AS111".parse().unwrap();
//!
//! // With maxLength 24, the forged-origin subprefix hijack is Valid...
//! let careless: Vrp = "168.122.0.0/16-24 => AS111".parse().unwrap();
//! let loose: VrpIndex = [careless].into_iter().collect();
//! assert_eq!(loose.validate(&forged), ValidationState::Valid);
//!
//! // ...and the minimal ROA {/16, 168.122.225.0/24} makes it Invalid.
//! let fixed = minimalize_vrps(&[careless], &bu);
//! let listed: Vec<String> = fixed.iter().map(|v| v.to_string()).collect();
//! assert_eq!(listed, ["168.122.0.0/16 => AS111", "168.122.225.0/24 => AS111"]);
//! let minimal: VrpIndex = fixed.into_iter().collect();
//! assert_eq!(minimal.validate(&forged), ValidationState::Invalid);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use bgpsim;
pub use maxlength_core as core;
pub use rpki_datasets as datasets;
pub use rpki_prefix as prefix;
pub use rpki_roa as roa;
pub use rpki_rov as rov;
pub use rpki_rtr as rtr;

/// The most commonly used items, importable in one line.
pub mod prelude {
    pub use bgpsim::{
        AttackerStrategy, DeploymentModel, MatrixReport, ScenarioMatrix, TopologyFamily,
    };
    pub use maxlength_core::compress::{compress_roas, compress_roas_full};
    pub use maxlength_core::minimal::{minimalize_roas, minimalize_vrps};
    pub use maxlength_core::scenarios::{Scenario, Table1};
    pub use maxlength_core::vulnerability::{hijack_surface, MaxLengthCensus};
    pub use maxlength_core::BgpTable;
    pub use rpki_datasets::{
        ChurnConfig, ChurnGenerator, ChurnProfile, ChurnTimeline, DatasetSnapshot, GeneratorConfig,
        World,
    };
    pub use rpki_prefix::{Afi, Prefix, Prefix4, Prefix6};
    pub use rpki_roa::{Asn, Roa, RoaPrefix, RouteOrigin, Vrp};
    pub use rpki_rov::{
        ChainConfig, FrozenVrpIndex, RovPolicy, SnapshotChainEngine, ValidationState,
        ValidationSummary, VrpIndex,
    };
}
