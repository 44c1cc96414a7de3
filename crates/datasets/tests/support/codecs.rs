//! `io::from_str`, the dataset snapshot reader, as a mutation-harness
//! codec, with its seeds. Shared by this crate's `tests/decoders.rs` and
//! the workspace's tier-1 `tests/decoders.rs`.

use std::io;

use rpki_datasets::io::{from_str, to_string, LoadError};
use rpki_datasets::{DatasetSnapshot, GeneratorConfig, World};
use testkit::{Canon, Codec};

/// `io::from_str` over raw file bytes; bytes that are not UTF-8 fail as
/// `io::load` fails on them.
pub struct SnapshotText;

impl Codec for SnapshotText {
    type Value = DatasetSnapshot;
    type Error = LoadError;
    const CANON: Canon = Canon::Value;

    fn decode(&self, bytes: &[u8]) -> Result<DatasetSnapshot, LoadError> {
        let text = std::str::from_utf8(bytes)
            .map_err(|e| LoadError::Io(io::Error::new(io::ErrorKind::InvalidData, e)))?;
        from_str(text)
    }

    fn encode(&self, snap: &DatasetSnapshot) -> Vec<u8> {
        to_string(snap).into_bytes()
    }
}

/// A slice of a generated world's snapshot at `week`: `roas` ROAs and
/// `routes` routes starting at `skip`, small enough for every cut.
pub fn generated_text(seed: u64, week: usize, skip: usize, roas: usize, routes: usize) -> String {
    let world = World::generate(GeneratorConfig {
        seed,
        scale: 0.0002,
        ..GeneratorConfig::default()
    });
    let mut snap = world.snapshot(week % world.config.weeks);
    snap.roas = snap.roas.into_iter().skip(skip).take(roas).collect();
    snap.routes = snap.routes.into_iter().skip(skip).take(routes).collect();
    to_string(&snap)
}

/// The module-doc example, a commented IPv6 file, and a generated slice.
pub fn sample_texts() -> Vec<String> {
    vec![
        "# maxlength-dataset v1\nlabel 6/1\nroa AS31283 87.254.32.0/19-20 87.254.32.0/21\n\
         bgp 87.254.32.0/19 AS31283\n"
            .to_string(),
        "# maxlength-dataset v1\n\n# a comment\nlabel two  words\n\
         roa AS65000 2001:db8::/32-48 2001:db9::/32\nbgp 2001:db8::/32 AS65000\n"
            .to_string(),
        generated_text(2017, 7, 0, 4, 6),
    ]
}
