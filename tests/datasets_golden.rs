//! The generated datasets pinned byte for byte.
//!
//! `table1_golden` pins counts and `core_kernels` pins kernel outputs;
//! neither notices a generator change that keeps the counts but moves a
//! prefix, an origin or a maxLength. The digests below are 64-bit FNV-1a
//! over the serialized text of all eight weekly snapshots at scale 0.05
//! (default seed), and over the `Debug` text of each churn profile's
//! epochs on that world's final week. They were captured before the
//! calibration table became one count per `Category`, so the table's
//! layout cannot shift the worlds or the timelines it feeds.

use maxlength_rpki::datasets::io::to_string;
use maxlength_rpki::datasets::{ChurnConfig, ChurnGenerator, ChurnProfile, GeneratorConfig, World};

fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn world() -> World {
    World::generate(GeneratorConfig {
        scale: 0.05,
        ..GeneratorConfig::default()
    })
}

#[test]
fn weekly_snapshots_match_their_pinned_digest() {
    let (mut bytes, mut hash) = (0, FNV_OFFSET);
    for snap in world().snapshots() {
        let text = to_string(&snap);
        bytes += text.len();
        hash = fnv1a(hash, text.as_bytes());
    }
    assert_eq!(
        (bytes, hash),
        (8_559_683, 0xfcbb_df5e_136c_e0c6),
        "(bytes, fnv1a) of the 8 weekly snapshots at scale 0.05"
    );
}

#[test]
fn churn_timelines_match_their_pinned_digests() {
    let vrps = world().snapshot(7).vrps();
    let got: Vec<(ChurnProfile, u64)> = ChurnProfile::ALL
        .into_iter()
        .map(|profile| {
            let timeline = ChurnGenerator::new(
                vrps.iter().copied(),
                ChurnConfig {
                    profile,
                    ..ChurnConfig::default()
                },
            )
            .generate();
            let text = format!("{:?}", timeline.epochs);
            (profile, fnv1a(FNV_OFFSET, text.as_bytes()))
        })
        .collect();
    assert_eq!(got, PINNED_TIMELINES, "fnv1a of each profile's epochs");
}

const PINNED_TIMELINES: [(ChurnProfile, u64); 6] = [
    (ChurnProfile::Issuance, 0x7be0_1791_1945_2aae),
    (ChurnProfile::Expiry, 0x940c_9174_a50c_64e2),
    (ChurnProfile::MaxLengthEdit, 0x6c1f_15c3_9187_ef33),
    (ChurnProfile::AsnTransfer, 0x5cc2_83ab_06d6_b009),
    (ChurnProfile::FlapBurst, 0x6ea6_0903_4c04_e58d),
    (ChurnProfile::Mixed, 0xb8d0_dc00_a7d0_3a14),
];
