//! `PlanCursor::decode`, the executor's checkpoint reader, as a
//! mutation-harness codec, with its seeds. Shared by this crate's
//! `tests/decoders.rs` and the workspace's tier-1 `tests/decoders.rs`.

use bgpsim::exec::{PlanTopology, TrialPlan};
use bgpsim::experiment::RoaConfig;
use bgpsim::topology::{Topology, TopologyConfig};
use bgpsim::{AttackKind, CellAccumulator, DeploymentModel, Executor, PlanCursor};
use testkit::{Canon, Codec};

/// Why a checkpoint line was refused: `PlanCursor::decode` says only
/// that it was, and bytes that are not UTF-8 never reach it.
#[derive(Debug)]
pub struct Refused;

/// `PlanCursor::<CellAccumulator>::decode` over raw checkpoint bytes.
pub struct Checkpoint;

impl Codec for Checkpoint {
    type Value = PlanCursor<CellAccumulator>;
    type Error = Refused;
    const CANON: Canon = Canon::Value;

    fn decode(&self, bytes: &[u8]) -> Result<PlanCursor<CellAccumulator>, Refused> {
        let text = std::str::from_utf8(bytes).map_err(|_| Refused)?;
        PlanCursor::decode(text).ok_or(Refused)
    }

    fn encode(&self, cursor: &PlanCursor<CellAccumulator>) -> Vec<u8> {
        cursor.encode().into_bytes()
    }
}

/// A checkpoint line with the given position and six counters, and one
/// accumulator per whole six words of `cells`, written the way
/// `PlanCursor::encode` writes one.
pub fn checkpoint_text(next: u64, total: u64, counters: &[u64], cells: &[u64]) -> String {
    let mut out = format!("maxlength-cursor-v3 {next} {total}");
    for c in counters {
        out.push_str(&format!(" {c}"));
    }
    for acc in cells.chunks_exact(6) {
        let words: Vec<String> = acc.iter().map(|w| format!("{w:x}")).collect();
        out.push(' ');
        out.push_str(&words.join(":"));
    }
    out
}

/// Checkpoints of a real plan: fresh, part-way (real float bit
/// patterns in the cells) and finished.
pub fn sample_checkpoints() -> Vec<String> {
    let topology = Topology::generate(TopologyConfig {
        n: 60,
        tier1: 3,
        ..TopologyConfig::default()
    });
    let strategy = AttackKind::SubprefixHijack;
    let plan = TrialPlan::new(
        vec![PlanTopology {
            label: "n=60".into(),
            topology: &topology,
        }],
        vec![&strategy],
        vec![DeploymentModel::Uniform { p: 0.5 }],
        RoaConfig::ALL.to_vec(),
        2,
        7,
    );
    let exec = Executor::sequential();
    let session = exec.session(&plan);
    let mut cursor = plan.cursor::<CellAccumulator>();
    let mut out = vec![cursor.encode()];
    while !session.run_until(&mut cursor, 1) {
        out.push(cursor.encode());
    }
    out.push(cursor.encode());
    out
}
