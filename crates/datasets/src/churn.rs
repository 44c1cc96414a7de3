//! Deterministic VRP churn timelines: the live-cache workload of §6.
//!
//! The paper's overhead argument is about what happens *over time*: relying
//! parties re-validate the RPKI every few minutes, ROAs are issued, expire,
//! get their maxLength edited or their origin transferred, and every
//! resulting delta flows down the rpki-rtr channel and forces routers to
//! revalidate affected routes. This module turns a generated world's VRP
//! set into a reproducible **timeline of epochs** — one epoch per cache
//! refresh — so that the whole announce/withdraw pipeline (cache server,
//! router client, incremental revalidation) can be exercised end to end.
//!
//! # Epoch invariants
//!
//! [`ChurnGenerator`] emits *clean* epochs by construction:
//!
//! * every announced VRP is absent from the set at the epoch's start;
//! * every withdrawn VRP is present at the epoch's start;
//! * no VRP appears in both lists of one epoch (a maxLength edit or ASN
//!   transfer withdraws one VRP value and announces a *different* one).
//!
//! Every consumer applies an epoch announcements first, withdrawals
//! second — [`ChurnTimeline::vrps_at`], the rtr
//! `CacheServer::update_delta` and `SnapshotChainEngine::apply_epoch`
//! alike — so a hand-built dirty epoch (a VRP in both lists) resolves the
//! same way everywhere: the withdrawal wins. On clean epochs the order
//! cannot matter, and timelines from this generator are always clean.
//!
//! Everything is deterministic in [`ChurnConfig::seed`]: equal configs and
//! equal initial sets give byte-identical timelines, which is what the
//! differential test harness replays.

use std::collections::BTreeSet;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use rpki_prefix::{Prefix, Prefix4, Prefix6};
use rpki_roa::{Asn, Vrp};

/// A named churn scenario: which kinds of RPKI events an epoch contains.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChurnProfile {
    /// New ROAs appear (fresh allocations adopt, or expired ROAs renew).
    Issuance,
    /// Existing ROAs expire and their VRPs vanish.
    Expiry,
    /// A ROA is re-issued with a different maxLength — the paper's central
    /// attribute, edited in place (withdraw + announce in one epoch).
    MaxLengthEdit,
    /// A prefix moves to a new origin AS (withdraw + announce).
    AsnTransfer,
    /// A burst of VRPs flaps: withdrawn this epoch, re-announced the
    /// next. No new flaps begin in a timeline's final epoch, so flaps are
    /// always transient — a pure-flap timeline ends on its initial set.
    FlapBurst,
    /// A weighted blend of all of the above — the realistic default.
    Mixed,
}

impl ChurnProfile {
    /// Every named profile, for scenario sweeps.
    pub const ALL: [ChurnProfile; 6] = [
        ChurnProfile::Issuance,
        ChurnProfile::Expiry,
        ChurnProfile::MaxLengthEdit,
        ChurnProfile::AsnTransfer,
        ChurnProfile::FlapBurst,
        ChurnProfile::Mixed,
    ];

    /// A short display label.
    pub fn label(self) -> &'static str {
        match self {
            ChurnProfile::Issuance => "issuance",
            ChurnProfile::Expiry => "expiry",
            ChurnProfile::MaxLengthEdit => "maxlen-edit",
            ChurnProfile::AsnTransfer => "asn-transfer",
            ChurnProfile::FlapBurst => "flap-burst",
            ChurnProfile::Mixed => "mixed",
        }
    }
}

/// Configuration of a churn timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnConfig {
    /// RNG seed; equal seeds (and initial sets) give identical timelines.
    pub seed: u64,
    /// Number of epochs (cache refresh cycles) to generate.
    pub epochs: usize,
    /// Target number of churn events per epoch (an event is one issuance,
    /// expiry, edit, transfer, or flap; edits and transfers contribute one
    /// announcement *and* one withdrawal).
    pub events_per_epoch: usize,
    /// Which event mix to draw from.
    pub profile: ChurnProfile,
    /// Fraction of freshly issued VRPs placed in IPv6.
    pub v6_fraction: f64,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        ChurnConfig {
            seed: 0x6a17_2017,
            epochs: 16,
            events_per_epoch: 32,
            profile: ChurnProfile::Mixed,
            v6_fraction: 0.05,
        }
    }
}

/// One epoch's delta: what a cache refresh changed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChurnEpoch {
    /// 0-based epoch number.
    pub index: usize,
    /// VRPs that appeared this epoch (absent at epoch start).
    pub announced: Vec<Vrp>,
    /// VRPs that vanished this epoch (present at epoch start).
    pub withdrawn: Vec<Vrp>,
}

impl ChurnEpoch {
    /// Total number of delta records in this epoch.
    pub fn len(&self) -> usize {
        self.announced.len() + self.withdrawn.len()
    }

    /// `true` if the epoch changed nothing.
    pub fn is_empty(&self) -> bool {
        self.announced.is_empty() && self.withdrawn.is_empty()
    }
}

/// A complete, materialized churn timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnTimeline {
    /// The VRP set before epoch 0, sorted.
    pub initial: Vec<Vrp>,
    /// The epochs in order.
    pub epochs: Vec<ChurnEpoch>,
}

impl ChurnTimeline {
    /// The VRP set after applying epochs `0..=epoch`, sorted. Each epoch
    /// applies its announcements, then its withdrawals.
    ///
    /// # Panics
    ///
    /// Panics if `epoch >= self.epochs.len()`.
    pub fn vrps_at(&self, epoch: usize) -> Vec<Vrp> {
        assert!(
            epoch < self.epochs.len(),
            "epoch {epoch} out of range 0..{}",
            self.epochs.len()
        );
        let mut set: BTreeSet<Vrp> = self.initial.iter().copied().collect();
        for e in &self.epochs[..=epoch] {
            set.extend(&e.announced);
            for v in &e.withdrawn {
                set.remove(v);
            }
        }
        set.into_iter().collect()
    }

    /// The VRP set after the last epoch (the initial set if there are
    /// none), sorted.
    pub fn final_vrps(&self) -> Vec<Vrp> {
        if self.epochs.is_empty() {
            let mut v = self.initial.clone();
            v.sort_unstable();
            return v;
        }
        self.vrps_at(self.epochs.len() - 1)
    }

    /// Total delta records across all epochs.
    pub fn total_events(&self) -> usize {
        self.epochs.iter().map(ChurnEpoch::len).sum()
    }
}

/// Freshly minted address space for issuance events: far above the world
/// generator's bump allocator (which starts at 1.0.0.0 / 2001:: and stays
/// well under half of each space at paper scale), so minted prefixes never
/// collide with generated allocations.
const FRESH_V4_BASE: u64 = 0xF000_0000;
const FRESH_V6_BASE: u128 = 0x3000_0000_0000_0000_0000_0000_0000_0000;

/// Turns an initial VRP set into a deterministic [`ChurnTimeline`].
#[derive(Debug, Clone)]
pub struct ChurnGenerator {
    config: ChurnConfig,
    rng: StdRng,
    /// The current set (epoch boundaries only).
    current: BTreeSet<Vrp>,
    /// Withdrawn-by-expiry pool, eligible for re-issuance.
    retired: Vec<Vrp>,
    /// Flapped down last epoch; re-announced at the next epoch's start.
    pending_flap: Vec<Vrp>,
    /// Bump cursors for freshly minted prefixes.
    fresh_v4: u64,
    fresh_v6: u128,
}

impl ChurnGenerator {
    /// A generator over an initial VRP set.
    pub fn new(initial: impl IntoIterator<Item = Vrp>, config: ChurnConfig) -> ChurnGenerator {
        ChurnGenerator {
            rng: StdRng::seed_from_u64(config.seed),
            config,
            current: initial.into_iter().collect(),
            retired: Vec::new(),
            pending_flap: Vec::new(),
            fresh_v4: FRESH_V4_BASE,
            fresh_v6: FRESH_V6_BASE,
        }
    }

    /// Generates the whole timeline, consuming the generator.
    pub fn generate(mut self) -> ChurnTimeline {
        let initial: Vec<Vrp> = self.current.iter().copied().collect();
        let epochs = (0..self.config.epochs).map(|i| self.epoch(i)).collect();
        ChurnTimeline { initial, epochs }
    }

    /// Builds one epoch and advances the current set past it.
    fn epoch(&mut self, index: usize) -> ChurnEpoch {
        // The epoch-start pool events sample withdrawals from.
        let pool: Vec<Vrp> = self.current.iter().copied().collect();
        let mut announced: BTreeSet<Vrp> = BTreeSet::new();
        let mut withdrawn: BTreeSet<Vrp> = BTreeSet::new();

        // Flapped VRPs come back first: they were removed last epoch, so
        // re-announcing keeps the epoch clean by construction.
        for v in std::mem::take(&mut self.pending_flap) {
            announced.insert(v);
        }

        // A flap begun in the final epoch could never re-announce, so the
        // last epoch draws no new flaps (keeping flaps transient, as the
        // profile documents).
        let flaps_allowed = index + 1 < self.config.epochs;
        for _ in 0..self.config.events_per_epoch {
            let profile = self.event_profile();
            if profile == ChurnProfile::FlapBurst && !flaps_allowed {
                continue;
            }
            self.push_event(profile, &pool, &mut announced, &mut withdrawn);
        }

        for v in &withdrawn {
            self.current.remove(v);
        }
        for v in &announced {
            self.current.insert(*v);
        }
        ChurnEpoch {
            index,
            announced: announced.into_iter().collect(),
            withdrawn: withdrawn.into_iter().collect(),
        }
    }

    /// The concrete event kind for one event slot.
    fn event_profile(&mut self) -> ChurnProfile {
        match self.config.profile {
            ChurnProfile::Mixed => {
                // Issuance slightly outweighs expiry so mixed timelines
                // grow like Figure 3's RPKI curve.
                let roll = self.rng.gen_range(0u32..100);
                match roll {
                    0..=29 => ChurnProfile::Issuance,
                    30..=49 => ChurnProfile::Expiry,
                    50..=69 => ChurnProfile::MaxLengthEdit,
                    70..=79 => ChurnProfile::AsnTransfer,
                    _ => ChurnProfile::FlapBurst,
                }
            }
            fixed => fixed,
        }
    }

    /// Applies one event to the epoch's delta sets; events that cannot
    /// find a target (empty pool, value collisions) are skipped, keeping
    /// the epoch clean rather than padding it with junk.
    fn push_event(
        &mut self,
        kind: ChurnProfile,
        pool: &[Vrp],
        announced: &mut BTreeSet<Vrp>,
        withdrawn: &mut BTreeSet<Vrp>,
    ) {
        match kind {
            ChurnProfile::Issuance => {
                // Renew an expired ROA half the time, else mint fresh
                // space. A retired VRP is only taken out of the renewal
                // pool when it is actually announceable (e.g. one expired
                // earlier in this same epoch still counts as present
                // until the epoch ends) — an infeasible draw stays
                // renewable in a later epoch.
                let mut renewed = None;
                if !self.retired.is_empty() && self.rng.gen_bool(0.5) {
                    let at = self.rng.gen_range(0..self.retired.len());
                    let candidate = self.retired[at];
                    if !self.current.contains(&candidate) && !announced.contains(&candidate) {
                        self.retired.swap_remove(at);
                        renewed = Some(candidate);
                    }
                }
                let vrp = match renewed {
                    Some(v) => v,
                    None => self.mint_fresh(),
                };
                if !self.current.contains(&vrp) && !announced.contains(&vrp) {
                    announced.insert(vrp);
                }
            }
            ChurnProfile::Expiry => {
                if let Some(vrp) = self.pick_live(pool, announced, withdrawn) {
                    withdrawn.insert(vrp);
                    self.retired.push(vrp);
                }
            }
            ChurnProfile::MaxLengthEdit => {
                if let Some(vrp) = self.pick_live(pool, announced, withdrawn) {
                    let ceiling = vrp.prefix.max_len().min(vrp.prefix.len() + 4);
                    let new_max = self.rng.gen_range(vrp.prefix.len()..=ceiling);
                    let edited = Vrp::new(vrp.prefix, new_max, vrp.asn);
                    if edited != vrp
                        && !self.current.contains(&edited)
                        && !announced.contains(&edited)
                    {
                        withdrawn.insert(vrp);
                        announced.insert(edited);
                    }
                }
            }
            ChurnProfile::AsnTransfer => {
                if let Some(vrp) = self.pick_live(pool, announced, withdrawn) {
                    let moved = Vrp::new(
                        vrp.prefix,
                        vrp.max_len,
                        Asn(vrp.asn.0.wrapping_add(self.rng.gen_range(1u32..1000))),
                    );
                    if !self.current.contains(&moved) && !announced.contains(&moved) {
                        withdrawn.insert(vrp);
                        announced.insert(moved);
                    }
                }
            }
            ChurnProfile::FlapBurst => {
                if let Some(vrp) = self.pick_live(pool, announced, withdrawn) {
                    withdrawn.insert(vrp);
                    self.pending_flap.push(vrp);
                }
            }
            ChurnProfile::Mixed => unreachable!("resolved by event_profile"),
        }
    }

    /// A random VRP that is present at epoch start and untouched so far
    /// this epoch (bounded retries keep generation O(events)).
    fn pick_live(
        &mut self,
        pool: &[Vrp],
        announced: &BTreeSet<Vrp>,
        withdrawn: &BTreeSet<Vrp>,
    ) -> Option<Vrp> {
        if pool.is_empty() {
            return None;
        }
        for _ in 0..8 {
            let vrp = pool[self.rng.gen_range(0..pool.len())];
            if !withdrawn.contains(&vrp) && !announced.contains(&vrp) {
                return Some(vrp);
            }
        }
        None
    }

    /// Mints a VRP on never-before-used address space.
    fn mint_fresh(&mut self) -> Vrp {
        let v6 = self.rng.gen_bool(self.config.v6_fraction);
        let prefix = if v6 {
            let len = self.rng.gen_range(32u8..=48);
            let size = 1u128 << (128 - len as u32);
            let base = self.fresh_v6.div_ceil(size) * size;
            self.fresh_v6 = base + size;
            // `base` is a multiple of `size`, so no host bit is set.
            Prefix::V6(Prefix6::new(base, len).expect("aligned by construction"))
        } else {
            let len = self.rng.gen_range(16u8..=24);
            let size = 1u64 << (32 - len as u32);
            let base = self.fresh_v4.div_ceil(size) * size;
            assert!(base + size <= 1 << 32, "fresh IPv4 space exhausted");
            self.fresh_v4 = base + size;
            // `base` is a multiple of `size` and below 2^32 (asserted).
            Prefix::V4(Prefix4::new(base as u32, len).expect("aligned by construction"))
        };
        let max_len = prefix.len()
            + self
                .rng
                .gen_range(0u8..=2)
                .min(prefix.max_len() - prefix.len());
        Vrp::new(prefix, max_len, Asn(self.rng.gen_range(100u32..100_000)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GeneratorConfig, World};

    fn initial_set() -> Vec<Vrp> {
        World::generate(GeneratorConfig::small(42))
            .snapshot(7)
            .vrps()
    }

    fn timeline(profile: ChurnProfile, seed: u64) -> ChurnTimeline {
        ChurnGenerator::new(
            initial_set(),
            ChurnConfig {
                seed,
                epochs: 12,
                events_per_epoch: 24,
                profile,
                ..ChurnConfig::default()
            },
        )
        .generate()
    }

    #[test]
    fn deterministic_in_seed() {
        let a = timeline(ChurnProfile::Mixed, 7);
        let b = timeline(ChurnProfile::Mixed, 7);
        assert_eq!(a, b);
        let c = timeline(ChurnProfile::Mixed, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn epochs_are_clean() {
        for profile in ChurnProfile::ALL {
            let t = timeline(profile, 11);
            let mut current: BTreeSet<Vrp> = t.initial.iter().copied().collect();
            for epoch in &t.epochs {
                for v in &epoch.announced {
                    assert!(!current.contains(v), "{profile:?}: announced twice: {v}");
                }
                for v in &epoch.withdrawn {
                    assert!(current.contains(v), "{profile:?}: withdrew absent: {v}");
                    assert!(
                        !epoch.announced.contains(v),
                        "{profile:?}: {v} in both lists"
                    );
                }
                for v in &epoch.withdrawn {
                    current.remove(v);
                }
                current.extend(epoch.announced.iter().copied());
            }
            assert_eq!(
                current.into_iter().collect::<Vec<_>>(),
                t.final_vrps(),
                "{profile:?}"
            );
        }
    }

    #[test]
    fn profiles_shape_the_timeline() {
        let issuance = timeline(ChurnProfile::Issuance, 3);
        assert!(issuance.final_vrps().len() > issuance.initial.len());
        assert!(issuance.epochs.iter().all(|e| e.withdrawn.is_empty()));

        let expiry = timeline(ChurnProfile::Expiry, 3);
        assert!(expiry.final_vrps().len() < expiry.initial.len());
        assert!(expiry.epochs.iter().all(|e| e.announced.is_empty()));

        // Edits and transfers keep the set size fixed.
        for profile in [ChurnProfile::MaxLengthEdit, ChurnProfile::AsnTransfer] {
            let t = timeline(profile, 3);
            assert_eq!(t.final_vrps().len(), t.initial.len(), "{profile:?}");
            for e in &t.epochs {
                assert_eq!(e.announced.len(), e.withdrawn.len());
                assert!(!e.is_empty());
            }
        }

        // Flaps: everything withdrawn comes back one epoch later, and a
        // pure-flap timeline is net-lossless — no flap is left stranded
        // by the final epoch.
        let flap = timeline(ChurnProfile::FlapBurst, 3);
        for pair in flap.epochs.windows(2) {
            for v in &pair[0].withdrawn {
                assert!(pair[1].announced.contains(v), "flap {v} never returned");
            }
        }
        assert!(flap.epochs.last().unwrap().withdrawn.is_empty());
        assert_eq!(flap.final_vrps(), flap.initial);
    }

    #[test]
    fn maxlen_edit_changes_only_maxlen() {
        let t = timeline(ChurnProfile::MaxLengthEdit, 5);
        for e in &t.epochs {
            for (a, w) in e.announced.iter().zip(&e.withdrawn) {
                assert_eq!(a.prefix, w.prefix);
                assert_eq!(a.asn, w.asn);
                assert_ne!(a.max_len, w.max_len);
            }
        }
    }

    #[test]
    fn minted_space_disjoint_from_world() {
        let t = timeline(ChurnProfile::Issuance, 9);
        let initial: BTreeSet<Vrp> = t.initial.iter().copied().collect();
        for e in &t.epochs {
            for v in &e.announced {
                assert!(!initial.contains(v));
            }
        }
    }

    #[test]
    fn vrps_at_walks_the_chain() {
        let t = timeline(ChurnProfile::Mixed, 13);
        let last = t.epochs.len() - 1;
        assert_eq!(t.vrps_at(last), t.final_vrps());
        // Each step differs from its predecessor by exactly the epoch's
        // delta record count (clean epochs make this exact).
        let mut prev: BTreeSet<Vrp> = t.initial.iter().copied().collect();
        for (i, e) in t.epochs.iter().enumerate() {
            let now: BTreeSet<Vrp> = t.vrps_at(i).into_iter().collect();
            let gained = now.difference(&prev).count();
            let lost = prev.difference(&now).count();
            assert_eq!(gained, e.announced.len());
            assert_eq!(lost, e.withdrawn.len());
            prev = now;
        }
    }

    #[test]
    fn empty_initial_set_still_churns() {
        let t = ChurnGenerator::new(
            [],
            ChurnConfig {
                epochs: 4,
                events_per_epoch: 8,
                profile: ChurnProfile::Mixed,
                ..ChurnConfig::default()
            },
        )
        .generate();
        assert!(t.initial.is_empty());
        // Only issuance can fire on an empty set; the set grows.
        assert!(!t.final_vrps().is_empty());
    }
}
