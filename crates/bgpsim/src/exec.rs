//! The trial executor: the one orchestration layer under every
//! simulation loop — seeding, scheduling, policy compilation and
//! per-cell aggregation for any grid or sweep.
//!
//! * [`TrialPlan`] — the IR: an enumeration of `(topology, strategy,
//!   deployment, ROA, trial)` work items;
//! * [`Executor`] — sequential and threaded backends scheduling those items
//!   over the process-wide [`crate::engine::Workspace`] pool, with a
//!   deployment-keyed policy cache and cross-deployment outcome replay;
//! * [`Accumulator`] — a streaming per-cell monoid ([`CellAccumulator`]
//!   is the one that ships), so memory stays O(cells), not
//!   O(cells × trials);
//! * [`PlanCursor`] — a resumable checkpoint over the item stream, so a
//!   multi-hour grid can stop and restart deterministically
//!   ([`PlanSession::run_until`]).
//!
//! What a cursor counts is a **trial group**: one `(topology, trial)` —
//! one attacker/victim placement — across every ROA configuration,
//! strategy and deployment; group `g` is trial `g % trials` of topology
//! `g / trials`, and it is also what a worker claims. A worker defers
//! the transparent head-to-head stagings of the groups it runs into one
//! lane batch, so up to 16 of them share a lane-kernel sweep (see
//! [`crate::engine`]). Sharing of outcomes happens inside a group, never
//! in a per-worker cache, and every lane is exact whatever shares its
//! sweep, so what a run computes ([`ExecStats`]) does not depend on
//! which worker claimed what, nor on where a checkpoint cut a batch. An
//! encoded cursor carries the numbering and its counters in its magic
//! (`maxlength-cursor-v5`, counting stagings by kind): a `v1` text
//! counted `(topology, ROA, trial)` groups, `v2` to `v4` texts carry
//! older counter sets, and [`PlanCursor::decode`] refuses all four.
//!
//! # Determinism contract
//!
//! Every number the executor produces is a pure function of the plan:
//!
//! * **Trial derivation.** Trial `t` of every cell samples its
//!   attacker/victim pair from its own `StdRng::seed_from_u64(seed ^ t)`
//!   stream (see [`crate::experiment`]); deployment draws come from the
//!   domain-separated `seed ^ POLICY_DOMAIN` stream. No work item shares
//!   RNG state with any other, so items can execute in any order — or
//!   concurrently — and observe identical worlds. Plans carrying a
//!   destination axis ([`DestinationSampler`]) instead key trial `t`'s
//!   stream by `destinations[t]`'s identity, which is what makes a
//!   sampled plan a restriction of the full enumeration.
//! * **Cell ordering.** Cells are indexed in axis order — topology,
//!   then strategy, then deployment, then ROA (ROA varies fastest) —
//!   and every `run*` method returns accumulators in that order.
//! * **Fold ordering.** Each cell's accumulator absorbs that cell's
//!   outcomes in ascending trial order, so the floating-point
//!   reductions are bit-identical to folding [`run_plan_collected`]'s
//!   per-cell vectors, at any thread count and any checkpoint
//!   granularity.
//!
//! # What the executor reuses (and why it is still bit-identical)
//!
//! * **Policies** are compiled once per *distinct* `(topology,
//!   deployment)` pair — never per cell — through a deployment-keyed
//!   cache that keeps only the [`CompiledPolicies`] bitset; uniform
//!   deployments at many adoption levels (a sweep) share
//!   one pass over the threshold stream
//!   ([`DeploymentModel::uniform_thresholds`]), which is bit-identical
//!   to replaying `policies()` per level.
//! * **The victim-only world is answered from structure.** The victim's
//!   own origin is Valid or NotFound under every [`RoaConfig`] (a group
//!   asserts this per ROA), so by [`Topology`]'s hierarchy invariant its
//!   announcement reaches every AS, and a route leak plans from
//!   [`crate::PropagationEngine::unfiltered_path_len`], asked once per
//!   trial group and remembered for its other stagings. The victim-only
//!   propagation itself (the **baseline**) is run only for a staging
//!   that reads it, at most once per trial group;
//!   [`ExecStats::baselines`] counts those runs.
//! * **Stagings by kind.** Before anything runs, each staging is
//!   classified by its plan, the victim's and the attack's filters and
//!   whether the engine takes its seed; [`ExecStats`] counts it under
//!   that kind ([`ExecStats::silent`] to [`ExecStats::stacked`]), or as
//!   a [`ExecStats::memo`] hit. A *transparent* filter (no claimed origin
//!   Invalid) accepts at every AS under every deployment and VRP set, so
//!   once the group fixes topology, victim and attacker, a transparent
//!   head-to-head staging's outcome depends only on the attacker's path
//!   length and claimed origin, and a transparent less-specific one's on
//!   nothing else: later stagings with the same key, under another ROA
//!   or strategy, reuse the first one's outcome. Most of the paper's grid
//!   is such stagings: the forged-origin attacks claim the victim's own
//!   origin. The worker defers its lanes: a group records a slot of the
//!   worker's lane batch where the outcome will be, and a memo hit or a
//!   footprint replay records the same slot. The batch settles 16
//!   stagings a sweep and is flushed when full, when 16 groups wait on
//!   it, when the topology changes and when the worker runs out of
//!   groups; a group's outcomes are absorbed once its slots are resolved.
//! * **Speculative cross-cell execution (Block-STM style).** Per trial
//!   group and ROA, each strategy is propagated **once**, against the
//!   first deployment on the axis, while the engine records its *filter
//!   footprint* ([`crate::engine::FilterFootprint`]): the exact set of
//!   (AS, decision) pairs for which an [`crate::engine::OriginFilter`]
//!   consulted the adopter bitset. For every other deployment the
//!   footprint is validated in O(|footprint|) — if every recorded
//!   decision reproduces under that cell's bitset, the speculated
//!   outcome is replayed; only genuinely divergent cells re-propagate.
//!
//!   The **footprint-soundness invariant**: every adopter-bitset
//!   consultation any of the trial's propagations performs is recorded
//!   (valid/NotFound-origin decisions are `true` under every deployment
//!   and need no record), and each recorded decision is a pure function
//!   of the bitset at that AS — so footprint-equal ⇒ the propagation
//!   unfolds through the identical import decisions ⇒ outcome-equal,
//!   bit for bit. A trial whose filters were all transparent records an
//!   *empty* footprint and validates against every deployment; cells
//!   that differ only in ASes the route computation never consulted
//!   are replayed too.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};

use rpki_prefix::Prefix;

use crate::attack::{AttackOutcome, AttackSetup};
use crate::deployment::DeploymentModel;
use crate::engine::{
    check_in_workspaces, check_out_workspaces, with_installed_workspace, CompiledPolicies,
    FilterFootprint, OriginFilter, PropagationEngine, LANES,
};
use crate::experiment::{destination_pair, trial_pair, RoaConfig};
use crate::strategy::{run_strategy, stage, AttackerStrategy, LaneBatch, Staged, TrialGroup};
use crate::topology::Topology;

/// Seeded sampling of destination (victim) stubs — the axis that makes
/// internet-scale plans tractable. At 80k ASes you measure a sampled
/// destination set, not all ~68k stubs; the sampler picks `count`
/// distinct stubs from its own seeded stream.
///
/// # Restriction contract
///
/// A plan built over a sample is **provably the full plan restricted to
/// the sampled set**: [`DestinationSampler::sample`] returns the stubs
/// sorted ascending, so the sampled enumeration is a subsequence of the
/// all-stubs enumeration, and
/// [`crate::experiment`]'s `destination_pair` keys each destination's
/// attacker stream by the destination's identity rather than its trial
/// index. Folding the full plan's per-trial outcomes over only the
/// sampled destinations therefore reproduces the sampled plan's
/// accumulators bit-for-bit, at any thread count — pinned by the
/// `exec_props` differential suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DestinationSampler {
    /// Destinations to sample (clamped to the stub count).
    pub count: usize,
    /// Seed for the sampler's own stream (independent of the plan
    /// seed, so re-sampling never perturbs trial worlds).
    pub seed: u64,
}

impl DestinationSampler {
    /// Samples `count` distinct entries of `stubs` (all of them if
    /// `count >= stubs.len()`), sorted ascending.
    pub fn sample(&self, stubs: &[usize]) -> Vec<usize> {
        use rand::{Rng, SeedableRng};
        if self.count >= stubs.len() {
            return stubs.to_vec();
        }
        // Partial Fisher–Yates: the first `count` slots end up holding a
        // uniform distinct sample.
        let mut rng = rand::rngs::StdRng::seed_from_u64(self.seed);
        let mut pool: Vec<usize> = stubs.to_vec();
        for i in 0..self.count {
            let j = rng.gen_range(i..pool.len());
            pool.swap(i, j);
        }
        pool.truncate(self.count);
        pool.sort_unstable();
        pool
    }
}

/// One labelled point on a plan's topology axis (borrowed: plans are
/// cheap views over axes their builder owns).
pub struct PlanTopology<'a> {
    /// Display label (stable: golden fixtures key on it).
    pub label: String,
    /// The generated AS graph.
    pub topology: &'a Topology,
}

/// The executor's IR: a cross-product of scenario axes enumerating
/// `cell_count() × trials` work items.
///
/// A *cell* is one `(topology, strategy, deployment, ROA)` tuple; an
/// *item* is one trial of one cell. See the [module docs](self) for the
/// ordering and determinism contract.
pub struct TrialPlan<'a> {
    /// Topology axis.
    pub topologies: Vec<PlanTopology<'a>>,
    /// Attacker-strategy axis.
    pub strategies: Vec<&'a dyn AttackerStrategy>,
    /// ROV-deployment axis.
    pub deployments: Vec<DeploymentModel>,
    /// ROA-configuration axis.
    pub roas: Vec<RoaConfig>,
    /// Attacker/victim pairs sampled per cell (the same pairs in every
    /// cell, for comparability).
    pub trials: usize,
    /// Base seed: trial pairs derive from `seed ^ trial`, deployment
    /// draws from `seed ^ POLICY_DOMAIN`.
    pub seed: u64,
    /// The victim's announced prefix `p`.
    pub victim_prefix: Prefix,
    /// The canonical attacked subprefix `q ⊆ p`.
    pub sub_prefix: Prefix,
    /// The destination-sampling axis: when set, trial `t` measures
    /// destination `destinations[t]` as the victim (attacker drawn from
    /// the destination-keyed stream; see [`DestinationSampler`]) and
    /// `trials == destinations.len()`. When `None`, trial `t` samples
    /// its pair from the classic `seed ^ trial` stream.
    pub destinations: Option<Vec<usize>>,
}

impl<'a> TrialPlan<'a> {
    /// A plan over the given axes with the canonical staged prefixes
    /// (`168.122.0.0/16` attacked at `168.122.0.0/24` — the paper's §4
    /// running example, shared by every shipped trial loop).
    pub fn new(
        topologies: Vec<PlanTopology<'a>>,
        strategies: Vec<&'a dyn AttackerStrategy>,
        deployments: Vec<DeploymentModel>,
        roas: Vec<RoaConfig>,
        trials: usize,
        seed: u64,
    ) -> TrialPlan<'a> {
        TrialPlan {
            topologies,
            strategies,
            deployments,
            roas,
            trials,
            seed,
            victim_prefix: "168.122.0.0/16".parse().expect("static"),
            sub_prefix: "168.122.0.0/24".parse().expect("static"),
            destinations: None,
        }
    }

    /// Replaces the trial axis with an explicit destination set: trial
    /// `t` measures `destinations[t]` as the victim (`trials` becomes
    /// `destinations.len()`). Destinations must be stubs of every
    /// topology on the axis and sorted ascending — the order that makes
    /// a sampled plan a subsequence (and therefore a restriction) of
    /// the full-enumeration plan.
    pub fn with_destinations(mut self, destinations: Vec<usize>) -> TrialPlan<'a> {
        self.trials = destinations.len();
        self.destinations = Some(destinations);
        self
    }

    /// Samples a destination set from the plan's single topology and
    /// installs it via [`Self::with_destinations`].
    ///
    /// # Panics
    ///
    /// Panics unless the plan has exactly one topology (a sampled
    /// destination set is only meaningful against the graph it was
    /// drawn from).
    pub fn with_destination_sampler(self, sampler: &DestinationSampler) -> TrialPlan<'a> {
        assert_eq!(
            self.topologies.len(),
            1,
            "destination sampling needs a single-topology plan"
        );
        let sampled = sampler.sample(self.topologies[0].topology.stubs());
        self.with_destinations(sampled)
    }

    /// Number of cells the cross-product spans.
    pub fn cell_count(&self) -> usize {
        self.topologies.len() * self.strategies.len() * self.deployments.len() * self.roas.len()
    }

    /// Total work items (`cell_count() × trials`).
    pub fn item_count(&self) -> usize {
        self.cell_count() * self.trials
    }

    /// Decodes a cell index into its `(topology, strategy, deployment,
    /// roa)` axis indices — the inverse of the canonical ordering.
    pub fn cell_axes(&self, cell: usize) -> (usize, usize, usize, usize) {
        let r = self.roas.len();
        let d = self.deployments.len();
        let s = self.strategies.len();
        let ri = cell % r;
        let di = (cell / r) % d;
        let si = (cell / (r * d)) % s;
        let ti = cell / (r * d * s);
        (ti, si, di, ri)
    }

    /// The `(victim, attacker)` AS indices trial `trial` stages on
    /// topology `ti` — the plan's deterministic pair derivation
    /// (destination-keyed when a destination set is installed, classic
    /// `seed ^ trial` otherwise), exposed so tests can reconstruct a
    /// trial's world from the outside.
    pub fn trial_endpoints(&self, ti: usize, trial: usize) -> (usize, usize) {
        let stubs = self.topologies[ti].topology.stubs();
        match &self.destinations {
            Some(dests) => destination_pair(self.seed, stubs, dests[trial]),
            None => trial_pair(self.seed, stubs, trial),
        }
    }

    /// The canonical index of a cell from its axis indices.
    pub fn cell_index(&self, ti: usize, si: usize, di: usize, ri: usize) -> usize {
        ((ti * self.strategies.len() + si) * self.deployments.len() + di) * self.roas.len() + ri
    }

    /// A fresh checkpoint cursor positioned at the start of the plan.
    pub fn cursor<A: Accumulator>(&self) -> PlanCursor<A> {
        PlanCursor {
            accs: vec![A::empty(); self.cell_count()],
            next_group: 0,
            total_groups: self.group_count(),
            stats: ExecStats::default(),
        }
    }

    /// Trial groups: one per `(topology, trial)`.
    fn group_count(&self) -> usize {
        self.topologies.len() * self.trials
    }

    /// Work items in one trial group.
    fn group_items(&self) -> usize {
        self.item_count() / self.group_count()
    }

    fn validate(&self) {
        assert!(self.trials > 0, "need at least one trial per cell");
        assert!(!self.topologies.is_empty(), "empty topology axis");
        assert!(!self.strategies.is_empty(), "empty strategy axis");
        assert!(!self.deployments.is_empty(), "empty deployment axis");
        assert!(!self.roas.is_empty(), "empty ROA axis");
        assert!(
            self.victim_prefix.covers(self.sub_prefix),
            "sub_prefix must be inside victim_prefix"
        );
        for t in &self.topologies {
            assert!(
                t.topology.stubs().len() >= 2,
                "need at least two stubs in {}",
                t.label
            );
        }
        if let Some(dests) = &self.destinations {
            assert_eq!(
                dests.len(),
                self.trials,
                "destination set and trial count out of sync"
            );
            assert!(
                dests.windows(2).all(|w| w[0] < w[1]),
                "destinations must be sorted ascending and distinct"
            );
            for t in &self.topologies {
                for &d in dests {
                    assert!(
                        t.topology.stubs().binary_search(&d).is_ok(),
                        "destination {d} is not a stub of {}",
                        t.label
                    );
                }
            }
        }
    }
}

/// A streaming per-cell fold: the monoid replacing collected
/// `Vec<AttackOutcome>`s. Absorbing a cell's outcomes in ascending trial
/// order reproduces the corresponding collect-then-fold reduction
/// bit-for-bit; `encode`/`decode` round-trip the state exactly (floats
/// as IEEE-754 bits) so a [`PlanCursor`] can be persisted across
/// process restarts.
pub trait Accumulator: Clone + Send {
    /// The rendered statistic this accumulator folds toward.
    type Output;

    /// The identity element.
    fn empty() -> Self;

    /// Folds one trial outcome into the cell.
    fn absorb(&mut self, outcome: &AttackOutcome);

    /// The cell statistic accumulated so far.
    fn finish(&self) -> Self::Output;

    /// Appends an exact textual encoding of the state to `out` (no
    /// whitespace; floats as hex bit patterns).
    fn encode(&self, out: &mut String);

    /// Parses [`Self::encode`]'s output. `None` on malformed input.
    fn decode(s: &str) -> Option<Self>;
}

fn push_bits(out: &mut String, bits: &[u64]) {
    for (i, b) in bits.iter().enumerate() {
        if i > 0 {
            out.push(':');
        }
        out.push_str(&format!("{b:x}"));
    }
}

fn parse_bits<const N: usize>(s: &str) -> Option<[u64; N]> {
    let mut out = [0u64; N];
    let mut parts = s.split(':');
    for slot in &mut out {
        *slot = u64::from_str_radix(parts.next()?, 16).ok()?;
    }
    parts.next().is_none().then_some(out)
}

/// The streaming form of [`crate::matrix::CellStats`]: what the matrix
/// folds per cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellAccumulator {
    trials: usize,
    eligible: usize,
    sum: f64,
    min: f64,
    max: f64,
    disconnected_sum: f64,
}

impl Accumulator for CellAccumulator {
    type Output = crate::matrix::CellStats;

    fn empty() -> CellAccumulator {
        CellAccumulator {
            trials: 0,
            eligible: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: 0.0,
            disconnected_sum: 0.0,
        }
    }

    fn absorb(&mut self, o: &AttackOutcome) {
        self.trials += 1;
        let routed = o.intercepted + o.legitimate;
        let total = routed + o.disconnected;
        if total > 0 {
            self.disconnected_sum += o.disconnected as f64 / total as f64;
        }
        if routed == 0 {
            return;
        }
        self.eligible += 1;
        let f = o.interception_fraction();
        self.sum += f;
        self.min = self.min.min(f);
        self.max = self.max.max(f);
    }

    fn finish(&self) -> crate::matrix::CellStats {
        crate::matrix::CellStats {
            trials: self.trials,
            eligible: self.eligible,
            mean_interception: if self.eligible == 0 {
                0.0
            } else {
                self.sum / self.eligible as f64
            },
            min_interception: if self.min.is_finite() { self.min } else { 0.0 },
            max_interception: self.max,
            mean_disconnected: if self.trials == 0 {
                0.0
            } else {
                self.disconnected_sum / self.trials as f64
            },
        }
    }

    fn encode(&self, out: &mut String) {
        push_bits(
            out,
            &[
                self.trials as u64,
                self.eligible as u64,
                self.sum.to_bits(),
                self.min.to_bits(),
                self.max.to_bits(),
                self.disconnected_sum.to_bits(),
            ],
        );
    }

    fn decode(s: &str) -> Option<CellAccumulator> {
        let [trials, eligible, sum, min, max, dsum] = parse_bits::<6>(s)?;
        Some(CellAccumulator {
            trials: trials as usize,
            eligible: eligible as usize,
            sum: f64::from_bits(sum),
            min: f64::from_bits(min),
            max: f64::from_bits(max),
            disconnected_sum: f64::from_bits(dsum),
        })
    }
}

/// What a run actually did — the observability the policy-cache and
/// replay regressions assert on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Work items the plan enumerated (`cell_count × trials`).
    pub items: usize,
    /// Policy vectors compiled: one per distinct `(topology, deployment)`
    /// pair — **never** one per cell.
    pub compilations: usize,
    /// Strategy stagings run, not replayed from a footprint: one per
    /// `(strategy, ROA)` of each trial group, plus one per re-propagated
    /// cell. Each is planned, and counted below by how it was answered
    /// ([`Self::silent`] to [`Self::memo`]).
    pub executed: usize,
    /// Footprint validations performed: one per `(strategy, deployment)`
    /// cell beyond the speculated first deployment.
    pub footprint_checks: usize,
    /// Footprint validations that passed — cells whose outcome was
    /// replayed from the speculative execution instead of re-propagated
    /// (`executed + cells_replayed == items`).
    pub cells_replayed: usize,
    /// Footprint validations that failed — cells whose filter decisions
    /// genuinely diverged and were re-propagated.
    pub cells_repropagated: usize,
    /// Victim-only baseline propagations run: one per `(topology,
    /// trial)` in which some staging read the baseline — a custom
    /// strategy, or a silent or stacked staging. 0 for the standard
    /// strategies.
    pub baselines: usize,
    /// Executed stagings that announced nothing toward their target: the
    /// baseline alone is tallied.
    pub silent: usize,
    /// Executed transparent more-specific stagings: the attacker wins
    /// every AS, with no engine run.
    pub structural: usize,
    /// Executed transparent head-to-head stagings, each a lane of the
    /// outcome-only kernel, whatever else shared its sweep.
    pub lane: usize,
    /// Executed stagings tallied off a push run: other head-to-head
    /// stagings, and filtered more-specific ones.
    pub push: usize,
    /// Executed stagings propagated alone and tallied beside the
    /// baseline: less-specific ones, and more-specific ones whose victim
    /// some AS filters.
    pub stacked: usize,
    /// Executed stagings answered from their trial group's memo, with no
    /// engine run. With the five kinds above it partitions `executed`;
    /// a pass runs the engine `lane + push + stacked + baselines` times.
    pub memo: usize,
}

impl ExecStats {
    /// The counters a trial group adds to, in the order a cursor encodes
    /// them (`items` and `compilations` belong to the plan).
    fn group_counters(&mut self) -> [&mut usize; 11] {
        [
            &mut self.executed,
            &mut self.footprint_checks,
            &mut self.cells_replayed,
            &mut self.cells_repropagated,
            &mut self.baselines,
            &mut self.silent,
            &mut self.structural,
            &mut self.lane,
            &mut self.push,
            &mut self.stacked,
            &mut self.memo,
        ]
    }

    /// Adds one trial group's counters.
    fn add_group(&mut self, mut group: ExecStats) {
        let adds = group.group_counters();
        for (sum, add) in self.group_counters().into_iter().zip(adds) {
            *sum += *add;
        }
    }
}

/// A resumable checkpoint over a plan's item stream.
///
/// The cursor owns the streaming accumulators (O(cells) state) and the
/// next unprocessed trial group; [`PlanSession::run_until`] advances it.
/// Interrupt, [`encode`](Self::encode) to stable storage, restart,
/// [`decode`](Self::decode), resume: the finished grid is bit-identical
/// to a straight-through run.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanCursor<A> {
    accs: Vec<A>,
    next_group: usize,
    total_groups: usize,
    /// Group counters only; see [`PlanSession::cursor_stats`].
    stats: ExecStats,
}

impl<A: Accumulator> PlanCursor<A> {
    /// `true` once every item has been absorbed.
    pub fn is_done(&self) -> bool {
        self.next_group >= self.total_groups
    }

    /// Fraction of trial groups processed, in `[0, 1]`.
    pub fn progress(&self) -> f64 {
        if self.total_groups == 0 {
            1.0
        } else {
            self.next_group as f64 / self.total_groups as f64
        }
    }

    /// The accumulated cells, in canonical cell order. Call after
    /// [`Self::is_done`]; partial reads are allowed (cells not yet
    /// reached are empty accumulators).
    pub fn accumulators(&self) -> &[A] {
        &self.accs
    }

    /// Consumes the cursor, returning the accumulators in canonical
    /// cell order.
    pub fn into_accumulators(self) -> Vec<A> {
        self.accs
    }

    /// Serializes the full cursor state (position, counters, and every
    /// accumulator, floats as exact bit patterns) into one line of text.
    pub fn encode(&self) -> String {
        let mut out = format!("{CURSOR_MAGIC} {} {}", self.next_group, self.total_groups);
        let mut stats = self.stats;
        for counter in stats.group_counters() {
            out.push_str(&format!(" {counter}"));
        }
        for a in &self.accs {
            out.push(' ');
            a.encode(&mut out);
        }
        out
    }

    /// Parses [`Self::encode`]'s output. `None` on malformed input —
    /// which a line of an older version is (see the module docs), and a
    /// position past the last group.
    pub fn decode(s: &str) -> Option<PlanCursor<A>> {
        let mut fields = s.split(' ');
        if fields.next()? != CURSOR_MAGIC {
            return None;
        }
        let mut number = || fields.next()?.parse::<usize>().ok();
        let (next_group, total_groups) = (number()?, number()?);
        let mut stats = ExecStats::default();
        for counter in stats.group_counters() {
            *counter = number()?;
        }
        let accs = fields.map(A::decode).collect::<Option<Vec<A>>>()?;
        // A position past the end would read as a finished grid.
        if next_group > total_groups {
            return None;
        }
        Some(PlanCursor {
            accs,
            next_group,
            total_groups,
            stats,
        })
    }
}

/// First field of an encoded [`PlanCursor`]; versions its group numbering
/// and its counters.
const CURSOR_MAGIC: &str = "maxlength-cursor-v5";

/// Resolves every `(topology, deployment)` pair of the plan through a
/// deployment-keyed cache: duplicate deployments on the axis share one
/// compilation, and uniform deployments share one pass over the
/// threshold stream regardless of how many adoption levels the axis
/// sweeps. Only the compiled bitset of a deployment is kept.
fn resolve_policies(plan: &TrialPlan<'_>) -> (Vec<Vec<Arc<CompiledPolicies>>>, usize) {
    let mut compilations = 0;
    let resolved = plan
        .topologies
        .iter()
        .map(|pt| {
            let mut cache: HashMap<(u8, u64), Arc<CompiledPolicies>> = HashMap::new();
            let mut thresholds: Option<Vec<f64>> = None;
            plan.deployments
                .iter()
                .map(|d| {
                    let key = match *d {
                        DeploymentModel::Uniform { p } => (0u8, p.to_bits()),
                        DeploymentModel::TopIspsFirst { p } => (1, p.to_bits()),
                        DeploymentModel::StubsOnly { p } => (2, p.to_bits()),
                    };
                    Arc::clone(cache.entry(key).or_insert_with(|| {
                        let policies = match *d {
                            DeploymentModel::Uniform { p } => {
                                // One threshold pass serves every uniform
                                // adoption level of the axis (the nested
                                // coupling, exploited).
                                let t = thresholds.get_or_insert_with(|| {
                                    DeploymentModel::uniform_thresholds(
                                        pt.topology.len(),
                                        plan.seed,
                                    )
                                });
                                DeploymentModel::uniform_from_thresholds(p, t)
                            }
                            _ => d.policies(pt.topology, plan.seed),
                        };
                        compilations += 1;
                        Arc::new(CompiledPolicies::compile(&policies))
                    }))
                })
                .collect()
        })
        .collect();
    (resolved, compilations)
}

/// The scheduling backend: sequential, or fanned out over worker threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Executor {
    parallel: bool,
}

impl Executor {
    /// Runs every item on the calling thread.
    pub fn sequential() -> Executor {
        Executor { parallel: false }
    }

    /// Fans trial groups out over `rayon::current_num_threads()` workers
    /// (`RAYON_NUM_THREADS` honored), the calling thread among them.
    /// The pass checks one propagation [`crate::engine::Workspace`] per
    /// worker out of a process-wide pool and returns them once every
    /// worker is joined, so the scratch outlives the spawned threads and
    /// the pool holds as many workspaces as the most workers a pass has
    /// used (see [`crate::engine::with_workspace`]).
    /// Bit-identical to [`Executor::sequential`] at every thread count.
    pub fn parallel() -> Executor {
        Executor { parallel: true }
    }

    /// Resolves the plan's policy axis once and returns a reusable
    /// session — the form checkpointed loops should hold on to, so each
    /// [`PlanSession::run_until`] call schedules trial groups instead of
    /// re-resolving (and re-compiling) every `(topology, deployment)`
    /// pair.
    pub fn session<'p, 'a>(&self, plan: &'p TrialPlan<'a>) -> PlanSession<'p, 'a> {
        plan.validate();
        let (resolved, compilations) = resolve_policies(plan);
        PlanSession {
            plan,
            parallel: self.parallel,
            resolved,
            compilations,
        }
    }

    /// Runs the whole plan, returning one accumulator per cell in
    /// canonical cell order.
    pub fn run<A: Accumulator>(&self, plan: &TrialPlan<'_>) -> Vec<A> {
        self.run_with_stats(plan).0
    }

    /// [`Self::run`] plus the run's [`ExecStats`].
    pub fn run_with_stats<A: Accumulator>(&self, plan: &TrialPlan<'_>) -> (Vec<A>, ExecStats) {
        self.session(plan).run_with_stats()
    }
}

/// A plan bound to its resolved (cached, compiled) policy axis: the
/// reusable execution handle behind every [`Executor`] entry point.
/// Creating one pays the policy resolution exactly once; `run_with_stats`
/// and any number of `run_until` checkpoint steps reuse it.
pub struct PlanSession<'p, 'a> {
    plan: &'p TrialPlan<'a>,
    parallel: bool,
    resolved: Vec<Vec<Arc<CompiledPolicies>>>,
    compilations: usize,
}

/// One trial group's absorb calls, in deterministic call order:
/// `(cell index, outcome)`.
type GroupOutcomes = [(usize, AttackOutcome)];

/// Absorbs one trial group's outcomes and counters.
fn absorb_group<A: Accumulator>(
    accs: &mut [A],
    stats: &mut ExecStats,
    outcomes: &GroupOutcomes,
    tally: &ExecStats,
) {
    stats.add_group(*tally);
    for (cell, outcome) in outcomes {
        accs[*cell].absorb(outcome);
    }
}

impl PlanSession<'_, '_> {
    /// `cursor`'s counters as a run's [`ExecStats`]: equal to
    /// [`Self::run_with_stats`]'s once the cursor is done.
    pub fn cursor_stats<A>(&self, cursor: &PlanCursor<A>) -> ExecStats {
        ExecStats {
            items: self.plan.item_count(),
            compilations: self.compilations,
            ..cursor.stats
        }
    }

    /// Runs the whole plan, returning one accumulator per cell in
    /// canonical cell order, plus the run's [`ExecStats`].
    ///
    /// Both backends hand trial groups out one at a time, in ascending
    /// order, to workers that defer the groups' transparent head-to-head
    /// stagings into one lane batch each. The parallel backend's workers
    /// are the calling thread and `threads − 1` scoped threads, which
    /// stream each group's buffered outcomes back to the calling thread
    /// once its lanes are settled (so buffered-outcome memory stays about
    /// O(threads × 16 groups), and total state O(cells)); every cell's
    /// accumulator still absorbs its outcomes in ascending group order
    /// on the calling thread, so the result is bit-identical to the
    /// sequential backend at any thread count.
    pub fn run_with_stats<A: Accumulator>(&self) -> (Vec<A>, ExecStats) {
        let plan = self.plan;
        let mut stats = ExecStats {
            items: plan.item_count(),
            compilations: self.compilations,
            ..ExecStats::default()
        };
        let groups = plan.group_count();
        let mut accs = vec![A::empty(); plan.cell_count()];
        if self.parallel {
            // One set of workers for the whole pass, the calling thread
            // among them, each claiming the next unclaimed group: no
            // worker is bound to a share fixed in advance, and none is
            // started or joined in mid-pass, so on a machine busy with
            // other work a pass slows by the CPU it lost and not by what
            // the unluckiest worker lost.
            let workers = rayon::current_num_threads().clamp(1, groups.max(1));
            let next = AtomicUsize::new(0);
            let claim = || Some(next.fetch_add(1, Ordering::Relaxed)).filter(|&g| g < groups);
            let mut scratch = check_out_workspaces(workers);
            let (mine, theirs) = scratch.split_first_mut().expect("at least one worker");
            std::thread::scope(|scope| {
                let (done, finished) = mpsc::channel();
                for ws in theirs {
                    let done = done.clone();
                    let next = &next;
                    scope.spawn(move || {
                        with_installed_workspace(ws, || {
                            self.run_groups(claim, &mut |g, outcomes, tally| {
                                if done.send((g, (outcomes.to_vec(), *tally))).is_err() {
                                    // The calling thread is unwinding:
                                    // claim nothing more.
                                    next.store(groups, Ordering::Relaxed);
                                }
                            })
                        })
                    });
                }
                drop(done);
                // Groups finish out of order; `early` holds those that
                // finished ahead of the oldest one not yet absorbed.
                let mut early = BTreeMap::new();
                let mut due = 0;
                let mut settle = |early: &mut BTreeMap<usize, (Vec<_>, ExecStats)>| {
                    while let Some((outcomes, tally)) = early.remove(&due) {
                        absorb_group(&mut accs, &mut stats, &outcomes, &tally);
                        due += 1;
                    }
                };
                with_installed_workspace(mine, || {
                    self.run_groups(claim, &mut |g, outcomes, tally| {
                        early.insert(g, (outcomes.to_vec(), *tally));
                        early.extend(finished.try_iter());
                        settle(&mut early);
                    })
                });
                for (g, result) in finished {
                    early.insert(g, result);
                    settle(&mut early);
                }
            });
            check_in_workspaces(scratch);
        } else {
            self.run_in_order(0..groups, &mut |_, outcomes, tally| {
                absorb_group(&mut accs, &mut stats, outcomes, tally)
            });
        }
        (accs, stats)
    }

    /// Advances `cursor` by up to `max_items` work items (always whole
    /// trial groups; at least one group per call), returning `true` once
    /// the plan is complete. Checkpointed execution is sequential, and a
    /// call settles every lane its groups deferred; the finished
    /// cursor's accumulators and counters are bit-identical to
    /// [`Self::run_with_stats`]'s, wherever the budget cuts.
    ///
    /// # Panics
    ///
    /// Panics if `cursor` was created for a plan of a different shape.
    pub fn run_until<A: Accumulator>(&self, cursor: &mut PlanCursor<A>, max_items: usize) -> bool {
        let plan = self.plan;
        assert_eq!(
            cursor.accs.len(),
            plan.cell_count(),
            "cursor does not belong to this plan shape"
        );
        assert_eq!(
            cursor.total_groups,
            plan.group_count(),
            "cursor does not belong to this plan shape"
        );
        if cursor.is_done() {
            return true;
        }
        // Whole groups within the budget, and at least one.
        let budget = (max_items / plan.group_items()).max(1);
        let end = cursor.total_groups.min(cursor.next_group + budget);
        let (accs, stats) = (&mut cursor.accs, &mut cursor.stats);
        self.run_in_order(cursor.next_group..end, &mut |_, outcomes, tally| {
            absorb_group(accs, stats, outcomes, tally)
        });
        cursor.next_group = end;
        cursor.is_done()
    }
}

thread_local! {
    /// The speculative scheduler's footprint for the current strategy's
    /// staging, kept warm across every group a worker processes — the
    /// same zero-allocation discipline as the propagation
    /// [`crate::engine::Workspace`].
    static FOOTPRINT: RefCell<FilterFootprint> = RefCell::default();
}

impl PlanSession<'_, '_> {
    /// Runs the trial groups `todo` in ascending order on the calling
    /// thread, with a workspace from the pool, as [`Self::run_groups`].
    fn run_in_order(
        &self,
        mut todo: Range<usize>,
        emit: &mut dyn FnMut(usize, &GroupOutcomes, &ExecStats),
    ) {
        let mut scratch = check_out_workspaces(1);
        with_installed_workspace(&mut scratch[0], || self.run_groups(|| todo.next(), emit));
        check_in_workspaces(scratch);
    }

    /// Runs the trial groups `claim` hands out, one at a time, deferring
    /// their transparent head-to-head stagings into one lane batch, and
    /// reports each group's `(cell index, outcome)` pairs (in
    /// [`Self::run_group`]'s order) and counters to `emit`, in claim
    /// order, once its slots are resolved. The batch is flushed when it
    /// is full, when `LANES` groups wait on it, when the topology changes
    /// and when `claim` runs dry.
    fn run_groups(
        &self,
        mut claim: impl FnMut() -> Option<usize>,
        emit: &mut dyn FnMut(usize, &GroupOutcomes, &ExecStats),
    ) {
        let plan = self.plan;
        let batch = RefCell::new(LaneBatch::default());
        // The groups waiting on the batch, all on one topology: `(group,
        // end of its entries in `staged`, counters)`.
        let mut waiting: Vec<(usize, usize, ExecStats)> = Vec::with_capacity(LANES);
        let mut staged = Vec::with_capacity(LANES * plan.group_items());
        let mut outcomes = Vec::with_capacity(plan.group_items());
        let mut flush = |waiting: &mut Vec<(usize, usize, ExecStats)>,
                         staged: &mut Vec<(usize, Staged)>| {
            let Some(&(first, ..)) = waiting.first() else {
                return;
            };
            let mut batch = batch.borrow_mut();
            batch.flush(&PropagationEngine::new(
                plan.topologies[first / plan.trials].topology,
            ));
            let mut start = 0;
            for (g, end, tally) in waiting.drain(..) {
                outcomes.clear();
                outcomes.extend(
                    staged[start..end]
                        .iter()
                        .map(|&(cell, s)| (cell, batch.resolve(s))),
                );
                emit(g, &outcomes, &tally);
                start = end;
            }
            staged.clear();
            batch.clear();
        };
        while let Some(g) = claim() {
            if waiting
                .first()
                .is_some_and(|&(first, ..)| first / plan.trials != g / plan.trials)
            {
                flush(&mut waiting, &mut staged);
            }
            let mut tally = ExecStats::default();
            self.run_group(g, &batch, &mut tally, &mut staged);
            waiting.push((g, staged.len(), tally));
            if batch.borrow().is_settled() || waiting.len() == LANES {
                flush(&mut waiting, &mut staged);
            }
        }
        flush(&mut waiting, &mut staged);
    }

    /// Runs group `g` — trial `g % trials` of topology `g / trials` —
    /// across every ROA configuration, strategy and deployment with
    /// Block-STM-style speculation, appending each `(cell index, staged
    /// outcome)` to `staged` (ROA by ROA, strategies in axis order,
    /// deployments in axis order) and counting into `stats`. The group's
    /// transparent head-to-head stagings are deferred into `batch`.
    ///
    /// Per ROA and strategy: execute once against deployment 0 while
    /// recording the filter footprint, then for each further deployment
    /// validate the footprint against that deployment's adopter bitset
    /// ([`FilterFootprint::validates`]) and replay on success; only cells
    /// whose recorded decisions genuinely diverge re-propagate. Every
    /// staging shares the group's [`TrialGroup`]: at most one baseline,
    /// and at most one engine run per distinct transparent staging.
    ///
    /// # Panics
    ///
    /// Panics if a ROA configuration makes the victim's own announcement
    /// Invalid: the group's one baseline would then depend on the
    /// deployment, and the structural answers would not hold.
    fn run_group(
        &self,
        g: usize,
        batch: &RefCell<LaneBatch>,
        stats: &mut ExecStats,
        staged: &mut Vec<(usize, Staged)>,
    ) {
        let (plan, resolved) = (self.plan, &self.resolved);
        let (ti, trial) = (g / plan.trials, g % plan.trials);
        let topology = plan.topologies[ti].topology;
        let (victim, attacker) = plan.trial_endpoints(ti, trial);
        let victim_asn = topology.asn(victim);
        let group = TrialGroup::deferring(batch);
        FOOTPRINT.with(|footprint| {
            for (ri, roa) in plan.roas.iter().enumerate() {
                let vrps = roa.vrps(plan.victim_prefix, plan.sub_prefix.len(), victim_asn);
                // Transparency is a property of the VRPs alone, so probing
                // it with any deployment's bitset is equivalent.
                assert!(
                    OriginFilter::new(&vrps, plan.victim_prefix, &[victim_asn], &resolved[ti][0])
                        .is_transparent(),
                    "{roa:?} makes the victim's own announcement Invalid"
                );
                for (si, strategy) in plan.strategies.iter().enumerate() {
                    let setup_for = |di: usize| AttackSetup {
                        topology,
                        victim,
                        attacker,
                        victim_prefix: plan.victim_prefix,
                        sub_prefix: plan.sub_prefix,
                        vrps: &vrps,
                        policies: &resolved[ti][di],
                    };
                    footprint.borrow_mut().begin(topology.len());
                    let outcome = stage(*strategy, &setup_for(0), &group, Some(footprint));
                    stats.executed += 1;
                    staged.push((plan.cell_index(ti, si, 0, ri), outcome));
                    for (di, deployment) in resolved[ti].iter().enumerate().skip(1) {
                        // The validate half: O(|footprint|) against this
                        // cell's adopter bitset.
                        stats.footprint_checks += 1;
                        if footprint.borrow().validates(deployment) {
                            stats.cells_replayed += 1;
                            staged.push((plan.cell_index(ti, si, di, ri), outcome));
                        } else {
                            let diverged = stage(*strategy, &setup_for(di), &group, None);
                            stats.executed += 1;
                            stats.cells_repropagated += 1;
                            staged.push((plan.cell_index(ti, si, di, ri), diverged));
                        }
                    }
                }
            }
        });
        stats.add_group(group.counts.into_inner());
    }
}

/// The differential reference for the executor: per cell, per trial, a
/// fresh [`run_strategy`] staging with its own trial group and no
/// cross-deployment cache, collected into a `Vec<AttackOutcome>` per
/// cell. The executor must match a fold of this output bit-for-bit —
/// asserted by the `exec_props` and `spec_props` differential suites.
/// (The propagation engine's own reference is out of the crate, in
/// `tests/support/reference.rs`; every path here, this one included,
/// runs the one engine, which refuses a seed past
/// [`crate::PropagationEngine::max_seed_len`].)
///
/// Not a production path: it costs O(trials) memory per cell and
/// re-propagates every baseline a staging reads and every
/// deployment-independent outcome. It shares the stagings' classifier
/// and so their structural and lane answers; `tests/structure_props.rs`
/// holds every staging kind to a push oracle built from public engine
/// calls.
pub fn run_plan_collected(plan: &TrialPlan<'_>) -> Vec<Vec<AttackOutcome>> {
    plan.validate();
    let policies: Vec<Vec<CompiledPolicies>> = plan
        .topologies
        .iter()
        .map(|pt| {
            let compile = |d: &DeploymentModel| {
                CompiledPolicies::compile(&d.policies(pt.topology, plan.seed))
            };
            plan.deployments.iter().map(compile).collect()
        })
        .collect();
    (0..plan.cell_count())
        .map(|cell| {
            let (ti, si, di, ri) = plan.cell_axes(cell);
            let topology = plan.topologies[ti].topology;
            let roa = plan.roas[ri];
            (0..plan.trials)
                .map(|trial| {
                    let (victim, attacker) = plan.trial_endpoints(ti, trial);
                    let vrps = roa.vrps(
                        plan.victim_prefix,
                        plan.sub_prefix.len(),
                        topology.asn(victim),
                    );
                    run_strategy(
                        plan.strategies[si],
                        &AttackSetup {
                            topology,
                            victim,
                            attacker,
                            victim_prefix: plan.victim_prefix,
                            sub_prefix: plan.sub_prefix,
                            vrps: &vrps,
                            policies: &policies[ti][di],
                        },
                    )
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::CellStats;
    use crate::strategy::{MaxLengthGapProber, RouteLeak};
    use crate::topology::TopologyConfig;
    use crate::AttackKind;

    fn topo(n: usize) -> Topology {
        Topology::generate(TopologyConfig {
            n,
            tier1: 4,
            ..TopologyConfig::default()
        })
    }

    fn plan_over<'a>(
        topology: &'a Topology,
        strategies: Vec<&'a dyn AttackerStrategy>,
        deployments: Vec<DeploymentModel>,
    ) -> TrialPlan<'a> {
        TrialPlan::new(
            vec![PlanTopology {
                label: "test".into(),
                topology,
            }],
            strategies,
            deployments,
            RoaConfig::ALL.to_vec(),
            3,
            41,
        )
    }

    #[test]
    fn streaming_fold_matches_collected_reference() {
        let t = topo(180);
        let plan = plan_over(
            &t,
            vec![
                &AttackKind::ForgedOriginSubprefixHijack,
                &RouteLeak,
                &MaxLengthGapProber,
            ],
            vec![
                DeploymentModel::Uniform { p: 0.6 },
                DeploymentModel::StubsOnly { p: 1.0 },
            ],
        );
        let collected = run_plan_collected(&plan);
        let streamed: Vec<CellAccumulator> = Executor::sequential().run(&plan);
        assert_eq!(collected.len(), streamed.len());
        for (cell, (outcomes, acc)) in collected.iter().zip(&streamed).enumerate() {
            assert_eq!(
                CellStats::from_outcomes(outcomes),
                acc.finish(),
                "cell {cell} ({:?})",
                plan.cell_axes(cell)
            );
        }
    }

    #[test]
    fn parallel_backend_is_bit_identical() {
        let t = topo(160);
        let plan = plan_over(
            &t,
            vec![&AttackKind::SubprefixHijack, &MaxLengthGapProber],
            DeploymentModel::standard(),
        );
        let seq: Vec<CellAccumulator> = Executor::sequential().run(&plan);
        let par: Vec<CellAccumulator> = Executor::parallel().run(&plan);
        assert_eq!(seq, par);
    }

    #[test]
    fn policies_compile_once_per_distinct_deployment_not_per_cell() {
        // The regression the cache fixes: a grid with a repeated
        // deployment must compile topologies × distinct-deployments
        // vectors, regardless of how many cells (strategies × ROAs ×
        // duplicates) share them.
        let t = topo(150);
        let duplicated = vec![
            DeploymentModel::Uniform { p: 0.5 },
            DeploymentModel::TopIspsFirst { p: 0.3 },
            DeploymentModel::Uniform { p: 0.5 }, // exact duplicate
            DeploymentModel::Uniform { p: 1.0 },
        ];
        let plan = plan_over(
            &t,
            vec![&AttackKind::ForgedOriginSubprefixHijack, &RouteLeak],
            duplicated,
        );
        let (accs, stats) = Executor::sequential().run_with_stats::<CellAccumulator>(&plan);
        assert_eq!(stats.items, plan.item_count());
        assert_eq!(stats.compilations, 3, "one per distinct deployment");
        assert!(stats.compilations < plan.cell_count());
        // The duplicate deployment's cells are identical to the original's.
        for si in 0..plan.strategies.len() {
            for ri in 0..plan.roas.len() {
                assert_eq!(
                    accs[plan.cell_index(0, si, 0, ri)],
                    accs[plan.cell_index(0, si, 2, ri)],
                );
            }
        }
    }

    #[test]
    fn replay_accounting_adds_up() {
        let t = topo(150);
        let plan = plan_over(
            &t,
            vec![&AttackKind::ForgedOriginSubprefixHijack],
            vec![
                DeploymentModel::Uniform { p: 1.0 },
                DeploymentModel::Uniform { p: 0.5 },
                DeploymentModel::StubsOnly { p: 1.0 },
            ],
        );
        let (_, stats) = Executor::sequential().run_with_stats::<CellAccumulator>(&plan);
        assert_eq!(stats.executed + stats.cells_replayed, stats.items);
        // The forged-origin subprefix hijack is transparent under NoRoa
        // and the loose ROA (Valid/NotFound): those columns replay.
        assert!(stats.cells_replayed > 0, "{stats:?}");
        // Under the minimal ROA it validates Invalid: those cells must
        // re-propagate per deployment.
        assert!(stats.executed > stats.items / 3, "{stats:?}");
    }

    #[test]
    fn speculation_counters_satisfy_their_invariants() {
        let t = topo(150);
        let plan = plan_over(
            &t,
            vec![
                &AttackKind::ForgedOriginSubprefixHijack,
                &RouteLeak,
                &MaxLengthGapProber,
            ],
            DeploymentModel::standard(),
        );
        let (_, stats) = Executor::sequential().run_with_stats::<CellAccumulator>(&plan);
        // Every beyond-first-deployment item is exactly one footprint
        // check, which either licenses a replay or forces a
        // re-propagation.
        assert_eq!(
            stats.footprint_checks,
            stats.cells_replayed + stats.cells_repropagated,
            "{stats:?}"
        );
        assert_eq!(
            stats.executed + stats.cells_replayed,
            stats.items,
            "{stats:?}"
        );
        let groups = plan.roas.len() * plan.trials;
        assert_eq!(
            stats.footprint_checks,
            groups * plan.strategies.len() * (plan.deployments.len() - 1),
            "{stats:?}"
        );
    }

    #[test]
    fn transparent_heavy_grid_repropagates_almost_nothing() {
        // The satellite regression: a grid dominated by transparent
        // trials (no ROA, or the loose maxLength ROA that validates the
        // forged-origin attack) must replay nearly everything — the
        // speculative scheduler re-propagates strictly fewer cells than
        // the grid holds.
        let t = topo(150);
        let plan = plan_over(
            &t,
            vec![&AttackKind::ForgedOriginSubprefixHijack, &RouteLeak],
            DeploymentModel::standard(),
        );
        let (_, stats) = Executor::sequential().run_with_stats::<CellAccumulator>(&plan);
        assert!(
            stats.cells_repropagated < stats.items,
            "speculation must beat run-every-cell: {stats:?}"
        );
        // Both strategies are transparent in the NoRoa and loose-ROA
        // columns (2 of 3 ROAs), so at least that share replays.
        assert!(
            stats.cells_replayed * 3 >= stats.footprint_checks * 2,
            "{stats:?}"
        );
    }

    #[test]
    fn checkpointed_run_matches_straight_through() {
        // Two topologies, so some batches flush at a topology change, and
        // budgets that cut batches short anywhere: one group, one short
        // of 16 groups, one past it.
        let (t, u) = (topo(140), topo(120));
        let plan = TrialPlan::new(
            vec![
                PlanTopology {
                    label: "a".into(),
                    topology: &t,
                },
                PlanTopology {
                    label: "b".into(),
                    topology: &u,
                },
            ],
            vec![&AttackKind::ForgedOriginPrefixHijack, &RouteLeak],
            vec![DeploymentModel::Uniform { p: 0.7 }],
            RoaConfig::ALL.to_vec(),
            LANES + 5,
            41,
        );
        let (straight, stats) = Executor::sequential().run_with_stats::<CellAccumulator>(&plan);
        assert!(stats.lane > LANES, "{stats:?}");
        let exec = Executor::sequential();
        let session = exec.session(&plan);
        for groups in [1, LANES - 1, LANES + 1] {
            let mut cursor = plan.cursor::<CellAccumulator>();
            let mut rounds = 0;
            while !session.run_until(&mut cursor, groups * plan.group_items()) {
                rounds += 1;
                assert!(cursor.progress() > 0.0 && cursor.progress() < 1.0);
                // Round-trip through the textual checkpoint every step.
                cursor = PlanCursor::decode(&cursor.encode()).expect("decode own encoding");
            }
            assert_eq!(
                rounds,
                plan.group_count().div_ceil(groups) - 1,
                "{groups} a step"
            );
            assert!(cursor.is_done());
            assert_eq!(cursor.accumulators(), &straight[..], "{groups} a step");
            assert_eq!(session.cursor_stats(&cursor), stats, "{groups} a step");
            // Running an exhausted cursor is a no-op.
            assert!(session.run_until(&mut cursor, usize::MAX));
            assert_eq!(cursor.into_accumulators(), straight);
        }
    }

    #[test]
    fn cursor_decode_rejects_garbage() {
        assert!(PlanCursor::<CellAccumulator>::decode("").is_none());
        assert!(PlanCursor::<CellAccumulator>::decode("wrong-magic 0 1 0 0").is_none());
        assert!(PlanCursor::<CellAccumulator>::decode(
            "maxlength-cursor-v5 0 1 0 0 0 0 0 0 0 0 0 0 0 nonsense"
        )
        .is_none());
        assert!(
            PlanCursor::<CellAccumulator>::decode("maxlength-cursor-v5 0 1 0 0").is_none(),
            "too few counters"
        );
        let mut enc = String::new();
        CellAccumulator::empty().encode(&mut enc);
        // A position past the end is a corrupted checkpoint, not a
        // finished grid; exactly at the end is one.
        let counters = "0 ".repeat(11);
        let at = |next: usize| format!("maxlength-cursor-v5 {next} 8 {counters}{enc} {enc}");
        assert!(PlanCursor::<CellAccumulator>::decode(&at(999)).is_none());
        assert!(PlanCursor::<CellAccumulator>::decode(&at(9)).is_none());
        let done = PlanCursor::<CellAccumulator>::decode(&at(8)).expect("a finished cursor");
        assert!(done.is_done());
        assert_eq!(done.progress(), 1.0);
        assert_eq!(done.accumulators().len(), 2);
        assert_eq!(
            CellAccumulator::decode(&enc),
            Some(CellAccumulator::empty())
        );
        assert!(CellAccumulator::decode("1:2:3").is_none(), "too few fields");
    }

    /// A subprefix announcement claiming a path the engine refuses.
    struct OverlongSubprefix;

    impl AttackerStrategy for OverlongSubprefix {
        fn label(&self) -> String {
            "overlong subprefix".into()
        }

        fn plan(&self, ctx: &crate::StrategyContext<'_>) -> crate::AttackPlan {
            crate::AttackPlan {
                announcement: Some(crate::AttackAnnouncement {
                    prefix: ctx.sub_prefix,
                    claimed_origin: ctx.attacker_asn(),
                    path_len: u32::MAX,
                }),
                target: ctx.sub_prefix,
            }
        }
    }

    #[test]
    #[should_panic(expected = "exceeds the engine's bound")]
    fn memo_does_not_answer_a_seed_the_engine_refuses() {
        // The subprefix hijack stores the alone, more-specific outcome
        // first; the overlong seed shares its key but must still reach
        // the engine and be refused, as `run_strategy` refuses it.
        let t = topo(120);
        let plan = TrialPlan::new(
            vec![PlanTopology {
                label: "test".into(),
                topology: &t,
            }],
            vec![&AttackKind::SubprefixHijack, &OverlongSubprefix],
            vec![DeploymentModel::Uniform { p: 0.5 }],
            vec![RoaConfig::NoRoa],
            1,
            41,
        );
        Executor::sequential().run::<CellAccumulator>(&plan);
    }

    #[test]
    fn cell_indexing_round_trips() {
        let t = topo(120);
        let plan = plan_over(
            &t,
            vec![&AttackKind::PrefixHijack, &RouteLeak, &MaxLengthGapProber],
            DeploymentModel::standard(),
        );
        for cell in 0..plan.cell_count() {
            let (ti, si, di, ri) = plan.cell_axes(cell);
            assert_eq!(plan.cell_index(ti, si, di, ri), cell);
        }
        assert_eq!(plan.item_count(), plan.cell_count() * plan.trials);
    }
}
