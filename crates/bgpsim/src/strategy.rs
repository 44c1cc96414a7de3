//! Pluggable attacker strategies.
//!
//! The paper's §4/§5 analysis fixes two attack shapes (exact-prefix and
//! subprefix forged-origin hijacks). Real adversaries have a wider menu,
//! and the scenario matrix ([`crate::matrix`]) needs the menu to be
//! *open*: new attack shapes must plug in without touching the engine.
//!
//! [`AttackerStrategy`] is that plug point. A strategy inspects a
//! [`StrategyContext`] — the topology, the victim/attacker placement, the
//! victim's announcement, the published VRPs, and the propagation of the
//! victim's route *before* the attack (everything a real attacker could
//! observe) — and returns an [`AttackPlan`]: at most one crafted
//! announcement plus the address block whose traffic is measured.
//! [`run_strategy`] stages the plan under Gao–Rexford propagation with
//! per-AS ROV filtering and a longest-prefix-match data plane, on the
//! [`crate::engine::PropagationEngine`]: precomputed [`OriginFilter`]s
//! instead of per-edge index validation, the calling thread's reusable
//! [`crate::engine::Workspace`], and the one data-plane tally
//! ([`AttackOutcome`]'s) read straight off it. A deployment enters as
//! its [`crate::engine::CompiledPolicies`] bitset, compiled once for
//! every trial staged under it.
//!
//! Shipped strategies:
//!
//! * the four legacy [`AttackKind`]s (each `AttackKind` *is* a strategy);
//! * [`RouteLeak`] — re-announcing the legitimately learned route to
//!   everyone, in violation of export policy; RPKI-valid by construction,
//!   so no ROA configuration helps against it;
//! * [`PathForgery`] — the same-prefix forged-origin hijack with a
//!   shortened (origin-spoofing) or prepended AS path;
//! * [`MaxLengthGapProber`] — reads the published VRPs and targets
//!   exactly the unannounced space a loose maxLength authorizes,
//!   demoting itself to the prefix-grained attack when the ROA is
//!   minimal — the paper's §5 demotion argument as an adaptive attacker.

use std::cell::{Cell, OnceCell, RefCell};

use rpki_prefix::Prefix;
use rpki_roa::Asn;
use rpki_rov::VrpIndex;

use crate::attack::{AttackKind, AttackOutcome, AttackSetup};
use crate::engine::{
    with_workspace, FilterFootprint, Lane, OriginFilter, PropagationEngine, LANES,
};
use crate::routing::{Propagation, Seed};
use crate::topology::Topology;

/// Everything an attacker can observe before announcing: the graph, the
/// players, the victim's announcement, the published VRPs, and (on
/// demand) how the victim's route propagated in the pre-attack world.
pub struct StrategyContext<'a> {
    /// The AS graph.
    pub topology: &'a Topology,
    /// Victim AS index; it announces exactly `victim_prefix`.
    pub victim: usize,
    /// Attacker AS index.
    pub attacker: usize,
    /// The victim's announced prefix `p`.
    pub victim_prefix: Prefix,
    /// The canonical attacked subprefix `q ⊆ p` (strategies may target it
    /// or derive their own target from the VRPs).
    pub sub_prefix: Prefix,
    /// The published VRPs (the ROA configuration under test).
    pub vrps: &'a VrpIndex,
    /// The trial group staged in, which holds the victim-only
    /// propagation: computed on first use, so strategies that never look
    /// pay nothing.
    group: &'a TrialGroup<'a>,
    victim_seed: Seed,
    accept_p: &'a OriginFilter<'a>,
}

impl StrategyContext<'_> {
    /// The victim's public ASN.
    pub fn victim_asn(&self) -> Asn {
        self.topology.asn(self.victim)
    }

    /// The attacker's public ASN.
    pub fn attacker_asn(&self) -> Asn {
        self.topology.asn(self.attacker)
    }

    /// The victim's prefix propagated *without* the attacker — what
    /// every AS learned before the attack. Computed lazily (on the engine
    /// path, through the calling thread's workspace) and cached for the
    /// rest of the trial group; no shipped strategy calls it.
    pub fn baseline(&self) -> &Propagation {
        self.group.baseline.get_or_init(|| {
            let accept = |at, origin| self.accept_p.accept(at, origin);
            let engine = PropagationEngine::new(self.topology);
            with_workspace(|ws| engine.propagate(&[self.victim_seed], &accept, ws))
        })
    }

    /// The length of the route the attacker learned for the victim's
    /// prefix (claiming the victim's origin), if any: a point query
    /// ([`PropagationEngine::unfiltered_path_len`]) where no AS filters
    /// the victim's announcement, else read off [`Self::baseline`].
    /// Computed once per trial group, like the baseline and for the same
    /// reason: the group fixes the placement, and no AS filters the
    /// victim's announcement under any of its VRP sets or deployments,
    /// so every staging of the group gets one answer.
    pub fn attacker_learned_len(&self) -> Option<u32> {
        *self.group.learned_len.get_or_init(|| {
            if self.accept_p.is_transparent() {
                PropagationEngine::new(self.topology)
                    .unfiltered_path_len(self.victim, self.attacker)
            } else {
                self.baseline().route(self.attacker).map(|r| r.path_len)
            }
        })
    }
}

/// What the stagings of one trial group share: one victim and one
/// attacker on one topology, staged under any number of VRP sets and
/// deployments. Calls sharing a group must agree on `(topology, victim,
/// attacker, victim_prefix)`, and the victim's own origin must be
/// non-Invalid under each call's VRPs: its filter is then transparent
/// ([`OriginFilter::is_transparent`]), so by [`Topology`]'s hierarchy
/// invariant the victim's announcement reaches every AS, and the
/// baseline depends on neither the VRPs nor the deployment.
///
/// A group with a [`LaneBatch`] defers its transparent head-to-head
/// stagings into it; one without settles each at once, as a batch of
/// one.
#[derive(Default)]
pub(crate) struct TrialGroup<'b> {
    /// The victim-only propagation, computed on first use.
    pub baseline: OnceCell<Propagation>,
    /// The attacker's learned path length for the victim's prefix
    /// ([`StrategyContext::attacker_learned_len`]), computed on first
    /// use.
    learned_len: OnceCell<Option<u32>>,
    /// Outcomes of the head-to-head and less-specific stagings whose
    /// attack filter was transparent, by [`StagingKey`].
    transparent: RefCell<Vec<(StagingKey, Staged)>>,
    /// Where transparent head-to-head stagings wait for the lane kernel.
    batch: Option<&'b RefCell<LaneBatch>>,
    /// Stagings answered without an engine run: from `transparent`, or
    /// from the topology's structure.
    pub hits: Cell<usize>,
    /// The part of `hits` answered from the topology's structure.
    pub structural: Cell<usize>,
    /// Stagings settled by [`PropagationEngine::transparent_outcomes`].
    pub pulled: Cell<usize>,
}

/// Everything a transparent head-to-head or less-specific staging's
/// outcome depends on once its group fixes topology, victim and
/// attacker: head to head, the attacker's seed; alone (`None`), nothing,
/// since an accept-all propagation from the attacker reaches the same
/// ASes, every one delivering to the attacker, whatever its seed.
type StagingKey = Option<(u32, Asn)>;

/// A staging's outcome, or the slot of a [`LaneBatch`] that holds it
/// once the batch is flushed.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Staged {
    /// Settled.
    Ready(AttackOutcome),
    /// Deferred to the lane kernel.
    Lane(u32),
}

/// Transparent head-to-head stagings deferred across the trial groups
/// a worker runs, one topology at a time, and the outcomes of those
/// already settled: slot `s` is the `s`-th lane pushed since the last
/// [`Self::clear`].
#[derive(Debug, Default)]
pub(crate) struct LaneBatch {
    /// Pushed, not yet settled: at most `LANES`.
    lanes: Vec<Lane>,
    /// Settled, by slot.
    outcomes: Vec<AttackOutcome>,
}

impl LaneBatch {
    /// Defers `lane`, settling the batch through `engine` once it holds
    /// `LANES`. Every lane pushed until the next [`Self::flush`] must be
    /// on `engine`'s topology.
    fn push(&mut self, engine: &PropagationEngine<'_>, lane: Lane) -> Staged {
        let slot = self.outcomes.len() + self.lanes.len();
        self.lanes.push(lane);
        if self.lanes.len() == LANES {
            self.flush(engine);
        }
        Staged::Lane(u32::try_from(slot).expect("a batch holds fewer than 2^32 stagings"))
    }

    /// Settles every deferred lane, on `engine`'s topology.
    pub fn flush(&mut self, engine: &PropagationEngine<'_>) {
        if self.lanes.is_empty() {
            return;
        }
        let start = self.outcomes.len();
        self.outcomes
            .resize(start + self.lanes.len(), AttackOutcome::default());
        with_workspace(|ws| {
            engine.transparent_outcomes(&self.lanes, ws, &mut self.outcomes[start..]);
        });
        self.lanes.clear();
    }

    /// `staged`'s outcome; a lane must have been flushed.
    pub fn resolve(&self, staged: Staged) -> AttackOutcome {
        match staged {
            Staged::Ready(outcome) => outcome,
            Staged::Lane(slot) => self.outcomes[slot as usize],
        }
    }

    /// Whether every lane pushed has been settled.
    pub fn is_settled(&self) -> bool {
        self.lanes.is_empty()
    }

    /// Forgets the settled outcomes: slots count from 0 again.
    pub fn clear(&mut self) {
        debug_assert!(self.is_settled(), "a deferred lane would lose its slot");
        self.outcomes.clear();
    }
}

impl<'b> TrialGroup<'b> {
    /// A group deferring its transparent head-to-head stagings into
    /// `batch`.
    pub fn deferring(batch: &'b RefCell<LaneBatch>) -> TrialGroup<'b> {
        TrialGroup {
            batch: Some(batch),
            ..TrialGroup::default()
        }
    }

    /// Counts a staging answered without an engine run.
    fn answered(&self, staged: Staged) -> Staged {
        self.hits.set(self.hits.get() + 1);
        staged
    }

    /// `run()`'s outcome — or, for a transparent staging (`key` is set),
    /// the stored outcome of an earlier one with the same key.
    fn staged(&self, key: Option<StagingKey>, run: impl FnOnce() -> Staged) -> Staged {
        let Some(key) = key else { return run() };
        if let Some(&(_, hit)) = self.transparent.borrow().iter().find(|(k, _)| *k == key) {
            return self.answered(hit);
        }
        let staged = run();
        self.transparent.borrow_mut().push((key, staged));
        staged
    }

    /// A transparent head-to-head staging, settled by the lane kernel:
    /// deferred into the group's batch, or at once in a batch of one.
    fn pull(&self, engine: &PropagationEngine<'_>, lane: Lane) -> Staged {
        self.pulled.set(self.pulled.get() + 1);
        if let Some(batch) = self.batch {
            return batch.borrow_mut().push(engine, lane);
        }
        let mut out = [AttackOutcome::default()];
        with_workspace(|ws| engine.transparent_outcomes(&[lane], ws, &mut out));
        Staged::Ready(out[0])
    }
}

/// Wraps `filter` as a propagation `accept` closure that mirrors every
/// adopter-bitset consultation into `sink`. Only invalid-origin queries
/// are recorded (see [`FilterFootprint`]'s soundness note) — for a
/// transparent filter, or with no sink, this is the plain filter.
fn recording<'f>(
    filter: &'f OriginFilter<'f>,
    sink: Option<&'f RefCell<FilterFootprint>>,
) -> impl Fn(usize, Asn) -> bool + 'f {
    move |at, origin| {
        let decision = filter.accept(at, origin);
        if let Some(fp) = sink {
            if filter.origin_is_invalid(origin) {
                fp.borrow_mut().note(at, decision);
            }
        }
        decision
    }
}

/// The attacker's crafted announcement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttackAnnouncement {
    /// The prefix the attacker announces.
    pub prefix: Prefix,
    /// The origin the forged path claims (what ROV validates).
    pub claimed_origin: Asn,
    /// Initial AS-path length (0 = claims to *be* the origin, 1 = the
    /// standard forged-origin shape, more = prepending).
    pub path_len: u32,
}

/// What a strategy decided to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttackPlan {
    /// The announcement, or `None` if the strategy has nothing to send
    /// (e.g. a route leak when the attacker never learned the route).
    pub announcement: Option<AttackAnnouncement>,
    /// The address block whose traffic is measured, inside the victim's
    /// prefix.
    pub target: Prefix,
}

/// An attack shape: plans one crafted announcement from what the
/// attacker can observe. Implement this to add a new scenario-matrix row.
pub trait AttackerStrategy: Send + Sync {
    /// Human-readable row label (stable: golden fixtures key on it).
    fn label(&self) -> String;

    /// Plans the attack for one staged trial.
    fn plan(&self, ctx: &StrategyContext<'_>) -> AttackPlan;
}

/// The four legacy attack kinds are strategies: fixed announcement
/// shapes that ignore the published VRPs.
impl AttackerStrategy for AttackKind {
    fn label(&self) -> String {
        AttackKind::label(*self).to_string()
    }

    fn plan(&self, ctx: &StrategyContext<'_>) -> AttackPlan {
        let claimed = if self.forged_origin() {
            ctx.victim_asn()
        } else {
            ctx.attacker_asn()
        };
        AttackPlan {
            announcement: Some(AttackAnnouncement {
                prefix: if self.same_prefix() {
                    ctx.victim_prefix
                } else {
                    ctx.sub_prefix
                },
                claimed_origin: claimed,
                path_len: u32::from(self.forged_origin()),
            }),
            target: ctx.sub_prefix,
        }
    }
}

/// A full route leak: the attacker re-announces the route it
/// legitimately learned for the victim's prefix to *all* neighbors,
/// violating valley-free export. The leaked path keeps its learned
/// length and its true origin, so it is RPKI-**valid** under every ROA
/// configuration — interception measures how many ASes are pulled
/// through the (on-path) leaker, and no maxLength discipline changes it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouteLeak;

impl AttackerStrategy for RouteLeak {
    fn label(&self) -> String {
        "route leak".to_string()
    }

    fn plan(&self, ctx: &StrategyContext<'_>) -> AttackPlan {
        AttackPlan {
            announcement: ctx
                .attacker_learned_len()
                .map(|path_len| AttackAnnouncement {
                    prefix: ctx.victim_prefix,
                    claimed_origin: ctx.victim_asn(),
                    path_len,
                }),
            target: ctx.sub_prefix,
        }
    }
}

/// Same-prefix forged-origin hijack with a manipulated AS-path length:
/// `extra_hops = 0` *shortens* the path below the legal minimum (the
/// attacker claims to be the victim itself), larger values *prepend*,
/// trading attraction for plausibility.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathForgery {
    /// Initial claimed path length (0 = origin spoof, 1 = the standard
    /// forged-origin announcement, ≥ 2 = prepending).
    pub extra_hops: u32,
}

impl PathForgery {
    /// The maximally aggressive shortening: claims to *be* the victim.
    pub fn shortened() -> PathForgery {
        PathForgery { extra_hops: 0 }
    }

    /// Prepends `extra_hops - 1` hops beyond the forged origin.
    pub fn prepended(extra_hops: u32) -> PathForgery {
        PathForgery { extra_hops }
    }
}

impl AttackerStrategy for PathForgery {
    fn label(&self) -> String {
        match self.extra_hops {
            0 => "forged-origin shortened path".to_string(),
            1 => "forged-origin prefix hijack (explicit)".to_string(),
            n => format!("forged-origin prepend+{n}"),
        }
    }

    fn plan(&self, ctx: &StrategyContext<'_>) -> AttackPlan {
        AttackPlan {
            announcement: Some(AttackAnnouncement {
                prefix: ctx.victim_prefix,
                claimed_origin: ctx.victim_asn(),
                path_len: self.extra_hops,
            }),
            target: ctx.sub_prefix,
        }
    }
}

/// The adaptive attacker of §4/§5: reads the victim's published VRPs and
/// targets exactly the space a loose maxLength authorizes beyond the
/// announcement.
///
/// * A covering VRP with `maxLength > len(p)` authorizes unannounced
///   subprefixes (the victim announces exactly `p` in the staged trial):
///   the prober forges the origin on the *widest* such hole, which is
///   RPKI-valid and wins every longest-prefix match.
/// * A minimal (exact) ROA leaves no hole: the prober demotes itself to
///   the same-prefix forged-origin hijack — the §5 demotion.
/// * No ROA at all: nothing constrains the attacker, so it mounts the
///   classic subprefix hijack under its own origin.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MaxLengthGapProber;

impl MaxLengthGapProber {
    /// The stable matrix row label.
    pub const LABEL: &'static str = "maxLength-gap prober";
}

impl AttackerStrategy for MaxLengthGapProber {
    fn label(&self) -> String {
        Self::LABEL.to_string()
    }

    fn plan(&self, ctx: &StrategyContext<'_>) -> AttackPlan {
        let victim_asn = ctx.victim_asn();
        // The loosest tuple the victim published for this prefix.
        let loosest = ctx
            .vrps
            .covering(ctx.victim_prefix)
            .filter(|v| v.asn == victim_asn)
            .map(|v| v.max_len)
            .max();
        match loosest {
            Some(max_len) if max_len > ctx.victim_prefix.len() => {
                // The widest authorized-but-unannounced hole: the left
                // child of the announced prefix (any strict subprefix up
                // to max_len is unannounced in the staged trial).
                let (gap, _) = ctx
                    .victim_prefix
                    .children()
                    .expect("max_len > len implies the prefix has children");
                AttackPlan {
                    announcement: Some(AttackAnnouncement {
                        prefix: gap,
                        claimed_origin: victim_asn,
                        path_len: 1,
                    }),
                    target: gap,
                }
            }
            Some(_) => {
                // Minimal ROA: no hole to claim — demoted to the
                // prefix-grained forged-origin attack.
                AttackPlan {
                    announcement: Some(AttackAnnouncement {
                        prefix: ctx.victim_prefix,
                        claimed_origin: victim_asn,
                        path_len: 1,
                    }),
                    target: ctx.sub_prefix,
                }
            }
            None => {
                // No ROA: the unconstrained classic subprefix hijack.
                AttackPlan {
                    announcement: Some(AttackAnnouncement {
                        prefix: ctx.sub_prefix,
                        claimed_origin: ctx.attacker_asn(),
                        path_len: 0,
                    }),
                    target: ctx.sub_prefix,
                }
            }
        }
    }
}

/// Stages one strategy and measures where every AS's traffic for the
/// plan's target lands.
///
/// The victim originates `setup.victim_prefix`; the strategy observes the
/// resulting pre-attack world and plans its announcement; both then
/// propagate under Gao–Rexford with RFC 6811 filtering against
/// `setup.vrps` (honoring each AS's [`rpki_rov::RovPolicy`]); finally
/// every AS forwards a packet addressed inside the plan's target along
/// its longest matching prefix.
///
/// # Panics
///
/// Panics if `attacker == victim`, if `sub_prefix` (or the planned
/// target) is not covered by `victim_prefix`, or if `setup.policies`
/// covers a different number of ASes than the topology.
pub fn run_strategy(strategy: &dyn AttackerStrategy, setup: &AttackSetup<'_>) -> AttackOutcome {
    match run_strategy_speculative(strategy, setup, &TrialGroup::default(), None) {
        Staged::Ready(outcome) => outcome,
        Staged::Lane(_) => unreachable!("a group without a batch settles every staging"),
    }
}

/// The trial executor's entry point: [`run_strategy`] within a trial
/// group owned by the caller, with optional footprint recording.
///
/// * `group` — what the calls may share (see [`TrialGroup`] for what they
///   must agree on): the first strategy to look computes the victim-only
///   baseline and the rest reuse it, and a head-to-head or less-specific
///   staging whose attack filter is transparent returns the stored
///   outcome of an earlier one with its [`StagingKey`]. A transparent
///   filter accepts at every AS under every deployment and VRP set, so
///   that outcome is the one this staging would compute. Both may be a
///   [`Staged::Lane`] of the group's batch, to be resolved once the
///   batch is flushed.
/// * `footprint` — when supplied, every adopter-bitset consultation of
///   the attack staging is mirrored into it — the execute half of the
///   executor's Block-STM-style execute-then-validate scheme
///   ([`crate::exec`] module docs). The outcome is bit-identical with
///   and without recording.
///
/// A more-specific staging where no AS filters the victim reads no
/// baseline: every AS the attacker's table misses is legitimate, and a
/// transparent attacker wins all `n − 2` with no engine run. A
/// transparent head-to-head staging the memo misses needs only its
/// tally, so it is a lane of [`PropagationEngine::transparent_outcomes`]
/// instead of a full propagation.
pub(crate) fn run_strategy_speculative(
    strategy: &dyn AttackerStrategy,
    setup: &AttackSetup<'_>,
    group: &TrialGroup<'_>,
    footprint: Option<&RefCell<FilterFootprint>>,
) -> Staged {
    let (t, compiled) = (setup.topology, setup.policies);
    let (attacker, victim) = (setup.attacker, setup.victim);
    assert_ne!(attacker, victim, "attacker must differ from victim");
    assert!(
        setup.victim_prefix.covers(setup.sub_prefix),
        "sub_prefix must be inside victim_prefix"
    );
    assert_eq!(compiled.len(), t.len(), "policies cover the graph");

    let engine = PropagationEngine::new(t);
    let victim_asn = t.asn(victim);
    let victim_seed = Seed::origin(victim, victim_asn);
    // Import filter for the victim's prefix: the ROV verdict of every
    // claimed origin the baseline can query, resolved once.
    let accept_p = OriginFilter::new(setup.vrps, setup.victim_prefix, &[victim_asn], compiled);

    // The pre-attack world is offered to the strategy lazily: only
    // strategies that observe it, less-specific plans (which stack the
    // attacker's table under it) and a victim some AS filters pay for
    // the extra propagation.
    let ctx = StrategyContext {
        topology: t,
        victim,
        attacker,
        victim_prefix: setup.victim_prefix,
        sub_prefix: setup.sub_prefix,
        vrps: setup.vrps,
        group,
        victim_seed,
        accept_p: &accept_p,
    };
    let plan = strategy.plan(&ctx);
    assert!(
        setup.victim_prefix.covers(plan.target),
        "measurement target must be inside the victim's prefix"
    );
    let Some(ann) = plan
        .announcement
        .filter(|ann| ann.prefix.covers(plan.target))
    else {
        // Nothing announced toward the target: only the baseline
        // carries traffic.
        return Staged::Ready(AttackOutcome::tally(&[ctx.baseline()], attacker, victim));
    };

    // The attacked world. On the victim's own prefix the two
    // announcements compete head to head in one propagation; on any
    // other prefix the attacker's propagates alone, next to the
    // untouched baseline. Traffic for the target then follows each AS's
    // longest matching prefix ([`AttackOutcome::tally`]).
    let head_to_head = ann.prefix == setup.victim_prefix;
    let more_specific = ann.prefix.len() > setup.victim_prefix.len();
    let attacker_seed = Seed {
        at: attacker,
        path_len: ann.path_len,
        claimed_origin: ann.claimed_origin,
    };
    // Victim first; alone, the attacker's announcement is the tail.
    let alone = usize::from(!head_to_head);
    let seeds = &[victim_seed, attacker_seed][alone..];
    let origins = &[victim_asn, ann.claimed_origin][alone..];
    let filter = OriginFilter::new(setup.vrps, ann.prefix, origins, compiled);
    let accept = recording(&filter, footprint);
    // A seed the engine refuses is never answered without it.
    let seedable = ann.path_len <= engine.max_seed_len();
    if more_specific && accept_p.is_transparent() {
        // No AS filters the victim, so its announcement reaches every AS
        // (`Topology`'s hierarchy invariant): each one the attacker's
        // table misses routes legitimately.
        if filter.is_transparent() && seedable {
            // Nor the attacker's: it wins every AS.
            group.structural.set(group.structural.get() + 1);
            return group.answered(Staged::Ready(AttackOutcome {
                intercepted: t.len() - 2,
                legitimate: 0,
                disconnected: 0,
            }));
        }
        let mut outcome = with_workspace(|ws| {
            engine.propagate_outcome(seeds, &accept, ws, None, attacker, victim)
        });
        outcome.legitimate += std::mem::take(&mut outcome.disconnected);
        return Staged::Ready(outcome);
    }
    let key = (filter.is_transparent() && seedable && !more_specific)
        .then_some(head_to_head.then_some((ann.path_len, ann.claimed_origin)));
    group.staged(key, || {
        if head_to_head && key.is_some() {
            // No AS filters either seed: a lane of the outcome-only kernel.
            let lane = Lane {
                seeds: [victim_seed, attacker_seed],
                attacker,
                victim,
            };
            return group.pull(&engine, lane);
        }
        if head_to_head {
            // Tallied straight off the workspace.
            return Staged::Ready(with_workspace(|ws| {
                engine.propagate_outcome(seeds, &accept, ws, None, attacker, victim)
            }));
        }
        // Alone, next to the baseline (rare: a less-specific announcement,
        // or a filtered victim), the more specific table first.
        let attacked = with_workspace(|ws| engine.propagate(seeds, &accept, ws));
        let tables = if more_specific {
            [&attacked, ctx.baseline()]
        } else {
            [ctx.baseline(), &attacked]
        };
        Staged::Ready(AttackOutcome::tally(&tables, attacker, victim))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deployment::DeploymentModel;
    use crate::engine::{CompiledPolicies, Workspace};
    use crate::experiment::RoaConfig;
    use crate::topology::TopologyConfig;
    use rpki_roa::Vrp;
    use rpki_rov::RovPolicy;

    fn world() -> (Topology, usize, usize, Prefix, Prefix) {
        let t = Topology::generate(TopologyConfig {
            n: 400,
            tier1: 6,
            ..TopologyConfig::default()
        });
        let stubs = t.stubs();
        let (victim, attacker) = (stubs[0], stubs[stubs.len() / 2]);
        (
            t,
            victim,
            attacker,
            "168.122.0.0/16".parse().unwrap(),
            "168.122.0.0/24".parse().unwrap(),
        )
    }

    fn setup<'a>(
        t: &'a Topology,
        victim: usize,
        attacker: usize,
        p: Prefix,
        q: Prefix,
        vrps: &'a VrpIndex,
        policies: &'a CompiledPolicies,
    ) -> AttackSetup<'a> {
        AttackSetup {
            topology: t,
            victim,
            attacker,
            victim_prefix: p,
            sub_prefix: q,
            vrps,
            policies,
        }
    }

    #[test]
    fn route_leak_is_immune_to_roa_configuration() {
        // The leaked route carries the victim's true origin on the
        // announced prefix: Valid (or NotFound) everywhere, so the three
        // ROA configurations produce the identical outcome.
        let (t, victim, attacker, p, q) = world();
        let policies = CompiledPolicies::compile(&vec![RovPolicy::DropInvalid; t.len()]);
        let configs: [VrpIndex; 3] = [
            VrpIndex::new(),
            [Vrp::new(p, 24, t.asn(victim))].into_iter().collect(),
            [Vrp::exact(p, t.asn(victim))].into_iter().collect(),
        ];
        let outcomes: Vec<AttackOutcome> = configs
            .iter()
            .map(|vrps| {
                run_strategy(
                    &RouteLeak,
                    &setup(&t, victim, attacker, p, q, vrps, &policies),
                )
            })
            .collect();
        assert_eq!(outcomes[0], outcomes[1]);
        assert_eq!(outcomes[1], outcomes[2]);
        // A full leak from a multi-homed stub attracts somebody.
        assert!(outcomes[0].intercepted > 0, "{outcomes:?}");
        // But it competes with the true route: no clean sweep.
        assert!(outcomes[0].legitimate > 0, "{outcomes:?}");
    }

    #[test]
    fn shortened_path_beats_standard_forged_origin() {
        let (t, victim, attacker, p, q) = world();
        let vrps: VrpIndex = [Vrp::exact(p, t.asn(victim))].into_iter().collect();
        let policies = CompiledPolicies::compile(&vec![RovPolicy::DropInvalid; t.len()]);
        let s = setup(&t, victim, attacker, p, q, &vrps, &policies);
        let short = run_strategy(&PathForgery::shortened(), &s);
        let standard = run_strategy(&AttackKind::ForgedOriginPrefixHijack, &s);
        let prepended = run_strategy(&PathForgery::prepended(4), &s);
        assert!(short.intercepted >= standard.intercepted);
        assert!(standard.intercepted >= prepended.intercepted);
        assert!(short.intercepted > prepended.intercepted, "{short:?}");
    }

    #[test]
    fn gap_prober_sweeps_loose_roa_and_demotes_on_minimal() {
        let (t, victim, attacker, p, q) = world();
        let policies = CompiledPolicies::compile(&vec![RovPolicy::DropInvalid; t.len()]);
        let loose: VrpIndex = [Vrp::new(p, 24, t.asn(victim))].into_iter().collect();
        let swept = run_strategy(
            &MaxLengthGapProber,
            &setup(&t, victim, attacker, p, q, &loose, &policies),
        );
        assert_eq!(swept.interception_fraction(), 1.0, "{swept:?}");

        let minimal: VrpIndex = [Vrp::exact(p, t.asn(victim))].into_iter().collect();
        let s = setup(&t, victim, attacker, p, q, &minimal, &policies);
        let demoted = run_strategy(&MaxLengthGapProber, &s);
        let reference = run_strategy(&AttackKind::ForgedOriginPrefixHijack, &s);
        assert_eq!(demoted, reference, "minimal ROA demotes the prober");
        assert!(demoted.interception_fraction() < 1.0);

        let none = VrpIndex::new();
        let unconstrained = run_strategy(
            &MaxLengthGapProber,
            &setup(&t, victim, attacker, p, q, &none, &policies),
        );
        assert_eq!(unconstrained.interception_fraction(), 1.0);
    }

    #[test]
    fn leak_with_no_learned_route_stays_silent() {
        // Give the victim's announcement a wrong-origin ROA under
        // universal ROV: nobody (including the attacker) learns it, so
        // the leak has nothing to replay and nothing is intercepted.
        let (t, victim, attacker, p, q) = world();
        let policies = CompiledPolicies::compile(&vec![RovPolicy::DropInvalid; t.len()]);
        let wrong_origin: VrpIndex = [Vrp::exact(p, t.asn(attacker))].into_iter().collect();
        let outcome = run_strategy(
            &RouteLeak,
            &setup(&t, victim, attacker, p, q, &wrong_origin, &policies),
        );
        assert_eq!(outcome.intercepted, 0);
        assert_eq!(outcome.legitimate, 0);
        // Zero routed trials must report 0.0, not NaN (regression).
        assert_eq!(outcome.interception_fraction(), 0.0);
        // A leak that announced anyway would tally the same (0, 0): the
        // Invalid announcement is dropped everywhere. The plan itself
        // must be empty.
        let victim_asn = t.asn(victim);
        let ctx = StrategyContext {
            topology: &t,
            victim,
            attacker,
            victim_prefix: p,
            sub_prefix: q,
            vrps: &wrong_origin,
            group: &TrialGroup::default(),
            victim_seed: Seed::origin(victim, victim_asn),
            accept_p: &OriginFilter::new(&wrong_origin, p, &[victim_asn], &policies),
        };
        assert_eq!(RouteLeak.plan(&ctx).announcement, None);
    }

    #[test]
    fn route_leak_plans_alike_in_a_shared_group_and_in_fresh_ones() {
        // One group per placement, shared by every ROA configuration and
        // two deployments: the memo of the attacker's learned length must
        // plan what a fresh group plans, and that length is the one the
        // victim-only propagation settles at the attacker.
        let (t, victim, _, p, q) = world();
        let stubs = t.stubs();
        let victim_asn = t.asn(victim);
        let deployments = [
            DeploymentModel::Uniform { p: 0.75 },
            DeploymentModel::TopIspsFirst { p: 0.25 },
        ]
        .map(|d| CompiledPolicies::compile(&d.policies(&t, 7)));
        let configs = RoaConfig::ALL.map(|roa| roa.vrps(p, 24, victim_asn));
        let baseline = PropagationEngine::new(&t).propagate(
            &[Seed::origin(victim, victim_asn)],
            &|_, _| true,
            &mut Workspace::new(),
        );
        let plan = |group: &TrialGroup<'_>, attacker, vrps: &VrpIndex, policies| {
            let ctx = StrategyContext {
                topology: &t,
                victim,
                attacker,
                victim_prefix: p,
                sub_prefix: q,
                vrps,
                group,
                victim_seed: Seed::origin(victim, victim_asn),
                accept_p: &OriginFilter::new(vrps, p, &[victim_asn], policies),
            };
            RouteLeak.plan(&ctx)
        };
        let mut lengths = std::collections::BTreeSet::new();
        for &attacker in stubs.iter().rev().step_by(7).filter(|&&a| a != victim) {
            let learned = baseline.route(attacker).map(|r| r.path_len);
            lengths.insert(learned);
            let shared = TrialGroup::default();
            for policies in &deployments {
                for vrps in &configs {
                    let fresh = plan(&TrialGroup::default(), attacker, vrps, policies);
                    assert_eq!(plan(&shared, attacker, vrps, policies), fresh);
                    assert_eq!(fresh.announcement.map(|a| a.path_len), learned);
                    let s = setup(&t, victim, attacker, p, q, vrps, policies);
                    let staged = run_strategy_speculative(&RouteLeak, &s, &shared, None);
                    assert!(
                        matches!(staged, Staged::Ready(o) if o == run_strategy(&RouteLeak, &s)),
                        "attacker {attacker}"
                    );
                }
            }
            assert_eq!(shared.learned_len.get(), Some(&learned));
        }
        // Placements that learn different lengths, so a memo shared
        // across groups would show.
        assert!(lengths.len() > 1, "{lengths:?}");
    }

    /// Announces the parent of the victim's prefix under its own origin.
    struct CoveringAnnouncement;

    impl AttackerStrategy for CoveringAnnouncement {
        fn label(&self) -> String {
            "covering announcement".to_string()
        }

        fn plan(&self, ctx: &StrategyContext<'_>) -> AttackPlan {
            AttackPlan {
                announcement: Some(AttackAnnouncement {
                    prefix: "168.122.0.0/15".parse().unwrap(),
                    claimed_origin: ctx.attacker_asn(),
                    path_len: 0,
                }),
                target: ctx.sub_prefix,
            }
        }
    }

    #[test]
    fn less_specific_announcement_only_catches_what_the_victim_lost() {
        let (t, victim, attacker, p, q) = world();
        let policies = CompiledPolicies::compile(&vec![RovPolicy::DropInvalid; t.len()]);
        // The victim's own table is the more specific one and wins
        // wherever it holds a route: everywhere, with no ROA in the way.
        let none = VrpIndex::new();
        let s = setup(&t, victim, attacker, p, q, &none, &policies);
        let shadowed = run_strategy(&CoveringAnnouncement, &s);
        assert_eq!(
            (shadowed.intercepted, shadowed.legitimate),
            (0, t.len() - 2)
        );
        // A wrong-origin ROA for `p` makes the victim's announcement
        // Invalid everywhere and leaves the /15 NotFound: every AS falls
        // through to the attacker's table.
        let wrong_origin: VrpIndex = [Vrp::exact(p, t.asn(attacker))].into_iter().collect();
        let s = setup(&t, victim, attacker, p, q, &wrong_origin, &policies);
        let exposed = run_strategy(&CoveringAnnouncement, &s);
        assert_eq!((exposed.intercepted, exposed.legitimate), (t.len() - 2, 0));
    }

    #[test]
    fn labels_are_stable_and_distinct() {
        let strategies: Vec<Box<dyn AttackerStrategy>> = vec![
            Box::new(AttackKind::ForgedOriginPrefixHijack),
            Box::new(AttackKind::ForgedOriginSubprefixHijack),
            Box::new(RouteLeak),
            Box::new(PathForgery::shortened()),
            Box::new(PathForgery::prepended(3)),
            Box::new(MaxLengthGapProber),
        ];
        let labels: Vec<String> = strategies.iter().map(|s| s.label()).collect();
        let unique: std::collections::BTreeSet<&String> = labels.iter().collect();
        assert_eq!(unique.len(), labels.len(), "{labels:?}");
        assert!(labels.contains(&MaxLengthGapProber::LABEL.to_string()));
    }
}
