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

use std::cell::{OnceCell, RefCell};

use rpki_prefix::Prefix;
use rpki_roa::Asn;
use rpki_rov::VrpIndex;

use crate::attack::{AttackKind, AttackOutcome, AttackSetup};
use crate::engine::{
    with_workspace, FilterFootprint, Lane, OriginFilter, PropagationEngine, LANES,
};
use crate::exec::ExecStats;
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
            self.group.counts.borrow_mut().baselines += 1;
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
/// A group with a [`LaneBatch`] defers its [`StagingKind::Lane`]
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
    /// Outcomes of the stagings the group shares, by [`StagingKey`].
    memo: RefCell<Vec<(StagingKey, Staged)>>,
    /// Where [`StagingKind::Lane`] stagings wait for the lane kernel.
    batch: Option<&'b RefCell<LaneBatch>>,
    /// The group's [`ExecStats::baselines`], its stagings by kind and
    /// those answered from `memo`; no other field is set.
    pub counts: RefCell<ExecStats>,
}

/// Everything a shared staging's outcome depends on once its group
/// fixes topology, victim and attacker. A transparent filter accepts at
/// every AS under every deployment and VRP set, so head to head that is
/// the attacker's seed, and alone (`None`) nothing: an accept-all
/// propagation from the attacker reaches every AS whatever its seed.
type StagingKey = Option<Seed>;

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
    /// A group deferring its [`StagingKind::Lane`] stagings into `batch`.
    pub fn deferring(batch: &'b RefCell<LaneBatch>) -> TrialGroup<'b> {
        TrialGroup {
            batch: Some(batch),
            ..TrialGroup::default()
        }
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
    match stage(strategy, setup, &TrialGroup::default(), None) {
        Staged::Ready(outcome) => outcome,
        Staged::Lane(_) => unreachable!("a group without a batch settles every staging"),
    }
}

/// How a staging is answered, as [`classify`] decides it before anything
/// runs; [`stage`] runs each kind in one `match`, and
/// [`ExecStats`] counts it under its kind.
#[derive(Debug, Clone, Copy)]
pub(crate) enum StagingKind<'f> {
    /// Nothing is announced toward the target.
    Silent,
    /// Transparent and more specific, with a transparent victim: both
    /// reach every AS ([`Topology`]'s hierarchy invariant).
    Structural,
    /// Transparent, seedable and head to head.
    Lane(Lane),
    /// Tallied off a push run under `filter`: any other head-to-head
    /// staging, or a `more_specific` one with a transparent victim.
    Push {
        more_specific: bool,
        filter: &'f OriginFilter<'f>,
    },
    /// Propagated alone under `filter` and tallied beside the baseline;
    /// a `shared` one is transparent, seedable and less specific.
    Stacked {
        more_specific: bool,
        filter: &'f OriginFilter<'f>,
        shared: bool,
    },
}

impl StagingKind<'_> {
    /// The key its trial group shares the outcome under, if any.
    fn memo_key(&self) -> Option<StagingKey> {
        match *self {
            StagingKind::Lane(lane) => Some(Some(lane.seeds[1])),
            StagingKind::Stacked { shared: true, .. } => Some(None),
            _ => None,
        }
    }

    /// The [`ExecStats`] field that counts this kind.
    fn counter(self, stats: &mut ExecStats) -> &mut usize {
        match self {
            StagingKind::Silent => &mut stats.silent,
            StagingKind::Structural => &mut stats.structural,
            StagingKind::Lane(_) => &mut stats.lane,
            StagingKind::Push { .. } => &mut stats.push,
            StagingKind::Stacked { .. } => &mut stats.stacked,
        }
    }
}

/// Decides how a staging is answered. `attack` is the plan's
/// announcement toward its target and that announcement's import filter
/// (`None` if the plan announces nothing there), `seeds` the victim's
/// seed and the attacker's, `accept_p` the victim's import filter, and
/// `seedable` whether the engine takes the attacker's seed: a seed it
/// refuses is never answered without it.
pub(crate) fn classify<'f>(
    setup: &AttackSetup<'_>,
    attack: Option<(AttackAnnouncement, &'f OriginFilter<'f>)>,
    seeds: [Seed; 2],
    accept_p: &OriginFilter<'_>,
    seedable: bool,
) -> StagingKind<'f> {
    let Some((ann, filter)) = attack else {
        return StagingKind::Silent;
    };
    let head_to_head = ann.prefix == setup.victim_prefix;
    let more_specific = ann.prefix.len() > setup.victim_prefix.len();
    // No AS filters the victim, so its announcement reaches every AS
    // (`Topology`'s hierarchy invariant): each one a more-specific table
    // misses routes legitimately.
    let over_victim = more_specific && accept_p.is_transparent();
    let transparent = filter.is_transparent() && seedable;
    if head_to_head && transparent {
        let (attacker, victim) = (setup.attacker, setup.victim);
        StagingKind::Lane(Lane {
            seeds,
            attacker,
            victim,
        })
    } else if over_victim && transparent {
        StagingKind::Structural
    } else if head_to_head || over_victim {
        StagingKind::Push {
            more_specific,
            filter,
        }
    } else {
        let shared = transparent && !more_specific;
        StagingKind::Stacked {
            more_specific,
            filter,
            shared,
        }
    }
}

/// The trial executor's entry point: [`run_strategy`] within a trial
/// group owned by the caller (see [`TrialGroup`]), which shares the
/// baseline and the memo's outcomes, perhaps a [`Staged::Lane`] of its
/// batch, and counts the staging. When supplied, `footprint` mirrors
/// every adopter-bitset consultation of the attack staging — the execute
/// half of the executor's Block-STM-style execute-then-validate scheme
/// ([`crate::exec`] module docs); the outcome is bit-identical with and
/// without recording.
pub(crate) fn stage(
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

    // The pre-attack world is offered to the strategy lazily: only the
    // stagings that read it pay for the extra propagation.
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
    let ann = plan.announcement.filter(|a| a.prefix.covers(plan.target));
    // Head to head, one propagation holds both announcements, the
    // victim's first; otherwise the attacker's propagates alone.
    let alone = usize::from(ann.is_some_and(|a| a.prefix != setup.victim_prefix));
    let seeds = [
        victim_seed,
        ann.map_or(victim_seed, |a| Seed {
            at: attacker,
            path_len: a.path_len,
            claimed_origin: a.claimed_origin,
        }),
    ];
    let filter = ann.map(|a| {
        let origins = &[victim_asn, a.claimed_origin][alone..];
        OriginFilter::new(setup.vrps, a.prefix, origins, compiled)
    });
    let seedable = ann.is_some_and(|a| a.path_len <= engine.max_seed_len());
    let kind = classify(setup, ann.zip(filter.as_ref()), seeds, &accept_p, seedable);
    let seeds = &seeds[alone..];

    let key = kind.memo_key();
    let memo = |key| group.memo.borrow().iter().find(|e| e.0 == key).map(|e| e.1);
    if let Some(hit) = key.and_then(memo) {
        group.counts.borrow_mut().memo += 1;
        return hit;
    }
    *kind.counter(&mut group.counts.borrow_mut()) += 1;
    let staged = match kind {
        StagingKind::Silent => {
            Staged::Ready(AttackOutcome::tally(&[ctx.baseline()], attacker, victim))
        }
        StagingKind::Structural => Staged::Ready(AttackOutcome {
            intercepted: t.len() - 2,
            ..AttackOutcome::default()
        }),
        StagingKind::Lane(lane) => match group.batch {
            Some(batch) => batch.borrow_mut().push(&engine, lane),
            None => {
                let mut out = [AttackOutcome::default()];
                with_workspace(|ws| engine.transparent_outcomes(&[lane], ws, &mut out));
                Staged::Ready(out[0])
            }
        },
        StagingKind::Push {
            more_specific,
            filter,
        } => {
            let accept = recording(filter, footprint);
            let mut outcome = with_workspace(|ws| {
                engine.propagate_outcome(seeds, &accept, ws, None, attacker, victim)
            });
            if more_specific {
                outcome.legitimate += std::mem::take(&mut outcome.disconnected);
            }
            Staged::Ready(outcome)
        }
        StagingKind::Stacked {
            more_specific,
            filter,
            ..
        } => {
            let accept = recording(filter, footprint);
            let attacked = with_workspace(|ws| engine.propagate(seeds, &accept, ws));
            let tables = if more_specific {
                [&attacked, ctx.baseline()]
            } else {
                [ctx.baseline(), &attacked]
            };
            Staged::Ready(AttackOutcome::tally(&tables, attacker, victim))
        }
    };
    if let Some(key) = key {
        group.memo.borrow_mut().push((key, staged));
    }
    staged
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
                    let staged = stage(&RouteLeak, &s, &shared, None);
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
    fn classify_sends_each_staging_to_its_kind() {
        // A filtered head-to-head staging and one whose seed the engine
        // refuses are pushed through their filter, never a lane of the
        // accept-all kernel; a more-specific one is structural only while
        // no claimed origin is Invalid, and a less-specific one is
        // stacked, shared while transparent.
        let (t, victim, attacker, p, q) = world();
        let policies = CompiledPolicies::compile(&vec![RovPolicy::DropInvalid; t.len()]);
        let (victim_asn, attacker_asn) = (t.asn(victim), t.asn(attacker));
        let none = VrpIndex::new();
        let minimal: VrpIndex = [Vrp::exact(p, victim_asn)].into_iter().collect();
        let wider = p.parent().unwrap();
        let kind = |vrps: &VrpIndex, prefix: Prefix, seedable: bool| {
            let s = setup(&t, victim, attacker, p, q, vrps, &policies);
            let accept_p = OriginFilter::new(vrps, p, &[victim_asn], &policies);
            let origins = [victim_asn, attacker_asn];
            let origins = &origins[usize::from(prefix != p)..];
            let filter = OriginFilter::new(vrps, prefix, origins, &policies);
            let ann = AttackAnnouncement {
                prefix,
                claimed_origin: attacker_asn,
                path_len: 0,
            };
            let seeds = [
                Seed::origin(victim, victim_asn),
                Seed {
                    at: attacker,
                    path_len: 0,
                    claimed_origin: attacker_asn,
                },
            ];
            match classify(&s, Some((ann, &filter)), seeds, &accept_p, seedable) {
                StagingKind::Silent => "silent",
                StagingKind::Structural => "structural",
                StagingKind::Lane(_) => "lane",
                StagingKind::Push { .. } => "push",
                StagingKind::Stacked { shared: true, .. } => "shared stacked",
                StagingKind::Stacked { .. } => "stacked",
            }
        };
        assert_eq!(kind(&none, p, true), "lane");
        assert_eq!(kind(&none, p, false), "push");
        assert_eq!(kind(&minimal, p, true), "push");
        assert_eq!(kind(&none, q, true), "structural");
        assert_eq!(kind(&none, q, false), "push");
        assert_eq!(kind(&minimal, q, true), "push");
        assert_eq!(kind(&none, wider, true), "shared stacked");
        assert_eq!(kind(&none, wider, false), "stacked");
        let s = setup(&t, victim, attacker, p, q, &none, &policies);
        let accept_p = OriginFilter::new(&none, p, &[victim_asn], &policies);
        let seeds = [Seed::origin(victim, victim_asn); 2];
        assert!(matches!(
            classify(&s, None, seeds, &accept_p, false),
            StagingKind::Silent
        ));
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
