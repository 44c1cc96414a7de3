//! The flat-graph propagation engine: the zero-allocation path behind
//! [`crate::routing::propagate`], and the only propagation the crate
//! ships.
//!
//! Every number the reproduction reports is a mean over thousands of
//! propagation calls, so per-call cost is the scaling bottleneck. The
//! heap-based implementation the engine replaced (now the test oracle in
//! `tests/support/reference.rs`) pays for generality on every edge
//! relaxation: heap allocations per call, `&dyn Fn` import-filter
//! dispatch, and relationship branching over mixed adjacency lists. The
//! engine removes all three:
//!
//! 1. **CSR phase slices** — the [`Topology`] stores each AS's neighbors
//!    partitioned into contiguous customer/peer/provider ranges, so the
//!    three Gao–Rexford phases iterate exactly the slice they need with
//!    no per-edge `Relationship` branch.
//! 2. **Reusable [`Workspace`]** — bitset membership stamps over packed
//!    16-byte route words plus a path-length bucket queue of bare `u32`
//!    AS indices replacing the `BinaryHeap` (path lengths are small
//!    bounded integers). A bucket is drained as a *set*: scattered into
//!    a one-bit-per-AS bitmap whose words are then walked, which visits
//!    ASes in ascending order without a sort. Phase 3's queue is
//!    seeded from the settled bitset's words the same way, so a push
//!    run never tests all n ASes one by one. Steady-state trials
//!    allocate nothing in the engine's scratch: every call takes the
//!    caller's workspace, and the executor keeps one per worker in a
//!    process-wide pool between passes, so its workers, fresh threads
//!    every pass, reuse the scratch of the last one. Hot state is
//!    ≈ 32.4 bytes per AS plus the bucket queue: at 80k ASes a
//!    workspace that has only pushed holds 3.51 MB (the benchmark's
//!    `bgpsim.engine.workspace_bytes`), and the lane kernel's rows add
//!    16 bytes per AS, 1.28 MB.
//! 3. **Monomorphized, precomputed import filters** — the engine is
//!    generic over the accept filter, and [`OriginFilter`] resolves each
//!    claimed origin's ROV verdict against the VRPs **once per
//!    propagation** and each deployment's adopter set into a
//!    [`CompiledPolicies`] bitset **once per deployment**, making
//!    `accept` a word-indexed bit test instead of an index walk plus
//!    policy dispatch per edge.
//! 4. **One data-plane tally** —
//!    [`PropagationEngine::propagate_outcome`] hands the table still in
//!    the workspace (and the less-specific one, if any) to
//!    `AttackOutcome::tally`, the crate's one longest-prefix-match
//!    count, without copying it out.
//! 5. **An outcome-only provider phase, sixteen stagings a sweep** — a
//!    staging that no AS filters and that needs only its tally is a
//!    *lane* of `PropagationEngine::transparent_outcomes`. Each lane
//!    runs phases 1–2 as a push run does; then one ascending sweep over
//!    16-byte rows, one byte per lane and AS, settles phase 3 for up to
//!    16 stagings at once instead of a bucket drain each, which
//!    was most of a push run's time. A byte holds `path_len << 1 | seed
//!    bit` and saturates at 127 hops; a lane that comes near that (a
//!    seed claiming ≥ 126 hops) is flagged and re-settled by an
//!    accept-all [`PropagationEngine::propagate_outcome`] in the same
//!    call, so every lane is exact.
//!
//! # Bit-identical contract
//!
//! On every input it takes, the engine produces the same
//! [`Propagation`] as the reference — same routes, same deterministic
//! tie-breaks, same `next_hop` choices. The reference pops a
//! `BinaryHeap` ordered by `(path_len, claimed_origin, delivers_to,
//! as_index)`; the engine buckets entries by `path_len` and drains each
//! bucket in ascending AS-index order, which settles the same routes
//! (see `Workspace::push` for the argument). The contract is pinned by
//! the `engine_props` differential proptests and the golden fixtures.
//!
//! The contract covers tables. The lane kernel builds none: each lane
//! is **outcome-identical** — the same `(intercepted, legitimate,
//! disconnected)` as an accept-all [`PropagationEngine::propagate_outcome`]
//! and as the reference's routes tallied — on every topology that keeps
//! [`Topology`]'s hierarchy invariant, whatever else shares its sweep.
//! This module's lane differential pins that against the push run, and
//! `structure_props` against the reference.
//!
//! The engine does not take every input: a seed claiming a path longer
//! than [`PropagationEngine::max_seed_len`] is refused with a panic, not
//! handed to a second implementation.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};

use rpki_prefix::Prefix;
use rpki_roa::{Asn, RouteOrigin};
use rpki_rov::{RovPolicy, VrpIndex};

use crate::attack::AttackOutcome;
use crate::routing::{PackedRoute, Propagation, RouteClass, Seed, PATH_LEN_BITS};
use crate::topology::Topology;

/// Seeds may claim paths up to `DENSE_SLACK * (n + 2)` long: the dense
/// bucket array is never sized after an adversarial `path_len` (every
/// shipped strategy stays far below this). The packed length field
/// ([`PATH_LEN_BITS`]) is the second cap, lower only past 2²⁷ ASes.
const DENSE_SLACK: u64 = 4;

/// Stagings [`PropagationEngine::transparent_outcomes`] settles in one
/// sweep: a one-byte label each, so an AS's row is 16 bytes.
pub(crate) const LANES: usize = 16;

/// A lane's label for an AS without a route.
const NO_ROUTE: u8 = u8::MAX;

/// One transparent head-to-head staging, a lane of
/// [`PropagationEngine::transparent_outcomes`]: two seeds no AS filters,
/// one at the victim and one at the attacker in either order, and the
/// two ASes themselves, which its tally leaves out.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Lane {
    pub seeds: [Seed; 2],
    pub attacker: usize,
    pub victim: usize,
}

/// Reusable propagation scratch, one per worker: every engine call
/// takes the caller's.
///
/// # Bitset-stamp invariant
///
/// Hot state is three packed bitsets, two `PackedRoute` arrays and one
/// 16-byte lane row per AS — ~48.4 bytes per AS plus the bucket queue,
/// down from the 132 bytes/AS of the earlier epoch-stamped layout
/// (three `u32` stamp arrays + three 40-byte `RouteInfo` arrays), which
/// is what lets an 80k-AS internet-scale workspace stay cache-resident:
///
/// * `settled` — the route table being built, in the form a stored
///   [`Propagation`] has: one bit per AS ("this AS has settled its route
///   this propagation") over the packed slots, a slot live **iff** its
///   bit is set.
/// * `pend_set` — one bit per AS for the *current phase's* best pending
///   candidate in `pending`. The array is reused three times per
///   propagation (phase-1 pending, phase-2 peer offers, phase-3
///   pending); `Workspace::clear_pending` zeroes the bitset — an
///   `n/64`-word memset, not an O(n) slot reset — between phases.
/// * `Workspace::begin` zeroes both bitsets, so a back-to-back run
///   through one workspace is always identical to a fresh-workspace run
///   (pinned by the `engine_props` reuse proptest). No epochs, no wrap
///   handling: a cleared bit *is* the absence of the slot.
/// * `buckets` is the path-length queue; entries are plain `u32` AS
///   indices (see `Workspace::push` for why that preserves the
///   reference heap's tie-breaks) and bucket vectors are drained, not
///   deallocated, so their capacity is retained across trials.
/// * `drain_set` — one bit per AS: the bucket being drained, as a set.
///   The drain clears each word as it reads it, so the bitmap is
///   all-zero between drains and `begin` never touches it.
/// * `lanes` — one `[u8; LANES]` row per AS, the outcome-only provider
///   phase of `PropagationEngine::transparent_outcomes`: 1.28 MB at
///   80k ASes. Every sweep resets the rows before writing them; the
///   array is sized by the first sweep, not by `begin`, so a workspace
///   that only pushes never holds it.
#[derive(Debug, Default)]
pub struct Workspace {
    n: usize,
    settled: Propagation,
    /// `n / 64` words of pending/offer membership (reused per phase).
    pend_set: Vec<u64>,
    pending: Vec<PackedRoute>,
    /// `buckets[len]` holds the AS indices awaiting settlement at path
    /// length `len`.
    buckets: Vec<Vec<u32>>,
    /// `n / 64` words: the bucket being drained, all-zero otherwise.
    drain_set: Vec<u64>,
    /// Highest bucket index holding entries for the current phase.
    hi: usize,
    /// `path_len << 1 | seed bit` per AS and lane, for the lane kernel.
    lanes: Vec<[u8; LANES]>,
}

impl Workspace {
    /// An empty workspace; arrays size themselves to the first topology
    /// they see and are reused verbatim afterwards.
    pub fn new() -> Workspace {
        Workspace::default()
    }

    /// Bytes of scratch currently allocated — the per-worker footprint
    /// an internet-scale fan-out multiplies by the worker count. Counts
    /// array capacities (what the allocator holds), not lengths.
    pub fn memory_bytes(&self) -> usize {
        self.settled.set.capacity() * 8
            + self.pend_set.capacity() * 8
            + self.drain_set.capacity() * 8
            + self.settled.routes.capacity() * std::mem::size_of::<PackedRoute>()
            + self.pending.capacity() * std::mem::size_of::<PackedRoute>()
            + self.lanes.capacity() * LANES
            + self.buckets.capacity() * std::mem::size_of::<Vec<u32>>()
            + self.buckets.iter().map(|b| b.capacity() * 4).sum::<usize>()
    }

    /// Prepares the workspace for one propagation over `n` ASes.
    fn begin(&mut self, n: usize) {
        let words = n.div_ceil(64);
        if self.n != n {
            self.n = n;
            self.settled.set.clear();
            self.settled.set.resize(words, 0);
            self.pend_set.clear();
            self.pend_set.resize(words, 0);
            self.drain_set.clear();
            self.drain_set.resize(words, 0);
            self.settled.routes.clear();
            self.settled.routes.resize(n, PackedRoute::EMPTY);
            self.pending.clear();
            self.pending.resize(n, PackedRoute::EMPTY);
        } else {
            self.settled.set.fill(0);
            self.pend_set.fill(0);
        }
        self.hi = 0;
    }

    /// Starts a fresh phase over the `pending` array.
    #[inline]
    fn clear_pending(&mut self) {
        self.pend_set.fill(0);
    }

    /// `true` if AS `at` settled its route this propagation.
    #[inline]
    fn routed(&self, at: usize) -> bool {
        self.settled.routed(at)
    }

    /// Marks AS `at` settled.
    #[inline]
    fn settle(&mut self, at: usize, info: PackedRoute) {
        self.settled.set[at >> 6] |= 1 << (at & 63);
        self.settled.routes[at] = info;
    }

    /// `true` if AS `at` holds a pending candidate this phase.
    #[inline]
    fn has_pending(&self, at: usize) -> bool {
        (self.pend_set[at >> 6] >> (at & 63)) & 1 != 0
    }

    /// Installs `cand` as `at`'s pending offer if it beats the current
    /// one under the deterministic tie-break (a clear membership bit
    /// counts as empty). Returns whether a bucket entry should be
    /// pushed.
    #[inline]
    fn improve_pending(&mut self, at: usize, cand: PackedRoute) -> bool {
        if self.has_pending(at) && cand.pref() >= self.pending[at].pref() {
            return false;
        }
        self.pend_set[at >> 6] |= 1 << (at & 63);
        self.pending[at] = cand;
        true
    }

    /// Queues `at` for settlement at path length `len`.
    ///
    /// Entries are bare AS indices: settling a bucket in ascending `at`
    /// order produces the same propagation as the reference heap's
    /// `(path_len, claimed_origin, delivers_to, as_index)` order, and
    /// visiting an AS once per bucket is the same as visiting it once
    /// per entry: a second visit finds it settled and does nothing.
    /// Within one bucket every settlement reads the *current best*
    /// pending slot and exports only into the next bucket, so the drain
    /// order can influence the result only where two same-length
    /// candidates tie on the full `(class, path_len, claimed_origin,
    /// delivers_to)` key and differ in `next_hop` — and there both
    /// orders elect the tied exporter with the smallest AS index. The
    /// `engine_props` differential proptests pin this equivalence; the
    /// payoff is a 4x smaller queue whose drains walk the CSR rows in
    /// index order, i.e. cache-linearly.
    #[inline]
    fn push(&mut self, len: u32, at: usize) {
        let l = len as usize;
        if l >= self.buckets.len() {
            self.buckets.resize_with(l + 1, Vec::new);
        }
        self.buckets[l].push(at as u32);
        if l > self.hi {
            self.hi = l;
        }
    }

    /// Empties bucket `len` into `drain_set`, returning the word range
    /// its entries touched: an empty bucket costs O(1), not `n / 64`.
    #[inline]
    fn scatter_bucket(&mut self, len: usize) -> std::ops::Range<usize> {
        let (mut lo, mut hi) = (usize::MAX, 0);
        for &at in &self.buckets[len] {
            let w = (at >> 6) as usize;
            self.drain_set[w] |= 1 << (at & 63);
            lo = lo.min(w);
            hi = hi.max(w + 1);
        }
        self.buckets[len].clear();
        lo.min(hi)..hi
    }

    /// Settles the queued ASes — ascending path length, ascending AS
    /// index within one length (through `drain_set`, not a sort) —
    /// handing each to `export`, which queues at the next length only.
    #[inline]
    fn drain(&mut self, export: impl Fn(&mut Workspace, usize, PackedRoute)) {
        let mut len = 0;
        while len <= self.hi && len < self.buckets.len() {
            for w in self.scatter_bucket(len) {
                let mut bits = std::mem::take(&mut self.drain_set[w]);
                while bits != 0 {
                    let at = (w << 6) + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    if !self.has_pending(at) {
                        continue;
                    }
                    let info = self.pending[at];
                    if info.path_len() as usize != len || self.routed(at) {
                        continue; // stale bucket entry or already settled
                    }
                    self.settle(at, info);
                    export(self, at, info);
                }
            }
            len += 1;
        }
    }
}

/// A per-AS policy vector compiled to a bitset of the ASes that drop
/// RPKI-Invalid routes — built once per deployment, then shared by every
/// trial's [`OriginFilter`] as a word-indexed bit test.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledPolicies {
    words: Vec<u64>,
    len: usize,
}

impl CompiledPolicies {
    /// Compiles a policy vector.
    pub fn compile(policies: &[RovPolicy]) -> CompiledPolicies {
        let mut words = vec![0u64; policies.len().div_ceil(64)];
        for (at, policy) in policies.iter().enumerate() {
            let drops = match policy {
                RovPolicy::AcceptAll => false,
                RovPolicy::DropInvalid => true,
            };
            if drops {
                words[at >> 6] |= 1 << (at & 63);
            }
        }
        CompiledPolicies {
            words,
            len: policies.len(),
        }
    }

    /// Number of ASes covered.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if compiled from an empty policy vector.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// `true` if AS `at` drops RPKI-Invalid routes.
    #[inline]
    pub fn drops_invalid(&self, at: usize) -> bool {
        (self.words[at >> 6] >> (at & 63)) & 1 != 0
    }
}

/// Most claimed origins an [`OriginFilter`] can precompute — far above
/// the one or two a staged trial propagates.
const MAX_FILTER_ORIGINS: usize = 8;

/// A per-propagation import filter with all ROV verdicts precomputed.
///
/// A propagation only ever queries the claimed origins of its seeds — a
/// tiny set — so the filter resolves each origin against the
/// [`VrpIndex`] **once** (at construction) and keeps only the origins
/// that validate Invalid for the propagated prefix. Per edge,
/// `accept` is then a comparison against at most two words plus a
/// [`CompiledPolicies`] bit test: no index walk, no policy dispatch.
///
/// Semantics are exactly `policies[at].permits(vrps.validate(route))`
/// for the RFC 6811 policy set.
#[derive(Debug, Clone)]
pub struct OriginFilter<'a> {
    /// Every origin resolved at construction — the set `accept` may
    /// legally be asked about (guarded by a `debug_assert`).
    resolved: [u32; MAX_FILTER_ORIGINS],
    resolved_count: usize,
    /// The subset of `resolved` that validated Invalid for the prefix.
    invalid: [u32; MAX_FILTER_ORIGINS],
    count: usize,
    adopters: &'a CompiledPolicies,
}

impl<'a> OriginFilter<'a> {
    /// Resolves `origins` (the claimed origins the propagation will
    /// query) against `vrps` for `prefix`.
    ///
    /// # Panics
    ///
    /// Panics if more than `MAX_FILTER_ORIGINS` (8) distinct origins are
    /// supplied (staged trials propagate one or two).
    pub fn new(
        vrps: &VrpIndex,
        prefix: Prefix,
        origins: &[Asn],
        adopters: &'a CompiledPolicies,
    ) -> OriginFilter<'a> {
        let mut resolved = [0u32; MAX_FILTER_ORIGINS];
        let mut resolved_count = 0;
        let mut invalid = [0u32; MAX_FILTER_ORIGINS];
        let mut count = 0;
        for &origin in origins {
            let o = origin.into_u32();
            if resolved[..resolved_count].contains(&o) {
                continue;
            }
            assert!(
                resolved_count < MAX_FILTER_ORIGINS,
                "OriginFilter supports at most {MAX_FILTER_ORIGINS} claimed origins"
            );
            resolved[resolved_count] = o;
            resolved_count += 1;
            if vrps
                .validate(&RouteOrigin::new(prefix, origin))
                .is_invalid()
            {
                invalid[count] = o;
                count += 1;
            }
        }
        OriginFilter {
            resolved,
            resolved_count,
            invalid,
            count,
            adopters,
        }
    }

    /// `true` if no resolved origin validated Invalid — every `accept`
    /// query returns `true` regardless of which ASes adopt ROV, so the
    /// filtered propagation is **independent of the deployment**. The
    /// trial executor keys its cross-deployment outcome replay on this.
    /// (The invalid-set construction never consults the adopter bitset,
    /// so transparency itself is a property of the VRPs alone.)
    #[inline]
    pub fn is_transparent(&self) -> bool {
        self.count == 0
    }

    /// The import decision for AS `at` on a route claiming `origin`.
    ///
    /// `origin` must be one of the origins resolved at construction — a
    /// mismatch means the caller seeded a claimed origin the filter
    /// never validated, which would otherwise degrade silently to
    /// accept-all (debug builds assert instead).
    #[inline]
    pub fn accept(&self, at: usize, origin: Asn) -> bool {
        debug_assert!(
            self.resolved[..self.resolved_count].contains(&origin.into_u32()),
            "claimed origin {origin:?} was not resolved by this OriginFilter"
        );
        if self.count == 0 {
            return true;
        }
        let o = origin.into_u32();
        !(self.invalid[..self.count].contains(&o) && self.adopters.drops_invalid(at))
    }

    /// `true` if `origin` validated Invalid for this filter's prefix —
    /// the only case in which [`OriginFilter::accept`] consults the
    /// adopter bitset at all. Speculative execution records exactly
    /// these consultations: a valid (or NotFound) origin is accepted by
    /// every AS under every deployment, so only invalid-origin
    /// decisions can diverge between cells that share their VRPs.
    #[inline]
    pub fn origin_is_invalid(&self, origin: Asn) -> bool {
        self.count != 0 && self.invalid[..self.count].contains(&origin.into_u32())
    }
}

/// The filter footprint of one speculative propagation: the set of ASes
/// whose adopter-bitset consultation ([`CompiledPolicies::drops_invalid`])
/// actually influenced an import decision, each with the decision taken.
///
/// # Soundness
///
/// [`OriginFilter::accept`] consults the adopter bitset **only** for an
/// origin that validated Invalid against the trial's VRPs, and the
/// decision it takes for AS `at` is then `!drops_invalid(at)` —
/// independent of *which* invalid origin was asked about. Every other
/// consultation (valid or NotFound origin) returns `true` under every
/// deployment. So within a trial group — fixed topology, ROA
/// configuration, and attacker/victim placement, with only the adopter
/// bitset varying — recording the invalid-origin consultations, deduped
/// by AS index, captures **every** decision that can differ between
/// cells. If each recorded decision reproduces under another cell's
/// bitset ([`FilterFootprint::validates`]), propagation under that cell
/// unfolds through the identical sequence of accepted and rejected
/// imports and therefore produces the bit-identical outcome; a fully
/// transparent trial records nothing and validates vacuously, which is
/// exactly the executor's original transparent-replay contract as the
/// empty-footprint special case.
///
/// # Cost
///
/// The per-AS stamps are the footprint's own: `begin` bumps an epoch
/// instead of clearing the stamp table, so a footprint reused across
/// propagations (the executor pools one per worker, beside its
/// [`Workspace`]) is allocation-free in steady state and `note` is a
/// stamp compare plus (first time per AS) one push.
#[derive(Debug, Default)]
pub struct FilterFootprint {
    stamps: Vec<u64>,
    epoch: u64,
    entries: Vec<u64>,
}

impl FilterFootprint {
    /// An empty footprint (no capacity reserved until first `begin`).
    pub fn new() -> FilterFootprint {
        FilterFootprint::default()
    }

    /// Resets the footprint for a propagation over `n` ASes. O(1) in
    /// steady state (epoch bump, not a table clear).
    pub fn begin(&mut self, n: usize) {
        if self.stamps.len() < n {
            self.stamps.resize(n, 0);
        }
        self.epoch += 1;
        self.entries.clear();
    }

    /// Records that AS `at` received import decision `accepted` on an
    /// invalid-origin route. Deduplicates by AS index: the decision is
    /// a pure function of the adopter bitset at `at`, so later
    /// consultations of the same AS are necessarily identical.
    #[inline]
    pub fn note(&mut self, at: usize, accepted: bool) {
        if self.stamps[at] == self.epoch {
            return;
        }
        self.stamps[at] = self.epoch;
        self.entries.push(((at as u64) << 1) | u64::from(accepted));
    }

    /// Distinct ASes recorded since the last `begin`.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if no adopter-bitset consultation was recorded — the
    /// propagation was deployment-transparent.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The recorded `(AS index, accepted)` decisions, in first-consulted
    /// order.
    ///
    /// A test hook: `tests/engine_props.rs` and `tests/spec_props.rs`
    /// compare it with the reference's consultations.
    pub fn decisions(&self) -> impl Iterator<Item = (usize, bool)> + '_ {
        self.entries
            .iter()
            .map(|&e| ((e >> 1) as usize, e & 1 != 0))
    }

    /// `true` if every recorded decision reproduces under `adopters`:
    /// the O(|footprint|) validation that licenses replaying the
    /// recorded propagation's outcome for the deployment `adopters`
    /// compiles (see the type-level soundness argument).
    pub fn validates(&self, adopters: &CompiledPolicies) -> bool {
        self.entries.iter().all(|&e| {
            let at = (e >> 1) as usize;
            let accepted = e & 1 != 0;
            adopters.drops_invalid(at) != accepted
        })
    }
}

/// The flat-graph propagation engine over one topology.
///
/// Construction is free; all state lives in the caller's [`Workspace`].
pub struct PropagationEngine<'t> {
    topology: &'t Topology,
}

impl<'t> PropagationEngine<'t> {
    /// An engine over `topology`.
    pub fn new(topology: &'t Topology) -> PropagationEngine<'t> {
        PropagationEngine { topology }
    }

    /// The longest [`Seed::path_len`] the engine takes on this topology
    /// (`n` ASes): `4 * (n + 2)`, which bounds the bucket queue, capped
    /// so the longest settled path — at most `n + 1` hops past its seed
    /// — still fits the packed 30-bit length field.
    pub fn max_seed_len(&self) -> u32 {
        let n = self.topology.len() as u64;
        let packed = ((1u64 << PATH_LEN_BITS) - 1).saturating_sub(n + 2);
        (DENSE_SLACK * (n + 2)).min(packed) as u32
    }

    /// Propagates `seeds` under the `accept` import filter, reusing
    /// `ws`'s scratch. The returned table — a copy of the two arrays the
    /// run settled into — is the only allocation in steady state.
    ///
    /// # Panics
    ///
    /// Panics if a seed's `path_len` exceeds [`Self::max_seed_len`].
    pub fn propagate<F>(&self, seeds: &[Seed], accept: &F, ws: &mut Workspace) -> Propagation
    where
        F: Fn(usize, Asn) -> bool + ?Sized,
    {
        self.run(seeds, accept, ws);
        ws.settled.clone()
    }

    /// Propagates `seeds` and tallies, straight off the workspace and
    /// without copying a table out, where each AS's traffic for the
    /// measured target lands: at `attacker`, at the legitimate
    /// deliverer, or nowhere. ASes without a route in the propagated
    /// table fall back to their route in `fallback` (the less-specific
    /// table of a longest-prefix-match data plane), if given.
    /// `attacker` and `victim` themselves are excluded from the count.
    ///
    /// # Panics
    ///
    /// Panics if a seed's `path_len` exceeds [`Self::max_seed_len`].
    pub fn propagate_outcome<F>(
        &self,
        seeds: &[Seed],
        accept: &F,
        ws: &mut Workspace,
        fallback: Option<&Propagation>,
        attacker: usize,
        victim: usize,
    ) -> AttackOutcome
    where
        F: Fn(usize, Asn) -> bool + ?Sized,
    {
        self.run(seeds, accept, ws);
        match fallback {
            Some(less_specific) => {
                AttackOutcome::tally(&[&ws.settled, less_specific], attacker, victim)
            }
            None => AttackOutcome::tally(&[&ws.settled], attacker, victim),
        }
    }

    /// The path length of AS `at`'s route when `origin` originates a
    /// prefix ([`Seed::origin`]) no AS filters, as [`Self::propagate`]
    /// settles it (claiming `origin`'s ASN), found without propagating
    /// by restating the three phases for one AS:
    ///
    /// 1. a breadth-first search up `origin`'s providers gives its
    ///    up-closure `U` and each member's depth;
    /// 2. an AS outside `U` with a peer in `U` takes the smallest such
    ///    depth + 1;
    /// 3. any other AS takes the minimum, over an upward search from it
    ///    that stops at the ASes of steps 1–2, of that AS's length plus
    ///    the hops climbed.
    ///
    /// `None` if `at` gets no route, which [`Topology`]'s hierarchy
    /// invariant rules out.
    ///
    /// # Panics
    ///
    /// Panics if `origin` or `at` is not an AS index of the topology.
    pub fn unfiltered_path_len(&self, origin: usize, at: usize) -> Option<u32> {
        let t = self.topology;
        assert!(
            origin < t.len() && at < t.len(),
            "unfiltered_path_len({origin}, {at}) on a topology of {} ASes",
            t.len()
        );
        let up = climb(t, origin, |_| false);
        let early = |a: usize| {
            let peers = t.peers(a).iter().filter_map(|&b| up.get(&(b as usize)));
            up.get(&a)
                .copied()
                .or_else(|| peers.min().map(|depth| depth + 1))
        };
        climb(t, at, |a| early(a).is_some())
            .into_iter()
            .filter_map(|(a, hops)| Some(early(a)? + hops))
            .min()
    }

    /// [`Self::propagate_outcome`]'s tally for each lane — two seeds no
    /// AS filters — into `out`, found without a provider-phase queue:
    /// what transparent head-to-head stagings read.
    ///
    /// Phases 1–2 run lane by lane as in [`Self::propagate`]. Every
    /// route phase 3 settles is a provider route, and a transparent
    /// outcome reads only where each route delivers, never `next_hop`.
    /// So an AS phases 1–2 left unrouted takes the smallest `(path_len +
    /// 1, claimed_origin, delivers_to)` over its providers — the order of
    /// [`PackedRoute::pref`] within one class. Under [`Topology`]'s
    /// hierarchy invariant every provider of such an AS has a smaller
    /// index, so one ascending sweep settles them all, for every lane at
    /// once: each AS keeps a 16-byte row, one label per lane,
    /// `path_len << 1 | seed bit`, where the seed bit orders the lane's
    /// two seeds by `(claimed_origin, at)` and `0xFF` is no route. The
    /// sweep takes the element-wise minimum of the providers' rows plus
    /// two, keeps the labels phases 1–2 settled, and counts per lane as
    /// it goes; the lane's attacker and victim are taken out afterwards.
    ///
    /// A label past 127 hops does not fit its byte. A lane whose
    /// settled labels or provider minimums come that close is re-settled
    /// by an accept-all [`Self::propagate_outcome`], so every lane is
    /// exact whatever shares its sweep. The workspace's table is left
    /// holding the last lane's phases 1–2, or that re-settled run.
    ///
    /// # Panics
    ///
    /// Panics unless `lanes` and `out` are the same length, at most
    /// `LANES`, if a lane's seeds are not at its attacker and its victim,
    /// two distinct ASes, or if a seed's `path_len` exceeds
    /// [`Self::max_seed_len`].
    pub(crate) fn transparent_outcomes(
        &self,
        lanes: &[Lane],
        ws: &mut Workspace,
        out: &mut [AttackOutcome],
    ) {
        assert!(lanes.len() <= LANES && out.len() == lanes.len());
        let t = self.topology;
        let n = t.len();
        ws.lanes.clear();
        ws.lanes.resize(n, [NO_ROUTE; LANES]);
        // Per lane: the seed that loses a length tie, whose routes carry
        // the seed bit, and whether a label overflowed its byte.
        let mut high_at = [0; LANES];
        let mut overflow = [false; LANES];
        for (k, lane) in lanes.iter().enumerate() {
            let ats = [lane.seeds[0].at, lane.seeds[1].at];
            assert!(
                lane.attacker != lane.victim
                    && (ats == [lane.victim, lane.attacker] || ats == [lane.attacker, lane.victim]),
                "a lane's seeds are at its victim and its attacker, two ASes"
            );
            self.upward(&lane.seeds, &|_, _| true, ws);
            let key = |s: &Seed| (s.claimed_origin, s.at);
            high_at[k] = lane.seeds[usize::from(key(&lane.seeds[0]) < key(&lane.seeds[1]))].at;
            for w in 0..ws.settled.set.len() {
                let mut bits = ws.settled.set[w];
                while bits != 0 {
                    let at = (w << 6) + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let route = ws.settled.routes[at];
                    let label =
                        route.path_len() << 1 | u32::from(route.delivers_to() == high_at[k]);
                    overflow[k] |= label >= u32::from(NO_ROUTE);
                    ws.lanes[at][k] = label.min(u32::from(NO_ROUTE)) as u8;
                }
            }
        }

        // The sweep, counting no-route labels and seed bits per lane in
        // bytes over runs of at most 255 ASes.
        let rows = &mut ws.lanes;
        let mut near_full = [0u8; LANES];
        let (mut none, mut seeded) = ([0usize; LANES], [0usize; LANES]);
        for run in (0..n).step_by(255) {
            let (mut run_none, mut run_seeded) = ([0u8; LANES], [0u8; LANES]);
            for at in run..(run + 255).min(n) {
                let mut best = [NO_ROUTE; LANES];
                for &p in t.providers(at) {
                    let row = &rows[p as usize];
                    for k in 0..LANES {
                        best[k] = best[k].min(row[k]);
                    }
                }
                let row = &mut rows[at];
                for k in 0..LANES {
                    // A minimum of 0xFD or 0xFE would saturate into no route.
                    near_full[k] |= u8::from(best[k].wrapping_add(3) < 2);
                    if row[k] == NO_ROUTE {
                        row[k] = best[k].saturating_add(2);
                    }
                    run_none[k] += u8::from(row[k] == NO_ROUTE);
                    run_seeded[k] += row[k] & 1;
                }
            }
            for k in 0..LANES {
                none[k] += usize::from(run_none[k]);
                seeded[k] += usize::from(run_seeded[k]);
            }
        }

        for (k, lane) in lanes.iter().enumerate() {
            let (attacker, victim) = (lane.attacker, lane.victim);
            if overflow[k] || near_full[k] != 0 {
                out[k] =
                    self.propagate_outcome(&lane.seeds, &|_, _| true, ws, None, attacker, victim);
                continue;
            }
            // `NO_ROUTE` has its low bit set too.
            let with_bit = seeded[k] - none[k];
            let without_bit = n - none[k] - with_bit;
            let outcome = &mut out[k];
            *outcome = if high_at[k] == attacker {
                AttackOutcome {
                    intercepted: with_bit,
                    legitimate: without_bit,
                    disconnected: none[k],
                }
            } else {
                AttackOutcome {
                    intercepted: without_bit,
                    legitimate: with_bit,
                    disconnected: none[k],
                }
            };
            for at in [attacker, victim] {
                let label = ws.lanes[at][k];
                if label == NO_ROUTE {
                    outcome.disconnected -= 1;
                } else if (label & 1 == 1) == (high_at[k] == attacker) {
                    outcome.intercepted -= 1;
                } else {
                    outcome.legitimate -= 1;
                }
            }
        }
    }

    /// Runs the three phases into `ws`: the result lives in its bitsets
    /// and route array.
    fn run<F>(&self, seeds: &[Seed], accept: &F, ws: &mut Workspace)
    where
        F: Fn(usize, Asn) -> bool + ?Sized,
    {
        self.upward(seeds, accept, ws);
        self.downward(accept, ws);
    }

    /// Phases 1 and 2 into `ws`: the origins, the customer routes and
    /// the one peer hop.
    fn upward<F>(&self, seeds: &[Seed], accept: &F, ws: &mut Workspace)
    where
        F: Fn(usize, Asn) -> bool + ?Sized,
    {
        let t = self.topology;
        let n = t.len();
        let longest = seeds.iter().map(|s| s.path_len).max().unwrap_or(0);
        assert!(
            longest <= self.max_seed_len(),
            "seed path length {longest} exceeds the engine's bound {}",
            self.max_seed_len()
        );
        ws.begin(n);

        // --- Phase 1: origins and customer-learned routes (travel upward
        // over customer→provider edges only).
        for seed in seeds {
            if !accept(seed.at, seed.claimed_origin) {
                continue;
            }
            let info = PackedRoute::new(
                RouteClass::Origin,
                seed.path_len,
                seed.claimed_origin,
                seed.at,
                None,
            );
            if ws.improve_pending(seed.at, info) {
                ws.push(seed.path_len, seed.at);
            }
        }
        // Export to providers: they learn a customer route.
        ws.drain(|ws, at, info| {
            self.offer(info, at, t.providers(at), RouteClass::Customer, accept, ws)
        });

        // --- Phase 2: one peer hop. Only customer/origin routes are
        // exported to peers; collect all offers (the `pending` array
        // doubles as the offer table), then adopt the best per AS.
        ws.clear_pending();
        for w in 0..ws.settled.set.len() {
            let mut bits = ws.settled.set[w];
            while bits != 0 {
                let at = (w << 6) + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let info = ws.settled.routes[at];
                for &peer in t.peers(at) {
                    let peer = peer as usize;
                    if ws.routed(peer) {
                        continue;
                    }
                    if !accept(peer, info.claimed_origin()) {
                        continue;
                    }
                    let candidate = PackedRoute::new(
                        RouteClass::Peer,
                        info.path_len() + 1,
                        info.claimed_origin(),
                        info.delivers_to(),
                        Some(at),
                    );
                    ws.improve_pending(peer, candidate);
                }
            }
        }
        // Commit: every AS holding an offer but no settled route adopts
        // its offer. Word-wise `pend & !route` walks only the offer
        // bits.
        for w in 0..ws.pend_set.len() {
            let mut bits = ws.pend_set[w] & !ws.settled.set[w];
            while bits != 0 {
                let at = (w << 6) + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                ws.settle(at, ws.pending[at]);
            }
        }
    }

    /// Phase 3 into `ws`, over the bucket queue: provider-learned routes
    /// flow down to customers; any route may be exported to a customer,
    /// and provider routes keep flowing to customers-of-customers.
    ///
    /// The queue is seeded from the words of the settled bitset, as
    /// phase 2 reads it: every AS phases 1–2 routed offers to its
    /// customers, in ascending index order, at a cost set by the routed
    /// ASes and `n / 64` words rather than a bit test per AS.
    fn downward<F>(&self, accept: &F, ws: &mut Workspace)
    where
        F: Fn(usize, Asn) -> bool + ?Sized,
    {
        let t = self.topology;
        ws.clear_pending();
        ws.hi = 0;
        // `offer` writes only `pending` and the buckets, so each word of
        // `settled` reads the same before and after its ASes offer.
        for w in 0..ws.settled.set.len() {
            let mut bits = ws.settled.set[w];
            while bits != 0 {
                let at = (w << 6) + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let info = ws.settled.routes[at];
                self.offer(info, at, t.customers(at), RouteClass::Provider, accept, ws);
            }
        }
        ws.drain(|ws, at, info| {
            self.offer(info, at, t.customers(at), RouteClass::Provider, accept, ws)
        });
    }

    /// Offers `from`'s route to `neighbors`, who would hold it as a
    /// `class` route (the relaxation of phases 1 and 3).
    #[inline]
    fn offer<F>(
        &self,
        from_info: PackedRoute,
        from: usize,
        neighbors: &[u32],
        class: RouteClass,
        accept: &F,
        ws: &mut Workspace,
    ) where
        F: Fn(usize, Asn) -> bool + ?Sized,
    {
        for &to in neighbors {
            let to = to as usize;
            if ws.routed(to) {
                continue;
            }
            if !accept(to, from_info.claimed_origin()) {
                continue;
            }
            let candidate = PackedRoute::new(
                class,
                from_info.path_len() + 1,
                from_info.claimed_origin(),
                from_info.delivers_to(),
                Some(from),
            );
            if ws.improve_pending(to, candidate) {
                ws.push(from_info.path_len() + 1, to);
            }
        }
    }
}

/// Hashes an AS index with one multiply (Fibonacci hashing): the keys
/// of [`climb`]'s map are the crate's own indices, not outside input, so
/// SipHash's resistance to chosen keys buys nothing there.
#[derive(Default)]
struct IndexHasher(u64);

impl Hasher for IndexHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, i: u64) {
        self.0 = (self.0.rotate_left(5) ^ i).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }
}

/// Climbs' hop counts by AS index.
type Hops = HashMap<usize, u32, BuildHasherDefault<IndexHasher>>;

/// Entries a climb reserves up front: more than a stub's up-closure
/// holds on the crate's generated topologies, so a climb rarely grows.
const CLIMB_CAPACITY: usize = 256;

/// Every AS reachable from `start` over customer→provider edges, with
/// its hop count (breadth first), not climbing past an AS `stop` takes.
fn climb(t: &Topology, start: usize, stop: impl Fn(usize) -> bool) -> Hops {
    let mut hops = Hops::with_capacity_and_hasher(CLIMB_CAPACITY, Default::default());
    hops.insert(start, 0);
    let mut queue = VecDeque::with_capacity(CLIMB_CAPACITY);
    queue.push_back(start);
    while let Some(a) = queue.pop_front() {
        if stop(a) {
            continue;
        }
        let next = hops[&a] + 1;
        for &p in t.providers(a) {
            if let Entry::Vacant(slot) = hops.entry(p as usize) {
                slot.insert(next);
                queue.push_back(p as usize);
            }
        }
    }
    hops
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::TopologyConfig;

    fn topo(n: usize) -> Topology {
        Topology::generate(TopologyConfig {
            n,
            tier1: 5,
            ..TopologyConfig::default()
        })
    }

    fn accept_all(_: usize, _: Asn) -> bool {
        true
    }

    #[test]
    #[should_panic(expected = "unfiltered_path_len(250, 3) on a topology of 250 ASes")]
    fn unfiltered_path_len_refuses_an_index_past_the_topology() {
        let t = topo(250);
        PropagationEngine::new(&t).unfiltered_path_len(250, 3);
    }

    #[test]
    fn workspace_reuse_is_identical_to_fresh() {
        let t = topo(250);
        let stubs = t.stubs();
        let engine = PropagationEngine::new(&t);
        let mut shared = Workspace::new();
        for trial in 0..8 {
            let seeds = [
                Seed::origin(stubs[trial], t.asn(stubs[trial])),
                Seed::forged(stubs[stubs.len() - 1 - trial], t.asn(stubs[trial])),
            ];
            let reused = engine.propagate(&seeds, &accept_all, &mut shared);
            let fresh = engine.propagate(&seeds, &accept_all, &mut Workspace::new());
            assert!(reused.iter().eq(fresh.iter()), "trial {trial}");
        }
    }

    #[test]
    fn drain_set_is_all_zero_after_every_run() {
        // `begin` never touches the bitmap: it relies on the drain
        // having cleared every word it set, whatever the queue held.
        let t = topo(250);
        let stubs = t.stubs();
        let engine = PropagationEngine::new(&t);
        let mut ws = Workspace::new();
        let reject_some = |at: usize, _: Asn| at % 5 != 1;
        for trial in 0..6 {
            // Duplicate seeds, a stale entry (the same AS queued at two
            // lengths) and a far-away bucket behind a run of empty ones.
            let seeds = [
                Seed::origin(stubs[trial], t.asn(stubs[trial])),
                Seed::origin(stubs[trial], t.asn(stubs[trial])),
                Seed {
                    at: stubs[trial + 7],
                    path_len: 3,
                    claimed_origin: t.asn(stubs[trial]),
                },
                Seed::forged(stubs[trial + 7], t.asn(stubs[trial])),
                Seed {
                    at: stubs[trial + 9],
                    path_len: engine.max_seed_len(),
                    claimed_origin: t.asn(stubs[trial]),
                },
            ];
            engine.propagate(&seeds, &accept_all, &mut ws);
            assert!(ws.drain_set.iter().all(|&w| w == 0), "trial {trial}");
            engine.propagate_outcome(&seeds, &reject_some, &mut ws, None, stubs[0], stubs[1]);
            assert!(ws.drain_set.iter().all(|&w| w == 0), "trial {trial}");
            assert_eq!(ws.drain_set.len(), t.len().div_ceil(64));
        }
    }

    /// The lane kernel's outcome for `lane`, alone in its batch.
    fn pulled(engine: &PropagationEngine<'_>, lane: Lane, ws: &mut Workspace) -> AttackOutcome {
        let mut out = [AttackOutcome::default()];
        engine.transparent_outcomes(&[lane], ws, &mut out);
        out[0]
    }

    #[test]
    fn kernel_and_push_runs_share_a_workspace() {
        // The kernel leaves a lane's phases 1–2 in the table and its rows
        // behind: a push run after it, a batch of one after a full
        // batch, and a full batch after a push run must each equal its
        // fresh-workspace twin.
        let t = topo(250);
        let stubs = t.stubs();
        let engine = PropagationEngine::new(&t);
        let mut ws = Workspace::new();
        let reject_some = |at: usize, _: Asn| at % 5 != 1;
        let lanes: Vec<Lane> = (0..LANES)
            .map(|trial| {
                let (victim, attacker) = (stubs[trial], stubs[stubs.len() - 1 - trial]);
                let seeds = [
                    Seed::origin(victim, t.asn(victim)),
                    Seed::forged(attacker, t.asn(victim)),
                ];
                Lane {
                    seeds,
                    attacker,
                    victim,
                }
            })
            .collect();
        let fresh: Vec<AttackOutcome> = lanes
            .iter()
            .map(|&lane| pulled(&engine, lane, &mut Workspace::new()))
            .collect();
        let mut batch = [AttackOutcome::default(); LANES];
        for (trial, &lane) in lanes.iter().enumerate().take(6) {
            assert_eq!(
                pulled(&engine, lane, &mut ws),
                fresh[trial],
                "trial {trial}"
            );
            assert!(ws.drain_set.iter().all(|&w| w == 0), "trial {trial}");
            let reused = engine.propagate(&lane.seeds, &reject_some, &mut ws);
            let pushed = engine.propagate(&lane.seeds, &reject_some, &mut Workspace::new());
            assert!(reused.iter().eq(pushed.iter()), "trial {trial}");
            // The whole batch, rotated so this lane comes first.
            let rotated: Vec<Lane> = lanes
                .iter()
                .cycle()
                .skip(trial)
                .take(LANES)
                .copied()
                .collect();
            engine.transparent_outcomes(&rotated, &mut ws, &mut batch);
            let want: Vec<AttackOutcome> = fresh
                .iter()
                .cycle()
                .skip(trial)
                .take(LANES)
                .copied()
                .collect();
            assert_eq!(batch[..], want[..], "trial {trial}");
            assert_eq!(
                pulled(&engine, lane, &mut ws),
                fresh[trial],
                "trial {trial}"
            );
        }
    }

    /// The lane differential: every lane of a random batch equals an
    /// accept-all push run, whatever shares its sweep.
    mod lane_kernel {
        use super::*;
        use crate::topology::InternetConfig;
        use proptest::prelude::*;

        /// A topology configuration for either generator.
        #[derive(Debug, Clone, Copy)]
        enum Shape {
            Flat(TopologyConfig),
            Internet(InternetConfig),
        }

        impl Shape {
            fn build(self) -> Topology {
                match self {
                    Shape::Flat(config) => Topology::generate(config),
                    Shape::Internet(config) => Topology::generate_internet(config),
                }
            }
        }

        /// Both generators, degenerate shapes included: one to five
        /// tier-1s, one provider per AS, no peering or peering on every
        /// draw, a handful of ASes.
        fn arb_shape() -> impl Strategy<Value = Shape> {
            (
                (0usize..2, 1usize..6, 1usize..200),
                1usize..4,
                0usize..3,
                0usize..60,
                any::<u64>(),
            )
                .prop_map(
                    |((internet, tier1, extra), max_providers, peering, transit_pct, seed)| {
                        let n = tier1 + extra;
                        if internet == 1 {
                            Shape::Internet(InternetConfig {
                                n,
                                tier1,
                                transit_frac: transit_pct as f64 / 100.0,
                                max_providers,
                                peer_links_per_as: [0.0, 1.5, 6.0][peering],
                                seed,
                            })
                        } else {
                            Shape::Flat(TopologyConfig {
                                n,
                                tier1,
                                max_providers,
                                peer_prob: [0.0, 0.2, 1.0][peering],
                                seed,
                            })
                        }
                    },
                )
        }

        /// One lane, drawn independently of the topology.
        #[derive(Debug, Clone)]
        struct LaneSpec {
            /// `(kind, pick)` for the victim, then the attacker: a tier-1,
            /// a transit AS or any AS.
            places: [(usize, prop::sample::Index); 2],
            claim_victim: bool,
            /// Each seed's length choice: 0–3, 120–127, the bound.
            lengths: [usize; 2],
            /// Whether the attacker's seed comes first.
            swap: bool,
        }

        fn arb_lane() -> impl Strategy<Value = LaneSpec> {
            let place = || (0usize..3, any::<prop::sample::Index>());
            (
                (place(), place()),
                any::<bool>(),
                (0usize..13, 0usize..13),
                any::<bool>(),
            )
                .prop_map(|((v, a), claim_victim, (lv, la), swap)| LaneSpec {
                    places: [v, a],
                    claim_victim,
                    lengths: [lv, la],
                    swap,
                })
        }

        impl LaneSpec {
            fn lane(&self, t: &Topology) -> Lane {
                let transit: Vec<usize> = (t.tier1()..t.len()).filter(|&a| !t.is_stub(a)).collect();
                let place = |(kind, pick): (usize, prop::sample::Index)| match kind {
                    0 => pick.index(t.tier1()),
                    1 if !transit.is_empty() => transit[pick.index(transit.len())],
                    _ => pick.index(t.len()),
                };
                let victim = place(self.places[0]);
                let mut attacker = place(self.places[1]);
                if attacker == victim {
                    attacker = (victim + 1) % t.len();
                }
                let max = PropagationEngine::new(t).max_seed_len();
                let len = |choice: usize| match choice {
                    0..=3 => choice as u32,
                    12 => max,
                    long => (116 + long as u32).min(max),
                };
                let claimed = t.asn(if self.claim_victim { victim } else { attacker });
                let (v, a) = (
                    Seed {
                        at: victim,
                        path_len: len(self.lengths[0]),
                        claimed_origin: t.asn(victim),
                    },
                    Seed {
                        at: attacker,
                        path_len: len(self.lengths[1]),
                        claimed_origin: claimed,
                    },
                );
                Lane {
                    seeds: if self.swap { [a, v] } else { [v, a] },
                    attacker,
                    victim,
                }
            }
        }

        /// 64 cases, or `PROPTEST_CASES` where it is set.
        fn cases() -> ProptestConfig {
            match std::env::var_os("PROPTEST_CASES") {
                Some(_) => ProptestConfig::default(),
                None => ProptestConfig::with_cases(64),
            }
        }

        proptest! {
            #![proptest_config(cases())]

            #[test]
            fn every_lane_equals_an_accept_all_push_run(
                shape in arb_shape(),
                specs in prop::collection::vec(arb_lane(), 1..=LANES),
            ) {
                let t = shape.build();
                let engine = PropagationEngine::new(&t);
                let lanes: Vec<Lane> = specs.iter().map(|spec| spec.lane(&t)).collect();
                let mut out = vec![AttackOutcome::default(); lanes.len()];
                engine.transparent_outcomes(&lanes, &mut Workspace::new(), &mut out);
                for (k, lane) in lanes.iter().enumerate() {
                    let pushed = engine.propagate_outcome(
                        &lane.seeds,
                        &accept_all,
                        &mut Workspace::new(),
                        None,
                        lane.attacker,
                        lane.victim,
                    );
                    prop_assert_eq!(
                        out[k],
                        pushed,
                        "lane {} of {}: {:?} in {:?}",
                        k,
                        lanes.len(),
                        lane,
                        shape
                    );
                }
            }
        }
    }

    #[test]
    fn compiled_policies_mirror_permits() {
        use rpki_rov::ValidationState;
        let policies = [
            RovPolicy::AcceptAll,
            RovPolicy::DropInvalid,
            RovPolicy::DropInvalid,
            RovPolicy::AcceptAll,
        ];
        let compiled = CompiledPolicies::compile(&policies);
        assert_eq!(compiled.len(), 4);
        assert!(!compiled.is_empty());
        for (at, policy) in policies.iter().enumerate() {
            assert_eq!(
                compiled.drops_invalid(at),
                !policy.permits(ValidationState::Invalid),
            );
        }
        assert!(CompiledPolicies::compile(&[]).is_empty());
    }

    #[test]
    fn origin_filter_matches_policy_validation() {
        use rpki_roa::Vrp;
        let t = topo(80);
        let victim = t.stubs()[0];
        let attacker_asn = t.asn(t.stubs()[1]);
        let victim_asn = t.asn(victim);
        let p: Prefix = "168.122.0.0/16".parse().unwrap();
        let vrps: VrpIndex = [Vrp::exact(p, victim_asn)].into_iter().collect();
        let policies: Vec<RovPolicy> = (0..t.len())
            .map(|at| {
                if at % 3 == 0 {
                    RovPolicy::DropInvalid
                } else {
                    RovPolicy::AcceptAll
                }
            })
            .collect();
        let compiled = CompiledPolicies::compile(&policies);
        let filter = OriginFilter::new(&vrps, p, &[victim_asn, attacker_asn], &compiled);
        for (at, policy) in policies.iter().enumerate() {
            for origin in [victim_asn, attacker_asn] {
                let state = vrps.validate(&RouteOrigin::new(p, origin));
                assert_eq!(
                    filter.accept(at, origin),
                    policy.permits(state),
                    "at={at} origin={origin:?}"
                );
            }
        }
    }
}
