//! `compress_roas` — Algorithm 1 of the paper (§7).
//!
//! The algorithm takes a list of `(IP prefix, maxLength, origin AS)` tuples
//! (PDUs) and produces a smaller list that authorizes **exactly the same
//! routes** — so compressing minimal ROAs yields minimal ROAs. Per (ASN,
//! address family) the tuples form a binary prefix trie whose nodes are the
//! tuples and whose values are the maxLengths; the algorithm walks it
//! depth-first and, as the walk backtracks through a node whose *both*
//! direct children exist, raises the node's maxLength to the minimum of
//! the children's and deletes any child the parent now covers (Figure 2).
//!
//! ### Faithfulness note
//!
//! The paper describes "direct children" as the shortest-keyed descendants
//! on each side. Merging is only *lossless* when both children sit exactly
//! one bit below the parent: raising a parent `p/16` to maxLength 17
//! authorizes both /17 halves, which is sound only if tuples at both halves
//! exist. A deeper "direct child" (say `p00/18`) would leave `p0/17`
//! newly-authorized but unannounced — recreating the §4 vulnerability the
//! algorithm exists to avoid. This implementation therefore merges only
//! immediate (`len + 1`) children, which matches the published reference
//! implementation's behaviour on every example in the paper and is what the
//! minimality property test locks in.
//!
//! ### Layout: a sorted array, no trie
//!
//! `Vrp` order is `(prefix, maxLength, origin)` and prefix order is
//! `(family, bits, length)` — the *pre-order* of a binary prefix trie: a
//! prefix sorts directly before everything it covers. The input in `Vrp`
//! order (used as is when already sorted, a sorted copy otherwise),
//! stably regrouped by origin with one sort of `origin << 32 | position`
//! words, is therefore every per-(ASN, AFI) trie in pre-order, one after
//! the other, and Algorithm 1 is one pass over it with a stack:
//!
//! * The stack holds the tuples covering the current one. A tuple is
//!   *closed* (popped) when the first tuple outside its subtree arrives —
//!   after all its descendants, which is the DFS's backtracking step.
//! * The tuple beneath a closing one is its nearest covering tuple; one
//!   bit shorter, it is the trie parent. A closing left child is noted
//!   there; a closing right child finds the note and runs `compress(node)`
//!   on the three. No lookup, no hashing, no allocation but the stack.
//! * Duplicate `(prefix, origin)` tuples are neighbours, smaller maxLength
//!   first; dropping the earlier one is the union of the two
//!   authorizations, exact because origin and prefix agree.
//!
//! Survivors are marked, with their raised maxLengths, at their position
//! in the sorted input, so the output is the input order with only the
//! tuples of one prefix left to reorder. Threads cut the regrouped array
//! at origin boundaries: shards are the same on every run.
//!
//! Entry points, all over the one sweep:
//!
//! * [`compress_roas`] — the faithful Algorithm 1 used for every Table 1 /
//!   Figure 3 number ([`compress_roas_parallel`]: on several threads).
//! * [`compress_roas_full`] — an extension that additionally drops tuples
//!   *dominated* by an ancestor tuple (same origin, `maxLength ≥` theirs).
//!   On input that already uses maxLength this strictly improves
//!   compression while preserving the authorized set; the ablation bench
//!   compares the two.

use std::borrow::Cow;

use rpki_prefix::Prefix;
use rpki_roa::{Asn, RouteOrigin, Vrp};

/// A worker thread is only worth starting for at least this many tuples:
/// below it the sweep takes less time than spawning and joining does.
const MIN_TUPLES_PER_THREAD: usize = 1 << 15;

/// A tuple on the DFS stack: `at` is its position in the group, `bits` the
/// uniform left-aligned `u128` embedding from [`Prefix::bits_u128`], and
/// `left` the position of its already-closed left child, if that exists.
struct Open {
    at: usize,
    bits: u128,
    len: u8,
    left: Option<usize>,
}

impl Open {
    fn new(at: usize, prefix: Prefix) -> Open {
        Open {
            at,
            bits: prefix.bits_u128(),
            len: prefix.len(),
            left: None,
        }
    }

    fn covers(&self, other: &Open) -> bool {
        let mask = match self.len {
            0 => 0,
            len => u128::MAX << (128 - u32::from(len)),
        };
        self.len <= other.len && other.bits & mask == self.bits
    }
}

/// The tuple a regrouped `origin << 32 | position` word stands for.
fn tuple(sorted: &[Vrp], word: u64) -> &Vrp {
    &sorted[word as u32 as usize]
}

/// Algorithm 1 over one (ASN, AFI) group in pre-order. `kept[i]` ends as
/// the maxLength tuple `i` survives with, or `None` if it was merged away.
fn sweep_group(sorted: &[Vrp], group: &[u64], kept: &mut [Option<u8>], stack: &mut Vec<Open>) {
    for (at, &word) in group.iter().enumerate() {
        let vrp = tuple(sorted, word);
        let duplicate = |&next: &u64| tuple(sorted, next).prefix == vrp.prefix;
        if group.get(at + 1).is_some_and(duplicate) {
            continue; // the next tuple carries the larger maxLength
        }
        let open = Open::new(at, vrp.prefix);
        while stack.last().is_some_and(|top| !top.covers(&open)) {
            close(stack, kept);
        }
        kept[at] = Some(vrp.max_len.max(open.len));
        stack.push(open);
    }
    while !stack.is_empty() {
        close(stack, kept);
    }
}

/// Backtracks out of the tuple on top of the stack: `compress(node)` of
/// Algorithm 1 on its parent, once the parent's second child closes.
fn close(stack: &mut Vec<Open>, kept: &mut [Option<u8>]) {
    let child = stack.pop().expect("callers check the stack is not empty");
    let Some(parent) = stack.last_mut().filter(|p| p.len + 1 == child.len) else {
        return;
    };
    // The bit distinguishing left/right children at this length.
    if child.bits & (1u128 << (128 - u32::from(child.len))) == 0 {
        parent.left = Some(child.at);
        return;
    }
    let Some(left) = parent.left else { return };
    let value = |at: usize| kept[at].expect("a tuple is deleted only by this merge");
    let (left_val, right_val) = (value(left), value(child.at));
    let parent_val = value(parent.at).max(left_val.min(right_val));
    kept[parent.at] = Some(parent_val);
    if left_val <= parent_val {
        kept[left] = None;
    }
    if right_val <= parent_val {
        kept[child.at] = None;
    }
}

/// Drops every surviving tuple of the group that is covered by an ancestor
/// tuple whose maxLength is at least as large (the domination extension of
/// [`compress_roas_full`]). Kept tuples nest with strictly growing
/// maxLengths, so the top of the stack is always the largest above.
fn drop_dominated(sorted: &[Vrp], group: &[u64], kept: &mut [Option<u8>], stack: &mut Vec<Open>) {
    for (at, &word) in group.iter().enumerate() {
        let Some(max_len) = kept[at] else { continue };
        let open = Open::new(at, tuple(sorted, word).prefix);
        while stack.last().is_some_and(|top| !top.covers(&open)) {
            stack.pop();
        }
        let dominates = |top: &Open| kept[top.at] >= Some(max_len);
        if stack.last().is_some_and(dominates) {
            kept[at] = None;
        } else {
            stack.push(open);
        }
    }
    stack.clear();
}

/// Sweeps every (ASN, AFI) group of one shard of the regrouped array.
fn sweep_shard(sorted: &[Vrp], shard: &[u64], kept: &mut [Option<u8>], dominated: bool) {
    let mut stack = Vec::new();
    let mut done = 0;
    let same_group = |&a: &u64, &b: &u64| {
        a >> 32 == b >> 32 && tuple(sorted, a).prefix.afi() == tuple(sorted, b).prefix.afi()
    };
    for group in shard.chunk_by(same_group) {
        let kept = &mut kept[done..done + group.len()];
        done += group.len();
        sweep_group(sorted, group, kept, &mut stack);
        if dominated {
            drop_dominated(sorted, group, kept, &mut stack);
        }
    }
}

/// The one kernel behind every entry point: returns the input in `Vrp`
/// order and, per position in it, the maxLength that tuple survives with
/// (`None`: merged into another tuple).
fn sweep(vrps: &[Vrp], threads: usize, dominated: bool) -> (Cow<'_, [Vrp]>, Vec<Option<u8>>) {
    let mut sorted = Cow::Borrowed(vrps);
    if !vrps.is_sorted() {
        sorted.to_mut().sort_unstable();
    }
    assert!(u32::try_from(sorted.len()).is_ok(), "positions are 32-bit");
    // Stable regrouping by origin: the position breaks ties, so each
    // origin's tuples stay in `Vrp` order — v4 pre-order, then v6.
    let mut order: Vec<u64> = (0u64..)
        .zip(sorted.iter())
        .map(|(at, vrp)| u64::from(vrp.asn.0) << 32 | at)
        .collect();
    order.sort_unstable();

    let mut kept_in_order = vec![None; order.len()];
    let workers = threads.clamp(1, (order.len() / MIN_TUPLES_PER_THREAD).max(1));
    // A panicking worker panics the scope once every worker has joined.
    std::thread::scope(|scope| {
        let sorted = &sorted[..];
        let (mut order, mut kept) = (&order[..], &mut kept_in_order[..]);
        for remaining in (1..=workers).rev() {
            // An even share of what is left, extended to the end of its origin.
            let mut cut = order.len() / remaining;
            while 0 < cut && cut < order.len() && order[cut] >> 32 == order[cut - 1] >> 32 {
                cut += 1;
            }
            let (shard, rest) = order.split_at(cut);
            let (kept_shard, kept_rest) = kept.split_at_mut(cut);
            if rest.is_empty() {
                // The last shard is swept here, not on one more thread.
                sweep_shard(sorted, shard, kept_shard, dominated);
                break;
            }
            scope.spawn(move || sweep_shard(sorted, shard, kept_shard, dominated));
            (order, kept) = (rest, kept_rest);
        }
    });

    let mut kept = vec![None; order.len()];
    for (&word, &survives) in order.iter().zip(&kept_in_order) {
        kept[word as u32 as usize] = survives;
    }
    (sorted, kept)
}

/// The surviving tuples of a [`sweep`], in `Vrp` order.
fn survivors((sorted, kept): (Cow<'_, [Vrp]>, Vec<Option<u8>>)) -> Vec<Vrp> {
    let mut out = Vec::with_capacity(kept.iter().flatten().count());
    out.extend(
        sorted
            .iter()
            .zip(&kept)
            .filter_map(|(v, max_len)| Some(Vrp::new(v.prefix, (*max_len)?, v.asn))),
    );
    // A raised maxLength moves a tuple only among those of its own prefix.
    for same_prefix in out.chunk_by_mut(|a, b| a.prefix == b.prefix) {
        same_prefix.sort_unstable();
    }
    out
}

/// Algorithm 1 of the paper: compresses a PDU list into an equivalent,
/// usually smaller, maxLength-using PDU list.
///
/// The output authorizes exactly the same `(prefix, origin)` routes as the
/// input; in particular, compressing minimal ROAs yields minimal ROAs
/// (§7: "this 'compressed' ROA is still minimal"). Duplicate input tuples
/// that differ only in maxLength are first merged by taking the larger
/// value.
pub fn compress_roas(vrps: &[Vrp]) -> Vec<Vrp> {
    compress_roas_parallel(vrps, 1)
}

/// [`compress_roas`] plus *domination elimination*: tuples entirely covered
/// by an ancestor tuple of the same origin with an equal-or-larger
/// maxLength are dropped (they authorize nothing extra).
///
/// Order matters: the sibling sweep runs first, then domination. Removing
/// a tuple can never *enable* a merge (merges need all three tuples
/// present), but it can destroy one — dropping a dominated parent would
/// forfeit the merge that parent anchors. Sweeping first therefore
/// guarantees the result is never larger than [`compress_roas`]'s, while
/// the post-sweep domination pass catches tuples the raised parents now
/// cover (both facts are property-tested).
pub fn compress_roas_full(vrps: &[Vrp]) -> Vec<Vrp> {
    survivors(sweep(vrps, 1, true))
}

/// [`compress_roas`] parallelized across the per-(ASN, AFI) tries — the
/// optimization §7.2 suggests ("Performance could be improved by
/// parallelizing across tries"). Tries are fully independent, so up to
/// `threads` workers each sweep a run of whole origins; small inputs stay
/// on the calling thread. Output is identical to the serial call
/// (property-tested).
pub fn compress_roas_parallel(vrps: &[Vrp], threads: usize) -> Vec<Vrp> {
    survivors(sweep(vrps, threads, false))
}

/// `compress_roas_parallel(vrps, threads).len()` without building the list
/// (Table 1 needs only the count).
pub(crate) fn compressed_len(vrps: &[Vrp], threads: usize) -> usize {
    sweep(vrps, threads, false).1.iter().flatten().count()
}

/// A deliberately naive reference: repeatedly scans the whole tuple list
/// and merges one sibling pair at a time until no merge applies. Same
/// output semantics as [`compress_roas`], quadratic time; exists for the
/// ablation bench and as a differential-testing oracle.
pub fn compress_roas_naive(vrps: &[Vrp]) -> Vec<Vrp> {
    use std::collections::BTreeMap;
    /// A planned merge: the two siblings to remove and the parent tuple
    /// (key + maxLength) replacing them.
    type Merge = ((Asn, Prefix), (Asn, Prefix), (Asn, Prefix), u8);
    // (asn, prefix) -> max_len, merging duplicates like the fast path.
    let mut set: BTreeMap<(Asn, Prefix), u8> = BTreeMap::new();
    for vrp in vrps {
        let slot = set.entry((vrp.asn, vrp.prefix)).or_insert(0);
        *slot = (*slot).max(vrp.max_len.max(vrp.prefix.len()));
    }
    loop {
        // Find the *deepest* mergeable sibling pair: Algorithm 1's DFS
        // backtracking processes children before parents, and merge results
        // differ if a shallower pair consumes a node that deeper tuples
        // still need as their parent.
        let mut change: Option<Merge> = None;
        for (&(asn, prefix), &val) in &set {
            if !prefix.is_left_child() {
                continue;
            }
            if change
                .as_ref()
                .is_some_and(|((_, best), ..)| best.len() >= prefix.len())
            {
                continue;
            }
            let (Some(sib), Some(parent)) = (prefix.sibling(), prefix.parent()) else {
                continue;
            };
            let (Some(&sval), Some(&pval)) = (set.get(&(asn, sib)), set.get(&(asn, parent))) else {
                continue;
            };
            let new_parent = pval.max(val.min(sval));
            if val <= new_parent || sval <= new_parent {
                change = Some(((asn, prefix), (asn, sib), (asn, parent), new_parent));
            }
        }
        let Some((l, r, p, new_parent)) = change else {
            break;
        };
        let lv = set[&l];
        let rv = set[&r];
        *set.get_mut(&p).expect("parent exists") = new_parent;
        if lv <= new_parent {
            set.remove(&l);
        }
        if rv <= new_parent {
            set.remove(&r);
        }
    }
    let mut out: Vec<Vrp> = set
        .into_iter()
        .map(|((asn, prefix), max_len)| Vrp::new(prefix, max_len, asn))
        .collect();
    out.sort_unstable();
    out
}

/// Expands a VRP set into the full set of routes it authorizes.
///
/// **Exponential** in `maxLength − length`; intended for tests and examples
/// on small inputs, where it states the compression-soundness invariant
/// directly: `expand_authorized(compress_roas(v)) == expand_authorized(v)`.
pub fn expand_authorized(vrps: &[Vrp]) -> std::collections::BTreeSet<RouteOrigin> {
    vrps.iter().flat_map(|v| v.authorized_routes()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vrps(list: &[&str]) -> Vec<Vrp> {
        list.iter().map(|s| s.parse().unwrap()).collect()
    }

    /// §7 / Figure 2: four PDUs for AS 31283 compress to two.
    #[test]
    fn figure2_example() {
        let input = vrps(&[
            "87.254.32.0/19 => AS31283",
            "87.254.32.0/20 => AS31283",
            "87.254.48.0/20 => AS31283",
            "87.254.32.0/21 => AS31283",
        ]);
        let out = compress_roas(&input);
        assert_eq!(
            out,
            vrps(&["87.254.32.0/19-20 => AS31283", "87.254.32.0/21 => AS31283"])
        );
        // And the compressed form authorizes exactly the same routes.
        assert_eq!(expand_authorized(&out), expand_authorized(&input));
    }

    /// §7: the unsafe compression to (87.254.32.0/19-21) must NOT happen —
    /// 87.254.40.0/21 would become hijackable.
    #[test]
    fn does_not_overcompress_figure2() {
        let input = vrps(&[
            "87.254.32.0/19 => AS31283",
            "87.254.32.0/20 => AS31283",
            "87.254.48.0/20 => AS31283",
            "87.254.32.0/21 => AS31283",
        ]);
        let out = compress_roas(&input);
        let authorized = expand_authorized(&out);
        assert!(!authorized.contains(&"87.254.40.0/21 => AS31283".parse().unwrap()));
    }

    #[test]
    fn full_binary_subtree_collapses_to_one() {
        // parent + both /17s + all four /18s -> single /16-18 tuple.
        let input = vrps(&[
            "10.0.0.0/16 => AS1",
            "10.0.0.0/17 => AS1",
            "10.0.128.0/17 => AS1",
            "10.0.0.0/18 => AS1",
            "10.0.64.0/18 => AS1",
            "10.0.128.0/18 => AS1",
            "10.0.192.0/18 => AS1",
        ]);
        let out = compress_roas(&input);
        assert_eq!(out, vrps(&["10.0.0.0/16-18 => AS1"]));
        assert_eq!(expand_authorized(&out), expand_authorized(&input));
    }

    #[test]
    fn no_merge_without_parent() {
        // Both /17s but no /16 tuple: merging would newly authorize the /16.
        let input = vrps(&["10.0.0.0/17 => AS1", "10.0.128.0/17 => AS1"]);
        let out = compress_roas(&input);
        assert_eq!(out, input);
    }

    #[test]
    fn no_merge_with_single_child() {
        let input = vrps(&["10.0.0.0/16 => AS1", "10.0.0.0/17 => AS1"]);
        let out = compress_roas(&input);
        assert_eq!(out, input);
    }

    #[test]
    fn groups_are_per_asn() {
        // Same structure as figure2 but the /20s belong to another AS:
        // nothing may merge across origins.
        let input = vrps(&[
            "87.254.32.0/19 => AS31283",
            "87.254.32.0/20 => AS999",
            "87.254.48.0/20 => AS999",
        ]);
        let out = compress_roas(&input);
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn groups_are_per_family() {
        let input = vrps(&[
            "10.0.0.0/16 => AS1",
            "10.0.0.0/17 => AS1",
            "10.0.128.0/17 => AS1",
            "2001:db8::/32 => AS1",
            "2001:db8::/33 => AS1",
            "2001:db8:8000::/33 => AS1",
        ]);
        let out = compress_roas(&input);
        assert_eq!(
            out,
            vrps(&["10.0.0.0/16-17 => AS1", "2001:db8::/32-33 => AS1"])
        );
    }

    #[test]
    fn cascading_merge_up_multiple_levels() {
        // /18s merge into /17s, which then merge into the /16.
        let input = vrps(&[
            "10.0.0.0/16 => AS1",
            "10.0.0.0/17 => AS1",
            "10.0.128.0/17 => AS1",
            "10.0.128.0/18 => AS1",
            "10.0.192.0/18 => AS1",
        ]);
        let out = compress_roas(&input);
        // Right /17 rises to -18; merging the /17s into the /16 would
        // take min(17, 18) = 17 > 16, so parent becomes /16-17 and both
        // /17 tuples are covered... but the right side still authorizes
        // /18s, so it must survive as /17-18? No: its value 18 > 17 keeps it.
        assert_eq!(
            out,
            vrps(&["10.0.0.0/16-17 => AS1", "10.0.128.0/17-18 => AS1"])
        );
        assert_eq!(expand_authorized(&out), expand_authorized(&input));
    }

    #[test]
    fn maxlength_using_input_compresses() {
        // Input already uses maxLength: children covered by parent's range
        // merge per Algorithm 1 once both children exist.
        let input = vrps(&[
            "10.0.0.0/16-18 => AS1",
            "10.0.0.0/17-18 => AS1",
            "10.0.128.0/17-18 => AS1",
        ]);
        let out = compress_roas(&input);
        assert_eq!(out, vrps(&["10.0.0.0/16-18 => AS1"]));
        assert_eq!(expand_authorized(&out), expand_authorized(&input));
    }

    #[test]
    fn duplicate_prefix_tuples_merge_by_max() {
        let input = vrps(&["10.0.0.0/16-20 => AS1", "10.0.0.0/16-18 => AS1"]);
        let out = compress_roas(&input);
        assert_eq!(out, vrps(&["10.0.0.0/16-20 => AS1"]));
    }

    #[test]
    fn empty_and_singleton() {
        assert!(compress_roas(&[]).is_empty());
        let single = vrps(&["10.0.0.0/8 => AS1"]);
        assert_eq!(compress_roas(&single), single);
    }

    #[test]
    fn root_prefix_handled() {
        // /0 with both /1 children: merges into the root tuple.
        let input = vrps(&["0.0.0.0/0 => AS1", "0.0.0.0/1 => AS1", "128.0.0.0/1 => AS1"]);
        let out = compress_roas(&input);
        assert_eq!(out, vrps(&["0.0.0.0/0-1 => AS1"]));
    }

    #[test]
    fn host_routes_merge() {
        let input = vrps(&[
            "1.2.3.4/31 => AS1",
            "1.2.3.4/32 => AS1",
            "1.2.3.5/32 => AS1",
        ]);
        let out = compress_roas(&input);
        assert_eq!(out, vrps(&["1.2.3.4/31-32 => AS1"]));
    }

    #[test]
    fn v6_deep_merge() {
        let input = vrps(&[
            "2001:db8::/126 => AS1",
            "2001:db8::/127 => AS1",
            "2001:db8::2/127 => AS1",
            "2001:db8::/128 => AS1",
            "2001:db8::1/128 => AS1",
            "2001:db8::2/128 => AS1",
            "2001:db8::3/128 => AS1",
        ]);
        let out = compress_roas(&input);
        assert_eq!(out, vrps(&["2001:db8::/126-128 => AS1"]));
    }

    #[test]
    fn full_variant_drops_dominated() {
        // The /24 tuple is already authorized by the /16-24 umbrella.
        let input = vrps(&["10.0.0.0/16-24 => AS1", "10.0.5.0/24 => AS1"]);
        let plain = compress_roas(&input);
        assert_eq!(plain.len(), 2); // Algorithm 1 alone keeps both
        let full = compress_roas_full(&input);
        assert_eq!(full, vrps(&["10.0.0.0/16-24 => AS1"]));
        assert_eq!(expand_authorized(&full), expand_authorized(&input));
    }

    #[test]
    fn full_variant_domination_respects_origin() {
        let input = vrps(&["10.0.0.0/16-24 => AS1", "10.0.5.0/24 => AS2"]);
        let full = compress_roas_full(&input);
        assert_eq!(full.len(), 2);
    }

    #[test]
    fn full_variant_post_sweep_domination() {
        // After the /17s merge into the /16 (making it /16-18), the deeper
        // /18 tuple under the left half becomes dominated.
        let input = vrps(&[
            "10.0.0.0/16 => AS1",
            "10.0.0.0/17-18 => AS1",
            "10.0.128.0/17-18 => AS1",
            "10.0.64.0/18 => AS1",
        ]);
        let full = compress_roas_full(&input);
        assert_eq!(full, vrps(&["10.0.0.0/16-18 => AS1"]));
        assert_eq!(expand_authorized(&full), expand_authorized(&input));
    }

    #[test]
    fn naive_agrees_on_examples() {
        for input in [
            vrps(&[
                "87.254.32.0/19 => AS31283",
                "87.254.32.0/20 => AS31283",
                "87.254.48.0/20 => AS31283",
                "87.254.32.0/21 => AS31283",
            ]),
            vrps(&[
                "10.0.0.0/16 => AS1",
                "10.0.0.0/17 => AS1",
                "10.0.128.0/17 => AS1",
                "10.0.128.0/18 => AS1",
                "10.0.192.0/18 => AS1",
            ]),
            vrps(&["10.0.0.0/17 => AS1", "10.0.128.0/17 => AS1"]),
        ] {
            assert_eq!(compress_roas(&input), compress_roas_naive(&input));
        }
    }

    #[test]
    fn output_is_sorted_and_deduped() {
        let input = vrps(&[
            "10.0.0.0/16 => AS2",
            "10.0.0.0/16 => AS1",
            "9.0.0.0/8 => AS3",
            "10.0.0.0/16 => AS1",
        ]);
        let out = compress_roas(&input);
        let mut sorted = out.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(out, sorted);
        assert_eq!(out.len(), 3);
    }
}

#[cfg(test)]
mod parallel_tests {
    use super::*;
    use rpki_prefix::Prefix4;

    #[test]
    fn parallel_matches_serial() {
        // Mixed ASNs and families so several tries exist.
        let mut input = Vec::new();
        for asn in 1..40u32 {
            for i in 0..8u32 {
                let p: Prefix = format!("10.{}.{}.0/24", asn % 200, i * 2).parse().unwrap();
                input.push(Vrp::new(p, 24 + (i % 3) as u8, Asn(asn)));
                if i % 2 == 0 {
                    let parent: Prefix =
                        format!("10.{}.{}.0/23", asn % 200, i * 2).parse().unwrap();
                    input.push(Vrp::exact(parent, Asn(asn)));
                    let sib: Prefix = format!("10.{}.{}.0/24", asn % 200, i * 2 + 1)
                        .parse()
                        .unwrap();
                    input.push(Vrp::exact(sib, Asn(asn)));
                }
            }
        }
        let serial = compress_roas(&input);
        for threads in [1, 2, 4, 7] {
            assert_eq!(
                compress_roas_parallel(&input, threads),
                serial,
                "{threads} threads"
            );
        }
    }

    /// `octet.0.0.0/16` and every subprefix of it down to /24, for one
    /// origin: 511 tuples that compress to one.
    fn full_subtree(octet: u32, asn: u32) -> impl Iterator<Item = Vrp> {
        (16..=24u8).flat_map(move |len| {
            (0..1u32 << (len - 16)).map(move |i| {
                let bits = octet << 24 | i << (32 - u32::from(len));
                Vrp::exact(Prefix::V4(Prefix4::new(bits, len).unwrap()), Asn(asn))
            })
        })
    }

    /// Inputs large enough that workers are really started. Every origin
    /// is made of complete subtrees, so an origin split across two shards
    /// would leave more than one tuple per subtree behind.
    #[test]
    fn shards_are_cut_between_origins_only() {
        let even: Vec<Vrp> = (1..=200).flat_map(|asn| full_subtree(10, asn)).collect();
        assert!(even.len() > 3 * MIN_TUPLES_PER_THREAD);
        // One origin far larger than an even share, ahead of ten small ones.
        let lopsided: Vec<Vrp> = (1..=140)
            .flat_map(|octet| full_subtree(octet, 1))
            .chain((2..=11).flat_map(|asn| full_subtree(10, asn)))
            .collect();
        assert!(lopsided.len() > 2 * MIN_TUPLES_PER_THREAD);
        for (input, expect) in [(even, 200), (lopsided, 150)] {
            let serial = compress_roas(&input);
            assert_eq!(serial.len(), expect);
            for threads in [2, 3, 7] {
                assert_eq!(compress_roas_parallel(&input, threads), serial);
                assert_eq!(compressed_len(&input, threads), expect);
            }
        }
    }

    #[test]
    fn parallel_handles_empty_and_tiny() {
        assert!(compress_roas_parallel(&[], 4).is_empty());
        let single = vec!["10.0.0.0/8 => AS1".parse::<Vrp>().unwrap()];
        assert_eq!(compress_roas_parallel(&single, 8), single);
    }

    #[test]
    fn parallel_zero_threads_clamped() {
        let single = vec!["10.0.0.0/8 => AS1".parse::<Vrp>().unwrap()];
        assert_eq!(compress_roas_parallel(&single, 0), single);
    }
}

/// Regroups a PDU list into ROA objects, one per origin AS — the
/// object-level view of §7: "conceptually, our software compresses a set
/// of ROAs that do not use maxLength to a set of ROAs that do use
/// maxLength". Combined with [`compress_roas`] this maps a minimal ROA
/// set to its compressed minimal ROA set without changing the number of
/// ROA objects per AS.
pub fn vrps_to_roas(vrps: &[Vrp]) -> Vec<rpki_roa::Roa> {
    use rpki_roa::{Roa, RoaPrefix};
    let mut by_asn: std::collections::BTreeMap<Asn, Vec<RoaPrefix>> =
        std::collections::BTreeMap::new();
    for vrp in vrps {
        let entry = if vrp.uses_max_len() {
            RoaPrefix::with_max_len(vrp.prefix, vrp.max_len)
        } else {
            RoaPrefix::exact(vrp.prefix)
        };
        by_asn.entry(vrp.asn).or_default().push(entry);
    }
    by_asn
        .into_iter()
        .map(|(asn, entries)| Roa::new(asn, entries).expect("non-empty by construction"))
        .collect()
}

#[cfg(test)]
mod roa_object_tests {
    use super::*;

    #[test]
    fn figure2_as_roa_objects() {
        // §7's object-level statement: the minimal four-prefix ROA becomes
        // the two-entry maxLength-using ROA.
        let input = [
            "87.254.32.0/19 => AS31283",
            "87.254.32.0/20 => AS31283",
            "87.254.48.0/20 => AS31283",
            "87.254.32.0/21 => AS31283",
        ]
        .iter()
        .map(|s| s.parse().unwrap())
        .collect::<Vec<Vrp>>();
        let roas = vrps_to_roas(&compress_roas(&input));
        assert_eq!(roas.len(), 1);
        assert_eq!(
            roas[0].to_string(),
            "ROA:({87.254.32.0/19-20, 87.254.32.0/21}, AS31283)"
        );
        // Round-trips back to the same VRPs.
        let back: Vec<Vrp> = roas.iter().flat_map(|r| r.vrps()).collect();
        assert_eq!(back, compress_roas(&input));
    }

    #[test]
    fn one_object_per_asn() {
        let input: Vec<Vrp> = [
            "10.0.0.0/8 => AS1",
            "11.0.0.0/8 => AS1",
            "12.0.0.0/8 => AS2",
            "2001:db8::/32 => AS2",
        ]
        .iter()
        .map(|s| s.parse().unwrap())
        .collect();
        let roas = vrps_to_roas(&input);
        assert_eq!(roas.len(), 2);
        assert_eq!(roas[0].prefix_count(), 2);
        assert_eq!(roas[1].prefix_count(), 2);
    }

    #[test]
    fn empty_input_empty_output() {
        assert!(vrps_to_roas(&[]).is_empty());
    }
}
