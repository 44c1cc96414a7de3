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
//! Prefix order is `(family, bits, length)` — the *pre-order* of a binary
//! prefix trie: a prefix sorts directly before everything it covers. Sorted
//! by prefix, a tuple list is every per-(ASN, AFI) trie in pre-order at
//! once, so Algorithm 1 is one pass over the input with one stack for all
//! origins. The pass reads the tuples in *sweep order*, `(prefix, origin,
//! maxLength)`: the input is used as is when already in it (exact tuples
//! in `Vrp` order are), a sorted copy otherwise.
//!
//! * The stack holds the tuples covering the current one, of every origin.
//!   A tuple is *closed* (popped) when the first tuple outside its subtree
//!   arrives — after all its descendants, which is the DFS's backtracking
//!   step.
//! * The entries of one prefix form a *run* on the stack, in origin order,
//!   and each entry knows where its run starts. A repeated `(prefix,
//!   origin)` arrives right after its first tuple, with the larger
//!   maxLength, and takes the top entry's place: the union of the two
//!   authorizations, exact because origin and prefix agree. So a run holds
//!   one entry per origin.
//! * The run beneath a closing tuple's run is its nearest covering prefix.
//!   One bit shorter, it is the trie parent's prefix, and a binary search
//!   by origin finds the parent tuple. A closing left child is noted there;
//!   a closing right child finds the note and runs `compress(node)` on the
//!   three. No hashing and no allocation but the stack, and a prefix that
//!   thousands of origins share costs a logarithm, not a scan, per tuple.
//!
//! The maxLength each tuple survives with is written at its position in
//! the sorted input, so the output is the input order with only the tuples
//! of one prefix left to reorder into `Vrp` order. A tuple that no earlier
//! tuple covers starts a *top-level subtree* and finds the stack empty;
//! threads cut the input between top-level subtrees, so shards are the
//! same on every run.
//!
//! Entry points, all over the one sweep:
//!
//! * [`compress_roas`] — the faithful Algorithm 1 used for every Table 1 /
//!   Figure 3 number ([`compress_roas_parallel`]: on several threads).
//! * [`compress_roas_full`] — an extension that additionally drops tuples
//!   *dominated* by an ancestor tuple (same origin, `maxLength ≥` theirs).
//!   On input that already uses maxLength this strictly improves
//!   compression while preserving the authorized set; the property tests
//!   check that it is never larger than [`compress_roas`]'s output.

use std::borrow::Cow;

use rpki_prefix::Prefix;
use rpki_roa::{Asn, RouteOrigin, Vrp};

use crate::BgpTable;

/// A worker thread is only worth starting for at least this many tuples:
/// below it the sweep takes less time than spawning and joining does.
const MIN_TUPLES_PER_THREAD: usize = 1 << 15;

/// A tuple on the stack: `at` is its position in the shard, `run` the
/// stack index where the entries of its prefix start, and `left` the
/// position of its already-closed left child, if that exists.
struct Open {
    at: usize,
    run: usize,
    prefix: Prefix,
    asn: Asn,
    left: Option<usize>,
}

/// Where the run of `prefix` starts: at its entries on top of the stack,
/// or past the top.
fn run_start(stack: &[Open], prefix: Prefix) -> usize {
    match stack.last() {
        Some(top) if top.prefix == prefix => top.run,
        _ => stack.len(),
    }
}

/// Pushes `vrp` onto the run of its prefix.
fn push(stack: &mut Vec<Open>, at: usize, vrp: &Vrp) {
    stack.push(Open {
        at,
        run: run_start(stack, vrp.prefix),
        prefix: vrp.prefix,
        asn: vrp.asn,
        left: None,
    });
}

/// Pops every entry that does not cover `prefix`, closing each through
/// `close`. Every entry covers the ones above it, so what stays is exactly
/// the tuples covering `prefix`.
fn pop_to(stack: &mut Vec<Open>, prefix: Prefix, mut close: impl FnMut(&mut Vec<Open>)) {
    while stack.last().is_some_and(|top| !top.prefix.covers(prefix)) {
        close(stack);
    }
}

/// The entry of `asn` in the run that ends at stack index `end`, if any:
/// a binary search, since a run holds one entry per origin in order.
fn find_in_run(stack: &[Open], end: usize, asn: Asn) -> Option<usize> {
    let start = stack[end.checked_sub(1)?].run;
    let found = stack[start..end].binary_search_by_key(&asn, |open| open.asn);
    found.ok().map(|i| start + i)
}

/// Algorithm 1 over a shard of whole top-level subtrees in sweep order.
/// `kept[i]` ends as the maxLength tuple `i` survives with, or `None` if
/// it was merged away.
fn sweep_shard(tuples: impl Iterator<Item = Vrp>, kept: &mut [Option<u8>], stack: &mut Vec<Open>) {
    for (at, vrp) in tuples.enumerate() {
        pop_to(stack, vrp.prefix, |stack| close(stack, kept));
        kept[at] = Some(vrp.max_len.max(vrp.prefix.len()));
        match stack.last_mut() {
            // A repeated pair: this tuple carries the larger maxLength, and
            // nothing has closed onto the entry yet.
            Some(top) if top.prefix == vrp.prefix && top.asn == vrp.asn => {
                kept[top.at] = None;
                top.at = at;
            }
            _ => push(stack, at, &vrp),
        }
    }
    while !stack.is_empty() {
        close(stack, kept);
    }
}

/// Backtracks out of the tuple on top of the stack: `compress(node)` of
/// Algorithm 1 on its parent, once the parent's second child closes.
fn close(stack: &mut Vec<Open>, kept: &mut [Option<u8>]) {
    let child = stack.pop().expect("callers check the stack is not empty");
    // The run beneath the child's is its nearest covering prefix; one bit
    // shorter, it is the trie parent's.
    let below = child.run.checked_sub(1).map(|at| &stack[at]);
    if below.is_none_or(|open| open.prefix.len() + 1 != child.prefix.len()) {
        return;
    }
    let Some(parent) = find_in_run(stack, child.run, child.asn) else {
        return;
    };
    let parent = &mut stack[parent];
    if child.prefix.is_left_child() {
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

/// Drops every surviving tuple that is covered by an ancestor tuple of its
/// origin whose maxLength is at least as large (the domination extension
/// of [`compress_roas_full`]). Kept tuples of one origin nest with strictly
/// growing maxLengths, so the nearest one beneath is the largest above; it
/// is searched for run by run, below the tuple's own prefix.
fn drop_dominated(
    tuples: impl Iterator<Item = Vrp>,
    kept: &mut [Option<u8>],
    stack: &mut Vec<Open>,
) {
    for (at, vrp) in tuples.enumerate() {
        let Some(max_len) = kept[at] else { continue };
        pop_to(stack, vrp.prefix, |stack| {
            stack.pop();
        });
        // The runs beneath the tuple's own prefix, nearest first.
        let (mut end, mut above) = (run_start(stack, vrp.prefix), None);
        while above.is_none() && end > 0 {
            above = find_in_run(stack, end, vrp.asn);
            end = stack[end - 1].run;
        }
        if above.is_some_and(|found| kept[stack[found].at] >= Some(max_len)) {
            kept[at] = None;
        } else {
            push(stack, at, &vrp);
        }
    }
    stack.clear();
}

/// Sweeps one shard, then drops dominated tuples if asked to.
fn compress_shard(shard: &[Vrp], kept: &mut [Option<u8>], dominated: bool) {
    let mut stack = Vec::new();
    sweep_shard(shard.iter().copied(), kept, &mut stack);
    if dominated {
        drop_dominated(shard.iter().copied(), kept, &mut stack);
    }
}

/// The end of the top-level subtree holding `sorted[at]` (`sorted.len()`
/// past the end): the run covered by the shortest listed prefix that
/// covers it. A listed prefix is found by one binary search, so this costs
/// one search per shorter length.
fn subtree_end(sorted: &[Vrp], at: usize) -> usize {
    let Some(&Vrp { prefix, .. }) = sorted.get(at) else {
        return sorted.len();
    };
    let listed = |p: &Prefix| {
        let first = sorted.partition_point(|v| v.prefix < *p);
        sorted.get(first).is_some_and(|v| v.prefix == *p)
    };
    let root = (0..prefix.len())
        .filter_map(|len| prefix.ancestor_at(len))
        .find(listed)
        .unwrap_or(prefix);
    at + sorted[at..].partition_point(|v| root.covers(v.prefix))
}

/// The one kernel behind every entry point: returns the input in sweep
/// order and, per position in it, the maxLength that tuple survives with
/// (`None`: merged into another tuple).
fn sweep(vrps: &[Vrp], threads: usize, dominated: bool) -> (Cow<'_, [Vrp]>, Vec<Option<u8>>) {
    let sweep_order = |vrp: &Vrp| (vrp.prefix, vrp.asn, vrp.max_len);
    let mut sorted = Cow::Borrowed(vrps);
    if !vrps.is_sorted_by_key(sweep_order) {
        sorted.to_mut().sort_unstable_by_key(sweep_order);
    }
    let mut kept = vec![None; sorted.len()];
    let workers = threads.clamp(1, (sorted.len() / MIN_TUPLES_PER_THREAD).max(1));
    // A panicking worker panics the scope once every worker has joined.
    std::thread::scope(|scope| {
        let (mut rest, mut kept) = (&sorted[..], &mut kept[..]);
        for remaining in (1..=workers).rev() {
            // An even share of what is left, extended to the end of its
            // top-level subtree.
            let cut = subtree_end(rest, (rest.len() / remaining).saturating_sub(1));
            let (shard, tail) = rest.split_at(cut);
            let (kept_shard, kept_tail) = kept.split_at_mut(cut);
            if tail.is_empty() {
                // The last shard is swept here, not on one more thread.
                compress_shard(shard, kept_shard, dominated);
                break;
            }
            scope.spawn(move || compress_shard(shard, kept_shard, dominated));
            (rest, kept) = (tail, kept_tail);
        }
    });
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
    // `Vrp` order differs from sweep order only among the tuples of one
    // prefix, and a raised maxLength moves a tuple only among those. Most
    // prefixes keep one tuple, or tuples whose order the sweep left
    // alone, so one check of the whole list usually spares the re-sort.
    if !out.is_sorted() {
        for same_prefix in out.chunk_by_mut(|a, b| a.prefix == b.prefix) {
            same_prefix.sort_unstable();
        }
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
/// forfeit the merge that parent anchors, so the result is never larger
/// than [`compress_roas`]'s. A test hook: `tests/props.rs` checks that and
/// the domination pass, and the root `tests/core_kernels.rs` pins its
/// output by digest.
pub fn compress_roas_full(vrps: &[Vrp]) -> Vec<Vrp> {
    survivors(sweep(vrps, 1, true))
}

/// [`compress_roas`] parallelized across tries — the optimization §7.2
/// suggests ("Performance could be improved by parallelizing across
/// tries"). Top-level subtrees share no tuple of any trie, so up to
/// `threads` workers each sweep a run of whole top-level subtrees; small
/// inputs stay on the calling thread. Output is identical to the serial
/// call (tested).
pub fn compress_roas_parallel(vrps: &[Vrp], threads: usize) -> Vec<Vrp> {
    survivors(sweep(vrps, threads, false))
}

/// `compress_roas_parallel(vrps, threads).len()` without building the list
/// (Table 1 needs only the count).
pub(crate) fn compressed_len(vrps: &[Vrp], threads: usize) -> usize {
    sweep(vrps, threads, false).1.iter().flatten().count()
}

/// How many tuples Algorithm 1 leaves of one exact tuple per announced
/// pair (Table 1 row 6), without building either list: the table iterates
/// its distinct pairs in `(prefix, origin)` order, which is sweep order.
pub(crate) fn full_deployment_compressed_len(bgp: &BgpTable) -> usize {
    let mut kept = vec![None; bgp.len()];
    let exact = bgp.iter().map(|r| Vrp::exact(r.prefix, r.origin));
    sweep_shard(exact, &mut kept, &mut Vec::new());
    kept.iter().flatten().count()
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
        // AS1's umbrella lies two prefixes down, under AS2's /20.
        let input = vrps(&[
            "10.0.0.0/16-24 => AS1",
            "10.0.0.0/20 => AS2",
            "10.0.0.0/24 => AS1",
        ]);
        assert_eq!(compress_roas_full(&input), input[..2]);
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

    /// In `Vrp` order AS2's tuple on the same prefix sorts between AS1's
    /// two; the sweep reads AS1's pair together, and the later, wider one
    /// takes the earlier one's place and anchors the merge.
    #[test]
    fn repeated_pair_around_another_origin() {
        let input = vrps(&[
            "10.0.0.0/16 => AS1",
            "10.0.0.0/16-17 => AS2",
            "10.0.0.0/16-18 => AS1",
            "10.0.0.0/17 => AS1",
            "10.0.128.0/17 => AS1",
        ]);
        assert!(input.is_sorted());
        let out = compress_roas(&input);
        assert_eq!(
            out,
            vrps(&["10.0.0.0/16-17 => AS2", "10.0.0.0/16-18 => AS1"])
        );
        assert_eq!(expand_authorized(&out), expand_authorized(&input));
    }

    /// AS1's trie sits under AS2's /8: the /17s' parent is the /16, not
    /// the nearest tuple beneath them.
    #[test]
    fn parent_under_another_origins_cover() {
        let input = vrps(&[
            "10.0.0.0/8 => AS2",
            "10.0.0.0/16 => AS1",
            "10.0.0.0/17 => AS1",
            "10.0.128.0/17 => AS1",
        ]);
        let out = compress_roas(&input);
        assert_eq!(out, vrps(&["10.0.0.0/8 => AS2", "10.0.0.0/16-17 => AS1"]));
    }

    /// AS2 shares the parent's and the left child's prefix: each run holds
    /// two origins, and each left child is noted on its own origin's
    /// parent.
    #[test]
    fn other_origins_between_left_child_and_parent() {
        let input = vrps(&[
            "10.0.0.0/16 => AS1",
            "10.0.0.0/16-20 => AS2",
            "10.0.0.0/17 => AS2",
            "10.0.0.0/17-18 => AS1",
            "10.0.128.0/17 => AS1",
        ]);
        assert!(input.is_sorted());
        let out = compress_roas(&input);
        assert_eq!(
            out,
            vrps(&[
                "10.0.0.0/16-17 => AS1",
                "10.0.0.0/16-20 => AS2",
                "10.0.0.0/17 => AS2",
                "10.0.0.0/17-18 => AS1",
            ])
        );
        assert_eq!(expand_authorized(&out), expand_authorized(&input));
    }

    /// Hundreds of origins on each prefix, each with both halves, one
    /// repeated at a wider maxLength: a run per prefix, searched by origin.
    #[test]
    fn many_origins_share_each_prefix() {
        let mut input = Vec::new();
        for asn in (1..=300).rev() {
            for prefix in ["10.0.0.0/16", "10.0.0.0/17", "10.0.128.0/17"] {
                input.push(Vrp::exact(prefix.parse().unwrap(), Asn(asn)));
            }
        }
        input.push("10.0.0.0/16-20 => AS150".parse().unwrap());
        let out = compress_roas(&input);
        assert_eq!(out.len(), 300);
        assert!(out.contains(&"10.0.0.0/16-20 => AS150".parse().unwrap()));
        assert!(out.contains(&"10.0.0.0/16-17 => AS7".parse().unwrap()));
    }

    /// The v4 `/0` covers no IPv6 prefix: each family's `/0` merges only
    /// its own `/1`s, and dominates nothing across the boundary.
    #[test]
    fn root_prefixes_of_both_families() {
        let both = vrps(&[
            "0.0.0.0/0 => AS1",
            "0.0.0.0/1 => AS1",
            "128.0.0.0/1 => AS1",
            "::/0 => AS1",
            "::/1 => AS1",
            "8000::/1 => AS1",
        ]);
        assert_eq!(
            compress_roas(&both),
            vrps(&["0.0.0.0/0-1 => AS1", "::/0-1 => AS1"])
        );
        let v4_root_v6_halves = vrps(&["0.0.0.0/0 => AS1", "::/1 => AS1", "8000::/1 => AS1"]);
        assert_eq!(compress_roas(&v4_root_v6_halves), v4_root_v6_halves);
        let permissive = vrps(&["0.0.0.0/0-32 => AS1", "::/1 => AS1"]);
        assert_eq!(compress_roas_full(&permissive), permissive);
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

    /// MOAS-mixed input large enough that workers are really started:
    /// one to three origins on each top-level subtree, some of their
    /// subtrees with holes, and a maxLength tuple of a further origin on
    /// every fourth one.
    #[test]
    fn parallel_matches_serial() {
        let input: Vec<Vrp> = (1..=100u32)
            .flat_map(|octet| (1..=1 + octet % 3).map(move |asn| (octet, asn)))
            .flat_map(|(octet, asn)| {
                let holed = (octet + asn) % 5 == 0;
                full_subtree(&format!("{octet}.0.0.0/16"), asn)
                    .enumerate()
                    .filter(move |(i, _)| !holed || i % 7 != 3)
                    .map(|(_, vrp)| vrp)
            })
            .chain((1..=100u32).step_by(4).map(|octet| {
                let prefix: Prefix = format!("{octet}.0.0.0/16").parse().unwrap();
                Vrp::new(prefix, 20, Asn(9))
            }))
            .collect();
        assert!(input.len() > 2 * MIN_TUPLES_PER_THREAD);
        let serial = compress_roas(&input);
        for threads in [2, 3, 7] {
            assert_eq!(
                compress_roas_parallel(&input, threads),
                serial,
                "{threads} threads"
            );
        }
    }

    /// `prefix` and every subprefix of it down to /24, for one origin: a
    /// full subtree that compresses to one tuple.
    fn full_subtree(prefix: &str, asn: u32) -> impl Iterator<Item = Vrp> {
        let Ok(Prefix::V4(root)) = prefix.parse() else {
            panic!("an IPv4 prefix");
        };
        (root.len()..=24).flat_map(move |len| {
            let step = 1u32 << (32 - u32::from(len));
            (0..1u32 << (len - root.len())).map(move |i| {
                let bits = root.bits() + i * step;
                Vrp::exact(Prefix::V4(Prefix4::new(bits, len).unwrap()), Asn(asn))
            })
        })
    }

    /// Inputs large enough that workers are really started. Every top-level
    /// subtree is complete, so one split across two shards would leave more
    /// than one tuple behind.
    #[test]
    fn shards_are_cut_between_top_level_subtrees() {
        // Top-level subtrees of one origin, and of ten on one prefix.
        let even: Vec<Vrp> = (1..=200)
            .flat_map(|octet| full_subtree(&format!("{octet}.0.0.0/16"), 1))
            .chain((1..=10).flat_map(|asn| full_subtree("201.0.0.0/16", asn)))
            .collect();
        assert!(even.len() > 3 * MIN_TUPLES_PER_THREAD);
        // One subtree far larger than an even share, ahead of ten small ones.
        let lopsided: Vec<Vrp> = full_subtree("10.0.0.0/8", 1)
            .chain((11..=20).flat_map(|octet| full_subtree(&format!("{octet}.0.0.0/16"), 2)))
            .collect();
        assert!(full_subtree("10.0.0.0/8", 1).count() > lopsided.len() / 2);
        assert!(lopsided.len() > 3 * MIN_TUPLES_PER_THREAD);
        for (input, expect) in [(even, 210), (lopsided, 11)] {
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
