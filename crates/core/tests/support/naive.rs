//! The quadratic `compress_roas` oracle, `#[path]`-included by
//! `props.rs`.

use std::collections::BTreeMap;

use rpki_prefix::Prefix;
use rpki_roa::{Asn, Vrp};

/// A deliberately naive reference: repeatedly scans the whole tuple list
/// and merges one sibling pair at a time until no merge applies. Same
/// output semantics as `compress_roas`, quadratic time; the
/// differential-testing oracle.
pub fn compress_roas_naive(vrps: &[Vrp]) -> Vec<Vrp> {
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
