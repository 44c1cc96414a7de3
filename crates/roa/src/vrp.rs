use std::fmt;
use std::str::FromStr;

use rpki_prefix::Prefix;

use crate::{Asn, RouteOrigin};

/// A Validated ROA Payload: the `(IP prefix, maxLength, origin AS)` tuple
/// that the RPKI local cache extracts from validated ROAs and ships to
/// routers (RFC 6811 terminology; the paper calls these "PDUs", §6).
///
/// `max_len` is always materialized: a ROA prefix without an explicit
/// maxLength behaves exactly as if `maxLength == prefix length` (RFC 6482),
/// so the VRP stores the effective value. [`Vrp::uses_max_len`] recovers
/// whether the tuple authorizes anything beyond the prefix itself.
///
/// Displays in the paper's notation: `168.122.0.0/16-24 => AS111`, with the
/// `-maxLength` suffix omitted when it equals the prefix length.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Vrp {
    /// The authorized prefix.
    pub prefix: Prefix,
    /// The effective maximum length (always in `prefix.len()..=afi max`).
    pub max_len: u8,
    /// The authorized origin AS.
    pub asn: Asn,
}

impl Vrp {
    /// Creates a VRP, clamping `max_len` into the valid range
    /// `prefix.len()..=family max`. RFC 6482 forbids maxLength outside this
    /// range; measurement pipelines clamp rather than drop, matching how
    /// relying-party software treats in-range-but-useless values.
    #[inline]
    pub fn new(prefix: Prefix, max_len: u8, asn: Asn) -> Self {
        let max_len = max_len.clamp(prefix.len(), prefix.max_len());
        Vrp {
            prefix,
            max_len,
            asn,
        }
    }

    /// A VRP that authorizes exactly its prefix (`maxLength == length`).
    pub fn exact(prefix: Prefix, asn: Asn) -> Self {
        Vrp {
            prefix,
            max_len: prefix.len(),
            asn,
        }
    }

    /// A maximally-permissive VRP: maxLength 32 (IPv4) or 128 (IPv6).
    /// Used only for the paper's §6 compression lower bound — such VRPs are
    /// maximally vulnerable to forged-origin subprefix hijacks.
    pub fn max_permissive(prefix: Prefix, asn: Asn) -> Self {
        Vrp {
            prefix,
            max_len: prefix.max_len(),
            asn,
        }
    }

    /// `true` if the tuple authorizes prefixes beyond the prefix itself,
    /// i.e. `maxLength > prefix length`. These are the "maxLength-using"
    /// tuples counted in §6.
    #[inline]
    pub fn uses_max_len(&self) -> bool {
        self.max_len > self.prefix.len()
    }

    /// `true` if this VRP *covers* the route's prefix (RFC 6811): the VRP
    /// prefix is an equal-or-shorter prefix of it. Covering says nothing
    /// about validity — a covered route with no *matching* VRP is Invalid.
    #[inline]
    pub fn covers(&self, route: &RouteOrigin) -> bool {
        self.prefix.covers(route.prefix)
    }

    /// `true` if this VRP *matches* the route (RFC 6811): it covers the
    /// route, the route's length does not exceed maxLength, and the origin
    /// AS agrees (and is not AS 0, RFC 7607).
    #[inline]
    pub fn matches(&self, route: &RouteOrigin) -> bool {
        self.covers(route)
            && route.prefix.len() <= self.max_len
            && self.asn == route.origin
            && !self.asn.is_zero()
    }

    /// The number of distinct prefixes this VRP authorizes
    /// (`2^(maxLength - length + 1) - 1`), saturating. The measure of how
    /// much attack surface a non-minimal tuple exposes (§4).
    pub fn authorized_prefix_count(&self) -> u128 {
        self.prefix.subprefix_count(self.max_len)
    }

    /// Iterates over every `(prefix, ASN)` route this VRP authorizes.
    /// Beware: exponential in `maxLength - length`.
    pub fn authorized_routes(&self) -> impl Iterator<Item = RouteOrigin> + '_ {
        let asn = self.asn;
        self.prefix
            .subprefixes(self.max_len)
            .map(move |p| RouteOrigin::new(p, asn))
    }
}

/// Lets an iterator that yields VRPs by value (the router table in
/// `rpki_rtr::VrpSet` stores packed keys, not `Vrp`s) be compared with
/// `Iterator::eq` against one that borrows them from a slice or set.
impl PartialEq<&Vrp> for Vrp {
    #[inline]
    fn eq(&self, other: &&Vrp) -> bool {
        *self == **other
    }
}

impl fmt::Display for Vrp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.uses_max_len() {
            write!(f, "{}-{} => {}", self.prefix, self.max_len, self.asn)
        } else {
            write!(f, "{} => {}", self.prefix, self.asn)
        }
    }
}

/// Error parsing a [`Vrp`] from text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseVrpError(String);

impl fmt::Display for ParseVrpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid VRP: {:?}", self.0)
    }
}

impl std::error::Error for ParseVrpError {}

impl FromStr for Vrp {
    type Err = ParseVrpError;

    fn from_str(s: &str) -> Result<Vrp, ParseVrpError> {
        let err = || ParseVrpError(s.to_string());
        let (lhs, asn) = s.split_once("=>").ok_or_else(err)?;
        let asn: Asn = asn.trim().parse().map_err(|_| err())?;
        let lhs = lhs.trim();
        // `prefix/len-maxlen` — the dash after the length, if any, carries
        // the maxLength. Split at the *last* dash following the slash so
        // IPv6 text (which never contains dashes) and lengths stay intact.
        let slash = lhs.rfind('/').ok_or_else(err)?;
        let (prefix_str, max_len) = match lhs[slash..].find('-') {
            Some(rel) => {
                let at = slash + rel;
                let ml: u8 = lhs[at + 1..].trim().parse().map_err(|_| err())?;
                (&lhs[..at], Some(ml))
            }
            None => (lhs, None),
        };
        let prefix: Prefix = prefix_str.trim().parse().map_err(|_| err())?;
        match max_len {
            Some(ml) => {
                if ml < prefix.len() || ml > prefix.max_len() {
                    return Err(err());
                }
                Ok(Vrp::new(prefix, ml, asn))
            }
            None => Ok(Vrp::exact(prefix, asn)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vrp(s: &str) -> Vrp {
        s.parse().unwrap()
    }

    fn route(s: &str) -> RouteOrigin {
        s.parse().unwrap()
    }

    #[test]
    fn display_paper_notation() {
        // The paper's running example: ROA:(168.122.0.0/16-24, AS 111).
        let v = vrp("168.122.0.0/16-24 => AS111");
        assert_eq!(v.to_string(), "168.122.0.0/16-24 => AS111");
        let exact = vrp("168.122.0.0/16 => AS111");
        assert_eq!(exact.to_string(), "168.122.0.0/16 => AS111");
        assert_eq!(exact.max_len, 16);
    }

    #[test]
    fn parse_round_trip() {
        for s in [
            "168.122.0.0/16-24 => AS111",
            "10.0.0.0/8 => AS0",
            "2001:db8::/32-48 => AS65000",
            "2001:db8::/128 => AS1",
        ] {
            assert_eq!(vrp(s).to_string(), s);
        }
    }

    #[test]
    fn parse_rejects_bad_maxlen() {
        assert!("10.0.0.0/16-8 => AS1".parse::<Vrp>().is_err()); // maxLen < len
        assert!("10.0.0.0/16-33 => AS1".parse::<Vrp>().is_err()); // beyond family
        assert!("10.0.0.0/16-x => AS1".parse::<Vrp>().is_err());
        assert!("10.0.0.0/16 - 24 => AS1".parse::<Vrp>().is_ok()); // spaces ok
    }

    #[test]
    fn new_clamps() {
        let p: Prefix = "10.0.0.0/16".parse().unwrap();
        assert_eq!(Vrp::new(p, 8, Asn(1)).max_len, 16);
        assert_eq!(Vrp::new(p, 40, Asn(1)).max_len, 32);
        assert_eq!(Vrp::new(p, 24, Asn(1)).max_len, 24);
    }

    #[test]
    fn uses_max_len() {
        assert!(vrp("168.122.0.0/16-24 => AS111").uses_max_len());
        assert!(!vrp("168.122.0.0/16 => AS111").uses_max_len());
        let p: Prefix = "10.0.0.0/8".parse().unwrap();
        assert!(Vrp::max_permissive(p, Asn(1)).uses_max_len());
        assert_eq!(Vrp::max_permissive(p, Asn(1)).max_len, 32);
    }

    #[test]
    fn covering_and_matching_running_example() {
        // §2: the ROA (168.122.0.0/16, AS 111).
        let roa_vrp = vrp("168.122.0.0/16 => AS111");

        // AS 111's own /16 announcement matches.
        assert!(roa_vrp.matches(&route("168.122.0.0/16 => AS111")));

        // A subprefix announcement by AS 111 is covered but NOT matched
        // (maxLength is 16) — the de-aggregation problem of §3.
        let deagg = route("168.122.225.0/24 => AS111");
        assert!(roa_vrp.covers(&deagg));
        assert!(!roa_vrp.matches(&deagg));

        // The subprefix hijack of §2 is covered but not matched.
        let hijack = route("168.122.0.0/24 => AS666");
        assert!(roa_vrp.covers(&hijack));
        assert!(!roa_vrp.matches(&hijack));
    }

    #[test]
    fn maxlength_authorizes_forged_origin_subprefix() {
        // §4: with maxLength 24 the hijacker's forged-origin announcement
        // "168.122.0.0/24: AS m, AS 111" is VALID because the VRP matches
        // the (prefix, origin) pair.
        let v = vrp("168.122.0.0/16-24 => AS111");
        assert!(v.matches(&route("168.122.0.0/24 => AS111")));
        assert!(!v.matches(&route("168.122.0.0/25 => AS111"))); // beyond maxLength
        assert!(!v.matches(&route("168.122.0.0/24 => AS666"))); // wrong origin
    }

    #[test]
    fn as0_never_matches() {
        let v = vrp("10.0.0.0/8-24 => AS0");
        assert!(v.covers(&route("10.0.0.0/16 => AS0")));
        assert!(!v.matches(&route("10.0.0.0/16 => AS0")));
    }

    #[test]
    fn cross_family_never_covers() {
        let v = vrp("10.0.0.0/8 => AS1");
        assert!(!v.covers(&route("2001:db8::/32 => AS1")));
    }

    #[test]
    fn authorized_routes_enumeration() {
        let v = vrp("168.122.0.0/16-17 => AS111");
        let routes: Vec<_> = v.authorized_routes().collect();
        assert_eq!(routes.len(), 3);
        assert_eq!(v.authorized_prefix_count(), 3);
        assert!(routes.iter().all(|r| r.origin == Asn(111)));
        assert!(routes.iter().all(|r| v.matches(r)));
    }

    #[test]
    fn ordering_is_by_prefix_then_maxlen_then_asn() {
        let a = vrp("10.0.0.0/8-9 => AS5");
        let b = vrp("10.0.0.0/8-10 => AS1");
        let c = vrp("10.0.0.0/9 => AS1");
        assert!(a < b && b < c);
    }

    /// 32 bytes, not a 64-byte cache line (the contract is in
    /// `rpki_prefix`'s crate docs): a `u128` at its natural alignment
    /// under `Prefix` would bring the cache line back, and a `Prefix`
    /// with a tag byte of its own would make both 40.
    #[test]
    fn layout_is_pinned() {
        assert_eq!(std::mem::size_of::<Vrp>(), 32);
        assert_eq!(std::mem::size_of::<RouteOrigin>(), 32);
    }

    #[test]
    fn by_value_iterator_compares_with_borrowing_one() {
        let held = [vrp("10.0.0.0/8 => AS1"), vrp("2001:db8::/32-48 => AS2")];
        assert!(held.iter().copied().eq(held.iter()));
        assert!(!held.iter().copied().eq(held[..1].iter()));
    }
}
