use std::fmt;

use rpki_prefix::Prefix;

use crate::{Asn, RouteOrigin, Vrp};

/// One prefix entry inside a ROA: an IP prefix plus an optional maxLength
/// (RFC 6482 `ROAIPAddress`).
///
/// `max_len: None` means the ROA authorizes exactly this prefix — the
/// conservative form the paper recommends (§8). `Some(m)` authorizes every
/// subprefix up to length `m`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RoaPrefix {
    /// The authorized prefix.
    pub prefix: Prefix,
    /// Optional maxLength attribute.
    pub max_len: Option<u8>,
}

impl RoaPrefix {
    /// An entry without maxLength.
    pub fn exact(prefix: Prefix) -> Self {
        RoaPrefix {
            prefix,
            max_len: None,
        }
    }

    /// An entry with an explicit maxLength.
    pub fn with_max_len(prefix: Prefix, max_len: u8) -> Self {
        RoaPrefix {
            prefix,
            max_len: Some(max_len),
        }
    }

    /// The effective maxLength: the explicit attribute, or the prefix
    /// length when absent (RFC 6482 §4).
    pub fn effective_max_len(&self) -> u8 {
        self.max_len.unwrap_or_else(|| self.prefix.len())
    }

    /// RFC 6482 validity: an explicit maxLength must lie between the prefix
    /// length and the address-family maximum.
    pub fn is_well_formed(&self) -> bool {
        match self.max_len {
            None => true,
            Some(m) => m >= self.prefix.len() && m <= self.prefix.max_len(),
        }
    }
}

impl fmt::Display for RoaPrefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.max_len {
            Some(m) => write!(f, "{}-{}", self.prefix, m),
            None => write!(f, "{}", self.prefix),
        }
    }
}

/// Errors constructing a [`Roa`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RoaError {
    /// RFC 6482 requires at least one prefix.
    EmptyPrefixSet,
    /// An entry's maxLength is below its prefix length or beyond the family
    /// maximum.
    BadMaxLength(RoaPrefix),
}

impl fmt::Display for RoaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RoaError::EmptyPrefixSet => write!(f, "ROA contains no prefixes"),
            RoaError::BadMaxLength(p) => write!(f, "ROA entry {p} has invalid maxLength"),
        }
    }
}

impl std::error::Error for RoaError {}

/// A Route Origin Authorization (RFC 6482): a single origin AS authorized
/// to announce a *set* of prefixes, each with an optional maxLength.
///
/// The paper leans on the set-ness (§3, §5): "multiple ROAs are not
/// required since ROAs support sets of IP prefixes" — converting a
/// non-minimal maxLength-using ROA to a minimal one never needs extra ROA
/// objects, only more entries inside the same object.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Roa {
    asn: Asn,
    prefixes: Vec<RoaPrefix>,
}

impl Roa {
    /// Creates a ROA, validating RFC 6482 constraints. Entries are sorted
    /// and de-duplicated so equal authorization sets compare equal.
    pub fn new(asn: Asn, mut prefixes: Vec<RoaPrefix>) -> Result<Roa, RoaError> {
        if prefixes.is_empty() {
            return Err(RoaError::EmptyPrefixSet);
        }
        if let Some(bad) = prefixes.iter().find(|p| !p.is_well_formed()) {
            return Err(RoaError::BadMaxLength(*bad));
        }
        prefixes.sort_unstable();
        prefixes.dedup();
        Ok(Roa { asn, prefixes })
    }

    /// The authorized origin AS.
    pub fn asn(&self) -> Asn {
        self.asn
    }

    /// The prefix entries, sorted.
    pub fn prefixes(&self) -> &[RoaPrefix] {
        &self.prefixes
    }

    /// `true` if any entry carries an explicit maxLength beyond its prefix
    /// length — the "maxLength-using" ROAs of §6.
    pub fn uses_max_len(&self) -> bool {
        self.prefixes
            .iter()
            .any(|p| p.effective_max_len() > p.prefix.len())
    }

    /// The VRPs (PDUs) this ROA expands to: one per prefix entry, with the
    /// effective maxLength materialized.
    pub fn vrps(&self) -> impl Iterator<Item = Vrp> + '_ {
        self.prefixes
            .iter()
            .map(|p| Vrp::new(p.prefix, p.effective_max_len(), self.asn))
    }

    /// `true` if this ROA makes `route` RPKI-valid.
    pub fn authorizes(&self, route: &RouteOrigin) -> bool {
        self.vrps().any(|v| v.matches(route))
    }

    /// `true` if any entry covers `route`'s prefix (regardless of origin or
    /// maxLength).
    pub fn covers(&self, route: &RouteOrigin) -> bool {
        self.prefixes.iter().any(|p| p.prefix.covers(route.prefix))
    }
}

impl fmt::Display for Roa {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ROA:({{")?;
        for (i, p) in self.prefixes.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{p}")?;
        }
        write!(f, "}}, {})", self.asn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pfx(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn running_example_roa() {
        // ROA:(168.122.0.0/16-24, AS 111) from §3.
        let roa = Roa::new(
            Asn(111),
            vec![RoaPrefix::with_max_len(pfx("168.122.0.0/16"), 24)],
        )
        .unwrap();
        assert!(roa.uses_max_len());
        assert_eq!(roa.to_string(), "ROA:({168.122.0.0/16-24}, AS111)");

        // It authorizes the de-aggregated /24 from §3...
        assert!(roa.authorizes(&"168.122.225.0/24 => AS111".parse().unwrap()));
        // ...every /17 and /18...
        assert!(roa.authorizes(&"168.122.128.0/17 => AS111".parse().unwrap()));
        // ...but not a /25.
        assert!(!roa.authorizes(&"168.122.0.0/25 => AS111".parse().unwrap()));
    }

    #[test]
    fn minimal_roa_with_prefix_set() {
        // The minimal alternative from §3:
        // ROA:({168.122.0.0/16, 168.122.225.0/24}, AS 111).
        let roa = Roa::new(
            Asn(111),
            vec![
                RoaPrefix::exact(pfx("168.122.0.0/16")),
                RoaPrefix::exact(pfx("168.122.225.0/24")),
            ],
        )
        .unwrap();
        assert!(!roa.uses_max_len());
        assert_eq!(roa.prefixes().len(), 2);
        assert!(roa.authorizes(&"168.122.0.0/16 => AS111".parse().unwrap()));
        assert!(roa.authorizes(&"168.122.225.0/24 => AS111".parse().unwrap()));
        // The forged-origin subprefix hijack from §4 now fails:
        assert!(!roa.authorizes(&"168.122.0.0/24 => AS111".parse().unwrap()));
        // ...though it is still covered (hence Invalid, not NotFound).
        assert!(roa.covers(&"168.122.0.0/24 => AS111".parse().unwrap()));
    }

    #[test]
    fn rejects_empty_and_bad_maxlen() {
        assert_eq!(Roa::new(Asn(1), vec![]), Err(RoaError::EmptyPrefixSet));
        let bad = RoaPrefix::with_max_len(pfx("10.0.0.0/16"), 8);
        assert_eq!(
            Roa::new(Asn(1), vec![bad]),
            Err(RoaError::BadMaxLength(bad))
        );
        let too_long = RoaPrefix::with_max_len(pfx("10.0.0.0/16"), 33);
        assert!(Roa::new(Asn(1), vec![too_long]).is_err());
    }

    #[test]
    fn max_len_at_family_bound_ok() {
        assert!(Roa::new(
            Asn(1),
            vec![RoaPrefix::with_max_len(pfx("10.0.0.0/16"), 32)]
        )
        .is_ok());
        assert!(Roa::new(
            Asn(1),
            vec![RoaPrefix::with_max_len(pfx("2001:db8::/32"), 128)]
        )
        .is_ok());
    }

    #[test]
    fn entries_sorted_and_deduped() {
        let roa = Roa::new(
            Asn(1),
            vec![
                RoaPrefix::exact(pfx("11.0.0.0/8")),
                RoaPrefix::exact(pfx("10.0.0.0/8")),
                RoaPrefix::exact(pfx("10.0.0.0/8")),
            ],
        )
        .unwrap();
        assert_eq!(roa.prefixes().len(), 2);
        assert_eq!(roa.prefixes()[0].prefix, pfx("10.0.0.0/8"));
    }

    #[test]
    fn vrps_materialize_effective_maxlen() {
        let roa = Roa::new(
            Asn(31283),
            vec![
                RoaPrefix::exact(pfx("87.254.32.0/19")),
                RoaPrefix::with_max_len(pfx("87.254.32.0/20"), 21),
            ],
        )
        .unwrap();
        let vrps: Vec<_> = roa.vrps().collect();
        assert_eq!(vrps.len(), 2);
        assert_eq!(vrps[0].max_len, 19);
        assert_eq!(vrps[1].max_len, 21);
        assert!(vrps.iter().all(|v| v.asn == Asn(31283)));
    }

    #[test]
    fn explicit_maxlen_equal_to_len_is_not_using() {
        let roa = Roa::new(
            Asn(1),
            vec![RoaPrefix::with_max_len(pfx("10.0.0.0/16"), 16)],
        )
        .unwrap();
        assert!(!roa.uses_max_len());
    }

    #[test]
    fn mixed_family_roa() {
        let roa = Roa::new(
            Asn(1),
            vec![
                RoaPrefix::exact(pfx("10.0.0.0/8")),
                RoaPrefix::exact(pfx("2001:db8::/32")),
            ],
        )
        .unwrap();
        assert!(roa.authorizes(&"10.0.0.0/8 => AS1".parse().unwrap()));
        assert!(roa.authorizes(&"2001:db8::/32 => AS1".parse().unwrap()));
    }
}
