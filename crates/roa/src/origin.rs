use std::fmt;
use std::str::FromStr;

use rpki_prefix::Prefix;

use crate::Asn;

/// A `(prefix, origin AS)` pair — one row of a BGP routing table as seen by
/// the paper's measurement pipeline (§6), which compares Route Views dumps
/// against ROAs.
///
/// Parses from and displays as `prefix => ASN`, e.g.
/// `168.122.0.0/16 => AS111`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RouteOrigin {
    /// The announced prefix.
    pub prefix: Prefix,
    /// The AS originating the announcement.
    pub origin: Asn,
}

impl RouteOrigin {
    /// Creates a route origin pair.
    pub fn new(prefix: Prefix, origin: Asn) -> Self {
        RouteOrigin { prefix, origin }
    }
}

impl fmt::Display for RouteOrigin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} => {}", self.prefix, self.origin)
    }
}

/// Error parsing a [`RouteOrigin`] from text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseRouteOriginError(String);

impl fmt::Display for ParseRouteOriginError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid route origin: {:?}", self.0)
    }
}

impl std::error::Error for ParseRouteOriginError {}

impl FromStr for RouteOrigin {
    type Err = ParseRouteOriginError;

    fn from_str(s: &str) -> Result<RouteOrigin, ParseRouteOriginError> {
        let (prefix, asn) = s
            .split_once("=>")
            .ok_or_else(|| ParseRouteOriginError(s.to_string()))?;
        let prefix: Prefix = prefix
            .trim()
            .parse()
            .map_err(|_| ParseRouteOriginError(s.to_string()))?;
        let origin: Asn = asn
            .trim()
            .parse()
            .map_err(|_| ParseRouteOriginError(s.to_string()))?;
        Ok(RouteOrigin { prefix, origin })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let r: RouteOrigin = "168.122.0.0/16 => AS111".parse().unwrap();
        assert_eq!(r.prefix.to_string(), "168.122.0.0/16");
        assert_eq!(r.origin, Asn(111));
        assert_eq!(r.to_string(), "168.122.0.0/16 => AS111");
        let back: RouteOrigin = r.to_string().parse().unwrap();
        assert_eq!(r, back);
    }

    #[test]
    fn parse_v6_and_bare_asn() {
        let r: RouteOrigin = "2001:db8::/32=>65000".parse().unwrap();
        assert!(!r.prefix.is_v4());
        assert_eq!(r.origin, Asn(65000));
    }

    #[test]
    fn rejects_malformed() {
        assert!("168.122.0.0/16".parse::<RouteOrigin>().is_err());
        assert!("=> AS111".parse::<RouteOrigin>().is_err());
        assert!("foo => AS111".parse::<RouteOrigin>().is_err());
        assert!("10.0.0.0/8 => banana".parse::<RouteOrigin>().is_err());
    }

    #[test]
    fn ordering_groups_by_prefix() {
        let a: RouteOrigin = "10.0.0.0/8 => AS2".parse().unwrap();
        let b: RouteOrigin = "10.0.0.0/8 => AS3".parse().unwrap();
        let c: RouteOrigin = "11.0.0.0/8 => AS1".parse().unwrap();
        assert!(a < b && b < c);
    }
}
