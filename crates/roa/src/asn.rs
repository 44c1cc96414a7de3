use std::fmt;
use std::str::FromStr;

/// An autonomous system number (32-bit, RFC 6793).
///
/// Displays in the canonical `AS64496` form; parses either that form or a
/// bare decimal number.
///
/// ```
/// use rpki_roa::Asn;
/// let a: Asn = "AS111".parse().unwrap();
/// let b: Asn = "111".parse().unwrap();
/// assert_eq!(a, b);
/// assert_eq!(a.to_string(), "AS111");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Asn(pub u32);

impl Asn {
    /// The AS number as a plain integer.
    #[inline]
    pub const fn into_u32(self) -> u32 {
        self.0
    }

    /// `true` for AS 0, which RFC 7607 forbids as a route origin. A ROA for
    /// AS 0 is a deliberate "nobody may originate this" statement.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl From<u32> for Asn {
    fn from(n: u32) -> Asn {
        Asn(n)
    }
}

impl From<Asn> for u32 {
    fn from(asn: Asn) -> u32 {
        asn.0
    }
}

impl fmt::Display for Asn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AS{}", self.0)
    }
}

/// Error parsing an [`Asn`] from text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseAsnError(String);

impl fmt::Display for ParseAsnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid AS number: {:?}", self.0)
    }
}

impl std::error::Error for ParseAsnError {}

impl FromStr for Asn {
    type Err = ParseAsnError;

    fn from_str(s: &str) -> Result<Asn, ParseAsnError> {
        let digits = s
            .strip_prefix("AS")
            .or_else(|| s.strip_prefix("as"))
            .unwrap_or(s);
        digits
            .parse::<u32>()
            .map(Asn)
            .map_err(|_| ParseAsnError(s.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_forms() {
        assert_eq!("AS111".parse::<Asn>().unwrap(), Asn(111));
        assert_eq!("as111".parse::<Asn>().unwrap(), Asn(111));
        assert_eq!("111".parse::<Asn>().unwrap(), Asn(111));
        assert_eq!("4294967295".parse::<Asn>().unwrap(), Asn(u32::MAX));
        assert!("AS".parse::<Asn>().is_err());
        assert!("AS-1".parse::<Asn>().is_err());
        assert!("4294967296".parse::<Asn>().is_err());
        assert!("".parse::<Asn>().is_err());
    }

    #[test]
    fn display() {
        assert_eq!(Asn(31283).to_string(), "AS31283");
    }

    #[test]
    fn classification() {
        assert!(Asn(0).is_zero());
        assert!(!Asn(111).is_zero());
    }

    #[test]
    fn conversions() {
        let a: Asn = 42u32.into();
        assert_eq!(u32::from(a), 42);
        assert_eq!(a.into_u32(), 42);
    }
}
