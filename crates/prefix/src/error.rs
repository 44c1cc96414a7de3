use std::fmt;

/// Errors produced when constructing or parsing prefixes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PrefixError {
    /// The prefix length exceeds the maximum for the address family
    /// (32 for IPv4, 128 for IPv6).
    LengthOutOfRange {
        /// The offending length.
        len: u8,
        /// The maximum permitted length for the family.
        max: u8,
    },
    /// The address has bits set beyond the prefix length
    /// (e.g. `10.0.0.1/8`). Canonical prefixes must have host bits zero.
    HostBitsSet,
    /// The textual form could not be parsed as `addr/len`.
    Malformed(String),
}

impl fmt::Display for PrefixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PrefixError::LengthOutOfRange { len, max } => {
                write!(f, "prefix length {len} out of range (max {max})")
            }
            PrefixError::HostBitsSet => {
                write!(f, "address has host bits set beyond the prefix length")
            }
            PrefixError::Malformed(s) => write!(f, "malformed prefix: {s:?}"),
        }
    }
}

impl std::error::Error for PrefixError {}
