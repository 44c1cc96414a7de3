use std::fmt;

/// The RFC 6811 validation outcome for one BGP announcement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ValidationState {
    /// A VRP matches the announcement.
    Valid,
    /// The announcement is covered by some VRP but matched by none —
    /// the state hijacked announcements land in when ROAs are configured
    /// correctly.
    Invalid,
    /// No VRP covers the announced prefix.
    NotFound,
}

impl ValidationState {
    /// `true` only for [`ValidationState::Invalid`].
    pub const fn is_invalid(self) -> bool {
        matches!(self, ValidationState::Invalid)
    }
}

impl fmt::Display for ValidationState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidationState::Valid => write!(f, "Valid"),
            ValidationState::Invalid => write!(f, "Invalid"),
            ValidationState::NotFound => write!(f, "NotFound"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predicates() {
        assert!(!ValidationState::Valid.is_invalid());
        assert!(ValidationState::Invalid.is_invalid());
        assert!(!ValidationState::NotFound.is_invalid());
    }

    #[test]
    fn display() {
        assert_eq!(ValidationState::Valid.to_string(), "Valid");
        assert_eq!(ValidationState::Invalid.to_string(), "Invalid");
        assert_eq!(ValidationState::NotFound.to_string(), "NotFound");
    }
}
