use crate::ValidationState;

/// What a router does with the validation outcome.
///
/// The paper's threat model (§1) assumes operators "drop routes that the
/// RPKI deems invalid"; routers that don't enforce ROV accept everything.
/// The `bgpsim` experiments toggle this per-AS to model partial adoption.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RovPolicy {
    /// Ignore validation results entirely (the pre-RPKI default).
    #[default]
    AcceptAll,
    /// Drop announcements whose state is Invalid; accept Valid and
    /// NotFound (the standard ROV deployment).
    DropInvalid,
}

impl RovPolicy {
    /// `true` if an announcement with `state` may enter the routing table.
    ///
    /// A test hook: the policy's definition, against which
    /// `bgpsim`'s `tests/engine_props.rs` checks compiled policies.
    pub fn permits(self, state: ValidationState) -> bool {
        match self {
            RovPolicy::AcceptAll => true,
            RovPolicy::DropInvalid => !state.is_invalid(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accept_all_permits_everything() {
        for s in [
            ValidationState::Valid,
            ValidationState::Invalid,
            ValidationState::NotFound,
        ] {
            assert!(RovPolicy::AcceptAll.permits(s));
        }
    }

    #[test]
    fn drop_invalid_rejects_only_invalid() {
        assert!(RovPolicy::DropInvalid.permits(ValidationState::Valid));
        assert!(RovPolicy::DropInvalid.permits(ValidationState::NotFound));
        assert!(!RovPolicy::DropInvalid.permits(ValidationState::Invalid));
    }

    #[test]
    fn default_is_accept_all() {
        assert_eq!(RovPolicy::default(), RovPolicy::AcceptAll);
    }
}
