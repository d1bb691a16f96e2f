//! The Redfish `Status` object: health and lifecycle state of a resource.

use serde::{Deserialize, Serialize};

/// Health of a resource as reported by its provider.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum Health {
    /// Resource is functioning normally.
    #[default]
    OK,
    /// Resource is functioning but in a degraded manner (e.g. one of two
    /// redundant links lost).
    Warning,
    /// Resource is not functioning.
    Critical,
}

impl Health {
    /// Combine two health values pessimistically (used when rolling up the
    /// health of an aggregate from its members).
    #[must_use]
    pub fn worst(self, other: Health) -> Health {
        use Health::*;
        match (self, other) {
            (Critical, _) | (_, Critical) => Critical,
            (Warning, _) | (_, Warning) => Warning,
            _ => OK,
        }
    }
}

/// Lifecycle state of a resource.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum State {
    /// Fully operational.
    #[default]
    Enabled,
    /// Administratively disabled.
    Disabled,
    /// Present but not yet initialized.
    StandbyOffline,
    /// Being initialized or composed.
    Starting,
    /// Resource is absent (slot exists, device does not).
    Absent,
    /// The resource is reserved by a composition request but not yet bound.
    Reserved,
    /// Permanently unavailable (e.g. failed hardware awaiting service).
    UnavailableOffline,
    /// Deferring to another resource for management.
    Deferring,
    /// In service/maintenance mode.
    InTest,
    /// Update in progress.
    Updating,
    /// Qualified/quiesced state used during fail-over.
    Quiesced,
}

impl State {
    /// Whether a resource in this state may be bound into a new composition.
    pub fn is_allocatable(self) -> bool {
        matches!(self, State::Enabled | State::StandbyOffline)
    }
}

/// The composite `Status` member present on nearly every Redfish resource.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct Status {
    /// Health of this resource alone.
    #[serde(rename = "Health")]
    pub health: Health,
    /// Worst health of this resource and all its dependents.
    #[serde(rename = "HealthRollup", skip_serializing_if = "Option::is_none")]
    pub health_rollup: Option<Health>,
    /// Lifecycle state.
    #[serde(rename = "State")]
    pub state: State,
}

impl Status {
    /// Enabled + OK.
    pub fn ok() -> Status {
        Status::default()
    }

    /// Enabled + Critical.
    pub fn critical() -> Status {
        Status {
            health: Health::Critical,
            health_rollup: None,
            state: State::Enabled,
        }
    }

    /// Absent resource (no health reported in rollup).
    pub fn absent() -> Status {
        Status {
            health: Health::OK,
            health_rollup: None,
            state: State::Absent,
        }
    }

    /// Builder: set the state.
    #[must_use]
    pub fn with_state(mut self, state: State) -> Status {
        self.state = state;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worst_health_ordering() {
        assert_eq!(Health::OK.worst(Health::Warning), Health::Warning);
        assert_eq!(Health::Warning.worst(Health::Critical), Health::Critical);
        assert_eq!(Health::OK.worst(Health::OK), Health::OK);
        assert_eq!(Health::Critical.worst(Health::OK), Health::Critical);
    }

    #[test]
    fn allocatable_states() {
        assert!(State::Enabled.is_allocatable());
        assert!(State::StandbyOffline.is_allocatable());
        assert!(!State::Absent.is_allocatable());
        assert!(!State::Reserved.is_allocatable());
        assert!(!State::UnavailableOffline.is_allocatable());
    }

    #[test]
    fn status_serializes_pascal_case() {
        let v = serde_json::to_value(Status::ok()).unwrap();
        assert_eq!(v["Health"], "OK");
        assert_eq!(v["State"], "Enabled");
        assert!(v.get("HealthRollup").is_none());
    }
}
