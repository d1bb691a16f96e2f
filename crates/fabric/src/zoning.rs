//! Zones and connections: the fabric-manager state an Agent manipulates.
//!
//! A **zone** is a visibility group of endpoints; a **connection** binds an
//! initiator endpoint to a target endpoint *and* to a concrete allocation on
//! the target device (a memory chunk handle, an NVMe namespace handle, or a
//! whole-GPU grant). Connections are only legal between endpoints that share
//! a zone — the enforcement real fabric managers provide.

use crate::ids::{ConnectionId, EndpointId, ZoneId};
use crate::routing::Path;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// A zone: a named set of endpoints.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ZoneState {
    /// Stable name used for Redfish ids.
    pub name: String,
    /// Member endpoints.
    pub members: BTreeSet<EndpointId>,
}

/// An established connection.
#[derive(Debug, Clone)]
pub struct ConnectionState {
    /// Stable name used for Redfish ids.
    pub name: String,
    /// The initiator endpoint.
    pub initiator: EndpointId,
    /// The target endpoint.
    pub target: EndpointId,
    /// Allocation handle on the target device backing this connection.
    pub allocation: u64,
    /// Units allocated (MiB / bytes / 1 for GPU).
    pub size: u64,
    /// The zone that authorized the connection.
    pub zone: ZoneId,
    /// The currently programmed route.
    pub path: Path,
    /// Bandwidth reserved along the path (Gbit/s; 0 = best effort).
    pub reserved_gbps: f64,
    /// Number of times the connection has failed over to a new path.
    pub failover_count: u32,
}

/// Errors from zoning operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ZoningError {
    /// Zone id does not exist.
    UnknownZone(ZoneId),
    /// Connection id does not exist.
    UnknownConnection(ConnectionId),
    /// Initiator and target are not both members of the zone.
    NotZoned {
        /// Offending endpoint.
        endpoint: EndpointId,
        /// The zone checked.
        zone: ZoneId,
    },
    /// The zone still authorizes live connections.
    ZoneInUse(ZoneId),
}

impl std::fmt::Display for ZoningError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ZoningError::UnknownZone(z) => write!(f, "unknown zone {z}"),
            ZoningError::UnknownConnection(c) => write!(f, "unknown connection {c}"),
            ZoningError::NotZoned { endpoint, zone } => {
                write!(f, "endpoint {endpoint} is not a member of zone {zone}")
            }
            ZoningError::ZoneInUse(z) => write!(f, "zone {z} still authorizes connections"),
        }
    }
}

impl std::error::Error for ZoningError {}

/// Zoning/connection tables for one fabric.
#[derive(Debug, Default)]
pub struct ZoningTable {
    zones: BTreeMap<ZoneId, ZoneState>,
    connections: BTreeMap<ConnectionId, ConnectionState>,
    next_zone: u32,
    next_conn: u32,
}

impl ZoningTable {
    /// Empty table.
    pub fn new() -> Self {
        ZoningTable::default()
    }

    /// Create a zone over `members`.
    pub fn create_zone(&mut self, name: impl Into<String>, members: BTreeSet<EndpointId>) -> ZoneId {
        let id = ZoneId(self.next_zone);
        self.next_zone += 1;
        self.zones.insert(
            id,
            ZoneState {
                name: name.into(),
                members,
            },
        );
        id
    }

    /// Look up a zone.
    pub fn zone(&self, id: ZoneId) -> Result<&ZoneState, ZoningError> {
        self.zones.get(&id).ok_or(ZoningError::UnknownZone(id))
    }

    /// Add an endpoint to an existing zone.
    pub fn add_to_zone(&mut self, id: ZoneId, ep: EndpointId) -> Result<(), ZoningError> {
        self.zones
            .get_mut(&id)
            .ok_or(ZoningError::UnknownZone(id))?
            .members
            .insert(ep);
        Ok(())
    }

    /// Delete a zone; fails while any connection still references it.
    pub fn delete_zone(&mut self, id: ZoneId) -> Result<(), ZoningError> {
        if !self.zones.contains_key(&id) {
            return Err(ZoningError::UnknownZone(id));
        }
        if self.connections.values().any(|c| c.zone == id) {
            return Err(ZoningError::ZoneInUse(id));
        }
        self.zones.remove(&id);
        Ok(())
    }

    /// Validate that both endpoints are members of `zone`, then record the
    /// connection. The caller supplies the routed path and the allocation it
    /// already carved on the target device.
    #[allow(clippy::too_many_arguments)]
    pub fn connect(
        &mut self,
        name: impl Into<String>,
        zone: ZoneId,
        initiator: EndpointId,
        target: EndpointId,
        allocation: u64,
        size: u64,
        path: Path,
        reserved_gbps: f64,
    ) -> Result<ConnectionId, ZoningError> {
        let z = self.zones.get(&zone).ok_or(ZoningError::UnknownZone(zone))?;
        for ep in [initiator, target] {
            if !z.members.contains(&ep) {
                return Err(ZoningError::NotZoned { endpoint: ep, zone });
            }
        }
        let id = ConnectionId(self.next_conn);
        self.next_conn += 1;
        self.connections.insert(
            id,
            ConnectionState {
                name: name.into(),
                initiator,
                target,
                allocation,
                size,
                zone,
                path,
                reserved_gbps,
                failover_count: 0,
            },
        );
        Ok(id)
    }

    /// Remove a connection, returning its state (so the caller can release
    /// the device allocation).
    pub fn disconnect(&mut self, id: ConnectionId) -> Result<ConnectionState, ZoningError> {
        self.connections.remove(&id).ok_or(ZoningError::UnknownConnection(id))
    }

    /// Look up a connection.
    pub fn connection(&self, id: ConnectionId) -> Result<&ConnectionState, ZoningError> {
        self.connections.get(&id).ok_or(ZoningError::UnknownConnection(id))
    }

    /// Mutable connection access (fail-over updates).
    pub fn connection_mut(&mut self, id: ConnectionId) -> Result<&mut ConnectionState, ZoningError> {
        self.connections.get_mut(&id).ok_or(ZoningError::UnknownConnection(id))
    }

    /// Iterate all connections.
    pub fn connections(&self) -> impl Iterator<Item = (ConnectionId, &ConnectionState)> {
        self.connections.iter().map(|(k, v)| (*k, v))
    }

    /// Iterate all zones.
    pub fn zones(&self) -> impl Iterator<Item = (ZoneId, &ZoneState)> {
        self.zones.iter().map(|(k, v)| (*k, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path0() -> Path {
        Path {
            links: Vec::new(),
            latency_ns: 0,
            bandwidth_gbps: 100.0,
        }
    }

    fn set(eps: &[u32]) -> BTreeSet<EndpointId> {
        eps.iter().map(|&e| EndpointId(e)).collect()
    }

    #[test]
    fn connect_requires_zone_membership() {
        let mut t = ZoningTable::new();
        let z = t.create_zone("z", set(&[0, 1]));
        assert!(t
            .connect("c", z, EndpointId(0), EndpointId(1), 1, 64, path0(), 0.0)
            .is_ok());
        let err = t
            .connect("c2", z, EndpointId(0), EndpointId(2), 1, 64, path0(), 0.0)
            .unwrap_err();
        assert_eq!(
            err,
            ZoningError::NotZoned {
                endpoint: EndpointId(2),
                zone: z
            }
        );
    }

    #[test]
    fn zone_deletion_blocked_while_in_use() {
        let mut t = ZoningTable::new();
        let z = t.create_zone("z", set(&[0, 1]));
        let c = t
            .connect("c", z, EndpointId(0), EndpointId(1), 1, 64, path0(), 0.0)
            .unwrap();
        assert_eq!(t.delete_zone(z), Err(ZoningError::ZoneInUse(z)));
        t.disconnect(c).unwrap();
        assert!(t.delete_zone(z).is_ok());
        assert!(matches!(t.zone(z), Err(ZoningError::UnknownZone(_))));
    }

    #[test]
    fn disconnect_returns_allocation() {
        let mut t = ZoningTable::new();
        let z = t.create_zone("z", set(&[0, 1]));
        let c = t
            .connect("c", z, EndpointId(0), EndpointId(1), 42, 1024, path0(), 0.0)
            .unwrap();
        let st = t.disconnect(c).unwrap();
        assert_eq!(st.allocation, 42);
        assert_eq!(st.size, 1024);
        assert!(matches!(t.disconnect(c), Err(ZoningError::UnknownConnection(_))));
    }

    #[test]
    fn grow_zone_membership() {
        let mut t = ZoningTable::new();
        let z = t.create_zone("z", set(&[0]));
        assert!(t
            .connect("c", z, EndpointId(0), EndpointId(9), 1, 1, path0(), 0.0)
            .is_err());
        t.add_to_zone(z, EndpointId(9)).unwrap();
        assert!(t
            .connect("c", z, EndpointId(0), EndpointId(9), 1, 1, path0(), 0.0)
            .is_ok());
    }
}
