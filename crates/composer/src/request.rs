//! Composition requests and composed-system records.

use redfish_model::odata::ODataId;
use serde_json::{json, Value};

/// What a client asks the Composability Manager for.
///
/// Mirrors the paper's motivating needs: enough local compute, plus
/// disaggregated memory (OOM mitigation), accelerators and storage attached
/// over whatever fabrics provide them.
#[derive(Debug, Clone, PartialEq)]
pub struct CompositionRequest {
    /// Human-readable name (becomes the composed system's `Name`).
    pub name: String,
    /// Minimum physical cores on the compute node.
    pub cores: u32,
    /// Minimum local DRAM on the compute node (GiB).
    pub local_memory_gib: u64,
    /// Fabric-attached memory to bind (MiB); 0 for none.
    pub fabric_memory_mib: u64,
    /// Pooled GPUs to grant.
    pub gpus: u32,
    /// Fabric-attached storage to provision (bytes); 0 for none.
    pub storage_bytes: u64,
    /// Spread fabric-memory chunks across distinct appliances
    /// (anti-affinity) instead of packing one.
    pub spread_memory: bool,
    /// Bandwidth to reserve on each memory binding's path (Gbit/s;
    /// 0 = best effort).
    pub memory_bandwidth_gbps: f64,
    /// Bandwidth to reserve on each storage binding's path (Gbit/s).
    pub storage_bandwidth_gbps: f64,
    /// Bandwidth to reserve on each GPU binding's path (Gbit/s) — peer
    /// traffic to a pooled accelerator contends on cascade trunks, so
    /// congestion-aware placement needs GPU bindings to debit links too.
    pub gpu_bandwidth_gbps: f64,
}

impl CompositionRequest {
    /// A compute-only request (no disaggregated resources).
    pub fn compute_only(name: &str, cores: u32, local_gib: u64) -> Self {
        CompositionRequest {
            name: name.to_string(),
            cores,
            local_memory_gib: local_gib,
            fabric_memory_mib: 0,
            gpus: 0,
            storage_bytes: 0,
            spread_memory: false,
            memory_bandwidth_gbps: 0.0,
            storage_bandwidth_gbps: 0.0,
            gpu_bandwidth_gbps: 0.0,
        }
    }

    /// Builder: require fabric memory.
    #[must_use]
    pub fn with_fabric_memory_mib(mut self, mib: u64) -> Self {
        self.fabric_memory_mib = mib;
        self
    }

    /// Builder: require GPUs.
    #[must_use]
    pub fn with_gpus(mut self, n: u32) -> Self {
        self.gpus = n;
        self
    }

    /// Builder: require storage.
    #[must_use]
    pub fn with_storage_bytes(mut self, bytes: u64) -> Self {
        self.storage_bytes = bytes;
        self
    }

    /// Builder: enable memory anti-affinity.
    #[must_use]
    pub fn with_spread_memory(mut self) -> Self {
        self.spread_memory = true;
        self
    }

    /// Builder: reserve bandwidth on memory bindings (QoS).
    #[must_use]
    pub fn with_memory_bandwidth_gbps(mut self, g: f64) -> Self {
        self.memory_bandwidth_gbps = g;
        self
    }

    /// Builder: reserve bandwidth on storage bindings (QoS).
    #[must_use]
    pub fn with_storage_bandwidth_gbps(mut self, g: f64) -> Self {
        self.storage_bandwidth_gbps = g;
        self
    }

    /// Builder: reserve bandwidth on GPU bindings (QoS).
    #[must_use]
    pub fn with_gpu_bandwidth_gbps(mut self, g: f64) -> Self {
        self.gpu_bandwidth_gbps = g;
        self
    }

    /// Bandwidth to reserve on the path of a binding of `kind` (Gbit/s).
    pub fn bandwidth_gbps(&self, kind: BindingKind) -> f64 {
        match kind {
            BindingKind::Memory => self.memory_bandwidth_gbps,
            BindingKind::Storage => self.storage_bandwidth_gbps,
            BindingKind::Gpu => self.gpu_bandwidth_gbps,
        }
    }

    /// Encode for the durability journal. Inverse of
    /// [`CompositionRequest::from_value`].
    pub fn to_value(&self) -> Value {
        json!({
            "Name": self.name.as_str(),
            "Cores": self.cores as u64,
            "LocalMemoryGiB": self.local_memory_gib,
            "FabricMemoryMiB": self.fabric_memory_mib,
            "Gpus": self.gpus as u64,
            "StorageBytes": self.storage_bytes,
            "SpreadMemory": self.spread_memory,
            "MemoryBandwidthGbps": self.memory_bandwidth_gbps,
            "StorageBandwidthGbps": self.storage_bandwidth_gbps,
            "GpuBandwidthGbps": self.gpu_bandwidth_gbps,
        })
    }

    /// Decode a journaled request; `None` on malformed payloads.
    pub fn from_value(v: &Value) -> Option<Self> {
        Some(CompositionRequest {
            name: v.get("Name")?.as_str()?.to_string(),
            cores: u32::try_from(v.get("Cores")?.as_u64()?).ok()?,
            local_memory_gib: v.get("LocalMemoryGiB")?.as_u64()?,
            fabric_memory_mib: v.get("FabricMemoryMiB")?.as_u64()?,
            gpus: u32::try_from(v.get("Gpus")?.as_u64()?).ok()?,
            storage_bytes: v.get("StorageBytes")?.as_u64()?,
            spread_memory: v.get("SpreadMemory")?.as_bool()?,
            memory_bandwidth_gbps: v.get("MemoryBandwidthGbps")?.as_f64()?,
            storage_bandwidth_gbps: v.get("StorageBandwidthGbps")?.as_f64()?,
            // Absent in journals written before GPU QoS existed: default to
            // best-effort instead of refusing replay.
            gpu_bandwidth_gbps: v.get("GpuBandwidthGbps").and_then(Value::as_f64).unwrap_or(0.0),
        })
    }
}

/// One resource binding within a composition.
#[derive(Debug, Clone, PartialEq)]
pub struct Binding {
    /// The fabric the connection runs on.
    pub fabric: String,
    /// The zone created for this composition on that fabric.
    pub zone: ODataId,
    /// The connection resource.
    pub connection: ODataId,
    /// What was bound (chunk / volume / processor id).
    pub resource: ODataId,
    /// Capacity bound (MiB / bytes / 1).
    pub size: u64,
    /// Class of the binding.
    pub kind: BindingKind,
}

/// What class of resource a binding provides.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BindingKind {
    /// Fabric-attached memory.
    Memory,
    /// Fabric-attached storage.
    Storage,
    /// Accelerator grant.
    Gpu,
}

impl BindingKind {
    /// Stable lowercase label (span annotations, CLI output, journal).
    pub fn label(self) -> &'static str {
        match self {
            BindingKind::Memory => "memory",
            BindingKind::Storage => "storage",
            BindingKind::Gpu => "gpu",
        }
    }

    /// Inverse of [`BindingKind::label`].
    pub fn parse(s: &str) -> Option<BindingKind> {
        match s {
            "memory" => Some(BindingKind::Memory),
            "storage" => Some(BindingKind::Storage),
            "gpu" => Some(BindingKind::Gpu),
            _ => None,
        }
    }
}

impl Binding {
    /// Encode for the durability journal. Inverse of [`Binding::from_value`].
    pub fn to_value(&self) -> Value {
        json!({
            "Fabric": self.fabric.as_str(),
            "Zone": self.zone.as_str(),
            "Connection": self.connection.as_str(),
            "Resource": self.resource.as_str(),
            "Size": self.size,
            "Kind": self.kind.label(),
        })
    }

    /// Decode a journaled binding; `None` on malformed payloads.
    pub fn from_value(v: &Value) -> Option<Self> {
        Some(Binding {
            fabric: v.get("Fabric")?.as_str()?.to_string(),
            zone: ODataId::new(v.get("Zone")?.as_str()?),
            connection: ODataId::new(v.get("Connection")?.as_str()?),
            resource: ODataId::new(v.get("Resource")?.as_str()?),
            size: v.get("Size")?.as_u64()?,
            kind: BindingKind::parse(v.get("Kind")?.as_str()?)?,
        })
    }
}

/// One bind a compose has planned. `ComposeIntent.planned` journals these
/// before any agent mutation, the zone/connection member ids allocated up
/// front, so recovery can find (and remove) half-applied state by exact path.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Planned {
    pub fabric: String,
    /// The target endpoint.
    pub target: ODataId,
    /// The pool resource the bind carves from (domain / pool / processor).
    pub resource: ODataId,
    pub size: u64,
    pub kind: BindingKind,
    /// Member ids of the zone and the connection the bind creates.
    pub zone_id: String,
    pub conn_id: String,
}

impl Planned {
    /// A plan entry whose member ids are yet to be allocated.
    pub fn new(fabric: &str, target: &ODataId, resource: &ODataId, size: u64, kind: BindingKind) -> Self {
        Planned {
            fabric: fabric.to_string(),
            target: target.clone(),
            resource: resource.clone(),
            size,
            kind,
            zone_id: String::new(),
            conn_id: String::new(),
        }
    }

    /// Encode for the durability journal. Inverse of [`Planned::from_value`].
    pub fn to_value(&self) -> Value {
        json!({
            "Fabric": self.fabric.as_str(),
            "Target": self.target.as_str(),
            "Resource": self.resource.as_str(),
            "Size": self.size,
            "Kind": self.kind.label(),
            "ZoneId": self.zone_id.as_str(),
            "ConnId": self.conn_id.as_str(),
        })
    }

    /// Decode a journaled plan entry; `None` on malformed payloads.
    pub fn from_value(v: &Value) -> Option<Self> {
        Some(Planned {
            fabric: v.get("Fabric")?.as_str()?.to_string(),
            target: ODataId::new(v.get("Target")?.as_str()?),
            resource: ODataId::new(v.get("Resource")?.as_str()?),
            size: v.get("Size")?.as_u64()?,
            kind: BindingKind::parse(v.get("Kind")?.as_str()?)?,
            zone_id: v.get("ZoneId")?.as_str()?.to_string(),
            conn_id: v.get("ConnId")?.as_str()?.to_string(),
        })
    }
}

/// The record of a live composition.
#[derive(Debug, Clone, PartialEq)]
pub struct ComposedSystem {
    /// The composed `ComputerSystem` resource.
    pub system: ODataId,
    /// The underlying physical node.
    pub node: ODataId,
    /// All fabric bindings.
    pub bindings: Vec<Binding>,
    /// Request this composition satisfied.
    pub request: CompositionRequest,
}

impl ComposedSystem {
    /// Total fabric memory currently bound (MiB).
    pub fn bound_memory_mib(&self) -> u64 {
        self.bindings
            .iter()
            .filter(|b| b.kind == BindingKind::Memory)
            .map(|b| b.size)
            .sum()
    }

    /// Total fabric storage currently bound (bytes).
    pub fn bound_storage_bytes(&self) -> u64 {
        self.bindings
            .iter()
            .filter(|b| b.kind == BindingKind::Storage)
            .map(|b| b.size)
            .sum()
    }

    /// GPUs currently granted.
    pub fn bound_gpus(&self) -> usize {
        self.bindings.iter().filter(|b| b.kind == BindingKind::Gpu).count()
    }

    /// The `Links.ResourceBlocks` value for the composed system document.
    pub fn resource_block_links(&self) -> Value {
        let mut links: Vec<Value> = vec![json!({"@odata.id": self.node.as_str()})];
        links.extend(self.bindings.iter().map(|b| json!({"@odata.id": b.resource.as_str()})));
        Value::Array(links)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_accumulates() {
        let r = CompositionRequest::compute_only("job1", 56, 128)
            .with_fabric_memory_mib(65536)
            .with_gpus(2)
            .with_storage_bytes(1 << 40)
            .with_spread_memory();
        assert_eq!(r.fabric_memory_mib, 65536);
        assert_eq!(r.gpus, 2);
        assert!(r.spread_memory);
    }

    #[test]
    fn journal_codecs_roundtrip() {
        let r = CompositionRequest::compute_only("job1", 56, 128)
            .with_fabric_memory_mib(65536)
            .with_gpus(2)
            .with_storage_bytes(1 << 40)
            .with_spread_memory()
            .with_memory_bandwidth_gbps(25.5);
        assert_eq!(CompositionRequest::from_value(&r.to_value()), Some(r));
        let b = Binding {
            fabric: "CXL0".into(),
            zone: ODataId::new("/redfish/v1/Fabrics/CXL0/Zones/z1"),
            connection: ODataId::new("/redfish/v1/Fabrics/CXL0/Connections/c1"),
            resource: ODataId::new("/redfish/v1/Chassis/mem0/MemoryDomains/d0/MemoryChunks/mc1"),
            size: 4096,
            kind: BindingKind::Memory,
        };
        let mut p = Planned::new("CXL0", &b.zone, &b.resource, 4096, BindingKind::Memory);
        (p.zone_id, p.conn_id) = ("z7".into(), "c8".into());
        assert_eq!(Planned::from_value(&p.to_value()), Some(p));
        assert_eq!(Binding::from_value(&b.to_value()), Some(b));
        assert_eq!(Binding::from_value(&json!({"Fabric": "x"})), None);
        assert_eq!(Planned::from_value(&json!({"Fabric": "x", "ZoneId": "z1"})), None);
        for k in [BindingKind::Memory, BindingKind::Storage, BindingKind::Gpu] {
            assert_eq!(BindingKind::parse(k.label()), Some(k));
        }
    }

    #[test]
    fn composed_system_accounting() {
        let mk = |kind, size| Binding {
            fabric: "F".into(),
            zone: ODataId::new("/z"),
            connection: ODataId::new("/c"),
            resource: ODataId::new("/r"),
            size,
            kind,
        };
        let cs = ComposedSystem {
            system: ODataId::new("/redfish/v1/Systems/comp1"),
            node: ODataId::new("/redfish/v1/Systems/cn00"),
            bindings: vec![
                mk(BindingKind::Memory, 1024),
                mk(BindingKind::Memory, 2048),
                mk(BindingKind::Gpu, 1),
            ],
            request: CompositionRequest::compute_only("j", 1, 1),
        };
        assert_eq!(cs.bound_memory_mib(), 3072);
        assert_eq!(cs.bound_gpus(), 1);
        assert_eq!(cs.bound_storage_bytes(), 0);
        assert_eq!(cs.resource_block_links().as_array().unwrap().len(), 4);
    }
}
