//! The logical journal records and their JSON codec.
//!
//! Records are encoded as single JSON objects with a `"k"` discriminant,
//! hand-rolled in both directions so the on-disk format is a stable,
//! inspectable contract rather than an artifact of derive internals.
//! Payload fields use plain `String` paths and `u64` ETags — the WAL sits
//! below the Redfish data model and must not depend on it.

use serde_json::{Map, Number, Value};
use std::fmt::{self, Write as _};

/// One durable control-plane mutation (or snapshot install record).
///
/// Registry records carry the ETag the live mutation allocated (and the
/// parent collection's bumped ETag, when linking/unlinking touched one),
/// so replay reproduces the exact tree — including ETags — regardless of
/// how concurrent writers interleaved across stripes.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A resource (or collection) was created and linked into its parent.
    Create {
        /// Resource path.
        id: String,
        /// Full body as stored.
        body: Value,
        /// ETag allocated for the new resource.
        etag: u64,
        /// Whether the resource is a Members collection.
        is_collection: bool,
        /// New ETag of the parent collection, when linking bumped one.
        parent_etag: Option<u64>,
    },
    /// A resource was merge-patched.
    Patch {
        /// Resource path.
        id: String,
        /// The merge-patch delta that was applied.
        delta: Value,
        /// ETag allocated by the patch.
        etag: u64,
    },
    /// A resource body was replaced wholesale.
    Replace {
        /// Resource path.
        id: String,
        /// The replacement body.
        body: Value,
        /// ETag allocated by the replace.
        etag: u64,
    },
    /// A single resource was deleted and unlinked.
    Delete {
        /// Resource path.
        id: String,
        /// New ETag of the parent collection, when unlinking bumped one.
        parent_etag: Option<u64>,
    },
    /// A whole subtree was deleted and its root unlinked.
    DeleteSubtree {
        /// Subtree root path.
        id: String,
        /// New ETag of the parent collection, when unlinking bumped one.
        parent_etag: Option<u64>,
    },
    /// Snapshot record: install a resource verbatim (no linking — the
    /// parent's Members are part of its own installed body).
    InstallResource {
        /// Resource path.
        id: String,
        /// Full stored body.
        body: Value,
        /// Stored ETag.
        etag: u64,
        /// Whether the resource is a Members collection.
        is_collection: bool,
    },
    /// Snapshot record: the ETag allocator must resume at or above `seq`.
    EtagFloor {
        /// Next ETag sequence value.
        seq: u64,
    },
    /// Periodic stamp of the control-plane clock, so sessions and other
    /// deadline state resume against monotonic time after a restart.
    ClockMark {
        /// Clock reading in milliseconds.
        now_ms: u64,
    },
    /// An event subscription was created.
    Subscribe {
        /// Subscription id (the member id under the Subscriptions collection).
        id: String,
        /// Delivery destination URI.
        destination: String,
        /// Subscribed event type names (empty = all).
        event_types: Vec<String>,
        /// Origin-resource path filters (empty = all).
        origins: Vec<String>,
    },
    /// An event subscription was removed.
    Unsubscribe {
        /// Subscription id.
        id: String,
    },
    /// A session was created.
    SessionLogin {
        /// The bearer token.
        token: String,
        /// Session member id.
        session_id: String,
        /// Authenticated user name.
        user: String,
        /// Clock reading at login.
        last_used_ms: u64,
    },
    /// A session's idle deadline was refreshed.
    SessionTouch {
        /// The bearer token.
        token: String,
        /// Clock reading at the touch.
        last_used_ms: u64,
    },
    /// A session ended (logout or expiry).
    SessionEnd {
        /// The bearer token.
        token: String,
    },
    /// A teardown op was journaled for a dead agent (PR-2 teardown journal).
    Teardown {
        /// Fabric the op targets.
        fabric: String,
        /// Encoded `AgentOp`.
        op: Value,
    },
    /// A fabric's journaled teardowns were drained (replayed or dropped).
    TeardownDrained {
        /// Fabric whose journal drained.
        fabric: String,
    },
    /// Composition intent, written *before* any agent bind executes. The
    /// planned bindings carry pre-allocated zone/connection member ids so
    /// recovery can find (and remove) half-applied state by exact path.
    ComposeIntent {
        /// Composed system path.
        system: String,
        /// Backing compute node path.
        node: String,
        /// Encoded `CompositionRequest`.
        request: Value,
        /// Array of planned bindings.
        planned: Value,
    },
    /// One planned binding completed against the agent.
    BindDone {
        /// Composed system path.
        system: String,
        /// Encoded `Binding`.
        binding: Value,
    },
    /// The composition completed and is live.
    ComposeCommit {
        /// Composed system path.
        system: String,
    },
    /// The composition was abandoned and compensated.
    ComposeAbort {
        /// Composed system path.
        system: String,
    },
    /// A live composition was decomposed.
    Decompose {
        /// Composed system path.
        system: String,
    },
    /// A binding was added to a live composition (grow/attach).
    BindAdded {
        /// Composed system path.
        system: String,
        /// Encoded `Binding`.
        binding: Value,
    },
    /// Snapshot record: a live committed composition.
    ComposeLive {
        /// Composed system path.
        system: String,
        /// Backing compute node path.
        node: String,
        /// Encoded `CompositionRequest`.
        request: Value,
        /// Array of encoded `Binding`s.
        bindings: Value,
    },
}

/// One field of a record's on-disk object, borrowed from the record (or,
/// for a streamed snapshot install, from the live tree).
#[derive(Clone, Copy)]
enum Field<'a> {
    Str(&'a str),
    U64(u64),
    Bool(bool),
    Strs(&'a [String]),
    Json(&'a Value),
}

impl Field<'_> {
    fn to_value(self) -> Value {
        match self {
            Field::Str(v) => Value::String(v.to_string()),
            Field::U64(v) => Value::Number(Number::from_u64(v)),
            Field::Bool(v) => Value::Bool(v),
            Field::Strs(vs) => Value::Array(vs.iter().map(|v| Value::String(v.clone())).collect()),
            Field::Json(v) => v.clone(),
        }
    }

    /// Append the compact JSON text `serde_json` prints for [`Field::to_value`].
    fn write_json(self, out: &mut String) -> fmt::Result {
        match self {
            Field::Str(v) => serde_json::write_escaped(v, out),
            Field::U64(v) => write!(out, "{v}"),
            Field::Bool(v) => write!(out, "{v}"),
            Field::Strs(vs) => {
                out.push('[');
                for (i, v) in vs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    serde_json::write_escaped(v, out)?;
                }
                out.push(']');
                Ok(())
            }
            Field::Json(v) => write!(out, "{v}"),
        }
    }
}

/// The `"k"` discriminant of [`WalRecord::InstallResource`].
const INSTALL: &str = "install";

/// The fields of an `InstallResource`, in on-disk order, from borrowed
/// parts: a streamed snapshot encodes them straight off the live tree.
fn install_fields<'a>(
    id: &'a str,
    body: &'a Value,
    etag: u64,
    is_collection: bool,
    put: &mut dyn FnMut(&'static str, Field<'a>),
) {
    put("id", Field::Str(id));
    put("body", Field::Json(body));
    put("etag", Field::U64(etag));
    put("coll", Field::Bool(is_collection));
}

/// Append the on-disk JSON object of kind `kind` whose fields `fields`
/// yields, in the order it yields them.
fn write_object<'a>(kind: &str, out: &mut String, fields: impl FnOnce(&mut dyn FnMut(&'static str, Field<'a>))) {
    // Writing into a `String` cannot fail.
    out.push_str("{\"k\":");
    let _ = serde_json::write_escaped(kind, out);
    fields(&mut |key, field| {
        out.push(',');
        let _ = serde_json::write_escaped(key, out);
        out.push(':');
        let _ = field.write_json(out);
    });
    out.push('}');
}

/// Append the on-disk form of an `InstallResource` built from borrowed
/// parts: the bytes [`WalRecord::encode`] gives the owned record.
pub(crate) fn encode_install(id: &str, body: &Value, etag: u64, is_collection: bool, out: &mut String) {
    write_object(INSTALL, out, |put| install_fields(id, body, etag, is_collection, put));
}

fn take_str(m: &mut Map, key: &str) -> Option<String> {
    match m.remove(key)? {
        Value::String(v) => Some(v),
        _ => None,
    }
}

fn get_u64(m: &Map, key: &str) -> Option<u64> {
    m.get(key)?.as_u64()
}

fn get_bool(m: &Map, key: &str) -> Option<bool> {
    m.get(key)?.as_bool()
}

fn take_strings(m: &mut Map, key: &str) -> Option<Vec<String>> {
    let Value::Array(arr) = m.remove(key)? else {
        return None;
    };
    arr.into_iter()
        .map(|v| match v {
            Value::String(v) => Some(v),
            _ => None,
        })
        .collect()
}

impl WalRecord {
    /// A short stable name for the record kind (the `"k"` discriminant).
    pub fn kind(&self) -> &'static str {
        match self {
            WalRecord::Create { .. } => "create",
            WalRecord::Patch { .. } => "patch",
            WalRecord::Replace { .. } => "replace",
            WalRecord::Delete { .. } => "delete",
            WalRecord::DeleteSubtree { .. } => "delete_subtree",
            WalRecord::InstallResource { .. } => INSTALL,
            WalRecord::EtagFloor { .. } => "etag_floor",
            WalRecord::ClockMark { .. } => "clock_mark",
            WalRecord::Subscribe { .. } => "subscribe",
            WalRecord::Unsubscribe { .. } => "unsubscribe",
            WalRecord::SessionLogin { .. } => "session_login",
            WalRecord::SessionTouch { .. } => "session_touch",
            WalRecord::SessionEnd { .. } => "session_end",
            WalRecord::Teardown { .. } => "teardown",
            WalRecord::TeardownDrained { .. } => "teardown_drained",
            WalRecord::ComposeIntent { .. } => "compose_intent",
            WalRecord::BindDone { .. } => "bind_done",
            WalRecord::ComposeCommit { .. } => "compose_commit",
            WalRecord::ComposeAbort { .. } => "compose_abort",
            WalRecord::Decompose { .. } => "decompose",
            WalRecord::BindAdded { .. } => "bind_added",
            WalRecord::ComposeLive { .. } => "compose_live",
        }
    }

    /// The record's fields in on-disk order, borrowed: the one table both
    /// [`WalRecord::to_value`] and [`WalRecord::encode`] read.
    fn fields<'a>(&'a self, put: &mut dyn FnMut(&'static str, Field<'a>)) {
        use Field::{Bool, Json, Str, Strs, U64};
        match self {
            WalRecord::Create {
                id,
                body,
                etag,
                is_collection,
                parent_etag,
            } => {
                put("id", Str(id));
                put("body", Json(body));
                put("etag", U64(*etag));
                put("coll", Bool(*is_collection));
                if let Some(p) = parent_etag {
                    put("parent_etag", U64(*p));
                }
            }
            WalRecord::Patch { id, delta, etag } => {
                put("id", Str(id));
                put("delta", Json(delta));
                put("etag", U64(*etag));
            }
            WalRecord::Replace { id, body, etag } => {
                put("id", Str(id));
                put("body", Json(body));
                put("etag", U64(*etag));
            }
            WalRecord::Delete { id, parent_etag } | WalRecord::DeleteSubtree { id, parent_etag } => {
                put("id", Str(id));
                if let Some(p) = parent_etag {
                    put("parent_etag", U64(*p));
                }
            }
            WalRecord::InstallResource {
                id,
                body,
                etag,
                is_collection,
            } => install_fields(id, body, *etag, *is_collection, put),
            WalRecord::EtagFloor { seq } => put("seq", U64(*seq)),
            WalRecord::ClockMark { now_ms } => put("now_ms", U64(*now_ms)),
            WalRecord::Subscribe {
                id,
                destination,
                event_types,
                origins,
            } => {
                put("id", Str(id));
                put("dest", Str(destination));
                put("types", Strs(event_types));
                put("origins", Strs(origins));
            }
            WalRecord::Unsubscribe { id } => put("id", Str(id)),
            WalRecord::SessionLogin {
                token,
                session_id,
                user,
                last_used_ms,
            } => {
                put("token", Str(token));
                put("sid", Str(session_id));
                put("user", Str(user));
                put("used_ms", U64(*last_used_ms));
            }
            WalRecord::SessionTouch { token, last_used_ms } => {
                put("token", Str(token));
                put("used_ms", U64(*last_used_ms));
            }
            WalRecord::SessionEnd { token } => put("token", Str(token)),
            WalRecord::Teardown { fabric, op } => {
                put("fabric", Str(fabric));
                put("op", Json(op));
            }
            WalRecord::TeardownDrained { fabric } => put("fabric", Str(fabric)),
            WalRecord::ComposeIntent {
                system,
                node,
                request,
                planned,
            } => {
                put("system", Str(system));
                put("node", Str(node));
                put("request", Json(request));
                put("planned", Json(planned));
            }
            WalRecord::BindDone { system, binding } | WalRecord::BindAdded { system, binding } => {
                put("system", Str(system));
                put("binding", Json(binding));
            }
            WalRecord::ComposeCommit { system }
            | WalRecord::ComposeAbort { system }
            | WalRecord::Decompose { system } => put("system", Str(system)),
            WalRecord::ComposeLive {
                system,
                node,
                request,
                bindings,
            } => {
                put("system", Str(system));
                put("node", Str(node));
                put("request", Json(request));
                put("bindings", Json(bindings));
            }
        }
    }

    /// Encode as the on-disk JSON object (decode tests and tools; the
    /// journal itself writes [`WalRecord::encode`]'s bytes).
    pub fn to_value(&self) -> Value {
        let mut m = Map::new();
        m.insert("k".to_string(), Value::String(self.kind().to_string()));
        self.fields(&mut |key, field| {
            m.insert(key.to_string(), field.to_value());
        });
        Value::Object(m)
    }

    /// Append the on-disk JSON text — byte for byte what `serde_json`
    /// prints for [`WalRecord::to_value`] — without building that value:
    /// bodies are serialised from where they are, not cloned first.
    pub(crate) fn encode(&self, out: &mut String) {
        write_object(self.kind(), out, |put| self.fields(put));
    }

    /// Decode from the on-disk JSON object, taking its strings and bodies
    /// as they were parsed. `None` on any structural mismatch — the caller
    /// treats an undecodable frame as a torn tail.
    pub fn from_value(v: Value) -> Option<WalRecord> {
        let Value::Object(mut m) = v else {
            return None;
        };
        let m = &mut m;
        let kind = take_str(m, "k")?;
        Some(match kind.as_str() {
            "create" => WalRecord::Create {
                id: take_str(m, "id")?,
                body: m.remove("body")?,
                etag: get_u64(m, "etag")?,
                is_collection: get_bool(m, "coll")?,
                parent_etag: get_u64(m, "parent_etag"),
            },
            "patch" => WalRecord::Patch {
                id: take_str(m, "id")?,
                delta: m.remove("delta")?,
                etag: get_u64(m, "etag")?,
            },
            "replace" => WalRecord::Replace {
                id: take_str(m, "id")?,
                body: m.remove("body")?,
                etag: get_u64(m, "etag")?,
            },
            "delete" => WalRecord::Delete {
                id: take_str(m, "id")?,
                parent_etag: get_u64(m, "parent_etag"),
            },
            "delete_subtree" => WalRecord::DeleteSubtree {
                id: take_str(m, "id")?,
                parent_etag: get_u64(m, "parent_etag"),
            },
            "install" => WalRecord::InstallResource {
                id: take_str(m, "id")?,
                body: m.remove("body")?,
                etag: get_u64(m, "etag")?,
                is_collection: get_bool(m, "coll")?,
            },
            "etag_floor" => WalRecord::EtagFloor {
                seq: get_u64(m, "seq")?,
            },
            "clock_mark" => WalRecord::ClockMark {
                now_ms: get_u64(m, "now_ms")?,
            },
            "subscribe" => WalRecord::Subscribe {
                id: take_str(m, "id")?,
                destination: take_str(m, "dest")?,
                event_types: take_strings(m, "types")?,
                origins: take_strings(m, "origins")?,
            },
            "unsubscribe" => WalRecord::Unsubscribe { id: take_str(m, "id")? },
            "session_login" => WalRecord::SessionLogin {
                token: take_str(m, "token")?,
                session_id: take_str(m, "sid")?,
                user: take_str(m, "user")?,
                last_used_ms: get_u64(m, "used_ms")?,
            },
            "session_touch" => WalRecord::SessionTouch {
                token: take_str(m, "token")?,
                last_used_ms: get_u64(m, "used_ms")?,
            },
            "session_end" => WalRecord::SessionEnd {
                token: take_str(m, "token")?,
            },
            "teardown" => WalRecord::Teardown {
                fabric: take_str(m, "fabric")?,
                op: m.remove("op")?,
            },
            "teardown_drained" => WalRecord::TeardownDrained {
                fabric: take_str(m, "fabric")?,
            },
            "compose_intent" => WalRecord::ComposeIntent {
                system: take_str(m, "system")?,
                node: take_str(m, "node")?,
                request: m.remove("request")?,
                planned: m.remove("planned")?,
            },
            "bind_done" => WalRecord::BindDone {
                system: take_str(m, "system")?,
                binding: m.remove("binding")?,
            },
            "compose_commit" => WalRecord::ComposeCommit {
                system: take_str(m, "system")?,
            },
            "compose_abort" => WalRecord::ComposeAbort {
                system: take_str(m, "system")?,
            },
            "decompose" => WalRecord::Decompose {
                system: take_str(m, "system")?,
            },
            "bind_added" => WalRecord::BindAdded {
                system: take_str(m, "system")?,
                binding: m.remove("binding")?,
            },
            "compose_live" => WalRecord::ComposeLive {
                system: take_str(m, "system")?,
                node: take_str(m, "node")?,
                request: m.remove("request")?,
                bindings: m.remove("bindings")?,
            },
            _ => return None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    fn roundtrip(r: WalRecord) {
        let v = r.to_value();
        let back = WalRecord::from_value(v.clone()).expect("roundtrip decode");
        assert_eq!(back, r);
        // And through the serializer, as the file does it.
        let text = serde_json::to_string(&v).expect("serialize");
        let parsed: Value = serde_json::from_str(&text).expect("parse");
        assert_eq!(WalRecord::from_value(parsed), Some(r.clone()));
        // The journal's direct encoder writes those same bytes.
        let mut encoded = String::new();
        r.encode(&mut encoded);
        assert_eq!(encoded, text, "encode == to_vec(to_value) for {}", r.kind());
        if let WalRecord::InstallResource {
            id,
            body,
            etag,
            is_collection,
        } = &r
        {
            let mut borrowed = String::new();
            encode_install(id, body, *etag, *is_collection, &mut borrowed);
            assert_eq!(borrowed, text, "borrowed install == owned install");
        }
    }

    #[test]
    fn all_variants_roundtrip() {
        roundtrip(WalRecord::Create {
            id: "/redfish/v1/Systems/s1".to_string(),
            body: json!({"Id": "s1", "Name": "S1"}),
            etag: 42,
            is_collection: false,
            parent_etag: Some(43),
        });
        roundtrip(WalRecord::Create {
            id: "/redfish/v1/Systems".to_string(),
            body: json!({"Members": []}),
            etag: 2,
            is_collection: true,
            parent_etag: None,
        });
        roundtrip(WalRecord::Patch {
            id: "/redfish/v1/Systems/s1".to_string(),
            delta: json!({"Status": {"Health": "OK"}}),
            etag: 44,
        });
        roundtrip(WalRecord::Replace {
            id: "/redfish/v1/Systems/s1".to_string(),
            body: json!({"Id": "s1"}),
            etag: 45,
        });
        roundtrip(WalRecord::Delete {
            id: "/redfish/v1/Systems/s1".to_string(),
            parent_etag: Some(46),
        });
        roundtrip(WalRecord::DeleteSubtree {
            id: "/redfish/v1/Fabrics/CXL0".to_string(),
            parent_etag: None,
        });
        roundtrip(WalRecord::InstallResource {
            id: "/redfish/v1".to_string(),
            body: json!({"Id": "RootService"}),
            etag: 1,
            is_collection: false,
        });
        // Escapes, non-ASCII and every scalar kind go through the same printer.
        roundtrip(WalRecord::InstallResource {
            id: "/redfish/v1/Chassis/a\"b\\c".to_string(),
            body: json!({"Name": "tab\there \u{1} \u{e9}\n", "F": 1.5, "I": -3, "N": null, "A": [true, {"x": []}]}),
            etag: u64::MAX,
            is_collection: true,
        });
        roundtrip(WalRecord::EtagFloor { seq: 1000 });
        roundtrip(WalRecord::ClockMark { now_ms: 123456 });
        roundtrip(WalRecord::Subscribe {
            id: "1".to_string(),
            destination: "http://sink/events?q=\"a\\b\"".to_string(),
            event_types: vec!["Alert".to_string(), "StatusChange".to_string()],
            origins: vec!["/redfish/v1/Fabrics".to_string()],
        });
        roundtrip(WalRecord::Unsubscribe { id: "1".to_string() });
        roundtrip(WalRecord::SessionLogin {
            token: "ofmf-abc".to_string(),
            session_id: "7".to_string(),
            user: "admin".to_string(),
            last_used_ms: 99,
        });
        roundtrip(WalRecord::SessionTouch {
            token: "ofmf-abc".to_string(),
            last_used_ms: 100,
        });
        roundtrip(WalRecord::SessionEnd {
            token: "ofmf-abc".to_string(),
        });
        roundtrip(WalRecord::Teardown {
            fabric: "CXL0".to_string(),
            op: json!({"kind": "delete_zone", "zone": "/redfish/v1/Fabrics/CXL0/Zones/z1"}),
        });
        roundtrip(WalRecord::TeardownDrained {
            fabric: "CXL0".to_string(),
        });
        roundtrip(WalRecord::ComposeIntent {
            system: "/redfish/v1/Systems/c1".to_string(),
            node: "/redfish/v1/Systems/n1".to_string(),
            request: json!({"name": "c1"}),
            planned: json!([{"fabric": "CXL0", "zone_id": "z9", "conn_id": "c9"}]),
        });
        roundtrip(WalRecord::BindDone {
            system: "/redfish/v1/Systems/c1".to_string(),
            binding: json!({"fabric": "CXL0"}),
        });
        roundtrip(WalRecord::ComposeCommit {
            system: "/redfish/v1/Systems/c1".to_string(),
        });
        roundtrip(WalRecord::ComposeAbort {
            system: "/redfish/v1/Systems/c1".to_string(),
        });
        roundtrip(WalRecord::Decompose {
            system: "/redfish/v1/Systems/c1".to_string(),
        });
        roundtrip(WalRecord::BindAdded {
            system: "/redfish/v1/Systems/c1".to_string(),
            binding: json!({"fabric": "NVME0"}),
        });
        roundtrip(WalRecord::ComposeLive {
            system: "/redfish/v1/Systems/c1".to_string(),
            node: "/redfish/v1/Systems/n1".to_string(),
            request: json!({"name": "c1"}),
            bindings: json!([]),
        });
    }

    #[test]
    fn unknown_kind_decodes_to_none() {
        assert_eq!(WalRecord::from_value(json!({"k": "time_travel"})), None);
        assert_eq!(WalRecord::from_value(json!({"no_k": true})), None);
        assert_eq!(WalRecord::from_value(json!(42)), None);
    }

    #[test]
    fn missing_field_decodes_to_none() {
        assert_eq!(WalRecord::from_value(json!({"k": "create", "id": "/x"})), None);
        assert_eq!(WalRecord::from_value(json!({"k": "etag_floor"})), None);
    }
}
