//! Property tests for the JSON shim as the control plane uses it: request
//! bodies and journal frames are parsed with it, responses and journal
//! frames are printed with it, and both must be exact inverses on whatever
//! a client or a journal can carry — every escape class, characters beyond
//! the BMP, long strings, the integer and float edges, nesting up to the
//! parser's cap — while bytes that are *not* JSON are refused, never a
//! panic. The journal half: `WalRecord`'s direct encoder still writes
//! exactly what `serde_json` prints for `to_value()`.

use ofmf_wal::{decode_records, scan_frames, FsyncPolicy, Wal, WalRecord};
use proptest::prelude::*;
use serde_json::{json, Value};

/// The parser's nesting cap (`serde_json`'s private `MAX_DEPTH`).
const DEPTH_CAP: usize = 128;

/// Strings over every class the escaper and the parser distinguish: the
/// two-character escapes, control characters printed as `\u00XX`, DEL (not
/// escaped), 2-, 3- and 4-byte UTF-8, the edges of the surrogate gap. One
/// case in four is long, so runs are copied, not only single characters.
fn text() -> impl Strategy<Value = String> {
    let alphabet: Vec<char> = "\"\\/\n\r\t\u{8}\u{c}\u{0}\u{1}\u{1f} aZ0\u{7f}\u{e9}\u{20ac}\u{d7ff}\u{e000}\u{ffff}\u{10000}\u{10400}\u{1F600}\u{10ffff}"
        .chars()
        .collect();
    let short = prop::collection::vec(prop::sample::select(alphabet), 0..24).prop_map(|cs| cs.into_iter().collect());
    (short, 0u32..4).prop_map(|(s, pick): (String, u32)| if pick == 0 { s.repeat(300) } else { s })
}

fn number() -> impl Strategy<Value = Value> {
    prop_oneof![
        any::<u64>().prop_map(|n| json!(n)),
        any::<i64>().prop_map(|n| json!(n)),
        any::<f64>().prop_map(|n| json!(n)),
        prop::sample::select(vec![0, 1, u64::MAX, i64::MAX as u64, 1 << 53]).prop_map(|n| json!(n)),
        prop::sample::select(vec![-1, i64::MIN, i64::MIN + 1]).prop_map(|n| json!(n)),
        prop::sample::select(vec![
            0.0,
            -0.0,
            0.1,
            2.0,
            -2.5,
            1e15,
            1e15 - 1.0,
            1e300,
            5e-324,
            f64::MAX,
            f64::MIN
        ])
        .prop_map(|n| json!(n)),
    ]
}

/// Documents nested at most `depth` deep.
fn document(depth: u32) -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        number(),
        text().prop_map(Value::String),
    ];
    leaf.prop_recursive(depth, 48, 4, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..4).prop_map(Value::Array),
            prop::collection::vec((text(), inner), 0..4).prop_map(|kv| Value::Object(kv.into_iter().collect())),
        ]
    })
}

fn depth_of(v: &Value) -> usize {
    match v {
        Value::Array(a) => 1 + a.iter().map(depth_of).max().unwrap_or(0),
        Value::Object(m) => 1 + m.values().map(depth_of).max().unwrap_or(0),
        _ => 0,
    }
}

/// `s` as a JSON string literal with every character spelled `\uXXXX` —
/// beyond the BMP as a surrogate pair — which the printer never writes but
/// any client may.
fn spelled_out(s: &str) -> String {
    let units: String = s.encode_utf16().map(|u| format!("\\u{u:04x}")).collect();
    format!("\"{units}\"")
}

fn record() -> impl Strategy<Value = WalRecord> {
    let id = || text().prop_map(|s| format!("/redfish/v1/Chassis/{s}"));
    prop_oneof![
        (id(), document(3), any::<u64>(), any::<bool>()).prop_map(|(id, body, etag, coll)| WalRecord::Create {
            id,
            body,
            etag,
            is_collection: coll,
            parent_etag: coll.then_some(etag / 2),
        }),
        (id(), document(3), any::<u64>()).prop_map(|(id, delta, etag)| WalRecord::Patch { id, delta, etag }),
        (id(), document(3), any::<u64>(), any::<bool>()).prop_map(|(id, body, etag, coll)| {
            WalRecord::InstallResource {
                id,
                body,
                etag,
                is_collection: coll,
            }
        }),
        (id(), any::<bool>()).prop_map(|(id, bumped)| WalRecord::Delete {
            id,
            parent_etag: bumped.then_some(7),
        }),
        (text(), text(), prop::collection::vec(text(), 0..3)).prop_map(|(id, destination, origins)| {
            WalRecord::Subscribe {
                id,
                destination,
                event_types: vec!["Alert".to_string()],
                origins,
            }
        }),
        (text(), any::<u64>()).prop_map(|(token, last_used_ms)| WalRecord::SessionTouch { token, last_used_ms }),
        (text(), document(2), document(2)).prop_map(|(system, request, planned)| WalRecord::ComposeIntent {
            node: system.clone(),
            system,
            request,
            planned,
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn parse_inverts_print_and_print_inverts_parse(doc in document(6)) {
        let text = serde_json::to_string(&doc).unwrap();
        let parsed: Value = serde_json::from_str(&text).unwrap();
        prop_assert_eq!(&parsed, &doc);
        prop_assert_eq!(serde_json::to_string(&parsed).unwrap(), text.clone());
        // The other entry points are the same printer and the same parser.
        prop_assert_eq!(serde_json::to_vec(&doc).unwrap(), text.as_bytes());
        prop_assert_eq!(doc.to_string(), text.clone());
        prop_assert_eq!(serde_json::from_slice::<Value>(text.as_bytes()).unwrap(), doc);
    }

    #[test]
    fn every_escape_spelling_decodes_to_its_string(s in text()) {
        let literal = spelled_out(&s);
        let parsed: Value = serde_json::from_str(&literal).unwrap();
        prop_assert_eq!(parsed.as_str(), Some(s.as_str()));
        // Half a pair is not a character: end the literal behind the first
        // high surrogate.
        if let Some(high) = literal.find("\\ud8").or_else(|| literal.find("\\udb")) {
            let lone = format!("{}\"", &literal[..high + 6]);
            prop_assert!(serde_json::from_str::<Value>(&lone).is_err(), "{}", lone);
        }
    }

    #[test]
    fn nesting_parses_up_to_the_cap_and_is_refused_beyond(doc in document(4), wrap in 0usize..140) {
        let text = format!("{}{}{}", "[".repeat(wrap), serde_json::to_string(&doc).unwrap(), "]".repeat(wrap));
        let fits = wrap + depth_of(&doc) <= DEPTH_CAP;
        prop_assert_eq!(serde_json::from_str::<Value>(&text).is_ok(), fits, "wrap {} + depth {}", wrap, depth_of(&doc));
    }

    /// Damaged documents — a byte overwritten, a tail cut off — are an
    /// `Err` or some other document, never a panic; and whatever does parse
    /// prints to text that parses to itself.
    #[test]
    fn damaged_text_never_panics(doc in document(4), at in any::<usize>(), with in any::<u32>(), cut in any::<bool>()) {
        let mut bytes = serde_json::to_vec(&doc).unwrap();
        let at = at % bytes.len();
        if cut {
            bytes.truncate(at);
        } else {
            bytes[at] = b"\"\\[]{},:u-+.eE0 \xff\xc3"[with as usize % 18];
        }
        if let Ok(v) = serde_json::from_slice::<Value>(&bytes) {
            let text = serde_json::to_string(&v).unwrap();
            prop_assert_eq!(serde_json::from_str::<Value>(&text).unwrap(), v);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// PR 17's invariant, on arbitrary records and through the file: every
    /// frame the journal writes holds exactly `to_string(to_value)`, and
    /// decoding — which now moves each body out of the parsed frame — gives
    /// the records back.
    #[test]
    fn journal_frames_are_the_printed_value_of_their_record(records in prop::collection::vec(record(), 1..8)) {
        static CASE: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let case = CASE.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("ofmf-prop-json-{}-{case}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let wal = Wal::open(&dir, FsyncPolicy::Off).unwrap();
        wal.append_many(&records).unwrap();
        let bytes = std::fs::read(wal.log_path()).unwrap();
        let (frames, valid) = scan_frames(&bytes);
        prop_assert_eq!(valid, bytes.len());
        prop_assert_eq!(frames.len(), records.len());
        for (frame, rec) in frames.iter().zip(&records) {
            let printed = serde_json::to_string(&rec.to_value()).unwrap();
            prop_assert_eq!(&bytes[frame.payload_start..frame.end()], printed.as_bytes(), "{}", rec.kind());
        }
        let (decoded, len) = decode_records(&bytes);
        prop_assert_eq!(len, bytes.len());
        prop_assert_eq!(decoded, records);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
