//! Response validation and the pipelined executor: every response of every
//! workload is checked against what its request must produce.

use crate::gen::{Batch, Check, OpMeta, Tree};
use crate::wire::{find, header, Conn, Frame, Splitter};
use std::io;

fn rfind(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).rposition(|w| w == needle)
}

/// The string value following `"key":"` in `body`, without parsing the
/// document (a 100 KB collection would cost the generator more to parse
/// than the server to produce).
fn string_member<'a>(body: &'a [u8], key: &[u8]) -> Option<&'a [u8]> {
    let at = find(body, key)? + key.len();
    let rest = &body[at..];
    let end = rest.iter().position(|b| *b == b'"')?;
    Some(&rest[..end])
}

/// `Members@odata.count` of a collection body; serialised after `Members`,
/// so searched from the end.
pub fn members_count(body: &[u8]) -> Option<u32> {
    const KEY: &[u8] = b"\"Members@odata.count\":";
    let at = rfind(body, KEY)? + KEY.len();
    let digits: Vec<u8> = body[at..].iter().copied().take_while(u8::is_ascii_digit).collect();
    std::str::from_utf8(&digits).ok()?.parse().ok()
}

/// The state a check may depend on beyond the response itself.
#[derive(Debug, Clone, Copy, Default)]
pub struct ChassisView {
    /// Chassis the agents mounted.
    pub base: u32,
    /// Fewest client-owned chassis the *other* connection can hold while
    /// this batch is in flight.
    pub other_min: u32,
    /// Most it can hold.
    pub other_max: u32,
}

/// Whether `frame` is a correct response to `op`; the error names what was
/// wrong.
pub fn verify(tree: &Tree, s: &Splitter, frame: Frame, op: &OpMeta, chassis: ChassisView) -> Result<(), String> {
    let body = s.bytes(frame.body);
    let status = |want: u16| {
        if frame.status == want {
            Ok(())
        } else {
            Err(format!(
                "{:?}: status {} (wanted {want}): {}",
                op.kind,
                frame.status,
                String::from_utf8_lossy(&body[..body.len().min(200)])
            ))
        }
    };
    match &op.check {
        Check::Member(idx) => {
            status(200)?;
            // Most documents open with their own id; service singletons
            // list their links first, so fall back to a search for it.
            let want = tree.members[*idx as usize].as_bytes();
            const KEY: &[u8] = b"\"@odata.id\":\"";
            let named = string_member(body, KEY) == Some(want) || find(body, &[KEY, want, b"\""].concat()).is_some();
            if named {
                Ok(())
            } else {
                Err(format!(
                    "GET {} answered with another resource",
                    tree.members[*idx as usize]
                ))
            }
        }
        Check::Count(want) => {
            status(200)?;
            match members_count(body) {
                Some(got) if got == *want => Ok(()),
                got => Err(format!(
                    "{:?}: Members@odata.count {got:?}, wanted {want}: {}",
                    op.kind,
                    String::from_utf8_lossy(&body[..body.len().min(120)])
                )),
            }
        }
        Check::ChassisCount { own_live } => {
            status(200)?;
            let lo = chassis.base + own_live + chassis.other_min;
            let hi = chassis.base + own_live + chassis.other_max;
            match members_count(body) {
                Some(got) if (lo..=hi).contains(&got) => Ok(()),
                got => Err(format!("chassis Members@odata.count {got:?}, wanted {lo}..={hi}")),
            }
        }
        Check::Tagged(tag) => {
            status(200)?;
            match string_member(body, b"\"AssetTag\":\"") {
                Some(got) if got == tag.as_bytes() => Ok(()),
                got => Err(format!(
                    "read-after-write saw AssetTag {:?}, wanted {tag}",
                    got.map(String::from_utf8_lossy)
                )),
            }
        }
        Check::Patched => {
            status(200)?;
            header(s.bytes(frame.head), "etag")
                .map(|_| ())
                .ok_or_else(|| "PATCH response carries no ETag".to_string())
        }
        Check::Created(location) => {
            status(201)?;
            match header(s.bytes(frame.head), "location") {
                Some(got) if got == location.as_bytes() => Ok(()),
                got => Err(format!(
                    "Location {:?}, wanted {location}",
                    got.map(String::from_utf8_lossy)
                )),
            }
        }
        Check::Deleted => status(204),
        Check::Page(want) => {
            status(200)?;
            let doc: serde_json::Value = serde_json::from_slice(body).map_err(|e| format!("page body: {e}"))?;
            let got = doc.get("Members").and_then(|m| m.as_array()).map_or(0, Vec::len);
            if got == *want as usize {
                Ok(())
            } else {
                Err(format!("page holds {got} members, wanted {want}"))
            }
        }
    }
}

/// Tally of checked operations.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations whose response failed its check.
    pub failed: u64,
    /// The first few failure messages, for the report.
    pub examples: Vec<String>,
}

impl Tally {
    /// Record one checked operation.
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            if self.examples.len() < 5 {
                self.examples.push(e);
            }
        }
    }
}

/// Drive `batches[c]` down `conns[c]` with up to `depth` requests in flight
/// per connection, checking every response with `check(conn, op, …)`.
/// Returns when every response has been read (the pipeline is drained).
pub fn run_pipelined(
    conns: &mut [Conn],
    batches: &[Batch],
    depth: usize,
    mut check: impl FnMut(usize, &OpMeta, &Splitter, Frame),
) -> io::Result<()> {
    // Refill in quarter windows: a connection never has fewer than three
    // quarters of `depth` queued at the server while the generator checks
    // responses, so the worker always finds its next request already there
    // and no wake-up latency (the host's noisiest cost) lands on the
    // measured path.
    let step = (depth / 4).max(1);
    let mut sent = vec![0usize; batches.len()];
    let mut done = vec![0usize; batches.len()];
    let send_upto = |conns: &mut [Conn], sent: &mut [usize], c: usize, upto: usize| -> io::Result<()> {
        let b = &batches[c];
        let upto = upto.min(b.ops.len());
        if upto > sent[c] {
            let start = if sent[c] == 0 { 0 } else { b.ops[sent[c] - 1].end };
            conns[c].send(&b.bytes[start..b.ops[upto - 1].end])?;
            sent[c] = upto;
        }
        Ok(())
    };
    for c in 0..batches.len() {
        send_upto(conns, &mut sent, c, depth)?;
    }
    loop {
        let mut pending = false;
        for c in 0..batches.len() {
            for _ in 0..step.min(sent[c] - done[c]) {
                let op = &batches[c].ops[done[c]];
                conns[c].recv(|s, f| check(c, op, s, f))?;
                done[c] += 1;
            }
            send_upto(conns, &mut sent, c, done[c] + depth)?;
            pending |= done[c] < batches[c].ops.len();
        }
        if !pending {
            return Ok(());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_is_read_from_the_tail() {
        let body = br#"{"Members":[{"Members@odata.count":1}],"Members@odata.count":2041,"Name":"Chassis"}"#;
        assert_eq!(members_count(body), Some(2041));
        assert_eq!(members_count(b"{}"), None);
    }

    #[test]
    fn string_members_are_extracted_without_parsing() {
        let body = br#"{"@odata.etag":"W/\"9\"","@odata.id":"/redfish/v1/Systems/a","AssetTag":"t0-17"}"#;
        assert_eq!(
            string_member(body, b"\"@odata.id\":\""),
            Some(&b"/redfish/v1/Systems/a"[..])
        );
        assert_eq!(string_member(body, b"\"AssetTag\":\""), Some(&b"t0-17"[..]));
        assert_eq!(string_member(body, b"\"Nope\":\""), None);
    }
}
