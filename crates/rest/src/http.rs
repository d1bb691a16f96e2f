//! Minimal, strict HTTP/1.1 message handling.
//!
//! Only what a Redfish service needs: request-line + headers + optional
//! `Content-Length` body. Bodies are bounded; anything malformed is an
//! explicit parse error that the server answers with the right 4xx.
//!
//! [`parse_request`] is incremental, for the epoll event loop: given the
//! bytes buffered so far, it either yields a complete request plus the
//! number of bytes it consumed, reports that more bytes are needed, or
//! rejects the connection — without ever blocking or polling.

use serde_json::json;
use std::collections::BTreeMap;
use std::io::{IoSlice, Write};
use std::sync::Arc;

/// Largest accepted request body (1 MiB — Redfish payloads are small).
pub const MAX_BODY: usize = 1 << 20;

/// Largest accepted header section.
pub const MAX_HEADER_BYTES: usize = 64 * 1024;

/// The methods the OFMF serves, for `Allow` headers on 405 responses.
pub const ALLOWED_METHODS: &str = "GET, HEAD, POST, PATCH, DELETE";

/// An HTTP method the OFMF understands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// Read a resource.
    Get,
    /// Create a member / invoke an action.
    Post,
    /// Merge-update a resource.
    Patch,
    /// Remove a resource.
    Delete,
    /// Headers-only read.
    Head,
}

impl Method {
    /// Parse a method token.
    pub fn parse(s: &str) -> Option<Method> {
        Some(match s {
            "GET" => Method::Get,
            "POST" => Method::Post,
            "PATCH" => Method::Patch,
            "DELETE" => Method::Delete,
            "HEAD" => Method::Head,
            _ => return None,
        })
    }
}

/// The HTTP version a request was sent with. Keep-alive defaults differ:
/// 1.1 connections persist unless `Connection: close`, 1.0 connections
/// close unless `Connection: keep-alive`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HttpVersion {
    /// HTTP/1.0 — close by default.
    Http10,
    /// HTTP/1.1 — persistent by default.
    Http11,
}

/// A parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    /// The method.
    pub method: Method,
    /// Path component of the request target (query string stripped).
    pub path: String,
    /// Query string, if any (without `?`).
    pub query: Option<String>,
    /// Headers, keys lower-cased.
    pub headers: BTreeMap<String, String>,
    /// Raw body bytes.
    pub body: Vec<u8>,
    /// Protocol version from the request line.
    pub version: HttpVersion,
}

impl Request {
    /// A header value (key matched case-insensitively).
    pub fn header(&self, key: &str) -> Option<&str> {
        self.headers.get(&key.to_ascii_lowercase()).map(String::as_str)
    }

    /// Whether the connection stays open after this exchange. HTTP/1.1
    /// defaults to keep-alive, HTTP/1.0 to close; an explicit `Connection`
    /// header overrides either default.
    pub fn keep_alive(&self) -> bool {
        match self.header("connection") {
            Some(c) if c.eq_ignore_ascii_case("close") => false,
            Some(c) if c.eq_ignore_ascii_case("keep-alive") => true,
            _ => self.version == HttpVersion::Http11,
        }
    }
}

/// Errors while parsing a request.
#[derive(Debug, PartialEq, Eq)]
pub enum ParseError {
    /// The bytes are not valid HTTP.
    Malformed(&'static str),
    /// The body exceeds [`MAX_BODY`].
    TooLarge,
    /// The header section exceeds [`MAX_HEADER_BYTES`].
    HeaderTooLarge,
    /// Unsupported method token.
    BadMethod,
}

impl ParseError {
    /// The HTTP status this parse failure maps to.
    pub fn status(&self) -> u16 {
        match self {
            ParseError::TooLarge => 413,
            ParseError::HeaderTooLarge => 431,
            ParseError::BadMethod => 405,
            _ => 400,
        }
    }

    /// The Redfish-shaped rejection for this parse failure. Each status
    /// carries its own `Base.1.0.*` message id, and 405 advertises the
    /// RFC-required `Allow` header listing the methods the service serves.
    pub fn response(&self) -> Response {
        let (id, message) = match self {
            ParseError::TooLarge => (
                "Base.1.0.PayloadTooLarge",
                format!("request body exceeds {MAX_BODY} bytes"),
            ),
            ParseError::HeaderTooLarge => (
                "Base.1.0.HeaderTooLong",
                format!("header section exceeds {MAX_HEADER_BYTES} bytes"),
            ),
            ParseError::BadMethod => (
                "Base.1.0.OperationNotAllowed",
                format!("method not supported; allowed: {ALLOWED_METHODS}"),
            ),
            other => ("Base.1.0.MalformedJSON", format!("malformed request: {other:?}")),
        };
        let body = json!({
            "error": {
                "code": id,
                "message": message,
                "@Message.ExtendedInfo": [{
                    "MessageId": id,
                    "Message": message,
                    "Severity": "Warning",
                    "Resolution": "Correct the request framing and retry."
                }]
            }
        });
        let resp = Response::json(self.status(), &body);
        match self {
            ParseError::BadMethod => resp.with_header("Allow", ALLOWED_METHODS),
            _ => resp,
        }
    }
}

/// The pieces of a parsed request head: method, path, query, version,
/// lower-cased headers.
type ParsedHead = (Method, String, Option<String>, HttpVersion, BTreeMap<String, String>);

/// Parse the request line + header block in `head` (terminator excluded).
fn parse_head(head: &str) -> Result<ParsedHead, ParseError> {
    let mut lines = head.split('\n').map(|l| l.strip_suffix('\r').unwrap_or(l));
    let line = lines.next().ok_or(ParseError::Malformed("empty request head"))?;
    let mut parts = line.split(' ');
    let method = Method::parse(parts.next().unwrap_or("")).ok_or(ParseError::BadMethod)?;
    let target = parts.next().ok_or(ParseError::Malformed("missing request target"))?;
    let version = parts.next().ok_or(ParseError::Malformed("missing version"))?;
    let version = match version {
        "HTTP/1.0" => HttpVersion::Http10,
        v if v.starts_with("HTTP/1.") => HttpVersion::Http11,
        _ => return Err(ParseError::Malformed("unsupported HTTP version")),
    };
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), Some(q.to_string())),
        None => (target.to_string(), None),
    };
    let mut headers = BTreeMap::new();
    for h in lines {
        if h.is_empty() {
            continue;
        }
        let Some((k, v)) = h.split_once(':') else {
            return Err(ParseError::Malformed("header without colon"));
        };
        headers.insert(k.trim().to_ascii_lowercase(), v.trim().to_string());
    }
    Ok((method, path, query, version, headers))
}

/// Body length declared by the header block (0 when absent).
fn declared_body_len(headers: &BTreeMap<String, String>) -> Result<usize, ParseError> {
    match headers.get("content-length") {
        Some(cl) => {
            let len: usize = cl.parse().map_err(|_| ParseError::Malformed("bad content-length"))?;
            if len > MAX_BODY {
                return Err(ParseError::TooLarge);
            }
            Ok(len)
        }
        None => Ok(0),
    }
}

/// Find the header/body boundary in `buf`: returns `(head_len, body_start)`
/// where `head_len` excludes the blank-line terminator. Accepts `\r\n\r\n`
/// and bare `\n\n`.
fn find_head_end(buf: &[u8]) -> Option<(usize, usize)> {
    let mut i = 0usize;
    while let Some(rest) = buf.get(i..) {
        let p = rest.iter().position(|&b| b == b'\n')?;
        let nl = i + p;
        match buf.get(nl + 1) {
            Some(b'\n') => return Some((nl, nl + 2)),
            Some(b'\r') if buf.get(nl + 2) == Some(&b'\n') => return Some((nl, nl + 3)),
            _ => i = nl + 1,
        }
    }
    None
}

/// Incrementally parse one request from the buffered bytes of a
/// connection.
///
/// * `Ok(Some((req, consumed)))` — a complete request; the caller drains
///   `consumed` bytes and may find further pipelined requests behind it.
/// * `Ok(None)` — the buffer holds only a request prefix; read more.
/// * `Err(_)` — the bytes can never become a valid request; the caller
///   answers with [`ParseError::response`] and closes.
pub fn parse_request(buf: &[u8]) -> Result<Option<(Request, usize)>, ParseError> {
    let Some((head_len, body_start)) = find_head_end(buf) else {
        if buf.len() > MAX_HEADER_BYTES {
            return Err(ParseError::HeaderTooLarge);
        }
        return Ok(None);
    };
    if head_len > MAX_HEADER_BYTES {
        return Err(ParseError::HeaderTooLarge);
    }
    let head = buf
        .get(..head_len)
        .and_then(|h| std::str::from_utf8(h).ok())
        .ok_or(ParseError::Malformed("non-UTF-8 header section"))?;
    let (method, path, query, version, headers) = parse_head(head)?;
    let body_len = declared_body_len(&headers)?;
    let body_end = body_start + body_len;
    let Some(body) = buf.get(body_start..body_end) else {
        return Ok(None); // body still in flight
    };
    Ok(Some((
        Request {
            method,
            path,
            query,
            headers,
            body: body.to_vec(),
            version,
        },
        body_end,
    )))
}

/// A response body: owned bytes, or a zero-copy handle into the registry's
/// ETag-keyed wire cache (the event loop writes these without ever copying
/// the cached serialization).
#[derive(Debug, Clone)]
pub enum Body {
    /// Bytes owned by this response.
    Owned(Vec<u8>),
    /// Bytes shared with the wire cache.
    Shared(Arc<[u8]>),
}

impl std::ops::Deref for Body {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        match self {
            Body::Owned(v) => v,
            Body::Shared(a) => a,
        }
    }
}

impl PartialEq for Body {
    fn eq(&self, other: &Body) -> bool {
        **self == **other
    }
}

impl Default for Body {
    fn default() -> Body {
        Body::Owned(Vec::new())
    }
}

impl From<Vec<u8>> for Body {
    fn from(v: Vec<u8>) -> Body {
        Body::Owned(v)
    }
}

impl From<Arc<[u8]>> for Body {
    fn from(a: Arc<[u8]>) -> Body {
        Body::Shared(a)
    }
}

/// A response to serialize.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Headers (sent as given).
    pub headers: Vec<(String, String)>,
    /// Body bytes (owned or shared with the wire cache).
    pub body: Body,
    /// HEAD semantics: advertise the entity's real `Content-Length` but
    /// transmit no body bytes.
    pub head_only: bool,
}

impl Response {
    /// A JSON response. Serialization of an in-memory `Value` tree cannot
    /// fail under the vendored serde_json, but rather than panic a worker
    /// thread on a future regression we degrade to a plain 500.
    pub fn json(status: u16, body: &serde_json::Value) -> Response {
        match serde_json::to_vec(body) {
            Ok(body) => Response {
                status,
                headers: vec![("Content-Type".into(), "application/json; charset=utf-8".into())],
                body: Body::Owned(body),
                head_only: false,
            },
            Err(_) => Response {
                status: 500,
                headers: vec![("Content-Type".into(), "text/plain; charset=utf-8".into())],
                body: Body::Owned(b"response serialization failed".to_vec()),
                head_only: false,
            },
        }
    }

    /// A JSON response from pre-serialized bytes (the registry's wire-body
    /// cache hands these out; no re-serialization on the hot GET path).
    pub fn json_bytes(status: u16, body: impl Into<Body>) -> Response {
        Response {
            status,
            headers: vec![("Content-Type".into(), "application/json; charset=utf-8".into())],
            body: body.into(),
            head_only: false,
        }
    }

    /// An empty response.
    pub fn empty(status: u16) -> Response {
        Response {
            status,
            headers: Vec::new(),
            body: Body::default(),
            head_only: false,
        }
    }

    /// Add a header (builder style).
    #[must_use]
    pub fn with_header(mut self, k: &str, v: &str) -> Response {
        self.headers.push((k.to_string(), v.to_string()));
        self
    }

    /// Convert to HEAD semantics: the entity's `Content-Length` and headers
    /// (ETag included) are reported unchanged, but no body is transmitted.
    #[must_use]
    pub fn into_head(mut self) -> Response {
        self.head_only = true;
        self
    }

    /// Serialize the status line + headers (body excluded). The event loop
    /// queues this block and the body as separate buffers for one vectored
    /// write; `Content-Length` always reports the entity length, even for
    /// HEAD responses that transmit no body.
    pub fn encode_head(&self, keep_alive: bool) -> Vec<u8> {
        let mut out = Vec::with_capacity(128 + self.headers.len() * 32);
        out.extend_from_slice(format!("HTTP/1.1 {} {}\r\n", self.status, reason_phrase(self.status)).as_bytes());
        for (k, v) in &self.headers {
            out.extend_from_slice(format!("{k}: {v}\r\n").as_bytes());
        }
        out.extend_from_slice(format!("Content-Length: {}\r\n", self.body.len()).as_bytes());
        out.extend_from_slice(if keep_alive {
            b"Connection: keep-alive\r\n".as_slice()
        } else {
            b"Connection: close\r\n".as_slice()
        });
        out.extend_from_slice(b"OData-Version: 4.0\r\n\r\n");
        out
    }

    /// Write the response to `w`. `keep_alive` controls the Connection
    /// header. Head and body go out in one vectored write where possible.
    pub fn write_to<W: Write>(&self, w: &mut W, keep_alive: bool) -> std::io::Result<()> {
        let head = self.encode_head(keep_alive);
        if self.head_only || self.body.is_empty() {
            w.write_all(&head)?;
            return w.flush();
        }
        // One gathered write covers the common case; fall back to write_all
        // for any remainder a short vectored write leaves behind.
        let written = w.write_vectored(&[IoSlice::new(&head), IoSlice::new(&self.body)])?;
        if written < head.len() {
            w.write_all(head.get(written..).unwrap_or_default())?;
            w.write_all(&self.body)?;
        } else {
            let body_written = written - head.len();
            w.write_all(self.body.get(body_written..).unwrap_or_default())?;
        }
        w.flush()
    }
}

/// Standard reason phrase for the codes the OFMF emits.
pub fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        202 => "Accepted",
        204 => "No Content",
        400 => "Bad Request",
        401 => "Unauthorized",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        412 => "Precondition Failed",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        507 => "Insufficient Storage",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parse one complete request that fills `raw` exactly.
    fn parse(raw: &str) -> Result<Request, ParseError> {
        let (req, consumed) = parse_request(raw.as_bytes())?.expect("a complete request");
        assert_eq!(consumed, raw.len(), "the request must span the whole buffer");
        Ok(req)
    }

    #[test]
    fn parses_get_with_query() {
        let r = parse("GET /redfish/v1/Systems?$expand=. HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(r.method, Method::Get);
        assert_eq!(r.path, "/redfish/v1/Systems");
        assert_eq!(r.query.as_deref(), Some("$expand=."));
        assert_eq!(r.version, HttpVersion::Http11);
        assert!(r.keep_alive());
    }

    #[test]
    fn parses_post_with_body() {
        let body = r#"{"a":1}"#;
        let raw = format!(
            "POST /redfish/v1/Systems HTTP/1.1\r\nContent-Length: {}\r\nX-Auth-Token: t\r\n\r\n{}",
            body.len(),
            body
        );
        let r = parse(&raw).unwrap();
        assert_eq!(r.method, Method::Post);
        assert_eq!(r.header("x-auth-token"), Some("t"));
        assert_eq!(r.body, body.as_bytes());
    }

    #[test]
    fn rejects_bad_method_and_version() {
        assert_eq!(parse("BREW /x HTTP/1.1\r\n\r\n").unwrap_err(), ParseError::BadMethod);
        assert!(matches!(
            parse("GET /x SPDY/3\r\n\r\n").unwrap_err(),
            ParseError::Malformed(_)
        ));
        assert!(matches!(parse("GET\r\n\r\n").unwrap_err(), ParseError::Malformed(_)));
    }

    #[test]
    fn rejects_oversized_body() {
        let raw = format!("POST /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n", MAX_BODY + 1);
        assert_eq!(parse(&raw).unwrap_err(), ParseError::TooLarge);
    }

    #[test]
    fn rejects_oversized_header_section() {
        let filler = "a".repeat(8000);
        let mut raw = String::from("GET /x HTTP/1.1\r\n");
        for i in 0..10 {
            raw.push_str(&format!("X-Pad-{i}: {filler}\r\n"));
        }
        raw.push_str("\r\n");
        assert_eq!(parse(&raw).unwrap_err(), ParseError::HeaderTooLarge);
    }

    #[test]
    fn connection_close_detected() {
        let r = parse("GET /x HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        assert!(!r.keep_alive());
    }

    #[test]
    fn http10_defaults_to_close() {
        let r = parse("GET /x HTTP/1.0\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(r.version, HttpVersion::Http10);
        assert!(!r.keep_alive(), "HTTP/1.0 without Connection: keep-alive must close");
        let r = parse("GET /x HTTP/1.0\r\nConnection: keep-alive\r\n\r\n").unwrap();
        assert!(r.keep_alive(), "HTTP/1.0 opts into keep-alive explicitly");
        let r = parse("GET /x HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n").unwrap();
        assert!(r.keep_alive(), "Connection token is case-insensitive");
    }

    #[test]
    fn empty_buffer_needs_more_bytes() {
        assert!(matches!(parse_request(b""), Ok(None)));
    }

    #[test]
    fn response_serializes_with_length_and_odata_version() {
        let resp = Response::json(200, &serde_json::json!({"ok": true})).with_header("ETag", "W/\"1\"");
        let mut buf = Vec::new();
        resp.write_to(&mut buf, true).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("ETag: W/\"1\"\r\n"));
        assert!(text.contains("OData-Version: 4.0\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(text.ends_with("{\"ok\":true}"));
    }

    #[test]
    fn head_response_reports_entity_length_without_body() {
        let resp = Response::json(200, &serde_json::json!({"ok": true})).into_head();
        let mut buf = Vec::new();
        resp.write_to(&mut buf, true).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("Content-Length: 11\r\n"), "{text}");
        assert!(text.ends_with("\r\n\r\n"), "HEAD must transmit no body: {text}");
    }

    #[test]
    fn incremental_parser_waits_for_complete_request() {
        let raw = b"POST /x HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello";
        for cut in 0..raw.len() {
            assert!(
                parse_request(&raw[..cut]).unwrap().is_none(),
                "prefix of {cut} bytes must not parse"
            );
        }
        let (req, consumed) = parse_request(raw).unwrap().unwrap();
        assert_eq!(consumed, raw.len());
        assert_eq!(req.method, Method::Post);
        assert_eq!(req.body, b"hello");
    }

    #[test]
    fn incremental_parser_handles_pipelined_requests() {
        let raw = b"GET /a HTTP/1.1\r\nHost: x\r\n\r\nGET /b HTTP/1.1\r\nHost: x\r\n\r\n".to_vec();
        let (first, consumed) = parse_request(&raw).unwrap().unwrap();
        assert_eq!(first.path, "/a");
        let (second, consumed2) = parse_request(&raw[consumed..]).unwrap().unwrap();
        assert_eq!(second.path, "/b");
        assert_eq!(consumed + consumed2, raw.len());
    }

    #[test]
    fn incremental_parser_enforces_limits() {
        let mut huge = b"GET /x HTTP/1.1\r\n".to_vec();
        huge.extend_from_slice("y".repeat(MAX_HEADER_BYTES + 10).as_bytes());
        assert_eq!(parse_request(&huge).unwrap_err(), ParseError::HeaderTooLarge);
        let big_body = format!("POST /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n", MAX_BODY + 1);
        assert_eq!(parse_request(big_body.as_bytes()).unwrap_err(), ParseError::TooLarge);
        assert_eq!(
            parse_request(b"BREW /x HTTP/1.1\r\n\r\n").unwrap_err(),
            ParseError::BadMethod
        );
    }

    #[test]
    fn parse_error_responses_carry_specific_ids() {
        let cases = [
            (ParseError::BadMethod, 405, "Base.1.0.OperationNotAllowed"),
            (ParseError::TooLarge, 413, "Base.1.0.PayloadTooLarge"),
            (ParseError::HeaderTooLarge, 431, "Base.1.0.HeaderTooLong"),
            (ParseError::Malformed("x"), 400, "Base.1.0.MalformedJSON"),
        ];
        for (err, status, id) in cases {
            let resp = err.response();
            assert_eq!(resp.status, status);
            let v: serde_json::Value = serde_json::from_slice(&resp.body).unwrap();
            assert_eq!(v["error"]["code"], id, "{err:?}");
        }
        let allow = ParseError::BadMethod.response();
        let allow = allow.headers.iter().find(|(k, _)| k == "Allow").map(|(_, v)| v.clone());
        assert_eq!(allow.as_deref(), Some(ALLOWED_METHODS), "405 must list allowed methods");
    }

    #[test]
    fn shared_and_owned_bodies_compare_by_bytes() {
        let owned = Body::Owned(b"abc".to_vec());
        let shared = Body::Shared(Arc::from(b"abc".as_slice()));
        assert_eq!(owned, shared);
        assert_eq!(shared.len(), 3);
    }
}
