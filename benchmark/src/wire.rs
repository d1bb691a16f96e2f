//! The generator's side of the wire: request encoding, an incremental
//! splitter for pipelined HTTP/1.1 responses, and a spinning keep-alive
//! connection.
//!
//! The crate's own `HttpClient` sends one request per round trip and
//! allocates a `BufReader` per response; at 3 µs per request the generator
//! would be the bottleneck, so the benchmark carries this one.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};

/// Encode one request into `out`. `body` empty means no entity.
pub fn encode_request(out: &mut Vec<u8>, method: &str, target: &str, token: &str, body: &[u8]) {
    out.extend_from_slice(method.as_bytes());
    out.push(b' ');
    out.extend_from_slice(target.as_bytes());
    out.extend_from_slice(b" HTTP/1.1\r\nHost: ofmf\r\n");
    if !token.is_empty() {
        out.extend_from_slice(b"X-Auth-Token: ");
        out.extend_from_slice(token.as_bytes());
        out.extend_from_slice(b"\r\n");
    }
    if !body.is_empty() {
        out.extend_from_slice(b"Content-Type: application/json\r\nContent-Length: ");
        out.extend_from_slice(body.len().to_string().as_bytes());
        out.extend_from_slice(b"\r\n");
    }
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(body);
}

/// One complete response inside a [`Splitter`]'s buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Frame {
    /// Status code.
    pub status: u16,
    /// Byte range of the header block (status line through the blank line).
    pub head: (usize, usize),
    /// Byte range of the body.
    pub body: (usize, usize),
}

/// Splits a byte stream of back-to-back responses into frames. Bytes may
/// arrive in any fragmentation; a frame is returned only once its whole
/// body is buffered.
#[derive(Debug, Default)]
pub struct Splitter {
    buf: Vec<u8>,
    /// Start of the first unconsumed byte.
    pos: usize,
}

/// First occurrence of `needle` in `hay`.
pub fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

/// Case-insensitive header lookup inside a header block.
pub fn header<'a>(head: &'a [u8], name: &str) -> Option<&'a [u8]> {
    for line in head.split(|b| *b == b'\n').skip(1) {
        let line = line.strip_suffix(b"\r").unwrap_or(line);
        let Some(colon) = line.iter().position(|b| *b == b':') else {
            continue;
        };
        if line[..colon].eq_ignore_ascii_case(name.as_bytes()) {
            let v = &line[colon + 1..];
            let start = v.iter().position(|b| *b != b' ').unwrap_or(v.len());
            return Some(&v[start..]);
        }
    }
    None
}

impl Splitter {
    /// Append freshly read bytes.
    pub fn feed(&mut self, bytes: &[u8]) {
        // Drop consumed bytes: all of them when nothing is pending, else only
        // once enough piled up that moving the partial tail is amortised.
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        } else if self.pos >= 64 * 1024 {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// The bytes of a range returned in a [`Frame`].
    pub fn bytes(&self, range: (usize, usize)) -> &[u8] {
        &self.buf[range.0..range.1]
    }

    /// Pop the next complete response, or `Ok(None)` when more bytes are
    /// needed. The frame's ranges stay valid until the next `feed`.
    pub fn next_frame(&mut self) -> io::Result<Option<Frame>> {
        let avail = &self.buf[self.pos..];
        let Some(head_len) = find(avail, b"\r\n\r\n").map(|i| i + 4) else {
            return Ok(None);
        };
        let head = &avail[..head_len];
        let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
        if !head.starts_with(b"HTTP/1.1 ") || head.len() < 12 {
            return Err(bad("not an HTTP/1.1 status line"));
        }
        let status = std::str::from_utf8(&head[9..12])
            .ok()
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| bad("unparseable status code"))?;
        let body_len = match header(head, "content-length") {
            Some(v) => std::str::from_utf8(v)
                .ok()
                .and_then(|s| s.trim().parse::<usize>().ok())
                .ok_or_else(|| bad("unparseable Content-Length"))?,
            None => 0,
        };
        if avail.len() < head_len + body_len {
            return Ok(None);
        }
        let start = self.pos;
        self.pos += head_len + body_len;
        Ok(Some(Frame {
            status,
            head: (start, start + head_len),
            body: (start + head_len, start + head_len + body_len),
        }))
    }
}

/// A keep-alive connection with a response splitter. The socket is
/// non-blocking and the generator spins on it: a thread that sleeps in
/// `recv` halts its vCPU, and on a virtualised host the wake-up costs
/// 10–60 µs depending on the host's mood — the noisiest term there is.
/// A spinning generator keeps its core awake and costs the server nothing.
pub struct Conn {
    stream: TcpStream,
    splitter: Splitter,
    scratch: Vec<u8>,
}

/// How long a connection may stay silent before the run is abandoned.
const STALL: std::time::Duration = std::time::Duration::from_secs(30);

impl Conn {
    /// Connect with `TCP_NODELAY` (a pipelined batch is one write; Nagle
    /// would only delay the last partial segment).
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Conn {
            stream,
            splitter: Splitter::default(),
            scratch: vec![0u8; 256 * 1024],
        })
    }

    /// Write a batch of already encoded requests.
    pub fn send(&mut self, mut bytes: &[u8]) -> io::Result<()> {
        let started = std::time::Instant::now();
        while !bytes.is_empty() {
            match self.stream.write(bytes) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => bytes = &bytes[n..],
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if started.elapsed() > STALL {
                        return Err(io::Error::new(io::ErrorKind::TimedOut, "server stopped reading"));
                    }
                    std::hint::spin_loop();
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Spin until the next response is complete, then hand it to `f`
    /// together with the splitter that owns its bytes.
    pub fn recv<R>(&mut self, f: impl FnOnce(&Splitter, Frame) -> R) -> io::Result<R> {
        let mut waiting_since = None;
        loop {
            if let Some(frame) = self.splitter.next_frame()? {
                return Ok(f(&self.splitter, frame));
            }
            match self.stream.read(&mut self.scratch) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "server closed the connection mid-stream",
                    ))
                }
                Ok(n) => {
                    self.splitter.feed(&self.scratch[..n]);
                    waiting_since = None;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    let since = *waiting_since.get_or_insert_with(std::time::Instant::now);
                    if since.elapsed() > STALL {
                        return Err(io::Error::new(io::ErrorKind::TimedOut, "server stopped answering"));
                    }
                    std::hint::spin_loop();
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// One request, one response (depth 1).
    pub fn round_trip<R>(&mut self, request: &[u8], f: impl FnOnce(&Splitter, Frame) -> R) -> io::Result<R> {
        self.send(request)?;
        self.recv(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const OK: &[u8] =
        b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nETag: W/\"7\"\r\nContent-Length: 11\r\nConnection: keep-alive\r\n\r\n{\"a\":\"bcd\"}";
    const CREATED: &[u8] =
        b"HTTP/1.1 201 Created\r\nLocation: /redfish/v1/Chassis/x1\r\nContent-Length: 2\r\nConnection: keep-alive\r\n\r\n{}";
    const NO_CONTENT: &[u8] = b"HTTP/1.1 204 No Content\r\nContent-Length: 0\r\nConnection: keep-alive\r\n\r\n";

    fn drain(s: &mut Splitter) -> Vec<(u16, Vec<u8>)> {
        let mut out = Vec::new();
        while let Some(f) = s.next_frame().unwrap() {
            out.push((f.status, s.bytes(f.body).to_vec()));
        }
        out
    }

    #[test]
    fn splits_back_to_back_responses_including_empty_bodies() {
        let mut s = Splitter::default();
        let stream: Vec<u8> = [OK, NO_CONTENT, CREATED, NO_CONTENT, OK].concat();
        s.feed(&stream);
        let got = drain(&mut s);
        let statuses: Vec<u16> = got.iter().map(|(st, _)| *st).collect();
        assert_eq!(statuses, vec![200, 204, 201, 204, 200]);
        assert_eq!(got[0].1, b"{\"a\":\"bcd\"}");
        assert!(got[1].1.is_empty());
        assert_eq!(got[2].1, b"{}");
    }

    #[test]
    fn survives_every_split_point() {
        let stream: Vec<u8> = [OK, CREATED, NO_CONTENT, OK].concat();
        for cut in 1..stream.len() {
            let mut s = Splitter::default();
            s.feed(&stream[..cut]);
            let mut got = drain(&mut s);
            s.feed(&stream[cut..]);
            got.extend(drain(&mut s));
            let statuses: Vec<u16> = got.iter().map(|(st, _)| *st).collect();
            assert_eq!(statuses, vec![200, 201, 204, 200], "cut at {cut}");
            assert_eq!(got[3].1, b"{\"a\":\"bcd\"}", "cut at {cut}");
        }
    }

    #[test]
    fn byte_at_a_time_delivery() {
        let stream: Vec<u8> = [NO_CONTENT, OK].concat();
        let mut s = Splitter::default();
        let mut got = Vec::new();
        for b in &stream {
            s.feed(std::slice::from_ref(b));
            got.extend(drain(&mut s));
        }
        assert_eq!(got.len(), 2);
        assert_eq!(got[1].0, 200);
    }

    #[test]
    fn headers_are_found_case_insensitively() {
        let mut s = Splitter::default();
        s.feed(CREATED);
        let f = s.next_frame().unwrap().unwrap();
        assert_eq!(
            header(s.bytes(f.head), "location"),
            Some(&b"/redfish/v1/Chassis/x1"[..])
        );
        assert_eq!(
            header(s.bytes(f.head), "LOCATION"),
            Some(&b"/redfish/v1/Chassis/x1"[..])
        );
        assert_eq!(header(s.bytes(f.head), "etag"), None);
    }

    #[test]
    fn garbage_is_an_error_not_a_hang() {
        let mut s = Splitter::default();
        s.feed(b"SPDY/3 nope\r\n\r\n");
        assert!(s.next_frame().is_err());
    }

    #[test]
    fn request_encoding_carries_token_and_length() {
        let mut out = Vec::new();
        encode_request(&mut out, "PATCH", "/redfish/v1/Systems/a", "tok", b"{\"x\":1}");
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("PATCH /redfish/v1/Systems/a HTTP/1.1\r\n"));
        assert!(text.contains("X-Auth-Token: tok\r\n"));
        assert!(text.contains("Content-Length: 7\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"x\":1}"));
        let mut bare = Vec::new();
        encode_request(&mut bare, "GET", "/redfish/v1", "", b"");
        assert_eq!(bare, b"GET /redfish/v1 HTTP/1.1\r\nHost: ofmf\r\n\r\n");
    }
}
