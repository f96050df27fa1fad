//! Minimal HTTP/1.1 framing over blocking `TcpStream`s: just enough to
//! parse `METHOD /path HTTP/1.1` requests with `Content-Length` bodies
//! and to write keep-alive responses. Deliberately not a web framework —
//! no chunked encoding, no TLS, no query strings — the serving layer's
//! endpoints are all small JSON bodies on persistent local connections.
//!
//! A [`Connection`] reads in chunks into its own buffer and keeps the
//! bytes past the current request for the next one, so pipelined requests
//! frame without further reads; every response leaves in one write.

use std::fmt::Write as _;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;

use timekd_obs::json::Json;

/// Maximum accepted header block (request line, headers and the blank
/// line that ends them).
const MAX_HEAD_BYTES: usize = 8 * 1024;

/// A connection's read buffer: larger than the head cap, so any accepted
/// head fits, and large enough to take a whole forecast request in one
/// read.
const READ_BUF_BYTES: usize = 16 * 1024;

/// Oversized declared bodies are drained (so the connection survives a
/// 413) only up to this multiple of the configured body cap; anything
/// larger closes the connection instead of reading unbounded data.
const DRAIN_FACTOR: usize = 4;

/// Maximum read-timeout ticks tolerated *inside* a request (after its
/// first byte) before the request fails as malformed. The stream's read
/// timeout is the serving layer's shutdown-poll interval (25 ms by
/// default), so this bounds a mid-request stall to a few seconds instead
/// of pinning the handler thread forever — a partial request followed by
/// an idle client would otherwise also hang `Server::shutdown()`, which
/// joins every handler.
const MAX_STALL_TICKS: u32 = 200;

/// One parsed request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Uppercase method, e.g. `"POST"`.
    pub method: String,
    /// Request target, e.g. `"/forecast"`.
    pub path: String,
    /// Raw body bytes (empty when no `Content-Length`).
    pub body: Vec<u8>,
    /// Whether the client asked to keep the connection open.
    pub keep_alive: bool,
}

/// Outcome of waiting for the next request on a connection.
#[derive(Debug)]
pub enum ReadOutcome {
    /// A complete request was framed.
    Request(Request),
    /// Clean EOF before any byte of a new request.
    Closed,
    /// The read timeout elapsed before any byte of a new request (the
    /// caller polls its shutdown flag and retries).
    Idle,
    /// Broken framing — the caller answers 400 and closes.
    Malformed(String),
    /// Declared body exceeded the cap; the body was drained if `drained`,
    /// so a 413 can keep the connection, otherwise the caller closes.
    TooLarge {
        /// Declared `Content-Length`.
        declared: usize,
        /// Whether the connection is still framed (body fully discarded).
        drained: bool,
        /// Whether the client asked for keep-alive.
        keep_alive: bool,
    },
}

fn stalled() -> ReadOutcome {
    ReadOutcome::Malformed(format!(
        "request stalled for more than {MAX_STALL_TICKS} read-timeout ticks"
    ))
}

/// Counts one read-timeout tick against the per-request stall budget.
fn tick(stalls: &mut u32) -> Result<(), ReadOutcome> {
    *stalls += 1;
    if *stalls > MAX_STALL_TICKS {
        Err(stalled())
    } else {
        Ok(())
    }
}

/// One `read()` into `dst`, retried on interrupts. A read timeout returns
/// [`ReadOutcome::Idle`] when `idle` (no byte of a new request has arrived
/// yet); otherwise it counts against the stall budget and the read waits
/// again. `Ok(0)` is EOF.
fn read_some(
    stream: &mut TcpStream,
    dst: &mut [u8],
    idle: bool,
    stalls: &mut u32,
) -> Result<usize, ReadOutcome> {
    loop {
        match stream.read(dst) {
            Ok(n) => return Ok(n),
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                if idle {
                    return Err(ReadOutcome::Idle);
                }
                tick(stalls)?;
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(ReadOutcome::Malformed(format!("read error: {e}"))),
        }
    }
}

/// The parsed request line and the headers the server acts on.
struct Head {
    method: String,
    path: String,
    content_length: usize,
    keep_alive: bool,
}

fn parse_head(head: &[u8]) -> Result<Head, ReadOutcome> {
    let head = std::str::from_utf8(head)
        .map_err(|_| ReadOutcome::Malformed("non-utf8 request head".to_string()))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ');
    let (method, path, proto) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v), None) if !m.is_empty() && p.starts_with('/') => (m, p, v),
        _ => {
            return Err(ReadOutcome::Malformed(format!(
                "bad request line `{request_line}`"
            )));
        }
    };
    if !proto.starts_with("HTTP/1.") {
        return Err(ReadOutcome::Malformed(format!(
            "unsupported protocol `{proto}`"
        )));
    }

    let mut content_length = 0usize;
    // Keep-alive is the HTTP/1.1 default; HTTP/1.0 defaults to close
    // unless the client asks for keep-alive explicitly.
    let mut keep_alive = !proto.eq_ignore_ascii_case("HTTP/1.0");
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(ReadOutcome::Malformed(format!("bad header line `{line}`")));
        };
        let name = name.trim();
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value
                .parse::<usize>()
                .map_err(|_| ReadOutcome::Malformed(format!("bad content-length `{value}`")))?;
        } else if name.eq_ignore_ascii_case("connection") {
            if value.eq_ignore_ascii_case("close") {
                keep_alive = false;
            } else if value.eq_ignore_ascii_case("keep-alive") {
                keep_alive = true;
            }
        }
    }
    Ok(Head {
        method: method.to_string(),
        path: path.to_string(),
        content_length,
        keep_alive,
    })
}

/// One client connection: the stream, a read buffer that keeps the bytes
/// past the current request for the next one (pipelined keep-alive), and
/// response buffers reused from one response to the next.
pub struct Connection {
    stream: TcpStream,
    /// Bytes `start..end` have arrived but are not consumed yet.
    buf: Box<[u8]>,
    start: usize,
    end: usize,
    /// The rendered body of the response being written.
    body: String,
    /// Head plus body of the response being written.
    out: String,
}

impl std::fmt::Debug for Connection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Connection")
            .field("stream", &self.stream)
            .field("buffered", &(self.end - self.start))
            .finish()
    }
}

impl Connection {
    /// Wraps an accepted stream. Its read timeout, if any, is the idle
    /// poll interval and the unit of the mid-request stall budget.
    pub fn new(stream: TcpStream) -> Connection {
        Connection {
            stream,
            buf: vec![0u8; READ_BUF_BYTES].into_boxed_slice(),
            start: 0,
            end: 0,
            body: String::new(),
            out: String::new(),
        }
    }

    /// Reads and frames the next request. `max_body` caps accepted
    /// bodies. Bytes that arrive past the request stay buffered for the
    /// next call.
    pub fn read_request(&mut self, max_body: usize) -> ReadOutcome {
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
        }
        let mut stalls = 0u32;
        // Head: read until CRLFCRLF, scanning only bytes not scanned yet
        // (less the 3 that may begin a terminator split across reads).
        let mut scanned = 0usize;
        let head_end = loop {
            let window = (self.end - self.start).min(MAX_HEAD_BYTES);
            let from = self.start + scanned.saturating_sub(3);
            if let Some(i) = self.buf[from..self.start + window]
                .windows(4)
                .position(|w| w == b"\r\n\r\n")
            {
                break from + i + 4;
            }
            if window == MAX_HEAD_BYTES {
                return ReadOutcome::Malformed("request head too large".to_string());
            }
            scanned = window;
            if self.end == self.buf.len() {
                // Make room: the unfinished head is under MAX_HEAD_BYTES,
                // so moving it to the front frees at least that much.
                self.buf.copy_within(self.start..self.end, 0);
                self.end -= self.start;
                self.start = 0;
            }
            let idle = self.start == self.end;
            match read_some(
                &mut self.stream,
                &mut self.buf[self.end..],
                idle,
                &mut stalls,
            ) {
                Err(outcome) => return outcome,
                Ok(0) if idle => return ReadOutcome::Closed,
                Ok(0) => return ReadOutcome::Malformed("eof inside request head".to_string()),
                Ok(n) => self.end += n,
            }
        };
        let head = match parse_head(&self.buf[self.start..head_end]) {
            Ok(head) => head,
            Err(outcome) => return outcome,
        };
        self.start = head_end;

        let len = head.content_length;
        if len > max_body {
            // Drain a bounded amount so the connection stays framed.
            let drained =
                len <= max_body.saturating_mul(DRAIN_FACTOR) && self.discard(len, &mut stalls);
            return ReadOutcome::TooLarge {
                declared: len,
                drained,
                keep_alive: head.keep_alive,
            };
        }

        // Body: buffered bytes first, then straight from the stream.
        let mut body = vec![0u8; len];
        let mut filled = (self.end - self.start).min(len);
        body[..filled].copy_from_slice(&self.buf[self.start..self.start + filled]);
        self.start += filled;
        while filled < len {
            match read_some(&mut self.stream, &mut body[filled..], false, &mut stalls) {
                Err(outcome) => return outcome,
                Ok(0) => return ReadOutcome::Malformed("eof inside request body".to_string()),
                Ok(n) => filled += n,
            }
        }

        ReadOutcome::Request(Request {
            method: head.method,
            path: head.path,
            body,
            keep_alive: head.keep_alive,
        })
    }

    /// Consumes a `len`-byte body, buffered bytes first. False when the
    /// client stalls, fails or closes before the whole body arrived.
    fn discard(&mut self, len: usize, stalls: &mut u32) -> bool {
        let buffered = (self.end - self.start).min(len);
        self.start += buffered;
        let mut left = len - buffered;
        while left > 0 {
            // Nothing is buffered any more, so the buffer is the sink; no
            // read goes past the end of the body.
            (self.start, self.end) = (0, 0);
            let want = left.min(self.buf.len());
            match read_some(&mut self.stream, &mut self.buf[..want], false, stalls) {
                Ok(0) | Err(_) => return false,
                Ok(n) => left -= n,
            }
        }
        true
    }

    /// Writes one JSON response, its body rendered compact, head and body
    /// in a single write. `keep_alive` sets the `Connection` header only;
    /// the caller decides whether to close the stream.
    pub fn write_response(
        &mut self,
        status: u16,
        body: &Json,
        keep_alive: bool,
    ) -> std::io::Result<()> {
        self.body.clear();
        body.write_compact(&mut self.body);
        self.out.clear();
        // Writing to a `String` cannot fail.
        let _ = write!(
            self.out,
            "HTTP/1.1 {} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n",
            status,
            reason(status),
            self.body.len(),
            if keep_alive { "keep-alive" } else { "close" },
        );
        self.out.push_str(&self.body);
        self.stream.write_all(self.out.as_bytes())?;
        self.stream.flush()
    }
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A loopback client and the server side of its connection.
    fn pair() -> (TcpStream, Connection) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let client = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (server_side, _) = listener.accept().expect("accept");
        (client, Connection::new(server_side))
    }

    /// Sends `raw` in one write, then frames `n` requests from it.
    fn framed_n(raw: &[u8], max_body: usize, n: usize) -> Vec<ReadOutcome> {
        let (mut client, mut conn) = pair();
        client.write_all(raw).expect("write");
        (0..n).map(|_| conn.read_request(max_body)).collect()
    }

    fn framed(raw: &[u8], max_body: usize) -> ReadOutcome {
        framed_n(raw, max_body, 1).remove(0)
    }

    fn request(out: ReadOutcome) -> Request {
        match out {
            ReadOutcome::Request(req) => req,
            other => panic!("expected request, got {other:?}"),
        }
    }

    /// `(method, path, body)` of each framed request.
    fn summary(outs: Vec<ReadOutcome>) -> Vec<(String, String, Vec<u8>)> {
        outs.into_iter()
            .map(request)
            .map(|r| (r.method, r.path, r.body))
            .collect()
    }

    fn post(path: &str, body: &str) -> String {
        format!(
            "POST {path} HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
    }

    #[test]
    fn frames_a_post_with_body() {
        let out = framed(
            b"POST /forecast HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcd",
            1024,
        );
        match out {
            ReadOutcome::Request(req) => {
                assert_eq!(req.method, "POST");
                assert_eq!(req.path, "/forecast");
                assert_eq!(req.body, b"abcd");
                assert!(req.keep_alive);
            }
            other => panic!("expected request, got {other:?}"),
        }
    }

    #[test]
    fn rejects_bad_request_line_and_protocol() {
        assert!(matches!(
            framed(b"NOT-HTTP\r\n\r\n", 1024),
            ReadOutcome::Malformed(_)
        ));
        assert!(matches!(
            framed(b"GET /x SPDY/3\r\n\r\n", 1024),
            ReadOutcome::Malformed(_)
        ));
    }

    #[test]
    fn oversized_body_is_drained_for_keepalive() {
        let mut raw = b"POST /forecast HTTP/1.1\r\nContent-Length: 64\r\n\r\n".to_vec();
        raw.extend(std::iter::repeat(b'x').take(64));
        match framed(&raw, 16) {
            ReadOutcome::TooLarge {
                declared,
                drained,
                keep_alive,
            } => {
                assert_eq!(declared, 64);
                assert!(drained);
                assert!(keep_alive);
            }
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }

    #[test]
    fn connection_close_header_is_honored() {
        let out = framed(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n", 64);
        match out {
            ReadOutcome::Request(req) => assert!(!req.keep_alive),
            other => panic!("expected request, got {other:?}"),
        }
    }

    #[test]
    fn http10_defaults_to_close_unless_keepalive_requested() {
        match framed(b"GET /healthz HTTP/1.0\r\n\r\n", 64) {
            ReadOutcome::Request(req) => assert!(!req.keep_alive, "1.0 default must be close"),
            other => panic!("expected request, got {other:?}"),
        }
        match framed(
            b"GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n",
            64,
        ) {
            ReadOutcome::Request(req) => assert!(req.keep_alive, "explicit keep-alive honored"),
            other => panic!("expected request, got {other:?}"),
        }
    }

    #[test]
    fn mid_request_stall_fails_instead_of_hanging() {
        // A client that sends a partial head and then idles must not pin
        // the reader forever: after MAX_STALL_TICKS read-timeout ticks the
        // request fails as malformed.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let mut client = TcpStream::connect(addr).expect("connect");
        client
            .write_all(b"POST /forecast HTTP/1.1\r\n")
            .expect("write");
        client.flush().expect("flush");
        let (server_side, _) = listener.accept().expect("accept");
        server_side
            .set_read_timeout(Some(std::time::Duration::from_millis(1)))
            .expect("set timeout");
        let out = Connection::new(server_side).read_request(1024);
        match out {
            ReadOutcome::Malformed(msg) => assert!(msg.contains("stalled"), "got `{msg}`"),
            other => panic!("expected stalled Malformed, got {other:?}"),
        }
        drop(client);
    }
    #[test]
    fn pipelined_requests_in_one_write_frame_in_order() {
        let reqs = [
            post("/forecast", "one"),
            "GET /healthz HTTP/1.1\r\n\r\n".to_string(),
            post("/observe", "three!"),
        ];
        for n in [2, 3] {
            let raw = reqs[..n].concat();
            let got = summary(framed_n(raw.as_bytes(), 64, n));
            let want = [
                ("POST", "/forecast", &b"one"[..]),
                ("GET", "/healthz", b""),
                ("POST", "/observe", b"three!"),
            ];
            assert_eq!(got.len(), n);
            for (g, w) in got.iter().zip(want) {
                assert_eq!((g.0.as_str(), g.1.as_str(), g.2.as_slice()), w);
            }
        }
    }

    #[test]
    fn head_sent_one_byte_per_write_still_frames() {
        let (client, mut conn) = pair();
        client.set_nodelay(true).expect("nodelay");
        let raw = post("/forecast", "abcd");
        let writer = std::thread::spawn(move || {
            let mut client = client;
            for b in raw.as_bytes() {
                client.write_all(std::slice::from_ref(b)).expect("write");
            }
            client
        });
        let req = request(conn.read_request(64));
        assert_eq!(
            (req.path.as_str(), req.body.as_slice()),
            ("/forecast", &b"abcd"[..])
        );
        drop(writer.join().expect("writer"));
        assert!(matches!(conn.read_request(64), ReadOutcome::Closed));
    }

    #[test]
    fn head_body_and_start_of_next_head_in_one_segment() {
        let (mut client, mut conn) = pair();
        let first = post("/forecast", "abc") + "GET /metrics HT";
        client.write_all(first.as_bytes()).expect("write");
        let req = request(conn.read_request(64));
        assert_eq!(
            (req.path.as_str(), req.body.as_slice()),
            ("/forecast", &b"abc"[..])
        );
        client
            .write_all(b"TP/1.1\r\nHost: x\r\n\r\n")
            .expect("write");
        let req = request(conn.read_request(64));
        assert_eq!(
            (req.method.as_str(), req.path.as_str()),
            ("GET", "/metrics")
        );
        assert!(req.body.is_empty());
    }

    #[test]
    fn head_cap_applies_to_the_head_not_to_buffered_bytes() {
        // A head that ends exactly at the cap frames; one byte more does not.
        let head_of = |len: usize| {
            let fixed = "GET / HTTP/1.1\r\nX-Pad: \r\n\r\n".len();
            format!(
                "GET / HTTP/1.1\r\nX-Pad: {}\r\n\r\n",
                "p".repeat(len - fixed)
            )
        };
        assert!(matches!(
            framed(head_of(MAX_HEAD_BYTES).as_bytes(), 64),
            ReadOutcome::Request(_)
        ));
        match framed(head_of(MAX_HEAD_BYTES + 1).as_bytes(), 64) {
            ReadOutcome::Malformed(msg) => assert!(msg.contains("too large"), "got `{msg}`"),
            other => panic!("expected Malformed, got {other:?}"),
        }
        // A head under the cap followed by a body that takes the buffered
        // bytes past the cap still frames.
        let body = "b".repeat(MAX_HEAD_BYTES);
        let raw = format!(
            "POST /observe HTTP/1.1\r\nX-Pad: {}\r\nContent-Length: {}\r\n\r\n{body}",
            "p".repeat(MAX_HEAD_BYTES - 100),
            body.len()
        );
        let req = request(framed(raw.as_bytes(), 2 * MAX_HEAD_BYTES));
        assert_eq!(req.body, body.as_bytes());
    }

    #[test]
    fn drain_consumes_buffered_bytes_first_and_keeps_framing() {
        // Bodies inside and beyond the read buffer, each followed by a
        // pipelined request that must frame after the drain.
        for (len, max_body) in [(64, 16), (3 * READ_BUF_BYTES, READ_BUF_BYTES)] {
            let raw = format!(
                "POST /forecast HTTP/1.1\r\nContent-Length: {len}\r\n\r\n{}GET /next HTTP/1.1\r\n\r\n",
                "x".repeat(len)
            );
            let mut outs = framed_n(raw.as_bytes(), max_body, 2).into_iter();
            match outs.next() {
                Some(ReadOutcome::TooLarge {
                    declared, drained, ..
                }) => assert_eq!((declared, drained), (len, true)),
                other => panic!("expected TooLarge, got {other:?}"),
            }
            assert_eq!(request(outs.next().expect("second")).path, "/next");
        }
    }

    #[test]
    fn idle_only_before_the_first_byte_of_a_request() {
        let (mut client, mut conn) = pair();
        conn.stream
            .set_read_timeout(Some(std::time::Duration::from_millis(1)))
            .expect("set timeout");
        assert!(matches!(conn.read_request(64), ReadOutcome::Idle));
        client
            .write_all(post("/forecast", "ab").as_bytes())
            .expect("write");
        let req = request(conn.read_request(64));
        assert_eq!(req.body, b"ab");
        assert!(matches!(conn.read_request(64), ReadOutcome::Idle));
        drop(client);
        assert!(matches!(conn.read_request(64), ReadOutcome::Closed));
    }

    #[test]
    fn responses_carry_the_compact_body_back_to_back() {
        let (mut client, mut conn) = pair();
        let body = Json::obj(vec![("forecast", Json::Arr(vec![Json::num(0.5)]))]);
        conn.write_response(200, &body, true).expect("write");
        conn.write_response(404, &Json::obj(vec![]), false)
            .expect("write");
        drop(conn);
        let mut raw = String::new();
        client.read_to_string(&mut raw).expect("read");
        assert_eq!(
            raw,
            "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 18\r\n\
             Connection: keep-alive\r\n\r\n{\"forecast\":[0.5]}\
             HTTP/1.1 404 Not Found\r\nContent-Type: application/json\r\nContent-Length: 2\r\n\
             Connection: close\r\n\r\n{}"
        );
    }
}
