//! Minimal HTTP/1.1 — incremental request parsing, response
//! serialization, and the error → status-code mapping.
//!
//! The server speaks a deliberately small slice of the protocol, enough
//! for JSON API clients and `curl`:
//!
//! - **keep-alive and pipelining**: parsing is incremental over a
//!   per-connection byte buffer ([`parse_request`] returns
//!   [`ParseStatus::Incomplete`] until a full request has arrived and
//!   reports how many bytes it consumed so the next pipelined request
//!   can follow in the same buffer); connections stay open unless the
//!   client sends `Connection: close` ([`Request::keep_alive`]);
//! - request bodies are sized by `Content-Length` and capped at
//!   [`MAX_BODY_BYTES`] (an oversized declaration → 413 *before* the
//!   payload arrives); chunked **request** bodies are rejected with 411;
//! - response bodies above [`CHUNK_THRESHOLD`] are sent with
//!   `Transfer-Encoding: chunked` (large `/v1/sweep` results stream in
//!   [`CHUNK_SIZE`]-byte chunks), smaller ones with `Content-Length` —
//!   which is why only HTTP/1.1 is spoken: an HTTP/1.0 client cannot
//!   parse chunked responses, so `HTTP/1.0` request lines get a 505;
//! - a stalled client cannot pin the server: the event loop arms a
//!   whole-request deadline per connection and answers 408 when a
//!   partial request stops progressing (see [`crate::server`]).

/// Maximum accepted request-body size in bytes.
pub const MAX_BODY_BYTES: usize = 256 * 1024;

/// Maximum accepted total request-head (request line + headers) size.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Response bodies above this size are sent chunked.
pub const CHUNK_THRESHOLD: usize = 8 * 1024;

/// Chunk payload size for chunked responses.
pub const CHUNK_SIZE: usize = 4 * 1024;

/// A parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Request method (`GET`, `POST`, …), uppercase as sent.
    pub method: String,
    /// Request path, without the query string.
    pub path: String,
    /// Query string (may be empty; no decoding is applied).
    pub query: String,
    /// Headers with lowercased names, in arrival order.
    pub headers: Vec<(String, String)>,
    /// Request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

impl Request {
    /// First header with the (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the connection should stay open after this request:
    /// HTTP/1.1 defaults to keep-alive unless the `Connection` header
    /// lists the `close` token.
    pub fn keep_alive(&self) -> bool {
        match self.header("connection") {
            None => true,
            Some(v) => !v
                .split(',')
                .any(|tok| tok.trim().eq_ignore_ascii_case("close")),
        }
    }
}

/// Why a request could not be parsed, carrying the status code the
/// connection should answer with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// HTTP status to answer with (4xx).
    pub status: u16,
    /// Human-readable reason (becomes the JSON error body).
    pub reason: String,
}

impl ParseError {
    /// An error answering with `status`.
    pub fn new(status: u16, reason: impl Into<String>) -> Self {
        Self {
            status,
            reason: reason.into(),
        }
    }
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} {}: {}",
            self.status,
            reason_phrase(self.status),
            self.reason
        )
    }
}

impl std::error::Error for ParseError {}

/// The outcome of one incremental parse attempt over a connection's
/// receive buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseStatus {
    /// The buffer does not yet hold one complete request; read more.
    Incomplete,
    /// One complete request, consuming the first `usize` buffer bytes
    /// (drain them; a pipelined successor may start right after).
    Complete(Request, usize),
    /// The buffer starts with a malformed request; answer with this
    /// error and close (resynchronizing after a parse error is not
    /// worth the ambiguity).
    Bad(ParseError),
}

/// Parses at most one request from the front of `buf` without consuming
/// it — the caller drains the reported byte count on
/// [`ParseStatus::Complete`]. Purely a function of the buffer contents,
/// which is what makes keep-alive and pipelining trivial for the event
/// loop: append bytes, parse, repeat.
pub fn parse_request(buf: &[u8]) -> ParseStatus {
    // Locate the end of the head: the first empty line. Lines are
    // `\n`-terminated with the `\r` optional.
    let Some(head_len) = find_head_end(buf) else {
        return if buf.len() > MAX_HEAD_BYTES {
            ParseStatus::Bad(ParseError::new(431, "request head too large"))
        } else {
            ParseStatus::Incomplete
        };
    };
    if head_len > MAX_HEAD_BYTES {
        return ParseStatus::Bad(ParseError::new(431, "request head too large"));
    }
    let Some(head) = buf.get(..head_len) else {
        return ParseStatus::Incomplete;
    };
    let head = String::from_utf8_lossy(head);
    let mut lines = head.split('\n').map(|l| l.trim_end_matches('\r'));
    let request_line = lines.next().unwrap_or("");
    let (method, path, query) = match parse_request_line(request_line) {
        Ok(t) => t,
        Err(e) => return ParseStatus::Bad(e),
    };

    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            break;
        }
        let Some((name, value)) = line.split_once(':') else {
            return ParseStatus::Bad(ParseError::new(
                400,
                format!("malformed header line {line:?}"),
            ));
        };
        if name.is_empty() || name.contains(' ') {
            return ParseStatus::Bad(ParseError::new(
                400,
                format!("malformed header name {name:?}"),
            ));
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
    }

    let mut req = Request {
        method,
        path,
        query,
        headers,
        body: Vec::new(),
    };

    if let Some(te) = req.header("transfer-encoding") {
        if !te.eq_ignore_ascii_case("identity") {
            return ParseStatus::Bad(ParseError::new(
                411,
                "chunked request bodies are not supported; send Content-Length",
            ));
        }
    }
    let len = match req.header("content-length") {
        None => 0,
        Some(v) => match v.parse::<usize>() {
            Ok(n) => n,
            Err(_) => {
                return ParseStatus::Bad(ParseError::new(400, format!("bad Content-Length {v:?}")));
            }
        },
    };
    if len > MAX_BODY_BYTES {
        return ParseStatus::Bad(ParseError::new(
            413,
            format!("body of {len} bytes exceeds the {MAX_BODY_BYTES}-byte limit"),
        ));
    }
    let total = head_len + len;
    let Some(body) = buf.get(head_len..total) else {
        return ParseStatus::Incomplete;
    };
    req.body = body.to_vec();
    ParseStatus::Complete(req, total)
}

/// Index one past the head-terminating empty line, if present.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    let mut end = 0;
    for line in buf.split_inclusive(|&b| b == b'\n') {
        // An unterminated last line is not a line yet.
        let line = line.strip_suffix(b"\n")?;
        let start = end;
        end += line.len() + 1;
        if line.strip_suffix(b"\r").unwrap_or(line).is_empty() && start > 0 {
            return Some(end);
        }
    }
    None
}

fn parse_request_line(line: &str) -> Result<(String, String, String), ParseError> {
    let mut parts = line.split(' ');
    let (Some(method), Some(target), Some(version), None) =
        (parts.next(), parts.next(), parts.next(), parts.next())
    else {
        return Err(ParseError::new(
            400,
            format!("malformed request line {line:?}"),
        ));
    };
    if method.is_empty() || !method.bytes().all(|b| b.is_ascii_uppercase()) {
        return Err(ParseError::new(400, format!("malformed method {method:?}")));
    }
    if !target.starts_with('/') {
        return Err(ParseError::new(
            400,
            format!("target must be absolute, got {target:?}"),
        ));
    }
    // HTTP/1.0 is rejected too: large responses are chunked, which a
    // 1.0 client cannot parse.
    if version != "HTTP/1.1" {
        return Err(ParseError::new(
            505,
            format!("unsupported version {version:?}; use HTTP/1.1"),
        ));
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target.to_string(), String::new()),
    };
    Ok((method.to_string(), path, query))
}

/// A response ready to be serialized.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body.
    pub body: Vec<u8>,
    /// Optional `Retry-After` header value in seconds — set on 503s so
    /// shed clients know when backing off is long enough.
    pub retry_after: Option<u32>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: impl Into<Vec<u8>>) -> Self {
        Self {
            status,
            content_type: "application/json",
            body: body.into(),
            retry_after: None,
        }
    }

    /// Attaches a `Retry-After: seconds` header.
    pub fn with_retry_after(mut self, seconds: u32) -> Self {
        self.retry_after = Some(seconds);
        self
    }

    /// Serializes the response; bodies above [`CHUNK_THRESHOLD`] are
    /// sent with chunked transfer encoding (legal on keep-alive
    /// connections — the terminating `0\r\n\r\n` delimits the body).
    ///
    /// The bytes are a pure function of `(self, keep_alive)`, which is
    /// what the coalescing path leans on: one computed [`Response`] serializes
    /// identically for every waiter with the same connection mode.
    pub fn to_bytes(&self, keep_alive: bool) -> Vec<u8> {
        self.to_bytes_with_id(keep_alive, None)
    }

    /// [`Self::to_bytes`] plus an optional `X-Request-Id` echo header.
    /// With `request_id: None` the output is byte-identical to
    /// `to_bytes(keep_alive)`; the id must already satisfy
    /// [`crate::trace::valid_request_id`] (the server validates or
    /// generates it) so it cannot split the header block.
    pub fn to_bytes_with_id(&self, keep_alive: bool, request_id: Option<&str>) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.body.len() + 128);
        out.extend_from_slice(
            format!(
                "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nConnection: {}\r\n",
                self.status,
                reason_phrase(self.status),
                self.content_type,
                if keep_alive { "keep-alive" } else { "close" },
            )
            .as_bytes(),
        );
        if let Some(id) = request_id {
            out.extend_from_slice(format!("X-Request-Id: {id}\r\n").as_bytes());
        }
        if let Some(seconds) = self.retry_after {
            out.extend_from_slice(format!("Retry-After: {seconds}\r\n").as_bytes());
        }
        if self.body.len() > CHUNK_THRESHOLD {
            out.extend_from_slice(b"Transfer-Encoding: chunked\r\n\r\n");
            for chunk in self.body.chunks(CHUNK_SIZE) {
                out.extend_from_slice(format!("{:x}\r\n", chunk.len()).as_bytes());
                out.extend_from_slice(chunk);
                out.extend_from_slice(b"\r\n");
            }
            out.extend_from_slice(b"0\r\n\r\n");
        } else {
            out.extend_from_slice(
                format!("Content-Length: {}\r\n\r\n", self.body.len()).as_bytes(),
            );
            out.extend_from_slice(&self.body);
        }
        out
    }
}

/// The standard reason phrase for the status codes this server emits.
pub fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        411 => "Length Required",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        505 => "HTTP Version Not Supported",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_ok(raw: &str) -> (Request, usize) {
        match parse_request(raw.as_bytes()) {
            ParseStatus::Complete(r, n) => (r, n),
            ParseStatus::Bad(e) => panic!("expected ok, got {e}"),
            ParseStatus::Incomplete => panic!("expected ok, got incomplete"),
        }
    }

    fn parse_bad(raw: &str) -> ParseError {
        match parse_request(raw.as_bytes()) {
            ParseStatus::Bad(e) => e,
            other => panic!("expected error, got {other:?}"),
        }
    }

    #[test]
    fn parses_get_with_query_and_headers() {
        let (r, n) = parse_ok("GET /designs?x=1&y=2 HTTP/1.1\r\nHost: a\r\nX-Th: 3\r\n\r\n");
        assert_eq!(r.method, "GET");
        assert_eq!(r.path, "/designs");
        assert_eq!(r.query, "x=1&y=2");
        assert_eq!(r.header("host"), Some("a"));
        assert_eq!(
            r.header("X-TH"),
            Some("3"),
            "header lookup is case-insensitive"
        );
        assert!(r.body.is_empty());
        assert_eq!(
            n,
            "GET /designs?x=1&y=2 HTTP/1.1\r\nHost: a\r\nX-Th: 3\r\n\r\n".len()
        );
    }

    #[test]
    fn parses_post_body_by_content_length() {
        let raw = "POST /evaluate HTTP/1.1\r\nContent-Length: 4\r\n\r\n{} \nEXTRA";
        let (r, n) = parse_ok(raw);
        assert_eq!(r.body, b"{} \n");
        assert_eq!(n, raw.len() - "EXTRA".len(), "trailing bytes stay queued");
    }

    #[test]
    fn pipelined_requests_parse_back_to_back() {
        let raw =
            "GET /healthz HTTP/1.1\r\n\r\nPOST /evaluate HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}";
        let (first, n) = parse_ok(raw);
        assert_eq!(first.path, "/healthz");
        let (second, m) = parse_ok(&raw[n..]);
        assert_eq!(second.path, "/evaluate");
        assert_eq!(second.body, b"{}");
        assert_eq!(n + m, raw.len());
    }

    #[test]
    fn incomplete_requests_wait_for_more_bytes() {
        for raw in [
            "",
            "GET /x HT",
            "GET /x HTTP/1.1\r\nHost: a",
            "GET /x HTTP/1.1\r\nHost: a\r\n",
            "POST /x HTTP/1.1\r\nContent-Length: 5\r\n\r\nab",
        ] {
            assert_eq!(
                parse_request(raw.as_bytes()),
                ParseStatus::Incomplete,
                "{raw:?}"
            );
        }
    }

    #[test]
    fn keep_alive_defaults_on_and_honors_close() {
        let (r, _) = parse_ok("GET /x HTTP/1.1\r\n\r\n");
        assert!(r.keep_alive(), "HTTP/1.1 defaults to keep-alive");
        let (r, _) = parse_ok("GET /x HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert!(!r.keep_alive());
        let (r, _) = parse_ok("GET /x HTTP/1.1\r\nConnection: Close\r\n\r\n");
        assert!(!r.keep_alive(), "token match is case-insensitive");
        let (r, _) = parse_ok("GET /x HTTP/1.1\r\nConnection: keep-alive\r\n\r\n");
        assert!(r.keep_alive());
    }

    #[test]
    fn rejects_malformed_request_lines() {
        for (raw, status) in [
            ("\r\n\r\n", 400),
            ("GARBAGE\r\n\r\n", 400),
            ("GET /x\r\n\r\n", 400),
            ("GET /x HTTP/1.1 extra\r\n\r\n", 400),
            ("get /x HTTP/1.1\r\n\r\n", 400),
            ("GET x HTTP/1.1\r\n\r\n", 400),
            ("GET /x HTTP/2\r\n\r\n", 505),
            ("GET /x HTTP/1.0\r\n\r\n", 505),
            ("GET /x HTTP/1.1\r\nno-colon-here\r\n\r\n", 400),
            ("GET /x HTTP/1.1\r\nbad name: v\r\n\r\n", 400),
            ("POST /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n", 400),
            (
                "POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
                411,
            ),
        ] {
            let e = parse_bad(raw);
            assert_eq!(e.status, status, "{raw:?} → {}", e.reason);
        }
    }

    #[test]
    fn oversized_declarations_are_rejected_before_the_payload() {
        // 413 fires from the head alone — no body bytes present yet.
        let e = parse_bad(&format!(
            "POST /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        ));
        assert_eq!(e.status, 413);
        let long = "a".repeat(MAX_HEAD_BYTES + 2);
        let e = parse_bad(&format!("GET /{long} HTTP/1.1\r\n\r\n"));
        assert_eq!(e.status, 431);
        let e = parse_bad(&format!("GET /x HTTP/1.1\r\nH: {long}\r\n\r\n"));
        assert_eq!(e.status, 431);
        // A head that never terminates is rejected once it exceeds the
        // cap, not buffered forever.
        let e = parse_bad(&"a".repeat(MAX_HEAD_BYTES + 1));
        assert_eq!(e.status, 431);
    }

    #[test]
    fn small_responses_use_content_length() {
        let text =
            String::from_utf8(Response::json(200, r#"{"ok":true}"#).to_bytes(false)).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 11\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"ok\":true}"));
        let text = String::from_utf8(Response::json(200, r#"{"ok":true}"#).to_bytes(true)).unwrap();
        assert!(text.contains("Connection: keep-alive\r\n"));
    }

    #[test]
    fn request_id_header_is_injected_without_changing_the_rest() {
        let resp = Response::json(200, r#"{"ok":true}"#);
        // No id → byte-identical to the plain serialization.
        assert_eq!(resp.to_bytes_with_id(true, None), resp.to_bytes(true));
        let tagged =
            String::from_utf8(resp.to_bytes_with_id(true, Some("abc123def4567890"))).unwrap();
        assert!(tagged.contains("X-Request-Id: abc123def4567890\r\n"));
        // Removing the one injected header restores the plain bytes.
        let stripped = tagged.replacen("X-Request-Id: abc123def4567890\r\n", "", 1);
        assert_eq!(stripped.into_bytes(), resp.to_bytes(true));
        // Orders with Retry-After: Connection, X-Request-Id, Retry-After.
        let shed = String::from_utf8(
            Response::json(503, "{}")
                .with_retry_after(1)
                .to_bytes_with_id(false, Some("id1")),
        )
        .unwrap();
        let conn = shed.find("Connection:").unwrap();
        let rid = shed.find("X-Request-Id:").unwrap();
        let retry = shed.find("Retry-After:").unwrap();
        assert!(conn < rid && rid < retry);
    }

    #[test]
    fn retry_after_header_is_emitted_only_when_set() {
        let plain = String::from_utf8(Response::json(503, "{}").to_bytes(true)).unwrap();
        assert!(!plain.contains("Retry-After"));
        let shed = String::from_utf8(Response::json(503, "{}").with_retry_after(2).to_bytes(true))
            .unwrap();
        assert!(shed.contains("Retry-After: 2\r\n"));
        assert!(shed.ends_with("\r\n\r\n{}"));
    }

    #[test]
    fn large_responses_are_chunked() {
        let body = vec![b'x'; CHUNK_THRESHOLD + CHUNK_SIZE + 17];
        let text = String::from_utf8(Response::json(200, body.clone()).to_bytes(true)).unwrap();
        assert!(text.contains("Transfer-Encoding: chunked\r\n"));
        assert!(!text.contains("Content-Length"));
        assert!(text.ends_with("0\r\n\r\n"));
        // Reassemble the chunks and compare.
        let payload = text.split_once("\r\n\r\n").unwrap().1;
        let mut rest = payload;
        let mut reassembled = Vec::new();
        loop {
            let (size, tail) = rest.split_once("\r\n").unwrap();
            let n = usize::from_str_radix(size, 16).unwrap();
            if n == 0 {
                break;
            }
            reassembled.extend_from_slice(&tail.as_bytes()[..n]);
            rest = &tail[n + 2..];
        }
        assert_eq!(reassembled, body);
    }

    #[test]
    fn reason_phrases_cover_emitted_codes() {
        for code in [200, 400, 404, 405, 408, 411, 413, 422, 431, 500, 503, 505] {
            assert_ne!(reason_phrase(code), "Unknown", "{code}");
        }
        assert_eq!(reason_phrase(418), "Unknown");
    }
}
