//! A minimal blocking HTTP/1.1 client for the API — used by the
//! `hl-client` CLI and the end-to-end tests.
//!
//! Speaks exactly the slice of HTTP the server emits: status line +
//! headers, then either a `Content-Length` body or chunked transfer
//! encoding. [`Client`] holds one keep-alive connection and reconnects
//! transparently when the server closes it (idle timeout, drain); the
//! free functions ([`request`], [`get_json`], [`post_json`]) are
//! one-shot `Connection: close` conveniences. A 503 (shed) response is
//! returned to the caller as-is.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use crate::json::Json;

/// Client-side I/O timeout.
const TIMEOUT: Duration = Duration::from_secs(10);

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// A keep-alive connection to the server: requests reuse one TCP
/// connection until the server closes it, then the next request
/// reconnects.
pub struct Client {
    addr: String,
    conn: Option<BufReader<TcpStream>>,
    /// `X-Request-Id` echoed on the most recent response, if any.
    last_request_id: Option<String>,
}

impl Client {
    /// A client for `addr` (`host:port`). No connection is made until
    /// the first request.
    pub fn new(addr: impl Into<String>) -> Self {
        Self {
            addr: addr.into(),
            conn: None,
            last_request_id: None,
        }
    }

    /// The `X-Request-Id` the server echoed on the most recent response
    /// (None before the first request, or if the server sent none).
    /// Lets callers correlate a response with `GET /v1/trace` records
    /// and structured log lines.
    pub fn request_id(&self) -> Option<&str> {
        self.last_request_id.as_deref()
    }

    fn connect(&mut self) -> io::Result<&mut BufReader<TcpStream>> {
        if self.conn.is_none() {
            let stream = TcpStream::connect(&self.addr)?;
            stream.set_read_timeout(Some(TIMEOUT))?;
            stream.set_write_timeout(Some(TIMEOUT))?;
            stream.set_nodelay(true)?;
            return Ok(self.conn.insert(BufReader::new(stream)));
        }
        self.conn
            .as_mut()
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotConnected, "no connection"))
    }

    /// Sends one request on the kept-alive connection and reads the full
    /// response. A request that fails to write or to produce a status
    /// line on a *reused* connection is retried once on a fresh one (the
    /// server may have closed the idle connection between requests).
    ///
    /// # Errors
    /// Connection/I/O failures, and malformed responses as
    /// [`io::ErrorKind::InvalidData`].
    pub fn send(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> io::Result<(u16, String)> {
        let reused = self.conn.is_some();
        match self.try_send(method, path, body) {
            Err(e) if reused && is_stale(&e) => {
                self.conn = None;
                self.try_send(method, path, body)
            }
            Err(e) => {
                self.conn = None;
                Err(e)
            }
            ok => ok,
        }
    }

    fn try_send(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> io::Result<(u16, String)> {
        let addr = self.addr.clone();
        let reader = self.connect()?;
        let payload = body.unwrap_or("");
        {
            let mut writer = reader.get_ref().try_clone()?;
            write!(
                writer,
                "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\n\r\n{payload}",
                payload.len(),
            )?;
            writer.flush()?;
        }
        let (status, text, close, request_id) = match read_response(reader) {
            Ok(resp) => resp,
            Err(e) => {
                self.conn = None;
                return Err(e);
            }
        };
        if close {
            self.conn = None;
        }
        self.last_request_id = request_id;
        Ok((status, text))
    }

    /// `GET path`, parsing the JSON body.
    ///
    /// # Errors
    /// As [`Client::send`], plus JSON parse failures as
    /// [`io::ErrorKind::InvalidData`].
    pub fn get_json(&mut self, path: &str) -> io::Result<(u16, Json)> {
        let (status, text) = self.send("GET", path, None)?;
        Ok((
            status,
            Json::parse(&text).map_err(|e| invalid(e.to_string()))?,
        ))
    }

    /// `POST path` with a JSON body, parsing the JSON response.
    ///
    /// # Errors
    /// As [`Client::send`], plus JSON parse failures as
    /// [`io::ErrorKind::InvalidData`].
    pub fn post_json(&mut self, path: &str, body: &Json) -> io::Result<(u16, Json)> {
        let (status, text) = self.send("POST", path, Some(&body.encode()))?;
        Ok((
            status,
            Json::parse(&text).map_err(|e| invalid(e.to_string()))?,
        ))
    }
}

/// True for errors that plausibly mean "the server closed this
/// keep-alive connection": EOF-shaped and reset-shaped failures.
fn is_stale(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::UnexpectedEof
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::BrokenPipe
            | io::ErrorKind::WriteZero
    )
}

/// One response off the wire: status, body, connection-close flag, and
/// the echoed `X-Request-Id` if present.
type WireResponse = (u16, String, bool, Option<String>);

fn read_response(reader: &mut BufReader<TcpStream>) -> io::Result<WireResponse> {
    let mut status_line = String::new();
    reader.read_line(&mut status_line)?;
    if status_line.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed before a response",
        ));
    }
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| invalid(format!("malformed status line {status_line:?}")))?;

    let mut content_length: Option<u64> = None;
    let mut chunked = false;
    let mut close = false;
    let mut request_id: Option<String> = None;
    loop {
        let mut line = String::new();
        reader.read_line(&mut line)?;
        let line = line.trim_end_matches(['\r', '\n']);
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                content_length = Some(value.parse().map_err(|_| invalid("bad Content-Length"))?);
            } else if name.eq_ignore_ascii_case("transfer-encoding")
                && value.eq_ignore_ascii_case("chunked")
            {
                chunked = true;
            } else if name.eq_ignore_ascii_case("connection") && value.eq_ignore_ascii_case("close")
            {
                close = true;
            } else if name.eq_ignore_ascii_case("x-request-id") {
                request_id = Some(value.to_string());
            }
        }
    }

    let mut body = Vec::new();
    if chunked {
        loop {
            let mut size_line = String::new();
            reader.read_line(&mut size_line)?;
            let size = u64::from_str_radix(size_line.trim(), 16)
                .map_err(|_| invalid(format!("bad chunk size {size_line:?}")))?;
            if size == 0 {
                let mut trailer = String::new();
                reader.read_line(&mut trailer)?;
                break;
            }
            read_body(reader, size, &mut body)?;
            let mut crlf = [0u8; 2];
            reader.read_exact(&mut crlf)?;
        }
    } else if let Some(n) = content_length {
        read_body(reader, n, &mut body)?;
    } else {
        // No framing: the server signals the end by closing.
        reader.read_to_end(&mut body)?;
        close = true;
    }
    let text = String::from_utf8(body).map_err(|_| invalid("response body is not UTF-8"))?;
    Ok((status, text, close, request_id))
}

/// Appends the next `len` body bytes to `body`. `len` comes from the peer
/// (a chunk size or `Content-Length`), so nothing is sized from it up
/// front: the buffer grows only by bytes that arrive, and a connection
/// that ends early is an [`io::ErrorKind::UnexpectedEof`].
fn read_body(reader: &mut impl Read, len: u64, body: &mut Vec<u8>) -> io::Result<()> {
    let got = reader.by_ref().take(len).read_to_end(body)?;
    if (got as u64) < len {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!("response body ended after {got} of {len} bytes"),
        ));
    }
    Ok(())
}

/// Sends one request on a fresh `Connection: close` connection and reads
/// the full response.
///
/// # Errors
/// Connection/I/O failures, and malformed responses as
/// [`io::ErrorKind::InvalidData`].
pub fn request(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> io::Result<(u16, String)> {
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(TIMEOUT))?;
    stream.set_write_timeout(Some(TIMEOUT))?;
    let mut writer = stream.try_clone()?;
    let payload = body.unwrap_or("");
    write!(
        writer,
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{payload}",
        payload.len(),
    )?;
    writer.flush()?;
    let mut reader = BufReader::new(stream);
    let (status, text, _, _) = read_response(&mut reader)?;
    Ok((status, text))
}

/// `GET path` on a fresh connection, parsing the JSON body.
///
/// # Errors
/// As [`request`], plus JSON parse failures as
/// [`io::ErrorKind::InvalidData`].
pub fn get_json(addr: &str, path: &str) -> io::Result<(u16, Json)> {
    let (status, text) = request(addr, "GET", path, None)?;
    Ok((
        status,
        Json::parse(&text).map_err(|e| invalid(e.to_string()))?,
    ))
}

/// `POST path` with a JSON body on a fresh connection, parsing the JSON
/// response.
///
/// # Errors
/// As [`request`], plus JSON parse failures as
/// [`io::ErrorKind::InvalidData`].
pub fn post_json(addr: &str, path: &str, body: &Json) -> io::Result<(u16, Json)> {
    let (status, text) = request(addr, "POST", path, Some(&body.encode()))?;
    Ok((
        status,
        Json::parse(&text).map_err(|e| invalid(e.to_string()))?,
    ))
}
