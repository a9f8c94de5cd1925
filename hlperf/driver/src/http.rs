//! A minimal HTTP/1.1 client over one keep-alive connection.
//!
//! [`Conn::send`] writes a request and [`Conn::recv`] parses its reply
//! from the connection's buffer. Bodies are delimited by `Content-Length`
//! or chunked transfer encoding, the two framings `hl-serve` emits.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// One parsed response.
pub struct Reply {
    pub status: u16,
    pub body: Vec<u8>,
}

pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    start: usize,
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

impl Conn {
    pub fn connect(addr: &str) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(64 * 1024),
            start: 0,
        })
    }

    /// Writes one request; `request_id` adds an `X-Request-Id` header.
    pub fn send(
        &mut self,
        method: &str,
        path: &str,
        body: &[u8],
        request_id: Option<&str>,
    ) -> io::Result<()> {
        let mut head = format!(
            "{method} {path} HTTP/1.1\r\nHost: hlperf\r\nContent-Length: {}\r\n",
            body.len()
        );
        if let Some(id) = request_id {
            head.push_str("X-Request-Id: ");
            head.push_str(id);
            head.push_str("\r\n");
        }
        head.push_str("\r\n");
        let mut out = head.into_bytes();
        out.extend_from_slice(body);
        self.stream.write_all(&out)
    }

    /// Reads whatever the socket has, blocking up to `timeout`.
    /// `Ok(false)` on a timeout, an error on EOF.
    fn fill(&mut self, timeout: Duration) -> io::Result<bool> {
        self.stream.set_read_timeout(Some(timeout))?;
        if self.start == self.buf.len() || self.start > (1 << 20) {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        let mut chunk = [0u8; 64 * 1024];
        match self.stream.read(&mut chunk) {
            Ok(0) => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )),
            Ok(n) => {
                self.buf.extend_from_slice(&chunk[..n]);
                Ok(true)
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                Ok(false)
            }
            Err(e) => Err(e),
        }
    }

    /// Takes one complete response off the buffer, if there is one.
    fn try_take(&mut self) -> io::Result<Option<Reply>> {
        let data = &self.buf[self.start..];
        let Some(head_end) = find(data, b"\r\n\r\n") else {
            return Ok(None);
        };
        let head = std::str::from_utf8(&data[..head_end]).map_err(|_| bad("non-UTF-8 head"))?;
        let mut lines = head.split("\r\n");
        let status_line = lines.next().unwrap_or("");
        let status: u16 = status_line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad(format!("bad status line {status_line:?}")))?;
        let mut length = None;
        let mut chunked = false;
        for line in lines {
            let Some((name, value)) = line.split_once(':') else {
                continue;
            };
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                length = Some(
                    value
                        .parse::<usize>()
                        .map_err(|_| bad("bad Content-Length"))?,
                );
            } else if name.eq_ignore_ascii_case("transfer-encoding") {
                chunked = value.eq_ignore_ascii_case("chunked");
            }
        }
        let body_start = head_end + 4;
        let (body, consumed) = if chunked {
            match dechunk(&data[body_start..])? {
                Some((body, used)) => (body, body_start + used),
                None => return Ok(None),
            }
        } else {
            let len = length.unwrap_or(0);
            if data.len() < body_start + len {
                return Ok(None);
            }
            (
                data[body_start..body_start + len].to_vec(),
                body_start + len,
            )
        };
        self.start += consumed;
        Ok(Some(Reply { status, body }))
    }

    /// Blocks until one complete response arrives.
    pub fn recv(&mut self, timeout: Duration) -> io::Result<Reply> {
        loop {
            if let Some(reply) = self.try_take()? {
                return Ok(reply);
            }
            if !self.fill(timeout)? {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "response timed out",
                ));
            }
        }
    }

    /// One request, one response.
    pub fn call(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<Reply> {
        self.send(method, path, body, None)?;
        self.recv(Duration::from_secs(60))
    }
}

fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

/// Decodes a complete chunked body; `None` while it is still arriving.
fn dechunk(data: &[u8]) -> io::Result<Option<(Vec<u8>, usize)>> {
    let mut body = Vec::new();
    let mut pos = 0;
    loop {
        let Some(line_end) = find(&data[pos..], b"\r\n") else {
            return Ok(None);
        };
        let size_text =
            std::str::from_utf8(&data[pos..pos + line_end]).map_err(|_| bad("bad chunk size"))?;
        let size =
            usize::from_str_radix(size_text.trim(), 16).map_err(|_| bad("bad chunk size"))?;
        pos += line_end + 2;
        if data.len() < pos + size + 2 {
            return Ok(None);
        }
        body.extend_from_slice(&data[pos..pos + size]);
        pos += size + 2;
        if size == 0 {
            return Ok(Some((body, pos)));
        }
    }
}
