//! The client against a hostile server: a response that announces more
//! body than it sends (a chunk size or `Content-Length` up to
//! `usize::MAX`) is an I/O error, never a panic or an allocation of the
//! announced size.

use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpListener;
use std::thread;

use hl_serve::client;

/// Serves `response` verbatim to one connection, after reading the
/// request head (closing with unread input would reset the connection),
/// then closes it. Returns what [`client::request`] made of it.
fn fetch(response: String) -> io::Result<(u16, String)> {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let server = thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        while reader.read_line(&mut line).unwrap() > 0 && line != "\r\n" {
            line.clear();
        }
        reader.get_mut().write_all(response.as_bytes()).unwrap();
    });
    let result = client::request(&addr, "GET", "/v1/healthz", None);
    server.join().unwrap();
    result
}

#[test]
fn a_chunk_size_of_usize_max_is_an_error() {
    let size = format!("{:x}", usize::MAX);
    let response = format!("HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n{size}\r\nabc");
    let err = fetch(response).unwrap_err();
    assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "{err}");
}

#[test]
fn a_second_chunk_past_usize_max_in_total_is_an_error() {
    let size = format!("{:x}", usize::MAX);
    let response =
        format!("HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n{size}\r\ndef");
    let err = fetch(response).unwrap_err();
    assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "{err}");
}

#[test]
fn a_content_length_of_usize_max_is_an_error() {
    let response = format!(
        "HTTP/1.1 200 OK\r\nContent-Length: {}\r\n\r\nabc",
        usize::MAX
    );
    let err = fetch(response).unwrap_err();
    assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "{err}");
}

#[test]
fn a_body_shorter_than_its_content_length_is_an_error() {
    let err = fetch("HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nabc".to_string()).unwrap_err();
    assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "{err}");
    let (status, body) =
        fetch("HTTP/1.1 200 OK\r\nContent-Length: 3\r\n\r\nabc".to_string()).unwrap();
    assert_eq!((status, body.as_str()), (200, "abc"));
}
