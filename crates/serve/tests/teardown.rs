//! Connection-teardown edge tests: clients that leave ungracefully.
//!
//! Each test abuses one connection — half-closing mid-body, resetting
//! mid-pipeline, stalling until the request timeout — and then asserts
//! the server's bookkeeping recovered: the slab entry is reclaimed
//! (`connections.active` drains to zero), the accept loop still
//! answers, and queued responses for abandoned connections are dropped
//! rather than delivered to a later occupant of the slot.

#![cfg(target_os = "linux")]

use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

use hl_eval::SweepContext;
use hl_serve::api::App;
use hl_serve::client::get_json;
use hl_serve::json::Json;
use hl_serve::server::{Server, ServerConfig, ServerHandle};
use hl_sim::engine::Engine;

fn spawn_server() -> ServerHandle {
    let app = App::with_context(SweepContext::with_engine(Engine::with_threads(2)));
    Server::bind(
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            request_timeout: Duration::from_millis(300),
            idle_timeout: Duration::from_secs(5),
            ..ServerConfig::default()
        },
        app,
    )
    .expect("bind ephemeral port")
    .spawn()
    .expect("spawn server")
}

fn connect(addr: &str) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
}

/// Polls `/v1/metrics` until `connections.active` is at most `bound`
/// (one slot is the metrics connection itself when measured inline).
fn wait_active_at_most(addr: &str, bound: f64) -> f64 {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let (status, metrics) = get_json(addr, "/v1/metrics").expect("metrics");
        assert_eq!(status, 200);
        let active = metrics
            .get("connections")
            .and_then(|c| c.get("active"))
            .and_then(Json::as_f64)
            .expect("connections.active");
        if active <= bound || Instant::now() > deadline {
            return active;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Arms `SO_LINGER` with a zero timeout so dropping the stream sends an
/// RST instead of an orderly FIN.
fn arm_rst(stream: &TcpStream) {
    #[repr(C)]
    struct Linger {
        l_onoff: std::os::raw::c_int,
        l_linger: std::os::raw::c_int,
    }
    // SAFETY: matches the setsockopt(2) prototype from the
    // always-linked platform libc (int fd/level/optname, const buffer
    // pointer + u32 length), so the declaration is ABI-faithful.
    extern "C" {
        fn setsockopt(
            fd: std::os::raw::c_int,
            level: std::os::raw::c_int,
            optname: std::os::raw::c_int,
            optval: *const std::os::raw::c_void,
            optlen: u32,
        ) -> std::os::raw::c_int;
    }
    const SOL_SOCKET: std::os::raw::c_int = 1;
    const SO_LINGER: std::os::raw::c_int = 13;
    let linger = Linger {
        l_onoff: 1,
        l_linger: 0,
    };
    // SAFETY: the fd is a live socket owned by `stream`, and optval
    // points at a properly initialized `Linger` whose size is passed as
    // optlen, so the kernel reads exactly the bytes we own.
    let rc = unsafe {
        setsockopt(
            stream.as_raw_fd(),
            SOL_SOCKET,
            SO_LINGER,
            (&linger as *const Linger).cast(),
            std::mem::size_of::<Linger>() as u32,
        )
    };
    assert_eq!(rc, 0, "setsockopt(SO_LINGER) failed");
}

#[test]
fn half_close_mid_body_reclaims_the_connection() {
    let server = spawn_server();
    let addr = server.addr().to_string();

    // Promise a 100-byte body, deliver 10, then half-close. The server
    // sees EOF mid-request; the connection must be torn down without
    // waiting for bytes that will never come.
    let mut stream = connect(&addr);
    stream
        .write_all(
            b"POST /v1/evaluate HTTP/1.1\r\nHost: x\r\nContent-Length: 100\r\n\r\n{\"design\":",
        )
        .expect("write partial body");
    stream.shutdown(Shutdown::Write).expect("half-close");
    let mut text = String::new();
    let _ = stream.read_to_string(&mut text); // resolves: response or clean close, never a hang
    drop(stream);

    let active = wait_active_at_most(&addr, 1.0);
    assert!(
        active <= 1.0,
        "slab must reclaim the half-closed conn, active={active}"
    );
    let (status, _) = get_json(&addr, "/v1/healthz").expect("health after half-close");
    assert_eq!(status, 200);
    server.stop().expect("graceful stop");
}

#[test]
fn rst_mid_pipeline_reclaims_the_connection() {
    let server = spawn_server();
    let addr = server.addr().to_string();

    // Fire a pipelined burst, then slam the door with an RST before
    // reading any response. Queued responses for the dead connection
    // must be discarded, not delivered to a future slot occupant.
    let stream = connect(&addr);
    arm_rst(&stream);
    let mut pipelined = String::new();
    for _ in 0..4 {
        let body = r#"{"design":"HighLight","a_sparsity":0.5,"b_sparsity":0.25}"#;
        pipelined.push_str(&format!(
            "POST /v1/evaluate HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ));
    }
    (&stream)
        .write_all(pipelined.as_bytes())
        .expect("write burst");
    drop(stream); // RST

    let active = wait_active_at_most(&addr, 1.0);
    assert!(
        active <= 1.0,
        "slab must reclaim the reset conn, active={active}"
    );

    // The slot is reusable and responses still route correctly.
    let (status, health) = get_json(&addr, "/v1/healthz").expect("health after RST");
    assert_eq!(status, 200);
    assert_eq!(health.get("status").and_then(Json::as_str), Some("ok"));
    server.stop().expect("graceful stop");
}

#[test]
fn stalled_partial_request_gets_a_408_after_a_completed_response() {
    let server = spawn_server();
    let addr = server.addr().to_string();

    // One complete request followed by a dangling partial on the same
    // connection: the full request is answered, then the stalled tail
    // times out with a 408 and the connection closes.
    let mut stream = connect(&addr);
    let body = r#"{"design":"HighLight","a_sparsity":0.5,"b_sparsity":0.25}"#;
    let burst = format!(
        "POST /v1/evaluate HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}GET /v1/healthz HTTP/1.1\r\nHost",
        body.len()
    );
    stream.write_all(burst.as_bytes()).expect("write");
    let mut text = String::new();
    let _ = stream.read_to_string(&mut text);

    assert!(
        text.starts_with("HTTP/1.1 200"),
        "the complete request is answered first, got {text:?}"
    );
    assert!(
        text.contains("HTTP/1.1 408"),
        "the stalled partial times out with 408, got {text:?}"
    );
    drop(stream);

    let active = wait_active_at_most(&addr, 1.0);
    assert!(
        active <= 1.0,
        "slab must reclaim the timed-out conn, active={active}"
    );
    let (status, _) = get_json(&addr, "/v1/healthz").expect("health after 408");
    assert_eq!(status, 200);
    server.stop().expect("graceful stop");
}
