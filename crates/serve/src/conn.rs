//! One connection's state machine: its lifecycle [`Phase`], unparsed
//! bytes, in-order response slots and unwritten output. [`Conn::advance`]
//! is the only place the phase changes. The event loop in
//! [`crate::server`] calls in here to read, parse, write and time out;
//! the stream is a type parameter, so the tests drive this same code
//! over a scripted peer.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::time::{Duration, Instant};

use crate::epoll::Interest;
use crate::http::{parse_request, ParseError, ParseStatus, Request};
use crate::server::{PendingTrace, ServerConfig};

/// Most requests in flight per connection (pipelining backpressure).
const MAX_PIPELINE: usize = 32;

/// How long a lame duck drains client bytes before the fd is dropped.
const LAME_DUCK: Duration = Duration::from_millis(250);

/// Where a connection is in its life. A closed connection is an empty
/// slab slot, so it has no variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Reading, parsing and answering requests.
    Open,
    /// The peer half-closed: answer the complete requests already
    /// buffered, then close.
    PeerDone,
    /// Parse nothing more; once every answer is written, shut the write
    /// side and become a lame duck.
    Closing,
    /// The write side is shut; client bytes are discarded until EOF or
    /// this deadline, lest unread bytes turn the close into a RST.
    LameDuck(Instant),
}

/// What happened to a connection: the input of [`Conn::advance`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Cue {
    /// A read returned end of stream.
    Eof,
    /// Parse nothing more: `Connection: close`, a 400 or a 408.
    Stop,
    /// The server drains: close now if nothing is owed, else stop.
    Drain,
    /// The event loop has parsed and written all it can for now.
    Settled,
    /// The keep-alive idle or the lame-duck deadline passed.
    Expired,
}

/// What the event loop does with the socket after [`Conn::advance`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Next {
    Keep,
    /// Shut the write side: the connection became a lame duck.
    ShutWrite,
    /// Close it.
    Close,
}

/// One in-flight request's response slot; responses are written
/// strictly in `seq` order regardless of completion order.
struct Slot {
    seq: u64,
    /// The response bytes and the request's trace, once answered.
    answer: Option<(Vec<u8>, PendingTrace)>,
}

/// A connection's state machine over the stream `S`.
pub(crate) struct Conn<S> {
    pub(crate) stream: S,
    /// Generation stamp: answers for a closed connection whose slab slot
    /// was reused must not be written into the new one.
    pub(crate) gen: u64,
    phase: Phase,
    /// Unparsed request bytes.
    buf: Vec<u8>,
    /// In-flight requests, in arrival order.
    pending: VecDeque<Slot>,
    next_seq: u64,
    /// Serialized responses being written.
    out: Vec<u8>,
    out_pos: usize,
    last_activity: Instant,
    /// Responses moved to the output so far.
    pub(crate) served: u64,
    /// The readiness the poller watches for.
    pub(crate) interest: Interest,
    /// Cumulative bytes written: the watermark `traces` wait on.
    written_cum: u64,
    /// Answered traces waiting for their last byte to be written, keyed
    /// by the `written_cum` value that completes each one.
    traces: VecDeque<(u64, PendingTrace)>,
}

impl<S: Read + Write> Conn<S> {
    pub(crate) fn new(stream: S, gen: u64) -> Self {
        Self {
            stream,
            gen,
            phase: Phase::Open,
            buf: Vec::new(),
            pending: VecDeque::new(),
            next_seq: 0,
            out: Vec::new(),
            out_pos: 0,
            last_activity: Instant::now(),
            served: 0,
            interest: Interest::READ,
            written_cum: 0,
            traces: VecDeque::new(),
        }
    }

    /// The transition function. Stopping clears the buffer, so nothing
    /// after that point is ever parsed; a connection that owes nothing
    /// closes once the peer is done or the server drains, and lingers as
    /// a lame duck after its own last answer.
    pub(crate) fn advance(&mut self, cue: Cue) -> Next {
        let idle = self.pending.is_empty() && self.out_pos == self.out.len();
        if matches!(cue, Cue::Stop | Cue::Drain) {
            self.buf.clear();
        }
        let (phase, next) = match (cue, self.phase) {
            (Cue::Expired, _) | (Cue::Eof, Phase::LameDuck(_)) => return Next::Close,
            (Cue::Drain, _) | (Cue::Settled, Phase::PeerDone) if idle => return Next::Close,
            (Cue::Eof, _) => (Phase::PeerDone, Next::Keep),
            (Cue::Stop | Cue::Drain, Phase::Open) => (Phase::Closing, Next::Keep),
            (Cue::Settled, Phase::Closing) if idle => {
                (Phase::LameDuck(Instant::now() + LAME_DUCK), Next::ShutWrite)
            }
            (_, phase) => (phase, Next::Keep),
        };
        self.phase = phase;
        next
    }

    /// Reads until the stream would block. Bytes join the buffer while
    /// the connection is open and are discarded after; end of stream is
    /// [`Cue::Eof`]; a read error closes.
    pub(crate) fn fill(&mut self) -> Next {
        let mut chunk = [0u8; 4096];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => return self.advance(Cue::Eof),
                Ok(n) => {
                    if self.phase == Phase::Open {
                        // `read` never reports more bytes than the chunk.
                        self.buf.extend(chunk.iter().take(n));
                    }
                    self.last_activity = Instant::now();
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Next::Keep,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return Next::Close,
            }
        }
    }

    /// Takes the next complete request off the buffer, with its trace
    /// clock (when parsing began, and the parse span in µs), while the
    /// phase parses and the pipeline has room. `Connection: close` and a
    /// malformed request both stop parsing; the error comes back to be
    /// answered.
    pub(crate) fn next_request(&mut self) -> Option<Result<(Request, Instant, u64), ParseError>> {
        let parses = matches!(self.phase, Phase::Open | Phase::PeerDone);
        if !parses || self.pending.len() >= MAX_PIPELINE || self.buf.is_empty() {
            return None;
        }
        let t_start = Instant::now();
        let parsed = match parse_request(&self.buf) {
            ParseStatus::Incomplete => return None,
            ParseStatus::Complete(req, consumed) => {
                let parse_us = u64::try_from(t_start.elapsed().as_micros()).unwrap_or(u64::MAX);
                self.buf.drain(..consumed);
                Ok((req, t_start, parse_us))
            }
            ParseStatus::Bad(err) => Err(err),
        };
        if parsed.as_ref().map_or(true, |(req, ..)| !req.keep_alive()) {
            self.advance(Cue::Stop);
        }
        Some(parsed)
    }

    /// Opens the response slot of the next request and returns its
    /// sequence number.
    pub(crate) fn open_slot(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pending.push_back(Slot { seq, answer: None });
        seq
    }

    /// Fills slot `seq`. The trace comes back when the slot is gone.
    pub(crate) fn answer(
        &mut self,
        seq: u64,
        bytes: Vec<u8>,
        trace: PendingTrace,
    ) -> Option<PendingTrace> {
        match self.pending.iter_mut().find(|s| s.seq == seq) {
            Some(slot) => {
                slot.answer = Some((bytes, trace));
                None
            }
            None => Some(trace),
        }
    }

    /// Moves the answers that are next in order to the output and writes
    /// what the stream accepts, handing each trace to `record` once its
    /// response's last byte is written. True if any slot was retired; an
    /// error means the connection is lost.
    pub(crate) fn flush(&mut self, record: &mut impl FnMut(PendingTrace)) -> io::Result<bool> {
        let mut retired = false;
        while let Some((bytes, tr)) = self.pending.front_mut().and_then(|s| s.answer.take()) {
            self.pending.pop_front();
            self.out.extend_from_slice(&bytes);
            self.served += 1;
            retired = true;
            let target = self.written_cum + (self.out.len() - self.out_pos) as u64;
            self.traces.push_back((target, tr));
        }
        while let Some(unsent) = self.out.get(self.out_pos..).filter(|u| !u.is_empty()) {
            match self.stream.write(unsent) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.out_pos += n;
                    self.written_cum += n as u64;
                    self.last_activity = Instant::now();
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        while let Some((_, tr)) = self
            .traces
            .pop_front_if(|(target, _)| *target <= self.written_cum)
        {
            record(tr);
        }
        if self.out_pos == self.out.len() {
            self.out.clear();
            self.out_pos = 0;
        }
        Ok(retired)
    }

    /// The deadline this connection waits on, with the cue it brings: a
    /// lame duck's end, or, for an open connection that owes nothing,
    /// the keep-alive idle close or (with a partial request buffered)
    /// that request's 408.
    pub(crate) fn deadline(&self, config: &ServerConfig) -> Option<(Instant, Cue)> {
        match self.phase {
            Phase::LameDuck(at) => Some((at, Cue::Expired)),
            Phase::Open if self.pending.is_empty() && self.out_pos == self.out.len() => {
                Some(if self.buf.is_empty() {
                    (self.last_activity + config.idle_timeout, Cue::Expired)
                } else {
                    (self.last_activity + config.request_timeout, Cue::Stop)
                })
            }
            _ => None,
        }
    }

    /// The readiness this connection waits for: reads while it parses
    /// and the pipeline has room, or while it drains as a lame duck;
    /// writes while output is unsent.
    pub(crate) fn wants(&self) -> Interest {
        Interest {
            readable: match self.phase {
                Phase::Open => self.pending.len() < MAX_PIPELINE,
                Phase::LameDuck(_) => true,
                Phase::PeerDone | Phase::Closing => false,
            },
            writable: self.out_pos < self.out.len(),
        }
    }

    /// The traces a closing connection still owes a record: answers not
    /// fully written, and answers filled behind an unanswered slot. An
    /// unanswered slot is recorded when its answer arrives.
    pub(crate) fn into_unrecorded(self) -> impl Iterator<Item = PendingTrace> {
        let unretired = self.pending.into_iter().filter_map(|s| s.answer);
        let unwritten = self.traces.into_iter().map(|(_, tr)| tr);
        unwritten.chain(unretired.map(|(_, tr)| tr))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Route;
    use proptest::prelude::*;

    /// What the scripted peer does on one read.
    #[derive(Debug)]
    enum Step {
        Bytes(Vec<u8>),
        /// The read would block: the event loop goes back to the poller.
        Gap,
        Eof,
    }

    /// A peer that replays a script to the connection's reads and keeps
    /// what the connection writes. A peer that closed fully refuses
    /// every write once its EOF has been read; one that half-closed
    /// keeps reading. Writes block now and then, on a seeded schedule.
    struct Peer {
        script: VecDeque<Step>,
        written: Vec<u8>,
        full_close: bool,
        eof_read: bool,
        shut_write: bool,
        rng: u64,
    }

    impl Read for Peer {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            match self.script.pop_front() {
                Some(Step::Bytes(mut bytes)) => {
                    let n = bytes.len().min(buf.len());
                    buf[..n].copy_from_slice(&bytes[..n]);
                    if n < bytes.len() {
                        self.script.push_front(Step::Bytes(bytes.split_off(n)));
                    }
                    Ok(n)
                }
                Some(Step::Gap) => Err(io::ErrorKind::WouldBlock.into()),
                Some(Step::Eof) | None => {
                    self.eof_read = true;
                    Ok(0)
                }
            }
        }
    }

    impl Write for Peer {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            assert!(!self.shut_write, "write after the write side was shut");
            if self.full_close && self.eof_read {
                return Err(io::ErrorKind::BrokenPipe.into());
            }
            if next(&mut self.rng).is_multiple_of(4) {
                return Err(io::ErrorKind::WouldBlock.into());
            }
            let n = buf.len().min(1 + (next(&mut self.rng) % 64) as usize);
            self.written.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// splitmix64.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Request `i` (its index in the query): a GET, or a POST with a
    /// body, optionally asking to close the connection after it.
    fn request(i: usize, close: bool) -> Vec<u8> {
        let close = if close { "Connection: close\r\n" } else { "" };
        let text = if i % 3 == 2 {
            format!("POST /v1/evaluate?i={i} HTTP/1.1\r\n{close}Content-Length: 2\r\n\r\n{{}}")
        } else {
            format!("GET /v1/healthz?i={i} HTTP/1.1\r\nHost: x\r\n{close}\r\n")
        };
        text.into_bytes()
    }

    /// Answers slot `seq` with request `i`'s response; the trace comes
    /// back if the slot is gone.
    fn reply(conn: &mut Conn<Peer>, seq: u64, i: usize) -> Option<PendingTrace> {
        let response = format!("HTTP/1.1 200 OK\r\nX-I: {i}\r\n\r\n").into_bytes();
        let trace = PendingTrace::new(String::new(), Route::Healthz, Instant::now(), 0);
        conn.answer(seq, response, trace)
    }

    /// What one scripted connection came to.
    struct Run {
        dispatched: Vec<usize>,
        recorded: usize,
        written: Vec<u8>,
    }

    /// Drives `conn` the way the event loop does until it closes: read
    /// while it wants to, dispatch what it parses (answered at once, or
    /// on the next turn as a worker would), write, settle, and act on
    /// what the transitions say. Answers that arrive after the close are
    /// recorded as the loop records them, as they stand.
    fn drive(mut conn: Conn<Peer>, rng: &mut u64) -> Run {
        let (mut dispatched, mut recorded) = (Vec::new(), 0);
        let mut owed: Vec<(u64, usize)> = Vec::new();
        let mut turns = 0;
        loop {
            turns += 1;
            assert!(turns < 10_000, "the connection never closed");
            for (seq, i) in owed.drain(..) {
                recorded += usize::from(reply(&mut conn, seq, i).is_some());
            }
            if conn.wants().readable && conn.fill() == Next::Close {
                break;
            }
            let next = loop {
                let mut parsed = false;
                while let Some(request) = conn.next_request() {
                    let (req, ..) = request.expect("every scripted request is well formed");
                    let i: usize = req.query.trim_start_matches("i=").parse().unwrap();
                    dispatched.push(i);
                    parsed = true;
                    let seq = conn.open_slot();
                    if next(rng).is_multiple_of(2) {
                        assert!(reply(&mut conn, seq, i).is_none());
                    } else {
                        owed.push((seq, i));
                    }
                }
                match conn.flush(&mut |_| recorded += 1) {
                    Ok(flushed) if flushed || parsed => {}
                    Ok(_) => break conn.advance(Cue::Settled),
                    Err(_) => break Next::Close,
                }
            };
            match next {
                Next::Close => break,
                Next::ShutWrite => conn.stream.shut_write = true,
                Next::Keep => {}
            }
        }
        let written = std::mem::take(&mut conn.stream.written);
        recorded += conn.into_unrecorded().count() + owed.len();
        Run {
            dispatched,
            recorded,
            written,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Every complete request the peer sends before its EOF, up to
        /// and including the first `Connection: close`, is dispatched
        /// once and recorded once, whatever the chunking, the EOF
        /// offset and the blocking gaps; a peer that only half-closed
        /// reads every answer, in request order.
        #[test]
        fn every_complete_request_gets_one_answer_and_one_record(seed in any::<u64>()) {
            let mut rng = seed;
            let n = 1 + (next(&mut rng) % 40) as usize;
            let close_at = next(&mut rng)
                .is_multiple_of(3)
                .then(|| (next(&mut rng) as usize) % n);
            let mut bytes = Vec::new();
            let mut ends = Vec::new();
            for i in 0..n {
                bytes.extend(request(i, close_at == Some(i)));
                ends.push(bytes.len());
            }
            // EOF anywhere, with extra weight on "after the last byte".
            let eof_at = if next(&mut rng).is_multiple_of(2) {
                bytes.len()
            } else {
                (next(&mut rng) as usize) % (bytes.len() + 1)
            };
            let mut script = VecDeque::new();
            let mut at = 0;
            while at < eof_at {
                let len = (1 + (next(&mut rng) % 96) as usize).min(eof_at - at);
                script.push_back(Step::Bytes(bytes[at..at + len].to_vec()));
                at += len;
                if next(&mut rng).is_multiple_of(3) {
                    script.push_back(Step::Gap);
                }
            }
            script.push_back(Step::Eof);
            let full_close = next(&mut rng).is_multiple_of(4);
            let peer = Peer {
                script,
                written: Vec::new(),
                full_close,
                eof_read: false,
                shut_write: false,
                rng: next(&mut rng),
            };

            let complete = ends.iter().take_while(|&&end| end <= eof_at).count();
            let expected = close_at.map_or(complete, |c| complete.min(c + 1));
            let run = drive(Conn::new(peer, 1), &mut rng);
            prop_assert_eq!(&run.dispatched, &(0..expected).collect::<Vec<_>>());
            prop_assert_eq!(run.recorded, expected);
            let text = String::from_utf8(run.written).unwrap();
            // Whole responses only: a fully closed peer may cut the last.
            let answered: Vec<usize> = text
                .split("X-I: ")
                .skip(1)
                .filter_map(|rest| rest.split_once("\r\n\r\n"))
                .map(|(i, _)| i.parse().unwrap())
                .collect();
            prop_assert!(answered.len() <= expected);
            prop_assert_eq!(&answered[..], &run.dispatched[..answered.len()]);
            if !full_close {
                prop_assert!(answered.len() == expected, "{text}");
            }
        }
    }

    /// Every row of the lifecycle table: from a phase, on a cue, with or
    /// without an answer owed, to the next phase (`None`: closed).
    #[test]
    fn advance_follows_the_lifecycle_table() {
        use std::mem::discriminant;
        let lame = Phase::LameDuck(Instant::now());
        let (open, done, closing) = (Phase::Open, Phase::PeerDone, Phase::Closing);
        let rows = [
            (open, Cue::Eof, false, Some(done), Next::Keep),
            (open, Cue::Stop, true, Some(closing), Next::Keep),
            (open, Cue::Drain, false, None, Next::Close),
            (open, Cue::Drain, true, Some(closing), Next::Keep),
            (open, Cue::Settled, false, Some(open), Next::Keep),
            (open, Cue::Expired, false, None, Next::Close),
            (done, Cue::Eof, true, Some(done), Next::Keep),
            (done, Cue::Stop, true, Some(done), Next::Keep),
            (done, Cue::Settled, true, Some(done), Next::Keep),
            (done, Cue::Settled, false, None, Next::Close),
            (done, Cue::Drain, true, Some(done), Next::Keep),
            (closing, Cue::Eof, true, Some(done), Next::Keep),
            (closing, Cue::Settled, true, Some(closing), Next::Keep),
            (closing, Cue::Settled, false, Some(lame), Next::ShutWrite),
            (closing, Cue::Drain, false, None, Next::Close),
            (lame, Cue::Settled, false, Some(lame), Next::Keep),
            (lame, Cue::Eof, false, None, Next::Close),
            (lame, Cue::Expired, false, None, Next::Close),
        ];
        for (from, cue, owes, to, next) in rows {
            let peer = Peer {
                script: VecDeque::new(),
                written: Vec::new(),
                full_close: false,
                eof_read: false,
                shut_write: false,
                rng: 0,
            };
            let mut conn = Conn::new(peer, 1);
            conn.phase = from;
            conn.buf.extend_from_slice(b"GET /");
            if owes {
                conn.open_slot();
            }
            let row = format!("{from:?} on {cue:?}, owing {owes}");
            assert_eq!(conn.advance(cue), next, "{row}");
            if let Some(to) = to {
                assert_eq!(discriminant(&conn.phase), discriminant(&to), "{row}");
            }
            // Only stopping or draining drops the buffered bytes.
            let cleared = matches!(cue, Cue::Stop | Cue::Drain);
            assert_eq!(conn.buf.is_empty(), cleared, "{row}");
        }
    }
}
