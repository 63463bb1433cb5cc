//! The open-loop load generator of `live-serve`: one thread that streams
//! CSV tuples to the program's ingest socket at a fixed rate and sends a
//! fixed-rate mix of `/project`, `/score` and `/topk` over 2 keep-alive
//! HTTP connections, whatever the program does. Every event has a due
//! time; latency is timed from it and lateness is recorded.

use crate::stats::Schedule;
use crate::sys::{poll_fds, PollFd, POLLIN, POLLOUT};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::AsRawFd;
use std::time::{Duration, Instant};

/// HTTP keep-alive connections the queries share.
const CONNECTIONS: usize = 2;
/// Ingest writes happen at most this often (all tuples due by then).
const INGEST_TICK: Duration = Duration::from_millis(1);
/// Longest wait for the first successful query.
const FIRST_OK_LIMIT: Duration = Duration::from_secs(60);
/// Longest wait for in-flight queries after the run stops.
const DRAIN_LIMIT: Duration = Duration::from_secs(5);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Project,
    Score,
    TopK,
}

impl Kind {
    fn path(self) -> &'static str {
        match self {
            Kind::Project => "/project",
            Kind::Score => "/score",
            Kind::TopK => "/topk?k=4",
        }
    }
}

/// What to send, how fast, and for how long.
pub struct Plan<'a> {
    /// CSV lines (with newline); tuple `i` is `lines[i % lines.len()]`.
    pub lines: &'a [Vec<u8>],
    pub ingest_per_s: f64,
    /// CSV request bodies; query `j` uses `bodies[j % bodies.len()]`.
    pub bodies: &'a [Vec<u8>],
    pub queries_per_s: f64,
    /// Time between the first successful query and the steady window.
    pub warmup: Duration,
    /// Steady window; zero stops at the first successful query.
    pub steady: Duration,
}

/// One query and what came of it.
#[derive(Debug, Clone)]
pub struct Query {
    pub kind: Kind,
    pub body: usize,
    pub due: Instant,
    pub sent: Option<Instant>,
    pub done: Option<Instant>,
    /// HTTP status; 0 when no response arrived.
    pub status: u16,
    pub epoch: Option<u64>,
    /// `/project` coefficients as answered.
    pub answer: Vec<f64>,
}

pub struct Outcome {
    pub ingest: Schedule,
    pub tuples_sent: u64,
    pub first_ok: Option<Instant>,
    pub window: Option<(Instant, Instant)>,
    /// Lateness of each ingest write (its first tuple's due time to the
    /// write), ms.
    pub ingest_late_ms: Vec<f64>,
    pub queries: Vec<Query>,
}

/// Callbacks at the steady window's edges and on each `/project` sent.
pub trait Observer {
    fn window_start(&mut self) {}
    fn window_end(&mut self) {}
    fn project_sent(&mut self) {}
}

impl Observer for () {}

struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    inflight: Option<usize>,
}

impl Conn {
    fn open(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Conn {
            stream,
            buf: Vec::new(),
            inflight: None,
        })
    }
}

/// A complete response at the head of `buf`: (status, epoch, body, length).
fn parse_response(buf: &[u8]) -> Option<(u16, Option<u64>, &[u8], usize)> {
    let head_end = buf.windows(4).position(|w| w == b"\r\n\r\n")? + 4;
    let head = std::str::from_utf8(&buf[..head_end]).ok()?;
    let mut lines = head.split("\r\n");
    let status = lines.next()?.split(' ').nth(1)?.parse().ok()?;
    let (mut len, mut epoch) = (0usize, None);
    for l in lines {
        if let Some((k, v)) = l.split_once(':') {
            if k.eq_ignore_ascii_case("content-length") {
                len = v.trim().parse().ok()?;
            } else if k.eq_ignore_ascii_case("x-epoch") {
                epoch = v.trim().parse().ok();
            }
        }
    }
    if buf.len() < head_end + len {
        return None;
    }
    Some((
        status,
        epoch,
        &buf[head_end..head_end + len],
        head_end + len,
    ))
}

fn send(c: &mut Conn, q: &Query, body: &[u8]) -> io::Result<()> {
    let mut req = format!(
        "POST {} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n",
        q.kind.path(),
        body.len()
    )
    .into_bytes();
    req.extend_from_slice(body);
    // One request in flight per connection, so the send buffer is empty
    // and the write completes at once; spin on the rare short write.
    let mut off = 0;
    while off < req.len() {
        match c.stream.write(&req[off..]) {
            Ok(n) => off += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => std::hint::spin_loop(),
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Reads what `c` has; completes its in-flight query when the response
/// is whole. A closed connection fails the query and is reopened.
fn receive(c: &mut Conn, queries: &mut [Query], addr: SocketAddr) -> io::Result<()> {
    let mut chunk = [0u8; 16 * 1024];
    loop {
        match c.stream.read(&mut chunk) {
            Ok(0) => {
                if let Some(i) = c.inflight.take() {
                    queries[i].done = Some(Instant::now());
                }
                *c = Conn::open(addr)?;
                return Ok(());
            }
            Ok(n) => c.buf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let Some((status, epoch, body, used)) = parse_response(&c.buf) else {
        return Ok(());
    };
    if let Some(i) = c.inflight.take() {
        let q = &mut queries[i];
        q.done = Some(Instant::now());
        q.status = status;
        q.epoch = epoch;
        if q.kind == Kind::Project && status == 200 {
            q.answer = std::str::from_utf8(body)
                .unwrap_or("")
                .trim()
                .split(',')
                .filter_map(|t| t.parse().ok())
                .collect();
        }
    }
    c.buf.drain(..used);
    Ok(())
}

/// Collects the answers each connection has and sends the next queued
/// query on every free one.
fn exchange(
    conns: &mut [Conn],
    pending: &mut VecDeque<usize>,
    queries: &mut [Query],
    plan: &Plan,
    http: SocketAddr,
    obs: &mut dyn Observer,
) -> io::Result<()> {
    for c in conns.iter_mut() {
        receive(c, queries, http)?;
        if c.inflight.is_none() {
            if let Some(j) = pending.pop_front() {
                let q = &mut queries[j];
                if q.kind == Kind::Project {
                    obs.project_sent();
                }
                q.sent = Some(Instant::now());
                send(c, q, &plan.bodies[q.body])?;
                c.inflight = Some(j);
            }
        }
    }
    Ok(())
}

/// Runs the plan against an ingest socket and an HTTP address.
pub fn run(
    mut ingest: TcpStream,
    http: SocketAddr,
    plan: &Plan,
    obs: &mut dyn Observer,
) -> io::Result<(Outcome, TcpStream)> {
    ingest.set_nodelay(true)?;
    ingest.set_nonblocking(true)?;
    let mut conns: Vec<Conn> = (0..CONNECTIONS)
        .map(|_| Conn::open(http))
        .collect::<io::Result<_>>()?;
    let start = Instant::now();
    let ingest_s = Schedule {
        start,
        rate_per_s: plan.ingest_per_s,
    };
    let query_s = Schedule {
        start,
        rate_per_s: plan.queries_per_s,
    };
    let mut out = Outcome {
        ingest: ingest_s,
        tuples_sent: 0,
        first_ok: None,
        window: None,
        ingest_late_ms: Vec::new(),
        queries: Vec::new(),
    };
    let (mut outbuf, mut out_off) = (Vec::<u8>::new(), 0usize);
    let mut last_write = start;
    let mut pending: VecDeque<usize> = VecDeque::new();
    let (mut stop_at, mut window_open) = (None::<Instant>, false);
    loop {
        let now = Instant::now();
        if out.first_ok.is_none() && now - start > FIRST_OK_LIMIT {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "no query answered 200",
            ));
        }
        if let (Some(first), None) = (out.first_ok, stop_at) {
            stop_at = Some(first + plan.warmup + plan.steady);
            if !plan.steady.is_zero() {
                out.window = Some((first + plan.warmup, first + plan.warmup + plan.steady));
            }
        }
        if let Some((w0, w1)) = out.window {
            if !window_open && now >= w0 {
                window_open = true;
                obs.window_start();
            }
            if now >= w1 {
                obs.window_end();
            }
        }
        if stop_at.is_some_and(|s| now >= s) {
            break;
        }

        // Ingest: everything due, at most once per tick.
        if out_off == outbuf.len() && now >= last_write + INGEST_TICK {
            let due = ingest_s.due_count(now);
            if due > out.tuples_sent {
                out.ingest_late_ms
                    .push(ingest_s.lateness(out.tuples_sent, now).as_secs_f64() * 1e3);
                outbuf.clear();
                out_off = 0;
                for i in out.tuples_sent..due {
                    outbuf.extend_from_slice(&plan.lines[i as usize % plan.lines.len()]);
                }
                out.tuples_sent = due;
                last_write = now;
            }
        }
        while out_off < outbuf.len() {
            match ingest.write(&outbuf[out_off..]) {
                Ok(n) => out_off += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) => return Err(e),
            }
        }

        // Queries: everything due joins the queue; free connections send.
        let due_q = query_s.due_count(now);
        while (out.queries.len() as u64) < due_q {
            let j = out.queries.len();
            out.queries.push(Query {
                kind: [Kind::Project, Kind::Score, Kind::TopK][j % 3],
                body: j % plan.bodies.len(),
                due: query_s.due(j as u64),
                sent: None,
                done: None,
                status: 0,
                epoch: None,
                answer: Vec::new(),
            });
            pending.push_back(j);
        }
        exchange(&mut conns, &mut pending, &mut out.queries, plan, http, obs)?;
        if out.first_ok.is_none() {
            out.first_ok = out
                .queries
                .iter()
                .filter(|q| q.status == 200)
                .filter_map(|q| q.done)
                .min();
        }

        // Sleep until the next due event or socket readiness.
        let mut wake = query_s.due(out.queries.len() as u64);
        if out_off == outbuf.len() {
            wake = wake.min((last_write + INGEST_TICK).max(ingest_s.due(out.tuples_sent)));
        }
        if let Some(s) = stop_at {
            wake = wake.min(s);
        }
        let mut fds: Vec<PollFd> = conns
            .iter()
            .filter(|c| c.inflight.is_some())
            .map(|c| PollFd {
                fd: c.stream.as_raw_fd(),
                events: POLLIN,
                revents: 0,
            })
            .collect();
        if out_off < outbuf.len() {
            fds.push(PollFd {
                fd: ingest.as_raw_fd(),
                events: POLLOUT,
                revents: 0,
            });
        }
        poll_fds(&mut fds, wake.saturating_duration_since(Instant::now()))?;
    }

    // Queries already due still go out; then every answer is awaited.
    let drain = Instant::now();
    while (conns.iter().any(|c| c.inflight.is_some()) || !pending.is_empty())
        && drain.elapsed() < DRAIN_LIMIT
    {
        exchange(&mut conns, &mut pending, &mut out.queries, plan, http, obs)?;
        std::thread::sleep(Duration::from_micros(200));
    }
    ingest.set_nonblocking(false)?;
    ingest.write_all(&outbuf[out_off..])?;
    Ok((out, ingest))
}

/// `GET path` on a fresh connection; the response body.
pub fn get(http: SocketAddr, path: &str) -> io::Result<String> {
    let mut s = TcpStream::connect(http)?;
    s.set_read_timeout(Some(Duration::from_secs(5)))?;
    write!(
        s,
        "GET {path} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n"
    )?;
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        let n = s.read(&mut chunk)?;
        if n == 0 {
            break;
        }
        buf.extend_from_slice(&chunk[..n]);
        if let Some((_, _, body, _)) = parse_response(&buf) {
            return Ok(String::from_utf8_lossy(body).to_string());
        }
    }
    Err(io::Error::new(
        io::ErrorKind::UnexpectedEof,
        "short response",
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn responses_parse_only_when_whole() {
        let full = b"HTTP/1.1 200 OK\r\nContent-Type: text/csv\r\nX-Epoch: 17\r\nContent-Length: 8\r\n\r\n0.5,-1.5HTTP/1.1";
        let (status, epoch, body, used) = parse_response(full).unwrap();
        assert_eq!((status, epoch, body), (200, Some(17), &b"0.5,-1.5"[..]));
        assert_eq!(&full[used..], b"HTTP/1.1");
        assert!(parse_response(&full[..full.len() - 10]).is_none());
        let busy = b"HTTP/1.1 503 Service Unavailable\r\nContent-Length: 0\r\n\r\n";
        assert_eq!(parse_response(busy).unwrap().0, 503);
    }
}
