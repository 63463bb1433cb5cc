//! Socket-backed cross-PE links: the real TCP transport behind graph
//! edges that cross a process boundary.
//!
//! In a single process, a cross-PE edge is a bounded crossbeam channel of
//! pooled [`Frame`]s. When the producing and consuming PEs live in
//! different OS processes, the same channel machinery is kept on both
//! sides and a [`NetTransport`] bridges them over TCP:
//!
//! ```text
//!   producer PE ──channel──▶ sender thread ══TCP══▶ conn thread ──channel──▶ consumer PE
//! ```
//!
//! The wire protocol is deliberately tiny (five message kinds, all
//! little-endian):
//!
//! * `HELLO`  — `"SPCH"` + version byte + `u64` link id; sender → receiver
//!   immediately after connecting (or reconnecting).
//! * `RESUME` — `"SPCR"` + `u64` delivered-entry count; receiver → sender
//!   in reply to `HELLO`. Tells the sender where to resume.
//! * `DATA`   — `"SPCD"` + `u64` start-entry count, followed by one
//!   [`codec`](crate::codec) frame. `start` is the cumulative number of
//!   entries shipped on this link before the frame, so both ends can trim
//!   duplicates after a retransmission.
//! * `ACK`    — `"SPCA"` + `u64` cumulative acknowledged entry count;
//!   receiver → sender. The sender prunes its retransmit queue up to this
//!   point. In [`AckMode::Stable`] the acknowledged count only advances
//!   when the consuming PE checkpoints, so everything since the last
//!   durable checkpoint stays retransmittable across a process kill.
//! * `GOODBYE` — `"SPCG"`; sender → receiver once the producing side has
//!   drained *and* every entry is acknowledged. Closes the link cleanly.
//!
//! **Exactly-once:** every entry (data, control, or punctuation) on a link
//! has a position in a single per-link sequence. The receiver tracks
//! `delivered`, drops the duplicate prefix of any retransmitted frame, and
//! never advances `delivered` on a partially-read or corrupt frame (the
//! codec CRC check runs before any copy). The sender keeps encoded frames
//! queued until acknowledged and replays the tail after a reconnect.
//! Together these make redelivery idempotent: a dropped connection — or a
//! killed and respawned worker process — yields the same delivered tuple
//! sequence as a fault-free run.
//!
//! **Reconnect:** the sender owns connection establishment and retries
//! with capped exponential backoff; the receiver simply keeps accepting.
//! Wire faults from the fault grammar (`net-drop-conn@link:N`,
//! `net-partial-write@link:N`) are injected in the sender's socket shim,
//! the way [`FaultVfs`](crate::vfs::FaultVfs) wraps storage writes.

use crate::codec::{decode_frame, encode_frame, frame_len, ColumnarFrame, HEADER_LEN};
use crate::tuple::{Frame, FramePool};
use crossbeam::channel::{Receiver, Sender, TryRecvError};
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::io::{self, IoSlice, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Wire-protocol version carried in every `HELLO`.
pub const WIRE_VERSION: u8 = 1;

const TAG_HELLO: [u8; 4] = *b"SPCH";
const TAG_RESUME: [u8; 4] = *b"SPCR";
const TAG_DATA: [u8; 4] = *b"SPCD";
const TAG_ACK: [u8; 4] = *b"SPCA";
const TAG_GOODBYE: [u8; 4] = *b"SPCG";

/// Socket read poll interval: blocking reads time out this often so the
/// thread can notice the stop flag and flush lagging stable acks.
const READ_TICK: Duration = Duration::from_millis(50);
/// How long [`NetTransport::shutdown`] lets senders finish their clean
/// close (final ack round trip + `GOODBYE`) before aborting them.
const DRAIN_GRACE: Duration = Duration::from_secs(2);
/// First reconnect backoff; doubles up to [`BACKOFF_CAP`].
const BACKOFF_START: Duration = Duration::from_millis(25);
/// Reconnect backoff ceiling.
const BACKOFF_CAP: Duration = Duration::from_secs(1);
/// Handshake deadline: a peer that accepts but never completes the
/// `HELLO`/`RESUME` exchange within this window is treated as dead.
const HANDSHAKE_DEADLINE: Duration = Duration::from_secs(10);
/// Encoded-frame buffers recycled per sender (steady state allocates none).
const SPARE_ENCODE_BUFS: usize = 8;

/// Deterministic wire faults, compiled from the fault grammar
/// (`net-drop-conn@link:N`, `net-partial-write@link:N`). Indices are
/// 1-based counts of frame writes per link; each fires at most once
/// because the per-link write counter is monotone.
#[derive(Debug, Default, Clone)]
pub struct WireFaultSpec {
    /// Frame-write indices at which the connection is dropped instead of
    /// writing the frame.
    pub drop_conn: Vec<u64>,
    /// Frame-write indices at which only half the frame's bytes are
    /// written before the connection is dropped.
    pub partial_write: Vec<u64>,
}

impl WireFaultSpec {
    /// True when the spec injects nothing.
    pub fn is_empty(&self) -> bool {
        self.drop_conn.is_empty() && self.partial_write.is_empty()
    }
}

/// How the receiving side acknowledges delivered entries.
#[derive(Clone)]
pub enum AckMode {
    /// Acknowledge on receipt (the entry was forwarded into the consuming
    /// PE's channel). Used when the consumer does not checkpoint: a
    /// process kill loses state anyway, so receipt is as good as stable.
    Receipt,
    /// Acknowledge only up to the given checkpoint-stable routed count.
    /// The engine stores the per-link routed count in the PE manifest and
    /// advances this counter after each successful checkpoint, so the
    /// sender retains everything since the last durable state.
    Stable(Arc<AtomicU64>),
}

impl std::fmt::Debug for AckMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AckMode::Receipt => write!(f, "Receipt"),
            AckMode::Stable(v) => write!(f, "Stable({})", v.load(Ordering::Relaxed)),
        }
    }
}

/// Receiving side of one boundary link.
struct Incoming {
    /// Channel into the consuming PE; taken (and thereby disconnected)
    /// on `GOODBYE`.
    tx: Mutex<Option<Sender<Frame>>>,
    pool: Arc<FramePool>,
    inflight: Arc<AtomicUsize>,
    /// Entries forwarded into the channel so far (the `RESUME` point).
    delivered: Arc<AtomicU64>,
    ack: AckMode,
    /// At most one connection drives a link at a time; a reconnect waits
    /// for the previous connection's thread to notice the broken socket.
    busy: AtomicBool,
}

/// Sending side of one boundary link, consumed by [`NetTransport::start`].
struct Outgoing {
    link_id: u64,
    rx: Receiver<Frame>,
    pool: Arc<FramePool>,
    inflight: Arc<AtomicUsize>,
    peer: SocketAddr,
}

/// The per-process TCP transport: one listener for all incoming boundary
/// links plus one sender thread per outgoing boundary link.
///
/// Construction order: [`bind`](NetTransport::bind) early (so the local
/// address can be exchanged), register links while wiring the engine
/// graph, then [`start`](NetTransport::start).
/// [`shutdown`](NetTransport::shutdown) reaps every thread; it is idempotent.
pub struct NetTransport {
    listener: TcpListener,
    local: SocketAddr,
    stop: Arc<AtomicBool>,
    incoming: Mutex<HashMap<u64, Arc<Incoming>>>,
    outgoing: Mutex<Vec<Outgoing>>,
    faults: Mutex<Option<Arc<WireFaultSpec>>>,
    handles: Mutex<Vec<JoinHandle<()>>>,
    sender_handles: Mutex<Vec<JoinHandle<()>>>,
    conn_handles: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl std::fmt::Debug for NetTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "NetTransport({})", self.local)
    }
}

impl NetTransport {
    /// Binds the data listener. `addr` may use port 0 for an ephemeral
    /// port; [`local_addr`](NetTransport::local_addr) reports the actual
    /// one for address exchange.
    pub fn bind(addr: &str) -> io::Result<Arc<NetTransport>> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        Ok(Arc::new(NetTransport {
            listener,
            local,
            stop: Arc::new(AtomicBool::new(false)),
            incoming: Mutex::new(HashMap::new()),
            outgoing: Mutex::new(Vec::new()),
            faults: Mutex::new(None),
            handles: Mutex::new(Vec::new()),
            sender_handles: Mutex::new(Vec::new()),
            conn_handles: Arc::new(Mutex::new(Vec::new())),
        }))
    }

    /// The bound data address.
    pub fn local_addr(&self) -> SocketAddr {
        self.local
    }

    /// Installs deterministic wire faults on every sender shim.
    pub fn set_faults(&self, spec: WireFaultSpec) {
        if !spec.is_empty() {
            *self.faults.lock() = Some(Arc::new(spec));
        }
    }

    /// Registers the receiving end of boundary link `link_id`: decoded
    /// frames are forwarded into `tx` using buffers from `pool`, with
    /// `inflight` incremented per forwarded entry (the consuming PE's
    /// `ChanMeta` decrements it). Returns the `delivered` counter so the
    /// engine can pre-set it when rehydrating from a checkpoint manifest.
    pub fn add_incoming(
        &self,
        link_id: u64,
        tx: Sender<Frame>,
        pool: Arc<FramePool>,
        inflight: Arc<AtomicUsize>,
        ack: AckMode,
    ) -> Arc<AtomicU64> {
        let delivered = Arc::new(AtomicU64::new(0));
        self.incoming.lock().insert(
            link_id,
            Arc::new(Incoming {
                tx: Mutex::new(Some(tx)),
                pool,
                inflight,
                delivered: Arc::clone(&delivered),
                ack,
                busy: AtomicBool::new(false),
            }),
        );
        delivered
    }

    /// Registers the sending end of boundary link `link_id`: frames from
    /// `rx` are encoded and shipped to `peer`, spent tuple buffers are
    /// recycled through `pool`, and `inflight` is decremented per entry as
    /// it leaves the channel.
    pub fn add_outgoing(
        &self,
        link_id: u64,
        rx: Receiver<Frame>,
        pool: Arc<FramePool>,
        inflight: Arc<AtomicUsize>,
        peer: SocketAddr,
    ) {
        self.outgoing.lock().push(Outgoing {
            link_id,
            rx,
            pool,
            inflight,
            peer,
        });
    }

    /// Spawns the acceptor and one sender thread per registered outgoing
    /// link. Call after every link is registered.
    pub fn start(self: &Arc<Self>) {
        let mut handles = self.handles.lock();
        let me = Arc::clone(self);
        handles.push(
            thread::Builder::new()
                .name("spca-net-accept".into())
                .spawn(move || me.accept_loop())
                .expect("spawn acceptor"),
        );
        drop(handles);
        let faults = self.faults.lock().clone();
        let mut senders = self.sender_handles.lock();
        for link in self.outgoing.lock().drain(..) {
            let stop = Arc::clone(&self.stop);
            let spec = faults.clone();
            senders.push(
                thread::Builder::new()
                    .name(format!("spca-net-send-{}", link.link_id))
                    .spawn(move || run_sender(link, stop, spec))
                    .expect("spawn sender"),
            );
        }
    }

    /// Stops the acceptor, reaps every transport thread, and returns.
    ///
    /// Senders first get a short grace period to finish their clean close
    /// — the producing PE has already exited by the time this runs, so
    /// all that remains is the final ack round trip and `GOODBYE`. A
    /// sender that still holds unacknowledged frames for an unreachable
    /// peer after the grace gives up (with a note on stderr) rather than
    /// hang.
    pub fn shutdown(&self) {
        let deadline = Instant::now() + DRAIN_GRACE;
        while !self.sender_handles.lock().iter().all(|h| h.is_finished()) {
            if Instant::now() >= deadline {
                break;
            }
            thread::sleep(Duration::from_millis(5));
        }
        self.stop.store(true, Ordering::SeqCst);
        let senders: Vec<_> = self.sender_handles.lock().drain(..).collect();
        for h in senders {
            let _ = h.join();
        }
        let handles: Vec<_> = self.handles.lock().drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
        let conns: Vec<_> = self.conn_handles.lock().drain(..).collect();
        for h in conns {
            let _ = h.join();
        }
    }

    fn accept_loop(self: Arc<Self>) {
        while !self.stop.load(Ordering::Relaxed) {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    let me = Arc::clone(&self);
                    let h = thread::Builder::new()
                        .name("spca-net-recv".into())
                        .spawn(move || me.handle_conn(stream))
                        .expect("spawn receiver");
                    self.conn_handles.lock().push(h);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    thread::sleep(Duration::from_millis(10));
                }
                Err(_) => thread::sleep(Duration::from_millis(10)),
            }
        }
    }

    /// Drives one accepted connection: `HELLO` → `RESUME`, then `DATA`
    /// frames (decoded, duplicate-trimmed, forwarded, acknowledged) until
    /// `GOODBYE`, EOF, or a socket/codec error. Errors never advance the
    /// delivered count — the sender retransmits on its next connection.
    fn handle_conn(self: Arc<Self>, mut s: TcpStream) {
        let stop = Arc::clone(&self.stop);
        let _ = s.set_nodelay(true);
        let _ = s.set_read_timeout(Some(READ_TICK));

        // HELLO: magic + version + link id.
        let mut hello = [0u8; 13];
        if read_full(&mut s, &mut hello, &stop).is_err() {
            return;
        }
        if hello[..4] != TAG_HELLO || hello[4] != WIRE_VERSION {
            return;
        }
        let link_id = u64::from_le_bytes(hello[5..13].try_into().expect("8 bytes"));
        let Some(link) = self.incoming.lock().get(&link_id).map(Arc::clone) else {
            return; // Unknown link: refuse by closing.
        };

        // One connection at a time per link; a stale predecessor notices
        // its dead socket within a read tick.
        let t0 = Instant::now();
        while link
            .busy
            .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
            .is_err()
        {
            if stop.load(Ordering::Relaxed) || t0.elapsed() > HANDSHAKE_DEADLINE {
                return;
            }
            thread::sleep(Duration::from_millis(5));
        }
        self.drive_link(&mut s, &link, &stop);
        link.busy.store(false, Ordering::SeqCst);
    }

    fn drive_link(&self, s: &mut TcpStream, link: &Incoming, stop: &AtomicBool) {
        // RESUME with where this link's delivered sequence stands.
        let mut resume = [0u8; 12];
        resume[..4].copy_from_slice(&TAG_RESUME);
        resume[4..].copy_from_slice(&link.delivered.load(Ordering::SeqCst).to_le_bytes());
        if s.write_all(&resume).is_err() {
            return;
        }

        let mut buf: Vec<u8> = Vec::new();
        let mut cols = ColumnarFrame::default();
        let mut last_acked: u64 = 0;
        let mut tag = [0u8; 4];
        let mut tag_off = 0usize;
        loop {
            if stop.load(Ordering::Relaxed) {
                // Shutdown may land right after the receiver's terminal
                // checkpoint advanced the stable watermark; flush that last
                // ack so the sender's clean-close gate (produced <= acked)
                // can clear instead of timing out with an unacked tail.
                let ack = ack_value(link);
                if ack > last_acked {
                    let _ = write_ack(s, ack);
                }
                return;
            }
            match s.read(&mut tag[tag_off..]) {
                Ok(0) => return, // EOF: sender gone; it will reconnect.
                Ok(n) => {
                    tag_off += n;
                    if tag_off < 4 {
                        continue;
                    }
                    tag_off = 0;
                    if tag == TAG_DATA {
                        match self.recv_frame(s, link, stop, &mut buf, &mut cols) {
                            Ok(ack) => {
                                if write_ack(s, ack).is_err() {
                                    return;
                                }
                                last_acked = ack;
                            }
                            Err(_) => return,
                        }
                    } else if tag == TAG_GOODBYE {
                        // Clean close: disconnect the engine channel.
                        link.tx.lock().take();
                        return;
                    } else {
                        return; // Desynchronized stream: force a reconnect.
                    }
                }
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    // Idle tick: push a lagging stable ack (checkpoints
                    // advance it outside the data path).
                    let ack = ack_value(link);
                    if ack > last_acked {
                        if write_ack(s, ack).is_err() {
                            return;
                        }
                        last_acked = ack;
                    }
                }
                Err(_) => return,
            }
        }
    }

    /// Reads, decodes, duplicate-trims, and forwards one `DATA` frame.
    /// Returns the ack value to report. Any error means the connection is
    /// unusable and nothing was forwarded from this frame.
    fn recv_frame(
        &self,
        s: &mut TcpStream,
        link: &Incoming,
        stop: &AtomicBool,
        buf: &mut Vec<u8>,
        cols: &mut ColumnarFrame,
    ) -> io::Result<u64> {
        let mut start8 = [0u8; 8];
        read_full(s, &mut start8, stop)?;
        let start = u64::from_le_bytes(start8);
        let mut hdr = [0u8; HEADER_LEN];
        read_full(s, &mut hdr, stop)?;
        let total = frame_len(&hdr).map_err(io::Error::from)?;
        buf.clear();
        buf.resize(total, 0);
        buf[..HEADER_LEN].copy_from_slice(&hdr);
        read_full(s, &mut buf[HEADER_LEN..], stop)?;
        decode_frame(buf, cols).map_err(io::Error::from)?;

        let n = cols.n_entries() as u64;
        let delivered = link.delivered.load(Ordering::SeqCst);
        if start > delivered {
            // A gap means we lost track relative to the sender; drop the
            // connection and let the handshake resynchronize.
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "frame starts past delivered count",
            ));
        }
        let end = start + n;
        if end > delivered {
            let skip = (delivered - start) as usize;
            let mut tuples = link.pool.take(cols.n_entries());
            cols.materialize(&mut tuples).map_err(io::Error::from)?;
            if skip > 0 {
                tuples.drain(..skip);
            }
            let fwd = tuples.len();
            let sent = match link.tx.lock().as_ref() {
                Some(tx) => {
                    link.inflight.fetch_add(fwd, Ordering::SeqCst);
                    tx.send(Frame::from_vec(tuples)).is_ok()
                }
                None => false,
            };
            if !sent {
                link.inflight.fetch_sub(fwd, Ordering::SeqCst);
                return Err(io::Error::new(
                    io::ErrorKind::BrokenPipe,
                    "consuming engine is gone",
                ));
            }
            link.delivered.store(end, Ordering::SeqCst);
        }
        Ok(ack_value(link))
    }
}

/// The cumulative entry count the receiver may acknowledge right now.
fn ack_value(link: &Incoming) -> u64 {
    match &link.ack {
        AckMode::Receipt => link.delivered.load(Ordering::SeqCst),
        AckMode::Stable(stable) => stable.load(Ordering::SeqCst),
    }
}

fn write_ack(s: &mut TcpStream, v: u64) -> io::Result<()> {
    let mut msg = [0u8; 12];
    msg[..4].copy_from_slice(&TAG_ACK);
    msg[4..].copy_from_slice(&v.to_le_bytes());
    s.write_all(&msg)
}

/// Reads exactly `buf.len()` bytes, retrying read-timeout ticks until the
/// stop flag is raised.
fn read_full(s: &mut TcpStream, buf: &mut [u8], stop: &AtomicBool) -> io::Result<()> {
    let mut off = 0;
    while off < buf.len() {
        if stop.load(Ordering::Relaxed) {
            return Err(io::Error::new(
                io::ErrorKind::Interrupted,
                "transport stopped",
            ));
        }
        match s.read(&mut buf[off..]) {
            Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
            Ok(n) => off += n,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut => {
            }
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Outcome of a bounded wait on the engine channel (the vendored
/// crossbeam channel has no `recv_timeout`; this polls at the same
/// 100 µs granularity as its `Select`).
enum RecvOutcome {
    Frame(Frame),
    Timeout,
    Disconnected,
}

fn recv_timeout(rx: &Receiver<Frame>, timeout: Duration) -> RecvOutcome {
    let deadline = Instant::now() + timeout;
    loop {
        match rx.try_recv() {
            Ok(f) => return RecvOutcome::Frame(f),
            Err(TryRecvError::Disconnected) => return RecvOutcome::Disconnected,
            Err(TryRecvError::Empty) => {
                if Instant::now() >= deadline {
                    return RecvOutcome::Timeout;
                }
                thread::sleep(Duration::from_micros(100));
            }
        }
    }
}

/// An encoded frame parked until acknowledged: entry positions
/// `[start, end)` on the link plus the encoded bytes.
struct QFrame {
    start: u64,
    end: u64,
    bytes: Vec<u8>,
}

/// Sender-side socket shim: owns the per-link frame-write counter and
/// injects deterministic wire faults the way `FaultVfs` injects storage
/// faults — by failing the operation at a scripted index.
struct SendSock {
    stream: TcpStream,
    spec: Option<Arc<WireFaultSpec>>,
}

impl SendSock {
    /// Writes one `DATA` preamble + frame with vectored writes, applying
    /// scripted faults at the given 1-based write index. `Ok(false)` means
    /// a fault dropped the connection (the frame stays queued).
    fn write_frame(&mut self, idx: u64, start: u64, bytes: &[u8]) -> io::Result<bool> {
        if let Some(spec) = &self.spec {
            if spec.drop_conn.contains(&idx) {
                let _ = self.stream.shutdown(Shutdown::Both);
                return Ok(false);
            }
            if spec.partial_write.contains(&idx) {
                let mut pre = [0u8; 12];
                pre[..4].copy_from_slice(&TAG_DATA);
                pre[4..].copy_from_slice(&start.to_le_bytes());
                let _ = self.stream.write_all(&pre);
                let _ = self.stream.write_all(&bytes[..bytes.len() / 2]);
                let _ = self.stream.shutdown(Shutdown::Both);
                return Ok(false);
            }
        }
        let mut pre = [0u8; 12];
        pre[..4].copy_from_slice(&TAG_DATA);
        pre[4..].copy_from_slice(&start.to_le_bytes());
        let mut a = 0usize; // bytes of preamble written
        let mut b = 0usize; // bytes of frame written
        while a < pre.len() || b < bytes.len() {
            let n = if a < pre.len() {
                let iov = [IoSlice::new(&pre[a..]), IoSlice::new(&bytes[b..])];
                self.stream.write_vectored(&iov)?
            } else {
                self.stream.write(&bytes[b..])?
            };
            if n == 0 {
                return Err(io::ErrorKind::WriteZero.into());
            }
            let adv_a = n.min(pre.len() - a);
            a += adv_a;
            b += n - adv_a;
        }
        Ok(true)
    }
}

/// One sender thread: connect (with capped backoff), handshake, replay
/// unacknowledged frames, then pump the engine channel until it drains
/// and every entry is acknowledged.
fn run_sender(link: Outgoing, stop: Arc<AtomicBool>, spec: Option<Arc<WireFaultSpec>>) {
    let Outgoing {
        link_id,
        rx,
        pool,
        inflight,
        peer,
    } = link;
    let mut produced: u64 = 0; // Entries consumed from the engine channel.
    let mut skip_until: u64 = 0; // Receiver already has entries below this.
    let mut frame_writes: u64 = 0; // Fault-shim index, monotone across reconnects.
    let mut queue: VecDeque<QFrame> = VecDeque::new();
    let mut spares: Vec<Vec<u8>> = Vec::new();
    let acked = Arc::new(AtomicU64::new(0));
    let mut chan_open = true;
    let mut ack_threads: Vec<JoinHandle<()>> = Vec::new();

    'conn: loop {
        // Connect with capped exponential backoff.
        let mut backoff = BACKOFF_START;
        let stream = loop {
            if stop.load(Ordering::Relaxed) {
                give_up(link_id, &queue, produced, &acked);
                break 'conn;
            }
            match TcpStream::connect_timeout(&peer, Duration::from_secs(1)) {
                Ok(s) => break s,
                Err(_) => {
                    thread::sleep(backoff);
                    backoff = (backoff * 2).min(BACKOFF_CAP);
                }
            }
        };
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(READ_TICK));
        let mut sock = SendSock {
            stream,
            spec: spec.clone(),
        };

        // HELLO, then wait for RESUME.
        let mut hello = [0u8; 13];
        hello[..4].copy_from_slice(&TAG_HELLO);
        hello[4] = WIRE_VERSION;
        hello[5..].copy_from_slice(&link_id.to_le_bytes());
        if sock.stream.write_all(&hello).is_err() {
            continue 'conn;
        }
        let resume = {
            let mut msg = [0u8; 12];
            let t0 = Instant::now();
            let got = loop {
                match read_full(&mut sock.stream, &mut msg, &stop) {
                    Ok(()) => break true,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {
                        give_up(link_id, &queue, produced, &acked);
                        break 'conn;
                    }
                    Err(_) if t0.elapsed() < HANDSHAKE_DEADLINE => continue,
                    Err(_) => break false,
                }
            };
            if !got || msg[..4] != TAG_RESUME {
                continue 'conn;
            }
            u64::from_le_bytes(msg[4..].try_into().expect("8 bytes"))
        };
        acked.fetch_max(resume, Ordering::SeqCst);
        prune(&mut queue, &acked, &mut spares);
        if resume > produced {
            // A fresh sender talking to a receiver that already consumed
            // part of the (deterministically replayed) stream: trim until
            // production catches up with what was delivered.
            skip_until = resume;
        }

        // Replay unacknowledged frames in order.
        for f in &queue {
            frame_writes += 1;
            match sock.write_frame(frame_writes, f.start, &f.bytes) {
                Ok(true) => {}
                Ok(false) | Err(_) => continue 'conn,
            }
        }

        // Ack reader for this connection.
        let conn_dead = Arc::new(AtomicBool::new(false));
        {
            let acked = Arc::clone(&acked);
            let dead = Arc::clone(&conn_dead);
            let stop = Arc::clone(&stop);
            let mut rd = match sock.stream.try_clone() {
                Ok(s) => s,
                Err(_) => continue 'conn,
            };
            ack_threads.push(
                thread::Builder::new()
                    .name(format!("spca-net-ack-{link_id}"))
                    .spawn(move || {
                        let mut msg = [0u8; 12];
                        loop {
                            match read_full(&mut rd, &mut msg, &stop) {
                                Ok(()) if msg[..4] == TAG_ACK => {
                                    let v = u64::from_le_bytes(msg[4..].try_into().expect("8"));
                                    acked.fetch_max(v, Ordering::SeqCst);
                                }
                                _ => {
                                    dead.store(true, Ordering::SeqCst);
                                    return;
                                }
                            }
                        }
                    })
                    .expect("spawn ack reader"),
            );
        }

        // Pump the engine channel.
        loop {
            prune(&mut queue, &acked, &mut spares);
            if !chan_open {
                if queue.is_empty() && produced <= acked.load(Ordering::SeqCst) {
                    let _ = sock.stream.write_all(&TAG_GOODBYE);
                    let _ = sock.stream.shutdown(Shutdown::Write);
                    break 'conn;
                }
                if conn_dead.load(Ordering::SeqCst) {
                    continue 'conn;
                }
                if stop.load(Ordering::Relaxed) {
                    give_up(link_id, &queue, produced, &acked);
                    break 'conn;
                }
                thread::sleep(Duration::from_millis(5));
                continue;
            }
            match recv_timeout(&rx, Duration::from_millis(20)) {
                RecvOutcome::Frame(frame) => {
                    let n = frame.len();
                    inflight.fetch_sub(n, Ordering::SeqCst);
                    let start = produced;
                    produced += n as u64;
                    let tuples = frame.tuples;
                    if produced <= skip_until {
                        pool.put(tuples); // Entirely duplicate after a resume.
                        continue;
                    }
                    let trim = skip_until.saturating_sub(start) as usize;
                    let mut bytes = spares.pop().unwrap_or_default();
                    if let Err(e) = encode_frame(&tuples[trim..], &mut bytes) {
                        // Only unregistered control payloads can fail here;
                        // that is a programming error, not a wire condition.
                        panic!("link {link_id}: cannot encode frame: {e}");
                    }
                    pool.put(tuples);
                    let qf = QFrame {
                        start: start + trim as u64,
                        end: produced,
                        bytes,
                    };
                    frame_writes += 1;
                    let wrote = sock.write_frame(frame_writes, qf.start, &qf.bytes);
                    queue.push_back(qf);
                    match wrote {
                        Ok(true) => {}
                        Ok(false) | Err(_) => continue 'conn,
                    }
                }
                RecvOutcome::Timeout => {
                    if conn_dead.load(Ordering::SeqCst) {
                        continue 'conn;
                    }
                    if stop.load(Ordering::Relaxed) {
                        give_up(link_id, &queue, produced, &acked);
                        break 'conn;
                    }
                }
                RecvOutcome::Disconnected => chan_open = false,
            }
        }
    }
    for h in ack_threads {
        let _ = h.join();
    }
}

/// Drops acknowledged frames from the front of the retransmit queue,
/// recycling their buffers.
fn prune(queue: &mut VecDeque<QFrame>, acked: &AtomicU64, spares: &mut Vec<Vec<u8>>) {
    let a = acked.load(Ordering::SeqCst);
    while queue.front().is_some_and(|f| f.end <= a) {
        let f = queue.pop_front().expect("checked front");
        if spares.len() < SPARE_ENCODE_BUFS {
            spares.push(f.bytes);
        }
    }
}

/// Shutdown raced an unacknowledged tail: report instead of hanging.
fn give_up(link_id: u64, queue: &VecDeque<QFrame>, produced: u64, acked: &AtomicU64) {
    let a = acked.load(Ordering::SeqCst);
    if !queue.is_empty() || produced > a {
        eprintln!(
            "spca-net: link {link_id} stopped with {} unacknowledged entries",
            produced.saturating_sub(a)
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::{DataTuple, Punctuation, Tuple};
    use crossbeam::channel::bounded;

    fn data(seq: u64, v: f64) -> Tuple {
        let mut t = DataTuple::new(seq, vec![v, v + 0.5, -v]);
        t.timestamp_ns = seq * 3;
        Tuple::Data(t)
    }

    /// Ships `n_frames` frames of `per` tuples each (plus a final EOS)
    /// through a loopback link with `spec` faults installed, and asserts
    /// the receiver observes every tuple exactly once, in order.
    fn roundtrip(spec: Option<WireFaultSpec>) {
        let recv_side = NetTransport::bind("127.0.0.1:0").expect("bind");
        let send_side = NetTransport::bind("127.0.0.1:0").expect("bind");
        if let Some(s) = spec {
            send_side.set_faults(s);
        }
        let (n_frames, per) = (6u64, 5u64);

        let pool_in = Arc::new(FramePool::new(4));
        let inflight_in = Arc::new(AtomicUsize::new(0));
        let (tx_r, rx_r) = bounded::<Frame>(64);
        recv_side.add_incoming(9, tx_r, pool_in, Arc::clone(&inflight_in), AckMode::Receipt);
        recv_side.start();

        let pool_out = Arc::new(FramePool::new(4));
        let inflight_out = Arc::new(AtomicUsize::new(0));
        let (tx_s, rx_s) = bounded::<Frame>(64);
        send_side.add_outgoing(
            9,
            rx_s,
            Arc::clone(&pool_out),
            Arc::clone(&inflight_out),
            recv_side.local_addr(),
        );
        send_side.start();

        let mut seq = 0u64;
        for f in 0..n_frames {
            let mut tuples = pool_out.take(per as usize + 1);
            for _ in 0..per {
                tuples.push(data(seq, seq as f64 * 0.25));
                seq += 1;
            }
            if f == n_frames - 1 {
                tuples.push(Tuple::Punct(Punctuation::EndOfStream));
            }
            inflight_out.fetch_add(tuples.len(), Ordering::SeqCst);
            tx_s.send(Frame::from_vec(tuples)).expect("send");
        }
        drop(tx_s);

        let mut got: Vec<Tuple> = Vec::new();
        while let RecvOutcome::Frame(frame) = recv_timeout(&rx_r, Duration::from_secs(20)) {
            inflight_in.fetch_sub(frame.len(), Ordering::SeqCst);
            got.extend(frame.tuples);
        }
        assert_eq!(got.len() as u64, n_frames * per + 1);
        for (i, t) in got.iter().take((n_frames * per) as usize).enumerate() {
            match t {
                Tuple::Data(d) => {
                    assert_eq!(d.seq, i as u64);
                    assert_eq!(d.timestamp_ns, i as u64 * 3);
                    assert_eq!(d.values[0].to_bits(), (i as f64 * 0.25).to_bits());
                }
                other => panic!("expected data at {i}, got {other:?}"),
            }
        }
        assert!(got.last().expect("non-empty").is_eos());

        send_side.shutdown();
        recv_side.shutdown();
        assert_eq!(inflight_in.load(Ordering::SeqCst), 0);
        assert_eq!(inflight_out.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn loopback_roundtrip_bit_identical() {
        roundtrip(None);
    }

    #[test]
    fn drop_conn_fault_reconnects_exactly_once() {
        roundtrip(Some(WireFaultSpec {
            drop_conn: vec![2, 5],
            partial_write: vec![],
        }));
    }

    #[test]
    fn partial_write_fault_never_partially_applies() {
        roundtrip(Some(WireFaultSpec {
            drop_conn: vec![],
            partial_write: vec![3],
        }));
    }

    #[test]
    fn stable_acks_hold_back_goodbye_until_checkpoint() {
        let recv_side = NetTransport::bind("127.0.0.1:0").expect("bind");
        let send_side = NetTransport::bind("127.0.0.1:0").expect("bind");
        let stable = Arc::new(AtomicU64::new(0));

        let pool_in = Arc::new(FramePool::new(4));
        let inflight_in = Arc::new(AtomicUsize::new(0));
        let (tx_r, rx_r) = bounded::<Frame>(8);
        recv_side.add_incoming(
            3,
            tx_r,
            pool_in,
            inflight_in,
            AckMode::Stable(Arc::clone(&stable)),
        );
        recv_side.start();

        let pool_out = Arc::new(FramePool::new(4));
        let inflight_out = Arc::new(AtomicUsize::new(0));
        let (tx_s, rx_s) = bounded::<Frame>(8);
        send_side.add_outgoing(3, rx_s, pool_out, inflight_out, recv_side.local_addr());
        send_side.start();

        let tuples = vec![data(0, 1.0), Tuple::Punct(Punctuation::EndOfStream)];
        tx_s.send(Frame::from_vec(tuples)).expect("send");
        drop(tx_s);

        let RecvOutcome::Frame(frame) = recv_timeout(&rx_r, Duration::from_secs(10)) else {
            panic!("no frame within deadline");
        };
        assert_eq!(frame.len(), 2);
        // The channel stays connected while the ack lags the checkpoint.
        assert!(matches!(
            recv_timeout(&rx_r, Duration::from_millis(300)),
            RecvOutcome::Timeout
        ));
        // "Checkpoint" the consumed entries: the sender may now say goodbye.
        stable.store(2, Ordering::SeqCst);
        assert!(matches!(
            recv_timeout(&rx_r, Duration::from_secs(10)),
            RecvOutcome::Disconnected
        ));

        send_side.shutdown();
        recv_side.shutdown();
    }
}
