//! Multi-process distributed execution: the `spca coordinator` and
//! `spca worker` runners.
//!
//! The paper runs its analysis graph on an InfoSphere Streams cluster where
//! PEs live in separate processes connected by TCP. This module reproduces
//! that deployment shape on top of [`spca_streams::NetTransport`]:
//!
//! * Every process builds the **identical** application graph (same
//!   operator insertion order, same edges — [`DistSpec::build`]), then runs
//!   only its own slice of it via `Engine::start_in_partition`. Boundary
//!   edges become socket links carrying codec frames; edge ids are the
//!   builder's insertion indices, so both sides agree on link ids without
//!   negotiation.
//! * The **coordinator** owns the source, split, monitor, and
//!   snapshot-writer; **worker `w`** owns every `pca-i` with
//!   `i % n_workers == w`.
//! * A tiny line-oriented control protocol bootstraps the data plane:
//!   workers dial the coordinator and send `REGISTER <index> <data_addr>`;
//!   the coordinator answers `ASSIGN <spec>` once all workers are present;
//!   workers heartbeat `HB <index>` while running, send `DONE <index>`
//!   when their partition drains, and receive `BYE`.
//! * A worker that dies mid-run is **respawned** by the coordinator
//!   (`current_exe() worker …` with the same data address, so the peer map
//!   of already-running senders stays valid). The respawned process
//!   rehydrates its operators and link watermarks from its PE checkpoint
//!   manifest and resumes; the sender-side replay queues plus the
//!   receiver-side duplicate trim give exactly-once redelivery, so the
//!   final eigensystems stay bit-identical to an undisturbed run.
//!
//! Determinism note: runs meant to be compared bit-for-bit use a
//! round-robin split and a channel capacity at least the corpus size, so
//! the split's non-blocking fallback never re-routes a tuple (the
//! engine-to-observation assignment is then a pure function of arrival
//! order).

use std::collections::{HashMap, HashSet};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use spca_core::PcaConfig;
use spca_streams::engine::RunningEngine;
use spca_streams::ops::{GeneratorSource, LineSource, SplitStrategy};
use spca_streams::{Engine, GraphBuilder, NetPartition, NetTransport, Operator, RunReport};

use crate::app::{AppConfig, AppHandles, ParallelPcaApp};
use crate::messages::register_wire_codecs;
use crate::sync::SyncStrategy;

/// How often workers send `HB` lines on the control socket.
const HEARTBEAT_PERIOD: Duration = Duration::from_millis(50);
/// A worker whose control socket is silent this long is declared dead.
const LIVENESS_WINDOW: Duration = Duration::from_secs(5);
/// Most *consecutive* respawns any single worker slot gets before the
/// coordinator gives up on it (a crash-loop backstop). The budget is
/// windowed, not lifetime: a respawned worker that re-registers and stays
/// healthy past [`LIVENESS_WINDOW`] earns its slot a fresh budget — only
/// an actual crash *loop* (deaths with no healthy run in between) burns
/// through it.
const MAX_RESPAWNS: usize = 5;

/// One worker slot's respawn bookkeeping: the consecutive-death burst
/// (gating the crash-loop backstop) and the lifetime total (reporting).
///
/// Previously the backstop counted lifetime deaths, so a long-lived fleet
/// whose worker was killed sporadically — healthy for hours in between —
/// was permanently abandoned on the sixth death. The burst counter resets
/// via [`RespawnBudget::mark_healthy`] once the respawned worker has
/// stayed up past the liveness window, restoring the intended semantics:
/// the cap stops *loops*, not sporadic faults.
#[derive(Debug, Clone)]
struct RespawnBudget {
    /// Deaths since the last healthy run.
    burst: usize,
    /// Lifetime deaths (monotonic; feeds `CoordinatorReport::respawns`).
    total: usize,
    /// Burst ceiling.
    max_burst: usize,
}

impl RespawnBudget {
    fn new(max_burst: usize) -> Self {
        RespawnBudget {
            burst: 0,
            total: 0,
            max_burst,
        }
    }

    /// Records a death. Returns `(attempt, within_budget)`: the attempt
    /// number within the current burst, and whether the slot still gets a
    /// respawn.
    fn record_death(&mut self) -> (usize, bool) {
        self.burst += 1;
        self.total += 1;
        (self.burst, self.burst <= self.max_burst)
    }

    /// The respawned worker re-registered and stayed healthy past the
    /// liveness window: forgive the burst.
    fn mark_healthy(&mut self) {
        self.burst = 0;
    }
}
/// How long the coordinator waits for the initial `REGISTER` round and
/// for the final `DONE` round.
const RENDEZVOUS_DEADLINE: Duration = Duration::from_secs(60);

/// Everything a process needs to build the shared graph and find its
/// peers. The coordinator serializes this into the `ASSIGN` line, so every
/// field round-trips through [`DistSpec::encode`] / [`DistSpec::decode`].
#[derive(Debug, Clone)]
pub struct DistSpec {
    /// Number of parallel PCA engines in the graph.
    pub n_engines: usize,
    /// Number of worker processes the engines are spread over.
    pub n_workers: usize,
    /// Observation dimensionality.
    pub dim: usize,
    /// Principal components tracked per engine.
    pub components: usize,
    /// Effective memory (observations) of the exponential forgetting.
    pub memory: usize,
    /// Tuples per cross-PE frame.
    pub batch: usize,
    /// Cross-PE channel capacity in tuples. For bit-identical comparisons
    /// this must be at least the corpus size (see the module docs).
    pub capacity: usize,
    /// Emit a monitoring snapshot every `n` observations (0 = final only).
    pub snapshot_every: u64,
    /// Directory the snapshot-writer persists `engine{k}_latest.snapshot`
    /// files into — the bit-identity artifact of a run.
    pub snapshots: PathBuf,
    /// Checkpoint/recovery directory. When set, workers always start in
    /// rehydrate mode (a fresh start simply finds no manifest) and link
    /// acks are gated on durability.
    pub recovery: Option<PathBuf>,
    /// Data-plane address of the coordinator's transport.
    pub coord_data: SocketAddr,
    /// Data-plane address of each worker's transport, indexed by worker.
    pub worker_data: Vec<SocketAddr>,
}

impl DistSpec {
    /// Which worker owns engine `i` (round-robin over workers).
    pub fn owner_of(&self, engine: usize) -> usize {
        engine % self.n_workers.max(1)
    }

    /// Serializes the spec as one whitespace-separated `k=v` line (no
    /// newline). Paths containing whitespace are not representable.
    pub fn encode(&self) -> String {
        let mut s = format!(
            "v1 engines={} workers={} dim={} components={} memory={} batch={} capacity={} \
             snap_every={} snapshots={} coord={}",
            self.n_engines,
            self.n_workers,
            self.dim,
            self.components,
            self.memory,
            self.batch,
            self.capacity,
            self.snapshot_every,
            self.snapshots.display(),
            self.coord_data,
        );
        if let Some(ref r) = self.recovery {
            s.push_str(&format!(" recovery={}", r.display()));
        }
        for (i, a) in self.worker_data.iter().enumerate() {
            s.push_str(&format!(" w{i}={a}"));
        }
        s
    }

    /// Parses a line produced by [`DistSpec::encode`].
    pub fn decode(line: &str) -> io::Result<DistSpec> {
        fn bad(msg: String) -> io::Error {
            io::Error::new(io::ErrorKind::InvalidData, msg)
        }
        let mut it = line.split_whitespace();
        let ver = it.next().unwrap_or("");
        if ver != "v1" {
            return Err(bad(format!("unsupported spec version '{ver}'")));
        }
        let mut kv: HashMap<&str, &str> = HashMap::new();
        for tok in it {
            let (k, v) = tok
                .split_once('=')
                .ok_or_else(|| bad(format!("malformed spec token '{tok}'")))?;
            kv.insert(k, v);
        }
        fn num<T: std::str::FromStr>(kv: &HashMap<&str, &str>, k: &str) -> io::Result<T> {
            kv.get(k)
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| bad(format!("spec is missing or cannot parse '{k}'")))
        }
        let n_workers: usize = num(&kv, "workers")?;
        let mut worker_data = Vec::with_capacity(n_workers);
        for i in 0..n_workers {
            worker_data.push(num(&kv, &format!("w{i}"))?);
        }
        Ok(DistSpec {
            n_engines: num(&kv, "engines")?,
            n_workers,
            dim: num(&kv, "dim")?,
            components: num(&kv, "components")?,
            memory: num(&kv, "memory")?,
            batch: num(&kv, "batch")?,
            capacity: num(&kv, "capacity")?,
            snapshot_every: num(&kv, "snap_every")?,
            snapshots: PathBuf::from(
                *kv.get("snapshots")
                    .ok_or_else(|| bad("spec is missing 'snapshots'".into()))?,
            ),
            recovery: kv.get("recovery").map(PathBuf::from),
            coord_data: num(&kv, "coord")?,
            worker_data,
        })
    }

    /// The application config every process derives the graph from.
    fn app_config(&self) -> AppConfig {
        let pca = PcaConfig::new(self.dim, self.components)
            .with_memory(self.memory)
            .with_extra(2);
        let mut cfg = AppConfig::new(self.n_engines, pca);
        cfg.split = SplitStrategy::RoundRobin;
        cfg.sync = SyncStrategy::None;
        cfg.snapshot_every = self.snapshot_every;
        cfg.batch_size = self.batch;
        cfg.channel_capacity = self.capacity;
        cfg.snapshot_dir = Some(self.snapshots.clone());
        cfg.recovery_dir = self.recovery.clone();
        cfg
    }

    /// Builds the shared application graph. Every participant calls this
    /// with its own source operator (workers pass a stub — the source runs
    /// on the coordinator; only the graph *shape* must agree).
    pub fn build(&self, source: Box<dyn Operator>) -> (GraphBuilder, AppHandles) {
        ParallelPcaApp::build(&self.app_config(), source)
    }
}

/// A stub source for processes that do not own the real one. Emits
/// nothing; it only has to occupy the same slot in the graph.
pub fn stub_source() -> Box<dyn Operator> {
    Box::new(GeneratorSource::new(
        |_: u64| -> Option<(Vec<f64>, Option<Vec<bool>>)> { None },
    ))
}

fn engine_index(name: &str) -> Option<usize> {
    name.strip_prefix("pca-").and_then(|s| s.parse().ok())
}

/// The coordinator's partition: everything except the `pca-*` operators,
/// with outgoing `split → pca-i` boundary edges mapped to the owning
/// worker's data address.
pub fn coordinator_partition(
    spec: &DistSpec,
    g: &GraphBuilder,
    net: Arc<NetTransport>,
) -> NetPartition {
    let local_ops: HashSet<String> = g
        .op_names()
        .iter()
        .filter(|n| engine_index(n).is_none())
        .map(|n| n.to_string())
        .collect();
    let mut peers = HashMap::new();
    for (eid, (from, _port, to, _kind)) in g.edge_list().iter().enumerate() {
        let (f, t) = (g.op_name(*from), g.op_name(*to));
        if local_ops.contains(f) && !local_ops.contains(t) {
            let i = engine_index(t).expect("non-local op must be an engine");
            peers.insert(eid as u64, spec.worker_data[spec.owner_of(i)]);
        }
    }
    NetPartition {
        local_ops,
        net,
        peers,
        rehydrate: false,
    }
}

/// Worker `w`'s partition: its engines, with outgoing boundary edges
/// (`pca-i → monitor` / `pca-i → snapshot-writer`) pointed at the
/// coordinator. Rehydration is always on when a recovery directory is
/// configured — a fresh start simply finds no manifest.
pub fn worker_partition(
    spec: &DistSpec,
    g: &GraphBuilder,
    net: Arc<NetTransport>,
    worker: usize,
) -> NetPartition {
    let local_ops: HashSet<String> = (0..spec.n_engines)
        .filter(|&i| spec.owner_of(i) == worker)
        .map(|i| format!("pca-{i}"))
        .collect();
    let mut peers = HashMap::new();
    for (eid, (from, _port, to, _kind)) in g.edge_list().iter().enumerate() {
        if local_ops.contains(g.op_name(*from)) && !local_ops.contains(g.op_name(*to)) {
            peers.insert(eid as u64, spec.coord_data);
        }
    }
    NetPartition {
        local_ops,
        net,
        peers,
        rehydrate: spec.recovery.is_some(),
    }
}

/// Runs the whole graph in this process (no sockets) with the exact spec a
/// distributed run would use — the baseline for bit-identity comparisons.
pub fn run_local(spec: &DistSpec, source: Box<dyn Operator>) -> RunReport {
    register_wire_codecs();
    let (g, _handles) = spec.build(source);
    Engine::run(g)
}

fn timeout_err(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::TimedOut, msg.to_string())
}

/// Dials `addr` until it answers or `deadline` elapses.
fn connect_retry(addr: SocketAddr, deadline: Duration) -> io::Result<TcpStream> {
    let start = Instant::now();
    loop {
        match TcpStream::connect_timeout(&addr, Duration::from_secs(1)) {
            Ok(s) => return Ok(s),
            Err(e) => {
                if start.elapsed() >= deadline {
                    return Err(e);
                }
                std::thread::sleep(Duration::from_millis(100));
            }
        }
    }
}

fn write_line(stream: &Mutex<TcpStream>, line: &str) -> io::Result<()> {
    let mut s = stream.lock();
    s.write_all(line.as_bytes())?;
    s.write_all(b"\n")
}

/// Runs a worker process end to end: register with the coordinator,
/// receive the spec, run this worker's partition, report `DONE`.
///
/// `data` is the data-plane bind address. Pass a concrete port when the
/// worker may be respawned — the coordinator re-launches it with the
/// *resolved* address so already-running senders reconnect to it.
pub fn run_worker(
    coordinator: SocketAddr,
    index: usize,
    data: SocketAddr,
) -> io::Result<RunReport> {
    register_wire_codecs();
    let net = NetTransport::bind(&data.to_string())?;

    let ctl = connect_retry(coordinator, Duration::from_secs(30))?;
    ctl.set_nodelay(true).ok();
    let mut reader = BufReader::new(ctl.try_clone()?);
    let writer = Arc::new(Mutex::new(ctl));

    write_line(&writer, &format!("REGISTER {index} {}", net.local_addr()))?;

    // The coordinator answers once every worker has registered.
    let mut line = String::new();
    reader
        .get_ref()
        .set_read_timeout(Some(RENDEZVOUS_DEADLINE * 2))?;
    reader.read_line(&mut line)?;
    let spec = DistSpec::decode(
        line.strip_prefix("ASSIGN ")
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("expected ASSIGN, got '{}'", line.trim()),
                )
            })?
            .trim(),
    )?;
    if index >= spec.n_workers {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "worker index {index} out of range (workers={})",
                spec.n_workers
            ),
        ));
    }

    let (g, _handles) = spec.build(stub_source());
    let part = worker_partition(&spec, &g, Arc::clone(&net), index);
    let running: RunningEngine = Engine::start_in_partition(g, part);

    // Heartbeat until the partition drains; write failures are harmless
    // (the coordinator treats silence as death and the run as a whole
    // still converges through the data plane).
    let hb_stop = Arc::new(AtomicBool::new(false));
    let hb = {
        let stop = Arc::clone(&hb_stop);
        let w = Arc::clone(&writer);
        let msg = format!("HB {index}");
        std::thread::Builder::new()
            .name("spca-hb".into())
            .spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let _ = write_line(&w, &msg);
                    std::thread::sleep(HEARTBEAT_PERIOD);
                }
            })
            .expect("spawn heartbeat thread")
    };

    let report = running.join();
    hb_stop.store(true, Ordering::Relaxed);
    let _ = hb.join();

    write_line(&writer, &format!("DONE {index}"))?;
    // Wait for BYE so the coordinator has seen our DONE before we vanish.
    reader
        .get_ref()
        .set_read_timeout(Some(Duration::from_secs(10)))?;
    line.clear();
    let _ = reader.read_line(&mut line);
    Ok(report)
}

/// Outcome of a coordinator run.
pub struct CoordinatorReport {
    /// The engine report of the coordinator's own partition.
    pub report: RunReport,
    /// Worker processes respawned after mid-run death.
    pub respawns: usize,
}

struct CoordShared {
    stop: AtomicBool,
    done: Mutex<Vec<bool>>,
    respawns: Mutex<Vec<RespawnBudget>>,
    children: Mutex<Vec<Child>>,
}

/// Runs the coordinator: rendezvous with `spec.n_workers` workers on
/// `listen`, serve the spec, run the coordinator partition (source, split,
/// monitor, snapshot-writer), supervise workers (respawning dead ones),
/// and wait for every worker's `DONE`.
///
/// `spec.worker_data` may be left empty — it is filled from the workers'
/// `REGISTER` lines. `spec.coord_data` is overwritten with the transport's
/// resolved address.
pub fn run_coordinator(
    listen: SocketAddr,
    data: SocketAddr,
    input: PathBuf,
    mut spec: DistSpec,
) -> io::Result<CoordinatorReport> {
    assert!(spec.n_workers >= 1, "need at least one worker");
    register_wire_codecs();
    let net = NetTransport::bind(&data.to_string())?;
    spec.coord_data = net.local_addr();

    let listener = TcpListener::bind(listen)?;
    listener.set_nonblocking(true)?;
    // Respawned workers run on this host; rewrite a wildcard listen
    // address to the matching loopback for the dial-back flag.
    let mut ctl_addr = listener.local_addr()?;
    if ctl_addr.ip().is_unspecified() {
        ctl_addr.set_ip(match ctl_addr.ip() {
            IpAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
            IpAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
        });
    }

    // Phase 1: collect the initial REGISTER round.
    let mut pending: Vec<Option<TcpStream>> = (0..spec.n_workers).map(|_| None).collect();
    spec.worker_data = vec![SocketAddr::from(([0, 0, 0, 0], 0)); spec.n_workers];
    let start = Instant::now();
    while pending.iter().any(|p| p.is_none()) {
        if start.elapsed() > RENDEZVOUS_DEADLINE {
            return Err(timeout_err("timed out waiting for workers to register"));
        }
        match listener.accept() {
            Ok((s, _)) => {
                let (idx, addr) = read_register(&s)?;
                if idx >= spec.n_workers {
                    eprintln!("[coordinator] ignoring REGISTER from out-of-range worker {idx}");
                    continue;
                }
                spec.worker_data[idx] = addr;
                pending[idx] = Some(s);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) => return Err(e),
        }
    }

    // Phase 2: everyone is here — serve the spec and start supervising.
    let assign = format!("ASSIGN {}", spec.encode());
    let shared = Arc::new(CoordShared {
        stop: AtomicBool::new(false),
        done: Mutex::new(vec![false; spec.n_workers]),
        respawns: Mutex::new(vec![RespawnBudget::new(MAX_RESPAWNS); spec.n_workers]),
        children: Mutex::new(Vec::new()),
    });
    let mut monitors = Vec::new();
    for (idx, slot) in pending.iter_mut().enumerate() {
        let s = slot.take().expect("registered worker stream");
        monitors.push(spawn_monitor(
            Arc::clone(&shared),
            s,
            idx,
            spec.worker_data[idx],
            ctl_addr,
            assign.clone(),
        )?);
    }

    // Phase 3: keep accepting — respawned workers re-register here.
    let acceptor = {
        let shared = Arc::clone(&shared);
        let spec_addrs = spec.worker_data.clone();
        let assign = assign.clone();
        std::thread::Builder::new()
            .name("spca-accept".into())
            .spawn(move || {
                let mut late = Vec::new();
                while !shared.stop.load(Ordering::Relaxed) {
                    match listener.accept() {
                        Ok((s, _)) => {
                            let Ok((idx, addr)) = read_register(&s) else {
                                continue;
                            };
                            if idx >= spec_addrs.len() {
                                continue;
                            }
                            if addr != spec_addrs[idx] {
                                eprintln!(
                                    "[coordinator] worker {idx} re-registered at {addr} but its \
                                     links expect {}; data traffic will not resume",
                                    spec_addrs[idx]
                                );
                            }
                            if let Ok(h) = spawn_monitor(
                                Arc::clone(&shared),
                                s,
                                idx,
                                spec_addrs[idx],
                                ctl_addr,
                                assign.clone(),
                            ) {
                                late.push(h);
                            }
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(20));
                        }
                        Err(_) => break,
                    }
                }
                for h in late {
                    let _ = h.join();
                }
            })
            .expect("spawn acceptor thread")
    };

    // Run the coordinator's own partition. join() blocks until the monitor
    // and snapshot-writer have drained (EOS from every engine over the
    // wire) and then flushes final acks while shutting the transport down.
    let source = Box::new(LineSource::new(input));
    let (g, _handles) = spec.build(source);
    let part = coordinator_partition(&spec, &g, Arc::clone(&net));
    let running = Engine::start_in_partition(g, part);
    let report = running.join();

    // Wait for every worker's DONE so nobody is killed mid-teardown.
    let start = Instant::now();
    while !shared.done.lock().iter().all(|&d| d) {
        if start.elapsed() > RENDEZVOUS_DEADLINE {
            eprintln!("[coordinator] timed out waiting for worker DONEs; proceeding");
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    shared.stop.store(true, Ordering::Relaxed);
    let _ = acceptor.join();
    for h in monitors {
        let _ = h.join();
    }
    // Reap respawned children (kill any still running).
    for child in shared.children.lock().iter_mut() {
        match child.try_wait() {
            Ok(Some(_)) => {}
            _ => {
                let _ = child.kill();
                let _ = child.wait();
            }
        }
    }
    let respawns = shared.respawns.lock().iter().map(|b| b.total).sum();
    Ok(CoordinatorReport { report, respawns })
}

/// Reads one `REGISTER <index> <data_addr>` line off a fresh control
/// connection.
fn read_register(s: &TcpStream) -> io::Result<(usize, SocketAddr)> {
    s.set_nodelay(true).ok();
    s.set_read_timeout(Some(Duration::from_secs(5)))?;
    let mut line = String::new();
    BufReader::new(s.try_clone()?).read_line(&mut line)?;
    let mut it = line.split_whitespace();
    let parse = || {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("bad REGISTER '{}'", line.trim()),
        )
    };
    if it.next() != Some("REGISTER") {
        return Err(parse());
    }
    let idx = it.next().and_then(|t| t.parse().ok()).ok_or_else(parse)?;
    let addr = it.next().and_then(|t| t.parse().ok()).ok_or_else(parse)?;
    Ok((idx, addr))
}

/// Supervises one worker's control connection: answers its registration
/// with the spec, tracks heartbeats, marks `DONE`, and respawns the worker
/// if the connection dies (or goes silent) before then.
fn spawn_monitor(
    shared: Arc<CoordShared>,
    stream: TcpStream,
    idx: usize,
    data_addr: SocketAddr,
    ctl_addr: SocketAddr,
    assign: String,
) -> io::Result<std::thread::JoinHandle<()>> {
    std::thread::Builder::new()
        .name(format!("spca-mon-{idx}"))
        .spawn(move || {
            let run = || -> io::Result<bool> {
                let mut s = stream.try_clone()?;
                s.write_all(assign.as_bytes())?;
                s.write_all(b"\n")?;
                stream.set_read_timeout(Some(Duration::from_millis(200)))?;
                let mut reader = BufReader::new(stream.try_clone()?);
                let mut acc = String::new();
                let connected = Instant::now();
                let mut last_seen = Instant::now();
                let mut forgiven = false;
                loop {
                    if shared.stop.load(Ordering::Relaxed) {
                        return Ok(true);
                    }
                    match reader.read_line(&mut acc) {
                        Ok(0) => return Ok(false), // EOF: worker gone.
                        Ok(_) => {
                            if !acc.ends_with('\n') {
                                continue; // Partial line; keep accumulating.
                            }
                            last_seen = Instant::now();
                            // Healthy past the liveness window: this run is
                            // no longer part of a crash loop, so the slot's
                            // respawn budget resets.
                            if !forgiven && connected.elapsed() > LIVENESS_WINDOW {
                                shared.respawns.lock()[idx].mark_healthy();
                                forgiven = true;
                            }
                            let done = acc.trim().starts_with("DONE");
                            acc.clear();
                            if done {
                                shared.done.lock()[idx] = true;
                                let _ = s.write_all(b"BYE\n");
                                return Ok(true);
                            }
                        }
                        Err(e)
                            if e.kind() == io::ErrorKind::WouldBlock
                                || e.kind() == io::ErrorKind::TimedOut =>
                        {
                            if last_seen.elapsed() > LIVENESS_WINDOW {
                                eprintln!("[coordinator] worker {idx} went silent");
                                return Ok(false);
                            }
                        }
                        Err(_) => return Ok(false),
                    }
                }
            };
            let clean = run().unwrap_or(false);
            if clean || shared.stop.load(Ordering::Relaxed) {
                return;
            }
            // The worker died mid-run: respawn it against the same data
            // address so in-flight senders reconnect, with rehydration
            // picking up from its checkpoint manifest.
            let (attempt, within_budget) = shared.respawns.lock()[idx].record_death();
            if !within_budget {
                eprintln!(
                    "[coordinator] worker {idx} died {attempt} times without a healthy run; \
                     giving up"
                );
                return;
            }
            let exe = match std::env::current_exe() {
                Ok(p) => p,
                Err(e) => {
                    eprintln!(
                        "[coordinator] cannot locate own binary to respawn worker {idx}: {e}"
                    );
                    return;
                }
            };
            eprintln!("[coordinator] respawning worker {idx} (attempt {attempt})");
            match Command::new(exe)
                .args([
                    "worker",
                    "--coordinator",
                    &ctl_addr.to_string(),
                    "--index",
                    &idx.to_string(),
                    "--data",
                    &data_addr.to_string(),
                ])
                .spawn()
            {
                Ok(child) => shared.children.lock().push(child),
                Err(e) => eprintln!("[coordinator] failed to respawn worker {idx}: {e}"),
            }
        })
        .map_err(io::Error::other)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> DistSpec {
        DistSpec {
            n_engines: 3,
            n_workers: 2,
            dim: 8,
            components: 2,
            memory: 400,
            batch: 16,
            capacity: 1 << 16,
            snapshot_every: 128,
            snapshots: PathBuf::from("/tmp/snaps"),
            recovery: Some(PathBuf::from("/tmp/rec")),
            coord_data: "127.0.0.1:4500".parse().unwrap(),
            worker_data: vec![
                "127.0.0.1:4501".parse().unwrap(),
                "[::1]:4502".parse().unwrap(),
            ],
        }
    }

    #[test]
    fn respawn_budget_resets_after_a_healthy_run() {
        // Regression: the cap used to count lifetime deaths, so a worker
        // killed sporadically over a long run was permanently abandoned on
        // death MAX+1 even though every respawn came back healthy.
        let mut b = RespawnBudget::new(2);
        // Killed twice, with a healthy run re-registering in between each.
        for round in 0..2 {
            let (attempt, ok) = b.record_death();
            assert_eq!(attempt, 1, "round {round}: burst restarts at 1");
            assert!(ok, "round {round}: sporadic death stays within budget");
            b.mark_healthy(); // respawn re-registered, survived the window
        }
        // A third sporadic death is still fine — and so is a tenth.
        for _ in 0..8 {
            let (_, ok) = b.record_death();
            assert!(ok);
            b.mark_healthy();
        }
        assert_eq!(b.total, 10, "lifetime total keeps counting for the report");
    }

    #[test]
    fn respawn_budget_still_stops_a_crash_loop() {
        let mut b = RespawnBudget::new(2);
        b.record_death();
        b.mark_healthy();
        // Now a genuine loop: deaths with no healthy run in between.
        assert!(b.record_death().1);
        assert!(b.record_death().1);
        let (attempt, ok) = b.record_death();
        assert!(!ok, "third consecutive death exceeds a budget of 2");
        assert_eq!(attempt, 3);
        assert_eq!(b.total, 4);
    }

    #[test]
    fn spec_round_trips_through_the_assign_line() {
        let s = spec();
        let back = DistSpec::decode(&s.encode()).unwrap();
        assert_eq!(back.n_engines, s.n_engines);
        assert_eq!(back.n_workers, s.n_workers);
        assert_eq!(back.dim, s.dim);
        assert_eq!(back.components, s.components);
        assert_eq!(back.memory, s.memory);
        assert_eq!(back.batch, s.batch);
        assert_eq!(back.capacity, s.capacity);
        assert_eq!(back.snapshot_every, s.snapshot_every);
        assert_eq!(back.snapshots, s.snapshots);
        assert_eq!(back.recovery, s.recovery);
        assert_eq!(back.coord_data, s.coord_data);
        assert_eq!(back.worker_data, s.worker_data);

        let mut no_rec = s.clone();
        no_rec.recovery = None;
        assert_eq!(DistSpec::decode(&no_rec.encode()).unwrap().recovery, None);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(DistSpec::decode("v2 engines=1").is_err());
        assert!(DistSpec::decode("v1 engines=x workers=1").is_err());
        assert!(DistSpec::decode("v1 engines=1").is_err()); // missing keys
    }

    #[test]
    fn partitions_cover_the_graph_and_agree_on_boundary_edges() {
        let s = spec();
        let (g, _h) = s.build(stub_source());
        let net = NetTransport::bind("127.0.0.1:0").unwrap();

        let coord = coordinator_partition(&s, &g, Arc::clone(&net));
        let w0 = worker_partition(&s, &g, Arc::clone(&net), 0);
        let w1 = worker_partition(&s, &g, Arc::clone(&net), 1);

        // Ownership is a partition of the op set.
        let mut all: Vec<&String> = coord
            .local_ops
            .iter()
            .chain(w0.local_ops.iter())
            .chain(w1.local_ops.iter())
            .collect();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), g.op_names().len());
        assert!(w0.local_ops.contains("pca-0") && w0.local_ops.contains("pca-2"));
        assert!(w1.local_ops.contains("pca-1"));
        assert!(coord.local_ops.contains("source") && coord.local_ops.contains("monitor"));

        // Every boundary edge has exactly one sender with a peer address,
        // and the coordinator routes split edges to the engine's owner.
        let edges = g.edge_list();
        for (eid, (from, _p, to, _k)) in edges.iter().enumerate() {
            let f = g.op_name(*from);
            let t = g.op_name(*to);
            let owners = [&coord, &w0, &w1];
            let senders: Vec<_> = owners
                .iter()
                .filter(|p| p.peers.contains_key(&(eid as u64)))
                .collect();
            let crosses = owners
                .iter()
                .any(|p| p.local_ops.contains(f) != p.local_ops.contains(t))
                || !owners
                    .iter()
                    .any(|p| p.local_ops.contains(f) && p.local_ops.contains(t));
            assert_eq!(senders.len(), usize::from(crosses), "edge {eid} {f}->{t}");
        }
        // split → pca-1 goes to worker 1's address.
        let e_split_1 = edges
            .iter()
            .position(|(f, _p, t, _k)| g.op_name(*f) == "split" && g.op_name(*t) == "pca-1")
            .unwrap();
        assert_eq!(coord.peers[&(e_split_1 as u64)], s.worker_data[1]);
        net.shutdown();
    }
}
