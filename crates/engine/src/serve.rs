//! The eigensystem query handler — the engine side of the serving layer.
//!
//! [`EigenQueryHandler`] plugs into the dependency-free HTTP server in
//! `spca-streams` ([`spca_streams::ops::http_server`]) and answers
//! queries against the epoch store the PCA operators publish into:
//!
//! | endpoint                  | method | body             | response |
//! |---------------------------|--------|------------------|----------|
//! | `/project`                | POST   | CSV observation  | CSV projection coefficients |
//! | `/reconstruct`            | POST   | CSV observation  | CSV reconstructed observation |
//! | `/score`                  | POST   | CSV observation  | CSV `residual_sq,scaled_residual` |
//! | `/topk?k=K`               | POST   | CSV observation  | CSV `component,coefficient,cosine` lines |
//! | `/healthz`                | GET    | —                | `ok <epoch>` |
//! | `/metrics`                | GET    | —                | operational counters + latency quantiles |
//!
//! Query responses carry an `X-Epoch` header naming the snapshot epoch
//! they were computed against, so clients (and the stress tests) can
//! verify bit-identical results offline. Before the first publish
//! (estimator warm-up) query endpoints answer `503`.
//!
//! Each worker thread gets its own handler instance owning a
//! [`QueryWorkspace`], a parse buffer, and a registered [`EpochReader`],
//! so a request in steady state allocates nothing: parse into a reused
//! buffer, pin the epoch (lock-free), compute into the workspace, format
//! into the server's reused response buffer.

use crate::epoch::{EpochReader, EpochStore};
use spca_core::QueryWorkspace;
use spca_streams::metrics::{Fault, FaultCounts, LatencyHistogram};
use spca_streams::ops::http_server::{ConnHandler, Request, ResponseBuf, ServerStats};
use std::io::Write as _;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Endpoint indices into the histogram table.
const EP_PROJECT: usize = 0;
const EP_RECONSTRUCT: usize = 1;
const EP_SCORE: usize = 2;
const EP_TOPK: usize = 3;
const EP_HEALTHZ: usize = 4;
const EP_METRICS: usize = 5;
const ENDPOINT_NAMES: [&str; 6] = [
    "project",
    "reconstruct",
    "score",
    "topk",
    "healthz",
    "metrics",
];

/// Index of an endpoint name in the [`ServeShared::histogram`] table
/// (e.g. `"project"`, `"score"`). `None` for unknown names.
pub fn endpoint_index(name: &str) -> Option<usize> {
    ENDPOINT_NAMES.iter().position(|n| *n == name)
}

/// State shared by every serving thread: the snapshot store, the fault
/// counters mirrored from the engine, per-endpoint latency histograms,
/// and (once the server is up) its admission-control stats.
pub struct ServeShared {
    store: Arc<EpochStore>,
    counters: Mutex<FaultCounts>,
    hist: [LatencyHistogram; 6],
    server_stats: OnceLock<Arc<ServerStats>>,
}

impl ServeShared {
    /// Shared serving state over `store`.
    pub fn new(store: Arc<EpochStore>) -> Self {
        ServeShared {
            store,
            counters: Mutex::new(FaultCounts::default()),
            hist: Default::default(),
            server_stats: OnceLock::new(),
        }
    }

    /// The underlying snapshot store.
    pub fn store(&self) -> &Arc<EpochStore> {
        &self.store
    }

    /// Mirrors the engine's fault counters into `/metrics`. Call with
    /// live sums ([`FaultCounts::sum`] over `RunningEngine::op_snapshots`)
    /// while the run is in flight and with `RunReport::faults` after it
    /// finishes — the totals the CLI fault summary prints.
    pub fn set_counters(&self, c: FaultCounts) {
        *self.counters.lock().unwrap() = c;
    }

    /// Attaches the HTTP server's stats so `/metrics` can report
    /// shed/rate-limited counts (first call wins).
    pub fn set_server_stats(&self, stats: Arc<ServerStats>) {
        let _ = self.server_stats.set(stats);
    }

    /// Per-endpoint latency histogram (by [`endpoint_index`]).
    pub fn histogram(&self, endpoint: usize) -> &LatencyHistogram {
        &self.hist[endpoint]
    }
}

/// Per-thread query handler. Build one per server worker via
/// [`EigenQueryHandler::new`] in the server's handler factory.
pub struct EigenQueryHandler {
    shared: Arc<ServeShared>,
    reader: EpochReader,
    ws: QueryWorkspace,
    obs: Vec<f64>,
}

impl EigenQueryHandler {
    /// A handler bound to the shared serving state. Panics if all
    /// [`crate::epoch::MAX_READERS`] reader slots are taken (the server
    /// pool is far smaller in practice).
    pub fn new(shared: Arc<ServeShared>) -> Self {
        let reader = shared
            .store()
            .reader()
            .expect("epoch store reader slots exhausted");
        EigenQueryHandler {
            shared,
            reader,
            ws: QueryWorkspace::new(),
            obs: Vec::new(),
        }
    }

    /// Parses a CSV float vector into the reusable `obs` buffer.
    fn parse_body(body: &[u8], obs: &mut Vec<f64>) -> Result<(), &'static str> {
        let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8")?;
        obs.clear();
        for tok in text.split(&[',', '\n', ' '][..]) {
            let tok = tok.trim_matches('\r');
            if tok.is_empty() {
                continue;
            }
            obs.push(tok.parse().map_err(|_| "bad number in body")?);
        }
        if obs.is_empty() {
            return Err("empty observation");
        }
        Ok(())
    }

    fn write_csv(out: &mut Vec<u8>, values: &[f64]) {
        for (i, v) in values.iter().enumerate() {
            if i > 0 {
                out.push(b',');
            }
            // `{}` on f64 is the shortest round-trip representation, so
            // the textual response is lossless.
            let _ = write!(out, "{v}");
        }
        out.push(b'\n');
    }

    fn metrics_response(&mut self, resp: &mut ResponseBuf) {
        let c = *self.shared.counters.lock().unwrap();
        let b = &mut resp.body;
        let _ = writeln!(b, "spca_epoch {}", self.shared.store().epoch());
        for f in Fault::ALL {
            let _ = writeln!(b, "{} {}", f.metric_name(), c[f]);
        }
        if let Some(stats) = self.shared.server_stats.get() {
            let _ = writeln!(
                b,
                "spca_http_accepted {}",
                stats.accepted.load(Ordering::Relaxed)
            );
            let _ = writeln!(
                b,
                "spca_http_served {}",
                stats.served.load(Ordering::Relaxed)
            );
            let _ = writeln!(b, "spca_http_shed {}", stats.shed.load(Ordering::Relaxed));
            let _ = writeln!(
                b,
                "spca_http_rate_limited {}",
                stats.rate_limited.load(Ordering::Relaxed)
            );
        }
        for (i, name) in ENDPOINT_NAMES.iter().enumerate() {
            let h = &self.shared.hist[i];
            let _ = writeln!(
                b,
                "spca_requests_total{{endpoint=\"{name}\"}} {}",
                h.count()
            );
            for (q, label) in [(0.5, "0.5"), (0.99, "0.99"), (0.999, "0.999")] {
                let _ = writeln!(
                    b,
                    "spca_latency_ns{{endpoint=\"{name}\",quantile=\"{label}\"}} {}",
                    h.quantile_ns(q)
                );
            }
        }
    }
}

impl ConnHandler for EigenQueryHandler {
    fn handle(&mut self, req: &Request<'_>, resp: &mut ResponseBuf) {
        let start = Instant::now();
        let endpoint = match (req.method, req.path) {
            ("POST", "/project") => EP_PROJECT,
            ("POST", "/reconstruct") => EP_RECONSTRUCT,
            ("POST", "/score") => EP_SCORE,
            ("POST", "/topk") => EP_TOPK,
            ("GET", "/healthz") => EP_HEALTHZ,
            ("GET", "/metrics") => EP_METRICS,
            ("GET", "/project" | "/reconstruct" | "/score" | "/topk")
            | ("POST", "/healthz" | "/metrics") => {
                resp.set_status(405);
                resp.body.extend_from_slice(b"wrong method\n");
                return;
            }
            _ => {
                resp.set_status(404);
                resp.body.extend_from_slice(b"unknown endpoint\n");
                return;
            }
        };

        match endpoint {
            EP_HEALTHZ => {
                let _ = writeln!(resp.body, "ok {}", self.shared.store().epoch());
            }
            EP_METRICS => self.metrics_response(resp),
            _ => {
                if let Err(msg) = Self::parse_body(req.body, &mut self.obs) {
                    resp.set_status(400);
                    resp.body.extend_from_slice(msg.as_bytes());
                    resp.body.push(b'\n');
                    self.shared.hist[endpoint].record_ns(start.elapsed().as_nanos() as u64);
                    return;
                }
                let Some(snap) = self.reader.pin() else {
                    resp.set_status(503);
                    resp.body
                        .extend_from_slice(b"no eigensystem published yet\n");
                    self.shared.hist[endpoint].record_ns(start.elapsed().as_nanos() as u64);
                    return;
                };
                resp.add_header("X-Epoch", format_args!("{}", snap.epoch));
                let p = snap.p;
                let out = match endpoint {
                    EP_PROJECT => self
                        .ws
                        .project(&snap.eig, p, &self.obs)
                        .map(|c| Self::write_csv(&mut resp.body, c)),
                    EP_RECONSTRUCT => self
                        .ws
                        .reconstruct(&snap.eig, p, &self.obs)
                        .map(|r| Self::write_csv(&mut resp.body, r)),
                    EP_SCORE => self.ws.outlier_score(&snap.eig, p, &self.obs).map(|s| {
                        let _ = write!(resp.body, "{},{}", s.residual_sq, s.scaled_residual);
                        resp.body.push(b'\n');
                    }),
                    EP_TOPK => {
                        let k = req
                            .query_param("k")
                            .and_then(|v| v.parse().ok())
                            .unwrap_or(p);
                        self.ws
                            .top_k_similarity(&snap.eig, p, &self.obs, k)
                            .map(|hits| {
                                for h in hits {
                                    let _ = writeln!(
                                        resp.body,
                                        "{},{},{}",
                                        h.component, h.coefficient, h.cosine
                                    );
                                }
                            })
                    }
                    _ => unreachable!(),
                };
                if let Err(e) = out {
                    resp.body.clear();
                    resp.set_status(400);
                    let _ = writeln!(resp.body, "{e}");
                }
            }
        }
        self.shared.hist[endpoint].record_ns(start.elapsed().as_nanos() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spca_core::{PcaConfig, RobustPca};
    use spca_streams::ops::http_server::{HttpServer, ServerConfig};
    use std::io::{Read, Write};
    use std::net::TcpStream;

    const D: usize = 12;
    const P: usize = 2;

    fn publish_fitted(store: &Arc<EpochStore>) -> spca_core::EigenSystem {
        let mut pca = RobustPca::new(PcaConfig::new(D, P));
        for i in 0..80u64 {
            let x: Vec<f64> = (0..D)
                .map(|j| ((i as f64) * 0.37 + j as f64).sin() * 2.0)
                .collect();
            pca.update(&x).unwrap();
        }
        let eig = pca.full_eigensystem().unwrap().clone();
        let mut buf = store.checkout();
        buf.eig.copy_from(&eig);
        buf.p = P;
        store.publish(buf);
        eig
    }

    fn start_server(shared: &Arc<ServeShared>) -> HttpServer {
        let server = HttpServer::start("127.0.0.1:0", ServerConfig::default(), |_| {
            EigenQueryHandler::new(Arc::clone(shared))
        })
        .unwrap();
        shared.set_server_stats(server.stats());
        server
    }

    fn request(addr: std::net::SocketAddr, req: String) -> String {
        let mut conn = TcpStream::connect(addr).unwrap();
        conn.write_all(req.as_bytes()).unwrap();
        let mut out = String::new();
        conn.shutdown(std::net::Shutdown::Write).unwrap();
        conn.read_to_string(&mut out).unwrap();
        out
    }

    fn post(addr: std::net::SocketAddr, path: &str, body: &str) -> String {
        request(
            addr,
            format!(
                "POST {path} HTTP/1.1\r\nHost: x\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            ),
        )
    }

    fn get(addr: std::net::SocketAddr, path: &str) -> String {
        request(
            addr,
            format!("GET {path} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"),
        )
    }

    fn body_of(resp: &str) -> &str {
        resp.split("\r\n\r\n").nth(1).unwrap_or("")
    }

    #[test]
    fn serves_all_four_query_endpoints() {
        let store = Arc::new(EpochStore::new());
        let eig = publish_fitted(&store);
        let shared = Arc::new(ServeShared::new(Arc::clone(&store)));
        let server = start_server(&shared);
        let addr = server.local_addr();

        let obs: Vec<f64> = (0..D).map(|j| (j as f64 * 0.61).cos()).collect();
        let obs_csv = obs
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join(",");

        // project: bit-identical to the offline workspace computation.
        let resp = post(addr, "/project", &obs_csv);
        assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
        assert!(resp.contains("X-Epoch: 1"), "{resp}");
        let mut ws = QueryWorkspace::new();
        let want: Vec<String> = ws
            .project(&eig, P, &obs)
            .unwrap()
            .iter()
            .map(|v| v.to_string())
            .collect();
        assert_eq!(body_of(&resp).trim(), want.join(","));

        // reconstruct: D values back.
        let resp = post(addr, "/reconstruct", &obs_csv);
        let n_vals = body_of(&resp).trim().split(',').count();
        assert_eq!(n_vals, D, "{resp}");

        // score: r² and t, matching the offline computation exactly.
        let resp = post(addr, "/score", &obs_csv);
        let s = ws.outlier_score(&eig, P, &obs).unwrap();
        assert_eq!(
            body_of(&resp).trim(),
            format!("{},{}", s.residual_sq, s.scaled_residual)
        );

        // topk: k lines of component,coefficient,cosine.
        let resp = post(addr, "/topk?k=2", &obs_csv);
        let lines: Vec<&str> = body_of(&resp).trim().lines().collect();
        assert_eq!(lines.len(), 2, "{resp}");
        assert_eq!(lines[0].split(',').count(), 3);

        // healthz reports the epoch.
        let resp = get(addr, "/healthz");
        assert!(body_of(&resp).starts_with("ok 1"), "{resp}");

        // Unknown endpoint and wrong method.
        assert!(get(addr, "/nope").starts_with("HTTP/1.1 404"));
        assert!(get(addr, "/project").starts_with("HTTP/1.1 405"));
        // Malformed body.
        assert!(post(addr, "/project", "not,numbers").starts_with("HTTP/1.1 400"));

        server.shutdown();
    }

    #[test]
    fn empty_store_answers_503_until_first_publish() {
        let store = Arc::new(EpochStore::new());
        let shared = Arc::new(ServeShared::new(Arc::clone(&store)));
        let server = start_server(&shared);
        let addr = server.local_addr();
        let resp = post(addr, "/project", "1,2,3");
        assert!(resp.starts_with("HTTP/1.1 503"), "{resp}");
        publish_fitted(&store);
        let obs_csv = (0..D)
            .map(|_| "0.5".to_string())
            .collect::<Vec<_>>()
            .join(",");
        let resp = post(addr, "/project", &obs_csv);
        assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
        server.shutdown();
    }

    #[test]
    fn metrics_exposes_fault_counters_and_histograms() {
        let store = Arc::new(EpochStore::new());
        publish_fitted(&store);
        let shared = Arc::new(ServeShared::new(Arc::clone(&store)));
        let mut counts = FaultCounts::default();
        counts[Fault::Restarts] = 3;
        counts[Fault::PeRestarts] = 1;
        counts[Fault::Quarantined] = 7;
        counts[Fault::SyncSkips] = 42;
        counts[Fault::IoFaults] = 5;
        counts[Fault::QuarantinedSnapshots] = 2;
        counts[Fault::CheckpointSkips] = 9;
        counts[Fault::ScaleOuts] = 4;
        counts[Fault::ScaleIns] = 3;
        shared.set_counters(counts);
        let server = start_server(&shared);
        let addr = server.local_addr();
        let obs_csv = (0..D)
            .map(|_| "1.0".to_string())
            .collect::<Vec<_>>()
            .join(",");
        post(addr, "/score", &obs_csv);
        let resp = get(addr, "/metrics");
        let body = body_of(&resp);
        assert!(body.contains("spca_epoch 1"), "{body}");
        assert!(body.contains("spca_restarts 3"), "{body}");
        assert!(body.contains("spca_pe_restarts 1"), "{body}");
        assert!(body.contains("spca_quarantined 7"), "{body}");
        assert!(body.contains("spca_sync_skips 42"), "{body}");
        assert!(body.contains("spca_io_faults 5"), "{body}");
        assert!(body.contains("spca_quarantined_snapshots 2"), "{body}");
        assert!(body.contains("spca_checkpoint_skips 9"), "{body}");
        assert!(body.contains("spca_scale_outs 4"), "{body}");
        assert!(body.contains("spca_scale_ins 3"), "{body}");
        // The fault block in full: names, order and line breaks.
        assert!(
            body.contains(
                "spca_epoch 1\nspca_restarts 3\nspca_pe_restarts 1\nspca_quarantined 7\n\
                 spca_sync_skips 42\nspca_io_faults 5\nspca_quarantined_snapshots 2\n\
                 spca_checkpoint_skips 9\nspca_scale_outs 4\nspca_scale_ins 3\n"
            ),
            "{body}"
        );
        assert!(
            body.contains("spca_requests_total{endpoint=\"score\"} 1"),
            "{body}"
        );
        assert!(
            body.contains("spca_latency_ns{endpoint=\"score\",quantile=\"0.999\"}"),
            "{body}"
        );
        server.shutdown();
    }
}
