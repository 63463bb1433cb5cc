//! Data sources: generators and CSV lines.
//!
//! §III-A1: "The observations can be artificially generated by the
//! application component for testing purposes … Local regular text or
//! binary file with CSV formatted tuples … can feed the data." Every
//! line-oriented feed — a file, a followed (piped) file, a TCP socket, an
//! HTTP URL — is one [`LineSource`], parsing rows with
//! [`spca_spectra::io::parse_row_into`].

use super::http::{self, HttpUrl};
use super::net::TcpPeer;
use crate::checkpoint::{decode_kv, encode_kv, kv_u64, Checkpoint};
use crate::operator::{OpContext, Operator, SourceState};
use crate::tuple::DataTuple;
use spca_spectra::io::{data_text, parse_row_into};
use std::io::{self, BufRead, BufReader, ErrorKind};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// A source driven by a closure producing observation vectors.
///
/// The closure receives the next sequence number and returns the
/// observation (with optional mask), or `None` when exhausted. An optional
/// tuple budget and rate limit bound the stream.
pub struct GeneratorSource<F> {
    gen: F,
    seq: u64,
    max_tuples: Option<u64>,
    /// Minimum spacing between emissions (rate limiting), if any.
    min_period: Option<Duration>,
    last_emit: Option<Instant>,
    started: Option<Instant>,
}

impl<F> GeneratorSource<F>
where
    F: FnMut(u64) -> Option<(Vec<f64>, Option<Vec<bool>>)> + Send,
{
    /// An unbounded, full-speed generator.
    pub fn new(gen: F) -> Self {
        GeneratorSource {
            gen,
            seq: 0,
            max_tuples: None,
            min_period: None,
            last_emit: None,
            started: None,
        }
    }

    /// Caps the number of tuples produced.
    pub fn with_max_tuples(mut self, n: u64) -> Self {
        self.max_tuples = Some(n);
        self
    }

    /// Limits the emission rate to `per_sec` tuples per second.
    pub fn with_rate(mut self, per_sec: f64) -> Self {
        assert!(per_sec > 0.0);
        self.min_period = Some(Duration::from_secs_f64(1.0 / per_sec));
        self
    }
}

impl<F> Operator for GeneratorSource<F>
where
    F: FnMut(u64) -> Option<(Vec<f64>, Option<Vec<bool>>)> + Send,
{
    fn process(&mut self, _t: DataTuple, _ctx: &mut OpContext<'_>) {}

    fn checkpoint(&mut self) -> Option<&mut dyn Checkpoint> {
        Some(self)
    }

    fn drive(&mut self, ctx: &mut OpContext<'_>) -> SourceState {
        if let Some(max) = self.max_tuples {
            if self.seq >= max {
                return SourceState::Done;
            }
        }
        if let (Some(period), Some(last)) = (self.min_period, self.last_emit) {
            if last.elapsed() < period {
                return SourceState::Idle;
            }
        }
        match (self.gen)(self.seq) {
            None => SourceState::Done,
            Some((values, mask)) => {
                let started = *self.started.get_or_insert_with(Instant::now);
                let mut t = match mask {
                    Some(m) => DataTuple::masked(self.seq, values, m),
                    None => DataTuple::new(self.seq, values),
                };
                t.timestamp_ns = started.elapsed().as_nanos() as u64;
                self.seq += 1;
                self.last_emit = Some(Instant::now());
                ctx.emit_data(0, t);
                SourceState::Emitted
            }
        }
    }
}

impl<F> Checkpoint for GeneratorSource<F>
where
    F: FnMut(u64) -> Option<(Vec<f64>, Option<Vec<bool>>)> + Send,
{
    fn snapshot(&self) -> Vec<u8> {
        encode_kv(&[("seq", self.seq.to_string())])
    }

    fn restore(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        let kv = decode_kv(bytes)?;
        self.seq = kv_u64(&kv, "seq")?;
        // The rate limiter's wall-clock anchor does not survive a restart;
        // the next drive re-arms it.
        self.last_emit = None;
        Ok(())
    }
}

/// Streams observations from CSV lines (one vector per line, `nan` or
/// unparsable fields marking missing bins), read lazily so arbitrarily
/// large inputs stream in constant memory.
///
/// The origin decides three things and nothing else:
///
/// | origin | constructor | end of input | checkpoint restore |
/// |---|---|---|---|
/// | file | [`LineSource::new`] | `Done` | reopen, skip `seq` rows |
/// | followed file | [`LineSource::follow`] | `Idle` (wait for more) | reopen, skip `seq` rows |
/// | TCP peer | [`LineSource::listen`], [`LineSource::connect`] | `Done` | keep the connection |
/// | HTTP body | [`LineSource::get`] | `Done` | keep the connection |
///
/// A line is complete at `\n` or at end of input; a partial line (a writer
/// flushing mid-row, a read timeout on a socket) is carried until its rest
/// arrives. The checkpoint is the `seq` cursor alone: a row count, not a
/// byte offset, so files stay human-editable.
pub struct LineSource {
    origin: Origin,
    input: Option<Box<dyn BufRead + Send>>,
    /// Bytes of the current line, carried across `Idle` returns.
    line: Vec<u8>,
    /// Parse buffers; `values` moves into each emitted tuple and is
    /// replaced by one sized to that row's width.
    values: Vec<f64>,
    mask: Vec<bool>,
    seq: u64,
    /// Data rows still to discard after a restore reopened the input.
    resume_skip: u64,
}

/// Where a [`LineSource`] reads from.
enum Origin {
    File(PathBuf),
    /// A growing file with `tail -f` semantics — the paper's piped-stream
    /// feed: "InfoSphere will lock on the stream end until a new data is
    /// streamed through."
    Follow(PathBuf),
    Tcp(TcpPeer),
    Http(HttpUrl),
}

impl LineSource {
    fn with_origin(origin: Origin) -> Self {
        LineSource {
            origin,
            input: None,
            line: Vec::new(),
            values: Vec::new(),
            mask: Vec::new(),
            seq: 0,
            resume_skip: 0,
        }
    }

    /// Reads the CSV file at `path` once. The file is opened on first drive.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        Self::with_origin(Origin::File(path.into()))
    }

    /// Follows `path`, which may not exist yet: at end of file the source
    /// reports `Idle` and retries, so a producer appending to the file
    /// drives the pipeline live. It finishes only on a cooperative stop.
    pub fn follow(path: impl Into<PathBuf>) -> Self {
        Self::with_origin(Origin::Follow(path.into()))
    }

    /// Binds `addr` and waits for one producer to connect. Binding happens
    /// immediately so the caller can learn the ephemeral port via
    /// [`LineSource::local_addr`] before the engine starts.
    pub fn listen(addr: &str) -> io::Result<Self> {
        Ok(Self::with_origin(Origin::Tcp(TcpPeer::listen(addr)?)))
    }

    /// Connects to a remote producer at drive time.
    pub fn connect(addr: SocketAddr) -> Self {
        Self::with_origin(Origin::Tcp(TcpPeer::Connect(addr)))
    }

    /// Streams the body of an HTTP GET of `url`. Errors on malformed URLs.
    pub fn get(url: &str) -> Result<Self, String> {
        Ok(Self::with_origin(Origin::Http(HttpUrl::parse(url)?)))
    }

    /// The bound address of a [`LineSource::listen`] source.
    pub fn local_addr(&self) -> Option<SocketAddr> {
        match &self.origin {
            Origin::Tcp(peer) => peer.local_addr(),
            _ => None,
        }
    }

    fn open(&mut self) -> io::Result<Box<dyn BufRead + Send>> {
        match &mut self.origin {
            Origin::File(path) | Origin::Follow(path) => std::fs::File::open(&*path)
                .map(|f| Box::new(BufReader::new(f)) as Box<dyn BufRead + Send>)
                .map_err(|e| io::Error::new(e.kind(), format!("{}: {e}", path.display()))),
            Origin::Tcp(peer) => peer.open(),
            Origin::Http(url) => http::get(url),
        }
    }

    /// What the source reports when its input is exhausted or absent.
    fn at_end(&self) -> SourceState {
        match self.origin {
            Origin::Follow(_) => SourceState::Idle,
            Origin::File(_) | Origin::Tcp(_) | Origin::Http(_) => SourceState::Done,
        }
    }
}

impl Operator for LineSource {
    fn process(&mut self, _t: DataTuple, _ctx: &mut OpContext<'_>) {}

    fn checkpoint(&mut self) -> Option<&mut dyn Checkpoint> {
        Some(self)
    }

    fn drive(&mut self, ctx: &mut OpContext<'_>) -> SourceState {
        if ctx.stop_requested() {
            return SourceState::Done;
        }
        if self.input.is_none() {
            match self.open() {
                Ok(input) => self.input = Some(input),
                Err(e) => {
                    let state = self.at_end();
                    if state == SourceState::Done {
                        eprintln!("LineSource: cannot open input: {e}");
                    }
                    return state;
                }
            }
        }
        let end = self.at_end();
        let input = self.input.as_mut().expect("opened above");
        loop {
            match input.read_until(b'\n', &mut self.line) {
                Ok(_) => {}
                // A socket read timeout: nothing more yet, keep the
                // partial line and stay responsive to stop requests.
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    return SourceState::Idle;
                }
                Err(e) => {
                    eprintln!("LineSource: read error: {e}");
                    return SourceState::Done;
                }
            }
            if self.line.last() != Some(&b'\n') {
                // End of input. A waiting origin keeps a partial line for
                // the writer to finish; otherwise it is the last line.
                if self.line.is_empty() || end == SourceState::Idle {
                    return end;
                }
            }
            let Ok(text) = std::str::from_utf8(&self.line) else {
                eprintln!("LineSource: input is not UTF-8");
                return SourceState::Done;
            };
            if self.resume_skip > 0 && data_text(text).is_some() {
                // Row already emitted before the checkpoint; discard.
                self.resume_skip -= 1;
                self.line.clear();
                continue;
            }
            let parsed = parse_row_into(text, &mut self.values, &mut self.mask);
            self.line.clear();
            let Some(all_observed) = parsed else {
                continue;
            };
            let width = self.values.len();
            let values = std::mem::replace(&mut self.values, Vec::with_capacity(width));
            let t = if all_observed {
                DataTuple::new(self.seq, values)
            } else {
                let mask = std::mem::replace(&mut self.mask, Vec::with_capacity(width));
                DataTuple::masked(self.seq, values, mask)
            };
            self.seq += 1;
            ctx.emit_data(0, t);
            return SourceState::Emitted;
        }
    }
}

impl Checkpoint for LineSource {
    fn snapshot(&self) -> Vec<u8> {
        encode_kv(&[("seq", self.seq.to_string())])
    }

    /// A file is reopened from the top, discarding the rows already
    /// emitted. A network feed is live — the wire position cannot rewind —
    /// so a restore keeps the open connection (the instance survived a PE
    /// restart in memory) and resumes numbering where the snapshot left
    /// off; what the peer sent meanwhile is simply the stream's present.
    fn restore(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.seq = kv_u64(&decode_kv(bytes)?, "seq")?;
        match self.origin {
            Origin::File(_) | Origin::Follow(_) => {
                self.input = None;
                self.line.clear();
                self.resume_skip = self.seq;
            }
            Origin::Tcp(_) | Origin::Http(_) => {}
        }
        Ok(())
    }
}

/// [`LineSource`] under its old file-source name. It exists only because
/// the benchmark harness (`perfbench/`) calls `CsvFileSource::new`.
pub type CsvFileSource = LineSource;

/// [`LineSource`] under its old TCP-source name. It exists only because
/// the benchmark harness (`perfbench/`) calls `TcpSource::listen`.
pub type TcpSource = LineSource;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::testing::with_ctx;

    #[test]
    fn generator_respects_budget() {
        let mut src = GeneratorSource::new(|seq| Some((vec![seq as f64], None))).with_max_tuples(3);
        let sink = with_ctx(1, |ctx| {
            let mut n = 0;
            loop {
                match src.drive(ctx) {
                    SourceState::Emitted => n += 1,
                    SourceState::Done => break,
                    SourceState::Idle => {}
                }
                assert!(n <= 3);
            }
        });
        let data = sink.data_at(0);
        assert_eq!(data.len(), 3);
        assert_eq!(data[2].values[0], 2.0);
    }

    #[test]
    fn generator_none_finishes() {
        let mut src = GeneratorSource::new(|seq| {
            if seq < 2 {
                Some((vec![0.0], None))
            } else {
                None
            }
        });
        let sink = with_ctx(1, |ctx| {
            assert_eq!(src.drive(ctx), SourceState::Emitted);
            assert_eq!(src.drive(ctx), SourceState::Emitted);
            assert_eq!(src.drive(ctx), SourceState::Done);
        });
        assert_eq!(sink.data_at(0).len(), 2);
    }

    #[test]
    fn rate_limit_inserts_idle() {
        let mut src = GeneratorSource::new(|_| Some((vec![0.0], None))).with_rate(100.0);
        with_ctx(1, |ctx| {
            assert_eq!(src.drive(ctx), SourceState::Emitted);
            // Immediately after an emission the limiter holds us back.
            assert_eq!(src.drive(ctx), SourceState::Idle);
            std::thread::sleep(Duration::from_millis(15));
            assert_eq!(src.drive(ctx), SourceState::Emitted);
        });
    }

    #[test]
    fn csv_source_reads_masked_rows() {
        let mut path = std::env::temp_dir();
        path.push(format!("spca_src_test_{}.csv", std::process::id()));
        std::fs::write(&path, "# header\n1.0,2.0\n3.0,nan\n").unwrap();
        let mut src = LineSource::new(&path);
        let sink = with_ctx(1, |ctx| {
            assert_eq!(src.drive(ctx), SourceState::Emitted);
            assert_eq!(src.drive(ctx), SourceState::Emitted);
            assert_eq!(src.drive(ctx), SourceState::Done);
        });
        let data = sink.data_at(0);
        assert!(data[0].mask.is_none());
        let m = data[1].mask.as_ref().unwrap();
        assert_eq!(m.as_slice(), &[true, false]);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn missing_file_terminates_gracefully() {
        let mut src = LineSource::new("/nonexistent/spca.csv");
        with_ctx(1, |ctx| {
            assert_eq!(src.drive(ctx), SourceState::Done);
        });
    }

    #[test]
    fn follow_source_locks_on_eof_and_resumes() {
        use std::io::Write;
        let mut path = std::env::temp_dir();
        path.push(format!("spca_follow_test_{}.csv", std::process::id()));
        std::fs::write(&path, "1.0,2.0\n").unwrap();
        let mut src = LineSource::follow(&path);
        let sink = with_ctx(1, |ctx| {
            assert_eq!(src.drive(ctx), SourceState::Emitted);
            // EOF: idles rather than finishing.
            assert_eq!(src.drive(ctx), SourceState::Idle);
            // A producer appends — first an incomplete line, then the rest.
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            write!(f, "3.0,").unwrap();
            f.flush().unwrap();
            assert_eq!(src.drive(ctx), SourceState::Idle, "partial line must wait");
            writeln!(f, "4.0").unwrap();
            f.flush().unwrap();
            assert_eq!(src.drive(ctx), SourceState::Emitted);
        });
        let data = sink.data_at(0);
        assert_eq!(data.len(), 2);
        assert_eq!(*data[1].values, vec![3.0, 4.0]);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn follow_source_waits_for_file_creation() {
        let mut path = std::env::temp_dir();
        path.push(format!("spca_follow_missing_{}.csv", std::process::id()));
        std::fs::remove_file(&path).ok();
        let mut src = LineSource::follow(&path);
        with_ctx(1, |ctx| {
            assert_eq!(src.drive(ctx), SourceState::Idle);
            std::fs::write(&path, "9.0\n").unwrap();
            assert_eq!(src.drive(ctx), SourceState::Emitted);
        });
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn csv_source_resumes_from_checkpoint_at_the_right_row() {
        let mut path = std::env::temp_dir();
        path.push(format!("spca_src_ckpt_{}.csv", std::process::id()));
        std::fs::write(&path, "# header\n1.0\n2.0\n\n3.0\n4.0\n").unwrap();
        let mut src = LineSource::new(&path);
        let snap = with_ctx(1, |ctx| {
            assert_eq!(src.drive(ctx), SourceState::Emitted);
            assert_eq!(src.drive(ctx), SourceState::Emitted);
        });
        assert_eq!(snap.data_at(0).len(), 2);
        let bytes = Checkpoint::snapshot(&src);

        // A fresh instance restored from the snapshot picks up at row 3,
        // skipping comments and blank lines exactly like the first pass.
        let mut resumed = LineSource::new(&path);
        resumed.restore(&bytes).unwrap();
        let sink = with_ctx(1, |ctx| {
            assert_eq!(resumed.drive(ctx), SourceState::Emitted);
            assert_eq!(resumed.drive(ctx), SourceState::Emitted);
            assert_eq!(resumed.drive(ctx), SourceState::Done);
        });
        let data = sink.data_at(0);
        assert_eq!(data[0].seq, 2);
        assert_eq!(data[0].values[0], 3.0);
        assert_eq!(data[1].values[0], 4.0);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn generator_checkpoint_round_trips_the_cursor() {
        let mut src = GeneratorSource::new(|seq| Some((vec![seq as f64], None)));
        with_ctx(1, |ctx| {
            for _ in 0..5 {
                assert_eq!(src.drive(ctx), SourceState::Emitted);
            }
        });
        let bytes = Checkpoint::snapshot(&src);
        let mut resumed = GeneratorSource::new(|seq| Some((vec![seq as f64], None)));
        resumed.restore(&bytes).unwrap();
        let sink = with_ctx(1, |ctx| {
            assert_eq!(resumed.drive(ctx), SourceState::Emitted);
        });
        assert_eq!(sink.data_at(0)[0].seq, 5);
        assert_eq!(sink.data_at(0)[0].values[0], 5.0);
    }

    #[test]
    fn follow_source_honors_stop() {
        let mut path = std::env::temp_dir();
        path.push(format!("spca_follow_stop_{}.csv", std::process::id()));
        std::fs::write(&path, "").unwrap();
        let mut src = LineSource::follow(&path);
        let counters = crate::metrics::OpCounters::default();
        let mut sink = crate::operator::testing::CaptureSink::new(1);
        sink.stop = true;
        let mut ctx = OpContext::new(&mut sink, &counters);
        assert_eq!(src.drive(&mut ctx), SourceState::Done);
        std::fs::remove_file(path).ok();
    }
}
