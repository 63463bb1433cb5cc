//! Network tuple transport: the TCP peer of a
//! [`LineSource`](super::LineSource) and the TCP sink.
//!
//! §III-A1: "Network TCP sockets and http URLs are also supported out of
//! the box as a source of data." The wire format is newline-delimited CSV
//! rows ([`spca_spectra::io`], the same format as the file source), so a
//! `TcpSink` on one process feeds a
//! [`LineSource::listen`](super::LineSource::listen) on another, and
//! anything that can open a socket (including `nc`) can feed the pipeline.

use crate::checkpoint::{decode_kv, encode_kv, kv_u64, Checkpoint};
use crate::operator::{OpContext, Operator};
use crate::tuple::DataTuple;
use spca_spectra::io::write_row;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::Duration;

/// The TCP end of a [`LineSource`](super::LineSource): a listener that accepts exactly one
/// peer, or an address to dial.
pub(crate) enum TcpPeer {
    /// `None` once the listener has accepted (or failed to).
    Listen(Option<TcpListener>),
    Connect(SocketAddr),
}

impl TcpPeer {
    pub(crate) fn listen(addr: &str) -> io::Result<Self> {
        Ok(TcpPeer::Listen(Some(TcpListener::bind(addr)?)))
    }

    pub(crate) fn local_addr(&self) -> Option<SocketAddr> {
        match self {
            TcpPeer::Listen(Some(l)) => l.local_addr().ok(),
            _ => None,
        }
    }

    /// Accepts or dials the peer.
    pub(crate) fn open(&mut self) -> io::Result<Box<dyn BufRead + Send>> {
        let stream = match self {
            TcpPeer::Listen(slot) => {
                let listener = slot.take().ok_or_else(|| {
                    io::Error::new(io::ErrorKind::NotConnected, "TCP listener already used")
                })?;
                listener.accept()?.0
            }
            TcpPeer::Connect(addr) => TcpStream::connect_timeout(addr, Duration::from_secs(5))?,
        };
        // Bounded read timeout keeps the PE responsive to stop requests
        // even on a silent peer.
        stream.set_read_timeout(Some(Duration::from_millis(100)))?;
        Ok(Box::new(BufReader::new(stream)))
    }
}

/// Writes data tuples to a TCP peer in the newline-CSV wire format.
pub struct TcpSink {
    addr: SocketAddr,
    writer: Option<BufWriter<TcpStream>>,
    failed: bool,
    /// Tuples written so far.
    pub written: u64,
}

impl TcpSink {
    /// A sink dialing `addr` on the first tuple.
    pub fn connect(addr: SocketAddr) -> Self {
        TcpSink {
            addr,
            writer: None,
            failed: false,
            written: 0,
        }
    }

    fn ensure_connected(&mut self) -> bool {
        if self.writer.is_some() {
            return true;
        }
        if self.failed {
            return false;
        }
        match TcpStream::connect_timeout(&self.addr, Duration::from_secs(5)) {
            Ok(s) => {
                self.writer = Some(BufWriter::new(s));
                true
            }
            Err(e) => {
                eprintln!("TcpSink: connection to {} failed: {e}", self.addr);
                self.failed = true;
                false
            }
        }
    }
}

impl Operator for TcpSink {
    fn process(&mut self, t: DataTuple, _ctx: &mut OpContext<'_>) {
        if !self.ensure_connected() {
            return;
        }
        let w = self.writer.as_mut().expect("connected above");
        let _ = write_row(w, &t.values, t.mask.as_deref().map(Vec::as_slice));
        self.written += 1;
    }

    fn on_finish(&mut self, _ctx: &mut OpContext<'_>) {
        if let Some(w) = self.writer.as_mut() {
            let _ = w.flush();
        }
        // Dropping the writer closes the socket, signalling EOF.
        self.writer = None;
    }

    fn checkpoint(&mut self) -> Option<&mut dyn Checkpoint> {
        Some(self)
    }
}

/// Like a network [`LineSource`](super::LineSource)'s checkpoint, the tuple counter only.
/// A restore flushes and keeps the live connection if one is open, and
/// clears the failure latch so a sink that lost its peer in the crash that
/// triggered the restart redials on the next tuple.
impl Checkpoint for TcpSink {
    fn snapshot(&self) -> Vec<u8> {
        encode_kv(&[("written", self.written.to_string())])
    }

    fn restore(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        let kv = decode_kv(bytes)?;
        self.written = kv_u64(&kv, "written")?;
        if let Some(w) = self.writer.as_mut() {
            let _ = w.flush();
        }
        self.failed = false;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::graph::{GraphBuilder, PortKind};
    use crate::ops::{CollectSink, GeneratorSource, LineSource};

    #[test]
    fn tcp_pipe_between_two_graphs() {
        // Producer graph: generator → TcpSink; consumer: LineSource → collect.
        let source = LineSource::listen("127.0.0.1:0").expect("bind");
        let addr = source.local_addr().expect("bound");

        let mut consumer = GraphBuilder::new();
        let src = consumer.add_source("tcp-in", Box::new(source));
        let (collect, store) = CollectSink::new();
        let sink = consumer.add_op("collect", Box::new(collect));
        consumer.connect(src, 0, sink, PortKind::Data);
        let consumer_running = Engine::start(consumer);

        let mut producer = GraphBuilder::new();
        let gen = producer.add_source(
            "gen",
            Box::new(
                GeneratorSource::new(|seq| Some((vec![seq as f64, 2.0 * seq as f64], None)))
                    .with_max_tuples(50),
            ),
        );
        let out = producer.add_op("tcp-out", Box::new(TcpSink::connect(addr)));
        producer.connect(gen, 0, out, PortKind::Data);
        Engine::run(producer);

        let report = consumer_running.join();
        assert_eq!(report.op("collect").unwrap().tuples_in, 50);
        let got = store.lock();
        assert_eq!(got.len(), 50);
        assert_eq!(*got[49].values, vec![49.0, 98.0]);
    }

    #[test]
    fn tcp_wire_format_round_trips_masks() {
        let source = LineSource::listen("127.0.0.1:0").expect("bind");
        let addr = source.local_addr().expect("bound");

        let mut consumer = GraphBuilder::new();
        let src = consumer.add_source("tcp-in", Box::new(source));
        let (collect, store) = CollectSink::new();
        let sink = consumer.add_op("collect", Box::new(collect));
        consumer.connect(src, 0, sink, PortKind::Data);
        let running = Engine::start(consumer);

        let mut producer = GraphBuilder::new();
        let gen = producer.add_source(
            "gen",
            Box::new(
                GeneratorSource::new(|seq| Some((vec![seq as f64, 7.0], Some(vec![true, false]))))
                    .with_max_tuples(3),
            ),
        );
        let out = producer.add_op("tcp-out", Box::new(TcpSink::connect(addr)));
        producer.connect(gen, 0, out, PortKind::Data);
        Engine::run(producer);

        running.join();
        let got = store.lock();
        assert_eq!(got.len(), 3);
        let m = got[0].mask.as_ref().expect("mask survived the wire");
        assert_eq!(m.as_slice(), &[true, false]);
        assert_eq!(got[1].values[0], 1.0);
    }

    #[test]
    fn source_survives_silent_peer_then_stop() {
        let source = LineSource::listen("127.0.0.1:0").expect("bind");
        let addr = source.local_addr().expect("bound");

        let mut g = GraphBuilder::new();
        let src = g.add_source("tcp-in", Box::new(source));
        let (collect, _store) = CollectSink::new();
        let sink = g.add_op("collect", Box::new(collect));
        g.connect(src, 0, sink, PortKind::Data);
        let running = Engine::start(g);

        // Connect but send nothing; the source must stay idle, not spin-fail.
        let _quiet = TcpStream::connect(addr).expect("connect");
        std::thread::sleep(Duration::from_millis(150));
        running.stop();
        let report = running.join();
        assert_eq!(report.op("collect").unwrap().tuples_in, 0);
    }

    #[test]
    fn source_keeps_a_line_split_across_its_read_timeout() {
        // Regression: the source cleared its line buffer after each 100 ms
        // read timeout, so `1,2,` + pause + `3\n` arrived as the row `[3]`.
        let source = LineSource::listen("127.0.0.1:0").expect("bind");
        let addr = source.local_addr().expect("bound");

        let mut g = GraphBuilder::new();
        let src = g.add_source("tcp-in", Box::new(source));
        let (collect, store) = CollectSink::new();
        let sink = g.add_op("collect", Box::new(collect));
        g.connect(src, 0, sink, PortKind::Data);
        let running = Engine::start(g);

        let mut peer = TcpStream::connect(addr).expect("connect");
        peer.write_all(b"1,2,").unwrap();
        peer.flush().unwrap();
        std::thread::sleep(Duration::from_millis(250));
        peer.write_all(b"3\n4,5,6\n").unwrap();
        drop(peer);

        running.join();
        let got = store.lock();
        let rows: Vec<Vec<f64>> = got.iter().map(|t| t.values.to_vec()).collect();
        assert_eq!(rows, vec![vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        assert!(got.iter().all(|t| t.mask.is_none()));
    }

    #[test]
    fn sink_handles_unreachable_peer() {
        // Port 1 on localhost is essentially never listening.
        let addr: SocketAddr = "127.0.0.1:1".parse().unwrap();
        let mut g = GraphBuilder::new();
        let gen = g.add_source(
            "gen",
            Box::new(GeneratorSource::new(|_| Some((vec![1.0], None))).with_max_tuples(5)),
        );
        let out = g.add_op("tcp-out", Box::new(TcpSink::connect(addr)));
        g.connect(gen, 0, out, PortKind::Data);
        // Must terminate (tuples dropped), not hang or panic.
        let report = Engine::run(g);
        assert_eq!(report.op("gen").unwrap().tuples_out, 5);
    }
}
