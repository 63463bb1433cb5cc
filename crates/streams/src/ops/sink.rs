//! Terminal operators: collectors, callbacks, CSV file sinks.

use crate::checkpoint::{decode_kv, encode_kv, kv_u64, Checkpoint};
use crate::operator::{OpContext, Operator};
use crate::tuple::{ControlTuple, DataTuple};
use parking_lot::Mutex;
use spca_spectra::io::write_row;
use std::io::Write;
use std::path::PathBuf;
use std::sync::Arc;

/// Discards everything (throughput measurements).
pub struct NullSink;

impl Operator for NullSink {
    fn process(&mut self, _t: DataTuple, _ctx: &mut OpContext<'_>) {}
}

/// Collects data tuples into a shared vector for post-run inspection.
pub struct CollectSink {
    store: Arc<Mutex<Vec<DataTuple>>>,
    cap: Option<usize>,
}

impl CollectSink {
    /// An unbounded collector; keep a clone of the handle to read results.
    pub fn new() -> (Self, Arc<Mutex<Vec<DataTuple>>>) {
        let store = Arc::new(Mutex::new(Vec::new()));
        (
            CollectSink {
                store: Arc::clone(&store),
                cap: None,
            },
            store,
        )
    }

    /// A collector that keeps only the most recent `cap` tuples.
    pub fn with_capacity(cap: usize) -> (Self, Arc<Mutex<Vec<DataTuple>>>) {
        let store = Arc::new(Mutex::new(Vec::new()));
        (
            CollectSink {
                store: Arc::clone(&store),
                cap: Some(cap),
            },
            store,
        )
    }
}

impl Operator for CollectSink {
    fn process(&mut self, t: DataTuple, _ctx: &mut OpContext<'_>) {
        let mut s = self.store.lock();
        s.push(t);
        if let Some(cap) = self.cap {
            let extra = s.len().saturating_sub(cap);
            if extra > 0 {
                s.drain(..extra);
            }
        }
    }
}

/// Invokes closures on data / control tuples (application glue).
pub struct CallbackSink<F, G = fn(ControlTuple)> {
    on_data: F,
    on_control: Option<G>,
}

impl<F: FnMut(DataTuple) + Send> CallbackSink<F> {
    /// A sink calling `on_data` for every data tuple.
    pub fn new(on_data: F) -> Self {
        CallbackSink {
            on_data,
            on_control: None,
        }
    }
}

impl<F: FnMut(DataTuple) + Send, G: FnMut(ControlTuple) + Send> CallbackSink<F, G> {
    /// A sink with both data and control handlers.
    pub fn with_control(on_data: F, on_control: G) -> Self {
        CallbackSink {
            on_data,
            on_control: Some(on_control),
        }
    }
}

impl<F: FnMut(DataTuple) + Send, G: FnMut(ControlTuple) + Send> Operator for CallbackSink<F, G> {
    fn process(&mut self, t: DataTuple, _ctx: &mut OpContext<'_>) {
        (self.on_data)(t);
    }

    fn on_control(&mut self, t: ControlTuple, _ctx: &mut OpContext<'_>) {
        if let Some(g) = &mut self.on_control {
            g(t);
        }
    }
}

/// Appends data tuples to a CSV file in the row format of
/// [`spca_spectra::io`] (a masked bin is written as `nan`), flushing every
/// `flush_every` tuples —
/// the paper's "intermediate calculation results are periodically saved to
/// the disk for future reference".
pub struct CsvFileSink {
    path: PathBuf,
    writer: Option<std::io::BufWriter<std::fs::File>>,
    flush_every: u64,
    written: u64,
}

impl CsvFileSink {
    /// A sink writing to `path`, flushing every `flush_every` tuples.
    pub fn new(path: impl Into<PathBuf>, flush_every: u64) -> Self {
        CsvFileSink {
            path: path.into(),
            writer: None,
            flush_every: flush_every.max(1),
            written: 0,
        }
    }
}

impl Operator for CsvFileSink {
    fn process(&mut self, t: DataTuple, _ctx: &mut OpContext<'_>) {
        if self.writer.is_none() {
            match std::fs::File::create(&self.path) {
                Ok(f) => self.writer = Some(std::io::BufWriter::new(f)),
                Err(e) => {
                    eprintln!("CsvFileSink: cannot create {}: {e}", self.path.display());
                    return;
                }
            }
        }
        let w = self.writer.as_mut().expect("writer installed above");
        let _ = write_row(w, &t.values, t.mask.as_deref().map(Vec::as_slice));
        self.written += 1;
        if self.written.is_multiple_of(self.flush_every) {
            let _ = w.flush();
        }
    }

    fn on_finish(&mut self, _ctx: &mut OpContext<'_>) {
        if let Some(w) = self.writer.as_mut() {
            let _ = w.flush();
        }
    }

    fn checkpoint(&mut self) -> Option<&mut dyn Checkpoint> {
        Some(self)
    }
}

/// Byte length of the first `n` newline-terminated rows of `f` (or the whole
/// file if it holds fewer).
fn byte_len_of_first_rows(f: &std::fs::File, n: u64) -> std::io::Result<u64> {
    use std::io::BufRead;
    let mut reader = std::io::BufReader::new(f);
    let mut buf = Vec::new();
    let mut offset = 0u64;
    for _ in 0..n {
        buf.clear();
        let got = reader.read_until(b'\n', &mut buf)?;
        if got == 0 {
            break;
        }
        offset += got as u64;
    }
    Ok(offset)
}

impl Checkpoint for CsvFileSink {
    fn snapshot(&self) -> Vec<u8> {
        encode_kv(&[("written", self.written.to_string())])
    }

    fn restore(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        let kv = decode_kv(bytes)?;
        let written = kv_u64(&kv, "written")?;
        // Push buffered rows to disk before repositioning: any snapshot
        // taken from this instance counted them, so they must be on disk
        // before the row-count cursor is trusted.
        if let Some(w) = self.writer.as_mut() {
            let _ = w.flush();
        }
        self.writer = None;
        self.written = written;
        if written == 0 {
            // The lazy `File::create` in `process` starts the file over.
            return Ok(());
        }
        // Drop rows written after the checkpoint, then reopen in append
        // mode — re-creating the file would wipe the checkpointed rows too.
        let f = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(&self.path)?;
        let keep = byte_len_of_first_rows(&f, written)?;
        f.set_len(keep)?;
        drop(f);
        let f = std::fs::OpenOptions::new().append(true).open(&self.path)?;
        self.writer = Some(std::io::BufWriter::new(f));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::testing::with_ctx;

    #[test]
    fn collect_sink_stores_in_order() {
        let (mut sink, store) = CollectSink::new();
        with_ctx(0, |ctx| {
            for seq in 0..5 {
                sink.process(DataTuple::new(seq, vec![seq as f64]), ctx);
            }
        });
        let got = store.lock();
        assert_eq!(got.len(), 5);
        assert_eq!(got[3].seq, 3);
    }

    #[test]
    fn bounded_collect_keeps_most_recent() {
        let (mut sink, store) = CollectSink::with_capacity(3);
        with_ctx(0, |ctx| {
            for seq in 0..10 {
                sink.process(DataTuple::new(seq, vec![]), ctx);
            }
        });
        let got = store.lock();
        assert_eq!(got.len(), 3);
        assert_eq!(got[0].seq, 7);
        assert_eq!(got[2].seq, 9);
    }

    #[test]
    fn callback_sink_sees_everything() {
        let count = Arc::new(Mutex::new(0u64));
        let c2 = Arc::clone(&count);
        let mut sink = CallbackSink::new(move |_t| *c2.lock() += 1);
        with_ctx(0, |ctx| {
            for seq in 0..7 {
                sink.process(DataTuple::new(seq, vec![]), ctx);
            }
        });
        assert_eq!(*count.lock(), 7);
    }

    #[test]
    fn csv_sink_restore_truncates_uncheckpointed_rows_and_appends() {
        let mut path = std::env::temp_dir();
        path.push(format!("spca_sink_ckpt_{}.csv", std::process::id()));
        std::fs::remove_file(&path).ok();
        let mut sink = CsvFileSink::new(&path, 1);
        let bytes = {
            let mut snap = Vec::new();
            with_ctx(0, |ctx| {
                sink.process(DataTuple::new(0, vec![1.0]), ctx);
                sink.process(DataTuple::new(1, vec![2.0]), ctx);
                snap = Checkpoint::snapshot(&sink);
                // Rows after the checkpoint must vanish on restore.
                sink.process(DataTuple::new(2, vec![99.0]), ctx);
                sink.on_finish(ctx);
            });
            snap
        };
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "1\n2\n99\n");

        sink.restore(&bytes).unwrap();
        with_ctx(0, |ctx| {
            sink.process(DataTuple::new(2, vec![3.0]), ctx);
            sink.on_finish(ctx);
        });
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "1\n2\n3\n");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn csv_sink_restore_at_zero_starts_the_file_over() {
        let mut path = std::env::temp_dir();
        path.push(format!("spca_sink_ckpt0_{}.csv", std::process::id()));
        std::fs::remove_file(&path).ok();
        let mut sink = CsvFileSink::new(&path, 1);
        with_ctx(0, |ctx| {
            sink.process(DataTuple::new(0, vec![7.0]), ctx);
            sink.on_finish(ctx);
        });
        let empty = Checkpoint::snapshot(&CsvFileSink::new(&path, 1));
        sink.restore(&empty).unwrap();
        with_ctx(0, |ctx| {
            sink.process(DataTuple::new(0, vec![8.0]), ctx);
            sink.on_finish(ctx);
        });
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "8\n");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn csv_sink_writes_rows_and_flushes_on_finish() {
        let mut path = std::env::temp_dir();
        path.push(format!("spca_sink_test_{}.csv", std::process::id()));
        let mut sink = CsvFileSink::new(&path, 1000);
        with_ctx(0, |ctx| {
            sink.process(DataTuple::new(0, vec![1.0, 2.0]), ctx);
            sink.process(DataTuple::new(1, vec![3.0, 4.0]), ctx);
            sink.on_finish(ctx);
        });
        let content = std::fs::read_to_string(&path).unwrap();
        assert_eq!(content, "1,2\n3,4\n");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn csv_sink_keeps_gaps_through_a_line_source() {
        // Regression: the sink used to ignore the mask and write a gap's
        // placeholder value, so `1,0,3` read back as a complete row.
        use crate::operator::SourceState;
        use crate::ops::LineSource;
        let mut path = std::env::temp_dir();
        path.push(format!("spca_sink_gaps_{}.csv", std::process::id()));
        let mut sink = CsvFileSink::new(&path, 1);
        with_ctx(0, |ctx| {
            sink.process(
                DataTuple::masked(0, vec![1.0, 0.0, 3.0], vec![true, false, true]),
                ctx,
            );
            sink.on_finish(ctx);
        });
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "1,nan,3\n");
        let mut src = LineSource::new(&path);
        let back = with_ctx(1, |ctx| {
            assert_eq!(src.drive(ctx), SourceState::Emitted);
            assert_eq!(src.drive(ctx), SourceState::Done);
        });
        let data = back.data_at(0);
        let mask = data[0]
            .mask
            .as_ref()
            .expect("the gap survives the round trip");
        assert_eq!(mask.as_slice(), &[true, false, true]);
        assert_eq!(*data[0].values, vec![1.0, 0.0, 3.0]);
        std::fs::remove_file(path).ok();
    }
}
