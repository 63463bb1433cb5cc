//! Parallel partitioned backfill of a historical spectrum corpus.
//!
//! The streaming application answers "what is the eigensystem *now*";
//! backfill answers "what was it over the whole archive" — without paying
//! for a monolithic sequential replay every time the question is asked.
//! Because the robust estimator's state is algebraically mergeable
//! (paper eq. 15–16), a corpus can be sharded by a partition key, each
//! shard estimated independently in parallel, and the per-shard
//! eigensystems combined by the core crate's tree reduction. Each shard's
//! finished state persists in a [`StateStore`] keyed by partition id and
//! content hash, so a re-run over an unchanged corpus computes nothing,
//! and appending one shard (yesterday's observations, a new plate) costs
//! exactly one shard — O(partition), never O(history).
//!
//! The division of labor with `spca_streams::backfill`: that module owns
//! the engine-agnostic machinery (partitions, store, worker pool); this
//! one wires it to spectra CSV corpora and the robust PCA estimator, and
//! merges the results into a single [`EigenSystem`] that can seed a live
//! streaming run via `AppConfig::warm_start`.
//!
//! Determinism: partition states are serialized with the exact-round-trip
//! snapshot codec ([`crate::persist::encode_snapshot`]), the merge always
//! consumes the *decoded store bytes* (even on a cold run), and the tree
//! reduction pairs partitions in a fixed order — so a warm run is
//! bit-identical to the cold run that populated its store, at any worker
//! count.

use crate::persist::{decode_snapshot, encode_snapshot};
use spca_core::{EigenSystem, PcaConfig, RobustPca};
use spca_spectra::io::{data_text, parse_row_into};
use spca_streams::backfill::{content_hash, run_partitions, BackfillStats, Partition, StateStore};
use std::io;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// A partition payload: a byte range of a shared in-memory corpus.
///
/// Partitions of one corpus share the backing buffer through an [`Arc`],
/// so an n-way split costs one file read, not n.
#[derive(Debug, Clone)]
pub struct CorpusSlice {
    bytes: Arc<Vec<u8>>,
    range: Range<usize>,
}

impl CorpusSlice {
    /// The partition's raw bytes.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes[self.range.clone()]
    }

    /// The partition's bytes as CSV text.
    pub fn as_str(&self) -> io::Result<&str> {
        std::str::from_utf8(self.bytes())
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "corpus slice is not UTF-8"))
    }
}

/// Splits a CSV corpus into `parts` contiguous row-range partitions.
///
/// Boundaries land on line starts, and rows are counted over *data* lines
/// (blank and `#`-comment lines ride along with the preceding range), so
/// the partition ids — `rows-<first>-<last+1>` — are stable row
/// coordinates: re-partitioning an unchanged file yields identical ids
/// and content hashes, which is what makes the state store's cache hits
/// line up across runs.
pub fn partition_csv_rows(path: &Path, parts: usize) -> io::Result<Vec<Partition<CorpusSlice>>> {
    assert!(parts >= 1, "need at least one partition");
    let bytes = Arc::new(std::fs::read(path)?);
    let text = std::str::from_utf8(&bytes).map_err(|_| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{}: corpus is not UTF-8", path.display()),
        )
    })?;

    // Byte offset and row index of every data line.
    let mut row_starts: Vec<usize> = Vec::new();
    let mut offset = 0;
    for line in text.split_inclusive('\n') {
        if data_text(line).is_some() {
            row_starts.push(offset);
        }
        offset += line.len();
    }
    let n_rows = row_starts.len();
    if n_rows == 0 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{}: corpus has no data rows", path.display()),
        ));
    }
    let parts = parts.min(n_rows);

    let mut out = Vec::with_capacity(parts);
    for p in 0..parts {
        // Near-equal split: partition p covers rows [p*n/parts, (p+1)*n/parts).
        let first = p * n_rows / parts;
        let last = (p + 1) * n_rows / parts;
        let lo = row_starts[first];
        let hi = if last < n_rows {
            row_starts[last]
        } else {
            bytes.len()
        };
        let slice = CorpusSlice {
            bytes: Arc::clone(&bytes),
            range: lo..hi,
        };
        out.push(Partition {
            id: format!("rows-{first:06}-{last:06}"),
            content_hash: content_hash(slice.bytes()),
            payload: slice,
        });
    }
    Ok(out)
}

/// One partition per corpus file — the "by plate" / "by day" partition key
/// when the archive is already laid out as one file per observation batch.
/// The partition id is the file name.
pub fn partition_csv_files(paths: &[PathBuf]) -> io::Result<Vec<Partition<CorpusSlice>>> {
    let mut out = Vec::with_capacity(paths.len());
    for path in paths {
        let bytes = Arc::new(std::fs::read(path)?);
        let range = 0..bytes.len();
        let slice = CorpusSlice { bytes, range };
        let id = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| path.display().to_string());
        out.push(Partition {
            id,
            content_hash: content_hash(slice.bytes()),
            payload: slice,
        });
    }
    Ok(out)
}

/// A reusable per-worker estimator: one [`RobustPca`] whose workspaces are
/// allocated once and reused across every partition the worker drains
/// ([`RobustPca::reset`] clears state but keeps the scratch buffers), plus
/// reusable row-parse buffers — so the steady-state feed loop performs no
/// heap allocation (guarded by `tests/backfill_alloc.rs`).
pub struct PartitionWorker {
    pca: RobustPca,
    values: Vec<f64>,
    mask: Vec<bool>,
}

impl PartitionWorker {
    /// Builds a worker for `cfg`-shaped estimation.
    pub fn new(cfg: PcaConfig) -> Self {
        let dim = cfg.dim;
        PartitionWorker {
            pca: RobustPca::new(cfg),
            values: Vec::with_capacity(dim),
            mask: Vec::with_capacity(dim),
        }
    }

    /// Resets estimator state for the next partition (workspaces survive).
    pub fn begin(&mut self) {
        self.pca.reset();
    }

    /// Feeds one CSV line; blank and comment lines are skipped. Missing
    /// bins (`nan` / unparsable fields) go through the masked update.
    /// Returns whether the line was a data row.
    pub fn feed_line(&mut self, line: &str) -> io::Result<bool> {
        let Some(all_observed) = parse_row_into(line, &mut self.values, &mut self.mask) else {
            return Ok(false);
        };
        let result = if all_observed {
            self.pca.update(&self.values)
        } else {
            self.pca.update_masked(&self.values, &self.mask)
        };
        result
            .map(|_| true)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }

    /// The last data row fed: its values (gaps as `0.0`) and mask.
    pub fn row(&self) -> (&[f64], &[bool]) {
        (&self.values, &self.mask)
    }

    /// Runs one whole partition: reset, feed every row, return the full
    /// (`p+q`-component) eigensystem — full so the merged result can later
    /// be installed into a live operator, which needs every tracked
    /// component.
    pub fn process(&mut self, text: &str) -> io::Result<EigenSystem> {
        self.begin();
        for line in text.lines() {
            self.feed_line(line)?;
        }
        self.pca.full_eigensystem().cloned().ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "partition too small: estimator needs {} warm-up rows to initialize",
                    self.pca.config().init_size
                ),
            )
        })
    }
}

/// Configuration of a backfill run.
#[derive(Debug, Clone)]
pub struct BackfillConfig {
    /// Estimator configuration applied to every partition.
    pub pca: PcaConfig,
    /// Worker threads (`0` = one per available core).
    pub workers: usize,
    /// State-store directory.
    pub state_dir: PathBuf,
}

/// The result of a backfill run.
#[derive(Debug)]
pub struct BackfillOutcome {
    /// The tree-merged corpus-wide eigensystem.
    pub merged: EigenSystem,
    /// Per-partition eigensystems (input order), decoded from the store.
    pub per_partition: Vec<EigenSystem>,
    /// Cache-hit / compute accounting from the worker pool.
    pub stats: BackfillStats,
}

/// Runs the backfill: every partition's eigensystem comes either from the
/// state store (unchanged input) or from a fresh parallel estimate, and
/// the per-partition states tree-merge into one corpus-wide eigensystem.
///
/// The merge input is *always* the decoded store bytes — on a cold run
/// each worker's eigensystem round-trips through the snapshot codec before
/// merging. The codec is exact, so this costs nothing numerically, and it
/// makes cold and warm runs consume byte-identical inputs: the merged
/// result is bit-reproducible across cold/warm and across worker counts.
pub fn backfill(
    cfg: &BackfillConfig,
    partitions: &[Partition<CorpusSlice>],
) -> io::Result<BackfillOutcome> {
    if partitions.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "backfill needs at least one partition",
        ));
    }
    let store = StateStore::open(&cfg.state_dir)?;
    let pca_cfg = &cfg.pca;
    let (states, stats) = run_partitions(partitions, &store, cfg.workers, |_w| {
        let mut worker = PartitionWorker::new(pca_cfg.clone());
        move |p: &Partition<CorpusSlice>| -> io::Result<Vec<u8>> {
            let eig = worker.process(p.payload.as_str()?)?;
            Ok(encode_snapshot(&eig))
        }
    })?;
    let per_partition: Vec<EigenSystem> = states
        .iter()
        .map(|bytes| decode_snapshot(bytes))
        .collect::<io::Result<_>>()?;
    let merged = spca_core::merge::merge_tree_threads(
        &per_partition,
        if cfg.workers == 0 { 1 } else { cfg.workers }.max(1),
    )
    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("merge failed: {e}")))?;
    Ok(BackfillOutcome {
        merged,
        per_partition,
        stats,
    })
}
