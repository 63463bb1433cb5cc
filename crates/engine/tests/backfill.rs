//! End-to-end tests of the partitioned backfill: parallel shard → persist
//! → tree-merge, its incrementality contract, and the splice into a live
//! streaming run.

use rand::rngs::StdRng;
use rand::SeedableRng;
use spca_core::metrics::subspace_distance;
use spca_core::PcaConfig;
use spca_engine::persist::{encode_snapshot, read_snapshot, write_snapshot};
use spca_engine::{
    backfill, partition_csv_files, partition_csv_rows, AppConfig, BackfillConfig, ParallelPcaApp,
    PartitionWorker, SyncStrategy,
};
use spca_spectra::{io, PlantedSubspace};
use spca_streams::ops::LineSource;
use spca_streams::Engine;
use std::path::PathBuf;

const D: usize = 12;
const P: usize = 3;

fn pca_cfg() -> PcaConfig {
    PcaConfig::new(D, P)
        .with_memory(2000)
        .with_init_size(20)
        .with_extra(2)
}

fn corpus(seed: u64, n: usize) -> Vec<Vec<f64>> {
    let planted = PlantedSubspace::new(D, P, 0.05);
    let mut rng = StdRng::seed_from_u64(seed);
    planted.sample_batch(&mut rng, n)
}

fn tmp_dir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("spca_backfill_it_{}_{name}", std::process::id()));
    std::fs::remove_dir_all(&d).ok();
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn write_corpus(path: &PathBuf, rows: &[Vec<f64>]) {
    io::write_csv(path, rows).unwrap();
}

/// The backfilled-then-merged eigensystem tracks a single sequential pass
/// over the same corpus. The agreement is approximate, not exact: each
/// partition re-warms its own M-scale and the merge truncates to p+q
/// components (documented merge tolerance, see DESIGN §9) — but the
/// recovered subspace must coincide and the eigenvalue mass must match.
#[test]
fn merged_backfill_matches_sequential_pass() {
    let dir = tmp_dir("seqmatch");
    let csv = dir.join("corpus.csv");
    write_corpus(&csv, &corpus(11, 1200));

    let cfg = BackfillConfig {
        pca: pca_cfg(),
        workers: 2,
        state_dir: dir.join("store"),
    };
    let partitions = partition_csv_rows(&csv, 4).unwrap();
    let outcome = backfill(&cfg, &partitions).unwrap();
    assert_eq!(outcome.stats.computed, 4);
    assert_eq!(outcome.merged.n_obs, 1200);

    let mut seq = PartitionWorker::new(pca_cfg());
    let text = std::fs::read_to_string(&csv).unwrap();
    let sequential = seq.process(&text).unwrap();

    let dist = subspace_distance(
        &outcome.merged.truncated(P).basis,
        &sequential.truncated(P).basis,
    )
    .unwrap();
    assert!(dist < 0.05, "merged vs sequential subspace distance {dist}");
    let m: f64 = outcome.merged.values.iter().sum();
    let s: f64 = sequential.values.iter().sum();
    assert!(
        (m - s).abs() < 0.25 * s.max(1e-9),
        "eigenvalue mass {m} vs {s}"
    );
    std::fs::remove_dir_all(dir).ok();
}

/// A warm re-run over an unchanged corpus is pure cache hits and produces
/// a bit-identical merged eigensystem — the determinism chain the CI gate
/// enforces (exact snapshot codec + merge from decoded store bytes +
/// fixed tree pairing).
#[test]
fn warm_rerun_is_full_cache_hit_and_bit_identical() {
    let dir = tmp_dir("warm");
    let csv = dir.join("corpus.csv");
    write_corpus(&csv, &corpus(12, 800));
    let cfg = BackfillConfig {
        pca: pca_cfg(),
        workers: 3,
        state_dir: dir.join("store"),
    };
    let partitions = partition_csv_rows(&csv, 5).unwrap();
    let cold = backfill(&cfg, &partitions).unwrap();
    assert_eq!(cold.stats.computed, 5);
    assert_eq!(cold.stats.cache_hits, 0);

    // Re-partitioning the unchanged corpus must reproduce ids and hashes.
    let again = partition_csv_rows(&csv, 5).unwrap();
    for (a, b) in partitions.iter().zip(&again) {
        assert_eq!(a.id, b.id);
        assert_eq!(a.content_hash, b.content_hash);
    }

    let warm = backfill(&cfg, &again).unwrap();
    assert_eq!(warm.stats.cache_hits, 5);
    assert_eq!(warm.stats.computed, 0);
    assert_eq!(
        encode_snapshot(&cold.merged),
        encode_snapshot(&warm.merged),
        "warm merged eigensystem must be bit-identical to cold"
    );

    // Different worker counts must not change the result either.
    let one_worker = backfill(
        &BackfillConfig {
            workers: 1,
            ..cfg.clone()
        },
        &again,
    )
    .unwrap();
    assert_eq!(
        encode_snapshot(&cold.merged),
        encode_snapshot(&one_worker.merged)
    );
    std::fs::remove_dir_all(dir).ok();
}

/// Appending one partition to a by-file corpus recomputes exactly that
/// partition — the O(partition), never O(history), incrementality claim.
#[test]
fn adding_a_partition_recomputes_exactly_one() {
    let dir = tmp_dir("incremental");
    let data = corpus(13, 1000);
    for (i, chunk) in data.chunks(250).enumerate() {
        write_corpus(&dir.join(format!("day{i}.csv")), chunk);
    }
    let files =
        |n: usize| -> Vec<PathBuf> { (0..n).map(|i| dir.join(format!("day{i}.csv"))).collect() };
    let cfg = BackfillConfig {
        pca: pca_cfg(),
        workers: 2,
        state_dir: dir.join("store"),
    };
    let first = backfill(&cfg, &partition_csv_files(&files(3)).unwrap()).unwrap();
    assert_eq!(first.stats.computed, 3);
    assert_eq!(first.merged.n_obs, 750);

    // "Yesterday's observations arrive": one new file, three cache hits.
    let second = backfill(&cfg, &partition_csv_files(&files(4)).unwrap()).unwrap();
    assert_eq!(second.stats.cache_hits, 3);
    assert_eq!(second.stats.computed, 1);
    assert_eq!(second.merged.n_obs, 1000);
    std::fs::remove_dir_all(dir).ok();
}

/// Editing one partition's bytes invalidates exactly that store entry: the
/// content hash is the cache key, not the file name or mtime.
#[test]
fn content_change_invalidates_one_partition() {
    let dir = tmp_dir("invalidate");
    let data = corpus(14, 800);
    for (i, chunk) in data.chunks(200).enumerate() {
        write_corpus(&dir.join(format!("plate{i}.csv")), chunk);
    }
    let files: Vec<PathBuf> = (0..4).map(|i| dir.join(format!("plate{i}.csv"))).collect();
    let cfg = BackfillConfig {
        pca: pca_cfg(),
        workers: 2,
        state_dir: dir.join("store"),
    };
    backfill(&cfg, &partition_csv_files(&files).unwrap()).unwrap();

    // Recalibrate plate 2: same shape, different bytes.
    let recal: Vec<Vec<f64>> = data[400..600]
        .iter()
        .map(|r| r.iter().map(|v| v * 1.01).collect())
        .collect();
    write_corpus(&files[2], &recal);

    let rerun = backfill(&cfg, &partition_csv_files(&files).unwrap()).unwrap();
    assert_eq!(rerun.stats.cache_hits, 3);
    assert_eq!(rerun.stats.computed, 1);
    std::fs::remove_dir_all(dir).ok();
}

/// Splicing the merged backfill state into a live streaming run through
/// `AppConfig::warm_start` resumes bit-identically whether the state comes
/// from memory or from a persisted snapshot — the same guarantee the
/// checkpoint-rehydration path gives, because both feed the same
/// `install_eigensystem` entry point and the snapshot codec is exact.
#[test]
fn splice_resumes_bit_identically_from_memory_and_disk() {
    let dir = tmp_dir("splice");
    let csv = dir.join("history.csv");
    write_corpus(&csv, &corpus(15, 600));
    let cfg = BackfillConfig {
        pca: pca_cfg(),
        workers: 2,
        state_dir: dir.join("store"),
    };
    let outcome = backfill(&cfg, &partition_csv_rows(&csv, 3).unwrap()).unwrap();

    // Round-trip the merged state through disk.
    let snap = dir.join("merged.snapshot");
    write_snapshot(&snap, &outcome.merged).unwrap();
    let from_disk = read_snapshot(&snap).unwrap();

    let live = dir.join("live.csv");
    write_corpus(&live, &corpus(16, 400));

    let run = |warm: spca_core::EigenSystem| -> Vec<u8> {
        // One engine, no synchronization: the stream is consumed in order
        // and nothing wall-clock-driven perturbs the state trajectory.
        let mut app = AppConfig::new(1, pca_cfg());
        app.sync = SyncStrategy::None;
        app.warm_start = Some(warm);
        let (graph, handles) = ParallelPcaApp::build(&app, Box::new(LineSource::new(&live)));
        Engine::run(graph);
        let state = handles.engine_states[0].lock();
        encode_snapshot(state.full_eigensystem().expect("initialized by warm start"))
    };

    let from_memory_bytes = run(outcome.merged.clone());
    let from_disk_bytes = run(from_disk);
    assert_eq!(
        from_memory_bytes, from_disk_bytes,
        "memory-spliced and disk-spliced runs must end in identical state"
    );
    std::fs::remove_dir_all(dir).ok();
}
