//! Kernel-dispatch microbenchmark: scalar vs. dispatched (AVX2+FMA when
//! available) timings for `dot`, `axpy` and the GEMM inner block at
//! d ∈ {256, 1000, 4000}.
//!
//! This is the measurement behind the recorded `BENCH_kernels.json`
//! artifact. Both columns are timed inside one process using the backend
//! override, so compiler flags, allocator state and frequency scaling are
//! held as equal as a userspace benchmark can make them. The GEMM cell
//! multiplies a `d × 32` panel by a `32 × 32` block — the tall-times-small
//! shape every consumer in the engine produces (basis panels, Gram
//! accumulation), not a square BLAS-3 stress shape.

use spca_bench::json::{write_artifact, Json};
use spca_bench::print_table;
use spca_linalg::kernels::{self, Backend};
use std::hint::black_box;
use std::time::Instant;

const DIMS: [usize; 3] = [256, 1000, 4000];
const REPS: usize = 25;
const GEMM_K: usize = 32;
const GEMM_W: usize = 32;

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[samples.len() / 2]
}

/// Median ns per call of `f`, self-calibrating the inner iteration count
/// so each sample runs ≥ ~1 ms.
fn time_ns(mut f: impl FnMut()) -> f64 {
    let mut iters = 1usize;
    loop {
        let t0 = Instant::now();
        for _ in 0..iters {
            f();
        }
        if t0.elapsed().as_secs_f64() >= 1e-3 || iters >= 1 << 24 {
            break;
        }
        iters *= 4;
    }
    let mut samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..iters {
                f();
            }
            t0.elapsed().as_secs_f64() * 1e9 / iters as f64
        })
        .collect();
    median(&mut samples)
}

fn fill(n: usize, phase: f64) -> Vec<f64> {
    (0..n).map(|i| (i as f64 * 0.37 + phase).sin()).collect()
}

fn bench_kernel(kernel: &str, d: usize, be: Backend) -> f64 {
    kernels::set_backend_override(Some(be));
    let ns = match kernel {
        "dot" => {
            let a = fill(d, 0.0);
            let b = fill(d, 1.0);
            time_ns(|| {
                black_box(kernels::dot(black_box(&a), black_box(&b)));
            })
        }
        "axpy" => {
            let x = fill(d, 0.0);
            let mut y = fill(d, 1.0);
            time_ns(|| {
                kernels::axpy(black_box(1.0000000001), black_box(&x), black_box(&mut y));
            })
        }
        "gemm" => {
            let a = fill(d * GEMM_K, 0.0);
            let b = fill(GEMM_K * GEMM_W, 1.0);
            let mut out = vec![0.0; d * GEMM_W];
            time_ns(|| {
                out.fill(0.0);
                kernels::gemm_block(d, GEMM_K, GEMM_W, black_box(&a), black_box(&b), &mut out);
                black_box(&out);
            })
        }
        other => unreachable!("unknown kernel {other}"),
    };
    kernels::set_backend_override(None);
    ns
}

fn main() {
    let dispatched = kernels::backend();
    println!(
        "dispatched backend: {} (SPCA_FORCE_SCALAR honored)",
        dispatched.name()
    );

    let mut rows = Vec::new();
    let mut table = Vec::new();
    for kernel in ["dot", "axpy", "gemm"] {
        for d in DIMS {
            let scalar_ns = bench_kernel(kernel, d, Backend::Scalar);
            let dispatched_ns = bench_kernel(kernel, d, dispatched);
            let speedup = scalar_ns / dispatched_ns;
            println!("{kernel:>5} d={d:<5} scalar {scalar_ns:10.1} ns  dispatched {dispatched_ns:10.1} ns  {speedup:5.2}x");
            table.push(vec![d as f64, scalar_ns, dispatched_ns, speedup]);
            rows.push(Json::obj([
                ("kernel", kernel.into()),
                ("d", d.into()),
                ("scalar_ns", scalar_ns.into()),
                ("dispatched_ns", dispatched_ns.into()),
                ("speedup", speedup.into()),
            ]));
        }
    }
    print_table(
        "kernel dispatch (scalar vs dispatched, median ns/call)",
        &["d", "scalar_ns", "dispatched_ns", "speedup"],
        &table,
    );

    let report = Json::obj([
        ("schema", "kernels-v1".into()),
        (
            "benchmark",
            format!(
                "kernel dispatch: dot/axpy/gemm at d in {{256, 1000, 4000}}, gemm as \
                 (d x {GEMM_K}) * ({GEMM_K} x {GEMM_W}), median of {REPS} samples per cell"
            )
            .into(),
        ),
        (
            "machine_note",
            "single container vCPU, cargo run --release, both columns timed in one process via \
             the backend override"
                .into(),
        ),
        ("backend", dispatched.name().into()),
        ("reps", REPS.into()),
        (
            "target",
            "dot and gemm at d=1000 ≥ 1.5x dispatched over scalar".into(),
        ),
        ("results", rows.into()),
    ]);
    write_artifact("BENCH_kernels.json", &report);
}
