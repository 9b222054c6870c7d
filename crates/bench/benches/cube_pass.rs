//! The CUBE pass kernel (§4.2): all `(region, item)` aggregates in one
//! sweep over the fact data of a small retail dataset.
//!
//! This bench records the kernel trajectory the perf work is judged by:
//! the legacy hash-per-row kernel (`cube_pass_reference`) against the
//! dense-keyed chunked kernel (`cube_pass_traced`, no-op recorder) at 1/2/4/8 worker
//! threads, plus the end-to-end retail preparation. Results land in
//! `results/BENCH_cube_pass.json`.

use bellwether_bench::{emit_metrics_json, prepare_retail, results_dir, Harness};
use bellwether_core::build_cube_input;
use bellwether_cube::{cube_pass_reference, cube_pass_traced, Parallelism};
use bellwether_datagen::{generate_retail, RetailConfig};
use bellwether_obs::{NoopRecorder, Registry};

fn main() {
    let mut cfg = RetailConfig::mail_order(150, 99);
    cfg.months = 8;
    cfg.converge_month = 6;
    cfg.states = Some(vec![
        "MD", "WI", "CA", "TX", "NY", "IL", "FL", "OH", "PA", "GA",
    ]);
    let data = generate_retail(&cfg);
    let input = build_cube_input(&data.db, &data.space, &data.feature_queries).unwrap();
    eprintln!("fact rows: {}", data.db.fact.num_rows());

    let mut h = Harness::new();

    // The seed kernel: HashMap<(Vec<u32>, i64)> phase 1 plus
    // containing_regions re-materialised per base cell in phase 2.
    h.bench("cube_pass_reference_retail_150x8x10", || {
        cube_pass_reference(&data.space, &input)
    });

    // The dense-keyed kernel across the worker-thread matrix. Thread
    // count never changes the bits, only the wall clock.
    for threads in [1usize, 2, 4, 8] {
        h.bench(
            &format!("cube_pass_retail_150x8x10/threads={threads}"),
            || {
                cube_pass_traced(
                    &data.space,
                    &input,
                    Parallelism::fixed(threads),
                    &NoopRecorder,
                )
            },
        );
    }

    h.bench("prepare_retail_end_to_end", || {
        let mut small = cfg.clone();
        small.n_items = 60;
        small.months = 5;
        small.converge_month = 4;
        prepare_retail(&small)
    });

    // The same kernel with a live recorder: the timing above measures
    // the disabled-recorder (one branch per phase) path; this bench
    // measures the enabled path, and the snapshot records the work
    // profile of one pass.
    let registry = Registry::shared();
    h.bench("cube_pass_retail_150x8x10/recorder=on", || {
        cube_pass_traced(&data.space, &input, Parallelism::fixed(1), registry.as_ref())
    });
    registry.reset();
    cube_pass_traced(&data.space, &input, Parallelism::fixed(1), registry.as_ref());
    emit_metrics_json(
        &registry.snapshot(),
        &results_dir().join("BENCH_cube_pass_metrics.json"),
    );

    let speedup = match (
        h.result("cube_pass_reference_retail_150x8x10"),
        h.result("cube_pass_retail_150x8x10/threads=1"),
    ) {
        (Some(reference), Some(new1)) => reference.median_secs() / new1.median_secs(),
        _ => f64::NAN,
    };
    println!("speedup (reference / new, 1 thread, median): {speedup:.2}x");

    h.emit_json(&results_dir().join("BENCH_cube_pass.json"));
}
