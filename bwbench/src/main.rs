//! `bwbench`: the end-to-end benchmark of the bellwether pipeline.
//!
//! ```text
//! cargo run --release --offline --manifest-path bwbench/Cargo.toml -- \
//!     --workload retail|scale_disk|stream_drift --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. Each invocation runs one workload in
//! this fresh process, checks its outputs, prints every metric by name
//! with its unit, and ends with one JSON line:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
//!
//! `--trace 0` reports the end-to-end metrics, measured with tracing
//! and the metrics registry off. `--trace 1` runs the workload twice,
//! untraced and then traced with a registry attached, and reports the
//! per-layer ledger read from the traced run's spans and counters; the
//! two runs' primary-operation times give `trace.overhead_ratio`. The
//! spans and the ledger are written to `.bench_out/`.

mod bench;
mod host;
mod loadgen;
mod retail;
mod scale;
mod stats;
mod stream;
mod trace;

use bellwether::obs::Registry;
use bench::{Ctx, Report};
use std::path::PathBuf;
use std::process::ExitCode;
use trace::{Ledger, Tracer};

/// Seed used when `--seed` is absent.
const DEFAULT_SEED: u64 = 1;

const WORKLOADS: [&str; 3] = ["retail", "scale_disk", "stream_drift"];

/// End-to-end metrics, reported by every workload: name and unit.
/// Failed operations are counted in the result line's `attempted` and
/// `failed` rather than as a metric, since a metric must never read 0.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("train_s", "s"),
    ("predict_p50_us", "us"),
    ("fresh_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("disk_mb", "MB"),
    ("model_rmse", "target_sd"),
];

/// Per-layer metrics of the traced run: name and unit. A `*_s` name
/// not set otherwise is the median self time per call of the span of
/// the same name; 0 means the layer did no work in this workload.
const PER_LAYER: [(&str, &str); 48] = [
    ("table.label_s", "s"),
    ("table.cube_input_s", "s"),
    ("cube.pass_s", "s"),
    ("cube.rows_scanned", "count"),
    ("cube.cell_merges", "count"),
    ("core.training.blocks_s", "s"),
    ("core.basic.search_s", "s"),
    ("search.regions_evaluated", "count"),
    ("core.tree.rainforest_s", "s"),
    ("tree.nodes", "count"),
    ("core.cube.optimized_s", "s"),
    ("cube.cells_emitted", "count"),
    ("linreg.fits", "count"),
    ("linreg.cv_folds", "count"),
    ("linreg.scratch_reuse_ratio", "ratio"),
    ("core.model.build_s", "s"),
    ("core.model.save_s", "s"),
    ("core.model.load_s", "s"),
    ("core.model.snapshot_bytes", "bytes"),
    ("storage.write_s", "s"),
    ("storage.bytes_written", "bytes"),
    ("storage.regions_read", "count"),
    ("storage.bytes_read", "bytes"),
    ("storage.cache_hit_ratio", "ratio"),
    ("storage.cache_invalidations", "count"),
    ("coord.spawn_s", "s"),
    ("coord.reads", "count"),
    ("coord.frames_received", "count"),
    ("coord.restarts", "count"),
    ("coord.worker_peak_rss_mb", "MB"),
    ("coord.shutdown_s", "s"),
    ("core.stream.append_p50_ms", "ms"),
    ("core.stream.append_p90_ms", "ms"),
    ("stream.regions_dirtied", "count"),
    ("stream.rescore_ratio", "ratio"),
    ("stream.drift_events", "count"),
    ("serve.swap_s", "s"),
    ("fresh_p90_ms", "ms"),
    ("predict_p99_us", "us"),
    ("serve.requests", "count"),
    ("serve.errors", "count"),
    ("serve.rejected_busy", "count"),
    ("loadgen.late_p99_ms", "ms"),
    ("failed_ratio", "ratio"),
    ("trace.unattributed_share", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("train_wall_s", "s"),
    ("host.probe_ms", "ms"),
];

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, DEFAULT_SEED, 30.0, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|w| **w == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(1.0..=600.0).contains(&seconds) {
                    return Err(format!("seconds {seconds} outside 1..=600"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value:?} (want 0 or 1)")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Run the workload once in a fresh scratch directory.
fn run_workload(
    args: &Args,
    tracer: Tracer,
    registry: Option<std::sync::Arc<Registry>>,
) -> (Report, Tracer) {
    let work =
        PathBuf::from(".bench_out").join(format!("work-{}-{}", args.workload, std::process::id()));
    std::fs::remove_dir_all(&work).ok();
    let mut rep = Report::default();
    if let Err(e) = std::fs::create_dir_all(&work) {
        rep.check(false, || format!("cannot create {}: {e}", work.display()));
        return (rep, tracer);
    }
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        work,
        tracer,
        registry,
    };
    let outcome = match args.workload {
        "retail" => retail::run(&ctx, &mut rep),
        "scale_disk" => scale::run(&ctx, &mut rep),
        _ => stream::run(&ctx, &mut rep),
    };
    if let Err(e) = outcome {
        rep.check(false, || format!("{} aborted: {e}", args.workload));
    }
    std::fs::remove_dir_all(&ctx.work).ok();
    // Gone only when empty, i.e. when no trace was written there.
    std::fs::remove_dir(".bench_out").ok();
    (rep, ctx.tracer)
}

/// Value of per-layer metric `name` from the traced run.
fn layer_value(name: &str, rep: &Report, ledger: &Ledger, overhead: f64) -> f64 {
    let total = |c: &str| rep.counters.get(c).copied().unwrap_or(0) as f64;
    let per_op = |c: &str| total(c) / rep.primary.len().max(1) as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let append = ledger.row("core.stream.append");
    match name {
        "cube.rows_scanned" => per_op("cube_pass/rows_scanned"),
        "cube.cell_merges" => per_op("cube_pass/cell_merges"),
        "search.regions_evaluated" => per_op("search/regions_evaluated"),
        "tree.nodes" => per_op("tree/nodes"),
        "cube.cells_emitted" => per_op("cube/cells_emitted"),
        "linreg.fits" => per_op("linreg/fits"),
        "linreg.cv_folds" => per_op("linreg/cv_folds_evaluated"),
        "linreg.scratch_reuse_ratio" => {
            let reuses = total("linreg/scratch_reuses");
            ratio(reuses, reuses + total("linreg/scratch_grows"))
        }
        "coord.reads" => per_op("coord/reads"),
        "coord.frames_received" => per_op("coord/frames_received"),
        "coord.restarts" => total("coord/worker_restarts"),
        "stream.regions_dirtied" => per_op("stream/regions_dirtied"),
        "storage.cache_invalidations" => per_op("storage/cache_invalidations"),
        "stream.rescore_ratio" => ratio(
            total("stream/regions_rescored"),
            total("stream/regions_dirtied"),
        ),
        "stream.drift_events" => total("stream/drift_events"),
        "serve.requests" => total("serve/requests"),
        "serve.errors" => total("serve/errors"),
        "serve.rejected_busy" => total("serve/rejected_busy"),
        "core.stream.append_p50_ms" => append.map_or(0.0, |r| 1e3 * r.p50_s),
        "core.stream.append_p90_ms" => append.and_then(|r| r.p90_s).map_or(0.0, |v| 1e3 * v),
        "failed_ratio" => ratio(rep.failed as f64, rep.attempted as f64),
        "trace.unattributed_share" => ledger.unattributed_share,
        "trace.overhead_ratio" => overhead,
        _ => match (rep.layers.get(name), name.strip_suffix("_s")) {
            (Some(&v), _) => v,
            (None, Some(span)) => ledger.self_p50_s(span),
            (None, None) => 0.0,
        },
    }
}

fn json_metrics(values: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = values
        .iter()
        .map(|(name, v, unit)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() -> ExitCode {
    // The coordinator re-runs this binary as a shard worker.
    bellwether::coord::maybe_run_worker();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bwbench: {e}");
            eprintln!(
                "usage: bwbench --workload {} [--seed N] [--seconds S] [--trace 0|1]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };

    let (values, attempted, failed, problems) = if args.trace {
        let (plain, _) = run_workload(&args, Tracer::off(), None);
        let run_id = format!(
            "{}-seed{}-pid{}",
            args.workload,
            args.seed,
            std::process::id()
        );
        let (traced, tracer) = run_workload(&args, Tracer::on(run_id), Some(Registry::shared()));
        let ledger = tracer.ledger(0, traced.timed_end_ns);
        eprint!("{}", ledger.render());
        let path = PathBuf::from(".bench_out")
            .join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
        if let Err(e) = tracer.write(&path, &ledger) {
            eprintln!("bwbench: cannot write {}: {e}", path.display());
        }
        let overhead = match (
            stats::median(&traced.primary),
            stats::median(&plain.primary),
        ) {
            (Some(t), Some(p)) if p > 0.0 => t / p,
            _ => 0.0,
        };
        let values: Vec<(&str, f64, &str)> = PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, layer_value(name, &traced, &ledger, overhead), unit))
            .collect();
        let problems: Vec<String> = plain.problems.into_iter().chain(traced.problems).collect();
        (
            values,
            plain.attempted + traced.attempted,
            plain.failed + traced.failed,
            problems,
        )
    } else {
        let (rep, _) = run_workload(&args, Tracer::off(), None);
        let values: Vec<(&str, f64, &str)> = END_TO_END
            .iter()
            .map(|&(name, unit)| {
                (
                    name,
                    rep.metrics.get(name).copied().unwrap_or(f64::NAN),
                    unit,
                )
            })
            .collect();
        if let (Some(wall), Some(probe)) = (
            rep.layers.get("train_wall_s"),
            rep.layers.get("host.probe_ms"),
        ) {
            eprintln!(
                "bwbench: train_s is host-adjusted; median training wall time {wall:.4} s, median probe {probe:.2} ms"
            );
        }
        let mut problems = rep.problems;
        for (name, v, _) in &values {
            if !v.is_finite() {
                problems.push(format!("{name} was not measured"));
            }
        }
        (values, rep.attempted, rep.failed, problems)
    };

    for p in &problems {
        eprintln!("bwbench: CHECK FAILED: {p}");
    }
    for (name, v, unit) in &values {
        println!("{name:<28} {v:>16.6} {unit}");
    }
    let correct = problems.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {}}}",
        attempted.max(1),
        json_metrics(&values)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
