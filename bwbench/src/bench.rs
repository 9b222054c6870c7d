//! What every workload shares: the run context, the report it fills,
//! the serving phase and the process measurements.

use crate::host;
use crate::loadgen::{self, LoadStats, Plan};
use crate::stats;
use crate::trace::Tracer;
use bellwether::prelude::*;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Open-loop predict rate of every serving phase, requests per second.
pub const RATE_HZ: f64 = 500.0;
/// Item ids per `/predict` request: enough work per request that the
/// server's own time, not thread wake-ups, sets the latency.
pub const BATCH: usize = 256;
/// Distinct request bodies the load cycles through.
const DISTINCT_REQUESTS: usize = 64;
/// Every this many answers is checked against the reference model.
const CHECK_EVERY: usize = 16;
/// Share of a `retail` or `scale_disk` run spent repeating the training
/// job; the rest serves.
const TRAIN_SHARE: f64 = 0.55;
/// Fewest training jobs per run, however long each takes.
const MIN_JOBS: usize = 3;
/// Redeploys per serving phase: a p90 with ten samples beyond it.
pub const REDEPLOYS: usize = 110;

/// One run of one workload.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    /// Scratch directory inside the checkout, removed after the run.
    pub work: PathBuf,
    pub tracer: Tracer,
    /// Attached only in the traced run.
    pub registry: Option<Arc<Registry>>,
}

impl Ctx {
    /// The same run with tracing and the registry off, for work that
    /// checks outputs rather than being measured.
    pub fn untraced(&self) -> Ctx {
        Ctx {
            seed: self.seed,
            seconds: self.seconds,
            work: self.work.clone(),
            tracer: Tracer::off(),
            registry: None,
        }
    }

    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.tracer.span(name, f)
    }

    /// The recorder builders report into: the registry when traced.
    pub fn recorder(&self) -> Arc<dyn Recorder> {
        match &self.registry {
            Some(r) => r.clone(),
            None => Arc::new(NoopRecorder),
        }
    }

    /// Registry for components that always need one (server,
    /// coordinator): the traced run's, else a private throwaway.
    pub fn registry_or_private(&self) -> Arc<Registry> {
        self.registry.clone().unwrap_or_else(Registry::shared)
    }

    /// Current registry counters (empty when untraced).
    pub fn counters(&self) -> BTreeMap<String, u64> {
        self.registry
            .as_ref()
            .map(|r| r.snapshot().counters.into_iter().collect())
            .unwrap_or_default()
    }
}

/// Everything a run measured and checked.
#[derive(Default)]
pub struct Report {
    /// End-to-end metrics by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Per-layer values only the workload knows (file sizes, worker
    /// peaks, cache statistics).
    pub layers: BTreeMap<&'static str, f64>,
    /// Wall seconds of each primary operation (a training job, or one
    /// append through swap): the unit per-layer counters are divided by.
    pub primary: Vec<f64>,
    /// Registry counter increments during the timed phase.
    pub counters: BTreeMap<String, u64>,
    pub attempted: u64,
    pub failed: u64,
    /// Failed output checks.
    pub problems: Vec<String>,
    /// Tracer time at which the timed phase ended.
    pub timed_end_ns: u64,
}

impl Report {
    /// Record one output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.problems.push(what());
        }
    }

    /// Record one operation that either worked or failed.
    pub fn op<T, E: std::fmt::Display>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                eprintln!("bwbench: {what} failed: {e}");
                None
            }
        }
    }

    /// Median of `samples` as end-to-end metric `name`.
    pub fn median(&mut self, name: &'static str, samples: &[f64]) {
        if let Some(v) = stats::median(samples) {
            self.metrics.insert(name, v);
        }
    }

    /// Lower quartile of a repeated operation's `walls` seconds, each
    /// adjusted by the host-speed probe of the same index in `probes`
    /// (see [`host`]), as end-to-end metric `name`.
    pub fn adjusted_lower_quartile(&mut self, name: &'static str, walls: &[f64], probes: &[f64]) {
        let adjusted: Vec<f64> = walls
            .iter()
            .zip(probes)
            .map(|(&wall, &probe)| host::adjust(wall, probe))
            .collect();
        self.lower_quartile(name, &adjusted);
    }

    /// Lower quartile of a repeated operation's `samples` as end-to-end
    /// metric `name` (see [`stats::lower_quartile`]).
    pub fn lower_quartile(&mut self, name: &'static str, samples: &[f64]) {
        if let Some(v) = stats::lower_quartile(samples) {
            self.metrics.insert(name, v);
        }
    }

    /// Tail percentile `q` of `samples` as per-layer metric `name`: on a
    /// shared host, tails move too much from run to run to serve as
    /// bounded end-to-end metrics. A sample too small to support the
    /// percentile is a failed check.
    pub fn tail(&mut self, name: &'static str, samples: &[f64], q: f64) {
        let v = stats::percentile(samples, q);
        self.check(v.is_some(), || {
            format!(
                "{name}: {} samples cannot support the percentile",
                samples.len()
            )
        });
        self.layers.insert(name, v.unwrap_or(0.0));
    }

    /// Add the counter increments between two registry snapshots.
    pub fn add_counters(&mut self, before: &BTreeMap<String, u64>, after: &BTreeMap<String, u64>) {
        for (name, &v) in after {
            let delta = v - before.get(name).copied().unwrap_or(0);
            *self.counters.entry(name.clone()).or_default() += delta;
        }
    }
}

/// Peak resident set of this process since the last reset, in MB.
pub fn peak_rss_mb() -> f64 {
    mb(bellwether_bench::peak_rss_bytes().unwrap_or(0))
}

/// Restart the kernel's peak-RSS mark from the current RSS, so the next
/// [`peak_rss_mb`] covers only what follows.
pub fn reset_peak_rss() {
    if !bellwether_bench::reset_peak_rss() {
        eprintln!("bwbench: cannot reset the peak RSS mark; peak_rss_mb covers the whole process");
    }
}

/// Bytes of every file under `path`.
pub fn dir_bytes(path: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(path) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(_) => e.metadata().map_or(0, |m| m.len()),
            Err(_) => 0,
        })
        .sum()
}

/// Population standard deviation; `model_rmse` is an RMSE in these
/// units, so it does not move with the scale a seed gives the target.
pub fn std_dev(values: impl Iterator<Item = f64>) -> f64 {
    let v: Vec<f64> = values.collect();
    let mean = v.iter().sum::<f64>() / v.len() as f64;
    (v.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / v.len() as f64).sqrt()
}

pub fn mb(bytes: u64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Repeat the training `job` for the first [`TRAIN_SHARE`] of the run,
/// at least [`MIN_JOBS`] times, each on fresh inputs from `setup`.
/// Each set-up's wall time goes to `setups` and each job's is recorded
/// as a primary operation; returns the last inputs and job output.
pub fn repeat_training<S, T>(
    ctx: &Ctx,
    rep: &mut Report,
    setups: &mut Vec<f64>,
    mut setup: impl FnMut() -> S,
    mut job: impl FnMut(&S) -> Result<T, String>,
) -> Result<(S, T), String> {
    let start = Instant::now();
    let budget = Duration::from_secs_f64(ctx.seconds * TRAIN_SHARE);
    loop {
        let t = Instant::now();
        let inputs = setup();
        setups.push(secs(t));
        let t = Instant::now();
        let out = job(&inputs);
        rep.primary.push(secs(t));
        let out = rep
            .op("training job", out)
            .ok_or_else(|| "training failed".to_string())?;
        if rep.primary.len() >= MIN_JOBS && start.elapsed() >= budget {
            return Ok((inputs, out));
        }
    }
}

/// The serving window that follows [`repeat_training`].
pub fn serve_window(ctx: &Ctx) -> Duration {
    Duration::from_secs_f64(ctx.seconds * (1.0 - TRAIN_SHARE))
}

/// The search problem every builder of a workload shares: `budget`,
/// `measure`, regions with at least `min_examples` examples, one
/// builder thread, and the run's recorder.
pub fn problem(
    ctx: &Ctx,
    budget: f64,
    measure: ErrorMeasure,
    min_examples: usize,
) -> Result<BellwetherConfig, String> {
    BellwetherConfig::builder(budget)
        .min_coverage(0.0)
        .min_examples(min_examples)
        .error_measure(measure)
        .parallelism(Parallelism::fixed(1))
        .recorder(ctx.recorder())
        .build()
        .map_err(|e| e.to_string())
}

/// Start the prediction server: two workers, on loopback.
pub fn start_server(ctx: &Ctx, model: Arc<BellwetherModel>) -> std::io::Result<ServerHandle> {
    let config = ServeConfig::builder()
        .workers(2)
        .registry(ctx.registry_or_private())
        .build()?;
    ctx.span("serve.start", || Server::bind("127.0.0.1:0", model, config))
}

/// The fixed request mix: `DISTINCT_REQUESTS` batches of `BATCH` ids
/// drawn from `ids` by the run's seed, cycling through every method the
/// model serves; plus the predictions `model` gives for each.
pub fn request_mix(
    model: &BellwetherModel,
    ids: &[i64],
    seed: u64,
) -> (Vec<Vec<u8>>, Vec<Vec<Option<f64>>>) {
    let methods = model.methods();
    let mut state = seed ^ 0x5851_f42d_4c95_7f2d;
    let mut next = || {
        // splitmix64
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    (0..DISTINCT_REQUESTS)
        .map(|r| {
            let method = methods[r % methods.len()];
            let batch: Vec<i64> = (0..BATCH)
                .map(|_| ids[(next() % ids.len() as u64) as usize])
                .collect();
            (
                loadgen::predict_request(method.name(), &batch),
                model.predict_batch(method, &batch),
            )
        })
        .unzip()
}

/// A load window of `window` at [`RATE_HZ`] against `handle`.
pub fn plan<'a>(
    handle: &ServerHandle,
    window: Duration,
    requests: &'a [Vec<u8>],
    expected: Option<&'a [Vec<Option<f64>>]>,
) -> Plan<'a> {
    Plan {
        addr: handle.local_addr(),
        rate_hz: RATE_HZ,
        count: (window.as_secs_f64() * RATE_HZ) as usize,
        requests,
        expected,
        check_every: CHECK_EVERY,
    }
}

/// Wait for `due`, recorded as time the schedule made the run wait.
pub fn wait_until(ctx: &Ctx, due: Instant) {
    if due > Instant::now() {
        ctx.span("wait.schedule", || loadgen::wait_until(due));
    }
}

/// Serve `window` of open-loop load while the driving thread redeploys
/// the snapshot at `snapshot` [`REDEPLOYS`] times (load it, swap it
/// in). Every sampled answer must equal `expected`; returns the
/// redeploy latencies in seconds.
pub fn serve_with_redeploys(
    ctx: &Ctx,
    rep: &mut Report,
    handle: &ServerHandle,
    snapshot: &Path,
    window: Duration,
    requests: &[Vec<u8>],
    expected: &[Vec<Option<f64>>],
) -> Vec<f64> {
    let plan = plan(handle, window, requests, Some(expected));
    let mut fresh = Vec::with_capacity(REDEPLOYS);
    let mut loads: Vec<Result<(), String>> = Vec::new();
    let outcome = loadgen::run(&plan, &ctx.tracer, || {
        let start = Instant::now();
        for k in 0..REDEPLOYS {
            wait_until(ctx, start + window.mul_f64(k as f64 / REDEPLOYS as f64));
            let t = Instant::now();
            match ctx.span("core.model.load", || BellwetherModel::load(snapshot)) {
                Ok(model) => {
                    ctx.span("serve.swap", || handle.swap_model(model));
                    fresh.push(secs(t));
                    loads.push(Ok(()));
                }
                Err(e) => loads.push(Err(e.to_string())),
            }
        }
    });
    for r in loads {
        rep.op("snapshot redeploy", r);
    }
    if let Some((stats, ())) = rep.op("load window", outcome) {
        finish_serving(rep, &stats);
    }
    fresh
}

/// Fold the run's load windows into the report: requests attempted and
/// failed, the sampled-answer check, and the predict-latency metrics.
pub fn finish_serving(rep: &mut Report, stats: &LoadStats) {
    rep.attempted += stats.attempted;
    rep.failed += stats.failed;
    let bad = stats.mismatches;
    rep.check(bad == 0, || {
        format!("{bad} sampled HTTP answers differ from model.predict")
    });
    rep.median("predict_p50_us", &stats.latency_us);
    rep.tail("predict_p99_us", &stats.latency_us, 0.99);
    let late = stats::percentile(&stats.late_ms, 0.99).unwrap_or(0.0);
    rep.layers.insert("loadgen.late_p99_ms", late);
}

/// Synchronous spot check after the window: each distinct request once,
/// on its own connection, must get exactly `expected`.
pub fn check_answers(
    rep: &mut Report,
    handle: &ServerHandle,
    requests: &[Vec<u8>],
    expected: &[Vec<Option<f64>>],
) {
    for (req, want) in requests.iter().zip(expected).take(8) {
        let got = loadgen::request_once(handle.local_addr(), req);
        let ok = matches!(&got, Ok((200, body))
            if loadgen::parse_predictions(body).is_some_and(|p| loadgen::same_predictions(&p, want)));
        rep.check(ok, || {
            "an HTTP answer differs from model.predict".to_string()
        });
    }
}

/// Every prediction of `a` equals `b`'s, bit for bit, for every served
/// method and item.
pub fn same_model_predictions(a: &BellwetherModel, b: &BellwetherModel, ids: &[i64]) -> bool {
    a.methods() == b.methods()
        && a.methods()
            .into_iter()
            .all(|m| loadgen::same_predictions(&a.predict_batch(m, ids), &b.predict_batch(m, ids)))
}
