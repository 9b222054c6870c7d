//! `stream_drift`: the planted-drift fact stream folded into a warm
//! `StreamingBellwether` while the model it maintains is served.
//!
//! Each replay creates a fresh engine over the first [`BASE_WEEKS`]
//! weeks (set-up), then hands it the trailing weeks one batch at a time
//! on a fixed schedule. After each append the bench rebuilds the model,
//! saves its snapshot and swaps it into the running server, while the
//! same open-loop predict load as `retail` runs. The argmin flips once,
//! when the late bellwether's first week arrives. This is the write
//! path: delta CUBE, overlay writes, cache invalidation, rescoring and
//! hot swaps.

use crate::bench::{self, mb, secs, Ctx, Report};
use crate::loadgen::{self, LoadStats};
use bellwether::core::training::region_block;
use bellwether::core::StreamingBellwether;
use bellwether::datagen::{build_stream_workload, StreamConfig, StreamWorkload};
use bellwether::prelude::*;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

const ITEMS: usize = 400;
const WEEKS: u32 = 40;
/// Weeks folded into each fresh engine before its replay starts.
const BASE_WEEKS: u32 = 10;
/// First week of the late bellwether: the append carrying it flips the
/// argmin.
const OPEN_WEEK: u32 = 20;
const LEAVES: usize = 4;
/// Replays of the append schedule; with `WEEKS - BASE_WEEKS` appends
/// each, 150 appends: a p90 with fifteen samples beyond it.
const REPLAYS: usize = 5;
const SHARDS: usize = 2;
const CACHE_BYTES: usize = 64 << 20;

fn stream_config(seed: u64) -> StreamConfig {
    StreamConfig {
        n_items: ITEMS,
        weeks: WEEKS,
        leaves: LEAVES,
        item_hierarchy_leaves: 3,
        n_numeric_attrs: 2,
        bellwether_noise: 0.05,
        late_noise: 0.0005,
        open_week: OPEN_WEEK,
        seed,
    }
}

fn problem(ctx: &Ctx) -> Result<BellwetherConfig, String> {
    bench::problem(ctx, f64::INFINITY, ErrorMeasure::TrainingSet, 10)
}

/// The served model of the engine's current bellwether, built and saved.
fn publish(
    ctx: &Ctx,
    engine: &StreamingBellwether,
    path: &Path,
) -> Result<BellwetherModel, String> {
    let report = engine
        .search_result()
        .report()
        .ok_or("no feasible region")?;
    let model = ctx
        .span("core.model.build", || {
            ModelBuilder::new(engine.source(), engine.items().clone())
                .basic(report)
                .build()
        })
        .map_err(|e| e.to_string())?;
    ctx.span("core.model.save", || model.save(path))
        .map_err(|e| e.to_string())?;
    Ok(model)
}

/// Bitwise equality of two search states (reports in order, float bits
/// included).
fn same_state(a: &BasicSearchResult, b: &BasicSearchResult) -> bool {
    a.best == b.best
        && a.skipped_regions == b.skipped_regions
        && a.reports.len() == b.reports.len()
        && a.reports.iter().zip(&b.reports).all(|(x, y)| {
            x.source_index == y.source_index
                && x.region == y.region
                && x.n_examples == y.n_examples
                && x.cost.to_bits() == y.cost.to_bits()
                && x.error.value.to_bits() == y.error.value.to_bits()
                && x.model.coefficients().len() == y.model.coefficients().len()
                && x.model
                    .coefficients()
                    .iter()
                    .zip(y.model.coefficients())
                    .all(|(p, q)| p.to_bits() == q.to_bits())
        })
}

/// Cold rebuild over the whole stream: CUBE pass, layout, basic search.
fn cold_rebuild(
    wl: &StreamWorkload,
    dir: &Path,
    config: &BellwetherConfig,
) -> Result<BasicSearchResult, String> {
    let err = |e: std::io::Error| e.to_string();
    std::fs::create_dir_all(dir).map_err(err)?;
    let cube = cube_pass(&wl.region_space, &wl.full_input());
    let targets = wl.target_map();
    let p = (1 + wl.items.numeric_attrs().len() + cube.measure_names.len()) as u32;
    let plan = even_shard_plan(wl.regions.len(), SHARDS);
    let mut writer =
        ShardedWriter::create(dir, p, wl.region_space.arity() as u32, plan).map_err(err)?;
    for region in &wl.regions {
        writer
            .write_region(&region_block(&cube, region, &wl.items, &targets))
            .map_err(err)?;
    }
    writer.finish().map_err(err)?;
    let src = ShardedSource::open(dir).map_err(err)?;
    let cost = UniformCellCost { rate: 1.0 };
    basic_search(&src, &wl.region_space, &cost, config, wl.items.len()).map_err(|e| e.to_string())
}

pub fn run(ctx: &Ctx, rep: &mut Report) -> Result<(), String> {
    let appends = (WEEKS - BASE_WEEKS) as usize;
    let segment = Duration::from_secs_f64(ctx.seconds / REPLAYS as f64);
    let period = segment / appends as u32;
    let snapshot = ctx.work.join("stream.bwsn");
    let mut server: Option<ServerHandle> = None;
    let (mut setups, mut fresh, mut busy) = (Vec::new(), Vec::new(), Vec::new());
    let mut load = LoadStats::default();
    let (mut peak_mb, mut layout_growth) = (0.0f64, 0u64);
    let mut cache = (0u64, 0u64);
    let mut io = (0u64, 0u64);
    let mut last: Option<(StreamWorkload, StreamingBellwether)> = None;
    // The model last swapped into the server.
    let mut served: Option<Arc<BellwetherModel>> = None;
    for replay in 0..REPLAYS {
        // Set-up: a fresh engine over the base weeks, its model served.
        if let Some((_, old)) = last.take() {
            let dir = old.dir().to_path_buf();
            drop(old);
            std::fs::remove_dir_all(dir).ok();
        }
        let t = Instant::now();
        let wl = ctx.span("datagen.stream", || {
            build_stream_workload(&stream_config(ctx.seed))
        });
        let base = wl.input_range(0, BASE_WEEKS);
        let batches: Vec<CubeInput> = (BASE_WEEKS..WEEKS)
            .map(|w| wl.input_range(w, w + 1))
            .collect();
        let dir = ctx.work.join(format!("engine-{replay}"));
        let mut engine = ctx.span("core.stream.create", || {
            StreamingBellwether::create(
                &dir,
                &wl.region_space,
                &base,
                &wl.item_universe(),
                wl.items.clone(),
                wl.target_map(),
                wl.regions.clone(),
                Arc::new(UniformCellCost { rate: 1.0 }),
                problem(ctx)?,
                wl.items.len(),
                SHARDS,
                CACHE_BYTES,
            )
            .map_err(|e| e.to_string())
        })?;
        let model = Arc::new(publish(ctx, &engine, &snapshot)?);
        let handle = match server.take() {
            Some(h) => {
                ctx.span("serve.swap", || h.swap_model(Arc::clone(&model)));
                h
            }
            None => bench::start_server(ctx, Arc::clone(&model)).map_err(|e| e.to_string())?,
        };
        let (requests, _) = bench::request_mix(&model, wl.items.ids(), ctx.seed);
        served = Some(model);
        setups.push(secs(t));

        // Timed: the trailing weeks on schedule, under predict load.
        let disk_before = bench::dir_bytes(&dir);
        let cache_before = engine.source().cache_stats().snapshot();
        let io_before = engine.source().stats().snapshot();
        let before = ctx.counters();
        bench::reset_peak_rss();
        let plan = bench::plan(&handle, segment, &requests, None);
        let mut failures = Vec::new();
        let outcome = loadgen::run(&plan, &ctx.tracer, || {
            let start = Instant::now();
            let mut total = 0.0;
            for (k, batch) in batches.iter().enumerate() {
                bench::wait_until(ctx, start + period * k as u32);
                let t = Instant::now();
                let step = ctx
                    .span("core.stream.append", || engine.append(batch))
                    .map_err(|e| e.to_string())
                    .and_then(|_| publish(ctx, &engine, &snapshot));
                match step {
                    Ok(model) => {
                        let model = Arc::new(model);
                        ctx.span("serve.swap", || handle.swap_model(Arc::clone(&model)));
                        served = Some(model);
                        fresh.push(secs(t));
                        total += secs(t);
                    }
                    Err(e) => failures.push(e),
                }
            }
            total
        });
        peak_mb = peak_mb.max(bench::peak_rss_mb());
        rep.add_counters(&before, &ctx.counters());
        rep.attempted += (appends - failures.len()) as u64;
        for e in failures {
            rep.op::<(), _>("append", Err(e));
        }
        if let Some((stats, total)) = rep.op("load window", outcome) {
            load.merge(stats);
            busy.push(total);
        }
        let cache_after = engine.source().cache_stats().snapshot();
        cache.0 += cache_after.cache_hits() - cache_before.cache_hits();
        cache.1 += cache_after.cache_misses() - cache_before.cache_misses();
        let io_after = engine.source().stats().snapshot();
        io.0 += io_after.regions_read() - io_before.regions_read();
        io.1 += io_after.bytes_read() - io_before.bytes_read();
        layout_growth += bench::dir_bytes(&dir) - disk_before;

        // The engine logs every argmin change, and the winning prefix
        // interval grows most weeks; exactly one event may move the
        // bellwether to another location: L0 → L1, on the append
        // carrying the late bellwether's first week.
        let flip = u64::from(OPEN_WEEK - BASE_WEEKS + 1);
        let location = |label: &Option<String>| {
            label
                .as_deref()
                .and_then(|l| l.rsplit(", ").next())
                .map(str::to_string)
        };
        let moves: Vec<(u64, Option<String>)> = engine
            .drift_log()
            .iter()
            .filter(|e| location(&e.from_label) != location(&e.to_label))
            .map(|e| (e.append_seq, location(&e.to_label)))
            .collect();
        let ok = moves == [(flip, Some("L1]".to_string()))];
        rep.check(ok, || {
            format!("replay {replay}: expected one move to L1 at append {flip}, got {moves:?}")
        });
        server = Some(handle);
        last = Some((wl, engine));
    }
    rep.timed_end_ns = ctx.tracer.now_ns();
    let (wl, engine) = last.expect("at least one replay");

    rep.lower_quartile("setup_s", &setups);
    rep.lower_quartile("train_s", &busy);
    bench::finish_serving(rep, &load);
    let fresh_ms: Vec<f64> = fresh.iter().map(|s| s * 1e3).collect();
    rep.median("fresh_p50_ms", &fresh_ms);
    rep.tail("fresh_p90_ms", &fresh_ms, 0.9);
    rep.primary = fresh;
    rep.metrics.insert("peak_rss_mb", peak_mb);
    rep.metrics
        .insert("disk_mb", mb(bench::dir_bytes(engine.dir())));
    let sd = bench::std_dev(wl.targets.iter().copied());
    let rmse = engine.bellwether().map_or(f64::NAN, |r| r.error.value / sd);
    rep.metrics.insert("model_rmse", rmse);
    let per_append = |v: u64| v as f64 / (REPLAYS * appends) as f64;
    rep.layers
        .insert("storage.bytes_written", per_append(layout_growth));
    rep.layers.insert("storage.regions_read", per_append(io.0));
    rep.layers.insert("storage.bytes_read", per_append(io.1));
    let lookups = cache.0 + cache.1;
    rep.layers.insert(
        "storage.cache_hit_ratio",
        if lookups > 0 {
            cache.0 as f64 / lookups as f64
        } else {
            0.0
        },
    );
    let snapshot_bytes = std::fs::metadata(&snapshot).map_or(0, |m| m.len());
    rep.layers
        .insert("core.model.snapshot_bytes", snapshot_bytes as f64);

    // The maintained state must equal a cold rebuild over the whole
    // stream, bit for bit; and the server must hold and answer with the
    // last model published, built from that final state.
    let cold = cold_rebuild(&wl, &ctx.work.join("cold"), &problem(&ctx.untraced())?);
    let same = cold
        .as_ref()
        .is_ok_and(|c| same_state(&engine.search_result(), c));
    rep.check(same, || {
        format!(
            "stream state differs from a cold rebuild ({:?})",
            cold.err()
        )
    });
    if let (Some(handle), Some(model)) = (server, served) {
        rep.check(Arc::ptr_eq(&handle.model(), &model), || {
            "the server does not hold the last model published".to_string()
        });
        let (requests, expected) = bench::request_mix(&model, wl.items.ids(), ctx.seed);
        bench::check_answers(rep, &handle, &requests, &expected);
        handle.shutdown();
    }
    Ok(())
}
