//! `scale_disk`: the §7.4 scale generator written as a two-shard layout
//! on disk, trained through the two-process coordinator.
//!
//! Set-up writes the layout and spawns the worker fleet. The timed
//! path repeats basic search + optimized cube through the coordinator
//! ([`bench::repeat_training`]), snapshots the basic model, and serves
//! it like `retail`. Storage decode and coordinator frames do
//! the work here; the table, CUBE-pass and RF-tree layers do none.
//!
//! The served model is the basic bellwether alone: its snapshot holds
//! one region block for every seed, while the cube's cells bundle one
//! to three more depending on the seed, which moved the redeploy time
//! and peak RSS with the seed by up to 45% and 27%. The cube is still
//! trained in every job, and the traced run checks the full model.

use crate::bench::{self, mb, secs, Ctx, Report};
use bellwether::datagen::ScaleWorkload;
use bellwether::prelude::*;
use std::path::Path;
use std::time::Instant;

/// Training examples in the layout (regions × 2,500 items).
const EXAMPLES: usize = 1_000_000;
const SHARDS: usize = 2;
/// Layout writes and fleet spawns per run; `setup_s` is their lower
/// quartile.
const SETUPS: usize = 3;

fn problem(ctx: &Ctx) -> Result<BellwetherConfig, String> {
    bench::problem(ctx, f64::INFINITY, ErrorMeasure::TrainingSet, 10)
}

fn spawn(ctx: &Ctx, layout: &Path, bin: &Path) -> std::io::Result<Coordinator> {
    let (plan, config) = (WorkerFaultPlan::none(), CoordinatorConfig::new());
    match &ctx.registry {
        Some(reg) => Coordinator::spawn_processes_with_registry(layout, bin, plan, config, reg),
        None => Coordinator::spawn_processes(layout, bin, plan, config),
    }
}

/// One training job: basic search + optimized cube over `src`.
fn train(
    ctx: &Ctx,
    src: &dyn TrainingSource,
    w: &ScaleWorkload,
) -> Result<(BellwetherReport, BellwetherCube), String> {
    let p = problem(ctx)?;
    let cost = UniformCellCost { rate: 1.0 };
    let n = w.items.len();
    let search = ctx
        .span("core.basic.search", || {
            basic_search(src, &w.region_space, &cost, &p, n)
        })
        .map_err(|e| e.to_string())?;
    let report = search.report().ok_or("no region can be fit")?;
    let cube_cfg = CubeConfig {
        min_subset_size: n / 10,
    };
    let cube = ctx
        .span("core.cube.optimized", || {
            build_optimized_cube(
                src,
                &w.region_space,
                &w.item_space,
                &w.item_coords,
                &p,
                &cube_cfg,
            )
        })
        .map_err(|e| e.to_string())?;
    Ok((report, cube))
}

/// The model of the basic bellwether and, when given, the cube, built
/// over `src` and saved at `path`.
fn snapshot(
    ctx: &Ctx,
    src: &dyn TrainingSource,
    w: &ScaleWorkload,
    basic: BellwetherReport,
    cube: Option<BellwetherCube>,
    path: &Path,
) -> Result<BellwetherModel, String> {
    let model = ctx
        .span("core.model.build", || {
            let builder = ModelBuilder::new(src, w.items.clone()).basic(basic);
            match cube {
                Some(cube) => builder.cube(cube, 0.95),
                None => builder,
            }
            .build()
        })
        .map_err(|e| e.to_string())?;
    ctx.span("core.model.save", || model.save(path))
        .map_err(|e| e.to_string())?;
    Ok(model)
}

pub fn run(ctx: &Ctx, rep: &mut Report) -> Result<(), String> {
    let bin = std::env::current_exe().map_err(|e| e.to_string())?;
    let layout = ctx.work.join("layout");
    let mut setups = Vec::new();
    let mut fleet: Option<(ScaleWorkload, Coordinator)> = None;
    let mut bytes_written = 0;
    for _ in 0..SETUPS {
        if let Some((_, coord)) = fleet.take() {
            ctx.span("coord.shutdown", || coord.shutdown());
        }
        std::fs::remove_dir_all(&layout).ok();
        let t = Instant::now();
        let w = ctx.span("datagen.scale", || {
            build_scale_workload(&ScaleConfig::sized_for(EXAMPLES, ctx.seed))
        });
        std::fs::create_dir_all(&layout).map_err(|e| e.to_string())?;
        let manifest = ctx
            .span("storage.write", || w.write_sharded(&layout, SHARDS))
            .map_err(|e| e.to_string())?;
        bytes_written = manifest.shards.iter().map(|s| s.bytes).sum::<u64>();
        let coord = ctx
            .span("coord.spawn", || spawn(ctx, &layout, &bin))
            .map_err(|e| e.to_string())?;
        setups.push(secs(t));
        fleet = Some((w, coord));
    }
    let (w, coord) = fleet.expect("at least one set-up");
    rep.lower_quartile("setup_s", &setups);

    let path = ctx.work.join("scale.bwsn");
    let before = ctx.counters();
    let io_before = coord.stats().snapshot();
    bench::reset_peak_rss();
    let ((), (report, cube)) = bench::repeat_training(
        ctx,
        rep,
        &mut Vec::new(),
        || (),
        |()| train(ctx, &coord, &w),
    )?;
    let io_after = coord.stats().snapshot();
    let rmse = report.error / bench::std_dev(w.targets.iter().copied());
    let best = report.region_index;
    let model = snapshot(ctx, &coord, &w, report.clone(), None, &path)?;
    let loaded = ctx
        .span("core.model.load", || BellwetherModel::load(&path))
        .map_err(|e| e.to_string())?;
    let handle = bench::start_server(ctx, loaded.clone()).map_err(|e| e.to_string())?;
    let (requests, expected) = bench::request_mix(&model, w.items.ids(), ctx.seed);
    let window = bench::serve_window(ctx);
    let fresh = bench::serve_with_redeploys(ctx, rep, &handle, &path, window, &requests, &expected);
    let exits = ctx.span("coord.shutdown", || coord.shutdown());
    rep.timed_end_ns = ctx.tracer.now_ns();
    rep.metrics.insert("peak_rss_mb", bench::peak_rss_mb());
    rep.add_counters(&before, &ctx.counters());

    let trains = rep.primary.clone();
    rep.lower_quartile("train_s", &trains);
    let fresh_ms: Vec<f64> = fresh.iter().map(|s| s * 1e3).collect();
    rep.median("fresh_p50_ms", &fresh_ms);
    rep.tail("fresh_p90_ms", &fresh_ms, 0.9);
    rep.metrics
        .insert("disk_mb", mb(bench::dir_bytes(&ctx.work)));
    rep.metrics.insert("model_rmse", rmse);
    let per_train = |a: u64, b: u64| (a - b) as f64 / trains.len() as f64;
    rep.layers.insert(
        "storage.regions_read",
        per_train(io_after.regions_read(), io_before.regions_read()),
    );
    rep.layers.insert(
        "storage.bytes_read",
        per_train(io_after.bytes_read(), io_before.bytes_read()),
    );
    rep.layers
        .insert("storage.bytes_written", bytes_written as f64);
    let snapshot_bytes = std::fs::read(&path).unwrap_or_default();
    rep.layers
        .insert("core.model.snapshot_bytes", snapshot_bytes.len() as f64);
    let worker_peak = exits
        .iter()
        .filter_map(|e| e.peak_rss_bytes)
        .max()
        .unwrap_or(0);
    rep.layers
        .insert("coord.worker_peak_rss_mb", mb(worker_peak));

    // Output checks.
    rep.check(w.planted_regions.contains(&best), || {
        format!(
            "bellwether region {best} is not planted {:?}",
            w.planted_regions
        )
    });
    rep.check(exits.iter().all(|e| e.peak_rss_bytes.is_some()), || {
        "a worker did not say Bye on shutdown".to_string()
    });
    rep.check(
        bench::same_model_predictions(&loaded, &model, w.items.ids()),
        || "snapshot predictions differ from the in-memory model".to_string(),
    );
    bench::check_answers(rep, &handle, &requests, &expected);
    handle.shutdown();
    if ctx.tracer.enabled() {
        // The process fleet must train exactly what the in-process
        // sharded source trains: the served snapshot, and the full
        // model of the fleet's basic bellwether and cube, must match
        // the in-process path's byte for byte.
        let quiet = ctx.untraced();
        let file = |name: &str| ctx.work.join(name);
        let same = ShardedSource::open(&layout)
            .map_err(|e| e.to_string())
            .and_then(|src| {
                let (local_report, local_cube) = train(&quiet, &src, &w)?;
                snapshot(
                    &quiet,
                    &src,
                    &w,
                    local_report.clone(),
                    None,
                    &file("local.bwsn"),
                )?;
                snapshot(
                    &quiet,
                    &src,
                    &w,
                    local_report,
                    Some(local_cube),
                    &file("local-full.bwsn"),
                )?;
                snapshot(
                    &quiet,
                    &src,
                    &w,
                    report,
                    Some(cube),
                    &file("fleet-full.bwsn"),
                )?;
                let read = |name: &str| std::fs::read(file(name)).map_err(|e| e.to_string());
                Ok(read("local.bwsn")? == snapshot_bytes
                    && read("local-full.bwsn")? == read("fleet-full.bwsn")?)
            });
        rep.check(same == Ok(true), || {
            format!("coordinator snapshots differ from the in-process ones ({same:?})")
        });
    }
    Ok(())
}
