//! `retail`: the mail-order workload trained in memory end to end,
//! snapshotted, and served.
//!
//! Timed path, repeated by [`bench::repeat_training`], each time on
//! freshly generated facts (the set-up): facts → label → CUBE input →
//! CUBE pass → in-memory blocks → basic search (10-fold CV) + RF tree +
//! optimized cube → model → snapshot on disk.
//! Then the snapshot is loaded and served at the fixed open-loop rate
//! while it is redeployed [`bench::REDEPLOYS`] times. Storage I/O, the
//! coordinator and streaming do no work here.

use crate::bench::{self, mb, secs, Ctx, Report};
use crate::host;
use crate::stats;
use bellwether::core::build_cube_input_with;
use bellwether::core::training::build_memory_source_with;
use bellwether::datagen::RetailDataset;
use bellwether::prelude::*;
use std::collections::HashMap;
use std::path::Path;
use std::time::Instant;

/// Items in the catalogue.
const N_ITEMS: usize = 1000;
/// States in the location hierarchy.
const STATES: [&str; 16] = [
    "MD", "WI", "CA", "TX", "NY", "IL", "FL", "OH", "PA", "GA", "VA", "NC", "MA", "WA", "AZ", "CO",
];
/// The budget affords exactly this many of the cheapest candidate
/// regions (of 280), so every seed searches the same number of regions
/// even though the zip-area costs are drawn per seed.
const AFFORDABLE: usize = 200;
/// RF tree depth. One split already routes each category to its own
/// tight state; deeper trees bundle a seed-dependent number of extra
/// regions into the snapshot.
const TREE_DEPTH: usize = 1;

fn config(seed: u64) -> RetailConfig {
    let mut cfg = RetailConfig::mail_order_heterogeneous(N_ITEMS, seed);
    cfg.states = Some(STATES.to_vec());
    // Converging in the last month gives each tight state exactly one
    // best interval, so the tree and the cube pick the same region per
    // category instead of one of several near-tied prefixes.
    cfg.converge_month = cfg.months;
    cfg
}

/// The cost of the `AFFORDABLE`-th cheapest region.
fn budget(data: &RetailDataset) -> f64 {
    let mut costs: Vec<f64> = data
        .space
        .all_regions()
        .iter()
        .map(|r| data.cost.cost(&data.space, r))
        .collect();
    costs.sort_by(f64::total_cmp);
    costs[AFFORDABLE.min(costs.len()) - 1]
}

struct Trained {
    model: BellwetherModel,
    /// The basic bellwether's RMSE in standard deviations of the target.
    rmse: f64,
    regions_read: u64,
    bytes_read: u64,
}

/// One training job, from the facts to the snapshot at `snapshot`.
fn train(ctx: &Ctx, data: &RetailDataset, budget: f64, snapshot: &Path) -> Result<Trained, String> {
    let one = Parallelism::fixed(1);
    let err = |e: BellwetherError| e.to_string();
    let targets: HashMap<i64, f64> = ctx
        .span("table.label", || {
            global_target(&data.db, "profit", AggFunc::Sum)
        })
        .map_err(err)?;
    let input = ctx
        .span("table.cube_input", || {
            build_cube_input_with(&data.db, &data.space, &data.feature_queries, one)
        })
        .map_err(err)?;
    let cube = ctx.span("cube.pass", || {
        cube_pass_traced(&data.space, &input, one, ctx.recorder().as_ref())
    });
    let regions: Vec<RegionId> = data
        .space
        .all_regions()
        .into_iter()
        .filter(|r| data.cost.cost(&data.space, r) <= budget)
        .collect();
    let source = ctx.span("core.training.blocks", || {
        build_memory_source_with(&cube, &regions, &data.items, &targets, one)
    });
    drop(cube);

    let cv = bench::problem(ctx, budget, ErrorMeasure::cv10(), 20)?;
    let fit = bench::problem(ctx, budget, ErrorMeasure::TrainingSet, 20)?;
    let n = data.items.len();
    let search = ctx
        .span("core.basic.search", || {
            basic_search(&source, &data.space, &data.cost, &cv, n)
        })
        .map_err(err)?;
    let basic = search.report().ok_or("no affordable region can be fit")?;
    let tree_cfg = TreeConfig {
        max_depth: TREE_DEPTH,
        min_node_items: n / 8,
        max_numeric_splits: 16,
        ..TreeConfig::default()
    };
    let tree = ctx
        .span("core.tree.rainforest", || {
            build_rainforest(&source, &data.space, &data.items, None, &fit, &tree_cfg)
        })
        .map_err(err)?;
    let cube_cfg = CubeConfig {
        min_subset_size: n / 10,
    };
    let bw_cube = ctx
        .span("core.cube.optimized", || {
            build_optimized_cube(
                &source,
                &data.space,
                &data.item_space,
                &data.item_coords,
                &fit,
                &cube_cfg,
            )
        })
        .map_err(err)?;
    let rmse = basic.error / bench::std_dev(targets.values().copied());
    let model = ctx
        .span("core.model.build", || {
            ModelBuilder::new(&source, data.items.clone())
                .basic(basic)
                .tree(tree)
                .cube(bw_cube, 0.95)
                .build()
        })
        .map_err(err)?;
    ctx.span("core.model.save", || model.save(snapshot))
        .map_err(err)?;
    let io = source.stats().snapshot();
    Ok(Trained {
        model,
        rmse,
        regions_read: io.regions_read(),
        bytes_read: io.bytes_read(),
    })
}

pub fn run(ctx: &Ctx, rep: &mut Report) -> Result<(), String> {
    let cfg = config(ctx.seed);
    let snapshot = ctx.work.join("retail.bwsn");
    let before = ctx.counters();
    bench::reset_peak_rss();
    // Each training job starts from freshly generated facts, so the
    // set-ups are sampled across the whole training phase. Host-speed
    // probes, timed apart, come before the first set-up and after each
    // job: set-up `i` is adjusted by probe `i`, job `i` by probe `i + 1`.
    let (mut setups, mut trains) = (Vec::new(), Vec::new());
    let mut probes = vec![ctx.span("host.probe", host::probe)];
    let ((data, budget), trained) = bench::repeat_training(
        ctx,
        rep,
        &mut setups,
        || {
            let data = ctx.span("datagen.retail", || generate_retail(&cfg));
            let budget = budget(&data);
            (data, budget)
        },
        |(data, budget)| {
            let t = Instant::now();
            let trained = train(ctx, data, *budget, &snapshot);
            trains.push(secs(t));
            probes.push(ctx.span("host.probe", host::probe));
            trained
        },
    )?;
    // The primary operation is the job alone, without its probe.
    rep.primary.clone_from(&trains);
    rep.adjusted_lower_quartile("setup_s", &setups, &probes);
    rep.adjusted_lower_quartile("train_s", &trains, &probes[1..]);
    if let (Some(wall), Some(probe)) = (stats::median(&trains), stats::median(&probes)) {
        rep.layers.insert("train_wall_s", wall);
        rep.layers.insert("host.probe_ms", probe * 1e3);
    }
    let loaded = ctx
        .span("core.model.load", || BellwetherModel::load(&snapshot))
        .map_err(|e| e.to_string())?;
    let handle = bench::start_server(ctx, loaded.clone()).map_err(|e| e.to_string())?;
    let (requests, expected) = bench::request_mix(&trained.model, data.items.ids(), ctx.seed);
    let window = bench::serve_window(ctx);
    let fresh =
        bench::serve_with_redeploys(ctx, rep, &handle, &snapshot, window, &requests, &expected);
    rep.timed_end_ns = ctx.tracer.now_ns();
    rep.metrics.insert("peak_rss_mb", bench::peak_rss_mb());
    rep.add_counters(&before, &ctx.counters());

    let fresh_ms: Vec<f64> = fresh.iter().map(|s| s * 1e3).collect();
    rep.median("fresh_p50_ms", &fresh_ms);
    rep.tail("fresh_p90_ms", &fresh_ms, 0.9);
    rep.metrics
        .insert("disk_mb", mb(bench::dir_bytes(&ctx.work)));
    rep.metrics.insert("model_rmse", trained.rmse);
    let snapshot_bytes = std::fs::metadata(&snapshot).map_or(0, |m| m.len());
    rep.layers
        .insert("core.model.snapshot_bytes", snapshot_bytes as f64);
    rep.layers
        .insert("storage.regions_read", trained.regions_read as f64);
    rep.layers
        .insert("storage.bytes_read", trained.bytes_read as f64);

    // Output checks.
    // Each category's planted tight state is its bellwether: the cube
    // cell of the category must pick an affordable region of that state.
    // (No single region fits both categories, so the basic search's
    // whole-catalogue winner is not checked.)
    let cells = trained.model.cube().map(|(c, _)| &c.cells);
    for (category, state) in &cfg.planted {
        let cell =
            cells.and_then(|cells| cells.values().find(|c| c.label == format!("[{category}]")));
        let ok = cell.is_some_and(|c| {
            c.region_label.ends_with(&format!(", {state}]"))
                && data.cost.cost(&data.space, &c.region) <= budget
        });
        rep.check(ok, || {
            let got = cell.map(|c| c.region_label.clone());
            format!("{category}: bellwether {got:?} is not an affordable {state} region")
        });
    }
    rep.check(
        bench::same_model_predictions(&loaded, &trained.model, data.items.ids()),
        || "snapshot predictions differ from the in-memory model".to_string(),
    );
    bench::check_answers(rep, &handle, &requests, &expected);
    handle.shutdown();
    Ok(())
}
