//! The external run policy: the CUBE engine of [`crate::cube_pass`] for
//! fact tables whose phase-1 state does not fit in RAM.
//!
//! # Run discipline
//!
//! The engine folds fact rows in its usual fixed
//! [`ROW_CHUNK`](crate::cube_pass::ROW_CHUNK)-row chunks and
//! closes a **run** every [`RUN_CHUNKS`] chunks (the last run may be
//! short), merging it with the same run merger the cold pass uses — a
//! cold pass is this policy with one run over every chunk and no
//! budget. A `RunStore` then decides only *where* completed runs live:
//! when the resident runs exceed the byte budget, the oldest ones are
//! serialized to temp files (a `shard/spills` counter per run,
//! `shard/spill_bytes` for volume) until the budget holds again.
//! Finally every run — spilled and resident alike — is fed, in formation
//! order, into one run merger over the whole key space (a resident run
//! table by table, a spilled one frame by frame) and the merged base
//! cells are rolled up by the ordinary rollup.
//!
//! # Determinism
//!
//! Run boundaries are a function of the input alone ([`RUN_CHUNKS`]
//! chunks each), never of the budget or thread count. The budget picks
//! between two bit-exact representations of the same run — the
//! in-memory `StateTable`s or their serialized form, which round-trips
//! every accumulator exactly (`f64` bits, integer counts, the
//! key-sorted distinct pair lists) — so the final merge is fed identical
//! per-run state either way. The merger folds each key's contributions
//! in feed order (copy the first, merge the rest), which is ascending
//! run order: the same copy-first, earlier-chunks-first discipline it
//! applies to the chunks of one run. Distinct lanes restore their
//! keep-last dedup invariant once, when the merge finishes. Hence the
//! acceptance property: **a spill-forced pass (tiny budget) and an
//! unlimited-budget pass are bit-identical**, at any thread count.
//!
//! The budget bounds the *aggregation state* (completed runs). Two
//! allocations are intentionally outside it: the transient chunk tables
//! of the run being folded (at most `RUN_CHUNKS × ROW_CHUNK` rows of
//! state — the floor any streaming pass pays) and the final merged
//! base-cell table handed to the rollup, whose size is bounded by
//! `#finest-cells × #items` — the aggregate itself, which must fit to
//! be useful, independent of how many fact rows collapsed into it.

use crate::cube_pass::{run_pass, CubeInput, CubeResult, RunMerger, StateCol, StateTable};
use crate::parallel::Parallelism;
use crate::region::RegionSpace;
use bellwether_obs::{names, span, Recorder};
use bellwether_table::ops::AggFunc;
use std::fs::{self, File};
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Chunks per run. Fixed — never derived from the budget or thread
/// count — so every budget produces the same run structure and the
/// spill-vs-resident choice cannot change a single output bit.
pub const RUN_CHUNKS: usize = 64;

/// Cells per serialized spill frame (also the decoder's bound on a
/// frame's cell count).
const FRAME_CELLS: usize = 4096;

/// Pass with no byte budget: nothing ever spills.
pub const UNLIMITED_BUDGET: usize = usize::MAX;

fn invalid<T>(msg: String) -> io::Result<T> {
    Err(io::Error::new(io::ErrorKind::InvalidData, msg))
}

// ---------------------------------------------------------------------
// Spill-file format (temp scratch, process-private):
//   header:  u32 n_cols, then per column u8 kind tag + u8 func tag
//   frames:  u32 cell count (0 terminates), count × u64 keys, then per
//            column its lanes for those cells
// All integers and floats little-endian; `f64` via `to_bits`, so the
// round trip is bit-exact.
// ---------------------------------------------------------------------

fn func_tag(f: AggFunc) -> u8 {
    match f {
        AggFunc::Sum => 0,
        AggFunc::Min => 1,
        AggFunc::Max => 2,
        AggFunc::Avg => 3,
        AggFunc::Count => 4,
        AggFunc::CountDistinct => 5,
    }
}

fn func_from(tag: u8) -> io::Result<AggFunc> {
    Ok(match tag {
        0 => AggFunc::Sum,
        1 => AggFunc::Min,
        2 => AggFunc::Max,
        3 => AggFunc::Avg,
        4 => AggFunc::Count,
        5 => AggFunc::CountDistinct,
        other => return invalid(format!("bad func tag {other} in spill run")),
    })
}

fn col_tags(c: &StateCol) -> (u8, u8) {
    match c {
        StateCol::Sum { .. } => (0, 0),
        StateCol::Count(_) => (1, 0),
        StateCol::Avg { .. } => (2, 0),
        StateCol::Min { .. } => (3, 0),
        StateCol::Max { .. } => (4, 0),
        StateCol::Distinct { func, .. } => (5, func_tag(*func)),
    }
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append one column's lanes for cells `lo..hi` to the frame buffer.
fn encode_lanes(col: &StateCol, lo: usize, hi: usize, out: &mut Vec<u8>) {
    match col {
        StateCol::Sum { totals, seen }
        | StateCol::Min { vals: totals, seen }
        | StateCol::Max { vals: totals, seen } => {
            for &v in &totals[lo..hi] {
                put_u64(out, v.to_bits());
            }
            out.extend(seen[lo..hi].iter().map(|&b| b as u8));
        }
        StateCol::Count(c) => {
            for &v in &c[lo..hi] {
                put_u64(out, v);
            }
        }
        StateCol::Avg { totals, counts } => {
            for &v in &totals[lo..hi] {
                put_u64(out, v.to_bits());
            }
            for &v in &counts[lo..hi] {
                put_u64(out, v);
            }
        }
        StateCol::Distinct { pairs, .. } => {
            for list in &pairs[lo..hi] {
                put_u32(out, list.len() as u32);
                for &(k, v) in list {
                    put_u64(out, k as u64);
                    put_u64(out, v.to_bits());
                }
            }
        }
    }
}

/// Serialize a run (tables with ascending disjoint key ranges) to
/// `path`; returns bytes written.
fn write_run(path: &PathBuf, shards: &[StateTable]) -> io::Result<u64> {
    let mut w = BufWriter::new(File::create(path)?);
    let mut bytes = 0u64;
    let mut buf = Vec::new();

    let cols = shards.first().map(|t| t.cols.as_slice()).unwrap_or(&[]);
    put_u32(&mut buf, cols.len() as u32);
    for c in cols {
        let (kind, func) = col_tags(c);
        buf.push(kind);
        buf.push(func);
    }
    w.write_all(&buf)?;
    bytes += buf.len() as u64;

    for table in shards {
        let mut lo = 0;
        while lo < table.len() {
            let hi = (lo + FRAME_CELLS).min(table.len());
            buf.clear();
            put_u32(&mut buf, (hi - lo) as u32);
            for &k in &table.keys[lo..hi] {
                put_u64(&mut buf, k);
            }
            for col in &table.cols {
                encode_lanes(col, lo, hi, &mut buf);
            }
            w.write_all(&buf)?;
            bytes += buf.len() as u64;
            lo = hi;
        }
    }
    buf.clear();
    put_u32(&mut buf, 0);
    w.write_all(&buf)?;
    bytes += buf.len() as u64;
    w.flush()?;
    Ok(bytes)
}

/// Decoder of one spill run. Every length field is bounded before it
/// sizes an allocation: a frame's cell count by [`FRAME_CELLS`], any
/// other length by the bytes left in the file, so a corrupt file fails
/// with `InvalidData` instead of requesting gigabytes.
struct FrameReader {
    r: BufReader<File>,
    /// Bytes of the file not yet read.
    left: u64,
    schema: Vec<(u8, u8)>,
}

impl FrameReader {
    /// Account for `n` more bytes, or fail if the file has fewer left.
    fn take(&mut self, n: u64) -> io::Result<usize> {
        if n > self.left {
            return invalid(format!(
                "spill run wants {n} more bytes but only {} are left",
                self.left
            ));
        }
        self.left -= n;
        Ok(n as usize)
    }

    fn bytes(&mut self, n: u64) -> io::Result<Vec<u8>> {
        let mut v = vec![0u8; self.take(n)?];
        self.r.read_exact(&mut v)?;
        Ok(v)
    }

    fn u32(&mut self) -> io::Result<u32> {
        let mut b = [0u8; 4];
        self.take(4)?;
        self.r.read_exact(&mut b)?;
        Ok(u32::from_le_bytes(b))
    }

    fn u64s(&mut self, n: usize) -> io::Result<Vec<u64>> {
        let raw = self.bytes(n as u64 * 8)?;
        Ok(raw
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk")))
            .collect())
    }

    fn f64s(&mut self, n: usize) -> io::Result<Vec<f64>> {
        Ok(self.u64s(n)?.into_iter().map(f64::from_bits).collect())
    }

    fn bools(&mut self, n: usize) -> io::Result<Vec<bool>> {
        Ok(self.bytes(n as u64)?.into_iter().map(|b| b != 0).collect())
    }

    fn open(path: &PathBuf) -> io::Result<FrameReader> {
        let file = File::open(path)?;
        let mut fr = FrameReader {
            left: file.metadata()?.len(),
            r: BufReader::new(file),
            schema: Vec::new(),
        };
        let n_cols = fr.u32()?;
        let raw = fr.bytes(n_cols as u64 * 2)?;
        fr.schema = raw.chunks_exact(2).map(|c| (c[0], c[1])).collect();
        Ok(fr)
    }

    /// Read the next frame as a small [`StateTable`]; `None` at the
    /// terminator.
    fn next_frame(&mut self) -> io::Result<Option<StateTable>> {
        let n = self.u32()? as usize;
        if n == 0 {
            return Ok(None);
        }
        if n > FRAME_CELLS {
            return invalid(format!(
                "spill frame claims {n} cells, more than {FRAME_CELLS}"
            ));
        }
        let keys = self.u64s(n)?;
        let schema = self.schema.clone();
        let mut cols = Vec::with_capacity(schema.len());
        for &(kind, func) in &schema {
            let col = match kind {
                0 | 3 | 4 => {
                    let vals = self.f64s(n)?;
                    let seen = self.bools(n)?;
                    match kind {
                        0 => StateCol::Sum { totals: vals, seen },
                        3 => StateCol::Min { vals, seen },
                        _ => StateCol::Max { vals, seen },
                    }
                }
                1 => StateCol::Count(self.u64s(n)?),
                2 => StateCol::Avg {
                    totals: self.f64s(n)?,
                    counts: self.u64s(n)?,
                },
                5 => {
                    let mut pairs = Vec::with_capacity(n);
                    for _ in 0..n {
                        let len = self.u32()?;
                        let raw = self.bytes(len as u64 * 16)?;
                        pairs.push(
                            raw.chunks_exact(16)
                                .map(|c| {
                                    (
                                        i64::from_le_bytes(c[..8].try_into().expect("8 bytes")),
                                        f64::from_bits(u64::from_le_bytes(
                                            c[8..].try_into().expect("8 bytes"),
                                        )),
                                    )
                                })
                                .collect(),
                        );
                    }
                    StateCol::Distinct {
                        func: func_from(func)?,
                        pairs,
                    }
                }
                other => return invalid(format!("bad column tag {other} in spill run")),
            };
            cols.push(col);
        }
        Ok(Some(StateTable { keys, cols }))
    }
}

// ---------------------------------------------------------------------
// The run store
// ---------------------------------------------------------------------

/// One completed run: merged, key-sorted state, either in memory or in
/// a spill file.
enum Run {
    Resident(Vec<StateTable>),
    Spilled(PathBuf),
}

/// Approximate resident size of one table (budget accounting).
fn table_bytes(t: &StateTable) -> usize {
    let n = t.len();
    let mut b = n * 8;
    for col in &t.cols {
        b += match col {
            StateCol::Sum { .. } | StateCol::Min { .. } | StateCol::Max { .. } => n * 9,
            StateCol::Count(_) => n * 8,
            StateCol::Avg { .. } => n * 16,
            StateCol::Distinct { pairs, .. } => {
                n * 24 + pairs.iter().map(|p| p.capacity() * 16).sum::<usize>()
            }
        }
    }
    b
}

/// Temp directory for this pass's spill files; removed on drop.
struct SpillDir {
    dir: Option<PathBuf>,
    seq: usize,
}

impl SpillDir {
    fn next_path(&mut self) -> io::Result<PathBuf> {
        if self.dir.is_none() {
            static PASS_SEQ: AtomicU64 = AtomicU64::new(0);
            let d = std::env::temp_dir().join(format!(
                "bw_spill_{}_{}",
                std::process::id(),
                PASS_SEQ.fetch_add(1, Ordering::Relaxed)
            ));
            fs::create_dir_all(&d)?;
            self.dir = Some(d);
        }
        let path = self
            .dir
            .as_ref()
            .expect("created above")
            .join(format!("run-{:04}.bwrun", self.seq));
        self.seq += 1;
        Ok(path)
    }
}

impl Drop for SpillDir {
    fn drop(&mut self) {
        if let Some(dir) = &self.dir {
            let _ = fs::remove_dir_all(dir);
        }
    }
}

/// Where the engine's completed runs live: resident while they fit the
/// byte budget, the oldest spilled to temp files when they do not.
pub(crate) struct RunStore {
    budget: usize,
    runs: Vec<Run>,
    resident_bytes: usize,
    spill_dir: SpillDir,
}

impl RunStore {
    /// A store holding at most `budget` bytes of resident runs
    /// ([`UNLIMITED_BUDGET`] never spills).
    pub(crate) fn new(budget: usize) -> RunStore {
        RunStore {
            budget,
            runs: Vec::new(),
            resident_bytes: 0,
            spill_dir: SpillDir { dir: None, seq: 0 },
        }
    }

    /// Keep a completed run (its key-range shards, in key order), then
    /// spill the oldest resident runs until the budget holds.
    pub(crate) fn push(&mut self, shards: Vec<StateTable>, rec: &dyn Recorder) -> io::Result<()> {
        if self.budget != UNLIMITED_BUDGET {
            self.resident_bytes += shards.iter().map(table_bytes).sum::<usize>();
        }
        self.runs.push(Run::Resident(shards));
        for run in &mut self.runs {
            if self.resident_bytes <= self.budget {
                break;
            }
            if let Run::Resident(shards) = run {
                let path = self.spill_dir.next_path()?;
                let written = write_run(&path, shards)?;
                rec.add(names::SHARD_SPILLS, 1);
                rec.add(names::SHARD_SPILL_BYTES, written);
                self.resident_bytes -= shards.iter().map(table_bytes).sum::<usize>();
                *run = Run::Spilled(path);
            }
        }
        Ok(())
    }

    /// All base cells, key-sorted, and the cross-run merge count. A
    /// single resident run is already merged — that is the cold pass;
    /// otherwise every run is fed to one merger in formation order.
    pub(crate) fn merge(
        mut self,
        key_space: u64,
        rec: &dyn Recorder,
    ) -> io::Result<(Vec<StateTable>, u64)> {
        if let [Run::Resident(shards)] = self.runs.as_mut_slice() {
            return Ok((std::mem::take(shards), 0));
        }
        let _t = span!(rec, "cube_pass/external_merge");
        rec.add(names::SHARD_RUNS_MERGED, self.runs.len() as u64);
        let mut merger = RunMerger::new(0, key_space, key_space);
        for run in std::mem::take(&mut self.runs) {
            match run {
                Run::Resident(shards) => shards.iter().for_each(|t| merger.push(t)),
                Run::Spilled(path) => {
                    let mut frames = FrameReader::open(&path)?;
                    while let Some(frame) = frames.next_frame()? {
                        merger.push(&frame);
                    }
                }
            }
        }
        let (table, merges) = merger.finish();
        Ok((vec![table], merges))
    }
}

// ---------------------------------------------------------------------
// The pass
// ---------------------------------------------------------------------

/// Run the CUBE pass over one or more fact inputs under a byte budget
/// for resident aggregation state, spilling completed runs to temp
/// files when the budget is exceeded. `budget_bytes == usize::MAX`
/// ([`UNLIMITED_BUDGET`]) never spills.
///
/// For a fixed input partition the result is bit-identical at any
/// budget × thread combination (see the module docs for the argument).
/// Different partitions of the same rows may differ in float grouping —
/// compare like with like.
///
/// Inputs must share one measure schema (names, kinds, functions, in
/// order). When the dense key encoding overflows the pass falls back to
/// the tuple-keyed reference kernel over the concatenated input, which
/// is *not* out-of-core — callers at scale should keep their key spaces
/// within `u64` (the normal case).
pub fn cube_pass_external(
    space: &RegionSpace,
    inputs: &[CubeInput],
    par: Parallelism,
    budget_bytes: usize,
    rec: &dyn Recorder,
) -> io::Result<CubeResult> {
    run_pass(
        space,
        inputs,
        par,
        RUN_CHUNKS,
        RunStore::new(budget_bytes),
        rec,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cube_pass::{
        cube_pass_reference, cube_pass_traced, fold_chunks, merge_chunks, KeySpace, Measure,
        ROW_CHUNK,
    };
    use crate::dimension::{Dimension, Hierarchy};
    use bellwether_obs::{NoopRecorder, Registry};

    /// Tiny deterministic generator (xorshift) for fact rows.
    struct Lcg(u64);

    impl Lcg {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        fn f64(&mut self) -> f64 {
            // Awkward floats on purpose: sums must not be exactly
            // representable, so any merge-order deviation shows.
            (self.next() as f64 / u64::MAX as f64) * 10.0 - 5.0 + 1.0 / 3.0
        }
    }

    fn space() -> RegionSpace {
        let mut loc = Hierarchy::new("L", "All");
        let a = loc.add_child(0, "A");
        loc.add_child(a, "A1");
        loc.add_child(a, "A2");
        let b = loc.add_child(0, "B");
        loc.add_child(b, "B1");
        RegionSpace::new(vec![
            Dimension::Interval {
                name: "T".into(),
                max_t: 4,
            },
            Dimension::Hierarchy(loc),
        ])
    }

    /// `rows` fact rows over the space's leaves with every measure kind.
    fn input(rows: usize, seed: u64) -> CubeInput {
        let leaves = [2u32, 3, 5];
        let mut g = Lcg(seed | 1);
        let mut item_ids = Vec::with_capacity(rows);
        let mut coords = Vec::with_capacity(rows * 2);
        let mut sums = Vec::with_capacity(rows);
        let mut mins = Vec::with_capacity(rows);
        let mut avgs = Vec::with_capacity(rows);
        let mut fks = Vec::with_capacity(rows);
        let mut fkv = Vec::with_capacity(rows);
        for _ in 0..rows {
            item_ids.push(g.below(7) as i64 * 3);
            coords.push(g.below(4) as u32);
            coords.push(leaves[g.below(3) as usize]);
            sums.push((g.below(10) > 0).then(|| g.f64()));
            mins.push((g.below(10) > 1).then(|| g.f64()));
            avgs.push(Some(g.f64()));
            fks.push((g.below(4) > 0).then(|| g.below(5) as i64));
            fkv.push(g.f64());
        }
        CubeInput {
            item_ids,
            coords,
            measures: vec![
                Measure::Numeric {
                    name: "s".into(),
                    func: AggFunc::Sum,
                    values: sums,
                },
                Measure::Numeric {
                    name: "m".into(),
                    func: AggFunc::Min,
                    values: mins,
                },
                Measure::Numeric {
                    name: "a".into(),
                    func: AggFunc::Avg,
                    values: avgs.clone(),
                },
                Measure::Numeric {
                    name: "c".into(),
                    func: AggFunc::Count,
                    values: avgs,
                },
                Measure::DistinctKeyed {
                    name: "d".into(),
                    func: AggFunc::Sum,
                    keys: fks.clone(),
                    values: fkv.clone(),
                },
                Measure::DistinctKeyed {
                    name: "cd".into(),
                    func: AggFunc::CountDistinct,
                    keys: fks,
                    values: fkv,
                },
            ],
        }
    }

    /// Bit-level comparison of two results (NaN-safe).
    fn assert_bit_identical(a: &CubeResult, b: &CubeResult, what: &str) {
        assert_eq!(a.measure_names, b.measure_names, "{what}: names");
        assert_eq!(a.regions.len(), b.regions.len(), "{what}: region count");
        for (r, items) in &a.regions {
            let other = b.regions.get(r).unwrap_or_else(|| {
                panic!("{what}: region {r:?} missing")
            });
            assert_eq!(items.len(), other.len(), "{what}: {r:?} item count");
            for (id, vals) in items {
                let ovals = &other[id];
                let bits: Vec<Option<u64>> =
                    vals.iter().map(|v| v.map(f64::to_bits)).collect();
                let obits: Vec<Option<u64>> =
                    ovals.iter().map(|v| v.map(f64::to_bits)).collect();
                assert_eq!(bits, obits, "{what}: {r:?} item {id}");
            }
        }
    }

    fn par(threads: usize) -> Parallelism {
        Parallelism::fixed(threads).with_min_chunk(1)
    }

    #[test]
    fn single_run_matches_in_memory_kernel_exactly() {
        let sp = space();
        let inp = input(3000, 42);
        let expect = cube_pass_traced(&sp, &inp, par(1), &NoopRecorder);
        for threads in [1, 2, 4] {
            let got = cube_pass_external(
                &sp,
                std::slice::from_ref(&inp),
                par(threads),
                UNLIMITED_BUDGET,
                &NoopRecorder,
            )
            .unwrap();
            assert_bit_identical(&got, &expect, &format!("threads={threads}"));
        }
    }

    #[test]
    fn forced_spill_is_bit_identical_to_unlimited() {
        let sp = space();
        // Three inputs of 9000 rows at run_chunks=2: the 9 chunks form
        // 5 runs, so budget 0 spills several runs and the final pass is
        // a genuine multi-run merge on both sides.
        let inputs: Vec<CubeInput> = (0..3).map(|i| input(9000, 7 + i)).collect();
        let reg = Registry::shared();
        let unlimited = run_pass(
            &sp,
            &inputs,
            par(2),
            2,
            RunStore::new(UNLIMITED_BUDGET),
            &NoopRecorder,
        )
        .unwrap();
        let spilled = run_pass(&sp, &inputs, par(4), 2, RunStore::new(0), reg.as_ref()).unwrap();
        assert_bit_identical(&spilled, &unlimited, "spilled vs unlimited");
        let snap = reg.snapshot();
        let get = |name: &str| {
            snap.counters
                .iter()
                .find(|(n, _)| n == name)
                .map(|&(_, v)| v)
                .unwrap_or(0)
        };
        assert!(get(names::SHARD_SPILLS) > 0, "budget 0 must spill");
        assert!(get(names::SHARD_SPILL_BYTES) > 0);
        assert!(get(names::SHARD_RUNS_MERGED) > 0);
        assert_eq!(get(names::CUBE_PASS_ROWS_SCANNED), 27000);
    }

    #[test]
    fn multi_input_partition_is_stable_across_threads_and_budgets() {
        let sp = space();
        let inputs: Vec<CubeInput> = (0..2).map(|i| input(5000, 100 + i)).collect();
        let base = run_pass(
            &sp,
            &inputs,
            par(1),
            3,
            RunStore::new(UNLIMITED_BUDGET),
            &NoopRecorder,
        )
        .unwrap();
        for threads in [2, 4] {
            for budget in [0usize, 1 << 20, UNLIMITED_BUDGET] {
                let got = run_pass(
                    &sp,
                    &inputs,
                    par(threads),
                    3,
                    RunStore::new(budget),
                    &NoopRecorder,
                )
                .unwrap();
                assert_bit_identical(&got, &base, &format!("threads={threads} budget={budget}"));
            }
        }
    }

    #[test]
    fn integer_sums_match_the_reference_kernel() {
        // Exactly-representable arithmetic: external, in-memory and
        // reference kernels must all agree regardless of grouping.
        let sp = space();
        let mut inp = input(4000, 9);
        for m in &mut inp.measures {
            if let Measure::Numeric { values, .. } = m {
                for v in values.iter_mut().flatten() {
                    *v = v.round();
                }
            }
            // T.A is functional per key (the join contract); the
            // reference kernel's hash-order merge relies on it.
            if let Measure::DistinctKeyed { keys, values, .. } = m {
                for (v, k) in values.iter_mut().zip(keys) {
                    *v = k.map_or(0.0, |k| (k * 3) as f64);
                }
            }
        }
        let reference = cube_pass_reference(&sp, &inp);
        let external =
            cube_pass_external(&sp, std::slice::from_ref(&inp), par(2), 0, &NoopRecorder)
                .unwrap();
        assert_bit_identical(&external, &reference, "external vs reference");
    }

    #[test]
    fn empty_inputs_yield_empty_results() {
        let sp = space();
        let got = cube_pass_external(&sp, &[], par(1), 0, &NoopRecorder).unwrap();
        assert!(got.regions.is_empty());
        assert!(got.measure_names.is_empty());
        let empty = CubeInput {
            item_ids: vec![],
            coords: vec![],
            measures: vec![Measure::Numeric {
                name: "s".into(),
                func: AggFunc::Sum,
                values: vec![],
            }],
        };
        let got = cube_pass_external(&sp, &[empty], par(1), 0, &NoopRecorder).unwrap();
        assert!(got.regions.is_empty());
        assert_eq!(got.measure_names, vec!["s".to_string()]);
    }

    /// `inp` folded and merged as one run, the way the engine closes it.
    fn merged_run(inp: &CubeInput) -> Vec<StateTable> {
        let ks = KeySpace::build(&space(), &inp.item_ids).unwrap();
        let key_of =
            |row: usize, coords: &[u32]| -> Option<u64> { ks.key(inp.item_ids[row], coords).ok() };
        let n_chunks = inp.rows().div_ceil(ROW_CHUNK);
        let tables = fold_chunks(inp, 2, 0..n_chunks, 2, &key_of);
        merge_chunks(&tables, ks.key_space(), 2).0
    }

    /// Write `shards` as a spill run under a fresh temp dir.
    fn spill(tag: &str, shards: &[StateTable]) -> (PathBuf, PathBuf) {
        let dir = std::env::temp_dir().join(format!("bw_run_{tag}_{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.bwrun");
        write_run(&path, shards).unwrap();
        (dir, path)
    }

    /// Slot `i` of `col` as a one-slot column (a copy-first merge).
    fn slot(col: &StateCol, i: usize) -> String {
        let mut one = col.new_like(1);
        one.merge_from(col, i..i + 1, &[0], &[false]);
        format!("{one:?}")
    }

    #[test]
    fn run_roundtrip_is_bit_exact() {
        // Serialize + reload one run through `FrameReader` and compare
        // every lane of every cell.
        let shards = merged_run(&input(2000, 77));
        let (dir, path) = spill("rt", &shards);
        let mut from_mem = shards
            .iter()
            .flat_map(|t| (0..t.len()).map(move |i| (t, i)));
        let mut frames = FrameReader::open(&path).unwrap();
        let mut cells = 0usize;
        while let Some(frame) = frames.next_frame().unwrap() {
            for i in 0..frame.len() {
                let (t, j) = from_mem
                    .next()
                    .unwrap_or_else(|| panic!("disk run longer than memory at cell {cells}"));
                assert_eq!(
                    frame.keys[i], t.keys[j],
                    "key order diverged at cell {cells}"
                );
                for (ca, cb) in t.cols.iter().zip(&frame.cols) {
                    assert_eq!(col_tags(ca), col_tags(cb), "column kinds diverged");
                    assert_eq!(slot(ca, j), slot(cb, i), "cell {cells} state diverged");
                }
                cells += 1;
            }
        }
        assert!(from_mem.next().is_none(), "disk run shorter than memory");
        assert!(cells > 0);
        fs::remove_dir_all(&dir).ok();
    }

    /// Overwrite the `u32` at `at` in `path` with `v`.
    fn rewrite_u32(path: &PathBuf, at: usize, v: u32) {
        let mut raw = fs::read(path).unwrap();
        raw[at..at + 4].copy_from_slice(&v.to_le_bytes());
        fs::write(path, raw).unwrap();
    }

    fn first_frame_error(path: &PathBuf) -> io::Error {
        let mut frames = FrameReader::open(path).unwrap();
        frames
            .next_frame()
            .expect_err("corrupt frame must not decode")
    }

    #[test]
    fn oversized_frame_cell_count_is_invalid_data() {
        let shards = merged_run(&input(2000, 5));
        let (dir, path) = spill("cells", &shards);
        // Header: u32 column count + two tag bytes per column.
        let header = 4 + 2 * shards[0].cols.len();
        rewrite_u32(&path, header, u32::MAX);
        let err = first_frame_error(&path);
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        assert!(err.to_string().contains("cells"), "{err}");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn oversized_pair_list_is_invalid_data() {
        let mut inp = input(2000, 6);
        inp.measures.retain(|m| m.name() == "d");
        let shards = merged_run(&inp);
        let (dir, path) = spill("pairs", &shards);
        // One distinct column: a 6-byte header, then the first frame's
        // cell count, its keys, and the first cell's pair-list length.
        let raw = fs::read(&path).unwrap();
        let n = u32::from_le_bytes(raw[6..10].try_into().unwrap()) as usize;
        rewrite_u32(&path, 10 + 8 * n, 0x7fff_ffff);
        let err = first_frame_error(&path);
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        assert!(err.to_string().contains("left"), "{err}");
        fs::remove_dir_all(&dir).ok();
    }
}
