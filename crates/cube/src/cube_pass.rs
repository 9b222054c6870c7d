//! The CUBE pass (§4.2): compute every `(region, item)` aggregate in one
//! sweep over the fact data.
//!
//! The paper rewrites each feature query `α_f σ_{ID=i, Z∈r} F` into a
//! single grouped aggregation `α_{Z, ID, f} F` whose aggregate operator
//! "performs the CUBE operation on the dimension attributes". We realise
//! it in two phases:
//!
//! 1. **Base aggregation** — fact rows collapse into *base cells* keyed
//!    by (finest dimension coordinates, item). This is an ordinary
//!    group-by and shrinks the data from `#rows` to at most
//!    `#items × #finest-cells`.
//! 2. **Rollup expansion** — each base cell is merged into every region
//!    that contains it (the cartesian product of per-dimension
//!    ancestors). All numeric aggregates here are distributive; the
//!    distinct-FK form keeps the key→value map so set-union dedups
//!    exactly as `π_FK` requires.
//!
//! # Kernel layout
//!
//! The hot path is allocation-lean, columnar and parallel:
//!
//! * Coordinates and item id encode into one dense `u64` **cell key**
//!   (per-dimension strides over `Dimension::num_values`, times a dense
//!   item index), so phase 1 groups by a machine word instead of a
//!   `(Vec<u32>, i64)` tuple.
//! * Aggregation state lives in **structure-of-arrays tables**
//!   ([`StateTable`]): one sorted key vector plus one [`StateCol`] per
//!   measure, each a flat lane of primitive accumulators. Cells never
//!   own per-cell state vectors, so folding and merging are branch-lean
//!   slice walks (the measure-kind `match` is hoisted out of the
//!   per-cell loop) with no per-cell heap allocation.
//! * Fact rows are cut into fixed [`ROW_CHUNK`]-row chunks. Workers fold
//!   chunks into small key-sorted tables (phase 1a) — one slot-assignment
//!   pass over the rows, then one columnar update pass per measure —
//!   then own disjoint contiguous key ranges and merge every chunk's
//!   slice of their range **in chunk order** (phase 1b), into a flat
//!   dense table when the key space is small, a hash-indexed one
//!   otherwise.
//! * Phase 2 rolls base cells up with precomputed per-dimension ancestor
//!   key tables; workers own disjoint region-key ranges, so no locks and
//!   no duplicated work. Each region accumulates into a dense
//!   item-indexed [`RegionTable`] (the same columnar lanes), and each
//!   output cell accumulates contributions in ascending base-key order.
//!
//! Because chunk boundaries and merge order are fixed properties of the
//! *input* — never of the worker count — the result is **bit-identical
//! for every thread count**, floating-point and all. Merging preserves
//! copy-first semantics: the first contribution to a slot is written,
//! not merged into a zero-initialised accumulator, so even signed-zero
//! corner cases match the retained row-at-a-time oracle. (The
//! [`cube_pass_reference`] kernel predates the determinism guarantee: it
//! merges in hash-iteration order, which is stable only for
//! exactly-representable arithmetic.)
//!
//! The result maps every region to its per-item feature vectors, plus
//! coverage counts — everything basic bellwether search needs.
//!
//! # One engine, three run policies
//!
//! Every CUBE pass of this crate runs on the same primitives: one chunk
//! fold (`fold_chunks`), one checked key function (`KeySpace::key`), one
//! run merger (`RunMerger`, which takes key-sorted tables one at a time
//! and folds them copy-first, in feed order) and one rollup
//! (`expand_rollup`). A **run** is the merged state of consecutive
//! chunks. The entry points differ only in their run policy:
//!
//! * **cold** ([`cube_pass`], [`cube_pass_traced`]) — one run over every
//!   chunk, no byte budget;
//! * **external** ([`crate::external`]) — fixed
//!   [`RUN_CHUNKS`](crate::RUN_CHUNKS)-chunk runs that may spill to disk,
//!   then fed to one merger in the order they were formed;
//! * **streaming** ([`crate::delta`]) — one retained run that takes in
//!   each completed chunk in place.
//!
//! Cold and external share the driver `run_pass`; a cold pass is
//! exactly an external pass whose single run never spills.

use crate::external::{RunStore, UNLIMITED_BUDGET};
use crate::fxhash::FxMap;
use crate::parallel::Parallelism;
use crate::region::{RegionId, RegionSpace};
use bellwether_obs::{names, span, Recorder};
use bellwether_table::ops::AggFunc;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::io;
use std::ops::Range;

/// Fixed scan granularity: fact rows are folded in chunks of this many
/// rows regardless of thread count, which is what makes the parallel
/// merge order (and hence every floating-point sum) reproducible.
pub const ROW_CHUNK: usize = 4096;

/// Largest combined key space for which phase-1b merging uses a flat
/// dense table (per-worker slice of a `Vec`) instead of a hash index.
const DENSE_SLOTS_MAX: u64 = 1 << 20;

/// Largest item domain for which phase-2 rollup keeps one dense
/// item-indexed table per region (memory `O(regions × items)`); above
/// this it falls back to a `(region, item)`-keyed hash table.
const DENSE_ITEMS_MAX: u64 = 1 << 16;

/// Slot marker for rows the key function filtered out.
const NO_SLOT: u32 = u32::MAX;

/// One measure (feature column) to compute per `(region, item)`.
#[derive(Debug, Clone)]
pub enum Measure {
    /// `α_f(column)` over the fact rows of the cell: the paper's first
    /// two query forms (`f(F.A)` and `f(T.A)` after a fact-side join,
    /// which the caller performs by materialising the joined column).
    /// `func` must be Sum, Min, Max, Avg or Count.
    Numeric {
        /// Output feature name.
        name: String,
        /// Aggregate function.
        func: AggFunc,
        /// Per-fact-row input; `None` = SQL NULL (skipped).
        values: Vec<Option<f64>>,
    },
    /// `α_f(T.A)((π_FK F) ⋈ T)`: aggregate over *distinct* foreign keys,
    /// each key contributing its (functional) reference-table value once.
    /// `func` may be Sum, Min, Max, Avg or CountDistinct.
    DistinctKeyed {
        /// Output feature name.
        name: String,
        /// Aggregate function over the distinct keys' values.
        func: AggFunc,
        /// Per-fact-row foreign key; `None` never joins.
        keys: Vec<Option<i64>>,
        /// Per-fact-row joined value `T.A` (ignored for CountDistinct).
        values: Vec<f64>,
    },
}

impl Measure {
    /// Output feature name.
    pub fn name(&self) -> &str {
        match self {
            Measure::Numeric { name, .. } | Measure::DistinctKeyed { name, .. } => name,
        }
    }

    fn len(&self) -> usize {
        match self {
            Measure::Numeric { values, .. } => values.len(),
            Measure::DistinctKeyed { keys, .. } => keys.len(),
        }
    }

    /// Same name, kind and function (the rows may differ).
    fn same_schema(&self, other: &Measure) -> bool {
        match (self, other) {
            (
                Measure::Numeric { name, func, .. },
                Measure::Numeric {
                    name: n2, func: f2, ..
                },
            )
            | (
                Measure::DistinctKeyed { name, func, .. },
                Measure::DistinctKeyed {
                    name: n2, func: f2, ..
                },
            ) => name == n2 && func == f2,
            _ => false,
        }
    }
}

/// Fact-side input to the CUBE pass.
#[derive(Debug, Clone)]
pub struct CubeInput {
    /// Item id per fact row.
    pub item_ids: Vec<i64>,
    /// Flattened `n × arity` finest-grained coordinates per fact row
    /// (time points 0-based, hierarchy leaf node ids).
    pub coords: Vec<u32>,
    /// The measures to aggregate.
    pub measures: Vec<Measure>,
}

impl CubeInput {
    /// Number of fact rows.
    pub(crate) fn rows(&self) -> usize {
        self.item_ids.len()
    }

    /// Output feature names, in measure order.
    pub(crate) fn measure_names(&self) -> Vec<String> {
        self.measures.iter().map(|m| m.name().to_string()).collect()
    }

    /// `Err` unless there are `arity` coordinates and one value of every
    /// measure per row.
    pub(crate) fn check_shape(&self, arity: usize) -> Result<(), String> {
        if self.coords.len() != self.rows() * arity {
            return Err("coords length mismatch".to_string());
        }
        match self.measures.iter().find(|m| m.len() != self.rows()) {
            Some(m) => Err(format!("measure {} length mismatch", m.name())),
            None => Ok(()),
        }
    }

    /// `Err` unless `other` has this input's measures: same count and,
    /// in order, the same names, kinds and functions.
    pub(crate) fn check_schema(&self, other: &CubeInput) -> Result<(), String> {
        if self.measures.len() != other.measures.len() {
            return Err(format!(
                "{} measures where {} were expected",
                other.measures.len(),
                self.measures.len()
            ));
        }
        match self
            .measures
            .iter()
            .zip(&other.measures)
            .find(|(a, b)| !a.same_schema(b))
        {
            Some((_, b)) => Err(format!("measure {:?} does not match the schema", b.name())),
            None => Ok(()),
        }
    }

    /// An input with this one's measure schema and no rows.
    pub(crate) fn empty_like(&self) -> CubeInput {
        let measures = self
            .measures
            .iter()
            .map(|m| match m {
                Measure::Numeric { name, func, .. } => Measure::Numeric {
                    name: name.clone(),
                    func: *func,
                    values: Vec::new(),
                },
                Measure::DistinctKeyed { name, func, .. } => Measure::DistinctKeyed {
                    name: name.clone(),
                    func: *func,
                    keys: Vec::new(),
                    values: Vec::new(),
                },
            })
            .collect();
        CubeInput {
            item_ids: Vec::new(),
            coords: Vec::new(),
            measures,
        }
    }

    /// Append every row of `other`, which must pass
    /// [`check_schema`](Self::check_schema) against `self`.
    pub(crate) fn extend(&mut self, other: &CubeInput) {
        self.item_ids.extend_from_slice(&other.item_ids);
        self.coords.extend_from_slice(&other.coords);
        for (dst, src) in self.measures.iter_mut().zip(&other.measures) {
            match (dst, src) {
                (Measure::Numeric { values, .. }, Measure::Numeric { values: sv, .. }) => {
                    values.extend_from_slice(sv)
                }
                (
                    Measure::DistinctKeyed { keys, values, .. },
                    Measure::DistinctKeyed {
                        keys: sk,
                        values: sv,
                        ..
                    },
                ) => {
                    keys.extend_from_slice(sk);
                    values.extend_from_slice(sv);
                }
                _ => panic!("measure kinds differ: check_schema before extend"),
            }
        }
    }

    /// Drop the first `rows` rows in place.
    pub(crate) fn drain_front(&mut self, rows: usize, arity: usize) {
        self.item_ids.drain(..rows);
        self.coords.drain(..rows * arity);
        for m in &mut self.measures {
            match m {
                Measure::Numeric { values, .. } => {
                    values.drain(..rows);
                }
                Measure::DistinctKeyed { keys, values, .. } => {
                    keys.drain(..rows);
                    values.drain(..rows);
                }
            }
        }
    }
}

/// Reduce the distinct-key map of one cell in key order, so the float
/// result does not depend on hash-map iteration (part of the
/// determinism policy). Shared by the columnar kernel and the
/// row-at-a-time reference states.
fn finish_distinct(func: AggFunc, keys: &FxMap<i64, f64>) -> Option<f64> {
    if func == AggFunc::CountDistinct {
        return Some(keys.len() as f64);
    }
    if keys.is_empty() {
        return None;
    }
    let mut pairs: Vec<(i64, f64)> = keys.iter().map(|(&k, &v)| (k, v)).collect();
    pairs.sort_unstable_by_key(|&(k, _)| k);
    let vals = pairs.iter().map(|&(_, v)| v);
    Some(match func {
        AggFunc::Sum => vals.sum(),
        AggFunc::Avg => vals.sum::<f64>() / pairs.len() as f64,
        AggFunc::Min => vals.fold(f64::INFINITY, f64::min),
        AggFunc::Max => vals.fold(f64::NEG_INFINITY, f64::max),
        AggFunc::Count | AggFunc::CountDistinct => unreachable!(),
    })
}

/// Mergeable per-cell state of one measure: the row-at-a-time (AoS)
/// representation, retained for [`cube_pass_reference`] and as the
/// per-entry form of the huge-item-domain rollup fallback.
#[derive(Debug, Clone)]
enum CellState {
    Sum { total: f64, seen: bool },
    Count(u64),
    Avg { total: f64, count: u64 },
    Min(Option<f64>),
    Max(Option<f64>),
    Distinct { func: AggFunc, keys: FxMap<i64, f64> },
}

impl CellState {
    fn new(measure: &Measure) -> CellState {
        match measure {
            Measure::Numeric { func, .. } => match func {
                AggFunc::Sum => CellState::Sum {
                    total: 0.0,
                    seen: false,
                },
                AggFunc::Count => CellState::Count(0),
                AggFunc::Avg => CellState::Avg {
                    total: 0.0,
                    count: 0,
                },
                AggFunc::Min => CellState::Min(None),
                AggFunc::Max => CellState::Max(None),
                AggFunc::CountDistinct => {
                    panic!("CountDistinct requires Measure::DistinctKeyed")
                }
            },
            Measure::DistinctKeyed { func, .. } => CellState::Distinct {
                func: *func,
                keys: FxMap::default(),
            },
        }
    }

    fn update(&mut self, measure: &Measure, row: usize) {
        match (self, measure) {
            (CellState::Sum { total, seen }, Measure::Numeric { values, .. }) => {
                if let Some(v) = values[row] {
                    *total += v;
                    *seen = true;
                }
            }
            (CellState::Count(c), Measure::Numeric { values, .. }) => {
                if values[row].is_some() {
                    *c += 1;
                }
            }
            (CellState::Avg { total, count }, Measure::Numeric { values, .. }) => {
                if let Some(v) = values[row] {
                    *total += v;
                    *count += 1;
                }
            }
            (CellState::Min(best), Measure::Numeric { values, .. }) => {
                if let Some(v) = values[row] {
                    *best = Some(best.map_or(v, |b| b.min(v)));
                }
            }
            (CellState::Max(best), Measure::Numeric { values, .. }) => {
                if let Some(v) = values[row] {
                    *best = Some(best.map_or(v, |b| b.max(v)));
                }
            }
            (CellState::Distinct { keys, .. }, Measure::DistinctKeyed { keys: ks, values, .. }) => {
                if let Some(k) = ks[row] {
                    keys.insert(k, values[row]);
                }
            }
            _ => unreachable!("state/measure kind mismatch"),
        }
    }

    fn merge(&mut self, other: &CellState) {
        match (self, other) {
            (CellState::Sum { total, seen }, CellState::Sum { total: t2, seen: s2 }) => {
                *total += t2;
                *seen |= s2;
            }
            (CellState::Count(a), CellState::Count(b)) => *a += b,
            (
                CellState::Avg { total, count },
                CellState::Avg {
                    total: t2,
                    count: c2,
                },
            ) => {
                *total += t2;
                *count += c2;
            }
            (CellState::Min(a), CellState::Min(b)) => {
                if let Some(bv) = b {
                    *a = Some(a.map_or(*bv, |av| av.min(*bv)));
                }
            }
            (CellState::Max(a), CellState::Max(b)) => {
                if let Some(bv) = b {
                    *a = Some(a.map_or(*bv, |av| av.max(*bv)));
                }
            }
            (CellState::Distinct { keys, .. }, CellState::Distinct { keys: k2, .. }) => {
                for (k, v) in k2 {
                    keys.insert(*k, *v);
                }
            }
            _ => unreachable!("merging mismatched states"),
        }
    }

    fn finish(&self) -> Option<f64> {
        match self {
            CellState::Sum { total, seen } => seen.then_some(*total),
            CellState::Count(c) => Some(*c as f64),
            CellState::Avg { total, count } => (*count > 0).then(|| total / *count as f64),
            CellState::Min(v) | CellState::Max(v) => *v,
            CellState::Distinct { func, keys } => finish_distinct(*func, keys),
        }
    }
}

/// One measure's aggregation state over a table of cells, structure-of-
/// arrays: flat primitive lanes indexed by cell slot. Fold, merge and
/// finish all hoist the measure-kind `match` out of the per-cell loop.
///
/// Every variant distinguishes "never contributed" from its accumulator
/// value (`seen` lanes / counts), so merging can preserve **copy-first**
/// semantics: the first contribution to a slot assigns, later ones
/// merge. That keeps e.g. a `-0.0` sum bit-identical to the AoS oracle,
/// which clones the first contribution instead of adding it to `0.0`.
/// The distinct-FK lanes hold append-only `(key, value)` pair lists
/// instead of hash maps: updates and merges are pushes, and the
/// map-overwrite semantics ("last insert wins per key") are recovered by
/// a stable sort-by-key + keep-last dedup, applied at fold/merge
/// boundaries (to bound carried size) and again at finish.
#[derive(Debug, Clone)]
pub(crate) enum StateCol {
    Sum { totals: Vec<f64>, seen: Vec<bool> },
    Count(Vec<u64>),
    Avg { totals: Vec<f64>, counts: Vec<u64> },
    Min { vals: Vec<f64>, seen: Vec<bool> },
    Max { vals: Vec<f64>, seen: Vec<bool> },
    Distinct { func: AggFunc, pairs: Vec<Vec<(i64, f64)>> },
}

/// Stable-sort `pairs` by key and keep the **last** occurrence of each
/// key (= hash-map insert order semantics). The result is key-sorted.
pub(crate) fn dedup_pairs(pairs: &mut Vec<(i64, f64)>) {
    if pairs.len() < 2 {
        return;
    }
    // Stable sort by key; the lists are almost always tiny (one entry
    // per contributing cell), where a hand-rolled insertion sort beats
    // the general sort's dispatch overhead.
    if pairs.len() <= 32 {
        for i in 1..pairs.len() {
            let mut j = i;
            while j > 0 && pairs[j - 1].0 > pairs[j].0 {
                pairs.swap(j - 1, j);
                j -= 1;
            }
        }
    } else {
        pairs.sort_by_key(|&(k, _)| k); // stable: preserves arrival order per key
    }
    let mut w = 0;
    let mut i = 0;
    while i < pairs.len() {
        let k = pairs[i].0;
        let mut j = i;
        while j + 1 < pairs.len() && pairs[j + 1].0 == k {
            j += 1;
        }
        pairs[w] = pairs[j];
        w += 1;
        i = j + 1;
    }
    pairs.truncate(w);
}

/// Reduce one cell's deduplicated, key-sorted distinct pairs — the
/// columnar counterpart of [`finish_distinct`], bit-identical to it.
fn finish_distinct_pairs(func: AggFunc, sorted: &[(i64, f64)]) -> Option<f64> {
    if func == AggFunc::CountDistinct {
        return Some(sorted.len() as f64);
    }
    if sorted.is_empty() {
        return None;
    }
    let vals = sorted.iter().map(|&(_, v)| v);
    Some(match func {
        AggFunc::Sum => vals.sum(),
        AggFunc::Avg => vals.sum::<f64>() / sorted.len() as f64,
        AggFunc::Min => vals.fold(f64::INFINITY, f64::min),
        AggFunc::Max => vals.fold(f64::NEG_INFINITY, f64::max),
        AggFunc::Count | AggFunc::CountDistinct => unreachable!(),
    })
}

/// `idx.map(|i| v[i])` for `Copy` lanes.
fn gather_copy<T: Copy>(v: &[T], idx: &[u32]) -> Vec<T> {
    idx.iter().map(|&i| v[i as usize]).collect()
}

/// `idx.map(|i| take(v[i]))` for owned lanes (indices must be distinct).
fn gather_take<T: Default>(v: &mut [T], idx: &[u32]) -> Vec<T> {
    idx.iter()
        .map(|&i| std::mem::take(&mut v[i as usize]))
        .collect()
}

impl StateCol {
    fn new(measure: &Measure, len: usize) -> StateCol {
        match measure {
            Measure::Numeric { func, .. } => StateCol::with_kind(*func, false, len),
            Measure::DistinctKeyed { func, .. } => StateCol::with_kind(*func, true, len),
        }
    }

    /// A fresh column of the same measure kind with `len` empty slots.
    pub(crate) fn new_like(&self, len: usize) -> StateCol {
        let func = match self {
            StateCol::Sum { .. } => AggFunc::Sum,
            StateCol::Count(_) => AggFunc::Count,
            StateCol::Avg { .. } => AggFunc::Avg,
            StateCol::Min { .. } => AggFunc::Min,
            StateCol::Max { .. } => AggFunc::Max,
            StateCol::Distinct { func, .. } => return StateCol::with_kind(*func, true, len),
        };
        StateCol::with_kind(func, false, len)
    }

    /// `len` empty slots of `func`, over distinct keys or plain values.
    fn with_kind(func: AggFunc, distinct: bool, len: usize) -> StateCol {
        match func {
            _ if distinct => StateCol::Distinct {
                func,
                pairs: vec![Vec::new(); len],
            },
            AggFunc::Sum => StateCol::Sum {
                totals: vec![0.0; len],
                seen: vec![false; len],
            },
            AggFunc::Count => StateCol::Count(vec![0; len]),
            AggFunc::Avg => StateCol::Avg {
                totals: vec![0.0; len],
                counts: vec![0; len],
            },
            AggFunc::Min => StateCol::Min {
                vals: vec![0.0; len],
                seen: vec![false; len],
            },
            AggFunc::Max => StateCol::Max {
                vals: vec![0.0; len],
                seen: vec![false; len],
            },
            AggFunc::CountDistinct => panic!("CountDistinct requires Measure::DistinctKeyed"),
        }
    }

    /// Grow to `len` slots (new slots empty).
    pub(crate) fn resize_default(&mut self, len: usize) {
        match self {
            StateCol::Sum { totals, seen }
            | StateCol::Min { vals: totals, seen }
            | StateCol::Max { vals: totals, seen } => {
                totals.resize(len, 0.0);
                seen.resize(len, false);
            }
            StateCol::Count(c) => c.resize(len, 0),
            StateCol::Avg { totals, counts } => {
                totals.resize(len, 0.0);
                counts.resize(len, 0);
            }
            StateCol::Distinct { pairs, .. } => pairs.resize_with(len, Vec::new),
        }
    }

    /// Fold the rows of one chunk into this column: `slots[row - rows.start]`
    /// is the row's cell slot ([`NO_SLOT`] = filtered out). One `match`,
    /// then a single pass over the chunk's rows in row order.
    fn update_rows(&mut self, measure: &Measure, rows: Range<usize>, slots: &[u32]) {
        match (self, measure) {
            (StateCol::Sum { totals, seen }, Measure::Numeric { values, .. }) => {
                for (row, &slot) in rows.zip(slots) {
                    if slot == NO_SLOT {
                        continue;
                    }
                    if let Some(v) = values[row] {
                        totals[slot as usize] += v;
                        seen[slot as usize] = true;
                    }
                }
            }
            (StateCol::Count(counts), Measure::Numeric { values, .. }) => {
                for (row, &slot) in rows.zip(slots) {
                    if slot != NO_SLOT && values[row].is_some() {
                        counts[slot as usize] += 1;
                    }
                }
            }
            (StateCol::Avg { totals, counts }, Measure::Numeric { values, .. }) => {
                for (row, &slot) in rows.zip(slots) {
                    if slot == NO_SLOT {
                        continue;
                    }
                    if let Some(v) = values[row] {
                        totals[slot as usize] += v;
                        counts[slot as usize] += 1;
                    }
                }
            }
            (StateCol::Min { vals, seen }, Measure::Numeric { values, .. }) => {
                for (row, &slot) in rows.zip(slots) {
                    if slot == NO_SLOT {
                        continue;
                    }
                    if let Some(v) = values[row] {
                        let s = slot as usize;
                        vals[s] = if seen[s] { vals[s].min(v) } else { v };
                        seen[s] = true;
                    }
                }
            }
            (StateCol::Max { vals, seen }, Measure::Numeric { values, .. }) => {
                for (row, &slot) in rows.zip(slots) {
                    if slot == NO_SLOT {
                        continue;
                    }
                    if let Some(v) = values[row] {
                        let s = slot as usize;
                        vals[s] = if seen[s] { vals[s].max(v) } else { v };
                        seen[s] = true;
                    }
                }
            }
            (
                StateCol::Distinct { pairs, .. },
                Measure::DistinctKeyed { keys: ks, values, .. },
            ) => {
                for (row, &slot) in rows.zip(slots) {
                    if slot == NO_SLOT {
                        continue;
                    }
                    if let Some(k) = ks[row] {
                        pairs[slot as usize].push((k, values[row]));
                    }
                }
            }
            _ => unreachable!("state/measure kind mismatch"),
        }
    }

    /// Merge entries `range` of `src` into this column: entry `i` lands
    /// in destination slot `dsts[i - range.start]`, with
    /// `was[i - range.start]` saying whether that slot was occupied
    /// before this source table's contribution (false ⇒ copy, true ⇒
    /// merge). One `match`, then lock-step slice walks — the source
    /// lanes, `dsts` and `was` are iterated zipped so the only indexed
    /// (bounds-checked) accesses left are the destination-lane scatters.
    pub(crate) fn merge_from(&mut self, src: &StateCol, range: Range<usize>, dsts: &[u32], was: &[bool]) {
        debug_assert_eq!(dsts.len(), range.len());
        debug_assert_eq!(was.len(), range.len());
        match (self, src) {
            (StateCol::Sum { totals, seen }, StateCol::Sum { totals: st, seen: ss }) => {
                let lanes = st[range.clone()].iter().zip(&ss[range]);
                for ((&v, &b), (&d, &w)) in lanes.zip(dsts.iter().zip(was)) {
                    let d = d as usize;
                    if w {
                        totals[d] += v;
                        seen[d] |= b;
                    } else {
                        totals[d] = v;
                        seen[d] = b;
                    }
                }
            }
            (StateCol::Count(counts), StateCol::Count(sc)) => {
                for (&c, (&d, &w)) in sc[range].iter().zip(dsts.iter().zip(was)) {
                    let d = d as usize;
                    if w {
                        counts[d] += c;
                    } else {
                        counts[d] = c;
                    }
                }
            }
            (
                StateCol::Avg { totals, counts },
                StateCol::Avg {
                    totals: st,
                    counts: sc,
                },
            ) => {
                let lanes = st[range.clone()].iter().zip(&sc[range]);
                for ((&v, &c), (&d, &w)) in lanes.zip(dsts.iter().zip(was)) {
                    let d = d as usize;
                    if w {
                        totals[d] += v;
                        counts[d] += c;
                    } else {
                        totals[d] = v;
                        counts[d] = c;
                    }
                }
            }
            (StateCol::Min { vals, seen }, StateCol::Min { vals: sv, seen: ss }) => {
                let lanes = sv[range.clone()].iter().zip(&ss[range]);
                for ((&v, &b), (&d, &w)) in lanes.zip(dsts.iter().zip(was)) {
                    let d = d as usize;
                    if !w {
                        vals[d] = v;
                        seen[d] = b;
                    } else if b {
                        vals[d] = if seen[d] { vals[d].min(v) } else { v };
                        seen[d] = true;
                    }
                }
            }
            (StateCol::Max { vals, seen }, StateCol::Max { vals: sv, seen: ss }) => {
                let lanes = sv[range.clone()].iter().zip(&ss[range]);
                for ((&v, &b), (&d, &w)) in lanes.zip(dsts.iter().zip(was)) {
                    let d = d as usize;
                    if !w {
                        vals[d] = v;
                        seen[d] = b;
                    } else if b {
                        vals[d] = if seen[d] { vals[d].max(v) } else { v };
                        seen[d] = true;
                    }
                }
            }
            (StateCol::Distinct { pairs, .. }, StateCol::Distinct { pairs: sp, .. }) => {
                for (sl, (&d, &w)) in sp[range].iter().zip(dsts.iter().zip(was)) {
                    let d = d as usize;
                    if !w {
                        pairs[d].clear();
                        // A slot typically accumulates one pair per
                        // contributing cell; skipping the doubling
                        // ladder saves most of the reallocations.
                        if pairs[d].capacity() < 8 {
                            pairs[d].reserve(8);
                        }
                    }
                    pairs[d].extend_from_slice(sl);
                }
            }
            _ => unreachable!("merging mismatched state columns"),
        }
    }

    /// Reorder into `idx` order (indices distinct), consuming the lanes.
    pub(crate) fn gather(&mut self, idx: &[u32]) -> StateCol {
        match self {
            StateCol::Sum { totals, seen } => StateCol::Sum {
                totals: gather_copy(totals, idx),
                seen: gather_copy(seen, idx),
            },
            StateCol::Count(c) => StateCol::Count(gather_copy(c, idx)),
            StateCol::Avg { totals, counts } => StateCol::Avg {
                totals: gather_copy(totals, idx),
                counts: gather_copy(counts, idx),
            },
            StateCol::Min { vals, seen } => StateCol::Min {
                vals: gather_copy(vals, idx),
                seen: gather_copy(seen, idx),
            },
            StateCol::Max { vals, seen } => StateCol::Max {
                vals: gather_copy(vals, idx),
                seen: gather_copy(seen, idx),
            },
            StateCol::Distinct { func, pairs } => StateCol::Distinct {
                func: *func,
                pairs: gather_take(pairs, idx),
            },
        }
    }

    /// Restore the per-slot "last insert wins, unique keys, key-sorted"
    /// invariant on distinct lanes after a round of appends; no-op for
    /// the numeric kinds. Must run before [`StateCol::finish_at`].
    pub(crate) fn dedup_distinct(&mut self) {
        if let StateCol::Distinct { pairs, .. } = self {
            for list in pairs {
                dedup_pairs(list);
            }
        }
    }

    /// Finalize slot `i` into the output value (`None` = SQL NULL).
    /// Distinct lanes must have been deduplicated (see
    /// [`StateCol::dedup_distinct`]).
    pub(crate) fn finish_at(&self, i: usize) -> Option<f64> {
        match self {
            StateCol::Sum { totals, seen } => seen[i].then_some(totals[i]),
            StateCol::Count(c) => Some(c[i] as f64),
            StateCol::Avg { totals, counts } => {
                (counts[i] > 0).then(|| totals[i] / counts[i] as f64)
            }
            StateCol::Min { vals, seen } | StateCol::Max { vals, seen } => {
                seen[i].then_some(vals[i])
            }
            StateCol::Distinct { func, pairs } => finish_distinct_pairs(*func, &pairs[i]),
        }
    }

    /// Slot `i` as a standalone AoS state (huge-item-domain fallback).
    fn state_at(&self, i: usize) -> CellState {
        match self {
            StateCol::Sum { totals, seen } => CellState::Sum {
                total: totals[i],
                seen: seen[i],
            },
            StateCol::Count(c) => CellState::Count(c[i]),
            StateCol::Avg { totals, counts } => CellState::Avg {
                total: totals[i],
                count: counts[i],
            },
            StateCol::Min { vals, seen } => CellState::Min(seen[i].then_some(vals[i])),
            StateCol::Max { vals, seen } => CellState::Max(seen[i].then_some(vals[i])),
            StateCol::Distinct { func, pairs } => {
                let mut keys = FxMap::default();
                for &(k, v) in &pairs[i] {
                    keys.insert(k, v);
                }
                CellState::Distinct { func: *func, keys }
            }
        }
    }

    /// Merge slot `i` into an AoS state (huge-item-domain fallback).
    fn merge_into_state(&self, i: usize, dst: &mut CellState) {
        match (dst, self) {
            (CellState::Sum { total, seen }, StateCol::Sum { totals, seen: ss }) => {
                *total += totals[i];
                *seen |= ss[i];
            }
            (CellState::Count(c), StateCol::Count(sc)) => *c += sc[i],
            (CellState::Avg { total, count }, StateCol::Avg { totals, counts }) => {
                *total += totals[i];
                *count += counts[i];
            }
            (CellState::Min(best), StateCol::Min { vals, seen }) => {
                if seen[i] {
                    *best = Some(best.map_or(vals[i], |a| a.min(vals[i])));
                }
            }
            (CellState::Max(best), StateCol::Max { vals, seen }) => {
                if seen[i] {
                    *best = Some(best.map_or(vals[i], |a| a.max(vals[i])));
                }
            }
            (CellState::Distinct { keys, .. }, StateCol::Distinct { pairs: sp, .. }) => {
                for &(k, v) in &sp[i] {
                    keys.insert(k, v);
                }
            }
            _ => unreachable!("merging mismatched states"),
        }
    }
}

/// A key-sorted table of cells in structure-of-arrays layout: `keys[i]`
/// is cell `i`'s dense key, `cols[m]` holds measure `m`'s accumulator
/// lanes for every cell.
#[derive(Debug, Clone)]
pub(crate) struct StateTable {
    pub(crate) keys: Vec<u64>,
    pub(crate) cols: Vec<StateCol>,
}

impl StateTable {
    pub(crate) fn len(&self) -> usize {
        self.keys.len()
    }

    /// Index range of the keys in `[lo, hi)` (keys must be sorted).
    pub(crate) fn range_of(&self, lo: u64, hi: u64) -> Range<usize> {
        let a = self.keys.partition_point(|&k| k < lo);
        let b = self.keys.partition_point(|&k| k < hi);
        a..b
    }

    /// Sort by key via one permutation applied to every lane.
    pub(crate) fn sort_by_key(&mut self) {
        if self.keys.is_sorted() {
            return;
        }
        let mut perm: Vec<u32> = (0..self.keys.len() as u32).collect();
        perm.sort_unstable_by_key(|&i| self.keys[i as usize]);
        self.keys = gather_copy(&self.keys, &perm);
        for col in &mut self.cols {
            *col = col.gather(&perm);
        }
    }
}

/// Per-item feature vectors of one region.
pub(crate) type ItemFeatures = HashMap<i64, Vec<Option<f64>>>;

/// Per-region, per-item aggregate vectors produced by [`cube_pass`].
#[derive(Debug, Clone)]
pub struct CubeResult {
    /// Feature names, in measure order.
    pub measure_names: Vec<String>,
    /// `region → item → feature values` (`None` = NULL aggregate).
    pub regions: HashMap<RegionId, HashMap<i64, Vec<Option<f64>>>>,
}

impl CubeResult {
    /// Number of distinct items with data in `r` (the coverage
    /// numerator `|I_r|`).
    pub fn coverage_count(&self, r: &RegionId) -> usize {
        self.regions.get(r).map_or(0, HashMap::len)
    }

    /// The feature vector of `item` in region `r`, if the item has data.
    pub fn features(&self, r: &RegionId, item: i64) -> Option<&Vec<Option<f64>>> {
        self.regions.get(r)?.get(&item)
    }

    /// Coverage counts for every region (input to iceberg pruning).
    pub fn coverage_counts(&self) -> HashMap<RegionId, usize> {
        self.regions
            .iter()
            .map(|(r, items)| (r.clone(), items.len()))
            .collect()
    }
}

/// Dense `u64` encoding of `(finest coords, item)` keys.
///
/// Cell coordinates use per-dimension strides over `num_values` (so the
/// *same* encoding covers both finest cells and region coordinates);
/// the item id maps through a dense index over the distinct ids. `build`
/// returns `None` when the combined key space cannot fit a `u64` with
/// headroom — callers then fall back to [`cube_pass_reference`].
#[derive(Clone)]
pub(crate) struct KeySpace {
    pub(crate) strides: Vec<u64>,
    pub(crate) num_values: Vec<u64>,
    pub(crate) cell_space: u64,
    /// Dense item index → item id, sorted ascending.
    pub(crate) items: Vec<i64>,
    pub(crate) item_index: FxMap<i64, u32>,
    pub(crate) n_items: u64,
}

impl KeySpace {
    pub(crate) fn build(space: &RegionSpace, item_ids: &[i64]) -> Option<KeySpace> {
        let num_values = space.dims().iter().map(|d| d.num_values() as u64);
        KeySpace::over(num_values.collect(), item_ids)
    }

    /// [`KeySpace::build`] over dimensions of `num_values` values each
    /// (none: keys are dense item indices).
    fn over(num_values: Vec<u64>, item_ids: &[i64]) -> Option<KeySpace> {
        if num_values.contains(&0) {
            return None;
        }
        let mut strides = vec![1u64; num_values.len()];
        let mut acc: u128 = 1;
        for d in (0..num_values.len()).rev() {
            strides[d] = u64::try_from(acc).ok()?;
            acc *= num_values[d] as u128;
        }
        let cell_space = u64::try_from(acc).ok()?;
        let mut items: Vec<i64> = item_ids.to_vec();
        items.sort_unstable();
        items.dedup();
        if items.len() > u32::MAX as usize {
            return None;
        }
        let n_items = items.len() as u64;
        if (cell_space as u128) * (n_items as u128) > (1u128 << 62) {
            return None;
        }
        let item_index = items.iter().enumerate().map(|(i, &id)| (id, i as u32)).collect();
        Some(KeySpace {
            strides,
            num_values,
            cell_space,
            items,
            item_index,
            n_items,
        })
    }

    /// Size of the combined `(cell, item)` key space.
    pub(crate) fn key_space(&self) -> u64 {
        self.cell_space * self.n_items
    }

    /// The dense key of one fact row — the one key function of every
    /// pass. `Err` names the first coordinate outside its dimension or
    /// an item outside the universe.
    #[inline]
    pub(crate) fn key(&self, item: i64, coords: &[u32]) -> Result<u64, String> {
        let mut cell = 0;
        for (d, ((&c, &nv), &stride)) in coords
            .iter()
            .zip(&self.num_values)
            .zip(&self.strides)
            .enumerate()
        {
            if c as u64 >= nv {
                return Err(format!("coordinate {c} out of range on dimension {d}"));
            }
            cell += c as u64 * stride;
        }
        match self.item_index.get(&item) {
            Some(&idx) => Ok(cell * self.n_items + idx as u64),
            None => Err(format!("item {item} is outside the item universe")),
        }
    }

    pub(crate) fn decode_region(&self, key: u64) -> Vec<u32> {
        let mut rem = key;
        self.strides
            .iter()
            .map(|&s| {
                let v = rem / s;
                rem %= s;
                v as u32
            })
            .collect()
    }
}

pub(crate) fn chunk_range(chunk: usize, n: usize) -> Range<usize> {
    chunk * ROW_CHUNK..((chunk + 1) * ROW_CHUNK).min(n)
}

/// `work` over `threads` even contiguous splits of `[0, space)`, results
/// in split order — the one worker pool of the fold, merge and rollup.
fn split_work<R: Send>(space: u64, threads: usize, work: impl Fn(u64, u64) -> R + Sync) -> Vec<R> {
    if threads <= 1 {
        return vec![work(0, space)];
    }
    let split = |w: usize| ((space as u128 * w as u128) / threads as u128) as u64;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|w| {
                let (work, lo, hi) = (&work, split(w), split(w + 1));
                s.spawn(move || work(lo, hi))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("cube worker panicked"))
            .collect()
    })
}

/// Phase 1a for one chunk: fold its rows into a key-sorted table. Pass
/// one walks the rows assigning cell slots (first-seen order); pass two
/// updates each measure column over the whole chunk with the measure
/// kind matched once. Per (cell, measure) the update sequence is
/// row-ascending either way, so every accumulated scalar is bit-equal
/// to a row-at-a-time fold.
pub(crate) fn fold_chunk<K>(input: &CubeInput, arity: usize, rows: Range<usize>, key_of: &K) -> StateTable
where
    K: Fn(usize, &[u32]) -> Option<u64>,
{
    let mut index: FxMap<u64, u32> = FxMap::default();
    let mut keys: Vec<u64> = Vec::new();
    let mut slots: Vec<u32> = Vec::with_capacity(rows.len());
    for row in rows.clone() {
        let coords = &input.coords[row * arity..(row + 1) * arity];
        let slot = match key_of(row, coords) {
            Some(key) => *index.entry(key).or_insert_with(|| {
                keys.push(key);
                (keys.len() - 1) as u32
            }),
            None => NO_SLOT,
        };
        slots.push(slot);
    }
    let cols = input
        .measures
        .iter()
        .map(|m| {
            let mut col = StateCol::new(m, keys.len());
            col.update_rows(m, rows.clone(), &slots);
            col
        })
        .collect();
    let mut table = StateTable { keys, cols };
    for col in &mut table.cols {
        col.dedup_distinct();
    }
    table.sort_by_key();
    table
}

/// Phase 1a: fold chunks `chunks` of `input`, sharding them over
/// `threads` workers. The tables return in chunk order — the partition
/// of chunks onto workers never shows in the output.
pub(crate) fn fold_chunks<K>(
    input: &CubeInput,
    arity: usize,
    chunks: Range<usize>,
    threads: usize,
    key_of: &K,
) -> Vec<StateTable>
where
    K: Fn(usize, &[u32]) -> Option<u64> + Sync,
{
    let n = input.rows();
    let start = chunks.start as u64;
    let threads = threads.min(chunks.len()).max(1);
    split_work(chunks.len() as u64, threads, |a, b| {
        (start + a..start + b)
            .map(|c| fold_chunk(input, arity, chunk_range(c as usize, n), key_of))
            .collect::<Vec<_>>()
    })
    .into_iter()
    .flatten()
    .collect()
}

/// Slot bookkeeping of a [`RunMerger`].
enum Slots {
    /// `occupied[key - lo]`: a flat table over the whole range.
    Dense(Vec<bool>),
    /// Key → slot, with `keys[slot]` in first-seen order. Slots from
    /// `indexed` on are not in `index` yet: they were appended above
    /// every earlier key and are hashed only once a later table lands
    /// below `max`.
    Sparse {
        index: FxMap<u64, u32>,
        keys: Vec<u64>,
        indexed: usize,
        max: Option<u64>,
    },
}

/// Phase 1b for one key range `[lo, hi)`: merges key-sorted tables, fed
/// one at a time, into the range's base cells. Per key, contributions
/// fold in feed order, copy-first. Per fed table the occupancy
/// pre-state of every touched slot is captured first, so each column
/// merge knows copy vs merge without re-deriving it. A run's chunk
/// tables are fed in chunk order; the external pass feeds every run's
/// frames in formation order.
pub(crate) struct RunMerger {
    lo: u64,
    hi: u64,
    slots: Slots,
    cols: Vec<StateCol>,
    dsts: Vec<u32>,
    was: Vec<bool>,
    merges: u64,
}

impl RunMerger {
    /// A merger for `[lo, hi)` of a `key_space`-key space: a flat dense
    /// table when the key space is small, a hash index otherwise.
    pub(crate) fn new(lo: u64, hi: u64, key_space: u64) -> RunMerger {
        let slots = if key_space <= DENSE_SLOTS_MAX {
            Slots::Dense(vec![false; (hi - lo) as usize])
        } else {
            Slots::Sparse {
                index: FxMap::default(),
                keys: Vec::new(),
                indexed: 0,
                max: None,
            }
        };
        RunMerger {
            lo,
            hi,
            slots,
            cols: Vec::new(),
            dsts: Vec::new(),
            was: Vec::new(),
            merges: 0,
        }
    }

    /// Fold the range's slice of the key-sorted table `t`.
    pub(crate) fn push(&mut self, t: &StateTable) {
        if self.cols.is_empty() {
            let len = match &self.slots {
                Slots::Dense(occupied) => occupied.len(),
                Slots::Sparse { .. } => 0,
            };
            self.cols = t.cols.iter().map(|c| c.new_like(len)).collect();
        }
        let r = t.range_of(self.lo, self.hi);
        if r.is_empty() {
            return;
        }
        let (dsts, was) = (&mut self.dsts, &mut self.was);
        dsts.clear();
        was.clear();
        match &mut self.slots {
            Slots::Dense(occupied) => {
                for &k in &t.keys[r.clone()] {
                    let s = (k - self.lo) as usize;
                    was.push(occupied[s]);
                    dsts.push(s as u32);
                    occupied[s] = true;
                }
            }
            Slots::Sparse {
                index,
                keys,
                indexed,
                max,
            } => {
                let slice = &t.keys[r.clone()];
                let above = max.is_none_or(|m| slice[0] > m);
                *max = (*max).max(slice.last().copied());
                if above {
                    // Every key is new and lands in order (disjoint
                    // ascending runs): append without hashing.
                    dsts.extend(keys.len() as u32..(keys.len() + slice.len()) as u32);
                    was.resize(slice.len(), false);
                    keys.extend_from_slice(slice);
                } else {
                    for (s, &k) in keys.iter().enumerate().skip(*indexed) {
                        index.insert(k, s as u32);
                    }
                    for &k in slice {
                        match index.entry(k) {
                            Entry::Occupied(e) => {
                                dsts.push(*e.get());
                                was.push(true);
                            }
                            Entry::Vacant(e) => {
                                let s = keys.len() as u32;
                                keys.push(k);
                                e.insert(s);
                                dsts.push(s);
                                was.push(false);
                            }
                        }
                    }
                    *indexed = keys.len();
                }
                for col in &mut self.cols {
                    col.resize_default(keys.len());
                }
            }
        }
        self.merges += was.iter().filter(|&&w| w).count() as u64;
        for (dst, src) in self.cols.iter_mut().zip(&t.cols) {
            dst.merge_from(src, r.clone(), dsts, was);
        }
    }

    /// The range's base cells sorted by key, and the number of merges
    /// (contributions that landed on an occupied slot).
    pub(crate) fn finish(self) -> (StateTable, u64) {
        let mut table = match self.slots {
            Slots::Dense(occupied) => {
                let idx: Vec<u32> = occupied
                    .iter()
                    .enumerate()
                    .filter_map(|(i, &o)| o.then_some(i as u32))
                    .collect();
                let keys = idx.iter().map(|&i| self.lo + i as u64).collect();
                let mut cols = self.cols;
                for col in &mut cols {
                    *col = col.gather(&idx);
                }
                StateTable { keys, cols }
            }
            Slots::Sparse { keys, .. } => {
                let mut table = StateTable {
                    keys,
                    cols: self.cols,
                };
                table.sort_by_key();
                table
            }
        };
        for col in &mut table.cols {
            col.dedup_distinct();
        }
        (table, self.merges)
    }
}

/// Phase 1b: merge a run's chunk tables into per-worker shards of
/// contiguous key ranges. Concatenating the shards in order yields all
/// base cells sorted by key — for every worker count.
pub(crate) fn merge_chunks(
    tables: &[StateTable],
    key_space: u64,
    threads: usize,
) -> (Vec<StateTable>, u64) {
    let parts = split_work(key_space, threads, |lo, hi| {
        let mut merger = RunMerger::new(lo, hi, key_space);
        for t in tables {
            merger.push(t);
        }
        merger.finish()
    });
    let merges = parts.iter().map(|(_, m)| m).sum();
    (parts.into_iter().map(|(shard, _)| shard).collect(), merges)
}

/// The region keys containing `cell_key` that fall in `[lo, hi)`,
/// written into `out`: an odometer over the per-dimension ancestor key
/// contributions, maintaining the key sum incrementally.
pub(crate) fn expansion_keys(
    cell_key: u64,
    ks: &KeySpace,
    anc_keys: &[Vec<Vec<u64>>],
    lo: u64,
    hi: u64,
    out: &mut Vec<u64>,
) {
    out.clear();
    let arity = ks.strides.len();
    let mut lists: Vec<&[u64]> = Vec::with_capacity(arity);
    let mut rem = cell_key;
    for (&stride, anc_d) in ks.strides.iter().zip(anc_keys) {
        let v = (rem / stride) as usize;
        rem %= stride;
        lists.push(&anc_d[v]);
    }
    let mut idx = vec![0usize; arity];
    let mut sum: u64 = lists.iter().map(|l| l[0]).sum();
    loop {
        if (lo..hi).contains(&sum) {
            out.push(sum);
        }
        let mut d = arity;
        loop {
            if d == 0 {
                return;
            }
            d -= 1;
            sum -= lists[d][idx[d]];
            idx[d] += 1;
            if idx[d] < lists[d].len() {
                sum += lists[d][idx[d]];
                break;
            }
            idx[d] = 0;
            sum += lists[d][0];
        }
    }
}

/// One region's dense item-indexed aggregation state: `occupied[i]` says
/// whether item slot `i` has data; `cols[m]` holds measure `m`'s lanes
/// over all item slots.
struct RegionTable {
    occupied: Vec<bool>,
    cols: Vec<StateCol>,
}

/// Reusable per-run scratch for [`flush_run`].
#[derive(Default)]
struct RunScratch {
    /// Dense item slot of each run entry — one `% n_items` per entry,
    /// computed once and shared across every region key and column.
    items: Vec<u32>,
    /// Occupancy pre-state per entry for the current region table.
    was: Vec<bool>,
}

/// Merge one cell's run of shard entries (`run`, a contiguous index
/// range of `shard` sharing a cell key) into the region tables of every
/// key in `expansion`. Runs arrive in ascending cell-key order, so each
/// `(region, item)` output accumulates its contributions in the same
/// order for any sharding — a run split at a shard boundary flushes as
/// two segments, which preserves that per-output order.
fn flush_run(
    expansion: &[u64],
    shard: &StateTable,
    run: Range<usize>,
    n_items: u64,
    out: &mut FxMap<u64, RegionTable>,
    scratch: &mut RunScratch,
    merges: &mut u64,
) {
    if expansion.is_empty() {
        // Filtered rollups prune most cells; don't pay the per-entry
        // item decode for a run no region will consume.
        return;
    }
    let RunScratch { items, was } = scratch;
    items.clear();
    items.extend(shard.keys[run.clone()].iter().map(|&k| (k % n_items) as u32));
    for &rk in expansion {
        let table = out.entry(rk).or_insert_with(|| RegionTable {
            occupied: vec![false; n_items as usize],
            cols: shard
                .cols
                .iter()
                .map(|c| c.new_like(n_items as usize))
                .collect(),
        });
        was.clear();
        for &it in items.iter() {
            let w = table.occupied[it as usize];
            *merges += w as u64;
            was.push(w);
            table.occupied[it as usize] = true;
        }
        for (dst, src) in table.cols.iter_mut().zip(&shard.cols) {
            dst.merge_from(src, run.clone(), items, was);
        }
    }
}

/// Per-dimension ancestor tables: `anc_keys[d][v]` lists the key
/// contribution (ancestor value × stride) of every value containing
/// `v`, replacing the per-cell `containing_regions` materialisation.
pub(crate) fn ancestor_key_tables(space: &RegionSpace, ks: &KeySpace) -> Vec<Vec<Vec<u64>>> {
    space
        .dims()
        .iter()
        .enumerate()
        .map(|(d, dim)| {
            (0..dim.num_values())
                .map(|v| {
                    dim.containing_values(v)
                        .into_iter()
                        .map(|a| a as u64 * ks.strides[d])
                        .collect()
                })
                .collect()
        })
        .collect()
}

/// Phase 2: roll base cells up into every containing region. Workers own
/// disjoint region-key ranges; every worker walks all base cells in key
/// order, so each output cell accumulates its contributions in a fixed
/// order and no two workers ever touch the same output cell.
///
/// When `filter` is given (a **sorted** list of region keys), only those
/// regions are expanded and emitted — the delta pass uses this to roll
/// up just its dirty set. Because each kept region still accumulates
/// every base cell in full key order, a filtered region's value is
/// bit-identical to the same region in an unfiltered rollup.
pub(crate) fn expand_rollup(
    space: &RegionSpace,
    ks: &KeySpace,
    shards: &[StateTable],
    threads: usize,
    filter: Option<&[u64]>,
) -> (HashMap<RegionId, ItemFeatures>, u64) {
    let anc_keys = ancestor_key_tables(space, ks);

    let worker = |lo: u64, hi: u64| -> (Vec<(RegionId, ItemFeatures)>, u64) {
        // Base cells with the same coordinates are adjacent in key
        // order, so the expansion list is memoised per distinct cell
        // and the cell's items are batched into one columnar run,
        // hashing each region key once per run instead of once per
        // (region, item).
        if ks.n_items <= DENSE_ITEMS_MAX {
            let mut out: FxMap<u64, RegionTable> = FxMap::default();
            let mut merges = 0u64;
            let mut cur_cell = u64::MAX;
            let mut expansion: Vec<u64> = Vec::new();
            let mut scratch = RunScratch::default();
            for shard in shards {
                let mut i = 0;
                while i < shard.len() {
                    let cell_key = shard.keys[i] / ks.n_items;
                    let mut j = i + 1;
                    while j < shard.len() && shard.keys[j] / ks.n_items == cell_key {
                        j += 1;
                    }
                    if cell_key != cur_cell {
                        cur_cell = cell_key;
                        expansion_keys(cell_key, ks, &anc_keys, lo, hi, &mut expansion);
                        if let Some(keep) = filter {
                            expansion.retain(|k| keep.binary_search(k).is_ok());
                        }
                    }
                    flush_run(
                        &expansion,
                        shard,
                        i..j,
                        ks.n_items,
                        &mut out,
                        &mut scratch,
                        &mut merges,
                    );
                    i = j;
                }
            }
            let finished = out
                .into_iter()
                .map(|(rk, mut table)| {
                    for col in &mut table.cols {
                        col.dedup_distinct();
                    }
                    let n_occ = table.occupied.iter().filter(|&&o| o).count();
                    let mut items: ItemFeatures = HashMap::with_capacity(n_occ);
                    for (i, &occ) in table.occupied.iter().enumerate() {
                        if occ {
                            items.insert(
                                ks.items[i],
                                table.cols.iter().map(|c| c.finish_at(i)).collect(),
                            );
                        }
                    }
                    (RegionId(ks.decode_region(rk)), items)
                })
                .collect();
            return (finished, merges);
        }

        // Huge item domains: dense per-region item tables would cost
        // O(regions × items) memory, so key the map by (region, item)
        // and keep per-entry AoS states.
        let mut out: FxMap<u64, Vec<CellState>> = FxMap::default();
        let mut merges = 0u64;
        let mut cur_cell = u64::MAX;
        let mut expansion: Vec<u64> = Vec::new();
        for shard in shards {
            for (i, &key) in shard.keys.iter().enumerate() {
                let cell_key = key / ks.n_items;
                let item_part = key % ks.n_items;
                if cell_key != cur_cell {
                    cur_cell = cell_key;
                    expansion_keys(cell_key, ks, &anc_keys, lo, hi, &mut expansion);
                    if let Some(keep) = filter {
                        expansion.retain(|k| keep.binary_search(k).is_ok());
                    }
                }
                for &rk in &expansion {
                    match out.entry(rk * ks.n_items + item_part) {
                        Entry::Occupied(mut e) => {
                            for (state, col) in e.get_mut().iter_mut().zip(&shard.cols) {
                                col.merge_into_state(i, state);
                            }
                            merges += 1;
                        }
                        Entry::Vacant(e) => {
                            e.insert(shard.cols.iter().map(|c| c.state_at(i)).collect());
                        }
                    }
                }
            }
        }
        let mut per_region: FxMap<u64, HashMap<i64, Vec<Option<f64>>>> = FxMap::default();
        for (combined, states) in out {
            let region_key = combined / ks.n_items;
            let item = ks.items[(combined % ks.n_items) as usize];
            per_region
                .entry(region_key)
                .or_default()
                .insert(item, states.iter().map(CellState::finish).collect());
        }
        let finished = per_region
            .into_iter()
            .map(|(rk, items)| (RegionId(ks.decode_region(rk)), items))
            .collect();
        (finished, merges)
    };

    let mut regions = HashMap::new();
    let mut merges = 0;
    for (finished, m) in split_work(ks.cell_space, threads, worker) {
        regions.extend(finished);
        merges += m;
    }
    (regions, merges)
}

/// Run the CUBE pass over fact data with default [`Parallelism`].
pub fn cube_pass(space: &RegionSpace, input: &CubeInput) -> CubeResult {
    cube_pass_traced(
        space,
        input,
        Parallelism::default(),
        &bellwether_obs::NoopRecorder,
    )
}

/// Run the CUBE pass reporting into a [`Recorder`]: phase counters under
/// the canonical `cube_pass/*` names plus one span per phase
/// (`phase1_scan`, `phase1_merge`, `phase2_rollup`). With a disabled
/// recorder (e.g. [`bellwether_obs::NoopRecorder`]) the kernel pays one
/// branch per phase and nothing per row; the result is bit-identical
/// either way, and for every `Parallelism`. `CubeStats` implements
/// `Recorder`, so it collects the counters alone.
///
/// This is the cold run policy: one run over every chunk, no budget.
pub fn cube_pass_traced(
    space: &RegionSpace,
    input: &CubeInput,
    par: Parallelism,
    rec: &dyn Recorder,
) -> CubeResult {
    let store = RunStore::new(UNLIMITED_BUDGET);
    run_pass(
        space,
        std::slice::from_ref(input),
        par,
        usize::MAX,
        store,
        rec,
    )
    .expect("an unlimited budget never spills")
}

/// The engine behind the cold and external passes. Phase 1 folds the
/// inputs' chunks, in order, into runs of `run_chunks` chunks (the last
/// may be short; a run may straddle inputs) and merges each run into
/// key-range shards; `store` keeps or spills every completed run, then
/// merges the runs in formation order. Phase 2 rolls the base cells up.
///
/// Inputs must pass [`CubeInput::check_shape`] and share the first
/// input's measure schema, or the pass panics. When the dense key
/// encoding overflows, the tuple-keyed reference kernel runs over the
/// concatenated input instead — it is not out-of-core.
pub(crate) fn run_pass(
    space: &RegionSpace,
    inputs: &[CubeInput],
    par: Parallelism,
    run_chunks: usize,
    mut store: RunStore,
    rec: &dyn Recorder,
) -> io::Result<CubeResult> {
    let arity = space.arity();
    let measure_names = inputs
        .first()
        .map(CubeInput::measure_names)
        .unwrap_or_default();
    for (idx, input) in inputs.iter().enumerate() {
        let checked = input
            .check_shape(arity)
            .and_then(|()| inputs[0].check_schema(input));
        if let Err(e) = checked {
            panic!("input {idx}: {e}");
        }
    }
    let total_rows: usize = inputs.iter().map(CubeInput::rows).sum();
    if total_rows == 0 {
        return Ok(CubeResult {
            measure_names,
            regions: HashMap::new(),
        });
    }

    // Item domain over all inputs, deduplicated incrementally so the
    // working set stays `O(#distinct items)`, not `O(rows)`.
    let mut items: Vec<i64> = Vec::new();
    for input in inputs {
        items.extend_from_slice(&input.item_ids);
        items.sort_unstable();
        items.dedup();
    }
    let Some(ks) = KeySpace::build(space, &items) else {
        return Ok(match inputs {
            [one] => cube_pass_reference(space, one),
            _ => {
                let mut all = inputs[0].empty_like();
                inputs.iter().for_each(|input| all.extend(input));
                cube_pass_reference(space, &all)
            }
        });
    };
    drop(items);
    let key_space = ks.key_space();
    let threads = par.threads_for(total_rows.div_ceil(ROW_CHUNK));

    // Phase 1: chunk folds (1a) closed into merged runs (1b).
    let mut pending: Vec<StateTable> = Vec::new();
    let mut run_merges = 0u64;
    let mut close_run = |pending: &mut Vec<StateTable>| -> io::Result<()> {
        let (shards, merges) = {
            let _t = span!(rec, "cube_pass/phase1_merge");
            merge_chunks(pending, key_space, threads)
        };
        pending.clear();
        run_merges += merges;
        store.push(shards, rec)
    };
    for input in inputs {
        let key_of = |row: usize, coords: &[u32]| -> Option<u64> {
            Some(
                ks.key(input.item_ids[row], coords)
                    .unwrap_or_else(|e| panic!("{e}")),
            )
        };
        let n_chunks = input.rows().div_ceil(ROW_CHUNK);
        let mut c = 0;
        while c < n_chunks {
            let take = (run_chunks - pending.len()).min(n_chunks - c);
            {
                let _t = span!(rec, "cube_pass/phase1_scan");
                pending.extend(fold_chunks(input, arity, c..c + take, threads, &key_of));
            }
            c += take;
            if pending.len() == run_chunks {
                close_run(&mut pending)?;
            }
        }
    }
    if !pending.is_empty() {
        close_run(&mut pending)?;
    }
    let (shards, final_merges) = store.merge(key_space, rec)?;
    let base_cells: u64 = shards.iter().map(|s| s.len() as u64).sum();

    // Phase 2: rollup expansion.
    let (regions, merges_2) = {
        let _t = span!(rec, "cube_pass/phase2_rollup");
        expand_rollup(space, &ks, &shards, threads, None)
    };

    rec.add(names::CUBE_PASS_ROWS_SCANNED, total_rows as u64);
    rec.add(names::CUBE_PASS_BASE_CELLS, base_cells);
    rec.add(
        names::CUBE_PASS_CELL_MERGES,
        run_merges + final_merges + merges_2,
    );
    rec.add(names::CUBE_PASS_REGIONS_EMITTED, regions.len() as u64);
    Ok(CubeResult {
        measure_names,
        regions,
    })
}

/// The original tuple-keyed, single-threaded CUBE pass, retained as the
/// differential-testing reference and as the fallback when the dense
/// key encoding would overflow a `u64`.
///
/// Unlike [`cube_pass`], its phase-2 merge order follows hash-map
/// iteration, so floating-point aggregates are only reproducible when
/// the arithmetic is exact (e.g. integer-valued sums).
pub fn cube_pass_reference(space: &RegionSpace, input: &CubeInput) -> CubeResult {
    let n = input.rows();
    let arity = space.arity();
    if let Err(e) = input.check_shape(arity) {
        panic!("{e}");
    }

    // Phase 1: base-cell aggregation keyed by (finest coords, item).
    let mut base: HashMap<(Vec<u32>, i64), Vec<CellState>> = HashMap::new();
    for row in 0..n {
        let coords = input.coords[row * arity..(row + 1) * arity].to_vec();
        let key = (coords, input.item_ids[row]);
        let states = base
            .entry(key)
            .or_insert_with(|| input.measures.iter().map(CellState::new).collect());
        for (state, measure) in states.iter_mut().zip(&input.measures) {
            state.update(measure, row);
        }
    }

    // Phase 2: expand base cells into all containing regions.
    let mut regions: HashMap<RegionId, HashMap<i64, Vec<CellState>>> = HashMap::new();
    for ((coords, item), states) in &base {
        for region in space.containing_regions(coords) {
            let items = regions.entry(region).or_default();
            match items.get_mut(item) {
                Some(existing) => {
                    for (a, b) in existing.iter_mut().zip(states) {
                        a.merge(b);
                    }
                }
                None => {
                    items.insert(*item, states.clone());
                }
            }
        }
    }

    // Finalize.
    let measure_names = input.measure_names();
    let regions = regions
        .into_iter()
        .map(|(r, items)| {
            let items = items
                .into_iter()
                .map(|(i, states)| (i, states.iter().map(CellState::finish).collect()))
                .collect();
            (r, items)
        })
        .collect();
    CubeResult {
        measure_names,
        regions,
    }
}

/// Aggregate the measures per item over the fact rows whose finest-cell
/// coordinates pass `row_filter`, with no cube expansion.
///
/// This evaluates the same feature queries over an *arbitrary* union of
/// cells — the shape the random-sampling baseline of Figure 7(a) buys,
/// which "may not correspond to any OLAP-style region". It runs on the
/// same chunk fold and run merger as [`cube_pass`] (keyed by dense item
/// index alone), so the result is bit-identical for every
/// `Parallelism`. Counters use the `cube_pass/*` names; the fold and
/// merge are timed under `cube_pass/phase1_scan` and
/// `cube_pass/phase1_merge`.
pub fn aggregate_filtered(
    input: &CubeInput,
    arity: usize,
    row_filter: impl Fn(&[u32]) -> bool + Sync,
    par: Parallelism,
    rec: &dyn Recorder,
) -> HashMap<i64, Vec<Option<f64>>> {
    if let Err(e) = input.check_shape(arity) {
        panic!("{e}");
    }
    let n = input.rows();
    if n == 0 {
        return HashMap::new();
    }

    let ks = KeySpace::over(Vec::new(), &input.item_ids).expect("item ids fit a u32 index");
    let n_chunks = n.div_ceil(ROW_CHUNK);
    let threads = par.threads_for(n_chunks);
    let key_of = |row: usize, coords: &[u32]| -> Option<u64> {
        let item = input.item_ids[row];
        row_filter(coords).then(|| ks.key(item, &[]).expect("items index themselves"))
    };
    let tables = {
        let _t = span!(rec, "cube_pass/phase1_scan");
        fold_chunks(input, arity, 0..n_chunks, threads, &key_of)
    };
    let (shards, merges) = {
        let _t = span!(rec, "cube_pass/phase1_merge");
        merge_chunks(&tables, ks.key_space(), threads)
    };
    let base_cells: u64 = shards.iter().map(|s| s.len() as u64).sum();
    rec.add(names::CUBE_PASS_ROWS_SCANNED, n as u64);
    rec.add(names::CUBE_PASS_BASE_CELLS, base_cells);
    rec.add(names::CUBE_PASS_CELL_MERGES, merges);
    let mut out = HashMap::new();
    for t in &shards {
        for (i, &k) in t.keys.iter().enumerate() {
            out.insert(
                ks.items[k as usize],
                t.cols.iter().map(|c| c.finish_at(i)).collect(),
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dimension::{Dimension, Hierarchy};
    use bellwether_obs::NoopRecorder;
    use bellwether_storage::CubeStats;

    fn space() -> RegionSpace {
        let mut loc = Hierarchy::new("Loc", "All");
        let us = loc.add_child(0, "US");
        loc.add_child(us, "WI"); // id 2
        loc.add_child(us, "MD"); // id 3
        RegionSpace::new(vec![
            Dimension::Interval {
                name: "Time".into(),
                max_t: 2,
            },
            Dimension::Hierarchy(loc),
        ])
    }

    /// Four fact rows:
    ///   (item 1, t1, WI, profit 10, ad 7→size 3.0)
    ///   (item 1, t2, WI, profit 20, ad 7→size 3.0)   -- same ad twice
    ///   (item 1, t1, MD, profit  5, ad 8→size 9.0)
    ///   (item 2, t2, MD, profit  1, no ad)
    fn input() -> CubeInput {
        CubeInput {
            item_ids: vec![1, 1, 1, 2],
            coords: vec![0, 2, 1, 2, 0, 3, 1, 3],
            measures: vec![
                Measure::Numeric {
                    name: "profit".into(),
                    func: AggFunc::Sum,
                    values: vec![Some(10.0), Some(20.0), Some(5.0), Some(1.0)],
                },
                Measure::Numeric {
                    name: "orders".into(),
                    func: AggFunc::Count,
                    values: vec![Some(1.0), Some(1.0), Some(1.0), Some(1.0)],
                },
                Measure::DistinctKeyed {
                    name: "ad_size_total".into(),
                    func: AggFunc::Sum,
                    keys: vec![Some(7), Some(7), Some(8), None],
                    values: vec![3.0, 3.0, 9.0, 0.0],
                },
            ],
        }
    }

    fn get(result: &CubeResult, r: Vec<u32>, item: i64) -> Vec<Option<f64>> {
        result
            .features(&RegionId(r), item)
            .cloned()
            .unwrap_or_else(|| panic!("missing cell"))
    }

    #[test]
    fn sums_roll_up_over_time_and_space() {
        let r = cube_pass(&space(), &input());
        // [1-1, WI] item 1: only the first row
        assert_eq!(get(&r, vec![0, 2], 1)[0], Some(10.0));
        // [1-2, WI] item 1: rows 1+2
        assert_eq!(get(&r, vec![1, 2], 1)[0], Some(30.0));
        // [1-2, US] item 1: all three rows
        assert_eq!(get(&r, vec![1, 1], 1)[0], Some(35.0));
        // [1-2, All] item 2
        assert_eq!(get(&r, vec![1, 0], 2)[0], Some(1.0));
        // counts
        assert_eq!(get(&r, vec![1, 1], 1)[1], Some(3.0));
    }

    #[test]
    fn distinct_fk_deduplicates_across_cells() {
        let r = cube_pass(&space(), &input());
        // [1-2, WI] item 1: ad 7 appears twice but counts once → 3.0
        assert_eq!(get(&r, vec![1, 2], 1)[2], Some(3.0));
        // [1-2, US] item 1: ads {7, 8} → 3 + 9 = 12
        assert_eq!(get(&r, vec![1, 1], 1)[2], Some(12.0));
        // item 2 has no ads → NULL
        assert_eq!(get(&r, vec![1, 0], 2)[2], None);
    }

    #[test]
    fn coverage_counts() {
        let r = cube_pass(&space(), &input());
        assert_eq!(r.coverage_count(&RegionId(vec![1, 0])), 2); // both items
        assert_eq!(r.coverage_count(&RegionId(vec![0, 2])), 1); // only item 1
    }

    #[test]
    fn coverage_t1_excludes_late_items() {
        let r = cube_pass(&space(), &input());
        // [1-1, All]: item 2's only row is at t2
        assert_eq!(r.coverage_count(&RegionId(vec![0, 0])), 1);
    }

    #[test]
    fn absent_cells_are_none() {
        let r = cube_pass(&space(), &input());
        assert!(r.features(&RegionId(vec![0, 3]), 2).is_none()); // item 2 not in [1-1, MD]
        assert_eq!(r.coverage_count(&RegionId(vec![99, 99])), 0);
    }

    #[test]
    fn min_max_avg_states() {
        let s = space();
        let inp = CubeInput {
            item_ids: vec![1, 1, 1],
            coords: vec![0, 2, 1, 2, 1, 3],
            measures: vec![
                Measure::Numeric {
                    name: "mn".into(),
                    func: AggFunc::Min,
                    values: vec![Some(5.0), Some(2.0), None],
                },
                Measure::Numeric {
                    name: "mx".into(),
                    func: AggFunc::Max,
                    values: vec![Some(5.0), Some(2.0), None],
                },
                Measure::Numeric {
                    name: "av".into(),
                    func: AggFunc::Avg,
                    values: vec![Some(5.0), Some(2.0), None],
                },
            ],
        };
        let r = cube_pass(&s, &inp);
        let v = get(&r, vec![1, 0], 1); // [1-2, All]
        assert_eq!(v[0], Some(2.0));
        assert_eq!(v[1], Some(5.0));
        assert_eq!(v[2], Some(3.5));
        // the all-NULL cell [1-2, MD] row only: min/max/avg = NULL
        let v2 = get(&r, vec![1, 3], 1);
        assert_eq!(v2[0], None);
        assert_eq!(v2[2], None);
    }

    #[test]
    fn count_distinct_counts_keys() {
        let s = space();
        let inp = CubeInput {
            item_ids: vec![1, 1],
            coords: vec![0, 2, 0, 3],
            measures: vec![Measure::DistinctKeyed {
                name: "n_ads".into(),
                func: AggFunc::CountDistinct,
                keys: vec![Some(4), Some(4)],
                values: vec![0.0, 0.0],
            }],
        };
        let r = cube_pass(&s, &inp);
        assert_eq!(get(&r, vec![0, 1], 1)[0], Some(1.0)); // US: same ad in both states
    }

    #[test]
    fn filtered_aggregation_matches_cube_cell() {
        let s = space();
        let inp = input();
        // Filter = the region [1-2, US]: time ≤ 1 (always true here) and
        // location under US (nodes 2 or 3).
        let filtered = aggregate_filtered(
            &inp,
            2,
            |c| c[0] <= 1 && (c[1] == 2 || c[1] == 3),
            Parallelism::default(),
            &NoopRecorder,
        );
        let cube = cube_pass(&s, &inp);
        let want = cube.features(&RegionId(vec![1, 1]), 1).unwrap();
        assert_eq!(filtered.get(&1).unwrap(), want);
    }

    #[test]
    fn filtered_aggregation_empty_filter() {
        let filtered = aggregate_filtered(
            &input(),
            2,
            |_| false,
            Parallelism::default(),
            &NoopRecorder,
        );
        assert!(filtered.is_empty());
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn shape_mismatch_panics() {
        let s = space();
        let inp = CubeInput {
            item_ids: vec![1],
            coords: vec![0], // should be 2 coords
            measures: vec![],
        };
        cube_pass(&s, &inp);
    }

    fn assert_results_identical(a: &CubeResult, b: &CubeResult) {
        assert_eq!(a.measure_names, b.measure_names);
        assert_eq!(a.regions.len(), b.regions.len());
        for (region, items) in &a.regions {
            let other = b.regions.get(region).expect("region missing");
            assert_eq!(items.len(), other.len(), "item count in {region:?}");
            for (item, values) in items {
                let ov = other.get(item).expect("item missing");
                assert_eq!(values.len(), ov.len());
                for (x, y) in values.iter().zip(ov) {
                    match (x, y) {
                        (None, None) => {}
                        (Some(a), Some(b)) => {
                            assert_eq!(a.to_bits(), b.to_bits(), "bits differ in {region:?}")
                        }
                        _ => panic!("NULL mismatch in {region:?} item {item}"),
                    }
                }
            }
        }
    }

    #[test]
    fn thread_count_never_changes_bits() {
        let s = space();
        let inp = input();
        let base = cube_pass_traced(&s, &inp, Parallelism::sequential(), &NoopRecorder);
        for t in 2..=8 {
            let par = cube_pass_traced(&s, &inp, Parallelism::fixed(t), &NoopRecorder);
            assert_results_identical(&base, &par);
        }
    }

    #[test]
    fn matches_reference_kernel() {
        let s = space();
        let inp = input(); // integer-valued, so the reference is exact
        let fast = cube_pass(&s, &inp);
        let reference = cube_pass_reference(&s, &inp);
        assert_results_identical(&fast, &reference);
    }

    #[test]
    fn sparse_key_space_matches_reference() {
        // Two interval dimensions whose combined key space exceeds
        // DENSE_SLOTS_MAX force the hash-indexed phase-1b merge path.
        // Coordinates sit near the top of each interval so every cell
        // expands into only a few regions.
        let max_t = 1200u32; // 1200 × 1200 × 2 items > 2^20 keys
        let s = RegionSpace::new(vec![
            Dimension::Interval {
                name: "T1".into(),
                max_t,
            },
            Dimension::Interval {
                name: "T2".into(),
                max_t,
            },
        ]);
        let (a, b) = (max_t - 2, max_t - 1);
        let inp = CubeInput {
            item_ids: vec![1, 2, 1, 1],
            coords: vec![a, b, a, a, b, b, a, b],
            measures: vec![
                Measure::Numeric {
                    name: "s".into(),
                    func: AggFunc::Sum,
                    // Exactly representable sums in any order, so the
                    // reference comparison is bitwise.
                    values: vec![Some(0.5), Some(2.0), Some(4.0), Some(0.25)],
                },
                Measure::Numeric {
                    name: "m".into(),
                    func: AggFunc::Min,
                    values: vec![Some(3.0), None, Some(1.0), Some(5.0)],
                },
            ],
        };
        let reference = cube_pass_reference(&s, &inp);
        for t in 1..=4 {
            let fast = cube_pass_traced(&s, &inp, Parallelism::fixed(t), &NoopRecorder);
            assert_results_identical(&fast, &reference);
        }
    }

    #[test]
    fn run_merger_sparse_appends_then_hashes_like_dense() {
        // Feeds that first append above every key, then land below the
        // maximum (forcing the deferred tail into the hash index), must
        // merge exactly like the dense table does.
        let table = |keys: &[u64]| StateTable {
            keys: keys.to_vec(),
            cols: vec![StateCol::Count(keys.iter().map(|&k| k + 1).collect())],
        };
        let feeds: [&[u64]; 4] = [&[10, 20], &[30, 40], &[20, 35, 50], &[5, 60]];
        let merge = |key_space: u64| {
            let mut merger = RunMerger::new(0, 100, key_space);
            for keys in feeds {
                merger.push(&table(keys));
            }
            merger.finish()
        };
        let (sparse, sparse_merges) = merge(DENSE_SLOTS_MAX + 1);
        let (dense, dense_merges) = merge(100);
        assert_eq!(sparse.keys, vec![5, 10, 20, 30, 35, 40, 50, 60]);
        assert_eq!((sparse_merges, dense_merges), (1, 1));
        assert_eq!(sparse.keys, dense.keys);
        assert_eq!(format!("{:?}", sparse.cols), format!("{:?}", dense.cols));
        let StateCol::Count(counts) = &sparse.cols[0] else {
            panic!("count column expected")
        };
        assert_eq!(counts, &vec![6, 11, 42, 31, 36, 41, 51, 61]);
    }

    #[test]
    fn huge_item_domain_matches_reference() {
        // More distinct items than DENSE_ITEMS_MAX forces the
        // (region, item)-keyed rollup fallback. One fact row per item,
        // so every aggregate is exact and the reference is bitwise.
        let n = (DENSE_ITEMS_MAX + 2) as usize;
        let s = RegionSpace::new(vec![Dimension::Interval {
            name: "Time".into(),
            max_t: 2,
        }]);
        let inp = CubeInput {
            item_ids: (0..n as i64).collect(),
            coords: (0..n).map(|i| (i % 2) as u32).collect(),
            measures: vec![Measure::Numeric {
                name: "s".into(),
                func: AggFunc::Sum,
                values: (0..n).map(|i| Some(i as f64 * 0.5)).collect(),
            }],
        };
        let reference = cube_pass_reference(&s, &inp);
        for t in [1usize, 3] {
            let fast = cube_pass_traced(&s, &inp, Parallelism::fixed(t), &NoopRecorder);
            assert_results_identical(&fast, &reference);
        }
    }

    #[test]
    fn empty_input_yields_empty_result() {
        let s = space();
        let inp = CubeInput {
            item_ids: vec![],
            coords: vec![],
            measures: vec![Measure::Numeric {
                name: "m".into(),
                func: AggFunc::Sum,
                values: vec![],
            }],
        };
        let r = cube_pass(&s, &inp);
        assert_eq!(r.measure_names, vec!["m".to_string()]);
        assert!(r.regions.is_empty());
    }

    #[test]
    fn stats_counters_are_recorded() {
        let s = space();
        let inp = input();
        let stats = CubeStats::shared();
        let r = cube_pass_traced(&s, &inp, Parallelism::fixed(2), stats.as_ref());
        let snap = stats.snapshot();
        assert_eq!(snap.rows_scanned(), 4);
        // 4 rows in 4 distinct (cell, item) combinations → no phase-1
        // merges, 4 base cells.
        assert_eq!(snap.base_cells(), 4);
        assert_eq!(snap.regions_emitted(), r.regions.len() as u64);
        assert!(snap.cell_merges() > 0); // rollup merges cells
    }

    #[test]
    fn traced_records_spans_and_matches_cube_stats() {
        let s = space();
        let inp = input();
        let reg = bellwether_obs::Registry::shared();
        let r = cube_pass_traced(&s, &inp, Parallelism::fixed(2), reg.as_ref());
        let stats = CubeStats::shared();
        let legacy = cube_pass_traced(&s, &inp, Parallelism::fixed(2), stats.as_ref());
        assert_results_identical(&r, &legacy);
        let snap = reg.snapshot();
        let legacy_snap = stats.snapshot();
        assert_eq!(snap.rows_scanned(), legacy_snap.rows_scanned());
        assert_eq!(snap.base_cells(), legacy_snap.base_cells());
        assert_eq!(snap.cell_merges(), legacy_snap.cell_merges());
        assert_eq!(snap.regions_emitted(), legacy_snap.regions_emitted());
        for phase in ["phase1_scan", "phase1_merge", "phase2_rollup"] {
            let span = snap
                .span(&format!("cube_pass/{phase}"))
                .unwrap_or_else(|| panic!("missing span {phase}"));
            assert_eq!(span.calls, 1);
        }
    }

    #[test]
    fn filtered_aggregation_stats_and_threads() {
        let inp = input();
        let stats = CubeStats::shared();
        let seq = aggregate_filtered(
            &inp,
            2,
            |c| c[1] == 2 || c[1] == 3,
            Parallelism::sequential(),
            &NoopRecorder,
        );
        let par = aggregate_filtered(
            &inp,
            2,
            |c| c[1] == 2 || c[1] == 3,
            Parallelism::fixed(4),
            stats.as_ref(),
        );
        assert_eq!(seq.len(), par.len());
        for (item, values) in &seq {
            assert_eq!(par.get(item), Some(values));
        }
        let snap = stats.snapshot();
        assert_eq!(snap.rows_scanned(), 4);
        assert_eq!(snap.base_cells(), 2); // two items survive the filter
    }
}
