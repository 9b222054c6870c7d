//! Combinatorial bellwether analysis (§3.4): candidates are *sets* of
//! regions (`c ⊆ R`), features are aggregated over the union of the
//! collection's cells, and the collection's cost is the sum of its
//! members' costs.
//!
//! The full `2^R` space is intractable, so this module implements the
//! natural greedy forward selection the paper's discussion invites: at
//! each step, add the affordable region whose inclusion lowers the
//! cross-region model error the most; stop when no addition improves or
//! nothing is affordable. The result generalises the basic bellwether —
//! with `max_regions = 1` it degenerates to the (budgeted) basic search
//! over single regions.

use crate::error::Result;
use crate::items::ItemTable;
use crate::problem::BellwetherConfig;
use bellwether_cube::{aggregate_filtered, CostModel, CubeInput, RegionId, RegionSpace};
use bellwether_linreg::{ErrorEstimate, RegressionData};
use std::collections::HashMap;

/// The selected collection and its quality.
#[derive(Debug, Clone)]
pub struct CombinatorialResult {
    /// Selected regions, in selection order.
    pub selected: Vec<RegionId>,
    /// Display labels of the selected regions.
    pub labels: Vec<String>,
    /// Total cost of the collection (sum of member costs).
    pub total_cost: f64,
    /// Error of the model over the union-aggregated features.
    pub error: ErrorEstimate,
    /// Error trace: the model error after each greedy addition.
    pub error_trace: Vec<f64>,
}

/// Training data over the union of a region collection.
fn union_training_data(
    space: &RegionSpace,
    cube_input: &CubeInput,
    items: &ItemTable,
    targets: &HashMap<i64, f64>,
    collection: &[&RegionId],
    config: &BellwetherConfig,
) -> RegressionData {
    let features = aggregate_filtered(
        cube_input,
        space.arity(),
        |cell| {
            let cell = RegionId(cell.to_vec());
            collection.iter().any(|r| space.contains(r, &cell))
        },
        config.parallelism,
        config.recorder.as_ref(),
    );
    let n_static = items.numeric_attrs().len();
    let p = 1 + n_static + cube_input.measures.len();
    let mut data = RegressionData::with_capacity(p, features.len());
    let mut ids: Vec<i64> = features.keys().copied().collect();
    ids.sort_unstable();
    let mut x = Vec::with_capacity(p);
    for id in ids {
        let (Some(&y), Some(statics)) = (targets.get(&id), items.static_features(id)) else {
            continue;
        };
        x.clear();
        x.push(1.0);
        x.extend_from_slice(&statics);
        x.extend(features[&id].iter().map(|v| v.unwrap_or(0.0)));
        data.push(&x, y);
    }
    data
}

/// Greedy forward selection of a region collection under the budget.
///
/// Returns `None` when not even a single affordable region yields a
/// model. `max_regions` bounds the collection size (and the runtime:
/// each round evaluates every remaining affordable region).
pub fn greedy_combinatorial_search(
    space: &RegionSpace,
    cube_input: &CubeInput,
    items: &ItemTable,
    targets: &HashMap<i64, f64>,
    cost_model: &dyn CostModel,
    config: &BellwetherConfig,
    max_regions: usize,
) -> Result<Option<CombinatorialResult>> {
    let all = space.all_regions();
    let costs: Vec<f64> = all.iter().map(|r| cost_model.cost(space, r)).collect();

    let mut selected: Vec<usize> = Vec::new();
    let mut spent = 0.0;
    let mut best_err: Option<f64> = None;
    let mut error_trace = Vec::new();
    let mut final_estimate: Option<ErrorEstimate> = None;

    while selected.len() < max_regions {
        let mut round_best: Option<(usize, ErrorEstimate)> = None;
        for (idx, region) in all.iter().enumerate() {
            if selected.contains(&idx) || spent + costs[idx] > config.budget {
                continue;
            }
            let mut trial: Vec<&RegionId> = selected.iter().map(|&i| &all[i]).collect();
            trial.push(region);
            let data = union_training_data(space, cube_input, items, targets, &trial, config);
            if data.n() < config.min_examples {
                continue;
            }
            let Some(est) = config.error_measure.estimate(&data) else {
                continue;
            };
            if round_best
                .as_ref()
                .is_none_or(|(_, b)| est.value < b.value)
            {
                round_best = Some((idx, est));
            }
        }
        let Some((idx, est)) = round_best else { break };
        // Stop when the addition no longer strictly improves.
        if best_err.is_some_and(|b| est.value >= b) {
            break;
        }
        spent += costs[idx];
        selected.push(idx);
        best_err = Some(est.value);
        error_trace.push(est.value);
        final_estimate = Some(est);
    }

    let Some(error) = final_estimate else {
        return Ok(None);
    };
    let selected_ids: Vec<RegionId> = selected.iter().map(|&i| all[i].clone()).collect();
    let labels = selected_ids.iter().map(|r| space.label(r)).collect();
    Ok(Some(CombinatorialResult {
        selected: selected_ids,
        labels,
        total_cost: spent,
        error,
        error_trace,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::ErrorMeasure;
    use bellwether_cube::{Dimension, Hierarchy, Measure, UniformCellCost};
    use bellwether_table::ops::AggFunc;
    use bellwether_table::{Column, DataType, Schema, Table};

    /// Target = profit in A + profit in B; no single leaf suffices, but
    /// the pair {A, B} is perfect. C is pure noise.
    fn fixture() -> (
        RegionSpace,
        CubeInput,
        ItemTable,
        HashMap<i64, f64>,
    ) {
        let space = RegionSpace::new(vec![Dimension::Hierarchy(Hierarchy::flat(
            "L",
            "All",
            &["A", "B", "C"],
        ))]);
        let n = 30i64;
        let mut item_ids = Vec::new();
        let mut coords = Vec::new();
        let mut profits = Vec::new();
        let mut targets = HashMap::new();
        for i in 0..n {
            let pa = (3 * i + 1) as f64;
            let pb = ((i * i) % 17) as f64;
            let pc = ((i * 7) % 5) as f64;
            for (leaf, v) in [(1u32, pa), (2, pb), (3, pc)] {
                item_ids.push(i);
                coords.push(leaf);
                profits.push(Some(v));
            }
            targets.insert(i, pa + pb);
        }
        let input = CubeInput {
            item_ids,
            coords,
            measures: vec![Measure::Numeric {
                name: "profit".into(),
                func: AggFunc::Sum,
                values: profits,
            }],
        };
        let table = Table::new(
            Schema::from_pairs(&[("id", DataType::Int)]).unwrap(),
            vec![Column::from_ints((0..n).collect())],
        )
        .unwrap();
        let items = ItemTable::from_table(&table, "id", &[], &[]).unwrap();
        (space, input, items, targets)
    }

    fn config(budget: f64) -> BellwetherConfig {
        BellwetherConfig::builder(budget)
            .min_examples(5)
            .error_measure(ErrorMeasure::TrainingSet)
            .build()
            .unwrap()
    }

    #[test]
    fn pair_beats_any_single_region() {
        let (space, input, items, targets) = fixture();
        let cost = UniformCellCost { rate: 1.0 };
        // Budget 2 affords two leaves but not [All] (cost 3).
        let result = greedy_combinatorial_search(
            &space,
            &input,
            &items,
            &targets,
            &cost,
            &config(2.0),
            4,
        )
        .unwrap()
        .unwrap();
        assert_eq!(result.selected.len(), 2);
        assert!(result.labels.contains(&"[A]".to_string()));
        assert!(result.labels.contains(&"[B]".to_string()));
        assert!(result.error.value < 1e-6, "union of A,B is exact");
        assert_eq!(result.total_cost, 2.0);
        // The trace shows the improvement from 1 to 2 regions.
        assert_eq!(result.error_trace.len(), 2);
        assert!(result.error_trace[0] > result.error_trace[1]);
    }

    #[test]
    fn max_regions_one_is_single_region_search() {
        let (space, input, items, targets) = fixture();
        let cost = UniformCellCost { rate: 1.0 };
        let result = greedy_combinatorial_search(
            &space,
            &input,
            &items,
            &targets,
            &cost,
            &config(10.0),
            1,
        )
        .unwrap()
        .unwrap();
        assert_eq!(result.selected.len(), 1);
    }

    #[test]
    fn zero_budget_returns_none() {
        let (space, input, items, targets) = fixture();
        let cost = UniformCellCost { rate: 1.0 };
        // The builder rejects a non-positive budget, which is exactly
        // what this test exercises — set the field directly.
        let mut cfg = config(1.0);
        cfg.budget = 0.0;
        let result = greedy_combinatorial_search(
            &space,
            &input,
            &items,
            &targets,
            &cost,
            &cfg,
            4,
        )
        .unwrap();
        assert!(result.is_none());
    }

    #[test]
    fn greedy_stops_when_no_improvement() {
        // With a generous budget the greedy may start from [All] (whose
        // single-region error beats any leaf) and then find that no
        // addition changes the union — it must terminate early rather
        // than padding the collection, and the trace must be strictly
        // improving.
        let (space, input, items, targets) = fixture();
        let cost = UniformCellCost { rate: 1.0 };
        let result = greedy_combinatorial_search(
            &space,
            &input,
            &items,
            &targets,
            &cost,
            &config(100.0),
            5,
        )
        .unwrap()
        .unwrap();
        assert!(result.selected.len() < 5, "greedy must stop early");
        for w in result.error_trace.windows(2) {
            assert!(w[1] < w[0], "trace must strictly improve: {:?}", result.error_trace);
        }
        assert_eq!(result.error.value, *result.error_trace.last().unwrap());
    }
}
