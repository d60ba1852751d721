//! Dominance pruning, always on, may only drop states the argmin can never
//! select. On a graph shaped like the scaling benchmark (where the interior
//! linears really lose states) the pruned planner must still reproduce the
//! unpruned seed path's plan and costs bit-for-bit (`golden/seed_plans.txt`),
//! serial and threaded; the same holds across the `SpaceOptions` grid, with
//! the pruning telemetry consistent per segment and independent of the thread
//! count; where nothing is dominated, the telemetry must say so.

mod common;

use common::{alternating_chain, assert_matches_seed, space_grid};
use primepar_graph::ModelConfig;
use primepar_search::{Planner, PlannerMetrics, PlannerOptions, SpaceOptions};
use primepar_topology::Cluster;

/// The run's pruned-state total is the sum of its segments' counts.
fn assert_prune_telemetry_consistent(tm: &PlannerMetrics) {
    assert_eq!(
        tm.states_pruned,
        tm.segments.iter().map(|s| s.states_pruned).sum::<u64>()
    );
}

#[test]
fn pruned_planner_is_bitwise_identical_across_the_option_grid() {
    let graph = ModelConfig::opt_6_7b().layer_graph(8, 512);
    for space in space_grid() {
        let tm = assert_matches_seed("opt-6.7b(8,512)", 4, &graph, 4, space, 1);
        assert_prune_telemetry_consistent(&tm);
    }
}

#[test]
fn pruned_planner_is_bitwise_identical_with_threads() {
    let graph = ModelConfig::opt_6_7b().layer_graph(8, 512);
    for space in [
        SpaceOptions::default(),
        SpaceOptions {
            allow_temporal: false,
            ..SpaceOptions::default()
        },
    ] {
        let serial = assert_matches_seed("opt-6.7b(8,512)", 8, &graph, 4, space, 1);
        let threaded = assert_matches_seed("opt-6.7b(8,512)", 8, &graph, 4, space, 4);
        assert_prune_telemetry_consistent(&threaded);
        assert_eq!(
            serial.states_pruned, threaded.states_pruned,
            "pruning depends on the thread count ({space:?})"
        );
    }
}

#[test]
fn pruned_planner_is_bitwise_identical_where_pruning_actually_fires() {
    let graph = alternating_chain(64, 9);
    for threads in [1, 4] {
        let tm = assert_matches_seed(
            "alternating_chain(64,9)",
            64,
            &graph,
            2,
            SpaceOptions::default(),
            threads,
        );
        // The point of the shape: the interior linears really do lose states.
        assert!(
            tm.states_pruned > 0,
            "expected dominated states in the chain"
        );
        assert_prune_telemetry_consistent(&tm);
    }
}

#[test]
fn pruning_reports_zero_drops_on_rich_neighbourhoods() {
    // On the transformer layer every neighbour space is rich enough to
    // distinguish the candidate states, so the pass keeps everything — and
    // must say so in the telemetry rather than silently diverge.
    let cluster = Cluster::v100_like(4);
    let graph = ModelConfig::opt_6_7b().layer_graph(8, 512);
    let (_, tm) =
        Planner::new(&cluster, &graph, PlannerOptions::default()).optimize_instrumented(4);
    assert_eq!(tm.states_pruned, 0);
}
