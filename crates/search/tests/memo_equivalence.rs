//! The planner has one path — structural memoization, dominance pruning and
//! the lane-tiled min-plus kernels — and it must reproduce the removed seed
//! path (per-node spaces, per-edge matrices, scalar min-plus, no pruning)
//! *bitwise*: `seqs`, `layer_cost` and `total_cost` agree to the last bit
//! with `golden/seed_plans.txt` across the full `SpaceOptions` grid, on a
//! second model, and for the serial and the multi-threaded planner.

mod common;

use common::{assert_matches_seed, space_grid};
use primepar_graph::ModelConfig;
use primepar_search::SpaceOptions;

#[test]
fn memoized_planner_is_bitwise_identical_across_the_option_grid() {
    let graph = ModelConfig::opt_6_7b().layer_graph(8, 512);
    for space in space_grid() {
        assert_matches_seed("opt-6.7b(8,512)", 4, &graph, 4, space, 1);
    }
}

#[test]
fn memoized_planner_is_bitwise_identical_with_threads() {
    let graph = ModelConfig::opt_6_7b().layer_graph(8, 512);
    for space in [
        SpaceOptions::default(),
        SpaceOptions {
            allow_temporal: false,
            ..SpaceOptions::default()
        },
    ] {
        for threads in [0, 4] {
            assert_matches_seed("opt-6.7b(8,512)", 8, &graph, 4, space, threads);
        }
    }
}

#[test]
fn memoized_planner_is_bitwise_identical_on_a_second_model() {
    // A different layer shape (LLaMA's SwiGLU widths) exercises other
    // signature/extent combinations through the same caches.
    let graph = ModelConfig::llama2_7b().layer_graph(8, 512);
    assert_matches_seed("llama2-7b(8,512)", 8, &graph, 2, SpaceOptions::default(), 1);
}

#[test]
fn memoization_reduces_cost_model_work() {
    // The counters behind the speedup, pinned exactly: one Eq. 7 vector per
    // unique signature and one Eq. 8-9 matrix per unique (signature pair,
    // edge) key, with the structural caches reporting real hits. The seed
    // path made 512 intra and 22,788 edge evaluations on this point.
    let graph = ModelConfig::opt_6_7b().layer_graph(8, 512);
    let tm = assert_matches_seed("opt-6.7b(8,512)", 8, &graph, 4, SpaceOptions::default(), 0);
    // 13 ops share 10 signatures; 3 intra vectors come for free.
    assert_eq!(tm.unique_signatures, 10);
    assert_eq!(tm.space_cache_misses, 10);
    assert_eq!(tm.space_cache_hits, 3);
    assert_eq!(tm.intra_evaluations, 431);
    assert_eq!(tm.edge_evaluations, 21_330);
    assert_eq!(tm.profile_cache_hits, 8);
    assert_eq!(tm.profile_cache_misses, 48);
    assert_eq!(tm.edge_matrix_cache_hits, 2);
    assert_eq!(tm.edge_matrix_cache_misses, 14);
}
