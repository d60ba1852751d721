//! Brute-force cross-validation of the segmented dynamic program: on a small
//! device count, exhaustively enumerate every joint assignment of partition
//! sequences over the MLP sub-chain and confirm the DP's layer table attains
//! the global optimum (validating Eqs. 11–14 end to end, not just locally).
//! The alternating-chain case is an independent oracle for dominance
//! pruning: the pruned DP must stay optimal where pruning really drops
//! states.

mod common;

use primepar_cost::{edge_cost_matrix, intra_cost, CostCtx};
use primepar_graph::{Edge, Graph, ModelConfig};
use primepar_partition::PartitionSeq;
use primepar_search::{operator_space, Planner, PlannerOptions, SpaceOptions};
use primepar_topology::Cluster;

/// Per-operator spaces (for `n_bits` device bits), per-state intra costs and
/// per-edge `((src, dst), matrix, cols)` cost tables, all from the unmemoized
/// cost-model entry points.
type CostTables = (
    Vec<Vec<PartitionSeq>>,
    Vec<Vec<f64>>,
    Vec<((usize, usize), Vec<f64>, usize)>,
);

fn cost_tables(cluster: &Cluster, graph: &Graph, n_bits: usize, opts: &SpaceOptions) -> CostTables {
    let ctx = CostCtx::new(cluster, 0.0);
    let spaces: Vec<Vec<PartitionSeq>> = graph
        .ops
        .iter()
        .map(|op| operator_space(op, n_bits, opts))
        .collect();
    let intra: Vec<Vec<f64>> = graph
        .ops
        .iter()
        .zip(&spaces)
        .map(|(op, space)| space.iter().map(|s| intra_cost(&ctx, op, s).cost).collect())
        .collect();
    let edge_costs = graph
        .edges
        .iter()
        .map(|e| {
            let m = edge_cost_matrix(
                &ctx,
                e,
                &graph.ops[e.src],
                &graph.ops[e.dst],
                &spaces[e.src],
                &spaces[e.dst],
            );
            ((e.src, e.dst), m, spaces[e.dst].len())
        })
        .collect();
    (spaces, intra, edge_costs)
}

/// Index of each plan sequence in its operator's space.
fn plan_states(spaces: &[Vec<PartitionSeq>], seqs: &[PartitionSeq]) -> Vec<usize> {
    seqs.iter()
        .enumerate()
        .map(|(i, s)| {
            spaces[i]
                .iter()
                .position(|c| c == s)
                .expect("state in space")
        })
        .collect()
}

/// The exhaustive optimum over every assignment whose two boundary states
/// are equal (the DP's steady-state layer has `seqs[first] == seqs[last]`).
fn exhaustive_optimum(
    intra: &[Vec<f64>],
    edge_costs: &[((usize, usize), Vec<f64>, usize)],
    sizes: &[usize],
) -> f64 {
    let mut best = f64::INFINITY;
    let mut states = vec![0usize; sizes.len()];
    let interior: usize = sizes[1..sizes.len() - 1].iter().product();
    for boundary in 0..sizes[0] {
        states[0] = boundary;
        *states.last_mut().expect("non-empty") = boundary;
        for mut ix in 0..interior {
            for (i, &n) in sizes[1..sizes.len() - 1].iter().enumerate() {
                states[i + 1] = ix % n;
                ix /= n;
            }
            best = best.min(assignment_cost(intra, edge_costs, &states));
        }
    }
    best
}

/// The MLP sub-chain (nodes 7..=12 of the Fig. 6 layer) as a standalone graph.
fn mlp_graph(batch: u64, seq: u64) -> Graph {
    let layer = ModelConfig::opt_6_7b().layer_graph(batch, seq);
    let ops = layer.ops[7..=12].to_vec();
    let edges: Vec<Edge> = layer
        .edges
        .iter()
        .filter(|e| e.src >= 7 && e.dst <= 12 && e.dst >= 7)
        .map(|e| {
            let mut e = e.clone();
            e.src -= 7;
            e.dst -= 7;
            e
        })
        .collect();
    Graph { ops, edges }
}

/// Evaluates one complete assignment: all intra costs plus all edge costs
/// (matching the DP's `C_{0,e}` definition, both endpoints included).
fn assignment_cost(
    intra: &[Vec<f64>],
    edge_costs: &[((usize, usize), Vec<f64>, usize)],
    states: &[usize],
) -> f64 {
    let mut total: f64 = states.iter().enumerate().map(|(i, &s)| intra[i][s]).sum();
    for ((src, dst), matrix, cols) in edge_costs {
        total += matrix[states[*src] * cols + states[*dst]];
    }
    total
}

#[test]
fn dp_matches_exhaustive_enumeration_on_two_devices() {
    let cluster = Cluster::v100_like(2);
    let graph = mlp_graph(8, 256);
    let (spaces, intra, edge_costs) = cost_tables(&cluster, &graph, 1, &SpaceOptions::default());
    let sizes: Vec<usize> = spaces.iter().map(Vec::len).collect();
    let best = exhaustive_optimum(&intra, &edge_costs, &sizes);

    let plan = Planner::new(&cluster, &graph, PlannerOptions::default()).optimize(1);
    // layer_cost is the marginal cost (boundary counted once); the exhaustive
    // sum counts both boundary endpoints, which are the same operator state —
    // so compare the full assignment cost of the plan's states instead.
    let dp_total = assignment_cost(&intra, &edge_costs, &plan_states(&spaces, &plan.seqs));
    assert!(
        dp_total <= best * 1.000001,
        "DP found {dp_total}, exhaustive optimum is {best}"
    );
    assert!(
        dp_total >= best * 0.999999,
        "DP claims {dp_total} below the true optimum {best} — accounting bug"
    );
}

#[test]
fn dp_matches_exhaustive_on_conventional_space_four_devices() {
    // Restrict to the conventional space to keep the product tractable at
    // 4 devices, and only enumerate the fc1/act/fc2 interior.
    let cluster = Cluster::v100_like(4);
    let graph = mlp_graph(8, 256);
    let opts = SpaceOptions {
        allow_temporal: false,
        ..SpaceOptions::default()
    };
    let planner_opts = PlannerOptions::default().with_space(opts).with_alpha(0.0);
    let plan = Planner::new(&cluster, &graph, planner_opts).optimize(1);
    let (spaces, intra, edge_costs) = cost_tables(&cluster, &graph, 2, &opts);
    let plan_states = plan_states(&spaces, &plan.seqs);
    let dp_total = assignment_cost(&intra, &edge_costs, &plan_states);

    // Fix the boundary states to the plan's and exhaust the interior: the DP
    // must be optimal conditioned on its boundary choice.
    let sizes: Vec<usize> = spaces.iter().map(Vec::len).collect();
    let mut states = plan_states.clone();
    let interior: usize = sizes[1..sizes.len() - 1].iter().product();
    let mut best = f64::INFINITY;
    for mut ix in 0..interior {
        for (i, &n) in sizes[1..sizes.len() - 1].iter().enumerate() {
            states[i + 1] = ix % n;
            ix /= n;
        }
        best = best.min(assignment_cost(&intra, &edge_costs, &states));
    }
    assert!(
        dp_total <= best * 1.000001,
        "DP interior not optimal: {dp_total} vs {best}"
    );
}

#[test]
fn pruned_dp_matches_exhaustive_on_an_alternating_chain() {
    // 32 devices: spaces 60/31/60/31/60, so the interior product is 57,660
    // assignments per boundary state — and the capped-batch linears carry
    // dominated states, so this checks pruning against a full enumeration
    // rather than against a snapshot.
    let cluster = Cluster::v100_like(32);
    let graph = common::alternating_chain(32, 5);
    let (spaces, intra, edge_costs) = cost_tables(&cluster, &graph, 5, &SpaceOptions::default());
    let sizes: Vec<usize> = spaces.iter().map(Vec::len).collect();
    assert_eq!(sizes, [60, 31, 60, 31, 60]);
    let best = exhaustive_optimum(&intra, &edge_costs, &sizes);

    let (plan, tm) =
        Planner::new(&cluster, &graph, PlannerOptions::default()).optimize_instrumented(1);
    assert!(tm.states_pruned > 0, "pruning must fire on this chain");
    // Tight tolerance: the states a wrongly pruned DP settles for here cost
    // under 1e-6 more, relatively, so only summation-order noise may pass.
    let dp_total = assignment_cost(&intra, &edge_costs, &plan_states(&spaces, &plan.seqs));
    assert!(
        (dp_total - best).abs() <= 1e-12 * best,
        "pruned DP found {dp_total}, exhaustive optimum is {best}"
    );
}
