//! Helpers shared by the planner suites: the seed-path fixture
//! (`golden/seed_plans.txt`), the `SpaceOptions` grid it covers, and the
//! alternating chain on which dominance pruning fires.

#![allow(dead_code)]

use primepar_graph::{Axis, Edge, Graph, OpKind, Operator};
use primepar_search::{
    render_plan, ModelPlan, Planner, PlannerMetrics, PlannerOptions, SpaceOptions,
};
use primepar_topology::Cluster;

const SEED_PLANS: &str = include_str!("../golden/seed_plans.txt");

/// Temporal on/off × batch splits on/off × temporal depth.
pub fn space_grid() -> Vec<SpaceOptions> {
    let mut grid = Vec::new();
    for allow_temporal in [true, false] {
        for allow_batch_split in [true, false] {
            for max_temporal_k in [1, 2] {
                grid.push(SpaceOptions {
                    allow_temporal,
                    allow_batch_split,
                    max_temporal_k,
                });
            }
        }
    }
    grid
}

/// A small cousin of the scaling benchmark's alternating chain (see
/// `primepar_bench::planner_scale_graph`, which cannot be imported here
/// without a dependency cycle): capped-batch linears whose forced `M`/`N`/`K`
/// bits create a dominated position-swap family, glued by poor-space
/// pointwise operators.
pub fn alternating_chain(devices: u64, nodes: usize) -> Graph {
    let ops = (0..nodes)
        .map(|i| {
            if i % 2 == 1 {
                Operator {
                    name: format!("pw{i}"),
                    kind: OpKind::Elementwise,
                    extents: [devices, 2, 1, 2],
                    axes: [
                        vec![(Axis::Batch, devices)],
                        vec![(Axis::Seq, 2)],
                        vec![],
                        vec![(Axis::Hidden, 2)],
                    ],
                }
            } else {
                Operator {
                    name: format!("lin{i}"),
                    kind: OpKind::Linear,
                    extents: [devices / 8, 2, 2, 2],
                    axes: [
                        vec![(Axis::Batch, devices / 8)],
                        vec![(Axis::Seq, 2)],
                        vec![(Axis::Hidden, 2)],
                        vec![(Axis::Hidden, 2)],
                    ],
                }
            }
        })
        .collect();
    let edges = (1..nodes).map(|i| Edge::plain(i - 1, i)).collect();
    Graph { ops, edges }
}

/// The fixture section body of the case `[header]`.
fn seed_section(header: &str) -> &'static str {
    let start = SEED_PLANS
        .find(&format!("\n[{header}]\n"))
        .unwrap_or_else(|| panic!("no seed fixture case [{header}]"));
    let body = &SEED_PLANS[start + header.len() + 4..];
    &body[..body.find("\n[").map_or(body.len(), |i| i + 1)]
}

/// Plans `graph` (named `name` in the fixture) on `devices` V100s with
/// `space` and `threads`, asserts the plan text and the `layer_cost` /
/// `total_cost` bits equal the seed path's, and returns the run's metrics.
pub fn assert_matches_seed(
    name: &str,
    devices: usize,
    graph: &Graph,
    layers: u64,
    space: SpaceOptions,
    threads: usize,
) -> PlannerMetrics {
    let header = format!(
        "{name} devices={devices} layers={layers} temporal={} batch_split={} max_temporal_k={}",
        space.allow_temporal, space.allow_batch_split, space.max_temporal_k
    );
    let cluster = Cluster::v100_like(devices);
    let opts = PlannerOptions::default()
        .with_space(space)
        .with_threads(threads);
    let (plan, tm) = Planner::new(&cluster, graph, opts).optimize_instrumented(layers);
    assert_eq!(
        render_case(graph, &plan),
        seed_section(&header),
        "diverged from the seed path on [{header}], threads {threads}"
    );
    tm
}

fn render_case(graph: &Graph, plan: &ModelPlan) -> String {
    format!(
        "layer_cost {:#018x}\ntotal_cost {:#018x}\n{}",
        plan.layer_cost.to_bits(),
        plan.total_cost.to_bits(),
        render_plan(graph, &plan.seqs)
    )
}
