//! `plan-zoo16`: one operation is a fresh `Planner::optimize` →
//! `simulate_model` → `render_plan`, in process, with
//! `PlannerOptions::default()`, for one of the paper's six zoo models on 16
//! devices, batch 8, seq 2048, full depth.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use primepar::graph::{Graph, ModelConfig};
use primepar::obs::peak_rss_bytes;
use primepar::search::{
    best_megatron, evaluate_layer_plan, render_plan, ModelPlan, Planner, PlannerMetrics,
    PlannerOptions,
};
use primepar::sim::simulate_model;
use primepar::topology::Cluster;

use crate::{costs_agree, median, Args, Outcome, Rng, SETUP_REPEATS};

/// One plan key: a layer graph on a cluster, stacked `layers` times.
struct Job {
    name: String,
    graph: Graph,
    layers: u64,
    tokens: f64,
}

struct Workload {
    cluster: Cluster,
    jobs: Vec<Job>,
}

fn build() -> Workload {
    Workload {
        cluster: Cluster::v100_like(16),
        jobs: ModelConfig::all()
            .into_iter()
            .map(|m| Job {
                name: m.name.to_string(),
                graph: m.layer_graph(8, 2048),
                layers: m.layers,
                tokens: 8.0 * 2048.0,
            })
            .collect(),
    }
}

/// One timed operation and what the traced pass needs from it.
struct Op {
    /// Index of the job planned.
    job: usize,
    plan: ModelPlan,
    text: String,
    iteration_s: f64,
    total_s: f64,
    optimize_s: f64,
    simulate_s: f64,
    render_s: f64,
    metrics: Option<PlannerMetrics>,
}

fn run_op(w: &Workload, index: usize, traced: bool) -> Op {
    let job = &w.jobs[index];
    let planner = Planner::new(&w.cluster, &job.graph, PlannerOptions::default());
    let start = Instant::now();
    let (plan, metrics) = if traced {
        let (plan, metrics) = planner.optimize_instrumented(job.layers);
        (plan, Some(metrics))
    } else {
        (planner.optimize(job.layers), None)
    };
    let optimized = Instant::now();
    let report = simulate_model(&w.cluster, &job.graph, &plan.seqs, job.layers, job.tokens);
    let simulated = Instant::now();
    let text = render_plan(&job.graph, &plan.seqs);
    let rendered = Instant::now();
    black_box(&text);
    Op {
        job: index,
        iteration_s: report.iteration_time,
        total_s: (rendered - start).as_secs_f64(),
        optimize_s: (optimized - start).as_secs_f64(),
        simulate_s: (simulated - optimized).as_secs_f64(),
        render_s: (rendered - simulated).as_secs_f64(),
        plan,
        text,
        metrics,
    }
}

/// The correctness gates every operation passes, checked outside the timed
/// region.
struct Gates {
    /// Per job: the best Megatron configuration's cost.
    megatron: Vec<f64>,
    /// Per job: the first plan's text and `total_cost` bits.
    first: HashMap<usize, (String, u64)>,
}

impl Gates {
    fn new(w: &Workload) -> Self {
        let megatron = w
            .jobs
            .iter()
            .map(|job| best_megatron(&w.cluster, &job.graph, 0.0).2)
            .collect();
        Gates {
            megatron,
            first: HashMap::new(),
        }
    }

    fn check(&mut self, w: &Workload, op: &Op, out: &mut Outcome) {
        let index = op.job;
        let job = &w.jobs[index];
        out.checked += 1;
        let evaluated = evaluate_layer_plan(&w.cluster, &job.graph, &op.plan.seqs, 0.0);
        if !costs_agree(op.plan.layer_cost, evaluated) {
            out.fail(format!(
                "{}: layer_cost {} but the evaluator gives {evaluated}",
                job.name, op.plan.layer_cost
            ));
            return;
        }
        let megatron = self.megatron[index];
        if evaluated > megatron {
            out.fail(format!(
                "{}: plan costs {evaluated}, more than Megatron's {megatron}",
                job.name
            ));
            return;
        }
        if !(op.iteration_s.is_finite() && op.iteration_s > 0.0) {
            out.fail(format!(
                "{}: simulated iteration {}",
                job.name, op.iteration_s
            ));
            return;
        }
        let bits = op.plan.total_cost.to_bits();
        let (text, first_bits) = self
            .first
            .entry(index)
            .or_insert_with(|| (op.text.clone(), bits));
        if *text != op.text || *first_bits != bits {
            out.fail(format!(
                "{}: plan differs from the run's first plan",
                job.name
            ));
        }
    }
}

/// The seeded job order: back-to-back shuffles of every job, so each run
/// plans every key about equally often.
fn job_order(jobs: usize, seed: u64) -> impl Iterator<Item = usize> {
    let mut rng = Rng::new(seed);
    std::iter::repeat_with(move || {
        let mut cycle: Vec<usize> = (0..jobs).collect();
        rng.shuffle(&mut cycle);
        cycle
    })
    .flatten()
}

/// One timed pass: operations back to back until the window closes.
fn pass(
    w: &Workload,
    gates: &mut Gates,
    args: &Args,
    window: Duration,
    traced: bool,
    out: &mut Outcome,
) -> Vec<Op> {
    let start = Instant::now();
    let mut ops = Vec::new();
    for index in job_order(w.jobs.len(), args.seed) {
        if !ops.is_empty() && start.elapsed() >= window {
            break;
        }
        let op = run_op(w, index, traced);
        out.attempted += 1;
        gates.check(w, &op, out);
        ops.push(op);
    }
    ops
}

/// `1 / mean operation time`: operations completed per busy second.
fn ops_per_s(ops: &[Op]) -> f64 {
    ops.len() as f64 / ops.iter().map(|op| op.total_s).sum::<f64>()
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    // Set-up: build graphs and cluster, then one warm-up plan.
    let repeats = if args.trace { 1 } else { SETUP_REPEATS };
    let mut setups = Vec::new();
    let mut workload = None;
    for _ in 0..repeats {
        let start = Instant::now();
        let w = build();
        black_box(run_op(&w, 0, false));
        setups.push(start.elapsed().as_secs_f64());
        workload = Some(w);
    }
    let w = workload.expect("at least one set-up");
    let mut gates = Gates::new(&w);

    let window = if args.trace {
        args.window / 2
    } else {
        args.window
    };
    let untraced = pass(&w, &mut gates, args, window, false, &mut out);
    if !args.trace {
        // Each key's fastest plan in the window: the host's bursts of
        // interference slow some plans several-fold, never speed one up.
        let best: Vec<f64> = (0..w.jobs.len())
            .map(|job| {
                untraced
                    .iter()
                    .filter(|op| op.job == job)
                    .map(|op| op.total_s)
                    .fold(f64::INFINITY, f64::min)
            })
            .filter(|t| t.is_finite())
            .collect();
        out.metrics
            .insert("plan_ms", primepar_bench::geomean(&best) * 1e3);
        out.metrics
            .insert("ops_per_s", best.len() as f64 / best.iter().sum::<f64>());
        out.metrics
            .insert("peak_rss_mb", peak_rss_bytes() as f64 / 1e6);
        out.metrics.insert("setup_s", median(&setups));
        return out;
    }
    let traced = pass(&w, &mut gates, args, window, true, &mut out);
    out.metrics.insert(
        "obs.tracing_overhead_ratio",
        ops_per_s(&untraced) / ops_per_s(&traced),
    );
    record_layers(&w, &traced, &mut out);
    out
}

/// Per-layer metrics of the traced pass. Times are medians over operations;
/// counts are means over the workload's distinct keys, so they repeat
/// exactly from seed to seed.
fn record_layers(w: &Workload, ops: &[Op], out: &mut Outcome) {
    let metrics: Vec<&PlannerMetrics> = ops
        .iter()
        .map(|op| op.metrics.as_ref().expect("traced operation"))
        .collect();
    let ms = |f: &dyn Fn(&PlannerMetrics) -> f64| {
        median(&metrics.iter().map(|m| f(m) * 1e3).collect::<Vec<_>>())
    };
    let m = &mut out.metrics;
    m.insert(
        "search.optimize_ms",
        median(&ops.iter().map(|op| op.optimize_s * 1e3).collect::<Vec<_>>()),
    );
    m.insert("search.stage_sum_ms", ms(&|p| stage_sum(p)));
    m.insert("search.spaces_intra_ms", ms(&|p| p.spaces_intra_seconds));
    m.insert("search.edge_matrices_ms", ms(&|p| p.edge_matrices_seconds));
    m.insert("search.prune_ms", ms(&|p| p.prune_seconds));
    m.insert("search.segment_dp_ms", ms(&|p| p.segment_dp_seconds));
    m.insert("search.merge_ms", ms(&|p| p.merge_seconds));
    m.insert("search.compose_ms", ms(&|p| p.compose_seconds));
    m.insert(
        "search.render_ms",
        median(&ops.iter().map(|op| op.render_s * 1e3).collect::<Vec<_>>()),
    );
    m.insert(
        "sim.simulate_ms",
        median(&ops.iter().map(|op| op.simulate_s * 1e3).collect::<Vec<_>>()),
    );

    // One representative per distinct key (plans are deterministic).
    let distinct: Vec<&Op> = (0..w.jobs.len())
        .filter_map(|job| ops.iter().find(|op| op.job == job))
        .collect();
    let keys: Vec<&PlannerMetrics> = distinct
        .iter()
        .map(|op| op.metrics.as_ref().expect("traced operation"))
        .collect();
    let mean = |f: &dyn Fn(&PlannerMetrics) -> f64| {
        keys.iter().map(|p| f(p)).sum::<f64>() / keys.len() as f64
    };
    m.insert("search.bellman_relaxations", mean(&|p| bellman(p) as f64));
    m.insert(
        "search.merge_relaxations",
        mean(&|p| p.merge_relaxations as f64),
    );
    m.insert("search.states_pruned", mean(&|p| p.states_pruned as f64));
    m.insert(
        "search.space_states",
        mean(&|p| p.space_sizes.iter().sum::<usize>() as f64),
    );
    m.insert(
        "cost.edge_evaluations",
        mean(&|p| p.edge_evaluations as f64),
    );
    m.insert(
        "cost.intra_evaluations",
        mean(&|p| p.intra_evaluations as f64),
    );
    let ratio = |hits: u64, misses: u64| hits as f64 / (hits + misses).max(1) as f64;
    m.insert(
        "cost.edge_matrix_cache_hit_ratio",
        ratio(
            keys.iter().map(|p| p.edge_matrix_cache_hits).sum(),
            keys.iter().map(|p| p.edge_matrix_cache_misses).sum(),
        ),
    );
    m.insert(
        "cost.profile_cache_hit_ratio",
        ratio(
            keys.iter().map(|p| p.profile_cache_hits).sum(),
            keys.iter().map(|p| p.profile_cache_misses).sum(),
        ),
    );
    // Edge-matrix wall time per evaluated cell, over every traced operation.
    let edge_s: f64 = metrics.iter().map(|p| p.edge_matrices_seconds).sum();
    let cells: u64 = metrics.iter().map(|p| p.edge_evaluations).sum();
    m.insert("cost.edge_ns_per_cell", edge_s * 1e9 / cells.max(1) as f64);
    let iterations: Vec<f64> = distinct.iter().map(|op| op.iteration_s * 1e3).collect();
    m.insert("sim.iteration_ms", primepar_bench::geomean(&iterations));
}

/// Sum of the planner's own stage timers.
fn stage_sum(p: &PlannerMetrics) -> f64 {
    p.spaces_intra_seconds
        + p.beam_seconds
        + p.prune_seconds
        + p.edge_matrices_seconds
        + p.segment_dp_seconds
        + p.merge_seconds
        + p.compose_seconds
}

/// Bellman relaxations over every segment sweep.
fn bellman(p: &PlannerMetrics) -> u64 {
    p.segments.iter().map(|s| s.bellman_relaxations).sum()
}
