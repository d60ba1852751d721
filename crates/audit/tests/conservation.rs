//! The two conservation laws of the cluster accounting, pinned across plans:
//!
//! 1. every device's `busy + idle` seconds equal the simulated makespan, and
//! 2. the simulator's per-link wire bytes sum to the plan's analytically
//!    derived communication volume, component by component.
//!
//! Both laws are checked on the ideal cluster *and* under seeded fault &
//! variance scenarios: perturbation rescales time, never invents or destroys
//! it, and moves no extra bytes, so the identities must hold for any
//! scenario.

use primepar_audit::{audit_layer, plan_comm_volume, AuditReport};
use primepar_graph::ModelConfig;
use primepar_partition::PartitionSeq;
use primepar_search::{megatron_layer_plan, Planner, PlannerOptions};
use primepar_sim::{simulate_layer, EventKind};
use primepar_topology::{Cluster, PerturbationModel};

fn plans(cluster: &Cluster, graph: &primepar_graph::Graph) -> Vec<Vec<PartitionSeq>> {
    let n = cluster.num_devices();
    vec![
        megatron_layer_plan(graph, 1, n),
        megatron_layer_plan(graph, 2, n / 2),
        Planner::new(cluster, graph, PlannerOptions::default())
            .optimize(1)
            .seqs,
    ]
}

/// The ideal cluster plus a mild and a harsh perturbed derivation of it.
fn clusters() -> Vec<Cluster> {
    let base = Cluster::v100_like(8);
    vec![
        base.perturbed(&PerturbationModel::mild(), 7),
        base.perturbed(&PerturbationModel::harsh(), 11),
        base,
    ]
}

#[test]
fn busy_plus_idle_is_the_makespan_for_every_plan() {
    let graph = ModelConfig::opt_175b().mlp_block_graph(8, 2048);
    for cluster in clusters() {
        for plan in plans(&cluster, &graph) {
            let report = simulate_layer(&cluster, &graph, &plan);
            let acct = &report.accounting;
            acct.validate().expect("busy+idle must equal makespan");
            assert_eq!(acct.devices.len(), 8);
            let tol = 1e-9 * (1.0 + report.layer_time);
            for d in &acct.devices {
                // The SPMD walk never idles: every device is on the critical path.
                assert!(d.idle_seconds.abs() <= tol);
                assert!((d.busy_seconds() - report.layer_time).abs() <= tol);
            }
            assert!((acct.makespan - report.layer_time).abs() <= tol);
        }
    }
}

#[test]
fn link_bytes_sum_to_the_plan_volume_per_component() {
    let graph = ModelConfig::opt_175b().mlp_block_graph(8, 2048);
    for cluster in clusters() {
        for plan in plans(&cluster, &graph) {
            let report = simulate_layer(&cluster, &graph, &plan);
            let acct = &report.accounting;
            let volume = plan_comm_volume(&cluster, &graph, &plan);
            let tol = 1e-6 * (1.0 + volume.total());
            assert!(
                (acct.wire_bytes_of(EventKind::Ring) - volume.ring_bytes).abs() <= tol,
                "ring: sim {} vs plan {}",
                acct.wire_bytes_of(EventKind::Ring),
                volume.ring_bytes
            );
            assert!(
                (acct.wire_bytes_of(EventKind::AllReduce) - volume.collective_bytes).abs() <= tol,
                "allreduce: sim {} vs plan {}",
                acct.wire_bytes_of(EventKind::AllReduce),
                volume.collective_bytes
            );
            assert!(
                (acct.wire_bytes_of(EventKind::Redistribution) - volume.redistribution_bytes).abs()
                    <= tol,
                "redistribution: sim {} vs plan {}",
                acct.wire_bytes_of(EventKind::Redistribution),
                volume.redistribution_bytes
            );
            assert!((acct.total_wire_bytes() - volume.total()).abs() <= tol);
            // Something must actually move under tensor parallelism.
            assert!(volume.total() > 0.0, "plan moved no bytes at all");
        }
    }
}

#[test]
fn memory_timeline_peak_matches_the_report() {
    let graph = ModelConfig::opt_175b().mlp_block_graph(8, 2048);
    for cluster in clusters() {
        for plan in plans(&cluster, &graph) {
            let report = simulate_layer(&cluster, &graph, &plan);
            let acct = &report.accounting;
            assert!(!acct.memory_timeline.is_empty());
            assert_eq!(acct.peak_memory_bytes(), report.peak_memory_bytes);
            // Samples are chronological.
            for w in acct.memory_timeline.windows(2) {
                assert!(w[1].time_s >= w[0].time_s - 1e-12);
            }
        }
    }
}

/// Asserts the drift gate on one audit: every time row and the layer time
/// agree with the simulator to float tolerance, and the `peak_memory` bound
/// holds. Returns how many redistribution rows actually moved bytes.
fn assert_no_drift(audit: &AuditReport, what: &str) -> usize {
    for r in &audit.rows {
        if r.component == "peak_memory" {
            assert!(
                r.simulated <= r.predicted,
                "{what}: simulated peak {} above the bound {}",
                r.simulated,
                r.predicted
            );
        } else {
            assert!(
                r.rel_drift().abs() < 1e-9,
                "{what}: {}.{} predicted {} vs simulated {}",
                r.label,
                r.component,
                r.predicted,
                r.simulated
            );
        }
    }
    assert!(
        audit.layer_rel_drift().abs() < 1e-9,
        "{what}: layer predicted {} vs simulated {}",
        audit.predicted_layer_time,
        audit.simulated_layer_time
    );
    audit
        .rows
        .iter()
        .filter(|r| r.component == "redistribution" && r.simulated > 0.0)
        .count()
}

/// Regression for the redistribution latency double-charge: the simulator
/// once paid each direction of an edge its own latency term while the
/// planner charged one exchange, and a separate `corrected` audit column
/// priced that gap. The simulator now executes the planner's one-exchange
/// charge, so the plain predicted column is the corrected one: on the Fig. 9
/// block, across ideal and perturbed clusters, every travelled edge (and
/// every other time row) shows zero drift.
#[test]
fn corrected_redistribution_column_eliminates_the_double_charge_drift() {
    let graph = ModelConfig::opt_175b().mlp_block_graph(8, 2048);
    for cluster in clusters() {
        for plan in plans(&cluster, &graph) {
            let audit = audit_layer(&cluster, &graph, &plan, 0.0);
            let travelled = assert_no_drift(&audit, "fig9");
            assert!(travelled > 0, "fixture should exercise redistribution");
        }
    }
}

/// The same drift gate beyond the Fig. 9 block: the Table-2 layer, and a
/// stacked 4-layer graph whose operator names repeat.
#[test]
fn every_time_row_and_the_layer_time_match_the_simulator() {
    let table2 = Cluster::v100_like(16);
    let layer = ModelConfig::opt_6_7b().layer_graph(8, 2048);
    for plan in plans(&table2, &layer) {
        assert_no_drift(&audit_layer(&table2, &layer, &plan, 0.0), "table2");
    }

    let stacked = layer.stack(4);
    for plan in plans(&table2, &stacked) {
        let audit = audit_layer(&table2, &stacked, &plan, 0.0);
        assert_no_drift(&audit, "stacked");
        // Each operator name is one row per component, however many
        // copies of it the stack holds.
        let single_rows = audit_layer(&table2, &layer, &plan[..layer.ops.len()], 0.0)
            .rows
            .iter()
            .filter(|r| r.component != "redistribution")
            .count();
        let stacked_rows = audit
            .rows
            .iter()
            .filter(|r| r.component != "redistribution")
            .count();
        assert_eq!(stacked_rows, single_rows);
    }
}

#[test]
fn perturbation_dilates_time_but_conserves_bytes() {
    let base = Cluster::v100_like(8);
    let perturbed = base.perturbed(&PerturbationModel::harsh(), 42);
    let graph = ModelConfig::opt_175b().mlp_block_graph(8, 2048);
    for plan in plans(&base, &graph) {
        let ideal = simulate_layer(&base, &graph, &plan);
        let hurt = simulate_layer(&perturbed, &graph, &plan);
        assert!(
            hurt.layer_time >= ideal.layer_time,
            "a slowdown-only scenario cannot speed the plan up"
        );
        // The same plan moves the same bytes regardless of the scenario.
        let tol = 1e-6 * (1.0 + ideal.accounting.total_wire_bytes());
        assert!(
            (hurt.accounting.total_wire_bytes() - ideal.accounting.total_wire_bytes()).abs() <= tol,
            "perturbation must not change wire-byte volume"
        );
    }
}
