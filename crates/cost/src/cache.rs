//! Structural memoization of the inter-operator cost model (Eqs. 8–9).
//!
//! [`edge_cost_matrix`](crate::edge_cost_matrix) rebuilds each endpoint's
//! boundary profiles from scratch per edge and evaluates every `(row, col)`
//! cell as a per-device product of eight axis-interval intersections. Both
//! are heavily redundant on a real transformer graph:
//!
//! * structurally identical operators (equal [`OpSignature`]s) produce the
//!   *same* profile vectors, so one build per unique `(signature, tensor
//!   role)` suffices — the [`EdgeCostCache`] interns them;
//! * within one side's profile vector, most per-device holdings repeat (a
//!   coarse split leaves many devices with identical slices), so the dense
//!   intervals are deduplicated and each cell becomes a handful of table
//!   lookups instead of axis-interval products — see [`PreparedEdge::matrix`];
//! * whole matrices repeat across edges whose endpoints share signatures and
//!   edge parameters (the residual adds, the stacked-layer boundary), keyed
//!   by [`MatrixKey`].
//!
//! Everything here is *bitwise-identical* to the direct path: deduplication
//! only reuses values that would have been recomputed from identical inputs,
//! and every floating-point accumulation keeps the original operation order
//! (ascending device order, `(v − overlap).max(0)` per device).
//!
//! [`OpSignature`]: primepar_graph::OpSignature

use std::collections::HashMap;
use std::sync::Arc;

use primepar_graph::{Axis, Edge, Operator};
use primepar_partition::{PartitionSeq, Phase, TensorKind};
use primepar_topology::DeviceSpace;

use crate::inter::{profile_dedup_into, side_dims, ShapeMemo, Side};
use crate::{CostCtx, DenseIntervals};

/// Hit/miss telemetry of an [`EdgeCostCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Side-profile vectors served from the cache.
    pub profile_hits: u64,
    /// Side-profile vectors built from scratch.
    pub profile_misses: u64,
    /// Whole edge matrices reused via [`MatrixKey`] equality.
    pub matrix_hits: u64,
    /// Whole edge matrices actually computed.
    pub matrix_misses: u64,
}

/// Interning key of one side's profile vector: the operator signature id,
/// the tensor role and DSI phase/side, and the edge parameters that shape
/// the holdings. Valid within one planner run (fixed device count and
/// partition-space options).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct ProfileKey {
    sig: usize,
    kind: TensorKind,
    phase: Phase,
    side: Side,
    renames: Vec<(Axis, Axis)>,
    /// Selector endpoints as IEEE-754 bits (`f64` is not `Hash`).
    selector: Option<(u64, u64)>,
}

/// Identity of a whole edge-cost matrix: `(left signature, right signature,
/// tensor kind)` plus the edge's selector/rename parameters. Two edges with
/// equal keys have bitwise-identical matrices (given one shared
/// partition-space enumeration per signature).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MatrixKey {
    src_sig: usize,
    dst_sig: usize,
    dst_kind: TensorKind,
    renames: Vec<(Axis, Axis)>,
    selector: Option<(u64, u64)>,
}

impl MatrixKey {
    /// The key of `edge` between operators with the given signature ids.
    pub fn new(edge: &Edge, src_sig: usize, dst_sig: usize) -> Self {
        MatrixKey {
            src_sig,
            dst_sig,
            dst_kind: edge.dst_kind,
            renames: edge.renames.clone(),
            selector: selector_bits(edge.selector),
        }
    }
}

fn selector_bits(selector: Option<(f64, f64)>) -> Option<(u64, u64)> {
    selector.map(|(a, b)| (a.to_bits(), b.to_bits()))
}

/// Dense first-seen matrix-job ids per edge: `ids[e] == ids[f]` exactly when
/// the two edges' [`MatrixKey`]s are equal. Building a `MatrixKey` per edge
/// clones the rename list and hashes it on every dedup lookup; this instead
/// interns the edge parameters `(dst_kind, renames, selector)` once by a
/// linear scan (edge lists are short) and dedups the remaining `Copy` tuple
/// `(src_sig, dst_sig, param_id)` the same way — no hashing, no clones.
pub fn matrix_job_ids(edges: &[Edge], sig_ids: &[usize]) -> Vec<usize> {
    type EdgeParams<'a> = (TensorKind, &'a [(Axis, Axis)], Option<(u64, u64)>);
    let mut params: Vec<EdgeParams> = Vec::new();
    let mut jobs: Vec<(usize, usize, usize)> = Vec::new();
    edges
        .iter()
        .map(|edge| {
            let sel = selector_bits(edge.selector);
            let p = (edge.dst_kind, edge.renames.as_slice(), sel);
            let param_id = params.iter().position(|&q| q == p).unwrap_or_else(|| {
                params.push(p);
                params.len() - 1
            });
            let job = (sig_ids[edge.src], sig_ids[edge.dst], param_id);
            jobs.iter().position(|&j| j == job).unwrap_or_else(|| {
                jobs.push(job);
                jobs.len() - 1
            })
        })
        .collect()
}

/// One side's boundary profiles over a whole partition-space vector, with
/// per-device holdings deduplicated: `ids[seq * devices + d]` indexes into
/// `uniques`, the distinct dense interval sets observed on this side.
#[derive(Debug, Clone)]
pub struct SideProfiles {
    /// Per-sequence block volume fraction (the `V` of Eq. 9, as a fraction).
    volume_fraction: Vec<f64>,
    /// Distinct per-device holdings, in first-seen order.
    uniques: Vec<DenseIntervals>,
    /// `[seq][device]` (row-major) indices into `uniques`.
    ids: Vec<u32>,
    devices: usize,
}

impl SideProfiles {
    /// Builds and deduplicates the holdings of every sequence on one side.
    ///
    /// `base` is an already-built profile vector over the *same* operator,
    /// sequence list, dimension family, renames and selector (the caller
    /// guarantees this — in practice the forward twin of a backward side).
    /// Sequences without temporal primitives have phase- and step-invariant
    /// DSIs, so their rows are copied from `base` instead of rebuilt; only
    /// temporal sequences are profiled from scratch.
    #[allow(clippy::too_many_arguments)]
    fn build(
        op: &Operator,
        seqs: &[PartitionSeq],
        space: DeviceSpace,
        kind: TensorKind,
        phase: Phase,
        side: Side,
        renames: &[(Axis, Axis)],
        selector: Option<(f64, f64)>,
        base: Option<&SideProfiles>,
    ) -> Self {
        let devices = space.devices().count();
        let mut volume_fraction = Vec::with_capacity(seqs.len());
        let mut uniques: Vec<DenseIntervals> = Vec::new();
        let mut ids = Vec::with_capacity(seqs.len() * devices);
        let mut by_bits: HashMap<[u64; 2 * Axis::COUNT], u32> = HashMap::new();
        // base unique id → this build's unique id, filled on demand.
        let mut translate = vec![u32::MAX; base.map_or(0, |b| b.uniques.len())];
        let mut memo = ShapeMemo::new();
        for (i, seq) in seqs.iter().enumerate() {
            if let Some(b) = base.filter(|_| seq.temporal_steps() == 1) {
                volume_fraction.push(b.volume_fraction[i]);
                for d in 0..devices {
                    let g = b.ids[i * devices + d] as usize;
                    if translate[g] == u32::MAX {
                        let dense = b.uniques[g];
                        translate[g] = *by_bits.entry(dense_bits(&dense)).or_insert_with(|| {
                            uniques.push(dense);
                            (uniques.len() - 1) as u32
                        });
                    }
                    ids.push(translate[g]);
                }
                continue;
            }
            // `profile_dedup_into` computes each distinct DSI-tuple holding
            // once per slice shape across the whole sequence list; only
            // those few are densified, hashed and interned here.
            let vf = profile_dedup_into(
                op,
                seq,
                space,
                kind,
                phase,
                side,
                renames,
                selector,
                &mut memo,
                &mut |holding| {
                    let dense = holding.to_dense();
                    *by_bits.entry(dense_bits(&dense)).or_insert_with(|| {
                        uniques.push(dense);
                        (uniques.len() - 1) as u32
                    })
                },
                &mut ids,
            );
            volume_fraction.push(vf);
        }
        SideProfiles {
            volume_fraction,
            uniques,
            ids,
            devices,
        }
    }

    /// Number of sequences profiled.
    pub fn len(&self) -> usize {
        self.volume_fraction.len()
    }

    /// `true` for an empty profile vector.
    pub fn is_empty(&self) -> bool {
        self.volume_fraction.is_empty()
    }

    /// Number of distinct per-device holdings (vs `len() × devices` built).
    pub fn unique_holdings(&self) -> usize {
        self.uniques.len()
    }

    /// The distinct holdings observed at device `d`, in ascending global-id
    /// order — canonical, so devices observing the same unique *set* produce
    /// identical `(locals, table)` blocks no matter in which sequence order
    /// they first saw each holding. On return `scratch.rank_of[g]` maps each
    /// returned global id to its rank in the list; `scratch` is reusable
    /// across devices without reallocation.
    fn locals_at(&self, d: usize, scratch: &mut RankScratch) -> Vec<u32> {
        let mut locals = Vec::new();
        for s in 0..self.len() {
            let g = self.ids[s * self.devices + d];
            if !scratch.seen[g as usize] {
                scratch.seen[g as usize] = true;
                locals.push(g);
            }
        }
        locals.sort_unstable();
        for (r, &g) in locals.iter().enumerate() {
            scratch.rank_of[g as usize] = r as u32;
            scratch.seen[g as usize] = false;
        }
        locals
    }
}

/// Reusable per-side scratch for [`SideProfiles::locals_at`] — sized to the
/// side's unique count, cleared incrementally so building one direction
/// table touches each buffer once per *observed* holding, not once per
/// unique per device.
struct RankScratch {
    seen: Vec<bool>,
    rank_of: Vec<u32>,
}

impl RankScratch {
    fn for_side(side: &SideProfiles) -> Self {
        RankScratch {
            seen: vec![false; side.uniques.len()],
            rank_of: vec![u32::MAX; side.uniques.len()],
        }
    }
}

/// Exact bit pattern of a dense interval set, for hashing.
fn dense_bits(d: &DenseIntervals) -> [u64; 2 * Axis::COUNT] {
    let mut bits = [0u64; 2 * Axis::COUNT];
    for (i, (lo, hi)) in d.0.iter().enumerate() {
        bits[2 * i] = lo.to_bits();
        bits[2 * i + 1] = hi.to_bits();
    }
    bits
}

/// One edge's precomputed cell-pricing state — `Send + Sync`, so unique
/// matrices compute on worker threads against one shared [`CostCtx`].
#[derive(Debug, Clone)]
pub struct PreparedEdge {
    /// Forward direction: consumer needs vs producer holds.
    fwd: Arc<DirectionTables>,
    /// Backward direction: gradient needs vs gradient holds.
    bwd: Arc<DirectionTables>,
    /// Per-column needed volume (`V` of Eq. 9, elements) — forward.
    vc: Vec<f64>,
    /// Per-row needed volume — backward.
    vg: Vec<f64>,
    devices: usize,
    /// `|src_seqs|` — the matrix row count.
    pub rows: usize,
    /// `|dst_seqs|` — the matrix column count.
    pub cols: usize,
    /// Structural identity of the matrix this job computes.
    key: MatrixKey,
}

impl PreparedEdge {
    /// The structural [`MatrixKey`] this prepared job computes the matrix
    /// for. Keys are graph-order-relative (they embed first-seen signature
    /// ids), so they identify matrices across planner runs over graphs with
    /// the same ordered signature list — the handle cross-request warm
    /// caches index by.
    pub fn key(&self) -> &MatrixKey {
        &self.key
    }
    /// Computes the dense `rows × cols` edge-cost matrix, bitwise-identical
    /// to [`edge_cost_matrix`](crate::edge_cost_matrix) on the same inputs.
    ///
    /// The sweep writes each cell exactly once, accumulating both directions
    /// over devices ascending (the direct path's order) from the prepared
    /// overlap tables — a single pass over the output instead of one
    /// read-modify-write pass per device and direction.
    pub fn matrix(&self, ctx: &CostCtx<'_>) -> Vec<f64> {
        let (rows, cols, d) = (self.rows, self.cols, self.devices);
        ctx.note_inter_evals((rows * cols) as u64);
        let (fwd, bwd) = (&*self.fwd, &*self.bwd);
        let mut out = vec![0.0; rows * cols];
        for (i, out_row) in out.chunks_mut(cols).enumerate() {
            let f_hold = &fwd.hold_rank[i * d..(i + 1) * d];
            let b_pre = &bwd.need_pre[i * d..(i + 1) * d];
            let vgi = self.vg[i];
            for (j, slot) in out_row.iter_mut().enumerate() {
                let f_pre = &fwd.need_pre[j * d..(j + 1) * d];
                let b_hold = &bwd.hold_rank[j * d..(j + 1) * d];
                let vcj = self.vc[j];
                let mut f = 0.0;
                let mut b = 0.0;
                for k in 0..d {
                    f += (vcj - fwd.table[(f_pre[k] + f_hold[k]) as usize]).max(0.0);
                    b += (vgi - bwd.table[(b_pre[k] + b_hold[k]) as usize]).max(0.0);
                }
                *slot = ctx.redistribution_time(4.0 * (f + b));
            }
        }
        out
    }
}

/// One direction's lookup state: the per-device `total · overlap(need,
/// hold)` tables flattened into one array, plus per-sequence per-device
/// precomputed indices into it. `need_pre[s · devices + d]` carries the
/// device's table base *and* the need rank row offset, so a cell's product
/// is `table[need_pre + hold_rank]`.
#[derive(Debug)]
struct DirectionTables {
    table: Vec<f64>,
    need_pre: Vec<u32>,
    hold_rank: Vec<u32>,
}

impl DirectionTables {
    fn build(total_elems: f64, needs: &SideProfiles, holds: &SideProfiles) -> Self {
        let devices = needs.devices;
        let mut table = Vec::new();
        let mut need_pre = vec![0u32; needs.len() * devices];
        let mut hold_rank = vec![0u32; holds.len() * devices];
        let mut need_scratch = RankScratch::for_side(needs);
        let mut hold_scratch = RankScratch::for_side(holds);
        // The device's hold intervals, struct-of-arrays: `lo[axis][h]`.
        let mut lo: [Vec<f64>; Axis::COUNT] = Default::default();
        let mut hi: [Vec<f64>; Axis::COUNT] = Default::default();
        let mut fraction = Vec::new();
        for d in 0..devices {
            let need_locals = needs.locals_at(d, &mut need_scratch);
            let hold_locals = holds.locals_at(d, &mut hold_scratch);
            for axis in 0..Axis::COUNT {
                lo[axis].clear();
                hi[axis].clear();
                for &hg in &hold_locals {
                    let (l, h) = holds.uniques[hg as usize].0[axis];
                    lo[axis].push(l);
                    hi[axis].push(h);
                }
            }
            // One `total · overlap(need, hold)` row per local need. Each
            // cell multiplies its per-axis overlaps in axis order with the
            // operands of `need.overlap_fraction(hold)`, so the table is
            // bitwise what the direct path computes.
            let base = table.len();
            let nh = hold_locals.len();
            for &ng in &need_locals {
                let need = &needs.uniques[ng as usize].0;
                fraction.clear();
                fraction.resize(nh, 1.0);
                for (axis, &(n_lo, n_hi)) in need.iter().enumerate() {
                    for ((f, &h_lo), &h_hi) in fraction.iter_mut().zip(&lo[axis]).zip(&hi[axis]) {
                        *f *= (n_hi.min(h_hi) - n_lo.max(h_lo)).max(0.0);
                    }
                }
                table.extend(fraction.iter().map(|f| total_elems * f));
            }
            for s in 0..needs.len() {
                let nr = need_scratch.rank_of[needs.ids[s * devices + d] as usize] as usize;
                need_pre[s * devices + d] = (base + nr * nh) as u32;
            }
            for s in 0..holds.len() {
                hold_rank[s * devices + d] =
                    hold_scratch.rank_of[holds.ids[s * devices + d] as usize];
            }
        }
        DirectionTables {
            table,
            need_pre,
            hold_rank,
        }
    }
}

/// Interning cache of side profiles and whole edge matrices, keyed by
/// operator signature ids. One cache serves one planner run (the keys assume
/// a fixed device count and one shared space enumeration per signature).
#[derive(Debug, Default)]
pub struct EdgeCostCache {
    profiles: HashMap<ProfileKey, Arc<SideProfiles>>,
    /// Direction tables keyed by the interned profile pair's identity plus
    /// the edge's element count — profile interning makes `Arc` pointer
    /// equality equivalent to [`ProfileKey`] equality within one cache.
    tables: HashMap<(usize, usize, u64), Arc<DirectionTables>>,
    stats: CacheStats,
}

impl EdgeCostCache {
    /// An empty cache.
    pub fn new() -> Self {
        EdgeCostCache::default()
    }

    /// Hit/miss counters accumulated so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Records a whole-matrix reuse (`hit`) or computation (miss) — the
    /// caller owns the [`MatrixKey`]-level dedup so it can batch the misses.
    pub fn note_matrix(&mut self, hit: bool) {
        if hit {
            self.stats.matrix_hits += 1;
        } else {
            self.stats.matrix_misses += 1;
        }
    }

    /// Interns the four side profiles of `edge` and returns the prepared
    /// cell evaluator. Profile builds are shared across edges whose endpoint
    /// signatures and edge parameters agree.
    #[allow(clippy::too_many_arguments)]
    pub fn prepare(
        &mut self,
        edge: &Edge,
        src_op: &Operator,
        dst_op: &Operator,
        src_seqs: &[PartitionSeq],
        dst_seqs: &[PartitionSeq],
        src_sig: usize,
        dst_sig: usize,
    ) -> PreparedEdge {
        let space = DeviceSpace::new(src_seqs[0].bits());
        assert_eq!(
            src_seqs[0].bits(),
            dst_seqs[0].bits(),
            "both operators span the same devices"
        );
        let total_elems: f64 = side_dims(dst_op, edge.dst_kind)
            .iter()
            .map(|&d| dst_op.extent(d).max(1) as f64)
            .product();
        let grad_kind = match edge.dst_kind {
            TensorKind::Weight => TensorKind::GradWeight,
            _ => TensorKind::GradInput,
        };
        let grad_phase = match grad_kind {
            TensorKind::GradWeight => Phase::Gradient,
            _ => Phase::Backward,
        };
        let produce = self.side(
            src_sig,
            src_op,
            src_seqs,
            space,
            TensorKind::Output,
            Phase::Forward,
            Side::Produce,
            &[],
            edge.selector,
            None,
        );
        let consume = self.side(
            dst_sig,
            dst_op,
            dst_seqs,
            space,
            edge.dst_kind,
            Phase::Forward,
            Side::Consume,
            &edge.renames,
            None,
            None,
        );
        let g_produce = self.side(
            dst_sig,
            dst_op,
            dst_seqs,
            space,
            grad_kind,
            grad_phase,
            Side::Produce,
            &edge.renames,
            None,
            Some(&consume),
        );
        let g_consume = self.side(
            src_sig,
            src_op,
            src_seqs,
            space,
            TensorKind::GradOutput,
            Phase::Backward,
            Side::Consume,
            &[],
            edge.selector,
            Some(&produce),
        );
        // Forward traffic: consumer needs (varies by column) vs producer
        // holds (varies by row). Backward: producer-side needs (rows) vs
        // consumer-side holds (cols).
        let vc = consume
            .volume_fraction
            .iter()
            .map(|f| total_elems * f)
            .collect();
        let vg = g_consume
            .volume_fraction
            .iter()
            .map(|f| total_elems * f)
            .collect();
        let fwd = self.direction(total_elems, &consume, &produce);
        let bwd = self.direction(total_elems, &g_consume, &g_produce);
        PreparedEdge {
            fwd,
            bwd,
            vc,
            vg,
            devices: produce.devices,
            rows: src_seqs.len(),
            cols: dst_seqs.len(),
            key: MatrixKey::new(edge, src_sig, dst_sig),
        }
    }

    /// Interned [`DirectionTables`] for one `(needs, holds, total)` triple.
    fn direction(
        &mut self,
        total_elems: f64,
        needs: &Arc<SideProfiles>,
        holds: &Arc<SideProfiles>,
    ) -> Arc<DirectionTables> {
        let key = (
            Arc::as_ptr(needs) as usize,
            Arc::as_ptr(holds) as usize,
            total_elems.to_bits(),
        );
        if let Some(tables) = self.tables.get(&key) {
            return tables.clone();
        }
        let built = Arc::new(DirectionTables::build(total_elems, needs, holds));
        self.tables.insert(key, built.clone());
        built
    }

    #[allow(clippy::too_many_arguments)]
    fn side(
        &mut self,
        sig: usize,
        op: &Operator,
        seqs: &[PartitionSeq],
        space: DeviceSpace,
        kind: TensorKind,
        phase: Phase,
        side: Side,
        renames: &[(Axis, Axis)],
        selector: Option<(f64, f64)>,
        base: Option<&Arc<SideProfiles>>,
    ) -> Arc<SideProfiles> {
        let key = ProfileKey {
            sig,
            kind,
            phase,
            side,
            renames: renames.to_vec(),
            selector: selector_bits(selector),
        };
        if let Some(cached) = self.profiles.get(&key) {
            self.stats.profile_hits += 1;
            return cached.clone();
        }
        self.stats.profile_misses += 1;
        let built = Arc::new(SideProfiles::build(
            op,
            seqs,
            space,
            kind,
            phase,
            side,
            renames,
            selector,
            base.map(Arc::as_ref),
        ));
        self.profiles.insert(key, built.clone());
        built
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edge_cost_matrix;
    use primepar_graph::ModelConfig;
    use primepar_partition::{Dim, Primitive};
    use primepar_topology::Cluster;

    /// Every 2-bit spatial sequence plus the temporal primitive — a dense
    /// slice through the real 4-device partition space.
    fn seqs_4dev() -> Vec<PartitionSeq> {
        let dims = [Dim::B, Dim::M, Dim::N, Dim::K];
        let mut out = Vec::new();
        for a in dims {
            for b in dims {
                out.push(
                    PartitionSeq::new(vec![Primitive::Split(a), Primitive::Split(b)]).unwrap(),
                );
            }
        }
        out.push(PartitionSeq::new(vec![Primitive::Temporal { k: 1 }]).unwrap());
        out
    }

    #[test]
    fn matrix_job_ids_match_matrix_key_dedup() {
        // The interned ids must reproduce the first-seen dense numbering a
        // `HashMap<MatrixKey, usize>` dedup would assign, edge for edge —
        // including the QKV selector edges that share signatures but must
        // not collide.
        let g = ModelConfig::opt_6_7b().layer_graph(8, 512);
        let sig_ids = g.signature_ids();
        let ids = matrix_job_ids(&g.edges, &sig_ids);
        assert_eq!(ids.len(), g.edges.len());
        let mut by_key: HashMap<MatrixKey, usize> = HashMap::new();
        let mut next = 0usize;
        for (edge, &id) in g.edges.iter().zip(&ids) {
            let key = MatrixKey::new(edge, sig_ids[edge.src], sig_ids[edge.dst]);
            let expect = *by_key.entry(key).or_insert_with(|| {
                let fresh = next;
                next += 1;
                fresh
            });
            assert_eq!(id, expect);
        }
        assert_eq!(ids.iter().max().map(|m| m + 1), Some(next));
        assert!(next < g.edges.len(), "residual adds must dedup");
    }

    #[test]
    fn prepared_matrix_is_bitwise_identical_to_direct() {
        let cluster = Cluster::v100_like(4);
        let g = ModelConfig::opt_6_7b().layer_graph(8, 512);
        let sig_ids = g.signature_ids();
        let seqs = seqs_4dev();
        let mut cache = EdgeCostCache::new();
        for edge in &g.edges {
            let (src, dst) = (&g.ops[edge.src], &g.ops[edge.dst]);
            let direct_ctx = CostCtx::new(&cluster, 0.0);
            let direct = edge_cost_matrix(&direct_ctx, edge, src, dst, &seqs, &seqs);
            let prepared = cache.prepare(
                edge,
                src,
                dst,
                &seqs,
                &seqs,
                sig_ids[edge.src],
                sig_ids[edge.dst],
            );
            let ctx = CostCtx::new(&cluster, 0.0);
            let fast = prepared.matrix(&ctx);
            assert_eq!(direct.len(), fast.len());
            for (i, (a, b)) in direct.iter().zip(&fast).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "edge ({}, {}) cell {i}: {a} vs {b}",
                    edge.src,
                    edge.dst
                );
            }
            assert_eq!(ctx.inter_evaluations(), (seqs.len() * seqs.len()) as u64);
        }
    }

    #[test]
    fn profiles_are_shared_across_structurally_equal_edges() {
        let g = ModelConfig::opt_6_7b().layer_graph(8, 512);
        let sig_ids = g.signature_ids();
        let seqs = seqs_4dev();
        let mut cache = EdgeCostCache::new();
        // anchor→norm1 and add1→norm2 have equal endpoint signatures and
        // parameters: the second prepare must hit all four profile slots.
        let e01 = g.edges.iter().find(|e| e.src == 0 && e.dst == 1).unwrap();
        let e78 = g.edges.iter().find(|e| e.src == 7 && e.dst == 8).unwrap();
        assert_eq!(MatrixKey::new(e01, 0, 1), MatrixKey::new(e78, 0, 1));
        cache.prepare(e01, &g.ops[0], &g.ops[1], &seqs, &seqs, 0, 1);
        assert_eq!(cache.stats().profile_misses, 4);
        cache.prepare(e78, &g.ops[7], &g.ops[8], &seqs, &seqs, 0, 1);
        assert_eq!(cache.stats().profile_misses, 4);
        assert_eq!(cache.stats().profile_hits, 4);
        // QKV selector edges must NOT collide despite equal signatures.
        let q = g
            .edges
            .iter()
            .find(|e| e.src == 2 && e.dst == 3 && e.dst_kind == TensorKind::Input)
            .unwrap();
        let k = g
            .edges
            .iter()
            .find(|e| e.src == 2 && e.dst == 3 && e.dst_kind == TensorKind::Weight)
            .unwrap();
        assert_ne!(
            MatrixKey::new(q, sig_ids[2], sig_ids[3]),
            MatrixKey::new(k, sig_ids[2], sig_ids[3])
        );
    }

    #[test]
    fn deduplication_shrinks_holdings() {
        // A coarse B-split leaves many devices with repeated slices; the
        // interned uniques must be far fewer than len() × devices.
        let g = ModelConfig::opt_6_7b().layer_graph(8, 512);
        let seqs = seqs_4dev();
        let space = DeviceSpace::new(2);
        let side = SideProfiles::build(
            &g.ops[9],
            &seqs,
            space,
            TensorKind::Output,
            Phase::Forward,
            Side::Produce,
            &[],
            None,
            None,
        );
        assert_eq!(side.len(), seqs.len());
        assert!(
            side.unique_holdings() < seqs.len() * 4 / 2,
            "expected ≥2× dedup, got {} of {}",
            side.unique_holdings(),
            seqs.len() * 4
        );
    }
}
