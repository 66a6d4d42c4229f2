//! Outside-in layer timings for the traced run. Each function calls one
//! layer's public functions directly, from the benchmark's own code, on
//! the workload's own data — no span lives inside the program.

use crate::stats::Spans;
use crate::workload::PIVOTS;
use pivot_metric_repro::engine::{Shard, TopK};
use pivot_metric_repro::router::assign_pivot_space;
use pivot_metric_repro::{
    pivots, ApplyReport, ColumnMode, Metric, Neighbor, ObjId, PivotMatrix, Query, QueryResult,
    QueryScratch, RoutingTable, ScanKernel, ShardedEngine,
};
use std::sync::Arc;
use std::time::Instant;

type Engine = ShardedEngine<Vec<f32>>;

fn ns(a: Instant, b: Instant) -> u64 {
    b.duration_since(a).as_nanos() as u64
}

/// The set-up layers, timed one by one on the workload's corpus.
pub struct SetupLayers {
    pub select_s: f64,
    pub matrix_s: f64,
    pub partition_s: f64,
    /// The pivots chosen, for the off-path probes of router-less engines.
    pub pivots: Vec<Vec<f32>>,
    /// The workload's pivot matrix in f32 column mode, for the kernel probe.
    pub matrix: PivotMatrix,
}

/// Times `pivots::select_hfi`, `PivotMatrix::compute` and
/// `assign_pivot_space` with the parameters the facade build uses.
pub fn setup_layers<M: Metric<Vec<f32>> + Sync>(
    objects: &[Vec<f32>],
    metric: &M,
    shards: usize,
    threads: usize,
    seed: u64,
    spans: &mut Spans,
    req: u64,
) -> SetupLayers {
    let t0 = Instant::now();
    let ids = pivots::select_hfi(objects, metric, PIVOTS, seed);
    let t1 = Instant::now();
    let pivots: Vec<Vec<f32>> = ids.iter().map(|&i| objects[i].clone()).collect();
    let t2 = Instant::now();
    let mut matrix = PivotMatrix::compute(objects, metric, &pivots, threads);
    matrix.set_mode(ColumnMode::F32);
    let t3 = Instant::now();
    let assignment = assign_pivot_space(&matrix, shards, seed);
    let t4 = Instant::now();
    std::hint::black_box(assignment);
    spans.push("pivots.select", spans.at(t0), spans.at(t1), None, req);
    spans.push("metric.matrix", spans.at(t2), spans.at(t3), None, req);
    spans.push("router.partition", spans.at(t3), spans.at(t4), None, req);
    SetupLayers {
        select_s: (t1 - t0).as_secs_f64(),
        matrix_s: (t3 - t2).as_secs_f64(),
        partition_s: (t4 - t3).as_secs_f64(),
        pivots,
        matrix,
    }
}

/// Reused buffers of the serial replay.
#[derive(Default)]
pub struct ReplayScratch {
    qs: QueryScratch,
    mapped: Vec<f64>,
    probe: Vec<usize>,
    order: Vec<(usize, f64)>,
    ids: Vec<ObjId>,
    tmp: Vec<Neighbor>,
    topk: TopK,
}

/// One query replayed serially as plan → per-shard probes → merge.
pub struct Replay {
    pub plan_ns: u64,
    pub probe_ns: u64,
    pub merge_ns: u64,
    pub probed: usize,
    /// Objects held by the probed shards.
    pub rows: usize,
    pub result: QueryResult,
}

impl Replay {
    pub fn wall_ns(&self) -> u64 {
        self.plan_ns + self.probe_ns + self.merge_ns
    }
}

/// Replays `query` the way the engine's query-parallel path runs it:
/// `RoutingTable::map_into` plus `range_plan_into`/`knn_order_into`, then
/// `Shard::range_global_into`/`knn_into_with` per planned shard, then the
/// range union or `TopK` drain. A kNN probe offers its (at most k)
/// candidates to the `TopK` inside `knn_into_with`, so those offers count
/// as probe time. With `spans`, each step is also recorded as a span.
pub fn replay(
    shards: &[Arc<Shard<Vec<f32>>>],
    router: Option<&RoutingTable<Vec<f32>>>,
    query: &Query<Vec<f32>>,
    s: &mut ReplayScratch,
    mut spans: Option<(&mut Spans, u64)>,
) -> Replay {
    let mut marks: Vec<(Instant, Instant)> = Vec::new();
    let t0 = Instant::now();
    let (mut probed, mut rows, mut probe_ns) = (0, 0, 0);
    let mut probe = |a: Instant, sh: usize| {
        let b = Instant::now();
        probe_ns += ns(a, b);
        if spans.is_some() {
            marks.push((a, b));
        }
        probed += 1;
        rows += shards[sh].len();
        b
    };
    let (plan_end, merge_start, result) = match query {
        Query::Range { q, radius } => {
            match router {
                Some(rt) => {
                    rt.map_into(q, &mut s.mapped);
                    rt.range_plan_into(&s.mapped, *radius, &mut s.probe);
                }
                None => {
                    s.probe.clear();
                    s.probe.extend(0..shards.len());
                }
            }
            let plan_end = Instant::now();
            s.ids.clear();
            let mut a = plan_end;
            for &sh in &s.probe {
                shards[sh].range_global_into(q, *radius, &mut s.qs, &mut s.ids);
                a = probe(a, sh);
            }
            s.ids.sort_unstable();
            (plan_end, a, QueryResult::Range(s.ids.clone()))
        }
        Query::Knn { q, k } => {
            match router {
                Some(rt) => {
                    rt.map_into(q, &mut s.mapped);
                    rt.knn_order_into(&s.mapped, &mut s.order);
                }
                None => {
                    s.order.clear();
                    s.order.extend((0..shards.len()).map(|i| (i, 0.0)));
                }
            }
            let plan_end = Instant::now();
            s.topk.reset(*k);
            let mut a = plan_end;
            for &(sh, lb) in &s.order {
                if lb > s.topk.threshold() {
                    continue;
                }
                let seed = s.topk.threshold();
                shards[sh].knn_into_with(q, *k, seed, &mut s.qs, &mut s.tmp, &mut s.topk);
                a = probe(a, sh);
            }
            (plan_end, a, QueryResult::Knn(s.topk.drain_sorted()))
        }
    };
    let end = Instant::now();
    if let Some((sp, req)) = spans.as_mut() {
        let root = sp.push("serve.replay", sp.at(t0), sp.at(end), None, *req);
        sp.push("router.plan", sp.at(t0), sp.at(plan_end), Some(root), *req);
        for (a, b) in &marks {
            sp.push("shard.probe", sp.at(*a), sp.at(*b), Some(root), *req);
        }
        sp.push(
            "engine.merge",
            sp.at(merge_start),
            sp.at(end),
            Some(root),
            *req,
        );
    }
    Replay {
        plan_ns: ns(t0, plan_end),
        probe_ns,
        merge_ns: ns(merge_start, end),
        probed,
        rows,
        result,
    }
}

/// `Metric::dist` cost in ns over the workload's own (query, object)
/// pairs, timed for at least `min_secs`.
pub fn dist_ns<M: Metric<Vec<f32>>>(
    queries: &[Query<Vec<f32>>],
    objects: &[Vec<f32>],
    metric: &M,
    min_secs: f64,
) -> f64 {
    let qs: Vec<&Vec<f32>> = queries
        .iter()
        .map(|q| match q {
            Query::Range { q, .. } | Query::Knn { q, .. } => q,
        })
        .collect();
    let t = Instant::now();
    let mut acc = 0.0;
    let mut pairs = 0usize;
    while pairs == 0 || t.elapsed().as_secs_f64() < min_secs {
        for _ in 0..1024 {
            let q = qs[pairs % qs.len()];
            let o = &objects[pairs.wrapping_mul(7919) % objects.len()];
            acc += metric.dist(std::hint::black_box(q), std::hint::black_box(o));
            pairs += 1;
        }
    }
    std::hint::black_box(acc);
    t.elapsed().as_nanos() as f64 / pairs as f64
}

/// `ScanKernel::lower_bounds_f32` throughput over the workload's matrix
/// laid out as planar f32 columns, for at least `min_secs`. Returns
/// `(rows/s, GB/s)`, bytes being column reads plus bound writes.
pub fn kernel_rate(matrix: &PivotMatrix, qd: &[f64], min_secs: f64) -> (f64, f64) {
    let n = matrix.rows();
    let w = matrix.width();
    let cols: Vec<Vec<f32>> = (0..w)
        .map(|j| (0..n).map(|i| matrix.row(i)[j] as f32).collect())
        .collect();
    let col_refs: Vec<&[f32]> = cols.iter().map(|c| c.as_slice()).collect();
    let qd32: Vec<f32> = qd.iter().map(|&x| x as f32).collect();
    let slack = matrix.f32_slack(qd.iter().fold(0.0f64, |m, x| m.max(x.abs())));
    let mut out = Vec::with_capacity(n);
    ScanKernel::lower_bounds_f32(&qd32, &col_refs, n, slack, &mut out);
    let t = Instant::now();
    let mut calls = 0u64;
    while t.elapsed().as_secs_f64() < min_secs || calls < 3 {
        ScanKernel::lower_bounds_f32(std::hint::black_box(&qd32), &col_refs, n, slack, &mut out);
        std::hint::black_box(&out);
        calls += 1;
    }
    let secs = t.elapsed().as_secs_f64();
    let rows = (calls as usize * n) as f64;
    let bytes = rows * (w * 4 + 8) as f64;
    (rows / secs, bytes / secs / 1e9)
}

/// What one commit's map and fork layers cost, replayed after the commit.
pub struct ApplyLayers {
    pub map_ns: u64,
    pub fork_ns: u64,
    /// Distinct shards the commit wrote to.
    pub touched: usize,
}

/// Replays the map and fork layers of a finished commit: maps its inserted
/// objects with `RoutingTable::map_into` (or, on router-less engines, with
/// `off_path_map`, which the engine does not run), then forks each shard
/// the commit touched — found with `locate` — via `MetricIndex::fork`
/// (through `Shard::fork`; kinds that cannot fork return at once).
/// `removed_from` holds the shards of the removed ids, located before the
/// commit.
#[allow(clippy::too_many_arguments)]
pub fn apply_layers(
    engine: &Engine,
    report: &ApplyReport,
    inserted: &[&Vec<f32>],
    removed_from: &[usize],
    off_path_map: &dyn Fn(&Vec<f32>, &mut Vec<f64>),
    spans: &mut Spans,
    parent: usize,
    req: u64,
) -> ApplyLayers {
    let mut buf = Vec::with_capacity(PIVOTS);
    let t0 = Instant::now();
    match engine.routing() {
        Some(rt) => inserted.iter().for_each(|o| rt.map_into(o, &mut buf)),
        None => inserted.iter().for_each(|o| {
            buf.clear();
            off_path_map(o, &mut buf)
        }),
    }
    let t1 = Instant::now();
    spans.push("router.map", spans.at(t0), spans.at(t1), Some(parent), req);
    let mut touched: Vec<usize> = removed_from.to_vec();
    touched.extend(
        report
            .inserted_ids
            .iter()
            .filter_map(|&id| engine.locate(id).map(|(s, _)| s)),
    );
    touched.sort_unstable();
    touched.dedup();
    let mut fork_ns = 0;
    for &s in &touched {
        let a = Instant::now();
        let fork = engine.shards()[s].fork();
        let b = Instant::now();
        drop(std::hint::black_box(fork));
        fork_ns += ns(a, b);
        spans.push("index.fork", spans.at(a), spans.at(b), Some(parent), req);
    }
    ApplyLayers {
        map_ns: ns(t0, t1),
        fork_ns,
        touched: touched.len(),
    }
}
