//! Sharded batch serving: build a `ShardedEngine` over the LA dataset,
//! submit a mixed range/kNN batch, and read the `ServeReport` — throughput,
//! latency percentiles, the paper's aggregate cost counters, and the
//! routing counters (`shards_probed` / `shards_pruned`) — for each shard
//! count and partition policy. With `PartitionPolicy::PivotSpace` the
//! engine routes each query to the shards its pivot-space bounding boxes
//! cannot rule out, so selective queries skip most shards while returning
//! the same answers as round-robin.
//!
//! Also demonstrates the observability surface: the per-shard serve
//! breakdown (`report.per_shard` — probes, exact compdists, sampled
//! p50/p99 wall per shard, which makes shard skew visible at a glance)
//! and the engine-lifetime phase tree (`engine.metrics().render()` —
//! build/serve/apply/compact phases with wall clock and counter deltas).
//! Both are populated when the default `obs` feature is on; with
//! `--no-default-features` the same code compiles and runs, the phase
//! tree is simply empty and per-shard walls read zero (exact counters
//! remain). `engine.set_obs_enabled(false)` is the runtime switch — it
//! never changes results, only whether timings are collected. The final
//! section turns on per-query tracing (`engine.set_trace_policy`) and
//! prints captured traces' `explain()` plan trees — see
//! `docs/observability.md`.
//!
//! Run with: `cargo run --release --example serve_batch`

use pivot_metric_repro as pmr;
use pmr::builder::{BuildOptions, IndexKind};
use pmr::engine::{EngineConfig, Query};
use pmr::{build_sharded_vector_engine, datasets, PartitionPolicy, UpdateBatch, L2};

fn main() {
    let n = 20_000;
    let pts = datasets::la(n, 42);
    let radius = datasets::calibrate_radius(&pts, &L2, 0.04, 42);
    let opts = BuildOptions {
        d_plus: 14143.0,
        maxnum: 256,
        ..BuildOptions::default()
    };

    // A mixed workload: alternate 4%-selectivity range queries and 10-NN
    // queries, query objects drawn from the dataset.
    let batch: Vec<Query<Vec<f32>>> = (0..2_000)
        .map(|i| {
            let q = pts[(i * 131) % pts.len()].clone();
            if i % 2 == 0 {
                Query::range(q, radius)
            } else {
                Query::knn(q, 10)
            }
        })
        .collect();

    println!(
        "LA n={n}, {} queries ({} range @ r={radius:.1}, {} kNN k=10), index = MVPT\n",
        batch.len(),
        batch.len() / 2,
        batch.len() / 2
    );

    for shards in [1usize, 2, 4, 8] {
        for policy in [PartitionPolicy::RoundRobin, PartitionPolicy::PivotSpace] {
            let engine = build_sharded_vector_engine(
                IndexKind::Mvpt,
                pts.clone(),
                L2,
                &opts,
                &EngineConfig {
                    shards,
                    threads: 0,
                    ..EngineConfig::default()
                },
                policy,
            )
            .expect("buildable");
            engine.reset_counters();
            let out = engine.serve(&batch);
            println!("P={shards} [{}]:\n{}", policy.label(), out.report);
            println!(
                "  probes/query {:.2} of {shards} shard(s), prune rate {:.1}%",
                out.report.shards_probed as f64 / out.report.queries.max(1) as f64,
                out.report.prune_rate() * 100.0
            );
            // The per-shard breakdown (printed above as part of the
            // report) makes skew visible: under pivot-space routing the
            // probe counts — and so compdists and wall — concentrate on
            // the shards whose boxes overlap the workload.
            if shards == 8 {
                let probes: Vec<u64> = out.report.per_shard.iter().map(|s| s.probes).collect();
                println!(
                    "  shard skew: hottest shard {} probes vs coldest {}",
                    probes.iter().max().unwrap_or(&0),
                    probes.iter().min().unwrap_or(&0)
                );
            }
            println!();
        }
    }

    // The shared-matrix build path: LAESA shards adopt their slice of the
    // one parallel-computed pivot matrix, so the build computes each
    // object-pivot distance exactly once (visible in BuildStats).
    println!("shared-matrix build (LAESA, P=8, pivot-space):");
    let engine = build_sharded_vector_engine(
        IndexKind::Laesa,
        pts.clone(),
        L2,
        &opts,
        &EngineConfig {
            shards: 8,
            threads: 0,
            ..EngineConfig::default()
        },
        PartitionPolicy::PivotSpace,
    )
    .expect("buildable");
    let b = engine.build_stats();
    println!(
        "  build: {} compdists (= n*l = {}x{}) in {:.3}s; shard-side recompute: {}",
        b.build_compdists,
        n,
        opts.num_pivots,
        b.build_wall_secs,
        engine.counters().compdists,
    );

    // The bandwidth-halving scan path (docs/performance.md): F32 filter
    // columns stream half the bytes through the Lemma 1 kernel while exact
    // distances stay f64 — the stored rows carry a conservative rounding
    // slack, so the bounds remain admissible and the answers stay
    // byte-identical to the F64 engine. The report's first line names the
    // batch scheduling strategy the engine chose (wide batches assign
    // whole queries to workers).
    println!("\ncolumn modes (LAESA, P=8, pivot-space):");
    let f64_answers = {
        let e = build_sharded_vector_engine(
            IndexKind::Laesa,
            pts.clone(),
            L2,
            &opts,
            &EngineConfig {
                shards: 8,
                threads: 0,
                ..EngineConfig::default()
            },
            PartitionPolicy::PivotSpace,
        )
        .expect("buildable");
        e.serve(&batch).results
    };
    let f32_engine = build_sharded_vector_engine(
        IndexKind::Laesa,
        pts.clone(),
        L2,
        &BuildOptions {
            column_mode: pmr::ColumnMode::F32,
            ..opts
        },
        &EngineConfig {
            shards: 8,
            threads: 0,
            ..EngineConfig::default()
        },
        PartitionPolicy::PivotSpace,
    )
    .expect("buildable");
    let wide = f32_engine.serve(&batch);
    println!(
        "  mode={} simd={}: {}",
        pmr::ColumnMode::F32.label(),
        pmr::metric::simd::tier().label(),
        wide.report,
    );
    println!(
        "  answers byte-identical to mode={}: {}",
        pmr::ColumnMode::F64.label(),
        wide.results == f64_answers,
    );
    // A batch narrower than the pool on a large round-robin engine splits
    // each query into shard lanes, one worker per lane (pivot-space
    // engines keep whole queries: their best-first kNN cutoff needs one
    // probe sequence). Four workers give each of 2 queries 2 lanes.
    let round_robin = build_sharded_vector_engine(
        IndexKind::Laesa,
        pts.clone(),
        L2,
        &opts,
        &EngineConfig {
            shards: 8,
            threads: 4,
            ..EngineConfig::default()
        },
        PartitionPolicy::RoundRobin,
    )
    .expect("buildable");
    let narrow = round_robin.serve(&batch[..2]);
    println!(
        "  narrow batch ({} queries on {} workers, round-robin) chose {} scheduling",
        2,
        narrow.report.threads,
        narrow.report.strategy.label(),
    );

    // The unified mutation path: one apply() batch routes inserts through
    // the routing table (each pushes ONE row into the shared matrix — the
    // shard adopts it by id, no remap), shrinks the boxes of shards that
    // lost members, and re-clusters the worst pair if live counts drift.
    let mut engine = engine;
    let mut churn = UpdateBatch::new();
    for i in 0..1_000u32 {
        churn.remove(i * 7 % n as u32);
    }
    for i in 0..1_000usize {
        let mut o = pts[(i * 53) % n].clone();
        o[0] += (i % 97) as f32;
        churn.insert(o);
    }
    let report = engine.apply(&churn);
    println!("\nchurn batch through engine.apply (LAESA, P=8, pivot-space):");
    println!("{report}");
    engine.reset_counters();
    let out = engine.serve(&batch);
    println!(
        "  post-churn serving: {:.0} q/s, prune rate {:.1}%, updates so far: {} in / {} out",
        out.report.qps,
        out.report.prune_rate() * 100.0,
        out.report.updates.inserts,
        out.report.updates.removes,
    );

    // The engine-lifetime phase tree: every phase this engine has run
    // (build, apply.ops/rebox/recluster, serve.plan/scan/merge) with wall
    // clock, call counts, and the counter deltas attributed to it. Empty
    // when built with `--no-default-features` — the hooks compile away.
    let snap = engine.metrics();
    if snap.phases.is_empty() {
        println!("\nphase tree: (obs feature compiled out)");
    } else {
        println!(
            "\nphase tree (engine.metrics().render()):\n{}",
            snap.render()
        );
    }

    // Per-query tracing: sample 1-in-256 queries (and retroactively keep
    // anything slower than 2 ms), then EXPLAIN the captured traces — the
    // router's per-shard probe/prune verdicts with their Lemma 1 box
    // lower bounds, each probe's exact counter deltas, and the merge.
    // Tracing is runtime-only: untraced queries pay one branch, and
    // `TracePolicy::disabled()` (the default) restores the zero-cost path.
    engine.set_trace_policy(pmr::TracePolicy {
        sample_every: 256,
        ..pmr::TracePolicy::slow(0.002)
    });
    let out = engine.serve(&batch);
    engine.set_trace_policy(pmr::TracePolicy::disabled());
    println!(
        "\ntraced serve: {} trace(s) captured (sampled 1/256, slow > 2ms):",
        out.report.traces.len()
    );
    for trace in out.report.traces.iter().take(2) {
        println!("{}", trace.explain());
    }
}
