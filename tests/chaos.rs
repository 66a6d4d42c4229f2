//! Chaos suite: end-to-end failure-containment invariants, driven by the
//! deterministic fault-injection hooks (`pmi::fault`, compiled in only
//! with `--features fault-inject`).
//!
//! Run with:
//!
//! ```text
//! cargo test --features fault-inject --test chaos
//! ```
//!
//! The headline test installs a [`FaultPlan`] that panics one shard's
//! probe (the shard's distance-evaluation path) and proves the serve
//! boundary's contract: the batch completes, affected queries come back
//! `Failed` (then `Partial` once the shard is quarantined), every query
//! that never routed to the faulted shard is byte-identical — results
//! *and* exact per-shard cost counters — to the fault-free run, and the
//! quarantined shard is visible in `engine.metrics()` until `heal()`.
#![cfg(feature = "fault-inject")]

use pivot_metric_repro as pmr;
use pmr::builder::{BuildOptions, IndexKind};
use pmr::engine::{EngineConfig, Query, QueryResult};
use pmr::fault::{self, FaultKind, FaultPlan, FaultSpec};
use pmr::{
    build_sharded_vector_engine, BruteForce, ColumnMode, Counters, DegradeReason, FaultPolicy,
    MetricIndex, ObjId, PartitionPolicy, QueryBudget, QueryError, RefreshPolicy, SchedStrategy,
    ServeBudget, ShardedEngine, UpdateBatch, L2,
};
use std::sync::Arc;
use std::sync::Mutex;

/// The installed fault plan is process-global: every test that arms one
/// holds this lock (and clears the plan before releasing it).
static PLAN_LOCK: Mutex<()> = Mutex::new(());

/// Suppresses the default panic printout for the *injected* panics these
/// tests fire on purpose; anything else still reaches stderr.
fn quiet_injected_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|s| s.contains("injected fault"));
            if !injected {
                prev(info);
            }
        }));
    });
}

fn opts() -> BuildOptions {
    BuildOptions {
        d_plus: 14143.0,
        maxnum: 64,
        ..BuildOptions::default()
    }
}

fn build(policy: PartitionPolicy, shards: usize, pts: &[Vec<f32>]) -> ShardedEngine<Vec<f32>> {
    build_sharded_vector_engine(
        IndexKind::Laesa,
        pts.to_vec(),
        L2,
        &opts(),
        &EngineConfig {
            shards,
            threads: 1,
            faults: FaultPolicy {
                quarantine_after: 2,
            },
            ..EngineConfig::default()
        },
        policy,
    )
    .unwrap()
}

/// Serves `q` alone and returns its result plus the exact per-shard
/// counter deltas it cost (threads = 1, so this is deterministic).
fn probe_one(e: &ShardedEngine<Vec<f32>>, q: &Query<Vec<f32>>) -> (QueryResult, Vec<Counters>) {
    e.reset_counters();
    let out = e.serve(std::slice::from_ref(q));
    (out.results.into_iter().next().unwrap(), e.shard_counters())
}

#[test]
fn panicking_shard_probe_is_contained_and_routed_around() {
    quiet_injected_panics();
    let _g = PLAN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    fault::clear();

    // Clustered LA data + a selective radius: routing prunes shards, so
    // some queries probe the shard we will break and some never do.
    let pts = pmr::datasets::la(800, 5);
    let radius = pmr::datasets::calibrate_radius(&pts, &L2, 0.01, 5);
    let queries: Vec<Query<Vec<f32>>> = (0..24)
        .map(|i| Query::range(pts[i * 31].clone(), radius))
        .collect();

    // Fault-free baseline: per-query results and exact per-shard costs.
    let clean = build(PartitionPolicy::PivotSpace, 8, &pts);
    let baseline: Vec<(QueryResult, Vec<Counters>)> =
        queries.iter().map(|q| probe_one(&clean, q)).collect();
    // A probed LAESA shard always computes ≥ l pivot distances, so the
    // counter delta tells us each query's probe set.
    let probes: Vec<Vec<bool>> = baseline
        .iter()
        .map(|(_, per_shard)| per_shard.iter().map(|c| c.compdists > 0).collect())
        .collect();
    // Break a shard that some (≥ 2, to trip the quarantine) but not all
    // queries probe.
    let faulted = (0..8)
        .find(|&s| {
            let n = probes.iter().filter(|p| p[s]).count();
            n >= 2 && n < queries.len()
        })
        .expect("clustered data must leave some shard partially probed");

    let chaos = build(PartitionPolicy::PivotSpace, 8, &pts);
    fault::install(FaultPlan::new().with(FaultSpec::always(
        "engine.probe",
        Some(faulted as u64),
        FaultKind::Panic,
    )));

    let mut panics_seen = 0usize;
    for (i, q) in queries.iter().enumerate() {
        let (res, per_shard) = probe_one(&chaos, q);
        if !probes[i][faulted] {
            // Never routed to the broken shard: byte-identical results AND
            // byte-identical exact counters, fault plan armed or not.
            assert_eq!(res, baseline[i].0, "query {i}: unaffected result");
            assert_eq!(per_shard, baseline[i].1, "query {i}: unaffected counters");
            continue;
        }
        if panics_seen < 2 {
            // Quarantine not yet tripped: the probe panics, the panic is
            // contained, and the query fails with the shard attributed.
            panics_seen += 1;
            assert_eq!(
                res,
                QueryResult::Failed(QueryError::Panicked {
                    shard: Some(faulted as u32)
                }),
                "query {i}: contained panic"
            );
        } else {
            // Quarantined: the planner routes around the shard and the
            // answer degrades to a partial result instead of failing.
            let QueryResult::PartialRange(ids, d) = &res else {
                panic!("query {i}: expected PartialRange, got {res:?}");
            };
            assert_eq!(d.reason, DegradeReason::Quarantined);
            assert_eq!(d.shards_skipped, 1);
            let QueryResult::Range(exact) = &baseline[i].0 else {
                panic!("baseline {i} must be exact");
            };
            assert!(
                ids.iter().all(|id| exact.contains(id)),
                "query {i}: partial ⊆ exact"
            );
        }
    }
    assert_eq!(panics_seen, 2, "exactly two panics trip the quarantine");
    assert_eq!(fault::fired(), vec![2], "the plan fired once per panic");

    // The quarantined shard is visible in the engine's own state and in
    // the metrics registry.
    assert_eq!(chaos.quarantined_shards(), vec![faulted]);
    let states = chaos.fault_states();
    assert_eq!(states[faulted].panics, 2);
    assert!(states[faulted].quarantined);
    let snap = chaos.metrics();
    if snap.enabled {
        let gauge = snap
            .gauges
            .iter()
            .find(|(n, _)| n == "engine.quarantined_shards")
            .map(|(_, v)| *v);
        assert_eq!(gauge, Some(1), "quarantine gauge in engine.metrics()");
        let quarantines = snap
            .counters
            .iter()
            .find(|(n, _)| n == "serve.quarantines")
            .map(|(_, v)| *v);
        assert_eq!(quarantines, Some(1));
    }

    // Disarm the fault and heal: every query is byte-identical to the
    // fault-free baseline again.
    fault::clear();
    assert_eq!(chaos.heal(), 1);
    assert!(chaos.quarantined_shards().is_empty());
    for (i, q) in queries.iter().enumerate() {
        let (res, per_shard) = probe_one(&chaos, q);
        assert_eq!(res, baseline[i].0, "query {i}: healed result");
        assert_eq!(per_shard, baseline[i].1, "query {i}: healed counters");
    }
}

#[test]
fn nan_distances_never_poison_or_panic() {
    quiet_injected_panics();
    let _g = PLAN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    fault::clear();

    let pts = pmr::datasets::la(300, 7);
    let e = build(PartitionPolicy::RoundRobin, 4, &pts);
    let q = Query::range(pts[10].clone(), 500.0);
    let exact = e.serve(std::slice::from_ref(&q));
    let QueryResult::Range(exact_ids) = &exact.results[0] else {
        panic!("exact serve must be a Range");
    };

    // Every LAESA verification distance comes out NaN: candidates are
    // silently dropped (`NaN <= r` is false) — degraded answers, but no
    // panic and no NaN escaping into results.
    fault::install(FaultPlan::new().with(FaultSpec::always(
        "laesa.dist",
        None,
        FaultKind::NanDist,
    )));
    let poisoned = e.serve(std::slice::from_ref(&q));
    let QueryResult::Range(ids) = &poisoned.results[0] else {
        panic!("NaN injection must not change the result variant");
    };
    assert!(
        ids.iter().all(|id| exact_ids.contains(id)),
        "poisoned ⊆ exact"
    );
    assert_eq!(poisoned.report.failed, 0, "no panic, no failure");

    // Clearing the plan restores exact answers.
    fault::clear();
    let again = e.serve(std::slice::from_ref(&q));
    assert_eq!(again.results[0], exact.results[0]);
}

#[test]
fn injected_probe_delays_trip_the_query_deadline() {
    quiet_injected_panics();
    let _g = PLAN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    fault::clear();

    let pts = pmr::datasets::la(400, 9);
    let e = build(PartitionPolicy::RoundRobin, 4, &pts);
    let q = Query::range(pts[5].clone(), 500.0);
    let exact = e.serve(std::slice::from_ref(&q));
    let QueryResult::Range(exact_ids) = &exact.results[0] else {
        panic!("exact serve must be a Range");
    };

    // 2 ms per-query budget, 10 ms injected delay on every probe: the
    // first probe runs (and sleeps), every later probe is over deadline.
    e.set_budget(ServeBudget {
        query: QueryBudget {
            wall_nanos: 2_000_000,
            compdists: 0,
        },
        batch_wall_nanos: 0,
    });
    fault::install(FaultPlan::new().with(FaultSpec::always(
        "engine.probe",
        None,
        FaultKind::DelayMicros(10_000),
    )));
    let out = e.serve(std::slice::from_ref(&q));
    let QueryResult::PartialRange(ids, d) = &out.results[0] else {
        panic!(
            "expected a deadline-degraded partial, got {:?}",
            out.results[0]
        );
    };
    assert_eq!(d.reason, DegradeReason::Deadline);
    assert_eq!(d.shards_skipped, 3, "only the first probe beat the clock");
    assert!(
        ids.iter().all(|id| exact_ids.contains(id)),
        "partial ⊆ exact"
    );
    assert_eq!(out.report.degraded, 1);

    fault::clear();
    e.set_budget(ServeBudget::unlimited());
    let again = e.serve(std::slice::from_ref(&q));
    assert_eq!(again.results[0], exact.results[0]);
}

/// A single query on a round-robin engine above the split threshold runs
/// as one lane per worker (`shard-parallel` scheduling). Each lane probes
/// through the same fault point as the serial path, so an injected probe
/// panic fires, is attributed to its shard, and trips the quarantine.
#[test]
fn split_single_query_attributes_probe_faults() {
    quiet_injected_panics();
    let _g = PLAN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    fault::clear();

    let pts = pmr::datasets::la(4096, 11);
    let e = build_sharded_vector_engine(
        IndexKind::Laesa,
        pts.clone(),
        L2,
        &opts(),
        &EngineConfig {
            shards: 4,
            threads: 2,
            faults: FaultPolicy {
                quarantine_after: 2,
            },
            ..EngineConfig::default()
        },
        PartitionPolicy::RoundRobin,
    )
    .unwrap();
    let q = Query::range(pts[3].clone(), 500.0);
    let exact = e.serve(std::slice::from_ref(&q));
    assert_eq!(exact.report.strategy, SchedStrategy::ShardParallel);
    let QueryResult::Range(exact_ids) = &exact.results[0] else {
        panic!("exact serve must be a Range");
    };

    let faulted = 2u32;
    fault::install(FaultPlan::new().with(FaultSpec::always(
        "engine.probe",
        Some(u64::from(faulted)),
        FaultKind::Panic,
    )));
    for call in 1..=2u64 {
        let out = e.serve(std::slice::from_ref(&q));
        assert_eq!(out.report.strategy, SchedStrategy::ShardParallel);
        assert_eq!(
            out.results[0],
            QueryResult::Failed(QueryError::Panicked {
                shard: Some(faulted)
            }),
            "call {call}: the panic names the faulted shard"
        );
        assert_eq!(fault::fired(), vec![call], "the fault point was reached");
    }
    assert_eq!(e.quarantined_shards(), vec![faulted as usize]);

    // Quarantined: the split routes around the shard, so the fault point
    // is no longer reached and the answer degrades to a partial subset.
    let out = e.serve(std::slice::from_ref(&q));
    let QueryResult::PartialRange(ids, d) = &out.results[0] else {
        panic!("expected a quarantine partial, got {:?}", out.results[0]);
    };
    assert_eq!(d.reason, DegradeReason::Quarantined);
    assert_eq!(d.shards_skipped, 1);
    assert!(
        ids.iter().all(|id| exact_ids.contains(id)),
        "partial ⊆ exact"
    );
    assert_eq!(fault::fired(), vec![2]);

    fault::clear();
    assert_eq!(e.heal(), 1);
    let again = e.serve(std::slice::from_ref(&q));
    assert_eq!(again.results[0], exact.results[0]);
}

/// The crash-safe apply contract (`docs/concurrency.md`): a panic injected
/// anywhere inside the staging transaction — mid-op (`engine.apply.stage`)
/// or at the last abortable point before publication
/// (`engine.apply.publish`) — aborts the whole batch. Nothing lands, the
/// epoch does not advance, a reader hammering the engine *during* the
/// abort sees byte-identical results throughout, and retrying the same
/// batch after clearing the fault succeeds.
#[test]
fn writer_panic_mid_apply_aborts_and_serving_continues() {
    quiet_injected_panics();
    let _g = PLAN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    fault::clear();

    let pts = pmr::datasets::la(400, 5);
    let mut e = build(PartitionPolicy::PivotSpace, 4, &pts);
    let reader = e.reader().expect("matrix LAESA engines fork");
    let queries: Vec<Query<Vec<f32>>> = (0..16)
        .map(|i| Query::range(pts[i * 23].clone(), 40.0))
        .collect();
    let baseline = e.serve(&queries).results;
    let epoch0 = e.epoch();
    let len0 = e.len();

    for point in ["engine.apply.stage", "engine.apply.publish"] {
        fault::install(FaultPlan::new().with(FaultSpec::always(point, None, FaultKind::Panic)));
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            // Set the stop flag even if a writer-side assertion below
            // panics, so the reader thread exits and the scope join cannot
            // hang the suite.
            struct StopOnDrop<'a>(&'a std::sync::atomic::AtomicBool);
            impl Drop for StopOnDrop<'_> {
                fn drop(&mut self) {
                    self.0.store(true, std::sync::atomic::Ordering::Relaxed);
                }
            }
            let _stop_guard = StopOnDrop(&stop);
            let h = {
                let r = reader.clone();
                let stop = &stop;
                let queries = &queries;
                let baseline = &baseline;
                s.spawn(move || {
                    // At least one batch races the aborting apply; more as
                    // long as it is still in flight.
                    let mut batches = 0u32;
                    loop {
                        let out = r.serve(queries);
                        assert_eq!(out.report.epoch, epoch0, "no epoch mid-abort");
                        assert_eq!(&out.results, baseline, "reads unperturbed by abort");
                        batches += 1;
                        if stop.load(std::sync::atomic::Ordering::Relaxed) {
                            break;
                        }
                    }
                    batches
                })
            };
            let mut batch = UpdateBatch::new();
            batch.remove(0).insert(vec![1.0f32; 2]);
            let report = e.apply(&batch);
            assert!(report.aborted, "{point}: the transaction aborted");
            assert_eq!((report.inserts, report.removes), (0, 0), "{point}");
            assert!(report.inserted_ids.is_empty(), "{point}");
            stop.store(true, std::sync::atomic::Ordering::Relaxed);
            assert!(h.join().expect("reader panicked") > 0);
        });
        // All-or-nothing: no op landed, no snapshot was published.
        assert_eq!(e.epoch(), epoch0, "{point}: epoch unchanged");
        assert_eq!(e.len(), len0, "{point}: live count unchanged");
        assert!(e.get(0).is_some(), "{point}: the remove did not apply");
        assert_eq!(
            e.serve(&queries).results,
            baseline,
            "{point}: post-abort serving byte-identical"
        );
        fault::clear();
    }
    let snap = e.metrics();
    if snap.enabled {
        let aborts = snap
            .counters
            .iter()
            .find(|(n, _)| n == "apply.aborts")
            .map(|(_, v)| *v);
        assert_eq!(aborts, Some(2), "both aborts counted");
    }

    // Retry after the fault is gone: the identical batch applies cleanly.
    let mut batch = UpdateBatch::new();
    batch.remove(0).insert(vec![1.0f32; 2]);
    let report = e.apply(&batch);
    assert!(!report.aborted);
    assert_eq!((report.inserts, report.removes), (1, 1));
    assert_eq!(e.epoch(), epoch0 + 1);
    assert!(e.get(0).is_none());
}

/// A panic inside the re-clustering pass (`engine.recluster`) aborts the
/// *whole* transaction, including the several hundred inserts that staged
/// before the trigger fired — re-clustering is part of the apply
/// transaction, not a separate best-effort pass.
#[test]
fn recluster_panic_aborts_the_whole_batch() {
    quiet_injected_panics();
    let _g = PLAN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    fault::clear();

    let pts = pmr::datasets::la(400, 5);
    let mut e = build_sharded_vector_engine(
        IndexKind::Laesa,
        pts.to_vec(),
        L2,
        &opts(),
        &EngineConfig {
            shards: 4,
            threads: 1,
            refresh: pmr::RefreshPolicy {
                max_imbalance: 2.0,
                min_objects: 50,
            },
            ..EngineConfig::default()
        },
        PartitionPolicy::PivotSpace,
    )
    .unwrap();
    let epoch0 = e.epoch();

    // 300 near-duplicates of one region all route to one shard and trip
    // the refresh trigger — where the injected panic fires.
    let hot = pts[7].clone();
    let mut batch = UpdateBatch::new();
    for i in 0..300 {
        let mut o = hot.clone();
        o[0] += (i % 17) as f32;
        o[1] += (i % 13) as f32;
        batch.insert(o);
    }
    fault::install(FaultPlan::new().with(FaultSpec::always(
        "engine.recluster",
        None,
        FaultKind::Panic,
    )));
    let report = e.apply(&batch);
    assert!(report.aborted, "recluster panic aborts the transaction");
    assert_eq!(e.len(), 400, "all 300 staged inserts discarded with it");
    assert_eq!(e.epoch(), epoch0);
    assert_eq!(fault::fired(), vec![1]);

    // Retry lands everything, including the re-clustering pass.
    fault::clear();
    let report = e.apply(&batch);
    assert!(!report.aborted);
    assert_eq!(report.inserts, 300);
    assert_eq!(report.reclusters, 1, "skew still trips the refresh policy");
    assert_eq!(e.len(), 700);
    assert_eq!(e.epoch(), epoch0 + 1);
}

/// Quarantine × publication, across the four shardable kinds and both
/// partition policies: a shard quarantined during churn stays quarantined
/// across snapshot publishes (quarantine state lives beside the snapshot
/// slot, not inside any one snapshot), and after `heal()` the next
/// published snapshot serves byte-identically to a never-faulted control
/// engine that applied the same batches.
#[test]
fn quarantine_survives_publication_and_heal_restores_parity() {
    quiet_injected_panics();
    let _g = PLAN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    fault::clear();

    let kinds = [
        IndexKind::Laesa,
        IndexKind::Cpt,
        IndexKind::Mvpt,
        IndexKind::OmniR,
    ];
    let policies = [PartitionPolicy::RoundRobin, PartitionPolicy::PivotSpace];
    let pts = pmr::datasets::la(150, 5);
    // Big-radius ranges probe every live shard on both policies.
    let queries: Vec<Query<Vec<f32>>> = (0..6)
        .map(|i| Query::range(pts[i * 20].clone(), 1e6))
        .collect();
    let churn = |step: usize| {
        let mut b = UpdateBatch::new();
        for i in 0..5u32 {
            b.remove(step as u32 * 5 + i);
            b.insert(
                (0..2)
                    .map(|d| ((step * 7 + d * 3 + i as usize) % 50) as f32)
                    .collect(),
            );
        }
        b
    };

    for kind in kinds {
        for policy in policies {
            let mk = || {
                build_sharded_vector_engine(
                    kind,
                    pts.clone(),
                    L2,
                    &opts(),
                    &EngineConfig {
                        shards: 3,
                        threads: 1,
                        faults: FaultPolicy {
                            quarantine_after: 2,
                        },
                        ..EngineConfig::default()
                    },
                    policy,
                )
                .unwrap()
            };
            let mut chaos = mk();
            let mut control = mk();
            let label = format!("{kind:?}/{policy:?}");

            // Two injected probe panics on shard 1 trip the quarantine.
            fault::install(FaultPlan::new().with(FaultSpec::always(
                "engine.probe",
                Some(1),
                FaultKind::Panic,
            )));
            let out = chaos.serve(&queries);
            assert_eq!(out.report.failed, 2, "{label}: two contained panics");
            assert_eq!(chaos.quarantined_shards(), vec![1], "{label}");
            fault::clear();

            // Churn publishes a fresh snapshot; the quarantine carries over
            // and the new snapshot still routes around shard 1.
            let epoch0 = chaos.epoch();
            chaos.apply(&churn(0));
            control.apply(&churn(0));
            assert_eq!(chaos.epoch(), epoch0 + 1, "{label}: publish happened");
            assert_eq!(
                chaos.quarantined_shards(),
                vec![1],
                "{label}: quarantine survives publication"
            );
            let during = chaos.serve(&queries);
            assert_eq!(during.report.failed, 0, "{label}: no more panics");
            assert_eq!(
                during.report.degraded,
                queries.len(),
                "{label}: every query degrades around the quarantined shard"
            );

            // Heal, publish once more: byte-identical to the never-faulted
            // control engine over the same batch stream.
            assert_eq!(chaos.heal(), 1, "{label}");
            chaos.apply(&churn(1));
            control.apply(&churn(1));
            let healed = chaos.serve(&queries);
            let clean = control.serve(&queries);
            assert_eq!(healed.report.degraded, 0, "{label}: fully healed");
            assert_eq!(healed.report.failed, 0, "{label}");
            assert_eq!(
                healed.results, clean.results,
                "{label}: healed serving matches the control engine"
            );
            assert_eq!(healed.report.epoch, clean.report.epoch, "{label}");
        }
    }
}

/// Copy-on-write commits at scale: at n = 64k, a commit aborted at the
/// last abortable point (`engine.apply.publish`) has already forked shards
/// and copied chunks, yet the published state is untouched — the same
/// matrix snapshot with every chunk still the original allocation, the
/// same shard `Arc`s — because copies only ever land in the transaction's
/// own forks. Retrying the batch commits it, copying a constant number of
/// chunks, and the engine then answers byte-identically to `BruteForce`
/// over the survivors.
#[test]
fn aborted_commit_leaves_published_chunks_untouched() {
    quiet_injected_panics();
    let _g = PLAN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    fault::clear();

    let n = 65_536;
    let pts = pmr::datasets::la(n, 17);
    let mut e = build_sharded_vector_engine(
        IndexKind::Laesa,
        pts.clone(),
        L2,
        &BuildOptions {
            column_mode: ColumnMode::F32,
            ..opts()
        },
        &EngineConfig {
            shards: 8,
            threads: 1,
            refresh: RefreshPolicy::disabled(),
            ..EngineConfig::default()
        },
        PartitionPolicy::PivotSpace,
    )
    .unwrap();
    let mut batch = UpdateBatch::new();
    batch.insert(vec![1.0f32, 2.0]).remove(4_321);

    let mx = e.matrix().expect("matrix build").clone();
    let published = mx.snapshot();
    let pinned = (*published).clone(); // shares every chunk
    let shards: Vec<_> = e.shards().to_vec();
    fault::install(FaultPlan::new().with(FaultSpec::always(
        "engine.apply.publish",
        None,
        FaultKind::Panic,
    )));
    let report = e.apply(&batch);
    fault::clear();
    assert!(report.aborted);
    assert!(Arc::ptr_eq(&mx.snapshot(), &published), "no publication");
    assert_eq!(*published, pinned);
    assert!(
        (0..published.num_chunks()).all(|c| published.shares_chunk(&pinned, c)),
        "every published chunk is still the original allocation"
    );
    assert!(
        e.shards()
            .iter()
            .zip(&shards)
            .all(|(a, b)| Arc::ptr_eq(a, b)),
        "the published shards are untouched"
    );

    // Retry: commits, copying a constant number of chunks.
    let report = e.apply(&batch);
    assert!(!report.aborted);
    assert_eq!((report.inserts, report.removes), (1, 1));
    let l = opts().num_pivots as u64;
    assert!(report.copied_chunks <= l + 7, "{report}");
    assert!(
        published.shares_chunk(&mx.snapshot(), 0),
        "full chunks stay shared"
    );

    // Byte-identical to brute force over the survivors (ids mapped).
    let live: Vec<(ObjId, Vec<f32>)> = (0..=n as ObjId)
        .filter_map(|g| e.get(g).map(|o| (g, o)))
        .collect();
    assert_eq!(live.len(), n);
    let oracle = BruteForce::new(live.iter().map(|(_, o)| o.clone()).collect(), L2);
    let radius = pmr::datasets::calibrate_radius(&pts, &L2, 0.001, 5);
    for i in 0..32 {
        let q = &pts[i * 2_011];
        let mut want: Vec<ObjId> = oracle
            .range_query(q, radius)
            .into_iter()
            .map(|r| live[r as usize].0)
            .collect();
        want.sort_unstable();
        assert_eq!(e.range_query(q, radius), want, "range query {i}");
        let got = e.knn_query(q, 20);
        let want = oracle.knn_query(q, 20);
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.dist.to_bits(), w.dist.to_bits(), "kNN query {i}");
            assert_eq!(
                e.get(g.id).as_ref(),
                Some(&live[w.id as usize].1),
                "kNN query {i}"
            );
        }
    }
}
