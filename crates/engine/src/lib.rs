//! `pmi-engine` — a sharded, concurrent batch query-serving engine over
//! pivot-based metric indexes.
//!
//! The paper (§6.2) observes that pivot-distance work parallelizes
//! naturally because objects are independent of each other. This crate
//! extends that observation from index *construction* to query *serving*:
//!
//! * [`ShardedEngine`] partitions a dataset across `P` independent shards,
//!   each backed by any [`MetricIndex`] implementation (a shard factory
//!   closure decides which — the `pmi` facade wires its `builder` module
//!   in, so every index of the paper can serve). Partitioning is either
//!   round-robin ([`ShardedEngine::build_with`]) or pivot-space routed
//!   ([`ShardedEngine::build_partitioned_with`], policy
//!   [`PartitionPolicy::PivotSpace`] from `pmi-router`), where a
//!   [`RoutingTable`] of per-shard pivot-space bounding boxes lets queries
//!   *skip* shards: Lemma 1 box pruning for range queries, best-first
//!   probing with a tightening cutoff for kNN. Skips are counted exactly
//!   in every [`ServeReport`] (`shards_probed` / `shards_pruned`),
//! * batches of mixed range / kNN queries ([`Query`]) execute on a
//!   crossbeam scoped-thread worker pool ([`ShardedEngine::serve`]), with
//!   per-shard partial results merged per query — a set union for range
//!   queries, a bounded binary heap ([`merge::TopK`]) for the global top-k,
//! * the paper's cost model aggregates exactly: every shard counts
//!   `compdists` and page accesses through atomic counters, and the engine
//!   sums the per-shard [`Counters`] snapshots,
//! * every served batch produces a [`ServeReport`] — throughput,
//!   monotonic-clock latency percentiles, and aggregate counters — so
//!   benches and examples can measure QPS directly,
//! * mutations flow through the same layered path as queries
//!   ([`ShardedEngine::apply`] over an [`UpdateBatch`]): inserts are routed
//!   via the routing table and push **one** pivot row into the engine's
//!   shared matrix (the destination shard adopts it by id — no remap),
//!   removes shrink the affected routing boxes back to the surviving
//!   members, and a [`RefreshPolicy`] re-clusters the worst shard pair
//!   when a batch leaves the shards imbalanced. Every [`ApplyReport`]
//!   counter is exact.
//!
//! Shard-level parallelism is also available per query: when a batch is
//! narrower than the pool, `serve` on a large round-robin engine splits
//! each query into shard lanes, one worker each, and merges the lane
//! partials once ([`SchedStrategy::ShardParallel`]).
//! [`ShardedEngine::range_query`] and [`ShardedEngine::knn_query`] probe
//! serially on the calling thread.
//!
//! # Example
//!
//! ```
//! use pmi_engine::{EngineConfig, Query, ShardedEngine};
//! use pmi_metric::{BruteForce, MetricIndex, L2};
//!
//! let objects: Vec<Vec<f32>> = (0..1000)
//!     .map(|i| vec![(i % 97) as f32, (i % 31) as f32])
//!     .collect();
//! let cfg = EngineConfig { shards: 4, threads: 2, ..EngineConfig::default() };
//! let engine = ShardedEngine::build_with(objects.clone(), &cfg, |_, part| {
//!     Ok::<_, String>(Box::new(BruteForce::new(part, L2)) as Box<dyn MetricIndex<_>>)
//! })
//! .unwrap();
//!
//! let batch = vec![
//!     Query::range(objects[0].clone(), 5.0),
//!     Query::knn(objects[1].clone(), 10),
//! ];
//! let outcome = engine.serve(&batch);
//! assert_eq!(outcome.results.len(), 2);
//! assert!(outcome.report.cost.compdists > 0);
//! ```

pub mod engine;
mod locator;
pub mod merge;
pub mod query;
pub mod queue;
pub mod report;
pub mod robust;
pub mod shard;
pub mod update;

pub use engine::{
    BatchOutcome, EngineConfig, EngineError, EngineReader, EngineScratch, EngineSnapshot,
    ShardedEngine,
};
pub use merge::TopK;
pub use pmi_obs::{QueryTrace, TraceEvent, TraceKind, TracePolicy};
pub use pmi_router::{PartitionPolicy, RoutingTable};
pub use query::{Query, QueryResult};
pub use queue::{AdmissionPolicy, PumpOutcome, QueueStats, SubmitOutcome, SubmitQueue};
pub use report::{
    BuildStats, LatencySummary, SchedStrategy, ServeReport, ShardServeStats, UpdateStats,
};
pub use robust::{
    Completeness, DegradeReason, Degraded, FaultPolicy, OpError, OpErrorKind, QueryBudget,
    QueryError, ServeBudget, ShardFaultState,
};
pub use shard::Shard;
pub use update::{ApplyReport, CompactionPolicy, RefreshPolicy, UpdateBatch, UpdateOp};
