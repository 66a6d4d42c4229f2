//! Root crate of the Pivot-based Metric Indexing reproduction.
//!
//! This is a thin re-export of the [`pmi`] facade so that the repository's
//! examples and integration tests have a single import surface:
//!
//! ```
//! use pivot_metric_repro as pmr;
//! let pts = pmr::datasets::la(100, 42);
//! assert_eq!(pts.len(), 100);
//! ```
//!
//! The sharded batch-serving engine is available as `pmr::engine` (see the
//! `pmi` crate docs for a quickstart, and `examples/serve_batch.rs` for a
//! runnable demo):
//!
//! ```
//! use pivot_metric_repro as pmr;
//! let objects = pmr::datasets::la(500, 42);
//! let engine = pmr::build_sharded_vector_engine(
//!     pmr::IndexKind::Laesa,
//!     objects.clone(),
//!     pmr::L2,
//!     &pmr::BuildOptions { d_plus: 14143.0, ..Default::default() },
//!     &pmr::EngineConfig { shards: 4, threads: 2, ..Default::default() },
//!     // PartitionPolicy::PivotSpace clusters shards in pivot space so
//!     // queries can skip shards (see the `pmi` crate docs).
//!     pmr::PartitionPolicy::PivotSpace,
//! )
//! .unwrap();
//! let out = engine.serve(&[pmr::Query::knn(objects[0].clone(), 5)]);
//! assert_eq!(out.results[0].len(), 5);
//! ```
//!
//! Observability — per-shard serve stats (`out.report.per_shard`), the
//! engine phase tree (`engine.metrics()`), per-query traces with an
//! EXPLAIN renderer (`engine.set_trace_policy(..)` then
//! `out.report.traces[..].explain()`), and the JSONL run-log sink
//! (`pmr::obs::RunLog`) — is behind the default-on `obs` feature (trace
//! and run-log data types are unconditional). `docs/observability.md`
//! is the quickstart for the whole layer: the zero-overhead rule, the
//! `pmi-runlog-v1` schema, the trace format, and the `pmi-analyze`
//! regression sentinel.
//!
//! Concurrency — the engine serves through churn: immutable
//! [`EngineSnapshot`]s behind an atomic slot (every `out.report.epoch`
//! names the version that answered), cloneable [`EngineReader`] handles
//! (`engine.reader()`) that keep serving on any number of threads while
//! `engine.apply(..)` commits copy-on-write transactions, crash-safe
//! all-or-nothing apply ([`ApplyReport::aborted`]), and a standing
//! [`SubmitQueue`] with admission control ([`AdmissionPolicy`]:
//! backpressure on a full queue, deadline shedding of stale batches) —
//! is documented in `docs/concurrency.md`: the snapshot lifecycle,
//! epoch-based reclamation, the writer-crash contract, and the
//! `update.availability_ok` bench gate.
//!
//! Robustness — per-query/batch budgets with graceful degradation
//! (`engine.set_budget(..)`, the [`Completeness`] marker on every
//! result), typed per-item errors ([`QueryError`] / [`OpError`]), panic
//! containment with shard quarantine (`engine.fault_states()`,
//! `engine.heal()`), and the deterministic fault-injection harness
//! (`pmr::fault`, compiled in with `--features fault-inject`) — is
//! documented in `docs/robustness.md`: budget semantics, the
//! `Completeness` contract, the quarantine lifecycle, the fault-point
//! catalog, and how to run the chaos suite (`tests/chaos.rs`).
//!
//! Performance — halved filter bandwidth with `f32` columns
//! (`BuildOptions { column_mode: ColumnMode::F32, .. }`, results stay
//! byte-identical), the explicit-SIMD scan kernel with runtime
//! dispatch (`pmr::metric::simd::tier()`, override with `PMI_SIMD`),
//! and batch scheduling (one claim loop; the [`SchedStrategy`] it chose
//! on every `out.report.strategy`) — is documented in
//! `docs/performance.md`: the conservative-rounding admissibility
//! argument, the SIMD tier table and bit-identity contract, the
//! lane rule for splitting narrow batches, and the committed bench gates
//! (`kernel.f32_speedup_ok`, `f32.exact_ok`, `sched.scaling_ok`).

pub use pmi::*;
