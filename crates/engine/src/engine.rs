//! The sharded engine: partitioning, the scoped-thread worker pool, and
//! batch serving with exact aggregate cost accounting.
//!
//! Two partitioning regimes exist (see [`PartitionPolicy`]): the original
//! round-robin split, where every query probes every shard, and pivot-space
//! routing ([`ShardedEngine::build_partitioned_with`]), where a
//! [`RoutingTable`] prunes shards per query via Lemma 1 box bounds — range
//! queries skip every shard whose bounding box cannot intersect the search
//! ball, and kNN queries probe shards best-first, skipping those whose
//! lower bound exceeds the current k-th distance. Both regimes return
//! identical answers; routing only changes how much work is paid for them,
//! which the engine accounts exactly through the `shards_probed` /
//! `shards_pruned` counters.
//!
//! Construction can adopt a shared [`SharedPivotMatrix`]
//! ([`ShardedEngine::build_with_matrix`] /
//! [`ShardedEngine::build_partitioned_with_matrix`]): each shard factory
//! receives a [`MatrixSlice`] — a row-index view of the one precomputed
//! `n × l` matrix — so shard builds stop recomputing pivot distances and
//! nothing is copied. The engine keeps the shared matrix for its unified
//! mutation path ([`ShardedEngine::apply`]): inserts compute their pivot
//! row once, push it as one shared row (global id == row id), and the
//! destination shard adopts the id; removes shrink the affected routing
//! boxes back over the surviving rows; and a [`RefreshPolicy`] re-clusters
//! the worst shard pair when live counts drift apart. Serving reuses
//! per-worker [`EngineScratch`] buffers so the batch hot loop performs no
//! transient heap allocations per query.
//!
//! # Panic policy
//!
//! No input reachable through the public API may panic this module:
//! malformed queries are rejected up front by [`ShardedEngine::serve`] as
//! [`QueryError`]s, malformed update ops surface as [`OpError`]s, and a
//! panic that *does* escape a shard (a buggy index or metric) is caught at
//! the serve boundary, turned into `QueryResult::Failed`, and counted
//! toward that shard's quarantine (see `docs/robustness.md`). The
//! `expect`s that remain state internal invariants — every worker slot is
//! claimed exactly once, scoped worker threads cannot outlive the scope,
//! partitioned builds carry one matrix slice per shard, a built engine has
//! ≥ 1 shard (`EngineError::ZeroShards` otherwise) — whose violation is an
//! engine bug, not bad input.

use crate::locator::Locator;
use crate::merge::{merge_lanes, TopK};
use crate::query::{Query, QueryResult};
use crate::queue::{PumpOutcome, SubmitQueue};
use crate::report::{
    BuildStats, LatencySummary, SchedStrategy, ServeReport, ShardServeStats, UpdateStats,
};
use crate::robust::{
    DegradeReason, Degraded, FaultPolicy, OpError, OpErrorKind, QuarantineState, QueryBudget,
    QueryError, ServeBudget, ShardFaultState,
};
use crate::shard::{partition_by_assignment, partition_round_robin, Partition, Shard};
use crate::update::{ApplyReport, CompactionPolicy, RefreshPolicy, UpdateBatch, UpdateOp};
use pmi_metric::lemmas::Mbb;
use pmi_metric::{chunked, fault};
use pmi_metric::{
    Counters, MatrixSlice, MetricIndex, Neighbor, ObjId, PivotMatrix, QueryScratch,
    SharedPivotMatrix, StorageFootprint,
};
use pmi_obs::{
    Hist, MetricsSnapshot, QueryTrace, Registry, Span, TraceEvent, TraceKind, TracePolicy,
    TraceRing,
};
use pmi_router::{Mapper, PartitionPolicy, RoutingTable};
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Seed for the deterministic 2-means re-split of the worst shard pair.
const RECLUSTER_SEED: u64 = 0x5245_434C; // "RECL"

/// Engine shape: how many partitions, how many worker threads, and when the
/// mutation path re-clusters.
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Number of shards `P`. Clamped to at most `n` at build time so no
    /// shard is ever empty; `0` is a build error ([`EngineError::ZeroShards`]).
    pub shards: usize,
    /// Worker threads for batch serving and parallel shard builds;
    /// `0` means one per available hardware thread.
    pub threads: usize,
    /// When [`apply`](ShardedEngine::apply) re-clusters the worst shard
    /// pair (routed engines only).
    pub refresh: RefreshPolicy,
    /// When [`apply`](ShardedEngine::apply) compacts the shared pivot
    /// matrix (matrix-bearing engines only; renumbers global ids —
    /// disabled by default, see [`CompactionPolicy`]).
    pub compaction: CompactionPolicy,
    /// Seed for the engine's own partitioning decisions — the full
    /// survivor re-partition a [`compact`](ShardedEngine::compact) runs on
    /// routed engines. The `pmi` facade sets it to `BuildOptions::seed`,
    /// so a compaction reproduces exactly the clustering a fresh build
    /// over the survivors would compute.
    pub partition_seed: u64,
    /// Per-query trace capture: sample 1-in-N and/or retroactively keep
    /// slow queries (see [`TracePolicy`]). Disabled by default — the serve
    /// hot path stays untraced; swap at runtime with
    /// [`set_trace_policy`](ShardedEngine::set_trace_policy).
    pub trace: TracePolicy,
    /// Per-query / per-batch serving budgets (see [`ServeBudget`]).
    /// Unlimited by default — the serve hot path pays nothing; swap at
    /// runtime with [`set_budget`](ShardedEngine::set_budget).
    pub budget: ServeBudget,
    /// When repeated per-shard query panics quarantine a shard (see
    /// [`FaultPolicy`]; default: after 3).
    pub faults: FaultPolicy,
}

/// Minimum live-object count (an upper bound on the rows one query plans)
/// below which splitting a query across lanes cannot amortize the extra
/// worker per lane; the measured crossover sits at a few thousand rows.
const SHARD_PARALLEL_MIN_ROWS: usize = 4096;

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            shards: 4,
            threads: 0,
            refresh: RefreshPolicy::default(),
            compaction: CompactionPolicy::default(),
            partition_seed: 42,
            trace: TracePolicy::disabled(),
            budget: ServeBudget::unlimited(),
            faults: FaultPolicy::default(),
        }
    }
}

impl EngineConfig {
    /// The shard count actually built over `n` objects: `shards` clamped to
    /// `1..=max(n, 1)` (no shard is ever empty). Callers that partition
    /// externally (the pivot-space router) use the same clamp so that shard
    /// counts agree with the round-robin path.
    pub fn resolved_shards(&self, n: usize) -> usize {
        self.shards.max(1).min(n.max(1))
    }

    /// The worker thread count actually used: `threads`, or one per
    /// available hardware thread when 0.
    pub fn resolved_threads(&self) -> usize {
        resolve_threads(self.threads)
    }
}

/// Why a sharded engine could not be built.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EngineError<E> {
    /// `EngineConfig::shards` was 0 — an engine needs at least one shard.
    ZeroShards,
    /// A shard factory failed; carries the factory's own error.
    Build(E),
}

impl<E: std::fmt::Display> std::fmt::Display for EngineError<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::ZeroShards => {
                write!(
                    f,
                    "engine requires at least one shard (EngineConfig.shards == 0)"
                )
            }
            EngineError::Build(e) => write!(f, "shard build failed: {e}"),
        }
    }
}

impl<E: std::fmt::Display + std::fmt::Debug> std::error::Error for EngineError<E> {}

fn resolve_threads(requested: usize) -> usize {
    if requested > 0 {
        requested
    } else {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }
}

/// Reusable per-worker buffers for the batch-serving hot loop: the
/// query-pivot distance vector, the shard probe plan, the candidate/result
/// staging buffers and the bounded top-k collector all persist across the
/// queries one worker executes, so after warmup the only allocation a query
/// performs is its exact-size answer.
#[derive(Default)]
pub struct EngineScratch {
    /// Index-level scratch (query-pivot distances, kNN heap).
    qs: QueryScratch,
    /// The query's mapped point in pivot space (routed engines).
    mapped: Vec<f64>,
    /// Range probe plan: shards that must be probed.
    probe: Vec<usize>,
    /// kNN probe order: `(shard, box lower bound)` best-first.
    order: Vec<(usize, f64)>,
    /// Range answer staging buffer (global ids).
    ids: Vec<ObjId>,
    /// Per-shard kNN staging buffer.
    nbrs: Vec<Neighbor>,
    /// Global top-k collector.
    topk: TopK,
    /// Per-worker observability buffers, merged once per batch.
    obs: ScratchObs,
    /// Per-worker trace ring and captured traces (inert unless a
    /// [`TracePolicy`] arms it for the batch).
    trace: ScratchTrace,
    /// Per-query degradation control: budget clocks, compdist spending,
    /// panic attribution, skip accounting. Disarmed (the default), probe
    /// loops pay one branch per probe.
    ctl: QueryCtl,
    /// This worker's lane of a split query: round-robin probe loops visit
    /// only the shards `s` with `s % lanes == lane`. `lanes` of 0 or 1
    /// (the default) visits every shard.
    lane: usize,
    /// See `lane`.
    lanes: usize,
}

impl EngineScratch {
    /// Fresh, empty scratch buffers.
    pub fn new() -> Self {
        EngineScratch::default()
    }
}

/// One-in-N query sampling rate for probe-wall timing. Exact per-shard
/// probe/cost counts are always kept; only *wall-clock* attribution is
/// sampled, so the per-probe clock-read cost amortizes to well under the
/// 2% serve-overhead budget. Power of two (cheap mask).
const OBS_SAMPLE: u64 = 8;

/// Cap on raw probe-wall samples retained per (worker, shard) per batch,
/// bounding memory on very large batches.
const OBS_SAMPLE_CAP: usize = 65_536;

/// Per-worker observability state, recorded with plain (non-atomic)
/// writes on the serve path and folded into the engine's [`Registry`] and
/// the batch's [`ServeReport`] once per batch. Exact probe counts are
/// always maintained (they feed `ServeReport::per_shard` regardless of
/// the obs switch); everything timed is gated on `timing`/`sampled` —
/// both constant `false` when the `obs` feature is compiled out, so the
/// optimizer erases every clock read.
#[derive(Default)]
struct ScratchObs {
    /// Runtime obs switch, copied from the registry once per batch.
    timing: bool,
    /// Whether the in-flight query is one of the 1-in-[`OBS_SAMPLE`]
    /// timing samples.
    sampled: bool,
    /// Exact probe count per shard (always on — one plain add per probe).
    probes: Vec<u64>,
    /// Sampled probe wall per shard, summed nanoseconds.
    shard_nanos: Vec<u64>,
    /// Raw sampled probe walls per shard (for exact sample quantiles).
    shard_samples: Vec<Vec<u64>>,
    /// Sampled wall of the plan step (query mapping + shard selection).
    plan_nanos: u64,
    /// Sampled wall of the shard-probe step.
    scan_nanos: u64,
    /// Sampled wall of the merge step.
    merge_nanos: u64,
    /// How many queries this worker sampled for timing.
    sampled_queries: u64,
    /// Pivot distances paid mapping sampled+unsampled queries (timing on).
    map_dists: u64,
    /// Every query's wall (not sampled — one histogram record per query).
    query_wall: Hist,
    /// Scan-kernel tally harvested from [`QueryScratch`] at worker exit.
    kernel_rows: u64,
    /// See `kernel_rows`.
    kernel_blocks: u64,
    /// This worker's busy wall across the batch, nanoseconds.
    busy_nanos: u64,
}

impl ScratchObs {
    /// Sizes the per-shard buffers and arms the runtime switch for one
    /// batch.
    fn prepare(&mut self, shards: usize, timing: bool) {
        self.timing = timing;
        self.sampled = false;
        if self.probes.len() < shards {
            self.probes.resize(shards, 0);
        }
        if timing && self.shard_samples.len() < shards {
            self.shard_nanos.resize(shards, 0);
            self.shard_samples.resize_with(shards, Vec::new);
        }
    }

    /// Exact probe tally (always on; resilient to unprepared scratch from
    /// the public single-query paths).
    #[inline]
    fn note_probe(&mut self, s: usize) {
        if self.probes.len() <= s {
            self.probes.resize(s + 1, 0);
        }
        self.probes[s] += 1;
    }

    /// Records one sampled probe wall against shard `s`.
    fn note_probe_wall(&mut self, s: usize, nanos: u64) {
        if self.shard_samples.len() <= s {
            self.shard_nanos.resize(s + 1, 0);
            self.shard_samples.resize_with(s + 1, Vec::new);
        }
        self.shard_nanos[s] += nanos;
        self.scan_nanos += nanos;
        if self.shard_samples[s].len() < OBS_SAMPLE_CAP {
            self.shard_samples[s].push(nanos);
        }
    }

    /// Folds another worker's state into this one (report aggregation).
    fn merge(&mut self, other: ScratchObs) {
        let shards = self.probes.len().max(other.probes.len());
        if self.probes.len() < shards {
            self.probes.resize(shards, 0);
        }
        for (s, p) in other.probes.into_iter().enumerate() {
            self.probes[s] += p;
        }
        if !other.shard_samples.is_empty() {
            if self.shard_samples.len() < other.shard_samples.len() {
                self.shard_nanos.resize(other.shard_nanos.len(), 0);
                self.shard_samples
                    .resize_with(other.shard_samples.len(), Vec::new);
            }
            for (s, (ns, mut samples)) in other
                .shard_nanos
                .into_iter()
                .zip(other.shard_samples)
                .enumerate()
            {
                self.shard_nanos[s] += ns;
                self.shard_samples[s].append(&mut samples);
            }
        }
        self.plan_nanos += other.plan_nanos;
        self.scan_nanos += other.scan_nanos;
        self.merge_nanos += other.merge_nanos;
        self.sampled_queries += other.sampled_queries;
        self.map_dists += other.map_dists;
        self.query_wall.merge(&other.query_wall);
        self.kernel_rows += other.kernel_rows;
        self.kernel_blocks += other.kernel_blocks;
        self.busy_nanos += other.busy_nanos;
    }
}

/// Per-worker trace state. Untraced queries (the default policy) cost one
/// branch per serve-loop iteration and nothing on the query path itself —
/// no allocation, no atomics, no clock reads. A traced query records
/// [`TraceEvent`]s into the worker's fixed-capacity ring with plain slot
/// writes; only *capture* (the decided-to-keep path) allocates, by copying
/// the ring into an owned [`QueryTrace`].
#[derive(Default)]
struct ScratchTrace {
    /// The batch's policy, copied once per batch.
    policy: TracePolicy,
    /// Whether the policy enables any capture mode this batch.
    armed: bool,
    /// Whether the in-flight query is recording events.
    active: bool,
    /// Whether the in-flight query was chosen by 1-in-N sampling (slow
    /// capture decides retroactively at [`finish`](Self::finish)).
    sampled: bool,
    /// The per-worker event ring, reused across queries.
    ring: TraceRing,
    /// Traces this worker captured, in serve order.
    captured: Vec<QueryTrace>,
}

impl ScratchTrace {
    /// Arms (or disarms) tracing for one batch.
    fn prepare(&mut self, policy: TracePolicy) {
        self.policy = policy;
        self.armed = policy.enabled() && policy.max_captured > 0;
        self.active = false;
        self.sampled = false;
        self.captured.clear();
    }

    /// Decides whether the `served`-th query of this worker records events.
    #[inline]
    fn begin(&mut self, served: u64) {
        if !self.armed {
            return;
        }
        if self.captured.len() >= self.policy.max_captured {
            // The worker's capture budget is spent: stop recording.
            self.active = false;
            return;
        }
        self.sampled =
            self.policy.sample_every > 0 && served.is_multiple_of(self.policy.sample_every);
        // With a slow-query threshold set, every query records — the
        // keep/drop decision is made after the wall is known.
        self.active = self.sampled || self.policy.slow_query_nanos > 0;
        if self.active {
            self.ring.clear();
        }
    }

    /// Concludes the in-flight query: captures the ring if the query was
    /// sampled or its wall met the slow-query threshold.
    fn finish(&mut self, query: usize, kind: TraceKind, wall_nanos: u64) {
        if !self.active {
            return;
        }
        self.active = false;
        let slow = self.policy.slow_query_nanos > 0 && wall_nanos >= self.policy.slow_query_nanos;
        if !(self.sampled || slow) {
            return;
        }
        self.captured.push(QueryTrace {
            query,
            kind,
            wall_nanos,
            sampled: self.sampled,
            slow,
            dropped_events: self.ring.dropped(),
            events: self.ring.events().copied().collect(),
        });
    }
}

/// Per-query degradation control, living in [`EngineScratch`] so the
/// `range_with`/`knn_with` signatures stay put: `begin` arms it from the
/// batch's [`QueryBudget`] and the engine's quarantine fast-path bit,
/// probe loops consult [`allow_probe`](Self::allow_probe) before each
/// shard, and `execute_with` harvests the outcome via
/// [`take_degraded`](Self::take_degraded). With budgets off and nothing
/// quarantined the whole structure costs one branch per probe.
///
/// `probing` is written unconditionally (one plain store per probe) so a
/// panic caught by `serve` can attribute itself to the shard that was
/// being probed.
/// A deadline check that finds at least this much time remaining grants
/// [`DEADLINE_SKIP`] clock-free probe-boundary checks.
const DEADLINE_SLACK_NANOS: u64 = 10_000_000;
/// Clock reads skipped per slack grant (worst case: a degradation is
/// noticed up to this many probe boundaries late, only when the previous
/// read was ≥ 10 ms ahead of the deadline).
const DEADLINE_SKIP: u32 = 3;

#[derive(Default)]
struct QueryCtl {
    /// The batch's per-query budget, set once per batch by `serve`
    /// (unlimited for direct `execute_with` callers).
    batch_budget: QueryBudget,
    /// Whether any budget or quarantine is active for this query.
    armed: bool,
    /// The per-query budget (meaningful only when `armed`).
    budget: QueryBudget,
    /// Precomputed wall deadline for the in-flight query.
    deadline: Option<Instant>,
    /// Distance computations this query has spent (per-probe shard-counter
    /// deltas; exact single-threaded, conservative under concurrent
    /// serving of the same shard).
    spent: u64,
    /// Remaining probe-boundary deadline checks allowed to skip the clock
    /// read. Granted in blocks of [`DEADLINE_SKIP`] whenever a real read
    /// shows at least [`DEADLINE_SLACK_NANOS`] to spare, so a far-off
    /// deadline costs ~one clock read per few probes instead of one per
    /// probe; a query's first check always reads, so tight deadlines
    /// (including already-blown ones) degrade exactly as before.
    clock_skips: u32,
    /// The shard currently being probed (panic attribution).
    probing: Option<u32>,
    /// Planned probes skipped so far for this query.
    skipped: u32,
    /// Why the first skip happened.
    reason: Option<DegradeReason>,
}

impl QueryCtl {
    /// Arms (or disarms) the control for one query; returns whether probe
    /// loops need the guarded path.
    #[inline]
    fn begin(&mut self, budget: QueryBudget, quarantine_active: bool) -> bool {
        self.spent = 0;
        self.skipped = 0;
        self.reason = None;
        self.probing = None;
        self.clock_skips = 0;
        self.armed = budget.enabled() || quarantine_active;
        if self.armed {
            self.budget = budget;
            self.deadline = (budget.wall_nanos > 0)
                .then(|| Instant::now() + Duration::from_nanos(budget.wall_nanos));
        } else {
            self.deadline = None;
        }
        self.armed
    }

    /// Budget check at a shard-probe boundary: `true` to probe, `false` to
    /// skip the remaining plan. Only called on the guarded path.
    #[inline]
    fn allow_probe(&mut self) -> bool {
        if self.reason == Some(DegradeReason::Deadline)
            || self.reason == Some(DegradeReason::CompdistCap)
        {
            // Already over budget: skip the rest of the plan outright.
            self.skipped += 1;
            return false;
        }
        if self.budget.compdists > 0 && self.spent >= self.budget.compdists {
            self.skip(DegradeReason::CompdistCap);
            return false;
        }
        if let Some(d) = self.deadline {
            if self.clock_skips > 0 {
                // The last read had DEADLINE_SLACK_NANOS to spare; probes
                // are checked at boundaries only anyway (an in-flight probe
                // can never be cancelled), so a paced check weakens nothing
                // the contract promises.
                self.clock_skips -= 1;
            } else {
                let now = Instant::now();
                if now >= d {
                    self.skip(DegradeReason::Deadline);
                    return false;
                }
                if d - now >= Duration::from_nanos(DEADLINE_SLACK_NANOS) {
                    self.clock_skips = DEADLINE_SKIP;
                }
            }
        }
        true
    }

    /// Records one skipped probe.
    #[inline]
    fn skip(&mut self, reason: DegradeReason) {
        self.skipped += 1;
        self.reason.get_or_insert(reason);
    }

    /// Concludes the query: the degradation marker if any probe was
    /// skipped.
    #[inline]
    fn take_degraded(&mut self) -> Option<Degraded> {
        self.probing = None;
        if self.skipped == 0 {
            return None;
        }
        let d = Degraded {
            shards_skipped: self.skipped,
            reason: self.reason.unwrap_or(DegradeReason::Deadline),
        };
        self.skipped = 0;
        self.reason = None;
        Some(d)
    }
}

/// A lap timer that reads the monotonic clock only when armed: `lap()`
/// returns the nanoseconds since the previous lap (or construction) and
/// re-arms, so a sampled query pays exactly one clock read per measured
/// segment. Disarmed (`ObsClock::start(false)`, the non-sampled and
/// obs-off paths), every call is a constant 0 the optimizer folds away.
struct ObsClock(Option<Instant>);

impl ObsClock {
    #[inline]
    fn start(armed: bool) -> Self {
        ObsClock(if armed { Some(Instant::now()) } else { None })
    }

    #[inline]
    fn lap(&mut self) -> u64 {
        match &mut self.0 {
            Some(t) => {
                let now = Instant::now();
                let d = now.duration_since(*t).as_nanos() as u64;
                *t = now;
                d
            }
            None => 0,
        }
    }
}

/// Nearest-rank quantile over an already-sorted sample set (seconds).
fn sample_quantile(sorted_nanos: &[u64], q: f64) -> f64 {
    if sorted_nanos.is_empty() {
        return 0.0;
    }
    let n = sorted_nanos.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    sorted_nanos[rank - 1] as f64 * 1e-9
}

/// One partition awaiting its index, plus its optional adopted slice of
/// the shared pivot-distance matrix.
type MatrixPart<O> = (Partition<O>, Option<MatrixSlice>);

/// The live members of shard `s` as `(local slot, global id)` pairs: walks
/// the shard's own slot table and keeps only the slots the locator still
/// maps to this shard (a slot keeps its last global id after a removal or
/// a re-cluster move), so box maintenance touches one shard's slots
/// instead of the whole dataset.
fn live_members<'a, O>(
    shard: &'a Shard<O>,
    s: usize,
    locator: &'a Locator,
) -> impl Iterator<Item = (ObjId, ObjId)> + 'a {
    shard
        .global_ids()
        .iter()
        .enumerate()
        .filter(move |&(local, &gid)| locator.get(gid) == Some((s, local as ObjId)))
        .map(|(local, &gid)| (local as ObjId, gid))
}

/// The answers plus the measurement of one served batch.
#[derive(Debug)]
pub struct BatchOutcome {
    /// Per-query merged results, in batch order.
    pub results: Vec<QueryResult>,
    /// Throughput / latency / cost measurement.
    pub report: ServeReport,
}

/// One immutable published version of the engine's serving state: the
/// shard handles, the routing table, and the epoch that names it.
///
/// Readers load the current snapshot once per batch (one `Arc` clone under
/// a nanosecond lock) and serve the whole batch against it, so a
/// concurrently committing [`apply`](ShardedEngine::apply) can never tear a
/// batch: every answer is byte-identical to serving against some quiesced
/// prefix of the update stream. Shards shared between consecutive
/// snapshots are the *same* `Arc` — `apply` forks only the shards a batch
/// touches. A fork shares its index's storage chunks with the original
/// (copy-on-write [`ChunkedVec`](pmi_metric::ChunkedVec)s: matrix rows,
/// slot tables, id tables), so a commit copies only the chunks its writes
/// land in, and a retired snapshot keeps alive only the chunks the next
/// one replaced.
pub struct EngineSnapshot<O> {
    /// Publication epoch: 0 for the freshly built engine, +1 per commit.
    epoch: u64,
    /// The shard set of this version.
    shards: Vec<Arc<Shard<O>>>,
    /// The routing table of this version; `None` for round-robin engines.
    router: Option<Arc<RoutingTable<O>>>,
}

impl<O> EngineSnapshot<O> {
    /// Publication epoch of this snapshot.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Live objects in this snapshot.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.len()).sum()
    }

    /// Whether this snapshot holds no objects.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The reader-shared half of the engine: everything batch serving needs
/// behind `&self`. The writer half ([`ShardedEngine`]) owns the mutable
/// bookkeeping (locator, shared matrix, policies) and publishes new
/// [`EngineSnapshot`]s into `snap`; readers — [`EngineReader`] handles and
/// the engine's own serve wrappers — load the snapshot once per batch and
/// never observe a half-applied update.
struct EngineCore<O> {
    threads: usize,
    /// The current published snapshot. The mutex guards a single `Arc`
    /// clone/store — held for nanoseconds, never across a probe.
    snap: Mutex<Arc<EngineSnapshot<O>>>,
    /// Exact count of shard probes executed (a query touching 3 of 8
    /// shards adds 3).
    probed: AtomicU64,
    /// Exact count of shard probes avoided by routing (the same query adds
    /// 5 here).
    pruned: AtomicU64,
    /// The engine's metrics registry: build/serve/apply/compact phases,
    /// latency histograms, counters. Zero-sized and inert when the `obs`
    /// feature is compiled out; runtime-toggleable via
    /// [`set_obs_enabled`](ShardedEngine::set_obs_enabled) otherwise.
    obs: Registry,
    /// The per-query trace capture policy, read once per batch (the mutex
    /// never sits on the query path).
    trace: Mutex<TracePolicy>,
    /// Serving budgets, read once per batch (same discipline as `trace`).
    budget: Mutex<ServeBudget>,
    /// When repeated per-shard panics quarantine a shard.
    faults: FaultPolicy,
    /// Per-shard panic counts and quarantine flags.
    quarantine: QuarantineState,
    /// Optional query/insert object validator (e.g. finite-coords for
    /// vector engines); rejected objects fail per-item, never the batch.
    validator: Mutex<Option<Validator<O>>>,
    /// Stats mirrors for reports, synced by the writer at each commit.
    build: Mutex<BuildStats>,
    updates: Mutex<UpdateStats>,
    /// Live [`EngineReader`] handles (diagnostic gauge only).
    readers: AtomicUsize,
}

impl<O> EngineCore<O> {
    /// The current published snapshot (one `Arc` clone).
    fn snapshot(&self) -> Arc<EngineSnapshot<O>> {
        Arc::clone(&self.snap.lock().unwrap_or_else(|e| e.into_inner()))
    }

    fn trace_policy(&self) -> TracePolicy {
        *self.trace.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn serve_budget(&self) -> ServeBudget {
        *self.budget.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn validator(&self) -> Option<Validator<O>> {
        self.validator
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }
}

/// A cloneable serving handle for always-on operation: every call loads
/// the engine's current published [`EngineSnapshot`] and serves entirely
/// against it, so reader threads keep answering — each batch internally
/// consistent — while a writer thread commits [`apply`] batches off to the
/// side (MVCC).
///
/// Obtained from [`ShardedEngine::reader`], which returns `None` for
/// engines whose shard kind cannot fork (where `apply` mutates in place
/// and concurrent serving would race).
///
/// [`apply`]: ShardedEngine::apply
pub struct EngineReader<O> {
    core: Arc<EngineCore<O>>,
}

impl<O> Clone for EngineReader<O> {
    fn clone(&self) -> Self {
        self.core.readers.fetch_add(1, Ordering::Relaxed);
        EngineReader {
            core: Arc::clone(&self.core),
        }
    }
}

impl<O> Drop for EngineReader<O> {
    fn drop(&mut self) {
        self.core.readers.fetch_sub(1, Ordering::Relaxed);
    }
}

impl<O> EngineReader<O> {
    /// Epoch of the snapshot a batch served right now would see.
    pub fn epoch(&self) -> u64 {
        self.core.snapshot().epoch
    }

    /// Live objects in the current snapshot.
    pub fn len(&self) -> usize {
        self.core.snapshot().len()
    }

    /// Whether the current snapshot holds no objects.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Executes one query against the current snapshot.
    pub fn execute(&self, query: &Query<O>) -> QueryResult {
        let snap = self.core.snapshot();
        self.core
            .execute_with(&snap, query, &mut EngineScratch::new())
    }
}

impl<O: Send + Sync> EngineReader<O> {
    /// Serves a batch against the current snapshot. Identical semantics to
    /// [`ShardedEngine::serve`]; safe to call from any number of threads
    /// concurrently with a writer applying updates.
    pub fn serve(&self, batch: &[Query<O>]) -> BatchOutcome {
        let snap = self.core.snapshot();
        self.core.serve(&snap, batch)
    }

    /// Exact `MRQ(q, radius)` over the current snapshot.
    pub fn range_query(&self, q: &O, radius: f64) -> Vec<ObjId> {
        let snap = self.core.snapshot();
        self.core.range_query(&snap, q, radius)
    }

    /// Exact `MkNNQ(q, k)` over the current snapshot.
    pub fn knn_query(&self, q: &O, k: usize) -> Vec<Neighbor> {
        let snap = self.core.snapshot();
        self.core.knn_query(&snap, q, k)
    }

    /// Pops one pending batch from `queue` and serves it against the
    /// current snapshot (see [`ShardedEngine::pump`]).
    pub fn pump(&self, queue: &SubmitQueue<O>) -> PumpOutcome<O> {
        let snap = self.core.snapshot();
        self.core.pump(&snap, queue)
    }
}

/// A dataset sharded across `P` independent [`MetricIndex`]es, serving
/// batches of mixed range / kNN queries concurrently.
///
/// Under round-robin partitioning every query probes every shard (shards
/// partition the data, so all hold candidates). Under pivot-space
/// partitioning a [`RoutingTable`] summarizes each shard as a bounding box
/// in pivot space and queries skip every shard those summaries prove
/// answer-free (Lemma 1). Either way, per-shard partial answers merge into
/// one global answer — a sorted union for range queries, a bounded-heap
/// top-k for kNN — and because pruning is conservative and each shard's own
/// query processing is exact, the merged answers are identical to a single
/// unsharded index over the same data (ties at the k-th distance excepted,
/// as the trait allows either).
///
/// # Concurrency model (MVCC snapshots)
///
/// Serving state lives in immutable [`EngineSnapshot`]s published behind an
/// atomic slot. [`apply`](Self::apply) is a transaction: it forks the
/// shards the batch touches, stages every mutation off to the side, and
/// commits with a single snapshot swap — readers obtained via
/// [`reader`](Self::reader) keep serving the previous snapshot mid-apply
/// and pick up the new one at their next batch. Retired snapshots are
/// reclaimed once the last in-flight batch drops them. For shard kinds
/// that cannot fork, `reader()` returns `None` and `apply` falls back to
/// exclusive in-place mutation (safe: `&mut self` proves no concurrent
/// reader exists).
pub struct ShardedEngine<O> {
    /// Reader-shared serving state (snapshot slot, policies, metrics).
    core: Arc<EngineCore<O>>,
    /// Writer mirror of the published shard set — the same `Arc`s as the
    /// current snapshot's. `apply` forks the entries it touches.
    shards: Vec<Arc<Shard<O>>>,
    /// Writer mirror of the published routing table.
    router: Option<Arc<RoutingTable<O>>>,
    /// Whether every shard can fork: copy-on-write apply, reader handles
    /// available. Non-forkable kinds take the exclusive in-place path.
    cow: bool,
    /// Publication epoch of the current snapshot.
    epoch: u64,
    /// Retired snapshots not yet reclaimed (still pinned by in-flight
    /// reader batches). Swept at each publish: a snapshot whose only owner
    /// is this list is dropped.
    retired: Vec<Arc<EngineSnapshot<O>>>,
    /// The shared pivot-distance matrix the router and the shards adopted;
    /// present for matrix builds. The mutation path pushes exactly one row
    /// per insert, so **global id == shared row id** for the engine's
    /// lifetime — which is what lets removes recompute routing boxes and
    /// re-clustering move objects without recomputing any distance.
    matrix: Option<SharedPivotMatrix>,
    /// Maps objects into pivot space for the mutation path of
    /// matrix-bearing round-robin engines (routed engines map through the
    /// router instead).
    insert_mapper: Option<Mapper<O>>,
    /// When [`apply`](Self::apply) re-clusters the worst shard pair.
    refresh: RefreshPolicy,
    /// When [`apply`](Self::apply) compacts the shared matrix.
    compaction: CompactionPolicy,
    /// Seed for the survivor re-partition at compaction.
    partition_seed: u64,
    /// Global id → (shard, local id); also hands out the next global id.
    locator: Locator,
    /// Construction cost (per-shard builds; the facade adds the shared
    /// matrix cost through [`set_build_stats`](Self::set_build_stats)).
    build_stats: BuildStats,
    /// Lifetime mutation totals (copied into every [`ServeReport`]).
    update_stats: UpdateStats,
}

/// A shared per-item object validator (see
/// [`set_query_validator`](ShardedEngine::set_query_validator)).
type Validator<O> = Arc<dyn Fn(&O) -> bool + Send + Sync>;

/// One in-flight apply transaction: the staged next version of the
/// engine's serving state, built off to the side and either committed with
/// a single snapshot publish or dropped whole (all-or-nothing).
struct ApplyTxn<O> {
    /// Staged shard set. On the copy-on-write path entries start as the
    /// published `Arc`s and are forked on first touch; on the exclusive
    /// path they are the engine's own (uniquely owned) shards, moved in.
    shards: Vec<Arc<Shard<O>>>,
    /// Which entries this transaction has made uniquely its own.
    touched: Vec<bool>,
    cow: bool,
    /// Staged routing table (a copy-on-write clone: shared mapper, own
    /// boxes).
    router: Option<RoutingTable<O>>,
    /// Staged locator (a copy-on-write clone on the forking path).
    locator: Locator,
    /// Pivot rows staged (not yet published) by this batch, in insert
    /// order: the row of global id `g` is row `g − published rows` here —
    /// lets rebox and recluster read this batch's own inserts before the
    /// matrix publishes at commit.
    staged: PivotMatrix,
    /// `(shard, global id)` of every object this batch removed, for the
    /// box face test.
    removed: Vec<(usize, ObjId)>,
    /// Staged lifetime totals (committed into the engine's stats).
    stats: UpdateStats,
    report: ApplyReport,
}

impl<O> ApplyTxn<O> {
    /// The pivot row of global id `gid`: published rows from `published`
    /// (the matrix snapshot), this batch's own inserts from the staging
    /// matrix.
    fn row<'a>(&'a self, published: &'a PivotMatrix, gid: ObjId) -> &'a [f64] {
        let g = gid as usize;
        if g < published.rows() {
            published.row(g)
        } else {
            self.staged.row(g - published.rows())
        }
    }

    /// Mutable access to staged shard `s`, forking it first if the
    /// published version is still shared (copy-on-write).
    fn shard_mut(&mut self, s: usize) -> &mut Shard<O> {
        if self.cow && !self.touched[s] {
            let fork = self.shards[s]
                .fork()
                .expect("copy-on-write engines hold forkable shards");
            self.shards[s] = Arc::new(fork);
        }
        self.touched[s] = true;
        Arc::get_mut(&mut self.shards[s]).expect("transaction shard is uniquely owned")
    }
}

impl<O> ShardedEngine<O> {
    /// Builds an engine by partitioning `objects` round-robin into
    /// `cfg.shards` parts and handing each part to `factory`, which returns
    /// the shard's index (the `pmi` facade passes `builder::build_index`
    /// here). Shard builds run in parallel on scoped threads when more than
    /// one worker thread is configured — the paper's §6.2 observation that
    /// per-object pivot distances parallelize trivially.
    ///
    /// The factory receives `(shard_number, partition)` and must insert the
    /// partition in order, so that local id `i` is the `i`-th object of the
    /// partition (every index in this workspace does).
    pub fn build_with<E, F>(
        objects: Vec<O>,
        cfg: &EngineConfig,
        factory: F,
    ) -> Result<Self, EngineError<E>>
    where
        O: Send,
        E: Send,
        F: Fn(usize, Vec<O>) -> Result<Box<dyn MetricIndex<O>>, E> + Sync,
    {
        if cfg.shards == 0 {
            return Err(EngineError::ZeroShards);
        }
        let n = objects.len();
        let parts = partition_round_robin(objects, cfg.resolved_shards(n));
        let parts = parts.into_iter().map(|p| (p, None)).collect();
        Self::build_parts(parts, None, None, None, cfg, |s, objs, _| factory(s, objs))
    }

    /// [`build_with`](Self::build_with) over a [`SharedPivotMatrix`]: each
    /// shard factory receives a [`MatrixSlice`] — its partition's row-index
    /// view of the one shared matrix (row `i` of the matrix belongs to
    /// `objects[i]`) — so shard builds adopt pivot distances instead of
    /// recomputing them, without copying a single row. `mapper` maps new
    /// objects into pivot space for the mutation path, which pushes one
    /// shared row per insert that the destination shard adopts by id.
    pub fn build_with_matrix<E, F>(
        objects: Vec<O>,
        matrix: SharedPivotMatrix,
        mapper: Mapper<O>,
        cfg: &EngineConfig,
        factory: F,
    ) -> Result<Self, EngineError<E>>
    where
        O: Send,
        E: Send,
        F: Fn(usize, Vec<O>, MatrixSlice) -> Result<Box<dyn MetricIndex<O>>, E> + Sync,
    {
        if cfg.shards == 0 {
            return Err(EngineError::ZeroShards);
        }
        let n = objects.len();
        assert_eq!(matrix.rows(), n, "one matrix row per object");
        let parts = partition_round_robin(objects, cfg.resolved_shards(n));
        let parts = parts
            .into_iter()
            .map(|(objs, gids)| {
                let slice = MatrixSlice::new(matrix.clone(), gids.clone());
                ((objs, gids), Some(slice))
            })
            .collect();
        Self::build_parts(
            parts,
            None,
            Some(matrix),
            Some(mapper),
            cfg,
            |s, objs, m| {
                factory(
                    s,
                    objs,
                    m.expect("every partition carries its matrix slice"),
                )
            },
        )
    }

    /// Builds an engine from an explicit per-object shard assignment with
    /// **no** routing table: every query probes every shard, like
    /// [`build_with`](Self::build_with), but the caller controls membership
    /// — e.g. reproducing another engine's final shard layout for parity
    /// testing or migration. `assignment[i]` must be `< shards`.
    pub fn build_assigned_with<E, F>(
        objects: Vec<O>,
        assignment: &[usize],
        shards: usize,
        cfg: &EngineConfig,
        factory: F,
    ) -> Result<Self, EngineError<E>>
    where
        O: Send,
        E: Send,
        F: Fn(usize, Vec<O>) -> Result<Box<dyn MetricIndex<O>>, E> + Sync,
    {
        if cfg.shards == 0 || shards == 0 {
            return Err(EngineError::ZeroShards);
        }
        let parts = partition_by_assignment(objects, assignment, shards);
        let parts = parts.into_iter().map(|p| (p, None)).collect();
        Self::build_parts(parts, None, None, None, cfg, |s, objs, _| factory(s, objs))
    }

    /// Builds a *routed* engine from an explicit per-object shard
    /// assignment (the pivot-space clustering of `pmi-router`) plus the
    /// matching [`RoutingTable`]. The shard count is the router's
    /// `num_shards()`; `assignment[i]` must be a valid shard for object
    /// `i`, and every object's mapped point must lie inside its shard's
    /// box (`RoutingTable::from_assignment` guarantees both).
    pub fn build_partitioned_with<E, F>(
        objects: Vec<O>,
        assignment: &[usize],
        router: RoutingTable<O>,
        cfg: &EngineConfig,
        factory: F,
    ) -> Result<Self, EngineError<E>>
    where
        O: Send,
        E: Send,
        F: Fn(usize, Vec<O>) -> Result<Box<dyn MetricIndex<O>>, E> + Sync,
    {
        if cfg.shards == 0 || router.num_shards() == 0 {
            return Err(EngineError::ZeroShards);
        }
        let parts = partition_by_assignment(objects, assignment, router.num_shards());
        let parts = parts.into_iter().map(|p| (p, None)).collect();
        Self::build_parts(parts, Some(router), None, None, cfg, |s, objs, _| {
            factory(s, objs)
        })
    }

    /// [`build_partitioned_with`](Self::build_partitioned_with) over a
    /// [`SharedPivotMatrix`]: the matrix that produced the clustering is
    /// viewed per shard (a [`MatrixSlice`] row-index indirection, no
    /// copying) and handed to each factory, closing the loop of "compute
    /// the pivot-space mapping once, route with it, *and* seed every
    /// shard's pivot table from it". The engine keeps the matrix: the
    /// mutation path pushes one row per routed insert and removes shrink
    /// routing boxes from the surviving rows.
    pub fn build_partitioned_with_matrix<E, F>(
        objects: Vec<O>,
        assignment: &[usize],
        router: RoutingTable<O>,
        matrix: SharedPivotMatrix,
        cfg: &EngineConfig,
        factory: F,
    ) -> Result<Self, EngineError<E>>
    where
        O: Send,
        E: Send,
        F: Fn(usize, Vec<O>, MatrixSlice) -> Result<Box<dyn MetricIndex<O>>, E> + Sync,
    {
        if cfg.shards == 0 || router.num_shards() == 0 {
            return Err(EngineError::ZeroShards);
        }
        assert_eq!(matrix.rows(), objects.len(), "one matrix row per object");
        let parts = partition_by_assignment(objects, assignment, router.num_shards());
        let parts = parts
            .into_iter()
            .map(|(objs, gids)| {
                let slice = MatrixSlice::new(matrix.clone(), gids.clone());
                ((objs, gids), Some(slice))
            })
            .collect();
        Self::build_parts(
            parts,
            Some(router),
            Some(matrix),
            None,
            cfg,
            |s, objs, m| {
                factory(
                    s,
                    objs,
                    m.expect("every partition carries its matrix slice"),
                )
            },
        )
    }

    /// Shared build tail: indexes every partition (in parallel when
    /// configured), wires the locator, attaches the optional router, and
    /// records [`BuildStats`] (wall-clock plus the exact per-shard
    /// construction compdists).
    fn build_parts<E, F>(
        parts: Vec<MatrixPart<O>>,
        router: Option<RoutingTable<O>>,
        matrix: Option<SharedPivotMatrix>,
        insert_mapper: Option<Mapper<O>>,
        cfg: &EngineConfig,
        factory: F,
    ) -> Result<Self, EngineError<E>>
    where
        O: Send,
        E: Send,
        F: Fn(usize, Vec<O>, Option<MatrixSlice>) -> Result<Box<dyn MetricIndex<O>>, E> + Sync,
    {
        let t0 = Instant::now();
        let num_shards = parts.len();
        let n: usize = parts.iter().map(|((objs, _), _)| objs.len()).sum();
        let threads = resolve_threads(cfg.threads);
        let obs = Registry::new();
        // Per-shard build wall: one clock pair per shard build — vanishes
        // entirely when the obs feature is compiled out.
        let timing = obs.is_enabled();
        let mut shard_wall = Hist::new();
        let mut shards_nanos: u64 = 0;
        let built: Vec<Result<Shard<O>, E>> = if threads <= 1 || num_shards == 1 {
            parts
                .into_iter()
                .enumerate()
                .map(|(s, ((objs, gids), m))| {
                    let b0 = timing.then(Instant::now);
                    let r = factory(s, objs, m).map(|idx| Shard::new(idx, gids));
                    if let Some(t) = b0 {
                        let nanos = t.elapsed().as_nanos() as u64;
                        shard_wall.record(nanos);
                        shards_nanos += nanos;
                    }
                    r
                })
                .collect()
        } else {
            // At most `threads` concurrent builders: distribute the shard
            // slots round-robin across worker buckets.
            let factory = &factory;
            let workers = threads.min(num_shards);
            let mut buckets: Vec<Vec<(usize, MatrixPart<O>)>> =
                (0..workers).map(|_| Vec::new()).collect();
            for (s, part) in parts.into_iter().enumerate() {
                buckets[s % workers].push((s, part));
            }
            let mut slots: Vec<Option<Result<Shard<O>, E>>> =
                (0..num_shards).map(|_| None).collect();
            crossbeam::thread::scope(|scope| {
                let handles: Vec<_> = buckets
                    .into_iter()
                    .map(|bucket| {
                        scope.spawn(move |_| {
                            bucket
                                .into_iter()
                                .map(|(s, ((objs, gids), m))| {
                                    let b0 = timing.then(Instant::now);
                                    let r = factory(s, objs, m).map(|idx| Shard::new(idx, gids));
                                    let nanos =
                                        b0.map(|t| t.elapsed().as_nanos() as u64).unwrap_or(0);
                                    (s, r, nanos)
                                })
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                for h in handles {
                    for (s, r, nanos) in h.join().expect("shard build thread panicked") {
                        if timing {
                            shard_wall.record(nanos);
                            shards_nanos += nanos;
                        }
                        slots[s] = Some(r);
                    }
                }
            })
            .expect("shard build scope panicked");
            slots
                .into_iter()
                .map(|r| r.expect("every shard slot built exactly once"))
                .collect()
        };

        let mut shards = Vec::with_capacity(num_shards);
        for b in built {
            shards.push(b.map_err(EngineError::Build)?);
        }

        let locator = Locator::from_members(
            n,
            shards
                .iter()
                .enumerate()
                .map(|(s, shard)| (s, shard.global_ids().iter())),
        );

        let build_stats = BuildStats {
            build_compdists: shards.iter().map(|s| s.counters().compdists).sum(),
            build_wall_secs: t0.elapsed().as_secs_f64(),
        };
        if timing {
            obs.phase_add(
                "build",
                1,
                t0.elapsed().as_nanos() as u64,
                &[("objects", n as u64), ("shards", num_shards as u64)],
            );
            obs.phase_add(
                "build.shards",
                num_shards as u64,
                shards_nanos,
                &[("compdists", build_stats.build_compdists)],
            );
            obs.hist_merge("build.shard_wall", &shard_wall);
            obs.gauge_set("engine.shards", num_shards as u64);
            obs.gauge_set("engine.live_objects", n as u64);
        }

        let shards: Vec<Arc<Shard<O>>> = shards.into_iter().map(Arc::new).collect();
        let cow = shards.iter().all(|s| s.forkable());
        let router = router.map(Arc::new);
        let snap = Arc::new(EngineSnapshot {
            epoch: 0,
            shards: shards.clone(),
            router: router.clone(),
        });
        obs.gauge_set("engine.snapshot_epoch", 0);
        let core = Arc::new(EngineCore {
            threads,
            snap: Mutex::new(snap),
            probed: AtomicU64::new(0),
            pruned: AtomicU64::new(0),
            obs,
            trace: Mutex::new(cfg.trace),
            budget: Mutex::new(cfg.budget),
            faults: cfg.faults,
            quarantine: QuarantineState::new(num_shards),
            validator: Mutex::new(None),
            build: Mutex::new(build_stats),
            updates: Mutex::new(UpdateStats::default()),
            readers: AtomicUsize::new(0),
        });
        Ok(ShardedEngine {
            core,
            shards,
            router,
            cow,
            epoch: 0,
            retired: Vec::new(),
            matrix,
            insert_mapper,
            refresh: cfg.refresh,
            compaction: cfg.compaction,
            partition_seed: cfg.partition_seed,
            locator,
            build_stats,
            update_stats: UpdateStats::default(),
        })
    }

    /// Total live objects across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.len()).sum()
    }

    /// Whether the engine holds no objects.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of shards `P`.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Resolved worker thread count.
    pub fn threads(&self) -> usize {
        self.core.threads
    }

    /// The current shard handles, for inspection. These are the same
    /// `Arc`s the published snapshot holds; [`apply`](Self::apply)
    /// replaces the touched entries at its next commit.
    pub fn shards(&self) -> &[Arc<Shard<O>>] {
        &self.shards
    }

    /// Construction cost of this engine. The engine itself records the
    /// per-shard build compdists and wall-clock; constructors that also pay
    /// for a shared pivot matrix (the `pmi` facade) add that through
    /// [`set_build_stats`](Self::set_build_stats).
    pub fn build_stats(&self) -> BuildStats {
        self.build_stats
    }

    /// Replaces the recorded build cost, for callers that layer extra
    /// construction work (shared matrix, pivot selection) on top of the
    /// engine build proper. The new stats appear in every subsequent
    /// [`ServeReport`], including batches served by concurrent readers.
    pub fn set_build_stats(&mut self, stats: BuildStats) {
        self.build_stats = stats;
        *self.core.build.lock().unwrap_or_else(|e| e.into_inner()) = stats;
    }

    /// Which partitioning regime this engine runs: `PivotSpace` when a
    /// routing table is attached, `RoundRobin` otherwise.
    pub fn policy(&self) -> PartitionPolicy {
        if self.router.is_some() {
            PartitionPolicy::PivotSpace
        } else {
            PartitionPolicy::RoundRobin
        }
    }

    /// The routing table, when pivot-space partitioned.
    pub fn routing(&self) -> Option<&RoutingTable<O>> {
        self.router.as_deref()
    }

    /// The shared pivot-distance matrix the shards adopted (matrix builds
    /// only). Its published snapshot is what readers' shards resolve rows
    /// through; global id == row id.
    pub fn matrix(&self) -> Option<&SharedPivotMatrix> {
        self.matrix.as_ref()
    }

    /// Publication epoch of the current snapshot: 0 at build, +1 per
    /// committed [`apply`](Self::apply) / [`compact`](Self::compact).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Whether this engine supports concurrent snapshot readers — true
    /// when every shard kind can fork (copy-on-write apply). See
    /// [`reader`](Self::reader).
    pub fn supports_readers(&self) -> bool {
        self.cow
    }

    /// A cloneable, thread-safe serving handle over the engine's published
    /// snapshots, or `None` when a shard kind cannot fork (then `apply`
    /// mutates in place and concurrent serving would race it).
    ///
    /// Readers stay valid across any number of `apply` / `compact` calls;
    /// each batch they serve sees exactly one published snapshot.
    pub fn reader(&self) -> Option<EngineReader<O>> {
        if !self.cow {
            return None;
        }
        self.core.readers.fetch_add(1, Ordering::Relaxed);
        Some(EngineReader {
            core: Arc::clone(&self.core),
        })
    }

    /// Retired snapshots still pinned by in-flight reader batches
    /// (diagnostic; swept at each publish).
    pub fn retired_snapshots(&self) -> usize {
        self.retired.len()
    }

    /// Exact `(shards_probed, shards_pruned)` totals since construction or
    /// the last [`reset_counters`](Self::reset_counters): every query adds
    /// its probed shard count to the first and its routed-away shard count
    /// to the second (round-robin engines always add `(P, 0)`).
    pub fn probe_counts(&self) -> (u64, u64) {
        (
            self.core.probed.load(Ordering::Relaxed),
            self.core.pruned.load(Ordering::Relaxed),
        )
    }

    /// Aggregate cost counters: the exact sum of every shard's atomic
    /// counters.
    pub fn counters(&self) -> Counters {
        self.shards
            .iter()
            .fold(Counters::default(), |acc, s| acc + s.counters())
    }

    /// Per-shard counter snapshots, in shard order.
    pub fn shard_counters(&self) -> Vec<Counters> {
        self.shards.iter().map(|s| s.counters()).collect()
    }

    /// The engine's metrics registry — phase walls, counters, histograms
    /// for build/serve/apply/compact. Hand it to [`pmi_obs::Span`] or
    /// record custom metrics against the same snapshot.
    pub fn obs(&self) -> &Registry {
        &self.core.obs
    }

    /// Snapshot of everything the registry has recorded so far. With the
    /// `obs` feature compiled out this is the empty snapshot (`enabled:
    /// false`) — callers need no cfg of their own.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.core.obs.snapshot()
    }

    /// Flips the runtime observability switch. Off (or compiled out), the
    /// serve path performs no clock reads and records nothing; results
    /// and the exact cost counters are identical either way.
    pub fn set_obs_enabled(&self, on: bool) {
        self.core.obs.set_enabled(on);
    }

    /// The current per-query trace capture policy.
    pub fn trace_policy(&self) -> TracePolicy {
        // A panic while holding this lock (a panicking traced query) must
        // not wedge the engine: the data is a Copy policy, always valid.
        self.core.trace_policy()
    }

    /// Swaps the per-query trace capture policy at runtime (takes effect
    /// for the next [`serve`](Self::serve) batch — the policy is read once
    /// per batch, never on the query path). Pass
    /// [`TracePolicy::disabled`] to return the serve loop to its untraced
    /// form; results and exact counters are identical either way.
    pub fn set_trace_policy(&self, policy: TracePolicy) {
        *self.core.trace.lock().unwrap_or_else(|e| e.into_inner()) = policy;
    }

    /// The current serving budgets.
    pub fn serve_budget(&self) -> ServeBudget {
        self.core.serve_budget()
    }

    /// Swaps the serving budgets at runtime (takes effect for the next
    /// [`serve`](Self::serve) batch — budgets are read once per batch,
    /// never on the query path). Pass [`ServeBudget::unlimited`] to return
    /// the serve loop to its unbudgeted form.
    pub fn set_budget(&self, budget: ServeBudget) {
        *self.core.budget.lock().unwrap_or_else(|e| e.into_inner()) = budget;
    }

    /// The engine's shard quarantine policy.
    pub fn fault_policy(&self) -> FaultPolicy {
        self.core.faults
    }

    /// Installs a query/insert object validator: objects it rejects fail
    /// per-item ([`QueryError::InvalidObject`] on serve,
    /// [`OpErrorKind::InvalidObject`](crate::OpErrorKind) on apply)
    /// instead of reaching the shards. The facade's vector builder installs
    /// a finite-coordinates check here.
    pub fn set_query_validator(&mut self, validator: impl Fn(&O) -> bool + Send + Sync + 'static) {
        *self
            .core
            .validator
            .lock()
            .unwrap_or_else(|e| e.into_inner()) = Some(Arc::new(validator));
    }

    /// Per-shard panic/quarantine state, in shard order.
    pub fn fault_states(&self) -> Vec<ShardFaultState> {
        self.core.quarantine.snapshot()
    }

    /// Currently quarantined shards, in shard order.
    pub fn quarantined_shards(&self) -> Vec<usize> {
        self.core
            .quarantine
            .snapshot()
            .into_iter()
            .filter(|s| s.quarantined)
            .map(|s| s.shard)
            .collect()
    }

    /// Clears all quarantine flags and panic counts, returning the number
    /// of shards that were quarantined. Call after fixing (or rebuilding)
    /// whatever made a shard panic; planning immediately resumes probing
    /// every shard. Quarantine state lives beside the snapshot slot, not
    /// inside snapshots, so healing takes effect for the next served batch
    /// — on every reader — without waiting for a publish.
    pub fn heal(&self) -> usize {
        let cleared = self.core.quarantine.heal();
        self.core.obs.gauge_set("engine.quarantined_shards", 0);
        cleared
    }

    /// Resets every shard's counters and the engine's probe counters.
    pub fn reset_counters(&self) {
        for s in &self.shards {
            s.reset_counters();
        }
        self.core.probed.store(0, Ordering::Relaxed);
        self.core.pruned.store(0, Ordering::Relaxed);
    }

    /// Aggregate storage footprint.
    pub fn storage(&self) -> StorageFootprint {
        self.shards
            .iter()
            .fold(StorageFootprint::default(), |acc, s| acc + s.storage())
    }

    /// Configures the page cache on every shard (the paper's 128 KB MkNNQ
    /// cache, applied per shard).
    pub fn set_page_cache(&self, bytes: usize) {
        for s in &self.shards {
            s.set_page_cache(bytes);
        }
    }

    /// Inserts an object, returning its global id — sugar for a one-op
    /// [`apply`](Self::apply) batch. There is exactly one mutation route:
    /// the same transaction stages the pivot row, the destination shard
    /// adopts it by id, the routing box grows to cover it, and the new
    /// snapshot publishes before returning.
    ///
    /// # Panics
    ///
    /// If a validator installed via
    /// [`set_query_validator`](Self::set_query_validator) rejects the
    /// object (use `apply` to observe per-op errors instead).
    pub fn insert(&mut self, o: O) -> ObjId
    where
        O: Clone,
    {
        let mut batch = UpdateBatch::new();
        batch.insert(o);
        let report = self.apply(&batch);
        match report.inserted_ids.first() {
            Some(&gid) => gid,
            None => panic!("insert rejected: {:?}", report.op_errors),
        }
    }

    /// Removes an object by global id; returns whether it was present.
    /// Sugar for a one-op [`apply`](Self::apply) batch, so it shares the
    /// full transactional path — on routed matrix engines the shard's box
    /// shrinks back to the surviving members, preserving pruning power.
    pub fn remove(&mut self, id: ObjId) -> bool
    where
        O: Clone,
    {
        let mut batch = UpdateBatch::new();
        batch.remove(id);
        self.apply(&batch).removes == 1
    }

    /// Lifetime totals of the mutation path.
    pub fn update_stats(&self) -> UpdateStats {
        self.update_stats
    }

    /// Shard and shard-local slot of a live object.
    pub fn locate(&self, id: ObjId) -> Option<(usize, ObjId)> {
        self.locator.get(id)
    }

    /// Applies an ordered batch of inserts and removes through the same
    /// layered path queries use, returning exact accounting.
    ///
    /// * **Inserts** are routed via the routing table (nearest box lower
    ///   bound, smallest shard among ties; round-robin engines pick the
    ///   smallest shard). The object's pivot row is computed **once**,
    ///   pushed into the shared [`SharedPivotMatrix`], and adopted by the
    ///   destination shard by row id — matrix-adopting kinds (LAESA, CPT,
    ///   FQA) pay zero shard-side remap distances.
    /// * **Removes** tombstone the object; after the last op every
    ///   affected shard's routing box is recomputed from its surviving
    ///   members' matrix rows in one pass ([`RoutingTable::shrink`]), so
    ///   pruning does not decay under churn.
    /// * If the batch leaves live counts imbalanced past the
    ///   [`RefreshPolicy`], the worst shard pair is incrementally
    ///   re-clustered: a deterministic 2-means re-split over the members'
    ///   mapped rows, moving only the objects that change side (their
    ///   matrix rows and global ids are preserved; the locator and the
    ///   shards' adopted slices are fixed up).
    ///
    /// Routed answers after any sequence of `apply` calls are identical to
    /// a from-scratch rebuild over the surviving objects — box maintenance
    /// is exact and shard membership never affects correctness.
    ///
    /// Box shrinking and re-clustering need the engine's shared matrix
    /// (any matrix build path — the `pmi` facade always provides it). On
    /// an engine built without one (e.g. [`build_partitioned_with`]
    /// (Self::build_partitioned_with)), `apply` still applies every op
    /// correctly but keeps conservative boxes: `reboxed_shards` and
    /// `reclusters` report 0.
    ///
    /// # Transaction semantics
    ///
    /// The whole batch stages off to the side — forked copies of the
    /// touched shards, a copy-on-write routing table, staged matrix rows —
    /// and commits by publishing one new [`EngineSnapshot`]. Concurrent
    /// [`EngineReader`]s never observe a half-applied batch: a batch
    /// serves either entirely before or entirely after the swap.
    ///
    /// On forkable (copy-on-write) engines `apply` is additionally
    /// **all-or-nothing**: a panic anywhere in staging (a poisoned op, an
    /// injected fault at `engine.apply.stage` / `engine.recluster` /
    /// `engine.apply.publish`) is caught, the staged state is discarded,
    /// and the report comes back with [`aborted`](ApplyReport::aborted)
    /// set — the engine keeps serving the last published snapshot and the
    /// same batch can be retried. On non-forkable kinds the staging panic
    /// propagates (pre-MVCC behavior).
    pub fn apply(&mut self, batch: &UpdateBatch<O>) -> ApplyReport
    where
        O: Clone,
    {
        let t0 = Instant::now();
        let span = Span::enter("apply");
        let copies0 = chunked::copies();
        let mut clock = ObsClock::start(self.core.obs.is_enabled());
        let shard_cd0 = self.counters().compdists;
        let map_cd0 = self.update_stats.map_compdists;
        let validator = self.core.validator();
        let mut txn = self.begin_txn();
        let staged = if txn.cow {
            catch_unwind(AssertUnwindSafe(|| {
                self.stage_batch(batch, validator.as_ref(), &mut txn, &mut clock)
            }))
            .is_ok()
        } else {
            self.stage_batch(batch, validator.as_ref(), &mut txn, &mut clock);
            true
        };
        if !staged {
            // Abort: drop the forked shards and staged rows whole. Nothing
            // was published, so serving (including concurrent readers)
            // continues on the last snapshot, and retrying the batch
            // re-stages it from scratch with the same ids.
            drop(txn);
            if let Some(mx) = &self.matrix {
                mx.discard_staged();
            }
            self.core.obs.counter_add("apply.aborts", 1);
            let mut report = ApplyReport {
                aborted: true,
                ..ApplyReport::default()
            };
            report.wall_secs = t0.elapsed().as_secs_f64();
            span.finish_with(&self.core.obs, &[("aborted", 1)]);
            return report;
        }
        let mut report = std::mem::take(&mut txn.report);
        self.commit_txn(txn);
        let compacted = self.maybe_compact();
        report.compactions = usize::from(compacted > 0);
        report.compacted_rows = compacted as u64;
        self.core.obs.phase_add(
            "apply.compact",
            report.compactions as u64,
            clock.lap(),
            &[("compacted_rows", report.compacted_rows)],
        );
        report.map_compdists = self.update_stats.map_compdists - map_cd0;
        report.shard_compdists = self.counters().compdists - shard_cd0;
        let copied = chunked::copies().since(copies0);
        report.copied_chunks = copied.chunks;
        report.copied_bytes = copied.bytes;
        report.wall_secs = t0.elapsed().as_secs_f64();
        span.finish_with(
            &self.core.obs,
            &[
                ("map_compdists", report.map_compdists),
                ("shard_compdists", report.shard_compdists),
                ("copied_chunks", report.copied_chunks),
                ("copied_bytes", report.copied_bytes),
            ],
        );
        self.core
            .obs
            .gauge_set("engine.live_objects", self.len() as u64);
        report
    }

    /// Opens an apply transaction over the current state.
    ///
    /// Copy-on-write engines stage against `Arc` clones of the published
    /// shards (forked on first touch) plus copies of the bookkeeping: the
    /// routing boxes, and the locator, whose clone shares its chunks
    /// (`O(n / chunk)`). Non-forkable engines take the exclusive
    /// path: the published snapshot is detached (readers cannot exist —
    /// [`reader`](Self::reader) refuses them) and the live state moves
    /// into the transaction to be mutated in place.
    fn begin_txn(&mut self) -> ApplyTxn<O> {
        let n = self.shards.len();
        if self.cow {
            ApplyTxn {
                shards: self.shards.clone(),
                touched: vec![false; n],
                cow: true,
                router: self.router.as_deref().cloned(),
                locator: self.locator.clone(),
                staged: self.staging_matrix(),
                removed: Vec::new(),
                stats: self.update_stats,
                report: ApplyReport::default(),
            }
        } else {
            // Detach the published snapshot so the mirror Arcs become
            // uniquely owned, then move them into the transaction.
            self.retired.clear();
            *self.core.snap.lock().unwrap_or_else(|e| e.into_inner()) = Arc::new(EngineSnapshot {
                epoch: self.epoch,
                shards: Vec::new(),
                router: None,
            });
            debug_assert_eq!(
                self.core.readers.load(Ordering::Relaxed),
                0,
                "non-forkable engines hand out no readers"
            );
            ApplyTxn {
                shards: std::mem::take(&mut self.shards),
                touched: vec![true; n],
                cow: false,
                router: self
                    .router
                    .take()
                    .map(|rt| Arc::try_unwrap(rt).unwrap_or_else(|rt| (*rt).clone())),
                locator: std::mem::take(&mut self.locator),
                staged: self.staging_matrix(),
                removed: Vec::new(),
                stats: self.update_stats,
                report: ApplyReport::default(),
            }
        }
    }

    /// An empty matrix for a transaction's own staged rows (same width and
    /// mode as the shared matrix; width 0 without one).
    fn staging_matrix(&self) -> PivotMatrix {
        match &self.matrix {
            Some(mx) => {
                let m = mx.snapshot();
                PivotMatrix::new(m.width()).with_mode(m.mode())
            }
            None => PivotMatrix::new(0),
        }
    }

    /// Stages a whole batch into `txn`: ops, box shrinking, re-clustering.
    /// Touches no published state (the shared matrix only accumulates
    /// *staged* rows, invisible to readers) — everything it does can be
    /// discarded by dropping the transaction.
    fn stage_batch(
        &self,
        batch: &UpdateBatch<O>,
        validator: Option<&Validator<O>>,
        txn: &mut ApplyTxn<O>,
        clock: &mut ObsClock,
    ) where
        O: Clone,
    {
        let mut mapped = Vec::new();
        // Global ids this batch successfully removed, to tell a duplicate
        // remove apart from a remove of an id that was never live.
        let mut removed_here: HashSet<ObjId> = HashSet::new();
        for (i, op) in batch.ops().iter().enumerate() {
            fault::at("engine.apply.stage", i as u64);
            match op {
                UpdateOp::Insert(o) => {
                    if let Some(v) = validator {
                        if !v(o) {
                            txn.report.op_errors.push(OpError {
                                op: i,
                                kind: OpErrorKind::InvalidObject,
                            });
                            continue;
                        }
                    }
                    let gid = self.stage_insert(txn, o.clone(), &mut mapped);
                    txn.report.inserted_ids.push(gid);
                    txn.report.inserts += 1;
                }
                UpdateOp::Remove(id) => match self.stage_remove(txn, *id) {
                    Some(s) => {
                        txn.removed.push((s, *id));
                        txn.report.removes += 1;
                        removed_here.insert(*id);
                    }
                    None => {
                        txn.report.missing_removes += 1;
                        let kind = if removed_here.contains(id) {
                            OpErrorKind::DuplicateRemove(*id)
                        } else {
                            OpErrorKind::UnknownGid(*id)
                        };
                        txn.report.op_errors.push(OpError { op: i, kind });
                    }
                },
            }
        }
        self.core.obs.phase_add(
            "apply.ops",
            batch.ops().len() as u64,
            clock.lap(),
            &[
                ("inserts", txn.report.inserts as u64),
                ("removes", txn.report.removes as u64),
            ],
        );
        txn.report.reboxed_shards = self.rebox_after_removes(txn);
        self.core.obs.phase_add(
            "apply.rebox",
            1,
            clock.lap(),
            &[("reboxed_shards", txn.report.reboxed_shards as u64)],
        );
        let (reclusters, moved, recluster_reboxed) = self.stage_recluster(txn);
        txn.report.reclusters = reclusters;
        txn.report.moved_objects = moved;
        txn.report.reboxed_shards += recluster_reboxed;
        txn.stats.reclusters += reclusters as u64;
        txn.stats.moved_objects += moved;
        self.core.obs.phase_add(
            "apply.recluster",
            reclusters as u64,
            clock.lap(),
            &[("moved_objects", moved)],
        );
        // The last abortable point: past here the transaction commits.
        fault::at("engine.apply.publish", 0);
    }

    /// Publishes a committed transaction: matrix rows first (staged →
    /// published, adopting shards re-pinned), then the new snapshot in a
    /// single swap.
    fn commit_txn(&mut self, mut txn: ApplyTxn<O>) {
        if let Some(mx) = &self.matrix {
            if mx.has_staged() {
                // The publication copies at most the matrix's tail chunk.
                // Sole-owned shards (this transaction's forks, or every
                // shard on the exclusive path) re-pin the fresh snapshot.
                // Shards still shared with the published snapshot hold
                // only already-published rows, so their older pin — which
                // shares every chunk but the tail — stays valid.
                mx.publish();
                for s in txn.shards.iter_mut() {
                    if let Some(sh) = Arc::get_mut(s) {
                        sh.refresh_rows();
                    }
                }
            }
        }
        self.shards = txn.shards;
        self.router = txn.router.map(Arc::new);
        self.locator = txn.locator;
        self.update_stats = txn.stats;
        *self.core.updates.lock().unwrap_or_else(|e| e.into_inner()) = self.update_stats;
        self.publish_snapshot();
    }

    /// Swaps in a new snapshot of the current mirror state (epoch + 1) and
    /// sweeps retired snapshots no in-flight batch pins anymore.
    fn publish_snapshot(&mut self) {
        self.epoch += 1;
        let next = Arc::new(EngineSnapshot {
            epoch: self.epoch,
            shards: self.shards.clone(),
            router: self.router.clone(),
        });
        let old = std::mem::replace(
            &mut *self.core.snap.lock().unwrap_or_else(|e| e.into_inner()),
            next,
        );
        self.retired.push(old);
        // Epoch-based reclamation, degenerate form: a batch pins its
        // snapshot via the Arc it loaded, so strong_count == 1 proves no
        // reader can still reach it.
        self.retired.retain(|s| Arc::strong_count(s) > 1);
        self.core.obs.gauge_set("engine.snapshot_epoch", self.epoch);
        self.core
            .obs
            .gauge_set("engine.retired_snapshots", self.retired.len() as u64);
    }

    /// The one insert path: map once, stage one shared row, adopt by id.
    fn stage_insert(&self, txn: &mut ApplyTxn<O>, o: O, mapped: &mut Vec<f64>) -> ObjId {
        mapped.clear();
        match (&txn.router, &self.insert_mapper) {
            (Some(rt), _) => rt.map_into(&o, mapped),
            (None, Some(m)) => m(&o, mapped),
            (None, None) => debug_assert!(
                self.matrix.is_none(),
                "a matrix-bearing engine always has a mapper"
            ),
        }
        txn.stats.map_compdists += mapped.len() as u64;
        let si = match &txn.router {
            Some(rt) => {
                // Nearest box lower bound; ties go to the smallest shard,
                // then the lowest shard id.
                let mut best = (f64::INFINITY, usize::MAX, 0usize);
                for (s, b) in rt.boxes().iter().enumerate() {
                    let cand = (b.lower_bound(mapped), txn.shards[s].len());
                    if cand.0 < best.0 || (cand.0 == best.0 && cand.1 < best.1) {
                        best = (cand.0, cand.1, s);
                    }
                }
                best.2
            }
            None => {
                txn.shards
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, s)| s.len())
                    .expect("engine always has at least one shard")
                    .0
            }
        };
        let gid = txn.locator.next_id();
        let local = match &self.matrix {
            Some(mx) => {
                let row = mx.stage_row(mapped);
                debug_assert_eq!(row as ObjId, gid, "global id tracks shared row id");
                txn.staged.push_row(mapped);
                txn.shard_mut(si)
                    .insert_adopted(o, gid, row as ObjId, mapped)
            }
            None => txn.shard_mut(si).insert(o, gid),
        };
        if let Some(rt) = txn.router.as_mut() {
            rt.extend(si, mapped);
        }
        txn.locator.push(si, local);
        txn.stats.inserts += 1;
        gid
    }

    /// The one remove path: tombstone and report the affected shard.
    fn stage_remove(&self, txn: &mut ApplyTxn<O>, id: ObjId) -> Option<usize> {
        let (s, local) = txn.locator.remove(id)?;
        if txn.shard_mut(s).remove_local(local) {
            txn.stats.removes += 1;
            Some(s)
        } else {
            None
        }
    }

    /// Shrinks the staged routing boxes after this batch's removes, exactly
    /// and only where needed. Every staged box is tight over its shard's
    /// members plus this batch's inserts (builds, reboxes and inserts all
    /// keep it tight), so each face is attained by some member. A removed
    /// row strictly inside on every pivot (`lo[j] < x[j] < hi[j]`) attains
    /// no face; if no removed row of a shard lies on a face, the survivors
    /// still attain every face and the tight box is unchanged. Only shards
    /// with a removed face row are recomputed ([`stage_rebox`]). Returns
    /// how many boxes were recomputed.
    ///
    /// [`stage_rebox`]: Self::stage_rebox
    fn rebox_after_removes(&self, txn: &mut ApplyTxn<O>) -> usize {
        let removed = std::mem::take(&mut txn.removed);
        let (Some(rt), Some(mx)) = (txn.router.as_ref(), self.matrix.as_ref()) else {
            return 0;
        };
        let m = mx.snapshot();
        let mut dirty = vec![false; txn.shards.len()];
        for &(s, gid) in &removed {
            dirty[s] = dirty[s] || rt.boxes()[s].on_face(txn.row(&m, gid));
        }
        self.stage_rebox(txn, &dirty)
    }

    /// Recomputes the staged routing boxes of the flagged shards from
    /// their live members' matrix rows — published rows from the matrix
    /// snapshot, rows this batch inserted from the transaction's staging
    /// matrix. Work is bounded by the dirty shards' own slot tables.
    /// Returns how many boxes were recomputed (0 when the engine has no
    /// router or no matrix).
    fn stage_rebox(&self, txn: &mut ApplyTxn<O>, dirty: &[bool]) -> usize {
        if !dirty.iter().any(|&d| d) {
            return 0;
        }
        if txn.router.is_none() {
            return 0;
        }
        let Some(mx) = self.matrix.as_ref() else {
            return 0;
        };
        let m = mx.snapshot();
        let mut reboxed = 0;
        for (s, _) in dirty.iter().enumerate().filter(|&(_, &d)| d) {
            let mut b = Mbb::empty(m.width());
            for (_, gid) in live_members(&txn.shards[s], s, &txn.locator) {
                b.extend(txn.row(&m, gid));
            }
            let rt = txn.router.as_mut().expect("checked above");
            rt.shrink(s, b);
            reboxed += 1;
        }
        reboxed
    }

    /// Incremental re-clustering: when the live counts of the fullest and
    /// emptiest shards trip the [`RefreshPolicy`], their members are
    /// re-split by a deterministic balanced 2-means over mapped rows and
    /// only the objects that changed side move (global ids and matrix rows
    /// stay; locator and boxes are fixed up). Returns
    /// `(passes, moved, boxes recomputed)`.
    fn stage_recluster(&self, txn: &mut ApplyTxn<O>) -> (usize, u64, usize) {
        if txn.router.is_none() || txn.shards.len() < 2 {
            return (0, 0, 0);
        }
        let Some(mx) = self.matrix.clone() else {
            return (0, 0, 0);
        };
        let (mut hi, mut lo) = (0usize, 0usize);
        for (s, shard) in txn.shards.iter().enumerate() {
            if shard.len() > txn.shards[hi].len() {
                hi = s;
            }
            if shard.len() < txn.shards[lo].len() {
                lo = s;
            }
        }
        let (max_len, min_len) = (txn.shards[hi].len(), txn.shards[lo].len());
        if hi == lo || !self.refresh.triggers(max_len, min_len) {
            return (0, 0, 0);
        }
        fault::at("engine.recluster", 0);

        // The pair's live members in ascending global id order (slot
        // tables carry no order guarantee; sorting keeps the re-split
        // deterministic). Only the two shards are walked.
        let mut members: Vec<(ObjId, usize, ObjId)> = Vec::new();
        for s in [hi, lo] {
            for (local, gid) in live_members(&txn.shards[s], s, &txn.locator) {
                members.push((gid, s, local));
            }
        }
        members.sort_unstable_by_key(|&(gid, _, _)| gid);
        // Pair rows, staged-aware: a member inserted by this very batch
        // has no published row yet, so its pivot vector comes from the
        // transaction's staging matrix.
        let m = mx.snapshot();
        let mut pair_rows = PivotMatrix::new(m.width()).with_mode(m.mode());
        for &(gid, _, _) in &members {
            pair_rows.push_row(txn.row(&m, gid));
        }
        let split = pmi_router::assign_pivot_space(&pair_rows, 2, RECLUSTER_SEED);

        // Orient the two clusters onto (hi, lo) so the fewest objects move.
        let stays = |flip: bool| {
            members
                .iter()
                .zip(&split)
                .filter(|((_, s, _), &c)| ((c == 0) != flip) == (*s == hi))
                .count()
        };
        let flip = stays(true) > stays(false);
        let mut moved = 0u64;
        for (i, (&(gid, s, local), &c)) in members.iter().zip(&split).enumerate() {
            let target = if (c == 0) != flip { hi } else { lo };
            if target == s {
                continue;
            }
            let Some(o) = txn.shards[s].get_local(local) else {
                continue;
            };
            txn.shard_mut(s).remove_local(local);
            // The moved object keeps its row id; its distances ride along
            // from the pair's assembled rows.
            let new_local = txn
                .shard_mut(target)
                .insert_adopted(o, gid, gid, pair_rows.row(i));
            txn.locator.set(gid, target, new_local);
            moved += 1;
        }
        let mut reboxed = 0;
        if moved > 0 {
            let mut dirty = vec![false; txn.shards.len()];
            dirty[hi] = true;
            dirty[lo] = true;
            reboxed = self.stage_rebox(txn, &dirty);
        }
        (1, moved, reboxed)
    }

    /// Runs [`compact`](Self::compact) when the dead-row fraction trips
    /// the engine's [`CompactionPolicy`]. Returns the rows dropped.
    fn maybe_compact(&mut self) -> usize {
        let Some(mx) = &self.matrix else { return 0 };
        let total = mx.snapshot().rows();
        let dead = total - self.len();
        if !self.compaction.triggers(dead, total) {
            return 0;
        }
        self.compact()
    }

    /// Compacts the shared pivot matrix under sustained churn — a **major
    /// compaction**, restoring the engine to what a from-scratch rebuild
    /// over the survivors would produce:
    ///
    /// 1. Routed engines first **re-partition** the survivors with the
    ///    same balanced k-means a fresh build runs (churn drifts shard
    ///    membership away from the balanced clustering; probing an
    ///    oversized shard costs extra kernel work on every query).
    ///    Objects that change side move through the normal adopted path —
    ///    matrix-adopting kinds compute no distances for a move.
    /// 2. Every long-tombstoned matrix row is dropped and the survivors
    ///    are renumbered **densely in ascending global-id order**
    ///    (survivor of rank `i` becomes global id — and shared row — `i`,
    ///    exactly the ids a rebuild would assign). The dense matrix is
    ///    installed as the new published snapshot, and every shard is
    ///    remapped: matrix-adopting kinds rebuild their slot tables
    ///    tombstone-free ([`MetricIndex::compact_rows`]), other kinds
    ///    keep their local tombstones and only have their live slots'
    ///    global ids rewritten.
    /// 3. Routed engines recompute every routing box from the final
    ///    membership, so pruning is exactly a fresh build's.
    ///
    /// Serving afterwards is byte-identical — results, compdists,
    /// probe/prune counts — to a rebuild over the survivors with this
    /// membership. **Renumbers global ids**: ids returned by earlier
    /// inserts are invalidated, exactly as a rebuild would. Returns the
    /// number of dead rows dropped (0 on an engine without a shared
    /// matrix, or with nothing dead).
    pub fn compact(&mut self) -> usize {
        let Some(mx) = self.matrix.clone() else {
            return 0;
        };
        debug_assert!(
            !mx.has_staged(),
            "apply publishes at commit; nothing is staged between batches"
        );
        let snap = mx.snapshot();
        let dead = snap.rows() - self.len();
        if dead == 0 {
            return 0;
        }
        // The no-op early returns above record nothing: a `compact` phase
        // in the snapshot always means rows actually moved.
        //
        // Compaction runs as its own transaction and publishes one new
        // engine snapshot at the end. In-flight reader batches keep their
        // old snapshot, whose shards pin the *old* matrix generation — the
        // dense replacement below installs a new `Arc`, so old-id serving
        // stays consistent until the last pinned batch drains.
        let span = Span::enter("compact");
        let mut txn = self.begin_txn();
        // Survivors in ascending (old) global-id order; their rank is the
        // new global id == new shared row id.
        let survivors: Vec<ObjId> = txn.locator.live().map(|(gid, _, _)| gid).collect();

        // (1) Full re-partition of the survivors on routed engines. The
        // movement tombstones this leaves behind are folded away by the
        // dense rebuild below.
        if txn.router.is_some() && txn.shards.len() >= 2 {
            let live_rows = snap.select(&survivors);
            let assignment =
                pmi_router::assign_pivot_space(&live_rows, txn.shards.len(), self.partition_seed);
            for (rank, &gid) in survivors.iter().enumerate() {
                let target = assignment[rank];
                let (s, local) = txn.locator.get(gid).expect("survivors are live");
                if s == target {
                    continue;
                }
                let Some(o) = txn.shards[s].get_local(local) else {
                    continue;
                };
                txn.shard_mut(s).remove_local(local);
                let new_local =
                    txn.shard_mut(target)
                        .insert_adopted(o, gid, gid, live_rows.row(rank));
                txn.locator.set(gid, target, new_local);
            }
        }

        let mut dense = PivotMatrix::new(snap.width()).with_mode(snap.mode());
        let mut keep: Vec<Vec<ObjId>> = vec![Vec::new(); txn.shards.len()];
        let mut rows: Vec<Vec<ObjId>> = vec![Vec::new(); txn.shards.len()];
        let mut shard_of = Vec::with_capacity(survivors.len());
        for (new_gid, &old_gid) in survivors.iter().enumerate() {
            dense.push_row(snap.row(old_gid as usize));
            let (s, local) = txn.locator.get(old_gid).expect("survivors are live");
            keep[s].push(local);
            rows[s].push(new_gid as ObjId);
            shard_of.push(s);
        }
        mx.replace(dense);
        let compacted: Vec<bool> = (0..txn.shards.len())
            .map(|s| txn.shard_mut(s).compact_rows(&keep[s], &rows[s]))
            .collect();
        // Survivor `i` of shard `s` (new global ids ascending) is now at
        // local id `i` after a dense rebuild, or still at `keep[s][i]`
        // where the shard kept its tombstones.
        let mut seen = vec![0usize; txn.shards.len()];
        txn.locator = Locator::default();
        for s in shard_of {
            let i = seen[s];
            seen[s] += 1;
            let local = if compacted[s] { i as ObjId } else { keep[s][i] };
            txn.locator.push(s, local);
        }

        // (3) Tight boxes over the final membership (the staging matrix is
        // empty here — every surviving row is published in the dense
        // matrix under its new id).
        if txn.router.is_some() {
            let dirty = vec![true; txn.shards.len()];
            self.stage_rebox(&mut txn, &dirty);
        }
        txn.stats.compactions += 1;
        txn.stats.compacted_rows += dead as u64;
        self.commit_txn(txn);
        span.finish_with(
            &self.core.obs,
            &[
                ("compacted_rows", dead as u64),
                ("survivors", survivors.len() as u64),
            ],
        );
        self.core
            .obs
            .gauge_set("engine.live_objects", self.len() as u64);
        dead
    }

    /// Fetches a copy of a live object by global id.
    pub fn get(&self, id: ObjId) -> Option<O> {
        let (s, local) = self.locator.get(id)?;
        self.shards[s].get_local(local)
    }

    /// Answers one query by probing shards serially on the calling thread
    /// (the per-worker path of [`serve`](Self::serve)).
    pub fn execute(&self, query: &Query<O>) -> QueryResult {
        self.execute_with(query, &mut EngineScratch::new())
    }

    /// [`execute`](Self::execute) with caller-owned scratch buffers — the
    /// batch-serving hot path. After warmup the only per-query allocation
    /// is the exact-size answer itself.
    ///
    /// Degradation flows through the scratch: [`serve`](Self::serve) arms
    /// the per-query budget once per batch; direct callers run unbudgeted
    /// (budgets are a serve-path contract) but still route around
    /// quarantined shards, so a degraded answer comes back as
    /// `PartialRange`/`PartialKnn` here too.
    pub fn execute_with(&self, query: &Query<O>, scratch: &mut EngineScratch) -> QueryResult {
        let snap = self.core.snapshot();
        self.core.execute_with(&snap, query, scratch)
    }
}

impl<O> EngineCore<O> {
    #[inline]
    fn note_probes(&self, probed: usize, pruned: usize) {
        self.probed.fetch_add(probed as u64, Ordering::Relaxed);
        self.pruned.fetch_add(pruned as u64, Ordering::Relaxed);
    }

    /// Serial one-query path over one snapshot (see
    /// [`ShardedEngine::execute_with`]).
    fn execute_with(
        &self,
        snap: &EngineSnapshot<O>,
        query: &Query<O>,
        scratch: &mut EngineScratch,
    ) -> QueryResult {
        let budget = scratch.ctl.batch_budget;
        scratch.ctl.begin(budget, self.quarantine.any());
        match query {
            Query::Range { q, radius } => {
                let ids = self.range_with(snap, q, *radius, scratch);
                match scratch.ctl.take_degraded() {
                    Some(d) => QueryResult::PartialRange(ids, d),
                    None => QueryResult::Range(ids),
                }
            }
            Query::Knn { q, k } => {
                let nbrs = self.knn_with(snap, q, *k, scratch);
                match scratch.ctl.take_degraded() {
                    Some(d) => QueryResult::PartialKnn(nbrs, d),
                    None => QueryResult::Knn(nbrs),
                }
            }
        }
    }

    /// Plans and probes `MRQ(q, r)` serially through scratch buffers.
    fn range_with(
        &self,
        snap: &EngineSnapshot<O>,
        q: &O,
        radius: f64,
        scratch: &mut EngineScratch,
    ) -> Vec<ObjId> {
        let EngineScratch {
            qs,
            mapped,
            probe,
            ids,
            obs,
            trace,
            ctl,
            lane,
            lanes,
            ..
        } = scratch;
        // Sampled queries pay one extra clock read per phase boundary; the
        // rest see only the plain per-shard probe tally. Traced queries
        // (trace.active) run their own lap timer and per-probe counter
        // snapshots — neither exists on the untraced path.
        let mut clock = ObsClock::start(obs.sampled);
        let mut tclock = ObsClock::start(trace.active);
        let pruned = match &snap.router {
            Some(rt) => {
                rt.map_into(q, mapped);
                rt.range_plan_into(mapped, radius, probe);
                if obs.timing {
                    obs.map_dists += mapped.len() as u64;
                }
                snap.shards.len() - probe.len()
            }
            None => {
                probe.clear();
                probe.extend((*lane..snap.shards.len()).step_by((*lanes).max(1)));
                0
            }
        };
        obs.plan_nanos += clock.lap();
        if trace.active {
            // Per-shard plan verdicts: range planning keeps shard order, so
            // the probe rank is the position in the (ascending) probe set.
            match &snap.router {
                Some(rt) => {
                    let mut next = probe.iter().peekable();
                    let mut rank = 0u32;
                    for (s, b) in rt.boxes().iter().enumerate() {
                        let probed = next.peek() == Some(&&s);
                        let order = if probed {
                            next.next();
                            rank += 1;
                            rank - 1
                        } else {
                            u32::MAX
                        };
                        trace.ring.push(TraceEvent::Plan {
                            shard: s as u32,
                            lower_bound: b.lower_bound(mapped),
                            probed,
                            order,
                        });
                    }
                }
                None => {
                    for s in 0..snap.shards.len() {
                        trace.ring.push(TraceEvent::Plan {
                            shard: s as u32,
                            lower_bound: 0.0,
                            probed: true,
                            order: s as u32,
                        });
                    }
                }
            }
            trace.ring.push(TraceEvent::PlanDone {
                shards: snap.shards.len() as u32,
                probed: probe.len() as u32,
                pruned: pruned as u32,
                map_dists: mapped.len() as u64,
                nanos: tclock.lap(),
            });
        }
        ids.clear();
        let guarded = ctl.armed;
        let mut executed = 0usize;
        for &s in probe.iter() {
            if guarded {
                if self.quarantine.is_quarantined(s) {
                    ctl.skip(DegradeReason::Quarantined);
                    continue;
                }
                if !ctl.allow_probe() {
                    continue;
                }
            }
            // Unconditional plain store: a panic caught by `serve` reads
            // this to attribute itself to the shard under probe.
            ctl.probing = Some(s as u32);
            fault::at("engine.probe", s as u64);
            executed += 1;
            obs.note_probe(s);
            let cd0 = (guarded && ctl.budget.caps_compdists())
                .then(|| snap.shards[s].counters().compdists);
            let tsnap = trace
                .active
                .then(|| (snap.shards[s].counters(), qs.kernel_rows, qs.kernel_blocks));
            snap.shards[s].range_global_into(q, radius, qs, ids);
            if let Some(c0) = cd0 {
                ctl.spent += snap.shards[s].counters().compdists.saturating_sub(c0);
            }
            if obs.sampled {
                obs.note_probe_wall(s, clock.lap());
            }
            if let Some((c0, kr0, kb0)) = tsnap {
                let d = snap.shards[s].counters().since(&c0);
                let kernel_rows = qs.kernel_rows - kr0;
                trace.ring.push(TraceEvent::Scan {
                    shard: s as u32,
                    dists: d.compdists,
                    page_accesses: d.page_accesses(),
                    kernel_rows,
                    kernel_blocks: qs.kernel_blocks - kb0,
                    // The survivor buffer belongs to kernel scans; a tree
                    // shard leaves it untouched from the previous probe.
                    survivors: if kernel_rows > 0 {
                        qs.survivors.len() as u64
                    } else {
                        0
                    },
                    nanos: tclock.lap(),
                });
            }
        }
        // Skipped probes count as neither probed nor pruned: the plan
        // wanted them, the budget (or quarantine) withheld them.
        self.note_probes(executed, pruned);
        // Shards are disjoint partitions: the union is concatenation plus
        // one sort for determinism.
        ids.sort_unstable();
        let out = ids.clone();
        obs.merge_nanos += clock.lap();
        if trace.active {
            trace.ring.push(TraceEvent::Merge {
                results: out.len() as u64,
                nanos: tclock.lap(),
            });
        }
        out
    }

    /// Probes `MkNNQ(q, k)` serially into the scratch's bounded top-k
    /// collector. Routed engines go best-first by box lower bound and skip
    /// every shard whose bound exceeds the current k-th distance (strictly
    /// — an equal bound could still hide an id-tie winner).
    fn knn_with(
        &self,
        snap: &EngineSnapshot<O>,
        q: &O,
        k: usize,
        scratch: &mut EngineScratch,
    ) -> Vec<Neighbor> {
        let EngineScratch {
            qs,
            mapped,
            order,
            nbrs,
            topk,
            obs,
            trace,
            ctl,
            lane,
            lanes,
            ..
        } = scratch;
        topk.reset(k);
        let guarded = ctl.armed;
        let mut clock = ObsClock::start(obs.sampled);
        let mut tclock = ObsClock::start(trace.active);
        match &snap.router {
            Some(rt) => {
                rt.map_into(q, mapped);
                rt.knn_order_into(mapped, order);
                if obs.timing {
                    obs.map_dists += mapped.len() as u64;
                }
                obs.plan_nanos += clock.lap();
                let plan_nanos = tclock.lap();
                let (mut probed, mut pruned) = (0usize, 0usize);
                for (rank, &(s, lb)) in order.iter().enumerate() {
                    if lb > topk.threshold() {
                        pruned += 1;
                        if trace.active {
                            // Best-first order: the rank is both the plan
                            // position and the point where pruning struck.
                            trace.ring.push(TraceEvent::Plan {
                                shard: s as u32,
                                lower_bound: lb,
                                probed: false,
                                order: rank as u32,
                            });
                        }
                        continue;
                    }
                    if guarded {
                        if self.quarantine.is_quarantined(s) {
                            ctl.skip(DegradeReason::Quarantined);
                            continue;
                        }
                        if !ctl.allow_probe() {
                            continue;
                        }
                    }
                    ctl.probing = Some(s as u32);
                    fault::at("engine.probe", s as u64);
                    probed += 1;
                    obs.note_probe(s);
                    let cd0 = (guarded && ctl.budget.caps_compdists())
                        .then(|| snap.shards[s].counters().compdists);
                    let tsnap = trace.active.then(|| {
                        trace.ring.push(TraceEvent::Plan {
                            shard: s as u32,
                            lower_bound: lb,
                            probed: true,
                            order: rank as u32,
                        });
                        (snap.shards[s].counters(), qs.kernel_rows, qs.kernel_blocks)
                    });
                    // Seed the shard scan with the running threshold:
                    // shards are probed in sequence here, so candidates
                    // the merge would reject are never even verified.
                    let seed = topk.threshold();
                    snap.shards[s].knn_into_with(q, k, seed, qs, nbrs, topk);
                    if let Some(c0) = cd0 {
                        ctl.spent += snap.shards[s].counters().compdists.saturating_sub(c0);
                    }
                    if obs.sampled {
                        obs.note_probe_wall(s, clock.lap());
                    }
                    if let Some((c0, kr0, kb0)) = tsnap {
                        let d = snap.shards[s].counters().since(&c0);
                        trace.ring.push(TraceEvent::Scan {
                            shard: s as u32,
                            dists: d.compdists,
                            page_accesses: d.page_accesses(),
                            kernel_rows: qs.kernel_rows - kr0,
                            kernel_blocks: qs.kernel_blocks - kb0,
                            // kNN scans verify through the heap, not the
                            // range survivor buffer.
                            survivors: 0,
                            nanos: tclock.lap(),
                        });
                    }
                }
                if trace.active {
                    trace.ring.push(TraceEvent::PlanDone {
                        shards: order.len() as u32,
                        probed: probed as u32,
                        pruned: pruned as u32,
                        map_dists: mapped.len() as u64,
                        nanos: plan_nanos,
                    });
                }
                self.note_probes(probed, pruned);
            }
            None => {
                obs.plan_nanos += clock.lap();
                if trace.active {
                    trace.ring.push(TraceEvent::PlanDone {
                        shards: snap.shards.len() as u32,
                        probed: snap.shards.len() as u32,
                        pruned: 0,
                        map_dists: 0,
                        nanos: tclock.lap(),
                    });
                }
                let mut probed = 0usize;
                for s in (*lane..snap.shards.len()).step_by((*lanes).max(1)) {
                    if guarded {
                        if self.quarantine.is_quarantined(s) {
                            ctl.skip(DegradeReason::Quarantined);
                            continue;
                        }
                        if !ctl.allow_probe() {
                            continue;
                        }
                    }
                    ctl.probing = Some(s as u32);
                    fault::at("engine.probe", s as u64);
                    probed += 1;
                    obs.note_probe(s);
                    let cd0 = (guarded && ctl.budget.caps_compdists())
                        .then(|| snap.shards[s].counters().compdists);
                    let tsnap = trace.active.then(|| {
                        trace.ring.push(TraceEvent::Plan {
                            shard: s as u32,
                            lower_bound: 0.0,
                            probed: true,
                            order: s as u32,
                        });
                        (snap.shards[s].counters(), qs.kernel_rows, qs.kernel_blocks)
                    });
                    let seed = topk.threshold();
                    snap.shards[s].knn_into_with(q, k, seed, qs, nbrs, topk);
                    if let Some(c0) = cd0 {
                        ctl.spent += snap.shards[s].counters().compdists.saturating_sub(c0);
                    }
                    if obs.sampled {
                        obs.note_probe_wall(s, clock.lap());
                    }
                    if let Some((c0, kr0, kb0)) = tsnap {
                        let d = snap.shards[s].counters().since(&c0);
                        trace.ring.push(TraceEvent::Scan {
                            shard: s as u32,
                            dists: d.compdists,
                            page_accesses: d.page_accesses(),
                            kernel_rows: qs.kernel_rows - kr0,
                            kernel_blocks: qs.kernel_blocks - kb0,
                            survivors: 0,
                            nanos: tclock.lap(),
                        });
                    }
                }
                self.note_probes(probed, 0);
            }
        }
        let out = topk.drain_sorted();
        obs.merge_nanos += clock.lap();
        if trace.active {
            trace.ring.push(TraceEvent::Merge {
                results: out.len() as u64,
                nanos: tclock.lap(),
            });
        }
        out
    }

    /// Exact `MRQ(q, r)` on the calling thread: the serial probe path,
    /// unbudgeted (budgets are a serve-path contract) but routed around
    /// quarantined shards. Returns global ids sorted ascending.
    fn range_query(&self, snap: &EngineSnapshot<O>, q: &O, radius: f64) -> Vec<ObjId> {
        self.range_with(snap, q, radius, &mut self.unbudgeted_scratch())
    }

    /// Exact `MkNNQ(q, k)` on the calling thread (see
    /// [`range_query`](Self::range_query)). Sorted ascending by
    /// `(distance, global id)`.
    fn knn_query(&self, snap: &EngineSnapshot<O>, q: &O, k: usize) -> Vec<Neighbor> {
        self.knn_with(snap, q, k, &mut self.unbudgeted_scratch())
    }

    /// Fresh scratch with the quarantine guard armed and no budget.
    fn unbudgeted_scratch(&self) -> EngineScratch {
        let mut scratch = EngineScratch::new();
        scratch
            .ctl
            .begin(QueryBudget::unlimited(), self.quarantine.any());
        scratch
    }
}

impl<O: Send + Sync> EngineCore<O> {
    /// Up-front validation of one query: the typed error a malformed query
    /// fails with, decided before any shard is touched. Index-level k=0
    /// stays an empty answer (the trait contract); the serve boundary
    /// rejects it so callers notice the likely bug.
    fn validate(&self, validator: Option<&Validator<O>>, query: &Query<O>) -> Option<QueryError> {
        let q = match query {
            Query::Range { q, radius } => {
                if radius.is_nan() {
                    return Some(QueryError::NanRadius);
                }
                if *radius < 0.0 {
                    return Some(QueryError::NegativeRadius);
                }
                q
            }
            Query::Knn { q, k } => {
                if *k == 0 {
                    return Some(QueryError::ZeroK);
                }
                q
            }
        };
        match validator {
            Some(v) if !v(q) => Some(QueryError::InvalidObject),
            _ => None,
        }
    }

    /// How many lanes each query of a batch splits into — the engine's
    /// one scheduling decision, made from what it can observe. A query
    /// splits only on round-robin engines (every query probes every shard,
    /// so lanes divide its work evenly; a router's best-first kNN cutoff
    /// would lose its sequence), with at least
    /// [`SHARD_PARALLEL_MIN_ROWS`] live rows to amortize the extra worker,
    /// no budget and no tracing (their per-query clocks, spending and
    /// trace rings belong to one worker), and enough idle workers for
    /// `min(threads / batch, shards) >= 2` lanes. Otherwise 1: whole
    /// queries per worker.
    fn lanes(
        &self,
        snap: &EngineSnapshot<O>,
        batch_len: usize,
        budget: &ServeBudget,
        tpolicy: &TracePolicy,
    ) -> usize {
        if snap.router.is_some()
            || batch_len == 0
            || budget.enabled()
            || tpolicy.enabled()
            || snap.len() < SHARD_PARALLEL_MIN_ROWS
        {
            return 1;
        }
        (self.threads / batch_len).clamp(1, snap.shards.len())
    }

    /// Serves a batch of mixed queries on the worker pool: each worker
    /// claims `(query, lane)` tasks from a shared atomic cursor, executes
    /// them against the shards the planner selects through its own reused
    /// [`EngineScratch`], and returns its answers; a split query's lane
    /// partials then merge once (see [`lanes`](Self::lanes) for when a
    /// query splits). Returns the answers in batch order plus a
    /// [`ServeReport`] that names the strategy used.
    ///
    /// The report's `cost` is the delta of the aggregate counters across
    /// the batch — exact for everything this engine's shards executed in
    /// the batch window, because every shard counts atomically; the same
    /// holds for `shards_probed` / `shards_pruned`. If the caller runs
    /// *other* queries on the same engine concurrently with this batch
    /// (another `serve`, or single-query calls from another thread), their
    /// cost lands in the same window and is included; serve one batch at a
    /// time for per-batch attribution.
    ///
    /// This is also the failure boundary (`docs/robustness.md`): malformed
    /// queries come back `Failed` with a typed [`QueryError`], budgets
    /// degrade or shed per item rather than erroring, and a panicking
    /// query is contained here while the rest of the batch completes.
    fn serve(&self, snap: &EngineSnapshot<O>, batch: &[Query<O>]) -> BatchOutcome {
        let shard_before: Vec<Counters> = snap.shards.iter().map(|s| s.counters()).collect();
        let before = shard_before
            .iter()
            .fold(Counters::default(), |acc, c| acc + *c);
        let (probed0, pruned0) = (
            self.probed.load(Ordering::Relaxed),
            self.pruned.load(Ordering::Relaxed),
        );
        // One registry read per batch: the runtime switch never sits on the
        // per-query path. Same for the trace policy, the serving budgets,
        // and the query validator — one mutex lock each here, then a
        // per-worker copy (the batch sees one consistent policy even if a
        // setter races it).
        let timing = self.obs.is_enabled();
        let tpolicy = self.trace_policy();
        let budget = self.serve_budget();
        let validator = self.validator();
        let lanes = self.lanes(snap, batch.len(), &budget, &tpolicy);
        let strategy = if lanes > 1 {
            SchedStrategy::ShardParallel
        } else {
            SchedStrategy::QueryParallel
        };
        let tasks = batch.len() * lanes;
        let workers = self.threads.min(tasks).max(1);
        let cursor = AtomicUsize::new(0);
        let t0 = Instant::now();
        // Batch-level admission deadline: once blown, still-unclaimed
        // queries are shed without executing.
        let batch_deadline = (budget.batch_wall_nanos > 0)
            .then(|| t0 + Duration::from_nanos(budget.batch_wall_nanos));

        // Each worker claims tasks from the shared cursor and returns its
        // answered slice plus its private observability state (probe
        // tallies, sampled walls, kernel tally) — plain writes only, folded
        // after the scope joins. Task `t` is lane `t % lanes` of query
        // `t / lanes`.
        let run_worker = || {
            let b0 = timing.then(Instant::now);
            let mut scratch = EngineScratch::new();
            scratch.obs.prepare(snap.shards.len(), timing);
            scratch.trace.prepare(tpolicy);
            scratch.ctl.batch_budget = budget.query;
            scratch.lanes = lanes;
            let mut local = Vec::new();
            let mut served = 0u64;
            loop {
                let t = cursor.fetch_add(1, Ordering::Relaxed);
                if t >= tasks {
                    break;
                }
                let i = t / lanes;
                scratch.lane = t % lanes;
                // Admission control: a blown batch deadline sheds every
                // not-yet-claimed query outright.
                if let Some(d) = batch_deadline {
                    if Instant::now() >= d {
                        local.push((t, QueryResult::Shed, 0));
                        continue;
                    }
                }
                // Malformed queries fail per-item before touching a shard.
                if let Some(e) = self.validate(validator.as_ref(), &batch[i]) {
                    local.push((t, QueryResult::Failed(e), 0));
                    continue;
                }
                // 1-in-OBS_SAMPLE tasks pay the per-segment clock reads.
                scratch.obs.sampled = timing && served.is_multiple_of(OBS_SAMPLE);
                scratch.trace.begin(served);
                served += 1;
                let q0 = Instant::now();
                // Panic isolation: a panicking query is contained here —
                // the scratch buffers are per-query (each query resets the
                // state it reads), so the worker keeps serving.
                let res = catch_unwind(AssertUnwindSafe(|| {
                    self.execute_with(snap, &batch[i], &mut scratch)
                }))
                .unwrap_or_else(|_| {
                    let shard = scratch.ctl.probing.take();
                    // A mid-probe panic leaves the trace ring half-written:
                    // drop the in-flight recording, keep earlier captures.
                    scratch.trace.active = false;
                    if let Some(s) = shard {
                        if self.quarantine.note_panic(s as usize, self.faults) {
                            self.obs.counter_add("serve.quarantines", 1);
                        }
                    }
                    QueryResult::Failed(QueryError::Panicked { shard })
                });
                let ns = q0.elapsed().as_nanos() as u64;
                if timing {
                    scratch.obs.sampled_queries += scratch.obs.sampled as u64;
                }
                if scratch.trace.active {
                    let kind = match &batch[i] {
                        Query::Range { radius, .. } => TraceKind::Range { radius: *radius },
                        Query::Knn { k, .. } => TraceKind::Knn { k: *k },
                    };
                    scratch.trace.finish(i, kind, ns);
                }
                local.push((t, res, ns));
            }
            let (kernel_rows, kernel_blocks) = scratch.qs.take_kernel_tally();
            let mut obs = std::mem::take(&mut scratch.obs);
            if timing {
                obs.kernel_rows += kernel_rows;
                obs.kernel_blocks += kernel_blocks;
                if let Some(t) = b0 {
                    obs.busy_nanos = t.elapsed().as_nanos() as u64;
                }
            }
            (local, obs, std::mem::take(&mut scratch.trace.captured))
        };

        type WorkerOut = (Vec<(usize, QueryResult, u64)>, ScratchObs, Vec<QueryTrace>);
        let collected: Vec<WorkerOut> = if workers <= 1 {
            vec![run_worker()]
        } else {
            crossbeam::thread::scope(|scope| {
                let run_worker = &run_worker;
                let handles: Vec<_> = (0..workers)
                    .map(|_| scope.spawn(move |_| run_worker()))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("serve worker panicked"))
                    .collect()
            })
            .expect("serve scope panicked")
        };

        let wall_nanos = t0.elapsed().as_nanos() as u64;
        let wall_secs = wall_nanos as f64 / 1e9;
        let shard_after: Vec<Counters> = snap.shards.iter().map(|s| s.counters()).collect();
        let cost = shard_after
            .iter()
            .fold(Counters::default(), |acc, c| acc + *c)
            .since(&before);
        let (probed1, pruned1) = (
            self.probed.load(Ordering::Relaxed),
            self.pruned.load(Ordering::Relaxed),
        );

        let mut slots: Vec<Option<(QueryResult, u64)>> = (0..tasks).map(|_| None).collect();
        let mut agg = ScratchObs::default();
        let mut traces: Vec<QueryTrace> = Vec::new();
        for (local, wobs, wtraces) in collected {
            for (t, res, ns) in local {
                slots[t] = Some((res, ns));
            }
            agg.merge(wobs);
            traces.extend(wtraces);
        }
        let mut results = Vec::with_capacity(batch.len());
        let mut nanos = Vec::with_capacity(if timing { 0 } else { batch.len() });
        let mut total_results = 0usize;
        let (mut degraded, mut shed, mut failed) = (0usize, 0usize, 0usize);
        for (query, parts) in batch.iter().zip(slots.chunks_mut(lanes)) {
            let (res, ns) = merge_lanes(query, parts);
            total_results += res.len();
            let executed = match &res {
                QueryResult::PartialRange(..) | QueryResult::PartialKnn(..) => {
                    degraded += 1;
                    true
                }
                QueryResult::Shed => {
                    shed += 1;
                    false
                }
                QueryResult::Failed(e) => {
                    failed += 1;
                    // Validation rejections never ran; contained
                    // panics did and carry a real wall.
                    matches!(e, QueryError::Panicked { .. })
                }
                _ => true,
            };
            // Every executed query's latency lands once, whether it ran
            // whole or split.
            if executed {
                if timing {
                    agg.query_wall.record(ns);
                } else {
                    nanos.push(ns);
                }
            }
            results.push(res);
        }
        // Batch order; the cap is per batch (each worker already respected
        // it individually, the merge enforces it globally).
        traces.sort_by_key(|t| t.query);
        traces.truncate(tpolicy.max_captured);

        // Per-shard breakdown: probe counts and counter deltas are exact
        // regardless of the obs switch; the wall columns come from the
        // 1-in-OBS_SAMPLE timed queries (sums extrapolated, quantiles taken
        // over the raw samples) and stay zero with obs off.
        let per_shard: Vec<ShardServeStats> = (0..snap.shards.len())
            .map(|s| {
                let delta = shard_after[s].since(&shard_before[s]);
                let (wall_secs, p50_secs, p99_secs) = if timing {
                    let (p50, p99) = match agg.shard_samples.get_mut(s) {
                        Some(v) if !v.is_empty() => {
                            v.sort_unstable();
                            (sample_quantile(v, 0.50), sample_quantile(v, 0.99))
                        }
                        _ => (0.0, 0.0),
                    };
                    let sum = agg.shard_nanos.get(s).copied().unwrap_or(0);
                    ((sum * OBS_SAMPLE) as f64 / 1e9, p50, p99)
                } else {
                    (0.0, 0.0, 0.0)
                };
                ShardServeStats {
                    shard: s,
                    probes: agg.probes.get(s).copied().unwrap_or(0),
                    compdists: delta.compdists,
                    page_accesses: delta.page_accesses(),
                    wall_secs,
                    p50_secs,
                    p99_secs,
                }
            })
            .collect();

        let latency = if timing && !agg.query_wall.is_empty() {
            LatencySummary::from_hist(&agg.query_wall)
        } else {
            LatencySummary::from_nanos(nanos)
        };

        if timing {
            // Phase walls for plan/scan/merge cover the sampled queries
            // only; extrapolate by the sampling stride so they read as
            // batch-level estimates next to the exact `serve` wall.
            let idle_nanos = (wall_nanos * workers as u64).saturating_sub(agg.busy_nanos);
            self.obs.phase_add(
                "serve",
                1,
                wall_nanos,
                &[
                    ("queries", batch.len() as u64),
                    ("results", total_results as u64),
                    ("workers", workers as u64),
                    ("shards_probed", probed1 - probed0),
                    ("shards_pruned", pruned1 - pruned0),
                    ("compdists", cost.compdists),
                    ("idle_nanos", idle_nanos),
                ],
            );
            self.obs.phase_add(
                "serve.plan",
                batch.len() as u64,
                agg.plan_nanos * OBS_SAMPLE,
                &[("map_dists", agg.map_dists)],
            );
            self.obs.phase_add(
                "serve.scan",
                agg.probes.iter().sum(),
                agg.scan_nanos * OBS_SAMPLE,
                &[
                    ("kernel_rows", agg.kernel_rows),
                    ("kernel_blocks", agg.kernel_blocks),
                    ("compdists", cost.compdists),
                    ("page_accesses", cost.page_accesses()),
                ],
            );
            self.obs.phase_add(
                "serve.merge",
                batch.len() as u64,
                agg.merge_nanos * OBS_SAMPLE,
                &[],
            );
            self.obs.hist_merge("serve.query_wall", &agg.query_wall);
            self.obs
                .counter_add("serve.sampled_queries", agg.sampled_queries);
        }
        // Robustness counters (the registry gates on its runtime switch
        // and skips zero adds internally).
        self.obs.counter_add("serve.degraded", degraded as u64);
        self.obs.counter_add("serve.shed", shed as u64);
        self.obs.counter_add("serve.failed", failed as u64);
        self.obs.gauge_set(
            "engine.quarantined_shards",
            self.quarantine.quarantined_count() as u64,
        );

        let range_queries = batch.iter().filter(|q| q.is_range()).count();
        let report = ServeReport {
            queries: batch.len(),
            strategy,
            range_queries,
            knn_queries: batch.len() - range_queries,
            total_results,
            degraded,
            shed,
            failed,
            shards: snap.shards.len(),
            threads: workers,
            epoch: snap.epoch,
            wall_secs,
            qps: if wall_secs > 0.0 {
                batch.len() as f64 / wall_secs
            } else {
                0.0
            },
            latency,
            cost,
            shards_probed: probed1 - probed0,
            shards_pruned: pruned1 - pruned0,
            build: *self.build.lock().unwrap_or_else(|e| e.into_inner()),
            updates: *self.updates.lock().unwrap_or_else(|e| e.into_inner()),
            per_shard,
            traces,
        };
        BatchOutcome { results, report }
    }

    /// Drains one queued batch from `queue` through this core (see
    /// [`SubmitQueue`]): pops the oldest admitted batch, sheds it whole if
    /// its queue-wall deadline is blown, otherwise serves it against the
    /// snapshot the caller resolved. Queue depth and outcome counters land
    /// in the engine registry.
    fn pump(&self, snap: &EngineSnapshot<O>, queue: &SubmitQueue<O>) -> PumpOutcome<O> {
        let outcome = queue.pump_one(|batch| self.serve(snap, batch));
        let stats = queue.stats();
        self.obs.gauge_set("engine.queue_depth", stats.depth as u64);
        self.obs.gauge_set("queue.submitted", stats.submitted);
        self.obs.gauge_set("queue.rejected", stats.rejected);
        match &outcome {
            PumpOutcome::Served { .. } => self.obs.counter_add("queue.served", 1),
            PumpOutcome::Shed { .. } => self.obs.counter_add("queue.shed", 1),
            PumpOutcome::Idle => {}
        }
        outcome
    }
}

impl<O: Send + Sync> ShardedEngine<O> {
    /// Serves a batch against the engine's current snapshot. See
    /// [`EngineReader::serve`] for the concurrent form; both run the same
    /// core against one atomically-loaded [`EngineSnapshot`].
    pub fn serve(&self, batch: &[Query<O>]) -> BatchOutcome {
        let snap = self.core.snapshot();
        self.core.serve(&snap, batch)
    }

    /// Metric range query `MRQ(q, r)` against the current snapshot, probed
    /// serially on the calling thread (`serve(&[q])` is the form that may
    /// split a query across workers).
    pub fn range_query(&self, q: &O, radius: f64) -> Vec<ObjId> {
        let snap = self.core.snapshot();
        self.core.range_query(&snap, q, radius)
    }

    /// Metric kNN query `MkNNQ(q, k)` against the current snapshot.
    pub fn knn_query(&self, q: &O, k: usize) -> Vec<Neighbor> {
        let snap = self.core.snapshot();
        self.core.knn_query(&snap, q, k)
    }

    /// Drains one queued batch from `queue` against the current snapshot
    /// (admission control: see [`SubmitQueue`]).
    pub fn pump(&self, queue: &SubmitQueue<O>) -> PumpOutcome<O> {
        let snap = self.core.snapshot();
        self.core.pump(&snap, queue)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmi_metric::{BruteForce, Metric, PivotMatrix, L2};

    fn grid(n: usize) -> Vec<Vec<f32>> {
        (0..n)
            .map(|i| vec![(i % 37) as f32, (i / 37) as f32])
            .collect()
    }

    fn brute_factory(part: Vec<Vec<f32>>) -> Result<Box<dyn MetricIndex<Vec<f32>>>, &'static str> {
        Ok(Box::new(BruteForce::new(part, L2)))
    }

    fn engine(n: usize, shards: usize, threads: usize) -> ShardedEngine<Vec<f32>> {
        ShardedEngine::build_with(
            grid(n),
            &EngineConfig {
                shards,
                threads,
                ..EngineConfig::default()
            },
            |_, part| brute_factory(part),
        )
        .unwrap()
    }

    /// A routed engine over two well-separated 1-d clusters, one pivot at
    /// the origin (mapping = |x|).
    fn routed_two_clusters() -> (Vec<Vec<f32>>, ShardedEngine<Vec<f32>>) {
        let objects: Vec<Vec<f32>> = (0..20)
            .map(|i| {
                if i % 2 == 0 {
                    vec![(i / 2) as f32] // cluster A: 0..10
                } else {
                    vec![100.0 + (i / 2) as f32] // cluster B: 100..110
                }
            })
            .collect();
        let pivot = vec![0.0f32];
        let mapper = move |o: &Vec<f32>, out: &mut Vec<f64>| {
            out.push(L2.dist(o.as_slice(), pivot.as_slice()))
        };
        let mapped = PivotMatrix::from_rows(
            1,
            objects
                .iter()
                .map(|o| [L2.dist(o.as_slice(), [0.0f32].as_slice())]),
        );
        let assignment: Vec<usize> = objects.iter().map(|o| usize::from(o[0] >= 50.0)).collect();
        let router = RoutingTable::from_assignment(mapper, 1, &mapped, &assignment, 2);
        let e = ShardedEngine::build_partitioned_with(
            objects.clone(),
            &assignment,
            router,
            &EngineConfig {
                shards: 2,
                threads: 1,
                ..EngineConfig::default()
            },
            |_, part| brute_factory(part),
        )
        .unwrap();
        (objects, e)
    }

    #[test]
    fn sharded_matches_unsharded() {
        let objects = grid(300);
        let single = BruteForce::new(objects.clone(), L2);
        for shards in [1usize, 2, 4, 7] {
            let e = engine(300, shards, 2);
            assert_eq!(e.len(), 300);
            assert_eq!(e.num_shards(), shards);
            assert_eq!(e.policy(), PartitionPolicy::RoundRobin);
            for qi in [0usize, 17, 299] {
                let mut want = single.range_query(&objects[qi], 5.0);
                want.sort_unstable();
                assert_eq!(e.range_query(&objects[qi], 5.0), want, "P={shards}");
                let want_k = single.knn_query(&objects[qi], 12);
                let got_k = e.knn_query(&objects[qi], 12);
                assert_eq!(got_k.len(), want_k.len());
                for (g, w) in got_k.iter().zip(&want_k) {
                    assert_eq!(g.id, w.id, "P={shards} qi={qi}");
                    assert!((g.dist - w.dist).abs() < 1e-12);
                }
            }
        }
    }

    #[test]
    fn matrix_build_matches_plain_build() {
        // A matrix-adopting factory must see exactly its shard's rows of
        // the shared matrix, viewed in partition order.
        let objects = grid(60);
        let matrix = SharedPivotMatrix::new(PivotMatrix::from_rows(
            2,
            objects.iter().map(|o| [o[0] as f64, o[1] as f64]),
        ));
        let cfg = EngineConfig {
            shards: 4,
            threads: 2,
            ..EngineConfig::default()
        };
        let mapper: Mapper<Vec<f32>> =
            Box::new(|o: &Vec<f32>, out: &mut Vec<f64>| out.extend([o[0] as f64, o[1] as f64]));
        let e = ShardedEngine::build_with_matrix(
            objects.clone(),
            matrix,
            mapper,
            &cfg,
            |_, part, m| {
                assert_eq!(m.len(), part.len());
                assert_eq!(m.width(), 2);
                for (i, o) in part.iter().enumerate() {
                    assert_eq!(m.row(i), &[o[0] as f64, o[1] as f64], "adopted slice");
                }
                brute_factory(part)
            },
        )
        .unwrap();
        let plain = engine(60, 4, 2);
        for qi in [0usize, 30, 59] {
            assert_eq!(
                e.range_query(&objects[qi], 4.0),
                plain.range_query(&objects[qi], 4.0)
            );
        }
    }

    #[test]
    fn apply_batches_update_through_the_shared_path() {
        // A matrix-bearing round-robin engine: inserts push one shared row
        // each (gid == row id), removes tombstone, counters stay exact.
        let objects = grid(30);
        let matrix = SharedPivotMatrix::new(PivotMatrix::from_rows(
            2,
            objects.iter().map(|o| [o[0] as f64, o[1] as f64]),
        ));
        let mapper: Mapper<Vec<f32>> =
            Box::new(|o: &Vec<f32>, out: &mut Vec<f64>| out.extend([o[0] as f64, o[1] as f64]));
        let shared = matrix.clone();
        let mut e = ShardedEngine::build_with_matrix(
            objects.clone(),
            matrix,
            mapper,
            &EngineConfig {
                shards: 3,
                threads: 1,
                ..EngineConfig::default()
            },
            |_, part, _| brute_factory(part),
        )
        .unwrap();
        let mut batch = UpdateBatch::new();
        batch
            .insert(vec![100.0f32, 100.0])
            .remove(7)
            .insert(vec![200.0f32, 200.0])
            .remove(7) // already gone: counted as missing
            .remove(9999); // never existed
        let report = e.apply(&batch);
        assert_eq!(report.inserts, 2);
        assert_eq!(report.removes, 1);
        assert_eq!(report.missing_removes, 2);
        assert_eq!(report.inserted_ids, vec![30, 31]);
        assert_eq!(report.map_compdists, 4, "one 2-wide row per insert");
        assert_eq!(report.shard_compdists, 0, "BruteForce inserts are free");
        assert_eq!(report.reboxed_shards, 0, "no router, nothing to shrink");
        assert_eq!(shared.rows(), 32, "one pushed row per insert");
        assert_eq!(e.len(), 31);
        assert_eq!(e.locate(30), Some((e.locate(30).unwrap().0, 10)));
        assert_eq!(
            e.range_query(&vec![100.0f32, 100.0], 0.5),
            vec![30],
            "inserted object is served"
        );
        assert!(e.range_query(&objects[7], 0.25).is_empty(), "removed");
        let stats = e.update_stats();
        assert_eq!((stats.inserts, stats.removes), (2, 1));
        // The serve report carries the cumulative update totals.
        let out = e.serve(&[Query::range(vec![0.0f32, 0.0], 1.0)]);
        assert_eq!(out.report.updates, stats);
    }

    #[test]
    fn apply_shrinks_boxes_and_restores_pruning() {
        let (objects, mut e) = routed_two_clusters();
        // Stale-path baseline: without a shared matrix apply cannot
        // recompute box extents, so cluster B's box stays at its build
        // extent and a query there still probes shard 1.
        let b_ids: Vec<ObjId> = (0..20).filter(|i| i % 2 == 1).collect();
        let mut batch = UpdateBatch::new();
        for &id in &b_ids[..b_ids.len() - 1] {
            batch.remove(id);
        }
        // routed_two_clusters has no matrix, so apply cannot shrink there —
        // rebuild the same engine with the matrix attached.
        let pivot = vec![0.0f32];
        let mapper = move |o: &Vec<f32>, out: &mut Vec<f64>| {
            out.push(L2.dist(o.as_slice(), pivot.as_slice()))
        };
        let mapped = PivotMatrix::from_rows(
            1,
            objects
                .iter()
                .map(|o| [L2.dist(o.as_slice(), [0.0f32].as_slice())]),
        );
        let assignment: Vec<usize> = objects.iter().map(|o| usize::from(o[0] >= 50.0)).collect();
        let router = RoutingTable::from_assignment(mapper, 1, &mapped, &assignment, 2);
        let mut shrunk = ShardedEngine::build_partitioned_with_matrix(
            objects.clone(),
            &assignment,
            router,
            SharedPivotMatrix::new(mapped),
            &EngineConfig {
                shards: 2,
                threads: 1,
                refresh: RefreshPolicy::disabled(),
                ..EngineConfig::default()
            },
            |_, part, _| brute_factory(part),
        )
        .unwrap();

        // Stale path: legacy removes on the matrix-free engine.
        for &id in &b_ids[..b_ids.len() - 1] {
            assert!(e.remove(id));
        }
        // Maintained path: the same removes through apply.
        let report = shrunk.apply(&batch);
        assert_eq!(report.removes, b_ids.len() - 1);
        assert_eq!(report.reboxed_shards, 1, "only shard 1 lost members");

        // Query around the removed members: the stale box still matches,
        // the shrunk box prunes.
        let q = vec![102.0f32]; // cluster B's low end, removed above
        e.reset_counters();
        let stale_hits = e.range_query(&q, 1.0);
        let (stale_probed, _) = e.probe_counts();
        shrunk.reset_counters();
        let shrunk_hits = shrunk.range_query(&q, 1.0);
        let (shrunk_probed, shrunk_pruned) = shrunk.probe_counts();
        assert_eq!(stale_hits, shrunk_hits, "identical answers either way");
        assert_eq!(stale_probed, 1, "stale box still probes shard 1");
        assert_eq!((shrunk_probed, shrunk_pruned), (0, 2), "shrunk box prunes");
        // The survivor is still found through the shrunk box.
        let survivor = objects[b_ids[b_ids.len() - 1] as usize].clone();
        assert_eq!(
            shrunk.range_query(&survivor, 0.5),
            vec![b_ids[b_ids.len() - 1]]
        );
    }

    #[test]
    fn recluster_rebalances_worst_pair_and_keeps_answers() {
        // Start from two tight clusters, then grow cluster A only: the
        // imbalance trips RefreshPolicy and the pair is re-split.
        let (objects, _) = routed_two_clusters();
        let pivot = vec![0.0f32];
        let mapper = move |o: &Vec<f32>, out: &mut Vec<f64>| {
            out.push(L2.dist(o.as_slice(), pivot.as_slice()))
        };
        let mapped = PivotMatrix::from_rows(
            1,
            objects
                .iter()
                .map(|o| [L2.dist(o.as_slice(), [0.0f32].as_slice())]),
        );
        let assignment: Vec<usize> = objects.iter().map(|o| usize::from(o[0] >= 50.0)).collect();
        let router = RoutingTable::from_assignment(mapper, 1, &mapped, &assignment, 2);
        let mut e = ShardedEngine::build_partitioned_with_matrix(
            objects.clone(),
            &assignment,
            router,
            SharedPivotMatrix::new(mapped),
            &EngineConfig {
                shards: 2,
                threads: 1,
                refresh: RefreshPolicy {
                    max_imbalance: 2.0,
                    min_objects: 10,
                },
                ..EngineConfig::default()
            },
            |_, part, _| brute_factory(part),
        )
        .unwrap();
        // 40 inserts spread across cluster A's neighborhood: all route to
        // shard 0, leaving 50 vs 10.
        let mut batch = UpdateBatch::new();
        for i in 0..40 {
            batch.insert(vec![(i % 12) as f32]);
        }
        let report = e.apply(&batch);
        assert_eq!(report.inserts, 40);
        assert_eq!(report.reclusters, 1, "imbalance trips the policy");
        assert!(report.moved_objects > 0, "the re-split moved objects");
        let lens: Vec<usize> = e.shards().iter().map(|s| s.len()).collect();
        let (max, min) = (*lens.iter().max().unwrap(), *lens.iter().min().unwrap());
        assert!(
            (max as f64) <= 2.0 * min.max(1) as f64,
            "rebalanced under the threshold: {lens:?}"
        );
        // Every object is still served exactly once, with exact answers.
        let single: Vec<Vec<f32>> = (0..e.locator.next_id())
            .filter_map(|gid| e.get(gid))
            .collect();
        assert_eq!(single.len(), e.len());
        let oracle = BruteForce::new(single, L2);
        for q in [vec![3.0f32], vec![105.0f32], vec![11.0f32]] {
            let got = e.knn_query(&q, 5);
            let want = oracle.knn_query(&q, 5);
            for (g, w) in got.iter().zip(&want) {
                assert!((g.dist - w.dist).abs() < 1e-12, "post-recluster kNN");
            }
            assert_eq!(
                e.range_query(&q, 2.0).len(),
                oracle.range_query(&q, 2.0).len(),
                "post-recluster MRQ"
            );
        }
        let stats = e.update_stats();
        assert_eq!(stats.reclusters, 1);
        assert_eq!(stats.moved_objects, report.moved_objects);
    }

    #[test]
    fn compaction_renumbers_and_keeps_serving_exact() {
        // Matrix-bearing round-robin engine over BruteForce shards (the
        // non-adopting fallback: tombstones stay local, gids remap).
        let objects = grid(40);
        let matrix = SharedPivotMatrix::new(PivotMatrix::from_rows(
            2,
            objects.iter().map(|o| [o[0] as f64, o[1] as f64]),
        ));
        let mapper: Mapper<Vec<f32>> =
            Box::new(|o: &Vec<f32>, out: &mut Vec<f64>| out.extend([o[0] as f64, o[1] as f64]));
        let mut e = ShardedEngine::build_with_matrix(
            objects.clone(),
            matrix.clone(),
            mapper,
            &EngineConfig {
                shards: 3,
                threads: 1,
                ..EngineConfig::default()
            },
            |_, part, _| brute_factory(part),
        )
        .unwrap();
        let mut batch = UpdateBatch::new();
        for id in [1u32, 5, 9, 13, 17, 21] {
            batch.remove(id);
        }
        batch.insert(vec![500.0f32, 500.0]);
        let r = e.apply(&batch);
        assert_eq!((r.removes, r.inserts), (6, 1));
        assert_eq!(r.compactions, 0, "default policy never compacts");
        assert_eq!(matrix.rows(), 41, "tombstoned rows still in the matrix");

        // Survivors in ascending old-gid order are the expected new order.
        let survivors: Vec<Vec<f32>> = (0..41u32).filter_map(|g| e.get(g)).collect();
        let dropped = e.compact();
        assert_eq!(dropped, 6, "one dead row per remove");
        assert_eq!(matrix.rows(), 35, "matrix is dense again");
        assert_eq!(e.len(), 35);
        let stats = e.update_stats();
        assert_eq!((stats.compactions, stats.compacted_rows), (1, 6));
        // Ids are now dense 0..35 and every survivor is served under its
        // rank, identical to a fresh engine over the survivors.
        for (new_gid, o) in survivors.iter().enumerate() {
            assert_eq!(e.get(new_gid as u32).as_ref(), Some(o));
            assert_eq!(e.range_query(o, 0.0), vec![new_gid as u32]);
        }
        assert_eq!(e.get(35), None);
        // The next insert takes the next dense id and serving stays exact.
        let gid = e.insert(vec![600.0f32, 600.0]);
        assert_eq!(gid, 35);
        assert_eq!(matrix.rows(), 36);
        assert_eq!(e.range_query(&vec![600.0f32, 600.0], 0.5), vec![35]);
        // compact with nothing dead is a no-op.
        assert_eq!(e.compact(), 0);
    }

    #[test]
    fn compaction_policy_triggers_inside_apply() {
        let objects = grid(32);
        let matrix = SharedPivotMatrix::new(PivotMatrix::from_rows(
            2,
            objects.iter().map(|o| [o[0] as f64, o[1] as f64]),
        ));
        let mapper: Mapper<Vec<f32>> =
            Box::new(|o: &Vec<f32>, out: &mut Vec<f64>| out.extend([o[0] as f64, o[1] as f64]));
        let mut e = ShardedEngine::build_with_matrix(
            objects.clone(),
            matrix.clone(),
            mapper,
            &EngineConfig {
                shards: 2,
                threads: 1,
                compaction: CompactionPolicy {
                    max_dead_fraction: 0.25,
                    min_dead_rows: 4,
                },
                ..EngineConfig::default()
            },
            |_, part, _| brute_factory(part),
        )
        .unwrap();
        let mut batch = UpdateBatch::new();
        for id in 0..12u32 {
            batch.remove(id);
        }
        let r = e.apply(&batch);
        assert_eq!(r.removes, 12);
        assert_eq!(r.compactions, 1, "12/32 dead trips the 25% policy");
        assert_eq!(r.compacted_rows, 12);
        assert_eq!(matrix.rows(), 20);
        assert_eq!(e.len(), 20);
        assert_eq!(e.range_query(&e.get(0).unwrap(), 0.0), vec![0]);
    }

    #[test]
    fn build_stats_record_shard_construction() {
        let e = engine(100, 4, 2);
        let stats = e.build_stats();
        // BruteForce construction computes no distances but the stats must
        // exist and carry a wall-clock.
        assert_eq!(stats.build_compdists, 0);
        assert!(stats.build_wall_secs >= 0.0);
        // Serve copies the stats into the report.
        let out = e.serve(&[Query::range(vec![0.0f32, 0.0], 1.0)]);
        assert_eq!(out.report.build, stats);
    }

    #[test]
    fn zero_shards_is_an_error() {
        let r: Result<ShardedEngine<Vec<f32>>, EngineError<&str>> = ShardedEngine::build_with(
            grid(10),
            &EngineConfig {
                shards: 0,
                threads: 1,
                ..EngineConfig::default()
            },
            |_, part| brute_factory(part),
        );
        assert_eq!(r.err(), Some(EngineError::ZeroShards));
        let msg = format!("{}", EngineError::<&str>::ZeroShards);
        assert!(msg.contains("at least one shard"));
    }

    #[test]
    fn routed_engine_prunes_and_stays_exact() {
        let (objects, e) = routed_two_clusters();
        assert_eq!(e.policy(), PartitionPolicy::PivotSpace);
        let single = BruteForce::new(objects.clone(), L2);

        // Selective range query inside cluster A: shard 1 is pruned.
        let q = vec![3.0f32];
        let mut want = single.range_query(&q, 2.5);
        want.sort_unstable();
        assert_eq!(e.range_query(&q, 2.5), want);
        let (probed, pruned) = e.probe_counts();
        assert_eq!((probed, pruned), (1, 1), "one shard probed, one pruned");

        // kNN inside cluster A: best-first probes shard 0, whose 3 answers
        // (all within distance <= 3) prune shard 1 (lower bound ~90).
        e.reset_counters();
        let got = e.knn_query(&q, 3);
        let want_k = single.knn_query(&q, 3);
        assert_eq!(got.len(), 3);
        for (g, w) in got.iter().zip(&want_k) {
            assert_eq!(g.id, w.id);
            assert!((g.dist - w.dist).abs() < 1e-12);
        }
        let (probed, pruned) = e.probe_counts();
        assert_eq!((probed, pruned), (1, 1));

        // A huge radius must probe both shards and still be exact.
        e.reset_counters();
        let mut want_all = single.range_query(&q, 1000.0);
        want_all.sort_unstable();
        assert_eq!(e.range_query(&q, 1000.0), want_all);
        assert_eq!(e.probe_counts(), (2, 0));

        // Serve reports the probe/prune aggregate exactly.
        e.reset_counters();
        let batch = vec![
            Query::range(vec![3.0f32], 2.5),
            Query::range(vec![105.0f32], 2.5),
            Query::knn(vec![3.0f32], 3),
        ];
        let out = e.serve(&batch);
        assert_eq!(out.report.shards_probed, 3);
        assert_eq!(out.report.shards_pruned, 3);
        assert_eq!(
            out.report.shards_probed + out.report.shards_pruned,
            (batch.len() * e.num_shards()) as u64
        );
    }

    #[test]
    fn scratch_reuse_matches_fresh_execution() {
        let (objects, e) = routed_two_clusters();
        let mut scratch = EngineScratch::new();
        // Interleave query types so every buffer is reused dirty.
        for qi in [0usize, 11, 4, 19] {
            let range = Query::range(objects[qi].clone(), 3.0);
            let knn = Query::knn(objects[qi].clone(), 4);
            assert_eq!(e.execute_with(&range, &mut scratch), e.execute(&range));
            assert_eq!(e.execute_with(&knn, &mut scratch), e.execute(&knn));
        }
    }

    #[test]
    fn routed_insert_routes_and_extends() {
        let (_, mut e) = routed_two_clusters();
        // New object near cluster B must land in shard 1 and widen its box.
        let gid = e.insert(vec![120.0f32]);
        assert_eq!(e.get(gid), Some(vec![120.0f32]));
        e.reset_counters();
        let hits = e.range_query(&vec![120.0f32], 1.0);
        assert_eq!(hits, vec![gid]);
        let (probed, pruned) = e.probe_counts();
        assert_eq!((probed, pruned), (1, 1), "cluster A shard still pruned");
    }

    #[test]
    fn round_robin_counts_all_probes() {
        let e = engine(100, 4, 1);
        e.reset_counters();
        let out = e.serve(&[
            Query::range(vec![0.0f32, 0.0], 2.0),
            Query::knn(vec![1.0f32, 1.0], 3),
        ]);
        assert_eq!(out.report.shards_probed, 8, "2 queries x 4 shards");
        assert_eq!(out.report.shards_pruned, 0);
    }

    #[test]
    fn serve_returns_batch_order_and_exact_counts() {
        let objects = grid(200);
        let e = engine(200, 4, 3);
        e.reset_counters();
        let batch: Vec<Query<Vec<f32>>> = (0..50)
            .map(|i| {
                if i % 2 == 0 {
                    Query::range(objects[i].clone(), 3.0)
                } else {
                    Query::knn(objects[i].clone(), 5)
                }
            })
            .collect();
        let out = e.serve(&batch);
        assert_eq!(out.results.len(), 50);
        assert_eq!(out.report.queries, 50);
        assert_eq!(out.report.range_queries, 25);
        assert_eq!(out.report.knn_queries, 25);
        // Brute force computes n distances per query per shard; the whole
        // dataset is scanned for every query regardless of sharding.
        assert_eq!(out.report.cost.compdists, 50 * 200);
        // Aggregate equals the sum of shard counters.
        let sum: u64 = e.shard_counters().iter().map(|c| c.compdists).sum();
        assert_eq!(e.counters().compdists, sum);
        assert_eq!(sum, 50 * 200);
        // kNN answers carry k neighbors each.
        for (i, r) in out.results.iter().enumerate() {
            match r {
                QueryResult::Range(ids) => {
                    assert!(ids.windows(2).all(|w| w[0] < w[1]), "sorted unique");
                    assert!(ids.contains(&(i as u32)), "query object is a hit");
                }
                QueryResult::Knn(ns) => {
                    assert_eq!(ns.len(), 5);
                    assert_eq!(ns[0].id, i as u32);
                    assert!(ns.windows(2).all(|w| w[0] <= w[1]));
                }
                other => panic!("unbudgeted healthy serve degraded: {other:?}"),
            }
        }
        assert!(out.report.qps > 0.0);
        assert!(out.report.latency.max_secs >= out.report.latency.p50_secs);
    }

    #[test]
    fn updates_preserve_global_ids() {
        let mut e = engine(20, 3, 1);
        let o = e.get(7).expect("live object");
        assert!(e.remove(7));
        assert!(!e.remove(7));
        assert_eq!(e.len(), 19);
        assert!(!e.range_query(&o, 0.0).contains(&7));
        let gid = e.insert(o.clone());
        assert_eq!(gid, 20);
        assert!(e.range_query(&o, 0.0).contains(&gid));
        assert_eq!(e.get(gid), Some(o));
    }

    #[test]
    fn shard_clamp_and_empty_batch() {
        let e = engine(3, 8, 2);
        assert_eq!(e.num_shards(), 3, "shards clamp to n");
        let out = e.serve(&[]);
        assert_eq!(out.results.len(), 0);
        assert_eq!(out.report.queries, 0);
        assert_eq!(out.report.latency, LatencySummary::default());
    }

    #[test]
    fn build_error_propagates() {
        let r: Result<ShardedEngine<Vec<f32>>, EngineError<&str>> = ShardedEngine::build_with(
            grid(10),
            &EngineConfig {
                shards: 2,
                threads: 1,
                ..EngineConfig::default()
            },
            |s, part| {
                if s == 1 {
                    Err("nope")
                } else {
                    brute_factory(part)
                }
            },
        );
        assert_eq!(r.err(), Some(EngineError::Build("nope")));
    }

    #[test]
    fn untraced_serve_captures_nothing() {
        let (objects, e) = routed_two_clusters();
        assert_eq!(e.trace_policy(), TracePolicy::disabled());
        let out = e.serve(&[Query::Range {
            q: objects[0].clone(),
            radius: 2.0,
        }]);
        assert!(out.report.traces.is_empty());
    }

    #[test]
    fn trace_every_query_sums_exactly_to_report() {
        // One worker thread: per-probe counter deltas cannot interleave, so
        // summing the per-trace counters must reproduce the report totals.
        let (objects, e) = routed_two_clusters();
        e.set_trace_policy(TracePolicy::sample(1).with_max_captured(usize::MAX));
        let batch: Vec<Query<Vec<f32>>> = (0..10)
            .map(|i| {
                if i % 2 == 0 {
                    Query::Range {
                        q: objects[i].clone(),
                        radius: 2.0,
                    }
                } else {
                    Query::Knn {
                        q: objects[i].clone(),
                        k: 3,
                    }
                }
            })
            .collect();
        let out = e.serve(&batch);
        let r = &out.report;
        assert_eq!(r.traces.len(), batch.len(), "every query captured");
        for (i, t) in r.traces.iter().enumerate() {
            assert_eq!(t.query, i, "batch order");
            assert!(t.sampled && !t.slow);
        }
        let probed: u64 = r.traces.iter().map(|t| t.shards_probed()).sum();
        let pruned: u64 = r.traces.iter().map(|t| t.shards_pruned()).sum();
        let dists: u64 = r.traces.iter().map(|t| t.compdists()).sum();
        let pages: u64 = r.traces.iter().map(|t| t.page_accesses()).sum();
        let results: u64 = r.traces.iter().map(|t| t.results()).sum();
        assert_eq!(probed, r.shards_probed);
        assert_eq!(pruned, r.shards_pruned);
        assert_eq!(dists, r.cost.compdists);
        assert_eq!(pages, r.cost.page_accesses());
        assert_eq!(results, r.total_results as u64);
        // The two clusters are far apart, so routing pruned something and
        // the explain output shows both verdicts.
        assert!(pruned > 0, "two-cluster routing must prune");
        let rendered = r.traces[0].explain();
        assert!(rendered.contains("probe #0"), "{rendered}");
        assert!(rendered.contains("pruned"), "{rendered}");
    }

    #[test]
    fn slow_query_capture_is_retroactive() {
        let (objects, e) = routed_two_clusters();
        // 1ns threshold: every query qualifies once its wall is known —
        // without being a 1-in-N sample.
        e.set_trace_policy(TracePolicy {
            sample_every: 0,
            slow_query_nanos: 1,
            max_captured: 3,
        });
        let batch: Vec<Query<Vec<f32>>> = (0..8)
            .map(|i| Query::Knn {
                q: objects[i].clone(),
                k: 2,
            })
            .collect();
        let out = e.serve(&batch);
        assert_eq!(out.report.traces.len(), 3, "cap respected");
        for t in &out.report.traces {
            assert!(t.slow && !t.sampled);
            assert!(t.wall_nanos >= 1);
            assert!(t.explain().contains("[slow]"));
        }
        // An impossible threshold captures nothing.
        e.set_trace_policy(TracePolicy {
            sample_every: 0,
            slow_query_nanos: u64::MAX,
            max_captured: 3,
        });
        assert!(e.serve(&batch).report.traces.is_empty());
    }

    #[test]
    fn tracing_changes_no_results() {
        let (objects, e) = routed_two_clusters();
        let batch: Vec<Query<Vec<f32>>> = (0..12)
            .map(|i| {
                if i % 3 == 0 {
                    Query::Range {
                        q: objects[i].clone(),
                        radius: 3.0,
                    }
                } else {
                    Query::Knn {
                        q: objects[i].clone(),
                        k: 4,
                    }
                }
            })
            .collect();
        let plain = e.serve(&batch);
        e.set_trace_policy(TracePolicy::sample(1));
        let traced = e.serve(&batch);
        assert_eq!(plain.results, traced.results);
        assert_eq!(plain.report.shards_probed, traced.report.shards_probed);
        assert_eq!(plain.report.shards_pruned, traced.report.shards_pruned);
        assert_eq!(plain.report.cost, traced.report.cost);
        assert_eq!(
            traced.report.traces.len(),
            TracePolicy::disabled().max_captured
        );
    }

    #[test]
    fn round_robin_traces_probe_every_shard() {
        let e = engine(40, 4, 1);
        e.set_trace_policy(TracePolicy::sample(1).with_max_captured(16));
        let q = grid(40)[7].clone();
        let out = e.serve(&[
            Query::Range {
                q: q.clone(),
                radius: 2.0,
            },
            Query::Knn { q, k: 5 },
        ]);
        assert_eq!(out.report.traces.len(), 2);
        for t in &out.report.traces {
            assert_eq!(t.shards_probed(), 4, "round-robin probes all shards");
            assert_eq!(t.shards_pruned(), 0);
            assert!(t.explain().contains("probed 4/4 shards"));
        }
    }

    use crate::robust::Completeness;

    /// Runs `f` with a panic hook that swallows the intentional
    /// ("injected") panics these tests contain, so the suite's output
    /// stays readable. Serialized: the hook is process-global.
    fn silent_panics<T>(f: impl FnOnce() -> T) -> T {
        static HOOK: Mutex<()> = Mutex::new(());
        let _g = HOOK.lock().unwrap_or_else(|e| e.into_inner());
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .map(|s| s.contains("injected"))
                .or_else(|| {
                    info.payload()
                        .downcast_ref::<&str>()
                        .map(|s| s.contains("injected"))
                })
                .unwrap_or(false);
            if !injected {
                eprintln!("{info}");
            }
        }));
        let out = f();
        std::panic::set_hook(prev);
        out
    }

    /// A shard index whose query paths always panic — the tier-1 stand-in
    /// for a faulty distance function (the feature-gated chaos suite
    /// drives the same machinery through `pmi_metric::fault`).
    struct PanickyIndex {
        inner: Box<dyn MetricIndex<Vec<f32>>>,
    }

    impl MetricIndex<Vec<f32>> for PanickyIndex {
        fn name(&self) -> &str {
            "panicky"
        }
        fn len(&self) -> usize {
            self.inner.len()
        }
        fn range_query(&self, _q: &Vec<f32>, _r: f64) -> Vec<ObjId> {
            panic!("injected: shard range panic")
        }
        fn knn_query(&self, _q: &Vec<f32>, _k: usize) -> Vec<Neighbor> {
            panic!("injected: shard knn panic")
        }
        fn insert(&mut self, o: Vec<f32>) -> ObjId {
            self.inner.insert(o)
        }
        fn remove(&mut self, id: ObjId) -> bool {
            self.inner.remove(id)
        }
        fn get(&self, id: ObjId) -> Option<Vec<f32>> {
            self.inner.get(id)
        }
        fn storage(&self) -> StorageFootprint {
            self.inner.storage()
        }
        fn counters(&self) -> Counters {
            self.inner.counters()
        }
        fn reset_counters(&self) {
            self.inner.reset_counters()
        }
    }

    /// 4-shard round-robin engine, large enough to split single queries,
    /// whose shard 1 panics on every query.
    fn panicky_engine(
        faults: FaultPolicy,
        threads: usize,
    ) -> (Vec<Vec<f32>>, ShardedEngine<Vec<f32>>) {
        let objects = grid(SHARD_PARALLEL_MIN_ROWS);
        let e = ShardedEngine::build_with(
            objects.clone(),
            &EngineConfig {
                shards: 4,
                threads,
                faults,
                ..EngineConfig::default()
            },
            |s, part| {
                let inner = Box::new(BruteForce::new(part, L2)) as Box<dyn MetricIndex<_>>;
                Ok::<_, String>(if s == 1 {
                    Box::new(PanickyIndex { inner }) as Box<dyn MetricIndex<_>>
                } else {
                    inner
                })
            },
        )
        .unwrap();
        (objects, e)
    }

    #[test]
    fn panicking_shard_is_contained_then_quarantined_then_healed() {
        silent_panics(|| {
            let (objects, e) = panicky_engine(
                FaultPolicy {
                    quarantine_after: 2,
                },
                1,
            );
            let batch: Vec<_> = (0..6)
                .map(|i| Query::range(objects[i].clone(), 1.0))
                .collect();
            let out = e.serve(&batch);
            // threads:1 ⇒ deterministic claim order. Queries 0 and 1 panic
            // probing shard 1 and are contained; the second panic trips the
            // quarantine, so queries 2.. route around the shard and come
            // back Partial. The batch as a whole completes.
            assert_eq!(out.results.len(), 6);
            for r in &out.results[..2] {
                assert_eq!(
                    *r,
                    QueryResult::Failed(QueryError::Panicked { shard: Some(1) })
                );
            }
            for r in &out.results[2..] {
                match r {
                    QueryResult::PartialRange(_, d) => {
                        assert_eq!(d.shards_skipped, 1);
                        assert_eq!(d.reason, DegradeReason::Quarantined);
                    }
                    other => panic!("expected Partial after quarantine, got {other:?}"),
                }
            }
            assert_eq!(out.report.failed, 2);
            assert_eq!(out.report.degraded, 4);
            assert_eq!(e.quarantined_shards(), vec![1]);
            let states = e.fault_states();
            assert_eq!(states[1].panics, 2);
            assert!(states[1].quarantined);
            assert!(!states[0].quarantined && !states[2].quarantined);
            // Single-query paths route around the quarantined shard too.
            let ids = e.range_query(&objects[0], 1.0);
            assert!(matches!(
                e.execute(&Query::range(objects[0].clone(), 1.0)),
                QueryResult::PartialRange(ref p, _) if *p == ids
            ));
            let _ = e.knn_query(&objects[0], 3);
            // heal() clears the state and planning probes everything again
            // (so the faulty shard panics anew).
            assert_eq!(e.heal(), 1);
            assert!(e.quarantined_shards().is_empty());
            assert_eq!(e.fault_states()[1].panics, 0);
            let out2 = e.serve(&batch[..1]);
            assert_eq!(
                out2.results[0],
                QueryResult::Failed(QueryError::Panicked { shard: Some(1) })
            );
        });
    }

    #[test]
    fn malformed_queries_fail_per_item() {
        let objects = grid(50);
        let mut e = engine(50, 2, 1);
        e.set_query_validator(|o: &Vec<f32>| o.iter().all(|c| c.is_finite()));
        let valid = Query::range(objects[3].clone(), 2.0);
        let batch = vec![
            Query::range(objects[0].clone(), f64::NAN),
            Query::range(objects[1].clone(), -1.0),
            Query::knn(objects[2].clone(), 0),
            Query::knn(vec![f32::NAN, 0.0], 3),
            valid.clone(),
        ];
        let out = e.serve(&batch);
        assert_eq!(out.results[0], QueryResult::Failed(QueryError::NanRadius));
        assert_eq!(
            out.results[1],
            QueryResult::Failed(QueryError::NegativeRadius)
        );
        assert_eq!(out.results[2], QueryResult::Failed(QueryError::ZeroK));
        assert_eq!(
            out.results[3],
            QueryResult::Failed(QueryError::InvalidObject)
        );
        assert_eq!(out.report.failed, 4);
        assert_eq!(out.report.degraded + out.report.shed, 0);
        // The valid query is identical to a malformed-free serve.
        let clean = e.serve(std::slice::from_ref(&valid));
        assert_eq!(out.results[4], clean.results[0]);
        // +∞ radius stays a *valid* radius: everything matches.
        let all = e.serve(&[Query::range(objects[0].clone(), f64::INFINITY)]);
        assert_eq!(all.results[0].len(), 50);
        // Completeness/error accessors.
        assert_eq!(out.results[0].completeness(), Completeness::Failed);
        assert_eq!(out.results[0].error(), Some(QueryError::NanRadius));
        assert_eq!(clean.results[0].completeness(), Completeness::Exact);
        assert_eq!(clean.results[0].error(), None);
    }

    #[test]
    fn compdist_cap_degrades_to_partial_subset() {
        let objects = grid(200);
        let e = engine(200, 4, 1);
        let batch: Vec<_> = (0..10)
            .map(|i| Query::range(objects[i].clone(), 3.0))
            .collect();
        let exact = e.serve(&batch);
        e.set_budget(ServeBudget {
            query: QueryBudget {
                wall_nanos: 0,
                compdists: 1,
            },
            batch_wall_nanos: 0,
        });
        assert!(e.serve_budget().enabled());
        let capped = e.serve(&batch);
        assert_eq!(capped.report.degraded, 10);
        for (p, x) in capped.results.iter().zip(&exact.results) {
            let QueryResult::PartialRange(ids, d) = p else {
                panic!("expected PartialRange, got {p:?}");
            };
            assert_eq!(d.reason, DegradeReason::CompdistCap);
            assert_eq!(d.shards_skipped, 3, "the first probe spends past the cap");
            let exact_ids = x.as_range().unwrap();
            assert!(
                ids.iter().all(|id| exact_ids.contains(id)),
                "partial range ⊆ exact"
            );
            assert_eq!(
                p.completeness(),
                Completeness::Partial {
                    shards_skipped: 3,
                    reason: DegradeReason::CompdistCap
                }
            );
        }
        // A budget that never binds is exact — and swapping back to
        // unlimited at runtime restores the unguarded path.
        e.set_budget(ServeBudget {
            query: QueryBudget {
                wall_nanos: 0,
                compdists: u64::MAX,
            },
            batch_wall_nanos: 0,
        });
        let huge = e.serve(&batch);
        assert_eq!(huge.results, exact.results);
        assert_eq!(huge.report.degraded, 0);
        e.set_budget(ServeBudget::unlimited());
        assert_eq!(e.serve(&batch).results, exact.results);
    }

    #[test]
    fn deadlines_degrade_and_batch_deadline_sheds() {
        let objects = grid(100);
        let e = engine(100, 4, 1);
        let batch: Vec<_> = (0..8)
            .map(|i| Query::range(objects[i].clone(), 2.0))
            .collect();
        // A 1 ns per-query deadline is blown before the first probe: every
        // query degrades to an empty partial answer (still not an error).
        e.set_budget(ServeBudget {
            query: QueryBudget {
                wall_nanos: 1,
                compdists: 0,
            },
            batch_wall_nanos: 0,
        });
        let out = e.serve(&batch);
        assert_eq!(out.report.degraded, 8);
        for r in &out.results {
            let QueryResult::PartialRange(ids, d) = r else {
                panic!("expected PartialRange, got {r:?}");
            };
            assert!(ids.is_empty());
            assert_eq!(d.reason, DegradeReason::Deadline);
            assert_eq!(d.shards_skipped, 4);
        }
        // A 1 ns *batch* deadline sheds every query without executing it.
        e.set_budget(ServeBudget {
            query: QueryBudget::unlimited(),
            batch_wall_nanos: 1,
        });
        let out = e.serve(&batch);
        assert_eq!(out.report.shed, 8);
        assert!(out.results.iter().all(|r| *r == QueryResult::Shed));
        assert_eq!(out.report.cost.compdists, 0, "no shard was touched");
        assert_eq!(out.results[0].completeness(), Completeness::Shed);
        assert_eq!(out.results[0].len(), 0);
    }

    #[test]
    fn apply_reports_per_op_errors() {
        let mut e = engine(20, 2, 1);
        e.set_query_validator(|o: &Vec<f32>| o.iter().all(|c| c.is_finite()));
        let mut b = UpdateBatch::new();
        b.insert(vec![1.0, 1.0]) // op 0: fine
            .insert(vec![f32::NAN, 0.0]) // op 1: rejected by the validator
            .remove(3) // op 2: fine
            .remove(3) // op 3: duplicate remove
            .remove(999); // op 4: never existed
        let r = e.apply(&b);
        assert_eq!(r.inserts, 1);
        assert_eq!(r.removes, 1);
        assert_eq!(
            r.missing_removes, 2,
            "counts duplicate + unknown, as before"
        );
        assert_eq!(
            r.op_errors,
            vec![
                OpError {
                    op: 1,
                    kind: OpErrorKind::InvalidObject
                },
                OpError {
                    op: 3,
                    kind: OpErrorKind::DuplicateRemove(3)
                },
                OpError {
                    op: 4,
                    kind: OpErrorKind::UnknownGid(999)
                },
            ]
        );
        assert_eq!(e.len(), 20);
        assert!(format!("{r}").contains("op errors: 3"));
        // An all-valid batch reports no errors.
        let mut ok = UpdateBatch::new();
        ok.insert(vec![2.0, 2.0]).remove(5);
        assert!(e.apply(&ok).op_errors.is_empty());
    }

    #[test]
    fn split_serving_matches_serial_and_brute_force() {
        let n = SHARD_PARALLEL_MIN_ROWS;
        let objects = grid(n);
        let oracle = BruteForce::new(objects.clone(), L2);
        // Lattice points tie in rings (4 neighbours at 1, 4 at √2, ...), so
        // k = 3 and k = 7 both cut through a tie at the k-th place.
        let queries: Vec<Query<Vec<f32>>> = [0usize, 1000, 2222, n - 1]
            .iter()
            .flat_map(|&i| {
                let q = objects[i].clone();
                [
                    Query::range(q.clone(), 2.5),
                    Query::knn(q.clone(), 3),
                    Query::knn(q, 7),
                ]
            })
            .collect();
        let exact = |query: &Query<Vec<f32>>| match query {
            Query::Range { q, radius } => {
                let mut ids = oracle.range_query(q, *radius);
                ids.sort_unstable();
                QueryResult::Range(ids)
            }
            Query::Knn { q, k } => QueryResult::Knn(oracle.knn_query(q, *k)),
        };
        for shards in [3usize, 5, 8] {
            for threads in [2usize, 3, 4] {
                let e = engine(n, shards, threads);
                for query in &queries {
                    let out = e.serve(std::slice::from_ref(query));
                    let r = &out.report;
                    assert_eq!(r.strategy, SchedStrategy::ShardParallel);
                    assert_eq!(r.threads, threads.min(shards), "one worker per lane");
                    assert_eq!((r.shards_probed, r.shards_pruned), (shards as u64, 0));
                    assert!(r.per_shard.iter().all(|s| s.probes == 1));
                    assert_eq!(out.results[0], e.execute(query), "P={shards} T={threads}");
                    assert_eq!(out.results[0], exact(query), "P={shards} T={threads}");
                }
            }
        }

        // One quarantined shard: every lane routes around it and the merged
        // partial answer is the serial path's, byte for byte.
        let e = engine(n, 5, 3);
        e.core.quarantine.note_panic(
            2,
            FaultPolicy {
                quarantine_after: 1,
            },
        );
        let in_live_shard = |id: &ObjId| e.locate(*id).is_some_and(|(s, _)| s != 2);
        for query in &queries {
            let out = e.serve(std::slice::from_ref(query));
            assert_eq!(out.report.strategy, SchedStrategy::ShardParallel);
            assert_eq!((out.report.shards_probed, out.report.shards_pruned), (4, 0));
            let serial = e.execute(query);
            assert_eq!(out.results[0], serial);
            let skipped = Degraded {
                shards_skipped: 1,
                reason: DegradeReason::Quarantined,
            };
            match (query, &serial) {
                (Query::Range { .. }, QueryResult::PartialRange(ids, d)) => {
                    assert_eq!(*d, skipped);
                    let want = exact(query);
                    let want: Vec<ObjId> = want
                        .as_range()
                        .unwrap()
                        .iter()
                        .copied()
                        .filter(in_live_shard)
                        .collect();
                    assert_eq!(*ids, want);
                }
                (Query::Knn { q, k }, QueryResult::PartialKnn(nbrs, d)) => {
                    assert_eq!(*d, skipped);
                    let mut want: Vec<Neighbor> = (0..n as ObjId)
                        .filter(in_live_shard)
                        .map(|id| Neighbor::new(id, L2.dist(q, &objects[id as usize])))
                        .collect();
                    want.sort_unstable();
                    want.truncate(*k);
                    assert_eq!(*nbrs, want);
                }
                other => panic!("expected a quarantine partial, got {other:?}"),
            }
        }
    }

    #[test]
    fn shard_parallel_follows_the_lane_rule() {
        let one = &[Query::range(vec![0.0f32, 0.0], 1.0)];
        let strategy =
            |e: &ShardedEngine<Vec<f32>>, batch: &[Query<Vec<f32>>]| e.serve(batch).report.strategy;

        // Narrow batch, round-robin, above the row threshold: split.
        let e = engine(SHARD_PARALLEL_MIN_ROWS, 4, 4);
        let out = e.serve(one);
        assert_eq!(out.report.strategy, SchedStrategy::ShardParallel);
        assert!(format!("{}", out.report).contains("shard-parallel scheduling"));
        let two: Vec<_> = (0..2).map(|_| one[0].clone()).collect();
        let out = e.serve(&two);
        assert_eq!(out.report.strategy, SchedStrategy::ShardParallel);
        assert_eq!(out.report.threads, 4, "2 queries x 2 lanes");
        // As wide as the pool, or fewer than two lanes to give: whole
        // queries.
        let wide: Vec<_> = (0..4).map(|_| one[0].clone()).collect();
        assert_eq!(strategy(&e, &wide), SchedStrategy::QueryParallel);
        assert_eq!(
            strategy(&e, &wide[..3]),
            SchedStrategy::QueryParallel,
            "4 / 3 = 1 lane"
        );
        let serial = engine(SHARD_PARALLEL_MIN_ROWS, 4, 1);
        assert_eq!(strategy(&serial, one), SchedStrategy::QueryParallel);
        let fused = engine(SHARD_PARALLEL_MIN_ROWS, 1, 4);
        assert_eq!(strategy(&fused, one), SchedStrategy::QueryParallel);

        // Small: a lane cannot amortize its worker.
        let small = engine(SHARD_PARALLEL_MIN_ROWS - 1, 4, 4);
        assert_eq!(strategy(&small, one), SchedStrategy::QueryParallel);

        // A budget or tracing pins whole queries; lifting it splits again.
        e.set_budget(ServeBudget {
            query: QueryBudget {
                wall_nanos: u64::MAX / 4,
                compdists: 0,
            },
            batch_wall_nanos: 0,
        });
        assert_eq!(strategy(&e, one), SchedStrategy::QueryParallel);
        e.set_budget(ServeBudget::unlimited());
        e.set_trace_policy(TracePolicy::slow(1.0));
        assert_eq!(strategy(&e, one), SchedStrategy::QueryParallel);
        e.set_trace_policy(TracePolicy::disabled());
        assert_eq!(strategy(&e, one), SchedStrategy::ShardParallel);

        // Routed: the best-first kNN cutoff needs one probe sequence.
        let objects = grid(SHARD_PARALLEL_MIN_ROWS);
        let origin = vec![0.0f32, 0.0];
        let mapper = move |o: &Vec<f32>, out: &mut Vec<f64>| {
            out.push(L2.dist(o.as_slice(), origin.as_slice()))
        };
        let mapped = PivotMatrix::from_rows(
            1,
            objects
                .iter()
                .map(|o| [L2.dist(o.as_slice(), [0.0f32, 0.0].as_slice())]),
        );
        let assignment: Vec<usize> = (0..objects.len()).map(|i| i % 2).collect();
        let router = RoutingTable::from_assignment(mapper, 1, &mapped, &assignment, 2);
        let routed = ShardedEngine::build_partitioned_with(
            objects,
            &assignment,
            router,
            &EngineConfig {
                shards: 2,
                threads: 4,
                ..EngineConfig::default()
            },
            |_, part| brute_factory(part),
        )
        .unwrap();
        assert_eq!(strategy(&routed, one), SchedStrategy::QueryParallel);
    }

    #[test]
    fn split_query_panics_are_attributed_and_quarantine() {
        silent_panics(|| {
            let (objects, e) = panicky_engine(
                FaultPolicy {
                    quarantine_after: 2,
                },
                2,
            );
            let q = Query::range(objects[0].clone(), 1.0);
            // Shard 1 sits in lane 1 of 2; its panic is attributed there
            // and counts toward the quarantine like any claim-loop panic.
            for call in 1..=2u32 {
                let out = e.serve(std::slice::from_ref(&q));
                assert_eq!(out.report.strategy, SchedStrategy::ShardParallel);
                assert_eq!(
                    out.results[0],
                    QueryResult::Failed(QueryError::Panicked { shard: Some(1) })
                );
                assert_eq!(out.report.failed, 1);
                assert_eq!(e.fault_states()[1].panics, call);
            }
            assert_eq!(e.quarantined_shards(), vec![1]);
            // Quarantined: both lanes route around shard 1, exactly as the
            // serial path does.
            let out = e.serve(std::slice::from_ref(&q));
            assert_eq!(out.report.strategy, SchedStrategy::ShardParallel);
            assert_eq!(out.results[0], e.execute(&q));
            let QueryResult::PartialRange(_, d) = &out.results[0] else {
                panic!("expected a quarantine partial, got {:?}", out.results[0]);
            };
            assert_eq!(d.shards_skipped, 1);
            assert_eq!(d.reason, DegradeReason::Quarantined);
        });
    }
}
