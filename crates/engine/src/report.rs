//! Serving metrics: throughput, latency percentiles, aggregate cost.

use pmi_metric::Counters;
use pmi_obs::{Hist, QueryTrace};

/// Latency distribution of a served batch, from a monotonic clock
/// (`std::time::Instant`), in seconds.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LatencySummary {
    /// Arithmetic mean.
    pub mean_secs: f64,
    /// Best observed latency.
    pub min_secs: f64,
    /// Median (50th percentile).
    pub p50_secs: f64,
    /// 90th percentile.
    pub p90_secs: f64,
    /// 99th percentile.
    pub p99_secs: f64,
    /// 99.9th percentile — the tail the MVCC work will be judged on.
    pub p999_secs: f64,
    /// Worst observed latency.
    pub max_secs: f64,
}

impl LatencySummary {
    /// Summarizes per-query latencies given in nanoseconds. Uses the
    /// nearest-rank method; an empty input yields all zeros. This is the
    /// sort-based exact path used when observability is off; with it on,
    /// the engine summarizes the merged per-worker histogram via
    /// [`LatencySummary::from_hist`] and never sorts.
    pub fn from_nanos(mut nanos: Vec<u64>) -> Self {
        if nanos.is_empty() {
            return LatencySummary::default();
        }
        nanos.sort_unstable();
        let n = nanos.len();
        let pick = |p: f64| -> f64 {
            let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
            nanos[rank - 1] as f64 * 1e-9
        };
        let sum: u128 = nanos.iter().map(|&x| x as u128).sum();
        LatencySummary {
            mean_secs: sum as f64 * 1e-9 / n as f64,
            min_secs: nanos[0] as f64 * 1e-9,
            p50_secs: pick(0.50),
            p90_secs: pick(0.90),
            p99_secs: pick(0.99),
            p999_secs: pick(0.999),
            max_secs: nanos[n - 1] as f64 * 1e-9,
        }
    }

    /// Summarizes a latency histogram without sorting anything: mean, min,
    /// and max are exact; percentiles carry the histogram's sub-bucket
    /// resolution (< 1/32 relative error). An empty histogram yields all
    /// zeros.
    pub fn from_hist(h: &Hist) -> Self {
        if h.is_empty() {
            return LatencySummary::default();
        }
        LatencySummary {
            mean_secs: h.mean_secs(),
            min_secs: h.min_secs(),
            p50_secs: h.quantile(0.50),
            p90_secs: h.quantile(0.90),
            p99_secs: h.quantile(0.99),
            p999_secs: h.quantile(0.999),
            max_secs: h.max_secs(),
        }
    }
}

/// Per-shard serving breakdown for one batch: exact probe and cost
/// accounting always, probe-wall timing when observability is enabled
/// (zeros otherwise). This is what makes shard skew — the P=8 round-robin
/// straggler — visible in a [`ServeReport`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ShardServeStats {
    /// Shard index.
    pub shard: usize,
    /// Exact probes this shard served in the batch.
    pub probes: u64,
    /// Exact distance computations the probes cost (per-shard atomic
    /// counter delta).
    pub compdists: u64,
    /// Exact page accesses (reads + writes) the probes cost.
    pub page_accesses: u64,
    /// Total probe wall-clock attributed to this shard, seconds
    /// (0 with observability off).
    pub wall_secs: f64,
    /// Median probe wall (0 with observability off).
    pub p50_secs: f64,
    /// 99th-percentile probe wall (0 with observability off).
    pub p99_secs: f64,
}

/// What building a [`ShardedEngine`](crate::ShardedEngine) cost: exact
/// distance computations and wall-clock. The engine records the per-shard
/// construction cost itself; the `pmi` facade adds the shared
/// pivot-distance matrix cost on top, so the ~2× build-distance saving of
/// the shared-matrix path is visible and regression-testable.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct BuildStats {
    /// Distance computations spent building the engine: the shared pivot
    /// matrix (computed once) plus every shard's own construction cost.
    pub build_compdists: u64,
    /// Wall-clock duration of the whole build, seconds.
    pub build_wall_secs: f64,
}

/// Lifetime totals of the engine's unified mutation path
/// ([`ShardedEngine::apply`](crate::ShardedEngine::apply) and the
/// single-op wrappers), copied into every [`ServeReport`] so serving
/// dashboards see the churn the engine has absorbed. Every counter is
/// exact; none is reset by [`reset_counters`](crate::ShardedEngine::reset_counters).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct UpdateStats {
    /// Objects inserted since construction.
    pub inserts: u64,
    /// Objects removed since construction.
    pub removes: u64,
    /// Distance computations spent mapping inserts into pivot space
    /// (exactly one `l`-wide matrix row per mapped insert).
    pub map_compdists: u64,
    /// Objects moved between shards by incremental re-clustering.
    pub moved_objects: u64,
    /// Re-clustering passes run.
    pub reclusters: u64,
    /// Shared-matrix compactions run (dead rows dropped, ids renumbered).
    pub compactions: u64,
    /// Dead matrix rows dropped by compaction in total.
    pub compacted_rows: u64,
}

/// How a [`serve`](crate::ShardedEngine::serve) batch was scheduled onto
/// the worker pool. The engine chooses per batch from what it can observe
/// (no option selects it): a query splits into lanes only on round-robin
/// engines of at least 4096 live rows, with no budget and no tracing, when
/// the pool has at least two idle workers per query.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum SchedStrategy {
    /// Workers claim whole queries; each worker probes all of its query's
    /// planned shards itself. The default: with enough queries to go
    /// around it keeps every worker busy with zero cross-thread merge.
    #[default]
    QueryParallel,
    /// Each query splits into `lanes = min(threads / batch, shards)`
    /// tasks; lane `j` probes the shards `s` with `s % lanes == j`, and the
    /// lane partials merge once per query.
    ShardParallel,
}

impl SchedStrategy {
    /// Human-readable label (`"query-parallel"` / `"shard-parallel"`).
    pub fn label(&self) -> &'static str {
        match self {
            SchedStrategy::QueryParallel => "query-parallel",
            SchedStrategy::ShardParallel => "shard-parallel",
        }
    }
}

/// What a call to [`ShardedEngine::serve`](crate::ShardedEngine::serve)
/// measured: batch shape, wall-clock throughput, latency percentiles, and
/// the paper's cost metrics aggregated across every shard.
#[derive(Clone, Debug, Default)]
pub struct ServeReport {
    /// Total queries in the batch.
    pub queries: usize,
    /// How the batch was scheduled onto workers (see [`SchedStrategy`]).
    pub strategy: SchedStrategy,
    /// How many were range queries.
    pub range_queries: usize,
    /// How many were kNN queries.
    pub knn_queries: usize,
    /// Total result objects returned across the batch.
    pub total_results: usize,
    /// Queries that returned a partial (degraded) answer — a budget cut
    /// their shard probes short or a quarantined shard was routed around.
    pub degraded: usize,
    /// Queries shed by batch-level admission control without executing.
    pub shed: usize,
    /// Queries that failed validation or panicked (see each
    /// `QueryResult::Failed` for the typed error).
    pub failed: usize,
    /// Number of shards in the engine (actual probes are in
    /// `shards_probed` — routed queries touch a subset).
    pub shards: usize,
    /// Worker threads used.
    pub threads: usize,
    /// Publication epoch of the [`EngineSnapshot`](crate::EngineSnapshot)
    /// the whole batch was served against — every query in a batch sees one
    /// consistent snapshot, so two batches reporting the same epoch saw
    /// byte-identical engine state.
    pub epoch: u64,
    /// Wall-clock duration of the whole batch, seconds.
    pub wall_secs: f64,
    /// Queries per second (`queries / wall_secs`).
    pub qps: f64,
    /// Per-query latency distribution.
    pub latency: LatencySummary,
    /// Aggregate cost of the batch: the sum over shards of the per-shard
    /// counter deltas (`compdists`, page reads/writes). Exact — every shard
    /// counts through atomic counters.
    pub cost: Counters,
    /// Exact number of shard probes executed across the batch (a query
    /// touching 3 of 8 shards adds 3). Round-robin engines always probe
    /// `queries × shards`.
    pub shards_probed: u64,
    /// Exact number of shard probes avoided by pivot-space routing across
    /// the batch (the same query adds 5). Always 0 for round-robin engines.
    pub shards_pruned: u64,
    /// Construction cost of the serving engine (copied from
    /// [`ShardedEngine::build_stats`](crate::ShardedEngine::build_stats),
    /// identical across batches).
    pub build: BuildStats,
    /// Cumulative mutation totals (copied from
    /// [`ShardedEngine::update_stats`](crate::ShardedEngine::update_stats)
    /// at serve time).
    pub updates: UpdateStats,
    /// Per-shard breakdown of the batch, indexed by shard. Probe and cost
    /// counts are exact regardless of the observability switch; the wall
    /// fields need it on.
    pub per_shard: Vec<ShardServeStats>,
    /// Per-query traces captured under the engine's
    /// [`TracePolicy`](pmi_obs::TracePolicy), in batch order — empty with
    /// the default (disabled) policy. Render one with
    /// [`QueryTrace::explain`].
    pub traces: Vec<QueryTrace>,
}

impl ServeReport {
    /// Fraction of shard-probe candidates the router skipped
    /// (`pruned / (probed + pruned)`); 0 when nothing was counted.
    pub fn prune_rate(&self) -> f64 {
        let total = self.shards_probed + self.shards_pruned;
        if total == 0 {
            0.0
        } else {
            self.shards_pruned as f64 / total as f64
        }
    }
}

impl std::fmt::Display for ServeReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{} queries ({} range, {} kNN) on {} shard(s) x {} thread(s), {} scheduling, snapshot epoch {}",
            self.queries,
            self.range_queries,
            self.knn_queries,
            self.shards,
            self.threads,
            self.strategy.label(),
            self.epoch
        )?;
        writeln!(
            f,
            "  wall {:.4}s  throughput {:.0} q/s  results {}",
            self.wall_secs, self.qps, self.total_results
        )?;
        writeln!(
            f,
            "  latency mean {:.1}us  min {:.1}us  p50 {:.1}us  p90 {:.1}us  p99 {:.1}us  p999 {:.1}us  max {:.1}us",
            self.latency.mean_secs * 1e6,
            self.latency.min_secs * 1e6,
            self.latency.p50_secs * 1e6,
            self.latency.p90_secs * 1e6,
            self.latency.p99_secs * 1e6,
            self.latency.p999_secs * 1e6,
            self.latency.max_secs * 1e6
        )?;
        for s in &self.per_shard {
            writeln!(
                f,
                "  shard {}: {} probes  {} compdists  {} page accesses  wall {:.4}s  p50 {:.1}us  p99 {:.1}us",
                s.shard,
                s.probes,
                s.compdists,
                s.page_accesses,
                s.wall_secs,
                s.p50_secs * 1e6,
                s.p99_secs * 1e6
            )?;
        }
        writeln!(
            f,
            "  routing: {} shard probes, {} pruned ({:.1}% skipped)",
            self.shards_probed,
            self.shards_pruned,
            self.prune_rate() * 100.0
        )?;
        writeln!(
            f,
            "  cost: {} compdists, {} page accesses",
            self.cost.compdists,
            self.cost.page_accesses()
        )?;
        writeln!(
            f,
            "  build: {} compdists in {:.3}s",
            self.build.build_compdists, self.build.build_wall_secs
        )?;
        write!(
            f,
            "  updates: {} inserted, {} removed, {} moved by {} re-cluster(s)",
            self.updates.inserts,
            self.updates.removes,
            self.updates.moved_objects,
            self.updates.reclusters
        )?;
        if self.degraded + self.shed + self.failed > 0 {
            write!(
                f,
                "\n  robustness: {} degraded, {} shed, {} failed",
                self.degraded, self.shed, self.failed
            )?;
        }
        if !self.traces.is_empty() {
            write!(f, "\n  traces: {} captured", self.traces.len())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_latencies_are_zero() {
        let s = LatencySummary::from_nanos(Vec::new());
        assert_eq!(s, LatencySummary::default());
    }

    #[test]
    fn percentiles_nearest_rank() {
        // 1..=100 microseconds.
        let nanos: Vec<u64> = (1..=100).map(|i| i * 1_000).collect();
        let s = LatencySummary::from_nanos(nanos);
        assert!((s.p50_secs - 50e-6).abs() < 1e-12);
        assert!((s.p90_secs - 90e-6).abs() < 1e-12);
        assert!((s.p99_secs - 99e-6).abs() < 1e-12);
        assert!((s.max_secs - 100e-6).abs() < 1e-12);
        assert!((s.mean_secs - 50.5e-6).abs() < 1e-12);
    }

    #[test]
    fn single_sample() {
        // n=1: every rank clamps to the only sample.
        let s = LatencySummary::from_nanos(vec![2_000]);
        assert!((s.mean_secs - 2e-6).abs() < 1e-12);
        assert!((s.min_secs - 2e-6).abs() < 1e-12);
        assert!((s.p50_secs - 2e-6).abs() < 1e-12);
        assert!((s.p99_secs - 2e-6).abs() < 1e-12);
        assert!((s.p999_secs - 2e-6).abs() < 1e-12);
        assert!((s.max_secs - 2e-6).abs() < 1e-12);
    }

    #[test]
    fn all_equal_ties() {
        let s = LatencySummary::from_nanos(vec![5_000; 97]);
        for v in [
            s.mean_secs,
            s.min_secs,
            s.p50_secs,
            s.p90_secs,
            s.p99_secs,
            s.p999_secs,
            s.max_secs,
        ] {
            assert!((v - 5e-6).abs() < 1e-12);
        }
    }

    #[test]
    fn mean_survives_u64_scale_sums() {
        // Two samples near u64::MAX would wrap a u64 accumulator; the u128
        // sum keeps the mean exact.
        let big = u64::MAX - 1;
        let s = LatencySummary::from_nanos(vec![big, big]);
        assert!((s.mean_secs - big as f64 * 1e-9).abs() / s.mean_secs < 1e-12);
        assert_eq!(s.min_secs, s.max_secs);
    }

    #[test]
    fn p999_separates_the_tail() {
        // 999 fast samples and one slow one: p99 stays fast, p999 finds it.
        let mut nanos = vec![1_000u64; 999];
        nanos.push(1_000_000);
        let s = LatencySummary::from_nanos(nanos);
        assert!((s.p99_secs - 1e-6).abs() < 1e-12);
        assert!((s.p999_secs - 1e-6).abs() < 1e-12, "rank 999 is still fast");
        assert!((s.max_secs - 1e-3).abs() < 1e-12);
        // With 1000 slow-tail samples in 10_000, p999 crosses into the tail.
        let mut nanos = vec![1_000u64; 9_000];
        nanos.extend(std::iter::repeat_n(1_000_000, 1_000));
        let s = LatencySummary::from_nanos(nanos);
        assert!((s.p999_secs - 1e-3).abs() < 1e-12);
    }

    #[test]
    fn from_hist_matches_from_nanos_envelope() {
        let mut h = pmi_obs::Hist::new();
        let nanos: Vec<u64> = (1..=1000).map(|i| i * 997).collect();
        for &v in &nanos {
            h.record(v);
        }
        let exact = LatencySummary::from_nanos(nanos);
        let approx = LatencySummary::from_hist(&h);
        // Exact side fields agree exactly; quantiles within sub-bucket error.
        assert!((approx.mean_secs - exact.mean_secs).abs() < 1e-15);
        assert_eq!(approx.min_secs, exact.min_secs);
        assert_eq!(approx.max_secs, exact.max_secs);
        for (a, e) in [
            (approx.p50_secs, exact.p50_secs),
            (approx.p90_secs, exact.p90_secs),
            (approx.p99_secs, exact.p99_secs),
            (approx.p999_secs, exact.p999_secs),
        ] {
            assert!((a - e).abs() / e < 1.0 / 32.0, "approx {a} vs exact {e}");
        }
        assert_eq!(
            LatencySummary::from_hist(&pmi_obs::Hist::new()),
            LatencySummary::default()
        );
    }

    #[test]
    fn report_displays() {
        let r = ServeReport {
            queries: 10,
            range_queries: 4,
            knn_queries: 6,
            shards: 2,
            threads: 3,
            wall_secs: 0.5,
            qps: 20.0,
            shards_probed: 15,
            shards_pruned: 5,
            ..ServeReport::default()
        };
        let s = format!("{r}");
        assert!(s.contains("10 queries"));
        assert!(s.contains("2 shard"));
        assert!(s.contains("15 shard probes"));
        assert!(s.contains("5 pruned"));
        assert!(s.contains("25.0% skipped"));
        // The robustness line only appears when something went wrong.
        assert!(!s.contains("robustness:"));
        let r = ServeReport {
            degraded: 2,
            shed: 1,
            failed: 3,
            ..ServeReport::default()
        };
        assert!(format!("{r}").contains("robustness: 2 degraded, 1 shed, 3 failed"));
    }

    #[test]
    fn prune_rate_handles_zero() {
        assert_eq!(ServeReport::default().prune_rate(), 0.0);
        let r = ServeReport {
            shards_probed: 3,
            shards_pruned: 1,
            ..ServeReport::default()
        };
        assert!((r.prune_rate() - 0.25).abs() < 1e-12);
    }
}
