//! The three workloads and the inputs each generates from its seed.

use pivot_metric_repro::{datasets, ColumnMode, IndexKind, Metric, PartitionPolicy, Query};

/// Queries per served batch.
pub const BATCH: usize = 256;
/// The paper's default k.
pub const K: usize = 20;
/// Range radius selectivity: 0.1% of the corpus per query.
pub const SELECTIVITY: f64 = 0.001;
/// Operations per side of a bulk commit (inserts, and as many removes).
pub const BULK_OPS: usize = 256;
/// Small commits per bulk commit in the closed-loop commit phase of the
/// serve workloads (enough bulk commits per run for a steady rate).
pub const SMALL_PER_BULK: usize = 8;
/// Open-loop small-commit period, in microseconds. At 10 ms a one-pair
/// commit beside the reader kept the writer 60-80% busy on a 2-vCPU host,
/// and in some runs the backlog grew without bound; 20 ms keeps it about
/// half busy or less.
pub const SMALL_EVERY_US: u64 = 20_000;
/// Open-loop bulk-commit period, in microseconds.
pub const BULK_EVERY_US: u64 = 250_000;
/// Share of a serve workload's run spent serving; commits take the rest.
pub const SERVE_SHARE: f64 = 0.6;
/// Share of each serving round spent on batches; single queries take the
/// rest.
pub const BATCH_SHARE: f64 = 0.55;

/// Serving rounds in a run of `secs` seconds: about one per second.
pub fn rounds(secs: f64) -> usize {
    (secs.round() as usize).max(1)
}

/// Pivots per engine: the paper's default.
pub const PIVOTS: usize = 5;
/// Engine build seed. Fixed: only the inputs depend on `--seed`.
pub const BUILD_SEED: u64 = 42;
/// Seed of the dataset generator. Fixed: every run of a workload serves
/// the same corpus, so pivot selection, partitioning and the paper cost
/// per query do not move between seeds (sampling the corpus per seed
/// moved `compdists_per_query` by 15% through the pivots alone). `--seed`
/// picks the queries and the commit stream.
pub const DATA_SEED: u64 = 2017;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Data {
    /// LA: 2-d points, L2.
    La,
    /// Color: 282-d vectors, L1.
    Color,
}

/// One workload: the corpus, the engine shape, and the traffic.
#[derive(Clone, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub data: Data,
    pub n: usize,
    pub kind: IndexKind,
    pub policy: PartitionPolicy,
    pub shards: usize,
    pub column_mode: ColumnMode,
    pub threads: usize,
    /// Distinct queries, cycled through by the serve loops.
    pub pool: usize,
    /// Timed builds per run, at least; `setup_s` is their median.
    pub setups: usize,
    /// Timed builds continue until this much set-up time has passed.
    pub setup_secs: f64,
    /// Queries checked against the brute-force oracle.
    pub gate_queries: usize,
    /// Objects outside the corpus, inserted first; later inserts reuse
    /// objects that commits removed.
    pub fresh: usize,
    /// Read beside an open-loop writer instead of serve-then-commit.
    pub churn: bool,
}

pub const NAMES: [&str; 3] = ["la-serve", "color-serve", "la-churn"];

impl Spec {
    /// The workload called `name`; `smoke` shrinks it to run in seconds.
    pub fn named(name: &str, smoke: bool) -> Option<Spec> {
        let mut spec = match name {
            "la-serve" => Spec {
                name: "la-serve",
                data: Data::La,
                n: 262_144,
                kind: IndexKind::Laesa,
                policy: PartitionPolicy::PivotSpace,
                shards: 8,
                column_mode: ColumnMode::F32,
                threads: 2,
                pool: 16_384,
                setups: 3,
                setup_secs: 2.0,
                gate_queries: 64,
                fresh: 16_384,
                churn: false,
            },
            "color-serve" => Spec {
                name: "color-serve",
                data: Data::Color,
                n: 16_384,
                kind: IndexKind::Mvpt,
                policy: PartitionPolicy::RoundRobin,
                shards: 4,
                column_mode: ColumnMode::F64,
                threads: 2,
                pool: 2048,
                setups: 5,
                setup_secs: 2.0,
                gate_queries: 64,
                fresh: 16_384,
                churn: false,
            },
            "la-churn" => Spec {
                name: "la-churn",
                data: Data::La,
                n: 65_536,
                kind: IndexKind::Laesa,
                policy: PartitionPolicy::PivotSpace,
                shards: 8,
                column_mode: ColumnMode::F32,
                threads: 1,
                pool: 8192,
                setups: 5,
                setup_secs: 2.0,
                gate_queries: 64,
                fresh: 16_384,
                churn: true,
            },
            _ => return None,
        };
        if smoke {
            spec.n /= 32;
            spec.pool = 512;
            spec.setups = 2;
            spec.setup_secs = 0.0;
            spec.gate_queries = 16;
            spec.fresh = 1024;
        }
        Some(spec)
    }

    /// The largest distance the metric can return, for the build options.
    pub fn d_plus(&self) -> f64 {
        match self.data {
            Data::La => 14143.0,
            Data::Color => 510.0 * datasets::COLOR_DIM as f64,
        }
    }
}

/// Everything a run feeds the engine, made from the seed alone.
pub struct Inputs {
    /// The corpus the engine is built over; ids are positions.
    pub objects: Vec<Vec<f32>>,
    /// Not-yet-inserted objects from the same distribution, consumed in
    /// order by commits.
    pub fresh: Vec<Vec<f32>>,
    /// The query pool: even positions are range queries, odd are kNN.
    pub queries: Vec<Query<Vec<f32>>>,
    pub radius: f64,
}

impl Inputs {
    pub fn generate<M: Metric<Vec<f32>>>(spec: &Spec, metric: &M, seed: u64) -> Inputs {
        let total = spec.n + spec.fresh;
        let mut objects = match spec.data {
            Data::La => datasets::la(total, DATA_SEED),
            Data::Color => datasets::color(total, DATA_SEED),
        };
        let mut fresh = objects.split_off(spec.n);
        // One radius per corpus: the 0.1% quantile estimate is too noisy to
        // recalibrate per seed (it swung range-query cost by half between
        // seeds).
        let radius = datasets::calibrate_radius(&objects, metric, SELECTIVITY, DATA_SEED);
        let mut rng = SplitMix(seed ^ 0x0051_5545_5259);
        // Fisher-Yates: the seed decides the order inserts arrive in.
        for i in (1..fresh.len()).rev() {
            fresh.swap(i, rng.below(i + 1));
        }
        let queries = (0..spec.pool)
            .map(|i| {
                let q = objects[rng.below(objects.len())].clone();
                if i % 2 == 0 {
                    Query::range(q, radius)
                } else {
                    Query::knn(q, K)
                }
            })
            .collect();
        Inputs {
            objects,
            fresh,
            queries,
            radius,
        }
    }

    /// The `b`-th batch of the pool (the pool is a whole number of
    /// batches, so batches cycle).
    pub fn batch(&self, b: usize) -> &[Query<Vec<f32>>] {
        let batches = (self.queries.len() / BATCH).max(1);
        let start = (b % batches) * BATCH;
        &self.queries[start..(start + BATCH).min(self.queries.len())]
    }
}

/// A small deterministic generator for the benchmark's own choices
/// (which objects become queries, which live ids are removed).
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (n > 0).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pivot_metric_repro::L2;

    #[test]
    fn inputs_repeat_per_seed_and_mix_query_kinds() {
        let spec = Spec::named("la-churn", true).unwrap();
        let a = Inputs::generate(&spec, &L2, 3);
        let b = Inputs::generate(&spec, &L2, 3);
        assert_eq!(a.objects, b.objects);
        assert_eq!(a.fresh, b.fresh);
        assert_eq!(a.radius, b.radius);
        assert_eq!(a.queries.len(), spec.pool);
        assert!(matches!(a.queries[0], Query::Range { .. }));
        assert!(matches!(a.queries[1], Query::Knn { k: K, .. }));
        assert_eq!(a.batch(0).len(), BATCH);
        assert_eq!(a.batch(spec.pool / BATCH).as_ptr(), a.batch(0).as_ptr());
        let c = Inputs::generate(&spec, &L2, 4);
        assert_eq!(a.objects, c.objects, "one corpus per workload");
        assert_ne!(a.fresh, c.fresh, "the seed orders the inserts");
        let qa: Vec<_> = a.queries.iter().map(|q| format!("{q:?}")).collect();
        let qc: Vec<_> = c.queries.iter().map(|q| format!("{q:?}")).collect();
        assert_ne!(qa, qc, "the seed picks the queries");
    }

    #[test]
    fn every_name_resolves() {
        for name in NAMES {
            let spec = Spec::named(name, false).unwrap();
            assert_eq!(spec.pool % BATCH, 0, "{name}");
        }
        assert!(Spec::named("nope", false).is_none());
    }
}
