//! One run of one workload: set-up, serving, commits, the correctness
//! gate and, when traced, the layer ledger.

use crate::gate;
use crate::host;
use crate::ledger::{self, ReplayScratch, SetupLayers};
use crate::stats::{mean, median, quantile, Spans};
use crate::workload::*;
use pivot_metric_repro::{
    build_sharded_vector_engine, ApplyReport, BatchOutcome, BuildOptions, EngineConfig, IndexKind,
    Metric, ObjId, PartitionPolicy, Query, ShardedEngine, UpdateBatch,
};
use std::time::{Duration, Instant};

type Engine = ShardedEngine<Vec<f32>>;
type Q = Query<Vec<f32>>;

pub struct Settings {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Corrupt one answer before the final gate (the gate's own test).
    pub plant_wrong_answer: bool,
}

/// A named measurement with its unit.
pub struct Value {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

#[derive(Default)]
pub struct Outcome {
    pub metrics: Vec<Value>,
    pub attempted: u64,
    pub failed: u64,
    /// The first correctness failure, if any.
    pub error: Option<String>,
    /// Human-readable ledger and accounting lines.
    pub lines: Vec<String>,
    pub spans: Option<Spans>,
}

impl Outcome {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Value { name, value, unit });
    }

    fn fail(&mut self, err: String) {
        self.error.get_or_insert(err);
    }
}

/// Ops attempted and ops that did not complete exactly: degraded, shed
/// or failed queries, aborted commits and per-op errors.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn batch(&mut self, out: &BatchOutcome) {
        self.attempted += out.results.len() as u64;
        self.failed += (out.report.degraded + out.report.shed + out.report.failed) as u64;
    }

    fn commit(&mut self, ops: usize, report: &ApplyReport) {
        self.attempted += ops as u64;
        self.failed += if report.aborted {
            ops as u64
        } else {
            (report.op_errors.len() + report.missing_removes) as u64
        };
    }

    fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

fn options(spec: &Spec) -> BuildOptions {
    BuildOptions {
        num_pivots: PIVOTS,
        d_plus: spec.d_plus(),
        seed: BUILD_SEED,
        column_mode: spec.column_mode,
        ..BuildOptions::default()
    }
}

fn config(spec: &Spec) -> EngineConfig {
    EngineConfig {
        shards: spec.shards,
        threads: spec.threads,
        ..EngineConfig::default()
    }
}

/// Runs `spec` once; `Outcome::error` is set if any answer was wrong.
pub fn run<M>(spec: &Spec, metric: M, set: &Settings) -> Outcome
where
    M: Metric<Vec<f32>> + Clone + Send + Sync + 'static,
{
    let inputs = Inputs::generate(spec, &metric, set.seed);
    let mut out = Outcome::default();
    let mut tally = Tally::default();
    let mut spans = Spans::new();
    out.lines.push(format!(
        "inputs: {} objects, {} queries in the pool, range radius {} ({} selectivity), k {}",
        inputs.objects.len(),
        inputs.queries.len(),
        inputs.radius,
        SELECTIVITY,
        K
    ));

    // Set-up: pivot selection plus engine build. The first build only
    // warms the process up (allocator, page faults, CPU clocks after
    // idling); timed builds follow until there are `spec.setups` of them
    // and `spec.setup_secs` have passed.
    let mut walls = Vec::new();
    let mut layers: Vec<SetupLayers> = Vec::new();
    let mut built = None;
    let setup0 = Instant::now();
    for rep in 0.. {
        if rep > spec.setups && setup0.elapsed().as_secs_f64() >= spec.setup_secs {
            break;
        }
        drop(built.take());
        if set.trace && rep > 0 {
            layers.push(ledger::setup_layers(
                &inputs.objects,
                &metric,
                spec.shards,
                spec.threads,
                BUILD_SEED,
                &mut spans,
                rep as u64,
            ));
        }
        let objects = inputs.objects.clone();
        let t = Instant::now();
        let engine = build_sharded_vector_engine(
            spec.kind,
            objects,
            metric.clone(),
            &options(spec),
            &config(spec),
            spec.policy,
        )
        .expect("every workload configuration builds");
        let e = Instant::now();
        if rep > 0 {
            spans.push("setup.build", spans.at(t), spans.at(e), None, rep as u64);
            walls.push((e - t).as_secs_f64());
        }
        built = Some(engine);
    }
    let mut engine = built.expect("at least one set-up");
    let setup_rss = (host::rss_mb(), host::peak_rss_mb());

    // An untimed pass over the query pool gives the warm-up, the exact
    // paper cost and the first correctness gate; serving its first
    // batches again must cost exactly as much.
    let gate_n = spec.gate_queries.min(BATCH).min(inputs.queries.len());
    let (cd1, first) = pool_pass(&engine, &inputs, inputs.queries.len() / BATCH, &mut tally);
    let (cd2, _) = pool_pass(&engine, &inputs, cd1.len().min(4), &mut tally);
    if cd1[..cd2.len()] != cd2[..] {
        out.fail(format!(
            "compdists differ between two serves of the same batches: {:?} vs {cd2:?}",
            &cd1[..cd2.len()]
        ));
    }
    let cd1: u64 = cd1.iter().sum();
    let ids: Vec<ObjId> = (0..inputs.objects.len() as ObjId).collect();
    let want = gate::oracle(
        inputs.objects.clone(),
        &ids,
        metric.clone(),
        &inputs.queries[..gate_n],
    );
    if let Err(e) = gate::check("after set-up, batch", &first[..gate_n], &want) {
        out.fail(e);
    }

    let secs = set.seconds;
    let pivots = layers.last().map(|l| l.pivots.clone()).unwrap_or_default();
    let off_path_map = |o: &Vec<f32>, buf: &mut Vec<f64>| {
        buf.extend(pivots.iter().map(|p| metric.dist(o, p)));
    };
    let mut writer = Writer::new(&inputs.objects, &inputs.fresh, set.seed);
    let ticks0 = host::cpu_ticks();
    let (samples, commits) = if spec.churn {
        let r = churn(
            &mut engine,
            &inputs,
            &mut writer,
            secs,
            &mut tally,
            set.trace.then_some(&mut spans),
            &off_path_map,
        );
        if set.trace {
            serve_ledger(
                &engine, &inputs, spec, &metric, &layers, &mut spans, &mut out,
            );
        }
        r
    } else {
        let t0 = Instant::now();
        let samples = serve_loop(
            |b: &[Q]| engine.serve(b),
            &inputs,
            t0,
            t0 + Duration::from_secs_f64(SERVE_SHARE * secs),
            rounds(SERVE_SHARE * secs),
            BATCH_SHARE,
            &mut tally,
            set.trace.then_some(&mut spans),
        );
        if set.trace {
            serve_ledger(
                &engine, &inputs, spec, &metric, &layers, &mut spans, &mut out,
            );
        }
        let commit_secs = (1.0 - SERVE_SHARE) * secs;
        let t1 = Instant::now();
        let commits = commit_loop(
            &mut engine,
            &mut writer,
            Pace::Closed,
            t1,
            t1 + Duration::from_secs_f64(commit_secs),
            &mut tally,
            set.trace.then_some(&mut spans),
            &off_path_map,
        );
        (samples, commits)
    };

    out.lines.push(format!(
        "host: {:.1}% of CPU time was stolen by the hypervisor while measuring",
        100.0 * host::steal_share(ticks0, host::cpu_ticks())
    ));
    out.lines.push(format!(
        "memory: {:.1} MB resident after set-up (peak {:.1} MB), {:.1} MB after commits (peak {:.1} MB)",
        setup_rss.0,
        setup_rss.1,
        host::rss_mb(),
        host::peak_rss_mb()
    ));

    // The final gate, quiesced, over the surviving objects.
    final_gate(
        &engine,
        &inputs,
        &writer,
        metric.clone(),
        gate_n,
        set,
        &mut tally,
        &mut out,
    );

    let small: Vec<&CommitSample> = commits.iter().filter(|c| !c.bulk).collect();
    let bulk: Vec<&CommitSample> = commits.iter().filter(|c| c.bulk).collect();
    if set.trace {
        setup_ledger(spec, &walls, &layers, &mut out);
        apply_ledger(&small, &commits, &mut out);
        out.spans = Some(spans);
    } else {
        let latency_us: Vec<f64> = small.iter().map(|c| c.latency_ns / 1e3).collect();
        let bulk_ops: usize = bulk.iter().map(|c| c.ops).sum();
        let bulk_secs: f64 = bulk.iter().map(|c| c.wall_ns / 1e9).sum();
        out.put("setup_s", median(&walls), "s");
        out.put("batch_qps", median(&samples.batch_qps), "queries/s");
        out.put(
            "compdists_per_query",
            cd1 as f64 / inputs.queries.len() as f64,
            "count",
        );
        out.put("commit_p50_us", quantile(&latency_us, 0.5), "us");
        out.put("ingest_ops_per_s", bulk_ops as f64 / bulk_secs, "ops/s");
        out.put("peak_rss_mb", host::peak_rss_mb(), "MB");
        // Tails swing by a third or more between runs on a shared 2-vCPU
        // host, too far to gate on; they are printed, not gated.
        out.lines.push(format!(
            "ungated: query_p50_us = {} us, query_p90_us = {} us, commit_p90_us = {} us",
            samples.single_us(0.5),
            samples.single_us(0.9),
            quantile(&latency_us, 0.9)
        ));
        out.lines.push(format!(
            "samples: {} timed builds; {} batches and {} single queries in {} rounds; {} small and {} bulk commits; served batches cost {} compdists per query",
            walls.len(),
            samples.batch_qps.len(),
            samples.single_ns.iter().map(Vec::len).sum::<usize>(),
            samples.single_ns.len(),
            small.len(),
            bulk.len(),
            samples.compdists as f64 / samples.queries.max(1) as f64
        ));
    }
    out.attempted = tally.attempted;
    out.failed = tally.failed;
    out.lines.push(format!(
        "failed_frac = {} ({} of {} ops attempted)",
        tally.failed as f64 / tally.attempted.max(1) as f64,
        tally.failed,
        tally.attempted
    ));
    out
}

/// Serves the first `batches` batches of the query pool; returns each
/// batch's exact `compdists` and the answers of the first batch.
fn pool_pass(
    engine: &Engine,
    inputs: &Inputs,
    batches: usize,
    tally: &mut Tally,
) -> (Vec<u64>, Vec<pivot_metric_repro::QueryResult>) {
    let mut compdists = Vec::new();
    let mut first = Vec::new();
    for b in 0..batches {
        let o = engine.serve(inputs.batch(b));
        tally.batch(&o);
        compdists.push(o.report.cost.compdists);
        if b == 0 {
            first = o.results;
        }
    }
    (compdists, first)
}

/// Samples of the serve loop.
#[derive(Default)]
struct ServeSamples {
    batch_qps: Vec<f64>,
    /// Single-query latencies, one vector per round.
    single_ns: Vec<Vec<f64>>,
    /// Distance computations and queries of the served batches.
    compdists: u64,
    queries: u64,
}

impl ServeSamples {
    /// The median over rounds of each round's `p`-quantile of single-query
    /// latency, in us: a burst of interference from outside the process
    /// moves one round, not the result.
    fn single_us(&self, p: f64) -> f64 {
        median(
            &self
                .single_ns
                .iter()
                .map(|r| quantile(r, p) / 1e3)
                .collect::<Vec<_>>(),
        )
    }
}

/// Closed loop for `rounds` equal rounds from `start` to `until`: each
/// round serves `BATCH`-query batches for `batch_share` of it, then single
/// queries through `serve(&[q])` for the rest. Interleaving spreads any
/// slow spell of the host over both kinds of sample.
#[allow(clippy::too_many_arguments)]
fn serve_loop<F: Fn(&[Q]) -> BatchOutcome>(
    serve: F,
    inputs: &Inputs,
    start: Instant,
    until: Instant,
    rounds: usize,
    batch_share: f64,
    tally: &mut Tally,
    mut spans: Option<&mut Spans>,
) -> ServeSamples {
    let mut s = ServeSamples::default();
    let round = (until - start) / rounds as u32;
    let (mut b, mut i) = (0, 0);
    for r in 0..rounds as u32 {
        let r0 = start + round * r;
        let mut n = 0;
        while n == 0 || Instant::now() < r0 + round.mul_f64(batch_share) {
            let batch = inputs.batch(b);
            let t = Instant::now();
            let o = serve(batch);
            let e = Instant::now();
            tally.batch(&o);
            s.compdists += o.report.cost.compdists;
            s.queries += batch.len() as u64;
            s.batch_qps.push(batch.len() as f64 / (e - t).as_secs_f64());
            if let Some(sp) = spans.as_deref_mut() {
                sp.push("serve.batch", sp.at(t), sp.at(e), None, b as u64);
            }
            b += 1;
            n += 1;
        }
        let mut lat = Vec::new();
        while lat.is_empty() || Instant::now() < r0 + round {
            let q = &inputs.queries[i % inputs.queries.len()];
            let t = Instant::now();
            let o = serve(std::slice::from_ref(q));
            let e = Instant::now();
            tally.batch(&o);
            lat.push((e - t).as_nanos() as f64);
            if let Some(sp) = spans.as_deref_mut() {
                sp.push("serve.single", sp.at(t), sp.at(e), None, i as u64);
            }
            i += 1;
        }
        s.single_ns.push(lat);
    }
    s
}

/// Issues commits that keep the corpus size about constant: each insert
/// comes with the removal of a random live id. Inserts take objects never
/// seen yet, then objects removed by earlier commits, so no object is
/// ever live twice.
struct Writer<'a> {
    corpus: &'a [Vec<f32>],
    fresh: &'a [Vec<f32>],
    /// Live ids with the source of their object: an index into the corpus
    /// followed by the fresh objects.
    live: Vec<(ObjId, usize)>,
    next_fresh: usize,
    /// Sources of removed objects, oldest first.
    dead: std::collections::VecDeque<usize>,
    rng: SplitMix,
}

struct Job {
    batch: UpdateBatch<Vec<f32>>,
    removed: Vec<(ObjId, usize)>,
    inserted: Vec<usize>,
}

impl<'a> Writer<'a> {
    fn new(corpus: &'a [Vec<f32>], fresh: &'a [Vec<f32>], seed: u64) -> Self {
        Writer {
            corpus,
            fresh,
            live: (0..corpus.len()).map(|i| (i as ObjId, i)).collect(),
            next_fresh: 0,
            dead: Default::default(),
            rng: SplitMix(seed ^ 0x5752_4954_4552),
        }
    }

    fn object(&self, source: usize) -> &'a Vec<f32> {
        match source.checked_sub(self.corpus.len()) {
            Some(f) => &self.fresh[f],
            None => &self.corpus[source],
        }
    }

    /// `pairs` inserts plus as many removes; `None` if either runs out.
    fn job(&mut self, pairs: usize) -> Option<Job> {
        let unused = self.fresh.len() - self.next_fresh;
        if self.live.len() <= pairs || unused + self.dead.len() < pairs {
            return None;
        }
        let mut batch = UpdateBatch::new();
        let mut removed = Vec::with_capacity(pairs);
        let mut inserted = Vec::with_capacity(pairs);
        for _ in 0..pairs {
            let source = if self.next_fresh < self.fresh.len() {
                self.next_fresh += 1;
                self.corpus.len() + self.next_fresh - 1
            } else {
                self.dead.pop_front().expect("checked above")
            };
            let (id, was) = self.live.swap_remove(self.rng.below(self.live.len()));
            batch.insert(self.object(source).clone()).remove(id);
            removed.push((id, was));
            inserted.push(source);
        }
        Some(Job {
            batch,
            removed,
            inserted,
        })
    }

    fn settle(&mut self, job: Job, report: &ApplyReport) {
        if report.aborted {
            self.live.extend(job.removed);
            self.dead.extend(job.inserted);
        } else {
            self.live
                .extend(report.inserted_ids.iter().copied().zip(job.inserted));
            self.dead.extend(job.removed.into_iter().map(|(_, s)| s));
        }
    }

    fn live_ids(&self) -> Vec<ObjId> {
        let mut ids: Vec<ObjId> = self.live.iter().map(|&(id, _)| id).collect();
        ids.sort_unstable();
        ids
    }
}

enum Pace {
    /// Each commit is due when the previous one returns.
    Closed,
    /// A small commit every `SMALL_EVERY_US` and a bulk commit every
    /// `BULK_EVERY_US` from the start, whether or not the previous commit
    /// has finished.
    Open,
}

struct CommitSample {
    bulk: bool,
    ops: usize,
    inserts: usize,
    /// How late the writer started the commit.
    lag_ns: f64,
    /// From when the commit was due to when `apply` returned.
    latency_ns: f64,
    /// The `apply` call alone.
    wall_ns: f64,
    retired: usize,
    map_ns: f64,
    fork_ns: f64,
    touched: usize,
}

/// Commits from `start` to `until` at `pace`, one pair per small commit
/// and `BULK_OPS` pairs per bulk commit.
#[allow(clippy::too_many_arguments)]
fn commit_loop(
    engine: &mut Engine,
    writer: &mut Writer,
    pace: Pace,
    start: Instant,
    until: Instant,
    tally: &mut Tally,
    mut spans: Option<&mut Spans>,
    off_path_map: &dyn Fn(&Vec<f32>, &mut Vec<f64>),
) -> Vec<CommitSample> {
    let mut samples = Vec::new();
    let mut next_small = start + Duration::from_micros(SMALL_EVERY_US);
    let mut next_bulk = start + Duration::from_micros(BULK_EVERY_US);
    let mut prev_end = start;
    for i in 0u64.. {
        let (bulk, due) = match pace {
            Pace::Closed => (
                i % (SMALL_PER_BULK as u64 + 1) == SMALL_PER_BULK as u64,
                prev_end,
            ),
            Pace::Open => {
                let bulk = next_bulk <= next_small;
                let due = if bulk { next_bulk } else { next_small };
                if bulk {
                    next_bulk += Duration::from_micros(BULK_EVERY_US);
                } else {
                    next_small += Duration::from_micros(SMALL_EVERY_US);
                }
                (bulk, due)
            }
        };
        if due >= until {
            break;
        }
        let Some(job) = writer.job(if bulk { BULK_OPS } else { 1 }) else {
            break;
        };
        let removed_from: Vec<usize> = match spans {
            Some(_) => job
                .removed
                .iter()
                .filter_map(|&(id, _)| engine.locate(id).map(|(s, _)| s))
                .collect(),
            None => Vec::new(),
        };
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let t = Instant::now();
        let report = engine.apply(&job.batch);
        let end = Instant::now();
        prev_end = end;
        tally.commit(job.batch.len(), &report);
        let mut sample = CommitSample {
            bulk,
            ops: job.batch.len(),
            inserts: job.inserted.len(),
            lag_ns: t.saturating_duration_since(due).as_nanos() as f64,
            latency_ns: end.saturating_duration_since(due).as_nanos() as f64,
            wall_ns: (end - t).as_nanos() as f64,
            retired: engine.retired_snapshots(),
            map_ns: 0.0,
            fork_ns: 0.0,
            touched: 0,
        };
        if let Some(sp) = spans.as_deref_mut() {
            let root = sp.push("apply.commit", sp.at(t), sp.at(end), None, i);
            let inserted: Vec<&Vec<f32>> = job.inserted.iter().map(|&s| writer.object(s)).collect();
            let l = ledger::apply_layers(
                engine,
                &report,
                &inserted,
                &removed_from,
                off_path_map,
                sp,
                root,
                i,
            );
            sample.map_ns = l.map_ns as f64;
            sample.fork_ns = l.fork_ns as f64;
            sample.touched = l.touched;
        }
        writer.settle(job, &report);
        samples.push(sample);
    }
    samples
}

/// Read beside write: one `EngineReader` serves batches (then single
/// queries) closed loop on its own thread while this thread commits on
/// the open-loop schedule, for `secs` seconds.
fn churn(
    engine: &mut Engine,
    inputs: &Inputs,
    writer: &mut Writer,
    secs: f64,
    tally: &mut Tally,
    mut spans: Option<&mut Spans>,
    off_path_map: &dyn Fn(&Vec<f32>, &mut Vec<f64>),
) -> (ServeSamples, Vec<CommitSample>) {
    let reader = engine
        .reader()
        .expect("churn workloads use a kind that hands out readers");
    let origin = spans.as_deref().map(Spans::origin);
    let t0 = Instant::now();
    let until = t0 + Duration::from_secs_f64(secs);
    std::thread::scope(|scope| {
        let read = scope.spawn(move || {
            let mut t = Tally::default();
            let mut sp = origin.map(Spans::with_origin);
            let s = serve_loop(
                |b: &[Q]| reader.serve(b),
                inputs,
                t0,
                until,
                rounds(secs),
                BATCH_SHARE,
                &mut t,
                sp.as_mut(),
            );
            (s, t, sp)
        });
        let commits = commit_loop(
            engine,
            writer,
            Pace::Open,
            t0,
            until,
            tally,
            spans.as_deref_mut(),
            off_path_map,
        );
        let (samples, t, sp) = read.join().expect("reader thread panicked");
        tally.add(t);
        if let (Some(main), Some(sp)) = (spans, sp) {
            main.absorb(sp);
        }
        (samples, commits)
    })
}

/// Serves the first `gate_n` pool queries on the quiesced engine, as a
/// batch and one by one, and checks both against brute force over the
/// surviving objects; also checks that a repeated batch costs the same.
#[allow(clippy::too_many_arguments)]
fn final_gate<M>(
    engine: &Engine,
    inputs: &Inputs,
    writer: &Writer,
    metric: M,
    gate_n: usize,
    set: &Settings,
    tally: &mut Tally,
    out: &mut Outcome,
) where
    M: Metric<Vec<f32>> + Clone + 'static,
{
    let live = writer.live_ids();
    if engine.len() != live.len() {
        out.fail(format!(
            "engine holds {} objects, the writer expects {}",
            engine.len(),
            live.len()
        ));
        return;
    }
    let objects: Vec<Vec<f32>> = live
        .iter()
        .map(|&id| engine.get(id).expect("every live id resolves"))
        .collect();
    let queries = &inputs.queries[..gate_n];
    let want = gate::oracle(objects, &live, metric, queries);
    let a = engine.serve(queries);
    let b = engine.serve(queries);
    tally.batch(&a);
    tally.batch(&b);
    if a.report.cost.compdists != b.report.cost.compdists {
        out.fail(format!(
            "compdists differ between two serves of one batch: {} vs {}",
            a.report.cost.compdists, b.report.cost.compdists
        ));
    }
    let mut got = a.results;
    if set.plant_wrong_answer {
        gate::plant_wrong_answer(&mut got);
    }
    if let Err(e) = gate::check("after commits, batch", &got, &want) {
        out.fail(e);
    }
    let singles: Vec<_> = queries
        .iter()
        .map(|q| {
            let mut o = engine.serve(std::slice::from_ref(q));
            tally.batch(&o);
            o.results.pop().expect("one answer per query")
        })
        .collect();
    if let Err(e) = gate::check("after commits, single", &singles, &want) {
        out.fail(e);
    }
}

fn setup_ledger(spec: &Spec, walls: &[f64], layers: &[SetupLayers], out: &mut Outcome) {
    let matrix_on_path =
        spec.policy == PartitionPolicy::PivotSpace || spec.kind.adopts_pivot_matrix();
    let partition_on_path = spec.policy == PartitionPolicy::PivotSpace;
    let select = mean(&layers.iter().map(|l| l.select_s).collect::<Vec<_>>());
    let matrix = mean(&layers.iter().map(|l| l.matrix_s).collect::<Vec<_>>());
    let partition = mean(&layers.iter().map(|l| l.partition_s).collect::<Vec<_>>());
    let wall = mean(walls);
    let on_path = |on: bool, v: f64| if on { v } else { 0.0 };
    let other =
        wall - select - on_path(matrix_on_path, matrix) - on_path(partition_on_path, partition);
    out.put("pivots.select_s", select, "s");
    out.put("metric.matrix_s", matrix, "s");
    out.put("router.partition_s", partition, "s");
    out.put("engine.build_other_s", other, "s");
    let tag = |on: bool| {
        if on {
            ""
        } else {
            " (off the build path, not summed)"
        }
    };
    out.lines.push(format!(
        "ledger setup: pivots.select {select:.4} s + metric.matrix {matrix:.4} s{} + router.partition {partition:.4} s{} + engine.build_other (residual) {other:.4} s = setup wall {wall:.4} s (mean of {} builds; residual {:.1}% of the wall)",
        tag(matrix_on_path),
        tag(partition_on_path),
        walls.len(),
        100.0 * other / wall
    ));
}

/// The serve-side layers, replayed serially on the quiesced engine.
fn serve_ledger<M: Metric<Vec<f32>>>(
    engine: &Engine,
    inputs: &Inputs,
    spec: &Spec,
    metric: &M,
    layers: &[SetupLayers],
    spans: &mut Spans,
    out: &mut Outcome,
) {
    let shards = engine.shards();
    let router = engine.routing();
    let batches = (inputs.queries.len() / BATCH).min(4);
    let mut scratch = ReplayScratch::default();

    // Batch walls first (median of three serves each), then the serial
    // replay of the same queries, so replay compdists are its own.
    let mut batch_wall_ns = 0.0;
    let mut served_compdists = 0;
    let mut answers = Vec::new();
    for b in 0..batches {
        let mut walls = Vec::new();
        for rep in 0..3 {
            let t = Instant::now();
            let o = engine.serve(inputs.batch(b));
            let e = Instant::now();
            spans.push("serve.batch", spans.at(t), spans.at(e), None, b as u64);
            walls.push((e - t).as_nanos() as f64);
            if rep == 0 {
                served_compdists += o.report.cost.compdists;
            }
            answers.push(o.results);
        }
        batch_wall_ns += median(&walls);
    }
    let c0 = engine.counters().compdists;
    let (mut plan, mut probe, mut merge, mut probed, mut rows, mut nq) =
        (0u64, 0u64, 0u64, 0usize, 0usize, 0usize);
    for b in 0..batches {
        for (i, q) in inputs.batch(b).iter().enumerate() {
            let req = (b * BATCH + i) as u64;
            let r = ledger::replay(shards, router, q, &mut scratch, Some((&mut *spans, req)));
            if r.result != answers[3 * b][i] {
                out.fail(format!("replay of query {req} diverged from serve"));
            }
            plan += r.plan_ns;
            probe += r.probe_ns;
            merge += r.merge_ns;
            probed += r.probed;
            rows += r.rows;
            nq += 1;
        }
    }
    let replay_compdists = engine.counters().compdists - c0;
    if replay_compdists != served_compdists {
        out.lines.push(format!(
            "note: the serial replay computed {replay_compdists} distances where serving the same batches computed {served_compdists}"
        ));
    }
    let replay_ns = (plan + probe + merge) as f64;
    let threads = spec.threads as f64;
    let eff = replay_ns / (threads * batch_wall_ns);
    let dist_ns = ledger::dist_ns(&inputs.queries, &inputs.objects, metric, 0.05);

    out.put("router.plan_ns_per_query", plan as f64 / nq as f64, "ns");
    out.put(
        "router.shards_probed_per_query",
        probed as f64 / nq as f64,
        "count",
    );
    out.put("shard.rows_per_query", rows as f64 / nq as f64, "count");
    out.put(
        "shard.probe_ns_per_row",
        probe as f64 / rows.max(1) as f64,
        "ns",
    );
    out.put("metric.dist_ns", dist_ns, "ns");
    out.put(
        "shard.refine_frac",
        replay_compdists as f64 * dist_ns / probe.max(1) as f64,
        "ratio",
    );
    out.put("engine.merge_ns_per_query", merge as f64 / nq as f64, "ns");
    out.put("engine.batch_parallel_eff", eff, "ratio");
    out.lines.push(format!(
        "ledger batch: replayed layers {:.3} ms (plan {:.3} + probes {:.3} + merge {:.3}) + scheduling and idle (residual) {:.3} ms = threads {} x batch wall {:.3} ms (over {} batches, {} queries; residual {:.1}% of the base)",
        replay_ns / 1e6,
        plan as f64 / 1e6,
        probe as f64 / 1e6,
        merge as f64 / 1e6,
        (threads * batch_wall_ns - replay_ns) / 1e6,
        spec.threads,
        batch_wall_ns / 1e6,
        batches,
        nq,
        100.0 * (1.0 - eff)
    ));

    // Single queries: `serve(&[q])` wall against the replayed layers of
    // the same query (median of three each).
    let singles = BATCH.min(inputs.queries.len());
    let (mut serve_sum, mut plan_s, mut probe_s, mut merge_s) = (0.0, 0.0, 0.0, 0.0);
    for (i, q) in inputs.queries[..singles].iter().enumerate() {
        let mut walls = Vec::new();
        let mut reps = Vec::new();
        for _ in 0..3 {
            let t = Instant::now();
            let o = engine.serve(std::slice::from_ref(q));
            let e = Instant::now();
            std::hint::black_box(o);
            spans.push("serve.single", spans.at(t), spans.at(e), None, i as u64);
            walls.push((e - t).as_nanos() as f64);
            reps.push(ledger::replay(shards, router, q, &mut scratch, None));
        }
        reps.sort_by_key(|r| r.wall_ns());
        let r = &reps[1];
        serve_sum += median(&walls);
        plan_s += r.plan_ns as f64;
        probe_s += r.probe_ns as f64;
        merge_s += r.merge_ns as f64;
    }
    let n = singles as f64;
    let overhead = (serve_sum - plan_s - probe_s - merge_s) / n;
    out.put("engine.serve_overhead_us", overhead / 1e3, "us");
    out.lines.push(format!(
        "ledger single query: router.plan {:.2} us + shard.probe {:.2} us + engine.merge {:.2} us + engine.serve_overhead (residual) {:.2} us = serve(&[q]) wall {:.2} us (mean over {} queries; residual {:.1}% of the wall)",
        plan_s / n / 1e3,
        probe_s / n / 1e3,
        merge_s / n / 1e3,
        overhead / 1e3,
        serve_sum / n / 1e3,
        singles,
        100.0 * overhead * n / serve_sum
    ));

    // What recording spans costs: the same replays with and without,
    // alternated five times; medians of each.
    let mut timed = [Vec::new(), Vec::new()];
    for round in 0..10 {
        let with_spans = round % 2 == 0;
        let t = Instant::now();
        for (i, q) in inputs.queries[..singles].iter().enumerate() {
            let sp = with_spans.then_some((&mut *spans, i as u64));
            std::hint::black_box(ledger::replay(shards, router, q, &mut scratch, sp));
        }
        timed[usize::from(!with_spans)].push(t.elapsed().as_nanos() as f64);
    }
    let (traced, untraced) = (median(&timed[0]), median(&timed[1]));
    out.lines.push(format!(
        "tracing overhead: {:.3} ms replaying {} queries with spans vs {:.3} ms without ({:+.2}% of the untraced base; medians of 5 alternated rounds)",
        traced / 1e6,
        singles,
        untraced / 1e6,
        100.0 * (traced - untraced) / untraced
    ));

    // The filter kernel over the workload's matrix, against a copy roofline.
    if let Some(l) = layers.last() {
        let q = match &inputs.queries[0] {
            Query::Range { q, .. } | Query::Knn { q, .. } => q,
        };
        let qd: Vec<f64> = l.pivots.iter().map(|p| metric.dist(q, p)).collect();
        let (rows_per_s, gbps) = ledger::kernel_rate(&l.matrix, &qd, 0.2);
        // The roofline copies as many bytes as one kernel call moves, so
        // both run from the same cache level.
        let copy = host::copy_gbps(l.matrix.rows() * (l.matrix.width() * 4 + 8), 0.2);
        out.put("metric.kernel_rows_per_s", rows_per_s, "rows/s");
        out.put("metric.kernel_gbps", gbps, "GB/s");
        out.put("host.copy_gbps", copy, "GB/s");
        out.lines.push(format!(
            "kernel: {:.3} GB/s over a {}x{} f32 matrix = {:.1}% of the {:.3} GB/s copy roofline",
            gbps,
            l.matrix.rows(),
            l.matrix.width(),
            100.0 * gbps / copy,
            copy
        ));
    }
    if spec.kind != IndexKind::Laesa {
        out.lines.push(
            "note: this kind does not scan the pivot matrix; metric.kernel_* measure the kernel over the workload's matrix off the serve path".to_string(),
        );
    }
}

fn apply_ledger(small: &[&CommitSample], all: &[CommitSample], out: &mut Outcome) {
    let n = small.len().max(1) as f64;
    let map = small.iter().map(|c| c.map_ns).sum::<f64>() / n;
    let fork = small.iter().map(|c| c.fork_ns).sum::<f64>() / n;
    let wall = small.iter().map(|c| c.wall_ns).sum::<f64>() / n;
    let inserts: usize = all.iter().map(|c| c.inserts).sum();
    let touched: usize = all.iter().map(|c| c.touched).sum();
    out.put(
        "router.map_us_per_insert",
        all.iter().map(|c| c.map_ns).sum::<f64>() / inserts.max(1) as f64 / 1e3,
        "us",
    );
    out.put(
        "index.fork_us_per_shard",
        all.iter().map(|c| c.fork_ns).sum::<f64>() / touched.max(1) as f64 / 1e3,
        "us",
    );
    out.put(
        "engine.shards_touched_per_commit",
        small.iter().map(|c| c.touched as f64).sum::<f64>() / n,
        "count",
    );
    out.put(
        "engine.apply_other_us_per_commit",
        (wall - map - fork) / 1e3,
        "us",
    );
    out.put(
        "engine.retired_snapshots_max",
        all.iter().map(|c| c.retired).max().unwrap_or(0) as f64,
        "count",
    );
    out.put(
        "writer.lag_ms",
        mean(&all.iter().map(|c| c.lag_ns / 1e6).collect::<Vec<_>>()),
        "ms",
    );
    out.lines.push(format!(
        "ledger small commit: router.map {:.2} us + index.fork {:.2} us + engine.apply_other (residual) {:.2} us = apply wall {:.2} us (mean over {} one-pair commits; residual {:.1}% of the wall)",
        map / 1e3,
        fork / 1e3,
        (wall - map - fork) / 1e3,
        wall / 1e3,
        small.len(),
        100.0 * (wall - map - fork) / wall.max(1.0),
    ));
}
