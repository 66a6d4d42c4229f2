//! `pmi-analyze` — the trajectory analyzer and regression sentinel over
//! the repo's committed measurement artifacts.
//!
//! Reads any mix of `RUNLOG.jsonl` files (the `pmi-runlog-v1` sink every
//! bench appends to) and `BENCH_*.json` trajectory points, then:
//!
//! * groups run-log lines by `(bench, config_fingerprint, phase)` — the
//!   fingerprint keeps points measured under different parameter sets from
//!   being conflated — and computes the **wall-per-call** delta from the
//!   group's first recorded run to its last,
//! * pulls each trajectory point's quality gates: every boolean key ending
//!   in `_ok` anywhere in the object (`regression_ok`, `overhead_ok`,
//!   `trace.overhead_ok`, ...) is a gate the emitting bench already
//!   decided; this tool re-surfaces the verdicts in one place,
//! * renders a markdown trajectory report (stdout, or `--out <file>`).
//!
//! With `--check` it becomes CI's regression sentinel and exits non-zero
//! when any gate bool is `false`, or when a tracked phase's wall-per-call
//! grew beyond `--tolerance <factor>` (default 3.0 — generous on purpose:
//! run-log walls come from shared CI runners, so the sentinel is meant to
//! catch order-of-magnitude cliffs and flipped gates, not 10% noise).

use pmi::obs::{JsonValue, RUNLOG_SCHEMA};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One run-log observation: calls + wall for a phase at one emission.
struct Obs {
    calls: u64,
    wall_secs: f64,
}

impl Obs {
    fn per_call(&self) -> f64 {
        self.wall_secs / self.calls.max(1) as f64
    }
}

/// A `(bench, fingerprint, phase)` group's chronological observations
/// (file order is emission order — benches append).
type Groups = BTreeMap<(String, String, String), Vec<Obs>>;

/// One surfaced quality gate from a trajectory point.
struct Gate {
    file: String,
    /// Dotted path to the bool inside the point (`obs.overhead_ok`).
    path: String,
    ok: bool,
}

fn parse_runlog(path: &str, body: &str, groups: &mut Groups) -> Result<usize, String> {
    let mut n = 0usize;
    for (i, line) in body.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = JsonValue::parse(line).map_err(|e| format!("{path}:{}: {e}", i + 1))?;
        let field = |k: &str| -> Result<&JsonValue, String> {
            v.get(k)
                .ok_or_else(|| format!("{path}:{}: missing key \"{k}\"", i + 1))
        };
        let schema = field("schema")?.as_str().unwrap_or_default();
        if schema != RUNLOG_SCHEMA {
            return Err(format!(
                "{path}:{}: schema \"{schema}\" is not \"{RUNLOG_SCHEMA}\"",
                i + 1
            ));
        }
        let bench = field("bench")?.as_str().unwrap_or_default().to_string();
        let fp = field("fingerprint")?
            .as_str()
            .unwrap_or_default()
            .to_string();
        let phase = field("phase")?.as_str().unwrap_or_default().to_string();
        let calls = field("calls")?.as_u64().unwrap_or(0);
        let wall_secs = field("wall_secs")?.as_f64().unwrap_or(0.0);
        groups
            .entry((bench, fp, phase))
            .or_default()
            .push(Obs { calls, wall_secs });
        n += 1;
    }
    if n == 0 {
        return Err(format!("{path}: empty run-log (no lines to analyze)"));
    }
    Ok(n)
}

/// Walks a trajectory point and collects every `*_ok` boolean with its
/// dotted path.
fn collect_gates(file: &str, prefix: &str, v: &JsonValue, out: &mut Vec<Gate>) {
    if let Some(entries) = v.entries() {
        for (k, child) in entries {
            let path = if prefix.is_empty() {
                k.clone()
            } else {
                format!("{prefix}.{k}")
            };
            if k.ends_with("_ok") {
                if let Some(ok) = child.as_bool() {
                    out.push(Gate {
                        file: file.to_string(),
                        path,
                        ok,
                    });
                    continue;
                }
            }
            collect_gates(file, &path, child, out);
        }
    } else if let Some(items) = v.items() {
        for (i, child) in items.iter().enumerate() {
            collect_gates(file, &format!("{prefix}[{i}]"), child, out);
        }
    }
}

struct BenchPoint {
    file: String,
    bench: String,
    fingerprint: String,
}

fn parse_bench(path: &str, body: &str, gates: &mut Vec<Gate>) -> Result<BenchPoint, String> {
    let v = JsonValue::parse(body.trim()).map_err(|e| format!("{path}: {e}"))?;
    let bench = v
        .get("bench")
        .and_then(|b| b.as_str())
        .ok_or_else(|| format!("{path}: missing \"bench\""))?
        .to_string();
    let fingerprint = v
        .get("config_fingerprint")
        .and_then(|b| b.as_str())
        .unwrap_or("?")
        .to_string();
    collect_gates(path, "", &v, gates);
    Ok(BenchPoint {
        file: path.to_string(),
        bench,
        fingerprint,
    })
}

fn fmt_secs(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.3}s")
    } else if s >= 1e-3 {
        format!("{:.1}ms", s * 1e3)
    } else if s >= 1e-6 {
        format!("{:.1}µs", s * 1e6)
    } else {
        format!("{:.0}ns", s * 1e9)
    }
}

struct Report {
    markdown: String,
    /// `--check` failures, empty when the trajectory is healthy.
    violations: Vec<String>,
}

fn analyze(groups: &Groups, points: &[BenchPoint], gates: &[Gate], tolerance: f64) -> Report {
    let mut md = String::new();
    let mut violations = Vec::new();
    let _ = writeln!(md, "# Trajectory report\n");

    if !points.is_empty() {
        let _ = writeln!(md, "## Trajectory points\n");
        let _ = writeln!(md, "| file | bench | fingerprint |");
        let _ = writeln!(md, "|---|---|---|");
        for p in points {
            let _ = writeln!(md, "| {} | {} | `{}` |", p.file, p.bench, p.fingerprint);
        }
        let _ = writeln!(md);
    }

    if !gates.is_empty() {
        let _ = writeln!(md, "## Quality gates\n");
        let _ = writeln!(md, "| file | gate | verdict |");
        let _ = writeln!(md, "|---|---|---|");
        for g in gates {
            let verdict = if g.ok { "ok" } else { "**FAIL**" };
            let _ = writeln!(md, "| {} | `{}` | {verdict} |", g.file, g.path);
            if !g.ok {
                violations.push(format!("{}: gate {} is false", g.file, g.path));
            }
        }
        let _ = writeln!(md);
    }

    if !groups.is_empty() {
        let _ = writeln!(md, "## Run-log phases (wall per call, first → last run)\n");
        let _ = writeln!(
            md,
            "| bench | fingerprint | phase | runs | calls (last) | first | last | Δ |"
        );
        let _ = writeln!(md, "|---|---|---|---|---|---|---|---|");
        for ((bench, fp, phase), obs) in groups {
            let first = obs.first().expect("non-empty group");
            let last = obs.last().expect("non-empty group");
            let (a, b) = (first.per_call(), last.per_call());
            let delta = if a > 0.0 {
                format!("{:+.1}%", (b / a - 1.0) * 100.0)
            } else {
                "n/a".to_string()
            };
            let _ = writeln!(
                md,
                "| {bench} | `{fp}` | {phase} | {} | {} | {} | {} | {delta} |",
                obs.len(),
                last.calls,
                fmt_secs(a),
                fmt_secs(b),
            );
            // A phase only regresses when we have distinct runs to compare
            // and the latest wall-per-call blew past tolerance × first.
            if obs.len() >= 2 && a > 0.0 && b > a * tolerance {
                violations.push(format!(
                    "{bench}/{phase} ({fp}): wall per call regressed {}× \
                     ({} → {}), tolerance {tolerance}×",
                    (b / a * 10.0).round() / 10.0,
                    fmt_secs(a),
                    fmt_secs(b),
                ));
            }
        }
        let _ = writeln!(md);
    }

    let _ = writeln!(
        md,
        "Sentinel: {} gate(s), {} phase group(s), tolerance {tolerance}× — {}.",
        gates.len(),
        groups.len(),
        if violations.is_empty() {
            "healthy".to_string()
        } else {
            format!("{} violation(s)", violations.len())
        }
    );
    Report {
        markdown: md,
        violations,
    }
}

fn run(args: &[String]) -> Result<bool, String> {
    let mut check = false;
    let mut tolerance = 3.0f64;
    let mut out: Option<String> = None;
    let mut files: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--check" => check = true,
            "--tolerance" => {
                let v = it
                    .next()
                    .ok_or_else(|| "--tolerance needs a factor".to_string())?;
                tolerance = v
                    .parse::<f64>()
                    .map_err(|_| format!("--tolerance: not a number: {v}"))?;
                if !(tolerance.is_finite() && tolerance >= 1.0) {
                    return Err(format!("--tolerance must be >= 1.0, got {tolerance}"));
                }
            }
            "--out" => {
                out = Some(
                    it.next()
                        .ok_or_else(|| "--out needs a path".to_string())?
                        .clone(),
                )
            }
            _ => files.push(a.clone()),
        }
    }
    if files.is_empty() {
        return Err(
            "usage: pmi-analyze [--check] [--tolerance F] [--out report.md] \
             <RUNLOG.jsonl | BENCH_*.json>..."
                .to_string(),
        );
    }

    let mut groups: Groups = Groups::new();
    let mut points: Vec<BenchPoint> = Vec::new();
    let mut gates: Vec<Gate> = Vec::new();
    for path in &files {
        let body = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        if path.ends_with(".jsonl") {
            parse_runlog(path, &body, &mut groups)?;
        } else {
            points.push(parse_bench(path, &body, &mut gates)?);
        }
    }

    let report = analyze(&groups, &points, &gates, tolerance);
    match &out {
        Some(p) => {
            std::fs::write(p, &report.markdown).map_err(|e| format!("cannot write {p}: {e}"))?;
            println!("wrote {p}");
        }
        None => print!("{}", report.markdown),
    }
    if check {
        for v in &report.violations {
            eprintln!("pmi-analyze: REGRESSION: {v}");
        }
        return Ok(report.violations.is_empty());
    }
    Ok(true)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(true) => {}
        Ok(false) => std::process::exit(2),
        Err(e) => {
            eprintln!("pmi-analyze: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(calls: u64, wall_secs: f64) -> Obs {
        Obs { calls, wall_secs }
    }

    #[test]
    fn healthy_trajectory_has_no_violations() {
        let mut groups = Groups::new();
        groups.insert(
            ("scan".into(), "0xab".into(), "serve".into()),
            vec![obs(100, 1.0), obs(100, 1.1)],
        );
        let r = analyze(&groups, &[], &[], 3.0);
        assert!(r.violations.is_empty(), "{:?}", r.violations);
        assert!(r.markdown.contains("| scan |"));
        assert!(r.markdown.contains("healthy"));
    }

    #[test]
    fn wall_regression_beyond_tolerance_is_flagged() {
        let mut groups = Groups::new();
        groups.insert(
            ("scan".into(), "0xab".into(), "serve".into()),
            vec![obs(100, 1.0), obs(100, 5.0)],
        );
        let r = analyze(&groups, &[], &[], 3.0);
        assert_eq!(r.violations.len(), 1, "{:?}", r.violations);
        assert!(r.violations[0].contains("scan/serve"));
        // A single run can never regress against itself.
        let mut lone = Groups::new();
        lone.insert(
            ("scan".into(), "0xab".into(), "serve".into()),
            vec![obs(100, 5.0)],
        );
        assert!(analyze(&lone, &[], &[], 3.0).violations.is_empty());
    }

    #[test]
    fn false_gates_fail_and_nested_gates_are_found() {
        let v = JsonValue::parse(
            r#"{"bench":"scan","regression_ok":true,"obs":{"overhead_ok":false},"points":[{"trace":{"overhead_ok":true}}]}"#,
        )
        .unwrap();
        let mut gates = Vec::new();
        collect_gates("BENCH_scan.json", "", &v, &mut gates);
        let paths: Vec<&str> = gates.iter().map(|g| g.path.as_str()).collect();
        assert_eq!(
            paths,
            [
                "regression_ok",
                "obs.overhead_ok",
                "points[0].trace.overhead_ok"
            ]
        );
        let r = analyze(&Groups::new(), &[], &gates, 3.0);
        assert_eq!(r.violations.len(), 1);
        assert!(r.violations[0].contains("obs.overhead_ok"));
    }

    #[test]
    fn robust_gates_are_collected_from_the_scan_point() {
        // Pins the fault-tolerance gates of BENCH_scan.json's `robust`
        // section to the sentinel: a `degraded_ok: false` (or
        // `overhead_ok: false`) emitted by the deadline-pressure bench
        // must fail `--check`, with no analyzer changes needed.
        let v = JsonValue::parse(
            r#"{"bench":"scan_throughput","robust":{"on_qps":1000,"off_qps":1010,
                "ratio":0.990,"overhead_ok":true,
                "pressure":[{"cap":0,"degraded":0,"shed":0},{"cap":1,"degraded":256,"shed":0}],
                "shed_at_batch_deadline":256,"degraded_ok":false}}"#,
        )
        .unwrap();
        let mut gates = Vec::new();
        collect_gates("BENCH_scan.json", "", &v, &mut gates);
        let paths: Vec<&str> = gates.iter().map(|g| g.path.as_str()).collect();
        assert_eq!(paths, ["robust.overhead_ok", "robust.degraded_ok"]);
        let r = analyze(&Groups::new(), &[], &gates, 3.0);
        assert_eq!(r.violations.len(), 1, "{:?}", r.violations);
        assert!(r.violations[0].contains("robust.degraded_ok"));
    }

    #[test]
    fn f32_and_sched_gates_are_collected() {
        // Pins the ISSUE-9 gate shapes to the sentinel: the f32
        // column-mode gates of BENCH_scan.json (`kernel.f32_speedup_ok`,
        // `f32.exact_ok`) and the scale-tier scheduling gate of
        // BENCH_engine.json (`sched.scaling_ok`) must be picked up by the
        // generic `_ok` walk — and unknown sibling keys (`simd_tier`,
        // `strategy`, future fields) must be ignored, not crash `--check`.
        let scan = JsonValue::parse(
            r#"{"bench":"scan_throughput",
                "kernel":{"blocked_rows_per_sec":648000000,"simd_tier":"avx2",
                          "f32_rows_per_sec":1300000000,"f32_speedup":2.0,
                          "f32_speedup_ok":true,"scale_n":100000,"mystery":null},
                "f32":{"exact_ok":true,"f64_qps":2400,"f32_qps":2900,"qps_ratio":1.21}}"#,
        )
        .unwrap();
        let engine = JsonValue::parse(
            r#"{"bench":"engine_qps",
                "sched":{"n":100000,"batch":64,"scaling_ok":false,
                         "points":[{"policy":"round-robin","shards":8,"qps":900,
                                    "strategy":"query-parallel"}]}}"#,
        )
        .unwrap();
        let mut gates = Vec::new();
        collect_gates("BENCH_scan.json", "", &scan, &mut gates);
        collect_gates("BENCH_engine.json", "", &engine, &mut gates);
        let paths: Vec<&str> = gates.iter().map(|g| g.path.as_str()).collect();
        assert_eq!(
            paths,
            ["kernel.f32_speedup_ok", "f32.exact_ok", "sched.scaling_ok"]
        );
        let r = analyze(&Groups::new(), &[], &gates, 3.0);
        assert_eq!(r.violations.len(), 1, "{:?}", r.violations);
        assert!(r.violations[0].contains("sched.scaling_ok"));
    }

    #[test]
    fn availability_gate_is_collected_and_old_update_artifacts_still_parse() {
        // Pins the ISSUE-10 availability gate to the sentinel: the
        // during-churn section of BENCH_update.json carries
        // `update.availability_ok` (serve QPS while a writer commits apply
        // transactions must stay ≥ 0.5× the no-churn figure), and a false
        // verdict must fail `--check` with no analyzer changes.
        let new_point = JsonValue::parse(
            r#"{"bench":"update_throughput","mutation":"mvcc",
                "qps_no_churn_concurrent":52000,"qps_during_churn":20000,
                "availability":0.38,"churn_commits":120,
                "queue_depth_max":4,"queue_shed":0,"queue_rejected":17,
                "update.availability_ok":false}"#,
        )
        .unwrap();
        let mut gates = Vec::new();
        collect_gates("BENCH_update.json", "", &new_point, &mut gates);
        let paths: Vec<&str> = gates.iter().map(|g| g.path.as_str()).collect();
        assert_eq!(paths, ["update.availability_ok"]);
        let r = analyze(&Groups::new(), &[], &gates, 3.0);
        assert_eq!(r.violations.len(), 1, "{:?}", r.violations);
        assert!(r.violations[0].contains("update.availability_ok"));

        // A pre-ISSUE-10 artifact (no during-churn section, no gate) still
        // parses and simply contributes zero gates.
        let old_point = JsonValue::parse(
            r#"{"bench":"update_throughput","inserts_per_sec":400000,
                "removes_per_sec":380000,"qps_before_churn":50000,
                "qps_after_churn":49000,"qps_no_churn_baseline":51000,
                "recluster_passes":1}"#,
        )
        .unwrap();
        let mut old_gates = Vec::new();
        collect_gates("BENCH_update.json", "", &old_point, &mut old_gates);
        assert!(old_gates.is_empty());
        assert!(analyze(&Groups::new(), &[], &old_gates, 3.0)
            .violations
            .is_empty());
    }

    #[test]
    fn commit_scaling_gate_is_collected() {
        // Pins the commit-scaling gate of BENCH_update.json to the
        // sentinel: a one-insert commit at n = 64k must cost at most twice
        // the one at n = 8k (`update.commit_scaling_ok`, decided by the
        // bench next to its `commit_scaling` section), and a false verdict
        // must fail `--check` beside the availability gate.
        let point = JsonValue::parse(
            r#"{"bench":"update_throughput","mutation":"mvcc",
                "update.availability_ok":true,
                "commit_scaling":{"index":"LAESA","shards":8,"threads":1,
                                  "commits":200,"n_small":8192,"n_large":65536,
                                  "commit_p50_us_small":90.0,
                                  "commit_p50_us_large":1400.0,"ratio":15.6,
                                  "chunk":512,"chunk_inserts_per_sec":400000},
                "update.commit_scaling_ok":false}"#,
        )
        .unwrap();
        let mut gates = Vec::new();
        collect_gates("BENCH_update.json", "", &point, &mut gates);
        let paths: Vec<&str> = gates.iter().map(|g| g.path.as_str()).collect();
        assert_eq!(
            paths,
            ["update.availability_ok", "update.commit_scaling_ok"]
        );
        let r = analyze(&Groups::new(), &[], &gates, 3.0);
        assert_eq!(r.violations.len(), 1, "{:?}", r.violations);
        assert!(r.violations[0].contains("update.commit_scaling_ok"));
    }

    #[test]
    fn runlog_lines_group_by_bench_fp_phase() {
        let body = concat!(
            r#"{"schema":"pmi-runlog-v1","bench":"a","fingerprint":"0x1","phase":"p","calls":10,"wall_secs":0.5}"#,
            "\n",
            r#"{"schema":"pmi-runlog-v1","bench":"a","fingerprint":"0x1","phase":"p","calls":10,"wall_secs":0.6}"#,
            "\n",
            r#"{"schema":"pmi-runlog-v1","bench":"a","fingerprint":"0x2","phase":"p","calls":10,"wall_secs":0.7}"#,
            "\n",
        );
        let mut groups = Groups::new();
        let n = parse_runlog("r.jsonl", body, &mut groups).unwrap();
        assert_eq!(n, 3);
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[&("a".into(), "0x1".into(), "p".into())].len(), 2);
        // Wrong schema and empty files are hard errors.
        assert!(parse_runlog("r.jsonl", r#"{"schema":"nope"}"#, &mut Groups::new()).is_err());
        let empty = parse_runlog("r.jsonl", "", &mut Groups::new()).unwrap_err();
        assert!(empty.contains("empty run-log"), "{empty}");
    }
}
