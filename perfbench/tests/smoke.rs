//! Smoke-scale runs of every workload through the real binary: the result
//! line carries every metric BENCHMARK.json names, each name is well
//! formed and has a unit, and a planted wrong answer fails the run.

use std::path::PathBuf;
use std::process::Command;

const WORKLOADS: [&str; 3] = ["la-serve", "color-serve", "la-churn"];

fn out_dir(tag: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("perfbench-{tag}"))
}

/// Runs the benchmark; returns (success, stdout).
fn bench(workload: &str, trace: u8, extra: &[&str]) -> (bool, String) {
    let out = out_dir(&format!("{workload}-{trace}"));
    let o = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "1"])
        .args(["--trace", &trace.to_string(), "--smoke", "--out"])
        .arg(&out)
        .args(extra)
        .output()
        .expect("the benchmark binary runs");
    (
        o.status.success(),
        String::from_utf8(o.stdout).expect("utf-8 output"),
    )
}

/// Metric names of one section of BENCHMARK.json.
fn declared(section: &str) -> Vec<String> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits beside perfbench/");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("section {section}"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section ends")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("name ends")].to_string())
        .collect()
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn unit_ok(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

fn check_run(workload: &str, trace: u8) {
    let (ok, stdout) = bench(workload, trace, &[]);
    assert!(ok, "{workload} trace {trace} failed:\n{stdout}");
    let last = stdout.lines().last().expect("a result line");
    assert!(
        last.starts_with("{\"correct\": true, \"attempted\": "),
        "{last}"
    );
    let section = if trace == 0 {
        "end_to_end"
    } else {
        "per_layer"
    };
    let names = declared(section);
    assert!(!names.is_empty());
    let printed: Vec<(&str, &str)> = stdout
        .lines()
        .filter_map(|l| l.strip_prefix("metric "))
        .map(|l| {
            let (name, rest) = l.split_once(" = ").expect("metric <name> = <value> <unit>");
            let unit = rest
                .split_whitespace()
                .nth(1)
                .expect("a unit after the value");
            (name, unit)
        })
        .collect();
    assert_eq!(printed.len(), names.len(), "{workload}: {printed:?}");
    for (name, unit) in &printed {
        assert!(well_formed(name), "{workload}: bad metric name {name}");
        assert!(unit_ok(unit), "{workload}: bad unit {unit} for {name}");
        assert!(
            names.iter().any(|n| n == name),
            "{workload}: {name} is not declared"
        );
        assert!(
            last.contains(&format!("\"{name}\": {{\"value\": "))
                && last.contains(&format!("\"unit\": \"{unit}\"")),
            "{workload}: {name} missing from the result line"
        );
    }
    let fp = stdout
        .lines()
        .find(|l| l.starts_with("fingerprint "))
        .expect("a fingerprint");
    for key in ["nproc", "simd", "cpu", "rustc", "profile", "commit"] {
        assert!(
            fp.contains(&format!("\"{key}\":")),
            "fingerprint lacks {key}"
        );
    }
    if trace == 1 {
        for ledger in [
            "ledger setup:",
            "ledger batch:",
            "ledger single query:",
            "ledger small commit:",
            "tracing overhead:",
        ] {
            assert!(stdout.contains(ledger), "{workload}: no `{ledger}` line");
        }
        let spans =
            out_dir(&format!("{workload}-{trace}")).join(format!("spans-{workload}-3.jsonl"));
        let text = std::fs::read_to_string(spans).expect("a span file");
        assert!(
            text.starts_with("{\"fingerprint\": {"),
            "span file starts with the fingerprint"
        );
        assert!(text.lines().count() > 10);
    }
}

#[test]
fn every_workload_runs_at_smoke_scale_with_every_end_to_end_metric() {
    for w in WORKLOADS {
        check_run(w, 0);
    }
}

#[test]
fn every_workload_traces_every_per_layer_metric() {
    for w in WORKLOADS {
        check_run(w, 1);
    }
}

#[test]
fn declared_names_and_units_are_well_formed() {
    for section in ["end_to_end", "per_layer"] {
        for name in declared(section) {
            assert!(well_formed(&name), "{name}");
        }
    }
    assert!(declared("end_to_end").iter().any(|n| n == "setup_s"));
}

#[test]
fn a_planted_wrong_answer_fails_the_run() {
    let (ok, stdout) = bench("la-churn", 0, &["--plant-wrong-answer"]);
    assert!(!ok, "the run must exit non-zero");
    assert!(stdout.contains("CORRECTNESS FAILURE"));
    let last = stdout.lines().last().expect("a result line");
    assert!(last.starts_with("{\"correct\": false"), "{last}");
}

#[test]
fn bad_arguments_exit_without_a_result() {
    let o = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("the benchmark binary runs");
    assert!(!o.status.success());
    assert!(o.stdout.is_empty());
}
