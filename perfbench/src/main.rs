//! The serving engine's benchmark.
//!
//! ```text
//! perfbench --workload <la-serve|color-serve|la-churn|all> --seed <n>
//!           --seconds <n> --trace <0|1> [--smoke] [--out <dir>]
//! ```
//!
//! Builds the workload's engine from seeded inputs, serves and commits
//! for `--seconds`, checks answers against brute force, and prints one
//! line per metric followed by one JSON object on the last line. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` the
//! per-layer ones, from a separate traced run. Each result is also
//! appended, with the host fingerprint, to `<out>/results.jsonl`; traced
//! runs write their spans to `<out>/spans-<workload>-<seed>.jsonl`.
//! `perfbench/README.md` documents the workloads and metrics.

mod gate;
mod host;
mod ledger;
mod run;
mod stats;
mod workload;

use pivot_metric_repro::{L1, L2};
use std::fs::OpenOptions;
use std::io::Write;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use workload::{Data, Spec, NAMES};

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
    out: PathBuf,
    plant_wrong_answer: bool,
}

const USAGE: &str = "usage: perfbench --workload <la-serve|color-serve|la-churn|all> --seed <n> --seconds <n> --trace <0|1> [--smoke] [--out <dir>]";

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        smoke: false,
        out: PathBuf::from("perfbench/out"),
        plant_wrong_answer: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?.clone(),
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if a.seconds == 0 {
                    return Err("--seconds must be at least 1".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--smoke" => a.smoke = true,
            "--out" => a.out = PathBuf::from(value()?),
            "--plant-wrong-answer" => a.plant_wrong_answer = true,
            f => return Err(format!("unknown argument {f}")),
        }
    }
    if a.workload != "all" && !NAMES.contains(&a.workload.as_str()) {
        return Err(format!("--workload must be one of {NAMES:?} or all"));
    }
    Ok(a)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&argv);
    }
    let spec = Spec::named(&args.workload, args.smoke).expect("validated by parse");
    let fp = host::Fingerprint::detect();
    println!(
        "workload {} seed {} seconds {} trace {}",
        spec.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("fingerprint {}", fp.to_json());
    let settings = run::Settings {
        seed: args.seed,
        seconds: args.seconds as f64,
        trace: args.trace,
        plant_wrong_answer: args.plant_wrong_answer,
    };
    let outcome = match spec.data {
        Data::La => run::run(&spec, L2, &settings),
        Data::Color => run::run(&spec, L1, &settings),
    };
    for line in &outcome.lines {
        println!("{line}");
    }
    for m in &outcome.metrics {
        println!("metric {} = {} {}", m.name, m.value, m.unit);
    }
    if let Some(e) = &outcome.error {
        println!("CORRECTNESS FAILURE: {e}");
    }
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            )
        })
        .collect();
    let result = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.error.is_none(),
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    );
    if let Err(e) = save(&args, &spec, &fp, &result, outcome.spans.as_ref()) {
        eprintln!("cannot write results under {}: {e}", args.out.display());
    }
    println!("{result}");
    if outcome.error.is_some() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting gives; non-finite values (a bug) become 0.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn save(
    args: &Args,
    spec: &Spec,
    fp: &host::Fingerprint,
    result: &str,
    spans: Option<&stats::Spans>,
) -> std::io::Result<()> {
    std::fs::create_dir_all(&args.out)?;
    let header = format!(
        "{{\"fingerprint\": {}, \"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"smoke\": {}",
        fp.to_json(),
        spec.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.smoke
    );
    let mut f = OpenOptions::new()
        .create(true)
        .append(true)
        .open(args.out.join("results.jsonl"))?;
    writeln!(f, "{header}, \"result\": {result}}}")?;
    if let Some(spans) = spans {
        let path = args
            .out
            .join(format!("spans-{}-{}.jsonl", spec.name, args.seed));
        spans.write_jsonl(&path, &format!("{header}}}"))?;
    }
    Ok(())
}

/// Runs every workload in its own child process (so each reports its own
/// memory high-water mark) and prints a combined result whose metric
/// names are prefixed with the workload.
fn run_all(argv: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("cannot locate this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut correct = true;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut metrics = Vec::new();
    for name in NAMES {
        let mut child_args: Vec<String> = Vec::new();
        let mut it = argv.iter();
        while let Some(a) = it.next() {
            if a == "--workload" {
                it.next();
            } else {
                child_args.push(a.clone());
            }
        }
        child_args.extend(["--workload".to_string(), name.to_string()]);
        let output = Command::new(&exe)
            .args(&child_args)
            .stderr(Stdio::inherit())
            .output();
        let stdout = match output {
            Ok(o) => {
                correct &= o.status.success();
                String::from_utf8_lossy(&o.stdout).into_owned()
            }
            Err(e) => {
                eprintln!("cannot run {name}: {e}");
                return ExitCode::FAILURE;
            }
        };
        print!("{stdout}");
        let last = stdout.lines().last().unwrap_or_default();
        attempted += field_u64(last, "\"attempted\": ");
        failed += field_u64(last, "\"failed\": ");
        if let Some(start) = last.find("\"metrics\": {") {
            let body = &last[start + 12..last.len().saturating_sub(2)];
            metrics.extend(body.split("}, ").filter(|m| !m.is_empty()).map(|m| {
                format!(
                    "\"{name}.{}}}",
                    m.trim_start_matches('"').trim_end_matches('}')
                )
            }));
        } else {
            correct = false;
        }
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn field_u64(line: &str, key: &str) -> u64 {
    line.find(key)
        .map(|i| &line[i + key.len()..])
        .and_then(|rest| rest.split(|c: char| !c.is_ascii_digit()).next())
        .and_then(|d| d.parse().ok())
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse(&args("--workload la-churn --seed 9 --seconds 3 --trace 1")).unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("la-churn", 9, 3, true)
        );
        assert!(parse(&args("--workload nope")).is_err());
        assert!(parse(&args("--workload la-serve --trace 2")).is_err());
        assert!(parse(&args("--workload la-serve --seconds 0")).is_err());
        assert!(parse(&args("--workload la-serve --seed")).is_err());
    }

    #[test]
    fn json_numbers_keep_their_digits() {
        assert_eq!(json_num(1.2034567891), "1.2034567891");
        assert_eq!(json_num(f64::NAN), "0");
        assert_eq!(
            field_u64("{\"attempted\": 42, \"failed\": 0}", "\"attempted\": "),
            42
        );
    }
}
