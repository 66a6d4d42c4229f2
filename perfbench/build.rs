//! Stamps the toolchain, build profile and source commit into the binary,
//! for the host fingerprint printed with every result.

use std::env;
use std::fs;
use std::path::Path;
use std::process::Command;

fn main() {
    println!("cargo:rerun-if-changed=build.rs");
    let rustc = env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = Command::new(rustc)
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");
    let profile = env::var("PROFILE").unwrap_or_else(|_| "unknown".to_string());
    println!("cargo:rustc-env=PERFBENCH_PROFILE={profile}");
    println!("cargo:rustc-env=PERFBENCH_COMMIT={}", git_commit());
}

/// The commit of the enclosing git checkout, or `none` outside one. Only
/// paths that exist are watched, so a checkout without `.git` does not
/// re-run this script on every build.
fn git_commit() -> String {
    let git = Path::new("../.git");
    let Ok(head) = fs::read_to_string(git.join("HEAD")) else {
        return "none".to_string();
    };
    println!("cargo:rerun-if-changed=../.git/HEAD");
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    let ref_path = git.join(reference);
    if ref_path.exists() {
        println!("cargo:rerun-if-changed=../.git/{reference}");
    }
    if let Ok(id) = fs::read_to_string(&ref_path) {
        return id.trim().to_string();
    }
    // A packed ref: `<id> <name>` lines in packed-refs.
    fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (id, name) = l.split_once(' ')?;
                (name == reference).then(|| id.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}
