//! The host fingerprint stamped on every result and trace file, the
//! process memory high-water mark, and a memory-copy bandwidth probe.

use std::time::Instant;

/// What a measurement depends on besides the code: results whose
/// fingerprints differ (ignoring `commit`) are not compared.
pub struct Fingerprint {
    pub nproc: usize,
    pub simd: &'static str,
    pub cpu: String,
    pub rustc: &'static str,
    pub profile: &'static str,
    pub commit: &'static str,
}

impl Fingerprint {
    pub fn detect() -> Self {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Fingerprint {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            simd: pivot_metric_repro::metric::simd::tier().label(),
            cpu,
            rustc: env!("PERFBENCH_RUSTC"),
            profile: env!("PERFBENCH_PROFILE"),
            commit: env!("PERFBENCH_COMMIT"),
        }
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\":{},\"simd\":\"{}\",\"cpu\":\"{}\",\"rustc\":\"{}\",\"profile\":\"{}\",\"commit\":\"{}\"}}",
            self.nproc,
            esc(self.simd),
            esc(&self.cpu),
            esc(self.rustc),
            esc(self.profile),
            esc(self.commit)
        )
    }
}

/// Escapes a string for a JSON string literal.
pub fn esc(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if (c as u32) < 0x20 => vec![' '],
            c => vec![c],
        })
        .collect()
}

/// The process's resident-set high-water mark (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:")
}

/// The process's resident set (`VmRSS`) in MB.
pub fn rss_mb() -> f64 {
    status_mb("VmRSS:")
}

fn status_mb(key: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(key))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `(stolen, total)` CPU ticks of the whole machine since boot, from the
/// aggregate line of `/proc/stat`: time the hypervisor gave this machine's
/// CPUs to someone else, and all time. `(0, 0)` where unavailable.
pub fn cpu_ticks() -> (u64, u64) {
    let line = std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_default();
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// The share of CPU time stolen between two [`cpu_ticks`] readings.
pub fn steal_share(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1);
    after.0.saturating_sub(before.0) as f64 / total.max(1) as f64
}

/// Memory-copy bandwidth in GB/s (bytes read plus bytes written per
/// second) over a `bytes`-sized buffer, for at least `min_secs`: the
/// roofline the scan kernel's bandwidth is read against.
pub fn copy_gbps(bytes: usize, min_secs: f64) -> f64 {
    let bytes = bytes.max(1 << 16);
    let src = vec![1u8; bytes];
    let mut dst = vec![0u8; bytes];
    dst.copy_from_slice(&src);
    let t = Instant::now();
    let mut copies = 0u64;
    while copies < 3 || t.elapsed().as_secs_f64() < min_secs {
        dst.copy_from_slice(std::hint::black_box(&src));
        std::hint::black_box(&mut dst);
        copies += 1;
    }
    2.0 * (bytes as u64 * copies) as f64 / t.elapsed().as_secs_f64() / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_is_valid_json_shape() {
        let fp = Fingerprint::detect();
        let j = fp.to_json();
        assert!(j.starts_with("{\"nproc\":") && j.ends_with('}'));
        assert!(fp.nproc >= 1);
        assert_eq!(esc("a\"b\\c\n"), "a\\\"b\\\\c ");
    }

    #[test]
    fn rss_and_copy_probe_read_positive() {
        assert!(peak_rss_mb() > 0.0);
        assert!(copy_gbps(1 << 20, 0.01) > 0.0);
    }
}
