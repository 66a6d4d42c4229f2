//! Summary statistics and the in-memory span recorder of the traced run.

use std::io::Write;
use std::time::Instant;

/// The `p`-quantile (0..=1) of `values` by nearest rank; 0 when empty.
pub fn quantile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// One timed interval at a layer boundary.
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the recorder, if any.
    pub parent: Option<usize>,
    /// Spans of one request (query, commit or build) share this id.
    pub req: u64,
}

/// Keeps every span in memory; [`Spans::write_jsonl`] writes them out
/// once the run is over, so no I/O sits inside a timed interval.
pub struct Spans {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// A recorder sharing `origin`, so spans of several threads line up.
    pub fn with_origin(origin: Instant) -> Self {
        Spans {
            origin,
            spans: Vec::new(),
        }
    }

    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// `t` as nanoseconds since the origin.
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Appends another recorder's spans (same origin), keeping parents.
    pub fn absorb(&mut self, other: Spans) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Records a finished interval and returns its index, for children.
    pub fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        req: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            req,
        });
        self.spans.len() - 1
    }

    /// One JSON object per line: a header carrying the host fingerprint,
    /// then one line per span.
    pub fn write_jsonl(&self, path: &std::path::Path, header: &str) -> std::io::Result<()> {
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(f, "{header}")?;
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                f,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"req\":{}}}",
                s.name, s.start_ns, s.end_ns, parent, s.req
            )?;
        }
        f.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(quantile(&v, 0.9), 5.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(mean(&v), 3.0);
    }

    #[test]
    fn spans_nest_and_total() {
        let mut s = Spans::new();
        let root = s.push("serve.query", 0, 100, None, 7);
        s.push("router.plan", 0, 10, Some(root), 7);
        s.push("shard.probe", 10, 90, Some(root), 7);
        s.push("shard.probe", 90, 95, Some(root), 7);
        assert_eq!(s.spans[1].parent, Some(root));
        assert!(s.spans.iter().all(|x| x.req == 7));
        let mut other = Spans::with_origin(s.origin());
        let r = other.push("apply.commit", 5, 6, None, 8);
        other.push("index.fork", 5, 6, Some(r), 8);
        s.absorb(other);
        assert_eq!(s.spans[5].parent, Some(4));
    }
}
