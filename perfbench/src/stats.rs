//! Exact order statistics over raw samples, and the benchmark's own
//! span recorder with self-time computation.

/// Nearest-rank quantile of `samples` (any order): the smallest value
/// with at least `q·n` samples at or below it. `None` when there are
/// no samples.
pub fn nearest_rank(samples: &[u64], q: f64) -> Option<u64> {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Some(sorted[rank - 1])
}

/// A tail quantile that is only reported when it is backed by at least
/// ten samples strictly beyond its rank: with `n` samples the
/// nearest-rank `q` quantile has `n − ⌈q·n⌉` samples above it.
pub fn tail_quantile(samples: &[u64], q: f64) -> Option<u64> {
    let n = samples.len();
    let rank = (q * n as f64).ceil() as usize;
    if n == 0 || n.saturating_sub(rank) < 10 {
        return None;
    }
    nearest_rank(samples, q)
}

/// Median of `f64` values (mean of the middle two for even counts).
pub fn median_f64(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// One benchmark-side span: a named interval around a call into a
/// layer, with the span that caused it and the request it belongs to.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the recorder, if any.
    pub parent: Option<usize>,
    /// Request id (the serve ticket's id), 0 outside requests.
    pub req: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span store; spans are written out only when the run ends.
pub struct Spans {
    epoch: std::time::Instant,
    pub spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            epoch: std::time::Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its index; close it with [`Spans::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>, req: u64) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            req,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, idx: usize) {
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Records a finished span from instants taken by the caller.
    pub fn record(
        &mut self,
        name: &'static str,
        start: std::time::Instant,
        end: std::time::Instant,
        parent: Option<usize>,
        req: u64,
    ) -> usize {
        let ns = |t: std::time::Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent,
            req,
        });
        self.spans.len() - 1
    }

    /// Durations of every span called `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .collect()
    }

    /// One JSON object per line: name, start, end, parent, request id.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 80);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}\n",
                s.name, s.start_ns, s.end_ns, s.req
            ));
        }
        out
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns() - covered.min(s.dur_ns())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_definition() {
        let v: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(nearest_rank(&v, 0.5), Some(50));
        assert_eq!(nearest_rank(&v, 0.99), Some(99));
        assert_eq!(nearest_rank(&v, 1.0), Some(100));
        assert_eq!(nearest_rank(&v, 0.0), Some(1));
        assert_eq!(nearest_rank(&[7], 0.5), Some(7));
        assert_eq!(nearest_rank(&[], 0.5), None);
        // Odd count: ceil(0.5 * 5) = 3rd smallest.
        assert_eq!(nearest_rank(&[5, 1, 4, 2, 3], 0.5), Some(3));
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 999 samples: rank ceil(989.01) = 990, 9 beyond -> withheld.
        let v: Vec<u64> = (1..=999).collect();
        assert_eq!(tail_quantile(&v, 0.99), None);
        // 1000 samples: rank 990, exactly 10 beyond -> reported.
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(tail_quantile(&v, 0.99), Some(990));
        assert_eq!(tail_quantile(&[], 0.5), None);
        assert_eq!(
            tail_quantile(&(1..=20).collect::<Vec<u64>>(), 0.5),
            Some(10)
        );
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median_f64(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_f64(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    fn span(start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: "s",
            start_ns: start,
            end_ns: end,
            parent,
            req: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = [
            span(0, 100, None),     // 0: root
            span(10, 30, Some(0)),  // 1: child
            span(25, 50, Some(0)),  // 2: child overlapping 1 by 5
            span(12, 20, Some(1)),  // 3: grandchild of 0 via 1
            span(90, 120, Some(0)), // 4: child running past the root
        ];
        let st = self_times(&spans);
        // Root: 100 - union{[10,50), [90,100)} = 100 - 50.
        assert_eq!(st[0], 50);
        // Child 1: 20 - its own child's 8; the grandchild is not
        // subtracted from the root a second time.
        assert_eq!(st[1], 12);
        assert_eq!(st[2], 25);
        assert_eq!(st[3], 8);
        assert_eq!(st[4], 30);
    }
}
