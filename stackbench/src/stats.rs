//! The benchmark's arithmetic: percentiles with a tail-sample rule,
//! medians, in-memory spans with self time, and the metric-name rule.

use std::time::Instant;

/// A percentile is reported only when at least this many samples lie
/// beyond it; otherwise the run is too short to support it.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// 1-based nearest rank of the `q`-quantile among `n` samples, and how
/// many samples lie beyond it.
fn rank(n: usize, q: f64) -> (usize, usize) {
    assert!(q > 0.0 && q < 1.0, "quantile must lie in (0, 1)");
    // The smallest k with k / n >= q.
    let k = ((q * n as f64).ceil() as usize).max(1);
    (k, n.saturating_sub(k))
}

/// Whether `n` samples support a `q`-quantile: at least
/// [`MIN_TAIL_SAMPLES`] of them lie beyond it.
#[must_use]
pub fn supports(n: usize, q: f64) -> bool {
    rank(n, q).1 >= MIN_TAIL_SAMPLES
}

/// The nearest-rank `q`-quantile (`0 < q < 1`) of `samples`.
///
/// # Errors
///
/// Refuses when fewer than [`MIN_TAIL_SAMPLES`] samples lie beyond the
/// percentile's rank, so a reported p99 always has a measured tail.
pub fn percentile(samples: &[f64], q: f64) -> Result<f64, String> {
    let n = samples.len();
    let (k, beyond) = rank(n, q);
    if !supports(n, q) {
        return Err(format!(
            "p{} needs {MIN_TAIL_SAMPLES} samples beyond it; {n} samples leave {beyond}",
            q * 100.0
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[k - 1])
}

/// The median of `values` (mean of the middle pair for even counts);
/// `0.0` for an empty slice.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The nearest-rank upper quartile of `values`: the largest of two or
/// three values, the third of four. `0.0` for an empty slice.
#[must_use]
pub fn upper_quartile(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[(values.len() * 3).div_ceil(4) - 1]
}

/// The upper quartile of each call over repeated runs of the same calls:
/// entry `j` is the [`upper_quartile`] of `reps[r][j]` over the
/// repetitions `r`. Calls missing from a repetition (one cut short by a
/// failed check) are dropped.
#[must_use]
pub fn upper_quartile_per_call(reps: &[Vec<f64>]) -> Vec<f64> {
    let calls = reps.iter().map(Vec::len).min().unwrap_or(0);
    (0..calls)
        .map(|j| upper_quartile(&reps.iter().map(|r| r[j]).collect::<Vec<_>>()))
        .collect()
}

/// Whether `name` is a legal metric name: non-empty, at most 64
/// characters of `[A-Za-z0-9_.-]`, starting with a letter or digit.
#[must_use]
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// One recorded span: a named interval of one request, with the index of
/// the span that caused it.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer name, e.g. `alg2` or `serve.admit`.
    pub name: &'static str,
    /// The request (trace arrival or batch network) the span belongs to.
    pub request: u64,
    /// Index of the enclosing span in the same [`Spans`] log.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the log's origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the log's origin.
    pub end_ns: u64,
}

impl Span {
    /// The span's wall duration in nanoseconds.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An in-memory span log. Spans are kept until the run ends and then
/// aggregated; nothing is written while the workload runs.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    log: Vec<Span>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans {
            origin: Instant::now(),
            log: Vec::new(),
        }
    }
}

impl Spans {
    /// Opens a span and returns its index; close it with [`Spans::close`].
    pub fn open(&mut self, name: &'static str, request: u64, parent: Option<usize>) -> usize {
        let now = self.now_ns();
        self.log.push(Span {
            name,
            request,
            parent,
            start_ns: now,
            end_ns: now,
        });
        self.log.len() - 1
    }

    /// Closes the span `index`.
    pub fn close(&mut self, index: usize) {
        self.log[index].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let index = self.open(name, request, parent);
        let out = f();
        self.close(index);
        out
    }

    /// The recorded spans, in opening order.
    #[must_use]
    pub fn log(&self) -> &[Span] {
        &self.log
    }

    /// Self time of every span: its duration minus the part of its
    /// interval covered by its direct children.
    #[must_use]
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.log.len()];
        for span in &self.log {
            if let Some(p) = span.parent {
                children[p].push((span.start_ns, span.end_ns));
            }
        }
        self.log
            .iter()
            .zip(children)
            .map(|(span, mut kids)| {
                kids.sort_unstable();
                let (mut covered, mut reach) = (0, span.start_ns);
                for (start, end) in kids {
                    let start = start.max(reach);
                    let end = end.min(span.end_ns);
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
                span.duration_ns() - covered
            })
            .collect()
    }

    /// Total self time of all spans named `name`, in seconds.
    #[must_use]
    pub fn self_seconds(&self, name: &str) -> f64 {
        let ns: u64 = self
            .self_times_ns()
            .iter()
            .zip(&self.log)
            .filter(|(_, s)| s.name == name)
            .map(|(&t, _)| t)
            .sum();
        ns as f64 * 1e-9
    }

    /// Total wall time of all spans named `name`, in seconds.
    #[must_use]
    pub fn total_seconds(&self, name: &str) -> f64 {
        let ns: u64 = self
            .log
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .sum();
        ns as f64 * 1e-9
    }

    /// Number of spans named `name`.
    #[must_use]
    pub fn count(&self, name: &str) -> usize {
        self.log.iter().filter(|s| s.name == name).count()
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("run shorter than 584 years")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_uses_nearest_rank() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&samples, 0.5).unwrap(), 500.0);
        assert_eq!(percentile(&samples, 0.99).unwrap(), 990.0);
        // Order of the input does not matter.
        let reversed: Vec<f64> = samples.iter().rev().copied().collect();
        assert_eq!(percentile(&reversed, 0.99).unwrap(), 990.0);
    }

    #[test]
    fn percentile_refuses_a_thin_tail() {
        // 1000 samples leave exactly 10 beyond p99: accepted.
        let enough: Vec<f64> = (0..1000).map(f64::from).collect();
        assert!(percentile(&enough, 0.99).is_ok());
        // 999 samples leave 9 beyond p99: refused.
        let short: Vec<f64> = (0..999).map(f64::from).collect();
        let err = percentile(&short, 0.99).unwrap_err();
        assert!(err.contains("leave 9"), "{err}");
        // p50 needs 20 samples; 19 leave 9 beyond it.
        assert!(percentile(&enough[..20], 0.5).is_ok());
        assert!(percentile(&enough[..19], 0.5).is_err());
        assert!(percentile(&[], 0.5).is_err());
        assert!(supports(1000, 0.99) && !supports(999, 0.99));
        assert!(supports(200, 0.95) && !supports(199, 0.95));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn upper_quartile_by_nearest_rank() {
        assert_eq!(upper_quartile(&[3.0]), 3.0);
        assert_eq!(upper_quartile(&[2.0, 1.0]), 2.0);
        assert_eq!(upper_quartile(&[2.0, 3.0, 1.0]), 3.0);
        assert_eq!(upper_quartile(&[4.0, 1.0, 3.0, 2.0]), 3.0);
        assert_eq!(upper_quartile(&[5.0, 1.0, 4.0, 2.0, 3.0]), 4.0);
        assert_eq!(upper_quartile(&[]), 0.0);
    }

    #[test]
    fn upper_quartile_per_call_pairs_repetitions() {
        let reps = vec![vec![1.0, 5.0, 3.0], vec![2.0, 4.0, 9.0], vec![3.0, 6.0]];
        assert_eq!(upper_quartile_per_call(&reps), vec![3.0, 6.0]);
        assert_eq!(upper_quartile_per_call(&reps[..1]), vec![1.0, 5.0, 3.0]);
        assert!(upper_quartile_per_call(&[]).is_empty());
    }

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            request: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut spans = Spans::default();
        spans.log.push(span("probe", None, 0, 100)); // 0
        spans.log.push(span("alg2", Some(0), 10, 60)); // 1
        spans.log.push(span("search", Some(1), 20, 50)); // 2, grandchild of 0
        spans.log.push(span("alg3", Some(0), 60, 70)); // 3
        spans.log.push(span("alg4", Some(0), 75, 95)); // 4
        spans.log.push(span("serve.admit", None, 100, 130)); // 5
        assert_eq!(spans.self_times_ns(), vec![20, 20, 30, 10, 20, 30]);
        assert!((spans.self_seconds("probe") - 20e-9).abs() < 1e-15);
        assert!((spans.total_seconds("alg2") - 50e-9).abs() < 1e-15);
        // Self times of a tree sum to the root's duration.
        let tree: u64 = spans.self_times_ns()[..5].iter().sum();
        assert_eq!(tree, 100);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        let mut spans = Spans::default();
        spans.log.push(span("root", None, 0, 100));
        spans.log.push(span("a", Some(0), 10, 50));
        spans.log.push(span("b", Some(0), 40, 80));
        // Child running past its parent is clipped to the parent.
        spans.log.push(span("c", Some(0), 90, 120));
        assert_eq!(spans.self_times_ns()[0], 100 - 70 - 10);
    }

    #[test]
    fn live_spans_nest_and_time() {
        let mut spans = Spans::default();
        let root = spans.open("root", 7, None);
        let inner = spans.time("leaf", 7, Some(root), || 1 + 1);
        spans.close(root);
        assert_eq!(inner, 2);
        let log = spans.log();
        assert_eq!(log[1].parent, Some(0));
        assert!(log[0].start_ns <= log[1].start_ns && log[1].end_ns <= log[0].end_ns);
        assert_eq!(spans.count("leaf"), 1);
    }

    #[test]
    fn metric_names_follow_the_rule() {
        for ok in [
            "events_per_s",
            "alg2.search.pops",
            "setup_s",
            "p99-ms",
            "2x",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in ["", ".pops", "_x", "a b", "rate/s", "ms%", &"x".repeat(65)] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }
}
