//! Measurement plumbing shared by the workloads: the run outcome (checks
//! and metrics), order statistics, resident-memory probes and the
//! in-memory span recorder used by traced runs.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One named measurement with its unit.
#[derive(Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

/// What one workload run produced: how many output checks it attempted,
/// how many failed, and its metrics.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Counts one output check; a failure is reported on stderr with
    /// `what` and never passes silently.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {}", what());
        }
    }

    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit: unit.to_string(),
        });
    }

    /// Adds another outcome's checks and metrics to this one.
    pub fn absorb(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.metrics.extend(other.metrics);
    }

    /// The line protocol a helper process prints for its parent:
    /// `attempted N`, `failed N`, then `metric NAME VALUE UNIT` lines.
    pub fn to_lines(&self) -> String {
        let mut out = format!("attempted {}\nfailed {}\n", self.attempted, self.failed);
        for m in &self.metrics {
            let _ = writeln!(out, "metric {} {} {}", m.name, m.value, m.unit);
        }
        out
    }

    /// Parses [`Outcome::to_lines`] output; other lines are ignored.
    pub fn from_lines(text: &str) -> Result<Outcome, String> {
        let mut out = Outcome::default();
        let mut seen = (false, false);
        for line in text.lines() {
            let fields: Vec<&str> = line.split_whitespace().collect();
            let bad = || format!("malformed helper line {line:?}");
            match fields.as_slice() {
                ["attempted", n] => {
                    out.attempted = n.parse().map_err(|_| bad())?;
                    seen.0 = true;
                }
                ["failed", n] => {
                    out.failed = n.parse().map_err(|_| bad())?;
                    seen.1 = true;
                }
                ["metric", name, value, unit] => {
                    let value = value.parse().map_err(|_| bad())?;
                    out.metric(*name, value, unit);
                }
                _ => {}
            }
        }
        if seen != (true, true) {
            return Err("helper output lacks its attempted/failed lines".to_string());
        }
        Ok(out)
    }

    /// The benchmark's result line: one JSON object with `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `num / den`, or 0 when `den` is 0 (a layer that saw no calls).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Reads one `kB` field of `/proc/self/status` and returns it in MB
/// (10^6 bytes).
fn status_mb(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024.0 / 1e6)
}

/// Peak resident memory of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:").unwrap_or(0.0)
}

/// Current resident memory of this process (`VmRSS`), in MB.
pub fn rss_mb() -> f64 {
    status_mb("VmRSS:").unwrap_or(0.0)
}

/// Whether a measurement loop that started at `start` should take
/// another sample: always until `min` samples exist, then until `budget`
/// has elapsed.
pub fn more(start: Instant, budget: Duration, samples: usize, min: usize) -> bool {
    samples < min || start.elapsed() < budget
}

/// Index of a recorded span, usable as a parent.
pub type SpanId = usize;

/// One timed interval: its name, the pass (one suite, fleet run or
/// replay) it belongs to, the span that caused it, and its bounds in
/// nanoseconds since the recorder's origin.
#[derive(Debug)]
struct Span {
    name: &'static str,
    pass: u32,
    parent: Option<SpanId>,
    start_ns: u64,
    end_ns: u64,
}

impl Span {
    fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// Spans kept in memory until the run ends, then summarised.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the recorder's origin.
    pub fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        pass: u32,
        parent: Option<SpanId>,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            pass,
            parent,
            start_ns,
            end_ns,
        });
        self.spans.len() - 1
    }

    /// Opens a span that ends when [`Tracer::close`] is called.
    pub fn open(&mut self, name: &'static str, pass: u32, parent: Option<SpanId>) -> SpanId {
        let now = self.now();
        self.record(name, pass, parent, now, now)
    }

    pub fn close(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.now();
    }

    /// Times `f` as a span named `name`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        pass: u32,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, pass, parent);
        let out = f();
        self.close(id);
        out
    }

    fn passes(&self) -> u32 {
        self.spans.iter().map(|s| s.pass + 1).max().unwrap_or(0)
    }

    /// Per pass, the summed seconds of every span named `name`.
    pub fn per_pass_sum(&self, name: &str) -> Vec<f64> {
        let mut sums = vec![0.0; self.passes() as usize];
        for s in self.spans.iter().filter(|s| s.name == name) {
            sums[s.pass as usize] += s.secs();
        }
        sums
    }

    /// Per pass, the longest span named `name`.
    pub fn per_pass_max(&self, name: &str) -> Vec<f64> {
        let mut maxes = vec![0.0f64; self.passes() as usize];
        for s in self.spans.iter().filter(|s| s.name == name) {
            maxes[s.pass as usize] = maxes[s.pass as usize].max(s.secs());
        }
        maxes
    }

    /// Adds the two diagnostics that reconcile a traced run with its
    /// untraced passes: `<workload>.trace_overhead_frac`, the median
    /// traced root span over the median `untraced` pass minus one, and
    /// `<workload>.span_coverage_frac`, the median share of a root span
    /// that its direct children cover.
    pub fn reconcile(&self, out: &mut Outcome, workload: &str, root: &str, untraced: &[f64]) {
        let traced = median(&self.per_pass_sum(root));
        out.metric(
            format!("{workload}.trace_overhead_frac"),
            ratio(traced, median(untraced)) - 1.0,
            "frac",
        );
        out.metric(
            format!("{workload}.span_coverage_frac"),
            median(&self.coverage(root)),
            "frac",
        );
    }

    /// Per pass, the share of the root span (named `root`) that its
    /// direct children cover.
    fn coverage(&self, root: &str) -> Vec<f64> {
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == root)
            .map(|(id, r)| {
                let children: f64 = self
                    .spans
                    .iter()
                    .filter(|c| c.parent == Some(id))
                    .map(Span::secs)
                    .sum();
                ratio(children, r.secs())
            })
            .collect()
    }
}
