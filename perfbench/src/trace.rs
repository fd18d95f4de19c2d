//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code around each call
//! into a layer's public functions; nothing inside the program is
//! instrumented. A span carries its layer-qualified name, the span that
//! caused it, a tag shared by the spans of one item or repetition, and
//! a work count (cycles, polls, decisions, points) so per-unit costs
//! are measured where the work happens. Spans stay in memory until the
//! run ends, when [`Tracer::write_jsonl`] writes them out.

use std::io::Write;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `sim.run.cycle`.
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Item or repetition identifier shared by related spans.
    pub tag: u64,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Units of work done inside the span.
    pub count: u64,
}

impl Span {
    /// Wall time of the span in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty recorder.
    pub fn new() -> Self {
        Tracer { epoch: Instant::now(), spans: Vec::with_capacity(1 << 14), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; `f` returns its result and
    /// the units of work it did.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        tag: u64,
        f: impl FnOnce(&mut Tracer) -> (T, u64),
    ) -> T {
        let index = self.spans.len();
        let parent = self.open.last().copied();
        self.spans.push(Span { name, parent, tag, start_ns: 0, end_ns: 0, count: 0 });
        self.open.push(index);
        let start = self.now_ns();
        self.spans[index].start_ns = start;
        let (out, count) = f(self);
        let end = self.now_ns();
        self.open.pop();
        let span = &mut self.spans[index];
        span.end_ns = end;
        span.count = count;
        out
    }

    /// All spans recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans named `name`.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Self time of every span: its duration minus the part its direct
    /// children cover (children run inside their parent, one at a time).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child[p] += span.dur_ns();
            }
        }
        self.spans.iter().zip(child).map(|(s, c)| s.dur_ns().saturating_sub(c)).collect()
    }

    /// Self times, in nanoseconds, of the spans named `name`, limited
    /// to tag `tag` when one is given.
    pub fn self_ns_of(&self, name: &str, tag: Option<u64>) -> Vec<f64> {
        let selfs = self.self_times_ns();
        self.spans
            .iter()
            .zip(selfs)
            .filter(|(s, _)| s.name == name && tag.is_none_or(|t| s.tag == t))
            .map(|(_, t)| t as f64)
            .collect()
    }

    /// Nanoseconds per unit of work over the spans named `name` with
    /// tag `tag`: summed self time over summed counts.
    pub fn ns_per_unit(&self, name: &str, tag: u64) -> Option<f64> {
        let selfs = self.self_times_ns();
        let (mut ns, mut units) = (0u64, 0u64);
        for (span, t) in self.spans.iter().zip(selfs) {
            if span.name == name && span.tag == tag {
                ns += t;
                units += span.count;
            }
        }
        (units > 0).then(|| ns as f64 / units as f64)
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"parent\":{parent},\"tag\":{},\"start_ns\":{},\"end_ns\":{},\"count\":{}}}",
                s.name, s.tag, s.start_ns, s.end_ns, s.count
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        t.span("outer", 0, |t| {
            t.span("inner", 0, |_| {
                std::thread::sleep(std::time::Duration::from_millis(20));
                ((), 1)
            });
            std::thread::sleep(std::time::Duration::from_millis(5));
            ((), 1)
        });
        let selfs = t.self_times_ns();
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(selfs[0] < t.spans()[0].dur_ns());
        assert!(selfs[0] + selfs[1] <= t.spans()[0].dur_ns());
        assert!(selfs[1] >= 20_000_000);
    }
}
