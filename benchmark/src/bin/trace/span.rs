//! Spans: name, start, end, the span that caused it, and the release
//! it belongs to. Recorded only in this binary, around calls into the
//! system's public functions; kept in memory; written out at exit.

use cargo_benchmark::report::json_string;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary: `<crate>.<module>.<what>`.
    pub name: &'static str,
    /// Which thread of the benchmark recorded it (`main`, `s1`, `s2`).
    pub party: &'static str,
    /// Which release (serve: epoch) of the run it belongs to.
    pub release: u32,
    /// Index among this party's spans.
    pub id: u32,
    /// The enclosing span of the same party, if any.
    pub parent: Option<u32>,
    /// Nanoseconds since the trace's origin.
    pub start_ns: u64,
    /// Nanoseconds since the trace's origin.
    pub end_ns: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// One thread's span recorder. Each party thread owns one, so recording
/// takes no lock; the logs are merged after the threads are joined.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    party: &'static str,
    release: u32,
    open: Vec<u32>,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder for `party`, on the clock that started at `origin`.
    pub fn new(origin: Instant, party: &'static str) -> Self {
        Tracer {
            origin,
            party,
            release: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Spans recorded from now on belong to `release`.
    pub fn set_release(&mut self, release: u32) {
        self.release = release;
    }

    /// Records a span around `f`; spans `f` records through the tracer
    /// it is handed become this span's children.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.spans.len() as u32;
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            party: self.party,
            release: self.release,
            id,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let value = f(self);
        self.open.pop();
        self.spans[id as usize].end_ns = self.origin.elapsed().as_nanos() as u64;
        value
    }

    /// Durations, in seconds, of every span called `name`.
    pub fn seconds(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::seconds)
            .collect()
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// One JSON object per line, in the order given.
pub fn to_jsonl<'a>(spans: impl IntoIterator<Item = &'a Span>) -> String {
    let mut out = String::new();
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"name\": {}, \"party\": {}, \"release\": {}, \"id\": {}, \"parent\": {parent}, \
             \"start_ns\": {}, \"end_ns\": {}}}",
            json_string(s.name),
            json_string(s.party),
            s.release,
            s.id,
            s.start_ns,
            s.end_ns
        )
        .expect("write to a String");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_and_durations() {
        let mut t = Tracer::new(Instant::now(), "s1");
        t.set_release(2);
        let answer = t.span("outer", |t| {
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
            t.span("inner", |_| ());
            42
        });
        assert_eq!(answer, 42);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!((spans[0].name, spans[0].parent), ("outer", None));
        assert_eq!((spans[1].name, spans[1].parent), ("inner", Some(0)));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.release == 2 && s.party == "s1"));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[2].end_ns <= spans[0].end_ns);
        assert_eq!(t.seconds("inner").len(), 2);
        assert!(t.seconds("inner")[0] >= 0.005);
        assert!(spans[0].seconds() >= t.seconds("inner").iter().sum::<f64>());
    }

    #[test]
    fn jsonl_is_one_object_per_span() {
        let mut t = Tracer::new(Instant::now(), "main");
        t.span("graph.io.load", |t| t.span("child", |_| ()));
        let text = to_jsonl(t.spans());
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"name\": \"graph.io.load\", \"party\": \"main\", \"release\": 0, \"id\": 0, \"parent\": null,"));
        assert!(lines[1].contains("\"parent\": 0"));
    }
}
