//! Spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name, start and end (ns since the tracer was made), the
//! span that encloses it and the operation it belongs to. Spans stay in
//! memory and are written out once, at the end of a traced run. A
//! disabled tracer records nothing.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer { on, origin: Instant::now(), spans: Vec::new(), open: Vec::new(), op: 0 }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Turns recording on or off; spans open across a switch are not
    /// allowed.
    pub fn set_on(&mut self, on: bool) {
        debug_assert!(self.open.is_empty());
        self.on = on;
    }

    pub fn op(&self) -> u64 {
        self.op
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Starts operation `op`: later spans carry its id.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Opens a span that later spans nest in until [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let span = Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            op: self.op,
        };
        self.open.push(self.spans.len());
        self.spans.push(span);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let i = self.open.pop().expect("exit matches an enter");
        self.spans[i].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Records a span measured elsewhere (a duration in seconds a layer
    /// reports itself) as a child of the innermost open span, ending now.
    pub fn record(&mut self, name: &'static str, secs: f64) {
        if !self.on {
            return;
        }
        let end = self.now_ns();
        let dur_ns = (secs * 1e9) as u64;
        self.spans.push(Span {
            name,
            start_ns: end.saturating_sub(dur_ns),
            end_ns: end,
            parent: self.open.last().copied(),
            op: self.op,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Each span's duration minus the durations of its children.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.dur_ns();
            }
        }
        self.spans.iter().zip(child).map(|(s, c)| s.dur_ns().saturating_sub(c)).collect()
    }

    /// Per operation, the durations of every span named `name`, summed.
    pub fn dur_ns_by_op(&self, name: &str) -> BTreeMap<u64, u64> {
        let mut out = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *out.entry(s.op).or_insert(0) += s.dur_ns();
        }
        out
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, (s, t)) in self.spans.iter().zip(self.self_ns()).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{t}}}",
                s.name, s.op, s.start_ns, s.end_ns
            );
        }
        out
    }
}
