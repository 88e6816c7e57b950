//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into the library
//! (the library itself is not instrumented). Every span carries its name,
//! start, end, parent and the id of the op it belongs to; the root span
//! of an op is named `other`, so its self time is whatever the op spent
//! outside every named layer. Counts (computed FLOPs and bytes) are
//! attached to the op that was open when they were recorded.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub op: usize,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Per-op summary: self time per layer name and the op's own duration.
#[derive(Debug, Clone, Default)]
pub struct OpProfile {
    pub op_ns: u64,
    pub self_ns: BTreeMap<&'static str, u64>,
    pub counts: BTreeMap<&'static str, f64>,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    ops: usize,
    counts: Vec<BTreeMap<&'static str, f64>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            ops: 0,
            counts: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Runs `f` as one traced op under a root span and returns its result
    /// with the op's profile.
    pub fn op<R>(&mut self, f: impl FnOnce(&mut Tracer) -> R) -> (R, OpProfile) {
        assert!(self.stack.is_empty(), "ops do not nest");
        let op = self.ops;
        self.ops += 1;
        self.counts.push(BTreeMap::new());
        let first = self.spans.len();
        let out = self.span("other", f);
        (out, self.profile(op, first))
    }

    /// Runs `f` inside a span named `name`, a child of the open span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op: self.ops - 1,
            parent: self.stack.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Adds `value` to the open op's counter `name`.
    pub fn count(&mut self, name: &'static str, value: f64) {
        let op = self.counts.last_mut().expect("count inside an op");
        *op.entry(name).or_insert(0.0) += value;
    }

    /// Self time per name of the spans recorded since index `first`
    /// (one op): each span's duration minus its children's.
    fn profile(&self, op: usize, first: usize) -> OpProfile {
        let spans = &self.spans[first..];
        let mut self_ns: BTreeMap<&'static str, i128> = BTreeMap::new();
        for s in spans {
            let dur = i128::from(s.end_ns - s.start_ns);
            *self_ns.entry(s.name).or_insert(0) += dur;
            if let Some(p) = s.parent {
                *self_ns.entry(self.spans[p].name).or_insert(0) -= dur;
            }
        }
        OpProfile {
            op_ns: spans[0].end_ns - spans[0].start_ns,
            self_ns: self_ns
                .into_iter()
                .map(|(k, v)| {
                    (
                        k,
                        u64::try_from(v).expect("children lie inside their parent"),
                    )
                })
                .collect(),
            counts: self.counts[op].clone(),
        }
    }

    /// All spans as JSON: one `[op, id, parent, name, start_ns, end_ns]`
    /// array per line, `parent` being -1 for an op's root.
    pub fn to_json(&self) -> String {
        let mut out = String::from(
            "{\"fields\":[\"op\",\"id\",\"parent\",\"name\",\"start_ns\",\"end_ns\"],\"spans\":[\n",
        );
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            let sep = if id + 1 == self.spans.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "[{},{id},{parent},\"{}\",{},{}]{sep}",
                s.op, s.name, s.start_ns, s.end_ns
            );
        }
        out.push_str("]}\n");
        out
    }
}
