//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own files, around the calls
//! into each layer's public functions; nothing inside the program under
//! test is instrumented. They stay in memory and are written out once, at
//! exit. A disabled tracer records nothing, so the same workload code runs
//! traced and untraced.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed interval at a layer boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.query`.
    pub name: &'static str,
    /// The operation (index into the op list) this span belongs to; spans
    /// of one operation share it.
    pub op_id: u32,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, same clock.
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle to an open span; `None` when the tracer is disabled.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// An empty tracer on the same clock, for another thread to record
    /// into; hand it back with [`Tracer::absorb`].
    pub fn fork(&self) -> Tracer {
        Tracer {
            enabled: self.enabled,
            epoch: self.epoch,
            spans: Vec::new(),
        }
    }

    /// Appends the spans a [`Tracer::fork`] recorded.
    pub fn absorb(&mut self, fork: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(fork.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, op_id: u32, parent: SpanId) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op_id,
            parent: parent.0,
            start_ns,
            end_ns: start_ns,
        });
        SpanId(Some(self.spans.len() - 1))
    }

    pub fn end(&mut self, id: SpanId) {
        if let Some(i) = id.0 {
            self.spans[i].end_ns = self.now_ns();
        }
    }

    /// Times `f` as one span and also returns how many seconds it took
    /// (measured whether or not the tracer is enabled).
    pub fn timed<T>(
        &mut self,
        name: &'static str,
        op_id: u32,
        parent: SpanId,
        f: impl FnOnce() -> T,
    ) -> (f64, T) {
        let id = self.begin(name, op_id, parent);
        let start = Instant::now();
        let out = f();
        let secs = start.elapsed().as_secs_f64();
        self.end(id);
        (secs, out)
    }

    /// Renders every span as a JSON array of `{name, workload, op_id,
    /// parent, start_ns, end_ns, self_ns}` objects; `self_ns` is the span's
    /// duration minus what its children cover.
    pub fn to_json(&self, workload: &str) -> String {
        let self_ns = self_times_ns(&self.spans);
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "  {{\"name\": \"{}\", \"workload\": \"{workload}\", \"op_id\": {}, \
                 \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}}}",
                s.name, s.op_id, s.start_ns, s.end_ns, self_ns[i]
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("]\n");
        out
    }
}

pub const ROOT: SpanId = SpanId(None);

/// Every span's self time: its duration minus the part of its interval
/// its direct children cover. Children are clipped to the parent and
/// overlapping children (parallel work) are counted once, so only
/// child-covered time is subtracted.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (a, b) = (
                s.start_ns.max(spans[p].start_ns),
                s.end_ns.min(spans[p].end_ns),
            );
            if a < b {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(me, mut covered)| {
            covered.sort_unstable();
            let mut child_ns = 0;
            let mut frontier = me.start_ns;
            for (a, b) in covered {
                let a = a.max(frontier);
                if b > a {
                    child_ns += b - a;
                    frontier = b;
                }
            }
            me.duration_ns() - child_ns
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "t",
            op_id: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_only_child_covered_intervals() {
        let spans = vec![
            span(None, 0, 100),
            span(Some(0), 10, 30),  // 20 covered
            span(Some(0), 20, 50),  // overlaps the first: 20 more
            span(Some(0), 90, 140), // clipped to the parent: 10
            span(Some(1), 12, 28),  // grandchild: not subtracted from span 0
            span(None, 0, 100),     // unrelated root
        ];
        let own = self_times_ns(&spans);
        assert_eq!(own[0], 100 - 20 - 20 - 10);
        assert_eq!(own[1], 20 - 16);
        assert_eq!(own[4], 16);
        assert_eq!(own[5], 100);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("a", 0, ROOT);
        t.end(id);
        assert_eq!(t.timed("b", 1, id, || 7).1, 7);
        assert!(t.spans.is_empty());
        t.set_enabled(true);
        let outer = t.begin("outer", 2, ROOT);
        t.timed("inner", 2, outer, || ());
        t.end(outer);
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[1].parent, Some(0));
        let json = t.to_json("w");
        assert!(json.contains("\"parent\": 0") && json.contains("\"self_ns\": "));
    }
}
