//! In-memory span recorder for the traced set.
//!
//! Spans are taken from the harness's side of each layer boundary: a span
//! named `vm.measured` covers one call into `spf_vm`'s public API, and
//! its layer is the part before the first dot. They are kept in a `Vec`
//! and written out once, when the run ends, so recording costs a push.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// `layer.phase`, e.g. `vm.warmup`.
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The operation (matrix cell index, request batch, kernel number)
    /// this span belongs to; spans of one operation share it.
    pub op: u64,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// The layer a span is charged to: its name up to the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    /// Duration in nanoseconds.
    pub fn nanos(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans against one monotonic clock.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// Starts the clock.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `body` inside a span called `name` for operation `op`, nested
    /// under whichever span is open, and returns its result together with
    /// the span's duration in nanoseconds.
    pub fn timed<R>(
        &mut self,
        name: &'static str,
        op: u64,
        body: impl FnOnce(&mut Tracer) -> R,
    ) -> (R, u64) {
        let id = self.spans.len();
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            op,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = body(self);
        self.open.pop();
        self.spans[id].end_ns = self.now();
        (out, self.spans[id].nanos())
    }

    /// [`timed`](Self::timed) without the duration.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        op: u64,
        body: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        self.timed(name, op, body).0
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the time its direct
/// children cover. Children never overlap (one thread, strict nesting),
/// so the subtraction cannot go negative.
pub fn self_nanos(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::nanos).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.nanos();
        }
    }
    own
}

/// Self time summed per layer, in nanoseconds. The values add up to the
/// total duration of the root spans.
pub fn layer_self_nanos(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_nanos(spans)) {
        *out.entry(s.layer()).or_insert(0) += own;
    }
    out
}

/// Renders spans as JSON lines: one object per span with its `id`,
/// `parent` (or `null`), `name`, `layer`, `op`, `start_ns`, `end_ns` and
/// `self_ns`.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for (id, (s, own)) in spans.iter().zip(self_nanos(spans)).enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\": {id}, \"parent\": {parent}, \"name\": \"{}\", \"layer\": \"{}\", \
             \"op\": {}, \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {own}}}",
            s.name,
            s.layer(),
            s.op,
            s.start_ns,
            s.end_ns
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            op: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        // root 0..100 { a 10..40 { a1 15..25 }, b 50..90 }
        let spans = [
            span("bench.run", None, 0, 100),
            span("vm.warmup", Some(0), 10, 40),
            span("core.compile", Some(1), 15, 25),
            span("vm.measured", Some(0), 50, 90),
        ];
        assert_eq!(self_nanos(&spans), vec![30, 20, 10, 40]);
        let layers = layer_self_nanos(&spans);
        assert_eq!(layers["bench"], 30);
        assert_eq!(layers["vm"], 60);
        assert_eq!(layers["core"], 10);
        assert_eq!(
            layers.values().sum::<u64>(),
            100,
            "self times partition the root"
        );
    }

    #[test]
    fn recorder_nests_by_call_structure() {
        let mut t = Tracer::new();
        t.span("bench.run", 7, |t| {
            t.span("vm.new", 7, |_| ());
            t.span("vm.warmup", 7, |t| t.span("core.compile", 7, |_| ()));
        });
        let s = t.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(0));
        assert_eq!(s[3].parent, Some(2));
        assert!(s.iter().all(|x| x.op == 7 && x.end_ns >= x.start_ns));
        assert!(s[0].nanos() >= s[1].nanos() + s[2].nanos());
        assert_eq!(s[3].layer(), "core");
    }

    #[test]
    fn jsonl_has_one_parsable_object_per_span() {
        let spans = [span("bench.run", None, 0, 9), span("vm.new", Some(0), 1, 4)];
        let text = to_jsonl(&spans);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let v = crate::json::parse(lines[1]).unwrap();
        assert_eq!(
            v.get("parent").and_then(crate::json::Value::as_f64),
            Some(0.0)
        );
        assert_eq!(
            v.get("layer").and_then(crate::json::Value::as_str),
            Some("vm")
        );
        assert_eq!(
            v.get("self_ns").and_then(crate::json::Value::as_f64),
            Some(3.0)
        );
        assert_eq!(
            crate::json::parse(lines[0]).unwrap().get("parent"),
            Some(&crate::json::Value::Null)
        );
    }
}
