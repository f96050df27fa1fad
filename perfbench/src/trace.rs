//! The benchmark's own span recorder.
//!
//! Spans are recorded from the benchmark's code around each call into a
//! layer (crate) of the program, kept in memory and written out when the
//! run ends. A span's self time is its duration minus the part of it that
//! its child spans cover. A disabled tracer records nothing, so untraced
//! runs pay one branch per boundary.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span.
#[derive(Clone, Debug)]
pub struct Span {
    pub layer: &'static str,
    pub name: &'static str,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<usize>,
    /// Tracer (thread) that recorded the span.
    pub thread: usize,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A per-thread span recorder; spans of several tracers merge with
/// [`Tracer::absorb`].
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    base: Instant,
    thread: usize,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span; `NONE` when the tracer is disabled.
#[derive(Clone, Copy, Debug)]
#[must_use = "close the span with Tracer::exit"]
pub struct SpanId(usize);

impl SpanId {
    const NONE: SpanId = SpanId(usize::MAX);
}

impl Tracer {
    /// A tracer whose timestamps count from `base`, shared by every
    /// tracer of one run so their spans line up.
    pub fn new(enabled: bool, base: Instant, thread: usize) -> Tracer {
        Tracer {
            enabled,
            base,
            thread,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, layer: &'static str, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId::NONE;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            layer,
            name,
            parent: self.open.last().copied(),
            thread: self.thread,
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(id);
        SpanId(id)
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: SpanId) {
        if !self.enabled {
            return;
        }
        assert_eq!(
            self.open.pop(),
            Some(id.0),
            "spans must close innermost first"
        );
        self.spans[id.0].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn time<T>(&mut self, layer: &'static str, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(layer, name);
        let out = f();
        self.exit(id);
        out
    }

    /// Moves `other`'s closed spans into this tracer, keeping parent links.
    pub fn absorb(&mut self, other: Tracer) {
        assert!(other.open.is_empty(), "absorbed tracer has open spans");
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, each clipped to the parent.
fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (a, b) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if a < b {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Self time summed per layer, in milliseconds.
pub fn layer_self_ms(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times_ns(spans)) {
        *out.entry(s.layer).or_insert(0.0) += t as f64 / 1e6;
    }
    out
}

/// Σ self time of all spans as a percentage of Σ root-span duration: 100
/// when every layer's self time adds back up to the traced wall time.
pub fn self_sum_pct(spans: &[Span]) -> f64 {
    let total_self: u64 = self_times_ns(spans).iter().sum();
    let roots: u64 = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(Span::duration_ns)
        .sum();
    100.0 * total_self as f64 / roots.max(1) as f64
}

/// Summed duration (ms) of the spans named `name` under each span named
/// `under`, one value per `under` span, in order.
pub fn per_parent_ms(spans: &[Span], under: &str, name: &str) -> Vec<f64> {
    let mut totals: BTreeMap<usize, f64> = spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == under)
        .map(|(i, _)| (i, 0.0))
        .collect();
    for s in spans.iter().filter(|s| s.name == name) {
        let mut up = s.parent;
        while let Some(p) = up {
            if let Some(t) = totals.get_mut(&p) {
                *t += s.duration_ns() as f64 / 1e6;
                break;
            }
            up = spans[p].parent;
        }
    }
    totals.into_values().collect()
}

/// Durations (ms) of every span named `name`.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 / 1e6)
        .collect()
}

/// One JSON object per line: `layer`, `name`, `parent`, `thread`,
/// `start_ns`, `end_ns`, `self_ns`.
pub fn render_jsonl(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 120);
    for (s, self_ns) in spans.iter().zip(self_times_ns(spans)) {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"layer\":\"{}\",\"name\":\"{}\",\"parent\":{parent},\"thread\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}",
            s.layer, s.name, s.thread, s.start_ns, s.end_ns
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            layer: if parent.is_none() { "bench" } else { "tensor" },
            name: "s",
            parent,
            thread: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        // root [0,100) with children [10,30) and [50,60): self 70.
        let spans = [
            span(None, 0, 100),
            span(Some(0), 10, 30),
            span(Some(0), 50, 60),
        ];
        assert_eq!(self_times_ns(&spans), vec![70, 20, 10]);
        assert_eq!(self_sum_pct(&spans), 100.0);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        // Children from two threads overlap on [20,30); a child that
        // outlives its parent is clipped to it.
        let spans = [
            span(None, 0, 100),
            span(Some(0), 10, 30),
            span(Some(0), 20, 40),
            span(Some(0), 90, 120),
        ];
        assert_eq!(self_times_ns(&spans)[0], 100 - 30 - 10);
    }

    #[test]
    fn grandchildren_only_reduce_their_own_parent() {
        let spans = [
            span(None, 0, 100),
            span(Some(0), 0, 50),
            span(Some(1), 0, 40),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 10, 40]);
        let by_layer = layer_self_ms(&spans);
        assert_eq!(by_layer["bench"], 50.0 / 1e6);
        assert_eq!(by_layer["tensor"], 50.0 / 1e6);
    }

    #[test]
    fn tracer_nests_and_absorbs() {
        let base = Instant::now();
        let mut a = Tracer::new(true, base, 0);
        let root = a.enter("bench", "root");
        a.time("tensor", "leaf", || ());
        a.exit(root);
        let mut b = Tracer::new(true, base, 1);
        b.time("serve", "other", || ());
        a.absorb(b);
        let parents: Vec<_> = a.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), None]);
        assert_eq!(per_parent_ms(a.spans(), "root", "leaf").len(), 1);

        let mut off = Tracer::new(false, base, 0);
        let id = off.enter("bench", "root");
        off.exit(id);
        assert!(off.spans().is_empty());
    }
}
