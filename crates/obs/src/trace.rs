//! Bounded per-query span traces.
//!
//! A [`TraceBuilder`] accumulates [`TraceSpan`]s against a single monotonic
//! anchor ([`std::time::Instant`] captured at builder creation), so span
//! timestamps are nanosecond offsets that serialize portably and never
//! consult a wall clock. The span count is capped ([`SPAN_CAP`]): past the
//! cap new spans are counted in [`QueryTrace::dropped`] rather than
//! allocated, so a pathological query cannot balloon its own answer.
//!
//! Deep layers (preprocessing, semantics planning) emit spans through a
//! thread-local hook — [`install`] a builder, run the pipeline, [`take`] it
//! back — so instrumentation does not thread a builder through every
//! signature. When no builder is installed, [`span`] is a single
//! thread-local read returning a no-op guard.

use std::cell::RefCell;
use std::time::Instant;

/// Maximum spans retained per trace; further opens only bump `dropped`.
pub const SPAN_CAP: usize = 256;

/// Maximum attributes retained per span.
const ATTR_CAP: usize = 16;

/// One timed region of a query, as a closed interval of nanosecond offsets
/// from the trace anchor, with an optional parent forming the span tree.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct TraceSpan {
    /// Span name from the fixed taxonomy (e.g. `"plan"`, `"part.solve"`).
    pub name: String,
    /// Start offset from the trace anchor, nanoseconds.
    pub start_ns: u64,
    /// End offset from the trace anchor, nanoseconds (`>= start_ns`).
    pub end_ns: u64,
    /// Index of the parent span in [`QueryTrace::spans`]; `None` for root.
    pub parent: Option<u32>,
    /// Small key/value annotations (route names, part indices, cache
    /// outcomes); capped per span.
    pub attrs: Vec<(String, String)>,
}

/// A finished span tree, returned alongside an answer when tracing was
/// requested. Round-trips through serde.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct QueryTrace {
    /// All retained spans; index 0 is the root `"query"` span, and every
    /// `parent` index points earlier in the vector.
    pub spans: Vec<TraceSpan>,
    /// Spans discarded after [`SPAN_CAP`] was reached.
    pub dropped: u64,
}

impl QueryTrace {
    /// The first span with this name, if any.
    pub fn find(&self, name: &str) -> Option<&TraceSpan> {
        self.spans.iter().find(|s| s.name == name)
    }
}

/// Accumulates spans for one query. Creation opens the root `"query"` span;
/// [`TraceBuilder::finish`] closes whatever is still open and yields the
/// [`QueryTrace`].
#[derive(Debug)]
pub struct TraceBuilder {
    anchor: Instant,
    spans: Vec<TraceSpan>,
    /// Stack of open span indices; the top is the parent of the next open.
    stack: Vec<u32>,
    dropped: u64,
    cap: usize,
}

impl TraceBuilder {
    /// A builder anchored at "now", with the root span already open.
    pub fn new() -> Self {
        Self::with_cap(SPAN_CAP)
    }

    /// A builder with an explicit span cap (testing hook).
    pub fn with_cap(cap: usize) -> Self {
        let mut b = TraceBuilder {
            anchor: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            dropped: 0,
            cap: cap.max(1),
        };
        let root = b.push_span("query", 0, None);
        debug_assert_eq!(root, Some(0));
        if let Some(id) = root {
            b.stack.push(id);
        }
        b
    }

    fn now_ns(&self) -> u64 {
        // u64 nanoseconds cover ~584 years of query time.
        self.anchor.elapsed().as_nanos() as u64
    }

    fn push_span(&mut self, name: &str, start_ns: u64, parent: Option<u32>) -> Option<u32> {
        if self.spans.len() >= self.cap {
            self.dropped += 1;
            return None;
        }
        let id = self.spans.len() as u32;
        self.spans.push(TraceSpan {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent,
            attrs: Vec::new(),
        });
        Some(id)
    }

    /// Open a child of the innermost open span. Returns `None` (and counts
    /// a drop) past the cap; children opened under a dropped span attach to
    /// the nearest retained ancestor.
    pub fn open(&mut self, name: &str) -> Option<u32> {
        let start = self.now_ns();
        let parent = self.stack.last().copied();
        let id = self.push_span(name, start, parent)?;
        self.stack.push(id);
        Some(id)
    }

    /// Close an open span, stamping its end. Tolerates out-of-order closes:
    /// anything opened after `id` and still open is closed with it.
    pub fn close(&mut self, id: u32) {
        let end = self.now_ns();
        if let Some(pos) = self.stack.iter().rposition(|&s| s == id) {
            for &open in &self.stack[pos..] {
                if let Some(span) = self.spans.get_mut(open as usize) {
                    span.end_ns = end;
                }
            }
            self.stack.truncate(pos);
        }
    }

    /// Record an already-measured interval as a child of the innermost open
    /// span — used when work ran elsewhere (e.g. on a pool worker) and its
    /// `Instant` pair is rebased onto this trace's anchor.
    pub fn add_timed(&mut self, name: &str, start: Instant, end: Instant) -> Option<u32> {
        let start_ns = start.saturating_duration_since(self.anchor).as_nanos() as u64;
        let end_ns = end.saturating_duration_since(self.anchor).as_nanos() as u64;
        let parent = self.stack.last().copied();
        let id = self.push_span(name, start_ns, parent)?;
        if let Some(span) = self.spans.get_mut(id as usize) {
            span.end_ns = end_ns.max(start_ns);
        }
        Some(id)
    }

    /// Attach a key/value attribute to a span (dropped past the per-span
    /// attribute cap).
    pub fn attr(&mut self, id: u32, key: &str, value: impl Into<String>) {
        if let Some(span) = self.spans.get_mut(id as usize) {
            if span.attrs.len() < ATTR_CAP {
                span.attrs.push((key.to_string(), value.into()));
            }
        }
    }

    /// Close every open span (root included) and yield the trace.
    pub fn finish(mut self) -> QueryTrace {
        let end = self.now_ns();
        for &open in &self.stack {
            if let Some(span) = self.spans.get_mut(open as usize) {
                span.end_ns = end;
            }
        }
        QueryTrace {
            spans: self.spans,
            dropped: self.dropped,
        }
    }
}

impl Default for TraceBuilder {
    fn default() -> Self {
        TraceBuilder::new()
    }
}

thread_local! {
    static ACTIVE: RefCell<Option<TraceBuilder>> = const { RefCell::new(None) };
}

/// Install a builder as this thread's active trace. Returns the previously
/// installed builder, if any (callers re-installing around nested phases
/// should restore it).
pub fn install(builder: TraceBuilder) -> Option<TraceBuilder> {
    ACTIVE.with(|a| a.borrow_mut().replace(builder))
}

/// Remove and return this thread's active trace builder.
pub fn take() -> Option<TraceBuilder> {
    ACTIVE.with(|a| a.borrow_mut().take())
}

/// Run `f` against the active builder, if one is installed. The single
/// thread-local read is the entire disabled-path cost.
pub fn with_active<R>(f: impl FnOnce(&mut TraceBuilder) -> R) -> Option<R> {
    ACTIVE.with(|a| a.borrow_mut().as_mut().map(f))
}

/// Open a named span on the active trace (no-op when none is installed);
/// the returned guard closes it on drop.
pub fn span(name: &str) -> SpanGuard {
    SpanGuard {
        id: with_active(|b| b.open(name)).flatten(),
    }
}

/// Closes its span when dropped. Obtained from [`span`].
#[derive(Debug)]
pub struct SpanGuard {
    id: Option<u32>,
}

impl SpanGuard {
    /// Attach an attribute to the guarded span (no-op for a no-op guard).
    pub fn attr(&self, key: &str, value: impl Into<String>) {
        if let Some(id) = self.id {
            let value = value.into();
            with_active(|b| b.attr(id, key, value));
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(id) = self.id {
            with_active(|b| b.close(id));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_opens_root_and_nests_children() {
        let mut b = TraceBuilder::new();
        let plan = b.open("plan").unwrap();
        let prune = b.open("preprocess.prune").unwrap();
        b.close(prune);
        b.close(plan);
        let t = b.finish();
        assert_eq!(t.spans[0].name, "query");
        assert_eq!(t.spans[0].parent, None);
        assert_eq!(t.spans[plan as usize].parent, Some(0));
        assert_eq!(t.spans[prune as usize].parent, Some(plan));
        assert_eq!(t.dropped, 0);
        for s in &t.spans {
            assert!(s.end_ns >= s.start_ns);
        }
    }

    #[test]
    fn cap_drops_spans_but_keeps_counting() {
        let mut b = TraceBuilder::with_cap(2);
        let a = b.open("kept").unwrap();
        assert!(b.open("dropped").is_none());
        assert!(b.open("also-dropped").is_none());
        b.close(a);
        let t = b.finish();
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.dropped, 2);
    }

    #[test]
    fn dropped_opens_leave_the_open_stack_untouched() {
        let mut b = TraceBuilder::with_cap(3);
        let plan = b.open("plan").unwrap();
        let inner = b.open("inner").unwrap(); // fills the cap
        assert!(b.open("dropped").is_none());
        // The dropped span never joined the stack: `inner` is still the
        // innermost open span and closes normally.
        b.close(inner);
        b.close(plan);
        let t = b.finish();
        assert_eq!(t.dropped, 1);
        assert_eq!(t.spans[inner as usize].parent, Some(plan));
    }

    #[test]
    fn out_of_order_close_closes_inner_spans() {
        let mut b = TraceBuilder::new();
        let outer = b.open("outer").unwrap();
        let inner = b.open("inner").unwrap();
        b.close(outer); // also closes `inner`
        let next = b.open("next").unwrap();
        let t = b.finish();
        assert_eq!(t.spans[next as usize].parent, Some(0));
        assert!(t.spans[inner as usize].end_ns >= t.spans[inner as usize].start_ns);
    }

    #[test]
    fn add_timed_rebases_onto_anchor() {
        let mut b = TraceBuilder::new();
        let start = Instant::now();
        let end = start + std::time::Duration::from_micros(50);
        let id = b.add_timed("part.solve", start, end).unwrap();
        b.attr(id, "route", "exact");
        let t = b.finish();
        let s = &t.spans[id as usize];
        assert_eq!(s.end_ns - s.start_ns, 50_000);
        assert_eq!(s.attrs, vec![("route".to_string(), "exact".to_string())]);
    }

    #[test]
    fn attrs_cap_per_span() {
        let mut b = TraceBuilder::new();
        let id = b.open("busy").unwrap();
        for i in 0..40 {
            b.attr(id, "k", format!("{i}"));
        }
        b.close(id);
        assert_eq!(b.finish().spans[id as usize].attrs.len(), super::ATTR_CAP);
    }

    #[test]
    fn thread_local_hook_is_noop_without_install() {
        {
            let g = span("orphan");
            g.attr("k", "v");
        } // must not panic, must not record anywhere
        assert!(take().is_none());
    }

    #[test]
    fn thread_local_hook_records_into_installed_builder() {
        assert!(install(TraceBuilder::new()).is_none());
        {
            let g = span("preprocess.decompose");
            g.attr("parts", "3");
        }
        let t = take().unwrap().finish();
        let s = t.find("preprocess.decompose").unwrap();
        assert_eq!(s.parent, Some(0));
        assert_eq!(s.attrs[0], ("parts".to_string(), "3".to_string()));
    }

    #[test]
    fn trace_round_trips_through_serde() {
        use serde::Serialize as _;
        let mut b = TraceBuilder::new();
        let id = b.open("plan").unwrap();
        b.attr(id, "semantics", "k-terminal");
        b.close(id);
        let t = b.finish();
        let json = serde_json::to_string(&t.to_value()).unwrap();
        let back: QueryTrace = serde_json::from_str(&json).unwrap();
        assert_eq!(back.spans.len(), t.spans.len());
        assert_eq!(back.dropped, t.dropped);
        for (a, b) in back.spans.iter().zip(&t.spans) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.start_ns, b.start_ns);
            assert_eq!(a.end_ns, b.end_ns);
            assert_eq!(a.parent, b.parent);
            assert_eq!(a.attrs, b.attrs);
        }
    }
}
