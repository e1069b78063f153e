//! Spans recorded around the calls into each layer, kept in memory for the
//! whole traced run.
//!
//! A span has a name, a start and an end (nanoseconds since the run's
//! origin), the step it belongs to (the spans of one training step share
//! that identifier) and the span that caused it. A span's self time is its
//! duration minus the part of its interval that its direct children cover;
//! overlapping children (replicas running in parallel) count once.

use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `dimd.next_batch`.
    pub name: &'static str,
    /// Training step this span belongs to.
    pub step: usize,
    /// Start, in nanoseconds since the recorder's origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Wall time the span covers.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans against one time origin.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    /// An empty recorder timing from `origin`.
    pub fn new(origin: Instant) -> Self {
        Recorder {
            origin,
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the origin.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span now; close it with [`Recorder::close`].
    pub fn open(&mut self, name: &'static str, step: usize, parent: Option<usize>) -> usize {
        let t = self.now();
        self.push(Span {
            name,
            step,
            start_ns: t,
            end_ns: t,
            parent,
        })
    }

    /// Close span `idx` now.
    pub fn close(&mut self, idx: usize) {
        self.spans[idx].end_ns = self.now();
    }

    /// Time `f` as a span named `name`.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        step: usize,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> (usize, R) {
        let idx = self.open(name, step, parent);
        let r = f();
        self.close(idx);
        (idx, r)
    }

    /// Add a span measured elsewhere against the same origin.
    pub fn push(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of `spans[idx]`: its duration minus the union of its direct
/// children's intervals, each clipped to the parent's interval.
pub fn self_time_ns(spans: &[Span], idx: usize) -> u64 {
    let p = &spans[idx];
    let mut iv: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(idx))
        .map(|s| (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns)))
        .filter(|(a, b)| b > a)
        .collect();
    iv.sort_unstable();
    let mut covered = 0u64;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in iv {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                covered += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((ca, cb)) = cur {
        covered += cb - ca;
    }
    p.dur_ns() - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            step: 0,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("step", 0, 100, None),
            span("dpt.step", 10, 60, Some(0)),
            span("tensor.forward", 12, 30, Some(1)),
            span("trainer.grad_sync", 70, 90, Some(0)),
        ];
        assert_eq!(self_time_ns(&spans, 0), 100 - 50 - 20);
        assert_eq!(self_time_ns(&spans, 1), 50 - 18);
        assert_eq!(self_time_ns(&spans, 2), 18);
    }

    #[test]
    fn overlapping_children_count_once() {
        // Two replicas' forward passes running at the same time.
        let spans = vec![
            span("dpt.step", 0, 100, None),
            span("tensor.forward", 10, 50, Some(0)),
            span("tensor.forward", 20, 60, Some(0)),
            span("tensor.backward", 60, 90, Some(0)),
        ];
        assert_eq!(self_time_ns(&spans, 0), 100 - 80);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = vec![span("step", 10, 20, None), span("late", 15, 40, Some(0))];
        assert_eq!(self_time_ns(&spans, 0), 5);
    }

    #[test]
    fn recorder_nests_and_orders_spans() {
        let mut r = Recorder::new(Instant::now());
        let root = r.open("step", 3, None);
        let (child, v) = r.time("dimd.next_batch", 3, Some(root), || 7);
        r.close(root);
        assert_eq!(v, 7);
        let s = r.spans();
        assert_eq!(s[child].parent, Some(root));
        assert!(s[root].start_ns <= s[child].start_ns && s[child].end_ns <= s[root].end_ns);
        assert_eq!(self_time_ns(s, root), s[root].dur_ns() - s[child].dur_ns());
    }
}
