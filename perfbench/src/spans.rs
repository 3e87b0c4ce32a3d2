//! The benchmark's own spans, recorded with `ceal_trace`'s in-memory
//! tracer around every call the benchmark makes into a layer.
//!
//! Spans are drained into a [`SpanLog`] between batches of work (the
//! tracer's ring is bounded), then reduced to per-name totals and self
//! times: a span's duration minus the part its children cover.

use crate::outcome::Outcome;
use crate::stats::{self_time, Interval};
use ceal_trace::{EventKind, TraceContext, Tracer};
use std::collections::{BTreeMap, HashMap};

/// One finished span, in tracer microseconds.
#[derive(Debug, Clone)]
pub struct SpanRec {
    /// Span name.
    pub name: &'static str,
    /// Span id.
    pub id: u64,
    /// Parent span id (0 for a root).
    pub parent: u64,
    /// Start and end, µs.
    pub at: Interval,
}

/// Per-name reduction of a span log.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NameTotals {
    /// Spans with this name.
    pub count: u64,
    /// Sum of their durations, ms.
    pub total_ms: f64,
    /// Sum of their self times, ms.
    pub self_ms: f64,
}

/// Recorder: an enabled in-memory tracer when tracing, else a disabled
/// one whose spans cost one branch.
#[derive(Clone)]
pub struct Recorder {
    tracer: Tracer,
}

impl Recorder {
    /// A recorder that keeps spans only when `on`.
    pub fn new(on: bool) -> Self {
        Self {
            tracer: if on {
                Tracer::in_memory()
            } else {
                Tracer::disabled()
            },
        }
    }

    /// Whether spans are kept.
    pub fn on(&self) -> bool {
        self.tracer.enabled()
    }

    /// Opens a root span.
    pub fn root(&self, name: &'static str) -> ceal_trace::Span {
        self.tracer.root_span(name)
    }

    /// Opens a child span under `parent`.
    pub fn child(&self, name: &'static str, parent: TraceContext) -> ceal_trace::Span {
        self.tracer.span(name, parent)
    }

    /// Moves every finished span recorded so far into `log`.
    pub fn drain_into(&self, log: &mut SpanLog) {
        for ev in self.tracer.drain_events() {
            if ev.kind == EventKind::End {
                log.spans.push(SpanRec {
                    name: ev.name,
                    id: ev.span,
                    parent: ev.parent,
                    at: Interval {
                        start: ev.ts_us.saturating_sub(ev.dur_us) as f64,
                        end: ev.ts_us as f64,
                    },
                });
            }
        }
        log.dropped = self.tracer.dropped();
    }
}

/// Finished spans collected over a run.
#[derive(Debug, Default)]
pub struct SpanLog {
    /// Spans, in drain order.
    pub spans: Vec<SpanRec>,
    /// Events the tracer's ring dropped (a non-zero count makes the
    /// per-layer numbers undercounts).
    pub dropped: u64,
}

impl SpanLog {
    /// Totals and self times per span name.
    pub fn by_name(&self) -> BTreeMap<&'static str, NameTotals> {
        let mut children: HashMap<u64, Vec<Interval>> = HashMap::new();
        for s in &self.spans {
            if s.parent != 0 {
                children.entry(s.parent).or_default().push(s.at);
            }
        }
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for s in &self.spans {
            let kids = children.get(&s.id).map(Vec::as_slice).unwrap_or(&[]);
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ms += (s.at.end - s.at.start) / 1000.0;
            t.self_ms += self_time(s.at, kids) / 1000.0;
        }
        out
    }
}

/// Checks that the tracer's ring dropped no event: a dropped span would
/// leave its time out of the per-layer figures without a trace.
pub fn spans_kept(out: &mut Outcome, log: &SpanLog) {
    out.check(
        "trace_dropped_no_spans",
        log.dropped == 0,
        format!("{} span events dropped by the tracer's ring", log.dropped),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let rec = Recorder::new(true);
        {
            let parent = rec.root("campaign");
            std::thread::sleep(std::time::Duration::from_millis(3));
            {
                let _c = rec.child("oracle", parent.ctx());
                std::thread::sleep(std::time::Duration::from_millis(4));
            }
        }
        let mut log = SpanLog::default();
        rec.drain_into(&mut log);
        let by = log.by_name();
        let campaign = &by["campaign"];
        let oracle = &by["oracle"];
        assert_eq!((campaign.count, oracle.count), (1, 1));
        assert!(oracle.total_ms >= 4.0);
        assert_eq!(oracle.self_ms, oracle.total_ms);
        let expect = campaign.total_ms - oracle.total_ms;
        assert!((campaign.self_ms - expect).abs() < 0.01);
        assert!(campaign.self_ms >= 3.0);
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let rec = Recorder::new(false);
        drop(rec.root("x"));
        let mut log = SpanLog::default();
        rec.drain_into(&mut log);
        assert!(log.spans.is_empty());
        assert!(!rec.on());
    }
}
