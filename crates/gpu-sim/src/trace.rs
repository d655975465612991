//! Timeline tracing with Chrome-trace export.
//!
//! When enabled on the engine, every kernel's lifetime is captured as a
//! [`KernelSpan`]. [`TraceRecorder::to_chrome_trace_json`] renders the
//! spans in the Chrome `chrome://tracing` / Perfetto "trace event" format
//! (one complete event per kernel, one row per stream), which makes
//! schedules visually inspectable.

use crate::{ContextId, KernelHandle, StreamId};
use serde::{Deserialize, Serialize};
use sgprs_rt::SimTime;
use std::collections::HashMap;

/// One kernel's lifetime on the device.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct KernelSpan {
    /// The kernel.
    pub kernel: KernelHandle,
    /// Trace label.
    pub label: String,
    /// Context it ran in.
    pub context: ContextId,
    /// Stream it occupied.
    pub stream: StreamId,
    /// Submission instant.
    pub begin: SimTime,
    /// Completion instant (`None` while still in flight).
    pub end: Option<SimTime>,
}

impl KernelSpan {
    /// Span duration, if the kernel completed.
    #[must_use]
    pub fn duration(&self) -> Option<sgprs_rt::SimDuration> {
        self.end.map(|e| e.duration_since(self.begin))
    }
}

/// Records kernel spans for later inspection or export.
#[derive(Debug, Clone, Default)]
pub struct TraceRecorder {
    spans: Vec<KernelSpan>,
    open: HashMap<KernelHandle, usize>,
}

impl TraceRecorder {
    /// Creates an empty recorder.
    #[must_use]
    pub fn new() -> Self {
        TraceRecorder::default()
    }

    /// Records a kernel start.
    pub fn begin(
        &mut self,
        kernel: KernelHandle,
        label: &str,
        context: ContextId,
        stream: StreamId,
        at: SimTime,
    ) {
        self.open.insert(kernel, self.spans.len());
        self.spans.push(KernelSpan {
            kernel,
            label: label.to_owned(),
            context,
            stream,
            begin: at,
            end: None,
        });
    }

    /// Records a kernel completion. Unknown handles are ignored.
    pub fn end(&mut self, kernel: KernelHandle, at: SimTime) {
        if let Some(idx) = self.open.remove(&kernel) {
            self.spans[idx].end = Some(at);
        }
    }

    /// All recorded spans in submission order.
    #[must_use]
    pub fn spans(&self) -> &[KernelSpan] {
        &self.spans
    }

    /// Number of recorded spans.
    #[must_use]
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// `true` when nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Renders the trace in Chrome trace-event JSON (array form).
    ///
    /// Each context maps to a `pid`, each stream to a `tid`, and every
    /// completed kernel to one `"X"` (complete) event with microsecond
    /// timestamps, which is what the Chrome/Perfetto UI expects.
    #[must_use]
    pub fn to_chrome_trace_json(&self) -> String {
        let mut out = String::from("[");
        let mut first = true;
        for span in &self.spans {
            let Some(end) = span.end else { continue };
            if !first {
                out.push(',');
            }
            first = false;
            let ts_us = span.begin.as_nanos() as f64 / 1e3;
            let dur_us = end.duration_since(span.begin).as_nanos() as f64 / 1e3;
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"kernel\",\"ph\":\"X\",\"ts\":{ts_us},\"dur\":{dur_us},\"pid\":{},\"tid\":{}}}",
                escape_json(&span.label),
                span.context.0,
                span.stream.index,
            ));
        }
        out.push(']');
        out
    }
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sid(ctx: usize, idx: usize) -> StreamId {
        StreamId {
            context: ContextId(ctx),
            index: idx,
        }
    }

    #[test]
    fn begin_end_produces_closed_span() {
        let mut t = TraceRecorder::new();
        t.begin(
            KernelHandle(1),
            "k",
            ContextId(0),
            sid(0, 1),
            SimTime::from_nanos(100),
        );
        assert!(t.spans()[0].end.is_none());
        t.end(KernelHandle(1), SimTime::from_nanos(400));
        let span = &t.spans()[0];
        assert_eq!(span.end, Some(SimTime::from_nanos(400)));
        assert_eq!(
            span.duration().unwrap(),
            sgprs_rt::SimDuration::from_nanos(300)
        );
    }

    #[test]
    fn end_of_unknown_handle_is_ignored() {
        let mut t = TraceRecorder::new();
        t.end(KernelHandle(99), SimTime::from_nanos(1));
        assert!(t.is_empty());
    }

    #[test]
    fn chrome_export_emits_complete_events_only() {
        let mut t = TraceRecorder::new();
        t.begin(
            KernelHandle(1),
            "done",
            ContextId(0),
            sid(0, 0),
            SimTime::from_nanos(1_000),
        );
        t.end(KernelHandle(1), SimTime::from_nanos(3_000));
        t.begin(
            KernelHandle(2),
            "open",
            ContextId(1),
            sid(1, 2),
            SimTime::from_nanos(2_000),
        );
        let json = t.to_chrome_trace_json();
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert!(json.contains("\"name\":\"done\""));
        assert!(!json.contains("open"), "unfinished spans are skipped");
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"pid\":0"));
    }

    #[test]
    fn json_labels_are_escaped() {
        let mut t = TraceRecorder::new();
        t.begin(
            KernelHandle(1),
            "we\"ird\\label",
            ContextId(0),
            sid(0, 0),
            SimTime::ZERO,
        );
        t.end(KernelHandle(1), SimTime::from_nanos(10));
        let json = t.to_chrome_trace_json();
        assert!(json.contains("we\\\"ird\\\\label"));
    }

    #[test]
    fn empty_trace_is_an_empty_array() {
        assert_eq!(TraceRecorder::new().to_chrome_trace_json(), "[]");
    }
}
