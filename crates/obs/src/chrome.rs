//! Hand-rolled Chrome trace event JSON exporter.
//!
//! Emits the `{"traceEvents": [...]}` object format understood by
//! `chrome://tracing` and Perfetto. Every process added via
//! [`ChromeTrace::add_process`] becomes one process row (one run, e.g. one
//! strategy); within it the CPU, GPU and bus tracks become named threads.
//!
//! Timestamps: Chrome traces use microseconds. Wall-clock recorders already
//! produce µs; simulated virtual time is unit-less, so we map one virtual
//! time unit to one microsecond — relative span layout is what matters.

use crate::event::{EventKind, TraceEvent, Track};
use crate::span::SpanKind;
use std::collections::HashMap;
use std::fmt::Write as _;

/// Builder for a multi-process Chrome trace.
#[derive(Debug, Clone, Default)]
pub struct ChromeTrace {
    processes: Vec<(String, Vec<TraceEvent>)>,
}

impl ChromeTrace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one process row (e.g. one strategy's run) with its events.
    pub fn add_process(&mut self, name: impl Into<String>, events: Vec<TraceEvent>) {
        self.processes.push((name.into(), events));
    }

    /// Number of processes added so far.
    pub fn len(&self) -> usize {
        self.processes.len()
    }

    /// True when no process has been added.
    pub fn is_empty(&self) -> bool {
        self.processes.is_empty()
    }

    /// Renders the trace as Chrome trace event JSON.
    pub fn render(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        let mut first = true;
        for (pid0, (name, events)) in self.processes.iter().enumerate() {
            let pid = pid0 + 1;
            // Process metadata: name the process row.
            push_meta(&mut out, &mut first, "process_name", pid, None, name);
            for track in [Track::Cpu, Track::Gpu, Track::Bus] {
                push_meta(
                    &mut out,
                    &mut first,
                    "thread_name",
                    pid,
                    Some(track.tid()),
                    &track.to_string(),
                );
            }
            // Span index for flow arrows: id -> (tid, start) within this
            // process, so a child span can point back at its parent.
            let span_at: HashMap<u64, (u32, f64)> = events
                .iter()
                .filter_map(|ev| match &ev.kind {
                    EventKind::Span { id, .. } => Some((*id, (ev.track.tid(), ev.start))),
                    _ => None,
                })
                .collect();
            for ev in events {
                if !first {
                    out.push(',');
                }
                first = false;
                let _ = write!(
                    out,
                    "{{\"name\":{},\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{},\"tid\":{},\"args\":{{",
                    escape(&ev.kind.to_string()),
                    ev.kind.category(),
                    fmt_num(ev.start),
                    fmt_num(ev.duration()),
                    pid,
                    ev.track.tid(),
                );
                push_args(&mut out, &ev.kind);
                out.push_str("}}");
                // A parented span gets a flow arrow from its parent's
                // start to its own: a "s"/"f" pair bound by a flow id
                // unique across processes.
                if let EventKind::Span {
                    id,
                    parent: Some(p),
                    ..
                } = &ev.kind
                {
                    if let Some(&(ptid, pstart)) = span_at.get(p) {
                        let flow = pid as u64 * 1_000_000 + id;
                        let _ = write!(
                            out,
                            ",{{\"name\":\"span-dep\",\"cat\":\"flow\",\"ph\":\"s\",\"id\":{},\"ts\":{},\"pid\":{},\"tid\":{}}}",
                            flow,
                            fmt_num(pstart),
                            pid,
                            ptid,
                        );
                        let _ = write!(
                            out,
                            ",{{\"name\":\"span-dep\",\"cat\":\"flow\",\"ph\":\"f\",\"bp\":\"e\",\"id\":{},\"ts\":{},\"pid\":{},\"tid\":{}}}",
                            flow,
                            fmt_num(ev.start),
                            pid,
                            ev.track.tid(),
                        );
                    }
                }
            }
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}");
        out
    }
}

fn push_meta(
    out: &mut String,
    first: &mut bool,
    what: &str,
    pid: usize,
    tid: Option<u32>,
    name: &str,
) {
    if !*first {
        out.push(',');
    }
    *first = false;
    let _ = write!(
        out,
        "{{\"name\":\"{}\",\"ph\":\"M\",\"pid\":{},\"tid\":{},\"args\":{{\"name\":{}}}}}",
        what,
        pid,
        tid.unwrap_or(0),
        escape(name),
    );
}

fn push_args(out: &mut String, kind: &EventKind) {
    match kind {
        EventKind::Level {
            phase,
            chunk,
            tasks,
            ops,
            mem,
            ..
        } => {
            let _ = write!(
                out,
                "\"phase\":\"{phase:?}\",\"chunk\":{chunk},\"tasks\":{tasks},\"ops\":{ops},\"mem\":{mem}"
            );
        }
        EventKind::Kernel {
            items,
            waves,
            coalesced,
            uncoalesced,
            ..
        } => {
            let _ = write!(
                out,
                "\"items\":{items},\"waves\":{waves},\"coalesced\":{coalesced},\"uncoalesced\":{uncoalesced}"
            );
        }
        EventKind::Transfer { to_gpu, words } => {
            let _ = write!(out, "\"to_gpu\":{to_gpu},\"words\":{words}");
        }
        EventKind::Fault { transient, .. } => {
            let _ = write!(out, "\"transient\":{transient}");
        }
        EventKind::Retry { attempt, backoff } => {
            let _ = write!(
                out,
                "\"attempt\":{attempt},\"backoff\":{}",
                fmt_num(*backoff)
            );
        }
        EventKind::Resume { level } => {
            let _ = write!(out, "\"level\":{level}");
        }
        EventKind::Span { id, parent, kind } => {
            let _ = write!(out, "\"span_id\":{id}");
            match parent {
                Some(p) => {
                    let _ = write!(out, ",\"parent\":{p}");
                }
                None => out.push_str(",\"parent\":null"),
            }
            match kind {
                SpanKind::Job { job, name } => {
                    let _ = write!(out, ",\"job\":{job},\"job_name\":{}", escape(name));
                }
                SpanKind::Segment { index, placement } => {
                    let _ = write!(
                        out,
                        ",\"segment\":{index},\"placement\":{}",
                        escape(placement)
                    );
                }
                SpanKind::Level { level } => {
                    let _ = write!(out, ",\"level\":{level}");
                }
                SpanKind::Retry { attempt } => {
                    let _ = write!(out, ",\"attempt\":{attempt}");
                }
                SpanKind::Batch { size, saved } => {
                    let _ = write!(out, ",\"batch_size\":{size},\"saved\":{}", fmt_num(*saved));
                }
            }
        }
        EventKind::Sync | EventKind::Mark(_) => {}
    }
}

/// Formats an f64 as JSON (finite; no exponent for typical trace ranges).
fn fmt_num(x: f64) -> String {
    if !x.is_finite() {
        return "0".to_string();
    }
    if x == x.trunc() && x.abs() < 1e15 {
        format!("{}", x as i64)
    } else {
        format!("{x}")
    }
}

/// JSON string escaping per RFC 8259 (quotes the result).
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn renders_parseable_json_with_metadata() {
        let mut trace = ChromeTrace::new();
        trace.add_process(
            "sim: basic",
            vec![
                TraceEvent {
                    track: Track::Cpu,
                    start: 0.0,
                    end: 10.5,
                    kind: EventKind::Mark("warmup \"quoted\"".into()),
                },
                TraceEvent {
                    track: Track::Bus,
                    start: 10.5,
                    end: 20.0,
                    kind: EventKind::Transfer {
                        to_gpu: true,
                        words: 64,
                    },
                },
            ],
        );
        let json = trace.render();
        let v = Json::parse(&json).expect("render emits valid JSON");
        let events = v.get("traceEvents").unwrap().as_arr().unwrap();
        // 1 process_name + 3 thread_name + 2 spans.
        assert_eq!(events.len(), 6);
        let span = &events[4];
        assert_eq!(span.get("ph").unwrap().as_str().unwrap(), "X");
        assert_eq!(span.get("tid").unwrap().as_f64().unwrap(), 1.0);
        assert_eq!(
            span.get("name").unwrap().as_str().unwrap(),
            "warmup \"quoted\""
        );
        let xfer = &events[5];
        assert_eq!(xfer.get("cat").unwrap().as_str().unwrap(), "transfer");
        assert_eq!(
            xfer.get("args")
                .unwrap()
                .get("words")
                .unwrap()
                .as_f64()
                .unwrap(),
            64.0
        );
    }

    #[test]
    fn span_events_carry_ids_and_flow_arrows() {
        use crate::span::{SpanKind, SpanSet};
        let mut set = SpanSet::new();
        let job = set.push(
            Track::Cpu,
            0.0,
            20.0,
            SpanKind::Job {
                job: 1,
                name: "mergesort-1-n256".into(),
            },
            None,
        );
        let seg = set.push(
            Track::Gpu,
            2.0,
            12.0,
            SpanKind::Segment {
                index: 0,
                placement: "gpu".into(),
            },
            Some(job),
        );
        set.push(
            Track::Gpu,
            2.0,
            6.0,
            SpanKind::Level { level: 0 },
            Some(seg),
        );
        let mut trace = ChromeTrace::new();
        trace.add_process("serve", set.into_events());
        let json = trace.render();
        let v = Json::parse(&json).expect("valid JSON");
        let events = v.get("traceEvents").unwrap().as_arr().unwrap();
        let spans: Vec<_> = events
            .iter()
            .filter(|e| e.get("cat").and_then(Json::as_str) == Some("span"))
            .collect();
        assert_eq!(spans.len(), 3);
        // The segment span references the job span as its parent.
        let seg_ev = spans
            .iter()
            .find(|e| e.get("args").unwrap().get("segment").is_some())
            .unwrap();
        assert_eq!(
            seg_ev.get("args").unwrap().get("parent").unwrap().as_f64(),
            Some(job as f64)
        );
        // Two parented spans -> two "s"/"f" flow pairs.
        let flows: Vec<_> = events
            .iter()
            .filter(|e| e.get("cat").and_then(Json::as_str) == Some("flow"))
            .collect();
        assert_eq!(flows.len(), 4);
        let starts = flows
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("s"))
            .count();
        let ends = flows
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("f"))
            .count();
        assert_eq!((starts, ends), (2, 2));
    }

    #[test]
    fn empty_trace_is_valid() {
        let json = ChromeTrace::new().render();
        let v = Json::parse(&json).unwrap();
        assert!(v.get("traceEvents").unwrap().as_arr().unwrap().is_empty());
    }
}
