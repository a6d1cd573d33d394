//! The benchmark's own spans, recorded around every call it makes into a
//! layer of the program. Each span has a name, start, end, parent and job
//! id; the traced run writes them out as a Chrome trace and as a
//! per-layer breakdown of total and self time.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use hpu_obs::{ChromeTrace, EventKind, MetricsRegistry, SpanKind, TraceEvent, Track};

use crate::report::json_str;

/// One recorded call into a layer. Times are µs since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub layer: &'static str,
    pub name: &'static str,
    pub job: Option<u64>,
    pub start_us: f64,
    pub end_us: f64,
}

struct Buf {
    origin: Instant,
    next: u64,
    spans: Vec<Span>,
}

/// A handle on one run's span buffer, cloned into jobs that run on other
/// threads. The default handle is off: [`Tracer::span`] then only calls
/// its closure.
#[derive(Clone, Default)]
pub struct Tracer(Option<Arc<Mutex<Buf>>>);

fn lock(buf: &Mutex<Buf>) -> std::sync::MutexGuard<'_, Buf> {
    // Spans are plain data: a panic elsewhere leaves them consistent.
    buf.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Tracer {
    pub fn on() -> Tracer {
        Tracer(Some(Arc::new(Mutex::new(Buf {
            origin: Instant::now(),
            next: 0,
            spans: Vec::new(),
        }))))
    }

    /// Reserves a span id, so calls made on other threads can name the
    /// span as their parent before it starts. `None` when off.
    pub fn id(&self) -> Option<u64> {
        let mut b = lock(self.0.as_ref()?);
        b.next += 1;
        Some(b.next)
    }

    /// Runs `f` as the call `layer::name` for job `job`, recorded as span
    /// `id` (from [`Tracer::id`]) under `parent`.
    pub fn span<R>(
        &self,
        id: Option<u64>,
        layer: &'static str,
        name: &'static str,
        parent: Option<u64>,
        job: Option<u64>,
        f: impl FnOnce() -> R,
    ) -> R {
        let (Some(buf), Some(id)) = (&self.0, id) else {
            return f();
        };
        let start = lock(buf).origin.elapsed();
        let out = f();
        let mut b = lock(buf);
        let end = b.origin.elapsed();
        b.spans.push(Span {
            id,
            parent,
            layer,
            name,
            job,
            start_us: start.as_secs_f64() * 1e6,
            end_us: end.as_secs_f64() * 1e6,
        });
        out
    }

    /// A top-level call with no children.
    pub fn call<R>(
        &self,
        layer: &'static str,
        name: &'static str,
        job: Option<u64>,
        f: impl FnOnce() -> R,
    ) -> R {
        self.span(self.id(), layer, name, None, job, f)
    }

    /// Every span recorded so far, by start time.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self
            .0
            .as_ref()
            .map(|b| lock(b).spans.clone())
            .unwrap_or_default();
        spans.sort_by(|a, b| a.start_us.total_cmp(&b.start_us).then(a.id.cmp(&b.id)));
        spans
    }
}

/// Per-layer calls, total time and self time (total minus the time of
/// the span's own child calls).
#[derive(Debug, Default, Clone, PartialEq)]
pub struct LayerTime {
    pub calls: u64,
    pub total_ms: f64,
    pub self_ms: f64,
}

pub fn layer_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut child_us: BTreeMap<u64, f64> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_us.entry(p).or_default() += s.end_us - s.start_us;
        }
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for s in spans {
        let dur = s.end_us - s.start_us;
        let own = (dur - child_us.get(&s.id).copied().unwrap_or(0.0)).max(0.0);
        let t = out.entry(s.layer).or_default();
        t.calls += 1;
        t.total_ms += dur / 1e3;
        t.self_ms += own / 1e3;
    }
    out
}

/// The spans as a Chrome trace: one process, parent links drawn as flow
/// arrows by the exporter.
pub fn chrome_trace(workload: &str, spans: &[Span]) -> String {
    let events = spans
        .iter()
        .map(|s| TraceEvent {
            track: Track::Cpu,
            start: s.start_us,
            end: s.end_us,
            kind: EventKind::Span {
                id: s.id,
                parent: s.parent,
                kind: SpanKind::Job {
                    job: s.job.unwrap_or(0),
                    name: format!("{}::{}", s.layer, s.name),
                },
            },
        })
        .collect();
    let mut trace = ChromeTrace::new();
    trace.add_process(workload, events);
    trace.render()
}

/// The per-layer breakdown, every span, and the metrics registry the
/// traced run attached (where the program has a slot for one).
pub fn layers_json(workload: &str, spans: &[Span], registry: Option<&MetricsRegistry>) -> String {
    let mut out = format!("{{\"workload\":{},\"layers\":{{", json_str(workload));
    for (i, (layer, t)) in layer_times(spans).iter().enumerate() {
        let _ = write!(
            out,
            "{}{}:{{\"calls\":{},\"total_ms\":{},\"self_ms\":{}}}",
            if i > 0 { "," } else { "" },
            json_str(layer),
            t.calls,
            t.total_ms,
            t.self_ms
        );
    }
    out.push_str("},\"spans\":[");
    for (i, s) in spans.iter().enumerate() {
        let _ = write!(
            out,
            "{}{{\"id\":{},\"parent\":{},\"layer\":{},\"name\":{},\"job\":{},\"start_us\":{},\"end_us\":{}}}",
            if i > 0 { "," } else { "" },
            s.id,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            json_str(s.layer),
            json_str(s.name),
            s.job.map_or("null".to_string(), |j| j.to_string()),
            s.start_us,
            s.end_us
        );
    }
    out.push_str("],\"metrics\":");
    out.push_str(&registry.map_or("null".to_string(), MetricsRegistry::to_json));
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_tracer_records_nothing() {
        let t = Tracer::default();
        assert_eq!(t.id(), None);
        assert_eq!(t.call("core", "run", None, || 7), 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn reserved_ids_parent_calls() {
        let t = Tracer::on();
        let parent = t.id();
        t.span(parent, "serve", "serve_native", None, None, || {
            t.span(t.id(), "core", "run_native", parent, Some(3), || {});
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].layer, "serve");
        assert_eq!(spans[1].parent, parent);
        assert_eq!(spans[1].job, Some(3));
    }

    #[test]
    fn self_time_excludes_child_calls() {
        let spans = vec![
            Span {
                id: 1,
                parent: None,
                layer: "serve",
                name: "serve_native",
                job: None,
                start_us: 0.0,
                end_us: 1000.0,
            },
            Span {
                id: 2,
                parent: Some(1),
                layer: "core",
                name: "run_native",
                job: Some(7),
                start_us: 100.0,
                end_us: 700.0,
            },
        ];
        let t = layer_times(&spans);
        assert_eq!(t["serve"].calls, 1);
        assert!((t["serve"].self_ms - 0.4).abs() < 1e-12);
        assert!((t["core"].self_ms - 0.6).abs() < 1e-12);
        let parsed = hpu_obs::json::Json::parse(&layers_json("w", &spans, None)).unwrap();
        assert!(parsed.get("layers").and_then(|l| l.get("core")).is_some());
        assert!(hpu_obs::json::Json::parse(&chrome_trace("w", &spans)).is_ok());
    }
}
