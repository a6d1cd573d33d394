//! Live-metrics and causal-span observability of the serving loop.

use std::sync::Arc;

use hpu_algos::MergeSort;
use hpu_machine::MachineConfig;
use hpu_model::ScheduleSpec;
use hpu_obs::{as_span, ChromeTrace, MetricValue, MetricsRegistry, SpanKind, TraceEvent};
use hpu_serve::{serve_sim, AlgoJob, JobRequest, ServeConfig};

fn input(n: usize) -> Vec<u64> {
    (0..n as u64).rev().collect()
}

fn sort_job(name: &str, spec: ScheduleSpec, n: usize, arrival: f64) -> JobRequest {
    JobRequest::new(
        name,
        spec,
        arrival,
        AlgoJob::boxed(MergeSort::new(), input(n)),
    )
}

fn served_with_metrics() -> (Arc<MetricsRegistry>, Vec<TraceEvent>, usize) {
    let cfg = MachineConfig::hpu1_sim();
    let metrics = Arc::new(MetricsRegistry::new());
    let serve = ServeConfig {
        cpu_fallback: false,
        metrics: Some(metrics.clone()),
        ..Default::default()
    };
    let spec = ScheduleSpec::Basic { crossover: Some(6) };
    let out = serve_sim(
        &cfg,
        &serve,
        vec![
            sort_job("a", spec.clone(), 1 << 12, 0.0),
            sort_job("b", spec, 1 << 12, 0.0),
        ],
    );
    assert_eq!(out.report.completed, 2);
    (metrics, out.spans, out.report.completed)
}

/// The registry samples every layer of a served run: admission counters,
/// latency histograms, the arbiter's occupancy, plan compilation and the
/// interpreter's per-segment timings.
#[test]
fn live_metrics_cover_admission_compile_and_interpreter() {
    let (metrics, _, completed) = served_with_metrics();
    let snap = metrics.snapshot();

    let counter = |name: &str| match snap.get(name) {
        Some(MetricValue::Counter(c)) => *c,
        other => panic!("{name}: expected a counter, got {other:?}"),
    };
    assert_eq!(counter("serve.submitted"), 2);
    assert_eq!(counter("serve.completed"), completed as u64);
    // The two jobs share one plan shape: the first admission compiles
    // (a cache miss), the duplicate is served from the plan cache.
    assert_eq!(counter("model.compiles"), 1);
    assert_eq!(counter("plan_cache.misses"), 1);
    assert!(counter("plan_cache.hits") >= 1, "duplicate admission hits");
    assert!(counter("interpret.segments") >= 2);
    assert!(counter("interpret.gpu_launches") >= 1, "GPU spec launches");

    let hist_count = |name: &str| match snap.get(name) {
        Some(MetricValue::Histogram(h)) => h.count,
        other => panic!("{name}: expected a histogram, got {other:?}"),
    };
    assert_eq!(hist_count("serve.latency"), completed as u64);
    assert_eq!(hist_count("serve.admission_wait"), completed as u64);
    assert!(hist_count("model.compile_ns") >= 1);
    assert!(
        hist_count("model.cache_lookup_ns") >= 1,
        "cache hits time the lookup"
    );
    assert!(hist_count("interpret.segment_time") >= 2);
    assert!(hist_count("interpret.kernel_time") >= 1);

    let gauge = |name: &str| match snap.get(name) {
        Some(MetricValue::Gauge(g)) => *g,
        other => panic!("{name}: expected a gauge, got {other:?}"),
    };
    assert!(gauge("arbiter.gpu_busy") > 0.0);
    assert!(gauge("arbiter.cpu_busy") > 0.0);
    assert_eq!(gauge("serve.queue_depth"), 0.0, "drained at the end");
    assert!(gauge("serve.makespan") > 0.0);
}

/// A metered served run samples the same virtual-time histograms on a
/// second run. The `_ns` histograms time the host and may differ.
#[test]
fn sim_metrics_are_deterministic() {
    let (first, _, _) = served_with_metrics();
    let (again, _, _) = served_with_metrics();
    let (first, again) = (first.snapshot(), again.snapshot());
    for name in [
        "serve.latency",
        "serve.admission_wait",
        "interpret.segment_time",
        "interpret.launch_overhead",
    ] {
        assert!(first.contains_key(name), "{name} sampled");
        assert_eq!(first.get(name), again.get(name), "{name} is deterministic");
    }
}

/// Acceptance: a served workload's spans form the job → segment → level
/// causal tree, with segment spans inside their job's window.
#[test]
fn span_tree_nests_job_segment_level() {
    let (_, spans, completed) = served_with_metrics();

    let jobs: Vec<_> = spans
        .iter()
        .filter_map(as_span)
        .filter(|(_, _, k)| matches!(k, SpanKind::Job { .. }))
        .collect();
    assert_eq!(jobs.len(), completed, "one job span per completion");

    for ev in &spans {
        let Some((id, parent, kind)) = as_span(ev) else {
            continue;
        };
        match kind {
            SpanKind::Job { .. } => assert_eq!(parent, None),
            _ => assert!(parent.is_some(), "span {id} ({kind:?}) must have a parent"),
        }
    }

    // Walk one complete chain: job -> gpu segment -> level.
    let (job_id, _, _) = jobs[0];
    let job_ev = spans
        .iter()
        .find(|e| as_span(e).map(|(i, _, _)| i) == Some(job_id))
        .unwrap();
    let seg = spans
        .iter()
        .filter_map(|e| as_span(e).map(|s| (e, s)))
        .find(|(_, (_, p, k))| *p == Some(job_id) && matches!(k, SpanKind::Segment { .. }))
        .expect("job parents at least one segment span");
    let (seg_ev, (seg_id, _, _)) = seg;
    assert!(
        seg_ev.start >= job_ev.start - 1e-9 && seg_ev.end <= job_ev.end + 1e-9,
        "segment window [{}, {}] escapes job window [{}, {}]",
        seg_ev.start,
        seg_ev.end,
        job_ev.start,
        job_ev.end
    );
    let lvl = spans
        .iter()
        .filter_map(|e| as_span(e).map(|s| (e, s)))
        .find(|(_, (_, p, k))| *p == Some(seg_id) && matches!(k, SpanKind::Level { .. }))
        .expect("segment parents at least one level span");
    let (lvl_ev, _) = lvl;
    assert!(
        lvl_ev.start >= seg_ev.start - 1e-9 && lvl_ev.end <= seg_ev.end + 1e-9,
        "level escapes its segment window"
    );
}

/// The Chrome exporter renders a served span tree with flow arrows
/// linking parents to children.
#[test]
fn chrome_trace_shows_served_span_flow_arrows() {
    let (_, spans, _) = served_with_metrics();
    let mut trace = ChromeTrace::new();
    trace.add_process("serve", spans);
    let json = trace.render();
    assert!(json.contains("\"cat\":\"span\""), "span events rendered");
    assert!(json.contains("\"ph\":\"s\""), "flow start arrows present");
    assert!(
        json.contains("\"ph\":\"f\"") && json.contains("\"bp\":\"e\""),
        "flow finish arrows present"
    );
    assert!(json.contains("\"parent\""), "parent ids in args");
}

/// Regression: a metered solo run used to drop its interpreter samples
/// whenever it also ran under a fault config or resumed from a
/// checkpoint. Metering now composes with both.
#[test]
fn metering_composes_with_recovery_and_resume() {
    use hpu_core::exec::Checkpoint;
    use hpu_machine::FaultPlan;
    use hpu_serve::{FaultConfig, NodeSim, StolenJob};

    let cfg = MachineConfig::hpu1_sim();
    let kernel_samples = |serve: ServeConfig, checkpoint: Option<Checkpoint>| {
        let metrics = Arc::new(MetricsRegistry::new());
        let serve = ServeConfig {
            metrics: Some(metrics.clone()),
            ..serve
        };
        let mut node = NodeSim::new(&cfg, &serve);
        let job = StolenJob {
            id: 0,
            name: "a".into(),
            spec: ScheduleSpec::GpuOnly,
            arrival: 0.0,
            deadline: None,
            skips: 0,
            checkpoint,
            workload: AlgoJob::boxed(MergeSort::new(), input(1 << 10)),
        };
        node.inject(job, 0.0);
        assert_eq!(node.finish().report.completed, 1);
        match metrics.snapshot().get("interpret.kernel_time") {
            Some(MetricValue::Histogram(h)) => h.count,
            _ => 0,
        }
    };
    let faulty = ServeConfig {
        faults: Some(FaultConfig::new(FaultPlan::new(7))),
        ..ServeConfig::default()
    };
    let ckpt = Checkpoint {
        level: 4,
        resident_words: 1 << 10,
        generation: 0,
    };
    assert_eq!(kernel_samples(ServeConfig::default(), None), 1);
    assert_eq!(kernel_samples(faulty, None), 1, "metered under faults");
    assert_eq!(
        kernel_samples(ServeConfig::default(), Some(ckpt)),
        1,
        "metered on resume"
    );
}
