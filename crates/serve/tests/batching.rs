//! Cross-job GPU kernel batching: formation, fairness, determinism.
//!
//! The tentpole claims: same-shaped GPU segments from different queued
//! jobs coalesce into one launch at deterministic event boundaries,
//! paying one launch overhead + one λ across the batch — and batching
//! never changes behavior when `BatchPolicy::Off`, never delays a lone
//! job past its deadline, and stays bitwise deterministic.

use hpu_algos::MergeSort;
use hpu_machine::MachineConfig;
use hpu_model::ScheduleSpec;
use hpu_obs::JobOutcome;
use hpu_serve::{serve_sim, AlgoJob, BatchPolicy, JobRequest, NodeSim, ServeConfig, ServeOutput};

fn input(n: usize) -> Vec<u64> {
    (0..n as u64).rev().collect()
}

fn gpu_sort(name: &str, n: usize, arrival: f64) -> JobRequest {
    JobRequest::new(
        name,
        ScheduleSpec::GpuOnly,
        arrival,
        AlgoJob::boxed(MergeSort::new(), input(n)),
    )
}

fn same_shape_wave(count: usize) -> Vec<JobRequest> {
    (0..count)
        .map(|i| gpu_sort(&format!("j{i}"), 1 << 10, 0.0))
        .collect()
}

fn batched_config(batch: BatchPolicy) -> ServeConfig {
    ServeConfig {
        cpu_fallback: false,
        batch,
        ..Default::default()
    }
}

fn serve_with(batch: BatchPolicy, jobs: Vec<JobRequest>) -> ServeOutput {
    serve_sim(&MachineConfig::hpu1_sim(), &batched_config(batch), jobs)
}

/// A wave of same-shaped GPU jobs actually coalesces: the first arrival
/// dispatches solo (empty queue), the rest batch at the next boundary,
/// amortizing launch overhead + λ — fewer GPU leases, positive savings,
/// and a strictly smaller makespan than the unbatched run.
#[test]
fn same_shaped_jobs_coalesce_and_save_device_time() {
    let off = serve_with(BatchPolicy::Off, same_shape_wave(4));
    let on = serve_with(BatchPolicy::Coalesce { max_batch: 4 }, same_shape_wave(4));

    assert_eq!(off.report.completed, 4);
    assert_eq!(on.report.completed, 4);
    assert!(off.batches.is_empty(), "Off must never form batches");
    assert!(!on.batches.is_empty(), "Coalesce formed no batch");

    let batch = &on.batches[0];
    assert!(batch.members.len() >= 2, "batch of {}", batch.members.len());
    assert!(batch.saved > 0.0, "batch saved nothing: {}", batch.saved);
    assert!(!batch.windows.is_empty());
    // One merged lease per batched GPU segment: strictly fewer leases
    // than one-per-job-per-segment under Off.
    assert!(
        on.gpu_leases.len() < off.gpu_leases.len(),
        "batched leases {} !< solo leases {}",
        on.gpu_leases.len(),
        off.gpu_leases.len()
    );
    assert!(
        on.report.makespan < off.report.makespan - 1e-9,
        "batching did not lift throughput: {} vs {}",
        on.report.makespan,
        off.report.makespan
    );
}

/// `BatchPolicy::Off` and a degenerate `Coalesce {{ max_batch: 1 }}`
/// are byte-identical to each other: the bound gate is the single
/// behavioral insertion, so a bound that can never pair jobs must
/// reproduce today's schedule exactly — records, leases, spans, all.
#[test]
fn off_and_unit_bound_are_byte_identical() {
    let off = serve_with(BatchPolicy::Off, same_shape_wave(5));
    let one = serve_with(BatchPolicy::Coalesce { max_batch: 1 }, same_shape_wave(5));

    assert_eq!(off.report.jobs, one.report.jobs);
    assert_eq!(off.gpu_leases, one.gpu_leases);
    assert_eq!(off.cpu_reservations, one.cpu_reservations);
    assert_eq!(off.batches, one.batches);
    assert!(off.batches.is_empty());
    assert_eq!(
        format!("{:?}", off.spans),
        format!("{:?}", one.spans),
        "span streams diverge"
    );
    assert_eq!(off.report.makespan, one.report.makespan);
}

/// Fairness: a job whose deadline is met under Off must still be met
/// under Coalesce. The deadline guard drops companions (or abandons the
/// batch) rather than letting the merged window overrun anyone's bound.
#[test]
fn batching_never_pushes_a_deadlined_job_past_its_deadline() {
    let cfg = MachineConfig::hpu1_sim();
    let serve_off = ServeConfig {
        cpu_fallback: false,
        batch: BatchPolicy::Off,
        ..Default::default()
    };
    // Find the deadlines Off can just meet, then require both policies
    // to meet those same bounds.
    let probe = serve_sim(&cfg, &serve_off, same_shape_wave(4));
    assert_eq!(probe.report.completed, 4);
    let end_of = |id: u64| {
        probe
            .report
            .jobs
            .iter()
            .find(|r| r.id == id)
            .expect("probe record")
            .end
    };
    let deadlined = || -> Vec<JobRequest> {
        (0..4u64)
            .map(|i| gpu_sort(&format!("j{i}"), 1 << 10, 0.0).with_deadline(end_of(i) + 1.0))
            .collect()
    };
    let off = serve_sim(&cfg, &serve_off, deadlined());
    let serve_on = ServeConfig {
        batch: BatchPolicy::Coalesce { max_batch: 4 },
        ..serve_off
    };
    let on = serve_sim(&cfg, &serve_on, deadlined());
    assert_eq!(off.report.completed, 4, "Off misses its own deadlines");
    assert_eq!(
        on.report.completed,
        4,
        "batching pushed a deadlined job past its bound: {:?}",
        on.report
            .jobs
            .iter()
            .map(|r| (r.id, r.outcome))
            .collect::<Vec<_>>()
    );
    for rec in &on.report.jobs {
        assert_eq!(rec.outcome, JobOutcome::Completed, "job {}", rec.id);
    }
}

/// Determinism: two identical batched runs produce identical batch
/// records, job records and device calendars — batching decisions are
/// made at event boundaries from deterministic state only.
#[test]
fn batched_serving_is_deterministic_across_runs() {
    let mk = || {
        let mut jobs = same_shape_wave(6);
        // Mix in a second shape so grouping has something to skip.
        jobs.push(gpu_sort("big", 1 << 12, 0.0));
        serve_with(BatchPolicy::Coalesce { max_batch: 3 }, jobs)
    };
    let a = mk();
    let b = mk();
    assert!(!a.batches.is_empty());
    assert_eq!(a.batches, b.batches);
    assert_eq!(a.report.jobs, b.report.jobs);
    assert_eq!(a.gpu_leases, b.gpu_leases);
    assert_eq!(a.cpu_reservations, b.cpu_reservations);
}

/// The bound caps batch size: `max_batch: 2` over a 5-job wave never
/// forms a batch larger than two, and every member id appears at most
/// once across all batches.
#[test]
fn max_batch_bound_is_respected_and_members_are_unique() {
    let out = serve_with(BatchPolicy::Coalesce { max_batch: 2 }, same_shape_wave(5));
    assert_eq!(out.report.completed, 5);
    assert!(!out.batches.is_empty());
    let mut seen = std::collections::BTreeSet::new();
    for b in &out.batches {
        assert!(
            b.members.len() <= 2,
            "batch of {} > bound 2",
            b.members.len()
        );
        assert!(b.members.len() >= 2, "degenerate batch committed");
        for &m in &b.members {
            assert!(seen.insert(m), "job {m} appears in two batches");
        }
    }
}

/// Batch spans land in the trace: one `SpanKind::Batch` event per
/// committed batch on the GPU track, carrying the member count.
#[test]
fn batch_spans_attribute_one_launch_to_many_jobs() {
    let out = serve_with(BatchPolicy::Coalesce { max_batch: 4 }, same_shape_wave(4));
    assert!(!out.batches.is_empty());
    let batch_spans: Vec<_> = out
        .spans
        .iter()
        .filter_map(hpu_obs::as_span)
        .filter_map(|(_, _, kind)| match kind {
            hpu_obs::SpanKind::Batch { size, saved } => Some((*size, *saved)),
            _ => None,
        })
        .collect();
    assert_eq!(
        batch_spans.len(),
        out.batches.len(),
        "one batch span per committed batch"
    );
    for ((size, saved), rec) in batch_spans.iter().zip(out.batches.iter()) {
        assert_eq!(*size as usize, rec.members.len());
        assert!((saved - rec.saved).abs() < 1e-9);
    }
}

/// A crash inside a batch's merged GPU window evicts every member, and
/// the merged lease stays in the calendar: the members share one lease,
/// so no member's eviction may release it.
#[test]
fn a_crash_mid_batch_keeps_the_merged_lease() {
    let batch = BatchPolicy::Coalesce { max_batch: 4 };
    let probe = serve_with(batch, same_shape_wave(4));
    let first = probe.batches.first().expect("the wave forms a batch");
    let (start, end) = first.windows[0];
    let crash_at = (start + end) / 2.0;

    let mut node = NodeSim::new(&MachineConfig::hpu1_sim(), &batched_config(batch));
    for (id, job) in same_shape_wave(4).into_iter().enumerate() {
        node.submit(id as u64, job);
    }
    while node.next_event_time().is_some_and(|t| t <= crash_at) {
        node.step();
    }
    let report = node.crash(crash_at);
    let in_flight: Vec<u64> = report.in_flight.iter().map(|j| j.id).collect();
    for id in &first.members {
        assert!(
            in_flight.contains(id),
            "batch member {id} not in flight at the crash: {in_flight:?}"
        );
    }
    let out = node.finish();
    assert!(
        out.gpu_leases.contains(&(start, end)),
        "the merged lease {:?} left the calendar: {:?}",
        (start, end),
        out.gpu_leases
    );
}
