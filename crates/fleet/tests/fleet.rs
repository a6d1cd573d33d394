//! Fleet integration tests: 1-node equivalence with `serve_sim`,
//! load spreading, device-loss evacuation, and per-node calibration
//! isolation.

use hpu_algos::MergeSort;
use hpu_fleet::{fleet_sim, FleetConfig, FleetJobRequest, NodeSpec, StealReason};
use hpu_machine::{FaultPlan, MachineConfig, SimMachineParams};
use hpu_model::{CalibratorConfig, MachineParams, ScheduleSpec};
use hpu_serve::{serve_sim, AlgoJob, FaultConfig, JobRequest, ServeConfig};

fn sort_job(name: &str, spec: ScheduleSpec, n: u64, arrival: f64) -> JobRequest {
    let data: Vec<u64> = (0..n).rev().collect();
    JobRequest::new(name, spec, arrival, AlgoJob::boxed(MergeSort::new(), data))
}

fn fleet_job(name: &str, spec: ScheduleSpec, n: u64, arrival: f64) -> FleetJobRequest {
    let data: Vec<u64> = (0..n).rev().collect();
    FleetJobRequest::new(name, spec, arrival, AlgoJob::boxed(MergeSort::new(), data))
}

/// A scheduler that believes the GPU is twice as fast as it really is,
/// with the calibration loop on — the drift-and-replan scenario.
fn miscalibrated(cfg: &MachineConfig) -> ServeConfig {
    let truth = MachineParams::from_config(cfg);
    let assumed = MachineParams::new(truth.p, truth.g, (truth.gamma * 2.0).min(1.0))
        .unwrap()
        .with_transfer_cost(truth.lambda, truth.delta);
    ServeConfig {
        assumed: Some(assumed),
        calibration: Some(CalibratorConfig::default()),
        cpu_fallback: false,
        ..Default::default()
    }
}

fn mixed_spec(i: usize) -> ScheduleSpec {
    match i % 3 {
        0 => ScheduleSpec::Basic { crossover: Some(4) },
        1 => ScheduleSpec::GpuOnly,
        _ => ScheduleSpec::CpuParallel,
    }
}

/// A 1-node fleet is observationally identical to plain `serve_sim` —
/// same records, same device leases, same replans, same final
/// calibration state.
#[test]
fn one_node_fleet_matches_serve_sim() {
    let machine = MachineConfig::hpu1_sim();
    let serve = miscalibrated(&machine);

    let solo_jobs: Vec<JobRequest> = (0..10)
        .map(|i| {
            sort_job(
                &format!("j{i}"),
                mixed_spec(i),
                256 << (i % 2),
                i as f64 * 250.0,
            )
        })
        .collect();
    let solo = serve_sim(&machine, &serve, solo_jobs);

    let cfg = FleetConfig::new(vec![
        NodeSpec::new("solo", machine.clone()).with_serve(serve.clone())
    ]);
    let fleet_jobs: Vec<FleetJobRequest> = (0..10)
        .map(|i| {
            fleet_job(
                &format!("j{i}"),
                mixed_spec(i),
                256 << (i % 2),
                i as f64 * 250.0,
            )
        })
        .collect();
    let fleet = fleet_sim(&cfg, fleet_jobs);

    assert!(fleet.steals.is_empty(), "a 1-node fleet cannot steal");
    let node = &fleet.nodes[0];
    assert_eq!(solo.report, node.report);
    assert_eq!(solo.replans, node.replans);
    assert_eq!(solo.calibration, node.calibration);
    assert_eq!(solo.gpu_leases, node.gpu_leases);
    assert_eq!(solo.cpu_reservations, node.cpu_reservations);
    assert_eq!(fleet.report.completed, solo.report.completed);
    assert_eq!(fleet.report.submitted, 10);
    assert_eq!(fleet.assignments.len(), 10);
    assert!(fleet.assignments.iter().all(|&(_, n)| n == 0));
}

/// The cost/affinity router spreads a staggered stream over
/// heterogeneous nodes instead of piling everything on one, and the
/// whole stream completes.
#[test]
fn cost_router_spreads_staggered_load() {
    let serve = ServeConfig {
        queue_capacity: 64,
        ..Default::default()
    };
    let cfg = FleetConfig::new(vec![
        NodeSpec::new("hpu1", MachineConfig::hpu1_sim()).with_serve(serve.clone()),
        NodeSpec::new("hpu2", MachineConfig::hpu2_sim()).with_serve(serve.clone()),
        NodeSpec::new("hpu1b", MachineConfig::hpu1_sim()).with_serve(serve.clone()),
        NodeSpec::new("hpu2b", MachineConfig::hpu2_sim()).with_serve(serve),
    ]);
    let jobs: Vec<FleetJobRequest> = (0..24)
        .map(|i| {
            fleet_job(
                &format!("s{i}"),
                ScheduleSpec::Basic { crossover: Some(4) },
                1 << 10,
                i as f64 * 50.0,
            )
        })
        .collect();
    let out = fleet_sim(&cfg, jobs);
    assert_eq!(out.report.completed, 24);
    assert!((out.report.goodput - 1.0).abs() < 1e-12);
    let mut used: Vec<usize> = out.assignments.iter().map(|&(_, n)| n).collect();
    used.sort_unstable();
    used.dedup();
    assert!(
        used.len() >= 2,
        "staggered load should reach more than one node, got {used:?}"
    );
    assert!(
        out.report.routing_quality > 0.0,
        "the oracle baseline should be reported"
    );
}

/// Satellite: killing one node's GPU reroutes its queued jobs — the
/// breaker trip triggers an evacuation to the healthy peer, and the
/// evacuated jobs complete there.
#[test]
fn device_loss_evacuates_queued_jobs_to_healthy_peer() {
    // No CPU fallback: contended GPU jobs wait in the queue instead of
    // degrading locally, so the breaker trip finds a queue to evacuate.
    let doomed = ServeConfig {
        queue_capacity: 16,
        cpu_fallback: false,
        faults: Some(FaultConfig::new(FaultPlan::new(9).with_device_loss_at(25))),
        ..Default::default()
    };
    let healthy = ServeConfig {
        queue_capacity: 16,
        cpu_fallback: false,
        ..Default::default()
    };
    let mut cfg = FleetConfig::new(vec![
        NodeSpec::new("doomed", MachineConfig::hpu1_sim()).with_serve(doomed),
        NodeSpec::new("healthy", MachineConfig::hpu1_sim()).with_serve(healthy),
    ]);
    // Isolate the evacuation path from load-triggered stealing.
    cfg.steal = false;
    // A same-instant burst all lands on node 0 (equal idle scores, index
    // tie-break), so earlier admissions are still queued behind the
    // dispatched head job when a later admission's solo run crosses
    // launch ordinal 25 and loses the device.
    let jobs: Vec<FleetJobRequest> = (0..8)
        .map(|i| fleet_job(&format!("g{i}"), ScheduleSpec::GpuOnly, 1 << 10, 0.0))
        .collect();
    let out = fleet_sim(&cfg, jobs);

    assert!(out.assignments.iter().all(|&(_, n)| n == 0));
    let evacuated: Vec<_> = out
        .steals
        .iter()
        .filter(|e| e.reason == StealReason::DeviceLost)
        .collect();
    assert!(
        !evacuated.is_empty(),
        "a tripped breaker must evacuate the queue"
    );
    assert!(evacuated.iter().all(|e| e.from == 0 && e.to == 1));
    assert_eq!(out.report.migrations, evacuated.len());
    assert!(
        out.nodes[1].report.completed >= evacuated.len(),
        "the healthy node completes what it received"
    );
    let accounted = out.report.completed + out.report.failed + out.report.rejected;
    assert_eq!(accounted, 8, "every job is accounted for");
}

/// Tentpole invariant: calibration drift is node-local. A drifting node
/// replans and bumps its own pricing generation; its accurate peer's
/// generation never moves.
#[test]
fn calibration_drift_stays_node_local() {
    let machine = MachineConfig::hpu1_sim();
    let accurate = ServeConfig {
        calibration: Some(CalibratorConfig::default()),
        cpu_fallback: false,
        ..Default::default()
    };
    let mut cfg = FleetConfig::new(vec![
        NodeSpec::new("drifting", machine.clone()).with_serve(miscalibrated(&machine)),
        NodeSpec::new("accurate", machine.clone()).with_serve(accurate),
    ]);
    cfg.steal = false;
    let jobs: Vec<FleetJobRequest> = (0..16)
        .map(|i| {
            fleet_job(
                &format!("c{i}"),
                ScheduleSpec::GpuOnly,
                1 << 10,
                i as f64 * 500.0,
            )
        })
        .collect();
    let out = fleet_sim(&cfg, jobs);

    assert_eq!(out.report.completed, 16);
    // The locality checks below mean nothing on a node that served
    // nothing.
    for (i, node) in out.nodes.iter().enumerate() {
        assert!(node.report.completed >= 1, "node {i} completed no job");
    }
    assert!(
        out.nodes[0].replans >= 1,
        "a 2x gamma error must trigger a replan on the drifting node"
    );
    assert_eq!(out.nodes[1].replans, 0, "the accurate peer must not replan");
    assert!(out.nodes[0]
        .report
        .jobs
        .iter()
        .any(|r| r.calibration_generation >= 1));
    assert!(out.nodes[1]
        .report
        .jobs
        .iter()
        .all(|r| r.calibration_generation == 0));
}
