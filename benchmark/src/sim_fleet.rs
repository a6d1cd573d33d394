//! `sim-fleet`: a faulty 16-node fleet — the plan cache's write path
//! beside `sim-node`'s reads. 10,000 jobs of the `native-stream` shapes
//! over 64 recurring datasets arrive at offered load 16. Nodes alternate
//! HPU1 and HPU2; each has an 8-job queue, believes γ is twice its true
//! value, calibrates, and checkpoints every level. Three of the sixteen
//! nodes crash early. The router prices every arrival on every node,
//! calibration replans bump cache generations, and crash eviction and
//! stealing run, while per-node calendars stay short.

use std::time::Instant;

use hpu_fleet::{fleet_sim, FleetConfig, FleetJobRequest, FleetOutput, NodeSpec};
use hpu_machine::{MachineConfig, NodeFaultPlan, SimMachineParams};
use hpu_model::{CalibratorConfig, MachineParams, ScheduleSpec};
use hpu_serve::{serve_sim, CheckpointPolicy, JobRequest, ServeConfig};

use crate::harness::{Bench, Observe, Opts, Round};
use crate::input::SplitMix64;
use crate::jobs::{check_records, Data};
use crate::spans::Tracer;

const NODES: usize = 16;
const DATASETS: usize = 64;
const LOAD: f64 = 16.0;
const CRASH_RATE: f64 = 0.2;
/// Nodes the fault plan crashes: the expected 20% of 16, pinned so every
/// seed runs the same scenario.
const CRASHES: usize = 3;

/// One node's scheduler: a short queue, a γ belief twice the truth that
/// calibration corrects, and a checkpoint at every level boundary.
fn node_serve(machine: &MachineConfig) -> ServeConfig {
    let truth = MachineParams::from_config(machine);
    let assumed = MachineParams::new(truth.p, truth.g, (truth.gamma * 2.0).min(1.0))
        .expect("a doubled gamma clamped to 1 stays valid")
        .with_transfer_cost(truth.lambda, truth.delta);
    ServeConfig {
        queue_capacity: 8,
        assumed: Some(assumed),
        calibration: Some(CalibratorConfig::default()),
        checkpoint: CheckpointPolicy::EveryLevel,
        ..ServeConfig::default()
    }
}

/// The first fault seed, in a stream drawn from the run's seed, whose
/// plan crashes exactly [`CRASHES`] nodes.
fn fault_plan(seed: u64) -> NodeFaultPlan {
    let mut rng = SplitMix64::new(seed, 0x4641_554C);
    loop {
        let plan = NodeFaultPlan::new(rng.next_u64()).with_crash_rate(CRASH_RATE);
        let crashes = (0..NODES as u64)
            .filter(|&i| plan.fault_for(i).is_some())
            .count();
        if crashes == CRASHES {
            return plan;
        }
    }
}

pub struct SimFleet;

pub struct Input {
    pub fleet: FleetConfig,
    pub datasets: Vec<(ScheduleSpec, Data)>,
    /// `(dataset, arrival)` per job.
    pub jobs: Vec<(u64, f64)>,
}

impl Input {
    /// Serves the stream on `fleet`, timing only the call.
    pub fn serve(&self, fleet: &FleetConfig, tracer: &Tracer) -> (FleetOutput, f64) {
        let jobs: Vec<FleetJobRequest> = self
            .jobs
            .iter()
            .enumerate()
            .map(|(i, &(d, at))| {
                let (spec, data) = &self.datasets[d as usize];
                FleetJobRequest::new(format!("job-{i}"), spec.clone(), at, data.algo_job())
                    .with_dataset(d)
            })
            .collect();
        let t0 = Instant::now();
        let out = tracer.call("fleet", "fleet_sim", None, || fleet_sim(fleet, jobs));
        (out, t0.elapsed().as_secs_f64())
    }
}

pub fn setup(opts: &Opts) -> Input {
    let n = if opts.smoke { 300 } else { 10_000 };
    let nodes: Vec<NodeSpec> = (0..NODES)
        .map(|i| {
            let machine = if i % 2 == 0 {
                MachineConfig::hpu1_sim()
            } else {
                MachineConfig::hpu2_sim()
            };
            let serve = node_serve(&machine);
            NodeSpec::new(format!("n{i}"), machine).with_serve(serve)
        })
        .collect();
    let mut fleet = FleetConfig::new(nodes).with_node_faults(fault_plan(opts.seed));
    fleet.oracle = false;

    let mut rng = SplitMix64::new(opts.seed, 0x464C_4545);
    let specs = [
        ScheduleSpec::Basic { crossover: Some(4) },
        ScheduleSpec::GpuOnly,
        ScheduleSpec::CpuParallel,
    ];
    // Shapes and schedules are fixed per dataset index; the seed draws the
    // data, and the order in which jobs revisit the datasets.
    let datasets: Vec<(ScheduleSpec, Data)> = (0..DATASETS)
        .map(|d| (specs[d % specs.len()].clone(), Data::small(d, &mut rng)))
        .collect();
    // Offered load is against one HPU1 node serving a dataset alone.
    let hpu1 = MachineConfig::hpu1_sim();
    let serve = node_serve(&hpu1);
    let mean_solo = datasets
        .iter()
        .map(|(spec, data)| {
            let job = JobRequest::new("solo", spec.clone(), 0.0, data.algo_job());
            serve_sim(&hpu1, &serve, vec![job]).report.makespan
        })
        .sum::<f64>()
        / DATASETS as f64;
    let mut t = 0.0;
    let jobs = rng
        .deck(n, DATASETS)
        .into_iter()
        .map(|d| {
            t += rng.exp_gap(mean_solo / LOAD);
            (d as u64, t)
        })
        .collect();
    Input {
        fleet,
        datasets,
        jobs,
    }
}

impl Bench for SimFleet {
    type Input = Input;

    fn name(&self) -> &'static str {
        "sim-fleet"
    }

    fn setup(&self, opts: &Opts) -> Input {
        setup(opts)
    }

    fn round(&self, input: &Input, obs: &Observe) -> Round {
        let mut fleet = FleetConfig {
            metrics: obs.registry.clone(),
            ..input.fleet.clone()
        };
        for node in &mut fleet.nodes {
            node.serve.metrics = obs.registry.clone();
        }
        let (out, wall) = input.serve(&fleet, &obs.tracer);
        let n = input.jobs.len() as u64;
        let mut r = Round {
            wall_s: wall,
            latencies_ms: vec![wall * 1e3],
            submitted: n,
            ..Round::default()
        };
        let records = out.nodes.iter().flat_map(|o| o.report.jobs.iter());
        r.completed = check_records(records, n, &mut r.problems);
        r.failed = n - r.completed;
        if !out.errors.is_empty() {
            r.problem(format!("fleet invariant violations: {:?}", out.errors));
        }
        let rep = &out.report;
        if rep.completed as u64 != r.completed {
            r.problem(format!(
                "fleet report counts {} completions, the records {}",
                rep.completed, r.completed
            ));
        }
        let rec = &rep.recovery;
        r.fingerprint = [
            rep.p50_latency,
            rep.p99_latency,
            rep.mean_latency,
            rep.makespan,
            rep.completed as f64,
            rep.steals as f64,
            rec.crashes as f64,
            rec.jobs_recovered as f64,
            rec.jobs_restarted as f64,
            rec.mttr,
        ]
        .map(f64::to_bits)
        .to_vec();
        r
    }
}
