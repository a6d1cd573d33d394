//! `paper-sort`: the paper's §6 case study as a closed loop with one
//! client. MergeSort on `2^20` keys, one job at a time through
//! `serve_sim`, under each of four schedules on HPU1 and on HPU2. The
//! machine simulator and the plan interpreter do almost all the work; the
//! scheduler barely runs.

use std::time::Instant;

use hpu_algos::MergeSort;
use hpu_estimate::{estimate_g, estimate_gamma};
use hpu_machine::MachineConfig;
use hpu_model::ScheduleSpec;
use hpu_serve::{serve_sim, AlgoJob, JobRequest, ServeConfig};

use crate::harness::{Bench, Observe, Opts, Round};
use crate::input::{sort_keys, SplitMix64};

/// The schedules of the paper's comparison, by their metric suffix.
pub const SPECS: [(&str, ScheduleSpec); 4] = [
    ("sequential", ScheduleSpec::Sequential),
    ("basic", ScheduleSpec::Basic { crossover: None }),
    ("gpuonly", ScheduleSpec::GpuOnly),
    ("advanced", ScheduleSpec::AdvancedAuto),
];

/// The paper's two platforms.
pub fn machines() -> [(&'static str, MachineConfig); 2] {
    [
        ("hpu1", MachineConfig::hpu1_sim()),
        ("hpu2", MachineConfig::hpu2_sim()),
    ]
}

/// The sorted input's length.
pub fn size(opts: &Opts) -> usize {
    if opts.smoke {
        1 << 12
    } else {
        1 << 20
    }
}

/// The paper's input: keys uniform in `[0, 2n)`.
pub fn keys(opts: &Opts) -> Vec<u32> {
    sort_keys(size(opts), &mut SplitMix64::new(opts.seed, 0x5041_5045))
}

/// The §6 parameter probes `setup` runs on each platform.
pub fn estimate(cfg: &MachineConfig) -> (usize, f64) {
    let g = estimate_g(cfg, 1 << 16).g;
    let gamma_inv = estimate_gamma(cfg, &[1 << 12, 1 << 14, 1 << 16]).gamma_inv;
    (g, gamma_inv)
}

pub struct PaperSort;

pub struct Input {
    keys: Vec<u32>,
    /// `(platform, machine, estimated g, estimated γ⁻¹)`.
    machines: Vec<(&'static str, MachineConfig, usize, f64)>,
}

impl Bench for PaperSort {
    type Input = Input;

    fn name(&self) -> &'static str {
        "paper-sort"
    }

    fn setup(&self, opts: &Opts) -> Input {
        let machines = machines()
            .into_iter()
            .map(|(name, cfg)| {
                let (g, gamma_inv) = estimate(&cfg);
                (name, cfg, g, gamma_inv)
            })
            .collect();
        Input {
            keys: keys(opts),
            machines,
        }
    }

    fn round(&self, input: &Input, obs: &Observe) -> Round {
        let serve = ServeConfig {
            metrics: obs.registry.clone(),
            ..ServeConfig::default()
        };
        let mut r = Round::default();
        for (platform, cfg, g, gamma_inv) in &input.machines {
            // The probes must find the configured machine (15% on g, whose
            // knee HPU2 puts between powers of two; 5% on γ⁻¹).
            let g_err = (*g as f64 / cfg.gpu.lanes as f64 - 1.0).abs();
            let gamma_err = (gamma_inv / cfg.gpu.gamma_inv - 1.0).abs();
            if g_err > 0.15 || gamma_err > 0.05 {
                r.problem(format!(
                    "{platform}: estimated g = {g}, γ⁻¹ = {gamma_inv} miss the configured {} and {}",
                    cfg.gpu.lanes, cfg.gpu.gamma_inv
                ));
            }
            for (spec_name, spec) in &SPECS {
                let job = JobRequest::new(
                    format!("{spec_name}-{platform}"),
                    spec.clone(),
                    0.0,
                    AlgoJob::boxed(MergeSort::new(), input.keys.clone()),
                );
                let id = r.submitted;
                r.submitted += 1;
                let t0 = Instant::now();
                let out = obs.tracer.call("serve", "serve_sim", Some(id), || {
                    serve_sim(cfg, &serve, vec![job])
                });
                let wall = t0.elapsed().as_secs_f64();
                r.wall_s += wall;
                r.latencies_ms.push(wall * 1e3);
                match out.runs.as_slice() {
                    [run] if out.report.completed == 1 => {
                        r.completed += 1;
                        r.fingerprint.push(run.report.virtual_time.to_bits());
                    }
                    _ => {
                        r.failed += 1;
                        r.problem(format!(
                            "{spec_name} on {platform} did not complete: {:?}",
                            out.errors
                        ));
                    }
                }
            }
        }
        r
    }
}
