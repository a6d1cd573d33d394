//! Automatic schedule tuning: analytic (from `hpu-model`) and empirical
//! (grid search on the simulator, as in the paper's Figures 7 and 10).

use hpu_machine::{MachineConfig, SimHpu, SimMachineParams};
use hpu_model::{compile, BasicSchedule, MachineParams, Recurrence, ScheduleSpec};

use crate::bf::{BfAlgorithm, Element};
use crate::error::CoreError;
use crate::exec::run_sim;

/// Derives the model-optimal advanced schedule `(α*, y*)` for `rec` at
/// input size `n` on the given machine, with `y` rounded to an executable
/// integer level clamped to `[1, L]`. Compiles an
/// [`ScheduleSpec::AdvancedAuto`] plan and returns its resolved
/// [`ScheduleSpec::Advanced`], so tuning and execution can never derive
/// different `(α, y)`. A problem the solver cannot split surfaces as
/// [`CoreError::Model`].
pub fn auto_advanced(
    cfg: &MachineConfig,
    rec: &Recurrence,
    n: u64,
) -> Result<ScheduleSpec, CoreError> {
    let params = MachineParams::from_config(cfg);
    let levels = rec.num_levels(n);
    Ok(compile(&ScheduleSpec::AdvancedAuto, &params, rec, n, levels)?.resolved)
}

/// Picks a schedule automatically: the advanced division when the GPU is
/// worth using (`γ·g > p`), CPU-parallel otherwise.
pub fn auto_strategy(cfg: &MachineConfig, rec: &Recurrence, n: u64) -> ScheduleSpec {
    let params = MachineParams::from_config(cfg);
    if BasicSchedule::derive(&params, rec).crossover.is_none() {
        return ScheduleSpec::CpuParallel;
    }
    auto_advanced(cfg, rec, n).unwrap_or(ScheduleSpec::CpuParallel)
}

/// Result of an empirical grid search over `(α, y)`.
#[derive(Debug, Clone, PartialEq)]
pub struct GridSearchResult {
    /// Best split ratio found.
    pub alpha: f64,
    /// Best transfer level found.
    pub transfer_level: u32,
    /// Virtual time of the best run.
    pub best_time: f64,
    /// All sampled points as `(α, y, virtual_time)`.
    pub samples: Vec<(f64, u32, f64)>,
}

/// Empirically tunes the advanced schedule by running the simulator over a
/// grid of `(α, y)` pairs (the procedure behind the paper's Figures 7 and
/// 10). `make_input` regenerates the identical input for every run.
pub fn grid_search_sim<T: Element, A: BfAlgorithm<T>>(
    algo: &A,
    cfg: &MachineConfig,
    alphas: &[f64],
    transfer_levels: &[u32],
    make_input: impl Fn() -> Vec<T>,
) -> Result<GridSearchResult, CoreError> {
    let mut samples = Vec::with_capacity(alphas.len() * transfer_levels.len());
    let mut best: Option<(f64, u32, f64)> = None;
    for &y in transfer_levels {
        for &alpha in alphas {
            let mut data = make_input();
            let mut hpu = SimHpu::new(cfg.clone());
            let report = run_sim(
                algo,
                &mut data,
                &mut hpu,
                &ScheduleSpec::Advanced {
                    alpha,
                    transfer_level: y,
                },
            )?;
            samples.push((alpha, y, report.virtual_time));
            if best.is_none_or(|(_, _, t)| report.virtual_time < t) {
                best = Some((alpha, y, report.virtual_time));
            }
        }
    }
    let (alpha, transfer_level, best_time) = best.ok_or(CoreError::EmptyInput)?;
    Ok(GridSearchResult {
        alpha,
        transfer_level,
        best_time,
        samples,
    })
}
