//! Job abstraction: what the scheduler needs from a workload.
//!
//! A [`Workload`] erases the element type and algorithm behind a small
//! dyn-safe surface, so one queue can mix mergesort, sum and scan jobs.
//! [`AlgoJob`] adapts any owned `(BfAlgorithm, data)` pair.

use std::time::Duration;

use hpu_core::exec::{run_native, run_sim_plan, RecoveryPolicy, RecoveryStats, RunOpts, RunReport};
use hpu_core::{bf::num_levels, BfAlgorithm, CoreError, Element, LevelPool};
use hpu_machine::SimHpu;
use hpu_model::{Plan, Recurrence};

/// A type-erased divide-and-conquer job.
///
/// Implementations own their input and may be run more than once (the
/// scheduler re-runs a job when probing its CPU-only fallback); repeat
/// runs operate on the previous run's output, which every in-place
/// breadth-first algorithm in this workspace tolerates.
pub trait Workload: Send {
    /// The algorithm's name (e.g. `"mergesort"`).
    fn kind(&self) -> &'static str;
    /// Input length in elements.
    fn input_len(&self) -> usize;
    /// The algorithm's cost recurrence, for the admission cost model.
    fn recurrence(&self) -> Recurrence;
    /// The executor's combine-level count for this input.
    fn exec_levels(&self) -> Result<u32, CoreError>;
    /// Runs the job on a simulated machine under a compiled plan.
    fn run_plan(&mut self, hpu: &mut SimHpu, plan: &Plan) -> Result<RunReport, CoreError>;
    /// Like [`Workload::run_plan`], retrying faulted segments under
    /// `policy` (see [`hpu_core::exec::interpret`]); the recovery
    /// tallies come back even when the run fails.
    fn run_plan_recover(
        &mut self,
        hpu: &mut SimHpu,
        plan: &Plan,
        policy: &RecoveryPolicy,
    ) -> (Result<RunReport, CoreError>, RecoveryStats);
    /// Runs the job under a compiled plan with the retry policy, metrics
    /// registry and checkpoint of `opts` (see
    /// [`hpu_core::exec::run_sim_plan`]) — the one call the scheduler
    /// makes. The default honours only `opts.recovery`, through
    /// [`Workload::run_plan_recover`]: it samples no metrics and restarts
    /// a checkpointed job from scratch, the correct fallback for workloads
    /// that cannot replay state.
    fn run_plan_with(
        &mut self,
        hpu: &mut SimHpu,
        plan: &Plan,
        opts: &RunOpts,
    ) -> (Result<RunReport, CoreError>, RecoveryStats) {
        match &opts.recovery {
            Some(policy) => self.run_plan_recover(hpu, plan, policy),
            None => (self.run_plan(hpu, plan), RecoveryStats::default()),
        }
    }
    /// Runs the job on real threads; returns the wall-clock time.
    fn run_native(&mut self, pool: &LevelPool) -> Result<Duration, CoreError>;
}

/// A [`Workload`] over an owned algorithm and input buffer.
pub struct AlgoJob<T: Element, A: BfAlgorithm<T> + Send + 'static> {
    algo: A,
    data: Vec<T>,
}

impl<T: Element, A: BfAlgorithm<T> + Send + 'static> AlgoJob<T, A> {
    /// Wraps `algo` over `data`.
    pub fn new(algo: A, data: Vec<T>) -> Self {
        AlgoJob { algo, data }
    }

    /// Boxes the job for submission to a scheduler queue.
    pub fn boxed(algo: A, data: Vec<T>) -> Box<dyn Workload> {
        Box::new(AlgoJob::new(algo, data))
    }
}

impl<T: Element, A: BfAlgorithm<T> + Send + 'static> Workload for AlgoJob<T, A> {
    fn kind(&self) -> &'static str {
        self.algo.name()
    }

    fn input_len(&self) -> usize {
        self.data.len()
    }

    fn recurrence(&self) -> Recurrence {
        self.algo.recurrence()
    }

    fn exec_levels(&self) -> Result<u32, CoreError> {
        num_levels(&self.algo, self.data.len())
    }

    fn run_plan(&mut self, hpu: &mut SimHpu, plan: &Plan) -> Result<RunReport, CoreError> {
        self.run_plan_with(hpu, plan, &RunOpts::default()).0
    }

    fn run_plan_recover(
        &mut self,
        hpu: &mut SimHpu,
        plan: &Plan,
        policy: &RecoveryPolicy,
    ) -> (Result<RunReport, CoreError>, RecoveryStats) {
        let opts = RunOpts {
            recovery: Some(*policy),
            ..RunOpts::default()
        };
        self.run_plan_with(hpu, plan, &opts)
    }

    fn run_plan_with(
        &mut self,
        hpu: &mut SimHpu,
        plan: &Plan,
        opts: &RunOpts,
    ) -> (Result<RunReport, CoreError>, RecoveryStats) {
        run_sim_plan(&self.algo, &mut self.data, hpu, plan, opts)
    }

    fn run_native(&mut self, pool: &LevelPool) -> Result<Duration, CoreError> {
        run_native(&self.algo, &mut self.data, pool)
    }
}
