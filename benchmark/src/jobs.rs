//! Job inputs shared by the serving workloads, the checking job wrapper,
//! and the output checks.

use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

use hpu_algos::{DcSum, MergeSort};
use hpu_core::exec::{RecoveryPolicy, RecoveryStats, RunReport};
use hpu_core::{bf::num_levels, run_native, BfAlgorithm, CoreError, Element, LevelPool};
use hpu_machine::SimHpu;
use hpu_model::{Plan, Recurrence};
use hpu_obs::{JobOutcome, JobRecord};
use hpu_serve::{AlgoJob, Workload};

use crate::input::{is_sorted, multiset_checksum, sort_keys, sum_terms, SplitMix64};
use crate::spans::Tracer;

/// Distinct shapes of [`Data::small`].
pub const SMALL_SHAPES: usize = 8;

/// One job's input, with what its output must satisfy.
#[derive(Debug, Clone)]
pub enum Data {
    /// Mergesort keys; the output is sorted with the same checksum.
    Sort { keys: Vec<u32>, checksum: u64 },
    /// Summands; the divide-and-conquer sum leaves `total` in slot 0.
    Sum { terms: Vec<u64>, total: u64 },
}

impl Data {
    pub fn sort(n: usize, rng: &mut SplitMix64) -> Data {
        let keys = sort_keys(n, rng);
        Data::Sort {
            checksum: multiset_checksum(&keys),
            keys,
        }
    }

    pub fn sum(n: usize, rng: &mut SplitMix64) -> Data {
        let terms = sum_terms(n, rng);
        Data::Sum {
            total: terms.iter().sum(),
            terms,
        }
    }

    /// Small job shape `shape % SMALL_SHAPES`: a mergesort or a sum of
    /// `2^8 ..= 2^11` elements, as a serving fleet sees them.
    pub fn small(shape: usize, rng: &mut SplitMix64) -> Data {
        let n = 1usize << (8 + shape % 4);
        if shape / 4 % 2 == 0 {
            Data::sort(n, rng)
        } else {
            Data::sum(n, rng)
        }
    }

    /// The job as the library's own [`AlgoJob`].
    pub fn algo_job(&self) -> Box<dyn Workload> {
        match self {
            Data::Sort { keys, .. } => AlgoJob::boxed(MergeSort::new(), keys.clone()),
            Data::Sum { terms, .. } => AlgoJob::boxed(DcSum, terms.clone()),
        }
    }

    /// The job wrapped so its output reaches `sink` once the server drops
    /// it; `tracer` records its run as a child of `parent`.
    pub fn checked_job(
        &self,
        id: u64,
        sink: &Sink,
        tracer: &Tracer,
        parent: Option<u64>,
    ) -> Box<dyn Workload> {
        match self {
            Data::Sort { keys, .. } => Box::new(CheckedJob {
                id,
                algo: MergeSort::new(),
                data: keys.clone(),
                sink: sink.clone(),
                tracer: tracer.clone(),
                parent,
                wrap: Output::Sort,
            }),
            Data::Sum { terms, .. } => Box::new(CheckedJob {
                id,
                algo: DcSum,
                data: terms.clone(),
                sink: sink.clone(),
                tracer: tracer.clone(),
                parent,
                wrap: Output::Sum,
            }),
        }
    }

    /// Whether `out` is this input's correct result.
    pub fn holds(&self, out: &Output) -> bool {
        match (self, out) {
            (Data::Sort { keys, checksum }, Output::Sort(got)) => {
                got.len() == keys.len() && is_sorted(got) && multiset_checksum(got) == *checksum
            }
            (Data::Sum { total, .. }, Output::Sum(got)) => got.first() == Some(total),
            _ => false,
        }
    }
}

/// A finished job's buffer.
#[derive(Debug)]
pub enum Output {
    Sort(Vec<u32>),
    Sum(Vec<u64>),
}

/// Where checked jobs leave `(job id, output)` when dropped.
pub type Sink = Arc<Mutex<Vec<(u64, Output)>>>;

/// A [`Workload`] that owns its buffer and hands it to a sink when the
/// server drops it, so outputs can be checked after the timed calls. It
/// serves native runs only: the simulated entry points refuse it.
struct CheckedJob<T: Element, A: BfAlgorithm<T> + Send + 'static> {
    id: u64,
    algo: A,
    data: Vec<T>,
    sink: Sink,
    tracer: Tracer,
    parent: Option<u64>,
    wrap: fn(Vec<T>) -> Output,
}

const NATIVE_ONLY: CoreError = CoreError::MalformedPlan {
    reason: "the benchmark's checked job runs natively only",
};

impl<T: Element, A: BfAlgorithm<T> + Send + 'static> Workload for CheckedJob<T, A> {
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

    fn run_plan(&mut self, _hpu: &mut SimHpu, _plan: &Plan) -> Result<RunReport, CoreError> {
        Err(NATIVE_ONLY)
    }

    fn run_plan_recover(
        &mut self,
        _hpu: &mut SimHpu,
        _plan: &Plan,
        _policy: &RecoveryPolicy,
    ) -> (Result<RunReport, CoreError>, RecoveryStats) {
        (Err(NATIVE_ONLY), RecoveryStats::default())
    }

    fn run_native(&mut self, pool: &LevelPool) -> Result<Duration, CoreError> {
        let (algo, data) = (&self.algo, &mut self.data);
        self.tracer.span(
            self.tracer.id(),
            "core",
            "run_native",
            self.parent,
            Some(self.id),
            || run_native(algo, data, pool),
        )
    }
}

impl<T: Element, A: BfAlgorithm<T> + Send + 'static> Drop for CheckedJob<T, A> {
    fn drop(&mut self) {
        let out = (self.wrap)(std::mem::take(&mut self.data));
        // Never panic in drop; a poisoned sink still holds valid pairs.
        self.sink
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push((self.id, out));
    }
}

/// Checks checked-job outputs against their inputs: every job `0..n`
/// left exactly one buffer, and each is its input's correct result.
/// Returns how many jobs lack a correct output.
pub fn check_outputs(
    sink: &Sink,
    input: impl Fn(u64) -> Option<Data>,
    n: u64,
    problems: &mut Vec<String>,
) -> u64 {
    let mut outs = std::mem::take(&mut *sink.lock().unwrap_or_else(PoisonError::into_inner));
    outs.sort_by_key(|(id, _)| *id);
    outs.dedup_by_key(|(id, _)| *id);
    let mut correct = 0u64;
    for (id, out) in &outs {
        if *id < n && input(*id).is_some_and(|d| d.holds(out)) {
            correct += 1;
        } else {
            problems.push(format!("job {id} produced a wrong result"));
        }
    }
    if correct < n {
        problems.push(format!(
            "{} of {n} jobs left no correct output",
            n - correct
        ));
    }
    n - correct.min(n)
}

/// Checks a serving run's records: every job `0..n` has exactly one
/// terminal record, and the outcome counts add up to `n`. Returns the
/// completed count.
pub fn check_records<'a>(
    records: impl Iterator<Item = &'a JobRecord>,
    n: u64,
    problems: &mut Vec<String>,
) -> u64 {
    let mut seen = vec![0u32; n as usize];
    let (mut completed, mut other, mut total) = (0u64, 0u64, 0u64);
    for r in records {
        total += 1;
        match seen.get_mut(r.id as usize) {
            Some(c) => *c += 1,
            None => problems.push(format!("record for unknown job {}", r.id)),
        }
        match r.outcome {
            JobOutcome::Completed => completed += 1,
            JobOutcome::QueueFull | JobOutcome::Cancelled | JobOutcome::Failed { .. } => other += 1,
        }
    }
    let bad = seen.iter().filter(|&&c| c != 1).count();
    if bad > 0 {
        problems.push(format!(
            "{bad} of {n} jobs lack exactly one terminal record"
        ));
    }
    if completed + other != total || total != n {
        problems.push(format!(
            "outcome counts do not add up: {completed} completed + {other} other of {total} records for {n} jobs"
        ));
    }
    completed
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs `data` as a checked job and checks what reached the sink.
    fn run_checked(data: &Data) -> u64 {
        let sink = Sink::default();
        let mut job = data.checked_job(0, &sink, &Tracer::default(), None);
        job.run_native(&LevelPool::new(2)).unwrap();
        drop(job);
        check_outputs(&sink, |_| Some(data.clone()), 1, &mut Vec::new())
    }

    #[test]
    fn checked_jobs_hand_over_correct_outputs() {
        let mut rng = SplitMix64::new(1, 2);
        assert_eq!(run_checked(&Data::sort(512, &mut rng)), 0);
        assert_eq!(run_checked(&Data::sum(256, &mut rng)), 0);
    }

    #[test]
    fn a_wrong_or_missing_output_is_reported() {
        let mut rng = SplitMix64::new(1, 2);
        let data = Data::sort(8, &mut rng);
        let sink = Sink::default();
        sink.lock().unwrap().push((0, Output::Sort(vec![0; 8])));
        let mut problems = Vec::new();
        assert_eq!(
            check_outputs(&sink, |_| Some(data.clone()), 2, &mut problems),
            2
        );
        assert_eq!(problems.len(), 2, "{problems:?}");
    }

    #[test]
    fn simulated_entry_points_refuse_the_checked_job() {
        let mut rng = SplitMix64::new(1, 2);
        let mut job =
            Data::sum(16, &mut rng).checked_job(0, &Sink::default(), &Tracer::default(), None);
        let plan = Plan::host_only(16, 4, 1, hpu_model::ScheduleSpec::CpuParallel);
        let mut hpu = SimHpu::new(hpu_machine::MachineConfig::tiny());
        assert!(job.run_plan(&mut hpu, &plan).is_err());
    }
}
