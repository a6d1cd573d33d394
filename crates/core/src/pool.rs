//! A from-scratch level-synchronous thread pool for native execution.
//!
//! The breadth-first translation turns a D&C algorithm into a sequence of
//! *levels* of independent tasks, so the only primitive the native executor
//! needs is "run this batch of closures on `k` threads and wait" — a
//! fork-join per level, mirroring how the paper's implementation launches
//! CPU threads per recursion level (§6.1). The native backend keeps those
//! batches small: it runs every level below its subtree cut inside one
//! task per subtree, so it submits fewer than `a` tasks per thread at the
//! cut and fewer tasks than threads above it.
//!
//! The caller joins its own fork-join: it runs the claim loop itself and
//! spawns only `threads − 1` scoped workers, all pulling task indices from
//! a shared atomic counter (self-balancing for uneven task costs). Scoped
//! threads keep borrows of the caller's data safe without `'static`
//! bounds. A panicking task does not stop the level: the first panic is
//! caught, the remaining tasks still run, and the caller re-raises the
//! original payload once every worker has joined.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use hpu_obs::{EventKind, Recorder, Track, WallRecorder};

/// A fork-join executor running each submitted level on `threads` OS
/// threads.
///
/// A pool can carry an optional wall-clock [`WallRecorder`]: levels
/// submitted through [`LevelPool::run_tagged`] are then recorded as
/// structured spans (µs since the recorder's origin) for Chrome trace
/// export. Cloned pools share the same recorder.
#[derive(Debug, Clone)]
pub struct LevelPool {
    threads: usize,
    recorder: Option<Arc<Mutex<WallRecorder>>>,
}

impl LevelPool {
    /// Creates a pool using `threads` worker threads (minimum 1).
    pub fn new(threads: usize) -> Self {
        LevelPool {
            threads: threads.max(1),
            recorder: None,
        }
    }

    /// Creates a pool sized to the machine's available parallelism.
    pub fn host_sized() -> Self {
        let n = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        LevelPool::new(n)
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Attaches a shared wall-clock recorder; levels run through
    /// [`LevelPool::run_tagged`] will be recorded as structured spans.
    pub fn with_recorder(mut self, rec: Arc<Mutex<WallRecorder>>) -> Self {
        self.recorder = Some(rec);
        self
    }

    /// The attached recorder, if any.
    pub fn recorder(&self) -> Option<&Arc<Mutex<WallRecorder>>> {
        self.recorder.as_ref()
    }

    /// Runs a level of independent tasks like [`LevelPool::run`], recording
    /// it on the attached recorder (if any) as an event of the given kind.
    /// Returns the level's wall-clock interval in µs since the recorder's
    /// origin (`(0, 0)` without a recorder).
    pub fn run_tagged<F>(&self, kind: EventKind, tasks: Vec<F>) -> (f64, f64)
    where
        F: FnOnce() + Send,
    {
        match &self.recorder {
            None => {
                self.run(tasks);
                (0.0, 0.0)
            }
            Some(rec) => {
                // Poison-tolerant: a panicked worker elsewhere must not
                // wedge the recorder for surviving levels.
                let start = rec.lock().unwrap_or_else(PoisonError::into_inner).now_us();
                self.run(tasks);
                let mut rec = rec.lock().unwrap_or_else(PoisonError::into_inner);
                let end = rec.now_us();
                rec.record_event(Track::Cpu, start, end, kind);
                (start, end)
            }
        }
    }

    /// Runs a level of independent tasks to completion.
    pub fn run<F>(&self, tasks: Vec<F>)
    where
        F: FnOnce() + Send,
    {
        let _: Vec<()> = self.run_collect(tasks.into_iter().map(|t| move || t()).collect());
    }

    /// Runs a level of independent tasks, returning their results in task
    /// order. The calling thread works the level alongside `threads − 1`
    /// spawned workers. If a task panics, the rest still run and the first
    /// panic then resumes on the caller with its original payload.
    pub fn run_collect<F, R>(&self, tasks: Vec<F>) -> Vec<R>
    where
        F: FnOnce() -> R + Send,
        R: Send,
    {
        let n = tasks.len();
        if n == 0 {
            return Vec::new();
        }
        // Single thread or single task: run inline, no spawn cost.
        if self.threads == 1 || n == 1 {
            return tasks.into_iter().map(|t| t()).collect();
        }
        let slots: Vec<Mutex<Option<F>>> = tasks.into_iter().map(|t| Mutex::new(Some(t))).collect();
        let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        let panicked: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
        let claim = || loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            let task = slots[i]
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .take()
                .expect("each task taken once");
            match catch_unwind(AssertUnwindSafe(task)) {
                Ok(r) => *results[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(r),
                // Keep the first payload: re-raised once the scope joins,
                // it carries the task's own message rather than the
                // scope's generic "a scoped thread panicked".
                Err(payload) => {
                    panicked
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .get_or_insert(payload);
                }
            }
        };
        std::thread::scope(|scope| {
            for _ in 1..self.threads.min(n) {
                scope.spawn(claim);
            }
            claim();
        });
        if let Some(payload) = panicked
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
        {
            resume_unwind(payload);
        }
        results
            .into_iter()
            .map(|m| {
                m.into_inner()
                    .unwrap_or_else(PoisonError::into_inner)
                    .expect("every task ran")
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn runs_all_tasks() {
        let pool = LevelPool::new(4);
        let counter = AtomicU64::new(0);
        let tasks: Vec<_> = (0..100)
            .map(|_| {
                let c = &counter;
                move || {
                    c.fetch_add(1, Ordering::Relaxed);
                }
            })
            .collect();
        pool.run(tasks);
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn collect_preserves_order() {
        let pool = LevelPool::new(3);
        let tasks: Vec<_> = (0..50usize).map(|i| move || i * i).collect();
        let out = pool.run_collect(tasks);
        assert_eq!(out, (0..50).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn empty_level_is_fine() {
        let pool = LevelPool::new(2);
        let out: Vec<u8> = pool.run_collect(Vec::<fn() -> u8>::new());
        assert!(out.is_empty());
    }

    #[test]
    fn single_thread_runs_inline() {
        let pool = LevelPool::new(1);
        let out = pool.run_collect((0..5usize).map(|i| move || i).collect::<Vec<_>>());
        assert_eq!(out, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn zero_threads_clamped_to_one() {
        assert_eq!(LevelPool::new(0).threads(), 1);
    }

    #[test]
    fn tasks_can_borrow_caller_data() {
        let pool = LevelPool::new(2);
        let mut data = [0u32; 16];
        {
            let tasks: Vec<_> = data
                .chunks_mut(4)
                .enumerate()
                .map(|(k, chunk)| {
                    move || {
                        for x in chunk.iter_mut() {
                            *x = k as u32;
                        }
                    }
                })
                .collect();
            pool.run(tasks);
        }
        assert_eq!(data[0], 0);
        assert_eq!(data[5], 1);
        assert_eq!(data[15], 3);
    }

    #[test]
    fn tagged_levels_land_on_the_recorder() {
        let rec = Arc::new(Mutex::new(WallRecorder::new()));
        let pool = LevelPool::new(2).with_recorder(rec.clone());
        let tasks: Vec<_> = (0..8).map(|_| || {}).collect();
        let (s, e) = pool.run_tagged(EventKind::Mark("lvl".into()), tasks);
        assert!(e >= s);
        let rec = rec.lock().unwrap();
        assert_eq!(rec.events().len(), 1);
        assert!(rec.events()[0].duration() >= 0.0);
    }

    #[test]
    fn a_task_panic_reaches_the_caller_with_its_message() {
        let pool = LevelPool::new(2);
        for _ in 0..20 {
            let tasks: Vec<_> = (0..8usize)
                .map(|i| {
                    move || {
                        if i == 5 {
                            panic!("task five exploded");
                        }
                    }
                })
                .collect();
            let payload = catch_unwind(AssertUnwindSafe(|| pool.run(tasks)))
                .expect_err("the task's panic reaches the caller");
            let message = payload
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| payload.downcast_ref::<String>().map(String::as_str));
            assert_eq!(message, Some("task five exploded"));
            // Nothing to rebuild: the next level runs clean.
            let out = pool.run_collect((0..8usize).map(|i| move || i).collect::<Vec<_>>());
            assert_eq!(out, (0..8).collect::<Vec<_>>());
        }
    }

    #[test]
    fn uneven_tasks_self_balance() {
        // Just a smoke test that wildly uneven tasks complete.
        let pool = LevelPool::new(4);
        let out = pool.run_collect(
            (0..20usize)
                .map(|i| {
                    move || {
                        let mut acc = 0u64;
                        for k in 0..(i * 1000) {
                            acc = acc.wrapping_add(k as u64);
                        }
                        acc
                    }
                })
                .collect::<Vec<_>>(),
        );
        assert_eq!(out.len(), 20);
    }
}
