//! `native-bulk`: the library's direct real-thread use, as a closed loop
//! with one client. One `run_native` MergeSort of `2^22` keys per round on
//! a two-thread `LevelPool`. The 16 MiB of keys plus 16 MiB of scratch are
//! eight times a 4 MiB L2 and fit a shared L3. Per-task pool cost and the
//! merge kernel dominate; no scheduler code runs.

use std::time::Instant;

use hpu_algos::MergeSort;
use hpu_core::{run_native, LevelPool};

use crate::harness::{Bench, Observe, Opts, Round};
use crate::input::{is_sorted, multiset_checksum, sort_keys, SplitMix64};

/// Busy threads: the host's two cores, and no more.
pub const THREADS: usize = 2;

pub fn keys(opts: &Opts) -> Vec<u32> {
    let n = if opts.smoke { 1 << 12 } else { 1 << 22 };
    sort_keys(n, &mut SplitMix64::new(opts.seed, 0x4255_4C4B))
}

pub struct NativeBulk;

pub struct Input {
    keys: Vec<u32>,
    checksum: u64,
    pool: LevelPool,
}

impl Bench for NativeBulk {
    type Input = Input;

    fn name(&self) -> &'static str {
        "native-bulk"
    }

    fn setup(&self, opts: &Opts) -> Input {
        let keys = keys(opts);
        Input {
            checksum: multiset_checksum(&keys),
            keys,
            pool: LevelPool::new(THREADS),
        }
    }

    fn round(&self, input: &Input, obs: &Observe) -> Round {
        let mut data = input.keys.clone();
        let t0 = Instant::now();
        let res = obs.tracer.call("core", "run_native", Some(0), || {
            run_native(&MergeSort::new(), &mut data, &input.pool)
        });
        let wall = t0.elapsed().as_secs_f64();
        let mut r = Round {
            wall_s: wall,
            latencies_ms: vec![wall * 1e3],
            submitted: 1,
            ..Round::default()
        };
        match res {
            Ok(_) if is_sorted(&data) && multiset_checksum(&data) == input.checksum => {
                r.completed = 1
            }
            Ok(_) => {
                r.failed = 1;
                r.problem("native sort output is unsorted or lost keys");
            }
            Err(e) => {
                r.failed = 1;
                r.problem(format!("native sort failed: {e}"));
            }
        }
        r
    }
}
