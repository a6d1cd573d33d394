//! Randomized whole-stack property tests. A deterministic in-repo
//! splitmix64 PRNG drives a fixed set of seeds, so failures reproduce
//! exactly.

use hpu::prelude::*;
use hpu_algos::max_subarray::{max_subarray_reference, to_segments, MaxSubarray};
use hpu_algos::mergesort::{gpu_parallel_mergesort, sort_recursive};
use hpu_algos::scan::{scan_reference, DcScan};
use hpu_algos::sum::sum_recursive;
use hpu_core::bf::num_levels;
use hpu_core::exec::{interpret, NativeBackend, RecoveryPolicy};
use hpu_machine::FaultPlan;
use hpu_model::advanced::AdvancedSolver;
use hpu_model::compile_unoptimized;
use hpu_obs::{EventKind, JobOutcome, LevelBook};
use hpu_serve::{
    dispatch_order, serve_sim, AlgoJob, DeviceArbiter, FaultConfig, JobRequest, Policy, Rank,
    ServeConfig,
};

/// splitmix64 — same finalizer as `hpu_bench::SplitMix64`, inlined here so
/// the root test suite does not depend on the bench crate.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    fn vec_u32(&mut self, len: usize) -> Vec<u32> {
        (0..len).map(|_| self.next_u64() as u32).collect()
    }
}

/// Pads to the next power of two with `u32::MAX` sentinels (sorted to the
/// end), the standard trick for the framework's power-of-two requirement.
fn pad_pow2(mut v: Vec<u32>) -> Vec<u32> {
    let n = v.len().max(1).next_power_of_two();
    v.resize(n, u32::MAX);
    v
}

fn small_machine() -> MachineConfig {
    MachineConfig::tiny()
}

const SEEDS: [u64; 6] = [1, 7, 42, 1234567, 0xDEAD_BEEF, u64::MAX - 3];

#[test]
fn mergesort_all_strategies_match_std_sort() {
    for seed in SEEDS {
        let mut rng = Rng(seed);
        let len = 1 + rng.below(699) as usize;
        let alpha = 0.05 + 0.9 * (rng.below(1000) as f64 / 1000.0);
        let data = pad_pow2(rng.vec_u32(len));
        let mut expect = data.clone();
        expect.sort_unstable();
        let levels = data.len().trailing_zeros();

        let mut strategies = vec![
            ScheduleSpec::Sequential,
            ScheduleSpec::CpuParallel,
            ScheduleSpec::GpuOnly,
            ScheduleSpec::Basic { crossover: None },
        ];
        if levels >= 1 {
            strategies.push(ScheduleSpec::Advanced {
                alpha,
                transfer_level: (levels / 2).max(1),
            });
        }
        for strategy in strategies {
            let mut d = data.clone();
            let mut hpu = SimHpu::new(small_machine());
            run_sim(&MergeSort::new(), &mut d, &mut hpu, &strategy).unwrap();
            assert_eq!(d, expect, "seed {seed}, strategy {strategy:?}");
        }
    }
}

#[test]
fn coalesced_and_generic_gpu_agree() {
    for seed in SEEDS {
        let mut rng = Rng(seed);
        let len = 1 + rng.below(499) as usize;
        let data = pad_pow2(rng.vec_u32(len));
        let mut a = data.clone();
        let mut b = data;
        let mut h1 = SimHpu::new(small_machine());
        let mut h2 = SimHpu::new(small_machine());
        run_sim(&MergeSort::new(), &mut a, &mut h1, &ScheduleSpec::GpuOnly).unwrap();
        run_sim(
            &MergeSort::generic(),
            &mut b,
            &mut h2,
            &ScheduleSpec::GpuOnly,
        )
        .unwrap();
        assert_eq!(a, b, "seed {seed}");
    }
}

#[test]
fn gpu_parallel_mergesort_matches_std() {
    for seed in SEEDS {
        let mut rng = Rng(seed);
        let len = 1 + rng.below(599) as usize;
        let data = pad_pow2(rng.vec_u32(len));
        let mut expect = data.clone();
        expect.sort_unstable();
        let mut d = data;
        let mut hpu = SimHpu::new(small_machine());
        gpu_parallel_mergesort(&mut hpu, &mut d).unwrap();
        assert_eq!(d, expect, "seed {seed}");
    }
}

#[test]
fn cutoff_mergesort_matches_std() {
    for seed in SEEDS {
        let mut rng = Rng(seed);
        let len = 1 + rng.below(499) as usize;
        let mut data = pad_pow2(rng.vec_u32(len));
        let cutoff = (1usize << rng.below(5)).min(data.len());
        let mut expect = data.clone();
        expect.sort_unstable();
        let algo = MergeSort::new().with_leaf_cutoff(cutoff);
        let mut hpu = SimHpu::new(small_machine());
        run_sim(&algo, &mut data, &mut hpu, &ScheduleSpec::GpuOnly).unwrap();
        assert_eq!(data, expect, "seed {seed}, cutoff {cutoff}");
    }
}

#[test]
fn sum_matches_iter_sum() {
    for seed in SEEDS {
        let mut rng = Rng(seed);
        let len = 1 + rng.below(599) as usize;
        let mut data: Vec<u64> = (0..len).map(|_| rng.next_u64() as u32 as u64).collect();
        let n = data.len().next_power_of_two();
        data.resize(n, 0);
        let expect: u64 = data.iter().sum();
        for strategy in [ScheduleSpec::CpuParallel, ScheduleSpec::GpuOnly] {
            let mut d = data.clone();
            let mut hpu = SimHpu::new(small_machine());
            run_sim(&DcSum, &mut d, &mut hpu, &strategy).unwrap();
            assert_eq!(d[0], expect, "seed {seed}, strategy {strategy:?}");
        }
    }
}

#[test]
fn scan_matches_reference() {
    for seed in SEEDS {
        let mut rng = Rng(seed);
        let len = 1 + rng.below(399) as usize;
        let mut data: Vec<u64> = (0..len).map(|_| rng.below(1_000_000)).collect();
        let n = data.len().next_power_of_two();
        data.resize(n, 0);
        let expect = scan_reference(&data);
        let mut d = data;
        let mut hpu = SimHpu::new(small_machine());
        run_sim(&DcScan, &mut d, &mut hpu, &ScheduleSpec::CpuParallel).unwrap();
        assert_eq!(d, expect, "seed {seed}");
    }
}

#[test]
fn max_subarray_matches_kadane() {
    for seed in SEEDS {
        let mut rng = Rng(seed);
        let len = 1 + rng.below(299) as usize;
        let input: Vec<i64> = (0..len).map(|_| rng.below(2000) as i64 - 1000).collect();
        let mut padded = input.clone();
        let n = padded.len().next_power_of_two();
        padded.resize(n, 0); // zero padding does not change the optimum
        let mut segs = to_segments(&padded);
        let mut hpu = SimHpu::new(small_machine());
        run_sim(
            &MaxSubarray,
            &mut segs,
            &mut hpu,
            &ScheduleSpec::CpuParallel,
        )
        .unwrap();
        assert_eq!(segs[0].best, max_subarray_reference(&input), "seed {seed}");
    }
}

#[test]
fn model_y_is_monotone_and_times_equalize() {
    for seed in SEEDS {
        let mut rng = Rng(seed);
        let n_log = 8 + rng.below(16) as u32;
        let g_log = 4 + rng.below(9) as u32;
        let gamma_inv = 2.0 + 298.0 * (rng.below(1000) as f64 / 1000.0);
        let machine = MachineParams::new(4, 1 << g_log, 1.0 / gamma_inv).unwrap();
        if !machine.gpu_worth_using() {
            continue;
        }
        let solver = AdvancedSolver::new(&machine, &Recurrence::mergesort(), 1 << n_log).unwrap();
        let mut prev_y = f64::INFINITY;
        for k in 1..10 {
            let alpha = k as f64 * 0.1;
            let sol = solver.solve_y(alpha);
            if sol.feasible {
                // y non-increasing in alpha.
                assert!(sol.y <= prev_y + 1e-9, "seed {seed}, alpha {alpha}");
                prev_y = sol.y;
                // At an interior solution the two times are equal.
                if sol.y > 1e-9 && sol.y < (n_log as f64) - 1e-9 {
                    let tg = solver.tg(alpha, sol.y);
                    assert!(
                        (tg - sol.tc).abs() <= 1e-6 * sol.tc.max(1.0),
                        "seed {seed}, alpha {alpha}"
                    );
                }
            }
        }
    }
}

#[test]
fn model_optimum_dominates_grid() {
    for seed in SEEDS {
        let mut rng = Rng(seed);
        let n_log = 10 + rng.below(12) as u32;
        let g_log = 6 + rng.below(7) as u32;
        let machine = MachineParams::new(4, 1 << g_log, 1.0 / 100.0).unwrap();
        if !machine.gpu_worth_using() {
            continue;
        }
        let solver = AdvancedSolver::new(&machine, &Recurrence::mergesort(), 1 << n_log).unwrap();
        let best = solver.optimize();
        for k in 1..20 {
            let alpha = k as f64 * 0.05;
            if let Some(w) = solver.gpu_work_at(alpha) {
                assert!(
                    best.gpu_work >= w - 1e-6 * w.abs(),
                    "seed {seed}, alpha {alpha}"
                );
            }
        }
    }
}

#[test]
fn pool_preserves_task_order() {
    for seed in SEEDS {
        let mut rng = Rng(seed);
        let len = rng.below(200) as usize;
        let tasks: Vec<u16> = (0..len).map(|_| rng.next_u64() as u16).collect();
        let pool = LevelPool::new(3);
        let jobs: Vec<_> = tasks.iter().map(|&v| move || v as u32 + 1).collect();
        let out = pool.run_collect(jobs);
        let expect: Vec<u32> = tasks.iter().map(|&v| v as u32 + 1).collect();
        assert_eq!(out, expect, "seed {seed}");
    }
}

#[test]
fn zero_starvation_bound_degrades_to_exact_fifo() {
    for seed in SEEDS {
        let mut rng = Rng(seed);
        let len = rng.below(40) as usize;
        let mut ranks: Vec<Rank> = (0..len)
            .map(|i| Rank {
                seq: i as u64,
                cost: rng.below(1000) as f64 / 10.0,
                skips: rng.below(6) as usize,
            })
            .collect();
        // Fisher-Yates so arrival order and queue position disagree.
        for i in (1..ranks.len()).rev() {
            ranks.swap(i, rng.below(i as u64 + 1) as usize);
        }
        // With a zero starvation bound every queued job is overdue at
        // once, so shortest-cost ordering collapses to arrival order with
        // a fully rigid prefix — byte-for-byte FIFO.
        let mut fifo: Vec<usize> = (0..ranks.len()).collect();
        fifo.sort_by_key(|&i| ranks[i].seq);
        let zero = dispatch_order(
            &Policy {
                starvation_bound: 0,
            },
            &ranks,
        );
        assert_eq!(zero, (fifo, ranks.len()), "seed {seed}");
    }
}

#[test]
fn arbiter_probes_and_commits_agree() {
    for seed in SEEDS {
        let mut rng = Rng(seed);
        let cores = 1 + rng.below(7) as usize;
        let mut arb = DeviceArbiter::new(cores);
        for step in 0..40 {
            let t = rng.below(1000) as f64 / 10.0;
            let dur_a = rng.below(100) as f64 / 10.0;
            let dur_b = rng.below(100) as f64 / 10.0;
            let req = 1 + rng.below(9) as usize;
            let ctx = format!("seed {seed}, step {step}");
            match rng.below(3) {
                0 => {
                    let probe = arb.gpu_slot(t, dur_a);
                    let (s, e) = arb.reserve_gpu(t, dur_a);
                    assert_eq!(s, probe, "{ctx}");
                    assert!((e - (s + dur_a)).abs() <= 1e-9, "{ctx}");
                    assert!(s >= t, "{ctx}");
                }
                1 => {
                    let probe = arb.cpu_slot(t, dur_a, req);
                    let (s, e) = arb.reserve_cpu(t, dur_a, req);
                    assert_eq!(s, probe, "{ctx}");
                    assert!((e - (s + dur_a)).abs() <= 1e-9, "{ctx}");
                    assert!(s >= t, "{ctx}");
                }
                _ => {
                    // Completing at all is the termination property of the
                    // pair probe's alternating fixed-point search.
                    let probe = arb.pair_slot(t, dur_a, req, dur_b);
                    let (s, e) = arb.reserve_pair(t, dur_a, req, dur_b);
                    assert_eq!(s, probe, "{ctx}");
                    assert!((e - (s + dur_a.max(dur_b))).abs() <= 1e-9, "{ctx}");
                    assert!(s >= t, "{ctx}");
                }
            }
        }
        // The placements the probes promised must also be legal: GPU
        // leases pairwise disjoint, CPU pool never oversubscribed.
        for w in arb.gpu_leases().windows(2) {
            assert!(w[0].1 <= w[1].0 + 1e-9, "seed {seed}: {w:?}");
        }
        for &(s, _, _) in arb.cpu_reservations() {
            let used: usize = arb
                .cpu_reservations()
                .iter()
                .filter(|&&(s2, e2, _)| s2 <= s + 1e-9 && s + 1e-9 < e2)
                .map(|&(_, _, k)| k)
                .sum();
            assert!(
                used <= cores,
                "seed {seed}: {used} cores used of {cores} at {s}"
            );
        }
    }
}

#[test]
fn recovery_backoff_is_monotone_capped_and_pure() {
    // For any policy with a growth factor ≥ 1, `backoff_at` is
    // non-decreasing in the attempt index, never exceeds `max_backoff`,
    // stays finite whenever the cap is (even where `factor^attempt`
    // overflows to ∞), and is a pure function of the policy — equal
    // inputs give bit-equal backoffs.
    for seed in SEEDS {
        let mut rng = Rng(seed);
        for _ in 0..40 {
            let policy = RecoveryPolicy {
                max_retries: rng.below(8) as u32,
                backoff_base: rng.below(10_000) as f64 / 10.0,
                backoff_factor: 1.0 + rng.below(300) as f64 / 100.0,
                max_backoff: rng.below(1_000_000) as f64,
            };
            let mut prev = 0.0_f64;
            for attempt in 0..256u32 {
                let b = policy.backoff_at(attempt);
                assert!(b.is_finite(), "seed {seed}: finite under a finite cap");
                assert!(
                    b <= policy.max_backoff,
                    "seed {seed}: {b} exceeds cap {}",
                    policy.max_backoff
                );
                assert!(
                    b >= prev * (1.0 - 1e-12) - 1e-12,
                    "seed {seed}: backoff shrank {prev} -> {b} at attempt {attempt}"
                );
                assert_eq!(
                    b.to_bits(),
                    policy.backoff_at(attempt).to_bits(),
                    "seed {seed}: backoff_at must be deterministic"
                );
                prev = b;
            }
        }
    }
}

#[test]
fn serving_under_faults_accounts_for_every_job() {
    // Whatever faults are injected — transient kernel/transfer faults at
    // arbitrary rates, optionally a permanent device loss — the scheduler
    // must account for every submission exactly once with a typed
    // terminal state, and a transient-only plan must lose no job at all.
    for seed in SEEDS {
        let mut rng = Rng(seed);
        let jobs = 2 + rng.below(6) as usize;
        let kernel = rng.below(500) as f64 / 1000.0;
        let transfer = rng.below(300) as f64 / 1000.0;
        let loss = (rng.below(2) == 1).then(|| 5 + rng.below(55));
        let mut plan = FaultPlan::new(seed)
            .with_kernel_rate(kernel)
            .with_transfer_rate(transfer);
        if let Some(at) = loss {
            plan = plan.with_device_loss_at(at);
        }
        let transient_only = plan.is_transient_only();
        let serve = ServeConfig {
            queue_capacity: jobs,
            faults: Some(FaultConfig::new(plan)),
            ..ServeConfig::default()
        };
        let fleet: Vec<JobRequest> = (0..jobs)
            .map(|i| {
                let n = 256usize << (i % 2);
                let spec = match i % 3 {
                    0 => ScheduleSpec::Basic { crossover: Some(4) },
                    1 => ScheduleSpec::GpuOnly,
                    _ => ScheduleSpec::CpuParallel,
                };
                let data: Vec<u32> = (0..n as u32).rev().collect();
                JobRequest::new(
                    format!("sort-{i}"),
                    spec,
                    i as f64 * 500.0,
                    AlgoJob::boxed(MergeSort::new(), data),
                )
            })
            .collect();
        let out = serve_sim(&small_machine(), &serve, fleet);
        let mut ids: Vec<u64> = out.report.jobs.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), jobs, "seed {seed}: one record per submission");
        for r in &out.report.jobs {
            assert!(
                matches!(
                    r.outcome,
                    JobOutcome::Completed | JobOutcome::Failed { .. } | JobOutcome::Cancelled
                ),
                "seed {seed}: job {} ended untyped: {:?}",
                r.id,
                r.outcome
            );
        }
        let r = &out.report;
        assert_eq!(
            r.completed + r.failed + r.cancelled + r.rejected,
            jobs,
            "seed {seed}: outcomes must partition the fleet"
        );
        if transient_only {
            assert_eq!(
                r.completed, jobs,
                "seed {seed}: transient-only faults must lose no job"
            );
        }
    }
}

#[test]
fn one_node_fleet_is_observationally_identical_to_serve_sim() {
    use hpu_fleet::{fleet_sim, FleetConfig, FleetJobRequest, NodeSpec};
    use hpu_machine::SimMachineParams;
    use hpu_model::CalibratorConfig;

    // A 1-node fleet IS plain `serve_sim` — same outcomes, same
    // latencies, same device leases, same calibration generations, seed
    // for seed. The node's beliefs are mis-specified (2x gamma) with the
    // calibration loop on, so the equivalence also covers drift-triggered
    // replans and generation bumps.
    for seed in SEEDS {
        let mut rng = Rng(seed);
        let jobs = 2 + rng.below(8) as usize;
        let shapes: Vec<(ScheduleSpec, usize, f64)> = (0..jobs)
            .map(|i| {
                let spec = match i % 3 {
                    0 => ScheduleSpec::Basic { crossover: Some(4) },
                    1 => ScheduleSpec::GpuOnly,
                    _ => ScheduleSpec::CpuParallel,
                };
                (spec, 256usize << (i % 2), rng.below(4000) as f64)
            })
            .collect();
        let machine = small_machine();
        let truth = MachineParams::from_config(&machine);
        let assumed = MachineParams::new(truth.p, truth.g, (truth.gamma * 2.0).min(1.0))
            .unwrap()
            .with_transfer_cost(truth.lambda, truth.delta);
        let serve = ServeConfig {
            queue_capacity: jobs,
            assumed: Some(assumed),
            calibration: Some(CalibratorConfig::default()),
            ..ServeConfig::default()
        };
        let data = |n: usize| -> Vec<u32> { (0..n as u32).rev().collect() };

        let solo: Vec<JobRequest> = shapes
            .iter()
            .enumerate()
            .map(|(i, (spec, n, at))| {
                JobRequest::new(
                    format!("j{i}"),
                    spec.clone(),
                    *at,
                    AlgoJob::boxed(MergeSort::new(), data(*n)),
                )
            })
            .collect();
        let a = serve_sim(&machine, &serve, solo);

        let cfg = FleetConfig::new(vec![
            NodeSpec::new("solo", machine.clone()).with_serve(serve.clone())
        ]);
        let fleet_jobs: Vec<FleetJobRequest> = shapes
            .iter()
            .enumerate()
            .map(|(i, (spec, n, at))| {
                FleetJobRequest::new(
                    format!("j{i}"),
                    spec.clone(),
                    *at,
                    AlgoJob::boxed(MergeSort::new(), data(*n)),
                )
            })
            .collect();
        let b = fleet_sim(&cfg, fleet_jobs);

        assert!(b.steals.is_empty(), "seed {seed}: 1 node cannot steal");
        let node = &b.nodes[0];
        assert_eq!(a.report, node.report, "seed {seed}");
        assert_eq!(a.replans, node.replans, "seed {seed}");
        assert_eq!(a.calibration, node.calibration, "seed {seed}");
        assert_eq!(a.gpu_leases, node.gpu_leases, "seed {seed}");
        assert_eq!(a.cpu_reservations, node.cpu_reservations, "seed {seed}");
        assert_eq!(b.report.completed, a.report.completed, "seed {seed}");
    }
}

#[test]
fn virtual_time_scales_with_work() {
    for n_log in 6u32..11 {
        // Doubling the input must not shrink virtual time, whatever the
        // strategy.
        let run_at = |n: usize| {
            let mut data: Vec<u32> = (0..n as u32).rev().collect();
            let mut hpu = SimHpu::new(small_machine());
            run_sim(
                &MergeSort::new(),
                &mut data,
                &mut hpu,
                &ScheduleSpec::CpuParallel,
            )
            .unwrap()
            .virtual_time
        };
        let t1 = run_at(1 << n_log);
        let t2 = run_at(1 << (n_log + 1));
        assert!(t2 > t1, "n_log {n_log}: {t1} -> {t2}");
    }
}

/// Sort keys drawn from `[0, n/2]`, so every size has duplicates.
fn keys(rng: &mut Rng, n: usize) -> Vec<u32> {
    (0..n).map(|_| rng.below(n as u64 / 2 + 1) as u32).collect()
}

/// MergeSort's one-segment-per-level CPU plan, interpreted on a native
/// backend: every band after the first starts above level 0.
fn sort_unoptimized(algo: &MergeSort, data: &mut [u32], pool: &LevelPool) {
    let levels = num_levels::<u32>(algo, data.len()).unwrap();
    let params = MachineParams::new(pool.threads(), 1, 1.0).unwrap();
    let plan = compile_unoptimized(
        &ScheduleSpec::CpuParallel,
        &params,
        &BfAlgorithm::<u32>::recurrence(algo),
        data.len() as u64,
        levels,
    )
    .unwrap();
    assert_eq!(plan.segments.len() as u32, levels + 1);
    let book = LevelBook::new(1, 2);
    let mut backend = NativeBackend::new(pool.clone(), data, book);
    interpret(&plan, algo, &mut backend, &RecoveryPolicy::NO_RETRY)
        .0
        .unwrap();
}

#[test]
fn native_runs_match_the_sequential_references() {
    let mut rng = Rng(0x0AC1E);
    for log_n in 0..=13 {
        let n = 1usize << log_n;
        let sort_in = keys(&mut rng, n);
        let mut sorted = sort_in.clone();
        sort_recursive(&mut sorted);
        let words: Vec<u64> = (0..n).map(|_| rng.below(1 << 32)).collect();
        let values: Vec<i64> = (0..n).map(|_| rng.below(201) as i64 - 100).collect();
        for threads in 1..=4 {
            let pool = LevelPool::new(threads);
            let at = format!("n = {n}, {threads} threads");

            let mut d = sort_in.clone();
            run_native(&MergeSort::new(), &mut d, &pool).unwrap();
            assert_eq!(d, sorted, "MergeSort, {at}");
            if n >= 4 {
                let mut d = sort_in.clone();
                run_native(&MergeSort::new().with_leaf_cutoff(4), &mut d, &pool).unwrap();
                assert_eq!(d, sorted, "MergeSort with leaf cutoff 4, {at}");
            }
            let mut d = sort_in.clone();
            sort_unoptimized(&MergeSort::new(), &mut d, &pool);
            assert_eq!(d, sorted, "MergeSort on a per-level plan, {at}");

            let mut d = words.clone();
            run_native(&DcSum, &mut d, &pool).unwrap();
            assert_eq!(d[0], sum_recursive(&words), "DcSum, {at}");

            let mut d = words.clone();
            run_native(&DcScan, &mut d, &pool).unwrap();
            assert_eq!(d, scan_reference(&words), "DcScan, {at}");

            let mut d = to_segments(&values);
            run_native(&MaxSubarray, &mut d, &pool).unwrap();
            assert_eq!(
                d[0].best,
                max_subarray_reference(&values),
                "MaxSubarray, {at}"
            );
        }
    }
}

/// Guards against per-level fork-joins coming back: below the subtree cut
/// nothing is booked or traced, and only the levels above it fork-join.
#[test]
fn native_sort_fork_joins_only_above_the_subtree_cut() {
    let n = 1 << 16;
    let cut = (n / 2) as u64;
    let mut data = keys(&mut Rng(16), n);
    let rep = run_native_report(&MergeSort::new(), &mut data, &LevelPool::new(2)).unwrap();
    assert!(data.windows(2).all(|w| w[0] <= w[1]));
    assert!(
        rep.levels.iter().all(|l| l.chunk >= cut),
        "a level row below the cut: {:?}",
        rep.levels
    );
    let row = rep
        .levels
        .iter()
        .find(|l| l.chunk == cut)
        .expect("one row at the cut");
    assert_eq!(row.tasks, 2, "one subtree per thread");
    // ⌈log_a threads⌉ + 2: the cut, the levels above it and a copy-back.
    let spans = rep
        .trace
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Level { .. }))
        .count();
    assert!(spans <= 3, "{spans} level spans: {:?}", rep.trace);
}
