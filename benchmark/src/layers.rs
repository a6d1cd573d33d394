//! The per-layer probes of the traced run. Each probe times calls into one
//! layer's public functions from outside, on the seeded inputs of the
//! workload that exercises that layer, so every traced run reports every
//! layer metric whichever workload it traces. README.md maps each metric
//! to the end-to-end metric and workload it should move.

use std::hint::black_box;
use std::time::Instant;

use hpu_algos::MergeSort;
use hpu_core::charge::NullCharge;
use hpu_core::{run_native, run_native_report, BfAlgorithm, LevelPool};
use hpu_estimate::{estimate_g, estimate_gamma};
use hpu_machine::{MachineConfig, SimMachineParams};
use hpu_model::{
    compile, compile_unoptimized, default_passes, plan_cost, AdvancedSolver, LevelProfile,
    MachineParams, PlanCache, Recurrence, ScheduleSpec,
};
use hpu_obs::{JobOutcome, JobRecord, MetricsRegistry};
use hpu_serve::{
    dispatch_order, serve_sim, AlgoJob, DeviceArbiter, JobRequest, NodeSim, Policy, QueuedShape,
    Rank, ServeConfig,
};

use crate::harness::{Observe, Opts, Round};
use crate::input::{is_sorted, sort_keys, SplitMix64};
use crate::native_bulk::THREADS;
use crate::report::{Outcome, PER_LAYER};
use crate::spans::Tracer;
use crate::stats::{median, percentile};
use crate::{native_bulk, native_stream, paper_sort, sim_fleet, sim_node};

/// Every per-layer metric except `obs.trace_overhead_ratio`, which the
/// traced rounds themselves measure.
pub fn probe_all(opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    algos_and_core(opts, &mut out);
    paper_sort_sims(opts, &mut out);
    model_calls(opts, &mut out);
    serve_node(opts, &mut out);
    native_records(opts, &mut out);
    fleet(opts, &mut out);
    obs_and_estimate(opts, &mut out);
    out
}

/// Sample counts: full, or tiny for `--smoke`.
fn reps(opts: &Opts, full: usize) -> usize {
    if opts.smoke {
        full.clamp(1, 3)
    } else {
        full
    }
}

fn secs(f: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_secs_f64()
}

/// Median over `samples` of the mean ns per call of `f` over `batch`
/// calls.
fn per_call_ns(samples: usize, batch: usize, mut f: impl FnMut()) -> f64 {
    let v: Vec<f64> = (0..samples)
        .map(|_| {
            secs(|| {
                for _ in 0..batch {
                    f();
                }
            }) * 1e9
                / batch as f64
        })
        .collect();
    median(&v)
}

/// Median ns per call of a call that consumes its input: `batch` inputs
/// are made before the clock starts and the outputs dropped after it
/// stops.
fn per_consuming_call_ns<I, O>(
    samples: usize,
    batch: usize,
    make: impl Fn() -> I,
    mut f: impl FnMut(I) -> O,
) -> f64 {
    let v: Vec<f64> = (0..samples)
        .map(|_| {
            let inputs: Vec<I> = (0..batch).map(|_| make()).collect();
            let mut outs = Vec::with_capacity(batch);
            let t = secs(|| outs.extend(inputs.into_iter().map(&mut f)));
            drop(outs);
            t * 1e9 / batch as f64
        })
        .collect();
    median(&v)
}

/// `algos` and `core` on the `native-bulk` input and pool.
fn algos_and_core(opts: &Opts, out: &mut Outcome) {
    let keys = native_bulk::keys(opts);
    let n = keys.len();
    let algo = MergeSort::new();
    let combine = |src: &[u32], dst: &mut [u32], chunk: usize| {
        for (s, d) in src.chunks(chunk).zip(dst.chunks_mut(chunk)) {
            algo.combine(s, d, &mut NullCharge);
        }
    };
    let merge_ns = |half: usize| {
        let mut src = keys.clone();
        for run in src.chunks_mut(half) {
            run.sort_unstable();
        }
        let mut dst = vec![0u32; n];
        let ns = per_call_ns(reps(opts, 5), 1, || combine(&src, &mut dst, 2 * half)) / n as f64;
        (ns, dst.chunks(2 * half).all(is_sorted))
    };
    let (large, large_ok) = merge_ns(n / 2);
    let (small, small_ok) = merge_ns(1 << 8);
    if !(large_ok && small_ok) {
        out.problem("MergeSort::combine left an unsorted chunk");
    }
    out.set("algos.merge_large_ns_per_elem", large);
    out.set("algos.merge_small_ns_per_elem", small);

    let (mut one, mut two) = (keys.clone(), keys.clone());
    let seq = secs(|| {
        if run_native(&algo, &mut one, &LevelPool::new(1)).is_err() {
            out.problem("single-threaded native sort failed");
        }
    });
    match run_native_report(&algo, &mut two, &LevelPool::new(THREADS)) {
        Ok(rep) => {
            let wall_us = rep.wall.as_secs_f64() * 1e6;
            let fine_us: f64 = rep
                .levels
                .iter()
                .filter(|l| l.chunk <= 4)
                .map(|l| l.time)
                .sum();
            out.set("core.parallel_speedup_x", seq / rep.wall.as_secs_f64());
            out.set("core.fine_levels_share", fine_us / wall_us);
        }
        Err(e) => out.problem(format!("two-thread native sort failed: {e}")),
    }
    if !(is_sorted(&one) && is_sorted(&two)) {
        out.problem("a native sort left its keys unsorted");
    }
    out.set("algos.seq_sort_ms", seq * 1e3);
    // Computed, not measured: every one of the log2(n) merge levels reads
    // and writes all n four-byte keys.
    out.set(
        "algos.bytes_moved_gb",
        2.0 * 4.0 * n as f64 * (n as f64).log2() / 1e9,
    );

    let pool = LevelPool::new(THREADS);
    let noop = || black_box(0u8);
    let level_us: Vec<f64> = (0..reps(opts, 2000))
        .map(|_| secs(|| drop(pool.run_collect(vec![noop; 2]))) * 1e6)
        .collect();
    out.set("core.pool_level_us_p50", percentile(&level_us, 50.0));
    out.set("core.pool_level_us_p99", percentile(&level_us, 99.0));
    let tasks = 1 << 16;
    out.set(
        "core.pool_task_ns",
        per_consuming_call_ns(
            reps(opts, 5),
            1,
            || vec![noop; tasks],
            |t| pool.run_collect(t),
        ) / tasks as f64,
    );

    // The interpreter against the same breadth-first loop written out, on
    // one thread so the pool's fork-joins do not drown the difference.
    let small = sort_keys(1 << 11, &mut SplitMix64::new(opts.seed, 0x494E_5450));
    let inline = LevelPool::new(1);
    let interpreted = per_consuming_call_ns(
        reps(opts, 300),
        1,
        || small.to_vec(),
        |mut d| {
            let _ = run_native(&algo, &mut d, &inline);
            d
        },
    );
    let direct = per_consuming_call_ns(
        reps(opts, 300),
        1,
        || small.to_vec(),
        |mut d| {
            direct_mergesort(&algo, &mut d);
            d
        },
    );
    out.set("core.interpret_overhead_ratio", interpreted / direct);
}

/// The breadth-first level loop of the native backend, without plans,
/// books or recorders: the interpreter's baseline.
fn direct_mergesort(algo: &MergeSort, data: &mut [u32]) {
    let n = data.len();
    let base = BfAlgorithm::<u32>::base_chunk(algo);
    for c in data.chunks_mut(base) {
        algo.base_case(c, &mut NullCharge);
    }
    let mut scratch = vec![0u32; n];
    let mut in_data = true;
    let mut chunk = 2 * base;
    while chunk <= n {
        let (src, dst): (&[u32], &mut [u32]) = if in_data {
            (data, &mut scratch)
        } else {
            (&scratch, data)
        };
        for (s, d) in src.chunks(chunk).zip(dst.chunks_mut(chunk)) {
            algo.combine(s, d, &mut NullCharge);
        }
        in_data = !in_data;
        chunk *= 2;
    }
    if !in_data {
        data.copy_from_slice(&scratch);
    }
}

/// `machine`, and the model's speedup predictions, on `paper-sort`'s
/// HPU1 jobs.
fn paper_sort_sims(opts: &Opts, out: &mut Outcome) {
    let keys = paper_sort::keys(opts);
    let hpu1 = MachineConfig::hpu1_sim();
    let mut virtual_time = Vec::new();
    let (mut ops, mut wall) = (0u64, 0.0);
    for (name, spec) in &paper_sort::SPECS {
        let job = JobRequest::new(
            *name,
            spec.clone(),
            0.0,
            AlgoJob::boxed(MergeSort::new(), keys.clone()),
        );
        let t0 = Instant::now();
        let served = serve_sim(&hpu1, &ServeConfig::default(), vec![job]);
        let t = t0.elapsed().as_secs_f64();
        let Some(run) = served.runs.first() else {
            out.problem(format!("paper-sort {name} job did not complete"));
            return;
        };
        wall += t;
        ops += run.report.levels.iter().map(|l| l.ops).sum::<u64>();
        virtual_time.push(run.report.virtual_time);
        let metric = format!("machine.sim_job_ms.{name}");
        set_named(out, &metric, t * 1e3);
    }
    out.set("machine.sim_ops_per_s", ops as f64 / wall);
    let [seq, basic, _, advanced] = virtual_time[..] else {
        return;
    };
    let hybrid = seq / advanced;
    let rec = <MergeSort as BfAlgorithm<u32>>::recurrence(&MergeSort::new());
    match AdvancedSolver::new(&MachineParams::from_config(&hpu1), &rec, keys.len() as u64) {
        Ok(solver) => {
            // As Figure 8 predicts it: the optimal (α, y) with the GPU
            // share's round trip.
            let opt = solver.optimize();
            let words = ((1.0 - opt.alpha) * keys.len() as f64) as u64;
            let predicted = solver.profile().total_work()
                / solver.predicted_time(opt.alpha, opt.transfer_level, words);
            out.set("model.predicted_speedup_x", predicted);
            out.set("model.speedup_error_ratio", predicted / hybrid);
        }
        Err(e) => out.problem(format!("advanced solver: {e}")),
    }
    out.set("paper-sort.hybrid_speedup_x", hybrid);
    out.set("model.basic_speedup_x", seq / basic);
}

/// Sets a metric whose name is built at run time, when the table lists it.
fn set_named(out: &mut Outcome, name: &str, value: f64) {
    match PER_LAYER.iter().find(|(m, _)| *m == name) {
        Some((m, _)) => out.set(m, value),
        None => out.problem(format!("{name} is not a listed per-layer metric")),
    }
}

/// `model` calls on `sim-node`'s three job shapes.
fn model_calls(opts: &Opts, out: &mut Outcome) {
    let params = MachineParams::from_config(&MachineConfig::hpu1_sim());
    let sort = <MergeSort as BfAlgorithm<u32>>::recurrence(&MergeSort::new());
    let shapes: [(ScheduleSpec, Recurrence, u64, u32); 3] = [
        (ScheduleSpec::GpuOnly, sort.clone(), 1 << 10, 10),
        (
            ScheduleSpec::Basic { crossover: None },
            sort.clone(),
            1 << 12,
            12,
        ),
        (ScheduleSpec::CpuParallel, Recurrence::dc_sum(), 1 << 11, 11),
    ];
    let (samples, batch) = (reps(opts, 21), 300);
    let mut lower = Vec::new();
    let mut compiled = Vec::new();
    for (spec, rec, n, levels) in &shapes {
        match (
            compile_unoptimized(spec, &params, rec, *n, *levels),
            compile(spec, &params, rec, *n, *levels),
        ) {
            (Ok(l), Ok(c)) => {
                lower.push(l);
                compiled.push(c);
            }
            _ => {
                out.problem(format!("{spec:?} does not compile"));
                return;
            }
        }
    }
    let per_shape = |f: &mut dyn FnMut(usize)| {
        per_call_ns(samples, batch, || (0..shapes.len()).for_each(&mut *f)) / shapes.len() as f64
    };
    let lower_ns = per_shape(&mut |i| {
        let (spec, rec, n, levels) = &shapes[i];
        drop(black_box(compile_unoptimized(
            spec, &params, rec, *n, *levels,
        )));
    });
    out.set("model.lower_ns", lower_ns);
    for pass in default_passes() {
        let ns = per_consuming_call_ns(
            samples,
            batch,
            || lower.clone(),
            |plans| plans.into_iter().map(|p| pass.run(p)).collect::<Vec<_>>(),
        ) / shapes.len() as f64;
        set_named(out, &format!("model.pass.{}_ns", pass.name()), ns);
    }
    let compile_ns = per_shape(&mut |i| {
        let (spec, rec, n, levels) = &shapes[i];
        drop(black_box(compile(spec, &params, rec, *n, *levels)));
    });
    out.set("model.compile_us", compile_ns / 1e3);
    let profiles: Vec<LevelProfile> = shapes
        .iter()
        .map(|(_, rec, n, _)| LevelProfile::new(&params, rec, *n))
        .collect();
    let cost_ns = per_shape(&mut |i| drop(black_box(plan_cost(&profiles[i], &compiled[i]))));
    out.set("model.plan_cost_us", cost_ns / 1e3);

    let mut cache = PlanCache::default();
    let mut lookup = |i: usize| {
        let (spec, rec, n, levels) = &shapes[i];
        drop(black_box(
            cache.lookup_or_compile(spec, &params, rec, *n, *levels, None),
        ));
    };
    (0..shapes.len()).for_each(&mut lookup);
    out.set("model.cache_hit_ns", per_shape(&mut lookup));
    let mut cache = PlanCache::default();
    let miss: Vec<f64> = (0..samples * shapes.len())
        .map(|k| {
            cache.bump_generation();
            let (spec, rec, n, levels) = &shapes[k % shapes.len()];
            secs(|| {
                drop(black_box(
                    cache.lookup_or_compile(spec, &params, rec, *n, *levels, None),
                ))
            })
        })
        .collect();
    if cache.stats().hits > 0 {
        out.problem("a lookup after a generation bump hit the plan cache");
    }
    out.set("model.cache_miss_us", median(&miss) * 1e6);

    let n = paper_sort::size(opts) as u64;
    let solve = per_call_ns(samples, 10, || {
        if let Ok(s) = AdvancedSolver::new(&params, &sort, n) {
            black_box(s.optimize());
        }
    });
    out.set("model.advanced_solve_us", solve / 1e3);
}

/// `serve` on the `sim-node` stream, driven one event at a time through
/// `NodeSim`, then the arbiter, batching, metrics overhead and the
/// offered-load sweep.
fn serve_node(opts: &Opts, out: &mut Outcome) {
    let input = sim_node::setup(opts);
    let n = input.jobs.len() as u64;
    let jobs = input.requests(sim_node::LOAD);
    let t0 = Instant::now();
    let mut node = NodeSim::new(&input.machine, &input.serve);
    for (i, job) in jobs.into_iter().enumerate() {
        node.submit(i as u64, job);
    }
    let mut step_us = Vec::new();
    loop {
        let t0 = Instant::now();
        if node.step().is_none() {
            break;
        }
        step_us.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    let served = node.finish();
    // Stepping `NodeSim` is `serve_sim` by its equivalence contract, so
    // this is also the unmetered run's wall time.
    let plain_s = t0.elapsed().as_secs_f64();
    let mut checked = Round::default();
    sim_node::check(&served, n, &mut checked);
    out.problems.extend(checked.problems);
    out.set("serve.step_us_p50", percentile(&step_us, 50.0));
    out.set("serve.step_us_p99", percentile(&step_us, 99.0));
    out.set("serve.events", step_us.len() as f64);

    let rep = &served.report;
    let completed: Vec<&JobRecord> = rep
        .jobs
        .iter()
        .filter(|j| j.outcome == JobOutcome::Completed)
        .collect();
    let waits: Vec<f64> = completed.iter().map(|j| j.wait()).collect();
    out.set("serve.admission_wait_p50_us", percentile(&waits, 50.0));
    let batched: usize = served.batches.iter().map(|b| b.members.len()).sum();
    out.set(
        "serve.batch_share",
        batched as f64 / completed.len().max(1) as f64,
    );
    out.set("sim-node.virtual_latency_p50_us", rep.p50_latency);
    out.set("sim-node.virtual_latency_p99_us", rep.p99_latency);
    let cache = served.plan_cache.unwrap_or_default();
    out.set("model.cache_hit_ratio.sim-node", cache.hit_rate());
    out.set("model.cache_hits.sim-node", cache.hits as f64);
    out.set("model.cache_misses.sim-node", cache.misses as f64);

    // The final calendars replayed into a fresh arbiter, then probed at
    // seeded times inside them.
    let mut arb = DeviceArbiter::new(input.machine.cpu.cores);
    for &(s, e) in &served.gpu_leases {
        arb.reserve_gpu(s, e - s);
    }
    for &(s, e, cores) in &served.cpu_reservations {
        arb.reserve_cpu(s, e - s, cores);
    }
    if arb.gpu_leases().len() != served.gpu_leases.len()
        || arb.cpu_reservations().len() != served.cpu_reservations.len()
    {
        out.problem("the replayed arbiter lost reservations");
    }
    out.set(
        "serve.calendar_len",
        (served.gpu_leases.len() + served.cpu_reservations.len()) as f64,
    );
    let horizon = arb.makespan();
    let mut rng = SplitMix64::new(opts.seed, 0x5052_4F42);
    let probes: Vec<f64> = (0..256)
        .map(|_| horizon * rng.below(1 << 20) as f64 / (1 << 20) as f64)
        .collect();
    let dur = input.mean_solo / 8.0;
    let mut k = 0;
    let mut next = || {
        k = (k + 1) % probes.len();
        probes[k]
    };
    let (samples, batch) = (reps(opts, 21), 64);
    out.set(
        "serve.gpu_probe_ns",
        per_call_ns(samples, batch, || {
            black_box(arb.gpu_slot(next(), dur));
        }),
    );
    out.set(
        "serve.cpu_probe_ns",
        per_call_ns(samples, batch, || {
            black_box(arb.cpu_slot(next(), dur, 1));
        }),
    );

    let ranks: Vec<Rank> = (0..ServeConfig::default().queue_capacity as u64)
        .map(|seq| Rank {
            seq,
            cost: rng.below(1 << 20) as f64,
            skips: rng.below(5) as usize,
        })
        .collect();
    let policy = Policy::default();
    out.set(
        "serve.dispatch_order_us",
        per_call_ns(samples, 1000, || {
            drop(black_box(dispatch_order(&policy, &ranks)))
        }) / 1e3,
    );

    let off = Tracer::default();
    let metered = ServeConfig {
        metrics: Some(std::sync::Arc::new(MetricsRegistry::new())),
        ..input.serve.clone()
    };
    let (_, metered_s) = input.serve(&metered, sim_node::LOAD, &off);
    out.set("obs.metrics_overhead_ratio", metered_s / plain_s);

    // The highest swept load with goodput ≥ 0.95 and a virtual p99 within
    // ten solo times. Both fall as load rises, so the sweep stops at the
    // first load that misses, sparing the slowest, saturated runs.
    let mut best = 0.0;
    for load in [0.25, 0.5, 0.75, 1.0, 1.5] {
        let (swept, _) = input.serve(&input.serve, load, &off);
        let r = &swept.report;
        if r.goodput < 0.95 || r.p99_latency > 10.0 * input.mean_solo {
            break;
        }
        best = load;
    }
    out.set("sim-node.max_rate_at_slo", best);
}

/// `serve_native`'s own records of 32 `native-stream` waves.
fn native_records(opts: &Opts, out: &mut Outcome) {
    let input = native_stream::setup(opts, if opts.smoke { 2 } else { 32 });
    let (round, served) = native_stream::serve_waves(&input, &Observe::default());
    out.problems.extend(round.problems);
    let records: Vec<&JobRecord> = served
        .iter()
        .flat_map(|o| o.report.jobs.iter())
        .filter(|j| j.outcome == JobOutcome::Completed)
        .collect();
    let waits: Vec<f64> = records.iter().map(|j| j.wait()).collect();
    let service: Vec<f64> = records.iter().map(|j| j.service).collect();
    out.set("serve.native_wait_p50_us", percentile(&waits, 50.0));
    out.set("serve.native_service_p50_us", percentile(&service, 50.0));
    out.set("serve.native_service_p99_us", percentile(&service, 99.0));
}

/// `fleet` on the `sim-fleet` stream, with the routing oracle on.
fn fleet(opts: &Opts, out: &mut Outcome) {
    let input = sim_fleet::setup(opts);
    let cfg = hpu_fleet::FleetConfig {
        oracle: true,
        ..input.fleet.clone()
    };
    let (served, _) = input.serve(&cfg, &Tracer::default());
    let rep = &served.report;
    let rec = &rep.recovery;
    if rep.submitted != input.jobs.len() {
        out.problem("the fleet lost submissions");
    }
    out.set("fleet.steals", rep.steals as f64);
    out.set("fleet.migrations", rep.migrations as f64);
    out.set("fleet.jobs_recovered", rec.jobs_recovered as f64);
    out.set("fleet.jobs_restarted", rec.jobs_restarted as f64);
    out.set(
        "fleet.replans",
        rep.nodes.iter().map(|s| s.replans).sum::<u64>() as f64,
    );
    out.set("fleet.routing_quality", rep.routing_quality);
    // How unevenly the nodes were kept busy: the coefficient of variation
    // of each node's CPU plus GPU busy time.
    let busy: Vec<f64> = rep
        .nodes
        .iter()
        .map(|s| (s.cpu_utilization + s.gpu_utilization) * s.makespan)
        .collect();
    let mean = busy.iter().sum::<f64>() / busy.len().max(1) as f64;
    let var = busy.iter().map(|b| (b - mean).powi(2)).sum::<f64>() / busy.len().max(1) as f64;
    out.set("fleet.node_util_spread", var.sqrt() / mean);
    out.set("sim-fleet.virtual_latency_p50_us", rep.p50_latency);
    out.set("sim-fleet.virtual_latency_p99_us", rep.p99_latency);
    out.set("sim-fleet.mttr_us", rec.mttr);
    let (hits, misses) = served
        .nodes
        .iter()
        .filter_map(|o| o.plan_cache)
        .fold((0, 0), |(h, m), s| (h + s.hits, m + s.misses));
    out.set(
        "model.cache_hit_ratio.sim-fleet",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    out.set("model.cache_hits.sim-fleet", hits as f64);
    out.set("model.cache_misses.sim-fleet", misses as f64);

    // One node, warmed by its first price, asked again for the first
    // dataset's shape: the router's per-node probe.
    let spec = &input.fleet.nodes[0];
    let mut node = NodeSim::new(&spec.machine, &spec.serve);
    let (job_spec, data) = &input.datasets[0];
    let job = data.algo_job();
    let shape = QueuedShape {
        spec: job_spec.clone(),
        rec: job.recurrence(),
        n: job.input_len() as u64,
        levels: job.exec_levels().unwrap_or(0),
    };
    if node.price(&shape).is_none() {
        out.problem("a fleet node cannot price its first dataset");
    }
    out.set(
        "fleet.price_ns",
        per_call_ns(reps(opts, 21), 1000, || {
            black_box(node.price(&shape));
        }),
    );
}

/// `obs` and `estimate` calls.
fn obs_and_estimate(opts: &Opts, out: &mut Outcome) {
    let registry = MetricsRegistry::new();
    let mut v = 0.0;
    out.set(
        "obs.observe_ns",
        per_call_ns(reps(opts, 21), 10_000, || {
            v += 1.0;
            registry.observe("benchmark.observe", v);
        }),
    );
    let hpu1 = MachineConfig::hpu1_sim();
    let g: Vec<f64> = (0..reps(opts, 3))
        .map(|_| secs(|| drop(black_box(estimate_g(&hpu1, 1 << 16)))))
        .collect();
    let gamma: Vec<f64> = (0..reps(opts, 3))
        .map(|_| {
            secs(|| {
                drop(black_box(estimate_gamma(
                    &hpu1,
                    &[1 << 12, 1 << 14, 1 << 16],
                )))
            })
        })
        .collect();
    out.set("estimate.g_ms", median(&g) * 1e3);
    out.set("estimate.gamma_ms", median(&gamma) * 1e3);
}
