//! One function per table/figure of the paper's evaluation section.
//!
//! Every function returns a [`Csv`] whose rows mirror the series the paper
//! plots; `EXPERIMENTS.md` records the paper-vs-measured comparison.

use std::fmt::Write as _;

use hpu_algos::mergesort::{gpu_parallel_mergesort, MergeSort};
use hpu_core::exec::run_sim;
use hpu_core::tune::{auto_advanced, grid_search_sim};
use hpu_core::BfAlgorithm;
use hpu_estimate::{estimate_g, estimate_gamma, platforms};
use hpu_machine::{MachineConfig, SimHpu, SimMachineParams};
use hpu_model::advanced::AdvancedSolver;
use hpu_model::closed_form::ClosedForm;
use hpu_model::{MachineParams, Recurrence, ScheduleSpec};

use crate::workload::uniform_input;

/// A simple CSV table: header plus string rows.
#[derive(Debug, Clone, PartialEq)]
pub struct Csv {
    /// Experiment identifier, e.g. `"fig7"`.
    pub name: &'static str,
    /// Column names.
    pub header: Vec<&'static str>,
    /// Data rows.
    pub rows: Vec<Vec<String>>,
}

impl Csv {
    /// Renders the table as CSV text (header first), quoting cells that
    /// contain commas or quotes (RFC 4180).
    pub fn render(&self) -> String {
        fn cell(s: &str) -> String {
            if s.contains(',') || s.contains('"') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.header.join(","));
        for row in &self.rows {
            let cells: Vec<String> = row.iter().map(|c| cell(c)).collect();
            let _ = writeln!(out, "{}", cells.join(","));
        }
        out
    }
}

fn f(v: f64) -> String {
    format!("{v:.4}")
}

/// Table 1: the hybrid platforms.
pub fn table1() -> Csv {
    Csv {
        name: "table1",
        header: vec!["platform", "cpu", "gpu"],
        rows: platforms::all()
            .iter()
            .map(|s| vec![s.name.to_string(), s.cpu.to_string(), s.gpu.to_string()])
            .collect(),
    }
}

/// Table 2: model parameters — published vs re-estimated on the simulated
/// devices with the paper's §6.4 procedures.
pub fn table2(probe_len: usize) -> Csv {
    let mut rows = Vec::new();
    for spec in platforms::all() {
        let cfg = spec.config();
        let g = estimate_g(&cfg, probe_len).g;
        let gamma = estimate_gamma(&cfg, &[probe_len / 4, probe_len / 2, probe_len]).gamma_inv;
        let (p, g_pub, gi_pub) = spec.published;
        rows.push(vec![
            spec.name.to_string(),
            p.to_string(),
            g_pub.to_string(),
            g.to_string(),
            f(gi_pub),
            f(gamma),
        ]);
    }
    Csv {
        name: "table2",
        header: vec![
            "platform",
            "p",
            "g_published",
            "g_estimated",
            "gamma_inv_published",
            "gamma_inv_estimated",
        ],
        rows,
    }
}

/// Figure 3: for mergesort on HPU1 at size `n`, the level `y(α)` the GPU
/// reaches and the share of the total work it performs, as functions of
/// `α` (closed form, §5.2.2).
pub fn fig3(n: u64) -> Csv {
    let cf = ClosedForm::new(&platforms::HPU1.published_params(), 2, n);
    let mut rows = Vec::new();
    let mut alpha = 0.01;
    while alpha <= 0.6 {
        rows.push(vec![
            f(alpha),
            f(cf.y_of_alpha(alpha)),
            f(100.0 * cf.gpu_work_fraction(alpha)),
        ]);
        alpha += 0.01;
    }
    Csv {
        name: "fig3",
        header: vec!["alpha", "gpu_level_y", "gpu_work_pct"],
        rows,
    }
}

/// Figure 4 (and the §5.2.2 example): the optimal advanced division per
/// platform — `α*`, transfer level `y`, GPU work share.
pub fn fig4(n: u64) -> Csv {
    let rec = Recurrence::mergesort();
    let mut rows = Vec::new();
    for spec in platforms::all() {
        let solver = AdvancedSolver::new(&spec.published_params(), &rec, n)
            .expect("paper-scale inputs are valid");
        let opt = solver.optimize();
        rows.push(vec![
            spec.name.to_string(),
            n.to_string(),
            f(opt.alpha),
            f(opt.transfer_level),
            f(100.0 * opt.gpu_work_fraction),
            format!("{:?}", opt.saturation),
        ]);
    }
    Csv {
        name: "fig4",
        header: vec![
            "platform",
            "n",
            "alpha_star",
            "transfer_level_y",
            "gpu_work_pct",
            "saturation",
        ],
        rows,
    }
}

/// Figure 5: GPU probe time vs number of work-items — the saturation knee
/// that estimates `g`, for both platforms.
pub fn fig5(len: usize) -> Csv {
    let mut rows = Vec::new();
    for spec in platforms::all() {
        let sweep = estimate_g(&spec.config(), len);
        for (threads, time) in &sweep.samples {
            rows.push(vec![
                spec.name.to_string(),
                threads.to_string(),
                f(*time),
                sweep.g.to_string(),
            ]);
        }
    }
    Csv {
        name: "fig5",
        header: vec!["platform", "threads", "time", "estimated_g"],
        rows,
    }
}

/// Figure 6: single-thread merge GPU/CPU time ratio vs input size, for
/// both platforms.
pub fn fig6(sizes: &[usize]) -> Csv {
    let mut rows = Vec::new();
    for spec in platforms::all() {
        let sweep = estimate_gamma(&spec.config(), sizes);
        for (size, ratio) in &sweep.samples {
            rows.push(vec![
                spec.name.to_string(),
                size.to_string(),
                f(*ratio),
                f(sweep.gamma_inv),
            ]);
        }
    }
    Csv {
        name: "fig6",
        header: vec!["platform", "size", "gpu_cpu_ratio", "estimated_gamma_inv"],
        rows,
    }
}

/// Runs one simulated mergesort and returns its report.
fn run_once(
    cfg: &MachineConfig,
    n: usize,
    strategy: &ScheduleSpec,
    seed: u64,
) -> hpu_core::RunReport {
    let mut data = uniform_input(n, seed);
    let mut hpu = SimHpu::new(cfg.clone());
    run_sim(&MergeSort::new(), &mut data, &mut hpu, strategy).expect("experiment run succeeds")
}

/// Figure 7: hybrid mergesort speedup over 1-core sequential on HPU1 as a
/// function of `α`, one series per transfer level.
pub fn fig7(n: usize, alphas: &[f64], levels: &[u32]) -> Csv {
    let cfg = MachineConfig::hpu1_sim();
    let base = run_once(&cfg, n, &ScheduleSpec::Sequential, 42).virtual_time;
    let mut rows = Vec::new();
    for &y in levels {
        for &alpha in alphas {
            let rep = run_once(
                &cfg,
                n,
                &ScheduleSpec::Advanced {
                    alpha,
                    transfer_level: y,
                },
                42,
            );
            rows.push(vec![y.to_string(), f(alpha), f(base / rep.virtual_time)]);
        }
    }
    Csv {
        name: "fig7",
        header: vec!["transfer_level", "alpha", "speedup_vs_1core"],
        rows,
    }
}

/// Figure 8: hybrid mergesort speedup vs input size — measured on the
/// simulator, predicted by the model, plus the concurrent-phase GPU/CPU
/// time ratio; both platforms.
pub fn fig8(sizes: &[usize]) -> Csv {
    let algo = MergeSort::new();
    let rec = <MergeSort as BfAlgorithm<u32>>::recurrence(&algo);
    let mut rows = Vec::new();
    for spec in platforms::all() {
        let cfg = spec.config();
        for &n in sizes {
            let base = run_once(&cfg, n, &ScheduleSpec::Sequential, 42).virtual_time;
            let strategy = auto_advanced(&cfg, &rec, n as u64).expect("valid size");
            let rep = run_once(&cfg, n, &strategy, 42);
            let measured = base / rep.virtual_time;
            // Model prediction with the same recurrence and machine.
            let solver = AdvancedSolver::new(&MachineParams::from_config(&cfg), &rec, n as u64)
                .expect("valid size");
            let opt = solver.optimize();
            let words = ((1.0 - opt.alpha) * n as f64) as u64;
            let predicted = solver.profile().total_work()
                / solver.predicted_time(opt.alpha, opt.transfer_level, words);
            let ratio = rep.concurrent.map(|(c, g)| g / c).unwrap_or(f64::NAN);
            let (alpha, y) = match strategy {
                ScheduleSpec::Advanced {
                    alpha,
                    transfer_level,
                } => (alpha, transfer_level),
                _ => unreachable!("auto_advanced returns Advanced"),
            };
            rows.push(vec![
                spec.name.to_string(),
                n.to_string(),
                f(measured),
                f(predicted),
                f(ratio),
                f(alpha),
                y.to_string(),
            ]);
        }
    }
    Csv {
        name: "fig8",
        header: vec![
            "platform",
            "n",
            "measured_speedup",
            "predicted_speedup",
            "gpu_cpu_phase_ratio",
            "alpha",
            "transfer_level",
        ],
        rows,
    }
}

/// Figure 9: the GPU-only parallel-merge mergesort vs the 1-core
/// sequential baseline on HPU1 — sort-only and sort+transfer times and
/// speedups.
pub fn fig9(sizes: &[usize]) -> Csv {
    let cfg = MachineConfig::hpu1_sim();
    let mut rows = Vec::new();
    for &n in sizes {
        let base = run_once(&cfg, n, &ScheduleSpec::Sequential, 42).virtual_time;
        let mut data = uniform_input(n, 42);
        let mut hpu = SimHpu::new(cfg.clone());
        let rep = gpu_parallel_mergesort(&mut hpu, &mut data).expect("power-of-two size");
        rows.push(vec![
            n.to_string(),
            f(base),
            f(rep.sort_time),
            f(rep.total_time),
            f(base / rep.sort_time),
            f(base / rep.total_time),
        ]);
    }
    Csv {
        name: "fig9",
        header: vec![
            "n",
            "time_cpu_seq",
            "time_gpu_sort",
            "time_gpu_total",
            "speedup_sort_only",
            "speedup_with_transfer",
        ],
        rows,
    }
}

/// Figure 10: empirically best `(α, y)` per input size (simulator grid
/// search) vs the model's predictions, on HPU1.
pub fn fig10(sizes: &[usize]) -> Csv {
    let cfg = MachineConfig::hpu1_sim();
    let algo = MergeSort::new();
    let rec = <MergeSort as BfAlgorithm<u32>>::recurrence(&algo);
    let mut rows = Vec::new();
    for &n in sizes {
        let solver = AdvancedSolver::new(&MachineParams::from_config(&cfg), &rec, n as u64)
            .expect("valid size");
        let opt = solver.optimize();
        let levels = rec.num_levels(n as u64);
        let y_pred = opt.transfer_level;
        // Grid around the prediction.
        let y_lo = (y_pred.round() as i64 - 2).max(1) as u32;
        let y_hi = (y_pred.round() as u32 + 2).min(levels.max(1));
        let ys: Vec<u32> = (y_lo..=y_hi).collect();
        let alphas: Vec<f64> = (1..=10).map(|k| k as f64 * 0.05).collect();
        let found = grid_search_sim(&algo, &cfg, &alphas, &ys, || uniform_input(n, 42))
            .expect("grid search succeeds");
        rows.push(vec![
            n.to_string(),
            f(found.alpha),
            f(opt.alpha),
            found.transfer_level.to_string(),
            f(y_pred),
        ]);
    }
    Csv {
        name: "fig10",
        header: vec![
            "n",
            "alpha_obtained",
            "alpha_predicted",
            "y_obtained",
            "y_predicted",
        ],
        rows,
    }
}

/// Ablation: the §6.3 coalescing optimization on vs off (GPU-only and
/// advanced hybrid runs on HPU1).
pub fn ablation_coalescing(n: usize) -> Csv {
    let cfg = MachineConfig::hpu1_sim();
    let rec = <MergeSort as BfAlgorithm<u32>>::recurrence(&MergeSort::new());
    let strategy = auto_advanced(&cfg, &rec, n as u64).expect("valid size");
    let mut rows = Vec::new();
    for (label, algo) in [
        ("coalesced", MergeSort::new()),
        ("generic", MergeSort::generic()),
    ] {
        for (sname, strat) in [
            ("gpu_only", ScheduleSpec::GpuOnly),
            ("advanced", strategy.clone()),
        ] {
            let mut data = uniform_input(n, 42);
            let mut hpu = SimHpu::new(cfg.clone());
            let rep = run_sim(&algo, &mut data, &mut hpu, &strat).expect("run succeeds");
            rows.push(vec![
                label.to_string(),
                sname.to_string(),
                f(rep.virtual_time),
                rep.coalesced.to_string(),
                rep.uncoalesced.to_string(),
            ]);
        }
    }
    Csv {
        name: "ablation_coalescing",
        header: vec![
            "gpu_path",
            "strategy",
            "virtual_time",
            "coalesced",
            "uncoalesced",
        ],
        rows,
    }
}

/// Ablation: basic vs advanced schedule (plus the pure strategies) on both
/// platforms.
pub fn ablation_schedule(n: usize) -> Csv {
    let rec = <MergeSort as BfAlgorithm<u32>>::recurrence(&MergeSort::new());
    let mut rows = Vec::new();
    for spec in platforms::all() {
        let cfg = spec.config();
        let advanced = auto_advanced(&cfg, &rec, n as u64).expect("valid size");
        let base = run_once(&cfg, n, &ScheduleSpec::Sequential, 42).virtual_time;
        for (label, strat) in [
            ("sequential", ScheduleSpec::Sequential),
            ("cpu_only", ScheduleSpec::CpuParallel),
            ("gpu_only", ScheduleSpec::GpuOnly),
            ("basic", ScheduleSpec::Basic { crossover: None }),
            ("advanced", advanced),
        ] {
            let rep = run_once(&cfg, n, &strat, 42);
            rows.push(vec![
                spec.name.to_string(),
                label.to_string(),
                f(rep.virtual_time),
                f(base / rep.virtual_time),
                rep.transfers.to_string(),
            ]);
        }
    }
    Csv {
        name: "ablation_schedule",
        header: vec![
            "platform",
            "strategy",
            "virtual_time",
            "speedup_vs_1core",
            "transfers",
        ],
        rows,
    }
}

/// Extension beyond the paper's mergesort-only evaluation: the same
/// framework and model-tuned schedules applied to other D&C workloads
/// (sum, scan, max-subarray) on HPU1.
pub fn extension_workloads(n: usize) -> Csv {
    use hpu_algos::max_subarray::{to_segments, MaxSubarray};
    use hpu_algos::scan::DcScan;
    use hpu_algos::sum::DcSum;

    let cfg = MachineConfig::hpu1_sim();
    let mut rows = Vec::new();

    fn measure<T: hpu_core::Element, A: BfAlgorithm<T>>(
        cfg: &MachineConfig,
        algo: &A,
        make: impl Fn() -> Vec<T>,
        n: usize,
        rows: &mut Vec<Vec<String>>,
    ) {
        let rec = algo.recurrence();
        let strategy = hpu_core::tune::auto_strategy(cfg, &rec, n as u64);
        let mut base_data = make();
        let mut hpu = SimHpu::new(cfg.clone());
        let base = run_sim(algo, &mut base_data, &mut hpu, &ScheduleSpec::Sequential)
            .expect("baseline run succeeds")
            .virtual_time;
        let mut data = make();
        let mut hpu = SimHpu::new(cfg.clone());
        let rep = run_sim(algo, &mut data, &mut hpu, &strategy).expect("tuned run succeeds");
        // Comma-free strategy description (the cell lives in a CSV).
        let label = match rep.resolved {
            ScheduleSpec::Advanced {
                alpha,
                transfer_level,
            } => format!("advanced(alpha={alpha:.3}; y={transfer_level})"),
            ref other => format!("{other:?}"),
        };
        rows.push(vec![
            algo.name().to_string(),
            n.to_string(),
            label,
            f(base / rep.virtual_time),
            rep.transfers.to_string(),
        ]);
    }

    measure(
        &cfg,
        &MergeSort::new(),
        || uniform_input(n, 42),
        n,
        &mut rows,
    );
    measure(
        &cfg,
        &DcSum,
        || (0..n as u64).collect::<Vec<u64>>(),
        n,
        &mut rows,
    );
    measure(
        &cfg,
        &DcScan,
        || (0..n as u64).map(|i| i % 97).collect::<Vec<u64>>(),
        n,
        &mut rows,
    );
    measure(
        &cfg,
        &MaxSubarray,
        || {
            to_segments(
                &(0..n as i64)
                    .map(|i| ((i * 37) % 23) - 11)
                    .collect::<Vec<i64>>(),
            )
        },
        n,
        &mut rows,
    );
    Csv {
        name: "extension_workloads",
        header: vec![
            "algorithm",
            "n",
            "strategy",
            "speedup_vs_1core",
            "transfers",
        ],
        rows,
    }
}

/// The artifacts of a traced run: one Chrome-trace process per executor
/// plus a per-level metrics/drift table covering all of them.
#[derive(Debug, Clone)]
pub struct TraceBundle {
    /// Chrome trace with one process per strategy (five simulated plus the
    /// native executor), ready for `chrome://tracing` / Perfetto.
    pub chrome: hpu_obs::ChromeTrace,
    /// Per-level metrics and model-vs-simulation drift, one row per
    /// (strategy, level).
    pub levels: Csv,
}

/// Runs mergesort at size `n` under every strategy (simulated and native)
/// with structured tracing and returns the combined artifacts.
pub fn trace_bundle(n: usize) -> TraceBundle {
    use std::collections::BTreeMap;

    let cfg = MachineConfig::hpu1_sim();
    let algo = MergeSort::new();
    let rec = <MergeSort as BfAlgorithm<u32>>::recurrence(&algo);
    let advanced = auto_advanced(&cfg, &rec, n as u64).expect("valid size");
    let mut chrome = hpu_obs::ChromeTrace::new();
    let mut rows = Vec::new();

    for (label, strat) in [
        ("sequential", ScheduleSpec::Sequential),
        ("cpu_only", ScheduleSpec::CpuParallel),
        ("gpu_only", ScheduleSpec::GpuOnly),
        ("basic", ScheduleSpec::Basic { crossover: None }),
        ("advanced", advanced),
    ] {
        let mut data = uniform_input(n, 42);
        let mut hpu = SimHpu::new(cfg.clone());
        let rep = run_sim(&algo, &mut data, &mut hpu, &strat).expect("traced run succeeds");
        chrome.add_process(label, hpu.timeline().trace_events());
        let drift: BTreeMap<u32, _> = rep.drift.iter().map(|d| (d.level, d)).collect();
        for l in &rep.levels {
            let (pred, err) = match drift.get(&l.level) {
                Some(d) => (f(d.predicted), f(d.rel_err)),
                None => (String::new(), String::new()),
            };
            rows.push(level_row(label, l, pred, err));
        }
    }

    // The native executor: same algorithm on real threads, wall-clock µs.
    let pool = hpu_core::LevelPool::new(cfg.cpu.cores);
    let mut data = uniform_input(n, 42);
    let rep = hpu_core::run_native_report(&algo, &mut data, &pool).expect("native run succeeds");
    chrome.add_process("native", rep.trace);
    for l in &rep.levels {
        rows.push(level_row("native", l, String::new(), String::new()));
    }

    TraceBundle {
        chrome,
        levels: Csv {
            name: "levels",
            header: vec![
                "strategy",
                "level",
                "chunk",
                "tasks",
                "ops",
                "mem",
                "coalesced",
                "uncoalesced",
                "words",
                "cpu_time",
                "gpu_time",
                "bus_time",
                "time",
                "predicted",
                "rel_err",
                "segment",
            ],
            rows,
        },
    }
}

fn spec_label(spec: &ScheduleSpec) -> String {
    match spec {
        ScheduleSpec::Sequential => "sequential".into(),
        ScheduleSpec::CpuParallel => "cpu_parallel".into(),
        ScheduleSpec::GpuOnly => "gpu_only".into(),
        ScheduleSpec::Basic { crossover: Some(c) } => format!("basic(crossover={c})"),
        ScheduleSpec::Basic { crossover: None } => "basic(crossover=auto)".into(),
        ScheduleSpec::Advanced {
            alpha,
            transfer_level,
        } => format!("advanced(alpha={alpha:.4}; y={transfer_level})"),
        ScheduleSpec::AdvancedAuto => "advanced(auto)".into(),
    }
}

fn placement_label(placement: &hpu_model::Placement) -> String {
    use hpu_model::Placement;
    match placement {
        Placement::Cpu { cores } => format!("cpu(cores={cores})"),
        Placement::Gpu => "gpu".to_string(),
        Placement::Split {
            alpha,
            cpu_tasks,
            tasks,
        } => format!("split(alpha={alpha:.4}; cpu_tasks={cpu_tasks}; tasks={tasks})"),
    }
}

/// One compilation an executable experiment performs:
/// `(platform, algorithm, recurrence, machine, schedule)`.
type PlanCase = (
    &'static str,
    &'static str,
    Recurrence,
    MachineConfig,
    ScheduleSpec,
);

/// The compilations behind an executable experiment, or `None` for
/// model-only and estimation experiments (the tables and Figures 3–6) —
/// they execute no plans.
fn plan_cases(experiment: &str) -> Option<Vec<PlanCase>> {
    let rec = <MergeSort as BfAlgorithm<u32>>::recurrence(&MergeSort::new());
    let hpu1 = MachineConfig::hpu1_sim();
    let mut cases: Vec<PlanCase> = Vec::new();
    let mut push = |platform, algo, r: &Recurrence, cfg: &MachineConfig, spec: ScheduleSpec| {
        cases.push((platform, algo, r.clone(), cfg.clone(), spec));
    };
    match experiment {
        "fig7" | "fig10" => {
            for spec in [ScheduleSpec::Sequential, ScheduleSpec::AdvancedAuto] {
                push("HPU1", "mergesort", &rec, &hpu1, spec);
            }
        }
        "fig8" | "ablation-schedule" => {
            for p in platforms::all() {
                let cfg = p.config();
                for spec in [
                    ScheduleSpec::Sequential,
                    ScheduleSpec::CpuParallel,
                    ScheduleSpec::GpuOnly,
                    ScheduleSpec::Basic { crossover: None },
                    ScheduleSpec::AdvancedAuto,
                ] {
                    push(p.name, "mergesort", &rec, &cfg, spec);
                }
            }
        }
        "fig9" => {
            for spec in [ScheduleSpec::Sequential, ScheduleSpec::GpuOnly] {
                push("HPU1", "mergesort", &rec, &hpu1, spec);
            }
        }
        "ablation-coalescing" => {
            for spec in [ScheduleSpec::GpuOnly, ScheduleSpec::AdvancedAuto] {
                push("HPU1", "mergesort", &rec, &hpu1, spec);
            }
        }
        "extension-workloads" => {
            use hpu_algos::max_subarray::{MaxSubarray, Segment};
            use hpu_algos::scan::DcScan;
            use hpu_algos::sum::DcSum;
            let recs = [
                ("mergesort", rec.clone()),
                ("sum", <DcSum as BfAlgorithm<u64>>::recurrence(&DcSum)),
                ("scan", <DcScan as BfAlgorithm<u64>>::recurrence(&DcScan)),
                (
                    "max_subarray",
                    <MaxSubarray as BfAlgorithm<Segment>>::recurrence(&MaxSubarray),
                ),
            ];
            for (name, r) in &recs {
                for spec in [ScheduleSpec::Sequential, ScheduleSpec::AdvancedAuto] {
                    push("HPU1", name, r, &hpu1, spec);
                }
            }
        }
        _ => return None,
    }
    Some(cases)
}

/// The compiled execution plans behind an executable experiment, one row
/// per plan segment: which level band runs where and what the transfer
/// edges move. Returns `None` for model-only and estimation experiments
/// (the tables and Figures 3–6) — they execute no plans.
pub fn plan_csv(experiment: &str, n: usize) -> Option<Csv> {
    use hpu_model::{compile, Direction};

    let cases = plan_cases(experiment)?;
    let mut rows = Vec::new();
    let n64 = n as u64;
    for (platform, algo, rec, cfg, spec) in &cases {
        let params = MachineParams::from_config(cfg);
        let levels = rec.num_levels(n64);
        let plan = compile(spec, &params, rec, n64, levels).expect("experiment schedules compile");
        for (i, seg) in plan.segments.iter().enumerate() {
            let words = |dir: Direction| -> u64 {
                seg.transfers
                    .iter()
                    .filter(|t| t.direction == dir)
                    .map(|t| t.words)
                    .sum()
            };
            rows.push(vec![
                platform.to_string(),
                algo.to_string(),
                spec_label(spec),
                spec_label(&plan.resolved),
                n64.to_string(),
                i.to_string(),
                seg.first_level.to_string(),
                seg.last_level.to_string(),
                placement_label(&seg.placement),
                words(Direction::ToGpu).to_string(),
                words(Direction::ToCpu).to_string(),
            ]);
        }
    }
    Some(Csv {
        name: "plan",
        header: vec![
            "platform",
            "algorithm",
            "schedule",
            "resolved",
            "n",
            "segment",
            "first_level",
            "last_level",
            "placement",
            "upload_words",
            "download_words",
        ],
        rows,
    })
}

/// The pass-pipeline dump behind `repro plan --passes`: every compilation
/// of the experiment starts from the naive lowered plan and runs each
/// optimizer pass in pipeline order, dumping the IR before and after every
/// pass — one CSV row per plan segment, with the plan's predicted cost
/// repeated on each row so the per-pass cost monotonicity is visible.
/// Returns `None` for model-only experiments, like [`plan_csv`].
pub fn plan_passes_csv(experiment: &str, n: usize) -> Option<Csv> {
    use hpu_model::{compile_unoptimized, default_passes, plan_cost, Direction, LevelProfile};

    let cases = plan_cases(experiment)?;
    let mut rows = Vec::new();
    let n64 = n as u64;
    for (platform, algo, rec, cfg, spec) in &cases {
        let params = MachineParams::from_config(cfg);
        let levels = rec.num_levels(n64);
        let mut plan = compile_unoptimized(spec, &params, rec, n64, levels)
            .expect("experiment schedules compile");
        let profile = LevelProfile::new(&params, rec, n64);
        let label = spec_label(spec);
        let mut push_stage = |pass: &str, stage: &str, plan: &hpu_model::Plan, cost: f64| {
            for (i, seg) in plan.segments.iter().enumerate() {
                let words = |dir: Direction| -> u64 {
                    seg.transfers
                        .iter()
                        .filter(|t| t.direction == dir)
                        .map(|t| t.words)
                        .sum()
                };
                rows.push(vec![
                    platform.to_string(),
                    algo.to_string(),
                    label.clone(),
                    pass.to_string(),
                    stage.to_string(),
                    n64.to_string(),
                    i.to_string(),
                    seg.first_level.to_string(),
                    seg.last_level.to_string(),
                    placement_label(&seg.placement),
                    words(Direction::ToGpu).to_string(),
                    words(Direction::ToCpu).to_string(),
                    format!("{cost:.4}"),
                ]);
            }
        };
        for pass in default_passes() {
            let before = plan_cost(&profile, &plan)
                .expect("unoptimized plans price")
                .total;
            push_stage(pass.name(), "before", &plan, before);
            plan = pass.run(plan);
            let after = plan_cost(&profile, &plan)
                .expect("optimized plans price")
                .total;
            push_stage(pass.name(), "after", &plan, after);
        }
    }
    Some(Csv {
        name: "plan_passes",
        header: vec![
            "platform",
            "algorithm",
            "schedule",
            "pass",
            "stage",
            "n",
            "segment",
            "first_level",
            "last_level",
            "placement",
            "upload_words",
            "download_words",
            "predicted_cost",
        ],
        rows,
    })
}

fn level_row(
    strategy: &str,
    l: &hpu_obs::LevelMetrics,
    predicted: String,
    rel_err: String,
) -> Vec<String> {
    vec![
        strategy.to_string(),
        l.level.to_string(),
        l.chunk.to_string(),
        l.tasks.to_string(),
        l.ops.to_string(),
        l.mem.to_string(),
        l.coalesced.to_string(),
        l.uncoalesced.to_string(),
        l.words.to_string(),
        f(l.cpu_time),
        f(l.gpu_time),
        f(l.bus_time),
        f(l.time),
        predicted,
        rel_err,
        l.segment.map(|s| s.to_string()).unwrap_or_default(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_csv_covers_executable_experiments() {
        // fig9's GPU-only plan: one upload, one device band, one download.
        let c = plan_csv("fig9", 1 << 10).expect("fig9 executes plans");
        assert_eq!(c.header.len(), 11);
        let gpu_rows: Vec<_> = c.rows.iter().filter(|r| r[2] == "gpu_only").collect();
        assert_eq!(gpu_rows.len(), 1, "GPU-only is a single segment");
        assert_eq!(gpu_rows[0][8], "gpu");
        assert_eq!(gpu_rows[0][9], (1 << 10).to_string(), "uploads all of n");
        assert_eq!(gpu_rows[0][10], (1 << 10).to_string(), "downloads all of n");
        // fig8's auto-advanced plan resolves to a split + CPU cleanup band.
        let c = plan_csv("fig8", 1 << 16).expect("fig8 executes plans");
        let adv: Vec<_> = c
            .rows
            .iter()
            .filter(|r| r[0] == "HPU1" && r[2] == "advanced(auto)")
            .collect();
        assert_eq!(adv.len(), 2, "split band plus CPU cleanup band");
        assert!(adv[0][8].starts_with("split(alpha="));
        assert!(adv[1][8].starts_with("cpu(cores="));
        assert!(adv[0][3].starts_with("advanced(alpha="), "resolved (α, y)");
        // Model-only experiments have no plan.
        assert!(plan_csv("table2", 1 << 10).is_none());
        assert!(plan_csv("fig4", 1 << 10).is_none());
    }

    #[test]
    fn plan_passes_csv_dumps_every_pass_and_never_raises_cost() {
        let c = plan_passes_csv("fig9", 1 << 10).expect("fig9 executes plans");
        assert_eq!(c.header.len(), 13);
        for pass in ["dead-level-prune", "transfer-elision", "segment-fusion"] {
            for stage in ["before", "after"] {
                assert!(
                    c.rows.iter().any(|r| r[3] == pass && r[4] == stage),
                    "missing {pass}/{stage} rows"
                );
            }
        }
        // Per (schedule, pass): cost after ≤ cost before.
        for row in &c.rows {
            if row[4] != "after" {
                continue;
            }
            let before = c
                .rows
                .iter()
                .find(|r| r[2] == row[2] && r[3] == row[3] && r[4] == "before")
                .expect("before row exists");
            let b: f64 = before[12].parse().unwrap();
            let a: f64 = row[12].parse().unwrap();
            assert!(
                a <= b * (1.0 + 1e-9),
                "{} {} raised cost {b} -> {a}",
                row[2],
                row[3]
            );
        }
        // The GPU-only pipeline visibly shrinks: the naive lowering has one
        // segment per device level, the fused output a single band.
        let naive = c
            .rows
            .iter()
            .filter(|r| r[2] == "gpu_only" && r[3] == "dead-level-prune" && r[4] == "before")
            .count();
        let fused = c
            .rows
            .iter()
            .filter(|r| r[2] == "gpu_only" && r[3] == "segment-fusion" && r[4] == "after")
            .count();
        assert!(
            naive > fused,
            "fusion must merge segments ({naive} -> {fused})"
        );
        assert_eq!(fused, 1, "GPU-only fuses to a single device band");
        // Model-only experiments have no pass dump.
        assert!(plan_passes_csv("table2", 1 << 10).is_none());
    }

    #[test]
    fn extension_workloads_rows() {
        let c = extension_workloads(1 << 10);
        assert_eq!(c.rows.len(), 4);
        for row in &c.rows {
            let s: f64 = row[3].parse().unwrap();
            assert!(s > 0.0, "row {row:?}");
        }
    }

    #[test]
    fn csv_rendering() {
        let c = Csv {
            name: "t",
            header: vec!["a", "b"],
            rows: vec![vec!["1".into(), "2".into()]],
        };
        assert_eq!(c.render(), "a,b\n1,2\n");
    }

    #[test]
    fn table1_has_both_platforms() {
        let t = table1();
        assert_eq!(t.rows.len(), 2);
        assert!(t.rows[0][0] == "HPU1");
    }

    #[test]
    fn fig3_curves_are_monotone_where_expected() {
        let c = fig3(1 << 20);
        // y(α) is non-increasing.
        let ys: Vec<f64> = c.rows.iter().map(|r| r[1].parse().unwrap()).collect();
        for w in ys.windows(2) {
            assert!(w[1] <= w[0] + 1e-6);
        }
    }

    #[test]
    fn fig7_small_run_produces_all_rows() {
        let c = fig7(1 << 10, &[0.2, 0.4], &[3, 4]);
        assert_eq!(c.rows.len(), 4);
        for row in &c.rows {
            // At n = 2^10 a hybrid on a γ⁻¹ = 160 device is far slower
            // than sequential (like the paper's small-n regime); only
            // sanity-check the value.
            let speedup: f64 = row[2].parse().unwrap();
            assert!(speedup > 0.001 && speedup < 30.0, "row {row:?}");
        }
    }

    #[test]
    fn fig9_speedup_grows_with_n() {
        let c = fig9(&[1 << 8, 1 << 12]);
        let s0: f64 = c.rows[0][4].parse().unwrap();
        let s1: f64 = c.rows[1][4].parse().unwrap();
        assert!(s1 > s0, "parallel GPU sort scales with n: {s0} -> {s1}");
    }

    #[test]
    fn ablation_schedule_small() {
        let c = ablation_schedule(1 << 10);
        assert_eq!(c.rows.len(), 10);
    }
}
