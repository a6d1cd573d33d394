//! Plan-equivalence suite: pins the full `RunReport` of every strategy ×
//! breadth-first workload, and the fig7/fig8/fig9 series, to golden values
//! captured from the pre-plan-IR executors. The plan compiler + interpreter
//! must reproduce these byte for byte — placement, transfer and per-level
//! accounting included.
//!
//! Regenerate with `UPDATE_GOLDEN=1 cargo test -p hpu-bench` after an
//! *intentional* behavior change.

use std::fmt::Write as _;
use std::path::PathBuf;

use hpu_algos::closest_pair::ClosestPair;
use hpu_algos::karatsuba::Karatsuba;
use hpu_algos::matmul::DcMatmul;
use hpu_algos::max_subarray::{to_segments, MaxSubarray};
use hpu_algos::scan::DcScan;
use hpu_algos::sum::DcSum;
use hpu_algos::MergeSort;
use hpu_bench::experiments as exp;
use hpu_bench::workload::uniform_input;
use hpu_core::exec::run_sim;
use hpu_core::{BfAlgorithm, Element, RunReport};
use hpu_machine::{MachineConfig, SimHpu, SimMachineParams};
use hpu_model::ScheduleSpec;

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// Compares `got` against the committed fixture, or rewrites the fixture
/// when `UPDATE_GOLDEN` is set.
fn assert_matches_fixture(name: &str, got: &str) {
    let path = fixture_path(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing fixture {}: {e}", path.display()));
    assert_eq!(
        got, want,
        "output diverged from golden fixture {name}; run with UPDATE_GOLDEN=1 only if the \
         change is intentional"
    );
}

fn f(v: f64) -> String {
    format!("{v:.6}")
}

/// Serializes everything in a report the refactor must preserve. The
/// per-level `segment` attribution (added with the plan IR) is deliberately
/// not part of the golden surface.
fn dump_report(out: &mut String, rep: &RunReport) {
    let _ = writeln!(out, "label={}", rep.label);
    let _ = writeln!(out, "virtual_time={}", f(rep.virtual_time));
    let _ = writeln!(
        out,
        "transfers={} words={} coalesced={} uncoalesced={}",
        rep.transfers, rep.words, rep.coalesced, rep.uncoalesced
    );
    let _ = writeln!(
        out,
        "cpu_busy={} gpu_busy={}",
        f(rep.cpu_busy),
        f(rep.gpu_busy)
    );
    match rep.concurrent {
        Some((c, g)) => {
            let _ = writeln!(out, "concurrent=({},{})", f(c), f(g));
        }
        None => {
            let _ = writeln!(out, "concurrent=none");
        }
    }
    for l in &rep.levels {
        let _ = writeln!(
            out,
            "level {} chunk={} tasks={} ops={} mem={} co={} unco={} words={} cpu={} gpu={} \
             bus={} time={}",
            l.level,
            l.chunk,
            l.tasks,
            l.ops,
            l.mem,
            l.coalesced,
            l.uncoalesced,
            l.words,
            f(l.cpu_time),
            f(l.gpu_time),
            f(l.bus_time),
            f(l.time),
        );
    }
    for d in &rep.drift {
        let _ = writeln!(
            out,
            "drift {} predicted={} simulated={}",
            d.level,
            f(d.predicted),
            f(d.simulated)
        );
    }
}

fn strategies() -> Vec<(&'static str, ScheduleSpec)> {
    vec![
        ("sequential", ScheduleSpec::Sequential),
        ("cpu_only", ScheduleSpec::CpuParallel),
        ("gpu_only", ScheduleSpec::GpuOnly),
        ("basic_auto", ScheduleSpec::Basic { crossover: None }),
        ("basic_2", ScheduleSpec::Basic { crossover: Some(2) }),
        (
            "advanced_a30_y3",
            ScheduleSpec::Advanced {
                alpha: 0.3,
                transfer_level: 3,
            },
        ),
        (
            "advanced_a50_y1",
            ScheduleSpec::Advanced {
                alpha: 0.5,
                transfer_level: 1,
            },
        ),
    ]
}

fn run_matrix_row<T: Element, A: BfAlgorithm<T>>(
    out: &mut String,
    platform: &str,
    cfg: &MachineConfig,
    algo: &A,
    make: impl Fn() -> Vec<T>,
) {
    for (label, strategy) in strategies() {
        let mut data = make();
        let n = data.len();
        let mut hpu = SimHpu::new(cfg.clone());
        let rep = run_sim(algo, &mut data, &mut hpu, &strategy).expect("golden run succeeds");
        let _ = writeln!(out, "== {platform} {} n={n} {label}", algo.name());
        dump_report(out, &rep);
    }
}

#[test]
fn run_reports_match_seed_golden() {
    let mut out = String::new();
    let hpu1 = MachineConfig::hpu1_sim();
    let hpu2 = MachineConfig::hpu2_sim();
    run_matrix_row(&mut out, "hpu1", &hpu1, &MergeSort::new(), || {
        uniform_input(1 << 12, 42)
    });
    run_matrix_row(&mut out, "hpu2", &hpu2, &MergeSort::new(), || {
        uniform_input(1 << 12, 42)
    });
    run_matrix_row(&mut out, "hpu1", &hpu1, &DcSum, || {
        (0..1u64 << 12).collect::<Vec<u64>>()
    });
    run_matrix_row(&mut out, "hpu1", &hpu1, &DcScan, || {
        (0..1u64 << 12).map(|i| i % 97).collect::<Vec<u64>>()
    });
    // The §6.3 ablation pair's other half: the generic (uncoalesced) GPU
    // translation of mergesort executes different kernels, so its reports
    // are pinned separately from the coalesced default above.
    run_matrix_row(&mut out, "hpu1", &hpu1, &MergeSort::generic(), || {
        uniform_input(1 << 12, 42)
    });
    run_matrix_row(&mut out, "hpu1", &hpu1, &MaxSubarray, || {
        let data: Vec<i64> = (0..1i64 << 12).map(|i| (i * 37 % 201) - 100).collect();
        to_segments(&data)
    });
    assert_matches_fixture("run_reports.txt", &out);
}

/// The staged compiler across **all eight algorithms** in `hpu-algos`
/// (the coalesced and generic mergesort variants share a recurrence, so
/// their plans coincide — their executions are pinned separately above;
/// the tree-form algorithms compile plans through the same pipeline even
/// though the breadth-first executors never run them). For every
/// algorithm × strategy the naive lowering and each pass stage are pinned
/// byte-exactly, and every pass must satisfy its cost-monotone,
/// semantics-preserving invariant against the stage before it.
#[test]
fn pass_pipeline_plans_match_seed_golden_for_every_algorithm() {
    use hpu_model::{
        check_invariant, compile_unoptimized, default_passes, plan_cost, LevelProfile,
        MachineParams, Placement, Plan, Recurrence,
    };

    fn dump_plan(out: &mut String, plan: &Plan, cost: f64) {
        let _ = writeln!(out, " segments={} cost={}", plan.segments.len(), f(cost));
        for seg in &plan.segments {
            let placement = match &seg.placement {
                Placement::Cpu { cores } => format!("cpu({cores})"),
                Placement::Gpu => "gpu".to_string(),
                Placement::Split {
                    alpha,
                    cpu_tasks,
                    tasks,
                } => format!("split({alpha:.6};{cpu_tasks}/{tasks})"),
            };
            let transfers: Vec<String> = seg
                .transfers
                .iter()
                .map(|t| format!("{:?}@{}x{}", t.direction, t.level, t.words))
                .collect();
            let _ = writeln!(
                out,
                "  seg [{}..{}] {} transfers=[{}]",
                seg.first_level,
                seg.last_level,
                placement,
                transfers.join(" ")
            );
        }
    }

    let algos: Vec<(&str, Recurrence)> = vec![
        (
            "mergesort",
            <MergeSort as BfAlgorithm<u32>>::recurrence(&MergeSort::new()),
        ),
        (
            "mergesort_generic",
            <MergeSort as BfAlgorithm<u32>>::recurrence(&MergeSort::generic()),
        ),
        ("sum", <DcSum as BfAlgorithm<u64>>::recurrence(&DcSum)),
        ("scan", <DcScan as BfAlgorithm<u64>>::recurrence(&DcScan)),
        (
            "max_subarray",
            <MaxSubarray as BfAlgorithm<hpu_algos::max_subarray::Segment>>::recurrence(
                &MaxSubarray,
            ),
        ),
        ("karatsuba", Karatsuba::recurrence()),
        ("matmul", DcMatmul::recurrence()),
        ("closest_pair", ClosestPair::recurrence()),
    ];
    let specs: Vec<(&str, ScheduleSpec)> = vec![
        ("sequential", ScheduleSpec::Sequential),
        ("cpu_parallel", ScheduleSpec::CpuParallel),
        ("gpu_only", ScheduleSpec::GpuOnly),
        ("basic_auto", ScheduleSpec::Basic { crossover: None }),
        ("basic_2", ScheduleSpec::Basic { crossover: Some(2) }),
        (
            "advanced_a30_y3",
            ScheduleSpec::Advanced {
                alpha: 0.3,
                transfer_level: 3,
            },
        ),
        ("advanced_auto", ScheduleSpec::AdvancedAuto),
    ];

    let params = MachineParams::from_config(&MachineConfig::hpu1_sim());
    let n = 1u64 << 10;
    let mut out = String::new();
    for (algo, rec) in &algos {
        let levels = rec.num_levels(n);
        let profile = LevelProfile::new(&params, rec, n);
        for (label, spec) in &specs {
            let _ = write!(out, "== {algo} n={n} {label}");
            let mut plan = match compile_unoptimized(spec, &params, rec, n, levels) {
                Ok(p) => p,
                Err(e) => {
                    let _ = writeln!(out, " error={e}");
                    continue;
                }
            };
            let cost = plan_cost(&profile, &plan).expect("naive plans price").total;
            let _ = write!(out, "\nunoptimized");
            dump_plan(&mut out, &plan, cost);
            for pass in default_passes() {
                let before = plan.clone();
                plan = pass.run(plan);
                check_invariant(&profile, &before, &plan).unwrap_or_else(|e| {
                    panic!(
                        "{algo}/{label}: pass {} broke its invariant: {e}",
                        pass.name()
                    )
                });
                let cost = plan_cost(&profile, &plan)
                    .expect("optimized plans price")
                    .total;
                let _ = write!(out, "pass {}", pass.name());
                dump_plan(&mut out, &plan, cost);
            }
        }
    }
    assert_matches_fixture("pass_plans.txt", &out);
}

#[test]
fn fig7_series_match_seed_golden() {
    let csv = exp::fig7(1 << 12, &[0.1, 0.3, 0.5], &[2, 4]);
    assert_matches_fixture("fig7.csv", &csv.render());
}

#[test]
fn fig8_series_match_seed_golden() {
    let csv = exp::fig8(&[1 << 10, 1 << 12]);
    assert_matches_fixture("fig8.csv", &csv.render());
}

#[test]
fn fig9_series_match_seed_golden() {
    let csv = exp::fig9(&[1 << 8, 1 << 10]);
    assert_matches_fixture("fig9.csv", &csv.render());
}
