//! The hpu benchmark: five workloads, from the paper's sort to a faulty
//! 16-node fleet, measured end to end and layer by layer. See README.md.
//!
//! ```text
//! benchmark [--workload W] [--seed N] [--seconds S] [--trace 0|1]
//!           [--trace-dir DIR] [--smoke]
//! benchmark compare PARENT.jsonl CHANGE.jsonl [--spec BENCHMARK.json]
//! ```
//!
//! One workload prints `workload metric value unit` per metric, then its
//! result line: `{"correct", "attempted", "failed", "metrics"}`. Without
//! `--workload` every workload runs in a child process of its own, and a
//! last line sums them up. A failed output check exits with 1.

mod compare;
mod harness;
mod input;
mod jobs;
mod layers;
mod native_bulk;
mod native_stream;
mod paper_sort;
mod report;
mod sim_fleet;
mod sim_node;
mod spans;
mod stats;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use hpu_obs::json::Json;

use crate::harness::{measure, measure_traced, Bench, Opts};
use crate::report::{json_str, Outcome, END_TO_END, PER_LAYER};

pub const WORKLOADS: [&str; 5] = [
    "paper-sort",
    "native-bulk",
    "native-stream",
    "sim-node",
    "sim-fleet",
];

const USAGE: &str = "usage: benchmark [--workload W] [--seed N] [--seconds S] [--trace 0|1] \
                     [--trace-dir DIR] [--smoke]\n       \
                     benchmark compare PARENT.jsonl CHANGE.jsonl [--spec BENCHMARK.json]";

/// The longest run one invocation may ask for.
const MAX_SECONDS: f64 = 3600.0;

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    opts: Opts,
    trace: bool,
    trace_dir: PathBuf,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        opts: Opts {
            seed: 42,
            seconds: 12.0,
            smoke: false,
        },
        trace: false,
        trace_dir: PathBuf::from("benchmark/out"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            a.opts.smoke = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value) => a.workload = Some(value.to_string()),
            "--workload" => return Err(format!("unknown workload {value:?}")),
            "--seed" => {
                a.opts.seed = value
                    .parse()
                    .map_err(|_| format!("--seed {value:?} is not a whole number"))?
            }
            "--seconds" => {
                a.opts.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && (0.0..=MAX_SECONDS).contains(s))
                    .ok_or_else(|| format!("--seconds {value:?} is not in 0..={MAX_SECONDS}"))?
            }
            "--trace" => {
                a.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value:?} is not 0 or 1")),
                }
            }
            "--trace-dir" => a.trace_dir = PathBuf::from(value),
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(a)
}

fn run<B: Bench>(bench: &B, opts: &Opts, trace: Option<&Path>) -> Outcome {
    match trace {
        Some(dir) => measure_traced(bench, opts, dir),
        None => measure(bench, opts),
    }
}

/// Runs workload `name`, traced (writing to the directory) or not, and
/// validates its metrics against the table the mode reports.
fn run_workload(name: &str, opts: &Opts, trace: Option<&Path>) -> Outcome {
    let mut out = match name {
        "paper-sort" => run(&paper_sort::PaperSort, opts, trace),
        "native-bulk" => run(&native_bulk::NativeBulk, opts, trace),
        "native-stream" => run(&native_stream::NativeStream, opts, trace),
        "sim-node" => run(&sim_node::SimNode, opts, trace),
        "sim-fleet" => run(&sim_fleet::SimFleet, opts, trace),
        _ => unreachable!("workload names are checked while parsing"),
    };
    out.validate(table(trace.is_some()));
    out.problems.sort();
    out.problems.dedup();
    out
}

fn table(trace: bool) -> &'static [(&'static str, &'static str)] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

fn single(workload: &str, a: &Args) -> ExitCode {
    let trace = a.trace.then_some(a.trace_dir.as_path());
    let out = run_workload(workload, &a.opts, trace);
    for p in &out.problems {
        eprintln!("{workload}: check failed: {p}");
    }
    let table = table(a.trace);
    print!("{}", out.lines(workload, table));
    println!("{}", out.json(table));
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Every workload in a fresh child process, one after another; the last
/// line sums their result lines, metrics keyed `workload/metric`.
fn all(a: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot find this executable to run the workloads: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (mut correct, mut attempted, mut failed) = (true, 0.0, 0.0);
    let mut metrics = Vec::new();
    for w in WORKLOADS {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w])
            .args(["--seed", &a.opts.seed.to_string()])
            .args(["--seconds", &a.opts.seconds.to_string()])
            .args(["--trace", if a.trace { "1" } else { "0" }])
            .arg("--trace-dir")
            .arg(&a.trace_dir)
            .stderr(Stdio::inherit());
        if a.opts.smoke {
            cmd.arg("--smoke");
        }
        let child = match cmd.output() {
            Ok(child) => child,
            Err(e) => {
                eprintln!("{w}: cannot run: {e}");
                correct = false;
                continue;
            }
        };
        let stdout = String::from_utf8_lossy(&child.stdout);
        print!("{stdout}");
        let result = stdout.lines().last().and_then(|l| Json::parse(l).ok());
        correct &= child.status.success()
            && result
                .as_ref()
                .and_then(|r| r.get("correct"))
                .and_then(Json::as_bool)
                == Some(true);
        let Some(result) = result else { continue };
        let count = |k| result.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        attempted += count("attempted");
        failed += count("failed");
        if let Some(Json::Obj(fields)) = result.get("metrics") {
            for (name, m) in fields {
                if let (Some(v), Some(u)) = (
                    m.get("value").and_then(Json::as_f64),
                    m.get("unit").and_then(Json::as_str),
                ) {
                    metrics.push(format!(
                        "{}:{{\"value\":{v},\"unit\":{}}}",
                        json_str(&format!("{w}/{name}")),
                        json_str(u)
                    ));
                }
            }
        }
    }
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        metrics.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn compare_main(args: &[String]) -> ExitCode {
    let (files, spec) = match args {
        [a, b] => ([a, b], "BENCHMARK.json"),
        [a, b, flag, spec] if flag == "--spec" => ([a, b], spec.as_str()),
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let loaded = (|| {
        let rules = compare::rules(&read(spec)?)?;
        let parent = compare::parse_runs(&read(files[0])?)?;
        let change = compare::parse_runs(&read(files[1])?)?;
        Ok::<_, String>((rules, parent, change))
    })();
    match loaded {
        Ok((rules, parent, change)) => {
            let (table, bad) = compare::compare(&rules, &parent, &change);
            print!("{table}");
            if bad {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => {
            eprintln!("compare: {e}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return compare_main(&args[1..]);
    }
    match parse_args(&args) {
        Ok(a) => match &a.workload {
            Some(w) => single(w, &a),
            None => all(&a),
        },
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` pairs of one metric list of `BENCHMARK.json`.
    fn listed(doc: &Json, key: &str) -> Vec<(String, String)> {
        let field = |m: &Json, k| {
            m.get(k)
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string()
        };
        let mut v: Vec<(String, String)> = doc
            .get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json lists no {key}"))
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit")))
            .collect();
        v.sort();
        v
    }

    fn owned(table: &[(&str, &str)]) -> Vec<(String, String)> {
        let mut v: Vec<(String, String)> = table
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        v.sort();
        v
    }

    /// Every metric in `BENCHMARK.json` is printed, with its unit, for
    /// every listed workload: end-to-end metrics by untraced runs,
    /// per-layer metrics by traced runs. Names and units only, not values.
    #[test]
    fn every_listed_metric_is_printed_with_its_unit_for_every_workload() {
        let spec =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits at the repository root");
        let doc = Json::parse(&spec).expect("BENCHMARK.json parses");
        assert_eq!(listed(&doc, "end_to_end"), owned(END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), owned(PER_LAYER));
        let mut workloads: Vec<String> = listed(&doc, "workloads")
            .into_iter()
            .map(|(name, _)| name)
            .collect();
        workloads.sort();
        let mut ours = WORKLOADS.map(String::from).to_vec();
        ours.sort();
        assert_eq!(workloads, ours);

        let dir = std::env::temp_dir().join(format!("hpu-benchmark-test-{}", std::process::id()));
        let opts = Opts {
            seed: 7,
            seconds: 0.0,
            smoke: true,
        };
        for w in WORKLOADS {
            for trace in [false, true] {
                let out = run_workload(w, &opts, trace.then_some(dir.as_path()));
                assert!(out.correct(), "{w} (trace {trace}): {:?}", out.problems);
                assert!(out.attempted >= 1 && out.failed == 0, "{w}: {out:?}");
                let lines = out.lines(w, table(trace));
                for (name, unit) in table(trace) {
                    assert!(
                        lines.lines().any(|l| l.starts_with(&format!("{w} {name} "))
                            && l.ends_with(&format!(" {unit}"))),
                        "{w} does not print {name} in {unit}:\n{lines}"
                    );
                }
            }
            for file in ["trace", "layers"] {
                let path = dir.join(format!("{w}.{file}.json"));
                let text = std::fs::read_to_string(&path).expect("the traced run wrote its files");
                assert!(Json::parse(&text).is_ok(), "{} is not JSON", path.display());
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn arguments_are_checked_where_they_enter() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&args(
            "--workload sim-node --seed 9 --seconds 2.5 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("sim-node"));
        assert_eq!((a.opts.seed, a.opts.seconds, a.trace), (9, 2.5, true));
        for bad in [
            "--workload nope",
            "--seed -1",
            "--seconds nan",
            "--seconds 1e9",
            "--trace 2",
            "--seed",
            "--frobnicate 1",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad} was accepted");
        }
    }
}
