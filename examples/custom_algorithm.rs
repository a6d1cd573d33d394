//! Bringing your own algorithm to the framework — the "generic
//! translation" in practice (paper §4).
//!
//! Two user-defined algorithms:
//!
//! 1. a min/max range reduction in the regular in-place form, which runs
//!    under every [`ScheduleSpec`] (CPU-parallel, GPU-only, basic,
//!    advanced) for free;
//! 2. a word-count over text chunks in the general tree form
//!    (Algorithms 1 & 2), executed recursively, breadth-first and on real
//!    threads.
//!
//! ```text
//! cargo run --release --example custom_algorithm
//! ```

use hpu::prelude::*;
use hpu_core::tree::{run_breadth_first, run_recursive, run_threaded};
use hpu_model::CostFn;

/// Element carrying a (min, max) summary of its chunk in slot 0.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct MinMax {
    min: i64,
    max: i64,
}

/// In-place D&C min/max reduction: `T(n) = 2T(n/2) + Θ(1)`.
struct MinMaxReduce;

impl BfAlgorithm<MinMax> for MinMaxReduce {
    fn name(&self) -> &'static str {
        "minmax"
    }
    fn base_case(&self, _chunk: &mut [MinMax], charge: &mut dyn Charge) {
        charge.ops(1);
    }
    fn combine(&self, src: &[MinMax], dst: &mut [MinMax], charge: &mut dyn Charge) {
        let half = src.len() / 2;
        dst[0] = MinMax {
            min: src[0].min.min(src[half].min),
            max: src[0].max.max(src[half].max),
        };
        charge.ops(2);
        charge.mem(3);
    }
    fn recurrence(&self) -> Recurrence {
        Recurrence::new(2, 2, CostFn::Constant(5.0), 1.0).unwrap()
    }
}

/// Tree-form word count: a subproblem is a slice of lines.
struct WordCount<'a> {
    lines: &'a [&'a str],
}

impl DivideConquer for WordCount<'_> {
    type Param = (usize, usize);
    type Output = usize;
    fn is_base(&self, &(lo, hi): &(usize, usize)) -> bool {
        hi - lo <= 1
    }
    fn base_case(&self, (lo, hi): (usize, usize), charge: &mut dyn Charge) -> usize {
        let count = self.lines[lo..hi]
            .iter()
            .map(|l| l.split_whitespace().count())
            .sum();
        charge.ops(count as u64 + 1);
        count
    }
    fn divide(&self, &(lo, hi): &(usize, usize), charge: &mut dyn Charge) -> Vec<(usize, usize)> {
        charge.ops(1);
        let mid = lo + (hi - lo) / 2;
        vec![(lo, mid), (mid, hi)]
    }
    fn combine(&self, _p: (usize, usize), children: Vec<usize>, charge: &mut dyn Charge) -> usize {
        charge.ops(1);
        children.iter().sum()
    }
}

fn main() {
    // --- 1. The regular in-place form gets hybrid scheduling for free ---
    let n = 1 << 12;
    let values: Vec<MinMax> = (0..n as i64)
        .map(|i| {
            let v = (i * 37 % 1001) - 500;
            MinMax { min: v, max: v }
        })
        .collect();

    println!("min/max reduction over {n} values, every schedule:");
    for (name, spec) in [
        ("sequential", ScheduleSpec::Sequential),
        ("cpu-parallel", ScheduleSpec::CpuParallel),
        ("gpu-only", ScheduleSpec::GpuOnly),
        ("basic", ScheduleSpec::Basic { crossover: None }),
        (
            "advanced",
            ScheduleSpec::Advanced {
                alpha: 0.2,
                transfer_level: 5,
            },
        ),
    ] {
        let mut data = values.clone();
        let mut hpu = SimHpu::new(MachineConfig::hpu2_sim());
        let report = run_sim(&MinMaxReduce, &mut data, &mut hpu, &spec).unwrap();
        println!(
            "  {:<12} -> min {:>4}, max {:>4}, virtual time {:>10.0}",
            name, data[0].min, data[0].max, report.virtual_time
        );
    }

    // --- 2. The tree form handles irregular problems -------------------
    let text = [
        "the standard approach to a divide and conquer algorithm",
        "involves dividing the problem into smaller subproblems",
        "recursively solving these subproblems",
        "and combining the solutions of the subproblems into a final solution",
        "a careful task division must be done",
        "so that each portion of the algorithm can run",
        "on the platform that suits best its characteristics",
    ];
    let lines: Vec<&str> = text.to_vec();
    let algo = WordCount { lines: &lines };
    let mut charge = hpu_core::charge::CountingCharge::default();
    let recursive = run_recursive(&algo, (0, lines.len()), &mut charge);
    let bf = run_breadth_first(&algo, (0, lines.len()), &mut hpu_core::charge::NullCharge);
    let pool = LevelPool::new(2);
    let threaded = run_threaded(&algo, (0, lines.len()), &pool);

    println!("\nword count over {} lines:", lines.len());
    println!("  recursive (Algorithm 1):      {recursive}");
    println!("  breadth-first (Algorithm 2):  {bf}");
    println!("  threaded (2 workers):         {threaded}");
    println!("  ops charged by the recursion: {}", charge.ops);
    assert_eq!(recursive, bf);
    assert_eq!(recursive, threaded);
}
