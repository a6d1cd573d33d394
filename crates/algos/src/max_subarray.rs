//! Maximum-subarray sum as a divide-and-conquer algorithm.
//!
//! The classic `Θ(1)`-combine formulation: a solved segment is summarized
//! by four values (total, best, best prefix, best suffix); two summaries
//! merge in constant time. Demonstrates the framework on a *non-array*
//! output carried inside the element type.

use hpu_core::charge::Charge;
use hpu_core::BfAlgorithm;
use hpu_model::Recurrence;

/// Summary of a segment for maximum-subarray merging.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Segment {
    /// Sum of the whole segment.
    pub total: i64,
    /// Best subarray sum within the segment (empty subarray allowed: ≥ 0).
    pub best: i64,
    /// Best prefix sum.
    pub prefix: i64,
    /// Best suffix sum.
    pub suffix: i64,
}

impl Segment {
    /// Summary of a single value.
    pub fn leaf(v: i64) -> Self {
        let clamped = v.max(0);
        Segment {
            total: v,
            best: clamped,
            prefix: clamped,
            suffix: clamped,
        }
    }

    /// Merges two adjacent segment summaries.
    pub fn merge(a: Segment, b: Segment) -> Segment {
        Segment {
            total: a.total + b.total,
            best: a.best.max(b.best).max(a.suffix + b.prefix),
            prefix: a.prefix.max(a.total + b.prefix),
            suffix: b.suffix.max(b.total + a.suffix),
        }
    }
}

/// Sequential reference (Kadane's algorithm; empty subarray allowed).
pub fn max_subarray_reference(data: &[i64]) -> i64 {
    let mut best = 0i64;
    let mut cur = 0i64;
    for &x in data {
        cur = (cur + x).max(0);
        best = best.max(cur);
    }
    best
}

/// Converts raw values into leaf segments for the breadth-first form.
pub fn to_segments(data: &[i64]) -> Vec<Segment> {
    data.iter().map(|&v| Segment::leaf(v)).collect()
}

/// Breadth-first maximum subarray. After a run, `data[0].best` holds the
/// answer.
#[derive(Debug, Clone, Copy, Default)]
pub struct MaxSubarray;

impl BfAlgorithm<Segment> for MaxSubarray {
    fn name(&self) -> &'static str {
        "max-subarray"
    }

    fn base_case(&self, _chunk: &mut [Segment], charge: &mut dyn Charge) {
        charge.ops(1);
    }

    fn combine(&self, src: &[Segment], dst: &mut [Segment], charge: &mut dyn Charge) {
        let half = src.len() / 2;
        dst[0] = Segment::merge(src[0], src[half]);
        charge.ops(8);
        charge.mem(3);
    }

    fn recurrence(&self) -> Recurrence {
        Recurrence::new(2, 2, hpu_model::CostFn::Constant(11.0), 1.0).expect("valid recurrence")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpu_core::exec::run_sim;
    use hpu_machine::{MachineConfig, SimHpu};
    use hpu_model::ScheduleSpec;

    fn input(n: usize) -> Vec<i64> {
        (0..n as i64).map(|i| ((i * 37 + 11) % 23) - 11).collect()
    }

    #[test]
    fn reference_matches_bruteforce_on_small_inputs() {
        for n in 0..=12usize {
            let d = input(n);
            let mut brute = 0i64;
            for i in 0..=n {
                for j in i..=n {
                    brute = brute.max(d[i..j].iter().sum::<i64>());
                }
            }
            assert_eq!(max_subarray_reference(&d), brute, "n = {n}");
        }
    }

    #[test]
    fn segment_merge_matches_reference() {
        let d = input(64);
        let mut segs = to_segments(&d);
        // Fold pairwise like the BF execution would.
        let mut len = 64;
        while len > 1 {
            for k in 0..len / 2 {
                segs[k] = Segment::merge(segs[2 * k], segs[2 * k + 1]);
            }
            len /= 2;
        }
        assert_eq!(segs[0].best, max_subarray_reference(&d));
    }

    #[test]
    fn all_strategies_agree() {
        let n = 1 << 10;
        let expect = max_subarray_reference(&input(n));
        for strategy in [
            ScheduleSpec::Sequential,
            ScheduleSpec::CpuParallel,
            ScheduleSpec::GpuOnly,
            ScheduleSpec::Advanced {
                alpha: 0.25,
                transfer_level: 4,
            },
        ] {
            let mut segs = to_segments(&input(n));
            let mut hpu = SimHpu::new(MachineConfig::tiny());
            run_sim(&MaxSubarray, &mut segs, &mut hpu, &strategy).unwrap();
            assert_eq!(segs[0].best, expect, "strategy {strategy:?}");
        }
    }

    #[test]
    fn all_negative_input_gives_zero() {
        let mut segs = to_segments(&vec![-5i64; 128]);
        let mut hpu = SimHpu::new(MachineConfig::tiny());
        run_sim(
            &MaxSubarray,
            &mut segs,
            &mut hpu,
            &ScheduleSpec::CpuParallel,
        )
        .unwrap();
        assert_eq!(segs[0].best, 0);
    }
}
