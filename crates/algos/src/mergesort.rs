//! Mergesort — the paper's case study (§6).
//!
//! * [`sort_recursive`] — the classic recursive implementation
//!   (Algorithm 6), the paper's 1-core baseline.
//! * [`MergeSort`] — the breadth-first framework form (Algorithm 7) with
//!   two GPU paths:
//!   - *generic* ([`MergeSort::generic`]): the untouched Algorithm-3
//!     translation — every work-item runs the CPU merge, memory traffic is
//!     uncoalesced;
//!   - *coalesced* ([`MergeSort::new`], default): the §6.3 optimization.
//!     The device keeps runs in a **column-major** layout (element `j` of
//!     run `i` of `R` runs lives at `j·R + i`), so adjacent work-items
//!     touch adjacent addresses at every merge step. Work-item `i` merges
//!     runs `i` and `i + R/2`, writing column `i` of the `R/2`-column
//!     layout — all streams have inter-item stride 1 and coalesce. A
//!     single un-permute kernel restores the contiguous layout before
//!     download.
//! * [`gpu_parallel_mergesort`] — the fully parallel GPU sort of Figure 9:
//!   every level merges run pairs with one work-item *per element*, each
//!   finding its output position by binary search in the sibling run.

use hpu_core::charge::{Charge, GpuCharge};
use hpu_core::{BfAlgorithm, CoreError, Element, LevelInfo};
use hpu_machine::{DeviceBuffer, LaunchStats, MachineError, SimGpu, SimHpu};
use hpu_model::{CostFn, Recurrence};

/// Elements sortable by the HPU mergesort.
pub trait SortKey: Element + Ord {}
impl<T: Element + Ord> SortKey for T {}

/// Classic recursive mergesort (paper Algorithm 6). Sorts in place using a
/// scratch buffer; returns the number of comparisons performed.
pub fn sort_recursive<T: SortKey>(data: &mut [T]) -> u64 {
    let mut scratch = data.to_vec();
    recurse(data, &mut scratch)
}

fn recurse<T: SortKey>(data: &mut [T], scratch: &mut [T]) -> u64 {
    let n = data.len();
    if n <= 1 {
        return 0;
    }
    let mid = n / 2;
    let mut compares = recurse(&mut data[..mid], &mut scratch[..mid]);
    compares += recurse(&mut data[mid..], &mut scratch[mid..]);
    scratch[..n].copy_from_slice(data);
    let (a, b) = scratch[..n].split_at(mid);
    compares + merge_into(a, b, data)
}

/// Merges sorted `a` and `b` into `dst` (`dst.len() == a.len() + b.len()`),
/// returning the number of comparisons.
///
/// One comparison per output element while both runs are non-empty, ties
/// taken from `a` (stable); the loop selects the smaller head without a
/// data-dependent branch, and the rest of the surviving run is copied in
/// one block.
pub fn merge_into<T: SortKey>(a: &[T], b: &[T], dst: &mut [T]) -> u64 {
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        let take_a = x <= y;
        dst[i + j] = if take_a { x } else { y };
        i += usize::from(take_a);
        j += usize::from(!take_a);
    }
    let compares = (i + j) as u64;
    let (rest_a, rest_b) = (&a[i..], &b[j..]);
    dst[i + j..i + j + rest_a.len()].copy_from_slice(rest_a);
    dst[i + j + rest_a.len()..].copy_from_slice(rest_b);
    compares
}

/// Breadth-first mergesort over the HPU framework (Algorithm 7).
#[derive(Debug, Clone)]
pub struct MergeSort {
    coalesced: bool,
    base_chunk: usize,
}

impl Default for MergeSort {
    fn default() -> Self {
        MergeSort::new()
    }
}

impl MergeSort {
    /// Mergesort with the §6.3 coalescing optimization on the GPU path.
    pub fn new() -> Self {
        MergeSort {
            coalesced: true,
            base_chunk: 1,
        }
    }

    /// Mergesort with the untouched generic GPU translation (uncoalesced) —
    /// the ablation baseline for the §6.3 optimization.
    pub fn generic() -> Self {
        MergeSort {
            coalesced: false,
            base_chunk: 1,
        }
    }

    /// Stops the recursion at chunks of `k` elements and sorts them with a
    /// sequential insertion sort — the paper's §7 "switch to non-recursive
    /// sequential versions at the lowest levels" extension. `k` must be a
    /// power of two.
    pub fn with_leaf_cutoff(mut self, k: usize) -> Self {
        assert!(k.is_power_of_two(), "cutoff must be a power of two");
        self.base_chunk = k;
        self
    }

    /// Whether the coalesced GPU path is enabled.
    pub fn is_coalesced(&self) -> bool {
        self.coalesced
    }
}

/// In-place insertion sort returning (comparisons, moves) — the cutoff
/// base case.
fn insertion_sort<T: SortKey>(chunk: &mut [T]) -> (u64, u64) {
    let mut compares = 0u64;
    let mut moves = 0u64;
    for i in 1..chunk.len() {
        let v = chunk[i];
        let mut j = i;
        while j > 0 {
            compares += 1;
            if chunk[j - 1] <= v {
                break;
            }
            chunk[j] = chunk[j - 1];
            moves += 1;
            j -= 1;
        }
        chunk[j] = v;
        moves += 1;
    }
    (compares, moves)
}

impl<T: SortKey> BfAlgorithm<T> for MergeSort {
    fn name(&self) -> &'static str {
        "mergesort"
    }

    fn base_chunk(&self) -> usize {
        self.base_chunk
    }

    fn base_case(&self, chunk: &mut [T], charge: &mut dyn Charge) {
        if chunk.len() <= 1 {
            // A single element is sorted; Θ(1) leaf work.
            charge.ops(1);
            return;
        }
        let (compares, moves) = insertion_sort(chunk);
        charge.ops(compares + 1);
        charge.mem(2 * moves);
    }

    fn combine(&self, src: &[T], dst: &mut [T], charge: &mut dyn Charge) {
        let half = src.len() / 2;
        let (a, b) = src.split_at(half);
        let compares = merge_into(a, b, dst);
        charge.ops(compares);
        // One read of every input element, one write of every output.
        charge.mem(2 * dst.len() as u64);
    }

    fn recurrence(&self) -> Recurrence {
        // combine charges ≈ 1 compare + 2 memory ops per element → f(n)=3n.
        Recurrence::new(2, 2, CostFn::Linear(3.0), 1.0).expect("valid recurrence")
    }

    fn gpu_level(
        &self,
        gpu: &mut SimGpu,
        src: &mut DeviceBuffer<T>,
        dst: &mut DeviceBuffer<T>,
        level: &LevelInfo,
    ) -> Result<LaunchStats, MachineError> {
        if !self.coalesced {
            // Generic Algorithm-3 translation (default path).
            let chunk = level.chunk;
            return gpu.launch2(
                &format!("mergesort generic combine (chunk {chunk})"),
                level.tasks,
                src,
                dst,
                |id, ctx, s, d| {
                    let lo = id * chunk;
                    self.combine(
                        &s[lo..lo + chunk],
                        &mut d[lo..lo + chunk],
                        &mut GpuCharge(ctx),
                    );
                },
            );
        }
        let out_cols = level.tasks;
        let in_cols = 2 * out_cols;
        let run = level.chunk / 2;
        if self.base_chunk > 1 && level.chunk == 2 * self.base_chunk {
            // First combine after a multi-element cutoff: the base level
            // left *row-major* sorted runs. Merge adjacent runs, writing
            // the column-major layout the later levels rely on. The reads
            // are strided across work-items (uncoalesced) — this is the
            // §6.3 permutation cost surfacing at the cutoff boundary.
            return gpu.launch2(
                &format!("mergesort row→column combine (chunk {})", level.chunk),
                out_cols,
                src,
                dst,
                move |id, ctx, s, d| {
                    let a0 = 2 * id * run;
                    let b0 = a0 + run;
                    let (mut i, mut j) = (0usize, 0usize);
                    let mut compares = 0u64;
                    for k in 0..level.chunk {
                        let take_a = if i < run && j < run {
                            compares += 1;
                            s[a0 + i] <= s[b0 + j]
                        } else {
                            i < run
                        };
                        let v = if take_a {
                            let v = s[a0 + i];
                            i += 1;
                            v
                        } else {
                            let v = s[b0 + j];
                            j += 1;
                            v
                        };
                        d[k * out_cols + id] = v;
                    }
                    ctx.charge_ops(compares);
                    ctx.read(0, a0, run, 1);
                    ctx.read(0, b0, run, 1);
                    ctx.write(1, id, level.chunk, out_cols);
                },
            );
        }
        // Coalesced path: `src` holds 2·tasks column-major runs of length
        // chunk/2; work-item i merges columns i and i+tasks into column i
        // of the tasks-column layout in `dst`.
        gpu.launch2(
            &format!("mergesort coalesced combine (chunk {})", level.chunk),
            out_cols,
            src,
            dst,
            move |id, ctx, s, d| {
                let (mut i, mut j) = (0usize, 0usize);
                let mut compares = 0u64;
                for k in 0..level.chunk {
                    let take_a = if i < run && j < run {
                        compares += 1;
                        s[i * in_cols + id] <= s[j * in_cols + id + out_cols]
                    } else {
                        i < run
                    };
                    let v = if take_a {
                        let v = s[i * in_cols + id];
                        i += 1;
                        v
                    } else {
                        let v = s[j * in_cols + id + out_cols];
                        j += 1;
                        v
                    };
                    d[k * out_cols + id] = v;
                }
                ctx.charge_ops(compares);
                // Columns i, i+out_cols read; column i written — all with
                // inter-item base stride 1: coalesced.
                ctx.read(0, id, run, in_cols);
                ctx.read(0, id + out_cols, run, in_cols);
                ctx.write(1, id, level.chunk, out_cols);
            },
        )
    }

    fn gpu_finalize(
        &self,
        gpu: &mut SimGpu,
        cur: &mut DeviceBuffer<T>,
        other: &mut DeviceBuffer<T>,
        level: &LevelInfo,
    ) -> Result<Option<LaunchStats>, MachineError> {
        if !self.coalesced || level.tasks <= 1 || level.chunk <= self.base_chunk {
            // Generic layout is already contiguous; a single column is
            // trivially contiguous too; and if no combine level ran the
            // buffer still holds row-major base runs.
            return Ok(None);
        }
        // Un-permute: column-major (tasks columns of length chunk) back to
        // contiguous runs. One work-item per run keeps writes sequential;
        // reads are strided (uncoalesced) — the one-time cost of the
        // layout, analogous to the paper permuting back before the CPU
        // takes over (§6.3).
        let cols = level.tasks;
        let chunk = level.chunk;
        let st = gpu.launch2(
            "mergesort un-permute",
            cols,
            cur,
            other,
            move |id, ctx, s, d| {
                for j in 0..chunk {
                    d[id * chunk + j] = s[j * cols + id];
                }
                ctx.scatter_read(0, chunk);
                ctx.write(1, id * chunk, chunk, 1);
            },
        )?;
        Ok(Some(st))
    }
}

/// Report of a [`gpu_parallel_mergesort`] run (the Figure 9 comparison).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuParallelReport {
    /// Virtual time of the on-device sort only.
    pub sort_time: f64,
    /// Virtual time including the two transfers.
    pub total_time: f64,
    /// Comparisons performed (on-device binary searches).
    pub compares: u64,
}

/// Fully parallel GPU mergesort (paper Figure 9): breadth-first levels, one
/// work-item per *element*; each element binary-searches its rank in the
/// sibling run, making every level `Θ(log n)` parallel time.
pub fn gpu_parallel_mergesort<T: SortKey>(
    hpu: &mut SimHpu,
    data: &mut [T],
) -> Result<GpuParallelReport, CoreError> {
    let n = data.len();
    if n == 0 {
        return Err(CoreError::EmptyInput);
    }
    if !n.is_power_of_two() {
        return Err(CoreError::InvalidSize {
            len: n,
            branching: 2,
            base_chunk: 1,
        });
    }
    hpu.sync();
    let t_start = hpu.elapsed();
    let mut buf_a = hpu.upload(data)?;
    let mut buf_b = match hpu.gpu.alloc::<T>(n) {
        Ok(b) => b,
        Err(e) => {
            hpu.gpu.free(buf_a);
            return Err(e.into());
        }
    };
    let sort_start = hpu.gpu.clock();
    let mut compares = 0u64;

    let mut run = 1usize;
    let mut in_a = true;
    while run < n {
        let pair = 2 * run;
        let counter = std::cell::Cell::new(0u64);
        let kernel = |id: usize, ctx: &mut hpu_machine::GpuCtx, s: &mut [T], d: &mut [T]| {
            let block = id / pair; // which pair of runs
            let off = id % pair; // position within the pair
            let (my_lo, sib_lo, from_first) = if off < run {
                (block * pair, block * pair + run, true)
            } else {
                (block * pair + run, block * pair, false)
            };
            let local = if from_first { off } else { off - run };
            let v = s[my_lo + local];
            // Rank of v in the sibling run; ties broken by run order to
            // keep the merge stable and positions unique.
            let sib = &s[sib_lo..sib_lo + run];
            let (mut lo, mut hi) = (0usize, run);
            let mut probes = 0u64;
            while lo < hi {
                let mid = (lo + hi) / 2;
                probes += 1;
                let go_right = if from_first {
                    sib[mid] < v
                } else {
                    sib[mid] <= v
                };
                if go_right {
                    lo = mid + 1;
                } else {
                    hi = mid;
                }
            }
            d[block * pair + local + lo] = v;
            counter.set(counter.get() + probes);
            // Cost model: the binary-search probes mostly hit the top of
            // the sibling run, which neighbouring work-items probe too —
            // the device cache serves them, so they are charged as compute
            // (`probes` comparisons). What hits memory per element: the
            // coalesced read of the element itself, roughly one deep probe,
            // and the data-dependent (scattered) write.
            ctx.charge_ops(probes + 2);
            ctx.read(0, id, 1, 1); // own element: coalesced
            ctx.scatter_read(0, 1); // deepest probe misses cache
            ctx.scatter_write(1, 1); // data-dependent output position
        };
        let res = if in_a {
            hpu.gpu.launch2(
                &format!("parallel merge (run {run})"),
                n,
                &mut buf_a,
                &mut buf_b,
                kernel,
            )
        } else {
            hpu.gpu.launch2(
                &format!("parallel merge (run {run})"),
                n,
                &mut buf_b,
                &mut buf_a,
                kernel,
            )
        };
        if let Err(e) = res {
            hpu.gpu.free(buf_a);
            hpu.gpu.free(buf_b);
            return Err(e.into());
        }
        compares += counter.get();
        in_a = !in_a;
        run = pair;
    }

    let sort_time = hpu.gpu.clock() - sort_start;
    let result = if in_a { &buf_a } else { &buf_b };
    let out = hpu.download(result);
    data.copy_from_slice(&out);
    hpu.gpu.free(buf_a);
    hpu.gpu.free(buf_b);
    hpu.sync();
    Ok(GpuParallelReport {
        sort_time,
        total_time: hpu.elapsed() - t_start,
        compares,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpu_core::exec::run_sim;
    use hpu_machine::MachineConfig;
    use hpu_model::ScheduleSpec;

    fn input(n: usize) -> Vec<u32> {
        (0..n as u32)
            .map(|i| i.wrapping_mul(2654435761) ^ 0x5A5A)
            .collect()
    }

    fn sorted(v: &[u32]) -> Vec<u32> {
        let mut s = v.to_vec();
        s.sort_unstable();
        s
    }

    #[test]
    fn recursive_reference_sorts() {
        for n in [0usize, 1, 2, 3, 17, 100, 1024] {
            let mut v = input(n);
            sort_recursive(&mut v);
            assert_eq!(v, sorted(&input(n)), "n = {n}");
        }
    }

    #[test]
    fn recursive_comparison_count_bounds() {
        let mut v = input(1024);
        let c = sort_recursive(&mut v);
        // n log n upper bound, n/2 lower bound.
        assert!(c <= 1024 * 10);
        assert!(c >= 512);
    }

    #[test]
    fn merge_into_handles_skew() {
        let a = [1u32, 2, 3];
        let b = [10u32];
        let mut d = [0u32; 4];
        merge_into(&a, &b, &mut d);
        assert_eq!(d, [1, 2, 3, 10]);
        let mut d2 = [0u32; 4];
        merge_into(&b, &a, &mut d2);
        assert_eq!(d2, [1, 2, 3, 10]);
        let mut d3 = [0u32; 3];
        merge_into(&[], &a, &mut d3);
        assert_eq!(d3, [1, 2, 3]);
    }

    /// The per-slot merge loop `merge_into` replaced: its output and its
    /// compare count (what the simulator charges) are the reference.
    fn reference_merge<T: SortKey>(a: &[T], b: &[T], dst: &mut [T]) -> u64 {
        let (mut i, mut j) = (0usize, 0usize);
        let mut compares = 0u64;
        for slot in dst.iter_mut() {
            let take_a = if i < a.len() && j < b.len() {
                compares += 1;
                a[i] <= b[j]
            } else {
                i < a.len()
            };
            *slot = if take_a {
                let v = a[i];
                i += 1;
                v
            } else {
                let v = b[j];
                j += 1;
                v
            };
        }
        compares
    }

    /// A key that orders by `key` alone, so ties are real and `tag` shows
    /// which run each output element came from.
    #[derive(Debug, Clone, Copy, Default)]
    struct Tagged {
        key: u8,
        tag: u32,
    }

    impl PartialEq for Tagged {
        fn eq(&self, other: &Self) -> bool {
            self.key == other.key
        }
    }

    impl Eq for Tagged {}

    impl PartialOrd for Tagged {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }

    impl Ord for Tagged {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            self.key.cmp(&other.key)
        }
    }

    #[test]
    fn merge_into_keeps_the_reference_output_and_compare_count() {
        let mut state = 0x6D65_7267_6521_u64;
        let mut next = move |bound: u64| {
            // splitmix64
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % bound
        };
        for _ in 0..20_000 {
            let mut run = |first_tag: u32| {
                let len = next(70) as u32;
                let mut r: Vec<Tagged> = (0..len)
                    .map(|t| Tagged {
                        key: next(8) as u8,
                        tag: first_tag + t,
                    })
                    .collect();
                r.sort();
                r
            };
            let (a, b) = (run(0), run(1000));
            let mut want = vec![Tagged::default(); a.len() + b.len()];
            let mut got = want.clone();
            let want_compares = reference_merge(&a, &b, &mut want);
            assert_eq!(merge_into(&a, &b, &mut got), want_compares);
            let pairs = |v: &[Tagged]| v.iter().map(|t| (t.key, t.tag)).collect::<Vec<_>>();
            assert_eq!(pairs(&got), pairs(&want), "a = {a:?}, b = {b:?}");
        }
    }

    #[test]
    fn coalesced_and_generic_gpu_paths_sort_identically() {
        let n = 1 << 10;
        for algo in [MergeSort::new(), MergeSort::generic()] {
            let mut data = input(n);
            let mut hpu = SimHpu::new(MachineConfig::tiny());
            run_sim(&algo, &mut data, &mut hpu, &ScheduleSpec::GpuOnly).unwrap();
            assert_eq!(data, sorted(&input(n)), "coalesced={}", algo.is_coalesced());
        }
    }

    #[test]
    fn coalesced_path_actually_coalesces() {
        let n = 1 << 10;
        let mut hpu = SimHpu::new(MachineConfig::tiny());
        let mut data = input(n);
        let co = run_sim(
            &MergeSort::new(),
            &mut data,
            &mut hpu,
            &ScheduleSpec::GpuOnly,
        )
        .unwrap();
        let mut hpu = SimHpu::new(MachineConfig::tiny());
        let mut data = input(n);
        let un = run_sim(
            &MergeSort::generic(),
            &mut data,
            &mut hpu,
            &ScheduleSpec::GpuOnly,
        )
        .unwrap();
        assert!(
            co.coalesced > 9 * co.uncoalesced / 10,
            "optimized path should be mostly coalesced: {co:?}"
        );
        assert_eq!(un.coalesced, 0, "generic path cannot coalesce");
        assert!(
            co.virtual_time < un.virtual_time,
            "the §6.3 optimization must pay off: {} vs {}",
            co.virtual_time,
            un.virtual_time
        );
    }

    #[test]
    fn hybrid_advanced_sorts_with_two_transfers() {
        let n = 1 << 12;
        let mut data = input(n);
        let mut hpu = SimHpu::new(MachineConfig::hpu1_sim());
        let report = run_sim(
            &MergeSort::new(),
            &mut data,
            &mut hpu,
            &ScheduleSpec::Advanced {
                alpha: 0.16,
                transfer_level: 6,
            },
        )
        .unwrap();
        assert_eq!(data, sorted(&input(n)));
        assert_eq!(report.transfers, 2);
    }

    #[test]
    fn gpu_parallel_mergesort_sorts() {
        for n in [1usize, 2, 8, 1 << 10] {
            let mut data = input(n);
            let mut hpu = SimHpu::new(MachineConfig::tiny());
            let rep = gpu_parallel_mergesort(&mut hpu, &mut data).unwrap();
            assert_eq!(data, sorted(&input(n)), "n = {n}");
            assert!(rep.total_time >= rep.sort_time);
        }
    }

    #[test]
    fn gpu_parallel_mergesort_is_stable_under_duplicates() {
        let mut data = vec![3u32, 1, 3, 1, 2, 2, 3, 1];
        let mut hpu = SimHpu::new(MachineConfig::tiny());
        gpu_parallel_mergesort(&mut hpu, &mut data).unwrap();
        assert_eq!(data, vec![1, 1, 1, 2, 2, 3, 3, 3]);
    }

    #[test]
    fn gpu_parallel_mergesort_rejects_bad_sizes() {
        let mut hpu = SimHpu::new(MachineConfig::tiny());
        let mut data = input(100);
        assert!(matches!(
            gpu_parallel_mergesort(&mut hpu, &mut data),
            Err(CoreError::InvalidSize { .. })
        ));
        let mut empty: Vec<u32> = vec![];
        assert!(matches!(
            gpu_parallel_mergesort(&mut hpu, &mut empty),
            Err(CoreError::EmptyInput)
        ));
    }

    #[test]
    fn leaf_cutoff_sorts_and_shortens_the_tree() {
        let n = 1 << 10;
        let algo = MergeSort::new().with_leaf_cutoff(16);
        let mut data = input(n);
        let mut hpu = SimHpu::new(MachineConfig::tiny());
        run_sim(&algo, &mut data, &mut hpu, &ScheduleSpec::CpuParallel).unwrap();
        assert!(data == sorted(&input(n)), "cutoff CPU-only run must sort");
        // GPU path too (exercises the row→column boundary kernel).
        let mut data = input(n);
        let mut hpu = SimHpu::new(MachineConfig::tiny());
        run_sim(&algo, &mut data, &mut hpu, &ScheduleSpec::GpuOnly).unwrap();
        assert!(data == sorted(&input(n)), "cutoff GPU-only run must sort");
        // Hybrid too.
        let mut data = input(n);
        let mut hpu = SimHpu::new(MachineConfig::tiny());
        run_sim(
            &algo,
            &mut data,
            &mut hpu,
            &ScheduleSpec::Advanced {
                alpha: 0.25,
                transfer_level: 3,
            },
        )
        .unwrap();
        assert!(data == sorted(&input(n)), "cutoff hybrid run must sort");
    }

    #[test]
    fn insertion_sort_counts() {
        let mut v = vec![3u32, 1, 2];
        let (c, m) = insertion_sort(&mut v);
        assert_eq!(v, vec![1, 2, 3]);
        assert!(c >= 2 && m >= 2);
        let mut sorted_in = vec![1u32, 2, 3, 4];
        let (c, _) = insertion_sort(&mut sorted_in);
        assert_eq!(c, 3, "already sorted: n-1 comparisons");
    }

    #[test]
    fn all_strategies_agree_on_hpu1() {
        let n = 1 << 10;
        let expect = sorted(&input(n));
        for strategy in [
            ScheduleSpec::Sequential,
            ScheduleSpec::CpuParallel,
            ScheduleSpec::GpuOnly,
            ScheduleSpec::Basic { crossover: None },
            ScheduleSpec::Advanced {
                alpha: 0.2,
                transfer_level: 5,
            },
        ] {
            let mut data = input(n);
            let mut hpu = SimHpu::new(MachineConfig::hpu1_sim());
            run_sim(&MergeSort::new(), &mut data, &mut hpu, &strategy).unwrap();
            assert_eq!(data, expect, "strategy {strategy:?}");
        }
    }
}
