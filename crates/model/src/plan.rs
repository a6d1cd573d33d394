//! The execution-plan IR: schedules compiled to explicit level bands.
//!
//! Every work-division strategy of the paper — sequential, CPU-parallel,
//! GPU-only, the basic crossover split (§5.1) and the advanced `(α, y)`
//! concurrent split (§5.2) — is expressible as an ordered list of
//! [`Segment`]s, each covering a contiguous band of *bottom-up executor
//! levels* (level 0 = base cases/leaves, level `k` = combines producing
//! chunks of `base · a^k` elements) with one [`Placement`] and explicit
//! [`Transfer`] edges. [`compile`] subsumes the per-strategy derivations:
//! the §5.1 crossover (including its degrade-to-CPU cases) and the §5.2
//! `(α*, y)` optimization both become compilations into this one IR, so the
//! executors and [`crate::predict_levels`] can never disagree about
//! placement.

use crate::advanced::AdvancedSolver;
use crate::basic::BasicSchedule;
use crate::error::ModelError;
use crate::params::MachineParams;
use crate::recurrence::Recurrence;

/// A work-division schedule to compile: the paper's five strategies plus
/// the fully model-derived [`ScheduleSpec::AdvancedAuto`].
#[derive(Debug, Clone, PartialEq)]
pub enum ScheduleSpec {
    /// Everything on one CPU core.
    Sequential,
    /// All levels on all `p` CPU cores.
    CpuParallel,
    /// All levels on the GPU, one round trip of the whole input.
    GpuOnly,
    /// Basic hybrid (§5.1): levels below the crossover on the GPU, the rest
    /// on the CPU. `None` derives `⌈log_a(p/γ)⌉` from the machine.
    Basic {
        /// First top-down level executed on the GPU.
        crossover: Option<u32>,
    },
    /// Advanced hybrid (§5.2): `α : 1−α` concurrent split up to the
    /// transfer level, CPU finishes the top.
    Advanced {
        /// Fraction of subproblems assigned to the CPU.
        alpha: f64,
        /// Top-down level at which the GPU hands results back.
        transfer_level: u32,
    },
    /// Advanced hybrid with `(α*, y)` derived by the §5.2.2 optimization.
    AdvancedAuto,
}

/// Direction of a [`Transfer`] edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Host → device (upload).
    ToGpu,
    /// Device → host (download).
    ToCpu,
}

/// One explicit CPU↔GPU transfer edge of a plan.
#[derive(Debug, Clone, PartialEq)]
pub struct Transfer {
    /// Edge direction.
    pub direction: Direction,
    /// Bottom-up executor level the edge is attributed to: uploads precede
    /// any device work (level 0), downloads carry back the chunks of the
    /// level they follow.
    pub level: u32,
    /// Words moved.
    pub words: u64,
}

/// Where a segment's levels execute.
#[derive(Debug, Clone, PartialEq)]
pub enum Placement {
    /// All tasks of each level on `cores` CPU cores (1 = sequential).
    Cpu {
        /// Number of cores the level waves are divided among.
        cores: usize,
    },
    /// All tasks of each level on the GPU.
    Gpu,
    /// Concurrent `α : 1−α` split: the first `cpu_tasks` of the `tasks`
    /// chunks at the segment's top level belong to the CPU, the rest to the
    /// GPU; both climb their share independently.
    Split {
        /// The requested CPU fraction (before integral rounding).
        alpha: f64,
        /// Chunks at the segment's top level assigned to the CPU
        /// (`round(α · tasks)` clamped so both sides get work).
        cpu_tasks: u64,
        /// Total chunks at the segment's top level (`a^y`).
        tasks: u64,
    },
}

/// A contiguous band of bottom-up executor levels with one placement.
#[derive(Debug, Clone, PartialEq)]
pub struct Segment {
    /// First (lowest) executor level of the band, inclusive.
    pub first_level: u32,
    /// Last (highest) executor level of the band, inclusive.
    pub last_level: u32,
    /// Where the band executes.
    pub placement: Placement,
    /// Transfer edges owned by this band ([`Direction::ToGpu`] edges run
    /// before the band, [`Direction::ToCpu`] edges after).
    pub transfers: Vec<Transfer>,
}

/// A compiled execution plan: ordered bottom-up segments tiling executor
/// levels `0 ..= exec_levels`.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// Input size the plan was compiled for.
    pub n: u64,
    /// The executor's combine-level count (`log_a(n / base_chunk)`).
    pub exec_levels: u32,
    /// Bottom-up segments; contiguous and non-overlapping.
    pub segments: Vec<Segment>,
    /// The schedule after parameter resolution (derived crossover filled
    /// in, `AdvancedAuto` resolved to its `(α, y)`, degrades applied).
    pub resolved: ScheduleSpec,
}

impl Plan {
    /// A single-segment host-only plan (used by the native executor and as
    /// the degrade target of [`ScheduleSpec::Basic`]).
    pub fn host_only(n: u64, exec_levels: u32, cores: usize, resolved: ScheduleSpec) -> Plan {
        Plan {
            n,
            exec_levels,
            segments: vec![Segment {
                first_level: 0,
                last_level: exec_levels,
                placement: Placement::Cpu { cores },
                transfers: Vec::new(),
            }],
            resolved,
        }
    }

    /// Whether any segment places work on the device — such a plan is
    /// exposed to GPU/bus faults and has a CPU-only degradation target.
    pub fn uses_gpu(&self) -> bool {
        self.segments
            .iter()
            .any(|s| !matches!(s.placement, Placement::Cpu { .. }))
    }

    /// The segment covering a bottom-up executor level, with its index.
    pub fn segment_of(&self, level: u32) -> Option<(usize, &Segment)> {
        self.segments
            .iter()
            .enumerate()
            .find(|(_, s)| s.first_level <= level && level <= s.last_level)
    }

    /// Total words moved over the bus by the plan's transfer edges.
    pub fn transfer_words(&self) -> u64 {
        self.segments
            .iter()
            .flat_map(|s| &s.transfers)
            .map(|t| t.words)
            .sum()
    }

    /// The *fixed* (size-independent) device cost of segment `index`:
    /// one transfer latency `lambda` per transfer edge plus one kernel
    /// `launch_overhead` per level of the band. These are the costs
    /// cross-job batching amortizes — when `m` same-shaped segments
    /// coalesce into one launch with merged transfers, `m − 1` copies of
    /// this fixed cost disappear (the `δ·w` payload and the kernel work
    /// itself are paid per member regardless). A CPU band has no fixed
    /// device cost. Out-of-range indices cost nothing.
    pub fn segment_fixed_cost(&self, index: usize, lambda: f64, launch_overhead: f64) -> f64 {
        let Some(seg) = self.segments.get(index) else {
            return 0.0;
        };
        if matches!(seg.placement, Placement::Cpu { .. }) {
            return 0.0;
        }
        let launches = (seg.last_level - seg.first_level + 1) as f64;
        lambda * seg.transfers.len() as f64 + launch_overhead * launches
    }

    /// The suffix of this plan that remains after the first `level`
    /// bottom-up executor levels completed — the checkpoint/restart primitive.
    ///
    /// Every segment boundary is a consistent cut (a band finishes all its
    /// levels before the next starts, and downloads hand results back to
    /// the host), so a job checkpointed after `level` levels can resume by
    /// interpreting only the returned plan. `n`, `exec_levels` and
    /// `resolved` are preserved — the suffix describes the *same* job,
    /// just with the completed bands removed:
    ///
    /// * segments entirely below the cut are dropped (with their
    ///   transfers: the checkpointed state lives on the host);
    /// * the segment containing the cut is clipped to start at `level`,
    ///   keeping its upload edges (a resuming node must re-stage the data
    ///   onto its device) and only those download edges at or above the
    ///   cut.
    ///
    /// `resume_from_level(0)` is the identity; a `level` above
    /// `exec_levels` is rejected with [`ModelError::InvalidLevel`].
    pub fn resume_from_level(&self, level: u32) -> Result<Plan, ModelError> {
        if level > self.exec_levels {
            return Err(ModelError::InvalidLevel {
                level,
                levels: self.exec_levels,
            });
        }
        let segments = self
            .segments
            .iter()
            .filter(|s| s.last_level >= level)
            .map(|s| {
                if s.first_level >= level {
                    return s.clone();
                }
                Segment {
                    first_level: level,
                    last_level: s.last_level,
                    placement: s.placement.clone(),
                    transfers: s
                        .transfers
                        .iter()
                        .filter(|t| t.direction == Direction::ToGpu || t.level >= level)
                        .cloned()
                        .collect(),
                }
            })
            .collect();
        Ok(Plan {
            n: self.n,
            exec_levels: self.exec_levels,
            segments,
            resolved: self.resolved.clone(),
        })
    }
}

/// [`compile`] with wall-clock sampling: the elapsed time is recorded
/// into `metrics` as the `model.compile_ns` histogram (plus a
/// `model.compiles` counter), so serving fleets can watch
/// plan-compilation cost — part of every job's admission latency —
/// through the live registry. Both entry points share one pipeline
/// (resolve → lower → optimize); this wrapper only times it.
pub fn compile_timed(
    spec: &ScheduleSpec,
    machine: &MachineParams,
    rec: &Recurrence,
    n: u64,
    exec_levels: u32,
    metrics: &hpu_obs::MetricsRegistry,
) -> Result<Plan, ModelError> {
    let t0 = std::time::Instant::now();
    let result = compile(spec, machine, rec, n, exec_levels);
    metrics.observe("model.compile_ns", t0.elapsed().as_nanos() as f64);
    metrics.inc("model.compiles", 1);
    result
}

/// Compiles a schedule into an executable [`Plan`] for input size `n` with
/// `exec_levels` bottom-up combine levels.
///
/// The compiler is staged: [`resolve`] pins every derived parameter,
/// [`compile_unoptimized`] lowers the resolved schedule into a naive
/// one-segment-per-level plan, and the [`crate::passes::default_passes`]
/// pipeline (dead-level pruning, transfer elision, segment fusion) rewrites
/// it into the executable form. Debug builds assert the per-pass invariant
/// — cost never increases, the level tiling and metadata are preserved —
/// against the unoptimized plan.
///
/// Parameter resolution mirrors the executors' historical behavior exactly:
///
/// * `Basic { crossover: None }` derives `⌈log_a(p/γ)⌉`; a machine not
///   worth using the GPU on (`γ·g < p`), or a crossover below the leaves
///   (`c > exec_levels`), degrades to a CPU-parallel plan rather than
///   erroring (paper §5.1).
/// * `Advanced` validates its inputs: `α` must be finite in `[0, 1]`
///   ([`ModelError::InvalidAlpha`]) and the transfer level must name a real
///   level of the tree, `1 ..= exec_levels` ([`ModelError::InvalidLevel`]).
/// * `AdvancedAuto` runs the §5.2.2 optimization and rounds `y` to the
///   nearest executable level.
pub fn compile(
    spec: &ScheduleSpec,
    machine: &MachineParams,
    rec: &Recurrence,
    n: u64,
    exec_levels: u32,
) -> Result<Plan, ModelError> {
    let mut plan = compile_unoptimized(spec, machine, rec, n, exec_levels)?;
    #[cfg(debug_assertions)]
    let profile = crate::levels::LevelProfile::new(machine, rec, n);
    for pass in crate::passes::default_passes() {
        #[cfg(debug_assertions)]
        let before = plan.clone();
        plan = pass.run(plan);
        #[cfg(debug_assertions)]
        if let Err(e) = crate::passes::check_invariant(&profile, &before, &plan) {
            panic!("optimizer pass {} violated its invariant: {e}", pass.name());
        }
    }
    Ok(plan)
}

/// Resolves every derived parameter of a schedule without compiling it:
/// the basic crossover is derived (and its degrade-to-CPU cases become
/// [`ScheduleSpec::CpuParallel`]), `AdvancedAuto` runs the §5.2.2
/// optimization down to an explicit `(α, y)`, and `Advanced` inputs are
/// validated. The result is what [`Plan::resolved`] will carry.
pub fn resolve(
    spec: &ScheduleSpec,
    machine: &MachineParams,
    rec: &Recurrence,
    n: u64,
    exec_levels: u32,
) -> Result<ScheduleSpec, ModelError> {
    let lx = exec_levels;
    match spec {
        ScheduleSpec::Sequential => Ok(ScheduleSpec::Sequential),
        ScheduleSpec::CpuParallel => Ok(ScheduleSpec::CpuParallel),
        ScheduleSpec::GpuOnly => Ok(ScheduleSpec::GpuOnly),
        ScheduleSpec::Basic { crossover } => {
            let cross = match crossover {
                Some(c) => Some(*c),
                None => BasicSchedule::derive(machine, rec).crossover,
            };
            match cross {
                // GPU not worth using, or crossover below the leaves:
                // degrade to CPU-parallel (paper §5.1).
                None => Ok(ScheduleSpec::CpuParallel),
                Some(c) if c > lx => Ok(ScheduleSpec::CpuParallel),
                Some(c) => Ok(ScheduleSpec::Basic { crossover: Some(c) }),
            }
        }
        ScheduleSpec::Advanced {
            alpha,
            transfer_level,
        } => {
            let y = *transfer_level;
            if y == 0 || y > lx {
                return Err(ModelError::InvalidLevel {
                    level: y,
                    levels: lx,
                });
            }
            if !(0.0..=1.0).contains(alpha) || !alpha.is_finite() {
                return Err(ModelError::InvalidAlpha(*alpha));
            }
            advanced_division(rec, n, y, *alpha, lx)?;
            Ok(ScheduleSpec::Advanced {
                alpha: *alpha,
                transfer_level: y,
            })
        }
        ScheduleSpec::AdvancedAuto => {
            let solver = AdvancedSolver::new(machine, rec, n)?;
            let opt = solver.optimize();
            let y = (opt.transfer_level.round() as u32).clamp(1, lx.max(1));
            resolve(
                &ScheduleSpec::Advanced {
                    alpha: opt.alpha,
                    transfer_level: y,
                },
                machine,
                rec,
                n,
                lx,
            )
        }
    }
}

/// The integral `(α, y)` division (paper §5.2): chunks at the transfer
/// level, the CPU's share of them, and the words the GPU's share moves.
fn advanced_division(
    rec: &Recurrence,
    n: u64,
    y: u32,
    alpha: f64,
    lx: u32,
) -> Result<(u64, u64, u64), ModelError> {
    let tasks_y = (rec.a as u64)
        .checked_pow(y)
        .ok_or(ModelError::InvalidLevel {
            level: y,
            levels: lx,
        })?;
    if tasks_y < 2 {
        return Err(ModelError::InvalidLevel {
            level: y,
            levels: lx,
        });
    }
    let chunk_y = n / tasks_y;
    let cpu_tasks = ((alpha * tasks_y as f64).round() as u64).clamp(1, tasks_y - 1);
    let gpu_words = n - cpu_tasks * chunk_y;
    Ok((cpu_tasks, tasks_y, gpu_words))
}

/// Compiles a schedule into the *unoptimized* plan IR: one segment per
/// executor level, each device level bracketed by its own upload/download
/// pair. This is the pass pipeline's input — useful for inspecting what
/// each optimizer pass does ([`repro plan --passes`]) and for asserting
/// the cost-monotonicity invariant against the optimized plan.
///
/// [`repro plan --passes`]: crate::passes
pub fn compile_unoptimized(
    spec: &ScheduleSpec,
    machine: &MachineParams,
    rec: &Recurrence,
    n: u64,
    exec_levels: u32,
) -> Result<Plan, ModelError> {
    let resolved = resolve(spec, machine, rec, n, exec_levels)?;
    lower(&resolved, machine, rec, n, exec_levels)
}

/// One naive per-level segment.
fn level_segment(level: u32, placement: Placement, words: u64) -> Segment {
    let transfers = if matches!(placement, Placement::Cpu { .. }) {
        Vec::new()
    } else {
        vec![
            Transfer {
                direction: Direction::ToGpu,
                level,
                words,
            },
            Transfer {
                direction: Direction::ToCpu,
                level,
                words,
            },
        ]
    };
    Segment {
        first_level: level,
        last_level: level,
        placement,
        transfers,
    }
}

/// Lowers a [`resolve`]d schedule into the naive per-level plan IR.
///
/// Device levels each carry their own upload/download round trip; split
/// levels all carry the band-top task counts (the integral fraction is
/// identical at every level of the band, and counts are defined at a
/// band's top level, which is what segment fusion preserves).
fn lower(
    resolved: &ScheduleSpec,
    machine: &MachineParams,
    rec: &Recurrence,
    n: u64,
    exec_levels: u32,
) -> Result<Plan, ModelError> {
    let lx = exec_levels;
    let segments = match resolved {
        ScheduleSpec::Sequential => (0..=lx)
            .map(|k| level_segment(k, Placement::Cpu { cores: 1 }, 0))
            .collect(),
        ScheduleSpec::CpuParallel => (0..=lx)
            .map(|k| level_segment(k, Placement::Cpu { cores: machine.p }, 0))
            .collect(),
        ScheduleSpec::GpuOnly => (0..=lx)
            .map(|k| level_segment(k, Placement::Gpu, n))
            .collect(),
        ScheduleSpec::Basic { crossover: Some(c) } => {
            let split = lx - c;
            (0..=lx)
                .map(|k| {
                    if k <= split {
                        level_segment(k, Placement::Gpu, n)
                    } else {
                        level_segment(k, Placement::Cpu { cores: machine.p }, 0)
                    }
                })
                .collect()
        }
        ScheduleSpec::Advanced {
            alpha,
            transfer_level,
        } => {
            let y = *transfer_level;
            let (cpu_tasks, tasks_y, gpu_words) = advanced_division(rec, n, y, *alpha, lx)?;
            let split = lx - y;
            (0..=lx)
                .map(|k| {
                    if k <= split {
                        level_segment(
                            k,
                            Placement::Split {
                                alpha: *alpha,
                                cpu_tasks,
                                tasks: tasks_y,
                            },
                            gpu_words,
                        )
                    } else {
                        level_segment(k, Placement::Cpu { cores: machine.p }, 0)
                    }
                })
                .collect()
        }
        // resolve() never leaves these unresolved.
        ScheduleSpec::Basic { crossover: None } | ScheduleSpec::AdvancedAuto => {
            unreachable!("lower() requires a resolve()d schedule")
        }
    };
    Ok(Plan {
        n,
        exec_levels: lx,
        segments,
        resolved: resolved.clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mergesort_plan(spec: &ScheduleSpec, n: u64) -> Result<Plan, ModelError> {
        let rec = Recurrence::mergesort();
        let lx = rec.num_levels(n);
        compile(spec, &MachineParams::hpu1(), &rec, n, lx)
    }

    fn segments_tile_the_tree(plan: &Plan) {
        let mut next = 0;
        for seg in &plan.segments {
            assert_eq!(seg.first_level, next, "segments must be contiguous");
            assert!(seg.last_level >= seg.first_level);
            next = seg.last_level + 1;
        }
        assert_eq!(next, plan.exec_levels + 1, "segments must reach the root");
    }

    #[test]
    fn pure_plans_are_single_segments() {
        for (spec, cores) in [
            (ScheduleSpec::Sequential, 1usize),
            (ScheduleSpec::CpuParallel, 4),
        ] {
            let plan = mergesort_plan(&spec, 1 << 12).unwrap();
            segments_tile_the_tree(&plan);
            assert_eq!(plan.segments.len(), 1);
            assert_eq!(plan.segments[0].placement, Placement::Cpu { cores });
            assert!(plan.segments[0].transfers.is_empty());
            assert_eq!(plan.transfer_words(), 0);
        }
        let plan = mergesort_plan(&ScheduleSpec::GpuOnly, 1 << 12).unwrap();
        segments_tile_the_tree(&plan);
        assert_eq!(plan.segments[0].placement, Placement::Gpu);
        assert_eq!(plan.transfer_words(), 2 << 12);
        // Download carries the finished root: attributed to the top level.
        assert_eq!(plan.segments[0].transfers[1].level, 12);
    }

    #[test]
    fn basic_compiles_to_gpu_band_plus_cpu_band() {
        // HPU1 mergesort: derived crossover 10.
        let plan = mergesort_plan(&ScheduleSpec::Basic { crossover: None }, 1 << 12).unwrap();
        segments_tile_the_tree(&plan);
        assert_eq!(
            plan.resolved,
            ScheduleSpec::Basic {
                crossover: Some(10)
            }
        );
        assert_eq!(plan.segments.len(), 2);
        assert_eq!(plan.segments[0].placement, Placement::Gpu);
        assert_eq!(plan.segments[0].last_level, 2); // 12 - 10
        assert_eq!(plan.segments[0].transfers[1].level, 2);
        assert_eq!(plan.segments[1].placement, Placement::Cpu { cores: 4 });
        assert_eq!(plan.segments[1].first_level, 3);
    }

    #[test]
    fn basic_degrades_when_gpu_not_worth_using() {
        // γ·g = 1 < p: no crossover exists.
        let weak = MachineParams::new(4, 100, 0.01).unwrap();
        let rec = Recurrence::mergesort();
        let plan = compile(
            &ScheduleSpec::Basic { crossover: None },
            &weak,
            &rec,
            256,
            8,
        )
        .unwrap();
        assert_eq!(plan.resolved, ScheduleSpec::CpuParallel);
        assert_eq!(plan.segments.len(), 1);
        // An explicit crossover below the leaves degrades the same way.
        let plan = mergesort_plan(
            &ScheduleSpec::Basic {
                crossover: Some(99),
            },
            256,
        )
        .unwrap();
        assert_eq!(plan.resolved, ScheduleSpec::CpuParallel);
    }

    #[test]
    fn resume_from_level_trims_completed_bands() {
        // Basic on 2^12: GPU band 0..=2 (upload + download), CPU band 3..=12.
        let plan = mergesort_plan(&ScheduleSpec::Basic { crossover: None }, 1 << 12).unwrap();
        // Identity at level 0.
        assert_eq!(plan.resume_from_level(0).unwrap(), plan);
        // Cut at the band boundary: the GPU band (and its transfers) is
        // gone, the CPU band survives untouched.
        let suffix = plan.resume_from_level(3).unwrap();
        assert_eq!(suffix.n, plan.n);
        assert_eq!(suffix.exec_levels, plan.exec_levels);
        assert_eq!(suffix.resolved, plan.resolved);
        assert_eq!(suffix.segments.len(), 1);
        assert_eq!(suffix.segments[0], plan.segments[1]);
        // Cut *inside* the GPU band: the band is clipped to start at the
        // cut, keeps its upload (the resuming node re-stages the data) and
        // its at-or-above-the-cut download, and the tiling resumes there.
        let mid = plan.resume_from_level(1).unwrap();
        assert_eq!(mid.segments.len(), 2);
        assert_eq!(mid.segments[0].first_level, 1);
        assert_eq!(mid.segments[0].last_level, 2);
        assert!(mid.segments[0]
            .transfers
            .iter()
            .any(|t| t.direction == Direction::ToGpu));
        assert!(mid.segments[0]
            .transfers
            .iter()
            .all(|t| t.direction == Direction::ToGpu || t.level >= 1));
        // Past the root is rejected; at the root only the top band remains.
        assert!(plan.resume_from_level(13).is_err());
        let top = plan.resume_from_level(12).unwrap();
        assert_eq!(top.segments.len(), 1);
        assert_eq!(top.segments[0].first_level, 12);
    }

    #[test]
    fn advanced_split_carries_the_integral_division() {
        let plan = mergesort_plan(
            &ScheduleSpec::Advanced {
                alpha: 0.3,
                transfer_level: 3,
            },
            1 << 12,
        )
        .unwrap();
        segments_tile_the_tree(&plan);
        assert_eq!(plan.segments.len(), 2);
        let seg = &plan.segments[0];
        assert_eq!(seg.last_level, 9); // 12 - 3
        match seg.placement {
            Placement::Split {
                alpha,
                cpu_tasks,
                tasks,
            } => {
                assert_eq!(alpha, 0.3);
                assert_eq!(tasks, 8);
                assert_eq!(cpu_tasks, 2); // round(0.3 · 8)
            }
            ref other => panic!("expected a split, got {other:?}"),
        }
        // Both edges move only the GPU share: (8-2)/8 of n.
        let gpu_words = 6 * (1u64 << 12) / 8;
        assert_eq!(seg.transfers[0].words, gpu_words);
        assert_eq!(seg.transfers[1].words, gpu_words);
        assert_eq!(seg.transfers[1].level, 9);
    }

    #[test]
    fn advanced_validates_inputs() {
        let bad_level = mergesort_plan(
            &ScheduleSpec::Advanced {
                alpha: 0.5,
                transfer_level: 99,
            },
            1 << 8,
        );
        assert_eq!(
            bad_level,
            Err(ModelError::InvalidLevel {
                level: 99,
                levels: 8
            })
        );
        let zero = mergesort_plan(
            &ScheduleSpec::Advanced {
                alpha: 0.5,
                transfer_level: 0,
            },
            1 << 8,
        );
        assert!(matches!(zero, Err(ModelError::InvalidLevel { .. })));
        for alpha in [-0.1, 1.5, f64::NAN, f64::INFINITY] {
            let bad = mergesort_plan(
                &ScheduleSpec::Advanced {
                    alpha,
                    transfer_level: 2,
                },
                1 << 8,
            );
            assert!(matches!(bad, Err(ModelError::InvalidAlpha(_))), "{alpha}");
        }
        // The top level itself is a legal transfer level (trivial inputs).
        assert!(mergesort_plan(
            &ScheduleSpec::Advanced {
                alpha: 0.5,
                transfer_level: 8,
            },
            1 << 8,
        )
        .is_ok());
    }

    #[test]
    fn advanced_auto_reproduces_the_paper_example() {
        // §5.2.2: HPU1 mergesort at n = 2^24 gives α* ≈ 0.16, y ≈ 10.
        let plan = mergesort_plan(&ScheduleSpec::AdvancedAuto, 1 << 24).unwrap();
        segments_tile_the_tree(&plan);
        let (alpha, y) = match plan.resolved {
            ScheduleSpec::Advanced {
                alpha,
                transfer_level,
            } => (alpha, transfer_level),
            ref other => panic!("expected a resolved Advanced, got {other:?}"),
        };
        assert!((alpha - 0.16).abs() < 0.03, "alpha = {alpha}");
        assert!((9..=10).contains(&y), "transfer level = {y}");
        // The concurrent band is a Split segment ending at level 24 - y,
        // where the GPU hands its share back.
        let seg = &plan.segments[0];
        assert!(matches!(seg.placement, Placement::Split { .. }));
        assert_eq!(seg.last_level, 24 - y);
        assert_eq!(seg.transfers[1].level, 24 - y);
    }

    #[test]
    fn matmul_recurrence_compiles_and_predicts() {
        // Tree-form algorithms (the a = 8 matmul) have no breadth-first
        // executor, but their schedules compile and predict through the
        // same plan IR.
        use crate::levels::LevelProfile;
        use crate::prediction::predict_levels;

        let rec = Recurrence::dc_matmul();
        let machine = MachineParams::hpu1();
        let n = 8u64.pow(6);
        let lx = rec.num_levels(n);
        let plan = compile(
            &ScheduleSpec::Advanced {
                alpha: 0.25,
                transfer_level: 2,
            },
            &machine,
            &rec,
            n,
            lx,
        )
        .unwrap();
        segments_tile_the_tree(&plan);
        match plan.segments[0].placement {
            Placement::Split {
                cpu_tasks, tasks, ..
            } => {
                assert_eq!(tasks, 64, "a^y = 8^2 chunks at the transfer level");
                assert_eq!(cpu_tasks, 16, "round(0.25 · 64)");
            }
            ref other => panic!("expected a split, got {other:?}"),
        }
        let profile = LevelProfile::new(&machine, &rec, n);
        let pred = predict_levels(&profile, &plan);
        assert!(!pred.is_empty());
        assert!(pred.iter().all(|p| p.time.is_finite() && p.time >= 0.0));
        // A transfer level whose a^y overflows u64 is rejected, not wrapped.
        let big = compile(
            &ScheduleSpec::Advanced {
                alpha: 0.5,
                transfer_level: 30,
            },
            &machine,
            &rec,
            n,
            40,
        );
        assert!(matches!(big, Err(ModelError::InvalidLevel { .. })));
    }

    #[test]
    fn unoptimized_plans_are_one_segment_per_level() {
        let rec = Recurrence::mergesort();
        let n = 1u64 << 12;
        let lx = rec.num_levels(n);
        let unopt = compile_unoptimized(
            &ScheduleSpec::Basic { crossover: None },
            &MachineParams::hpu1(),
            &rec,
            n,
            lx,
        )
        .unwrap();
        segments_tile_the_tree(&unopt);
        assert_eq!(unopt.segments.len(), lx as usize + 1);
        assert!(unopt.segments.iter().all(|s| s.first_level == s.last_level));
        // Every device level carries its own upload/download round trip.
        let device = unopt
            .segments
            .iter()
            .filter(|s| !matches!(s.placement, Placement::Cpu { .. }))
            .count();
        assert_eq!(device, 3, "HPU1 crossover 10 leaves levels 0..=2 on GPU");
        assert_eq!(unopt.transfer_words(), 2 * device as u64 * n);
        // Resolution matches the optimized plan's.
        let opt = mergesort_plan(&ScheduleSpec::Basic { crossover: None }, n).unwrap();
        assert_eq!(unopt.resolved, opt.resolved);
    }

    #[test]
    fn resolve_pins_every_derived_parameter() {
        let machine = MachineParams::hpu1();
        let rec = Recurrence::mergesort();
        assert_eq!(
            resolve(
                &ScheduleSpec::Basic { crossover: None },
                &machine,
                &rec,
                1 << 12,
                12
            ),
            Ok(ScheduleSpec::Basic {
                crossover: Some(10)
            })
        );
        // Degrade cases resolve to CpuParallel.
        assert_eq!(
            resolve(
                &ScheduleSpec::Basic {
                    crossover: Some(99)
                },
                &machine,
                &rec,
                1 << 12,
                12
            ),
            Ok(ScheduleSpec::CpuParallel)
        );
        // AdvancedAuto resolves to an explicit (α, y).
        let auto = resolve(&ScheduleSpec::AdvancedAuto, &machine, &rec, 1 << 24, 24).unwrap();
        assert!(matches!(auto, ScheduleSpec::Advanced { .. }));
        // Invalid Advanced inputs fail at resolution.
        assert!(resolve(
            &ScheduleSpec::Advanced {
                alpha: 2.0,
                transfer_level: 2
            },
            &machine,
            &rec,
            1 << 8,
            8
        )
        .is_err());
    }

    #[test]
    fn segment_fixed_cost_counts_latencies_and_launches() {
        // HPU1 mergesort basic: segment 0 = GPU band levels 0..=2 with an
        // upload/download pair, segment 1 = CPU band (no fixed cost).
        let plan = mergesort_plan(&ScheduleSpec::Basic { crossover: None }, 1 << 12).unwrap();
        assert_eq!(plan.segments.len(), 2);
        let (lambda, launch) = (100.0, 7.0);
        let gpu_band = &plan.segments[0];
        let launches = (gpu_band.last_level - gpu_band.first_level + 1) as f64;
        assert_eq!(
            plan.segment_fixed_cost(0, lambda, launch),
            lambda * gpu_band.transfers.len() as f64 + launch * launches
        );
        assert_eq!(plan.segment_fixed_cost(1, lambda, launch), 0.0);
        assert_eq!(plan.segment_fixed_cost(99, lambda, launch), 0.0);
    }

    #[test]
    fn segment_lookup_by_level() {
        let plan = mergesort_plan(&ScheduleSpec::Basic { crossover: Some(4) }, 1 << 10).unwrap();
        let (i, seg) = plan.segment_of(6).unwrap();
        assert_eq!(i, 0);
        assert_eq!(seg.placement, Placement::Gpu);
        let (i, seg) = plan.segment_of(7).unwrap();
        assert_eq!(i, 1);
        assert!(matches!(seg.placement, Placement::Cpu { .. }));
        assert!(plan.segment_of(11).is_none());
    }
}
