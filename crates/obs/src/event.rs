//! Typed trace events and the `Recorder` sink trait.

use std::fmt;

use crate::span::SpanKind;

/// An execution unit's track in a trace: the CPU (all cores aggregated),
/// the GPU, or the transfer bus between them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Track {
    /// The multicore CPU.
    Cpu,
    /// The GPU.
    Gpu,
    /// The CPU↔GPU transfer bus.
    Bus,
}

impl Track {
    /// Stable thread id used in Chrome trace output (CPU=1, GPU=2, BUS=3).
    pub fn tid(self) -> u32 {
        match self {
            Track::Cpu => 1,
            Track::Gpu => 2,
            Track::Bus => 3,
        }
    }
}

impl fmt::Display for Track {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Track::Cpu => write!(f, "CPU"),
            Track::Gpu => write!(f, "GPU"),
            Track::Bus => write!(f, "BUS"),
        }
    }
}

/// Which phase of a breadth-first level a CPU span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LevelPhase {
    /// Base cases (the leaves of the recursion tree).
    Base,
    /// A combine pass merging `branching` children per task.
    Combine,
    /// A copy moving results from the scratch buffer back into place.
    CopyBack,
}

/// A structured description of what happened during a span.
///
/// `Display` reproduces the legacy free-string labels, so text renders of a
/// timeline look the same as before the typed events existed.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A breadth-first level executed on CPU cores.
    Level {
        /// Algorithm name.
        name: String,
        /// Base, combine or copy-back phase.
        phase: LevelPhase,
        /// Chunk size (output elements per task) at this level.
        chunk: u64,
        /// Number of tasks run in the span.
        tasks: u64,
        /// Total operation charges across the tasks.
        ops: u64,
        /// Total memory charges across the tasks.
        mem: u64,
    },
    /// A kernel launch on the GPU.
    Kernel {
        /// Kernel label.
        name: String,
        /// Items (virtual threads) launched.
        items: u64,
        /// Waves (rounds of `lanes` items) executed.
        waves: u64,
        /// Coalesced memory accesses observed.
        coalesced: u64,
        /// Uncoalesced memory accesses observed.
        uncoalesced: u64,
    },
    /// A bus transfer between host and device.
    Transfer {
        /// Direction: `true` for host→device.
        to_gpu: bool,
        /// Words moved.
        words: u64,
    },
    /// A synchronization barrier: the unit idled until the other caught up.
    Sync,
    /// An injected or observed device fault (kernel, transfer or loss).
    Fault {
        /// What faulted, e.g. the kernel label or `"transfer"`.
        label: String,
        /// Whether the fault is transient (retryable) or permanent.
        transient: bool,
    },
    /// A recovery retry of a failed plan segment.
    Retry {
        /// 1-based retry attempt number.
        attempt: u32,
        /// Backoff charged before this attempt (same unit as the track).
        backoff: f64,
    },
    /// A recovered job resumed from its last checkpoint instead of
    /// restarting from scratch.
    Resume {
        /// Level the job resumed from (levels below it were not re-run).
        level: u32,
    },
    /// A free-form annotation (legacy string labels land here).
    Mark(String),
    /// A causal span: one node of a job → segment → level → retry tree.
    /// Spans carry ids so children can reference parents across the
    /// flat event stream; the Chrome exporter draws the links as flow
    /// arrows.
    Span {
        /// Span id, unique within one run's event stream (never 0).
        id: u64,
        /// Parent span id, when this span has a causal parent.
        parent: Option<u64>,
        /// What the span covers.
        kind: SpanKind,
    },
}

impl fmt::Display for EventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EventKind::Level {
                name,
                phase,
                chunk,
                tasks,
                ..
            } => match phase {
                LevelPhase::Base => write!(f, "{name} base ({tasks} tasks)"),
                LevelPhase::Combine => {
                    write!(f, "{name} combine chunk {chunk} ({tasks} tasks)")
                }
                LevelPhase::CopyBack => write!(f, "copy back ({tasks} tasks)"),
            },
            EventKind::Kernel {
                name, items, waves, ..
            } => write!(f, "{name} ({items} items, {waves} waves)"),
            EventKind::Transfer { to_gpu, words } => {
                let arrow = if *to_gpu { "→GPU" } else { "→CPU" };
                write!(f, "{arrow} {words} words")
            }
            EventKind::Sync => write!(f, "sync"),
            EventKind::Fault { label, transient } => {
                let kind = if *transient { "transient" } else { "permanent" };
                write!(f, "fault ({kind}) {label}")
            }
            EventKind::Retry { attempt, backoff } => {
                write!(f, "retry #{attempt} after backoff {backoff}")
            }
            EventKind::Resume { level } => write!(f, "resume from level {level}"),
            EventKind::Mark(s) => write!(f, "{s}"),
            EventKind::Span { kind, .. } => write!(f, "{kind}"),
        }
    }
}

impl EventKind {
    /// Chrome trace category for this kind of event.
    pub fn category(&self) -> &'static str {
        match self {
            EventKind::Level { .. } => "level",
            EventKind::Kernel { .. } => "kernel",
            EventKind::Transfer { .. } => "transfer",
            EventKind::Sync => "sync",
            EventKind::Fault { .. } => "fault",
            EventKind::Retry { .. } => "retry",
            EventKind::Resume { .. } => "resume",
            EventKind::Mark(_) => "mark",
            EventKind::Span { .. } => "span",
        }
    }
}

/// One recorded span on a track.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// The unit the span ran on.
    pub track: Track,
    /// Span start (virtual time units, or µs for wall-clock recorders).
    pub start: f64,
    /// Span end.
    pub end: f64,
    /// What happened.
    pub kind: EventKind,
}

impl TraceEvent {
    /// Span duration (clamped to be non-negative).
    pub fn duration(&self) -> f64 {
        (self.end - self.start).max(0.0)
    }
}

/// A sink for trace events.
///
/// Implemented by the simulator's `Timeline` (spans in virtual time) and by
/// [`crate::WallRecorder`] (spans in microseconds of wall-clock time), so
/// executors can emit structured events without knowing which clock runs.
pub trait Recorder {
    /// Record a span `[start, end]` on `track`.
    fn record_event(&mut self, track: Track, start: f64, end: f64, kind: EventKind);
}

impl Recorder for Vec<TraceEvent> {
    fn record_event(&mut self, track: Track, start: f64, end: f64, kind: EventKind) {
        self.push(TraceEvent {
            track,
            start,
            end,
            kind,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_reproduces_legacy_labels() {
        let level = EventKind::Level {
            name: "mergesort".into(),
            phase: LevelPhase::Combine,
            chunk: 8,
            tasks: 4,
            ops: 100,
            mem: 200,
        };
        assert_eq!(level.to_string(), "mergesort combine chunk 8 (4 tasks)");
        let kernel = EventKind::Kernel {
            name: "mergesort combine (chunk 8)".into(),
            items: 128,
            waves: 2,
            coalesced: 10,
            uncoalesced: 0,
        };
        assert_eq!(
            kernel.to_string(),
            "mergesort combine (chunk 8) (128 items, 2 waves)"
        );
        assert_eq!(
            EventKind::Transfer {
                to_gpu: true,
                words: 64
            }
            .to_string(),
            "→GPU 64 words"
        );
        assert_eq!(
            EventKind::Transfer {
                to_gpu: false,
                words: 64
            }
            .to_string(),
            "→CPU 64 words"
        );
        assert_eq!(EventKind::Mark("free text".into()).to_string(), "free text");
    }

    #[test]
    fn vec_is_a_recorder() {
        let mut sink: Vec<TraceEvent> = Vec::new();
        sink.record_event(Track::Bus, 1.0, 2.0, EventKind::Sync);
        assert_eq!(sink.len(), 1);
        assert_eq!(sink[0].duration(), 1.0);
    }
}
