//! Error type for the framework.

use std::fmt;

use hpu_machine::MachineError;
use hpu_model::ModelError;

/// Errors raised by framework executors.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// The input length is not `base_chunk · a^k` for any `k ≥ 0`, which
    /// the in-place breadth-first executors require (the paper likewise
    /// assumes power-of-`b` inputs, §6 footnote 4). Pad the input (e.g.
    /// with a sentinel) or use the tree-form executors.
    InvalidSize {
        /// Offending input length.
        len: usize,
        /// Required branching factor.
        branching: usize,
        /// Required base-chunk size.
        base_chunk: usize,
    },
    /// The requested schedule parameter is outside the tree, e.g. a
    /// transfer level deeper than the recursion.
    InvalidLevel {
        /// Requested level (from the top).
        level: u32,
        /// Number of levels in the tree.
        levels: u32,
    },
    /// The split ratio `α` must leave at least one task on each side at the
    /// transfer level.
    InvalidAlpha {
        /// Offending ratio.
        alpha: f64,
    },
    /// Empty input.
    EmptyInput,
    /// A plan violated an interpreter invariant — e.g. a device band with
    /// no preceding upload edge, or a placement the backend cannot execute.
    MalformedPlan {
        /// The invariant that was violated.
        reason: &'static str,
    },
    /// An underlying simulated-machine fault.
    Machine(MachineError),
    /// The schedule did not compile for this input, e.g. a problem too
    /// small for the advanced solver.
    Model(ModelError),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::InvalidSize {
                len,
                branching,
                base_chunk,
            } => write!(
                f,
                "input length {len} is not base_chunk({base_chunk}) times a power of {branching}"
            ),
            CoreError::InvalidLevel { level, levels } => {
                write!(f, "level {level} outside recursion tree of {levels} levels")
            }
            CoreError::InvalidAlpha { alpha } => {
                write!(f, "alpha {alpha} leaves a side of the split empty")
            }
            CoreError::EmptyInput => write!(f, "input is empty"),
            CoreError::MalformedPlan { reason } => {
                write!(f, "malformed execution plan: {reason}")
            }
            CoreError::Machine(e) => write!(f, "machine fault: {e}"),
            CoreError::Model(e) => write!(f, "schedule does not compile: {e}"),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Machine(e) => Some(e),
            CoreError::Model(e) => Some(e),
            _ => None,
        }
    }
}

impl From<MachineError> for CoreError {
    fn from(e: MachineError) -> Self {
        CoreError::Machine(e)
    }
}

/// Schedule-parameter errors keep their executor variants
/// ([`CoreError::InvalidAlpha`], [`CoreError::InvalidLevel`]); every other
/// compile error surfaces as [`CoreError::Model`].
impl From<ModelError> for CoreError {
    fn from(e: ModelError) -> Self {
        match e {
            ModelError::InvalidAlpha(alpha) => CoreError::InvalidAlpha { alpha },
            ModelError::InvalidLevel { level, levels } => CoreError::InvalidLevel { level, levels },
            e => CoreError::Model(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = CoreError::InvalidSize {
            len: 100,
            branching: 2,
            base_chunk: 1,
        };
        assert!(e.to_string().contains("100"));
        let e = CoreError::from(MachineError::EmptyLaunch);
        assert!(std::error::Error::source(&e).is_some());
        assert!(CoreError::EmptyInput.to_string().contains("empty"));
        let e = CoreError::from(ModelError::ProblemTooSmall { n: 1, min: 2 });
        assert_eq!(
            e,
            CoreError::Model(ModelError::ProblemTooSmall { n: 1, min: 2 })
        );
        assert!(std::error::Error::source(&e).is_some());
        assert_eq!(
            CoreError::from(ModelError::InvalidAlpha(2.0)),
            CoreError::InvalidAlpha { alpha: 2.0 }
        );
        assert!(CoreError::InvalidAlpha { alpha: 0.0 }
            .to_string()
            .contains("alpha"));
        assert!(CoreError::InvalidLevel {
            level: 9,
            levels: 4
        }
        .to_string()
        .contains('9'));
    }
}
