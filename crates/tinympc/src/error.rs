use std::fmt;

/// Errors from problem construction and solving.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Error {
    /// A dimension in the problem definition is inconsistent.
    BadProblem {
        /// Human-readable description of the inconsistency.
        reason: String,
    },
    /// The Riccati cache could not be computed.
    Cache(matlib::Error),
    /// A linear-algebra operation failed during solving (indicates an
    /// internal inconsistency).
    Numeric(matlib::Error),
    /// A generated micro-op trace failed static verification — the
    /// back-end would execute a stream with hazards, out-of-bounds
    /// accesses, or malformed commands (e.g. after a fault corrupted it).
    InvalidTrace {
        /// Back-end whose trace failed verification.
        backend: String,
        /// Rendered verifier report.
        report: String,
    },
    /// A solver invariant was violated mid-solve — e.g. the pinned initial
    /// state `x[0]` changed underneath the solver, which only a memory
    /// fault can cause.
    CorruptedWorkspace {
        /// Description of the violated invariant.
        what: String,
    },
    /// A sweep work item panicked on every attempt of its retry budget.
    /// The surrounding batch still completes: the failed item surfaces
    /// as this error in its result slot (and as a `FAILED` row in the
    /// rendered report) instead of aborting the process.
    ShardFailed {
        /// Index of the work item within its batch.
        item: usize,
        /// Attempts made before giving up (the full retry budget).
        attempts: u32,
        /// Stringified panic payload from the last attempt.
        payload: String,
    },
    /// A fault-injection or chaos campaign could not run at all — the
    /// harness environment is broken (e.g. a fault-free reference solve
    /// failed), as opposed to an injected fault escaping detection.
    Campaign {
        /// Description of the environment failure.
        what: String,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::BadProblem { reason } => write!(f, "invalid problem: {reason}"),
            Error::Cache(e) => write!(f, "failed to compute the Riccati cache: {e}"),
            Error::Numeric(e) => write!(f, "numeric failure while solving: {e}"),
            Error::InvalidTrace { backend, report } => {
                write!(f, "invalid micro-op trace on {backend}:\n{report}")
            }
            Error::CorruptedWorkspace { what } => {
                write!(f, "solver workspace corrupted: {what}")
            }
            Error::ShardFailed {
                item,
                attempts,
                payload,
            } => {
                write!(
                    f,
                    "sweep work item {item} failed after {attempts} attempt(s): {payload}"
                )
            }
            Error::Campaign { what } => {
                write!(f, "campaign harness failure: {what}")
            }
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Cache(e) | Error::Numeric(e) => Some(e),
            Error::BadProblem { .. }
            | Error::InvalidTrace { .. }
            | Error::CorruptedWorkspace { .. }
            | Error::ShardFailed { .. }
            | Error::Campaign { .. } => None,
        }
    }
}

impl From<matlib::Error> for Error {
    fn from(e: matlib::Error) -> Self {
        Error::Numeric(e)
    }
}
