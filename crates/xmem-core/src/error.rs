use std::error::Error;
use std::fmt;

/// Failure of the estimation pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EstimateError {
    /// The trace contains no memory instants to analyze.
    EmptyTrace,
    /// The trace lacks iteration markers (`ProfilerStep#k`), so phases
    /// cannot be delimited.
    MissingIterations,
    /// The query was cancelled before a result was produced (async front
    /// end: `PoolFuture::cancel`).
    Cancelled,
    /// The query's deadline elapsed before a result was produced (async
    /// front end: per-query deadlines).
    DeadlineExceeded,
    /// The named device is not registered with the service's device
    /// registry (multi-device front end: matrix and placement queries
    /// address simulation targets by name).
    UnknownDevice(String),
    /// The estimation job failed internally — a panic unwound out of the
    /// pipeline and was caught by the worker pool, which settled the query
    /// with the panic payload instead of stranding the caller.
    Internal(String),
}

impl fmt::Display for EstimateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EstimateError::EmptyTrace => write!(f, "trace contains no memory events"),
            EstimateError::MissingIterations => {
                write!(f, "trace contains no ProfilerStep iteration markers")
            }
            EstimateError::Cancelled => write!(f, "estimation query was cancelled"),
            EstimateError::DeadlineExceeded => {
                write!(f, "estimation query missed its deadline")
            }
            EstimateError::UnknownDevice(name) => {
                write!(f, "device `{name}` is not in the device registry")
            }
            EstimateError::Internal(message) => {
                write!(f, "estimation job failed internally: {message}")
            }
        }
    }
}

impl Error for EstimateError {}
