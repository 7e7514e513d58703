//! The workspace-wide error taxonomy.
//!
//! Every fallible entry point of the public API returns [`Error`]: one
//! enum whose variants wrap the substrate crates' typed errors
//! ([`DecodePacketError`], [`ReconstructError`], [`ValidateProgramError`],
//! [`JsonError`], [`SimConfigError`]) plus the failures that originate
//! here — configuration validation ([`ConfigError`]) and isolated harness
//! job failures ([`JobError`]). Source chains are preserved, so
//! `std::error::Error::source` walks from a pipeline failure down to the
//! packet byte that caused it.

use ripple_json::JsonError;
use ripple_program::ValidateProgramError;
use ripple_sim::{SimConfigError, StreamLimitError};
use ripple_trace::{DecodePacketError, ReconstructError};

/// Any failure a Ripple pipeline entry point can report.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// A trace packet failed to decode.
    Decode(DecodePacketError),
    /// A packet stream failed to reconstruct against the CFG.
    Reconstruct(ReconstructError),
    /// A program failed structural validation.
    Program(ValidateProgramError),
    /// A configuration was rejected by validation.
    Config(ConfigError),
    /// An isolated harness job panicked.
    Job(JobError),
    /// A JSON document failed to parse or had the wrong shape.
    Json(JsonError),
    /// A trace produced more cache requests than the simulator's columnar
    /// capture can index (`u32` positions), detected at record time.
    StreamLimit(StreamLimitError),
    /// An [`EvalBaseline`] was used to evaluate a different program,
    /// layout or sim config than it was built for; the field names which.
    ///
    /// [`EvalBaseline`]: crate::EvalBaseline
    BaselineMismatch(&'static str),
    /// An internal invariant broke (always a bug; the message says which).
    Internal(String),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Decode(e) => write!(f, "trace packet decode failed: {e}"),
            Error::Reconstruct(e) => write!(f, "trace reconstruction failed: {e}"),
            Error::Program(e) => write!(f, "program validation failed: {e}"),
            Error::Config(e) => write!(f, "invalid configuration: {e}"),
            Error::Job(e) => write!(f, "{e}"),
            Error::Json(e) => write!(f, "{e}"),
            Error::StreamLimit(e) => write!(f, "trace too large to simulate: {e}"),
            Error::BaselineMismatch(what) => {
                write!(f, "evaluation baseline was built for a different {what}")
            }
            Error::Internal(msg) => write!(f, "internal invariant violated: {msg}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Decode(e) => Some(e),
            Error::Reconstruct(e) => Some(e),
            Error::Program(e) => Some(e),
            Error::Config(e) => Some(e),
            Error::Job(_) | Error::BaselineMismatch(_) | Error::Internal(_) => None,
            Error::Json(e) => Some(e),
            Error::StreamLimit(e) => Some(e),
        }
    }
}

impl From<DecodePacketError> for Error {
    fn from(e: DecodePacketError) -> Self {
        Error::Decode(e)
    }
}

impl From<ReconstructError> for Error {
    fn from(e: ReconstructError) -> Self {
        Error::Reconstruct(e)
    }
}

impl From<ValidateProgramError> for Error {
    fn from(e: ValidateProgramError) -> Self {
        Error::Program(e)
    }
}

impl From<ConfigError> for Error {
    fn from(e: ConfigError) -> Self {
        Error::Config(e)
    }
}

impl From<SimConfigError> for Error {
    fn from(e: SimConfigError) -> Self {
        Error::Config(ConfigError::Sim(e))
    }
}

impl From<JobError> for Error {
    fn from(e: JobError) -> Self {
        Error::Job(e)
    }
}

impl From<JsonError> for Error {
    fn from(e: JsonError) -> Self {
        Error::Json(e)
    }
}

impl From<StreamLimitError> for Error {
    fn from(e: StreamLimitError) -> Self {
        Error::StreamLimit(e)
    }
}

/// Why a [`RippleConfig`] was rejected.
///
/// [`RippleConfig`]: crate::RippleConfig
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// A floating-point knob was NaN or infinite.
    NotFinite {
        /// The offending field.
        field: &'static str,
    },
    /// A knob fell outside its documented range.
    OutOfRange {
        /// The offending field.
        field: &'static str,
        /// The rejected value.
        value: f64,
        /// Inclusive lower bound.
        min: f64,
        /// Inclusive upper bound.
        max: f64,
    },
    /// The embedded simulator configuration was rejected.
    Sim(SimConfigError),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::NotFinite { field } => {
                write!(f, "config field `{field}` must be finite")
            }
            ConfigError::OutOfRange {
                field,
                value,
                min,
                max,
            } => write!(f, "config field `{field}` = {value} outside [{min}, {max}]"),
            ConfigError::Sim(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ConfigError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ConfigError::Sim(e) => Some(e),
            _ => None,
        }
    }
}

/// An isolated harness job failed: the job panicked and the panic was
/// contained by the harness instead of sinking the whole batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobError {
    /// The batch scope the job belonged to (e.g. `"evaluate"`, `"sweep"`).
    pub scope: String,
    /// Index of the failed job within its batch.
    pub index: usize,
    /// The panic payload, rendered as text (`"<non-string panic>"` when
    /// the payload was not a string).
    pub panic_message: String,
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "job {} of batch `{}` panicked: {}",
            self.index, self.scope, self.panic_message
        )
    }
}

impl std::error::Error for JobError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sources_chain_to_the_substrate_error() {
        use std::error::Error as _;
        let e = Error::from(ReconstructError::MissingSync);
        assert!(e.source().is_some());
        let e = Error::from(SimConfigError::NotFinite { field: "base_cpi" });
        let cfg = e.source().expect("config source");
        assert!(cfg.source().is_some(), "Sim wraps the sim error");
    }

    #[test]
    fn stream_limit_wraps_the_sim_error() {
        use std::error::Error as _;
        let e = Error::from(StreamLimitError {
            records: u64::from(u32::MAX),
        });
        assert!(e.to_string().contains("trace too large"));
        assert!(e.source().is_some());
    }

    #[test]
    fn job_error_display_names_scope_job_and_panic() {
        let e = JobError {
            scope: "evaluate".into(),
            index: 3,
            panic_message: "boom".into(),
        };
        assert_eq!(e.to_string(), "job 3 of batch `evaluate` panicked: boom");
    }
}
