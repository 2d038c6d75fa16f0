//! Inference error type.

use fastbn_bayesnet::evidence::EvidenceError;

/// Why a query could not produce posteriors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InferenceError {
    /// The entered evidence has probability zero under the model, so
    /// conditional posteriors are undefined.
    ImpossibleEvidence,
    /// The evidence refers to unknown variables or out-of-range states.
    InvalidEvidence(EvidenceError),
    /// A query's target set names a variable outside the network.
    InvalidTarget {
        /// The offending variable index.
        var: usize,
        /// The network's variable count.
        num_vars: usize,
    },
    /// A virtual finding's likelihood vector does not match its
    /// variable's cardinality.
    InvalidLikelihood {
        /// The offending variable index.
        var: usize,
        /// The variable's cardinality.
        expected: usize,
        /// The likelihood vector's length.
        got: usize,
    },
    /// A virtual finding's likelihood vector has well-formed length but
    /// malformed entries (negative, non-finite, or all zero). Multiplying
    /// such a vector in would yield NaN or all-zero posteriors, so it is
    /// rejected before touching any scratch.
    MalformedLikelihood {
        /// The offending variable index.
        var: usize,
        /// What is wrong with the vector.
        defect: LikelihoodDefect,
    },
    /// A caller-provided output buffer does not hold one slot per state
    /// of the variable read into it
    /// ([`LiveSession::marginal_into`](crate::delta::LiveSession::marginal_into)).
    InvalidBuffer {
        /// The variable being read.
        var: usize,
        /// The variable's cardinality.
        expected: usize,
        /// The buffer's length.
        got: usize,
    },
}

/// Why a likelihood vector was rejected as malformed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LikelihoodDefect {
    /// Some entry is negative.
    Negative,
    /// Some entry is NaN or infinite.
    NonFinite,
    /// Every entry is zero — the virtual finding would make any state of
    /// the variable impossible.
    AllZero,
}

impl std::fmt::Display for LikelihoodDefect {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LikelihoodDefect::Negative => write!(f, "a negative entry"),
            LikelihoodDefect::NonFinite => write!(f, "a NaN or infinite entry"),
            LikelihoodDefect::AllZero => write!(f, "no positive entry"),
        }
    }
}

impl std::fmt::Display for InferenceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InferenceError::ImpossibleEvidence => {
                write!(f, "evidence has probability zero under the model")
            }
            InferenceError::InvalidEvidence(e) => write!(f, "invalid evidence: {e}"),
            InferenceError::InvalidTarget { var, num_vars } => write!(
                f,
                "target variable {var} is out of range for a network of {num_vars} variables"
            ),
            InferenceError::InvalidLikelihood { var, expected, got } => write!(
                f,
                "likelihood for variable {var} has {got} entries, expected {expected} \
                 (the variable's cardinality)"
            ),
            InferenceError::MalformedLikelihood { var, defect } => write!(
                f,
                "likelihood for variable {var} is malformed: it has {defect}"
            ),
            InferenceError::InvalidBuffer { var, expected, got } => write!(
                f,
                "output buffer for variable {var} has {got} slots, expected {expected} \
                 (the variable's cardinality)"
            ),
        }
    }
}

impl std::error::Error for InferenceError {}

impl From<EvidenceError> for InferenceError {
    fn from(e: EvidenceError) -> Self {
        InferenceError::InvalidEvidence(e)
    }
}
