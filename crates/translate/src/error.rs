//! Translation errors.

use std::fmt;

/// Why a query could not be translated by a given strategy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TranslateError {
    /// Split/Push-up met a `*` step: wildcards need schema information
    /// (§4.1.3) — use Unfold or the D-labeling baseline.
    WildcardNeedsSchema,
    /// A twig's unfolding multiplied past the safety cap of rewritings
    /// (many bindings at each of several branching points).
    TooManyUnfoldings {
        /// The cap that was exceeded.
        cap: usize,
    },
}

impl fmt::Display for TranslateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::WildcardNeedsSchema => {
                write!(f, "wildcard steps require schema information (use Unfold)")
            }
            Self::TooManyUnfoldings { cap } => {
                write!(f, "descendant-axis unfolding exceeded the cap of {cap} rewritings")
            }
        }
    }
}

impl std::error::Error for TranslateError {}
