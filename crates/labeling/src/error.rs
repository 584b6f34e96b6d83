//! Labeling errors.

use std::fmt;

/// Failures while constructing P-labels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LabelError {
    /// `(n+1)^(h+1)` does not fit in `u128`. The paper assumes a domain
    /// large enough for the instance; we surface the violation instead of
    /// silently losing containment precision.
    DomainOverflow {
        /// Number of distinct tags `n`.
        num_tags: usize,
        /// Requested digit count `H = h + 1`.
        digits: u32,
    },
    /// A path (query or node) is longer than the domain supports.
    PathTooLong {
        /// Steps in the offending path.
        len: usize,
        /// Maximum supported steps.
        max: usize,
    },
    /// A tag id outside the domain's tag range.
    TagOutOfRange {
        /// The offending dense tag index.
        tag_index: usize,
        /// Number of tags the domain was built for.
        num_tags: usize,
    },
    /// A number that is not the P-label of any node in this domain: it
    /// lies outside `[0, m)` (some digit would exceed the tag count),
    /// has a non-zero digit after a zero (a source path has no gaps),
    /// or uses all `H` digits (no room left for the `/` slot).
    NotANodeLabel {
        /// The offending number.
        plabel: u128,
        /// Which of the three conditions failed.
        reason: &'static str,
    },
}

impl fmt::Display for LabelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::DomainOverflow { num_tags, digits } => write!(
                f,
                "P-label domain overflow: ({}+1)^{} exceeds u128",
                num_tags, digits
            ),
            Self::PathTooLong { len, max } => {
                write!(f, "path of {len} steps exceeds the domain maximum of {max}")
            }
            Self::TagOutOfRange { tag_index, num_tags } => {
                write!(f, "tag index {tag_index} out of range (domain has {num_tags} tags)")
            }
            Self::NotANodeLabel { plabel, reason } => {
                write!(f, "{plabel} is not a node P-label: {reason}")
            }
        }
    }
}

impl std::error::Error for LabelError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = LabelError::PathTooLong { len: 9, max: 4 };
        assert!(e.to_string().contains('9') && e.to_string().contains('4'));
    }
}
