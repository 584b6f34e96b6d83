//! Unified error type for the system façade.

use std::fmt;

/// Anything that can go wrong between loading XML and running a query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BlasError {
    /// XML is not well formed.
    Parse(blas_xml::ParseError),
    /// The document does not fit the P-label domain.
    Label(blas_labeling::LabelError),
    /// The query string is not a tree query.
    XPath(blas_xpath::XPathError),
    /// The chosen translator cannot handle the query.
    Translate(blas_translate::TranslateError),
    /// A snapshot could not be decoded or was internally inconsistent.
    Snapshot(String),
    /// A snapshot file could not be read or mapped.
    Io(String),
    /// An execution configuration could not be parsed (e.g. an
    /// unknown engine name passed to `EngineChoice::from_str`).
    Config(String),
    /// A mutation was rejected: unknown target node, a tag outside the
    /// fixed P-label domain, an insert off the rightmost spine, or an
    /// inconsistent edit script.
    Mutation(String),
}

impl fmt::Display for BlasError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Parse(e) => write!(f, "{e}"),
            Self::Label(e) => write!(f, "{e}"),
            Self::XPath(e) => write!(f, "{e}"),
            Self::Translate(e) => write!(f, "{e}"),
            Self::Snapshot(msg) => write!(f, "snapshot error: {msg}"),
            Self::Io(msg) => write!(f, "i/o error: {msg}"),
            Self::Config(msg) => write!(f, "configuration error: {msg}"),
            Self::Mutation(msg) => write!(f, "mutation error: {msg}"),
        }
    }
}

impl std::error::Error for BlasError {}

impl From<blas_xml::ParseError> for BlasError {
    fn from(e: blas_xml::ParseError) -> Self {
        Self::Parse(e)
    }
}

impl From<blas_labeling::LabelError> for BlasError {
    fn from(e: blas_labeling::LabelError) -> Self {
        Self::Label(e)
    }
}

impl From<blas_xpath::XPathError> for BlasError {
    fn from(e: blas_xpath::XPathError) -> Self {
        Self::XPath(e)
    }
}

impl From<blas_translate::TranslateError> for BlasError {
    fn from(e: blas_translate::TranslateError) -> Self {
        Self::Translate(e)
    }
}
