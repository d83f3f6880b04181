//! Typed errors of the query layer.
//!
//! Historically the crate signalled misuse with panics (`assert!` inside
//! the family internals) and invariant violations with `Result<(), String>`.
//! The typed front door ([`crate::Query`] / [`crate::ConnService`]) reports
//! both through this one [`enum@Error`] instead: malformed requests are
//! rejected by [`crate::QueryBuilder::build`] *before* they reach an algorithm,
//! and the `check_cover` validators return structured cover violations.

use std::fmt;

use conn_geom::Interval;

/// Everything the query layer can report going wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Error {
    /// The request is malformed and was rejected up front: a NaN/infinite
    /// coordinate, a degenerate (zero-length) query segment, `k = 0` or a
    /// negative radius.
    InvalidQuery(String),
    /// A result list violates its coverage invariant (gaps, zero-width
    /// tuples, or a cover that does not end at the query length).
    CoverViolation(String),
    /// The admission queue is full: backpressure rejected the submission
    /// before it reached the service. The request itself is well-formed —
    /// resubmitting after the queue drains is expected to succeed.
    Overloaded(String),
    /// An admitted query was dropped before it was answered: the worker
    /// running it panicked, or the admission queue holding it was dropped.
    Internal(String),
}

impl Error {
    /// Builds an [`Error::InvalidQuery`].
    pub fn invalid_query(reason: impl Into<String>) -> Self {
        Error::InvalidQuery(reason.into())
    }

    /// Builds an [`Error::CoverViolation`].
    pub fn cover_violation(reason: impl Into<String>) -> Self {
        Error::CoverViolation(reason.into())
    }

    /// Builds an [`Error::Overloaded`].
    pub fn overloaded(reason: impl Into<String>) -> Self {
        Error::Overloaded(reason.into())
    }

    /// The human-readable reason, whatever the variant.
    pub fn reason(&self) -> &str {
        match self {
            Error::InvalidQuery(r)
            | Error::CoverViolation(r)
            | Error::Overloaded(r)
            | Error::Internal(r) => r,
        }
    }

    /// True for [`Error::InvalidQuery`].
    pub fn is_invalid_query(&self) -> bool {
        matches!(self, Error::InvalidQuery(_))
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::InvalidQuery(r) => write!(f, "invalid query: {r}"),
            Error::CoverViolation(r) => write!(f, "cover violation: {r}"),
            Error::Overloaded(r) => write!(f, "overloaded: {r}"),
            Error::Internal(r) => write!(f, "internal error: {r}"),
        }
    }
}

impl std::error::Error for Error {}

/// The cover check of every result list: `intervals`, in order, run from 0
/// to `len` with no gap or overlap wider than 1e-6.
pub(crate) fn check_cover(
    intervals: impl IntoIterator<Item = Interval>,
    len: f64,
) -> Result<(), Error> {
    let mut cursor = 0.0;
    for iv in intervals {
        if (iv.lo - cursor).abs() > 1e-6 {
            return Err(Error::cover_violation(format!(
                "gap at {cursor}: next starts {}",
                iv.lo
            )));
        }
        cursor = iv.hi;
    }
    if (cursor - len).abs() > 1e-6 {
        return Err(Error::cover_violation(format!(
            "cover ends at {cursor} != {len}"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_carries_the_reason() {
        let e = Error::invalid_query("k must be at least 1");
        assert!(e.is_invalid_query());
        assert_eq!(e.reason(), "k must be at least 1");
        assert_eq!(e.to_string(), "invalid query: k must be at least 1");
        let c = Error::cover_violation("gap at 3");
        assert!(!c.is_invalid_query());
        assert_eq!(c.to_string(), "cover violation: gap at 3");
    }
}
