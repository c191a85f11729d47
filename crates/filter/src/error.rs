use std::error::Error;
use std::fmt;

/// Error compiling a query onto the hardware filter.
///
/// The paper notes that queries whose cuckoo placement fails "cannot be
/// offloaded to our accelerator and must fall back to conventional software
/// processing" — callers should treat these errors as a fallback signal, not
/// a fatal condition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryCompileError {
    /// The query has more intersection sets than the table has flag pairs
    /// (prototype: 8).
    TooManySets {
        /// Sets in the query.
        got: usize,
        /// Flag pairs available.
        max: usize,
    },
    /// The query mentions more distinct tokens than the configured load
    /// limit allows (cuckoo hashing is reliable below ~0.5 load).
    TooManyTokens {
        /// Distinct tokens in the query.
        got: usize,
        /// Maximum insertable under the load limit.
        max: usize,
    },
    /// Cuckoo insertion entered an eviction loop; placement failed.
    PlacementFailed {
        /// The token whose insertion could not be placed.
        token: String,
    },
    /// A positional query requires the same token at two different columns;
    /// the hash entry's single column field cannot encode that (§4.3).
    ColumnConflict {
        /// The token with conflicting column constraints.
        token: String,
    },
}

impl fmt::Display for QueryCompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryCompileError::TooManySets { got, max } => {
                write!(
                    f,
                    "query has {got} intersection sets but the filter supports {max}"
                )
            }
            QueryCompileError::TooManyTokens { got, max } => {
                write!(
                    f,
                    "query has {got} distinct tokens but the filter supports {max}"
                )
            }
            QueryCompileError::PlacementFailed { token } => {
                write!(f, "cuckoo placement failed while inserting token {token:?}")
            }
            QueryCompileError::ColumnConflict { token } => {
                write!(f, "token {token:?} is constrained to two different columns")
            }
        }
    }
}

impl Error for QueryCompileError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_descriptive() {
        let e = QueryCompileError::TooManySets { got: 9, max: 8 };
        assert!(e.to_string().contains('9'));
        assert!(e.to_string().contains('8'));
        let e = QueryCompileError::PlacementFailed {
            token: "abc".into(),
        };
        assert!(e.to_string().contains("abc"));
    }

    #[test]
    fn error_is_send_sync() {
        fn check<T: Send + Sync + Error>() {}
        check::<QueryCompileError>();
    }
}
