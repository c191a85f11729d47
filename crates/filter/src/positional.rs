//! Positional (prefix-tree) queries — the paper's §4.3 extension: "to
//! support prefix trees, a small field is added to the hash table entry
//! specifying the column each token should appear at, and \[the\] tokenizer
//! modified to also emit an increasing column counter per token. This does
//! not change the performance datapath at all."
//!
//! A positional query is still a union of intersection sets, but each term
//! may carry an expected zero-based column. The natural source of such
//! queries is a prefix-tree template's column pattern
//! (`[Some("kernel:"), None, Some("at"), ...]`).

use crate::compile::{CompiledQuery, FilterParams};
use crate::error::QueryCompileError;
use crate::table::CuckooTable;
use crate::Bitmap;

/// One positional term: token, optional expected column, optional negation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PositionalTerm {
    token: String,
    column: Option<u32>,
    negated: bool,
}

impl PositionalTerm {
    /// A token required to appear at `column`.
    pub fn at(token: impl Into<String>, column: u32) -> Self {
        PositionalTerm {
            token: token.into(),
            column: Some(column),
            negated: false,
        }
    }

    /// A token required to appear anywhere in the line.
    pub fn anywhere(token: impl Into<String>) -> Self {
        PositionalTerm {
            token: token.into(),
            column: None,
            negated: false,
        }
    }

    /// A token that must not appear at `column` (or anywhere when `column`
    /// is `None`).
    pub fn negative(token: impl Into<String>, column: Option<u32>) -> Self {
        PositionalTerm {
            token: token.into(),
            column,
            negated: true,
        }
    }

    /// The token text.
    pub fn token(&self) -> &str {
        &self.token
    }

    /// The expected column, if constrained.
    pub fn column(&self) -> Option<u32> {
        self.column
    }

    /// Whether the term is negated.
    pub fn is_negated(&self) -> bool {
        self.negated
    }
}

/// A union of intersection sets of positional terms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PositionalQuery {
    sets: Vec<Vec<PositionalTerm>>,
}

impl PositionalQuery {
    /// Builds a query from intersection sets.
    ///
    /// # Errors
    ///
    /// Returns [`QueryCompileError::TooManySets`]-style validation lazily at
    /// compile time; construction only rejects empty shapes.
    pub fn new(sets: Vec<Vec<PositionalTerm>>) -> Result<Self, PositionalFormError> {
        if sets.is_empty() {
            return Err(PositionalFormError::EmptyQuery);
        }
        if sets.iter().any(Vec::is_empty) {
            return Err(PositionalFormError::EmptySet);
        }
        Ok(PositionalQuery { sets })
    }

    /// Builds a single-set query from a prefix-tree template's column
    /// pattern: each fixed column becomes a column-constrained term,
    /// wildcards are skipped.
    ///
    /// Returns `None` when the pattern is all wildcards (nothing to match).
    pub fn from_columns(columns: &[Option<String>]) -> Option<Self> {
        let terms: Vec<PositionalTerm> = columns
            .iter()
            .enumerate()
            .filter_map(|(i, c)| {
                c.as_ref()
                    .map(|tok| PositionalTerm::at(tok.clone(), i as u32))
            })
            .collect();
        if terms.is_empty() {
            None
        } else {
            Some(PositionalQuery { sets: vec![terms] })
        }
    }

    /// The intersection sets.
    pub fn sets(&self) -> &[Vec<PositionalTerm>] {
        &self.sets
    }

    /// Joins two positional queries with `OR`.
    #[must_use]
    pub fn or(mut self, other: PositionalQuery) -> PositionalQuery {
        self.sets.extend(other.sets);
        self
    }

    /// Reference evaluator over a whitespace-tokenized line.
    pub fn matches_line(&self, line: &str) -> bool {
        let tokens: Vec<&str> = line.split_ascii_whitespace().collect();
        self.sets.iter().any(|set| {
            set.iter().all(|t| {
                let present = match t.column {
                    Some(c) => tokens.get(c as usize) == Some(&t.token.as_str()),
                    None => tokens.contains(&t.token.as_str()),
                };
                present != t.negated
            })
        })
    }
}

/// Structural error building a [`PositionalQuery`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PositionalFormError {
    /// No intersection sets.
    EmptyQuery,
    /// An intersection set had no terms.
    EmptySet,
}

impl std::fmt::Display for PositionalFormError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PositionalFormError::EmptyQuery => write!(f, "positional query has no sets"),
            PositionalFormError::EmptySet => write!(f, "positional set has no terms"),
        }
    }
}

impl std::error::Error for PositionalFormError {}

impl CompiledQuery {
    /// Compiles a positional query onto the filter. Identical datapath to
    /// [`CompiledQuery::compile`]; entries additionally carry their
    /// expected column.
    ///
    /// # Errors
    ///
    /// Everything [`CompiledQuery::compile`] can return, plus
    /// [`QueryCompileError::ColumnConflict`] when one token is required at
    /// two different columns.
    pub fn compile_positional(
        query: &PositionalQuery,
        params: FilterParams,
    ) -> Result<Self, QueryCompileError> {
        if query.sets().len() > params.flag_pairs {
            return Err(QueryCompileError::TooManySets {
                got: query.sets().len(),
                max: params.flag_pairs,
            });
        }
        let distinct: std::collections::HashSet<&str> = query
            .sets()
            .iter()
            .flat_map(|s| s.iter().map(PositionalTerm::token))
            .collect();
        let max_tokens = (params.rows as f64 * params.max_load) as usize;
        if distinct.len() > max_tokens {
            return Err(QueryCompileError::TooManyTokens {
                got: distinct.len(),
                max: max_tokens,
            });
        }

        let mut table = CuckooTable::new(params.rows, params.word_bytes);
        for (i, set) in query.sets().iter().enumerate() {
            for term in set {
                table.insert_full(term.token().as_bytes(), i, term.is_negated(), term.column())?;
            }
        }
        let mut expected = vec![Bitmap::new(params.rows); query.sets().len()];
        for (i, set) in query.sets().iter().enumerate() {
            for term in set.iter().filter(|t| !t.is_negated()) {
                let (row, _) = table
                    .lookup(term.token().as_bytes())
                    .expect("inserted token must be present");
                expected[i].set(row);
            }
        }
        Ok(CompiledQuery::from_parts(table, expected, params))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::HashFilter;

    fn eval(cq: &CompiledQuery, line: &str) -> bool {
        let mut f = HashFilter::new(cq);
        f.evaluate_line(line.split_ascii_whitespace().map(str::as_bytes))
            .keep
    }

    #[test]
    fn column_constrained_term_matches_only_at_its_column() {
        let q = PositionalQuery::new(vec![vec![PositionalTerm::at("kernel:", 0)]]).unwrap();
        let cq = CompiledQuery::compile_positional(&q, FilterParams::default()).unwrap();
        assert!(eval(&cq, "kernel: oops happened"));
        assert!(!eval(&cq, "daemon kernel: oops"));
    }

    #[test]
    fn from_columns_skips_wildcards() {
        let cols = vec![
            Some("sshd:".to_string()),
            None,
            Some("from".to_string()),
            None,
        ];
        let q = PositionalQuery::from_columns(&cols).unwrap();
        assert_eq!(q.sets()[0].len(), 2);
        let cq = CompiledQuery::compile_positional(&q, FilterParams::default()).unwrap();
        assert!(eval(&cq, "sshd: login from host-3"));
        assert!(!eval(&cq, "sshd: from login host-3"), "column mismatch");
        assert!(PositionalQuery::from_columns(&[None, None]).is_none());
    }

    #[test]
    fn anywhere_terms_mix_with_positional() {
        let q = PositionalQuery::new(vec![vec![
            PositionalTerm::at("pbs_mom:", 0),
            PositionalTerm::anywhere("terminated"),
        ]])
        .unwrap();
        let cq = CompiledQuery::compile_positional(&q, FilterParams::default()).unwrap();
        assert!(eval(&cq, "pbs_mom: task 3 terminated"));
        assert!(!eval(&cq, "pbs_mom: task 3 started"));
        assert!(!eval(&cq, "svc pbs_mom: terminated"));
    }

    #[test]
    fn negated_positional_term() {
        let q = PositionalQuery::new(vec![vec![
            PositionalTerm::anywhere("job"),
            PositionalTerm::negative("FAILED", Some(2)),
        ]])
        .unwrap();
        let cq = CompiledQuery::compile_positional(&q, FilterParams::default()).unwrap();
        assert!(eval(&cq, "job 17 ok"));
        assert!(!eval(&cq, "job 17 FAILED"));
        // FAILED at a different column does not poison the set.
        assert!(eval(&cq, "job FAILED retried"));
    }

    #[test]
    fn column_conflict_is_a_compile_error() {
        let q = PositionalQuery::new(vec![
            vec![PositionalTerm::at("x", 0)],
            vec![PositionalTerm::at("x", 3)],
        ])
        .unwrap();
        match CompiledQuery::compile_positional(&q, FilterParams::default()) {
            Err(QueryCompileError::ColumnConflict { token }) => assert_eq!(token, "x"),
            other => panic!("expected ColumnConflict, got {other:?}"),
        }
    }

    #[test]
    fn union_of_positional_sets() {
        let a = PositionalQuery::new(vec![vec![PositionalTerm::at("alpha", 0)]]).unwrap();
        let b = PositionalQuery::new(vec![vec![PositionalTerm::at("beta", 1)]]).unwrap();
        let q = a.or(b);
        let cq = CompiledQuery::compile_positional(&q, FilterParams::default()).unwrap();
        assert!(eval(&cq, "alpha anything"));
        assert!(eval(&cq, "x beta"));
        assert!(!eval(&cq, "beta x"));
    }

    #[test]
    fn reference_evaluator_agrees_with_hardware_model() {
        let q = PositionalQuery::new(vec![
            vec![
                PositionalTerm::at("svc", 0),
                PositionalTerm::anywhere("ok"),
                PositionalTerm::negative("test", None),
            ],
            vec![PositionalTerm::at("warn", 1)],
        ])
        .unwrap();
        let cq = CompiledQuery::compile_positional(&q, FilterParams::default()).unwrap();
        for line in [
            "svc up ok",
            "svc ok",
            "svc ok test",
            "node warn thing",
            "warn node",
            "svc down",
            "",
        ] {
            assert_eq!(eval(&cq, line), q.matches_line(line), "line {line:?}");
        }
    }

    #[test]
    fn empty_shapes_rejected() {
        assert_eq!(
            PositionalQuery::new(vec![]),
            Err(PositionalFormError::EmptyQuery)
        );
        assert_eq!(
            PositionalQuery::new(vec![vec![]]),
            Err(PositionalFormError::EmptySet)
        );
    }
}
