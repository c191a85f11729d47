use mithrilog_query::Query;

use crate::bitmap::Bitmap;
use crate::error::QueryCompileError;
use crate::table::CuckooTable;

/// Most distinct anchors a query may have and still take the line skim in
/// front of the fused walk ([`CompiledQuery::anchors`]). Each anchor adds
/// one load and a lane test to every eight-byte skim step, and the more
/// anchors, the more lines hold one and are walked anyway. Filter time per
/// 10 KB page against the plain walk, cap 2 → cap 3, best of 15 passes over
/// 2 MB of generated text on one core of a 2-vCPU x86-64 VM: Bgl2
/// `error OR failed OR FATAL` 1.00 → 1.16–1.21, `zzz OR qqq OR yyy` (no
/// hits) 0.98 → 1.08; Liberty2 three rare node names 0.97 → 0.87; one- and
/// two-anchor queries unchanged. A third anchor makes a step dearer than
/// walking a Bgl2 line, so the cap stays at two.
pub(crate) const MAX_ANCHORS: usize = 2;

/// Hardware parameters of the filter (paper §4.2.2 prototype values).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FilterParams {
    /// Hash table rows (prototype: 256; "trivial to make much larger").
    pub rows: usize,
    /// Flag pairs per entry = maximum intersection sets per query
    /// (prototype: 8).
    pub flag_pairs: usize,
    /// Datapath word width in bytes (prototype: 16).
    pub word_bytes: usize,
    /// Maximum table load accepted at compile time. Cuckoo placement is
    /// near-certain below 0.5; the prototype over-provisions accordingly.
    pub max_load: f64,
}

impl Default for FilterParams {
    fn default() -> Self {
        FilterParams {
            rows: 256,
            flag_pairs: 8,
            word_bytes: 16,
            max_load: 0.5,
        }
    }
}

/// A query compiled onto the cuckoo-hash filter: the populated table plus
/// one expected bitmap per intersection set (paper Figure 6).
///
/// # Example
///
/// ```
/// use mithrilog_filter::{CompiledQuery, FilterParams};
/// use mithrilog_query::parse;
///
/// let q = parse("alpha AND beta OR gamma")?;
/// let c = CompiledQuery::compile(&q, FilterParams::default())?;
/// assert_eq!(c.set_count(), 2);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct CompiledQuery {
    table: CuckooTable,
    expected: Vec<Bitmap>,
    params: FilterParams,
    anchors: Vec<Vec<u8>>,
}

impl CompiledQuery {
    /// Compiles a union-of-intersections query into hash tables and bitmaps.
    ///
    /// Contradictory intersection sets (containing both `x` and `¬x`) can
    /// never match any line, and the hardware flag encoding cannot express
    /// them; they are dropped here, which preserves semantics exactly.
    ///
    /// # Errors
    ///
    /// * [`QueryCompileError::TooManySets`] — more sets than flag pairs.
    /// * [`QueryCompileError::TooManyTokens`] — distinct tokens exceed the
    ///   load limit.
    /// * [`QueryCompileError::PlacementFailed`] — cuckoo eviction looped.
    ///
    /// All of these mean "fall back to software evaluation", mirroring the
    /// paper.
    pub fn compile(query: &Query, params: FilterParams) -> Result<Self, QueryCompileError> {
        let sets: Vec<_> = query
            .sets()
            .iter()
            .filter(|s| !s.is_contradictory())
            .collect();
        if sets.len() > params.flag_pairs {
            return Err(QueryCompileError::TooManySets {
                got: sets.len(),
                max: params.flag_pairs,
            });
        }
        let distinct: std::collections::HashSet<&str> = sets
            .iter()
            .flat_map(|s| s.terms().iter().map(|t| t.token()))
            .collect();
        let max_tokens = (params.rows as f64 * params.max_load) as usize;
        if distinct.len() > max_tokens {
            return Err(QueryCompileError::TooManyTokens {
                got: distinct.len(),
                max: max_tokens,
            });
        }

        let mut table = CuckooTable::new(params.rows, params.word_bytes);
        for (i, set) in sets.iter().enumerate() {
            for term in set.terms() {
                table.insert(term.token().as_bytes(), i, term.is_negated())?;
            }
        }

        // Expected bitmaps are computed after all insertions because cuckoo
        // evictions may move rows; lookup returns the final placement.
        let mut expected = vec![Bitmap::new(params.rows); sets.len()];
        for (i, set) in sets.iter().enumerate() {
            for term in set.positive_terms() {
                let (row, _) = table
                    .lookup(term.token().as_bytes())
                    .expect("inserted token must be present");
                expected[i].set(row);
            }
        }

        Ok(Self::from_parts(table, expected, params))
    }

    /// The populated cuckoo table.
    pub fn table(&self) -> &CuckooTable {
        &self.table
    }

    /// The expected bitmap of intersection set `i`.
    pub fn expected(&self, i: usize) -> &Bitmap {
        &self.expected[i]
    }

    /// Number of (non-contradictory) intersection sets compiled.
    pub fn set_count(&self) -> usize {
        self.expected.len()
    }

    /// The hardware parameters used for compilation.
    pub fn params(&self) -> &FilterParams {
        &self.params
    }

    /// One positive term per set, chosen so that a line holding none of
    /// them as a whole token can satisfy no set: the line skim of
    /// [`FilterPipeline`](crate::FilterPipeline) drops such lines without
    /// tokenising them. Empty — every line is walked — when some set has no
    /// positive term (its untouched verdict keeps lines), when no set
    /// survived compilation, or when the sets need more than two distinct
    /// anchors (`MAX_ANCHORS`).
    pub fn anchors(&self) -> &[Vec<u8>] {
        &self.anchors
    }

    /// Assembles a compiled query from a populated table and expected
    /// bitmaps, and picks its [`CompiledQuery::anchors`].
    pub(crate) fn from_parts(
        table: CuckooTable,
        expected: Vec<Bitmap>,
        params: FilterParams,
    ) -> Self {
        let anchors = choose_anchors(&table, &expected);
        CompiledQuery {
            table,
            expected,
            params,
            anchors,
        }
    }
}

/// Each set's anchor is its longest positive term (ties: the smaller
/// bytes), read back from the rows of its expected bitmap, so the choice
/// sees exactly the sets and terms the table encodes.
fn choose_anchors(table: &CuckooTable, expected: &[Bitmap]) -> Vec<Vec<u8>> {
    let mut anchors: Vec<Vec<u8>> = Vec::new();
    for bitmap in expected {
        let longest = bitmap
            .ones()
            .filter_map(|row| table.token(row))
            .max_by(|a, b| a.len().cmp(&b.len()).then_with(|| b.cmp(a)));
        let Some(anchor) = longest else {
            return Vec::new(); // an all-negative set keeps untouched lines
        };
        if !anchors.contains(&anchor) {
            anchors.push(anchor);
        }
        if anchors.len() > MAX_ANCHORS {
            return Vec::new();
        }
    }
    anchors
}

#[cfg(test)]
mod tests {
    use super::*;
    use mithrilog_query::{parse, IntersectionSet, Term};

    #[test]
    fn compile_simple_query() {
        let q = parse("A AND B").unwrap();
        let c = CompiledQuery::compile(&q, FilterParams::default()).unwrap();
        assert_eq!(c.set_count(), 1);
        assert_eq!(c.table().occupied(), 2);
        assert_eq!(c.expected(0).count_ones(), 2);
    }

    #[test]
    fn negative_terms_not_in_expected_bitmap() {
        let q = parse("A AND NOT B").unwrap();
        let c = CompiledQuery::compile(&q, FilterParams::default()).unwrap();
        assert_eq!(c.expected(0).count_ones(), 1);
        assert_eq!(c.table().occupied(), 2, "negated token still stored");
    }

    #[test]
    fn too_many_sets_rejected() {
        let sets: Vec<IntersectionSet> = (0..9)
            .map(|i| IntersectionSet::of_tokens([format!("t{i}")]))
            .collect();
        let q = Query::try_new(sets).unwrap();
        match CompiledQuery::compile(&q, FilterParams::default()) {
            Err(QueryCompileError::TooManySets { got: 9, max: 8 }) => {}
            other => panic!("expected TooManySets, got {other:?}"),
        }
    }

    #[test]
    fn too_many_tokens_rejected() {
        let tokens: Vec<String> = (0..200).map(|i| format!("t{i}")).collect();
        let q = Query::all_of(tokens);
        match CompiledQuery::compile(&q, FilterParams::default()) {
            Err(QueryCompileError::TooManyTokens { got: 200, max: 128 }) => {}
            other => panic!("expected TooManyTokens, got {other:?}"),
        }
    }

    #[test]
    fn contradictory_set_is_dropped() {
        let sets = vec![
            IntersectionSet::of_tokens(["x"]).with(Term::negative("x")),
            IntersectionSet::of_tokens(["y"]),
        ];
        let q = Query::try_new(sets).unwrap();
        let c = CompiledQuery::compile(&q, FilterParams::default()).unwrap();
        assert_eq!(c.set_count(), 1);
    }

    #[test]
    fn fully_contradictory_query_compiles_to_zero_sets() {
        let sets = vec![IntersectionSet::of_tokens(["x"]).with(Term::negative("x"))];
        let q = Query::try_new(sets).unwrap();
        let c = CompiledQuery::compile(&q, FilterParams::default()).unwrap();
        assert_eq!(c.set_count(), 0);
    }

    #[test]
    fn shared_token_across_sets_uses_one_row() {
        let q = parse("(A AND B) OR (A AND C)").unwrap();
        let c = CompiledQuery::compile(&q, FilterParams::default()).unwrap();
        assert_eq!(c.table().occupied(), 3);
        let (row_a, e) = c.table().lookup(b"A").unwrap();
        assert_eq!(e.valid_mask(), 0b11);
        assert!(c.expected(0).get(row_a));
        assert!(c.expected(1).get(row_a));
    }

    #[test]
    fn hundreds_of_terms_compile_on_default_table() {
        // "queries with hundreds of terms" (paper §1) — 120 distinct tokens
        // across 8 sets is within the 0.5-load budget of a 256-row table.
        let sets: Vec<IntersectionSet> = (0..8)
            .map(|s| {
                IntersectionSet::of_tokens((0..15).map(|i| format!("term-{s}-{i}")))
                    .with(Term::negative(format!("neg-{s}")))
            })
            .collect();
        let q = Query::try_new(sets).unwrap();
        let c = CompiledQuery::compile(&q, FilterParams::default()).unwrap();
        assert_eq!(c.set_count(), 8);
        assert_eq!(c.table().occupied(), 128);
    }

    fn anchors(q: &str) -> Vec<String> {
        let c = CompiledQuery::compile(&parse(q).unwrap(), FilterParams::default()).unwrap();
        c.anchors()
            .iter()
            .map(|a| String::from_utf8(a.clone()).unwrap())
            .collect()
    }

    #[test]
    fn each_set_is_anchored_by_its_longest_positive_term() {
        assert_eq!(anchors("RAS AND KERNEL AND NOT FATALITY"), ["KERNEL"]);
        assert_eq!(
            anchors("node-17 OR (ciod: AND Error)"),
            ["node-17", "Error"]
        );
        // Ties go to the smaller bytes, whatever the order in the query.
        assert_eq!(anchors("bb AND ab AND ba"), ["ab"]);
        // Sets sharing an anchor need it once.
        assert_eq!(anchors("(KERNEL AND A) OR (KERNEL AND B)"), ["KERNEL"]);
    }

    #[test]
    fn queries_that_must_walk_every_line_get_no_anchors() {
        // An all-negative set keeps the lines no term touches.
        assert!(anchors("A OR NOT B").is_empty());
        assert!(anchors("NOT FATAL").is_empty());
        // More distinct anchors than the skim tests per step.
        assert_eq!(MAX_ANCHORS, 2);
        assert!(anchors("error OR failed OR FATAL").is_empty());
        assert_eq!(anchors("error OR failed").len(), 2);
        // No set survives: nothing to anchor.
        let sets = vec![IntersectionSet::of_tokens(["x"]).with(Term::negative("x"))];
        let c = CompiledQuery::compile(&Query::try_new(sets).unwrap(), FilterParams::default())
            .unwrap();
        assert!(c.anchors().is_empty());
        // A dropped contradictory set does not count against the cap.
        let sets = vec![
            IntersectionSet::of_tokens(["x"]).with(Term::negative("x")),
            IntersectionSet::of_tokens(["y"]),
            IntersectionSet::of_tokens(["zz"]),
        ];
        let c = CompiledQuery::compile(&Query::try_new(sets).unwrap(), FilterParams::default())
            .unwrap();
        assert_eq!(c.anchors(), [b"y".to_vec(), b"zz".to_vec()]);
    }

    #[test]
    fn positional_queries_are_anchored_too() {
        use crate::{PositionalQuery, PositionalTerm};
        let q = PositionalQuery::new(vec![vec![
            PositionalTerm::at("kernel:", 0),
            PositionalTerm::anywhere("oops"),
            PositionalTerm::negative("panicked", None),
        ]])
        .unwrap();
        let c = CompiledQuery::compile_positional(&q, FilterParams::default()).unwrap();
        assert_eq!(c.anchors(), [b"kernel:".to_vec()]);
    }

    #[test]
    fn anchors_do_not_depend_on_table_placement() {
        let q = parse("(alpha AND gamma) OR (delta AND NOT omega)").unwrap();
        let want = [b"alpha".to_vec(), b"delta".to_vec()];
        for rows in [256, 64, 37] {
            let params = FilterParams {
                rows,
                ..FilterParams::default()
            };
            for _ in 0..2 {
                assert_eq!(CompiledQuery::compile(&q, params).unwrap().anchors(), want);
            }
        }
    }

    use mithrilog_query::Query;
}
