//! Property-based tests (proptest) on the core data structures and
//! invariants: codec losslessness, query-language round trips, DNF
//! equivalence, hardware-filter/reference agreement, index
//! no-false-negative guarantees, and the whole system against the
//! reference line evaluator.

use proptest::prelude::*;

use mithrilog::{MithriLog, QueryOutcome, QueryRequest, SystemConfig};
use mithrilog_compress::{Codec, Gzf, Lz4, Lzah, LzahScratch, Lzrw1, Snappy};
use mithrilog_filter::{CompiledQuery, FilterParams, HashFilter};
use mithrilog_index::{IndexParams, InvertedIndex};
use mithrilog_query::ast::Expr;
use mithrilog_query::{parse, IntersectionSet, Query, Term};
use mithrilog_storage::{DevicePerfModel, MemStore, PageId, SimSsd};

// ---------- codecs ----------

fn arbitrary_loglike() -> impl Strategy<Value = Vec<u8>> {
    // Lines of printable words, some repetition via a small vocabulary.
    let word = prop_oneof![
        Just("kernel:".to_string()),
        Just("error".to_string()),
        Just("node-17".to_string()),
        "[a-z]{1,12}",
        "[0-9]{1,8}",
    ];
    prop::collection::vec(prop::collection::vec(word, 1..10), 0..60).prop_map(|lines| {
        let mut out = Vec::new();
        for words in lines {
            out.extend_from_slice(words.join(" ").as_bytes());
            out.push(b'\n');
        }
        out
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn lzah_roundtrips_loglike(data in arbitrary_loglike()) {
        let c = Lzah::default();
        prop_assert_eq!(c.decompress(&c.compress(&data)).unwrap(), data);
    }

    #[test]
    fn lzah_roundtrips_arbitrary_nul_free(data in prop::collection::vec(1u8..=255, 0..4000)) {
        // LZAH's exact mode is specified for NUL-free text (logs).
        let c = Lzah::default();
        prop_assert_eq!(c.decompress(&c.compress(&data)).unwrap(), data);
    }

    #[test]
    fn lzrw1_roundtrips_arbitrary(data in prop::collection::vec(any::<u8>(), 0..4000)) {
        let c = Lzrw1::new();
        prop_assert_eq!(c.decompress(&c.compress(&data)).unwrap(), data);
    }

    #[test]
    fn lz4_roundtrips_arbitrary(data in prop::collection::vec(any::<u8>(), 0..4000)) {
        let c = Lz4::new();
        prop_assert_eq!(c.decompress(&c.compress(&data)).unwrap(), data);
    }

    #[test]
    fn gzf_roundtrips_arbitrary(data in prop::collection::vec(any::<u8>(), 0..4000)) {
        let c = Gzf::new();
        prop_assert_eq!(c.decompress(&c.compress(&data)).unwrap(), data);
    }

    #[test]
    fn snappy_roundtrips_arbitrary(data in prop::collection::vec(any::<u8>(), 0..4000)) {
        let c = Snappy::new();
        prop_assert_eq!(c.decompress(&c.compress(&data)).unwrap(), data);
    }

    #[test]
    fn paged_lzah_reassembles(data in arbitrary_loglike()) {
        let paged = mithrilog_compress::compress_paged(
            &data,
            mithrilog_compress::LzahConfig::default(),
            512,
        );
        let mut rebuilt = Vec::new();
        for p in paged.pages() {
            prop_assert!(p.data().len() <= 512);
            rebuilt.extend_from_slice(&mithrilog_compress::decompress_page(p).unwrap());
        }
        prop_assert_eq!(rebuilt, data);
    }
}

// ---------- mutilated pages ----------
//
// LZAH frames carry no payload checksum (page integrity lives in the
// storage layer's CRC sidecar), so the decoder's contract on damaged
// input is: return promptly with a typed `DecompressError` or a bounded
// `Ok` — never panic, never loop, never allocate unbounded output from a
// lying header. A 4 KB page can legitimately expand (matches reference a
// word table), so the over-allocation bound is generous but finite.

const MUTILATED_OUTPUT_BOUND: usize = 4 << 20;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn lzah_survives_bit_flips(
        data in arbitrary_loglike(),
        flips in prop::collection::vec((any::<u64>(), 0u32..8), 1..16)
    ) {
        let c = Lzah::default();
        let mut packed = c.compress(&data);
        for (at, bit) in &flips {
            let i = (*at as usize) % packed.len();
            packed[i] ^= 1 << bit;
        }
        match c.decompress(&packed) {
            Err(_) => {}
            Ok(out) => prop_assert!(out.len() <= MUTILATED_OUTPUT_BOUND),
        }
    }

    #[test]
    fn lzah_survives_header_field_damage(
        data in arbitrary_loglike(),
        at in 0u64..24,
        byte in any::<u8>()
    ) {
        // The first 24 bytes are magic/version/word/hash/flags plus the
        // declared lengths — exactly where a lying header could request a
        // runaway allocation or a never-ending pair loop.
        let c = Lzah::default();
        let mut packed = c.compress(&data);
        let i = (at as usize).min(packed.len() - 1);
        packed[i] = byte;
        match c.decompress(&packed) {
            Err(_) => {}
            Ok(out) => prop_assert!(out.len() <= MUTILATED_OUTPUT_BOUND),
        }
    }

    #[test]
    fn lzah_survives_spliced_garbage(
        data in arbitrary_loglike(),
        at in any::<u64>(),
        garbage in prop::collection::vec(any::<u8>(), 1..64)
    ) {
        let c = Lzah::default();
        let mut packed = c.compress(&data);
        let i = (at as usize) % packed.len();
        let end = (i + garbage.len()).min(packed.len());
        packed[i..end].copy_from_slice(&garbage[..end - i]);
        match c.decompress(&packed) {
            Err(_) => {}
            Ok(out) => prop_assert!(out.len() <= MUTILATED_OUTPUT_BOUND),
        }
    }

    #[test]
    fn lzah_ignores_page_padding_and_trailing_garbage(
        data in arbitrary_loglike(),
        tail in prop::collection::vec(any::<u8>(), 0..512)
    ) {
        // A frame stored in a page is followed by padding the decoder must
        // never read past: whatever follows the frame, the payload decodes
        // to exactly the original bytes.
        let c = Lzah::default();
        let mut packed = c.compress(&data);
        packed.extend_from_slice(&tail);
        prop_assert_eq!(c.decompress(&packed).unwrap(), data);
    }

    #[test]
    fn lzah_truncations_never_return_wrong_bytes(
        data in arbitrary_loglike(),
        cut in any::<u64>()
    ) {
        let c = Lzah::default();
        let packed = c.compress(&data);
        let cut = (cut as usize) % (packed.len() + 1);
        if let Ok(out) = c.decompress(&packed[..cut]) {
            prop_assert_eq!(out, data, "Ok on a truncated frame must be exact");
        }
    }
}

// The scan hot path decodes through `decompress_into` and one long-lived
// workspace, so the same three mutilations run there too: whatever an
// earlier damaged frame left in the workspace, the next decode must agree
// with a fresh `decompress` (equal bytes, or both `Err`).

thread_local! {
    /// Each test runs on its own thread: one workspace for all its cases.
    static SCRATCH: std::cell::RefCell<LzahScratch> = std::cell::RefCell::new(LzahScratch::new());
}

fn assert_scratch_decode_agrees(codec: &Lzah, packed: &[u8]) {
    SCRATCH.with(|scratch| {
        let mut scratch = scratch.borrow_mut();
        let reused = codec.decompress_into(packed, &mut scratch);
        match (&reused, codec.decompress(packed)) {
            (Ok(got), Ok(fresh)) => {
                assert!(got.len() <= MUTILATED_OUTPUT_BOUND);
                assert!(
                    *got == fresh.as_slice(),
                    "reused workspace decoded other bytes"
                );
            }
            (Err(_), Err(_)) => {}
            (got, fresh) => panic!("reused workspace {got:?}, fresh {fresh:?}"),
        }
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn lzah_into_agrees_under_bit_flips(
        data in arbitrary_loglike(),
        flips in prop::collection::vec((any::<u64>(), 0u32..8), 1..16)
    ) {
        let c = Lzah::default();
        let mut packed = c.compress(&data);
        for (at, bit) in &flips {
            let i = (*at as usize) % packed.len();
            packed[i] ^= 1 << bit;
        }
        assert_scratch_decode_agrees(&c, &packed);
    }

    #[test]
    fn lzah_into_agrees_under_header_field_damage(
        data in arbitrary_loglike(),
        at in 0u64..24,
        byte in any::<u8>()
    ) {
        let c = Lzah::default();
        let mut packed = c.compress(&data);
        let i = (at as usize).min(packed.len() - 1);
        packed[i] = byte;
        assert_scratch_decode_agrees(&c, &packed);
    }

    #[test]
    fn lzah_into_agrees_under_spliced_garbage(
        data in arbitrary_loglike(),
        at in any::<u64>(),
        garbage in prop::collection::vec(any::<u8>(), 1..64)
    ) {
        let c = Lzah::default();
        let mut packed = c.compress(&data);
        let i = (at as usize) % packed.len();
        let end = (i + garbage.len()).min(packed.len());
        packed[i..end].copy_from_slice(&garbage[..end - i]);
        assert_scratch_decode_agrees(&c, &packed);
    }
}

// ---------- query language ----------

fn arbitrary_expr() -> impl Strategy<Value = Expr> {
    let leaf = "[a-e]".prop_map(Expr::token);
    leaf.prop_recursive(4, 32, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::and(a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::or(a, b)),
            inner.prop_map(Expr::not),
        ]
    })
}

fn eval_expr(e: &Expr, present: &std::collections::HashSet<&str>) -> bool {
    match e {
        Expr::Token(t) => present.contains(t.as_str()),
        Expr::Not(x) => !eval_expr(x, present),
        Expr::And(xs) => xs.iter().all(|x| eval_expr(x, present)),
        Expr::Or(xs) => xs.iter().any(|x| eval_expr(x, present)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn dnf_conversion_preserves_semantics(e in arbitrary_expr(), present_mask in 0u8..32) {
        let q = e.to_query().unwrap();
        let vocab = ["a", "b", "c", "d", "e"];
        let present: std::collections::HashSet<&str> = vocab
            .iter()
            .enumerate()
            .filter(|(i, _)| present_mask & (1 << i) != 0)
            .map(|(_, t)| *t)
            .collect();
        prop_assert_eq!(q.matches_token_set(&present), eval_expr(&e, &present));
    }

    #[test]
    fn display_parse_roundtrip(e in arbitrary_expr()) {
        let q = e.to_query().unwrap();
        let reparsed = parse(&q.to_string()).unwrap();
        prop_assert_eq!(q, reparsed);
    }

    #[test]
    fn hardware_filter_agrees_with_reference(
        e in arbitrary_expr(),
        lines in prop::collection::vec(
            prop::collection::vec("[a-e]", 0..6), 1..20)
    ) {
        let q = e.to_query().unwrap();
        if let Ok(cq) = CompiledQuery::compile(&q, FilterParams::default()) {
            for toks in &lines {
                let mut f = HashFilter::new(&cq);
                let verdict = f.evaluate_line(toks.iter().map(|s| s.as_bytes())).keep;
                let set: std::collections::HashSet<&str> =
                    toks.iter().map(String::as_str).collect();
                prop_assert_eq!(verdict, q.matches_token_set(&set), "line {:?}", toks);
            }
        }
    }
}

// ---------- cuckoo filter ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn compiled_query_never_false_negatives_on_its_own_terms(
        tokens in prop::collection::hash_set("[a-z]{1,20}", 1..40)
    ) {
        let tokens: Vec<String> = tokens.into_iter().collect();
        let q = Query::all_of(tokens.clone());
        let cq = CompiledQuery::compile(&q, FilterParams::default()).unwrap();
        // A line containing exactly the query tokens must match.
        let mut f = HashFilter::new(&cq);
        let verdict = f.evaluate_line(tokens.iter().map(|s| s.as_bytes()));
        prop_assert!(verdict.keep);
    }

    #[test]
    fn negated_superset_line_never_matches(
        tokens in prop::collection::hash_set("[a-z]{1,10}", 2..20)
    ) {
        let mut it = tokens.iter();
        let neg = it.next().unwrap().clone();
        let pos: Vec<String> = it.cloned().collect();
        let mut set = IntersectionSet::of_tokens(pos);
        set.push(Term::negative(neg.clone()));
        let q = Query::try_new(vec![set]).unwrap();
        let cq = CompiledQuery::compile(&q, FilterParams::default()).unwrap();
        let mut f = HashFilter::new(&cq);
        // Line contains every token including the negated one.
        let verdict = f.evaluate_line(tokens.iter().map(|s| s.as_bytes()));
        prop_assert!(!verdict.keep);
    }
}

// ---------- inverted index ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn index_lookup_is_superset_of_truth(
        pages in prop::collection::vec(
            prop::collection::hash_set("[a-h]{1,3}", 1..6), 1..60)
    ) {
        let mut ssd = SimSsd::new(MemStore::new(4096), DevicePerfModel::default());
        let mut idx = InvertedIndex::new(IndexParams::small());
        for (p, tokens) in pages.iter().enumerate() {
            let toks: Vec<&[u8]> = tokens.iter().map(|t| t.as_bytes()).collect();
            idx.insert_page_tokens(&mut ssd, PageId(p as u64), toks).unwrap();
        }
        // Every (token, page) pair must be discoverable: no false negatives.
        for (p, tokens) in pages.iter().enumerate() {
            for t in tokens {
                let got = idx.lookup(&mut ssd, t.as_bytes()).unwrap();
                prop_assert!(
                    got.contains(&PageId(p as u64)),
                    "token {t:?} lost page {p}"
                );
            }
        }
    }
}

// ---------- whole system vs. the reference evaluator ----------

/// Every `QueryOutcome` field except `wall_time`. The exhaustive
/// destructuring makes a field added to the outcome a compile error here.
fn outcome_sans_wall_time(o: &QueryOutcome) -> impl PartialEq + std::fmt::Debug + '_ {
    let QueryOutcome {
        lines,
        line_pages,
        offloaded,
        used_index,
        pages_scanned,
        bytes_filtered,
        lines_scanned,
        ledger,
        modeled_time,
        wall_time: _,
        degraded,
    } = o;
    (
        lines,
        line_pages,
        offloaded,
        used_index,
        pages_scanned,
        bytes_filtered,
        lines_scanned,
        ledger,
        modeled_time,
        degraded,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // The oracle is independent of the executor: `Query::matches_line`
    // over the raw lines. A solo query, a wave of one and the same request
    // inside a wave of three must all return exactly those lines, and
    // agree with each other on every other outcome field — sharing a scan
    // never changes what a member sees or is charged.
    #[test]
    fn solo_query_and_waves_agree_with_the_reference_evaluator(
        text in arbitrary_loglike(),
        marks in prop::collection::vec(0u8..32, 60..61),
        batches in 1usize..4,
        e in arbitrary_expr(),
        knobs in 0u8..8,
    ) {
        // The query vocabulary is a..e: sprinkle those tokens over the
        // corpus so random expressions select non-trivial line sets.
        let text = String::from_utf8(text).unwrap();
        let lines: Vec<String> = text
            .lines()
            .zip(&marks)
            .map(|(line, mark)| {
                let mut line = line.to_string();
                for (bit, token) in ["a", "b", "c", "d", "e"].iter().enumerate() {
                    if mark & (1 << bit) != 0 {
                        line.push(' ');
                        line.push_str(token);
                    }
                }
                line
            })
            .collect();

        // One page per segment, so sealed segments (and their pruning
        // bitmaps) exist even on a corpus of a few pages.
        let mut system = MithriLog::new(SystemConfig {
            query_threads: if knobs & 1 == 0 { 1 } else { 3 },
            page_cache_bytes: if knobs & 2 == 0 { 0 } else { SystemConfig::default().page_cache_bytes },
            use_index: knobs & 4 != 0,
            segment_pages: 1,
            ..SystemConfig::for_tests()
        });
        for batch in lines.chunks(lines.len().div_ceil(batches).max(1)) {
            let mut bytes = batch.join("\n").into_bytes();
            bytes.push(b'\n');
            system.ingest(&bytes).unwrap();
        }

        let q = e.to_query().unwrap();
        let want: Vec<&String> = lines.iter().filter(|l| q.matches_line(l)).collect();

        let request = QueryRequest::new(q.clone());
        let solo = system.query(&q).unwrap();
        let alone = system.query_shared(std::slice::from_ref(&request)).unwrap();
        let wave = system
            .query_shared(&[
                // Companions with plans of their own: the first page only,
                // and every page.
                QueryRequest::parse("error OR kernel:")
                    .unwrap()
                    .with_page_budget(1),
                request,
                QueryRequest::parse("NOT a").unwrap(),
            ])
            .unwrap();
        prop_assert_eq!(solo.lines.iter().collect::<Vec<_>>(), want);
        prop_assert!(!solo.degraded.is_degraded());
        prop_assert_eq!(
            outcome_sans_wall_time(&alone.outcomes[0]),
            outcome_sans_wall_time(&solo),
            "wave of one"
        );
        prop_assert_eq!(
            outcome_sans_wall_time(&wave.outcomes[1]),
            outcome_sans_wall_time(&solo),
            "inside a wave of three"
        );
    }
}

// ---------- tokenizer/word stream ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn tokenizer_words_reassemble_tokens(line in "[ -~]{0,200}") {
        use mithrilog_tokenizer::{Tokenizer, TokenizerConfig};
        let tok = Tokenizer::new(TokenizerConfig::default());
        let words = tok.tokenize_line(line.as_bytes());
        // Reassemble tokens from the word stream.
        let mut rebuilt: Vec<Vec<u8>> = Vec::new();
        let mut cur: Vec<u8> = Vec::new();
        for w in &words {
            cur.extend_from_slice(w.token_bytes());
            if w.is_last_of_token() {
                rebuilt.push(std::mem::take(&mut cur));
            }
        }
        let expected: Vec<Vec<u8>> = line
            .split_ascii_whitespace()
            .map(|t| t.as_bytes().to_vec())
            .collect();
        prop_assert_eq!(rebuilt, expected);
        // Flags: exactly one last_of_line on the final word, none elsewhere.
        if let Some((last, rest)) = words.split_last() {
            prop_assert!(last.is_last_of_line());
            prop_assert!(rest.iter().all(|w| !w.is_last_of_line()));
        }
    }
}
