//! Harness behind the `repro` binary: every table and figure of the
//! paper's evaluation (§7), the ablations and three model curves are
//! registered experiments ([`registry::REGISTRY`]). Each one turns
//! `(scale, seed)` into a [`TableReport`]; `repro --check` reruns it at the
//! scale and seed stored in `crates/bench/expected/<name>.json` and
//! compares. Absolute numbers differ from the paper (simulated device,
//! synthetic data, laptop CPU); EXPERIMENTS.md records the comparison.

#![forbid(unsafe_code)]

mod ablations;
mod json;
mod paper;
pub mod registry;

use mithrilog_ftree::{FtreeConfig, TemplateLibrary};
use mithrilog_loggen::{generate, Dataset, DatasetProfile, DatasetSpec};
use mithrilog_query::batch::{combine, BatchSpec};
use mithrilog_query::Query;

use json::JsonValue;

/// What an experiment is run at.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Dataset size per profile in megabytes.
    pub scale_mb: f64,
    /// RNG seed for dataset generation and query batching.
    pub seed: u64,
}

impl Default for Args {
    /// 8 MB per dataset, seed 42: the reference run EXPERIMENTS.md quotes.
    fn default() -> Self {
        Args {
            scale_mb: 8.0,
            seed: 42,
        }
    }
}

impl Args {
    /// One dataset profile at the configured scale.
    pub fn dataset(&self, profile: DatasetProfile) -> Dataset {
        generate(&DatasetSpec {
            profile,
            target_bytes: (self.scale_mb * 1_000_000.0) as usize,
            seed: self.seed,
        })
    }

    /// All four HPC4-profile datasets at the configured scale.
    pub fn datasets(&self) -> Vec<Dataset> {
        DatasetProfile::all()
            .into_iter()
            .map(|p| self.dataset(p))
            .collect()
    }
}

/// FT-tree extraction configuration used by the harness (paper §7.1 uses
/// the FT-tree paper's parameters; these are the equivalents for the
/// synthetic corpora).
pub(crate) fn ftree_config() -> FtreeConfig {
    FtreeConfig {
        min_support: 8,
        max_children: 24,
        max_depth: 12,
        min_leaf_fraction: 0.0002,
    }
}

/// The query classes of §7.1: all single-template queries, 100 OR-pairs, 16 eight-way OR combinations —
/// the same combinations for every engine under test — and the
/// negative-heavy exploration queries of §7.5.
pub(crate) struct QueryBank {
    /// One query per template.
    pub singles: Vec<Query>,
    /// 100 random 2-combinations.
    pub pairs: Vec<Query>,
    /// 16 random 8-combinations.
    pub eights: Vec<Query>,
    /// "NOT A"-style queries: the class where inverted indexes cannot
    /// prune and a large subset of the log must be processed.
    pub negations: Vec<Query>,
}

impl QueryBank {
    /// The four classes with their report labels, in a stable order.
    pub fn classes(&self) -> [(&'static str, &[Query]); 4] {
        [
            ("singles", &self.singles),
            ("pairs", &self.pairs),
            ("eights", &self.eights),
            ("negative-heavy", &self.negations),
        ]
    }
}

/// Builds the §7.1 query bank for one dataset.
pub(crate) fn query_bank(dataset: &Dataset, seed: u64) -> QueryBank {
    let library = TemplateLibrary::extract(dataset.text(), &ftree_config());
    let singles = library.queries();
    assert!(
        singles.len() >= 8,
        "{}: need at least 8 templates for 8-way batches, got {}",
        dataset.name(),
        singles.len()
    );
    let pairs = combine(&singles, BatchSpec::PAIRS, seed);
    let eights = combine(&singles, BatchSpec::EIGHTS, seed ^ 0x5eed);
    // One negated-template query per hot template: all its key tokens
    // negated ("lines NOT from this template"), up to a dozen.
    let negations: Vec<Query> = library
        .iter()
        .take(12)
        .map(|t| {
            let set: mithrilog_query::IntersectionSet = t
                .tokens()
                .iter()
                .map(|tok| mithrilog_query::Term::negative(tok.clone()))
                .collect();
            Query::try_new(vec![set]).expect("template has tokens")
        })
        .collect();
    QueryBank {
        singles,
        pairs,
        eights,
        negations,
    }
}

/// Formats a float with 2 decimals.
pub(crate) fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// The leading number of a cell (`"2.15x"` → 2.15, `"48.9%"` → 48.9,
/// `"4245 (1.4%)"` → 4245); NaN when the cell does not start with one.
pub(crate) fn num(cell: &str) -> f64 {
    let end = cell
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e')))
        .unwrap_or(cell.len());
    cell[..end].parse().unwrap_or(f64::NAN)
}

/// Escapes a string for embedding in a JSON document.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// One titled table of string cells; the first column labels the row.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// Caption, as printed.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of cells, already formatted.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// The numeric values of column `header`, one per row.
    ///
    /// # Panics
    ///
    /// Panics if no column has that header.
    pub fn column(&self, header: &str) -> Vec<f64> {
        let c = self
            .headers
            .iter()
            .position(|h| h == header)
            .unwrap_or_else(|| panic!("{}: no column {header:?}", self.title));
        self.rows.iter().map(|r| num(&r[c])).collect()
    }

    /// The first row whose label is `label`.
    ///
    /// # Panics
    ///
    /// Panics if no row has that label.
    pub fn row(&self, label: &str) -> &[String] {
        self.rows
            .iter()
            .find(|r| r[0] == label)
            .unwrap_or_else(|| panic!("{}: no row {label:?}", self.title))
    }
}

/// What one experiment produced: free-text notes and tables, both of which
/// `repro --check` compares unless the experiment marks them measured.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TableReport {
    /// Context lines, e.g. the paper's published values.
    pub notes: Vec<String>,
    /// The experiment's tables, in order.
    pub tables: Vec<Table>,
}

impl TableReport {
    /// Appends a context line.
    pub fn note(&mut self, text: impl Into<String>) {
        self.notes.push(text.into());
    }

    /// Appends a table; `headers` separates the column headers with `|`.
    pub fn table(&mut self, title: &str, headers: &str, rows: Vec<Vec<String>>) {
        self.tables.push(Table {
            title: title.to_string(),
            headers: headers.split('|').map(|h| h.trim().to_string()).collect(),
            rows,
        });
    }

    /// The notes and every table as fixed-width text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for n in &self.notes {
            out.push_str(n);
            out.push('\n');
        }
        for t in &self.tables {
            let mut widths: Vec<usize> = t.headers.iter().map(String::len).collect();
            for row in &t.rows {
                for (w, cell) in widths.iter_mut().zip(row) {
                    *w = (*w).max(cell.len());
                }
            }
            out.push_str(&format!("\n=== {} ===\n", t.title));
            let dashes = vec!["---".to_string(); widths.len()];
            for cells in std::iter::once(&t.headers)
                .chain(std::iter::once(&dashes))
                .chain(&t.rows)
            {
                let line: String = cells
                    .iter()
                    .zip(&widths)
                    .map(|(c, w)| format!("{c:<w$}  "))
                    .collect();
                out.push_str(line.trim_end());
                out.push('\n');
            }
        }
        out
    }

    /// The report as the JSON document `repro --out` writes and
    /// `repro --check` reads back with [`TableReport::from_json`].
    pub fn to_json(&self, name: &str, section: &str, args: &Args) -> String {
        let strings = |xs: &[String]| {
            let quoted: Vec<String> = xs
                .iter()
                .map(|x| format!("\"{}\"", json_escape(x)))
                .collect();
            format!("[{}]", quoted.join(", "))
        };
        let mut out = format!(
            "{{\n  \"experiment\": \"{name}\",\n  \"section\": \"{}\",\n  \
             \"scale_mb\": {},\n  \"seed\": {},\n  \"notes\": {},\n  \"tables\": [",
            json_escape(section),
            args.scale_mb,
            args.seed,
            strings(&self.notes)
        );
        for (i, t) in self.tables.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str(&format!(
                "    {{\n      \"title\": \"{}\",\n      \"headers\": {},\n      \"rows\": [",
                json_escape(&t.title),
                strings(&t.headers)
            ));
            for (r, row) in t.rows.iter().enumerate() {
                out.push_str(if r == 0 { "\n        " } else { ",\n        " });
                out.push_str(&strings(row));
            }
            out.push_str("\n      ]\n    }");
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Reads back a document written by [`TableReport::to_json`], with the
    /// scale and seed it was produced at.
    ///
    /// # Errors
    ///
    /// A message naming the first missing or mistyped field.
    pub fn from_json(text: &str) -> Result<(Args, TableReport), String> {
        let doc = json::parse(text)?;
        let number = |key: &str| match doc.get(key) {
            Some(JsonValue::Number(x)) => Ok(*x),
            _ => Err(format!("missing number {key:?}")),
        };
        let strings = |v: Option<&JsonValue>, what: &str| -> Result<Vec<String>, String> {
            match v {
                Some(JsonValue::Array(items)) => items
                    .iter()
                    .map(|s| s.as_str().map(str::to_string))
                    .collect::<Option<_>>()
                    .ok_or(format!("{what}: expected strings")),
                _ => Err(format!("missing array {what:?}")),
            }
        };
        let args = Args {
            scale_mb: number("scale_mb")?,
            seed: number("seed")? as u64,
        };
        let Some(JsonValue::Array(tables)) = doc.get("tables") else {
            return Err("missing array \"tables\"".to_string());
        };
        let mut report = TableReport {
            notes: strings(doc.get("notes"), "notes")?,
            tables: Vec::new(),
        };
        for t in tables {
            let Some(JsonValue::Array(rows)) = t.get("rows") else {
                return Err("table without \"rows\"".to_string());
            };
            report.tables.push(Table {
                title: t
                    .get("title")
                    .and_then(JsonValue::as_str)
                    .ok_or("table without \"title\"")?
                    .to_string(),
                headers: strings(t.get("headers"), "headers")?,
                rows: rows
                    .iter()
                    .map(|r| strings(Some(r), "row"))
                    .collect::<Result<_, _>>()?,
            });
        }
        Ok((args, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_bank_has_paper_shape() {
        let ds = Args {
            scale_mb: 0.4,
            seed: 1,
        }
        .dataset(DatasetProfile::Spirit2);
        let bank = query_bank(&ds, 1);
        assert!(bank.singles.len() >= 8);
        assert_eq!(bank.pairs.len(), 100);
        assert_eq!(bank.eights.len(), 16);
        assert!(bank.pairs.iter().all(|q| q.sets().len() == 2));
        assert!(bank.eights.iter().all(|q| q.sets().len() == 8));
    }

    #[test]
    fn banks_are_deterministic() {
        let ds = Args {
            scale_mb: 0.3,
            seed: 9,
        }
        .dataset(DatasetProfile::Bgl2);
        let (a, b) = (query_bank(&ds, 7), query_bank(&ds, 7));
        assert_eq!(a.pairs, b.pairs);
        assert_eq!(a.eights, b.eights);
    }

    #[test]
    fn all_four_datasets_generate() {
        let ds = Args {
            scale_mb: 0.2,
            seed: 3,
        }
        .datasets();
        assert_eq!(ds.len(), 4);
        assert!(ds.iter().all(|d| d.text().len() >= 200_000));
    }

    #[test]
    fn cells_parse_to_their_leading_number() {
        assert_eq!(num("2.15x"), 2.15);
        assert_eq!(num("48.9%"), 48.9);
        assert_eq!(num("4245 (1.4%)"), 4245.0);
        assert!(num("storage").is_nan());
    }

    #[test]
    fn reports_round_trip_through_json() {
        let mut report = TableReport::default();
        report.note("Paper: \"quoted\"\tvalues");
        report.table(
            "t",
            "a | b",
            vec![
                vec!["x".into(), "1.00".into()],
                vec!["y\\".into(), "2".into()],
            ],
        );
        report.table("empty", "only", Vec::new());
        let args = Args {
            scale_mb: 0.5,
            seed: 7,
        };
        let (back_args, back) = TableReport::from_json(&report.to_json("n", "§7", &args)).unwrap();
        assert_eq!(back_args, args);
        assert_eq!(back, report);
    }
}
