//! The experiment registry and the check that reruns it against the
//! reports stored under `crates/bench/expected/`.

use std::path::Path;

use crate::ablations::*;
use crate::paper::*;
use crate::{Args, Table, TableReport};

/// Host wall-clock cells, which vary run to run, so the check compares
/// them only through the experiment's shape: `(table, row-label prefix,
/// columns)`, where `""` is every row and `&[]` every column.
pub type Measured = (usize, &'static str, &'static [usize]);

/// Marks an experiment's notes as host-measured: printed, not compared.
pub const NOTES: Measured = (usize::MAX, "", &[]);

fn covers(&(t, rows, cols): &Measured, table: usize, label: &str, col: usize) -> bool {
    t == table && label.starts_with(rows) && (cols.is_empty() || cols.contains(&col))
}

/// Produces an experiment's report.
pub type Run = fn(&Args) -> TableReport;

/// The paper's claim about a report, as an assertion.
pub type Shape = fn(&TableReport) -> Result<(), String>;

/// One reproducible experiment.
pub struct Experiment {
    /// Registry name: the `repro` argument and the expected file's stem.
    pub name: &'static str,
    /// Where the paper reports it.
    pub section: &'static str,
    /// Produces the report.
    pub run: Run,
    /// Host-measured cells (or [`NOTES`]), exempt from exact comparison.
    pub measured: &'static [Measured],
    /// The paper's claim about the report, as an assertion.
    pub shape: Shape,
}

/// `Ok` when `ok`, otherwise `Err(msg())`.
pub fn ensure(ok: bool, msg: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(msg())
    }
}

const fn exact(name: &'static str, section: &'static str, run: Run, shape: Shape) -> Experiment {
    Experiment {
        name,
        section,
        run,
        measured: &[],
        shape,
    }
}

/// Every experiment `repro` knows, in the order it runs them.
pub const REGISTRY: &[Experiment] = &[
    exact("table1", "§7.1 Table 1", table1, table1_shape),
    exact("table2", "§7.3 Table 2", table2, table2_shape),
    exact("table3", "§7.2 Table 3", table3, table3_shape),
    Experiment {
        measured: &[(1, "", &[1, 2])],
        ..exact("table4", "§7.4.3 Table 4", table4, table4_shape)
    },
    exact("table5", "§7.4.3 Table 5", table5, table5_shape),
    Experiment {
        measured: &[(0, "ScanEngine", &[]), (0, "Avg. improvement", &[])],
        ..exact("table6", "§7.4.2 Table 6", table6, table6_shape)
    },
    exact("table7", "§7.5 Table 7", table7, table7_shape),
    exact("table8", "§7.6 Table 8", table8, table8_shape),
    exact("fig13", "§7.4.1 Figure 13", fig13, fig13_shape),
    exact("fig14", "§7.4.1 Figure 14", fig14, fig14_shape),
    Experiment {
        // The MithriLog histograms in the notes restate the exact
        // Queries and MithriLog columns; the ScanEngine ones are measured.
        measured: &[(0, "", &[3, 4, 5]), NOTES],
        ..exact("fig15", "§7.4.2 Figure 15", fig15, fig15_shape)
    },
    exact("fig16", "§7.5 Figure 16", fig16, fig16_shape),
    exact(
        "ablate_datapath",
        "§7.4.1 ablation",
        ablate_datapath,
        ablate_datapath_shape,
    ),
    exact(
        "ablate_cuckoo",
        "§4.2.1 ablation",
        ablate_cuckoo,
        ablate_cuckoo_shape,
    ),
    exact(
        "ablate_lzah_newline",
        "§5 ablation",
        ablate_lzah_newline,
        ablate_lzah_newline_shape,
    ),
    exact(
        "ablate_index",
        "§6.1-6.2 ablation",
        ablate_index,
        ablate_index_shape,
    ),
    exact(
        "ablate_near_storage",
        "§1, §3 ablation",
        ablate_near_storage,
        ablate_near_storage_shape,
    ),
    exact(
        "plan_savings",
        "wave planner",
        plan_savings,
        plan_savings_shape,
    ),
    exact(
        "shard_scaling",
        "§8 shard model",
        shard_scaling,
        shard_scaling_shape,
    ),
    exact(
        "parallel_scaling",
        "§7.4.1 pipeline model",
        parallel_scaling,
        parallel_scaling_shape,
    ),
];

/// Differences between an expected and a fresh report, skipping the
/// experiment's measured cells.
pub fn compare(e: &Experiment, expected: &TableReport, fresh: &TableReport) -> Vec<String> {
    if expected.tables.len() != fresh.tables.len() {
        return vec![format!(
            "{} tables, expected {}",
            fresh.tables.len(),
            expected.tables.len()
        )];
    }
    let mut diffs = Vec::new();
    if expected.notes != fresh.notes && !e.measured.contains(&NOTES) {
        diffs.push("notes moved".to_string());
    }
    let widths = |t: &Table| t.rows.iter().map(Vec::len).collect::<Vec<_>>();
    for (i, (want, got)) in expected.tables.iter().zip(&fresh.tables).enumerate() {
        if (&want.title, &want.headers, widths(want)) != (&got.title, &got.headers, widths(got)) {
            diffs.push(format!("table {i}: title, headers or row widths moved"));
            continue;
        }
        for (w, g) in want.rows.iter().zip(&got.rows) {
            for (c, (wc, gc)) in w.iter().zip(g).enumerate() {
                let measured = e.measured.iter().any(|m| covers(m, i, &w[0], c));
                if wc != gc && !measured {
                    diffs.push(format!(
                        "{:?} row {:?} column {:?}: {gc:?}, expected {wc:?}",
                        got.title, w[0], got.headers[c]
                    ));
                }
            }
        }
    }
    diffs
}

/// Reruns `experiments` at the scale and seed of their expected reports in
/// `dir` and returns every failure: a missing or unreadable report, an
/// exact cell that moved, a broken shape, or a report in `dir` that names
/// no experiment of `registry`.
pub fn check(registry: &[Experiment], experiments: &[&Experiment], dir: &Path) -> Vec<String> {
    let mut failures = Vec::new();
    match std::fs::read_dir(dir) {
        Err(e) => failures.push(format!("cannot read {}: {e}", dir.display())),
        Ok(entries) => {
            for path in entries.filter_map(|d| d.ok().map(|d| d.path())) {
                let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("");
                if !registry.iter().any(|e| e.name == stem) {
                    failures.push(format!("{}: no experiment of that name", path.display()));
                }
            }
        }
    }
    for e in experiments {
        let path = dir.join(format!("{}.json", e.name));
        let expected = std::fs::read_to_string(&path)
            .map_err(|err| format!("{}: {err}", path.display()))
            .and_then(|text| TableReport::from_json(&text));
        let (args, expected) = match expected {
            Ok(x) => x,
            Err(err) => {
                failures.push(format!("{}: {err}", e.name));
                continue;
            }
        };
        let fresh = (e.run)(&args);
        let diffs = compare(e, &expected, &fresh);
        for d in diffs.iter().take(8) {
            failures.push(format!("{}: {d}", e.name));
        }
        if diffs.len() > 8 {
            failures.push(format!("{}: ... {} more cells", e.name, diffs.len() - 8));
        }
        if let Err(err) = (e.shape)(&fresh) {
            failures.push(format!("{}: shape: {err}", e.name));
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A cheap experiment: a note, an exact cell, a measured cell (the
    /// seed's parity flips it, standing in for host noise), and a shape
    /// that holds only above 1 MB.
    fn toy(args: &Args) -> TableReport {
        let mut r = TableReport::default();
        r.note(format!("seed {}", args.seed));
        let (exact, noise) = (format!("{:.1}", args.scale_mb), (args.seed % 2).to_string());
        r.table(
            "toy",
            "Row | Exact | Measured",
            vec![vec!["only".into(), exact, noise]],
        );
        r
    }

    fn toy_shape(r: &TableReport) -> Result<(), String> {
        ensure(r.tables[0].column("Exact")[0] > 1.0, || "too small".into())
    }

    const TOYS: &[Experiment] = &[
        Experiment {
            measured: &[(0, "", &[2]), NOTES],
            ..exact("toy", "test", toy, toy_shape)
        },
        exact("other", "test", toy, toy_shape),
    ];

    /// The toy's report as stored at `scale_mb` MB and seed 1, with cell
    /// `(row 0, col)` overwritten by `cell` when given.
    fn stored(scale_mb: f64, edit: Option<(usize, &str)>) -> (Args, TableReport) {
        let args = Args { scale_mb, seed: 1 };
        let mut r = toy(&args);
        if let Some((col, cell)) = edit {
            r.tables[0].rows[0][col] = cell.to_string();
        }
        (args, r)
    }

    /// Checks the toys named in `names` against a fresh directory holding
    /// `files` as `<stem>.json`.
    fn run_check(tag: &str, names: &[&str], files: &[(&str, (Args, TableReport))]) -> Vec<String> {
        let dir = std::env::temp_dir().join(format!("repro-check-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        for (stem, (args, report)) in files {
            let text = report.to_json(stem, "test", args);
            std::fs::write(dir.join(format!("{stem}.json")), text).unwrap();
        }
        let selected: Vec<&Experiment> = TOYS.iter().filter(|e| names.contains(&e.name)).collect();
        let failures = check(TOYS, &selected, &dir);
        std::fs::remove_dir_all(&dir).unwrap();
        failures
    }

    const BOTH: &[&str] = &["toy", "other"];

    #[test]
    fn the_check_passes_on_a_faithful_rerun_and_ignores_measured_cells() {
        let files = [
            ("toy", stored(2.0, Some((2, "0")))),
            ("other", stored(2.0, None)),
        ];
        assert_eq!(run_check("pass", BOTH, &files), Vec::<String>::new());
    }

    #[test]
    fn the_check_fails_on_a_changed_exact_cell() {
        let files = [
            ("toy", stored(2.0, Some((1, "2.1")))),
            ("other", stored(2.0, None)),
        ];
        let failures = run_check("exact", BOTH, &files);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].starts_with("toy: \"toy\" row \"only\" column \"Exact\""));
    }

    #[test]
    fn the_check_fails_on_moved_notes_unless_measured_and_on_a_wider_row() {
        let mut noted = stored(2.0, None);
        noted.1.notes[0].push('!');
        let files = [("toy", noted.clone()), ("other", noted)];
        assert_eq!(run_check("notes", BOTH, &files), vec!["other: notes moved"]);

        let mut wide = stored(2.0, None);
        wide.1.tables[0].rows[0].push("extra".into());
        let failures = run_check(
            "width",
            BOTH,
            &[("toy", wide), ("other", stored(2.0, None))],
        );
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("title, headers or row widths moved"));
    }

    #[test]
    fn the_check_fails_on_a_missing_or_an_extra_expected_file() {
        let missing = run_check("missing", BOTH, &[("toy", stored(2.0, None))]);
        assert_eq!(missing.len(), 1, "{missing:?}");
        assert!(missing[0].starts_with("other: ") && missing[0].contains("other.json"));

        let files = [
            ("toy", stored(2.0, None)),
            ("other", stored(2.0, None)),
            ("stale", stored(2.0, None)),
        ];
        let extra = run_check("extra", BOTH, &files);
        assert_eq!(extra.len(), 1, "{extra:?}");
        assert!(extra[0].contains("stale.json: no experiment of that name"));
    }

    #[test]
    fn the_check_fails_on_a_broken_shape() {
        // At 0.5 MB the toy's shape does not hold, though the rerun
        // reproduces the stored cells exactly.
        let files = [("toy", stored(0.5, None)), ("other", stored(2.0, None))];
        let failures = run_check("shape", BOTH, &files);
        assert_eq!(failures, vec!["toy: shape: too small".to_string()]);
    }

    #[test]
    fn every_registry_name_is_unique_and_has_an_expected_report() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("expected");
        for (i, e) in REGISTRY.iter().enumerate() {
            assert!(REGISTRY[..i].iter().all(|o| o.name != e.name), "{}", e.name);
            assert!(dir.join(format!("{}.json", e.name)).is_file(), "{}", e.name);
        }
    }
}
