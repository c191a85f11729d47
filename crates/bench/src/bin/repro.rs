//! Regenerates the paper's tables and figures, or checks that they still
//! reproduce.
//!
//! ```text
//! repro [--scale <mb>] [--seed <n>] [--out <dir>] [NAME...]
//! repro --check [NAME...]
//! ```
//!
//! Without `--check`, runs the named experiments (all of them by default)
//! at `--scale` MB per dataset (default 8) and `--seed` (default 42),
//! prints every table, and with `--out` writes `<dir>/<name>.json`. With
//! `--check`, reruns each experiment at the scale and seed stored in
//! `crates/bench/expected/<name>.json`, compares every cell except the
//! registry's host-measured ones exactly, asserts its shape, and exits 1
//! on any failure.

use std::path::{Path, PathBuf};
use std::time::Instant;

use mithrilog_bench::registry::{check, Experiment, REGISTRY};
use mithrilog_bench::Args;

fn usage() -> ! {
    let names: Vec<&str> = REGISTRY.iter().map(|e| e.name).collect();
    eprintln!(
        "usage: repro [--scale <mb>] [--seed <n>] [--out <dir>] [--check] [NAME...]\n\
         experiments: {}",
        names.join(" ")
    );
    std::process::exit(2)
}

fn main() {
    let mut args = Args::default();
    let mut out: Option<PathBuf> = None;
    let mut checking = false;
    let mut selected: Vec<&Experiment> = Vec::new();
    let mut argv = std::env::args().skip(1);
    while let Some(a) = argv.next() {
        let mut value = || argv.next().unwrap_or_else(|| usage());
        match a.as_str() {
            "--scale" => args.scale_mb = value().parse().unwrap_or_else(|_| usage()),
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage()),
            "--out" => out = Some(value().into()),
            "--check" => checking = true,
            name => match REGISTRY.iter().find(|e| e.name == name) {
                Some(e) => selected.push(e),
                None => usage(),
            },
        }
    }
    if selected.is_empty() {
        selected = REGISTRY.iter().collect();
    }

    if checking {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("expected");
        let t0 = Instant::now();
        let failures = check(REGISTRY, &selected, &dir);
        for f in &failures {
            println!("FAIL {f}");
        }
        println!(
            "repro --check: {} experiments, {} failures, {:.1} s",
            selected.len(),
            failures.len(),
            t0.elapsed().as_secs_f64()
        );
        std::process::exit(i32::from(!failures.is_empty()));
    }

    if let Some(dir) = &out {
        std::fs::create_dir_all(dir).expect("create --out directory");
    }
    for e in selected {
        let report = (e.run)(&args);
        println!(
            "\n##### {} ({}) — scale {} MB, seed {}",
            e.name, e.section, args.scale_mb, args.seed
        );
        print!("{}", report.render());
        if let Err(err) = (e.shape)(&report) {
            println!("shape check FAILED: {err}");
        }
        if let Some(dir) = &out {
            let path = dir.join(format!("{}.json", e.name));
            std::fs::write(&path, report.to_json(e.name, e.section, &args)).expect("write report");
        }
    }
}
