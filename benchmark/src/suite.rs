//! `bench_e2e suite`: every workload in its own process, untraced then
//! traced, every metric printed by name with its unit, everything
//! collected into `out/results.json`. With `--repeat`, two full sets whose
//! end-to-end metrics must agree within their bounds.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

use crate::report::{self, END_TO_END, WORKLOADS};
use crate::Args;

/// Tracing may cost at most this share of a top-level span.
const MAX_TRACE_OVERHEAD: f64 = 0.05;
/// On `scan_cold`, the replayed layer costs must explain at least this
/// share of `core.query_ms`.
const MIN_EXPLAINED_SHARE: f64 = 0.70;

/// Metric values of one child run, by name.
type Values = BTreeMap<String, f64>;

/// Runs one workload in a child process; returns its metric values and
/// its detail record, or `None` when it failed.
fn child(
    exe: &Path,
    out: &Path,
    args: &Args,
    workload: &str,
    trace: bool,
) -> Option<(Values, String)> {
    let detail = out.join(format!("detail_{workload}_{}.json", u8::from(trace)));
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--detail")
        .arg(&detail)
        .stderr(Stdio::inherit())
        .output()
        .ok()?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let (printed, line) = stdout.trim_end().rsplit_once('\n')?;
    println!("{printed}");
    if !output.status.success() || !line.starts_with("{\"correct\": true") {
        eprintln!(
            "suite: {workload} (trace {}) failed: {line}",
            u8::from(trace)
        );
        return None;
    }
    let record = std::fs::read_to_string(&detail).ok()?;
    let _ = std::fs::remove_file(&detail);
    // The detail record leaves absent pairs out; the driver line zero-fills.
    Some((
        report::parse_metric_values(&record).into_iter().collect(),
        record,
    ))
}

fn git_commit() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".to_string(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        })
}

/// One full set: every workload untraced, then traced. `None` entries are
/// failed runs.
fn run_set(
    exe: &Path,
    out: &Path,
    args: &Args,
    records: &mut Vec<String>,
) -> Option<Vec<(Values, Values)>> {
    let mut set = Vec::new();
    for workload in WORKLOADS {
        let (e2e, record) = child(exe, out, args, workload, false)?;
        records.push(record);
        let (layers, record) = child(exe, out, args, workload, true)?;
        records.push(record);
        set.push((e2e, layers));
    }
    Some(set)
}

/// The acceptance checks one set must pass.
fn checks(set: &[(Values, Values)]) -> bool {
    let mut ok = true;
    for (workload, (_, layers)) in WORKLOADS.iter().zip(set) {
        let overhead = layers
            .get("trace.overhead_share")
            .copied()
            .unwrap_or(f64::NAN);
        let pass = overhead < MAX_TRACE_OVERHEAD;
        println!(
            "check {workload} trace.overhead_share {overhead:.4} < {MAX_TRACE_OVERHEAD}: {}",
            if pass { "ok" } else { "FAILED" }
        );
        ok &= pass;
    }
    let layers = &set[0].1;
    let (query, rest) = (layers["core.query_ms"], layers["core.exec_self_ms"]);
    let explained = (query - rest) / query;
    let pass = explained >= MIN_EXPLAINED_SHARE;
    println!(
        "check scan_cold replayed layers explain {explained:.3} >= {MIN_EXPLAINED_SHARE} of \
         core.query_ms: {}",
        if pass { "ok" } else { "FAILED" }
    );
    ok & pass
}

/// Whether two sets agree within each end-to-end metric's bound.
fn agree(first: &[(Values, Values)], second: &[(Values, Values)]) -> bool {
    let mut ok = true;
    for (workload, ((a, _), (b, _))) in WORKLOADS.iter().zip(first.iter().zip(second)) {
        for def in &END_TO_END {
            let (x, y) = (a[def.name], b[def.name]);
            let diff = (x - y).abs() / x.abs().max(f64::MIN_POSITIVE);
            let pass = diff <= def.bound;
            println!(
                "repeat {workload} {} {x} vs {y} {}: differs by {diff:.4}, bound {}: {}",
                def.name,
                def.unit,
                def.bound,
                if pass { "ok" } else { "FAILED" }
            );
            ok &= pass;
        }
    }
    ok
}

pub fn run(args: &Args) -> ExitCode {
    let out = crate::out_dir();
    let exe = match (std::env::current_exe(), std::fs::create_dir_all(&out)) {
        (Ok(exe), Ok(())) => exe,
        (exe, dir) => {
            eprintln!("suite: cannot start: {:?} {:?}", exe.err(), dir.err());
            return ExitCode::from(2);
        }
    };
    let mut records = Vec::new();
    let mut sets = Vec::new();
    for _ in 0..if args.repeat { 2 } else { 1 } {
        match run_set(&exe, &out, args, &mut records) {
            Some(set) => sets.push(set),
            None => return ExitCode::FAILURE,
        }
    }

    let host_cpus = std::thread::available_parallelism().map_or(1, usize::from);
    let mut json = format!(
        "{{\n  \"schema\": \"mithrilog.bench_e2e.v1\",\n  \"seed\": {},\n  \"seconds\": {},\n  \
         \"host_cpus\": {host_cpus},\n  \"git_commit\": \"{}\",\n  \"runs\": [\n",
        args.seed,
        args.seconds,
        git_commit()
    );
    for (i, record) in records.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {record}{}",
            if i + 1 < records.len() { "," } else { "" }
        );
    }
    json.push_str("  ]\n}\n");
    let path = out.join("results.json");
    if let Err(e) = std::fs::write(&path, json) {
        eprintln!("suite: cannot write {}: {e}", path.display());
        return ExitCode::from(2);
    }
    println!("wrote {}", path.display());

    let mut ok = sets.iter().all(|set| checks(set));
    if let [first, second] = sets.as_slice() {
        ok &= agree(first, second);
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
