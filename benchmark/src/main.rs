//! `bench_e2e`: one wall-clock benchmark for the whole MithriLog stack.
//!
//! ```text
//! bench_e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! bench_e2e suite [--seed <n>] [--seconds <s>] [--repeat]
//! ```
//!
//! The first form runs one workload in this process and prints, as the
//! last line of standard output, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics` — the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. The second form
//! runs every workload, each in its own process, untraced then traced.
//! See `benchmark/README.md`.

mod harness;
mod ingest;
mod inputs;
mod layers;
mod report;
mod scan;
mod serve;
mod shard;
mod stats;
mod suite;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use harness::Ctx;
use report::RunResult;

const USAGE: &str = "usage: bench_e2e --workload <name> --seed <n> --seconds <s> --trace <0|1> \
                     [--detail <path>]\n       bench_e2e suite [--seed <n>] [--seconds <s>] [--repeat]";

/// Default seed; seed 7 is the documented held-out seed.
pub const DEFAULT_SEED: u64 = 42;
/// `run_seconds` of BENCHMARK.json.
pub const DEFAULT_SECONDS: f64 = 20.0;

/// Command-line options of both forms.
#[derive(Debug)]
pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub detail: Option<PathBuf>,
    pub repeat: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        detail: None,
        repeat: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--repeat" {
            args.repeat = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("{flag}: cannot read {value:?}");
        match flag.as_str() {
            "--workload" => args.workload = Some(value.clone()),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--detail" => args.detail = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(args)
}

/// Where traces, results and scratch stores go: `$BENCH_E2E_OUT`, which
/// `run.sh` points at `benchmark/out`.
pub fn out_dir() -> PathBuf {
    std::env::var_os("BENCH_E2E_OUT").map_or_else(|| PathBuf::from("benchmark/out"), PathBuf::from)
}

fn run_workload(name: &str, ctx: &Ctx) -> Option<RunResult> {
    Some(match name {
        "scan_cold" => scan::run(ctx, &scan::SCAN_COLD),
        "probe_warm" => scan::run(ctx, &scan::PROBE_WARM),
        "shard_scatter" => shard::run(ctx),
        "ingest_stream" => ingest::run(ctx),
        "serve_mixed" => serve::run(ctx),
        _ => return None,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let suite = argv.first().is_some_and(|a| a == "suite");
    let args = match parse_args(&argv[usize::from(suite)..]) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("bench_e2e: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if suite {
        return suite::run(&args);
    }
    let Some(workload) = args.workload.as_deref() else {
        eprintln!("bench_e2e: --workload is required\n{USAGE}");
        return ExitCode::from(2);
    };
    let host_cpus = std::thread::available_parallelism().map_or(1, usize::from);
    let clients = host_cpus.min(4);
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        host_cpus,
        clients,
        query_threads: match workload {
            _ if args.trace => 1,
            serve::NAME => serve::QUERY_THREADS,
            _ => clients,
        },
        out_dir: out_dir(),
    };
    if let Err(e) = std::fs::create_dir_all(&ctx.out_dir) {
        eprintln!("bench_e2e: cannot create {}: {e}", ctx.out_dir.display());
        return ExitCode::from(2);
    }
    let Some(mut run) = run_workload(workload, &ctx) else {
        eprintln!(
            "bench_e2e: unknown workload {workload:?}; one of {:?}",
            report::WORKLOADS
        );
        return ExitCode::from(2);
    };
    run.host_cpus = ctx.host_cpus;
    run.query_threads = ctx.query_threads;
    if let Some(path) = &args.detail {
        if let Err(e) = std::fs::write(path, run.detail_json()) {
            eprintln!("bench_e2e: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    print!("{}", run.human_lines());
    println!(
        "{workload} host_cpus {} query_threads {} op_list_digest {:016x}",
        run.host_cpus, run.query_threads, run.op_digest
    );
    println!("{}", run.driver_line());
    ExitCode::SUCCESS
}
