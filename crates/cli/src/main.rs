//! `mithrilog` — command-line interface to the MithriLog system.
//!
//! ```text
//! mithrilog query  <logfile> [--threads <n>] [--explain] <query...>
//!                                           run a token query end to end
//!                                           (--explain: print the plan — index
//!                                           decision, bitmap pruning — no scan)
//! mithrilog tag    <logfile> [-n <k>]       extract templates and tag traffic
//! mithrilog stats  <logfile>                dataset/compression/datapath stats
//! mithrilog spikes <logfile> [--threads <n>] <query...>
//!                                           filter, histogram, flag rate spikes
//! mithrilog gen    <profile> <mb> <out>     generate a synthetic HPC4-profile log
//! mithrilog scrub  <logfile> [--flip-rate <p>] [--seed <n>] [--online]
//!                                           fault drill: inject bit rot, verify scrub
//!                                           (--online: via the service's idle scrub
//!                                           lane with page quarantine)
//!                                           (exit 0 clean, 2 corruption found, 1 error)
//! mithrilog serve  <logfile> [--port <p>] [--threads <n>] [--max-queue <n>]
//!                  [--max-batch <n>] [--budget <n>] [--page-cache <bytes>]
//!                  [--deadline <micros>] [--scrub-batch <pages>]
//!                  [--retain <segments>] [--shards <n>]
//!                  [--route-mode <line-hash|tenant>] [--route-salt <n>]
//!                  [--tenant-queue <n>] [--tenant-budget <pages>]
//!                                           concurrent query service over TCP
//!                                           (--shards: scatter-gather over N devices)
//! mithrilog retention <storefile> --keep <segments>
//!                                           drop the oldest sealed segments, crash-safely
//! mithrilog segments <storefile>            list sealed segments: pages, lines, crc,
//!                                           bitmap sidecars
//! mithrilog recover <storefile>             mount an on-disk store, run crash recovery
//! mithrilog recover --self-check [--points <k>] [--seed <n>]
//!                                           crash drill: power-loss matrix, verify recovery
//! ```
//!
//! Queries use the accelerator's language: `AND`, `OR`, `NOT`, parentheses,
//! quoted tokens — e.g. `mithrilog query sys.log 'failed AND NOT "pbs_mom:"'`.

mod commands;

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.split_first() {
        Some((cmd, rest)) => match cmd.as_str() {
            "query" => commands::query(rest),
            "tag" => commands::tag(rest),
            "stats" => commands::stats(rest),
            "spikes" => commands::spikes(rest),
            "gen" => commands::gen(rest),
            // Scrub has a three-way exit contract: 0 = clean device,
            // 2 = corruption found, 1 = operational error (like every
            // other command) — so scripts can gate on device health.
            "scrub" => match commands::scrub(rest) {
                Ok(commands::ScrubOutcome::Clean) => Ok(()),
                Ok(commands::ScrubOutcome::CorruptionFound) => return ExitCode::from(2),
                Err(e) => Err(e),
            },
            "serve" => commands::serve(rest),
            "retention" => commands::retention(rest),
            "segments" => commands::segments(rest),
            "recover" => commands::recover(rest),
            "help" | "--help" | "-h" => {
                print_usage();
                Ok(())
            }
            other => Err(format!("unknown command {other:?}; try `mithrilog help`").into()),
        },
        None => {
            print_usage();
            Ok(())
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn print_usage() {
    println!(
        "mithrilog — near-storage accelerated log analytics (MICRO '21 reproduction)\n\
         \n\
         usage:\n\
         \x20 mithrilog query  <logfile> [--threads <n>] [--explain] <query...>\n\
         \x20                                           run a token query end to end\n\
         \x20                                           (--explain: plan only, no scan)\n\
         \x20 mithrilog tag    <logfile> [-n <k>]       extract templates and tag traffic\n\
         \x20 mithrilog stats  <logfile>                dataset/compression/datapath stats\n\
         \x20 mithrilog spikes <logfile> [--threads <n>] <query...>\n\
         \x20                                           filter, histogram, flag rate spikes\n\
         \x20 mithrilog gen    <profile> <mb> <out>     generate a synthetic HPC4-profile log\n\
         \x20 mithrilog scrub  <logfile> [--flip-rate <p>] [--seed <n>] [--online]\n\
         \x20                                           fault drill: inject bit rot, verify scrub\n\
         \x20                                           (--online: via the service's idle scrub\n\
         \x20                                           lane with page quarantine)\n\
         \x20                                           (exit 0 clean, 2 corruption found, 1 error)\n\
         \x20 mithrilog serve  <logfile> [--port <p>] [--threads <n>] [--max-queue <n>]\n\
         \x20                  [--max-batch <n>] [--budget <n>] [--page-cache <bytes>]\n\
         \x20                  [--deadline <micros>] [--scrub-batch <pages>]\n\
         \x20                  [--retain <segments>] [--shards <n>]\n\
         \x20                  [--route-mode <line-hash|tenant>] [--route-salt <n>]\n\
         \x20                  [--tenant-queue <n>] [--tenant-budget <pages>]\n\
         \x20                                           concurrent query service over TCP\n\
         \x20                                           (--shards: scatter-gather over N devices)\n\
         \x20 mithrilog retention <storefile> --keep <segments>\n\
         \x20                                           drop the oldest sealed segments, crash-safely\n\
         \x20 mithrilog segments <storefile>            list sealed segments: pages, lines, crc,\n\
         \x20                                           bitmap sidecars\n\
         \x20 mithrilog recover <storefile>             mount an on-disk store, run crash recovery\n\
         \x20 mithrilog recover --self-check [--points <k>] [--seed <n>]\n\
         \x20                                           crash drill: power-loss matrix, verify recovery\n\
         \n\
         query language: AND, OR, NOT, parentheses, quoted tokens.\n\
         profiles: bgl2 | liberty2 | spirit2 | thunderbird\n\
         --threads: 0 (default) = one worker per modeled flash channel; values\n\
         \x20          above 1024 are rejected. Results are byte-identical for\n\
         \x20          every thread count."
    );
}
