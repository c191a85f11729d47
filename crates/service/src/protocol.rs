//! The `mithrilog serve` line protocol.
//!
//! One request per line; every response is one or more lines terminated by
//! a lone `.` line, so clients read until the terminator regardless of the
//! payload size. The first response line starts with `OK`, `REJECTED`
//! (admission control turned the request away: `REJECTED queue_full` for
//! the shared queue, `REJECTED tenant_cap` for the tenant's own cap) or
//! `ERR`; matched log lines in a result are prefixed with `L ` so a log
//! line consisting of a single dot can never forge the terminator.
//!
//! Requests:
//!
//! ```text
//! SUBMIT [pri=high|normal|low] [budget=N] [range=T1:T2] [deadline=MICROS] [tenant=NAME] [explain=0|1] q=<query text>
//! POLL <id>
//! WAIT <id>
//! CANCEL <id>
//! SCRUB
//! STATS
//! SHUTDOWN
//! QUIT
//! ```
//!
//! `q=` must come last: everything after it, spaces included, is the query.
//! `deadline=` is a modeled-time bound in microseconds: the planned page set
//! is clipped to what the device model can read in that time, and anything
//! clipped is reported honestly in the degraded-read accounting.
//! `tenant=` tags the job for per-tenant scheduling: tagged queries
//! interleave fairly across tenants, inherit the per-tenant page budget,
//! and count against the tenant's admission cap; `STATS` reports
//! `tenant.<name>.*` counters for every tenant seen, plus `shard.<k>.*`
//! rows for every device behind the service.
//! `explain=1` plans the request — index decision, bitmap pruning, clips —
//! without scanning a single data page; the result lists one `L` line per
//! segment. `CANCEL` stops a queued job outright and tells a running query
//! to stop at its next page boundary; a running ingest, explain or scrub
//! runs to completion and answers `OK too-late`. `SCRUB` queues a full
//! verification pass over every page.

use std::collections::BTreeMap;
use std::time::Duration;

use mithrilog::QueryRequest;
use mithrilog_shard::ShardRow;

use crate::service::{
    JobId, JobOutput, JobStatus, Priority, ServiceStats, SubmitError, TenantStats,
};

/// A parsed client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Submit a query for execution.
    Submit {
        /// The query text (everything after `q=`).
        query: String,
        /// Scheduling class (default [`Priority::Normal`]).
        priority: Priority,
        /// Page (deadline) budget, if any.
        budget: Option<u64>,
        /// Snapshot-clock time window, if any.
        range: Option<(u64, u64)>,
        /// Modeled-time deadline in microseconds, if any.
        deadline: Option<u64>,
        /// Tenant tag for per-tenant scheduling, if any.
        tenant: Option<String>,
        /// Plan-only: explain how the request would execute without
        /// scanning any data page.
        explain: bool,
    },
    /// Report a job's status without blocking.
    Poll(JobId),
    /// Block until a job finishes, then return its result.
    Wait(JobId),
    /// Cancel a queued job, or stop a running one at its next page boundary.
    Cancel(JobId),
    /// Queue a full scrub pass over every page on the device.
    Scrub,
    /// Report service counters.
    Stats,
    /// Stop the server (and the service behind it).
    Shutdown,
    /// Close this connection.
    Quit,
}

/// Parses one request line.
///
/// # Errors
///
/// A human-readable message describing what is malformed; the server
/// returns it as an `ERR` response.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let line = line.trim();
    let (verb, rest) = match line.split_once(' ') {
        Some((v, r)) => (v, r.trim()),
        None => (line, ""),
    };
    match verb.to_ascii_uppercase().as_str() {
        "SUBMIT" => parse_submit(rest),
        "POLL" => Ok(Request::Poll(parse_id(rest)?)),
        "WAIT" => Ok(Request::Wait(parse_id(rest)?)),
        "CANCEL" => Ok(Request::Cancel(parse_id(rest)?)),
        "SCRUB" => no_args("SCRUB", rest).map(|()| Request::Scrub),
        "STATS" => no_args("STATS", rest).map(|()| Request::Stats),
        "SHUTDOWN" => no_args("SHUTDOWN", rest).map(|()| Request::Shutdown),
        "QUIT" => no_args("QUIT", rest).map(|()| Request::Quit),
        "" => Err("empty request".into()),
        other => Err(format!("unknown verb {other:?}")),
    }
}

/// Argument-less verbs reject trailing text loudly: a typo like
/// `SCRUB now` (or a client speaking a newer dialect) must fail the
/// request, never silently run something else than what was asked.
fn no_args(verb: &str, rest: &str) -> Result<(), String> {
    if rest.is_empty() {
        Ok(())
    } else {
        Err(format!("{verb} takes no arguments, got {rest:?}"))
    }
}

fn parse_id(text: &str) -> Result<JobId, String> {
    text.parse::<JobId>()
        .map_err(|_| format!("expected a job id, got {text:?}"))
}

fn parse_submit(rest: &str) -> Result<Request, String> {
    let mut priority = Priority::Normal;
    let mut budget = None;
    let mut range = None;
    let mut deadline = None;
    let mut tenant = None;
    let mut explain = false;
    let mut remaining = rest;
    let query = loop {
        let remaining_trimmed = remaining.trim_start();
        if let Some(q) = remaining_trimmed.strip_prefix("q=") {
            break q.to_string();
        }
        let (field, rest) = match remaining_trimmed.split_once(' ') {
            Some(pair) => pair,
            None => (remaining_trimmed, ""),
        };
        let Some((key, value)) = field.split_once('=') else {
            return Err(format!(
                "expected key=value fields then q=<query>, got {field:?}"
            ));
        };
        match key {
            "pri" => {
                priority =
                    Priority::parse(value).ok_or_else(|| format!("unknown priority {value:?}"))?;
            }
            "budget" => {
                budget = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("bad budget {value:?}"))?,
                );
            }
            "range" => {
                let (t1, t2) = value
                    .split_once(':')
                    .ok_or_else(|| format!("range wants T1:T2, got {value:?}"))?;
                let t1 = t1
                    .parse::<u64>()
                    .map_err(|_| format!("bad range start {t1:?}"))?;
                let t2 = t2
                    .parse::<u64>()
                    .map_err(|_| format!("bad range end {t2:?}"))?;
                range = Some((t1, t2));
            }
            "deadline" => {
                deadline = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("bad deadline {value:?} (want microseconds)"))?,
                );
            }
            "tenant" => {
                if value.is_empty() {
                    return Err("tenant wants a non-empty name".into());
                }
                tenant = Some(value.to_string());
            }
            "explain" => {
                explain = match value {
                    "1" => true,
                    "0" => false,
                    other => return Err(format!("explain wants 0 or 1, got {other:?}")),
                };
            }
            other => return Err(format!("unknown field {other:?}")),
        }
        remaining = rest;
    };
    if query.trim().is_empty() {
        return Err("empty query".into());
    }
    Ok(Request::Submit {
        query,
        priority,
        budget,
        range,
        deadline,
        tenant,
        explain,
    })
}

/// Builds the [`QueryRequest`] a `SUBMIT` describes.
///
/// # Errors
///
/// Parse errors from the query text.
pub fn submit_to_request(
    query: &str,
    budget: Option<u64>,
    range: Option<(u64, u64)>,
    deadline: Option<u64>,
) -> Result<QueryRequest, String> {
    let mut request = QueryRequest::parse(query).map_err(|e| e.to_string())?;
    request.page_budget = budget;
    request.time_range = range;
    request.deadline = deadline.map(Duration::from_micros);
    Ok(request)
}

/// The response terminator line.
pub const TERMINATOR: &str = ".";

fn terminated(mut body: String) -> String {
    body.push_str(TERMINATOR);
    body.push('\n');
    body
}

/// Renders the response to a `SUBMIT`.
pub fn render_submit(result: &Result<JobId, SubmitError>) -> String {
    terminated(match result {
        Ok(id) => format!("OK id={id}\n"),
        Err(SubmitError::Rejected {
            queue_full,
            queue_len,
            capacity,
        }) => {
            let cause = if *queue_full {
                "queue_full"
            } else {
                "tenant_cap"
            };
            format!("REJECTED {cause} queued={queue_len} capacity={capacity}\n")
        }
        Err(SubmitError::Parse(reason)) => format!("ERR parse: {reason}\n"),
        Err(SubmitError::Closed) => "ERR service is shut down\n".to_string(),
    })
}

/// Renders a job status (the response to `POLL`, and to `WAIT` once the
/// job settles). `None` means the id was never issued.
pub fn render_status(status: Option<&JobStatus>) -> String {
    terminated(match status {
        None => "ERR unknown job\n".to_string(),
        Some(JobStatus::Pending) => "OK pending\n".to_string(),
        Some(JobStatus::Running) => "OK running\n".to_string(),
        Some(JobStatus::Cancelled) => "OK cancelled\n".to_string(),
        Some(JobStatus::Failed(reason)) => format!("ERR failed: {reason}\n"),
        Some(JobStatus::Done(output)) => render_output(output),
    })
}

fn render_output(output: &JobOutput) -> String {
    match output {
        JobOutput::Query {
            outcome,
            attribution,
        } => {
            let mut body = format!(
                "OK done kind=query lines={} pages={} offloaded={} used_index={} \
                 degraded={} shared_pages={} attributed_cost={:.3}\n",
                outcome.lines.len(),
                outcome.pages_scanned,
                outcome.offloaded,
                outcome.used_index,
                outcome.degraded.is_degraded(),
                attribution.shared_pages,
                attribution.attributed_page_cost,
            );
            for line in &outcome.lines {
                body.push_str("L ");
                body.push_str(line);
                body.push('\n');
            }
            body
        }
        JobOutput::Explain(explain) => {
            let mut body = format!(
                "OK done kind=explain used_index={} index_fallback={} live_pages={} \
                 planned_pages={} pruned_by_index={} pruned_by_bitmap={} pruned_by_both={} \
                 budget_clipped={} deadline_clipped={}\n",
                explain.used_index,
                explain.index_fallback,
                explain.live_pages,
                explain.planned_pages,
                explain.pruned_by_index(),
                explain.pruned_by_bitmap(),
                explain.pruned_by_both(),
                explain.budget_clipped,
                explain.deadline_clipped,
            );
            for seg in &explain.segments {
                let id = match seg.segment_id {
                    Some(id) => format!("{id}"),
                    None => "open".to_string(),
                };
                body.push_str(&format!(
                    "L segment={id} live={} planned={} pruned_by_index={} \
                     pruned_by_bitmap={} pruned_by_both={} bitmaps={}\n",
                    seg.live_pages,
                    seg.planned_pages,
                    seg.pruned_by_index,
                    seg.pruned_by_bitmap,
                    seg.pruned_by_both,
                    seg.has_bitmaps,
                ));
            }
            body
        }
        JobOutput::Ingest(report) => format!(
            "OK done kind=ingest lines={} pages={} raw_bytes={}\n",
            report.lines, report.data_pages, report.raw_bytes
        ),
        JobOutput::Scrub(report) => format!(
            "OK done kind=scrub checked={} corrupt={} unreadable={} unverified={} \
             retries={} quarantined={} already_quarantined={} bitmaps_dropped={}\n",
            report.pages_checked,
            report.corrupt.len(),
            report.unreadable.len(),
            report.unverified.len(),
            report.retries,
            report.quarantined.len(),
            report.already_quarantined,
            report.bitmaps_dropped,
        ),
    }
}

/// Renders the response to `CANCEL`.
pub fn render_cancel(cancelled: bool) -> String {
    terminated(if cancelled {
        "OK cancelled\n".to_string()
    } else {
        "OK too-late\n".to_string()
    })
}

/// Renders the response to `STATS`: the service-wide counters, then one
/// `shard.<k>.*` block per device behind the service, then one
/// `tenant.<name>.*` block per tenant seen since spawn.
pub fn render_stats(
    stats: &ServiceStats,
    tenants: &BTreeMap<String, TenantStats>,
    shards: &[ShardRow],
) -> String {
    let mut body = format!(
        "OK stats\nsubmitted={}\nrejected={}\ncompleted={}\nfailed={}\ncancelled={}\n\
         queued={}\nwaves={}\ndemanded_page_reads={}\nunique_pages_read={}\n\
         shared_reads_avoided={}\ncache_hits={}\ncache_bytes_saved={}\ncache_declined={}\n\
         pages_pruned_by_index={}\npages_pruned_by_bitmap={}\npages_pruned_by_both={}\n\
         probe_node_visits_saved={}\nbitmaps_dropped={}\n\
         waves_poisoned={}\nscrub_slices={}\npages_scrubbed={}\npages_quarantined={}\n\
         ingests_overlapped={}\nsegments_sealed={}\nsegments_dropped={}\nshards={}\n",
        stats.submitted,
        stats.rejected,
        stats.completed,
        stats.failed,
        stats.cancelled,
        stats.queued,
        stats.waves,
        stats.demanded_page_reads,
        stats.unique_pages_read,
        stats.shared_reads_avoided,
        stats.cache_hits,
        stats.cache_bytes_saved,
        stats.cache_declined,
        stats.pages_pruned_by_index,
        stats.pages_pruned_by_bitmap,
        stats.pages_pruned_by_both,
        stats.probe_node_visits_saved,
        stats.bitmaps_dropped,
        stats.waves_poisoned,
        stats.scrub_slices,
        stats.pages_scrubbed,
        stats.pages_quarantined,
        stats.ingests_overlapped,
        stats.segments_sealed,
        stats.segments_dropped,
        shards.len(),
    );
    for row in shards {
        let k = row.shard;
        body.push_str(&format!(
            "shard.{k}.lines={}\nshard.{k}.data_pages={}\nshard.{k}.raw_bytes={}\n\
             shard.{k}.sealed_segments={}\nshard.{k}.pages_read={}\nshard.{k}.bytes_read={}\n\
             shard.{k}.retries={}\nshard.{k}.modeled_gbps={:.3}\n",
            row.lines,
            row.data_pages,
            row.raw_bytes,
            row.sealed_segments,
            row.pages_read,
            row.bytes_read,
            row.retries,
            row.modeled_gbps,
        ));
    }
    for (name, t) in tenants {
        body.push_str(&format!(
            "tenant.{name}.submitted={}\ntenant.{name}.rejected={}\n\
             tenant.{name}.completed={}\ntenant.{name}.failed={}\n\
             tenant.{name}.cancelled={}\ntenant.{name}.queued={}\n\
             tenant.{name}.pages_scanned={}\ntenant.{name}.lines_returned={}\n",
            t.submitted,
            t.rejected,
            t.completed,
            t.failed,
            t.cancelled,
            t.queued,
            t.pages_scanned,
            t.lines_returned,
        ));
    }
    terminated(body)
}

/// Renders an `ERR` for a request that failed to parse.
pub fn render_error(reason: &str) -> String {
    terminated(format!("ERR {reason}\n"))
}

/// Renders the acknowledgement for `SHUTDOWN` / `QUIT`.
pub fn render_bye() -> String {
    terminated("OK bye\n".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn submit_parses_fields_and_query_tail() {
        let r = parse_request(
            "SUBMIT pri=high budget=4 range=10:99 deadline=2500 tenant=acme explain=1 \
             q=FATAL AND NOT ciod:",
        )
        .unwrap();
        assert_eq!(
            r,
            Request::Submit {
                query: "FATAL AND NOT ciod:".into(),
                priority: Priority::High,
                budget: Some(4),
                range: Some((10, 99)),
                deadline: Some(2500),
                tenant: Some("acme".into()),
                explain: true,
            }
        );
        // Everything after q= belongs to the query, even key=value lookalikes.
        let r = parse_request("SUBMIT q=pri=high").unwrap();
        assert_eq!(
            r,
            Request::Submit {
                query: "pri=high".into(),
                priority: Priority::Normal,
                budget: None,
                range: None,
                deadline: None,
                tenant: None,
                explain: false,
            }
        );
        // An empty tenant name is rejected loudly, never treated as "no
        // tenant".
        assert!(parse_request("SUBMIT tenant= q=x").is_err());
        // explain=0 is explicit, anything else is rejected loudly.
        assert!(matches!(
            parse_request("SUBMIT explain=0 q=x").unwrap(),
            Request::Submit { explain: false, .. }
        ));
        assert!(parse_request("SUBMIT explain=yes q=x").is_err());
    }

    #[test]
    fn submit_deadline_converts_to_micros() {
        let req = submit_to_request("FATAL", None, None, Some(1500)).unwrap();
        assert_eq!(req.deadline, Some(Duration::from_micros(1500)));
        // deadline=0 is well-formed: the plan is fully clipped, not an error.
        let req = submit_to_request("FATAL", None, None, Some(0)).unwrap();
        assert_eq!(req.deadline, Some(Duration::ZERO));
    }

    #[test]
    fn submit_rejects_malformed_fields() {
        assert!(parse_request("SUBMIT").is_err());
        assert!(parse_request("SUBMIT q=").is_err());
        assert!(parse_request("SUBMIT pri=urgent q=x").is_err());
        assert!(parse_request("SUBMIT budget=lots q=x").is_err());
        assert!(parse_request("SUBMIT range=5 q=x").is_err());
        assert!(parse_request("SUBMIT deadline=soon q=x").is_err());
        assert!(parse_request("SUBMIT FATAL").is_err(), "query needs q=");
    }

    #[test]
    fn control_verbs_parse() {
        assert_eq!(parse_request("POLL 7").unwrap(), Request::Poll(7));
        assert_eq!(parse_request("WAIT 0").unwrap(), Request::Wait(0));
        assert_eq!(parse_request("CANCEL 3").unwrap(), Request::Cancel(3));
        assert_eq!(parse_request("SCRUB").unwrap(), Request::Scrub);
        assert_eq!(parse_request("STATS").unwrap(), Request::Stats);
        assert_eq!(parse_request("shutdown").unwrap(), Request::Shutdown);
        assert_eq!(parse_request("QUIT").unwrap(), Request::Quit);
        assert!(parse_request("POLL x").is_err());
        assert!(parse_request("BOGUS").is_err());
        assert!(parse_request("").is_err());
    }

    #[test]
    fn argument_less_verbs_reject_trailing_text() {
        for line in ["SCRUB now", "STATS -v", "SHUTDOWN 5", "QUIT please"] {
            let err = parse_request(line).unwrap_err();
            assert!(
                err.contains("takes no arguments"),
                "{line:?} must fail loudly, got {err:?}"
            );
        }
        // Ids with trailing garbage are malformed too, never truncated.
        assert!(parse_request("POLL 7 extra").is_err());
        assert!(parse_request("WAIT 0x2").is_err());
    }

    #[test]
    fn submit_rejects_misspelled_keys_loudly() {
        // The classic fat-finger: a dropped letter must not silently run
        // the query without its deadline.
        let err = parse_request("SUBMIT dedline=2500 q=FATAL").unwrap_err();
        assert!(err.contains("unknown field"), "{err:?}");
        assert!(err.contains("dedline"), "{err:?}");
    }

    #[test]
    fn responses_are_dot_terminated() {
        for response in [
            render_submit(&Ok(5)),
            render_submit(&Err(SubmitError::Rejected {
                queue_full: true,
                queue_len: 8,
                capacity: 8,
            })),
            render_status(None),
            render_status(Some(&JobStatus::Pending)),
            render_cancel(true),
            render_stats(&ServiceStats::default(), &BTreeMap::new(), &[]),
            render_error("nope"),
            render_bye(),
        ] {
            assert!(
                response.ends_with("\n.\n") || response == ".\n",
                "{response:?}"
            );
        }
        assert!(render_submit(&Ok(5)).starts_with("OK id=5\n"));
        let mut tenants = BTreeMap::new();
        tenants.insert(
            "acme".to_string(),
            TenantStats {
                submitted: 3,
                completed: 2,
                ..TenantStats::default()
            },
        );
        let rows = [ShardRow {
            shard: 0,
            lines: 10,
            data_pages: 2,
            raw_bytes: 640,
            sealed_segments: 1,
            pages_read: 4,
            bytes_read: 2048,
            retries: 0,
            modeled_gbps: 3.25,
        }];
        let stats = render_stats(&ServiceStats::default(), &tenants, &rows);
        for key in [
            "cache_declined=",
            "waves_poisoned=",
            "scrub_slices=",
            "pages_scrubbed=",
            "pages_quarantined=",
            "ingests_overlapped=",
            "segments_sealed=",
            "segments_dropped=",
            "shards=1",
            "shard.0.lines=10",
            "shard.0.modeled_gbps=3.250",
            "tenant.acme.submitted=3",
            "tenant.acme.completed=2",
            "tenant.acme.queued=0",
        ] {
            assert!(stats.contains(key), "{stats}");
        }
        let scrub = render_status(Some(&JobStatus::Done(JobOutput::Scrub(
            mithrilog_storage::ScrubReport::default(),
        ))));
        assert!(scrub.starts_with("OK done kind=scrub checked=0"), "{scrub}");
        assert!(scrub.ends_with("\n.\n"));
        assert!(render_submit(&Err(SubmitError::Rejected {
            queue_full: true,
            queue_len: 8,
            capacity: 8,
        }))
        .starts_with("REJECTED queue_full"));
        // A tenant's own cap is not a full shared queue.
        let tenant_cap = SubmitError::Rejected {
            queue_full: false,
            queue_len: 2,
            capacity: 2,
        };
        assert!(render_submit(&Err(tenant_cap.clone()))
            .starts_with("REJECTED tenant_cap queued=2 capacity=2\n"));
        assert_eq!(
            tenant_cap.to_string(),
            "tenant cap reached (2/2 of the tenant's jobs queued)"
        );
    }

    #[test]
    fn done_query_lines_are_prefixed() {
        use mithrilog_storage::CostLedger;
        use std::time::Duration;
        let outcome = mithrilog::QueryOutcome {
            lines: vec!["a FATAL line".into(), ".".into()],
            line_pages: vec![0, 1],
            offloaded: true,
            used_index: false,
            pages_scanned: 2,
            bytes_filtered: 100,
            lines_scanned: 4,
            ledger: CostLedger::default(),
            modeled_time: Duration::ZERO,
            wall_time: Duration::ZERO,
            degraded: mithrilog::DegradedRead::default(),
        };
        let status = JobStatus::Done(JobOutput::Query {
            outcome: Box::new(outcome),
            attribution: mithrilog::ScanAttribution::default(),
        });
        let rendered = render_status(Some(&status));
        assert!(
            rendered.starts_with("OK done kind=query lines=2"),
            "{rendered}"
        );
        assert!(rendered.contains("\nL a FATAL line\n"));
        // A log line that is a lone dot cannot forge the terminator.
        assert!(rendered.contains("\nL .\n"));
        assert!(rendered.ends_with("\n.\n"));
    }
}
