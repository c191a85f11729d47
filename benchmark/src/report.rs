//! The benchmark's metric and workload names, and the result a run emits.
//!
//! These tables are the contract every later performance change quotes;
//! `BENCHMARK.json` at the repository root lists the same names (a unit
//! test holds the two together).

use std::collections::BTreeMap;
use std::fmt::Write as _;

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// Share of the reference value by which the metric may worsen before
    /// `suite --repeat` (and the driver) calls it a regression. Per-layer
    /// metrics carry no bound.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64) -> MetricDef {
    MetricDef { name, unit, bound }
}

const fn layer(name: &'static str, unit: &'static str) -> MetricDef {
    e2e(name, unit, f64::INFINITY)
}

pub const WORKLOADS: [&str; 5] = [
    "scan_cold",
    "probe_warm",
    "shard_scatter",
    "ingest_stream",
    "serve_mixed",
];

/// What a user of the system sees. Every workload reports every one.
pub const END_TO_END: [MetricDef; 9] = [
    e2e("setup_s", "s", 0.25),
    e2e("queries_per_s", "1/s", 0.25),
    e2e("query_p50_ms", "ms", 0.25),
    e2e("query_p95_ms", "ms", 0.25),
    e2e("ingest_mb_per_s", "MB/s", 0.25),
    e2e("ingest_p50_ms", "ms", 0.25),
    e2e("modeled_us_per_query", "us", 0.20),
    e2e("stored_bytes_per_raw_byte", "ratio", 0.10),
    e2e("peak_rss_mb", "MB", 0.25),
];

/// What single layers do, measured from outside by timing calls into
/// their public functions. A layer that does no work on a workload has no
/// value there (printed as absent by `suite`, as 0 on the driver line).
pub const PER_LAYER: [MetricDef; 43] = [
    layer("loggen.generate_s", "s"),
    layer("query.parse_us", "us"),
    layer("core.plan_us", "us"),
    layer("core.pages_planned_per_query", "pages"),
    layer("core.pages_pruned_by_index", "pages"),
    layer("core.pages_pruned_by_bitmap", "pages"),
    layer("index.lookup_us", "us"),
    layer("index.node_reads_per_lookup", "pages"),
    layer("storage.read_us_per_page", "us"),
    layer("storage.crc_mb_per_s", "MB/s"),
    layer("storage.retries", "count"),
    layer("storage.pages_read_per_query", "pages"),
    layer("storage.pages_written_per_mb", "pages"),
    layer("storage.syncs_per_batch", "count"),
    layer("compress.decode_us_per_page", "us"),
    layer("compress.encode_mb_per_s", "MB/s"),
    layer("compress.ratio", "ratio"),
    layer("tokenizer.tokenize_mb_per_s", "MB/s"),
    layer("filter.compile_us", "us"),
    layer("filter.filter_us_per_page", "us"),
    layer("filter.lines_kept_share", "ratio"),
    layer("core.query_ms", "ms"),
    layer("core.exec_self_ms", "ms"),
    layer("core.cache_hit_share", "ratio"),
    layer("core.cache_bytes_saved_per_query", "bytes"),
    layer("core.ingest_build_ms", "ms"),
    layer("core.ingest_apply_ms", "ms"),
    layer("core.ingest_apply_growth", "ratio"),
    layer("shard.query_shared_ms", "ms"),
    layer("shard.scatter_overlap", "ratio"),
    layer("shard.merge_self_ms", "ms"),
    layer("shard.page_skew", "ratio"),
    layer("service.submit_to_done_ms", "ms"),
    layer("service.overhead_ms", "ms"),
    layer("service.queries_per_wave", "count"),
    layer("service.shared_reads_avoided_share", "ratio"),
    layer("service.rejected", "count"),
    layer("service.ingests_overlapped", "count"),
    layer("service.render_us", "us"),
    layer("service.response_bytes_per_query", "bytes"),
    layer("service.tcp_overhead_ms", "ms"),
    layer("sim.model_to_wall_ratio", "ratio"),
    layer("trace.overhead_share", "ratio"),
];

/// The metric table a run with the given `--trace` flag reports.
pub fn table(trace: bool) -> &'static [MetricDef] {
    if trace {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

/// Everything one run of one workload measured.
#[derive(Debug)]
pub struct RunResult {
    pub workload: &'static str,
    pub seed: u64,
    pub trace: bool,
    pub host_cpus: usize,
    pub query_threads: usize,
    /// FNV digest of the op list, so two runs can prove they did the same
    /// work.
    pub op_digest: u64,
    pub attempted: u64,
    pub failed: u64,
    values: BTreeMap<&'static str, f64>,
    /// Sample counts behind the pooled latencies, by name.
    pub samples: BTreeMap<&'static str, usize>,
}

impl RunResult {
    pub fn new(workload: &'static str, seed: u64, trace: bool) -> Self {
        RunResult {
            workload,
            seed,
            trace,
            host_cpus: 0,
            query_threads: 0,
            op_digest: 0,
            attempted: 0,
            failed: 0,
            values: BTreeMap::new(),
            samples: BTreeMap::new(),
        }
    }

    /// Records a measured value.
    ///
    /// # Panics
    ///
    /// Panics when `name` is not in this run's metric table, or `value` is
    /// not finite: both are harness bugs, not measurements.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            table(self.trace).iter().any(|d| d.name == name),
            "{name} is not a metric of this run"
        );
        assert!(value.is_finite(), "{name} = {value} is not a measurement");
        self.values.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// The driver's result line: exactly `correct`, `attempted`, `failed`
    /// and every metric of the run's table.
    pub fn driver_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted,
            self.failed
        );
        for (i, def) in table(self.trace).iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                def.name,
                self.get(def.name).unwrap_or(0.0),
                def.unit
            );
        }
        out.push_str("}}");
        out
    }

    /// One `name value unit` line per measured metric; absent values are
    /// left out, not zero-filled.
    pub fn human_lines(&self) -> String {
        let mut out = String::new();
        for def in table(self.trace) {
            if let Some(v) = self.get(def.name) {
                let _ = write!(out, "{} {} {v} {}", self.workload, def.name, def.unit);
                if let Some(n) = self.samples.get(def.name) {
                    let _ = write!(out, " (n={n})");
                }
                out.push('\n');
            }
        }
        out
    }

    /// The record `suite` collects into `results.json`.
    pub fn detail_json(&self) -> String {
        let mut out = format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"host_cpus\": {}, \
             \"query_threads\": {}, \"op_list_digest\": \"{:016x}\", \"attempted\": {}, \
             \"failed\": {}, \"metrics\": {{",
            self.workload,
            self.seed,
            self.trace,
            self.host_cpus,
            self.query_threads,
            self.op_digest,
            self.attempted,
            self.failed
        );
        let mut first = true;
        for def in table(self.trace) {
            let Some(v) = self.get(def.name) else {
                continue;
            };
            if !first {
                out.push_str(", ");
            }
            first = false;
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"",
                def.name, def.unit
            );
            if let Some(n) = self.samples.get(def.name) {
                let _ = write!(out, ", \"samples\": {n}");
            }
            out.push('}');
        }
        out.push_str("}}");
        out
    }
}

/// Reads back the `"name": {"value": v` pairs of a driver line or a detail
/// record (both written by this module).
pub fn parse_metric_values(json: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    let marker = "\": {\"value\": ";
    let mut rest = json;
    while let Some(at) = rest.find(marker) {
        let name_start = rest[..at].rfind('"').map_or(0, |q| q + 1);
        let name = rest[name_start..at].to_string();
        let tail = &rest[at + marker.len()..];
        let end = tail.find([',', '}']).unwrap_or(tail.len());
        if let Ok(v) = tail[..end].trim().parse() {
            out.push((name, v));
        }
        rest = &tail[end..];
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The flat `{...}` objects of the array under `key` in BENCHMARK.json,
    /// each as its `"k": v` fields.
    fn objects(json: &str, key: &str) -> Vec<BTreeMap<String, String>> {
        let at = json.find(&format!("\"{key}\"")).expect("key present");
        let open = at + json[at..].find('[').expect("array");
        let close = open + json[open..].find(']').expect("array end");
        json[open + 1..close]
            .split('}')
            .filter(|o| o.contains('{'))
            .map(|o| {
                let body = &o[o.find('{').expect("object") + 1..];
                let quoted: Vec<&str> = body.split('"').collect();
                // "k": "v"  → [.., k, ": ", v, ..]; "k": 0.1 → [.., k, ": 0.1, "]
                let mut fields = BTreeMap::new();
                let mut i = 1;
                while i < quoted.len() {
                    let k = quoted[i].to_string();
                    let sep = quoted.get(i + 1).copied().unwrap_or("");
                    let bare = sep
                        .trim_start_matches(':')
                        .trim()
                        .trim_end_matches(',')
                        .trim();
                    if bare.is_empty() {
                        fields.insert(k, quoted[i + 2].to_string());
                        i += 4;
                    } else {
                        fields.insert(k, bare.to_string());
                        i += 2;
                    }
                }
                fields
            })
            .collect()
    }

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    #[test]
    fn benchmark_json_lists_exactly_these_names() {
        let workloads: Vec<String> = objects(BENCHMARK_JSON, "workloads")
            .iter()
            .map(|o| o["name"].clone())
            .collect();
        assert_eq!(workloads, WORKLOADS);

        let listed = objects(BENCHMARK_JSON, "end_to_end");
        assert_eq!(listed.len(), END_TO_END.len());
        for (o, def) in listed.iter().zip(&END_TO_END) {
            assert_eq!(o["name"], def.name);
            assert_eq!(o["unit"], def.unit);
            assert_eq!(
                o["bound"].parse::<f64>().unwrap(),
                def.bound,
                "{}",
                def.name
            );
        }

        let listed = objects(BENCHMARK_JSON, "per_layer");
        assert_eq!(listed.len(), PER_LAYER.len());
        for (o, def) in listed.iter().zip(&PER_LAYER) {
            assert_eq!(o["name"], def.name);
            assert_eq!(o["unit"], def.unit);
            assert!(!o.contains_key("bound"), "per-layer metrics have no bound");
        }
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let ok_name = |s: &str| {
            s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |s: &str| {
            s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for def in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(ok_name(def.name), "{}", def.name);
            assert!(ok_unit(def.unit), "{}", def.unit);
            assert!(seen.insert(def.name), "{} listed twice", def.name);
        }
        assert!(WORKLOADS.iter().all(|w| ok_name(w) && seen.insert(w)));
        assert!(END_TO_END.iter().all(|d| d.bound > 0.0 && d.bound <= 0.25));
        let setup = &END_TO_END[0];
        assert_eq!((setup.name, setup.unit), ("setup_s", "s"));
    }

    #[test]
    fn emitted_json_names_exactly_the_table_and_omits_absent_pairs() {
        for trace in [false, true] {
            let mut run = RunResult::new("scan_cold", 42, trace);
            run.attempted = 10;
            let first = table(trace)[0].name;
            run.set(first, 1.25);
            run.samples.insert(first, 10);

            // The driver line names every metric of the table, in order.
            let line = run.driver_line();
            let names: Vec<String> = parse_metric_values(&line)
                .into_iter()
                .map(|p| p.0)
                .collect();
            let want: Vec<&str> = table(trace).iter().map(|d| d.name).collect();
            assert_eq!(names, want);
            assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, "));

            // The detail record and the printed lines leave absent pairs out.
            assert_eq!(
                parse_metric_values(&run.detail_json()),
                vec![(first.to_string(), 1.25)]
            );
            assert_eq!(run.human_lines().lines().count(), 1);
        }
    }

    #[test]
    #[should_panic(expected = "not a metric of this run")]
    fn a_name_outside_the_table_is_refused() {
        RunResult::new("scan_cold", 42, false).set("core.query_ms", 1.0);
    }
}
