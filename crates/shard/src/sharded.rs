//! The multi-device shard layer: N fully independent [`MithriLog`] devices
//! behind one ingest/query facade.
//!
//! # Design
//!
//! Routing happens at *frame* granularity: [`PreparedIngest::build`] turns
//! text into compressed page frames as a pure function of `(config, text)`,
//! and the router sends each finished frame — bytes untouched — to its
//! shard. Because the frames of an N-shard deployment are byte-for-byte the
//! frames of a single-device deployment (just distributed), the union of
//! shard pages equals the single-device page set, and the `k`-th frame
//! routed to shard `s` is that shard's `k`-th data page. The persisted
//! [`RoutingManifest`] records the placement sequence, giving a bijection
//! between (shard, local page) and the global frame ordinal; scatter-gather
//! queries merge per-shard results by that ordinal, reproducing the exact
//! line order — and the exact as-if-solo cost accounting — of a
//! single-device run.
//!
//! # What changes with shard count, and what must not
//!
//! Invariant across topologies (the `shard_determinism` gate): matched
//! lines and their order, per-query as-if-solo ledgers (on full-scan
//! plans), `pages_scanned` / `bytes_filtered` / `lines_scanned`, and the
//! merged [`DegradedRead`] accounting. Changing with topology, by design:
//! `modeled_time` is the *maximum* over shards — independent devices scan
//! their partitions in parallel, which is the entire point of adding them.
//!
//! # Host threads
//!
//! The host drives the shards at the same time too: a scan, a routed
//! ingest's apply, a retention pass and a full scrub each run shard 0 on
//! the calling thread and every other shard on a scoped thread (one fan-out
//! helper, so one idiom). A scan uses up to shards × `query_threads`
//! threads, and a routed ingest builds its frames on the same budget.
//! Results are joined and merged in shard order, so completion order never
//! reaches the result. The merge moves each shard's kept lines into the
//! merged outcome a page run at a time; it copies no line text.

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::thread;
use std::time::Instant;

use mithrilog::{
    DegradedRead, IngestReport, MithriLog, MithriLogError, PlanExplain, PreparedIngest,
    QueryOutcome, QueryRequest, RecoveryReport, RetentionReport, SegmentSummary,
    SharedBatchOutcome, SharedScanReport, SystemConfig,
};
use mithrilog_storage::{MemStore, PageId, PageStore, ScrubReport, ScrubSlice};

use crate::router::{ManifestError, RouteMode, RoutingEpoch, RoutingManifest};

/// Topology parameters for a fresh sharded deployment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardOptions {
    /// Number of independent devices (>= 1).
    pub shards: u32,
    /// Frame placement mode.
    pub mode: RouteMode,
    /// Routing hash salt.
    pub salt: u64,
}

impl Default for ShardOptions {
    fn default() -> Self {
        ShardOptions {
            shards: 1,
            mode: RouteMode::LineHash,
            salt: 0,
        }
    }
}

/// Why a shard-layer operation failed.
#[derive(Debug)]
pub enum ShardError {
    /// Bad topology parameters or store set.
    Config(String),
    /// The routing manifest was unreadable.
    Manifest(ManifestError),
    /// A shard holds committed frames the (trimmed) manifest never
    /// referenced — at reopen, a torn cross-shard ingest the durable-write
    /// protocol should have prevented; on a read, frames added to a member
    /// behind the router's back. Refusing to guess placement is the only
    /// honest answer.
    Diverged {
        /// The shard holding unreferenced frames.
        shard: usize,
        /// Frames the manifest references on that shard.
        referenced: u64,
        /// Frames the shard's own recovery produced.
        recovered: u64,
    },
    /// An operation on one member device failed.
    Shard {
        /// Which device.
        shard: usize,
        /// The underlying error.
        source: MithriLogError,
    },
    /// A routed ingest failed on this shard (the lowest-index one that
    /// failed). Shards that applied their share hold frames the manifest
    /// never placed, so every later query and ingest is refused until the
    /// topology is reopened from its stores.
    FailedIngest {
        /// The shard whose apply failed.
        shard: usize,
    },
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::Config(reason) => write!(f, "shard topology: {reason}"),
            ShardError::Manifest(e) => write!(f, "{e}"),
            ShardError::Diverged {
                shard,
                referenced,
                recovered,
            } => write!(
                f,
                "shard {shard} diverged from the routing manifest: \
                 {recovered} frames recovered, {referenced} referenced"
            ),
            ShardError::Shard { shard, source } => write!(f, "shard {shard}: {source}"),
            ShardError::FailedIngest { shard } => write!(
                f,
                "shard {shard} failed a routed ingest, so the shards no longer \
                 match the routing manifest; reopen the topology from its stores"
            ),
        }
    }
}

impl std::error::Error for ShardError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ShardError::Manifest(e) => Some(e),
            ShardError::Shard { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<ManifestError> for ShardError {
    fn from(e: ManifestError) -> Self {
        ShardError::Manifest(e)
    }
}

/// Cross-shard recovery summary: per-shard reports plus what the manifest
/// reconciliation did.
#[derive(Debug)]
pub struct ShardRecovery {
    /// Each shard's own recovery report, in shard order.
    pub shards: Vec<RecoveryReport>,
    /// Manifest run entries trimmed because a shard's recovery discarded
    /// the frames they referenced (consistent-prefix rule: a cross-shard
    /// ingest is visible only up to the oldest surviving frame).
    pub frames_trimmed: u64,
}

/// One shard's observable state — the per-device honesty row the bench and
/// STATS surface.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardRow {
    /// Shard index.
    pub shard: u32,
    /// Lines held.
    pub lines: u64,
    /// Data pages held.
    pub data_pages: u64,
    /// Raw bytes held.
    pub raw_bytes: u64,
    /// Sealed segments held.
    pub sealed_segments: u64,
    /// Cumulative device page reads.
    pub pages_read: u64,
    /// Cumulative device bytes read.
    pub bytes_read: u64,
    /// Cumulative transient-read retries.
    pub retries: u64,
    /// This device's modeled standalone filtering throughput, GB/s.
    pub modeled_gbps: f64,
}

/// A sharded log store: N independent [`MithriLog`] devices, a
/// deterministic frame router, and an order-preserving scatter-gather
/// query path. See the module docs for the identity argument.
pub struct ShardedLog<S: PageStore> {
    shards: Vec<MithriLog<S>>,
    manifest: RoutingManifest,
    config: SystemConfig,
    /// The lowest shard whose routed apply failed, once one has: the
    /// shards and the manifest disagree from then on, and the topology
    /// refuses queries and ingests (see [`ShardError::FailedIngest`]).
    failed_ingest: Option<usize>,
}

impl ShardedLog<MemStore> {
    /// Creates a fresh in-memory topology of `opts.shards` devices, each
    /// configured identically with `config`.
    ///
    /// # Panics
    ///
    /// When `opts.shards == 0` or `config` is rejected by a member device.
    pub fn new(config: SystemConfig, opts: ShardOptions) -> Self {
        assert!(opts.shards >= 1, "a topology needs at least one shard");
        let shards = (0..opts.shards)
            .map(|_| MithriLog::new(config.clone()))
            .collect();
        ShardedLog {
            shards,
            manifest: RoutingManifest::new(RoutingEpoch {
                shards: opts.shards,
                mode: opts.mode,
                salt: opts.salt,
            }),
            config,
            failed_ingest: None,
        }
    }
}

/// Adopts one device as a one-shard topology (epoch `{1, LineHash, 0}`)
/// whose manifest places every data page the device ever committed on
/// shard 0, retention-dropped ones included, so global frame ordinal `k`
/// is the device's `k`-th committed data page and a reopen after the
/// adoption finds the frames it expects. Queries answer as the bare device
/// does, except that `line_pages` and `degraded.skipped_pages` name pages
/// by frame ordinal.
impl<S: PageStore> From<MithriLog<S>> for ShardedLog<S> {
    fn from(log: MithriLog<S>) -> Self {
        let mut manifest = RoutingManifest::new(RoutingEpoch {
            shards: 1,
            mode: RouteMode::LineHash,
            salt: 0,
        });
        for _ in 0..log.data_page_count() + log.data_pages_dropped() {
            manifest.record(0);
        }
        ShardedLog {
            config: log.config().clone(),
            shards: vec![log],
            manifest,
            failed_ingest: None,
        }
    }
}

impl<S: PageStore> ShardedLog<S> {
    /// Creates a fresh topology over caller-provided (empty) stores, one
    /// per shard.
    ///
    /// # Errors
    ///
    /// [`ShardError::Config`] when no stores are given or a member device
    /// rejects its store/config pairing.
    pub fn with_stores(
        stores: Vec<S>,
        config: SystemConfig,
        mode: RouteMode,
        salt: u64,
    ) -> Result<Self, ShardError> {
        if stores.is_empty() {
            return Err(ShardError::Config("at least one store is required".into()));
        }
        let count = stores.len() as u32;
        let mut shards = Vec::with_capacity(stores.len());
        for (i, store) in stores.into_iter().enumerate() {
            shards.push(
                MithriLog::with_store(store, config.clone())
                    .map_err(|source| ShardError::Shard { shard: i, source })?,
            );
        }
        Ok(ShardedLog {
            shards,
            manifest: RoutingManifest::new(RoutingEpoch {
                shards: count,
                mode,
                salt,
            }),
            config,
            failed_ingest: None,
        })
    }

    /// Reopens a topology: recovers each shard from its store, decodes the
    /// persisted routing manifest, trims it to the consistent prefix the
    /// shards actually recovered, and cross-checks that no shard holds
    /// frames the manifest never placed. A shard's frames are every data
    /// page it ever committed: the live ones plus the pages of segments
    /// retention dropped, which the manifest still places (see
    /// `live_ordinals`), so retention is never mistaken for loss.
    ///
    /// # Errors
    ///
    /// [`ShardError::Manifest`] for an unreadable manifest,
    /// [`ShardError::Config`] for a store-count/epoch mismatch,
    /// [`ShardError::Diverged`] when a shard committed more frames than the
    /// manifest references, and [`ShardError::Shard`] for member recovery
    /// failures.
    pub fn open_stores(
        stores: Vec<S>,
        config: SystemConfig,
        manifest_bytes: &[u8],
    ) -> Result<(Self, ShardRecovery), ShardError> {
        let mut manifest = RoutingManifest::decode(manifest_bytes)?;
        if stores.len() as u32 != manifest.epoch.shards {
            return Err(ShardError::Config(format!(
                "{} stores for a {}-shard epoch",
                stores.len(),
                manifest.epoch.shards
            )));
        }
        let mut shards = Vec::with_capacity(stores.len());
        let mut reports = Vec::with_capacity(stores.len());
        for (i, store) in stores.into_iter().enumerate() {
            let (shard, report) = MithriLog::open_store(store, config.clone())
                .map_err(|source| ShardError::Shard { shard: i, source })?;
            shards.push(shard);
            reports.push(report);
        }
        let committed: Vec<u64> = shards
            .iter()
            .map(|s| s.data_page_count() + s.data_pages_dropped())
            .collect();
        let frames_trimmed = manifest.trim_to(&committed);
        for (i, &recovered) in committed.iter().enumerate() {
            let referenced = manifest.frames_on(i);
            if recovered > referenced {
                return Err(ShardError::Diverged {
                    shard: i,
                    referenced,
                    recovered,
                });
            }
        }
        Ok((
            ShardedLog {
                shards,
                manifest,
                config,
                failed_ingest: None,
            },
            ShardRecovery {
                shards: reports,
                frames_trimmed,
            },
        ))
    }

    /// The per-shard system configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// The routing epoch in force.
    pub fn epoch(&self) -> RoutingEpoch {
        self.manifest.epoch
    }

    /// Number of member devices.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The serialized routing manifest — persist this next to the shard
    /// stores after every ingest (see DESIGN.md for the durable-write
    /// protocol) so [`ShardedLog::open_stores`] can re-derive placement.
    pub fn manifest_bytes(&self) -> Vec<u8> {
        self.manifest.encode()
    }

    /// Direct read access to a member device, for inspection and drills.
    pub fn shard(&self, index: usize) -> &MithriLog<S> {
        &self.shards[index]
    }

    /// Direct mutable access to a member device, for operational tooling
    /// and fault drills (quarantine, corruption). Structural mutation that
    /// adds or drops frames behind the router's back breaks the manifest
    /// bijection; drills must confine themselves to page contents and
    /// quarantine state.
    pub fn shard_mut(&mut self, index: usize) -> &mut MithriLog<S> {
        &mut self.shards[index]
    }

    /// Routes one prepared frame set: the shard each frame goes to, in
    /// frame order.
    fn routes_for(&self, tenant: Option<&str>, prep: &PreparedIngest<'_>) -> Vec<usize> {
        let epoch = self.manifest.epoch;
        let pinned = match (epoch.mode, tenant) {
            (RouteMode::Tenant, Some(t)) => Some(epoch.route_tenant(t)),
            _ => None,
        };
        (0..prep.frame_count() as usize)
            .map(|i| pinned.unwrap_or_else(|| epoch.route_key(prep.frame_key(i))))
            .collect()
    }

    /// Host threads the topology drives at once: every shard's query
    /// worker pool. A scan fans out over this many, and a routed ingest
    /// builds its frames on the same budget.
    fn host_threads(&self) -> usize {
        self.shards.len() * self.config.resolved_query_threads()
    }

    /// Refuses work that trusts the manifest once a routed apply has
    /// failed.
    fn refuse_after_failed_ingest(&self) -> Result<(), ShardError> {
        match self.failed_ingest {
            Some(shard) => Err(ShardError::FailedIngest { shard }),
            None => Ok(()),
        }
    }

    /// Ingests a batch of log text, routing its frames across the shards.
    ///
    /// # Errors
    ///
    /// As in [`ShardedLog::apply_prepared`].
    pub fn ingest(&mut self, text: &[u8]) -> Result<IngestReport, ShardError> {
        self.ingest_tagged(None, text)
    }

    /// Ingests with an optional tenant tag. Under [`RouteMode::Tenant`] a
    /// tagged batch lands wholly on the tenant's home shard; untagged
    /// batches (and every batch under [`RouteMode::LineHash`]) spread by
    /// frame key. The frames are built on the topology's whole host-thread
    /// budget, shards × `query_threads`, the budget a scan uses.
    ///
    /// # Errors
    ///
    /// As in [`ShardedLog::apply_prepared`].
    pub fn ingest_tagged(
        &mut self,
        tenant: Option<&str>,
        text: &[u8],
    ) -> Result<IngestReport, ShardError> {
        let prep = PreparedIngest::build_on(
            &self.config,
            self.host_threads(),
            std::borrow::Cow::Borrowed(text),
        );
        self.apply_prepared(tenant, &prep)
    }

    /// Applies an already-prepared ingest (the overlapped-service path):
    /// routes the finished frames, applies every shard's share at once
    /// (shard 0 on the calling thread, the others on scoped threads), and
    /// records the placement in the manifest once every shard has
    /// committed. Each shard applies its frames in batch order, so its
    /// pages, journal and index are exactly those a one-shard-at-a-time
    /// walk leaves.
    ///
    /// # Errors
    ///
    /// [`ShardError::FailedIngest`] when an earlier routed apply failed;
    /// otherwise the lowest-index failing shard's error, identified by
    /// shard. Every shard runs its share to its end before the error is
    /// returned, so other shards may have committed frames the manifest
    /// does not record: from then on the topology answers every query and
    /// ingest with [`ShardError::FailedIngest`] until it is reopened.
    ///
    /// # Panics
    ///
    /// A panic on any shard is resumed on the calling thread once every
    /// shard has stopped (the lowest-index panicking shard's payload), and
    /// leaves the topology refusing work as a failed apply does.
    pub fn apply_prepared(
        &mut self,
        tenant: Option<&str>,
        prep: &PreparedIngest<'_>,
    ) -> Result<IngestReport, ShardError> {
        self.refuse_after_failed_ingest()?;
        let routes = self.routes_for(tenant, prep);
        let applied = fan_out(&mut self.shards, |shard, log| {
            // Frame `i` goes to `routes[i]`, in batch order, so the k-th
            // frame routed to a shard lands there exactly as it would on a
            // single device — the invariant the order-preserving merge
            // rests on. A shard with no frames commits nothing.
            if !routes.contains(&shard) {
                return Ok(IngestReport::default());
            }
            let mine = (0..routes.len()).filter(|&i| routes[i] == shard);
            log.apply_ingest_frames(prep, mine)
        });
        let applied = applied.unwrap_or_else(|failure| {
            self.failed_ingest = Some(failure.shard);
            failure.resume()
        });
        let mut total = IngestReport::default();
        for (shard, report) in applied.into_iter().enumerate() {
            match report {
                Ok(report) => total.merge(&report),
                Err(source) => {
                    self.failed_ingest = Some(shard);
                    return Err(ShardError::Shard { shard, source });
                }
            }
        }
        for &shard in &routes {
            self.manifest.record(shard);
        }
        Ok(total)
    }

    /// Per shard, the global frame ordinals of its live data pages,
    /// position for position with its `data_pages()`. Retention drops
    /// whole oldest segments, so the surviving pages are the newest
    /// `data_pages().len()` frames ever placed on the shard.
    ///
    /// # Errors
    ///
    /// [`ShardError::Diverged`] when a shard holds more data pages than
    /// the manifest ever placed on it.
    fn live_ordinals(&self) -> Result<Vec<Vec<u64>>, ShardError> {
        let mut placed: Vec<Vec<u64>> = (0..self.shards.len())
            .map(|s| Vec::with_capacity(self.manifest.frames_on(s) as usize))
            .collect();
        for (g, s) in self.manifest.replay().enumerate() {
            placed[s].push(g as u64);
        }
        for (i, (shard, ords)) in self.shards.iter().zip(&mut placed).enumerate() {
            let live = shard.data_pages().len();
            let dropped = ords.len().checked_sub(live).ok_or(ShardError::Diverged {
                shard: i,
                referenced: ords.len() as u64,
                recovered: live as u64,
            })?;
            ords.drain(..dropped);
        }
        Ok(placed)
    }

    /// Executes a batch of queries scatter-gather: every shard runs the
    /// whole batch over its partition (as-if-solo accounting intact), and
    /// per-shard results merge by global frame ordinal into the exact
    /// outcome a single-device run over the same lines produces.
    ///
    /// The shards scan at the same time: shard 0 on the calling thread and
    /// every other shard on a scoped host thread, so a scan uses up to
    /// shards × `query_threads` threads. The merge moves each shard's lines
    /// into the merged outcome; it copies no line text.
    ///
    /// In merged outcomes, `line_pages` and `degraded.skipped_pages` carry
    /// *global frame ordinals* (topology-invariant), not device page ids;
    /// `modeled_time` is the maximum over shards (devices scan in
    /// parallel); everything else is the solo-run value (see module docs).
    ///
    /// # Errors
    ///
    /// [`ShardError::FailedIngest`] once a routed apply has failed;
    /// otherwise the lowest-index failing shard's error, identified by
    /// shard. Every shard runs the batch to its end before the error is
    /// returned, so shards after the failing one are charged the reads
    /// they made.
    ///
    /// # Panics
    ///
    /// A panic on any shard is resumed on the calling thread once every
    /// shard has stopped; the lowest-index panicking shard's payload wins.
    pub fn query_shared(
        &mut self,
        requests: &[QueryRequest],
    ) -> Result<SharedBatchOutcome, ShardError> {
        self.refuse_after_failed_ingest()?;
        let wall_start = Instant::now();
        let live = self.live_ordinals()?;
        let per_shard = fan_out(&mut self.shards, |_, shard| shard.query_shared(requests))
            .unwrap_or_else(|failure| failure.resume())
            .into_iter()
            .enumerate()
            .map(|(shard, batch)| batch.map_err(|source| ShardError::Shard { shard, source }))
            .collect::<Result<Vec<_>, _>>()?;
        let wall_time = wall_start.elapsed();

        // Transpose by move: `columns[q]` holds query `q`'s outcome from
        // every shard, in shard order.
        let mut shared = SharedScanReport::default();
        let mut columns: Vec<Vec<QueryOutcome>> = (0..requests.len())
            .map(|_| Vec::with_capacity(per_shard.len()))
            .collect();
        for batch in per_shard {
            shared.merge(&batch.shared);
            for (column, outcome) in columns.iter_mut().zip(batch.outcomes) {
                column.push(outcome);
            }
        }

        let total_lines: u64 = self.shards.iter().map(|s| s.lines()).sum();
        let total_pages: u64 = self.shards.iter().map(|s| s.data_page_count()).sum();
        let ordinals: Vec<Ordinals<'_>> = self
            .shards
            .iter()
            .zip(&live)
            .map(|(shard, ordinals)| Ordinals {
                pages: shard.data_pages(),
                ordinals,
            })
            .collect();
        let outcomes = columns
            .into_iter()
            .map(|outs| merge_outcomes(outs, &ordinals, total_lines, total_pages, wall_time))
            .collect();
        Ok(SharedBatchOutcome { outcomes, shared })
    }

    /// Parses and executes one query (a scatter-gather batch of one).
    ///
    /// # Errors
    ///
    /// Parse errors surface as [`ShardError::Config`]; execution errors as
    /// in [`ShardedLog::query_shared`].
    pub fn query_str(&mut self, query_text: &str) -> Result<QueryOutcome, ShardError> {
        let request =
            QueryRequest::parse(query_text).map_err(|e| ShardError::Config(e.to_string()))?;
        self.query_request(request)
    }

    /// Executes one request (a scatter-gather batch of one).
    ///
    /// # Errors
    ///
    /// As in [`ShardedLog::query_shared`].
    pub fn query_request(&mut self, request: QueryRequest) -> Result<QueryOutcome, ShardError> {
        let mut batch = self.query_shared(std::slice::from_ref(&request))?;
        Ok(batch.outcomes.remove(0))
    }

    /// Plan-only explain. Supported on single-shard topologies (where it is
    /// exactly the member device's explain); multi-shard explain would need
    /// a merged plan report and is not offered yet.
    ///
    /// # Errors
    ///
    /// [`ShardError::Config`] on a multi-shard topology; member errors
    /// otherwise.
    pub fn explain(&mut self, request: &QueryRequest) -> Result<PlanExplain, ShardError> {
        if self.shards.len() != 1 {
            return Err(ShardError::Config(
                "explain is not supported on multi-shard topologies".into(),
            ));
        }
        self.shards[0]
            .explain(request)
            .map_err(|source| ShardError::Shard { shard: 0, source })
    }

    /// Scrubs every shard end to end, all at once, merging the findings
    /// in shard order.
    pub fn scrub(&mut self) -> ScrubReport {
        let mut report = ScrubReport::default();
        for shard in fan_out(&mut self.shards, |_, shard| shard.scrub())
            .unwrap_or_else(|failure| failure.resume())
        {
            report.merge(&shard);
        }
        report
    }

    /// One bounded online-scrub slice. The cursor packs `(shard, page)`;
    /// a pass walks the devices in shard order and reports `complete` when
    /// the last shard's pass completes.
    pub fn scrub_slice(&mut self, cursor: u64, max_pages: u64) -> ScrubSlice {
        const SHIFT: u32 = 48;
        const PAGE_MASK: u64 = (1 << SHIFT) - 1;
        let shard = ((cursor >> SHIFT) as usize).min(self.shards.len() - 1);
        let slice = self.shards[shard].scrub_slice(cursor & PAGE_MASK, max_pages);
        if !slice.complete {
            return ScrubSlice {
                report: slice.report,
                next: ((shard as u64) << SHIFT) | slice.next,
                complete: false,
            };
        }
        if shard + 1 < self.shards.len() {
            ScrubSlice {
                report: slice.report,
                next: ((shard as u64 + 1) << SHIFT),
                complete: false,
            }
        } else {
            ScrubSlice {
                report: slice.report,
                next: 0,
                complete: true,
            }
        }
    }

    /// Applies retention on every shard at once: each member keeps at
    /// most `keep` sealed segments. Reports sum across shards in shard
    /// order.
    ///
    /// # Errors
    ///
    /// The lowest-index failing shard's error, identified by shard; every
    /// shard finishes its pass first.
    pub fn apply_retention(&mut self, keep: u64) -> Result<RetentionReport, ShardError> {
        let mut total = RetentionReport::default();
        for (shard, report) in fan_out(&mut self.shards, |_, log| log.apply_retention(keep))
            .unwrap_or_else(|failure| failure.resume())
            .into_iter()
            .enumerate()
        {
            total.merge(&report.map_err(|source| ShardError::Shard { shard, source })?);
        }
        Ok(total)
    }

    /// Sealed segments across all shards, tagged by shard index.
    pub fn sealed_segments(&self) -> Vec<(u32, SegmentSummary)> {
        self.shards
            .iter()
            .enumerate()
            .flat_map(|(i, s)| {
                s.sealed_segments()
                    .into_iter()
                    .map(move |seg| (i as u32, seg))
            })
            .collect()
    }

    /// Sealed segments across all shards.
    pub fn sealed_segment_count(&self) -> u64 {
        self.shards.iter().map(|s| s.sealed_segment_count()).sum()
    }

    /// Total lines across all shards.
    pub fn lines(&self) -> u64 {
        self.shards.iter().map(|s| s.lines()).sum()
    }

    /// Total raw bytes across all shards.
    pub fn raw_bytes(&self) -> u64 {
        self.shards.iter().map(|s| s.raw_bytes()).sum()
    }

    /// Per-shard honesty rows: what each device holds and what it has been
    /// charged, each modeled exactly as a standalone device would be.
    pub fn shard_rows(&self) -> Vec<ShardRow> {
        self.shards
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let ledger = s.device().ledger();
                ShardRow {
                    shard: i as u32,
                    lines: s.lines(),
                    data_pages: s.data_page_count(),
                    raw_bytes: s.raw_bytes(),
                    sealed_segments: s.sealed_segment_count(),
                    pages_read: ledger.pages_read,
                    bytes_read: ledger.bytes_read,
                    retries: ledger.retries,
                    modeled_gbps: s.modeled_throughput().total_gbps,
                }
            })
            .collect()
    }
}

/// A shard's panic, caught by [`fan_out`] so the caller learns which
/// shard it was before resuming it.
struct ShardPanic {
    shard: usize,
    payload: Box<dyn Any + Send>,
}

impl ShardPanic {
    fn resume(self) -> ! {
        panic::resume_unwind(self.payload)
    }
}

/// Runs `op(shard_index, shard)` on every shard at once: shard 0 on the
/// calling thread, shards 1.. on scoped threads (a single shard spawns
/// none). Every shard runs to its end; the results come back in shard
/// order, or, when any shard panicked, the lowest-index shard's panic.
fn fan_out<S, T, F>(shards: &mut [MithriLog<S>], op: F) -> Result<Vec<T>, ShardPanic>
where
    S: PageStore,
    T: Send,
    F: Fn(usize, &mut MithriLog<S>) -> T + Sync,
{
    let (first, rest) = shards
        .split_first_mut()
        .expect("a topology has at least one shard");
    let op = &op;
    let joined: Vec<thread::Result<T>> = thread::scope(|scope| {
        let handles: Vec<_> = rest
            .iter_mut()
            .enumerate()
            .map(|(i, shard)| scope.spawn(move || op(i + 1, shard)))
            .collect();
        let mut joined = Vec::with_capacity(handles.len() + 1);
        // Caught so a panic here is reported with its shard, as a
        // spawned shard's is.
        joined.push(panic::catch_unwind(AssertUnwindSafe(|| op(0, first))));
        joined.extend(handles.into_iter().map(|h| h.join()));
        joined
    });
    joined
        .into_iter()
        .enumerate()
        .map(|(shard, result)| result.map_err(|payload| ShardPanic { shard, payload }))
        .collect()
}

/// One shard's live data pages and, position for position, their global
/// frame ordinals.
struct Ordinals<'a> {
    pages: &'a [PageId],
    ordinals: &'a [u64],
}

impl Ordinals<'_> {
    /// The global ordinal of live data page `page`, found by its position.
    fn of(&self, page: u64) -> u64 {
        let at = self
            .pages
            .binary_search(&PageId(page))
            .expect("a shard's outcome names only its live data pages");
        self.ordinals[at]
    }
}

/// One shard's kept lines during the merge, consumed a page run at a time.
struct Cursor<'a> {
    lines: std::vec::IntoIter<String>,
    pages: Vec<u64>,
    map: &'a Ordinals<'a>,
    /// Index into `pages` of the next line to move.
    at: usize,
    /// Global ordinal of the page run starting at `at`; `u64::MAX` once
    /// every line has moved.
    ordinal: u64,
}

impl<'a> Cursor<'a> {
    fn new(out: &mut QueryOutcome, map: &'a Ordinals<'a>) -> Self {
        let pages = std::mem::take(&mut out.line_pages);
        Cursor {
            lines: std::mem::take(&mut out.lines).into_iter(),
            ordinal: pages.first().map_or(u64::MAX, |&page| map.of(page)),
            pages,
            map,
            at: 0,
        }
    }

    /// Moves the page run at the cursor to the merged outcome.
    fn move_run(&mut self, lines: &mut Vec<String>, line_pages: &mut Vec<u64>) {
        let page = self.pages[self.at];
        let len = self.pages[self.at..]
            .iter()
            .take_while(|&&p| p == page)
            .count();
        lines.extend(self.lines.by_ref().take(len));
        line_pages.extend(std::iter::repeat_n(self.ordinal, len));
        self.at += len;
        self.ordinal = self
            .pages
            .get(self.at)
            .map_or(u64::MAX, |&page| self.map.of(page));
    }
}

/// Merges one query's per-shard outcomes into the single-device-equivalent
/// outcome (see [`ShardedLog::query_shared`] for the field semantics).
fn merge_outcomes(
    mut outs: Vec<QueryOutcome>,
    maps: &[Ordinals<'_>],
    total_lines: u64,
    total_pages: u64,
    wall_time: std::time::Duration,
) -> QueryOutcome {
    // K-way merge by global ordinal. Ordinals are unique to one shard
    // (a frame lives on exactly one device), so ties never cross shards
    // and within-page line order is preserved by the per-shard cursors.
    // The shard holding the lowest ordinal moves whole page runs until it
    // passes the lowest ordinal any other shard holds.
    let matched = outs.iter().map(|o| o.lines.len()).sum();
    let mut lines = Vec::with_capacity(matched);
    let mut line_pages = Vec::with_capacity(matched);
    let mut cursors: Vec<Cursor<'_>> = outs
        .iter_mut()
        .zip(maps)
        .map(|(out, map)| Cursor::new(out, map))
        .collect();
    loop {
        let (winner, _) = cursors
            .iter()
            .enumerate()
            .min_by_key(|(_, c)| c.ordinal)
            .expect("a topology has at least one shard");
        if cursors[winner].ordinal == u64::MAX {
            break;
        }
        let bound = cursors
            .iter()
            .enumerate()
            .filter(|&(s, _)| s != winner)
            .map(|(_, c)| c.ordinal)
            .min()
            .unwrap_or(u64::MAX);
        let cursor = &mut cursors[winner];
        while cursor.ordinal < bound {
            cursor.move_run(&mut lines, &mut line_pages);
        }
    }

    let mut ledger = mithrilog_storage::CostLedger::default();
    for out in &outs {
        ledger.merge(&out.ledger);
    }
    let mut degraded = DegradedRead::default();
    for (s, out) in outs.iter().enumerate() {
        for page in &out.degraded.skipped_pages {
            degraded.skipped_pages.push(maps[s].of(*page));
        }
        degraded.retries += out.degraded.retries;
        degraded.index_fallback |= out.degraded.index_fallback;
        degraded.budget_clipped += out.degraded.budget_clipped;
        degraded.deadline_clipped += out.degraded.deadline_clipped;
    }
    degraded.skipped_pages.sort_unstable();

    let pages_scanned: u64 = outs.iter().map(|o| o.pages_scanned).sum();
    let bytes_filtered: u64 = outs.iter().map(|o| o.bytes_filtered).sum();
    let lines_scanned: u64 = outs.iter().map(|o| o.lines_scanned).sum();
    // Recompute the missed-line estimate from the merged observations so it
    // matches what a single device scanning the union would have estimated
    // (per-shard estimates round per shard and would not sum identically).
    let pages_filtered = pages_scanned - degraded.skipped_pages.len() as u64;
    degraded.estimate_missed_lines(lines_scanned, pages_filtered, total_lines, total_pages);

    QueryOutcome {
        lines,
        line_pages,
        offloaded: outs.iter().all(|o| o.offloaded),
        used_index: outs.iter().any(|o| o.used_index),
        pages_scanned,
        bytes_filtered,
        lines_scanned,
        ledger,
        // Independent devices scan their partitions in parallel: the
        // slowest shard bounds the merged modeled time. This is the one
        // field that legitimately improves with shard count.
        modeled_time: outs
            .iter()
            .map(|o| o.modeled_time)
            .max()
            .unwrap_or_default(),
        wall_time,
        degraded,
    }
}

#[cfg(test)]
mod tests {
    use mithrilog_storage::{CrashPlan, CrashStore, PageId};

    use super::*;

    const LOG: &str = "\
RAS KERNEL INFO instruction cache parity error corrected\n\
RAS KERNEL FATAL data storage interrupt\n\
RAS APP FATAL ciod: Error loading /g/g24/user/program\n\
pbs_mom: scan_for_exiting, job 4161 task 1 terminated\n\
RAS KERNEL INFO generating core.2275\n";

    fn corpus() -> Vec<u8> {
        // Enough distinct lines to span many pages and many frames.
        let mut text = String::new();
        for i in 0..400 {
            text.push_str(&format!("node-{i:04} {}", LOG));
        }
        text.into_bytes()
    }

    fn sharded_with(shards: u32) -> ShardedLog<MemStore> {
        let mut s = ShardedLog::new(
            SystemConfig::for_tests(),
            ShardOptions {
                shards,
                mode: RouteMode::LineHash,
                salt: 0x5eed,
            },
        );
        s.ingest(&corpus()).unwrap();
        s
    }

    #[test]
    fn ingest_conserves_totals_and_spreads_frames() {
        let s = sharded_with(4);
        let mut solo = MithriLog::new(SystemConfig::for_tests());
        let report = solo.ingest(&corpus()).unwrap();
        assert_eq!(s.lines(), report.lines);
        assert_eq!(s.raw_bytes(), report.raw_bytes);
        let pages: u64 = s.shard_rows().iter().map(|r| r.data_pages).sum();
        assert_eq!(pages, report.data_pages);
        let populated = s.shard_rows().iter().filter(|r| r.data_pages > 0).count();
        assert!(populated >= 2, "line-hash routing must spread frames");
        assert_eq!(s.manifest_bytes(), s.manifest.encode());
    }

    #[test]
    fn scatter_gather_matches_single_device_results() {
        let mut solo = MithriLog::new(SystemConfig::for_tests());
        solo.ingest(&corpus()).unwrap();
        for shards in [1, 2, 4] {
            let mut s = sharded_with(shards);
            for q in ["FATAL", "KERNEL AND NOT parity", "terminated"] {
                let merged = s.query_str(q).unwrap();
                let reference = solo.query_str(q).unwrap();
                assert_eq!(merged.lines, reference.lines, "{shards} shards, query {q}");
                assert_eq!(merged.lines_scanned, reference.lines_scanned);
                assert_eq!(merged.bytes_filtered, reference.bytes_filtered);
                assert!(
                    merged.line_pages.windows(2).all(|w| w[0] <= w[1]),
                    "merged ordinals must be non-decreasing"
                );
            }
        }
    }

    #[test]
    fn one_shard_ledger_matches_plain_mithrilog_on_full_scans() {
        let mut solo = MithriLog::new(SystemConfig::full_scan_only());
        solo.ingest(&corpus()).unwrap();
        let mut s = ShardedLog::new(SystemConfig::full_scan_only(), ShardOptions::default());
        s.ingest(&corpus()).unwrap();
        let merged = s.query_str("FATAL").unwrap();
        let reference = solo.query_str("FATAL").unwrap();
        assert_eq!(merged.lines, reference.lines);
        assert_eq!(merged.ledger, reference.ledger);
        assert_eq!(merged.pages_scanned, reference.pages_scanned);
        assert_eq!(merged.modeled_time, reference.modeled_time);
    }

    #[test]
    fn an_adopted_device_answers_as_a_fresh_one_shard_topology() {
        // Every field but wall_time, via Debug so no field can be missed.
        fn sans_wall_time(mut outcome: QueryOutcome) -> String {
            outcome.wall_time = std::time::Duration::ZERO;
            format!("{outcome:?}")
        }
        let config = SystemConfig {
            segment_pages: 4,
            ..SystemConfig::for_tests()
        };
        let mut solo = MithriLog::new(config.clone());
        solo.ingest(&corpus()).unwrap();
        let mut fresh = ShardedLog::new(config, ShardOptions::default());
        fresh.ingest(&corpus()).unwrap();
        // Page 5 sits in the second segment, so it outlives the retention
        // pass below and keeps its ordinal.
        let victim = solo.data_pages()[5].0;
        solo.device_mut().quarantine_page(victim);
        fresh.shard_mut(0).device_mut().quarantine_page(victim);
        let mut adopted = ShardedLog::from(solo);
        assert_eq!(adopted.manifest_bytes(), fresh.manifest_bytes());

        let check =
            |adopted: &mut ShardedLog<MemStore>, fresh: &mut ShardedLog<MemStore>, stage: &str| {
                for q in ["FATAL", "KERNEL AND NOT parity", "NOT terminated"] {
                    let got = adopted.query_str(q).unwrap();
                    let want = fresh.query_str(q).unwrap();
                    assert_eq!(got.degraded.skipped_pages, vec![5], "{stage}, {q}");
                    assert_eq!(sans_wall_time(got), sans_wall_time(want), "{stage}, {q}");
                }
            };
        check(&mut adopted, &mut fresh, "adopted");

        adopted.ingest(&corpus()).unwrap();
        fresh.ingest(&corpus()).unwrap();
        let keep = adopted.sealed_segment_count() - 1;
        let dropped = adopted.apply_retention(keep).unwrap();
        assert_eq!(dropped.segments_dropped, 1);
        assert_eq!(fresh.apply_retention(keep).unwrap().segments_dropped, 1);
        check(&mut adopted, &mut fresh, "after ingest and retention");
    }

    #[test]
    fn reopen_replays_placement_and_results() {
        let mut s = sharded_with(3);
        let before = s.query_str("FATAL").unwrap();
        let stores: Vec<MemStore> = (0..s.shard_count())
            .map(|i| s.shard(i).device().store().clone())
            .collect();
        let (mut reopened, recovery) =
            ShardedLog::open_stores(stores, SystemConfig::for_tests(), &s.manifest_bytes())
                .unwrap();
        assert_eq!(recovery.frames_trimmed, 0);
        assert_eq!(recovery.shards.len(), 3);
        let after = reopened.query_str("FATAL").unwrap();
        assert_eq!(before.lines, after.lines);
        assert_eq!(before.line_pages, after.line_pages);
    }

    /// Reopens `s` from copies of its stores and checks that the reopen
    /// trims nothing and answers "FATAL" with the same lines and ordinals.
    fn assert_reopens_unchanged(s: &mut ShardedLog<MemStore>, config: SystemConfig) {
        let before = s.query_str("FATAL").unwrap();
        let stores: Vec<MemStore> = (0..s.shard_count())
            .map(|i| s.shard(i).device().store().clone())
            .collect();
        let (mut reopened, recovery) =
            ShardedLog::open_stores(stores, config, &s.manifest_bytes()).unwrap();
        assert_eq!(recovery.frames_trimmed, 0);
        let after = reopened.query_str("FATAL").unwrap();
        assert_eq!(before.lines, after.lines);
        assert_eq!(before.line_pages, after.line_pages);
    }

    #[test]
    fn reopen_after_retention_keeps_placement() {
        // Retention drops each shard's oldest frames. Reopening must read
        // that as history the manifest placed, not as frames a crash lost.
        let config = SystemConfig {
            segment_pages: 2,
            ..SystemConfig::for_tests()
        };
        let mut s = ShardedLog::new(
            config.clone(),
            ShardOptions {
                shards: 2,
                mode: RouteMode::LineHash,
                salt: 0x5eed,
            },
        );
        s.ingest(&corpus()).unwrap();
        s.ingest(&corpus()).unwrap();
        assert!(s.apply_retention(2).unwrap().pages_dropped > 0);
        assert_reopens_unchanged(&mut s, config);
    }

    #[test]
    fn an_adopted_device_reopens_after_its_own_retention() {
        // Retention before the adoption dropped frames the adopted manifest
        // must still place, or the reopen reads them as divergence.
        let config = SystemConfig {
            segment_pages: 2,
            ..SystemConfig::for_tests()
        };
        let mut solo = MithriLog::new(config.clone());
        solo.ingest(&corpus()).unwrap();
        assert!(solo.apply_retention(1).unwrap().pages_dropped > 0);
        assert_reopens_unchanged(&mut ShardedLog::from(solo), config);
    }

    #[test]
    fn reopen_rejects_wrong_store_count_and_corrupt_manifest() {
        let s = sharded_with(2);
        let stores = vec![s.shard(0).device().store().clone()];
        assert!(matches!(
            ShardedLog::open_stores(stores, SystemConfig::for_tests(), &s.manifest_bytes()),
            Err(ShardError::Config(_))
        ));
        let mut bytes = s.manifest_bytes();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        let stores: Vec<MemStore> = (0..2)
            .map(|i| s.shard(i).device().store().clone())
            .collect();
        assert!(matches!(
            ShardedLog::open_stores(stores, SystemConfig::for_tests(), &bytes),
            Err(ShardError::Manifest(_))
        ));
    }

    #[test]
    fn tenant_mode_pins_tagged_batches_to_home_shards() {
        let mut s = ShardedLog::new(
            SystemConfig::for_tests(),
            ShardOptions {
                shards: 4,
                mode: RouteMode::Tenant,
                salt: 9,
            },
        );
        let epoch = s.epoch();
        for tenant in ["acme", "globex", "initech"] {
            let home = epoch.route_tenant(tenant);
            let before: Vec<u64> = s.shard_rows().iter().map(|r| r.data_pages).collect();
            s.ingest_tagged(Some(tenant), &corpus()).unwrap();
            let after: Vec<u64> = s.shard_rows().iter().map(|r| r.data_pages).collect();
            for shard in 0..4 {
                if shard == home {
                    assert!(after[shard] > before[shard], "{tenant} lands on {home}");
                } else {
                    assert_eq!(after[shard], before[shard], "{tenant} must not leak");
                }
            }
        }
        // Tagged data still queries back in one merged, ordered stream.
        let outcome = s.query_str("FATAL").unwrap();
        assert!(!outcome.lines.is_empty());
        assert!(outcome.line_pages.windows(2).all(|w| w[0] <= w[1]));
    }

    /// A `LineHash` topology over crash-injecting stores, one per plan,
    /// holding one ingest of the corpus. No cache, so every query reads
    /// its pages from the devices.
    fn crash_topology(plans: Vec<CrashPlan>) -> ShardedLog<CrashStore<MemStore>> {
        let config = SystemConfig {
            page_cache_bytes: 0,
            ..SystemConfig::for_tests()
        };
        let stores = plans
            .into_iter()
            .map(|plan| CrashStore::new(MemStore::new(config.device.page_bytes), plan))
            .collect();
        let mut s = ShardedLog::with_stores(stores, config, RouteMode::LineHash, 0x5eed).unwrap();
        s.ingest(&corpus()).unwrap();
        s
    }

    /// Each member's operation count after [`crash_topology`]'s ingest (a
    /// plan that crashes at a later operation leaves that ingest whole),
    /// and the members it populated.
    fn ops_after_one_ingest(shards: usize) -> (Vec<u64>, Vec<usize>) {
        let probe = crash_topology(vec![CrashPlan::never(); shards]);
        let ops = (0..shards)
            .map(|i| probe.shard(i).device().store().ops())
            .collect();
        let populated = (0..shards)
            .filter(|&i| probe.shard(i).data_page_count() > 0)
            .collect();
        (ops, populated)
    }

    /// Plans that crash each shard in `crashed` `after` operations past
    /// the first ingest and never crash the rest.
    fn crash_plans(ops: &[u64], crashed: &[usize], after: u64) -> Vec<CrashPlan> {
        (0..ops.len())
            .map(|i| {
                if crashed.contains(&i) {
                    CrashPlan::crash_at(ops[i] + after)
                } else {
                    CrashPlan::never()
                }
            })
            .collect()
    }

    #[test]
    fn the_lowest_failing_shard_names_the_error() {
        let (ops, populated) = ops_after_one_ingest(4);
        assert!(populated.len() >= 3, "{populated:?}");
        // Crash every populated shard, then every one but the lowest: the
        // error names the lowest crashed shard, not the first to finish.
        for crashed in [&populated[..], &populated[1..]] {
            let mut s = crash_topology(crash_plans(&ops, crashed, 1));
            for &i in crashed {
                assert!(s.shard_mut(i).device_mut().store_mut().sync().is_err());
            }
            match s.query_str("NOT zz-absent-token-zz") {
                Err(ShardError::Shard { shard, .. }) => assert_eq!(shard, crashed[0]),
                other => panic!("crashed shards {crashed:?} answered {other:?}"),
            }
        }
    }

    #[test]
    fn the_lowest_failing_shard_names_the_ingest_error() {
        let (ops, populated) = ops_after_one_ingest(4);
        assert!(populated.len() >= 3, "{populated:?}");
        // The second ingest of the same corpus routes to the same shards;
        // each crashed shard dies at its first operation of it, while the
        // others apply their shares at the same time.
        for crashed in [&populated[..], &populated[1..]] {
            let mut s = crash_topology(crash_plans(&ops, crashed, 1));
            match s.ingest(&corpus()) {
                Err(ShardError::Shard { shard, .. }) => assert_eq!(shard, crashed[0]),
                other => panic!("crashed shards {crashed:?} ingested {other:?}"),
            }
        }
    }

    #[test]
    fn a_failed_routed_ingest_fails_later_reads_instead_of_panicking() {
        let (ops, populated) = ops_after_one_ingest(2);
        assert_eq!(populated, [0, 1]);
        for crashed in 0..2 {
            // Three operations into the second ingest: the crashed shard
            // has appended pages it never commits, the other commits its
            // whole share, and the manifest records neither.
            let mut s = crash_topology(crash_plans(&ops, &[crashed], 3));
            match s.ingest(&corpus()) {
                Err(ShardError::Shard { shard, .. }) => assert_eq!(shard, crashed),
                other => panic!("shard {crashed} crashed, ingest answered {other:?}"),
            }
            let refused = |result: Result<(), ShardError>| match result {
                Err(e @ ShardError::FailedIngest { shard }) => {
                    assert_eq!(shard, crashed);
                    assert!(e.to_string().contains("reopen"), "{e}");
                }
                other => panic!("shard {crashed} crashed, then {other:?}"),
            };
            refused(s.query_str("FATAL").map(drop));
            refused(s.query_shared(&[]).map(drop));
            refused(s.ingest(b"one more line\n").map(drop));
        }
    }

    #[test]
    fn a_shard_ahead_of_the_manifest_is_diverged_not_a_panic() {
        let mut s = sharded_with(2);
        // Frames added behind the router's back, as a failed routed apply
        // leaves them on the shards that committed.
        s.shard_mut(1).ingest(b"one more line\n").unwrap();
        match s.query_str("FATAL") {
            Err(ShardError::Diverged { shard: 1, .. }) => {}
            other => panic!("expected shard 1 to diverge, got {other:?}"),
        }
    }

    #[test]
    fn parallel_apply_leaves_every_shard_as_a_serial_walk_does() {
        let text = corpus();
        let cut = text[..text.len() / 2]
            .iter()
            .rposition(|&b| b == b'\n')
            .unwrap()
            + 1;
        let batches = [&text[..cut], &text[cut..]];
        let store_pages = |log: &MithriLog<MemStore>| -> Vec<Vec<u8>> {
            let store = log.device().store();
            (0..store.page_count())
                .map(|p| store.read_page(PageId(p)).unwrap().to_vec())
                .collect()
        };
        for shards in [1, 2, 4] {
            for threads in [1, 2] {
                let config = SystemConfig {
                    query_threads: threads,
                    segment_pages: 4,
                    ..SystemConfig::for_tests()
                };
                let opts = ShardOptions {
                    shards,
                    mode: RouteMode::LineHash,
                    salt: 0x5eed,
                };
                let mut routed = ShardedLog::new(config.clone(), opts);
                let mut serial: Vec<MithriLog<MemStore>> = (0..shards)
                    .map(|_| MithriLog::new(config.clone()))
                    .collect();
                let mut manifest = RoutingManifest::new(routed.epoch());
                for batch in batches {
                    routed.ingest(batch).unwrap();
                    let prep = PreparedIngest::build(&config, std::borrow::Cow::Borrowed(batch));
                    let routes: Vec<usize> = (0..prep.frame_count() as usize)
                        .map(|i| routed.epoch().route_key(prep.frame_key(i)))
                        .collect();
                    for (shard, log) in serial.iter_mut().enumerate() {
                        let mine: Vec<usize> =
                            (0..routes.len()).filter(|&i| routes[i] == shard).collect();
                        if !mine.is_empty() {
                            log.apply_ingest_frames(&prep, mine).unwrap();
                        }
                    }
                    for &shard in &routes {
                        manifest.record(shard);
                    }
                }
                let at = format!("{shards} shards, {threads} threads");
                assert_eq!(routed.manifest_bytes(), manifest.encode(), "{at}");
                for (shard, log) in serial.iter().enumerate() {
                    let got = routed.shard(shard);
                    assert_eq!(got.data_pages(), log.data_pages(), "{at}, shard {shard}");
                    assert!(
                        store_pages(got) == store_pages(log),
                        "{at}, shard {shard}: device pages differ"
                    );
                }
            }
        }
    }

    #[test]
    fn scrub_slices_walk_every_shard() {
        let mut s = sharded_with(3);
        let total_full: u64 = {
            let full = s.scrub();
            full.pages_checked
        };
        let mut cursor = 0u64;
        let mut checked = 0u64;
        let mut slices = 0;
        loop {
            let slice = s.scrub_slice(cursor, 7);
            checked += slice.report.pages_checked;
            slices += 1;
            assert!(slices < 10_000, "scrub pass must terminate");
            if slice.complete {
                break;
            }
            cursor = slice.next;
        }
        assert_eq!(checked, total_full, "sliced pass covers every device");
    }
}
