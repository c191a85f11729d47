//! Deterministic ingest routing and the persisted routing manifest.
//!
//! The router decides, frame by frame, which device a prepared ingest frame
//! lands on. Placement must be a pure function of the routing epoch (shard
//! count, mode, salt) and the frame itself, never of wall-clock state, so
//! that every replica — and every recovery — derives the same layout. The
//! decisions actually taken are additionally journaled as a run-length
//! encoded manifest: recovery does not re-hash history, it replays the
//! recorded placement and cross-checks it against what each shard's own
//! recovery produced.

use mithrilog_storage::crc32;

/// How ingest frames are placed onto shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteMode {
    /// Hash each frame's key line (its first raw line) with the epoch salt;
    /// the frame goes to `hash % shards`. Spreads any workload across all
    /// devices without caller cooperation.
    LineHash,
    /// Hash the ingest's explicit tenant tag; every frame of a tagged
    /// ingest lands on that tenant's home shard, giving tenants device
    /// locality (and making per-tenant retention a per-shard operation).
    /// Untagged ingests fall back to [`RouteMode::LineHash`] placement.
    Tenant,
}

impl RouteMode {
    fn tag(self) -> u8 {
        match self {
            RouteMode::LineHash => 0,
            RouteMode::Tenant => 1,
        }
    }

    fn from_tag(tag: u8) -> Option<RouteMode> {
        match tag {
            0 => Some(RouteMode::LineHash),
            1 => Some(RouteMode::Tenant),
            _ => None,
        }
    }

    /// Parses the CLI/protocol spelling (`line-hash` / `tenant`).
    pub fn parse(text: &str) -> Option<RouteMode> {
        match text {
            "line-hash" => Some(RouteMode::LineHash),
            "tenant" => Some(RouteMode::Tenant),
            _ => None,
        }
    }

    /// The CLI/protocol spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            RouteMode::LineHash => "line-hash",
            RouteMode::Tenant => "tenant",
        }
    }
}

/// The routing parameters frozen at topology creation. Changing any of them
/// is a new epoch: placement of already-stored data never silently moves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoutingEpoch {
    /// Number of independent devices.
    pub shards: u32,
    /// Placement mode.
    pub mode: RouteMode,
    /// Hash salt, so distinct deployments with equal keys still get
    /// distinct placements.
    pub salt: u64,
}

/// 64-bit FNV-1a over `salt || bytes` — a stable, dependency-free hash
/// whose output is identical on every platform (placement must never
/// depend on `std`'s randomized hashers).
fn fnv1a(salt: u64, bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = OFFSET;
    for b in salt.to_le_bytes() {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(PRIME);
    }
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(PRIME);
    }
    hash
}

impl RoutingEpoch {
    /// The shard a frame with this key line is placed on.
    pub fn route_key(&self, key: &[u8]) -> usize {
        (fnv1a(self.salt, key) % u64::from(self.shards.max(1))) as usize
    }

    /// The home shard of a tenant tag.
    pub fn route_tenant(&self, tenant: &str) -> usize {
        self.route_key(tenant.as_bytes())
    }
}

/// The persisted routing journal: the epoch plus a run-length encoding of
/// every placement decision taken, in global frame order. Frame ordinal
/// `g`'s shard is found by walking the runs; conversely the `k`-th frame
/// recorded for shard `s` is that shard's `k`-th data page — the bijection
/// the scatter-gather merge uses to reconstruct single-device line order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoutingManifest {
    /// The frozen routing parameters.
    pub epoch: RoutingEpoch,
    /// `(shard, frame_count)` runs in global frame order.
    pub runs: Vec<(u32, u64)>,
}

const MANIFEST_MAGIC: &[u8; 8] = b"MLSHARD1";

/// Why a serialized manifest was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ManifestError {
    /// Truncated, bad magic, or unknown mode tag.
    Malformed(&'static str),
    /// The trailing CRC did not match the body.
    ChecksumMismatch,
    /// A run references a shard outside the epoch's range.
    ShardOutOfRange {
        /// The offending shard index.
        shard: u32,
        /// The epoch's shard count.
        shards: u32,
    },
}

impl std::fmt::Display for ManifestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ManifestError::Malformed(what) => write!(f, "malformed routing manifest: {what}"),
            ManifestError::ChecksumMismatch => write!(f, "routing manifest checksum mismatch"),
            ManifestError::ShardOutOfRange { shard, shards } => write!(
                f,
                "routing manifest references shard {shard} of a {shards}-shard epoch"
            ),
        }
    }
}

impl std::error::Error for ManifestError {}

impl RoutingManifest {
    /// An empty manifest for a fresh topology.
    pub fn new(epoch: RoutingEpoch) -> Self {
        RoutingManifest {
            epoch,
            runs: Vec::new(),
        }
    }

    /// Records that the next frame (in global order) was placed on `shard`,
    /// extending the last run when possible.
    pub fn record(&mut self, shard: usize) {
        let shard = shard as u32;
        match self.runs.last_mut() {
            Some((last, count)) if *last == shard => *count += 1,
            _ => self.runs.push((shard, 1)),
        }
    }

    /// Total frames recorded.
    pub fn total_frames(&self) -> u64 {
        self.runs.iter().map(|(_, c)| *c).sum()
    }

    /// Frames recorded for `shard`.
    pub fn frames_on(&self, shard: usize) -> u64 {
        self.runs
            .iter()
            .filter(|(s, _)| *s as usize == shard)
            .map(|(_, c)| *c)
            .sum()
    }

    /// The placement sequence, one shard index per global frame ordinal.
    pub fn replay(&self) -> impl Iterator<Item = usize> + '_ {
        self.runs
            .iter()
            .flat_map(|&(shard, count)| std::iter::repeat_n(shard as usize, count as usize))
    }

    /// Serializes to `magic || version || epoch || runs || crc32`. The CRC
    /// covers everything before it, so torn or bit-flipped manifests are
    /// rejected rather than silently misrouting recovery.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(40 + self.runs.len() * 12);
        buf.extend_from_slice(MANIFEST_MAGIC);
        buf.push(1); // version
        buf.extend_from_slice(&self.epoch.shards.to_le_bytes());
        buf.push(self.epoch.mode.tag());
        buf.extend_from_slice(&self.epoch.salt.to_le_bytes());
        buf.extend_from_slice(&(self.runs.len() as u64).to_le_bytes());
        for &(shard, count) in &self.runs {
            buf.extend_from_slice(&shard.to_le_bytes());
            buf.extend_from_slice(&count.to_le_bytes());
        }
        let crc = crc32(&buf);
        buf.extend_from_slice(&crc.to_le_bytes());
        buf
    }

    /// Decodes and verifies a serialized manifest.
    ///
    /// # Errors
    ///
    /// [`ManifestError`] on truncation, bad magic/version/mode, checksum
    /// mismatch, or a run referencing a shard outside the epoch.
    pub fn decode(bytes: &[u8]) -> Result<RoutingManifest, ManifestError> {
        if bytes.len() < 34 {
            return Err(ManifestError::Malformed("too short"));
        }
        let (body, crc_bytes) = bytes.split_at(bytes.len() - 4);
        let want = u32::from_le_bytes(crc_bytes.try_into().expect("4-byte split"));
        if crc32(body) != want {
            return Err(ManifestError::ChecksumMismatch);
        }
        if &body[..8] != MANIFEST_MAGIC {
            return Err(ManifestError::Malformed("bad magic"));
        }
        if body[8] != 1 {
            return Err(ManifestError::Malformed("unknown version"));
        }
        let shards = u32::from_le_bytes(body[9..13].try_into().expect("width checked"));
        let mode = RouteMode::from_tag(body[13]).ok_or(ManifestError::Malformed("unknown mode"))?;
        let salt = u64::from_le_bytes(body[14..22].try_into().expect("width checked"));
        let run_count = u64::from_le_bytes(body[22..30].try_into().expect("width checked"));
        let runs_bytes = &body[30..];
        if runs_bytes.len() as u64 != run_count * 12 {
            return Err(ManifestError::Malformed("run table length mismatch"));
        }
        let mut runs = Vec::with_capacity(run_count as usize);
        for chunk in runs_bytes.chunks_exact(12) {
            let shard = u32::from_le_bytes(chunk[..4].try_into().expect("width checked"));
            let count = u64::from_le_bytes(chunk[4..].try_into().expect("width checked"));
            if shard >= shards {
                return Err(ManifestError::ShardOutOfRange { shard, shards });
            }
            runs.push((shard, count));
        }
        Ok(RoutingManifest {
            epoch: RoutingEpoch { shards, mode, salt },
            runs,
        })
    }

    /// Trims the manifest to its longest prefix consistent with the given
    /// per-shard committed frame counts (every frame a shard's recovery
    /// kept or retention dropped): trailing run entries referencing frames
    /// a shard's recovery discarded (a crash mid cross-shard ingest) are
    /// dropped, newest first. Returns the number of frames trimmed.
    ///
    /// After trimming, `frames_on(s) <= committed[s]` for every shard; a
    /// shard left holding *more* committed frames than the manifest
    /// references is the caller's divergence check, not handled here.
    pub fn trim_to(&mut self, committed: &[u64]) -> u64 {
        let mut excess: Vec<u64> = (0..committed.len() as u32)
            .map(|s| {
                self.frames_on(s as usize)
                    .saturating_sub(committed[s as usize])
            })
            .collect();
        let mut trimmed = 0u64;
        while excess.iter().any(|&e| e > 0) {
            let Some(&mut (shard, ref mut count)) = self.runs.last_mut() else {
                break;
            };
            let shard = shard as usize;
            let cut = excess.get(shard).copied().unwrap_or(0).min(*count);
            if cut == 0 {
                // The newest run is already fully referenced, yet some
                // other shard still has excess: the manifest's tail does
                // not explain it. Stop — the caller reports divergence.
                break;
            }
            *count -= cut;
            excess[shard] -= cut;
            trimmed += cut;
            if *count == 0 {
                self.runs.pop();
            }
        }
        trimmed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn epoch() -> RoutingEpoch {
        RoutingEpoch {
            shards: 4,
            mode: RouteMode::LineHash,
            salt: 0x5eed,
        }
    }

    #[test]
    fn routing_is_deterministic_and_in_range() {
        let e = epoch();
        for key in [&b"alpha"[..], b"", b"RAS KERNEL FATAL", b"tenant-7"] {
            let a = e.route_key(key);
            assert_eq!(a, e.route_key(key));
            assert!(a < 4);
        }
        // The salt matters: a different deployment places differently for
        // at least one of a handful of keys.
        let other = RoutingEpoch { salt: 1, ..e };
        let moved = (0..64).any(|i| {
            let key = format!("key-{i}");
            e.route_key(key.as_bytes()) != other.route_key(key.as_bytes())
        });
        assert!(moved, "salt must perturb placement");
    }

    #[test]
    fn manifest_roundtrip() {
        let mut m = RoutingManifest::new(epoch());
        for shard in [0usize, 0, 1, 3, 3, 3, 2, 0] {
            m.record(shard);
        }
        assert_eq!(m.total_frames(), 8);
        assert_eq!(m.frames_on(3), 3);
        assert_eq!(m.runs.len(), 5, "adjacent placements collapse into runs");
        let decoded = RoutingManifest::decode(&m.encode()).unwrap();
        assert_eq!(decoded, m);
        let replayed: Vec<usize> = decoded.replay().collect();
        assert_eq!(replayed, vec![0, 0, 1, 3, 3, 3, 2, 0]);
    }

    #[test]
    fn manifest_rejects_corruption() {
        let m = RoutingManifest::new(epoch());
        let mut bytes = m.encode();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        assert!(matches!(
            RoutingManifest::decode(&bytes),
            Err(ManifestError::ChecksumMismatch) | Err(ManifestError::Malformed(_))
        ));
        assert!(RoutingManifest::decode(&bytes[..10]).is_err());
    }

    #[test]
    fn manifest_rejects_out_of_range_shard() {
        let mut m = RoutingManifest::new(epoch());
        m.runs.push((9, 1));
        assert!(matches!(
            RoutingManifest::decode(&m.encode()),
            Err(ManifestError::ShardOutOfRange {
                shard: 9,
                shards: 4
            })
        ));
    }

    #[test]
    fn trim_drops_only_unrecovered_tail() {
        let mut m = RoutingManifest::new(epoch());
        for shard in [0usize, 1, 0, 1, 1] {
            m.record(shard);
        }
        // Shard 1 recovered only one of its three frames: the two newest
        // shard-1 placements trim away; shard 0 is untouched.
        let trimmed = m.trim_to(&[2, 1, 0, 0]);
        assert_eq!(trimmed, 2);
        assert_eq!(m.frames_on(0), 2);
        assert_eq!(m.frames_on(1), 1);
        let replayed: Vec<usize> = m.replay().collect();
        assert_eq!(replayed, vec![0, 1, 0]);
    }
}
