//! The checkpoint chain: the host-side state a mount cannot rebuild from
//! the journal alone, written at every commit as one checksummed blob.
//!
//! A **full** checkpoint (`MLCK`) holds the whole index; a **delta**
//! (`MLCD`) holds only the index entries written since the previous blob
//! and names that blob, so the superblock's checkpoint reaches a full one
//! through predecessor refs. Both carry the running totals and the small
//! sections (datapath statistics, scatter schedule, sidecar directory) in
//! full. Commit decides which kind to write; this module owns the format.

use std::collections::BTreeMap;

use mithrilog_index::InvertedIndex;
use mithrilog_storage::{read_blob, CheckpointRef, PageStore};
use mithrilog_tokenizer::{DatapathStats, ScatterGather};

use super::{BitmapRef, MithriLog};
use crate::le::{take_section, take_u32, take_u64};

/// A full checkpoint: the whole host-side state.
pub(super) const CHECKPOINT_MAGIC: &[u8; 4] = b"MLCK";
const CHECKPOINT_VERSION: u32 = 2;
/// A checkpoint delta: the index entries one commit changed plus the small
/// sections in full, chained to its predecessor blob.
pub(super) const DELTA_MAGIC: &[u8; 4] = b"MLCD";
const DELTA_VERSION: u32 = 1;

impl<S: PageStore> MithriLog<S> {
    /// Serializes the host-side state a mount cannot reconstruct from the
    /// journal alone: the index, the datapath statistics, the scatter
    /// schedule, the segment bitmap sidecar directory, and the running
    /// totals for cross-checking.
    ///
    /// With `onto`, the blob is a delta chained to that predecessor: only
    /// the index entries written since the previous blob, the other
    /// sections in full. Either way the index's dirty set is cleared.
    pub(super) fn checkpoint_blob(&mut self, onto: Option<CheckpointRef>) -> Vec<u8> {
        let mut blob = Vec::new();
        let index = match onto {
            None => {
                blob.extend_from_slice(CHECKPOINT_MAGIC);
                blob.extend_from_slice(&CHECKPOINT_VERSION.to_le_bytes());
                self.index.take_checkpoint()
            }
            Some(prev) => {
                blob.extend_from_slice(DELTA_MAGIC);
                blob.extend_from_slice(&DELTA_VERSION.to_le_bytes());
                put_ref(&mut blob, &prev);
                self.index.take_delta()
            }
        };
        blob.extend_from_slice(&self.total_raw_bytes.to_le_bytes());
        blob.extend_from_slice(&self.total_lines.to_le_bytes());
        blob.extend_from_slice(&self.total_compressed_bytes.to_le_bytes());
        for section in [
            index,
            self.stats.to_bytes(),
            self.scatter.to_bytes(),
            self.bitmap_refs_bytes(),
        ] {
            blob.extend_from_slice(&(section.len() as u64).to_le_bytes());
            blob.extend_from_slice(&section);
        }
        blob
    }

    /// Serializes the sidecar directory: one fixed-width entry per durable
    /// segment bitmap blob, ascending by segment id.
    fn bitmap_refs_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + self.bitmap_refs.len() * 36);
        out.extend_from_slice(&(self.bitmap_refs.len() as u64).to_le_bytes());
        for bref in self.bitmap_refs.values() {
            out.extend_from_slice(&bref.segment_id.to_le_bytes());
            put_ref(&mut out, &bref.blob);
        }
        out
    }

    /// Restores the index, the datapath statistics, the scatter schedule
    /// and the sidecar directory from the committed checkpoint chain: the
    /// superblock's blob, then its predecessors back to a full checkpoint.
    /// The full checkpoint's index is restored and every delta's index
    /// entries are applied onto it, oldest first; the other sections and
    /// the totals come from the newest blob. Returns the number of deltas
    /// applied.
    ///
    /// Any failure — no checkpoint, an unreadable link, CRC mismatch,
    /// malformed sections, parameter drift, newest totals that disagree
    /// with the journal — returns `None` with nothing restored, and
    /// recovery falls back to a full reindex; the checkpoint is an
    /// optimization, never a correctness dependency. Writes nothing.
    pub(super) fn restore_checkpoint(&mut self) -> Option<u64> {
        let mut at = self.superblock.checkpoint?;
        let mut blobs = vec![read_blob(&mut self.ssd, &at)?];
        while let Some(prev) = CheckpointBlob::parse(blobs.last()?)?.prev {
            // Each link points strictly down the device, so the walk ends.
            if prev.first_page >= at.first_page {
                return None;
            }
            blobs.push(read_blob(&mut self.ssd, &prev)?);
            at = prev;
        }
        let newest = CheckpointBlob::parse(&blobs[0])?;
        let totals = [
            self.total_raw_bytes,
            self.total_lines,
            self.total_compressed_bytes,
        ];
        if newest.totals != totals {
            return None;
        }
        let (full, deltas) = blobs.split_last()?;
        let page_bytes = self.config.device.page_bytes;
        let mut index = InvertedIndex::restore_checkpoint(
            self.config.index,
            page_bytes,
            CheckpointBlob::parse(full)?.index,
        )?;
        for delta in deltas.iter().rev() {
            index = index.apply_delta(CheckpointBlob::parse(delta)?.index)?;
        }
        let stats = DatapathStats::from_bytes(newest.stats)?;
        let scatter = ScatterGather::from_bytes(newest.scatter)?;
        if scatter.lanes() != self.config.tokenizer.lanes {
            return None;
        }
        let refs = parse_bitmap_refs(newest.refs)?;
        (self.index, self.stats, self.scatter, self.bitmap_refs) = (index, stats, scatter, refs);
        let applied = deltas.len() as u64;
        self.deltas_since_full = Some(applied);
        Some(applied)
    }
}

/// One checkpoint blob, split into its fields: a full checkpoint
/// (`MLCK`, no predecessor) or a delta (`MLCD`, chained to `prev`).
struct CheckpointBlob<'a> {
    prev: Option<CheckpointRef>,
    /// Raw bytes, lines and compressed bytes when the blob was written.
    totals: [u64; 3],
    index: &'a [u8],
    stats: &'a [u8],
    scatter: &'a [u8],
    refs: &'a [u8],
}

impl<'a> CheckpointBlob<'a> {
    /// Splits `blob`, or `None` when its magic, version or framing is
    /// wrong; the sections themselves are parsed by their owners.
    fn parse(blob: &'a [u8]) -> Option<Self> {
        let (prev, mut rest) = if let Some(mut rest) = blob.strip_prefix(CHECKPOINT_MAGIC) {
            if take_u32(&mut rest)? != CHECKPOINT_VERSION {
                return None;
            }
            (None, rest)
        } else {
            let mut rest = blob.strip_prefix(DELTA_MAGIC)?;
            if take_u32(&mut rest)? != DELTA_VERSION {
                return None;
            }
            (Some(take_ref(&mut rest)?), rest)
        };
        let totals = [
            take_u64(&mut rest)?,
            take_u64(&mut rest)?,
            take_u64(&mut rest)?,
        ];
        let parsed = CheckpointBlob {
            prev,
            totals,
            index: take_section(&mut rest)?,
            stats: take_section(&mut rest)?,
            scatter: take_section(&mut rest)?,
            refs: take_section(&mut rest)?,
        };
        rest.is_empty().then_some(parsed)
    }
}

/// Appends a blob ref: first page, page count, byte length, CRC.
fn put_ref(out: &mut Vec<u8>, blob: &CheckpointRef) {
    out.extend_from_slice(&blob.first_page.to_le_bytes());
    out.extend_from_slice(&blob.page_count.to_le_bytes());
    out.extend_from_slice(&blob.byte_len.to_le_bytes());
    out.extend_from_slice(&blob.crc.to_le_bytes());
}

/// Takes a blob ref written by [`put_ref`].
fn take_ref(rest: &mut &[u8]) -> Option<CheckpointRef> {
    Some(CheckpointRef {
        first_page: take_u64(rest)?,
        page_count: take_u64(rest)?,
        byte_len: take_u64(rest)?,
        crc: take_u32(rest)?,
    })
}

/// Parses the sidecar directory section of a checkpoint. Entries must
/// ascend strictly by segment id and consume the section exactly.
fn parse_bitmap_refs(mut bytes: &[u8]) -> Option<BTreeMap<u64, BitmapRef>> {
    let count = take_u64(&mut bytes)?;
    let mut refs = BTreeMap::new();
    for _ in 0..count {
        let segment_id = take_u64(&mut bytes)?;
        let blob = take_ref(&mut bytes)?;
        if refs
            .last_key_value()
            .is_some_and(|(&last, _)| last >= segment_id)
        {
            return None;
        }
        refs.insert(segment_id, BitmapRef { segment_id, blob });
    }
    bytes.is_empty().then_some(refs)
}
