//! Versioned, CRC-protected superblock and the dual-slot atomic-flip
//! protocol that makes commits crash-safe.
//!
//! Pages 0 and 1 of a formatted device are reserved as superblock slots.
//! A commit with sequence number `n` writes its superblock into slot
//! `n % 2` — always the slot *not* holding the currently valid superblock —
//! so a torn superblock write destroys at most the new copy while the old
//! one survives intact (write-new-then-swap). On mount, both slots are
//! decoded and the valid one with the highest sequence wins.

use crate::crc::crc32;
use crate::device::{PageId, PageStore, SimSsd};
use crate::error::StorageError;

/// Reference to a checksummed blob stored as a run of pages: the index
/// checkpoint, or a bitmap sidecar (see [`append_blob`] and [`read_blob`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointRef {
    /// First page of the checkpoint run.
    pub first_page: u64,
    /// Pages in the run.
    pub page_count: u64,
    /// Exact byte length of the checkpoint blob (the last page is padded).
    pub byte_len: u64,
    /// CRC32 of the whole blob.
    pub crc: u32,
}

/// Appends `blob` as a run of pages (the last one padded) and returns the
/// checksummed reference [`read_blob`] validates it against. The one record
/// format for every host-side blob: checkpoints and bitmap sidecars alike.
///
/// # Errors
///
/// Propagates device errors.
pub fn append_blob<S: PageStore>(
    ssd: &mut SimSsd<S>,
    blob: &[u8],
) -> Result<CheckpointRef, StorageError> {
    let page_bytes = ssd.page_bytes();
    let blob_ref = CheckpointRef {
        first_page: ssd.page_count(),
        page_count: blob.len().div_ceil(page_bytes) as u64,
        byte_len: blob.len() as u64,
        crc: crc32(blob),
    };
    for chunk in blob.chunks(page_bytes) {
        ssd.append(chunk)?;
    }
    Ok(blob_ref)
}

/// Reads back the blob `blob_ref` points at: its pages concatenated and cut
/// to the recorded length. `None` when a page is unreadable, the run is
/// shorter than the length, or the CRC does not match.
pub fn read_blob<S: PageStore>(ssd: &mut SimSsd<S>, blob_ref: &CheckpointRef) -> Option<Vec<u8>> {
    let len = usize::try_from(blob_ref.byte_len).ok()?;
    // No capacity from the ref: a damaged length must not size an allocation.
    let mut blob = Vec::new();
    for page in blob_ref.first_page..blob_ref.first_page + blob_ref.page_count {
        blob.extend_from_slice(&ssd.read(PageId(page)).ok()?);
    }
    if len > blob.len() {
        return None;
    }
    blob.truncate(len);
    (crc32(&blob) == blob_ref.crc).then_some(blob)
}

/// The device superblock: the single source of truth for what is committed.
///
/// Everything at page id ≥ [`Superblock::committed_pages`] is an
/// uncommitted tail to be discarded on recovery; everything below it was
/// made durable by a completed commit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Superblock {
    /// On-disk format version (see [`Superblock::FORMAT_VERSION`]).
    pub format_version: u32,
    /// Page size the store was formatted with.
    pub page_bytes: u32,
    /// Commit sequence number; selects the slot (`sequence % 2`) and breaks
    /// ties between two valid slots on mount.
    pub sequence: u64,
    /// Device extent at commit time; pages beyond this are uncommitted.
    pub committed_pages: u64,
    /// Newest journal (manifest) page of the commit chain, if any commit
    /// has happened.
    pub journal_head: Option<u64>,
    /// The committed index checkpoint, if one was written.
    pub checkpoint: Option<CheckpointRef>,
}

const MAGIC: &[u8; 4] = b"MLSB";
const NONE: u64 = u64::MAX;

impl Superblock {
    /// Current on-disk format version.
    pub const FORMAT_VERSION: u32 = 1;
    /// Serialized superblock record size within its page.
    pub const HEADER_BYTES: usize = 72;
    /// Reserved superblock slot pages at the start of the device.
    pub const SLOTS: u64 = 2;
    /// Page sizes [`FileStore::open`](crate::FileStore::open) probes for
    /// slot 1 when slot 0 is torn. Stores with other page sizes remain
    /// recoverable whenever slot 0 is intact.
    pub const CANDIDATE_PAGE_SIZES: &'static [usize] =
        &[128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768, 65536];

    /// A freshly formatted store's superblock (sequence 0, nothing
    /// committed beyond the slot pages themselves).
    pub fn initial(page_bytes: usize) -> Self {
        Superblock {
            format_version: Self::FORMAT_VERSION,
            page_bytes: page_bytes as u32,
            sequence: 0,
            committed_pages: Self::SLOTS,
            journal_head: None,
            checkpoint: None,
        }
    }

    /// The slot page this superblock belongs in.
    pub fn slot(&self) -> PageId {
        PageId(self.sequence % Self::SLOTS)
    }

    /// Serializes the superblock record (checksummed; page-padded by the
    /// device on write).
    pub fn encode(&self) -> [u8; Self::HEADER_BYTES] {
        let mut buf = [0u8; Self::HEADER_BYTES];
        buf[0..4].copy_from_slice(MAGIC);
        buf[4..8].copy_from_slice(&self.format_version.to_le_bytes());
        buf[8..12].copy_from_slice(&self.page_bytes.to_le_bytes());
        // bytes 12..16 reserved (zero)
        buf[16..24].copy_from_slice(&self.sequence.to_le_bytes());
        buf[24..32].copy_from_slice(&self.committed_pages.to_le_bytes());
        buf[32..40].copy_from_slice(&self.journal_head.unwrap_or(NONE).to_le_bytes());
        let (first, count, len, crc) = match self.checkpoint {
            Some(c) => (c.first_page, c.page_count, c.byte_len, c.crc),
            None => (NONE, 0, 0, 0),
        };
        buf[40..48].copy_from_slice(&first.to_le_bytes());
        buf[48..56].copy_from_slice(&count.to_le_bytes());
        buf[56..64].copy_from_slice(&len.to_le_bytes());
        buf[64..68].copy_from_slice(&crc.to_le_bytes());
        let checksum = crc32(&buf[..68]);
        buf[68..72].copy_from_slice(&checksum.to_le_bytes());
        buf
    }

    /// Decodes and validates a superblock record from the head of a page.
    ///
    /// # Errors
    ///
    /// [`StorageError::InvalidSuperblock`] on short input, bad magic,
    /// unsupported version, zero page size, or checksum mismatch.
    pub fn decode(bytes: &[u8]) -> Result<Self, StorageError> {
        let bad = |reason: String| StorageError::InvalidSuperblock(reason);
        if bytes.len() < Self::HEADER_BYTES {
            return Err(bad(format!(
                "{} bytes is too short for a superblock",
                bytes.len()
            )));
        }
        let u32_at = |off: usize| u32::from_le_bytes(bytes[off..off + 4].try_into().expect("4"));
        let u64_at = |off: usize| u64::from_le_bytes(bytes[off..off + 8].try_into().expect("8"));
        if &bytes[0..4] != MAGIC {
            return Err(bad("bad magic".into()));
        }
        let expected = u32_at(68);
        let got = crc32(&bytes[..68]);
        if got != expected {
            return Err(bad(format!(
                "checksum mismatch: {got:#010x}, recorded {expected:#010x}"
            )));
        }
        let format_version = u32_at(4);
        if format_version != Self::FORMAT_VERSION {
            return Err(bad(format!(
                "unsupported format version {format_version} (this build reads {})",
                Self::FORMAT_VERSION
            )));
        }
        let page_bytes = u32_at(8);
        if page_bytes == 0 {
            return Err(bad("zero page size".into()));
        }
        let journal_head = match u64_at(32) {
            NONE => None,
            p => Some(p),
        };
        let ckpt_first = u64_at(40);
        let checkpoint = (ckpt_first != NONE).then(|| CheckpointRef {
            first_page: ckpt_first,
            page_count: u64_at(48),
            byte_len: u64_at(56),
            crc: u32_at(64),
        });
        Ok(Superblock {
            format_version,
            page_bytes,
            sequence: u64_at(16),
            committed_pages: u64_at(24),
            journal_head,
            checkpoint,
        })
    }
}

/// Formats an empty device: writes the sequence-0 superblock into slot 0,
/// a blank page into slot 1, and syncs. Returns the active superblock.
///
/// # Errors
///
/// [`StorageError::InvalidSuperblock`] if the device is not empty;
/// propagates device errors.
pub fn format_device<S: PageStore>(ssd: &mut SimSsd<S>) -> Result<Superblock, StorageError> {
    if ssd.page_count() != 0 {
        return Err(StorageError::InvalidSuperblock(format!(
            "cannot format a device holding {} pages; open it instead",
            ssd.page_count()
        )));
    }
    let sb = Superblock::initial(ssd.page_bytes());
    ssd.append(&sb.encode())?;
    ssd.append(&[])?; // blank slot 1
    ssd.sync()?;
    Ok(sb)
}

/// Reads both superblock slots and returns the valid one with the highest
/// sequence. Unreadable or corrupt slots are skipped — losing one slot to a
/// torn write is the designed-for case, not an error.
///
/// # Errors
///
/// [`StorageError::InvalidSuperblock`] if neither slot validates.
pub fn read_active<S: PageStore>(ssd: &mut SimSsd<S>) -> Result<Superblock, StorageError> {
    let mut best: Option<Superblock> = None;
    let mut reasons = Vec::new();
    for slot in 0..Superblock::SLOTS {
        let candidate = ssd
            .read(PageId(slot))
            .and_then(|page| Superblock::decode(&page));
        match candidate {
            Ok(sb) => {
                if best.as_ref().is_none_or(|b| sb.sequence > b.sequence) {
                    best = Some(sb);
                }
            }
            Err(e) => reasons.push(format!("slot {slot}: {e}")),
        }
    }
    best.ok_or_else(|| {
        StorageError::InvalidSuperblock(format!(
            "no valid superblock slot ({})",
            reasons.join("; ")
        ))
    })
}

/// Commits `sb` atomically: writes it into its slot (always the inactive
/// one, since the sequence advanced) and issues the barrier that makes the
/// flip durable. The caller must already have synced the commit's payload
/// pages (barrier 1); this is barrier 2.
///
/// # Errors
///
/// Propagates device errors.
pub fn write_commit<S: PageStore>(
    ssd: &mut SimSsd<S>,
    sb: &Superblock,
) -> Result<(), StorageError> {
    ssd.write(sb.slot(), &sb.encode())?;
    ssd.sync()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::MemStore;
    use crate::perf::DevicePerfModel;

    fn ssd() -> SimSsd<MemStore> {
        SimSsd::new(MemStore::new(512), DevicePerfModel::default())
    }

    #[test]
    fn encode_decode_round_trip() {
        let sb = Superblock {
            format_version: Superblock::FORMAT_VERSION,
            page_bytes: 4096,
            sequence: 17,
            committed_pages: 1234,
            journal_head: Some(900),
            checkpoint: Some(CheckpointRef {
                first_page: 1200,
                page_count: 3,
                byte_len: 10_000,
                crc: 0xDEAD_BEEF,
            }),
        };
        assert_eq!(Superblock::decode(&sb.encode()).unwrap(), sb);
        let initial = Superblock::initial(512);
        assert_eq!(Superblock::decode(&initial.encode()).unwrap(), initial);
        assert_eq!(initial.journal_head, None);
        assert_eq!(initial.checkpoint, None);
    }

    #[test]
    fn corruption_is_rejected() {
        let sb = Superblock::initial(4096);
        let mut bytes = sb.encode();
        bytes[20] ^= 1;
        assert!(matches!(
            Superblock::decode(&bytes),
            Err(StorageError::InvalidSuperblock(_))
        ));
        assert!(Superblock::decode(&[0u8; 72]).is_err(), "zero page invalid");
        assert!(Superblock::decode(&[0u8; 10]).is_err(), "short input");
        let mut wrong_version = sb;
        wrong_version.format_version = 99;
        assert!(matches!(
            Superblock::decode(&wrong_version.encode()),
            Err(StorageError::InvalidSuperblock(msg)) if msg.contains("version")
        ));
    }

    #[test]
    fn format_then_read_active() {
        let mut ssd = ssd();
        let sb = format_device(&mut ssd).unwrap();
        assert_eq!(ssd.page_count(), Superblock::SLOTS);
        assert_eq!(read_active(&mut ssd).unwrap(), sb);
        assert_eq!(ssd.ledger().syncs, 1);
        // Formatting twice is refused.
        assert!(matches!(
            format_device(&mut ssd),
            Err(StorageError::InvalidSuperblock(_))
        ));
    }

    #[test]
    fn flip_alternates_slots_and_highest_sequence_wins() {
        let mut ssd = ssd();
        let sb0 = format_device(&mut ssd).unwrap();
        let mut sb1 = sb0.clone();
        sb1.sequence = 1;
        sb1.committed_pages = 2;
        assert_eq!(sb1.slot(), PageId(1));
        write_commit(&mut ssd, &sb1).unwrap();
        assert_eq!(read_active(&mut ssd).unwrap(), sb1);
        let mut sb2 = sb1.clone();
        sb2.sequence = 2;
        assert_eq!(sb2.slot(), PageId(0), "flip returns to slot 0");
        write_commit(&mut ssd, &sb2).unwrap();
        assert_eq!(read_active(&mut ssd).unwrap(), sb2);
    }

    #[test]
    fn torn_slot_falls_back_to_the_surviving_one() {
        let mut ssd = ssd();
        let sb0 = format_device(&mut ssd).unwrap();
        let mut sb1 = sb0.clone();
        sb1.sequence = 1;
        write_commit(&mut ssd, &sb1).unwrap();
        // Tear the newer slot behind the controller: recovery must fall
        // back to the older superblock rather than fail.
        ssd.store_mut().write_page(PageId(1), b"torn!").unwrap();
        assert_eq!(read_active(&mut ssd).unwrap(), sb0);
        // Both slots gone -> hard error.
        ssd.store_mut().write_page(PageId(0), b"gone").unwrap();
        assert!(matches!(
            read_active(&mut ssd),
            Err(StorageError::InvalidSuperblock(_))
        ));
    }
}
