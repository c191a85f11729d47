//! Fixed-size node pools: many small tree nodes packed into full storage
//! pages ("leaf nodes are stored in a pool of leaf pages", paper §6.1).

use mithrilog_storage::{PageId, PageStore, SimSsd, StorageError};

use crate::wire::{get_bytes, get_u64, get_usize, put_bytes, put_u64};

/// Address of one node inside a pool: `(page << 16) | slot`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeAddr(u64);

/// Sentinel encoding "no node".
const NONE_SENTINEL: u64 = u64::MAX;

impl NodeAddr {
    /// Builds an address from page and slot.
    pub fn new(page: PageId, slot: usize) -> Self {
        debug_assert!(slot < (1 << 16));
        NodeAddr((page.0 << 16) | slot as u64)
    }

    /// The page this node lives in.
    pub fn page(self) -> PageId {
        PageId(self.0 >> 16)
    }

    /// The slot within the page.
    pub fn slot(self) -> usize {
        (self.0 & 0xFFFF) as usize
    }

    /// Raw encoding for serialization.
    pub fn to_raw(self) -> u64 {
        self.0
    }

    /// Decodes a serialized address; `u64::MAX` means none.
    pub fn from_raw(raw: u64) -> Option<Self> {
        (raw != NONE_SENTINEL).then_some(NodeAddr(raw))
    }

    /// Raw encoding of an `Option<NodeAddr>`.
    pub fn raw_or_none(addr: Option<NodeAddr>) -> u64 {
        addr.map_or(NONE_SENTINEL, NodeAddr::to_raw)
    }
}

/// A pool allocating fixed-size nodes packed into storage pages.
///
/// The page being filled lives in a page write buffer, as in a flash
/// controller. Claiming a page appends it zeroed, so a node's address is
/// known at once; [`NodePool::alloc`] only copies the node into the buffer;
/// the buffer goes to the device once, when the page fills or when
/// [`NodePool::seal`] runs. A page of `slots_per_page` nodes therefore
/// costs two device writes, the claim and the final one, and ends with the
/// same bytes as if every node had been written through.
///
/// A read of a node on the unflushed page still issues the device read, so
/// it is charged, checksummed, quarantined and faulted exactly like any
/// other read; only the node's bytes come from the buffer.
#[derive(Debug, Clone)]
pub struct NodePool {
    node_bytes: usize,
    slots_per_page: usize,
    current_page: Option<PageId>,
    used_slots: usize,
    buffer: Vec<u8>,
    nodes_allocated: u64,
    pages_allocated: u64,
}

impl NodePool {
    /// Creates a pool for nodes of `node_bytes` packed into pages of
    /// `page_bytes`.
    ///
    /// # Panics
    ///
    /// Panics if a node does not fit in a page or `node_bytes` is zero.
    pub fn new(node_bytes: usize, page_bytes: usize) -> Self {
        assert!(node_bytes > 0, "node size must be positive");
        let slots_per_page = page_bytes / node_bytes;
        assert!(slots_per_page >= 1, "node larger than a page");
        NodePool {
            node_bytes,
            slots_per_page,
            current_page: None,
            used_slots: 0,
            buffer: vec![0u8; page_bytes],
            nodes_allocated: 0,
            pages_allocated: 0,
        }
    }

    /// Node size in bytes.
    pub fn node_bytes(&self) -> usize {
        self.node_bytes
    }

    /// Nodes per page.
    pub fn slots_per_page(&self) -> usize {
        self.slots_per_page
    }

    /// Total nodes allocated.
    pub fn nodes_allocated(&self) -> u64 {
        self.nodes_allocated
    }

    /// Total pages this pool has claimed on the device.
    pub fn pages_allocated(&self) -> u64 {
        self.pages_allocated
    }

    /// Allocates a node containing `data`, returning its address.
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    ///
    /// # Panics
    ///
    /// Panics if `data` length differs from the pool's node size.
    pub fn alloc<S: PageStore>(
        &mut self,
        ssd: &mut SimSsd<S>,
        data: &[u8],
    ) -> Result<NodeAddr, StorageError> {
        assert_eq!(data.len(), self.node_bytes, "node size mismatch");
        let page = match self.current_page {
            Some(p) if self.used_slots < self.slots_per_page => p,
            _ => {
                self.buffer.fill(0);
                self.used_slots = 0;
                let p = ssd.append(&self.buffer)?;
                self.current_page = Some(p);
                self.pages_allocated += 1;
                p
            }
        };
        let slot = self.used_slots;
        let off = slot * self.node_bytes;
        self.buffer[off..off + self.node_bytes].copy_from_slice(data);
        if slot + 1 == self.slots_per_page {
            ssd.write(page, &self.buffer)?;
        }
        self.used_slots += 1;
        self.nodes_allocated += 1;
        Ok(NodeAddr::new(page, slot))
    }

    /// Reads a node as part of a bandwidth-bound batch.
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn read<S: PageStore>(
        &self,
        ssd: &mut SimSsd<S>,
        addr: NodeAddr,
    ) -> Result<Vec<u8>, StorageError> {
        let page = ssd.read(addr.page())?;
        Ok(self.slice(&page, addr))
    }

    /// Reads a node as a dependent (latency-exposed) access — used for the
    /// linked-list root chain.
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn read_dependent<S: PageStore>(
        &self,
        ssd: &mut SimSsd<S>,
        addr: NodeAddr,
    ) -> Result<Vec<u8>, StorageError> {
        let page = ssd.read_dependent(addr.page())?;
        Ok(self.slice(&page, addr))
    }

    /// The node's bytes out of `page` as read from the device, or out of
    /// the write buffer when the node sits on the unflushed page.
    fn slice(&self, page: &[u8], addr: NodeAddr) -> Vec<u8> {
        let src = if self.buffered_page() == Some(addr.page()) {
            &self.buffer[..]
        } else {
            page
        };
        let off = addr.slot() * self.node_bytes;
        src[off..off + self.node_bytes].to_vec()
    }

    /// The claimed page whose nodes sit only in the write buffer: not yet
    /// full, so not yet written.
    fn buffered_page(&self) -> Option<PageId> {
        self.current_page
            .filter(|_| self.used_slots > 0 && self.used_slots < self.slots_per_page)
    }

    /// Seals the pool: a partially-filled current page is written once
    /// from the buffer (a full one was written when it filled), and the
    /// next allocation claims a fresh page.
    ///
    /// Called before a durability commit so every node page reaches the
    /// device above the committed frontier, and the pool never rewrites a
    /// page below it — in-place rewrites of committed pages would be torn
    /// by a crash.
    ///
    /// # Errors
    ///
    /// Propagates device errors; the pool is left unsealed.
    pub fn seal<S: PageStore>(&mut self, ssd: &mut SimSsd<S>) -> Result<(), StorageError> {
        if let Some(page) = self.buffered_page() {
            ssd.write(page, &self.buffer)?;
        }
        self.current_page = None;
        self.used_slots = 0;
        Ok(())
    }

    /// Page size this pool was built for.
    pub(crate) fn page_bytes(&self) -> usize {
        self.buffer.len()
    }

    /// Serializes the pool state for an index checkpoint.
    pub(crate) fn encode_into(&self, buf: &mut Vec<u8>) {
        put_u64(buf, self.node_bytes as u64);
        put_u64(buf, self.current_page.map_or(u64::MAX, |p| p.0));
        put_u64(buf, self.used_slots as u64);
        put_u64(buf, self.nodes_allocated);
        put_u64(buf, self.pages_allocated);
        put_bytes(buf, &self.buffer);
    }

    /// Deserializes pool state written by [`NodePool::encode_into`].
    /// Returns `None` on any structural inconsistency.
    pub(crate) fn decode_from(cursor: &mut &[u8]) -> Option<Self> {
        let node_bytes = get_usize(cursor)?;
        let current_raw = get_u64(cursor)?;
        let used_slots = get_usize(cursor)?;
        let nodes_allocated = get_u64(cursor)?;
        let pages_allocated = get_u64(cursor)?;
        let buffer = get_bytes(cursor)?;
        if node_bytes == 0 || buffer.len() < node_bytes {
            return None;
        }
        let slots_per_page = buffer.len() / node_bytes;
        if used_slots > slots_per_page {
            return None;
        }
        Some(NodePool {
            node_bytes,
            slots_per_page,
            current_page: (current_raw != u64::MAX).then_some(PageId(current_raw)),
            used_slots,
            buffer,
            nodes_allocated,
            pages_allocated,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mithrilog_storage::{DevicePerfModel, MemStore};

    fn ssd() -> SimSsd<MemStore> {
        SimSsd::new(MemStore::new(4096), DevicePerfModel::default())
    }

    #[test]
    fn addr_round_trips() {
        let a = NodeAddr::new(PageId(123), 45);
        assert_eq!(a.page(), PageId(123));
        assert_eq!(a.slot(), 45);
        assert_eq!(NodeAddr::from_raw(a.to_raw()), Some(a));
        assert_eq!(NodeAddr::from_raw(u64::MAX), None);
        assert_eq!(NodeAddr::raw_or_none(None), u64::MAX);
    }

    #[test]
    fn nodes_pack_into_pages() {
        let mut ssd = ssd();
        let mut pool = NodePool::new(128, 4096);
        assert_eq!(pool.slots_per_page(), 32);
        let mut addrs = Vec::new();
        for i in 0..40u64 {
            let node = [i as u8; 128];
            addrs.push(pool.alloc(&mut ssd, &node).unwrap());
        }
        // 40 nodes at 32/page → 2 pages.
        assert_eq!(pool.pages_allocated(), 2);
        assert_eq!(pool.nodes_allocated(), 40);
        for (i, a) in addrs.iter().enumerate() {
            let node = pool.read(&mut ssd, *a).unwrap();
            assert!(node.iter().all(|&b| b == i as u8));
        }
    }

    #[test]
    fn partial_page_reads_see_latest_writes() {
        let mut ssd = ssd();
        let mut pool = NodePool::new(64, 4096);
        let a = pool.alloc(&mut ssd, &[7u8; 64]).unwrap();
        // Page is partially full; the read must still return node contents.
        assert_eq!(pool.read(&mut ssd, a).unwrap(), vec![7u8; 64]);
        let b = pool.alloc(&mut ssd, &[9u8; 64]).unwrap();
        assert_eq!(a.page(), b.page(), "second node shares the page");
        assert_eq!(pool.read(&mut ssd, a).unwrap(), vec![7u8; 64]);
        assert_eq!(pool.read(&mut ssd, b).unwrap(), vec![9u8; 64]);
    }

    #[test]
    fn dependent_reads_hit_the_ledger() {
        let mut ssd = ssd();
        let mut pool = NodePool::new(64, 4096);
        let a = pool.alloc(&mut ssd, &[1u8; 64]).unwrap();
        pool.read_dependent(&mut ssd, a).unwrap();
        assert_eq!(ssd.ledger().dependent_visits, 1);
    }

    #[test]
    #[should_panic(expected = "node size mismatch")]
    fn wrong_node_size_panics() {
        let mut ssd = ssd();
        let mut pool = NodePool::new(64, 4096);
        pool.alloc(&mut ssd, &[0u8; 32]).unwrap();
    }

    #[test]
    #[should_panic(expected = "node larger than a page")]
    fn oversized_node_panics() {
        NodePool::new(8192, 4096);
    }

    #[test]
    fn sealed_pool_never_rewrites_its_old_page() {
        let mut ssd = ssd();
        let mut pool = NodePool::new(64, 4096);
        let a = pool.alloc(&mut ssd, &[1u8; 64]).unwrap();
        pool.seal(&mut ssd).unwrap();
        let b = pool.alloc(&mut ssd, &[2u8; 64]).unwrap();
        assert_ne!(a.page(), b.page(), "post-seal alloc claims a fresh page");
        assert_eq!(pool.read(&mut ssd, a).unwrap(), vec![1u8; 64]);
        assert_eq!(pool.read(&mut ssd, b).unwrap(), vec![2u8; 64]);
    }

    #[test]
    fn a_filled_page_costs_two_writes() {
        let mut ssd = ssd();
        let mut pool = NodePool::new(128, 4096);
        let mut addrs = Vec::new();
        for i in 0..32u8 {
            addrs.push(pool.alloc(&mut ssd, &[i; 128]).unwrap());
        }
        // The claim and the write when the 32nd node filled the page.
        assert_eq!(ssd.ledger().pages_written, 2);
        assert_eq!(pool.pages_allocated(), 1);
        let page = ssd.read(addrs[0].page()).unwrap();
        for (i, chunk) in page.chunks(128).enumerate() {
            assert!(chunk.iter().all(|&b| b == i as u8), "slot {i} on device");
        }
        // The next node claims a fresh page: one more write.
        pool.alloc(&mut ssd, &[99u8; 128]).unwrap();
        assert_eq!(ssd.ledger().pages_written, 3);
    }

    #[test]
    fn seal_writes_a_partial_page_once_and_a_full_or_empty_one_never() {
        let mut ssd = ssd();
        let mut pool = NodePool::new(128, 4096);
        // Nothing claimed: sealing writes nothing.
        pool.seal(&mut ssd).unwrap();
        assert_eq!(ssd.ledger().pages_written, 0);
        // A partial page: the claim, then exactly one write at the seal.
        let a = pool.alloc(&mut ssd, &[5u8; 128]).unwrap();
        pool.alloc(&mut ssd, &[6u8; 128]).unwrap();
        assert_eq!(ssd.ledger().pages_written, 1);
        pool.seal(&mut ssd).unwrap();
        assert_eq!(ssd.ledger().pages_written, 2);
        let page = ssd.read(a.page()).unwrap();
        assert!(page[..128].iter().all(|&b| b == 5));
        assert!(page[128..256].iter().all(|&b| b == 6));
        assert!(page[256..].iter().all(|&b| b == 0));
        // Sealing again writes nothing.
        pool.seal(&mut ssd).unwrap();
        assert_eq!(ssd.ledger().pages_written, 2);
        // A full page was written when it filled; the seal adds nothing.
        for i in 0..32u8 {
            pool.alloc(&mut ssd, &[i; 128]).unwrap();
        }
        assert_eq!(ssd.ledger().pages_written, 4);
        pool.seal(&mut ssd).unwrap();
        assert_eq!(ssd.ledger().pages_written, 4);
    }

    #[test]
    fn unflushed_node_reads_from_the_buffer_with_an_unchanged_ledger() {
        let mut ssd = ssd();
        let mut pool = NodePool::new(128, 4096);
        let a = pool.alloc(&mut ssd, &[7u8; 128]).unwrap();
        let b = pool.alloc(&mut ssd, &[8u8; 128]).unwrap();
        // The device still holds the zeroed claim.
        assert!(ssd.read(a.page()).unwrap().iter().all(|&x| x == 0));

        let before = *ssd.ledger();
        let buffered = (
            pool.read(&mut ssd, a).unwrap(),
            pool.read_dependent(&mut ssd, b).unwrap(),
        );
        let buffered_cost = ssd.ledger().since(&before);
        assert_eq!(buffered, (vec![7u8; 128], vec![8u8; 128]));

        pool.seal(&mut ssd).unwrap();
        let before = *ssd.ledger();
        let sealed = (
            pool.read(&mut ssd, a).unwrap(),
            pool.read_dependent(&mut ssd, b).unwrap(),
        );
        assert_eq!(sealed, buffered);
        assert_eq!(ssd.ledger().since(&before), buffered_cost);
        assert_eq!(buffered_cost.pages_read, 2);
        assert_eq!(buffered_cost.dependent_visits, 1);
    }

    #[test]
    fn pool_state_round_trips() {
        let mut ssd = ssd();
        let mut pool = NodePool::new(64, 4096);
        let mut addrs = Vec::new();
        for i in 0..5u8 {
            addrs.push(pool.alloc(&mut ssd, &[i; 64]).unwrap());
        }
        let mut buf = Vec::new();
        pool.encode_into(&mut buf);
        let mut cur = buf.as_slice();
        let mut restored = NodePool::decode_from(&mut cur).unwrap();
        assert!(cur.is_empty());
        assert_eq!(restored.nodes_allocated(), 5);
        assert_eq!(restored.pages_allocated(), 1);
        assert_eq!(restored.slots_per_page(), pool.slots_per_page());
        // The restored pool continues allocating exactly where the original
        // would have.
        let next = restored.alloc(&mut ssd, &[9u8; 64]).unwrap();
        assert_eq!(next.page(), addrs[0].page());
        assert_eq!(next.slot(), 5);
        for (i, a) in addrs.iter().enumerate() {
            assert_eq!(restored.read(&mut ssd, *a).unwrap(), vec![i as u8; 64]);
        }
    }

    #[test]
    fn pool_decode_rejects_inconsistent_state() {
        let mut pool = NodePool::new(64, 4096);
        pool.seal(&mut ssd()).unwrap();
        let mut buf = Vec::new();
        pool.encode_into(&mut buf);
        // Truncated input.
        assert!(NodePool::decode_from(&mut &buf[..buf.len() - 1]).is_none());
        // used_slots beyond the page's capacity.
        let mut bad = buf.clone();
        bad[16..24].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(NodePool::decode_from(&mut bad.as_slice()).is_none());
        // Zero node size.
        let mut bad = buf;
        bad[0..8].copy_from_slice(&0u64.to_le_bytes());
        assert!(NodePool::decode_from(&mut bad.as_slice()).is_none());
    }
}
