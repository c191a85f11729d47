//! Deterministic fault injection for the simulated device.
//!
//! [`FaultyStore`] wraps any [`PageStore`] and injects storage faults
//! according to a seeded [`FaultPlan`]: at-rest bit rot (a sticky bit flip
//! applied on every read of an affected page), torn writes (only a prefix of
//! the page is persisted), and transient read episodes (a page fails a fixed
//! number of consecutive read attempts, then recovers — modeling a flaky
//! channel or a read needing voltage-shift retries). A plan can also fail
//! one planned `sync` with an I/O error, as a host whose `fsync` reports
//! a write-back error does.
//!
//! Faults are drawn from a SplitMix64 stream seeded by the plan, so a given
//! plan over a given write sequence injects exactly the same faults every
//! run — fault drills and recovery tests are fully reproducible. Every
//! injected fault is also recorded, so tests can assert that recovery
//! machinery found *exactly* the faults that were planted.

use std::collections::BTreeMap;
use std::sync::Mutex;

use bytes::Bytes;

use crate::device::{PageId, PageStore};
use crate::error::StorageError;
use crate::rng::SplitMix64;

/// One kind of injected storage fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// At-rest bit rot: bit `bit` (little-endian bit index into the page) is
    /// flipped on every subsequent read of the page.
    BitRot {
        /// Bit index within the page (`byte * 8 + bit_in_byte`).
        bit: u64,
    },
    /// Torn write: only the first `valid_bytes` of the written data are
    /// persisted; the tail of the page reads back as zeros.
    TornWrite {
        /// Bytes of the intended write that actually landed.
        valid_bytes: usize,
    },
    /// Transient read episode: the next `failures` read attempts of the page
    /// fail with [`StorageError::TransientRead`], after which reads succeed.
    TransientRead {
        /// Consecutive attempts that fail before the page recovers.
        failures: u32,
    },
    /// Firmware-bug drill: every read of the page panics instead of
    /// returning. Used to prove that a host-side scheduler contains worker
    /// panics — the page's *content* is intact, so it is excluded from
    /// [`FaultyStore::corrupted_pages`].
    ReadPanic,
}

/// A record of one fault the store actually injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectedFault {
    /// The affected page.
    pub page: u64,
    /// What was injected.
    pub kind: FaultKind,
}

/// A seeded, deterministic plan of which faults to inject.
///
/// A plan combines per-write probabilities (each page written draws its
/// faults from the seeded stream) with an explicit schedule of faults for
/// specific pages. The default plan injects nothing.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    seed: u64,
    bit_rot_rate: f64,
    torn_write_rate: f64,
    transient_rate: f64,
    transient_failures: u32,
    scheduled: Vec<(u64, FaultKind)>,
    failed_sync: Option<u64>,
}

impl FaultPlan {
    /// A plan with the given seed and no faults enabled yet.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// Each written page rots one random bit with probability `rate`.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is outside `[0, 1]`.
    #[must_use]
    pub fn with_bit_rot_rate(mut self, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "bit rot rate must be in [0,1]");
        self.bit_rot_rate = rate;
        self
    }

    /// Each write is torn (prefix-only) with probability `rate`.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is outside `[0, 1]`.
    #[must_use]
    pub fn with_torn_write_rate(mut self, rate: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&rate),
            "torn write rate must be in [0,1]"
        );
        self.torn_write_rate = rate;
        self
    }

    /// Each written page starts a transient episode with probability `rate`:
    /// its first `failures` read attempts fail, then it recovers.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is outside `[0, 1]` or `failures` is zero.
    #[must_use]
    pub fn with_transient_rate(mut self, rate: f64, failures: u32) -> Self {
        assert!(
            (0.0..=1.0).contains(&rate),
            "transient rate must be in [0,1]"
        );
        assert!(
            failures > 0,
            "a transient episode needs at least one failure"
        );
        self.transient_rate = rate;
        self.transient_failures = failures;
        self
    }

    /// Explicitly schedules `kind` for page `page`, independent of the
    /// probabilistic rates. [`FaultKind::TornWrite`] applies to the next
    /// write of that page; the other kinds arm immediately.
    #[must_use]
    pub fn with_scheduled(mut self, page: u64, kind: FaultKind) -> Self {
        self.scheduled.push((page, kind));
        self
    }

    /// The `n`-th `sync` the store receives (counting from 1) returns
    /// [`StorageError::Io`] once; every other sync passes through. The
    /// writes before it have still reached the wrapped store.
    #[must_use]
    pub fn with_failed_sync(mut self, n: u64) -> Self {
        self.failed_sync = Some(n);
        self
    }
}

#[derive(Debug)]
struct FaultState {
    rng: SplitMix64,
    /// Sticky bit rot: page → bit flipped on every read.
    rot: BTreeMap<u64, u64>,
    /// Active transient episodes: page → remaining failing attempts.
    transient: BTreeMap<u64, u32>,
    /// Scheduled torn writes not yet consumed: page → valid prefix bytes.
    torn_pending: BTreeMap<u64, usize>,
    /// Pages whose reads panic (firmware-bug drill).
    panicking: std::collections::BTreeSet<u64>,
    /// Everything injected so far, in injection order.
    injected: Vec<InjectedFault>,
    /// Syncs received so far.
    syncs: u64,
}

/// A [`PageStore`] wrapper that injects faults per a [`FaultPlan`].
///
/// Reads are `&self`, so fault state (episode countdowns, the RNG) lives
/// behind a mutex; the wrapper stays `Send + Sync` like any other store.
#[derive(Debug)]
pub struct FaultyStore<S> {
    inner: S,
    plan: FaultPlan,
    state: Mutex<FaultState>,
}

impl<S: PageStore> FaultyStore<S> {
    /// Wraps `inner`, arming the plan's scheduled faults.
    pub fn new(inner: S, plan: FaultPlan) -> Self {
        let mut state = FaultState {
            rng: SplitMix64::new(plan.seed),
            rot: BTreeMap::new(),
            transient: BTreeMap::new(),
            torn_pending: BTreeMap::new(),
            panicking: std::collections::BTreeSet::new(),
            injected: Vec::new(),
            syncs: 0,
        };
        for &(page, kind) in &plan.scheduled {
            match kind {
                FaultKind::BitRot { bit } => {
                    state.rot.insert(page, bit);
                }
                FaultKind::TransientRead { failures } => {
                    state.transient.insert(page, failures);
                }
                FaultKind::TornWrite { valid_bytes } => {
                    state.torn_pending.insert(page, valid_bytes);
                }
                FaultKind::ReadPanic => {
                    state.panicking.insert(page);
                }
            }
            state.injected.push(InjectedFault { page, kind });
        }
        FaultyStore {
            inner,
            plan,
            state: Mutex::new(state),
        }
    }

    /// The wrapped store.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Unwraps, discarding fault state.
    pub fn into_inner(self) -> S {
        self.inner
    }

    /// Every fault injected so far, in injection order.
    pub fn injected(&self) -> Vec<InjectedFault> {
        self.lock().injected.clone()
    }

    /// Pages whose *content* is corrupt (bit rot or torn writes), sorted.
    /// Transient episodes are excluded: those pages hold good data and
    /// recover by retrying.
    pub fn corrupted_pages(&self) -> Vec<u64> {
        let st = self.lock();
        let mut pages: Vec<u64> = st.rot.keys().copied().collect();
        pages.extend(
            st.injected
                .iter()
                .filter(|f| matches!(f.kind, FaultKind::TornWrite { .. }))
                .map(|f| f.page),
        );
        pages.sort_unstable();
        pages.dedup();
        pages
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, FaultState> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Draws write-time faults for page `page` carrying `data`, returning
    /// how many bytes of the write should actually be persisted.
    fn draw_write_faults(&mut self, page: u64, data_len: usize) -> usize {
        let page_bits = (self.inner.page_bytes() as u64) * 8;
        let st = self
            .state
            .get_mut()
            .unwrap_or_else(std::sync::PoisonError::into_inner);

        // A scheduled torn write takes precedence over the probabilistic draw.
        let mut valid = data_len;
        if let Some(prefix) = st.torn_pending.remove(&page) {
            valid = prefix.min(data_len);
        } else if st.rng.next_f64() < self.plan.torn_write_rate && data_len > 1 {
            valid = 1 + st.rng.below(data_len as u64 - 1) as usize;
            let kind = FaultKind::TornWrite { valid_bytes: valid };
            st.injected.push(InjectedFault { page, kind });
        }
        if st.rng.next_f64() < self.plan.bit_rot_rate {
            let bit = st.rng.below(page_bits);
            st.rot.insert(page, bit);
            st.injected.push(InjectedFault {
                page,
                kind: FaultKind::BitRot { bit },
            });
        }
        if st.rng.next_f64() < self.plan.transient_rate {
            let failures = self.plan.transient_failures;
            st.transient.insert(page, failures);
            st.injected.push(InjectedFault {
                page,
                kind: FaultKind::TransientRead { failures },
            });
        }
        valid
    }
}

impl<S: PageStore> PageStore for FaultyStore<S> {
    fn page_bytes(&self) -> usize {
        self.inner.page_bytes()
    }

    fn page_count(&self) -> u64 {
        self.inner.page_count()
    }

    fn read_page(&self, id: PageId) -> Result<Bytes, StorageError> {
        // The guard temporary drops when the condition finishes evaluating,
        // so the panic below never poisons the fault-state mutex itself.
        if self.lock().panicking.contains(&id.0) {
            panic!("injected firmware panic reading page {}", id.0);
        }
        {
            let mut st = self.lock();
            if let Some(remaining) = st.transient.get_mut(&id.0) {
                if *remaining > 0 {
                    *remaining -= 1;
                    return Err(StorageError::TransientRead { page: id.0 });
                }
                st.transient.remove(&id.0);
            }
        }
        let page = self.inner.read_page(id)?;
        let rot_bit = self.lock().rot.get(&id.0).copied();
        match rot_bit {
            Some(bit) => {
                let mut buf = page.to_vec();
                let bit = bit % (buf.len() as u64 * 8);
                buf[(bit / 8) as usize] ^= 1 << (bit % 8);
                Ok(Bytes::from(buf))
            }
            None => Ok(page),
        }
    }

    fn append_page(&mut self, data: &[u8]) -> Result<PageId, StorageError> {
        let page = self.inner.page_count();
        let valid = self.draw_write_faults(page, data.len());
        let id = self.inner.append_page(&data[..valid])?;
        debug_assert_eq!(id.0, page, "append id must match predicted page");
        Ok(id)
    }

    fn write_page(&mut self, id: PageId, data: &[u8]) -> Result<(), StorageError> {
        let valid = self.draw_write_faults(id.0, data.len());
        self.inner.write_page(id, &data[..valid])
    }

    fn sync(&mut self) -> Result<(), StorageError> {
        let st = self
            .state
            .get_mut()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        st.syncs += 1;
        if self.plan.failed_sync == Some(st.syncs) {
            return Err(std::io::Error::other("injected sync failure").into());
        }
        self.inner.sync()
    }

    fn truncate(&mut self, pages: u64) -> Result<(), StorageError> {
        self.inner.truncate(pages)?;
        // Fault state attached to dropped pages dies with them.
        let st = self
            .state
            .get_mut()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        st.rot.retain(|&p, _| p < pages);
        st.transient.retain(|&p, _| p < pages);
        st.torn_pending.retain(|&p, _| p < pages);
        st.panicking.retain(|&p| p < pages);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::MemStore;

    fn store_with(plan: FaultPlan) -> FaultyStore<MemStore> {
        FaultyStore::new(MemStore::new(256), plan)
    }

    #[test]
    fn no_faults_is_a_transparent_wrapper() {
        let mut s = store_with(FaultPlan::default());
        let id = s.append_page(b"payload").unwrap();
        assert_eq!(&s.read_page(id).unwrap()[..7], b"payload");
        assert!(s.injected().is_empty());
        assert!(s.corrupted_pages().is_empty());
    }

    #[test]
    fn scheduled_bit_rot_flips_the_same_bit_every_read() {
        let plan = FaultPlan::seeded(1).with_scheduled(0, FaultKind::BitRot { bit: 13 });
        let mut s = store_with(plan);
        let id = s.append_page(&[0u8; 256]).unwrap();
        let a = s.read_page(id).unwrap();
        let b = s.read_page(id).unwrap();
        assert_eq!(a, b, "bit rot must be sticky, not random per read");
        assert_eq!(a[1], 1 << 5, "bit 13 is byte 1, bit 5");
        assert_eq!(s.corrupted_pages(), vec![0]);
    }

    #[test]
    fn scheduled_torn_write_persists_only_the_prefix() {
        let plan = FaultPlan::seeded(2).with_scheduled(0, FaultKind::TornWrite { valid_bytes: 3 });
        let mut s = store_with(plan);
        let id = s.append_page(b"abcdefgh").unwrap();
        let page = s.read_page(id).unwrap();
        assert_eq!(&page[..3], b"abc");
        assert!(
            page[3..].iter().all(|&x| x == 0),
            "torn tail must read as zeros"
        );
        // The tear is consumed: a rewrite lands in full.
        s.write_page(id, b"abcdefgh").unwrap();
        assert_eq!(&s.read_page(id).unwrap()[..8], b"abcdefgh");
    }

    #[test]
    fn transient_episode_fails_then_recovers() {
        let plan = FaultPlan::seeded(3).with_scheduled(0, FaultKind::TransientRead { failures: 2 });
        let mut s = store_with(plan);
        let id = s.append_page(b"flaky").unwrap();
        assert!(matches!(
            s.read_page(id),
            Err(StorageError::TransientRead { page: 0 })
        ));
        assert!(matches!(
            s.read_page(id),
            Err(StorageError::TransientRead { page: 0 })
        ));
        assert_eq!(&s.read_page(id).unwrap()[..5], b"flaky");
        assert_eq!(
            &s.read_page(id).unwrap()[..5],
            b"flaky",
            "recovery is permanent"
        );
    }

    #[test]
    fn probabilistic_plans_are_deterministic_per_seed() {
        let run = |seed: u64| {
            let plan = FaultPlan::seeded(seed)
                .with_bit_rot_rate(0.3)
                .with_torn_write_rate(0.2)
                .with_transient_rate(0.2, 2);
            let mut s = store_with(plan);
            for i in 0..50 {
                s.append_page(format!("page number {i}").as_bytes())
                    .unwrap();
            }
            s.injected()
        };
        let a = run(7);
        let b = run(7);
        assert_eq!(a, b, "same seed must inject identical faults");
        assert!(
            !a.is_empty(),
            "rates this high must inject something in 50 pages"
        );
        let c = run(8);
        assert_ne!(a, c, "different seeds must diverge");
    }

    #[test]
    fn rates_of_one_hit_every_write() {
        let plan = FaultPlan::seeded(4).with_bit_rot_rate(1.0);
        let mut s = store_with(plan);
        for _ in 0..10 {
            s.append_page(b"x").unwrap();
        }
        assert_eq!(s.corrupted_pages().len(), 10);
    }

    #[test]
    fn scheduled_read_panic_fires_deterministically() {
        let plan = FaultPlan::seeded(9).with_scheduled(1, FaultKind::ReadPanic);
        let mut s = store_with(plan);
        let ok = s.append_page(b"fine").unwrap();
        let doomed = s.append_page(b"kaboom").unwrap();
        assert_eq!(&s.read_page(ok).unwrap()[..4], b"fine");
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = s.read_page(doomed);
        }));
        assert!(caught.is_err(), "the scheduled page must panic on read");
        // The store survives its own panic: other pages keep reading, the
        // doomed page keeps panicking, and content-corruption reports are
        // unaffected.
        assert_eq!(&s.read_page(ok).unwrap()[..4], b"fine");
        assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = s.read_page(doomed);
        }))
        .is_err());
        assert!(s.corrupted_pages().is_empty());
        assert_eq!(s.injected().len(), 1);
    }

    #[test]
    fn a_planned_sync_fails_once_and_only_that_one() {
        let mut s = store_with(FaultPlan::seeded(5).with_failed_sync(2));
        s.append_page(b"kept").unwrap();
        assert!(s.sync().is_ok());
        assert!(matches!(s.sync(), Err(StorageError::Io(_))));
        assert!(s.sync().is_ok());
        assert_eq!(&s.read_page(PageId(0)).unwrap()[..4], b"kept");
    }

    #[test]
    fn out_of_range_passes_through() {
        let s = store_with(FaultPlan::default());
        assert!(matches!(
            s.read_page(PageId(0)),
            Err(StorageError::OutOfRange { .. })
        ));
    }
}
