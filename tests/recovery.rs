//! Recovery and correlation integration tests: index rebuild after a
//! simulated host restart, a real on-disk unmount/remount round trip, the
//! totals a rebuild must keep, a golden device image for ingest and
//! rebuild, the work a failed commit leaves to the next one, a journal
//! whose seal mount must refuse, and the §8 join workflow over two
//! filtered event classes.

use mithrilog::{IndexRecovery, MithriLog, MithriLogError, SystemConfig};
use mithrilog_analytics::{correlate_counts, extract_node, join_on};
use mithrilog_compress::{Codec, Lzah};
use mithrilog_loggen::{generate, DatasetProfile, DatasetSpec};
use mithrilog_storage::{
    append_commit, append_record, crc32, format_device, write_superblock_commit, CommitRecord,
    Crc32, FaultPlan, FaultyStore, JournalRecord, MemStore, PageId, PageStore, SealRecord, SimSsd,
    Superblock,
};

fn corpus() -> Vec<u8> {
    generate(&DatasetSpec {
        profile: DatasetProfile::Liberty2,
        target_bytes: 250_000,
        seed: 404,
    })
    .into_text()
}

#[test]
fn rebuild_restores_identical_query_results() {
    let text = corpus();
    let mut system = MithriLog::new(SystemConfig::for_tests());
    system.ingest(&text).unwrap();

    let queries = [
        "session AND opened",
        "Failed AND NOT root",
        "pbs_mom: OR ntpd[00373]:",
        "NOT kernel:",
    ];
    let before: Vec<u64> = queries
        .iter()
        .map(|q| system.query_str(q).unwrap().match_count())
        .collect();
    let lines_before = system.lines();
    let raw_before = system.raw_bytes();

    // Simulated host restart: all in-memory index state is discarded and
    // rebuilt from the surviving data pages.
    system.rebuild_index().unwrap();

    assert_eq!(system.lines(), lines_before);
    assert_eq!(system.raw_bytes(), raw_before);
    let after: Vec<u64> = queries
        .iter()
        .map(|q| system.query_str(q).unwrap().match_count())
        .collect();
    assert_eq!(before, after, "results must survive an index rebuild");

    // Now the real thing: the same corpus through an on-disk store, the
    // process "restarting" (store dropped), and a recovery-on-mount reopen.
    let dir = std::env::temp_dir().join("mithrilog-recovery-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("reopen-{}.mlog", std::process::id()));
    let _ = std::fs::remove_file(&path);
    {
        let mut disk = MithriLog::create(&path, SystemConfig::for_tests()).unwrap();
        disk.ingest(&text).unwrap();
    }
    // A formatted store must never be silently reformatted.
    assert!(MithriLog::create(&path, SystemConfig::for_tests()).is_err());

    let (mut reopened, report) = MithriLog::open(&path, SystemConfig::for_tests()).unwrap();
    assert_eq!(report.index, IndexRecovery::Checkpoint, "{report}");
    assert_eq!(report.uncommitted_pages_discarded, 0, "clean shutdown");
    assert_eq!(reopened.lines(), lines_before);
    assert_eq!(reopened.raw_bytes(), raw_before);
    let on_disk: Vec<u64> = queries
        .iter()
        .map(|q| reopened.query_str(q).unwrap().match_count())
        .collect();
    assert_eq!(before, on_disk, "results must survive unmount + remount");
    drop(reopened);
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn rebuild_recomputes_compression_ratio_and_throughput_model() {
    let text = corpus();
    let mut system = MithriLog::new(SystemConfig::for_tests());
    system.ingest(&text).unwrap();
    let ratio_before = system.compression_ratio();
    let tput_before = system.modeled_throughput().total_gbps;

    system.rebuild_index().unwrap();
    assert!((system.compression_ratio() - ratio_before).abs() < 0.01);
    assert!((system.modeled_throughput().total_gbps - tput_before).abs() < 0.2);
}

/// Mounts a copy of `system`'s device image and reports how the index
/// came back.
fn remount(store: &MemStore, config: &SystemConfig) -> (MithriLog, IndexRecovery) {
    let (mounted, report) = MithriLog::open_store(store.clone(), config.clone()).unwrap();
    (mounted, report.index)
}

#[test]
fn rebuild_keeps_the_journal_totals_so_later_mounts_load_the_checkpoint() {
    // Blank lines count as lines at ingest, and a line longer than a page
    // counts once: the two corpora where a rescan of page text would count
    // differently from the journal.
    let mut long_line = Vec::with_capacity(160_000);
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    while long_line.len() < 160_000 {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        long_line.push(b"abcdefghijklmnopqrstuvwxyz0123456789 "[(state % 37) as usize]);
    }
    long_line.extend_from_slice(b"\nshort line\n");
    let config = SystemConfig::for_tests();
    for (text, lines) in [(b"a\n\nb\n\n\n".to_vec(), 5), (long_line, 2)] {
        let mut system = MithriLog::new(config.clone());
        system.ingest(&text).unwrap();
        assert_eq!(system.lines(), lines);
        let raw = system.raw_bytes();
        assert_eq!(raw, text.len() as u64);

        system.rebuild_index().unwrap();
        assert_eq!(system.lines(), lines, "rebuild_index recounted lines");
        assert_eq!(system.raw_bytes(), raw, "rebuild_index recounted bytes");

        let (first, index) = remount(system.device().store(), &config);
        assert_eq!(index, IndexRecovery::Checkpoint);
        assert_eq!((first.lines(), first.raw_bytes()), (lines, raw));
        let (second, index) = remount(first.device().store(), &config);
        assert_eq!(index, IndexRecovery::Checkpoint);
        assert_eq!((second.lines(), second.raw_bytes()), (lines, raw));
    }
}

/// `(page count, CRC32 over the per-page CRC32s)` of a whole device image:
/// one pin that moves if any byte of any page does.
fn image_digest(store: &MemStore) -> (u64, u32) {
    let mut digest = Crc32::new();
    for page in 0..store.page_count() {
        let bytes = store.read_page(PageId(page)).unwrap();
        digest.update(&crc32(&bytes).to_le_bytes());
    }
    (store.page_count(), digest.finalize())
}

#[test]
fn golden_device_image_after_ingest_and_after_rebuild() {
    // The constants below were computed by the three-pass page analysis
    // this store shipped with before ingest, rebuild and mount shared one
    // token walk per page; they pin the index node order, the checkpoint
    // blob, the bitmap sidecars and the journal records together.
    const AFTER_INGEST: (u64, u32) = (105, 3_952_027_971);
    const AFTER_REBUILD: (u64, u32) = (133, 4_124_453_527);

    let config = SystemConfig {
        segment_pages: 16,
        ..SystemConfig::for_tests()
    };
    assert!(config.bitmap_buckets > 0);
    let text = generate(&DatasetSpec {
        profile: DatasetProfile::Bgl2,
        target_bytes: 300_000,
        seed: 30,
    })
    .into_text();
    let mut system = MithriLog::new(config);
    let mut rest = text.as_slice();
    for _ in 0..3 {
        let cut = (text.len() / 3).min(rest.len());
        let end = rest[cut..]
            .iter()
            .position(|b| *b == b'\n')
            .map_or(rest.len(), |p| cut + p + 1);
        system.ingest(&rest[..end]).unwrap();
        rest = &rest[end..];
    }
    if !rest.is_empty() {
        system.ingest(rest).unwrap();
    }
    assert!(system.sealed_segment_count() >= 2);
    assert!(system.bitmap_sidecar_locations().len() >= 2);
    assert_eq!(image_digest(system.device().store()), AFTER_INGEST);

    system.rebuild_index().unwrap();
    assert_eq!(image_digest(system.device().store()), AFTER_REBUILD);
}

/// A system on a store whose `failed_sync`-th sync fails once (the
/// format's sync is the first; every commit then syncs twice).
fn system_failing_sync(
    config: &SystemConfig,
    failed_sync: u64,
) -> MithriLog<FaultyStore<MemStore>> {
    let store = FaultyStore::new(
        MemStore::new(config.device.page_bytes),
        FaultPlan::seeded(1).with_failed_sync(failed_sync),
    );
    MithriLog::with_store(store, config.clone()).unwrap()
}

/// `(lines, data pages, sealed segments, matches of `word`)` of a system.
fn shape<S: PageStore>(system: &mut MithriLog<S>, word: &str) -> (u64, u64, u64, u64) {
    let matches = system.query_str(word).unwrap().match_count();
    let pages = system.data_page_count();
    (
        system.lines(),
        pages,
        system.sealed_segment_count(),
        matches,
    )
}

#[test]
fn a_failed_ingest_commit_is_journaled_by_the_next_commit() {
    let config = SystemConfig::for_tests();
    // Sync 4 is the first barrier of the second ingest's commit.
    let mut system = system_failing_sync(&config, 4);
    system.ingest(b"alpha one\nalpha two\n").unwrap();
    assert_eq!(system.device().ledger().syncs, 3);
    assert!(system.ingest(b"bravo one\nbravo two\n").is_err());
    system.ingest(b"charlie one\ncharlie two\n").unwrap();
    assert_eq!(shape(&mut system, "bravo"), (6, 3, 0, 2));

    let store = system.device().store().inner().clone();
    let (mut mounted, _) = MithriLog::open_store(store, config).unwrap();
    assert_eq!(shape(&mut mounted, "bravo"), (6, 3, 0, 2));
    assert_eq!(mounted.data_pages(), system.data_pages());
}

#[test]
fn a_failed_retention_commit_is_journaled_by_the_next_commit() {
    let config = SystemConfig {
        segment_pages: 1,
        ..SystemConfig::for_tests()
    };
    // Three ingests sync 2..=7; sync 8 is retention's first barrier.
    let mut system = system_failing_sync(&config, 8);
    for word in ["alpha", "bravo", "charlie"] {
        system.ingest(format!("{word} line\n").as_bytes()).unwrap();
    }
    assert_eq!(system.device().ledger().syncs, 7);
    assert!(system.apply_retention(1).is_err());
    system.ingest(b"delta line\n").unwrap();
    assert_eq!(shape(&mut system, "alpha"), (2, 2, 2, 0));

    let store = system.device().store().inner().clone();
    let (mut mounted, report) = MithriLog::open_store(store, config).unwrap();
    assert_eq!(report.segments_dropped, 2);
    assert_eq!(shape(&mut mounted, "alpha"), (2, 2, 2, 0));
    assert_eq!(mounted.sealed_segments(), system.sealed_segments());
}

#[test]
fn mount_refuses_a_seal_that_is_not_the_next_run_of_committed_pages() {
    let config = SystemConfig::for_tests();
    let mut ssd = SimSsd::new(MemStore::new(config.device.page_bytes), config.device);
    format_device(&mut ssd).unwrap();
    let lzah = Lzah::new(config.lzah);
    let texts: [&[u8]; 2] = [b"first page line\n", b"second page line\n"];
    let mut pages = Vec::new();
    for text in texts {
        pages.push(ssd.append(&lzah.compress(text)).unwrap().0);
    }
    let commit = CommitRecord {
        sequence: 1,
        data_pages: pages.clone(),
        lines: 2,
        raw_bytes: texts.iter().map(|t| t.len() as u64).sum(),
        compressed_bytes: 0,
    };
    let head = append_commit(&mut ssd, None, &commit).unwrap();
    // The seal claims the commit's second page alone, skipping the first.
    let seal = SealRecord {
        sequence: 1,
        segment_id: 0,
        crc: 0,
        pages: vec![pages[1]],
        lines: 1,
        raw_bytes: texts[1].len() as u64,
        compressed_bytes: 0,
    };
    let head = append_record(&mut ssd, Some(head), &JournalRecord::Seal(seal)).unwrap();
    ssd.sync().unwrap();
    let superblock = Superblock {
        format_version: Superblock::FORMAT_VERSION,
        page_bytes: config.device.page_bytes as u32,
        sequence: 1,
        committed_pages: ssd.page_count(),
        journal_head: Some(head),
        checkpoint: None,
    };
    write_superblock_commit(&mut ssd, &superblock).unwrap();

    match MithriLog::open_store(ssd.store().clone(), config) {
        Err(MithriLogError::Recovery(reason)) => assert!(reason.contains("segment 0"), "{reason}"),
        other => panic!("expected a recovery error, got {:?}", other.map(|(_, r)| r)),
    }
}

#[test]
fn join_correlates_event_classes_by_node() {
    let text = corpus();
    let mut system = MithriLog::new(SystemConfig::default());
    system.ingest(&text).unwrap();

    // Two event classes extracted with two accelerator queries...
    let opened = system.query_str("session AND opened").unwrap().lines;
    let closed = system.query_str("session AND closed").unwrap().lines;
    assert!(!opened.is_empty() && !closed.is_empty());

    // ...joined on the source node.
    let pairs = join_on(&opened, &closed, extract_node);
    assert!(!pairs.is_empty(), "hot nodes both open and close sessions");
    for p in pairs.iter().take(50) {
        assert_eq!(extract_node(p.left).as_deref(), Some(p.key.as_str()));
        assert_eq!(extract_node(p.right).as_deref(), Some(p.key.as_str()));
    }
    let ranked = correlate_counts(&pairs);
    assert!(ranked[0].1 >= ranked.last().unwrap().1);
    // Every ranked key belongs to a node that appears in both classes.
    let open_nodes: std::collections::HashSet<_> =
        opened.iter().filter_map(|l| extract_node(l)).collect();
    let close_nodes: std::collections::HashSet<_> =
        closed.iter().filter_map(|l| extract_node(l)).collect();
    for (k, _) in &ranked {
        assert!(open_nodes.contains(k) && close_nodes.contains(k));
    }
}
