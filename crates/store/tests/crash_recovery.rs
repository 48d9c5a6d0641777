//! Crash-injection suite: kill the store at every point of the guarded
//! `add_source`, rewrite (re-slab / migration), and `remove_source`
//! sequences — plus the sharded handoff protocol at every window between
//! donor-export journal, recipient import, and map commit — reopen, and
//! verify `open()` repairs the files to a consistent state. Each
//! single-store case is one row of the DESIGN.md §7 crash matrix; each
//! handoff case is one row of the §8 matrix, whose acceptance bar is that
//! the mid-handoff source ends up **owned by exactly one shard**. The redo
//! cells at the end kill around the data file's redo log and compare the
//! reopened records bitwise to a store that never crashed.

use ebc_core::bd::{BdError, BdStore};
use ebc_store::disk::{AddCrash, CheckpointCrash, ExportCrash, RemoveCrash, RewriteCrash};
use ebc_store::redo::redo_path;
use ebc_store::shard::{HandoffKill, HandoffRecovery};
use ebc_store::{CodecKind, DiskBdStore, FormatVersion, IntentOp, RecoveryAction, ShardSet};
use std::path::PathBuf;

/// One v1 record: `(source id, d, sigma, delta)`.
type V1Record = (u32, Vec<u32>, Vec<u64>, Vec<f64>);

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("ebc_store_crash");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{name}_{}.bd", std::process::id()))
}

fn sample(n: usize, salt: u64) -> (Vec<u32>, Vec<u64>, Vec<f64>) {
    let d = (0..n).map(|i| ((i as u64 + salt) % 5) as u32).collect();
    let sigma = (0..n).map(|i| (i as u64 + salt) % 9 + 1).collect();
    let delta = (0..n).map(|i| i as f64 * 0.5 + salt as f64).collect();
    (d, sigma, delta)
}

/// Store with two committed sources (7 and 3), flushed and dropped.
fn seeded(path: &PathBuf, n: usize) {
    let mut st = DiskBdStore::create(path, n, CodecKind::Wide).unwrap();
    for s in [7u32, 3] {
        let (d, sig, del) = sample(n, s as u64);
        st.add_source(s, d, sig, del).unwrap();
    }
    st.flush().unwrap();
}

/// Assert the reopened store matches the pre-crash two-source state and is
/// fully usable (round-trips a fresh add of the torn source).
fn assert_rolled_back(path: &PathBuf, n: usize) {
    let mut st = DiskBdStore::open(path).unwrap();
    assert_eq!(st.sources(), vec![7, 3]);
    for s in [7u32, 3] {
        let (d, sig, del) = sample(n, s as u64);
        st.update_with(s, &mut |view| {
            assert_eq!(view.d, &d[..]);
            assert_eq!(view.sigma, &sig[..]);
            assert_eq!(view.delta, &del[..]);
            false
        })
        .unwrap();
    }
    // the rolled-back source can be re-added cleanly
    let (d, sig, del) = sample(n, 11);
    st.add_source(11, d, sig, del).unwrap();
    drop(st);
    let st = DiskBdStore::open(path).unwrap();
    assert_eq!(st.sources(), vec![7, 3, 11]);
    assert_eq!(st.last_recovery(), None, "commit left no pending intent");
}

/// Assert the reopened store contains the torn source with its exact
/// record.
fn assert_rolled_forward(path: &PathBuf, n: usize) {
    let mut st = DiskBdStore::open(path).unwrap();
    assert_eq!(st.sources(), vec![7, 3, 11]);
    let (d, sig, del) = sample(n, 11);
    st.update_with(11, &mut |view| {
        assert_eq!(view.d, &d[..]);
        assert_eq!(view.sigma, &sig[..]);
        assert_eq!(view.delta, &del[..]);
        false
    })
    .unwrap();
}

fn tear_add(path: &PathBuf, n: usize, crash: AddCrash) {
    let mut st = DiskBdStore::open(path).unwrap();
    let (d, sig, del) = sample(n, 11);
    st.add_source_crashing(11, d, sig, del, crash).unwrap();
    // dropped without commit — the simulated kill
}

#[test]
fn add_source_crash_after_intent_rolls_back() {
    let n = 6;
    let path = tmp("add_intent");
    seeded(&path, n);
    tear_add(&path, n, AddCrash::AfterIntent);
    let st = DiskBdStore::open(&path).unwrap();
    assert_eq!(
        st.last_recovery(),
        Some(RecoveryAction::RolledBack(IntentOp::AddSource))
    );
    drop(st);
    assert_rolled_back(&path, n);
}

#[test]
fn add_source_crash_mid_record_rolls_back() {
    let n = 6;
    let path = tmp("add_midrec");
    seeded(&path, n);
    tear_add(&path, n, AddCrash::MidRecord);
    let st = DiskBdStore::open(&path).unwrap();
    assert_eq!(
        st.last_recovery(),
        Some(RecoveryAction::RolledBack(IntentOp::AddSource)),
        "a half-written record must never be adopted"
    );
    drop(st);
    assert_rolled_back(&path, n);
}

#[test]
fn add_source_crash_after_record_rolls_forward() {
    let n = 6;
    let path = tmp("add_rec");
    seeded(&path, n);
    tear_add(&path, n, AddCrash::AfterRecord);
    let st = DiskBdStore::open(&path).unwrap();
    assert_eq!(
        st.last_recovery(),
        Some(RecoveryAction::RolledForward(IntentOp::AddSource)),
        "a durable record (checksum verified) completes the add"
    );
    drop(st);
    assert_rolled_forward(&path, n);
}

#[test]
fn add_source_crash_after_header_rolls_forward() {
    let n = 6;
    let path = tmp("add_hdr");
    seeded(&path, n);
    tear_add(&path, n, AddCrash::AfterHeader);
    // this is exactly the formerly fatal state: header and sidecar disagree
    let st = DiskBdStore::open(&path).unwrap();
    assert_eq!(
        st.last_recovery(),
        Some(RecoveryAction::RolledForward(IntentOp::AddSource))
    );
    drop(st);
    assert_rolled_forward(&path, n);
}

#[test]
fn add_source_crash_after_sidecar_rolls_forward() {
    let n = 6;
    let path = tmp("add_side");
    seeded(&path, n);
    tear_add(&path, n, AddCrash::AfterSidecar);
    let st = DiskBdStore::open(&path).unwrap();
    assert_eq!(
        st.last_recovery(),
        Some(RecoveryAction::RolledForward(IntentOp::AddSource))
    );
    drop(st);
    assert_rolled_forward(&path, n);
}

#[test]
fn torn_intent_record_is_discarded() {
    let n = 6;
    let path = tmp("torn_wal");
    seeded(&path, n);
    // garbage .wal: the guarded mutation never began
    let mut wal = path.as_os_str().to_owned();
    wal.push(".wal");
    std::fs::write(PathBuf::from(wal), b"EBCWAL\n garbage").unwrap();
    let st = DiskBdStore::open(&path).unwrap();
    assert_eq!(st.last_recovery(), Some(RecoveryAction::DiscardedIntent));
    assert_eq!(st.sources(), vec![7, 3]);
}

#[test]
fn reslab_crash_after_intent_rolls_back() {
    let n = 4;
    let path = tmp("reslab_intent");
    {
        // zero headroom so the next growth must re-slab
        let mut st = DiskBdStore::create_with_capacity(&path, n, n, CodecKind::Wide).unwrap();
        let (d, sig, del) = sample(n, 1);
        st.add_source(0, d, sig, del).unwrap();
        st.grow_vertex_crashing(RewriteCrash::AfterIntent).unwrap();
    }
    let st = DiskBdStore::open(&path).unwrap();
    assert_eq!(
        st.last_recovery(),
        Some(RecoveryAction::RolledBack(IntentOp::Reslab))
    );
    assert_eq!(st.n(), n, "growth never became visible");
    assert_eq!(st.capacity(), n);
}

#[test]
fn reslab_crash_after_tmp_rolls_back_and_removes_tmp() {
    let n = 4;
    let path = tmp("reslab_tmp");
    {
        let mut st = DiskBdStore::create_with_capacity(&path, n, n, CodecKind::Wide).unwrap();
        let (d, sig, del) = sample(n, 2);
        st.add_source(0, d, sig, del).unwrap();
        st.grow_vertex_crashing(RewriteCrash::AfterTmp).unwrap();
    }
    assert!(
        path.with_extension("tmp").exists(),
        "crash left the tmp file"
    );
    let mut st = DiskBdStore::open(&path).unwrap();
    assert_eq!(
        st.last_recovery(),
        Some(RecoveryAction::RolledBack(IntentOp::Reslab))
    );
    assert!(!path.with_extension("tmp").exists(), "recovery cleans up");
    assert_eq!(st.n(), n);
    let (d, sig, del) = sample(n, 2);
    st.update_with(0, &mut |view| {
        assert_eq!(view.d, &d[..]);
        assert_eq!(view.sigma, &sig[..]);
        assert_eq!(view.delta, &del[..]);
        false
    })
    .unwrap();
}

#[test]
fn reslab_crash_after_rename_rolls_forward() {
    let n = 4;
    let path = tmp("reslab_rename");
    {
        let mut st = DiskBdStore::create_with_capacity(&path, n, n, CodecKind::Wide).unwrap();
        let (d, sig, del) = sample(n, 3);
        st.add_source(0, d, sig, del).unwrap();
        st.grow_vertex_crashing(RewriteCrash::AfterRename).unwrap();
    }
    let mut st = DiskBdStore::open(&path).unwrap();
    assert_eq!(
        st.last_recovery(),
        Some(RecoveryAction::RolledForward(IntentOp::Reslab))
    );
    assert_eq!(st.n(), n + 1, "the renamed file carries the grown geometry");
    assert!(st.capacity() > n + 1);
    let (d, sig, del) = sample(n, 3);
    st.update_with(0, &mut |view| {
        assert_eq!(&view.d[..n], &d[..]);
        assert_eq!(view.d[n], ebc_graph::UNREACHABLE);
        assert_eq!(&view.sigma[..n], &sig[..]);
        assert_eq!(&view.delta[..n], &del[..]);
        false
    })
    .unwrap();
}

/// Build a legacy v1 file by hand (the documented 24-byte-header layout).
fn write_v1_file(path: &PathBuf, codec: CodecKind, n: usize, records: &[V1Record]) {
    let mut data = Vec::new();
    data.extend_from_slice(b"EBCBD1\n");
    data.push(codec.id());
    data.extend_from_slice(&(n as u64).to_le_bytes());
    data.extend_from_slice(&(records.len() as u64).to_le_bytes());
    let mut buf = vec![0u8; codec.record_size(n)];
    for (_, d, sig, del) in records {
        codec.encode_record(d, sig, del, &mut buf);
        data.extend_from_slice(&buf);
    }
    std::fs::write(path, data).unwrap();
    let mut idx = Vec::new();
    idx.extend_from_slice(&(records.len() as u64).to_le_bytes());
    for (s, ..) in records {
        idx.extend_from_slice(&s.to_le_bytes());
    }
    let mut sidecar = path.as_os_str().to_owned();
    sidecar.push(".idx");
    std::fs::write(PathBuf::from(sidecar), idx).unwrap();
}

#[test]
fn migration_crash_before_rename_leaves_readable_v1() {
    let n = 5;
    let path = tmp("migrate_tear");
    let (d, sig, del) = sample(n, 4);
    write_v1_file(&path, CodecKind::Wide, n, &[(2, d.clone(), sig, del)]);
    {
        let mut st = DiskBdStore::open(&path).unwrap();
        assert_eq!(st.version(), FormatVersion::V1);
        st.grow_vertex_crashing(RewriteCrash::AfterTmp).unwrap();
    }
    let mut st = DiskBdStore::open(&path).unwrap();
    assert_eq!(
        st.last_recovery(),
        Some(RecoveryAction::RolledBack(IntentOp::Migrate))
    );
    assert_eq!(st.version(), FormatVersion::V1, "still the old format");
    assert_eq!(st.peek_pair(2, 0, 1).unwrap(), (d[0], d[1]));
}

#[test]
fn migration_crash_after_rename_completes_v2() {
    let n = 5;
    let path = tmp("migrate_fwd");
    let (d, sig, del) = sample(n, 5);
    write_v1_file(
        &path,
        CodecKind::Wide,
        n,
        &[(2, d.clone(), sig.clone(), del.clone())],
    );
    {
        let mut st = DiskBdStore::open(&path).unwrap();
        st.grow_vertex_crashing(RewriteCrash::AfterRename).unwrap();
    }
    let mut st = DiskBdStore::open(&path).unwrap();
    assert_eq!(
        st.last_recovery(),
        Some(RecoveryAction::RolledForward(IntentOp::Migrate))
    );
    assert_eq!(st.version(), FormatVersion::V2);
    assert!(st.headroom() > 0);
    st.update_with(2, &mut |view| {
        assert_eq!(view.d, &d[..]);
        assert_eq!(view.sigma, &sig[..]);
        assert_eq!(view.delta, &del[..]);
        false
    })
    .unwrap();
}

#[test]
fn double_crash_recovery_is_idempotent() {
    // recover, then crash the *next* mutation too: each reopen must repair
    // independently
    let n = 6;
    let path = tmp("double");
    seeded(&path, n);
    tear_add(&path, n, AddCrash::AfterHeader);
    {
        let st = DiskBdStore::open(&path).unwrap();
        assert!(matches!(
            st.last_recovery(),
            Some(RecoveryAction::RolledForward(IntentOp::AddSource))
        ));
    }
    {
        let mut st = DiskBdStore::open(&path).unwrap();
        let (d, sig, del) = sample(n, 12);
        st.add_source_crashing(12, d, sig, del, AddCrash::MidRecord)
            .unwrap();
    }
    let st = DiskBdStore::open(&path).unwrap();
    assert_eq!(
        st.last_recovery(),
        Some(RecoveryAction::RolledBack(IntentOp::AddSource))
    );
    assert_eq!(st.sources(), vec![7, 3, 11]);
}

#[test]
fn stale_intent_with_clean_files_is_harmless() {
    // AfterSidecar tear twice in a row exercises the "sidecar already new"
    // branch; a second reopen after recovery sees no intent at all
    let n = 6;
    let path = tmp("stale");
    seeded(&path, n);
    tear_add(&path, n, AddCrash::AfterSidecar);
    {
        DiskBdStore::open(&path).unwrap();
    }
    let st = DiskBdStore::open(&path).unwrap();
    assert_eq!(
        st.last_recovery(),
        None,
        "first recovery cleared the intent"
    );
    assert_eq!(st.sources(), vec![7, 3, 11]);
}

/// Removal kills: every kill point must roll *forward* (the removal's
/// inputs survive until the final truncate, and the intent is only written
/// once the caller has secured the record elsewhere).
fn assert_removal_completed(path: &PathBuf, n: usize) {
    let mut st = DiskBdStore::open(path).unwrap();
    assert_eq!(
        st.last_recovery(),
        Some(RecoveryAction::RolledForward(IntentOp::RemoveSource))
    );
    assert_eq!(st.sources(), vec![3], "survivor after swap-remove of 7");
    // the swapped record (source 3 moved into slot 0) is bit-intact
    let (d, sig, del) = sample(n, 3);
    st.update_with(3, &mut |view| {
        assert_eq!(view.d, &d[..]);
        assert_eq!(view.sigma, &sig[..]);
        assert_eq!(view.delta, &del[..]);
        false
    })
    .unwrap();
    // the removed source is gone and can be freshly re-added
    assert!(matches!(
        st.peek_pair(7, 0, 1),
        Err(BdError::UnknownSource(7))
    ));
    let (d, sig, del) = sample(n, 7);
    st.add_source(7, d, sig, del).unwrap();
    drop(st);
    let st = DiskBdStore::open(path).unwrap();
    assert_eq!(st.sources(), vec![3, 7]);
    assert_eq!(st.last_recovery(), None);
}

#[test]
fn remove_source_crashes_all_roll_forward() {
    let n = 6;
    for (name, crash) in [
        ("rm_intent", RemoveCrash::AfterIntent),
        ("rm_copy", RemoveCrash::AfterCopy),
        ("rm_hdr", RemoveCrash::AfterHeader),
        ("rm_side", RemoveCrash::AfterSidecar),
    ] {
        let path = tmp(name);
        seeded(&path, n);
        {
            let mut st = DiskBdStore::open(&path).unwrap();
            st.remove_source_crashing(7, crash).unwrap();
        }
        assert_removal_completed(&path, n);
    }
}

#[test]
fn remove_source_crash_on_last_slot_needs_no_copy() {
    let n = 6;
    let path = tmp("rm_last");
    seeded(&path, n); // sources [7, 3]; 3 occupies the last slot
    {
        let mut st = DiskBdStore::open(&path).unwrap();
        st.remove_source_crashing(3, RemoveCrash::AfterIntent)
            .unwrap();
    }
    let mut st = DiskBdStore::open(&path).unwrap();
    assert_eq!(
        st.last_recovery(),
        Some(RecoveryAction::RolledForward(IntentOp::RemoveSource))
    );
    assert_eq!(st.sources(), vec![7]);
    let (d, sig, del) = sample(n, 7);
    st.update_with(7, &mut |view| {
        assert_eq!(view.d, &d[..]);
        assert_eq!(view.sigma, &sig[..]);
        assert_eq!(view.delta, &del[..]);
        false
    })
    .unwrap();
}

#[test]
fn export_crash_after_journal_leaves_source_owned() {
    // the export journal is durable but the removal never began: a plain
    // single-store reopen sees the source untouched (the journal is a
    // shard-level concern the ShardSet resolves)
    let n = 6;
    let path = tmp("exp_journal");
    seeded(&path, n);
    {
        let mut st = DiskBdStore::open(&path).unwrap();
        st.export_source_crashing(7, 1, ExportCrash::AfterJournal)
            .unwrap();
    }
    let st = DiskBdStore::open(&path).unwrap();
    assert_eq!(st.last_recovery(), None, "no WAL intent was written");
    assert_eq!(st.sources(), vec![7, 3]);
    let pending = ebc_store::disk::pending_exports(&path).unwrap();
    assert_eq!(pending.len(), 1, "the journal awaits shard-level recovery");
    let journal = ebc_store::disk::read_export_journal(&pending[0])
        .unwrap()
        .expect("journal parses");
    assert_eq!(journal.source, 7);
    assert_eq!(journal.tag, 1);
    let (d, sig, del) = sample(n, 7);
    assert_eq!(journal.d, d);
    assert_eq!(journal.sigma, sig);
    assert_eq!(journal.delta, del);
}

// ---- sharded handoff crash matrix (DESIGN.md §8) ----

fn shard_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("ebc_shard_crash")
        .join(format!("{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Two shards, shard 0 owning {7, 3}, shard 1 owning {5}, flushed.
fn seeded_set(dir: &PathBuf, n: usize) {
    let mut set = ShardSet::create(dir, n, 2, CodecKind::Wide).unwrap();
    for (shard, s) in [(0usize, 7u32), (0, 3), (1, 5)] {
        let (d, sig, del) = sample(n, s as u64);
        set.shard_mut(shard).add_source(s, d, sig, del).unwrap();
    }
    set.flush().unwrap();
}

/// Every source of the seeded set is owned by exactly one shard, and every
/// record (including the mid-handoff one, wherever it landed) is
/// bit-intact.
fn assert_exactly_once_and_intact(set: &mut ShardSet, n: usize) {
    let assignment = set.assignment();
    for s in [7u32, 3, 5] {
        let owners: Vec<usize> = (0..set.num_shards())
            .filter(|&k| assignment[k].contains(&s))
            .collect();
        assert_eq!(owners.len(), 1, "source {s} owned by {owners:?}");
        let (d, sig, del) = sample(n, s as u64);
        set.shard_mut(owners[0])
            .update_with(s, &mut |view| {
                assert_eq!(view.d, &d[..], "source {s} distances");
                assert_eq!(view.sigma, &sig[..], "source {s} sigma");
                assert_eq!(view.delta, &del[..], "source {s} delta");
                false
            })
            .unwrap();
    }
}

#[test]
fn handoff_kill_after_export_journal_rolls_back() {
    let n = 5;
    let dir = shard_dir("ho_journal");
    seeded_set(&dir, n);
    {
        let mut set = ShardSet::open(&dir).unwrap();
        set.handoff_crashing(7, 0, 1, HandoffKill::AfterExportJournal)
            .unwrap();
    }
    let mut set = ShardSet::open(&dir).unwrap();
    assert_eq!(
        set.recovered(),
        &[HandoffRecovery::RolledBack {
            source: 7,
            donor: 0
        }]
    );
    assert_eq!(set.version(), 0, "nothing committed");
    assert_eq!(set.assignment()[0], vec![7, 3], "donor still owns 7");
    assert_exactly_once_and_intact(&mut set, n);
    drop(set);
    let set = ShardSet::open(&dir).unwrap();
    assert!(set.recovered().is_empty(), "recovery is not re-run");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn handoff_kill_after_export_reinstalls_from_journal() {
    // the kill window where the source is owned by *nobody* on disk: only
    // the journal payload can resurrect it
    let n = 5;
    let dir = shard_dir("ho_export");
    seeded_set(&dir, n);
    {
        let mut set = ShardSet::open(&dir).unwrap();
        set.handoff_crashing(7, 0, 1, HandoffKill::AfterExport)
            .unwrap();
    }
    let mut set = ShardSet::open(&dir).unwrap();
    assert_eq!(
        set.recovered(),
        &[HandoffRecovery::Reinstalled { source: 7, to: 1 }]
    );
    assert!(set.version() >= 1, "the completed handoff is committed");
    assert!(set.assignment()[1].contains(&7), "recipient owns 7");
    assert_exactly_once_and_intact(&mut set, n);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn handoff_kill_after_import_completes_the_commit() {
    let n = 5;
    let dir = shard_dir("ho_import");
    seeded_set(&dir, n);
    {
        let mut set = ShardSet::open(&dir).unwrap();
        set.handoff_crashing(7, 0, 1, HandoffKill::AfterImport)
            .unwrap();
    }
    let mut set = ShardSet::open(&dir).unwrap();
    assert_eq!(
        set.recovered(),
        &[HandoffRecovery::Completed { source: 7, to: 1 }]
    );
    assert!(set.version() >= 1);
    assert!(set.assignment()[1].contains(&7));
    assert_exactly_once_and_intact(&mut set, n);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn handoff_kill_after_map_commit_retires_the_journal() {
    let n = 5;
    let dir = shard_dir("ho_commit");
    seeded_set(&dir, n);
    {
        let mut set = ShardSet::open(&dir).unwrap();
        set.handoff_crashing(7, 0, 1, HandoffKill::AfterMapCommit)
            .unwrap();
    }
    let mut set = ShardSet::open(&dir).unwrap();
    assert_eq!(
        set.recovered(),
        &[HandoffRecovery::Completed { source: 7, to: 1 }]
    );
    // version is monotonic; recovery may advance it past the manifest's 1
    assert!(set.version() >= 1);
    assert!(set.assignment()[1].contains(&7));
    assert_exactly_once_and_intact(&mut set, n);
    drop(set);
    let set = ShardSet::open(&dir).unwrap();
    assert!(set.recovered().is_empty(), "journal gone after recovery");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn double_kill_export_then_remove_converges() {
    // kill during the handoff's donor removal (not just between protocol
    // steps): the per-shard WAL rolls the removal forward, then the shard
    // layer sees an ownerless source and reinstalls it at the recipient
    let n = 5;
    let dir = shard_dir("ho_double");
    seeded_set(&dir, n);
    {
        let mut set = ShardSet::open(&dir).unwrap();
        // export journal durable...
        set.shard_mut(0)
            .export_source_crashing(7, 1, ExportCrash::AfterJournal)
            .unwrap();
    }
    {
        // ...then the removal itself dies halfway
        let mut st = DiskBdStore::open(dir.join("shard-0.ebc")).unwrap();
        st.remove_source_crashing(7, RemoveCrash::AfterHeader)
            .unwrap();
    }
    let mut set = ShardSet::open(&dir).unwrap();
    assert_eq!(
        set.recovered(),
        &[HandoffRecovery::Reinstalled { source: 7, to: 1 }]
    );
    assert_exactly_once_and_intact(&mut set, n);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unrecoverable_states_still_error() {
    // no intent + header/sidecar disagreement must stay a hard error (it
    // cannot be attributed to a known torn mutation)
    let n = 6;
    let path = tmp("hard_err");
    seeded(&path, n);
    let mut sidecar = path.as_os_str().to_owned();
    sidecar.push(".idx");
    let mut idx = std::fs::read(PathBuf::from(sidecar.clone())).unwrap();
    idx[0] += 1; // count 2 → 3 without any intent
    std::fs::write(PathBuf::from(sidecar), idx).unwrap();
    assert!(matches!(DiskBdStore::open(&path), Err(BdError::Corrupt(_))));
}

// ---- redo log crash cells (DESIGN.md §7, "Redo log") ----

/// One record as bits: `(source, d, σ, δ bits)`.
type RecordBits = (u32, Vec<u32>, Vec<u64>, Vec<u64>);

/// Every record of `st`, bit for bit, in slot order.
fn record_bits(st: &mut DiskBdStore) -> Vec<RecordBits> {
    let mut out = Vec::new();
    for s in st.sources() {
        st.update_with(s, &mut |view| {
            let delta = view.delta.iter().map(|x| x.to_bits()).collect();
            out.push((s, view.d.to_vec(), view.sigma.to_vec(), delta));
            false
        })
        .unwrap();
    }
    out
}

/// A batched update that dirties every source, salted by `round`. Under
/// `sample` the endpoints 0 and 1 never tie, so no source is skipped.
fn touch(st: &mut DiskBdStore, round: u64) {
    let sources = st.sources();
    st.update_batch(&sources, 0, 1, &mut |s, view| {
        let n = view.d.len();
        let i = (s as usize + round as usize) % n;
        view.sigma[i] += round + 1;
        view.delta[(i + 1) % n] = round as f64 * 0.75 + s as f64;
        true
    })
    .unwrap();
}

/// A three-source store whose every write is synced; returns the data
/// file's bytes, i.e. what a power cut is sure to leave.
fn redo_seeded(path: &PathBuf, n: usize) -> Vec<u8> {
    let mut st = DiskBdStore::create(path, n, CodecKind::Wide).unwrap();
    for s in [7u32, 3, 5] {
        let (d, sig, del) = sample(n, s as u64);
        st.add_source(s, d, sig, del).unwrap();
    }
    assert_eq!(
        st.redo_stats().checkpoints,
        3,
        "each add_source synced the data"
    );
    drop(st);
    std::fs::read(path).unwrap()
}

/// The records of a store that ran `rounds` of [`touch`] and never
/// crashed.
fn redo_reference(name: &str, n: usize, rounds: &[u64]) -> Vec<RecordBits> {
    let path = tmp(name);
    redo_seeded(&path, n);
    let mut st = DiskBdStore::open(&path).unwrap();
    for &r in rounds {
        touch(&mut st, r);
    }
    st.flush().unwrap();
    record_bits(&mut st)
}

/// Run rounds 1 and 2, each flushed, and die with both in the live redo
/// log and no data checkpoint since `redo_seeded`.
fn die_with_live_redo(path: &PathBuf) {
    let mut st = DiskBdStore::open(path).unwrap();
    for round in [1, 2] {
        touch(&mut st, round);
        st.flush().unwrap();
    }
    let stats = st.redo_stats();
    assert_eq!(stats.live_frames, 2, "one frame per round");
    assert_eq!(stats.checkpoints, 0, "the data file was never synced");
}

#[test]
fn redo_replays_flushed_writes_the_data_file_lost() {
    let n = 6;
    let path = tmp("redo_live");
    let synced = redo_seeded(&path, n);
    die_with_live_redo(&path);
    // a power cut keeps the synced redo log but not the unsynced pages
    std::fs::write(&path, &synced).unwrap();
    let mut st = DiskBdStore::open(&path).unwrap();
    let stats = st.redo_stats();
    assert_eq!(stats.replayed_frames, 2);
    assert_eq!(
        (stats.live_bytes, stats.checkpoints),
        (0, 1),
        "open ends in a checkpoint"
    );
    assert_eq!(st.last_recovery(), None, "no intent was pending");
    assert_eq!(
        record_bits(&mut st),
        redo_reference("redo_live_ref", n, &[1, 2])
    );
}

#[test]
fn torn_final_redo_frame_is_dropped() {
    let n = 6;
    let path = tmp("redo_torn");
    let synced = redo_seeded(&path, n);
    die_with_live_redo(&path);
    let log = std::fs::read(redo_path(&path)).unwrap();
    std::fs::write(redo_path(&path), &log[..log.len() - 3]).unwrap();
    std::fs::write(&path, &synced).unwrap();
    let mut st = DiskBdStore::open(&path).unwrap();
    assert_eq!(
        st.redo_stats().replayed_frames,
        1,
        "round 2 never became durable"
    );
    assert_eq!(
        record_bits(&mut st),
        redo_reference("redo_torn_ref", n, &[1])
    );
}

#[test]
fn kill_between_data_sync_and_redo_truncation() {
    let n = 6;
    let path = tmp("redo_ckpt_kill");
    redo_seeded(&path, n);
    let generation = {
        let mut st = DiskBdStore::open(&path).unwrap();
        touch(&mut st, 1);
        st.flush().unwrap();
        assert!(st.redo_stats().live_frames > 0);
        st.data_checkpoint_crashing(CheckpointCrash::AfterDataSync)
            .unwrap();
        st.redo_stats().generation
    };
    assert!(std::fs::metadata(redo_path(&path)).unwrap().len() > 0);
    let mut st = DiskBdStore::open(&path).unwrap();
    let stats = st.redo_stats();
    assert_eq!(
        stats.replayed_frames, 0,
        "the frames predate the synced header"
    );
    assert_eq!(
        stats.generation,
        generation + 2,
        "synced bump, then open's own"
    );
    assert_eq!(stats.live_bytes, 0);
    assert_eq!(
        record_bits(&mut st),
        redo_reference("redo_ckpt_ref", n, &[1])
    );
}

/// Append `x` as an LEB128 varint.
fn varint(out: &mut Vec<u8>, mut x: u64) {
    while x >= 0x80 {
        out.push(x as u8 | 0x80);
        x >>= 7;
    }
    out.push(x as u8);
}

/// A redo frame built by hand from the documented layout: one span
/// overwriting the `δ[v]` entry of `slot` with `value`.
fn hand_frame(st: &DiskBdStore, generation: u64, slot: usize, v: usize, value: f64) -> Vec<u8> {
    let cap = st.capacity();
    let stride = CodecKind::Wide.record_size(cap);
    // 40-byte v2 header; a Wide record is [d: cap×4][σ: cap×8][δ: cap×8]
    let offset = 40 + slot * stride + cap * 12 + v * 8;
    let mut payload = generation.to_le_bytes().to_vec();
    varint(&mut payload, offset as u64);
    varint(&mut payload, 8);
    payload.extend_from_slice(&value.to_le_bytes());
    let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
    frame.extend_from_slice(&ebc_store::fnv1a64(&payload).to_le_bytes());
    frame.extend_from_slice(&payload);
    frame
}

#[test]
fn stale_generation_frames_never_roll_a_record_back() {
    let n = 6;
    let path = tmp("redo_stale");
    redo_seeded(&path, n);
    {
        let mut st = DiskBdStore::open(&path).unwrap();
        touch(&mut st, 1);
        st.flush().unwrap();
        st.data_checkpoint().unwrap(); // a non-empty log: the generation moves
    }
    let st = DiskBdStore::open(&path).unwrap();
    let generation = st.redo_stats().generation;
    assert!(generation >= 1);
    let slot = st.sources().iter().position(|&s| s == 3).unwrap();
    // the newest generation first, then a tail a lost truncation left
    let mut log = hand_frame(&st, generation, slot, 2, 42.5);
    log.extend(hand_frame(&st, generation - 1, slot, 2, -1.0));
    log.extend(hand_frame(&st, generation - 1, 0, 4, 9.0));
    drop(st);
    std::fs::write(redo_path(&path), &log).unwrap();
    let mut st = DiskBdStore::open(&path).unwrap();
    assert_eq!(
        st.redo_stats().replayed_frames,
        1,
        "only the newest generation"
    );
    let want = {
        let ref_path = tmp("redo_stale_ref");
        redo_seeded(&ref_path, n);
        let mut r = DiskBdStore::open(&ref_path).unwrap();
        touch(&mut r, 1);
        r.update_with(3, &mut |view| {
            view.delta[2] = 42.5;
            true
        })
        .unwrap();
        record_bits(&mut r)
    };
    assert_eq!(record_bits(&mut st), want);
}

#[test]
fn reopening_a_replayed_store_is_idempotent() {
    let n = 6;
    let path = tmp("redo_twice");
    let synced = redo_seeded(&path, n);
    die_with_live_redo(&path);
    std::fs::write(&path, &synced).unwrap();
    let first = {
        let mut st = DiskBdStore::open(&path).unwrap();
        assert_eq!(st.redo_stats().replayed_frames, 2);
        record_bits(&mut st)
    };
    let mut st = DiskBdStore::open(&path).unwrap();
    assert_eq!(
        st.redo_stats().replayed_frames,
        0,
        "the first open emptied the log"
    );
    assert_eq!(st.redo_stats().checkpoints, 0, "a clean open syncs nothing");
    assert_eq!(record_bits(&mut st), first);
    assert_eq!(first, redo_reference("redo_twice_ref", n, &[1, 2]));
}

/// Round 1, an arrival (`grow_vertex` + `add_source`), then round 2, a
/// second in-headroom growth and round 3. Returns the data file's bytes
/// after the arrival's data checkpoint.
fn arrival_script(st: &mut DiskBdStore, n: usize) -> Vec<u8> {
    touch(st, 1);
    st.flush().unwrap();
    st.grow_vertex().unwrap();
    let (d, sig, del) = sample(n + 1, 9);
    st.add_source(9, d, sig, del).unwrap();
    let synced = std::fs::read(st.path()).unwrap();
    touch(st, 2);
    st.grow_vertex().unwrap();
    touch(st, 3);
    st.flush().unwrap();
    synced
}

#[test]
fn redo_frames_then_an_arrival_recover_bitwise() {
    let n = 6;
    let path = tmp("redo_arrival");
    redo_seeded(&path, n);
    let synced = {
        let mut st = DiskBdStore::open(&path).unwrap();
        let synced = arrival_script(&mut st, n);
        let stats = st.redo_stats();
        assert_eq!(
            stats.checkpoints, 1,
            "only the arrival synced the data file"
        );
        assert!(
            stats.live_frames >= 3,
            "rounds 2 and 3 and the growth are live"
        );
        synced
    };
    std::fs::write(&path, &synced).unwrap();
    let mut st = DiskBdStore::open(&path).unwrap();
    assert_eq!(st.n(), n + 2, "the logged growth was replayed");
    assert_eq!(st.sources(), vec![7, 3, 5, 9]);
    let want = {
        let ref_path = tmp("redo_arrival_ref");
        redo_seeded(&ref_path, n);
        let mut r = DiskBdStore::open(&ref_path).unwrap();
        arrival_script(&mut r, n);
        record_bits(&mut r)
    };
    assert_eq!(record_bits(&mut st), want);
}
