//! Append-only, checksummed operation log — the one record log of the
//! tree (see [`crate::durable`]).
//!
//! Its users: a cluster shard leader appends every state-changing
//! operation (bootstrap, apply, import, export) to its op log *as the
//! serialized wire frame it ships to its follower*, so the log **is** the
//! replication stream: entry `i` on the leader and entry `i` on the
//! follower are byte-identical, a follower's replay is by construction the
//! same op sequence in the same order, and (the kernel being a pure
//! function of `(graph, BD[s], op)`) the promoted follower's state is
//! bitwise equal to the leader's. The coordinator journal (`coord.oplog`)
//! and the session's live history WAL (`history.wal`, see
//! [`crate::history`]) are op logs too.
//!
//! Two backings behind one type: [`OpLog::memory`] for in-process nodes and
//! the fault-injection harness, [`OpLog::open`] for files, which persist
//! each entry as `[len: u32][fnv1a64: u64][bytes]` (little-endian, checksum
//! over the payload) and truncate a torn tail on reopen — a half-written
//! final entry is indistinguishable from "the entry never arrived", which
//! every user tolerates (the coordinator re-sends unacknowledged ops and
//! entries are deduplicated by index; the history WAL is synced before
//! the manifest names its records). A compacted file starts with a 16-byte
//! header (`EBCOPLG2` + base index); [`OpLog::truncate_prefix`] writes it
//! through [`crate::durable`]'s atomic replace.
//!
//! The frame codec itself (`put_frame`, `seal_frame`, `FrameReader`)
//! is shared with the data file's redo log ([`crate::redo`]), which
//! streams frames instead of keeping them resident.

use crate::durable::{self, fnv1a64, DurableError};
use std::fs::{File, OpenOptions};
use std::io::{self, BufReader, Read, Seek, SeekFrom, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

/// Bytes of a frame header: `[len u32][fnv1a64 u64]`.
pub(crate) const FRAME_HEADER: usize = 12;

/// Append one `[len][fnv1a64][payload]` frame to `out`.
pub(crate) fn put_frame(out: &mut Vec<u8>, payload: &[u8]) {
    let start = out.len();
    out.resize(start + FRAME_HEADER, 0);
    out.extend_from_slice(payload);
    seal_frame(&mut out[start..]);
}

/// Fill in the header of a frame built in place: `frame[..12]` becomes
/// the length and checksum of the payload `frame[12..]`.
pub(crate) fn seal_frame(frame: &mut [u8]) {
    let (head, payload) = frame.split_at_mut(FRAME_HEADER);
    head[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    head[4..].copy_from_slice(&fnv1a64(payload).to_le_bytes());
}

/// One step of a [`FrameReader`].
pub(crate) enum Frame<'a> {
    /// A whole frame whose checksum holds.
    Entry(&'a [u8]),
    /// Clean end of the file.
    End,
    /// The final frame is cut short or fails its checksum: a write that
    /// never completed.
    Torn,
    /// A frame fails its checksum with more bytes after it.
    Corrupt,
}

/// Streams the frames of a `len`-byte file one at a time, from a source
/// positioned at byte `pos`, holding only the current payload.
pub(crate) struct FrameReader<R> {
    src: R,
    pos: u64,
    len: u64,
    buf: Vec<u8>,
}

impl<R: Read> FrameReader<R> {
    pub(crate) fn new(src: R, pos: u64, len: u64) -> Self {
        FrameReader {
            src,
            pos,
            len,
            buf: Vec::new(),
        }
    }

    /// Offset just past the last whole frame read.
    pub(crate) fn pos(&self) -> u64 {
        self.pos
    }

    /// Read the next frame. After anything but [`Frame::Entry`] the
    /// reader is spent.
    pub(crate) fn next_frame(&mut self) -> io::Result<Frame<'_>> {
        let rest = self.len - self.pos;
        if rest == 0 {
            return Ok(Frame::End);
        }
        let mut head = [0u8; FRAME_HEADER];
        if rest < FRAME_HEADER as u64 {
            return Ok(Frame::Torn);
        }
        self.src.read_exact(&mut head)?;
        let len = u32::from_le_bytes(head[..4].try_into().expect("4")) as u64;
        let ck = u64::from_le_bytes(head[4..].try_into().expect("8"));
        let whole = FRAME_HEADER as u64 + len;
        if whole > rest {
            return Ok(Frame::Torn); // length header outruns the file
        }
        self.buf.resize(len as usize, 0);
        self.src.read_exact(&mut self.buf)?;
        if fnv1a64(&self.buf) != ck {
            return Ok(if whole == rest {
                Frame::Torn
            } else {
                Frame::Corrupt
            });
        }
        self.pos += whole;
        Ok(Frame::Entry(&self.buf))
    }
}

/// Magic header of a compacted (format v2) op-log file: the 8-byte tag
/// followed by the base index (`u64` LE) of the first retained entry.
/// Headerless files are legacy format v1 with base 0.
const OPLOG_V2_MAGIC: &[u8; 8] = b"EBCOPLG2";

/// Append-only log of opaque entries, optionally file-backed.
///
/// Retained entries are kept resident in both modes (the log doubles as
/// the replication send buffer: a leader re-ships any suffix on demand),
/// so `entry(i)` is always O(1). [`OpLog::truncate_prefix`] discards a
/// durable prefix — e.g. cluster entries already acknowledged by the
/// follower — without renumbering: indices are forever, `len()` keeps
/// counting from 0, and a truncated index simply reads as `None`.
#[derive(Debug)]
pub struct OpLog {
    /// Index of the first retained entry (entries `0..base` were
    /// compacted away).
    base: u64,
    entries: Vec<Vec<u8>>,
    /// Total frame bytes of retained entries (excluding any v2 header).
    byte_len: u64,
    file: Option<File>,
    path: Option<PathBuf>,
}

impl OpLog {
    /// A purely in-memory log.
    pub fn memory() -> Self {
        OpLog {
            base: 0,
            entries: Vec::new(),
            byte_len: 0,
            file: None,
            path: None,
        }
    }

    /// Open (or create) a file-backed log at `path`, recovering every
    /// complete entry and truncating a torn tail. A checksum mismatch
    /// anywhere before the tail is corruption, not a crash artifact, and
    /// is reported as an error. Both legacy headerless files and
    /// compacted files (v2 header carrying the base index) are readable.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<Self, DurableError> {
        // A leftover `.tmp` is a compaction that died pre-rename; the
        // real file is intact, so the tmp is garbage.
        std::fs::remove_file(durable::tmp_path(path.as_ref())).ok();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path.as_ref())?;
        let len = file.metadata()?.len();
        let mut head = [0u8; 16];
        let mut base = 0u64;
        let mut start = 0u64;
        if len >= 16 {
            file.read_exact_at(&mut head, 0)?;
            if &head[..8] == OPLOG_V2_MAGIC {
                base = u64::from_le_bytes(head[8..16].try_into().expect("8"));
                start = 16;
            }
        }
        file.seek(SeekFrom::Start(start))?;
        let mut frames = FrameReader::new(BufReader::new(&file), start, len);
        let mut entries = Vec::new();
        loop {
            match frames.next_frame()? {
                Frame::Entry(entry) => entries.push(entry.to_vec()),
                Frame::End | Frame::Torn => break,
                Frame::Corrupt => {
                    return Err(DurableError::Corrupt(format!(
                        "{}: entry {} fails its checksum mid-file",
                        path.as_ref().display(),
                        entries.len()
                    )))
                }
            }
        }
        let durable = frames.pos();
        if durable < len {
            file.set_len(durable)?;
        }
        file.seek(SeekFrom::Start(durable))?;
        Ok(OpLog {
            base,
            byte_len: entries.iter().map(|e| 12 + e.len() as u64).sum(),
            entries,
            file: Some(file),
            path: Some(path.as_ref().to_path_buf()),
        })
    }

    /// Append one entry, returning its index. File-backed logs write
    /// through immediately (an entry is either fully framed or torn, never
    /// silently reordered).
    pub fn append(&mut self, entry: &[u8]) -> Result<u64, DurableError> {
        if let Some(file) = &mut self.file {
            let mut frame = Vec::with_capacity(FRAME_HEADER + entry.len());
            put_frame(&mut frame, entry);
            file.write_all(&frame)?;
        }
        self.byte_len += 12 + entry.len() as u64;
        self.entries.push(entry.to_vec());
        Ok(self.base + self.entries.len() as u64 - 1)
    }

    /// Number of entries ever appended (compacted entries still count:
    /// indices are never renumbered).
    pub fn len(&self) -> u64 {
        self.base + self.entries.len() as u64
    }

    /// True when no entry has ever been appended.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Index of the first retained entry; entries below it were
    /// compacted away and read as `None`.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Total frame bytes of retained entries — the live on-disk weight a
    /// `stats` surface reports.
    pub fn byte_len(&self) -> u64 {
        self.byte_len
    }

    /// Entry `index`, if present and not compacted away.
    pub fn entry(&self, index: u64) -> Option<&[u8]> {
        index
            .checked_sub(self.base)
            .and_then(|i| self.entries.get(i as usize))
            .map(Vec::as_slice)
    }

    /// All retained entries in append order.
    pub fn entries(&self) -> impl Iterator<Item = &[u8]> {
        self.entries.iter().map(Vec::as_slice)
    }

    /// Discard every entry with index `< upto` (keeping indices stable).
    /// File-backed logs rewrite themselves as a compacted v2 file through
    /// the atomic replace of [`crate::durable`]: a crash mid-compaction
    /// leaves the original intact (the stale tmp is swept on the next
    /// open). Returns the number of entries discarded.
    pub fn truncate_prefix(&mut self, upto: u64) -> Result<u64, DurableError> {
        let dropped = self.stage_truncate(upto)?;
        if let (Some(path), true) = (&self.path, dropped > 0) {
            durable::commit(path)?;
            self.file = Some(OpenOptions::new().append(true).open(path)?);
        }
        Ok(dropped)
    }

    /// The first half of [`OpLog::truncate_prefix`]: drop the prefix in
    /// memory and write the compacted file to its temp name, without the
    /// commit. Only a crash test stops here; the log must then be dropped.
    pub(crate) fn stage_truncate(&mut self, upto: u64) -> Result<u64, DurableError> {
        let upto = upto.min(self.len());
        if upto <= self.base {
            return Ok(0);
        }
        let drop = (upto - self.base) as usize;
        self.entries.drain(..drop);
        self.base = upto;
        self.byte_len = self.entries.iter().map(|e| 12 + e.len() as u64).sum();
        if let Some(path) = &self.path {
            let mut bytes = Vec::with_capacity(16 + self.byte_len as usize);
            bytes.extend_from_slice(OPLOG_V2_MAGIC);
            bytes.extend_from_slice(&self.base.to_le_bytes());
            for entry in &self.entries {
                put_frame(&mut bytes, entry);
            }
            durable::write_tmp(path, &bytes)?;
        }
        Ok(drop as u64)
    }

    /// Sync the file backing (no-op in memory mode).
    pub fn sync(&mut self) -> Result<(), DurableError> {
        if let Some(file) = &mut self.file {
            file.sync_data()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("ebc_oplog_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}_{}.wal", std::process::id()))
    }

    #[test]
    fn memory_log_appends_and_reads() {
        let mut log = OpLog::memory();
        assert!(log.is_empty());
        assert_eq!(log.append(b"alpha").unwrap(), 0);
        assert_eq!(log.append(b"beta").unwrap(), 1);
        assert_eq!(log.len(), 2);
        assert_eq!(log.entry(1), Some(&b"beta"[..]));
        assert_eq!(log.entry(2), None);
        let all: Vec<_> = log.entries().collect();
        assert_eq!(all, vec![&b"alpha"[..], &b"beta"[..]]);
    }

    #[test]
    fn file_log_round_trips_across_reopen() {
        let path = tmp("roundtrip");
        std::fs::remove_file(&path).ok();
        {
            let mut log = OpLog::open(&path).unwrap();
            log.append(b"one").unwrap();
            log.append(b"two words").unwrap();
            log.append(b"").unwrap(); // empty entries are legal
            log.sync().unwrap();
        }
        let mut log = OpLog::open(&path).unwrap();
        assert_eq!(log.len(), 3);
        assert_eq!(log.entry(0), Some(&b"one"[..]));
        assert_eq!(log.entry(2), Some(&b""[..]));
        // appending after reopen continues the sequence
        assert_eq!(log.append(b"four").unwrap(), 3);
        drop(log);
        let log = OpLog::open(&path).unwrap();
        assert_eq!(log.len(), 4);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_truncated_not_fatal() {
        let path = tmp("torn");
        std::fs::remove_file(&path).ok();
        {
            let mut log = OpLog::open(&path).unwrap();
            log.append(b"keep me").unwrap();
            log.append(b"doomed").unwrap();
        }
        // chop the final entry mid-payload
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        let mut log = OpLog::open(&path).unwrap();
        assert_eq!(log.len(), 1);
        assert_eq!(log.entry(0), Some(&b"keep me"[..]));
        // the truncated file accepts appends at the recovered position
        log.append(b"replacement").unwrap();
        drop(log);
        let log = OpLog::open(&path).unwrap();
        assert_eq!(log.len(), 2);
        assert_eq!(log.entry(1), Some(&b"replacement"[..]));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncate_prefix_keeps_indices_stable_across_reopen() {
        let path = tmp("compact");
        std::fs::remove_file(&path).ok();
        {
            let mut log = OpLog::open(&path).unwrap();
            for i in 0..6u64 {
                log.append(format!("op{i}").as_bytes()).unwrap();
            }
            assert_eq!(log.truncate_prefix(4).unwrap(), 4);
            assert_eq!(log.len(), 6);
            assert_eq!(log.base(), 4);
            assert_eq!(log.entry(3), None);
            assert_eq!(log.entry(4), Some(&b"op4"[..]));
            // appends continue the global numbering
            assert_eq!(log.append(b"op6").unwrap(), 6);
            // truncating below the base is a no-op
            assert_eq!(log.truncate_prefix(2).unwrap(), 0);
        }
        let mut log = OpLog::open(&path).unwrap();
        assert_eq!(log.len(), 7);
        assert_eq!(log.base(), 4);
        assert_eq!(log.entry(5), Some(&b"op5"[..]));
        assert_eq!(log.entry(0), None);
        assert!(log.byte_len() > 0);
        // a second compaction over a compacted file
        log.truncate_prefix(7).unwrap();
        assert!(log.entries().next().is_none());
        assert_eq!(log.append(b"op7").unwrap(), 7);
        drop(log);
        let log = OpLog::open(&path).unwrap();
        assert_eq!(log.len(), 8);
        assert_eq!(log.entry(7), Some(&b"op7"[..]));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn memory_log_truncates_prefix_too() {
        let mut log = OpLog::memory();
        log.append(b"a").unwrap();
        log.append(b"b").unwrap();
        log.truncate_prefix(1).unwrap();
        assert_eq!(log.len(), 2);
        assert_eq!(log.entry(0), None);
        assert_eq!(log.entry(1), Some(&b"b"[..]));
        assert!(!log.is_empty());
    }

    #[test]
    fn stale_compaction_tmp_is_swept_on_open() {
        let path = tmp("stale_tmp");
        std::fs::remove_file(&path).ok();
        {
            let mut log = OpLog::open(&path).unwrap();
            log.append(b"survivor").unwrap();
        }
        // a compaction that died pre-rename leaves a tmp next door
        std::fs::write(durable::tmp_path(&path), b"half written").unwrap();
        let log = OpLog::open(&path).unwrap();
        assert_eq!(log.len(), 1);
        assert_eq!(log.entry(0), Some(&b"survivor"[..]));
        assert!(!durable::tmp_path(&path).exists());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mid_file_corruption_is_an_error() {
        let path = tmp("corrupt");
        std::fs::remove_file(&path).ok();
        {
            let mut log = OpLog::open(&path).unwrap();
            log.append(b"first entry").unwrap();
            log.append(b"second entry").unwrap();
        }
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[14] ^= 0x20; // flip a payload byte of entry 0
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(OpLog::open(&path), Err(DurableError::Corrupt(_))));
        std::fs::remove_file(&path).ok();
    }
}
