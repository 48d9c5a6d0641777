//! The data file's physical redo log, `<path>.redo` (DESIGN.md §7, "Redo
//! log").
//!
//! A dirty record usually changes a few hundred bytes of a multi-kilobyte
//! slab, so [`crate::DiskBdStore`] makes its in-place record writes
//! durable by logging only the changed bytes: each write is diffed against
//! the record's pre-image, and the differing byte ranges are kept as
//! `(file offset, after-image)` *spans*. [`crate::DiskBdStore::flush`]
//! then `fdatasync`s this small log instead of the data file.
//!
//! The log is a sequence of [`crate::OpLog`]-codec frames
//! (`[len u32][fnv1a64 u64][payload]`), streamed, never held resident.
//! A frame's payload is
//!
//! ```text
//! [generation u64 LE] then spans: [gap varint][len varint][len bytes]
//! ```
//!
//! Spans ascend within a frame: a span starts `gap` bytes past the end of
//! the previous one (past offset 0 for the first), and both numbers are
//! LEB128 varints, so a span header usually costs 2–3 bytes.
//!
//! **Log ahead.** A frame is written (unsynced) before the in-place writes
//! it covers, so under a process kill the log is never behind the data
//! file and replaying it cannot roll a byte back.
//!
//! **Generations.** The data header's word at offset 32 holds the store's
//! data-checkpoint generation `G`. A *data checkpoint* `sync_data`s the
//! data file, then (when the log holds frames) writes and syncs `G + 1`,
//! then truncates the log; new frames carry the new `G`. Replay applies
//! only frames of the header's `G` — the newest generation there can be —
//! so frames of a truncation that never reached the disk are stale by
//! construction and never roll a record back.
//!
//! **Replay** (run by `DiskBdStore::open` after intent recovery) reads
//! one frame at a time; since its spans ascend, it costs one read and one
//! write per record the frame touches. Replay stops at the first torn or
//! unreadable frame: every frame after it is unsynced or stale.

use crate::disk::{Header, MAX_RUN_BYTES};
use crate::oplog::{seal_frame, Frame, FrameReader, FRAME_HEADER};
use ebc_core::bd::{BdError, BdResult};
use std::fs::{File, OpenOptions};
use std::io::{self, BufReader, Seek, SeekFrom};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

/// Largest span header inside a frame: two LEB128 `u64` varints.
const MAX_SPAN_HEADER: usize = 20;
/// Equal bytes between two changed ranges up to which they are logged as
/// one span: splitting costs a span header, usually 2–3 bytes.
const FOLD_GAP: usize = 3;
/// Bytes of the generation that starts every frame payload.
const GEN_LEN: usize = 8;
/// Offset and width of the header's live-vertex-count field, the one
/// header field a span may carry (`grow_vertex` inside the headroom).
const N_FIELD: (u64, usize) = (8, 8);
/// Diff granularity: equal blocks are skipped with one comparison.
const DIFF_BLOCK: usize = 256;

/// Append `x` as an LEB128 varint.
fn put_varint(out: &mut Vec<u8>, mut x: u64) {
    while x >= 0x80 {
        out.push(x as u8 | 0x80);
        x >>= 7;
    }
    out.push(x as u8);
}

/// Read an LEB128 varint at `*at`, advancing it; `None` if truncated.
fn get_varint(bytes: &[u8], at: &mut usize) -> Option<u64> {
    let mut x = 0u64;
    for shift in (0..64).step_by(7) {
        let b = *bytes.get(*at)?;
        *at += 1;
        x |= u64::from(b & 0x7f) << shift;
        if b < 0x80 {
            return Some(x);
        }
    }
    None
}

/// Path of the redo log of the data file at `path` (`<path>.redo`).
pub fn redo_path(path: &Path) -> PathBuf {
    let mut p = path.as_os_str().to_owned();
    p.push(".redo");
    PathBuf::from(p)
}

/// What a store's redo log holds and has done, for observability.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RedoStats {
    /// Bytes of frames in the live log (appended since the last data
    /// checkpoint).
    pub live_bytes: u64,
    /// Frames in the live log.
    pub live_frames: u64,
    /// Frames the `open` that produced this store replayed.
    pub replayed_frames: u64,
    /// Frame bytes the `open` that produced this store replayed.
    pub replayed_bytes: u64,
    /// Data checkpoints (`sync_data` of the data file) taken since this
    /// store was created or opened.
    pub checkpoints: u64,
    /// The current data-checkpoint generation.
    pub generation: u64,
}

/// Collect into `out` the ranges `[start, end)` where `new` differs
/// from `old` (equal lengths), in ascending order. Runs of at most
/// [`FOLD_GAP`] equal bytes between two ranges are folded into one, since
/// a span header would cost more. Equal blocks cost one comparison,
/// differing ones are scanned a word at a time.
fn changed_ranges(old: &[u8], new: &[u8], out: &mut Vec<(usize, usize)>) {
    debug_assert_eq!(old.len(), new.len());
    out.clear();
    let mut mark = |a: usize, b: usize| match out.last_mut() {
        Some(last) if a <= last.1 + FOLD_GAP => last.1 = b,
        _ => out.push((a, b)),
    };
    let word = |bytes: &[u8], at: usize| {
        u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"))
    };
    let mut i = 0;
    while i < old.len() {
        let end = (i + DIFF_BLOCK).min(old.len());
        if old[i..end] != new[i..end] {
            let mut j = i;
            while j + 8 <= end {
                let x = word(old, j) ^ word(new, j);
                if x != 0 {
                    let first = (x.trailing_zeros() / 8) as usize;
                    let last = 7 - (x.leading_zeros() / 8) as usize;
                    mark(j + first, j + last + 1);
                }
                j += 8;
            }
            for k in j..end {
                if old[k] != new[k] {
                    mark(k, k + 1);
                }
            }
        }
        i = end;
    }
}

/// The redo log of one data file: an append cursor, the frame being
/// built, and the current generation.
pub(crate) struct RedoLog {
    file: File,
    /// Bytes in the file: frames appended since the last truncation.
    len: u64,
    frames: u64,
    /// The frame under construction: reserved header, generation, spans.
    pending: Vec<u8>,
    generation: u64,
    unsynced: bool,
    /// File offset where the pending frame's last span ends.
    span_end: u64,
    /// Scratch for [`RedoLog::log_diff`].
    ranges: Vec<(usize, usize)>,
}

impl RedoLog {
    /// Open (or create) the log of the data file at `path`, keeping its
    /// frames for [`RedoLog::replay`]; new frames carry `generation`.
    pub(crate) fn open(path: &Path, generation: u64) -> io::Result<Self> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(redo_path(path))?;
        let len = file.metadata()?.len();
        let mut log = RedoLog {
            file,
            len,
            frames: 0,
            pending: Vec::new(),
            generation,
            unsynced: false,
            span_end: 0,
            ranges: Vec::new(),
        };
        log.reset_pending();
        Ok(log)
    }

    fn reset_pending(&mut self) {
        self.span_end = 0;
        self.pending.clear();
        self.pending.resize(FRAME_HEADER, 0);
        self.pending
            .extend_from_slice(&self.generation.to_le_bytes());
    }

    /// Bytes of frames in the file.
    pub(crate) fn len(&self) -> u64 {
        self.len
    }

    /// Frames appended since the last truncation.
    pub(crate) fn frames(&self) -> u64 {
        self.frames
    }

    /// The generation new frames carry.
    pub(crate) fn generation(&self) -> u64 {
        self.generation
    }

    /// Queue the after-image `bytes` of file offset `off`. Spans are
    /// split so no frame outgrows [`MAX_RUN_BYTES`]; a full frame, or one
    /// the next span would not ascend in, is appended at once.
    pub(crate) fn log(&mut self, mut off: u64, mut bytes: &[u8]) -> io::Result<()> {
        if off < self.span_end {
            self.emit()?;
        }
        while !bytes.is_empty() {
            let room = MAX_RUN_BYTES.saturating_sub(self.pending.len() + MAX_SPAN_HEADER);
            if room == 0 {
                self.emit()?;
                continue;
            }
            let take = room.min(bytes.len());
            put_varint(&mut self.pending, off - self.span_end);
            put_varint(&mut self.pending, take as u64);
            self.pending.extend_from_slice(&bytes[..take]);
            off += take as u64;
            self.span_end = off;
            bytes = &bytes[take..];
        }
        Ok(())
    }

    /// Queue the bytes where `new` differs from `old`, the record at
    /// offset `off`, and patch them into `old`: afterwards `old == new`.
    pub(crate) fn log_diff(&mut self, off: u64, old: &mut [u8], new: &[u8]) -> io::Result<()> {
        let mut ranges = std::mem::take(&mut self.ranges);
        changed_ranges(old, new, &mut ranges);
        for &(a, b) in &ranges {
            self.log(off + a as u64, &new[a..b])?;
            old[a..b].copy_from_slice(&new[a..b]);
        }
        self.ranges = ranges;
        Ok(())
    }

    /// Append the frame under construction, unsynced (no-op when it
    /// holds no span). Called before the in-place writes it covers.
    pub(crate) fn emit(&mut self) -> io::Result<()> {
        if self.pending.len() == FRAME_HEADER + GEN_LEN {
            return Ok(());
        }
        seal_frame(&mut self.pending);
        self.file.write_all_at(&self.pending, self.len)?;
        self.len += self.pending.len() as u64;
        self.frames += 1;
        self.unsynced = true;
        self.reset_pending();
        Ok(())
    }

    /// `fdatasync` the frames appended since the last sync.
    pub(crate) fn sync(&mut self) -> io::Result<()> {
        if self.unsynced {
            self.file.sync_data()?;
            self.unsynced = false;
        }
        Ok(())
    }

    /// Empty the log after a data checkpoint; new frames carry
    /// `generation`. The truncation itself need not be synced: frames it
    /// fails to drop are of an older generation.
    pub(crate) fn truncate(&mut self, generation: u64) -> io::Result<()> {
        self.file.set_len(0)?;
        self.len = 0;
        self.frames = 0;
        self.unsynced = false;
        self.generation = generation;
        self.reset_pending();
        Ok(())
    }

    /// Apply the frames of `header.generation` to `data`, in order, one
    /// frame at a time. A frame's spans ascend, so each touched record is
    /// read once, patched, and written once. Returns `(frames, bytes)`
    /// replayed.
    pub(crate) fn replay(&mut self, data: &File, header: &Header) -> BdResult<(u64, u64)> {
        let corrupt = |what: &str| BdError::Corrupt(format!("redo log: {what}"));
        let stride = header.stride() as u64;
        let (records, end) = (header.len(), header.expected_len());
        (&self.file).seek(SeekFrom::Start(0))?;
        let mut frames = FrameReader::new(BufReader::new(&self.file), 0, self.len);
        let mut rec = vec![0u8; stride as usize];
        let (mut count, mut bytes) = (0u64, 0u64);
        // a torn or unreadable frame ends the log: what follows is
        // unsynced or stale
        while let Frame::Entry(payload) = frames.next_frame()? {
            if payload.len() < GEN_LEN {
                return Err(corrupt("frame without a generation"));
            }
            let generation = u64::from_le_bytes(payload[..GEN_LEN].try_into().expect("8"));
            if generation != header.generation {
                continue; // stale: its writes reached the data file at a checkpoint
            }
            // the record slot whose bytes `rec` holds, patched so far
            let mut open: Option<u64> = None;
            let (mut at, mut span_end) = (GEN_LEN, 0u64);
            while at < payload.len() {
                let (Some(gap), Some(len)) =
                    (get_varint(payload, &mut at), get_varint(payload, &mut at))
                else {
                    return Err(corrupt("truncated span header"));
                };
                let (Some(off), Some(span)) = (
                    span_end.checked_add(gap),
                    usize::try_from(len)
                        .ok()
                        .and_then(|len| payload.get(at..at.checked_add(len)?)),
                ) else {
                    return Err(corrupt("span outruns its frame"));
                };
                at += span.len();
                span_end = off + len;
                if (off, span.len()) == N_FIELD {
                    data.write_all_at(span, off)?;
                    continue;
                }
                if off < records || off >= end || len > end - off {
                    return Err(corrupt("span outside the records"));
                }
                let (slot, within) = ((off - records) / stride, (off - records) % stride);
                if within + len > stride {
                    return Err(corrupt("span crosses a record boundary"));
                }
                if open != Some(slot) {
                    if let Some(prev) = open {
                        data.write_all_at(&rec, records + prev * stride)?;
                    }
                    data.read_exact_at(&mut rec, records + slot * stride)?;
                    open = Some(slot);
                }
                rec[within as usize..][..span.len()].copy_from_slice(span);
            }
            if let Some(prev) = open {
                data.write_all_at(&rec, records + prev * stride)?;
            }
            count += 1;
            bytes += (FRAME_HEADER + payload.len()) as u64;
        }
        Ok((count, bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn changes(old: &[u8], new: &[u8]) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        changed_ranges(old, new, &mut out);
        out
    }

    #[test]
    fn diff_finds_and_folds_changed_ranges() {
        let old = vec![0u8; 1003]; // not a whole number of words
        let mut new = old.clone();
        assert!(changes(&old, &new).is_empty());
        new[3] = 1;
        new[5] = 1; // one equal byte between: folded
        new[10] = 1; // four equal bytes after the last change: its own range
        new[300] = 1; // another block
        new[1002] = 1; // the byte tail past the last whole word
        assert_eq!(
            changes(&old, &new),
            vec![(3, 6), (10, 11), (300, 301), (1002, 1003)]
        );
        new[7] = 1; // one equal byte to (3, 6), two to 10: one range
        assert_eq!(changes(&old, &new)[0], (3, 11));
        // a range that straddles a block boundary stays one range
        let mut new = old.clone();
        new[DIFF_BLOCK - 1] = 7;
        new[DIFF_BLOCK] = 7;
        assert_eq!(changes(&old, &new), vec![(DIFF_BLOCK - 1, DIFF_BLOCK + 1)]);
    }

    #[test]
    fn log_diff_patches_the_pre_image() {
        let dir = std::env::temp_dir()
            .join("ebc_store_tests")
            .join("redo_unit");
        std::fs::create_dir_all(&dir).unwrap();
        let mut log = RedoLog::open(&dir.join("bd.dat"), 0).unwrap();
        log.truncate(0).unwrap();
        let mut old = vec![5u8; 600];
        let mut new = old.clone();
        new[10..20].fill(9);
        new[590] = 1;
        log.log_diff(1000, &mut old, &new).unwrap();
        assert_eq!(old, new);
        // two spans behind a generation: gap 1010 and 570 (two varint
        // bytes each), lengths 10 and 1 (one byte each)
        let frame = FRAME_HEADER + GEN_LEN + (2 + 1 + 10) + (2 + 1 + 1);
        assert_eq!(log.pending.len(), frame);
        log.emit().unwrap();
        assert_eq!((log.frames(), log.len()), (1, frame as u64));
        log.emit().unwrap(); // nothing pending: no empty frame
        assert_eq!(log.frames(), 1);
    }

    #[test]
    fn oversized_spans_split_across_bounded_frames() {
        let dir = std::env::temp_dir()
            .join("ebc_store_tests")
            .join("redo_split");
        std::fs::create_dir_all(&dir).unwrap();
        let mut log = RedoLog::open(&dir.join("bd.dat"), 0).unwrap();
        log.truncate(0).unwrap();
        let big = vec![3u8; 2 * MAX_RUN_BYTES + 5];
        log.log(40, &big).unwrap();
        log.emit().unwrap();
        assert_eq!(log.frames(), 3);
        let per_frame = FRAME_HEADER + GEN_LEN + MAX_SPAN_HEADER;
        assert!(log.len() <= (big.len() + 3 * per_frame) as u64);
        assert!(log.len() <= 3 * MAX_RUN_BYTES as u64);
    }
}
