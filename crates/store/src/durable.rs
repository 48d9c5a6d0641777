//! One durability layer: how a file becomes durable.
//!
//! Every durable file in the tree is written through this module, in one
//! of two shapes:
//!
//! * **atomic replace** — the new bytes go to the temp file
//!   `path.with_extension("tmp")`, which is `sync_data`ed, renamed over
//!   `path`, and then the parent directory is fsynced so the rename itself
//!   survives. Readers see the old file or the new one, never a mix. The
//!   primitive is split into a *write tmp* half (`write_tmp`, or
//!   `create_tmp` for streamed rewrites) and a *commit* half (`commit`)
//!   so the store's crash tests can stop between them; [`replace`] runs
//!   both.
//! * **append** — [`crate::OpLog`], the one checksummed record log
//!   (`[len: u32][fnv1a64: u64][bytes]` frames, torn tail truncated on
//!   reopen, prefix compaction through the replace primitive above). The
//!   data file's redo log ([`crate::redo`]) streams the same frames
//!   instead of keeping them resident.
//!
//! The one file written in place is the `BD` data file: its record
//! writes become durable through that redo log, and its unlogged steps
//! through a data checkpoint (`sync_data`) before their intent clears.
//!
//! Small metadata files use the **sealed codec**: [`seal`] frames a
//! payload as `magic ‖ payload ‖ fnv1a64(magic ‖ payload)`, and [`unseal`]
//! checks the magic, the length and the checksum. The session manifest,
//! shard manifest, export journals, intent records, history segments and
//! meta, the genesis snapshot and the coordinator snapshot are all sealed
//! files with different magics.
//!
//! Two files with the same stem share a temp name (`history.wal` and
//! `history.meta` both stage through `history.tmp`). Each directory has
//! one writer, which finishes one replace before starting the next, so
//! the shared name never holds two files' bytes at once; a stale temp file
//! left by a kill is garbage to every owner and is swept or overwritten.

use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// 64-bit FNV-1a, the checksum of every sealed file and record frame (one
/// canonical implementation, shared with the graph snapshot codec).
pub use ebc_graph::snapshot::fnv1a64;

/// Errors from reading durable files.
#[derive(Debug)]
pub enum DurableError {
    /// Underlying filesystem failure.
    Io(io::Error),
    /// The bytes are not a valid durable artifact (wrong magic,
    /// truncation, checksum mismatch, or bad fields).
    Corrupt(String),
}

impl fmt::Display for DurableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DurableError::Io(e) => write!(f, "io error: {e}"),
            DurableError::Corrupt(msg) => write!(f, "corrupt: {msg}"),
        }
    }
}

impl std::error::Error for DurableError {}

impl From<io::Error> for DurableError {
    fn from(e: io::Error) -> Self {
        DurableError::Io(e)
    }
}

impl From<DurableError> for crate::BdError {
    fn from(e: DurableError) -> Self {
        match e {
            DurableError::Io(e) => crate::BdError::Io(e),
            DurableError::Corrupt(msg) => crate::BdError::Corrupt(msg),
        }
    }
}

/// The temp file an atomic replace of `path` stages through.
pub(crate) fn tmp_path(path: &Path) -> PathBuf {
    path.with_extension("tmp")
}

/// Open a fresh (truncated) temp file for a streamed replacement of
/// `path`. The caller writes it, `sync_data`s it, then calls [`commit`].
pub(crate) fn create_tmp(path: &Path) -> io::Result<File> {
    OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .truncate(true)
        .open(tmp_path(path))
}

/// First half of an atomic replace: write `bytes` to the temp file and
/// sync its data. `path` itself is untouched.
pub(crate) fn write_tmp(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut f = create_tmp(path)?;
    f.write_all(bytes)?;
    f.sync_data()
}

/// Second half of an atomic replace: rename the synced temp file over
/// `path` and fsync the parent directory, so the new name is durable too.
pub(crate) fn commit(path: &Path) -> io::Result<()> {
    fs::rename(tmp_path(path), path)?;
    let dir = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    File::open(dir)?.sync_all()
}

/// Atomically and durably replace `path` with `bytes`.
pub fn replace(path: &Path, bytes: &[u8]) -> io::Result<()> {
    write_tmp(path, bytes)?;
    commit(path)
}

/// Frame `payload` as `magic ‖ payload ‖ fnv1a64(magic ‖ payload)`.
pub fn seal(magic: &[u8], payload: &[u8]) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(magic.len() + payload.len() + 8);
    bytes.extend_from_slice(magic);
    bytes.extend_from_slice(payload);
    let ck = fnv1a64(&bytes);
    bytes.extend_from_slice(&ck.to_le_bytes());
    bytes
}

/// Check a [`seal`]ed frame and return its payload.
pub fn unseal<'a>(bytes: &'a [u8], magic: &[u8]) -> Result<&'a [u8], DurableError> {
    if bytes.len() < magic.len() + 8 || &bytes[..magic.len()] != magic {
        return Err(DurableError::Corrupt("bad magic or truncated".into()));
    }
    let (body, ck) = bytes.split_at(bytes.len() - 8);
    if fnv1a64(body) != u64::from_le_bytes(ck.try_into().expect("8 bytes")) {
        return Err(DurableError::Corrupt("checksum mismatch".into()));
    }
    Ok(&body[magic.len()..])
}

/// Atomically replace `path` with `seal(magic, payload)`.
pub fn write_sealed(path: &Path, magic: &[u8], payload: &[u8]) -> io::Result<()> {
    replace(path, &seal(magic, payload))
}

/// Read a file written by [`write_sealed`] and return its payload.
pub fn read_sealed(path: &Path, magic: &[u8]) -> Result<Vec<u8>, DurableError> {
    let bytes = fs::read(path)?;
    match unseal(&bytes, magic) {
        Ok(payload) => Ok(payload.to_vec()),
        Err(DurableError::Corrupt(msg)) => {
            Err(DurableError::Corrupt(format!("{}: {msg}", path.display())))
        }
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("ebc_durable_{name}_{}", std::process::id()));
        fs::remove_dir_all(&d).ok();
        fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn kill_between_halves_keeps_old_bytes_and_only_the_tmp() {
        let d = dir("halves");
        let path = d.join("state.bin");
        replace(&path, b"old bytes").unwrap();
        assert!(!tmp_path(&path).exists(), "a full replace leaves no tmp");
        write_tmp(&path, b"new bytes").unwrap();
        // killed here: the old file is intact and the new bytes sit only
        // in the temp file
        assert_eq!(fs::read(&path).unwrap(), b"old bytes");
        assert_eq!(fs::read(tmp_path(&path)).unwrap(), b"new bytes");
        let mut names: Vec<_> = fs::read_dir(&d)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        assert_eq!(names, ["state.bin", "state.tmp"]);
        commit(&path).unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"new bytes");
        assert!(!tmp_path(&path).exists());
        fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn unseal_rejects_wrong_magic_truncation_and_bit_flips() {
        let sealed = seal(b"EBCTEST\n", b"payload bytes");
        assert_eq!(unseal(&sealed, b"EBCTEST\n").unwrap(), b"payload bytes");
        // any magic length works
        assert_eq!(unseal(&seal(b"M", b""), b"M").unwrap(), b"");
        let corrupt = |bytes: &[u8], magic: &[u8]| {
            matches!(unseal(bytes, magic), Err(DurableError::Corrupt(_)))
        };
        assert!(corrupt(&sealed, b"EBCTEST2"), "wrong magic");
        assert!(corrupt(&sealed, b"EBCTESX\n"), "wrong magic, same length");
        for cut in 1..sealed.len() {
            assert!(
                corrupt(&sealed[..sealed.len() - cut], b"EBCTEST\n"),
                "cut {cut}"
            );
        }
        for i in 0..sealed.len() {
            let mut bad = sealed.clone();
            bad[i] ^= 0x10;
            assert!(corrupt(&bad, b"EBCTEST\n"), "flip at {i}");
        }
    }

    #[test]
    fn sealed_files_round_trip_and_name_the_path_when_corrupt() {
        let d = dir("sealed");
        let path = d.join("thing.meta");
        write_sealed(&path, b"EBCT\n", b"abc").unwrap();
        assert_eq!(read_sealed(&path, b"EBCT\n").unwrap(), b"abc");
        assert_eq!(fs::read(&path).unwrap(), seal(b"EBCT\n", b"abc"));
        let mut bytes = fs::read(&path).unwrap();
        bytes[5] ^= 1;
        fs::write(&path, &bytes).unwrap();
        match read_sealed(&path, b"EBCT\n") {
            Err(DurableError::Corrupt(msg)) => assert!(msg.contains("thing.meta"), "{msg}"),
            other => panic!("expected corrupt, got {other:?}"),
        }
        assert!(matches!(
            read_sealed(&d.join("missing"), b"EBCT\n"),
            Err(DurableError::Io(_))
        ));
        fs::remove_dir_all(&d).ok();
    }
}
