//! Durable-write audit: every atomic replace, sealed file and record log
//! goes through `ebc_store::durable` (DESIGN.md §7), so no other non-test
//! source may rename files into place or write them whole.
//!
//! Scans `src/` and `crates/*/src` (the bench crate excepted: its
//! binaries write result files, not durable state), each file up to its
//! first `#[cfg(test)]`, skipping comment lines. The only allowed site
//! outside the durable module is the user-requested edge-list export.

use std::path::{Path, PathBuf};

const FORBIDDEN: [&str; 3] = ["fs::rename", "fs::write", "File::create"];
const DURABLE_MODULE: &str = "crates/store/src/durable.rs";
const ALLOWED: [&str; 1] = ["crates/graph/src/io.rs"];

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.unwrap().path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn durable_writes_go_through_the_durable_module() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    rust_files(&root.join("src"), &mut files);
    for krate in std::fs::read_dir(root.join("crates")).unwrap() {
        let krate = krate.unwrap().path();
        if krate.file_name().is_some_and(|n| n != "bench") {
            rust_files(&krate.join("src"), &mut files);
        }
    }
    assert!(
        files.iter().any(|f| f.ends_with(DURABLE_MODULE)),
        "the scan must reach the durable module"
    );
    let mut offenders = Vec::new();
    for file in &files {
        let rel = file
            .strip_prefix(root)
            .unwrap()
            .to_string_lossy()
            .replace('\\', "/");
        if rel == DURABLE_MODULE || ALLOWED.contains(&rel.as_str()) {
            continue;
        }
        let text = std::fs::read_to_string(file).unwrap();
        for (i, line) in text.lines().enumerate() {
            if line.trim_start().starts_with("#[cfg(test)]") {
                break;
            }
            if line.trim_start().starts_with("//") {
                continue;
            }
            if let Some(word) = FORBIDDEN.iter().find(|w| line.contains(*w)) {
                offenders.push(format!("{rel}:{}: {word}: {}", i + 1, line.trim()));
            }
        }
    }
    assert!(
        offenders.is_empty(),
        "write durable files through ebc_store::durable (replace, write_sealed, \
         OpLog) instead of:\n{}",
        offenders.join("\n")
    );
}
