//! Snapshot files on disk: crash-safe writes and warm-start scanning.
//!
//! The byte format itself lives in [`xseed_core::persist`]; this module
//! owns the filesystem discipline around it:
//!
//! * [`write_snapshot_file`] — durable, crash-safe persistence: the bytes
//!   go to a `.tmp` sibling first, are fsynced, and only then atomically
//!   renamed over the destination, so a crash at any point leaves either
//!   the old snapshot or the new one — never a torn file;
//! * [`warm_start`] — boot-time recovery: scan a directory of `*.xsnap`
//!   files, register every snapshot that decodes, and **quarantine**
//!   (rename to `<file>.corrupt`, log, count) every one that doesn't.
//!   Graceful degradation by construction: a corrupt snapshot can cost at
//!   most itself, never the boot;
//! * `ensure_regular_file` — the check every file read (path `LOAD`,
//!   `LOAD … file:`, warm start) makes before it opens anything.

use crate::catalog::Catalog;
use std::fs;
use std::io;
use std::path::Path;

/// File extension of snapshot files the warm start scans.
pub const SNAPSHOT_EXTENSION: &str = "xsnap";

/// Writes `bytes` to `path` crash-safely: parent directories are created,
/// the data lands in a `.tmp` sibling, is fsynced, and is then atomically
/// renamed into place (with a best-effort fsync of the parent directory,
/// so the rename itself is durable on filesystems that need it).
pub fn write_snapshot_file(path: &Path, bytes: &[u8]) -> io::Result<()> {
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        fs::create_dir_all(parent)?;
    }
    let mut tmp = path.as_os_str().to_os_string();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    {
        let mut file = fs::File::create(&tmp)?;
        io::Write::write_all(&mut file, bytes)?;
        file.sync_all()?;
    }
    if let Err(e) = fs::rename(&tmp, path) {
        let _ = fs::remove_file(&tmp);
        return Err(e);
    }
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        // Persist the rename in the directory itself; failure here (e.g.
        // a filesystem that refuses directory fsync) does not undo the
        // successful write.
        if let Ok(dir) = fs::File::open(parent) {
            let _ = dir.sync_all();
        }
    }
    Ok(())
}

/// Refuses anything at `path` but a regular file (symlinks followed),
/// before anything opens it: reading a device such as `/dev/zero` never
/// ends, opening a FIFO blocks until a writer appears, and either would
/// hold the caller (the daemon's event loop) indefinitely.
pub(crate) fn ensure_regular_file(path: &Path) -> io::Result<()> {
    if fs::metadata(path)?.is_file() {
        Ok(())
    } else {
        Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "not a regular file",
        ))
    }
}

/// What a [`warm_start`] scan found.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WarmStart {
    /// Names (file stems) registered from snapshots that decoded.
    pub loaded: Vec<String>,
    /// File names renamed to `.corrupt` because they failed to decode.
    pub quarantined: Vec<String>,
}

/// Scans `dir` for `*.xsnap` files (creating the directory if missing) and
/// registers each one in `catalog` under its file stem. Files that fail to
/// read or decode are renamed to `<file>.corrupt` — out of the scan
/// pattern, preserved for inspection — logged to stderr, and counted;
/// they never abort the scan. Files are visited in name order, so the
/// surviving catalog is deterministic.
pub fn warm_start(catalog: &Catalog, dir: &Path) -> io::Result<WarmStart> {
    fs::create_dir_all(dir)?;
    let mut paths: Vec<std::path::PathBuf> = fs::read_dir(dir)?
        .filter_map(|entry| entry.ok())
        .map(|entry| entry.path())
        .filter(|path| {
            path.extension()
                .is_some_and(|ext| ext == SNAPSHOT_EXTENSION)
        })
        .collect();
    paths.sort();
    let mut result = WarmStart::default();
    for path in paths {
        let Some(name) = path.file_stem().and_then(|s| s.to_str()).map(String::from) else {
            continue;
        };
        match catalog.load_snapshot(&name, &path, None) {
            Ok(_) => result.loaded.push(name),
            Err(e) => {
                let file_name = path
                    .file_name()
                    .map(|f| f.to_string_lossy().into_owned())
                    .unwrap_or_else(|| path.display().to_string());
                let mut corrupt = path.as_os_str().to_os_string();
                corrupt.push(".corrupt");
                match fs::rename(&path, &corrupt) {
                    Ok(()) => eprintln!(
                        "xseed-serve: quarantined snapshot {file_name}: {e} \
                         (renamed to {file_name}.corrupt)"
                    ),
                    Err(rename_err) => eprintln!(
                        "xseed-serve: quarantined snapshot {file_name}: {e} \
                         (rename failed: {rename_err})"
                    ),
                }
                result.quarantined.push(file_name);
            }
        }
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use xseed_core::{XseedConfig, XseedSynopsis};

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("xseed-persist-unit-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample_catalog_with(name: &str) -> Arc<Catalog> {
        let catalog = Arc::new(Catalog::new());
        let doc = xmlkit::samples::figure2_document();
        catalog.insert(name, XseedSynopsis::build(&doc, XseedConfig::default()));
        catalog
    }

    #[test]
    fn write_is_atomic_and_leaves_no_tmp() {
        let dir = temp_dir("write");
        let path = dir.join("nested/snap.xsnap");
        write_snapshot_file(&path, b"payload").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"payload");
        assert!(!path.with_extension("xsnap.tmp").exists());
        write_snapshot_file(&path, b"replaced").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"replaced");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn warm_start_loads_healthy_and_quarantines_corrupt() {
        let dir = temp_dir("warm");
        let source = sample_catalog_with("fig2");
        source
            .save_snapshot("fig2", &dir.join("fig2.xsnap"))
            .unwrap();
        fs::write(dir.join("bogus.xsnap"), b"XSEEDSNP not really").unwrap();
        fs::write(dir.join("ignored.txt"), b"not a snapshot").unwrap();

        let catalog = Catalog::new();
        let result = warm_start(&catalog, &dir).unwrap();
        assert_eq!(result.loaded, vec!["fig2".to_string()]);
        assert_eq!(result.quarantined, vec!["bogus.xsnap".to_string()]);
        assert!(catalog.snapshot("fig2").is_some());
        assert!(!dir.join("bogus.xsnap").exists());
        assert!(dir.join("bogus.xsnap.corrupt").exists());
        // A second scan sees only the healthy file: quarantine renamed the
        // corrupt one out of the pattern.
        let again = warm_start(&Catalog::new(), &dir).unwrap();
        assert_eq!(again.quarantined, Vec::<String>::new());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn warm_start_creates_missing_directory() {
        let dir = temp_dir("fresh");
        let catalog = Catalog::new();
        let result = warm_start(&catalog, &dir).unwrap();
        assert_eq!(result, WarmStart::default());
        assert!(dir.is_dir());
        let _ = fs::remove_dir_all(&dir);
    }
}
