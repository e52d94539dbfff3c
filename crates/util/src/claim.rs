//! Filesystem claims: the coordination primitive of the build fleet.
//!
//! A *claim* is how concurrent worker processes divide a list of jobs
//! without a coordinator: a worker owns a job exactly while it holds the
//! exclusive OS lock on that job's lock file ([`try_lock`]). The file is
//! empty and nothing ever reads, writes or moves it; it exists only to be
//! locked. The lock belongs to the open file and is released when the
//! file is dropped — on return, on panic, on exit or `kill -9` of the
//! holding process — so the kernel, not a clock, answers "is the owner
//! still alive?", and a dead owner's job is free the moment it dies.
//!
//! The locks are advisory (`flock(2)` on Unix), so claims only work on a
//! filesystem whose locks reach every worker: a local disk, NFSv4, or
//! NFSv3 with `lockd`.

use std::fs::{File, OpenOptions, TryLockError};
use std::io;
use std::path::Path;

/// Open `path`, creating it empty if it is missing, and take an
/// exclusive lock on it without blocking.
///
/// Returns the open file holding the lock (dropping it releases the
/// lock), `Ok(None)` when another open file already holds the lock — in
/// this process or any other — and an error for anything else, including
/// a filesystem that refuses locks. An existing file's bytes are left as
/// they are.
pub fn try_lock(path: &Path) -> io::Result<Option<File>> {
    let file = OpenOptions::new().write(true).create(true).truncate(false).open(path)?;
    match file.try_lock() {
        Ok(()) => Ok(Some(file)),
        Err(TryLockError::WouldBlock) => Ok(None),
        Err(TryLockError::Error(e)) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("pdu-claim-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn lock_is_exclusive_creates_its_file_and_dies_with_it() {
        let d = tmpdir("lock");
        let lock = d.join("job.lock");
        // a missing file is created, empty, and locked
        let held = try_lock(&lock).unwrap().expect("free file locks");
        assert_eq!(std::fs::read(&lock).unwrap(), b"");
        // a second open file conflicts, even in the same process
        assert!(try_lock(&lock).unwrap().is_none(), "double lock");
        // another thread cannot take it either
        let from_thread =
            std::thread::scope(|s| s.spawn(|| try_lock(&lock).unwrap().is_some()).join().unwrap());
        assert!(!from_thread, "lock taken from another thread");
        // dropping the holder frees it for the next taker
        drop(held);
        let again = try_lock(&lock).unwrap().expect("lock outlived its holder");
        drop(again);
        // bytes already in the file neither block the lock nor get erased
        std::fs::write(&lock, "garbage").unwrap();
        let _held = try_lock(&lock).unwrap().expect("a file with bytes locks");
        assert_eq!(std::fs::read_to_string(&lock).unwrap(), "garbage");
        // the holder keeps its lock on a deleted file, and the path then
        // names a fresh file the next taker locks: a second owner gets in
        std::fs::remove_file(&lock).unwrap();
        assert!(try_lock(&lock).unwrap().is_some(), "the fresh file must lock");
        std::fs::remove_dir_all(&d).unwrap();
    }
}
