//! Filesystem claim files: the coordination primitive of the build fleet.
//!
//! A *claim* is how concurrent worker processes divide a directory of job
//! files without a coordinator. Two std-only primitives make it:
//!
//! * [`try_move`] transfers ownership of a file: an atomic `rename(2)`
//!   whose source disappears the instant it succeeds, so exactly one of
//!   any number of racing movers wins and every loser observes a clean
//!   "not found";
//! * [`try_lock`] opens a file and takes an exclusive OS lock on it
//!   without blocking. The lock belongs to the open file, follows it
//!   across renames, and is released when the file is dropped — on
//!   return, on panic, on exit or `kill -9` of the holding process. So
//!   the kernel, not a clock, answers "is the owner still alive?".
//!
//! A claimant locks a job file and then moves it; a reclaimer moves a
//! claim back only while it holds the claim's lock, which it can take
//! only once the owner is gone. Nothing is ever written into the file:
//! a claim is the job file, moved verbatim.
//!
//! The locks are advisory (`flock(2)` on Unix), so claims only work on a
//! filesystem whose locks reach every worker: a local disk, NFSv4, or
//! NFSv3 with `lockd`.

use std::fs::{File, TryLockError};
use std::io;
use std::path::Path;

/// Atomically move `src` to `dst`, claiming exclusive ownership of it.
///
/// Returns `Ok(true)` when this caller performed the move, `Ok(false)`
/// when `src` no longer exists (a concurrent claimant won the race), and
/// an error for anything else. Note the POSIX caveat: if `dst` already
/// exists it is silently replaced — callers keep at most one live claim
/// path per job so a replaced destination is always a stale duplicate.
pub fn try_move(src: &Path, dst: &Path) -> io::Result<bool> {
    match std::fs::rename(src, dst) {
        Ok(()) => Ok(true),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(false),
        Err(e) => Err(e),
    }
}

/// Open `path` and take an exclusive lock on it without blocking.
///
/// Returns the open file holding the lock (dropping it releases the
/// lock), `Ok(None)` when `path` does not exist or another open file
/// already holds the lock — in this process or any other — and an error
/// for anything else, including a filesystem that refuses locks.
pub fn try_lock(path: &Path) -> io::Result<Option<File>> {
    let file = match File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
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
    fn lock_is_exclusive_follows_renames_and_dies_with_its_file() {
        let d = tmpdir("lock");
        let job = d.join("job");
        let claim = d.join("claim");
        assert!(try_lock(&job).unwrap().is_none(), "a missing file cannot be locked");
        std::fs::write(&job, "body").unwrap();
        let held = try_lock(&job).unwrap().expect("free file locks");
        // a second open file conflicts, even in the same process
        assert!(try_lock(&job).unwrap().is_none(), "double lock");
        // the lock follows the file across a move, and the body is intact
        assert!(try_move(&job, &claim).unwrap());
        assert!(try_lock(&claim).unwrap().is_none(), "lock lost in the move");
        assert_eq!(std::fs::read_to_string(&claim).unwrap(), "body");
        // another thread cannot take it either
        let from_thread =
            std::thread::scope(|s| s.spawn(|| try_lock(&claim).unwrap().is_some()).join().unwrap());
        assert!(!from_thread, "lock taken from another thread");
        // dropping the holder frees it for the next taker
        drop(held);
        assert!(try_lock(&claim).unwrap().is_some(), "lock outlived its file");
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn try_move_transfers_exactly_once() {
        let d = tmpdir("once");
        let src = d.join("job");
        let dst = d.join("claim");
        std::fs::write(&src, "body").unwrap();
        assert!(try_move(&src, &dst).unwrap());
        assert!(!src.exists());
        assert_eq!(std::fs::read_to_string(&dst).unwrap(), "body");
        // the second claimant finds the source gone
        assert!(!try_move(&src, &dst).unwrap());
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn concurrent_movers_yield_one_winner() {
        let d = tmpdir("race");
        let src = d.join("job");
        std::fs::write(&src, "body").unwrap();
        let wins: Vec<bool> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|i| {
                    let src = src.clone();
                    let dst = d.join(format!("claim-{i}"));
                    s.spawn(move || try_move(&src, &dst).unwrap())
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(wins.iter().filter(|w| **w).count(), 1, "{wins:?}");
        std::fs::remove_dir_all(&d).unwrap();
    }
}
