//! The job store behind every crash-safe tuning path: checkpointed library
//! builds (`perfdojo-lib build --checkpoint-dir`), checkpointed serve
//! drains and the fleet ([`crate::fleet`]) keep each tune job under its
//! full id ([`job_id`]) in one directory layout:
//!
//! - `parts/<id>.part` — a finished job's record as a one-job library,
//!   wrapped in the hash-checked [`render_part`] envelope with the
//!   evaluations the job spent. A job is done exactly when its part passes
//!   the check, so a torn write reads as not done and the job re-runs.
//! - `ckpt/<id>/inflight.ckpt` — a paused job's serialized search or
//!   training state (a `perfdojo-checkpoint v1` text from `perfdojo-search`
//!   or `perfdojo-rl`); absent before the job first pauses and once it
//!   finishes. A fleet keeps each job's event log beside it.
//! - `trace.jsonl` — a build's event log; a resumed build appends to it
//!   with continuing step numbers, so the finished trace is byte-comparable
//!   to an uninterrupted run's.
//!
//! An id covers kernel, shape, target, strategy and seed, so a directory
//! reused for another build shares no job with it: another strategy, seed
//! or kernel is another id, whose part and in-flight state are never read.
//! The warm start is not in the id: a fleet freezes its donor, and a serve
//! drain resets the store after every publish. Every file is replaced
//! atomically (write-tmp-rename via `perfdojo_util::trace::atomic_write`),
//! and jobs re-run idempotently, so the worst a kill can cost is the work
//! since the job's last save.

use crate::builder::Strategy;
use crate::library::Library;
use perfdojo_ir::fingerprint::fnv1a;
use perfdojo_util::trace::{atomic_write, TraceSink};
use std::io;
use std::path::{Path, PathBuf};

/// A tune job's filesystem id: the sanitized kernel, shape and target plus
/// an fnv1a suffix over the whole identity (those three, the strategy and
/// the seed), so sanitization can never collide two jobs and a job tuned
/// another way never inherits this one's lock, part or checkpoint.
pub fn job_id(label: &str, shape: &str, target: &str, strategy: Strategy, seed: u64) -> String {
    let identity = format!("{label}|{shape}|{target}|{}|{seed}", strategy.spec());
    let safe: String = format!("{label}-{shape}-{target}")
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() || c == '-' || c == '.' { c } else { '_' })
        .collect();
    format!("{safe}-{:08x}", fnv1a(identity.as_bytes()) as u32)
}

/// Wrap one job's library text in the hash-checked part envelope:
///
/// ```text
/// perfdojo-fleet-part v1 job=<id> evals=<n> hash=<16-hex fnv1a of body>
/// <library text>
/// ```
pub fn render_part(job_id: &str, evaluations: u64, library_text: &str) -> String {
    format!(
        "perfdojo-fleet-part v1 job={job_id} evals={evaluations} hash={:016x}\n{library_text}",
        fnv1a(library_text.as_bytes())
    )
}

/// Parse and integrity-check a part file; `None` for anything torn,
/// truncated, or mislabeled — the caller treats the job as not done.
pub fn parse_part(job_id: &str, text: &str) -> Option<(u64, Library)> {
    let (header, body) = text.split_once('\n')?;
    let rest = header.strip_prefix("perfdojo-fleet-part v1 job=")?;
    let (id, rest) = rest.split_once(" evals=")?;
    if id != job_id {
        return None;
    }
    let (evals, hash) = rest.split_once(" hash=")?;
    let evaluations: u64 = evals.parse().ok()?;
    if format!("{:016x}", fnv1a(body.as_bytes())) != hash {
        return None;
    }
    let (lib, stats) = Library::from_text(body).ok()?;
    if stats.corrupt_entries > 0 {
        return None;
    }
    Some((evaluations, lib))
}

/// Handle to a job store directory (see the module docs for the layout).
#[derive(Clone, Debug)]
pub struct BuildCheckpoint {
    dir: PathBuf,
}

impl BuildCheckpoint {
    /// Open (creating if needed) a checkpoint directory.
    pub fn open(dir: &Path) -> io::Result<BuildCheckpoint> {
        std::fs::create_dir_all(dir)?;
        Ok(BuildCheckpoint::at(dir))
    }

    /// A handle on the store at `dir` that creates nothing; each write
    /// makes the subdirectory it needs.
    pub(crate) fn at(dir: &Path) -> BuildCheckpoint {
        BuildCheckpoint { dir: dir.to_path_buf() }
    }

    /// The directory path.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of the build's event log.
    pub fn trace_path(&self) -> PathBuf {
        self.dir.join("trace.jsonl")
    }

    pub(crate) fn part_path(&self, id: &str) -> PathBuf {
        self.dir.join("parts").join(format!("{id}.part"))
    }

    /// The directory of job `id`'s in-flight state.
    pub(crate) fn job_dir(&self, id: &str) -> PathBuf {
        self.dir.join("ckpt").join(id)
    }

    fn inflight_path(&self, id: &str) -> PathBuf {
        self.job_dir(id).join("inflight.ckpt")
    }

    /// The evaluations and library of job `id`'s part, when it passes the
    /// integrity check.
    pub fn part(&self, id: &str) -> Option<(u64, Library)> {
        parse_part(id, &std::fs::read_to_string(self.part_path(id)).ok()?)
    }

    /// Atomically write finished job `id`'s part.
    pub fn write_part(&self, id: &str, evaluations: u64, lib: &Library) -> io::Result<()> {
        std::fs::create_dir_all(self.dir.join("parts"))?;
        atomic_write(&self.part_path(id), &render_part(id, evaluations, &lib.to_text()))
    }

    /// Job `id`'s serialized in-flight state, if one was saved.
    pub fn load_inflight(&self, id: &str) -> Option<String> {
        std::fs::read_to_string(self.inflight_path(id)).ok()
    }

    /// Atomically save job `id`'s in-flight state.
    pub fn save_inflight(&self, id: &str, text: &str) -> io::Result<()> {
        std::fs::create_dir_all(self.job_dir(id))?;
        atomic_write(&self.inflight_path(id), text)
    }

    /// Remove job `id`'s in-flight state (the job finished).
    pub fn clear_inflight(&self, id: &str) -> io::Result<()> {
        remove_if_present(std::fs::remove_file(self.inflight_path(id)))
    }

    /// Remove every job's part and in-flight state (`parts/` and `ckpt/`),
    /// so the directory can host a fresh build of the same jobs. The event
    /// log is kept: it appends across builds with continuing step numbers.
    /// The serving tier calls this after every publish, since a later drain
    /// may queue a job of the same id under another warm start.
    pub fn reset(&self) -> io::Result<()> {
        remove_if_present(std::fs::remove_dir_all(self.dir.join("parts")))?;
        remove_if_present(std::fs::remove_dir_all(self.dir.join("ckpt")))
    }

    /// Load the event log so far (empty sink when none exists yet).
    pub fn load_trace(&self) -> TraceSink {
        TraceSink::from_text(&std::fs::read_to_string(self.trace_path()).unwrap_or_default())
    }

    /// Atomically save the event log.
    pub fn save_trace(&self, sink: &TraceSink) -> io::Result<()> {
        sink.save(&self.trace_path())
    }
}

/// `Ok` for a removal that succeeded or found nothing to remove.
pub(crate) fn remove_if_present(removed: io::Result<()>) -> io::Result<()> {
    match removed {
        Err(e) if e.kind() != io::ErrorKind::NotFound => Err(e),
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("pdl-ckpt-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    const STATE: &str = "perfdojo-checkpoint v1 anneal\nend\n";

    #[test]
    fn reset_clears_job_progress_but_keeps_trace() {
        let dir = tmpdir("reset");
        let c = BuildCheckpoint::open(&dir).unwrap();
        c.write_part("softmax-64x64-x86-0", 42, &Library::new()).unwrap();
        c.save_inflight("matmul-16x16x16-x86-0", STATE).unwrap();
        let mut sink = c.load_trace();
        sink.event("job").str("kernel", "softmax").emit();
        c.save_trace(&sink).unwrap();
        c.reset().unwrap();
        assert!(c.part("softmax-64x64-x86-0").is_none());
        assert!(c.load_inflight("matmul-16x16x16-x86-0").is_none());
        assert!(!dir.join("parts").exists() && !dir.join("ckpt").exists());
        assert_eq!(c.load_trace().next_step(), 1, "trace must survive a reset");
        // resetting an already-clean directory is fine
        c.reset().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn inflight_state_saves_loads_and_clears() {
        let dir = tmpdir("inflight");
        let c = BuildCheckpoint::open(&dir).unwrap();
        assert!(c.load_inflight("a").is_none());
        c.save_inflight("a", STATE).unwrap();
        assert_eq!(c.load_inflight("a").unwrap(), STATE);
        assert!(c.load_inflight("b").is_none(), "another job's state was read");
        c.clear_inflight("a").unwrap();
        assert!(c.load_inflight("a").is_none());
        // clearing twice, or a job that never paused, is fine
        c.clear_inflight("a").unwrap();
        c.clear_inflight("b").unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn trace_persists_with_continuing_step_numbers() {
        let dir = tmpdir("trace");
        let c = BuildCheckpoint::open(&dir).unwrap();
        let mut sink = c.load_trace();
        sink.event("job").str("kernel", "softmax").emit();
        c.save_trace(&sink).unwrap();
        let mut reloaded = c.load_trace();
        assert_eq!(reloaded.next_step(), 1);
        reloaded.event("tuned").str("kernel", "softmax").emit();
        c.save_trace(&reloaded).unwrap();
        let final_text = std::fs::read_to_string(c.trace_path()).unwrap();
        assert!(final_text.lines().count() == 2);
        assert!(final_text.contains("\"step\":0"));
        assert!(final_text.contains("\"step\":1"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
