//! Distributed, preemptible tuning fleet: a filesystem-coordinated list
//! of library-build jobs shared by N worker processes (or in-process
//! worker threads), with deterministic keep-best merging of the partial
//! libraries the workers emit.
//!
//! This is ROADMAP item 4 — "tune the whole kernel universe overnight" —
//! built from primitives the repo already trusts: the atomic
//! write-tmp-rename idiom ([`perfdojo_util::trace::atomic_write`]), the
//! non-blocking OS file lock ([`perfdojo_util::claim::try_lock`]), and
//! the PR-5 crash-safe [`BuildCheckpoint`] layer, which bounds the cost
//! of killing any worker to the job it had in flight.
//!
//! # Directory protocol
//!
//! A fleet directory holds four subdirectories plus a manifest (and an
//! optional frozen donor library):
//!
//! - `jobs.list` — the full job universe and the only list of jobs,
//!   written by [`FleetDir::init`], which also removes the lock, part and
//!   checkpoint of every job the new list drops.
//! - `locks/<id>.lock` — an empty file whose exclusive OS lock makes its
//!   holder the job's owner ([`FleetDir::try_claim`] creates it on the
//!   first claim); never read, written or moved.
//! - `parts/<id>.part` — one completed job's partial library, wrapped in
//!   a hash-checked [`render_part`] envelope so a torn (non-atomic)
//!   write is detected and the job re-runs instead of silently losing or
//!   corrupting its record.
//! - `ckpt/<id>/` — the job's [`BuildCheckpoint`] directory. A worker
//!   killed mid-job leaves its search state here; whoever claims the job
//!   next resumes bit-identically (same RNG words, same budget spend).
//! - `logs/worker-<id>.jsonl` — per-worker operational trace events
//!   (claims, completions, torn parts); never compared, never merged.
//! - `warm.pdl` — optional: the donor library every job warm-starts from,
//!   frozen once by [`FleetDir::set_warm_from`].
//!
//! A job's state is two facts the filesystem keeps: it is *done* when its
//! part passes the hash check and *running* while someone holds its lock;
//! otherwise it is pending. A worker takes the lock of the first manifest
//! job without a valid part, checks the part again under the lock
//! (another worker may have finished the job between the scan and the
//! lock), runs the job in checkpoint slices, writes the part and drops
//! the lock.
//!
//! # Liveness from the OS
//!
//! The kernel drops a lock when its holder's process ends, however it
//! ends. A pause, every in-process fault and a real `kill -9` all just
//! drop the lock, so the next scan finds the job pending and whoever
//! claims it resumes the checkpoint: a job can never be lost and nothing
//! has to be reclaimed, while a live owner keeps its job however slow it
//! is. A worker that is alive but hung keeps its job until it is killed,
//! and the fleet directory needs working `flock` locks (see
//! [`perfdojo_util::claim`]).
//!
//! Even when a job *does* run twice (a deleted lock file, see
//! [`FaultKind`]), the part file it writes is byte-identical, because
//! every job's outcome is a pure function of the job identity and seed.
//! Duplicated work can waste time; it can never change the merged
//! library.
//!
//! # Deterministic merge
//!
//! [`FleetDir::merge`] folds every valid part into one library with
//! [`Library::merge`], the keep-best merge every library in the repo
//! uses. Its order is total — lower cost wins, exact cost ties break on
//! the serialized record text — so the merge is associative,
//! commutative, and idempotent: a true lattice join. The merged library
//! is byte-identical no matter how many workers ran, which worker ran
//! which job, in what order the parts arrived, or whether any worker was
//! killed and resumed along the way. A part record tuned under another
//! machine model is rejected and counted, as in every other merge.
//!
//! # Fault injection
//!
//! Crash testing by racing real `kill -9`s is flaky by construction, so
//! the worker loop threads a seeded [`FaultPlan`] through every
//! vulnerable point ([`FaultSite`]): kill before claiming, kill at a
//! mid-job slice boundary, kill after tuning but before the part write,
//! kill between the part's tmp write and its rename, plus deleted lock
//! files and torn partial-library writes. Every crash scenario is a
//! replayable unit test (`tests/fleet_crash.rs`), and the CLI's
//! `--kill-after N` is a plan too: a kill at the worker's
//! `ceil(N / slice_steps)`-th mid-job slice boundary
//! ([`FaultPlan::kill_after_steps`]).

use crate::builder::{target_by_name, BuildProgress, LibraryBuilder, Strategy};
use crate::checkpoint::BuildCheckpoint;
use crate::format;
use crate::library::Library;
use perfdojo_ir::fingerprint::fnv1a;
use perfdojo_kernels::KernelInstance;
use perfdojo_util::claim::try_lock;
use perfdojo_util::trace::{atomic_write, Lines, TraceSink};
use std::collections::{BTreeMap, BTreeSet};
use std::fs::File;
use std::io::{self, Read};
use std::path::{Path, PathBuf};
use std::time::{Duration, SystemTime};

/// How long a worker with nothing to claim waits between idle scans. A
/// poll rather than a blocking lock wait: a worker blocked on one job's
/// lock would leave another job that a dead owner freed waiting behind it.
const SCAN_WAIT: Duration = Duration::from_millis(25);

// ---------------------------------------------------------------------------
// Jobs

/// One unit of fleet work: tune one kernel shape on one target with one
/// strategy and seed. The job file format is line-oriented:
///
/// ```text
/// perfdojo-fleet-job v1
/// label <kernel label>
/// dims <d0>x<d1>...
/// target <target name>
/// strategy <Strategy::spec>
/// seed <u64>
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FleetJob {
    /// Tune-suite kernel label.
    pub label: String,
    /// Constructor dimensions (`by_label_with_shape` arity).
    pub dims: Vec<usize>,
    /// Target name.
    pub target: String,
    /// Tuning strategy.
    pub strategy: Strategy,
    /// Global build seed (per-job seeds derive from it + job identity).
    pub seed: u64,
}

impl FleetJob {
    /// The job's shape string (`64x64`).
    pub fn shape(&self) -> String {
        self.dims.iter().map(|d| d.to_string()).collect::<Vec<_>>().join("x")
    }

    /// Stable filesystem id: the sanitized kernel, shape and target plus
    /// an fnv1a suffix over the whole identity (those three, the strategy
    /// and the seed), so sanitization can never collide two jobs and a job
    /// tuned another way never inherits this one's lock, part or
    /// checkpoint.
    pub fn id(&self) -> String {
        let identity = format!(
            "{}|{}|{}|{}|{}",
            self.label,
            self.shape(),
            self.target,
            self.strategy.spec(),
            self.seed
        );
        let safe: String = format!("{}-{}-{}", self.label, self.shape(), self.target)
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() || c == '-' || c == '.' { c } else { '_' })
            .collect();
        format!("{safe}-{:08x}", fnv1a(identity.as_bytes()) as u32)
    }

    /// Render the job-file text.
    pub fn render(&self) -> String {
        format!(
            "perfdojo-fleet-job v1\nlabel {}\ndims {}\ntarget {}\nstrategy {}\nseed {}\n",
            self.label,
            self.shape(),
            self.target,
            self.strategy.spec(),
            self.seed
        )
    }

    /// Parse a job file: exactly the six lines [`FleetJob::render`]
    /// writes, in its order. An unknown, missing, reordered or trailing
    /// line is an error that quotes it.
    pub fn parse(text: &str) -> Result<FleetJob, String> {
        let mut l = Lines::new(text);
        l.exact("perfdojo-fleet-job v1")?;
        let label = l.keyed("label")?.to_string();
        let shape = l.keyed("dims")?;
        let dims = shape
            .split('x')
            .map(str::parse)
            .collect::<Result<_, _>>()
            .map_err(|_| l.err(&format!("bad dims {shape:?}")))?;
        let target = l.keyed("target")?.to_string();
        let spec = l.keyed("strategy")?;
        let strategy =
            Strategy::parse(spec).ok_or_else(|| l.err(&format!("bad strategy {spec:?}")))?;
        let seed = l.keyed("seed")?;
        let seed = seed.parse().map_err(|_| l.err(&format!("bad seed {seed:?}")))?;
        l.end()?;
        Ok(FleetJob { label, dims, target, strategy, seed })
    }

    /// Reconstruct the kernel instance this job tunes.
    pub fn kernel(&self) -> Result<KernelInstance, String> {
        let program = perfdojo_kernels::by_label_with_shape(&self.label, &self.dims)
            .ok_or_else(|| format!("no kernel {:?} at shape {:?}", self.label, self.dims))?;
        Ok(KernelInstance::at(&self.label, &self.dims, program))
    }

    /// The full kernels × targets job grid for one strategy + seed —
    /// what [`FleetDir::init`] writes into the manifest.
    pub fn grid(
        kernels: &[KernelInstance],
        targets: &[String],
        strategy: Strategy,
        seed: u64,
    ) -> Result<Vec<FleetJob>, String> {
        let mut jobs = Vec::new();
        for k in kernels {
            let dims: Vec<usize> = k
                .shape
                .split('x')
                .map(|d| d.parse().map_err(|_| format!("unfleetable shape {:?}", k.shape)))
                .collect::<Result<_, String>>()?;
            // jobs must be reconstructible from (label, dims) alone
            if perfdojo_kernels::by_label_with_shape(&k.label, &dims).is_none() {
                return Err(format!("kernel {:?} not constructible at {:?}", k.label, dims));
            }
            for t in targets {
                jobs.push(FleetJob {
                    label: k.label.clone(),
                    dims: dims.clone(),
                    target: t.clone(),
                    strategy,
                    seed,
                });
            }
        }
        Ok(jobs)
    }
}

// ---------------------------------------------------------------------------
// Part files

/// Wrap one job's partial-library text in the hash-checked part envelope:
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

// ---------------------------------------------------------------------------
// Fault injection

/// Where in the worker loop a fault triggers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultSite {
    /// Before attempting to claim a job.
    PreClaim,
    /// At a mid-job checkpoint-slice boundary (search state persisted).
    MidJob,
    /// After the job finished tuning, before the part file is written.
    PreDone,
    /// Between writing the part's tmp file and renaming it into place.
    MidRename,
}

impl FaultSite {
    /// Every site, in worker-loop order (the crash-matrix test iterates
    /// this).
    pub fn all() -> [FaultSite; 4] {
        [FaultSite::PreClaim, FaultSite::MidJob, FaultSite::PreDone, FaultSite::MidRename]
    }
}

/// What happens when a fault triggers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// The worker dies on the spot: no cleanup; its lock drops with it.
    Kill,
    /// The worker's lock file is deleted out from under it; the worker
    /// keeps running (it cannot tell), and the next claimant locks a fresh
    /// file and runs the same job concurrently.
    DropLock,
    /// The part file is written torn (truncated, no atomic rename) and
    /// the worker dies — the non-atomic-filesystem nightmare scenario.
    TornPart,
}

/// One planned fault: worker `worker` triggers `kind` the `nth` time it
/// reaches `site` (1-based).
#[derive(Clone, Debug)]
pub struct Fault {
    /// Worker id the fault applies to.
    pub worker: String,
    /// Trigger site.
    pub site: FaultSite,
    /// 1-based visit count at which the fault fires.
    pub nth: u64,
    /// Fault behavior.
    pub kind: FaultKind,
}

/// A deterministic, replayable fault schedule threaded through the worker
/// loop. Plans are plain data: the same plan against the same fleet
/// directory reproduces the same crash scenario every time.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    /// The planned faults.
    pub faults: Vec<Fault>,
}

impl FaultPlan {
    /// The empty plan (no faults).
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// Add a kill for `worker` at its `nth` visit to `site`.
    pub fn kill(mut self, worker: &str, site: FaultSite, nth: u64) -> FaultPlan {
        self.faults.push(Fault { worker: worker.to_string(), site, nth, kind: FaultKind::Kill });
        self
    }

    /// Add a simulated `kill -9` of `worker` at its
    /// `max(1, ceil(steps / slice_steps))`-th mid-job slice boundary. The
    /// kill counts slice boundaries, not steps: every slice counts as
    /// `slice_steps` steps here, whatever it ran, so a worker whose slices
    /// end jobs early dies having run fewer than `steps` steps.
    pub fn kill_after_steps(self, worker: &str, steps: u64, slice_steps: u64) -> FaultPlan {
        self.kill(worker, FaultSite::MidJob, steps.div_ceil(slice_steps.max(1)).max(1))
    }

    /// Add a non-kill fault for `worker` at its `nth` visit to `site`.
    pub fn with(mut self, worker: &str, site: FaultSite, nth: u64, kind: FaultKind) -> FaultPlan {
        self.faults.push(Fault { worker: worker.to_string(), site, nth, kind });
        self
    }

    /// A seeded random plan over `workers`: 1–3 faults sampled from the
    /// full site × kind space. Used by the randomized crash smoke — any
    /// seed must converge to the same merged library.
    pub fn seeded(seed: u64, workers: &[String]) -> FaultPlan {
        let mut rng = perfdojo_util::rng::Rng::seed_from_u64(seed ^ 0xF1EE7);
        let sites = FaultSite::all();
        let kinds = [FaultKind::Kill, FaultKind::DropLock, FaultKind::TornPart];
        let mut plan = FaultPlan::none();
        for _ in 0..rng.gen_range(1..4usize) {
            let worker = &workers[rng.gen_range(0..workers.len())];
            let site = sites[rng.gen_range(0..sites.len())];
            // drop/torn only make sense while a job is held
            let kind = match site {
                FaultSite::PreClaim => FaultKind::Kill,
                FaultSite::MidJob | FaultSite::PreDone => {
                    kinds[rng.gen_range(0..2usize)] // kill / drop
                }
                FaultSite::MidRename => {
                    if rng.gen_range(0..2usize) == 0 {
                        FaultKind::Kill
                    } else {
                        FaultKind::TornPart
                    }
                }
            };
            plan.faults.push(Fault {
                worker: worker.clone(),
                site,
                nth: rng.gen_range(1..3u64),
                kind,
            });
        }
        plan
    }
}

/// Worker-local fault cursor: counts visits per site and looks up the
/// plan. (The plan itself is shared immutably across workers.)
#[derive(Default)]
struct FaultCursor {
    visits: BTreeMap<FaultSite, u64>,
}

impl FaultCursor {
    fn check(&mut self, plan: &FaultPlan, worker: &str, site: FaultSite) -> Option<FaultKind> {
        let n = self.visits.entry(site).or_insert(0);
        *n += 1;
        let n = *n;
        plan.faults
            .iter()
            .find(|f| f.worker == worker && f.site == site && f.nth == n)
            .map(|f| f.kind)
    }
}

// ---------------------------------------------------------------------------
// The fleet directory

/// Handle to a fleet coordination directory (see the module docs for the
/// on-disk protocol).
#[derive(Clone, Debug)]
pub struct FleetDir {
    root: PathBuf,
}

/// Live state summary of a fleet directory.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FleetStatus {
    /// Jobs in the manifest.
    pub total: usize,
    /// Jobs without a valid part that nobody owns.
    pub pending: usize,
    /// Jobs without a valid part whose lock someone holds.
    pub running: usize,
    /// Jobs with a valid part file.
    pub done: usize,
}

impl FleetDir {
    /// A handle on the fleet directory at `root`. Nothing is created or
    /// read here: [`FleetDir::init`] makes the directory tree, and every
    /// other operation starts by reading the manifest, so a mistyped path
    /// fails without leaving anything behind.
    pub fn open(root: &Path) -> FleetDir {
        FleetDir { root: root.to_path_buf() }
    }

    /// The directory root.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn lock_path(&self, id: &str) -> PathBuf {
        self.root.join("locks").join(format!("{id}.lock"))
    }

    fn part_path(&self, id: &str) -> PathBuf {
        self.root.join("parts").join(format!("{id}.part"))
    }

    /// The job's private [`BuildCheckpoint`] directory.
    pub fn ckpt_path(&self, id: &str) -> PathBuf {
        self.root.join("ckpt").join(id)
    }

    fn manifest_path(&self) -> PathBuf {
        self.root.join("jobs.list")
    }

    /// The frozen donor library warm-starting every job, in the library
    /// format (absent = every job tunes cold).
    pub fn warm_path(&self) -> PathBuf {
        self.root.join("warm.pdl")
    }

    /// Freeze `lib` as the donor library every job the fleet runs
    /// warm-starts from. Each job fits its transfer family from it (the fit
    /// is a pure function of library contents), so only the library is
    /// stored. Write-once by design: a job's outcome must be a pure
    /// function of its identity and seed (parts are compared byte-for-byte
    /// across workers), so the donor is frozen at fleet init and never
    /// updated while workers run, and frozen after [`FleetDir::init`] made
    /// the directory. Returns `false` without writing when a donor is
    /// already frozen or no family in `lib` fits.
    pub fn set_warm_from(&self, lib: &Library) -> io::Result<bool> {
        if self.warm_path().exists()
            || !lib.records().any(|r| crate::transfer::fit_for(lib, &r.sig).is_some())
        {
            return Ok(false);
        }
        lib.save(&self.warm_path())?;
        Ok(true)
    }

    /// Create the directory tree, write `jobs` as the manifest, and remove
    /// the files of every job that left it. A job's state lives in its lock
    /// and its part, so re-running `init` on a live or finished fleet keeps
    /// the state of every job it still lists; a job whose strategy or seed
    /// changed has a new id and starts from nothing.
    ///
    /// The lock file, part and checkpoint of an id missing from `jobs` are
    /// removed while holding that job's lock, so nothing a worker is using
    /// goes. A job whose lock is held stays in place; its id is returned,
    /// and a later `init` removes it once its worker has let go.
    pub fn init(&self, jobs: &[FleetJob]) -> io::Result<Vec<String>> {
        for sub in ["locks", "parts", "ckpt", "logs"] {
            std::fs::create_dir_all(self.root.join(sub))?;
        }
        let manifest: String = jobs.iter().map(|job| format!("{}---\n", job.render())).collect();
        atomic_write(&self.manifest_path(), &manifest)?;
        let listed: BTreeSet<String> = jobs.iter().map(FleetJob::id).collect();
        let mut held = Vec::new();
        for id in self.ids_on_disk()?.difference(&listed) {
            let Some(lock) = self.try_claim(id)? else {
                held.push(id.clone());
                continue;
            };
            remove_if_present(std::fs::remove_file(self.part_path(id)))?;
            remove_if_present(std::fs::remove_dir_all(self.ckpt_path(id)))?;
            remove_if_present(std::fs::remove_file(self.lock_path(id)))?;
            drop(lock);
        }
        Ok(held)
    }

    /// Every job id that has a lock file, a part or a checkpoint directory.
    fn ids_on_disk(&self) -> io::Result<BTreeSet<String>> {
        let mut ids = BTreeSet::new();
        // a part's temporary write ends in `.tmp` and names no job
        for (sub, suffix) in [("locks", ".lock"), ("parts", ".part"), ("ckpt", "")] {
            for entry in std::fs::read_dir(self.root.join(sub))? {
                if let Some(id) = entry?.file_name().to_str().and_then(|n| n.strip_suffix(suffix)) {
                    ids.insert(id.to_string());
                }
            }
        }
        Ok(ids)
    }

    /// The manifest job universe. Fails when the fleet was never
    /// initialized or any block does not parse: the manifest is the only
    /// list of jobs, so a block skipped here would be a job that never
    /// runs and is never missed.
    pub fn manifest(&self) -> Result<Vec<FleetJob>, String> {
        let path = self.manifest_path();
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("{}: {e} (run fleet init first)", path.display()))?;
        text.split("---\n")
            .filter(|b| !b.trim().is_empty())
            .enumerate()
            .map(|(i, b)| {
                FleetJob::parse(b).map_err(|e| format!("{} job {}: {e}", path.display(), i + 1))
            })
            .collect()
    }

    /// Claim job `id`: take the exclusive lock on its lock file without
    /// blocking, creating the file if it is missing. Returns the locked
    /// file; the job is owned for exactly as long as it stays open. `None`
    /// when another claimant holds it.
    pub fn try_claim(&self, id: &str) -> io::Result<Option<File>> {
        try_lock(&self.lock_path(id))
    }

    /// Read and integrity-check the part file for `id`.
    pub fn part(&self, id: &str) -> Option<(u64, Library)> {
        let text = std::fs::read_to_string(self.part_path(id)).ok()?;
        parse_part(id, &text)
    }

    /// Write the completed job's part file atomically.
    pub fn write_part(&self, id: &str, evaluations: u64, lib: &Library) -> io::Result<()> {
        atomic_write(&self.part_path(id), &render_part(id, evaluations, &lib.to_text()))
    }

    /// Live state summary against the manifest. A job without a lock file
    /// was never claimed; probing an existing lock takes it for an
    /// instant, so a worker claiming at that moment moves on and finds the
    /// job again on its next scan.
    pub fn status(&self) -> Result<FleetStatus, String> {
        let manifest = self.manifest()?;
        let mut s = FleetStatus { total: manifest.len(), ..FleetStatus::default() };
        for job in &manifest {
            let id = job.id();
            if self.part(&id).is_some() {
                s.done += 1;
            } else if !self.lock_path(&id).exists()
                || self.try_claim(&id).map_err(|e| format!("lock {id}: {e}"))?.is_some()
            {
                s.pending += 1;
            } else {
                s.running += 1;
            }
        }
        Ok(s)
    }

    /// Coordinator merge: fold every valid part into one library with
    /// [`Library::merge`], whose order is total, so the bytes do not
    /// depend on the order the parts are read in. Part records tuned under
    /// another machine model are rejected and counted. Jobs without a
    /// valid part are listed as unfinished (the fleet is not drained yet —
    /// or a torn part awaits its re-run).
    pub fn merge(&self) -> Result<MergeOutcome, String> {
        let mut out = MergeOutcome::default();
        for job in self.manifest()? {
            let id = job.id();
            match self.part(&id) {
                Some((evals, part)) => {
                    out.merged_jobs += 1;
                    out.evaluations += evals;
                    out.rejected_stale += out.library.merge(part.records().cloned()).rejected_stale;
                }
                None => out.unfinished.push(id),
            }
        }
        Ok(out)
    }
}

/// `Ok` for a removal that succeeded or found nothing to remove.
fn remove_if_present(removed: io::Result<()>) -> io::Result<()> {
    match removed {
        Err(e) if e.kind() != io::ErrorKind::NotFound => Err(e),
        _ => Ok(()),
    }
}

/// Result of a coordinator merge over the fleet's part files.
#[derive(Clone, Debug, Default)]
pub struct MergeOutcome {
    /// The joined library.
    pub library: Library,
    /// Jobs whose parts merged.
    pub merged_jobs: usize,
    /// Total evaluations those jobs spent.
    pub evaluations: u64,
    /// Part records left out for carrying another machine model's version.
    pub rejected_stale: usize,
    /// Manifest jobs with no valid part yet.
    pub unfinished: Vec<String>,
}

// ---------------------------------------------------------------------------
// The worker loop

/// Per-worker configuration.
#[derive(Clone, Debug)]
pub struct WorkerConfig {
    /// Worker id (names its log file and its fault-plan entries).
    pub worker: String,
    /// Tuning steps per checkpoint slice — the kill granularity (a killed
    /// worker loses at most one slice of unpersisted search progress...
    /// which the resume then re-runs bit-identically).
    pub slice_steps: u64,
    /// Total tuning steps before a *clean pause*: the worker drops its
    /// lock, keeping the job's checkpoint, and exits [`WorkerExit::Paused`].
    /// (A simulated crash is a [`FaultPlan`] kill instead.)
    pub step_limit: Option<u64>,
}

impl WorkerConfig {
    /// A worker named `worker` with defaults: 8-step slices, no limits.
    pub fn new(worker: &str) -> WorkerConfig {
        WorkerConfig { worker: worker.to_string(), slice_steps: 8, step_limit: None }
    }
}

/// How a worker's run ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkerExit {
    /// Every manifest job has a valid part; nothing left to do.
    Drained,
    /// The step limit ran out; the in-flight job's lock was dropped.
    Paused,
    /// A planned fault killed the worker mid-protocol.
    Killed,
}

/// What one worker did.
#[derive(Clone, Debug)]
pub struct WorkerReport {
    /// How the run ended.
    pub exit: WorkerExit,
    /// Ids of jobs this worker completed (part written).
    pub jobs_done: Vec<String>,
    /// Torn part files this worker discarded.
    pub discarded_torn: usize,
    /// Tuning steps this worker's checkpoint slices ran.
    pub steps: u64,
}

enum JobRun {
    Completed,
    Paused,
    Killed,
}

/// What a worker finds at a job's part path.
enum PartState {
    /// No part file, or one that cannot be read as text.
    Missing,
    /// A part that passes its integrity check.
    Valid,
    /// A part that fails it: a torn write.
    Torn,
}

/// The parts a worker has found valid, by job id, with the length and
/// modification time each file had when it was read. A valid part is
/// written once, by atomic rename, so while both stay the same the file
/// holds the bytes already checked and is not read again; a part that is
/// deleted or replaced changes one of them and is read afresh.
#[derive(Default)]
struct ValidParts(BTreeMap<String, (u64, SystemTime)>);

impl ValidParts {
    fn check(&mut self, fleet: &FleetDir, id: &str) -> PartState {
        let path = fleet.part_path(id);
        let stamp = |meta: std::fs::Metadata| Some((meta.len(), meta.modified().ok()?));
        if let Some(known) = self.0.get(id) {
            if std::fs::metadata(&path).ok().and_then(stamp).as_ref() == Some(known) {
                return PartState::Valid;
            }
        }
        self.0.remove(id);
        // stamp and bytes come from one open file, so the remembered
        // stamp always belongs to the bytes that were checked
        let Ok(mut file) = File::open(&path) else { return PartState::Missing };
        let read_stamp = file.metadata().ok().and_then(stamp);
        let mut text = String::new();
        if file.read_to_string(&mut text).is_err() {
            return PartState::Missing;
        }
        if parse_part(id, &text).is_none() {
            return PartState::Torn;
        }
        if let Some(st) = read_stamp {
            self.0.insert(id.to_string(), st);
        }
        PartState::Valid
    }
}

/// Run one worker against the fleet until the manifest is drained, the
/// step limit pauses it, or a fault kills it. See the module docs for the
/// protocol.
pub fn run_worker(
    fleet: &FleetDir,
    cfg: &WorkerConfig,
    plan: &FaultPlan,
) -> Result<WorkerReport, String> {
    let mut cursor = FaultCursor::default();
    let mut report = WorkerReport {
        exit: WorkerExit::Drained,
        jobs_done: Vec::new(),
        discarded_torn: 0,
        steps: 0,
    };
    let mut sink = TraceSink::new();
    let mut parts = ValidParts::default();
    let manifest: BTreeMap<String, FleetJob> =
        fleet.manifest()?.into_iter().map(|job| (job.id(), job)).collect();
    if manifest.is_empty() {
        return Err(format!("fleet {} has no jobs — run init first", fleet.root().display()));
    }

    let exit = 'outer: loop {
        // lock the first job without a valid part that nobody owns
        let mut outstanding = 0;
        let mut claimed: Option<(&String, (FleetJob, File))> = None;
        for (id, job) in &manifest {
            if matches!(parts.check(fleet, id), PartState::Valid) {
                continue;
            }
            outstanding += 1;
            if cursor.check(plan, &cfg.worker, FaultSite::PreClaim) == Some(FaultKind::Kill) {
                break 'outer WorkerExit::Killed;
            }
            let Some(lock) = fleet.try_claim(id).map_err(|e| format!("claim {id}: {e}"))? else {
                continue;
            };
            // the owner before us may have written the part between the
            // scan and the lock; a torn part is a dead writer's, and the
            // re-run rewrites it (the checkpoint holds the finished state)
            match parts.check(fleet, id) {
                PartState::Valid => {
                    outstanding -= 1;
                    continue;
                }
                PartState::Torn => match std::fs::remove_file(fleet.part_path(id)) {
                    Err(e) if e.kind() != io::ErrorKind::NotFound => {
                        return Err(format!("discard torn part {id}: {e}"));
                    }
                    _ => {
                        report.discarded_torn += 1;
                        sink.event("torn_part").str("job", id).emit();
                    }
                },
                PartState::Missing => {}
            }
            claimed = Some((id, (job.clone(), lock)));
            break;
        }

        if let Some((id, claim)) = claimed {
            sink.event("claim").str("job", id).str("worker", &cfg.worker).emit();
            match run_job(fleet, cfg, plan, &mut cursor, id, claim, &mut report)? {
                JobRun::Completed => {
                    sink.event("done").str("job", id).emit();
                    report.jobs_done.push(id.clone());
                    // the step limit also pauses between jobs, with no
                    // lock held
                    if cfg.step_limit.is_some_and(|limit| report.steps >= limit) {
                        break WorkerExit::Paused;
                    }
                    continue;
                }
                JobRun::Paused => break WorkerExit::Paused,
                JobRun::Killed => break WorkerExit::Killed,
            }
        }
        if outstanding == 0 {
            break WorkerExit::Drained;
        }
        // every outstanding job is owned: wait for an owner to finish or die
        std::thread::sleep(SCAN_WAIT);
    };

    report.exit = exit;
    sink.event("exit").str("worker", &cfg.worker).u64("steps", report.steps).emit();
    let log_path = fleet.root().join("logs").join(format!("worker-{}.jsonl", cfg.worker));
    // operational log only; losing it changes nothing
    let _ = sink.save(&log_path);
    Ok(report)
}

/// Run one claimed job to completion in checkpoint slices, consulting the
/// fault plan at every vulnerable point. `_lock` is the job's ownership:
/// it is held until the part is written, and every early return drops it,
/// leaving the job and its checkpoint to the next claimant.
fn run_job(
    fleet: &FleetDir,
    cfg: &WorkerConfig,
    plan: &FaultPlan,
    cursor: &mut FaultCursor,
    id: &str,
    (job, _lock): (FleetJob, File),
    report: &mut WorkerReport,
) -> Result<JobRun, String> {
    let target = target_by_name(&job.target).ok_or_else(|| format!("unknown target {:?}", job.target))?;
    let kernel = job.kernel()?;
    let mut builder = LibraryBuilder::new(job.strategy, job.seed);
    // the donor is frozen at init, so every worker (and every retry after a
    // crash) warm-starts the job identically. A donor that does not load
    // cleanly (unreadable, bad header, any corrupt entry or stray line)
    // means cold tuning, not failure: the worker protocol tolerates torn
    // files everywhere else too.
    if let Ok((donor, stats)) = Library::load(&fleet.warm_path()) {
        if stats == format::LoadStats::default() {
            builder = builder.with_warm_from(&donor);
        }
    }
    let ckpt = BuildCheckpoint::open(&fleet.ckpt_path(id))
        .map_err(|e| format!("checkpoint {id}: {e}"))?;
    let io_err = |e: io::Error| format!("fleet job {id}: {e}");

    let lib = loop {
        let mut lib = Library::new();
        let (progress, _, _, steps) = builder.build_into_checkpointed(
            &mut lib,
            std::slice::from_ref(&kernel),
            std::slice::from_ref(&target),
            &ckpt,
            Some(cfg.slice_steps),
        )?;
        report.steps += steps;
        // a fault here lands no matter what the slice accomplished —
        // checked before the finished-job break on purpose
        match cursor.check(plan, &cfg.worker, FaultSite::MidJob) {
            Some(FaultKind::Kill) => return Ok(JobRun::Killed),
            Some(FaultKind::DropLock) => {
                let _ = std::fs::remove_file(fleet.lock_path(id));
            }
            _ => {}
        }
        if progress == BuildProgress::Finished {
            break lib;
        }
        // clean pause: dropping the lock hands the job to a sibling (or
        // the resumed process), which continues from the checkpoint
        if cfg.step_limit.is_some_and(|limit| report.steps >= limit) {
            return Ok(JobRun::Paused);
        }
    };

    if cursor.check(plan, &cfg.worker, FaultSite::PreDone) == Some(FaultKind::Kill) {
        return Ok(JobRun::Killed);
    }
    let evaluations: u64 = ckpt.done_jobs().iter().map(|(_, _, _, e)| *e).sum();
    let part_text = render_part(id, evaluations, &lib.to_text());
    match cursor.check(plan, &cfg.worker, FaultSite::MidRename) {
        Some(FaultKind::Kill) => {
            // crashed between the tmp write and the rename: the tmp file
            // exists, the part does not
            std::fs::write(fleet.part_path(id).with_extension("tmp"), &part_text)
                .map_err(io_err)?;
            return Ok(JobRun::Killed);
        }
        Some(FaultKind::TornPart) => {
            // a non-atomic writer died mid-write: half the bytes landed
            let torn = &part_text[..part_text.len() / 2];
            std::fs::write(fleet.part_path(id), torn).map_err(io_err)?;
            return Ok(JobRun::Killed);
        }
        _ => {}
    }
    fleet.write_part(id, evaluations, &lib).map_err(io_err)?;
    Ok(JobRun::Completed)
}

// ---------------------------------------------------------------------------
// In-process fleets

/// What an in-process fleet run did.
#[derive(Clone, Debug)]
pub struct FleetRunReport {
    /// Per-worker reports, in worker-id order.
    pub workers: Vec<WorkerReport>,
    /// True when every manifest job has a valid part.
    pub drained: bool,
}

/// Run `n` in-process worker threads (ids `w0..w{n-1}`) against the
/// fleet — the deterministic bench/test harness and the `fleet run` CLI
/// core. `base`'s `worker` field is ignored; faults, an injected kill
/// included, come from `plan` by worker id.
pub fn run_fleet(
    fleet: &FleetDir,
    n: usize,
    base: &WorkerConfig,
    plan: &FaultPlan,
) -> Result<FleetRunReport, String> {
    let n = n.max(1);
    let configs: Vec<WorkerConfig> =
        (0..n).map(|i| WorkerConfig { worker: format!("w{i}"), ..base.clone() }).collect();
    let reports: Vec<Result<WorkerReport, String>> = std::thread::scope(|s| {
        let handles: Vec<_> =
            configs.iter().map(|cfg| s.spawn(move || run_worker(fleet, cfg, plan))).collect();
        handles.into_iter().map(|h| h.join().expect("fleet worker panicked")).collect()
    });
    let workers = reports.into_iter().collect::<Result<Vec<_>, _>>()?;
    let drained = {
        let s = fleet.status()?;
        s.total > 0 && s.done == s.total
    };
    Ok(FleetRunReport { workers, drained })
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfdojo_core::Target;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("pdl-fleet-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn kernels(labels: &[&str]) -> Vec<KernelInstance> {
        let kernels: Vec<KernelInstance> = perfdojo_kernels::tune_suite()
            .into_iter()
            .filter(|k| labels.contains(&k.label.as_str()))
            .collect();
        assert_eq!(kernels.len(), labels.len());
        kernels
    }

    fn jobs(labels: &[&str], strategy: Strategy, seed: u64) -> Vec<FleetJob> {
        FleetJob::grid(&kernels(labels), &["x86".to_string()], strategy, seed).unwrap()
    }

    #[test]
    fn job_file_round_trips_and_refuses_every_other_line() {
        let job = jobs(&["layernorm 1"], Strategy::Anneal { budget: 17 }, 9).remove(0);
        let text = job.render();
        assert_eq!(FleetJob::parse(&text).unwrap(), job);
        // the id is filesystem-safe despite the space in the label
        assert!(job.id().chars().all(|c| c.is_ascii_alphanumeric() || "-_.".contains(c)));
        assert!(FleetJob::parse("label x\n").is_err(), "headerless text must not parse");
        // each case quotes the line it found where it wanted another
        let owner = "owner w3 beat 0";
        let lines: Vec<&str> = text.lines().collect();
        let block = |ls: &[&str]| ls.iter().map(|l| format!("{l}\n")).collect::<String>();
        let mut headed = lines.clone();
        headed.insert(1, owner);
        let mut missing = lines.clone();
        missing.remove(2);
        let mut swapped = lines.clone();
        swapped.swap(2, 3);
        for (tag, bad, quoted) in [
            ("owner header", block(&headed), owner),
            ("missing dims", block(&missing), lines[3]),
            ("dims and target swapped", block(&swapped), lines[3]),
            ("trailing line", format!("{text}{owner}\n"), owner),
        ] {
            let err = FleetJob::parse(&bad).expect_err(tag);
            assert!(err.contains(&format!("{quoted:?}")), "{tag}: {err}");
        }
    }

    #[test]
    fn part_envelope_detects_torn_writes() {
        let mut lib = Library::new();
        let kernels = jobs(&["softmax"], Strategy::Heuristic, 3);
        let k = kernels[0].kernel().unwrap();
        LibraryBuilder::new(Strategy::Heuristic, 3).build_into(
            &mut lib,
            std::slice::from_ref(&k),
            &[Target::x86()],
        );
        let text = render_part("j1", 42, &lib.to_text());
        let (evals, back) = parse_part("j1", &text).expect("intact part must parse");
        assert_eq!(evals, 42);
        assert_eq!(back.to_text(), lib.to_text());
        // torn at any byte: either the header breaks or the hash mismatches
        for cut in [text.len() / 3, text.len() / 2, text.len() - 1] {
            assert!(parse_part("j1", &text[..cut]).is_none(), "torn at {cut} parsed");
        }
        // mislabeled job id is rejected too
        assert!(parse_part("j2", &text).is_none());
        // an empty (unimproved-job) library round-trips
        let empty = render_part("j1", 7, &Library::new().to_text());
        let (_, lib2) = parse_part("j1", &empty).unwrap();
        assert!(lib2.is_empty());
    }

    #[test]
    fn merge_leaves_out_a_part_record_tuned_under_another_model() {
        let dir = tmpdir("stale");
        let fleet = FleetDir::open(&dir);
        let js = jobs(&["softmax", "relu"], Strategy::Heuristic, 3);
        fleet.init(&js).unwrap();
        assert!(run_fleet(&fleet, 1, &WorkerConfig::new(""), &FaultPlan::none()).unwrap().drained);
        let fresh = fleet.merge().unwrap();
        assert_eq!((fresh.library.len(), fresh.rejected_stale), (2, 0));
        // restamp one part's record with another model, its hash intact
        let id = js[0].id();
        let (evals, part) = fleet.part(&id).unwrap();
        let stale = format::ScheduleRecord {
            model_version: "m0-t0".into(),
            ..part.records().next().unwrap().clone()
        };
        let text = render_part(&id, evals, &format::render([&stale]));
        std::fs::write(fleet.part_path(&id), text).unwrap();
        assert!(fleet.part(&id).is_some(), "the restamped part is valid");
        let merged = fleet.merge().unwrap();
        assert_eq!((merged.merged_jobs, merged.rejected_stale), (2, 1));
        assert_eq!(merged.library.len(), 1);
        assert!(merged.library.get(&stale.sig).is_none(), "the stale record was merged");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn claim_and_reclaim_are_exclusive() {
        let dir = tmpdir("claim");
        let fleet = FleetDir::open(&dir);
        let js = jobs(&["softmax"], Strategy::Heuristic, 3);
        fleet.init(&js).unwrap();
        // init writes the manifest and nothing else, and status only reads
        assert_eq!(fleet.status().unwrap().pending, 1);
        assert_eq!(std::fs::read_dir(dir.join("locks")).unwrap().count(), 0);
        let id = js[0].id();
        let held = fleet.try_claim(&id).unwrap().expect("free job claimable");
        assert!(fleet.try_claim(&id).unwrap().is_none(), "double claim");
        // the claim is a lock on an empty file; nothing is written into it
        assert_eq!(std::fs::read(fleet.lock_path(&id)).unwrap(), b"");
        // once the holder drops it, the next claimant takes the job
        drop(held);
        let _held = fleet.try_claim(&id).unwrap().expect("released job claimable");
        assert!(fleet.try_claim(&id).unwrap().is_none(), "double claim after release");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn single_worker_fleet_matches_plain_build() {
        let dir = tmpdir("plain-eq");
        let fleet = FleetDir::open(&dir);
        let labels = ["softmax", "matmul"];
        let strategy = Strategy::Anneal { budget: 12 };
        fleet.init(&jobs(&labels, strategy, 5)).unwrap();
        let report = run_fleet(&fleet, 1, &WorkerConfig::new(""), &FaultPlan::none()).unwrap();
        assert!(report.drained);
        let merged = fleet.merge().unwrap();
        assert!(merged.unfinished.is_empty());
        assert_eq!(merged.merged_jobs, 2);
        assert!(merged.evaluations > 0);

        let mut plain = Library::new();
        let kernels = kernels(&labels);
        LibraryBuilder::new(strategy, 5).build_into(&mut plain, &kernels, &[Target::x86()]);
        assert_eq!(
            merged.library.to_text(),
            plain.to_text(),
            "fleet must reproduce the plain build byte-for-byte"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn warm_fleet_matches_plain_warm_build_and_freezes_once() {
        let dir = tmpdir("warm-eq");
        let fleet = FleetDir::open(&dir);
        let labels = ["layernorm 1", "layernorm 2"];
        let strategy = Strategy::Anneal { budget: 12 };
        let kernels = kernels(&labels);

        // donor library: heuristic-tuned family the index fits over
        let mut donor = Library::new();
        LibraryBuilder::new(Strategy::Heuristic, 7).build_into(
            &mut donor,
            &kernels,
            &[Target::x86()],
        );
        fleet.init(&jobs(&labels, strategy, 5)).unwrap();
        assert!(fleet.set_warm_from(&donor).unwrap(), "layernorm family must fit");
        assert!(!fleet.set_warm_from(&donor).unwrap(), "warm index is write-once");
        let report = run_fleet(&fleet, 2, &WorkerConfig::new(""), &FaultPlan::none()).unwrap();
        assert!(report.drained);
        let merged = fleet.merge().unwrap();
        assert!(merged.unfinished.is_empty());

        let mut plain = Library::new();
        LibraryBuilder::new(strategy, 5)
            .with_warm_from(&donor)
            .build_into(&mut plain, &kernels, &[Target::x86()]);
        assert_eq!(
            merged.library.to_text(),
            plain.to_text(),
            "warm fleet must reproduce the plain warm build byte-for-byte"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn frozen_donor_warms_jobs_only_when_it_loads_cleanly() {
        // two small softmax shapes: their heuristic records fit a family,
        // and PerfLLM (which starts from the naive program) takes the warm
        // start, so warm and cold builds differ
        let kernels: Vec<KernelInstance> = [[16, 32], [8, 64]]
            .into_iter()
            .map(|[rows, cols]| {
                KernelInstance::at("softmax", &[rows, cols], perfdojo_kernels::softmax(rows, cols))
            })
            .collect();
        let strategy = Strategy::PerfLlm { episodes: 2 };
        let mut donor = Library::new();
        LibraryBuilder::new(Strategy::Heuristic, 7).build_into(
            &mut donor,
            &kernels,
            &[Target::x86()],
        );
        let build = |builder: LibraryBuilder| {
            let mut lib = Library::new();
            builder.build_into(&mut lib, &kernels, &[Target::x86()]);
            lib.to_text()
        };
        let cold = build(LibraryBuilder::new(strategy, 5));
        let warm = build(LibraryBuilder::new(strategy, 5).with_warm_from(&donor));
        assert_ne!(cold, warm, "warm and cold builds must differ for this test to tell them apart");

        // `Library::load` tolerates a stray line; a frozen donor may not
        let grid = FleetJob::grid(&kernels, &["x86".to_string()], strategy, 5).unwrap();
        for (tag, tail, want) in [("clean", "", &warm), ("stray", "stray\n", &cold)] {
            let dir = tmpdir(&format!("warm-{tag}"));
            let fleet = FleetDir::open(&dir);
            fleet.init(&grid).unwrap();
            assert!(fleet.set_warm_from(&donor).unwrap());
            let text = std::fs::read_to_string(fleet.warm_path()).unwrap();
            std::fs::write(fleet.warm_path(), format!("{text}{tail}")).unwrap();
            run_fleet(&fleet, 1, &WorkerConfig::new(""), &FaultPlan::none()).unwrap();
            assert_eq!(&fleet.merge().unwrap().library.to_text(), want, "{tag} donor");
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn worker_counts_do_not_change_the_merged_bytes() {
        let labels = ["softmax", "matmul", "relu", "reducemean"];
        let run = |n: usize, tag: &str| {
            let dir = tmpdir(tag);
            let fleet = FleetDir::open(&dir);
            fleet.init(&jobs(&labels, Strategy::Anneal { budget: 10 }, 7)).unwrap();
            let report = run_fleet(&fleet, n, &WorkerConfig::new(""), &FaultPlan::none()).unwrap();
            assert!(report.drained, "{n} workers failed to drain");
            let text = fleet.merge().unwrap().library.to_text();
            std::fs::remove_dir_all(&dir).unwrap();
            text
        };
        let one = run(1, "wc1");
        assert!(!one.is_empty());
        assert_eq!(one, run(3, "wc3"), "1 vs 3 workers diverged");
    }

    #[test]
    fn status_tracks_the_job_lifecycle() {
        let dir = tmpdir("status");
        let fleet = FleetDir::open(&dir);
        let js = jobs(&["softmax", "matmul"], Strategy::Heuristic, 3);
        fleet.init(&js).unwrap();
        let status = |pending, running, done| FleetStatus { total: 2, pending, running, done };
        assert_eq!(fleet.status().unwrap(), status(2, 0, 0));
        let id = js[0].id();
        let held = fleet.try_claim(&id).unwrap().unwrap();
        assert_eq!(fleet.status().unwrap(), status(1, 1, 0));
        // init on a live fleet rewrites the manifest and nothing else
        fleet.init(&js).unwrap();
        assert_eq!(fleet.status().unwrap(), status(1, 1, 0));
        // a dropped lock is a pending job; a valid part is a done one
        drop(held);
        assert_eq!(fleet.status().unwrap(), status(2, 0, 0));
        fleet.write_part(&id, 0, &Library::new()).unwrap();
        assert_eq!(fleet.status().unwrap(), status(1, 0, 1));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_manifest_fails_instead_of_shrinking_the_fleet() {
        let dir = tmpdir("manifest");
        let fleet = FleetDir::open(&dir);
        assert!(fleet.manifest().is_err(), "a fleet without a manifest has no job list");
        fleet.init(&jobs(&["softmax", "relu"], Strategy::Heuristic, 3)).unwrap();
        let path = dir.join("jobs.list");
        let text = std::fs::read_to_string(&path).unwrap();
        let garbled =
            text.replacen("label softmax\ndims 64x64", "label softmax\ndims 1x?x64x64", 1);
        assert_ne!(garbled, text);
        std::fs::write(&path, garbled).unwrap();
        assert!(fleet.status().is_err());
        assert!(run_fleet(&fleet, 1, &WorkerConfig::new(""), &FaultPlan::none()).is_err());
        assert!(fleet.merge().is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reinit_under_another_strategy_resumes_no_foreign_checkpoint() {
        // an anneal worker pauses with its search state in the job's
        // checkpoint; the kernel re-initialized under PerfLLM is another
        // job, which tunes from nothing instead of loading that state
        let dir = tmpdir("reinit-ckpt");
        let fleet = FleetDir::open(&dir);
        let anneal = jobs(&["softmax"], Strategy::Anneal { budget: 40 }, 5);
        fleet.init(&anneal).unwrap();
        let cfg = WorkerConfig { slice_steps: 4, step_limit: Some(4), ..WorkerConfig::new("w0") };
        assert_eq!(run_worker(&fleet, &cfg, &FaultPlan::none()).unwrap().exit, WorkerExit::Paused);
        assert!(fleet.ckpt_path(&anneal[0].id()).join("inflight.ckpt").exists());
        let perfllm = jobs(&["softmax"], Strategy::PerfLlm { episodes: 1 }, 5);
        assert_eq!(fleet.init(&perfllm).unwrap(), Vec::<String>::new(), "no lock is held");
        let report = run_worker(&fleet, &WorkerConfig::new("w1"), &FaultPlan::none()).unwrap();
        assert_eq!(report.exit, WorkerExit::Drained);
        assert!(fleet.merge().unwrap().unfinished.is_empty());
        // the re-init removed the anneal job's lock and checkpoint
        let id = perfllm[0].id();
        let files = job_files(&dir);
        assert!(files.contains(&format!("parts/{id}.part")), "{files:?}");
        assert!(files.iter().all(|f| f.contains(&id)), "a dropped job's file remains: {files:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Every path under the fleet's `locks/`, `parts/` and `ckpt/`,
    /// relative to the root, sorted.
    fn job_files(root: &Path) -> Vec<String> {
        fn walk(root: &Path, dir: &Path, out: &mut Vec<String>) {
            for entry in std::fs::read_dir(dir).unwrap() {
                let path = entry.unwrap().path();
                out.push(path.strip_prefix(root).unwrap().to_string_lossy().into_owned());
                if path.is_dir() {
                    walk(root, &path, out);
                }
            }
        }
        let mut out = Vec::new();
        for sub in ["locks", "parts", "ckpt"] {
            walk(root, &root.join(sub), &mut out);
        }
        out.sort();
        out
    }

    #[test]
    fn reinit_keeps_a_dropped_job_while_its_lock_is_held() {
        let dir = tmpdir("reinit-held");
        let fleet = FleetDir::open(&dir);
        let old = jobs(&["softmax"], Strategy::Heuristic, 3);
        fleet.init(&old).unwrap();
        let id = old[0].id();
        let lock = fleet.try_claim(&id).unwrap().expect("free job claimable");
        fleet.write_part(&id, 0, &Library::new()).unwrap();
        let new = jobs(&["relu"], Strategy::Heuristic, 3);
        assert_eq!(fleet.init(&new).unwrap(), vec![id.clone()]);
        assert!(fleet.lock_path(&id).exists() && fleet.part_path(&id).exists());
        // once its worker lets go, the next init removes it
        drop(lock);
        assert_eq!(fleet.init(&new).unwrap(), Vec::<String>::new());
        assert_eq!(job_files(&dir), Vec::<String>::new());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reinit_under_another_strategy_and_seed_reuses_no_part() {
        // a drained heuristic fleet re-initialized as anneal at another
        // seed has nothing done: its merge is the new grid's plain build,
        // not the old parts
        let dir = tmpdir("reinit-part");
        let fleet = FleetDir::open(&dir);
        let labels = ["softmax", "relu"];
        let drain = |fleet: &FleetDir| {
            run_fleet(fleet, 1, &WorkerConfig::new(""), &FaultPlan::none()).unwrap().drained
        };
        fleet.init(&jobs(&labels, Strategy::Heuristic, 5)).unwrap();
        assert!(drain(&fleet));
        let strategy = Strategy::Anneal { budget: 12 };
        fleet.init(&jobs(&labels, strategy, 9)).unwrap();
        assert_eq!(fleet.status().unwrap().done, 0, "the old grid's parts count as done");
        assert!(drain(&fleet));
        let mut plain = Library::new();
        let kernels = kernels(&labels);
        LibraryBuilder::new(strategy, 9).build_into(&mut plain, &kernels, &[Target::x86()]);
        assert_eq!(fleet.merge().unwrap().library.to_text(), plain.to_text());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_worker_counts_the_steps_its_slices_ran() {
        // a heuristic job is one step, however large the slice it runs in
        let labels = ["softmax", "relu", "matmul", "add"];
        for (tag, step_limit) in [("steps", None), ("steps-limit", Some(10))] {
            let dir = tmpdir(tag);
            let fleet = FleetDir::open(&dir);
            fleet.init(&jobs(&labels, Strategy::Heuristic, 3)).unwrap();
            let cfg = WorkerConfig { step_limit, ..WorkerConfig::new("w0") };
            let report = run_worker(&fleet, &cfg, &FaultPlan::none()).unwrap();
            assert_eq!(report.exit, WorkerExit::Drained, "{tag}");
            assert_eq!((report.jobs_done.len(), report.steps), (4, 4), "{tag}");
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn paused_worker_releases_its_claim() {
        let dir = tmpdir("pause");
        let fleet = FleetDir::open(&dir);
        fleet.init(&jobs(&["softmax"], Strategy::Anneal { budget: 40 }, 5)).unwrap();
        let cfg = WorkerConfig {
            slice_steps: 4,
            step_limit: Some(4),
            ..WorkerConfig::new("w0")
        };
        let report = run_worker(&fleet, &cfg, &FaultPlan::none()).unwrap();
        assert_eq!(report.exit, WorkerExit::Paused);
        let s = fleet.status().unwrap();
        assert_eq!((s.pending, s.running), (1, 0), "pause must hand the job back");
        // a fresh unlimited worker finishes from the checkpoint
        let report = run_worker(&fleet, &WorkerConfig::new("w1"), &FaultPlan::none()).unwrap();
        assert_eq!(report.exit, WorkerExit::Drained);
        assert!(fleet.merge().unwrap().unfinished.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
