//! The in-memory schedule library: a versioned, keep-best map from
//! [`KernelSig`] keys to [`ScheduleRecord`]s, with load/save, merging, and
//! garbage collection.

use crate::format::{self, FormatError, LoadStats, ScheduleRecord};
use crate::sig::KernelSig;
use std::collections::BTreeMap;
use std::path::Path;

/// The model-version string stamped into every record tuned in this build:
/// combines the machine-model version and the IR text-format version. A
/// library entry whose recorded version differs is *stale* — its predicted
/// cost (or even its serialized edit text) may no longer mean what it did —
/// and is invalidated on merge/gc rather than served.
pub fn current_model_version() -> String {
    format!("m{}-t{}", perfdojo_machine::MODEL_VERSION, perfdojo_ir::text::FORMAT_VERSION)
}

/// Aggregate statistics over a library, for `perfdojo-lib stats`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LibraryStats {
    /// Total entries.
    pub entries: usize,
    /// Entries per target name, sorted.
    pub per_target: BTreeMap<String, usize>,
    /// Distinct operator structures.
    pub operators: usize,
    /// Entries whose model version is not [`current_model_version`].
    pub stale: usize,
    /// Geometric-mean predicted speedup (naive/tuned) over all entries.
    pub geomean_speedup: f64,
}

/// Outcome of merging new records into a library.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MergeReport {
    /// Records inserted into previously-empty slots.
    pub inserted: usize,
    /// Records that beat (replaced) an existing same-version entry.
    pub improved: usize,
    /// Records dropped because an existing entry was at least as good.
    pub kept_existing: usize,
    /// Existing stale-version entries overwritten regardless of cost.
    pub invalidated: usize,
    /// Incoming records rejected for carrying a non-current model version.
    pub rejected_stale: usize,
}

/// A persistent schedule library.
#[derive(Clone, Debug, Default)]
pub struct Library {
    /// Entries keyed by [`KernelSig::key`] (BTreeMap for deterministic
    /// serialization order).
    entries: BTreeMap<String, ScheduleRecord>,
}

impl Library {
    /// An empty library.
    pub fn new() -> Library {
        Library::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the library has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterate entries in key order.
    pub fn records(&self) -> impl Iterator<Item = &ScheduleRecord> {
        self.entries.values()
    }

    /// Exact-signature lookup.
    pub fn get(&self, sig: &KernelSig) -> Option<&ScheduleRecord> {
        self.entries.get(&sig.key())
    }

    /// The nearest same-operator record to `sig` (smallest
    /// [`KernelSig::shape_distance`]), excluding an exact match. Only
    /// current-model-version entries are candidates. Ties break toward the
    /// smaller key, keeping dispatch deterministic.
    pub fn nearest(&self, sig: &KernelSig) -> Option<(&ScheduleRecord, f64)> {
        let version = current_model_version();
        let mut best: Option<(&ScheduleRecord, f64)> = None;
        for r in self.entries.values() {
            if r.model_version != version || r.sig == *sig {
                continue;
            }
            let Some(d) = sig.shape_distance(&r.sig) else {
                continue;
            };
            // pinned total order (distance, then sig key), independent of
            // map iteration or insertion order
            let better = match &best {
                None => true,
                Some((b, bd)) => d < *bd || (d == *bd && r.sig.key() < b.sig.key()),
            };
            if better {
                best = Some((r, d));
            }
        }
        best
    }

    /// Merge `incoming` records keep-best under version check:
    ///
    /// - incoming records with a non-current model version are rejected;
    /// - an existing entry with a stale version is overwritten
    ///   unconditionally (invalidated);
    /// - otherwise the lower predicted cost wins, existing on ties.
    pub fn merge(&mut self, incoming: impl IntoIterator<Item = ScheduleRecord>) -> MergeReport {
        let version = current_model_version();
        let mut report = MergeReport::default();
        for rec in incoming {
            if rec.model_version != version {
                report.rejected_stale += 1;
                continue;
            }
            let key = rec.sig.key();
            match self.entries.get(&key) {
                None => {
                    report.inserted += 1;
                    self.entries.insert(key, rec);
                }
                Some(old) if old.model_version != version => {
                    report.invalidated += 1;
                    self.entries.insert(key, rec);
                }
                Some(old) if rec.cost < old.cost => {
                    report.improved += 1;
                    self.entries.insert(key, rec);
                }
                Some(_) => report.kept_existing += 1,
            }
        }
        report
    }

    /// Drop entries that are stale (wrong model version) or useless
    /// (predicted cost not below naive). Returns how many were removed.
    pub fn gc(&mut self) -> usize {
        let version = current_model_version();
        let before = self.entries.len();
        self.entries.retain(|_, r| r.model_version == version && r.cost < r.naive_cost);
        before - self.entries.len()
    }

    /// Compute aggregate statistics.
    pub fn stats(&self) -> LibraryStats {
        let version = current_model_version();
        let mut s = LibraryStats { entries: self.entries.len(), ..Default::default() };
        let mut structures = std::collections::BTreeSet::new();
        let mut log_sum = 0.0;
        for r in self.entries.values() {
            *s.per_target.entry(r.sig.target.clone()).or_insert(0) += 1;
            structures.insert(r.sig.structure);
            if r.model_version != version {
                s.stale += 1;
            }
            log_sum += r.speedup().ln();
        }
        s.operators = structures.len();
        s.geomean_speedup =
            if self.entries.is_empty() { 1.0 } else { (log_sum / self.entries.len() as f64).exp() };
        s
    }

    /// Serialize to the on-disk text form (entries in key order).
    pub fn to_text(&self) -> String {
        format::render(self.entries.values())
    }

    /// Atomically save to `path`.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        perfdojo_util::trace::atomic_write(path, &self.to_text())
    }

    /// Load from `path`, tolerating corrupt entry blocks (reported in
    /// [`LoadStats`]). Duplicate keys within one file keep the lower cost.
    pub fn load(path: &Path) -> Result<(Library, LoadStats), FormatError> {
        let text = std::fs::read_to_string(path)?;
        Library::from_text(&text)
    }

    /// Parse from text (see [`Library::load`]).
    pub fn from_text(text: &str) -> Result<(Library, LoadStats), FormatError> {
        let (records, stats) = format::parse(text)?;
        let mut lib = Library::new();
        for rec in records {
            let key = rec.sig.key();
            match lib.entries.get(&key) {
                Some(old) if old.cost <= rec.cost => {}
                _ => {
                    lib.entries.insert(key, rec);
                }
            }
        }
        Ok((lib, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::Provenance;

    fn record(cols: usize, cost: f64, version: &str) -> ScheduleRecord {
        ScheduleRecord {
            sig: KernelSig::of(&perfdojo_kernels::softmax(4, cols), "x86"),
            label: "softmax".into(),
            steps: Vec::new(),
            cost,
            naive_cost: cost * 2.0,
            model_version: version.into(),
            provenance: Provenance { strategy: "heuristic".into(), seed: 1, budget: 1 },
        }
    }

    #[test]
    fn merge_keeps_best() {
        let v = current_model_version();
        let mut lib = Library::new();
        let r1 = lib.merge([record(8, 2.0, &v)]);
        assert_eq!(r1.inserted, 1);
        // worse cost at the same key: kept existing
        let r2 = lib.merge([record(8, 3.0, &v)]);
        assert_eq!(r2.kept_existing, 1);
        assert_eq!(lib.records().next().unwrap().cost, 2.0);
        // better cost wins
        let r3 = lib.merge([record(8, 1.0, &v)]);
        assert_eq!(r3.improved, 1);
        assert_eq!(lib.records().next().unwrap().cost, 1.0);
        assert_eq!(lib.len(), 1);
    }

    #[test]
    fn stale_versions_invalidated_and_rejected() {
        let v = current_model_version();
        let mut lib = Library::new();
        // simulate an entry tuned under an older model: merge can't insert
        // it, so go through text round-trip
        let old = record(8, 0.5, "m0-t0");
        let (mut lib_old, _) = Library::from_text(&format::render([&old].into_iter())).unwrap();
        assert_eq!(lib_old.len(), 1);
        // an incoming *current* record overwrites the stale one even though
        // its cost is worse
        let rep = lib_old.merge([record(8, 2.0, &v)]);
        assert_eq!(rep.invalidated, 1);
        assert_eq!(lib_old.records().next().unwrap().cost, 2.0);
        // incoming stale records are rejected outright
        let rep = lib.merge([record(8, 0.1, "m0-t0")]);
        assert_eq!(rep.rejected_stale, 1);
        assert!(lib.is_empty());
    }

    #[test]
    fn gc_drops_stale_and_useless() {
        let v = current_model_version();
        let mut text_records = vec![record(8, 1.0, &v), record(16, 0.5, "m0-t0")];
        // an entry whose "tuned" cost equals naive: useless
        let mut useless = record(32, 4.0, &v);
        useless.naive_cost = 4.0;
        text_records.push(useless);
        let (mut lib, _) = Library::from_text(&format::render(text_records.iter())).unwrap();
        assert_eq!(lib.len(), 3);
        assert_eq!(lib.gc(), 2);
        assert_eq!(lib.len(), 1);
        assert_eq!(lib.records().next().unwrap().sig.shape, vec![4, 8, 4, 8, 4, 4]);
    }

    #[test]
    fn nearest_excludes_exact_and_breaks_ties_deterministically() {
        let v = current_model_version();
        let mut lib = Library::new();
        lib.merge([record(8, 1.0, &v), record(16, 1.0, &v), record(64, 1.0, &v)]);
        let q = KernelSig::of(&perfdojo_kernels::softmax(4, 16), "x86");
        let (r, d) = lib.nearest(&q).unwrap();
        // exact 4x16 entry exists but nearest() must skip it
        assert_ne!(r.sig, q);
        assert_eq!(r.sig.shape, vec![4, 8, 4, 8, 4, 4], "8 is nearer to 16 than 64");
        assert!(d > 0.0);
        // different target: nothing to fall back to
        let q_arm = KernelSig::of(&perfdojo_kernels::softmax(4, 16), "arm");
        assert!(lib.nearest(&q_arm).is_none());
    }

    #[test]
    fn nearest_equidistant_candidates_resolve_by_key_in_any_insertion_order() {
        let v = current_model_version();
        let q = KernelSig::of(&perfdojo_kernels::softmax(4, 16), "x86");
        // cols 8 and 32 are both one factor of two from 16: equal distance
        let a = record(8, 1.0, &v);
        let b = record(32, 1.0, &v);
        let da = q.shape_distance(&a.sig).unwrap();
        let db = q.shape_distance(&b.sig).unwrap();
        assert_eq!(da.to_bits(), db.to_bits(), "candidates must be exactly equidistant");
        let winner_key = a.sig.key().min(b.sig.key());
        for pair in [[a.clone(), b.clone()], [b, a]] {
            let mut lib = Library::new();
            lib.merge(pair);
            let (r, _) = lib.nearest(&q).unwrap();
            assert_eq!(r.sig.key(), winner_key, "tie must pin to the smaller key");
        }
    }

    #[test]
    fn stats_aggregate() {
        let v = current_model_version();
        let mut lib = Library::new();
        let mut other = ScheduleRecord {
            sig: KernelSig::of(&perfdojo_kernels::matmul(4, 6, 5), "gh200"),
            ..record(8, 1.0, &v)
        };
        other.cost = 1.0;
        other.naive_cost = 8.0;
        lib.merge([record(8, 1.0, &v), other]);
        let s = lib.stats();
        assert_eq!(s.entries, 2);
        assert_eq!(s.operators, 2);
        assert_eq!(s.per_target.get("x86"), Some(&1));
        assert_eq!(s.per_target.get("gh200"), Some(&1));
        assert_eq!(s.stale, 0);
        // geomean of speedups {2, 8} = 4
        assert!((s.geomean_speedup - 4.0).abs() < 1e-9);
    }

    #[test]
    fn save_load_roundtrip_via_disk() {
        let v = current_model_version();
        let mut lib = Library::new();
        lib.merge([record(8, 1.0, &v), record(16, 2.0, &v)]);
        let dir = std::env::temp_dir().join(format!("pdl-lib-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("lib.pdl");
        lib.save(&path).unwrap();
        let (back, stats) = Library::load(&path).unwrap();
        assert_eq!(stats, LoadStats::default());
        assert_eq!(back.to_text(), lib.to_text());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
