//! Cross-shape schedule generalization: parameterized schedules fit over a
//! kernel family's tuned records (the paper's transfer story).
//!
//! A *family* is every record sharing `(structure, dtype, target,
//! shape-arity)` — the same operator tuned at different shapes. From a
//! family with at least two records we fit a [`ParamSchedule`]: the
//! best-speedup member donates its action skeleton, and each integer
//! transformation parameter (tile/split factors, vector widths, pad
//! alignments) becomes a simple function of the shape — a constant when
//! the family agrees, or `round(scale · shape[dim])` when the values track
//! one dimension within a log-space residual bound. Materializing the
//! schedule at a query shape yields a concrete action sequence in
//! microseconds, with no search.
//!
//! The fit feeds two consumers:
//!
//! - **Dispatch** — a tier between exact-hit and nearest-shape replay
//!   (`Disposition::Parameterized` in [`crate::dispatch`]), re-validated
//!   and numerically verified like every tier.
//! - **Warm-started search** — tune-misses and fleet jobs hand the
//!   materialized sequence to `anneal`/`random_sampling`/PerfLLM as a
//!   starting point instead of the empty program (see
//!   `LibraryBuilder::with_warm_from`).
//!
//! When the family has fewer than two records, or a parameter's best
//! single-dimension fit exceeds [`RESIDUAL_LIMIT`], no schedule is fit and
//! dispatch falls through to nearest-shape replay — exactly the behavior
//! before this layer existed.

use crate::format::ScheduleRecord;
use crate::library::{current_model_version, Library};
use crate::sig::KernelSig;
use perfdojo_transform::{Action, Transform};

/// Largest acceptable per-parameter fit residual, in log space:
/// `max_r |ln(predicted_r / observed_r)|` over the fit support. ln 2 —
/// a fit that misses any support value by more than 2x is no fit.
pub const RESIDUAL_LIMIT: f64 = std::f64::consts::LN_2;

/// The integer parameter a transform carries, if it is one of the
/// shape-tunable kinds (split tiles, vector width, pad alignment).
pub fn param_of(t: &Transform) -> Option<usize> {
    match t {
        Transform::SplitScope { tile } => Some(*tile),
        Transform::SplitReduction { tile } => Some(*tile),
        Transform::Vectorize { width } => Some(*width),
        Transform::PadDim { align } => Some(*align),
        _ => None,
    }
}

/// The same transform with its integer parameter replaced by `v`.
/// Identity for non-parameterized kinds.
pub fn with_param(t: &Transform, v: usize) -> Transform {
    match t {
        Transform::SplitScope { .. } => Transform::SplitScope { tile: v },
        Transform::SplitReduction { .. } => Transform::SplitReduction { tile: v },
        Transform::Vectorize { .. } => Transform::Vectorize { width: v },
        Transform::PadDim { .. } => Transform::PadDim { align: v },
        other => other.clone(),
    }
}

/// A fitted integer parameter as a function of the query shape.
#[derive(Clone, Debug, PartialEq)]
pub enum ParamFn {
    /// The family agrees on one value (or only the donor constrains it).
    Fixed(usize),
    /// `round(scale · shape[dim])`, clamped to at least 1.
    Linear {
        /// Index into the flattened signature shape.
        dim: usize,
        /// Multiplier fitted as the geometric mean of `value/shape[dim]`.
        scale: f64,
    },
}

impl ParamFn {
    /// Evaluate at a query shape. Out-of-range dims (impossible for
    /// schedules fit and queried at the same arity) fall back to 1.
    pub fn eval(&self, shape: &[usize]) -> usize {
        match self {
            ParamFn::Fixed(v) => (*v).max(1),
            ParamFn::Linear { dim, scale } => {
                let s = shape.get(*dim).copied().unwrap_or(1) as f64;
                let v = (scale * s).round();
                if v.is_finite() && v >= 1.0 { v as usize } else { 1 }
            }
        }
    }
}

/// One step of a parameterized schedule: the donor's action, plus the
/// fitted parameter model when the action's transform is tunable.
#[derive(Clone, Debug, PartialEq)]
pub struct ParamStep {
    /// Donor action (its own parameter is the `Fixed` fallback value).
    pub action: Action,
    /// `None` for non-parameterized transforms: the action materializes
    /// verbatim.
    pub param: Option<ParamFn>,
}

/// A parameterized schedule for one kernel family.
#[derive(Clone, Debug, PartialEq)]
pub struct ParamSchedule {
    /// Structural fingerprint shared by the family.
    pub structure: u64,
    /// Flattened-shape arity shared by the family.
    pub arity: usize,
    /// Element-type string shared by the family.
    pub dtype: String,
    /// Target name shared by the family.
    pub target: String,
    /// Signature key of the donor record (best speedup, ties to the
    /// smaller key).
    pub donor: String,
    /// Number of records whose step skeleton matched the donor's (the fit
    /// support, donor included).
    pub support: usize,
    /// Largest per-parameter log residual across all fitted steps.
    pub residual: f64,
    /// The schedule skeleton with per-step parameter models.
    pub steps: Vec<ParamStep>,
}

impl ParamSchedule {
    /// Materialize a concrete action sequence for a query shape.
    pub fn materialize(&self, shape: &[usize]) -> Vec<Action> {
        self.steps
            .iter()
            .map(|s| match &s.param {
                None => s.action.clone(),
                Some(f) => Action {
                    transform: with_param(&s.action.transform, f.eval(shape)),
                    loc: s.action.loc.clone(),
                },
            })
            .collect()
    }
}

/// Two actions share a skeleton slot when they are the same transform kind
/// at the same location — only the integer parameter may differ.
fn skeleton_eq(a: &Action, b: &Action) -> bool {
    a.loc == b.loc && with_param(&a.transform, 1) == with_param(&b.transform, 1)
}

fn speedup(r: &ScheduleRecord) -> f64 {
    r.naive_cost / r.cost
}

/// Fit one integer parameter over the support: `(values[i], shapes[i])`
/// pairs, all values ≥ 1. Returns the model and its log residual, or
/// `None` when no single dimension explains the values within
/// [`RESIDUAL_LIMIT`].
fn fit_param(values: &[usize], shapes: &[&[usize]]) -> Option<(ParamFn, f64)> {
    debug_assert_eq!(values.len(), shapes.len());
    if values.iter().all(|v| *v == values[0]) {
        return Some((ParamFn::Fixed(values[0]), 0.0));
    }
    // one dimension must explain the variation: for each dim, fit scale as
    // the geometric mean of value/shape[dim] and measure the worst
    // log-space miss; keep the best dim (ties to the smallest index)
    let arity = shapes[0].len();
    let mut best: Option<(usize, f64, f64)> = None; // (dim, scale, residual)
    for dim in 0..arity {
        if shapes.iter().any(|s| s[dim] == 0) {
            continue;
        }
        let mean_log: f64 = values
            .iter()
            .zip(shapes)
            .map(|(&v, s)| (v as f64 / s[dim] as f64).ln())
            .sum::<f64>()
            / values.len() as f64;
        let scale = mean_log.exp();
        let residual = values
            .iter()
            .zip(shapes)
            .map(|(&v, s)| (scale * s[dim] as f64 / v as f64).ln().abs())
            .fold(0.0f64, f64::max);
        match best {
            Some((_, _, br)) if br <= residual => {}
            _ => best = Some((dim, scale, residual)),
        }
    }
    let (dim, scale, residual) = best?;
    if residual > RESIDUAL_LIMIT {
        return None;
    }
    Some((ParamFn::Linear { dim, scale }, residual))
}

/// Fit a parameterized schedule over one family's records.
///
/// `records` must all share `(structure, dtype, target, arity)` and carry
/// non-empty step sequences; iteration order must be deterministic (the
/// library's key order). Returns `None` when the family has fewer than two
/// records or any parameter's fit residual is poor.
pub fn fit_family(records: &[&ScheduleRecord]) -> Option<ParamSchedule> {
    if records.len() < 2 {
        return None;
    }
    // donor: best speedup, ties broken by the smaller signature key
    let mut donor = records[0];
    for r in &records[1..] {
        let better = speedup(r) > speedup(donor)
            || (speedup(r) == speedup(donor) && r.sig.key() < donor.sig.key());
        if better {
            donor = r;
        }
    }
    // support: members whose step skeleton matches the donor's exactly
    let support: Vec<&&ScheduleRecord> = records
        .iter()
        .filter(|r| {
            r.steps.len() == donor.steps.len()
                && r.steps.iter().zip(&donor.steps).all(|(a, b)| skeleton_eq(a, b))
        })
        .collect();
    let shapes: Vec<&[usize]> = support.iter().map(|r| r.sig.shape.as_slice()).collect();

    let mut residual = 0.0f64;
    let mut steps = Vec::with_capacity(donor.steps.len());
    for (i, a) in donor.steps.iter().enumerate() {
        let param = match param_of(&a.transform) {
            None => None,
            Some(donor_v) => {
                if support.len() < 2 {
                    // only the donor constrains this parameter
                    Some(ParamFn::Fixed(donor_v))
                } else {
                    let values: Vec<usize> = support
                        .iter()
                        .map(|r| param_of(&r.steps[i].transform).expect("skeleton-matched"))
                        .collect();
                    let (f, r) = fit_param(&values, &shapes)?;
                    residual = residual.max(r);
                    Some(f)
                }
            }
        };
        steps.push(ParamStep { action: a.clone(), param });
    }
    Some(ParamSchedule {
        structure: donor.sig.structure,
        arity: donor.sig.shape.len(),
        dtype: donor.sig.dtype.clone(),
        target: donor.sig.target.clone(),
        donor: donor.sig.key(),
        support: support.len(),
        residual,
        steps,
    })
}

/// Collect `sig`'s family from `lib` (current model version, non-empty
/// steps) and fit it. The exact-shape record, if present, participates in
/// the fit like any other member. The one way to fit a family: dispatch,
/// warm starts and the fleet's donor check all call it, and the fit is a
/// pure function of the library's contents, so it is never persisted.
pub fn fit_for(lib: &Library, sig: &KernelSig) -> Option<ParamSchedule> {
    let version = current_model_version();
    let fam: Vec<&ScheduleRecord> = lib
        .records()
        .filter(|r| {
            r.model_version == version
                && !r.steps.is_empty()
                && r.sig.structure == sig.structure
                && r.sig.dtype == sig.dtype
                && r.sig.target == sig.target
                && r.sig.shape.len() == sig.shape.len()
        })
        .collect();
    fit_family(&fam)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{LibraryBuilder, Strategy};
    use crate::format::Provenance;
    use perfdojo_core::Target;
    use perfdojo_kernels::KernelInstance;
    use perfdojo_transform::parse_action;

    fn record(cols: usize, cost: f64, steps: Vec<Action>) -> ScheduleRecord {
        ScheduleRecord {
            sig: KernelSig::of(&perfdojo_kernels::softmax(4, cols), "x86"),
            label: "softmax".into(),
            steps,
            cost,
            naive_cost: 1.0,
            model_version: current_model_version(),
            provenance: Provenance { strategy: "test".into(), seed: 0, budget: 1 },
        }
    }

    fn act(text: &str) -> Action {
        parse_action(text).expect("test action parses")
    }

    #[test]
    fn param_roundtrip_through_with_param() {
        let t = Transform::SplitScope { tile: 8 };
        assert_eq!(param_of(&t), Some(8));
        assert_eq!(param_of(&with_param(&t, 4)), Some(4));
        assert_eq!(param_of(&Transform::Unroll), None);
        assert_eq!(with_param(&Transform::Unroll, 4), Transform::Unroll);
    }

    #[test]
    fn fixed_fit_when_family_agrees() {
        let steps = vec![act("split_scope(8) @ @0")];
        let a = record(16, 0.5, steps.clone());
        let b = record(64, 0.4, steps);
        let ps = fit_family(&[&a, &b]).expect("family of two fits");
        assert_eq!(ps.support, 2);
        assert_eq!(ps.residual, 0.0);
        assert_eq!(ps.donor, b.sig.key(), "better speedup donates");
        assert_eq!(ps.steps[0].param, Some(ParamFn::Fixed(8)));
        // materializes to the donor's action at any shape
        let got = ps.materialize(&[4, 32, 4, 32, 4, 4]);
        assert_eq!(got, vec![act("split_scope(8) @ @0")]);
    }

    #[test]
    fn linear_fit_tracks_a_dimension() {
        // tiles 4 and 16 at cols 16 and 64: value = cols / 4 exactly.
        let a = record(16, 0.5, vec![act("split_scope(4) @ @0")]);
        let b = record(64, 0.5, vec![act("split_scope(16) @ @0")]);
        let ps = fit_family(&[&a, &b]).expect("linear family fits");
        assert!(ps.residual < 1e-9, "exact fit, residual {}", ps.residual);
        let Some(ParamFn::Linear { dim, scale }) = &ps.steps[0].param else {
            panic!("expected linear fit, got {:?}", ps.steps[0].param);
        };
        // softmax(4, c) flattens to [4, c, 4, c, 4, 4]: the first
        // cols-tracking dim is index 1
        assert_eq!(*dim, 1);
        assert!((scale - 0.25).abs() < 1e-12);
        // materializing at cols=32 yields tile 8
        let sig32 = KernelSig::of(&perfdojo_kernels::softmax(4, 32), "x86");
        assert_eq!(ps.materialize(&sig32.shape), vec![act("split_scope(8) @ @0")]);
    }

    #[test]
    fn poor_fit_yields_none() {
        // tiles 2 and 64 across cols 16 and 4096: the value ratio (32x) is
        // neither constant (residual ln sqrt(32) > ln 2) nor proportional to
        // the 256x cols ratio (residual ln sqrt(8) > ln 2)
        let a = record(16, 0.5, vec![act("split_scope(2) @ @0")]);
        let b = record(4096, 0.5, vec![act("split_scope(64) @ @0")]);
        assert!(fit_family(&[&a, &b]).is_none());
    }

    #[test]
    fn single_record_family_never_fits() {
        let a = record(16, 0.5, vec![act("split_scope(8) @ @0")]);
        assert!(fit_family(&[&a]).is_none());
        assert!(fit_family(&[]).is_none());
    }

    #[test]
    fn mismatched_skeleton_falls_back_to_donor_constants() {
        let a = record(16, 0.5, vec![act("split_scope(8) @ @0")]);
        let b = record(64, 0.25, vec![act("split_scope(4) @ @0"), act("vectorize(8) @ @0")]);
        let ps = fit_family(&[&a, &b]).expect("family of two fits");
        // the donor (b, better speedup) has a skeleton a doesn't share:
        // support collapses to the donor and params freeze at its values
        assert_eq!(ps.support, 1);
        assert_eq!(ps.donor, b.sig.key());
        assert_eq!(ps.steps.len(), 2);
        assert_eq!(ps.steps[0].param, Some(ParamFn::Fixed(4)));
    }

    #[test]
    fn index_over_tuned_library_materializes_for_unseen_shapes() {
        let target = Target::x86();
        let kernels: Vec<_> = perfdojo_kernels::tune_suite()
            .into_iter()
            .filter(|k| k.label.starts_with("layernorm"))
            .collect();
        assert_eq!(kernels.len(), 2, "layernorm family has two tuned shapes");
        let mut lib = Library::new();
        LibraryBuilder::new(Strategy::Heuristic, 3).build_into(
            &mut lib,
            &kernels,
            std::slice::from_ref(&target),
        );
        // both tuned shapes fit the one family, to the same schedule
        let fits: Vec<ParamSchedule> =
            lib.records().map(|r| fit_for(&lib, &r.sig).expect("family fits")).collect();
        assert_eq!(fits.len(), 2);
        assert_eq!(fits[0], fits[1]);
        let unseen = perfdojo_kernels::by_label_with_shape("layernorm 1", &[96, 48]).unwrap();
        let sig = KernelSig::of(&unseen, &target.name);
        let ps = fit_for(&lib, &sig).expect("family covers the unseen shape");
        assert_eq!(ps, fits[0]);
        let steps = ps.materialize(&sig.shape);
        assert!(!steps.is_empty());
        // a builder warmed from the library starts the unseen shape there
        let unseen = KernelInstance::at("layernorm 1", &[96, 48], unseen);
        let builder = LibraryBuilder::new(Strategy::Heuristic, 3).with_warm_from(&lib);
        assert_eq!(builder.warm_steps(&unseen, &target), steps);
    }
}
