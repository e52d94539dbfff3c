//! Transformation-walk driver with a layered differential oracle.
//!
//! A walk starts from a generated program, repeatedly picks a random action
//! out of [`available_actions`] (the exact action space the Dojo search
//! explores), applies it, and checks after **every** step:
//!
//! 1. the transformed program still validates,
//! 2. its interpreter outputs match the untransformed reference
//!    ([`perfdojo_interp::values_match`] — bit-exact integers, ULP-bounded
//!    floats),
//! 3. executing its lowered virtual ISA reproduces its interpreter
//!    bit-for-bit ([`perfdojo_interp::values_match_exact`]).
//!
//! [`check_case`] replays a fixed `(program, actions)` pair through the same
//! oracle — it is the failure predicate the shrinker minimizes against and
//! the corpus regression tests replay.
//!
//! [`Sabotage`] deliberately mis-applies a transformation (test-only) to
//! prove the oracle catches real applicability bugs end to end.

use crate::exec::execute_lowered;
use perfdojo_codegen::lower;
use perfdojo_interp::{execute, first_mismatch, random_inputs, Tensor};
use perfdojo_ir::{validate, Node, Program, ScopeSize};
use perfdojo_transform::{available_actions, Action, Loc, Transform, TransformLibrary};
use perfdojo_util::rng::Rng;
use std::collections::HashMap;
use std::fmt;

/// A confirmed oracle violation. `step` is the 0-based index into the
/// action sequence; base-program failures (before any action) carry `None`.
#[derive(Clone, Debug, PartialEq)]
pub enum Finding {
    /// An action advertised by `available_actions` refused to apply.
    ApplyRejected {
        step: usize,
        action: String,
        error: String,
    },
    /// The transformed program no longer validates.
    ValidateFailed {
        step: usize,
        action: String,
        error: String,
    },
    /// The interpreter failed on the (base or transformed) program.
    InterpFailed {
        step: Option<usize>,
        action: Option<String>,
        error: String,
    },
    /// Transformed interpreter output diverged from the reference.
    InterpMismatch {
        step: usize,
        action: String,
        array: String,
        index: usize,
        reference: f64,
        transformed: f64,
    },
    /// Lowering or lowered execution failed.
    CodegenFailed {
        step: Option<usize>,
        action: Option<String>,
        error: String,
    },
    /// Lowered-ISA execution diverged from the interpreter (bit-exact).
    CodegenMismatch {
        step: Option<usize>,
        action: Option<String>,
        array: String,
        index: usize,
        interp: f64,
        lowered: f64,
    },
}

impl Finding {
    /// Stable category tag: the shrinker only accepts candidates that fail
    /// the same way, so it cannot drift onto an unrelated (boring) failure.
    pub fn kind(&self) -> &'static str {
        match self {
            Finding::ApplyRejected { .. } => "apply-rejected",
            Finding::ValidateFailed { .. } => "validate-failed",
            Finding::InterpFailed { .. } => "interp-failed",
            Finding::InterpMismatch { .. } => "interp-mismatch",
            Finding::CodegenFailed { .. } => "codegen-failed",
            Finding::CodegenMismatch { .. } => "codegen-mismatch",
        }
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn at(f: &mut fmt::Formatter<'_>, step: &Option<usize>, action: &Option<String>) -> fmt::Result {
            match (step, action) {
                (Some(s), Some(a)) => write!(f, " after step {s} ({a})"),
                _ => write!(f, " on the base program"),
            }
        }
        match self {
            Finding::ApplyRejected { step, action, error } => {
                write!(f, "apply-rejected: advertised action {action} (step {step}) refused: {error}")
            }
            Finding::ValidateFailed { step, action, error } => {
                write!(f, "validate-failed after step {step} ({action}): {error}")
            }
            Finding::InterpFailed { step, action, error } => {
                write!(f, "interp-failed")?;
                at(f, step, action)?;
                write!(f, ": {error}")
            }
            Finding::InterpMismatch { step, action, array, index, reference, transformed } => {
                write!(
                    f,
                    "interp-mismatch after step {step} ({action}): {array}[{index}] = {transformed:?}, reference {reference:?}"
                )
            }
            Finding::CodegenFailed { step, action, error } => {
                write!(f, "codegen-failed")?;
                at(f, step, action)?;
                write!(f, ": {error}")
            }
            Finding::CodegenMismatch { step, action, array, index, interp, lowered } => {
                write!(f, "codegen-mismatch")?;
                at(f, step, action)?;
                write!(
                    f,
                    ": {array}[{index}] lowered {lowered:?}, interpreter {interp:?}"
                )
            }
        }
    }
}

/// Deliberate, test-only mis-application of a transformation, injected
/// *after* a legitimate apply. Used to prove the differential oracle and the
/// shrinker catch real bugs (acceptance: the broken transform must be caught
/// and shrunk to a small reproducer).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Sabotage {
    /// After `split_scope`, shorten the new inner scope's trip by one —
    /// exactly the classic remainder-handling bug; later iterations go
    /// unwritten and the NaN poison surfaces in the differential.
    TruncateSplit,
}

impl Sabotage {
    /// Parse a CLI name.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "truncate-split" => Some(Sabotage::TruncateSplit),
            _ => None,
        }
    }

    /// CLI name.
    pub fn name(self) -> &'static str {
        match self {
            Sabotage::TruncateSplit => "truncate-split",
        }
    }

    /// Corrupt `p` in place as if `action` had been implemented wrongly.
    fn inject(self, p: &mut Program, action: &Action) {
        match self {
            Sabotage::TruncateSplit => {
                let (Transform::SplitScope { .. }, Loc::Node(path)) =
                    (&action.transform, &action.loc)
                else {
                    return;
                };
                // After the split, `path` is the outer scope; its first
                // child is the freshly created inner scope.
                let Some(Node::Scope(outer)) = p.node_mut(path) else { return };
                let Some(Node::Scope(inner)) = outer.children_mut().first_mut() else { return };
                if let ScopeSize::Const(n) = inner.size {
                    if n >= 2 {
                        inner.size = ScopeSize::Const(n - 1);
                    }
                }
            }
        }
    }
}

/// How a walk / replay checks each step.
#[derive(Clone, Debug)]
pub struct CheckConfig {
    /// Seed for the random input tensors (shared by every oracle).
    pub input_seed: u64,
    /// Run the codegen differential in addition to the interpreter one.
    pub check_codegen: bool,
    /// Optional deliberate transform bug (test-only).
    pub sabotage: Option<Sabotage>,
}

impl Default for CheckConfig {
    fn default() -> Self {
        CheckConfig { input_seed: 0, check_codegen: true, sabotage: None }
    }
}

/// Reference state shared across all steps of one walk/replay: the inputs
/// and the untransformed program's interpreter outputs.
struct Oracle {
    inputs: HashMap<String, Tensor>,
    reference: HashMap<String, Tensor>,
}

impl Oracle {
    fn new(base: &Program, cfg: &CheckConfig) -> Result<Oracle, Finding> {
        let inputs = random_inputs(base, cfg.input_seed);
        let reference = execute(base, &inputs).map_err(|e| Finding::InterpFailed {
            step: None,
            action: None,
            error: e.to_string(),
        })?;
        let oracle = Oracle { inputs, reference };
        if cfg.check_codegen {
            if let Some(f) = oracle.codegen_diff(base, &oracle.reference, None, None) {
                return Err(f);
            }
        }
        Ok(oracle)
    }

    /// Lowered-ISA execution must reproduce the interpreter bit-for-bit.
    fn codegen_diff(
        &self,
        q: &Program,
        interp_out: &HashMap<String, Tensor>,
        step: Option<usize>,
        action: Option<&Action>,
    ) -> Option<Finding> {
        let action_s = action.map(|a| a.to_string());
        let fail = |error: String| Finding::CodegenFailed {
            step,
            action: action_s.clone(),
            error,
        };
        let k = match lower(q) {
            Ok(k) => k,
            Err(e) => return Some(fail(format!("lower: {e}"))),
        };
        let lowered = match execute_lowered(q, &k, &self.inputs) {
            Ok(o) => o,
            Err(e) => return Some(fail(format!("lowered execution: {e}"))),
        };
        for (name, r) in interp_out {
            if let Some((index, interp, low)) = first_mismatch(r, &lowered[name], true) {
                return Some(Finding::CodegenMismatch {
                    step,
                    action: action_s,
                    array: name.clone(),
                    index,
                    interp,
                    lowered: low,
                });
            }
        }
        None
    }

    /// All per-step checks on a freshly transformed program.
    fn step_check(&self, q: &Program, step: usize, action: &Action, cfg: &CheckConfig) -> Option<Finding> {
        if let Err(e) = validate(q) {
            return Some(Finding::ValidateFailed {
                step,
                action: action.to_string(),
                error: e.to_string(),
            });
        }
        let out = match execute(q, &self.inputs) {
            Ok(o) => o,
            Err(e) => {
                return Some(Finding::InterpFailed {
                    step: Some(step),
                    action: Some(action.to_string()),
                    error: e.to_string(),
                })
            }
        };
        for (name, r) in &self.reference {
            if let Some((index, reference, transformed)) = first_mismatch(r, &out[name], false) {
                return Some(Finding::InterpMismatch {
                    step,
                    action: action.to_string(),
                    array: name.clone(),
                    index,
                    reference,
                    transformed,
                });
            }
        }
        if cfg.check_codegen {
            return self.codegen_diff(q, &out, Some(step), Some(action));
        }
        None
    }
}

fn apply_with_sabotage(p: &Program, action: &Action, cfg: &CheckConfig) -> Result<Program, String> {
    let mut q = action.apply(p).map_err(|e| e.to_string())?;
    if let Some(s) = cfg.sabotage {
        s.inject(&mut q, action);
    }
    Ok(q)
}

/// Replay a fixed `(program, actions)` case through the full oracle.
/// Returns the first finding, or `None` if the whole sequence is clean.
/// This is the shrinker's failure predicate and the corpus replay check.
pub fn check_case(base: &Program, actions: &[Action], cfg: &CheckConfig) -> Option<Finding> {
    let oracle = match Oracle::new(base, cfg) {
        Ok(o) => o,
        Err(f) => return Some(f),
    };
    let mut cur = base.clone();
    for (step, action) in actions.iter().enumerate() {
        match apply_with_sabotage(&cur, action, cfg) {
            Err(error) => {
                return Some(Finding::ApplyRejected {
                    step,
                    action: action.to_string(),
                    error,
                })
            }
            Ok(q) => {
                if let Some(f) = oracle.step_check(&q, step, action, cfg) {
                    return Some(f);
                }
                cur = q;
            }
        }
    }
    None
}

/// Result of one random walk.
#[derive(Clone, Debug)]
pub struct WalkOutcome {
    /// Actions chosen, in order (including the one that triggered a finding).
    pub actions: Vec<Action>,
    /// Number of actions that applied and passed all checks.
    pub applied: usize,
    /// First oracle violation, if any.
    pub finding: Option<Finding>,
}

/// Random transformation walk: up to `steps` actions drawn uniformly from
/// `available_actions`, each differentially checked against the base.
pub fn walk(
    base: &Program,
    lib: &TransformLibrary,
    steps: usize,
    rng: &mut Rng,
    cfg: &CheckConfig,
) -> WalkOutcome {
    let oracle = match Oracle::new(base, cfg) {
        Ok(o) => o,
        Err(f) => return WalkOutcome { actions: Vec::new(), applied: 0, finding: Some(f) },
    };
    let mut cur = base.clone();
    let mut actions: Vec<Action> = Vec::new();
    for step in 0..steps {
        let avail = available_actions(&cur, lib);
        let Some(action) = rng.choose(&avail).cloned() else { break };
        actions.push(action.clone());
        match apply_with_sabotage(&cur, &action, cfg) {
            Err(error) => {
                // available_actions advertised it, so a refusal is a bug in
                // the applicability detection itself.
                let finding = Finding::ApplyRejected {
                    step,
                    action: action.to_string(),
                    error,
                };
                return WalkOutcome { actions, applied: step, finding: Some(finding) };
            }
            Ok(q) => {
                if let Some(f) = oracle.step_check(&q, step, &action, cfg) {
                    return WalkOutcome { actions, applied: step, finding: Some(f) };
                }
                cur = q;
            }
        }
    }
    WalkOutcome { applied: actions.len(), actions, finding: None }
}

/// The transform library a CLI target name denotes.
pub fn library_by_name(name: &str) -> Option<TransformLibrary> {
    match name {
        "cpu" => Some(TransformLibrary::cpu(4)),
        "gpu" => Some(TransformLibrary::gpu(32)),
        "snitch" => Some(TransformLibrary::snitch()),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{gen_program, GenConfig};

    fn small_cfg() -> GenConfig {
        GenConfig { max_dims: 2, max_trip: 6, max_stages: 2, ..GenConfig::default() }
    }

    #[test]
    fn clean_walks_find_nothing() {
        let lib = library_by_name("cpu").unwrap();
        let cfg = CheckConfig::default();
        for seed in 0..40u64 {
            let mut rng = Rng::seed_from_u64(seed);
            let p = gen_program(&mut rng, &small_cfg(), &format!("w{seed}"));
            let out = walk(&p, &lib, 6, &mut rng, &cfg);
            assert!(
                out.finding.is_none(),
                "seed {seed}: unexpected finding {:?}\nactions: {:?}\n{}",
                out.finding,
                out.actions.iter().map(|a| a.to_string()).collect::<Vec<_>>(),
                perfdojo_ir::text::print_program(&p)
            );
        }
    }

    #[test]
    fn walks_are_deterministic() {
        let lib = library_by_name("cpu").unwrap();
        let cfg = CheckConfig::default();
        let run = |seed: u64| {
            let mut rng = Rng::seed_from_u64(seed);
            let p = gen_program(&mut rng, &small_cfg(), "w");
            let out = walk(&p, &lib, 6, &mut rng, &cfg);
            (out.actions.iter().map(|a| a.to_string()).collect::<Vec<_>>(), out.applied)
        };
        assert_eq!(run(11), run(11));
    }

    #[test]
    fn sabotage_is_caught_by_the_interpreter_differential() {
        let lib = library_by_name("cpu").unwrap();
        let cfg = CheckConfig { sabotage: Some(Sabotage::TruncateSplit), ..CheckConfig::default() };
        let mut caught = 0u32;
        let mut splits_seen = 0u32;
        for seed in 0..60u64 {
            let mut rng = Rng::seed_from_u64(seed);
            let p = gen_program(&mut rng, &small_cfg(), "s");
            let out = walk(&p, &lib, 8, &mut rng, &cfg);
            let split_hit = out
                .actions
                .iter()
                .any(|a| matches!(a.transform, Transform::SplitScope { .. }));
            splits_seen += split_hit as u32;
            if let Some(f) = &out.finding {
                assert!(
                    matches!(f, Finding::InterpMismatch { .. } | Finding::ValidateFailed { .. }),
                    "seed {seed}: unexpected finding class {f}"
                );
                caught += 1;
            }
        }
        assert!(splits_seen > 0, "no walk ever chose split_scope");
        assert!(caught > 0, "sabotaged split never caught");
    }

    #[test]
    fn check_case_replays_walk_findings() {
        // Whatever a sabotaged walk finds, replaying its action list through
        // check_case with the same config must find the same kind.
        let lib = library_by_name("cpu").unwrap();
        let cfg = CheckConfig { sabotage: Some(Sabotage::TruncateSplit), ..CheckConfig::default() };
        for seed in 0..60u64 {
            let mut rng = Rng::seed_from_u64(seed);
            let p = gen_program(&mut rng, &small_cfg(), "r");
            let out = walk(&p, &lib, 8, &mut rng, &cfg);
            if let Some(f) = out.finding {
                let replayed = check_case(&p, &out.actions, &cfg)
                    .expect("walk finding must reproduce under check_case");
                assert_eq!(replayed.kind(), f.kind());
                return;
            }
        }
        panic!("no sabotaged walk produced a finding in 60 seeds");
    }
}
