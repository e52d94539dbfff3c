//! Textual (de)serialization of actions.
//!
//! The schedule library (`perfdojo-library`) persists tuned schedules as
//! *edit sequences* — lists of `(transformation, location)` actions replayed
//! through [`crate::history`] — in a zero-dependency line-oriented format.
//! The canonical text of an action is exactly its `Display` form
//! (`split_scope(8) @ @0.1`, `set_location(stack) @ t`, `reuse_dims @ t#1`),
//! and this module provides the inverse: [`parse_action`],
//! [`parse_transform`] and [`parse_loc`]. Round-tripping is pinned by tests
//! over every transformation each target library ships.
//!
//! Checkpoints store action sequences as a `<key> <n>` line followed by
//! `n` `step <action>` lines, written by [`push_steps`] and read back
//! through the shared checkpoint cursor by [`parse_steps`].

use crate::layout::BufDimLoc;
use crate::{Action, Loc, Transform};
use perfdojo_ir::{Location, Path, ScopeKind};
use perfdojo_util::trace::Lines;

/// Parse the `Display` form of a [`Transform`]. Returns `None` on unknown
/// names or malformed parameters.
pub fn parse_transform(s: &str) -> Option<Transform> {
    // split "name(arg)" / "name"
    let (name, arg) = match s.find('(') {
        Some(i) => {
            let arg = s[i + 1..].strip_suffix(')')?;
            (&s[..i], Some(arg))
        }
        None => (s, None),
    };
    let usize_arg = || arg.and_then(|a| a.parse::<usize>().ok());
    Some(match name {
        "split_scope" => Transform::SplitScope { tile: usize_arg()? },
        "join_scopes" => Transform::JoinScopes,
        "fission_scope" => Transform::FissionScope,
        "interchange_scopes" => Transform::InterchangeScopes,
        "reorder_ops" => Transform::ReorderOps,
        "split_reduction" => Transform::SplitReduction { tile: usize_arg()? },
        "unroll" => Transform::Unroll,
        "vectorize" => Transform::Vectorize { width: usize_arg()? },
        "parallelize" => Transform::Parallelize,
        "bind_gpu" => {
            // Display prints the scope-kind suffix, e.g. ":g"
            let suffix = arg?.strip_prefix(':')?;
            let kind = ScopeKind::from_suffix(suffix.chars().next()?)?;
            if suffix.len() != 1 || !kind.is_gpu() {
                return None;
            }
            Transform::BindGpu(kind)
        }
        "set_seq" => Transform::SetSeq,
        "reuse_dims" => Transform::ReuseDims,
        "materialize_dims" => Transform::MaterializeDims,
        "swap_dims" => Transform::SwapDims,
        "pad_dim" => Transform::PadDim { align: usize_arg()? },
        "set_location" => Transform::SetLocation(Location::parse(arg?)?),
        "enable_ssr" => Transform::EnableSsr,
        "enable_frep" => Transform::EnableFrep,
        _ => return None,
    })
}

/// Parse the `Display` form of a [`Loc`]:
/// `@0.1` (node), `@0.1:2` (node + split index), `buf#3` (buffer
/// dimension), `buf` (whole buffer).
pub fn parse_loc(s: &str) -> Option<Loc> {
    if s.is_empty() {
        return None;
    }
    if let Some(rest) = s.strip_prefix('@') {
        if let Some((path, at)) = rest.split_once(':') {
            let p = Path::parse(&format!("@{path}"))?;
            return Some(Loc::NodeAt(p, at.parse().ok()?));
        }
        return Path::parse(&format!("@{rest}")).map(Loc::Node);
    }
    if let Some((buf, dim)) = s.split_once('#') {
        if buf.is_empty() {
            return None;
        }
        return Some(Loc::BufferDim(BufDimLoc { buffer: buf.to_string(), dim: dim.parse().ok()? }));
    }
    Some(Loc::Buffer(s.to_string()))
}

/// Parse the `Display` form of an [`Action`] (`<transform> @ <loc>`).
pub fn parse_action(s: &str) -> Option<Action> {
    let (t, l) = s.split_once(" @ ")?;
    Some(Action { transform: parse_transform(t)?, loc: parse_loc(l)? })
}

/// Append `<key> <n>` and one `step <action>` line per action.
pub fn push_steps(out: &mut String, key: &str, steps: &[Action]) {
    out.push_str(&format!("{key} {}\n", steps.len()));
    for s in steps {
        out.push_str(&format!("step {s}\n"));
    }
}

/// Parse a [`push_steps`] list. The count never pre-allocates: a count
/// larger than the text fails at the first missing `step` line.
pub fn parse_steps(l: &mut Lines<'_>, key: &str) -> Result<Vec<Action>, String> {
    l.list(key, |l| {
        let rest = l.keyed("step")?;
        parse_action(rest).ok_or_else(|| l.err(&format!("unparseable action {rest:?}")))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TransformLibrary;

    fn roundtrip_t(t: &Transform) {
        let text = t.to_string();
        let back = parse_transform(&text).unwrap_or_else(|| panic!("unparseable: {text}"));
        assert_eq!(&back, t, "{text}");
    }

    #[test]
    fn every_library_transform_roundtrips() {
        for lib in [
            TransformLibrary::cpu(16),
            TransformLibrary::cpu(4),
            TransformLibrary::gpu(32),
            TransformLibrary::gpu(64),
            TransformLibrary::snitch(),
        ] {
            for t in &lib.transforms {
                roundtrip_t(t);
            }
        }
    }

    #[test]
    fn gpu_binding_variants_roundtrip() {
        for k in [perfdojo_ir::ScopeKind::GpuGrid, perfdojo_ir::ScopeKind::GpuBlock, perfdojo_ir::ScopeKind::GpuWarp] {
            roundtrip_t(&Transform::BindGpu(k));
        }
    }

    #[test]
    fn locs_roundtrip() {
        for loc in [
            Loc::Node(Path::from([0])),
            Loc::Node(Path::from([2, 0, 17])),
            Loc::NodeAt(Path::from([1, 3]), 2),
            Loc::BufferDim(BufDimLoc { buffer: "acc".into(), dim: 1 }),
            Loc::Buffer("t".into()),
        ] {
            let text = loc.to_string();
            assert_eq!(parse_loc(&text).as_ref(), Some(&loc), "{text}");
        }
    }

    #[test]
    fn actions_roundtrip() {
        for a in [
            Action { transform: Transform::SplitScope { tile: 8 }, loc: Loc::Node(Path::from([0, 1])) },
            Action { transform: Transform::SetLocation(Location::Stack), loc: Loc::Buffer("t".into()) },
            Action {
                transform: Transform::PadDim { align: 16 },
                loc: Loc::BufferDim(BufDimLoc { buffer: "z".into(), dim: 0 }),
            },
            Action { transform: Transform::FissionScope, loc: Loc::NodeAt(Path::from([0]), 1) },
        ] {
            let text = a.to_string();
            assert_eq!(parse_action(&text).as_ref(), Some(&a), "{text}");
        }
    }

    #[test]
    fn step_lists_round_trip_and_reject_hostile_counts() {
        let steps = vec![
            Action {
                transform: Transform::SplitScope { tile: 8 },
                loc: Loc::Node(Path::from([0])),
            },
            Action { transform: Transform::Unroll, loc: Loc::Node(Path::from([0, 0])) },
        ];
        let mut text = String::new();
        push_steps(&mut text, "best", &steps);
        push_steps(&mut text, "none", &[]);
        assert_eq!(text, "best 2\nstep split_scope(8) @ @0\nstep unroll @ @0.0\nnone 0\n");
        let mut l = Lines::new(&text);
        assert_eq!(parse_steps(&mut l, "best").unwrap(), steps);
        assert_eq!(parse_steps(&mut l, "none").unwrap(), vec![]);
        let hostile = text.replacen("best 2", "best 18446744073709551615", 1);
        assert!(parse_steps(&mut Lines::new(&hostile), "best").is_err());
        let garbled = text.replacen("unroll @", "unroll", 1);
        assert!(parse_steps(&mut Lines::new(&garbled), "best").is_err());
    }

    #[test]
    fn garbage_rejected() {
        assert!(parse_transform("frobnicate").is_none());
        assert!(parse_transform("split_scope(x)").is_none());
        assert!(parse_transform("bind_gpu(:q)").is_none());
        assert!(parse_transform("bind_gpu(g)").is_none());
        assert!(parse_loc("").is_none());
        assert!(parse_loc("@a.b").is_none());
        assert!(parse_loc("#1").is_none());
        assert!(parse_action("unroll").is_none(), "missing location");
        assert!(parse_action("unroll @ @0.x").is_none());
    }

    #[test]
    fn found_locations_on_real_kernel_roundtrip() {
        // every action the Dojo could ever record must survive text form
        use perfdojo_ir::builder::*;
        let mut b = perfdojo_ir::ProgramBuilder::new("k");
        b.input("x", &[4, 16]).output("z", &[4, 16]);
        b.scopes(&[4, 16], |b| {
            b.op(out("z", &[0, 1]), mul(ld("x", &[0, 1]), cst(2.0)));
        });
        let p = b.build();
        let lib = TransformLibrary::cpu(8);
        let actions = crate::available_actions(&p, &lib);
        assert!(!actions.is_empty());
        for a in &actions {
            let text = a.to_string();
            assert_eq!(parse_action(&text).as_ref(), Some(a), "{text}");
        }
    }
}
